"""shiftcalc: exact shift-equivalence calculus and the finite bimodule
calculus built on top of it.

The package splits into an exact integer layer (matrices, Smith normal form,
witnesses, invariants) and a numerical layer (block-unitary correspondence
calculus, aligned shifts, homotopies).  See README.md for a tour.
"""

from .errors import (
    CompositionError,
    ContractError,
    DomainError,
    ParseError,
    ShapeError,
    ShiftcalcError,
)
from .exact import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    from_rows,
    identity,
    is_essential,
    is_nonnegative,
    mat_mul,
    mat_pow,
    poly,
    rank,
    smith_normal_form,
    transpose,
)
from .witnesses import (
    SEWitness,
    SSEChain,
    compose_se,
    failing_equation,
    fold_chain,
    identity_witness,
    random_sse_chain,
    reverse_se,
    search_se,
    verify_se,
)
from .invariants import (
    ComparisonVerdict,
    DimensionInvariants,
    bowen_franks_general,
    compare,
    compute_invariants,
)
from .corr import (
    DEFAULT_TOL,
    BlockUnitary,
    GraphCorrespondence,
    ObjectPair,
    OneArrow,
    canonical_assoc,
    canonical_identification,
    check_two_arrow,
    compose_one_arrows,
    compose_unitaries,
    conjugate_arrow,
    from_matrix,
    left_unitor,
    right_unitor,
    identity_arrow,
    identity_unitary,
    object_pair,
    power_arrow,
    power_correspondence,
    random_block_unitary,
    tensor,
    tensor_unitaries,
    two_arrow_residual,
    unitarity_defect,
    unitary_distance,
)
from .aligned import (
    AlignedShiftData,
    AlignmentReport,
    alignment_report,
    alignment_residuals,
    build_from_se,
    compose_shifts,
    conjugate_shift,
    reverse_shift,
    slide_past_powers,
    trivial_shift,
    two_arrow_residuals,
    verify_aligned,
    verify_concrete_shift,
)
from .homotopy import (
    ArrowHomotopy,
    UnitaryPath,
    connect_unitaries,
    homotopy_failure,
    homotopy_shift_equivalence_from_se,
    homotopy_to_identity,
    verify_homotopy,
)

__version__ = "0.1.0"

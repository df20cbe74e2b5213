"""Concrete shifts between correspondence objects and their alignment.

A concrete shift of lag m between objects (A, X) and (B, Y) is a six-tuple
(M, N, Phi_M, Phi_N, Psi_X, Psi_Y) of correspondences and unitaries

    Phi_M : X (x) M -> M (x) Y        Phi_N : Y (x) N -> N (x) X
    Psi_X : M (x) N -> X^(x)m         Psi_Y : N (x) M -> Y^(x)m

and it is *aligned* when the two triple-tensor coherence equations hold:

    (Psi_X (x) 1_X)(1_M (x) Phi_N)(Phi_M (x) 1_N) = 1_X (x) Psi_X
    (Psi_Y (x) 1_Y)(1_N (x) Phi_M)(Phi_N (x) 1_M) = 1_Y (x) Psi_Y

Equivalently, Psi_X and Psi_Y are 2-arrows from the composite arrows to the
tensor-power arrows.  Verdicts come from the triple-tensor equations alone
(``alignment_residuals``).  ``two_arrow_residuals`` measures the 2-arrow
formulation, which differs only by a product with identity blocks; the
independent check is the test ``test_two_arrow_square_onto_conjugated_power_agrees``,
through a power arrow conjugated by a Haar unitary.

An arrow is built in one place, ``assemble_arrow``, from its integer record (A, B, F), and a
shift in one place, ``assemble_shift``, from its record (A, B, R, S, m).  Each builds its objects
and edge correspondences first, which hold no per-edge array until ``tensor_unitaries`` reads one,
then sizes its maps from their dims, and makes each arrow by ``corr.arrow_with``, which alone
decides B F = F A.  ``build_from_se`` and the readers in ``jsonio`` supply the record and the maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .corr import (
    DEFAULT_TOL,
    BlockUnitary,
    ObjectPair,
    OneArrow,
    arrow_with,
    basis_fits,
    canonical_identification,
    compose_one_arrows,
    compose_unitaries,
    conjugate_arrow,
    from_matrix,
    object_pair,
    power_arrow,
    power_correspondence,
    tensor,
    tensor_unitaries,
    two_arrow_residual,
    unitarity_defect,
    unitary_distance,
)
from .errors import CompositionError, ContractError, DomainError, ShapeError
from .exact import mat_mul, power, power_equals
from .witnesses import SEWitness, identity_witness, verify_se

#: Bytes the four structure maps of one shift, or the phi of one arrow, may take: their size is
#: predicted from the integer dims before any map is made, and more is refused with a ``DomainError``.
#: Each map keeps a complex entry (16 bytes) per basis pair of a block, and a canonical
#: identification first holds the float64 identity it is made from (8 more), so 24 bytes
#: are counted per entry.  The golden witness's maps take 6.6 MB at lag 8.
_MAPS_BYTES = 1 << 30


@dataclass(frozen=True, eq=False)
class AlignedShiftData:
    """The six-tuple of a concrete shift, with exact shape bookkeeping.

    ``m_arrow`` is [M, Phi_M] pointing from (B, Y) to (A, X) and ``n_arrow``
    is [N, Phi_N] pointing back.  Construction validates that every map has
    precisely the canonical tensor-product endpoints, which also forces
    dims(M) dims(N) = A^m and dims(N) dims(M) = B^m.
    """

    x_obj: ObjectPair
    y_obj: ObjectPair
    m_arrow: OneArrow
    n_arrow: OneArrow
    psi_x: BlockUnitary
    psi_y: BlockUnitary
    lag: int

    def __post_init__(self):
        if self.lag < 1:
            raise DomainError("shift lag must be a positive integer")
        if self.m_arrow.source != self.y_obj or self.m_arrow.target != self.x_obj:
            raise ShapeError("m_arrow must point from the Y object to the X object")
        if self.n_arrow.source != self.x_obj or self.n_arrow.target != self.y_obj:
            raise ShapeError("n_arrow must point from the X object to the Y object")
        if self.psi_x.source != tensor(self.m_arrow.f, self.n_arrow.f):
            raise ShapeError("psi_x must start at M (x) N with the canonical basis")
        if self.psi_x.target != power_correspondence(self.x_obj, self.lag):
            raise ShapeError("psi_x must end at the lag-th tensor power of X")
        if self.psi_y.source != tensor(self.n_arrow.f, self.m_arrow.f):
            raise ShapeError("psi_y must start at N (x) M with the canonical basis")
        if self.psi_y.target != power_correspondence(self.y_obj, self.lag):
            raise ShapeError("psi_y must end at the lag-th tensor power of Y")


def verify_concrete_shift(d: AlignedShiftData, tol: float = DEFAULT_TOL) -> bool:
    """True iff all four structure maps are blockwise unitary within ``tol``.

    The domain/codomain bookkeeping is already enforced by construction.
    """
    maps = (d.m_arrow.phi, d.n_arrow.phi, d.psi_x, d.psi_y)
    return all(unitarity_defect(u, tol) <= tol for u in maps)


def alignment_residuals(d: AlignedShiftData) -> tuple[float, float]:
    """Operator-norm defects of the two coherence equations (X side, Y side)."""
    sides = ((d.x_obj, d.m_arrow, d.n_arrow, d.psi_x), (d.y_obj, d.n_arrow, d.m_arrow, d.psi_y))
    residuals = []
    for obj, first, second, psi in sides:
        lhs = compose_unitaries(compose_one_arrows(first, second).phi, tensor_unitaries(psi, obj.x))
        residuals.append(unitary_distance(lhs, tensor_unitaries(obj.x, psi)))
    return tuple(residuals)


def two_arrow_residuals(d: AlignedShiftData) -> tuple[float, float]:
    """Alignment measured through the 2-arrow formulation.

    Psi_X must intertwine [M (x) N, Phi_M . Phi_N] with [X^(x)m, 1], and
    Psi_Y the mirrored composite with [Y^(x)m, 1].
    """
    composite_x = compose_one_arrows(d.m_arrow, d.n_arrow)
    composite_y = compose_one_arrows(d.n_arrow, d.m_arrow)
    rx = two_arrow_residual(d.psi_x, composite_x, power_arrow(d.x_obj, d.lag))
    ry = two_arrow_residual(d.psi_y, composite_y, power_arrow(d.y_obj, d.lag))
    return rx, ry


@dataclass(frozen=True)
class AlignmentReport:
    """An alignment verdict with the (X side, Y side) defects of the
    triple-tensor equations; both are None when the shift is not concrete."""

    concrete: bool
    aligned: Optional[bool] = None
    residuals: Optional[tuple[float, float]] = None


def alignment_report(d: AlignedShiftData, tol: float = DEFAULT_TOL) -> AlignmentReport:
    """Check concreteness, then both triple-tensor equations, within ``tol``.

    Each residual is evaluated once.  The 2-arrow formulation is not consulted:
    it differs from this one only by a product with identity blocks.
    """
    if not verify_concrete_shift(d, tol):
        return AlignmentReport(False)
    residuals = alignment_residuals(d)
    # max() would drop a nan in second place.
    return AlignmentReport(True, all(r <= tol for r in residuals), residuals)


def verify_aligned(d: AlignedShiftData, tol: float = DEFAULT_TOL) -> bool:
    """Whether a concrete shift is aligned within ``tol``; see :func:`alignment_report`."""
    report = alignment_report(d, tol)
    if not report.concrete:
        raise ContractError("verify_aligned requires a verified concrete shift")
    return report.aligned


def _bound_maps(dims, maps: str, owner: str) -> None:
    """Refuse ``maps`` whose blocks have the integer ``dims`` when they would take more than ``_MAPS_BYTES``."""
    if (predicted := 24 * sum(d * d for m in dims for row in m.entries for d in row)) > _MAPS_BYTES:
        raise DomainError(f"{maps} would take {predicted} bytes, above the {_MAPS_BYTES} {owner} may take")


def assemble_arrow(a, b, f, make: Optional[Callable] = None, labels=(None, None)) -> OneArrow:
    """The arrow [F, phi] from (A, X) to (B, Y) of the record (A, B, F), vertices labelled by ``labels`` =
    (source's, target's), phi = ``make(Y (x) F, F (x) X)`` (canonical by default): the one place an arrow's
    correspondences get built, the target's first.  Their constructors refuse a malformed, oversized or
    inessential record and allocate nothing; a phi above ``_MAPS_BYTES`` is then refused from B F, and
    :func:`arrow_with` refuses B F != F A, before ``make`` runs."""
    target, source = object_pair(b, labels[1]), object_pair(a, labels[0])
    f = from_matrix(f, target.algebra_index, source.algebra_index)
    _bound_maps([mat_mul(b, f.dims)], "phi", "an arrow")
    return arrow_with(source, target, f, make)


def assemble_shift(w: SEWitness, make: Callable, labels=(None, None)) -> AlignedShiftData:
    """The shift of the integer record ``w`` = (A, B, R, S, m) from X to Y through the arrows
    [M, phi_M] from Y to X and [N, phi_N] back, the objects' vertices labelled by ``labels``, whose
    structure maps are ``make(name, source, target)``, called for "phi_m", "phi_n", "psi_x" and
    "psi_y" in that order: the one place a shift's bases and maps get built.  X, Y, M and N are
    built once, as :func:`assemble_arrow` builds them, and shared by both arrows; a lag that fails
    A^m = R S or B^m = S R, and maps above ``_MAPS_BYTES``, are then refused from ``w``'s dims,
    and :func:`arrow_with` refuses an M or N that does not fit, before any map is made."""
    a, b, r, s, lag = w.a, w.b, w.r, w.s, w.lag
    x, y = object_pair(a, labels[0]), object_pair(b, labels[1])
    m, n = from_matrix(r, x.algebra_index, y.algebra_index), from_matrix(s, y.algebra_index, x.algebra_index)
    mn, nm = tensor(m, n), tensor(n, m)
    # psi_x ends at X^(x)lag, of dims A^lag, so A^lag = R S keeps that basis within the bound below.
    for equation, power, product in (("A^lag = R S", a, mn.dims), ("B^lag = S R", b, nm.dims)):
        if not power_equals(power, lag, product):
            raise ShapeError(f"lag {lag} does not fit the bundle: {equation} fails")
    # X (x) M and Y (x) N have dims A R and B S.
    _bound_maps((mat_mul(a, r), mat_mul(b, s), mn.dims, nm.dims), "the structure maps", "a shift")
    m_arrow = arrow_with(y, x, m, lambda src, tgt: make("phi_m", src, tgt))
    n_arrow = arrow_with(x, y, n, lambda src, tgt: make("phi_n", src, tgt))
    psi_x = make("psi_x", mn, power_correspondence(x, lag))
    psi_y = make("psi_y", nm, power_correspondence(y, lag))
    return AlignedShiftData(x, y, m_arrow, n_arrow, psi_x, psi_y, lag)


def build_from_se(
    w: SEWitness, given: Optional[Callable] = None, *, before_maps: Optional[Callable] = None
) -> AlignedShiftData:
    """Concrete shift induced by a verified witness (A, B, R, S, m), built by :func:`assemble_shift`.

    M and N are the edge correspondences of R and S.  Once the witness verifies, ``before_maps()`` runs,
    if given and every basis fits, so that a caller can refuse what it would build from the witness's
    dims; :func:`assemble_shift` then builds each object once and sizes the maps.  Each structure map is
    ``given(name, source, target)``, called as :func:`assemble_shift` calls its ``make``; where ``given``
    is omitted or returns None, the map is the canonical identification that matches sorted path bases
    in order -- legitimate because the witness equations make the block dimensions agree (e.g.
    X(A) (x) X(R) and X(R) (x) X(B) both have dims AR = RB).  Whether the result is *aligned* is not
    assumed anywhere; run ``verify_aligned`` to find out.
    """
    if not verify_se(w):
        raise ContractError("build_from_se requires a verified witness")
    # A basis numpy cannot index is refused by from_matrix first.
    if before_maps and all(map(basis_fits, (w.a, w.b, w.r, w.s))):
        before_maps()

    def make(name, src, tgt):
        u = given(name, src, tgt) if given else None
        return canonical_identification(src, tgt) if u is None else u

    return assemble_shift(w, make)


def trivial_shift(a) -> AlignedShiftData:
    """The lag-1 self-shift of an essential matrix, from its identity witness."""
    return build_from_se(identity_witness(a))


def reverse_shift(d: AlignedShiftData) -> AlignedShiftData:
    """Swap the two sides of a verified concrete shift."""
    if not verify_concrete_shift(d):
        raise ContractError("reverse_shift requires a verified concrete shift")
    return AlignedShiftData(
        d.y_obj, d.x_obj, d.n_arrow, d.m_arrow, d.psi_y, d.psi_x, d.lag
    )


def slide_past_powers(arrow: OneArrow, n: int) -> BlockUnitary:
    """The iterated intertwiner Y^(x)n (x) F -> F (x) X^(x)n, the canonical 2-arrow between
    [Y^(x)n, 1] (x) [F, phi_F] and [F, phi_F] (x) [X^(x)n, 1]: the canonical identification for n = 0,
    and for n >= 1 the power of (1, phi_F) by :func:`exact.power` under the associative product
    (h, slide_h) (k, slide_k) = (h + k, (1_(Y^(x)h) (x) slide_k) then (slide_h (x) 1_(X^(x)k))): O(log n)
    compositions, bracketed ((slide_(2^a) slide_(2^b)) slide_(2^c)) ... for the set bits a < b < c ... of n.
    """
    if n < 0:
        raise DomainError("slide exponent must be nonnegative")
    if n == 0:
        zero_y = power_correspondence(arrow.target, 0)
        zero_x = power_correspondence(arrow.source, 0)
        return canonical_identification(tensor(zero_y, arrow.f), tensor(arrow.f, zero_x))

    def times(first, second):
        (h, slide_h), (k, slide_k) = first, second
        return h + k, compose_unitaries(tensor_unitaries(power_correspondence(arrow.target, h), slide_k),
                                        tensor_unitaries(slide_h, power_correspondence(arrow.source, k)))

    return power((1, arrow.phi), n, times)[1]


def compose_shifts(
    d1: AlignedShiftData, d2: AlignedShiftData, tol: float = DEFAULT_TOL
) -> AlignedShiftData:
    """Chain aligned shifts (X ~ Y, lag m) and (Y ~ Z, lag n) into X ~ Z.

    The new correspondences are M1 (x) M2 and N2 (x) N1; the new Psi maps are
    assembled from the constituents' Psi maps plus the slide intertwiners, so
    alignment is inherited within the composition's tolerance budget.
    """
    if d1.y_obj != d2.x_obj:
        raise CompositionError("shifts are not chainable: middle objects differ")
    if not verify_aligned(d1, tol) or not verify_aligned(d2, tol):
        raise ContractError("compose_shifts requires aligned inputs")

    m_arrow = compose_one_arrows(d1.m_arrow, d2.m_arrow)
    n_arrow = compose_one_arrows(d2.n_arrow, d1.n_arrow)
    psi_x = _composite_psi(d1.psi_x, d2.psi_x, d1.m_arrow, d1.n_arrow, d2.lag)
    psi_y = _composite_psi(d2.psi_y, d1.psi_y, d2.n_arrow, d2.m_arrow, d1.lag)
    return AlignedShiftData(
        d1.x_obj, d2.y_obj, m_arrow, n_arrow, psi_x, psi_y, d1.lag + d2.lag
    )


def _composite_psi(
    outer: BlockUnitary, inner: BlockUnitary, first: OneArrow, last: OneArrow, inner_lag: int
) -> BlockUnitary:
    """One Psi of a composite shift: ``inner``, the slide of ``last`` and ``outer`` (x) 1,
    F (x) inner.source (x) L -> F (x) Y^n (x) L -> F (x) L (x) X^n -> X^(m+n), for
    F = first.f, L = last.f, X and Y the object correspondences of last.source and
    last.target, and n = inner_lag."""
    return compose_unitaries(
        compose_unitaries(
            tensor_unitaries(tensor_unitaries(first.f, inner), last.f),
            tensor_unitaries(first.f, slide_past_powers(last, inner_lag)),
        ),
        tensor_unitaries(outer, power_correspondence(last.source, inner_lag)),
    )


def conjugate_shift(d: AlignedShiftData, u: BlockUnitary, v: BlockUnitary) -> AlignedShiftData:
    """Conjugate all six maps coherently by automorphisms u of M and v of N.

    The arrows are rewired by :func:`conjugate_arrow` and the Psi maps become
    Psi_X (u (x) v)* and Psi_Y (v (x) u)*.  This cancels out of both
    coherence equations, so it preserves alignment exactly; it is the
    standard way to manufacture aligned shifts with non-permutation unitaries.
    """
    if not (u.source == d.m_arrow.f and u.target == d.m_arrow.f):
        raise ShapeError("u must be an automorphism of M")
    if not (v.source == d.n_arrow.f and v.target == d.n_arrow.f):
        raise ShapeError("v must be an automorphism of N")
    psi_x = compose_unitaries(tensor_unitaries(u, v).adjoint(), d.psi_x)
    psi_y = compose_unitaries(tensor_unitaries(v, u).adjoint(), d.psi_y)
    return AlignedShiftData(
        d.x_obj, d.y_obj, conjugate_arrow(d.m_arrow, u), conjugate_arrow(d.n_arrow, v),
        psi_x, psi_y, d.lag,
    )

"""The nine acceptance properties as one table, run in the field by `shiftcalc selftest`.

Each row of :data:`PROPERTIES` is one acceptance criterion: a check taking
``(size, tol)`` and returning an :class:`Outcome`.  A check draws its
instances from its criterion's seeds in a fixed order, so at the acceptance
suite's sizes it builds exactly the instances the suite pins; ``selftest``
runs every row at a smaller field size, so a deployment can confirm the whole
stack in a few seconds without the development test suite.  Numerical bounds
are the documented budgets in units of ``tol``: 1x for homotopy sample
unitarity, concreteness and the formulation verdicts, 8x for alignment
transitivity, 10x for the bicategory laws, the formulation gap and the
homotopy endpoints.  The other five checks are exact.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .aligned import (
    AlignedShiftData,
    alignment_report,
    alignment_residuals,
    assemble_arrow,
    build_from_se,
    compose_shifts,
    conjugate_shift,
    trivial_shift,
    two_arrow_residuals,
    verify_concrete_shift,
)
from .corr import (
    OneArrow,
    compose_one_arrows,
    conjugate_arrow,
    from_matrix,
    identity_arrow,
    left_unitor,
    power_arrow,
    random_block_unitary,
    right_unitor,
    tensor,
    tensor_unitaries,
    two_arrow_residual,
)
from .errors import ShiftcalcError
from .exact import IntMatrix, from_rows, mat_mul
from .homotopy import homotopy_failure, homotopy_shift_equivalence_from_se
from .invariants import (
    ONE_MINUS_T,
    ONE_MINUS_T_SQUARED,
    ONE_PLUS_T,
    bowen_franks_general,
    compare,
)
from .witnesses import (
    SE_EQUATIONS,
    SEWitness,
    failing_equation,
    fold_chain,
    random_sse_chain,
    search_se,
    verify_se,
)

#: The 1x1 full shift against the 2x2 all-ones matrix, lag 1.
GOLDEN_WITNESS = SEWitness(
    from_rows([[2]]), from_rows([[1, 1], [1, 1]]), from_rows([[1, 1]]), from_rows([[1], [1]]), 1
)


def random_essential(rng: random.Random, max_size: int = 3, max_entry: int = 2) -> IntMatrix:
    """Random essential matrix: zero rows/columns are patched with a 1."""
    n = rng.randint(1, max_size)
    rows = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if not any(rows[i]):
            rows[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(rows[i][j] for i in range(n)):
            rows[rng.randrange(n)][j] = 1
    return from_rows(rows)


def arrow_from_witness(w: SEWitness, np_rng: Optional[np.random.Generator] = None) -> OneArrow:
    """The arrow [X(S), canonical] from (witness B, Y) <- (witness A, X).

    The intertwining equation BS = SA makes the canonical identification a
    valid intertwiner.  With a generator supplied, the arrow is conjugated by
    a random block unitary so its intertwiner is not a permutation.
    """
    arrow = assemble_arrow(w.a, w.b, w.s)
    if np_rng is not None:
        arrow = conjugate_arrow(arrow, random_block_unitary(arrow.f, np_rng))
    return arrow


def _conjugated(d: AlignedShiftData, np_rng: np.random.Generator) -> AlignedShiftData:
    """``d`` conjugated by random block unitaries on M, then on N."""
    return conjugate_shift(
        d, random_block_unitary(d.m_arrow.f, np_rng), random_block_unitary(d.n_arrow.f, np_rng)
    )


def phase_twist(shift: AlignedShiftData, theta: float) -> AlignedShiftData:
    """The shift with one basis vector of psi_x phased by ``theta``; still concrete."""
    (i, j) = next(iter(shift.psi_x.blocks))
    block = shift.psi_x.block(i, j)
    phase = np.eye(block.shape[0], dtype=complex)
    phase[0, 0] = np.exp(1j * theta)
    return replace(shift, psi_x=shift.psi_x.replace_block(i, j, phase @ block))


@dataclass(frozen=True)
class Outcome:
    """The first failure of a property check (which trial, what failed) or None,
    and the largest residual held to a budget (0.0 if exact or failed)."""

    failure: Optional[str] = None
    worst: float = 0.0


class _Refuted(Exception):
    """A property check met a counterexample."""


def _expect(holds: bool, message: str):
    if not holds:
        raise _Refuted(message)


def _property(check: Callable[[int, float], float]) -> Callable[[int, float], Outcome]:
    """A check returning its worst residual, as one returning an :class:`Outcome`;
    a counterexample or a package error raised inside it is its failure."""

    @functools.wraps(check)
    def run(size: int, tol: float) -> Outcome:
        try:
            return Outcome(worst=check(size, tol))
        except _Refuted as exc:
            return Outcome(str(exc))
        except ShiftcalcError as exc:
            return Outcome(f"{type(exc).__name__}: {exc}")

    return run


@_property
def witness_verification(size: int, tol: float) -> float:
    """Criterion 1: the golden witness verifies; raising any entry of R or S breaks it."""
    _expect(verify_se(GOLDEN_WITNESS), "the golden witness does not verify")
    for field in ("r", "s"):
        base = getattr(GOLDEN_WITNESS, field)
        for i in range(base.rows):
            for j in range(base.cols):
                bumped = base.to_lists()
                bumped[i][j] += 1
                w = replace(GOLDEN_WITNESS, **{field: from_rows(bumped)})
                _expect(
                    failing_equation(w) in SE_EQUATIONS,
                    f"raising {field.upper()}[{i}][{j}] leaves every equation intact",
                )
    return 0.0


@_property
def chain_composition(size: int, tol: float) -> float:
    """Criterion 2: ``size`` folded splitting chains verify; no invariant splits their ends."""
    rng = random.Random(220817)
    for trial in range(size):
        base = random_essential(rng, max_size=4, max_entry=3)
        length = rng.randint(1, 4)
        folded = fold_chain(random_sse_chain(base, length, seed=rng.randrange(10**9)))
        _expect(verify_se(folded), f"trial {trial}: the folded witness does not verify")
        _expect(folded.lag == length, f"trial {trial}: folded lag {folded.lag}, expected {length}")
        verdict = compare(folded.a, folded.b)
        _expect(not verdict.distinguished, f"trial {trial}: {verdict.primary} splits the ends")
        for p in (ONE_MINUS_T, ONE_PLUS_T, ONE_MINUS_T_SQUARED):
            _expect(
                bowen_franks_general(folded.a, p) == bowen_franks_general(folded.b, p),
                f"trial {trial}: the generalized Bowen-Franks groups for {p} differ",
            )
    return 0.0


@_property
def invariant_separation(size: int, tol: float) -> float:
    """Criterion 3: invariants separate [[2]], [[3]] and [[1,2],[2,1]], at golden values."""
    v1 = compare(from_rows([[2]]), from_rows([[3]]))
    _expect(v1.distinguished and v1.primary == "nonzero_char_poly", f"[[2]] against [[3]]: {v1}")
    three = from_rows([[3]])
    sym = from_rows([[1, 2], [2, 1]])
    # Golden values computed with the Smith-normal-form oracle ahead of the
    # build: coker(I - [3]) = coker([-2]) = Z/2, and I - [[1,2],[2,1]] =
    # [[0,-2],[-2,0]] has invariant factors (2, 2).
    _expect(bowen_franks_general(three, ONE_MINUS_T) == (2,), "coker(I - [[3]]) != (2,)")
    _expect(bowen_franks_general(sym, ONE_MINUS_T) == (2, 2), "coker(I - [[1,2],[2,1]]) != (2, 2)")
    v2 = compare(three, sym)
    _expect(v2.distinguished and "bowen_franks" in v2.separating, f"[[3]], [[1,2],[2,1]]: {v2}")
    return 0.0


@_property
def tensor_dims_oracle(size: int, tol: float) -> float:
    """Criterion 4: on ``size`` pairs, X(R) (x) X(S) has dims RS and one vector per path."""
    rng = random.Random(40404)
    for trial in range(size):
        rows, mid, cols = (rng.randint(1, 3) for _ in range(3))
        r = from_rows([[rng.randint(0, 3) for _ in range(mid)] for _ in range(rows)])
        s = from_rows([[rng.randint(0, 3) for _ in range(cols)] for _ in range(mid)])
        t = tensor(from_matrix(r), from_matrix(s))
        product = mat_mul(r, s)
        _expect(t.dims == product, f"trial {trial}: dims mismatch")
        _expect(t.total_dim == sum(map(sum, product.entries)), f"trial {trial}: basis cardinality")
        # Independent path enumeration, straight off the integer matrices.
        paths = sum(r[v, u] * s[u, w] for v in range(rows) for u in range(mid) for w in range(cols))
        _expect(t.total_dim == paths, f"trial {trial}: path count oracle")
    return 0.0


@_property
def bicategory_laws(size: int, tol: float) -> float:
    """Criterion 5: unit, inverse and power laws on ``size`` arrows, then
    interchange on ``size`` composable pairs, within 10 tol."""
    rng = random.Random(50505)
    np_rng = np.random.default_rng(50505)
    bound = 10 * tol
    worst = 0.0
    for trial in range(size):
        base = random_essential(rng, max_size=3, max_entry=2)
        witness = random_sse_chain(base, 1, seed=rng.randrange(10**9)).steps[0]
        arrow = arrow_from_witness(witness, np_rng)

        # Unit laws through the identity arrow's canonical unitors.
        right = compose_one_arrows(arrow, identity_arrow(arrow.source))
        worst = max(worst, two_arrow_residual(right_unitor(arrow.f), right, arrow))
        left = compose_one_arrows(identity_arrow(arrow.target), arrow)
        worst = max(worst, two_arrow_residual(left_unitor(arrow.f), left, arrow))

        # 2-arrow invertibility on a conjugation-built valid 2-arrow.
        u = random_block_unitary(arrow.f, np_rng)
        other = conjugate_arrow(arrow, u)
        r_fwd = two_arrow_residual(u, arrow, other)
        r_bwd = two_arrow_residual(u.adjoint(), other, arrow)
        _expect(max(r_fwd, r_bwd) <= bound, f"trial {trial}: inverses {r_fwd:.3e}, {r_bwd:.3e}")
        worst = max(worst, r_fwd, r_bwd)

        # The composition-with-powers instance: phi_F intertwines
        # [Y,1] (x) [F,phi_F] with [F,phi_F] (x) [X,1].
        lhs = compose_one_arrows(power_arrow(arrow.target, 1), arrow)
        rhs = compose_one_arrows(arrow, power_arrow(arrow.source, 1))
        worst = max(worst, two_arrow_residual(arrow.phi, lhs, rhs))

    # Interchange law on seeded pairs of composable conjugations.
    for _ in range(size):
        base = random_essential(rng, max_size=3, max_entry=2)
        chain = random_sse_chain(base, 2, seed=rng.randrange(10**9)).steps
        f1, f2 = (arrow_from_witness(w, np_rng) for w in chain)
        u1, u2 = (random_block_unitary(f.f, np_rng) for f in (f1, f2))
        g1, g2 = conjugate_arrow(f1, u1), conjugate_arrow(f2, u2)
        lhs, rhs = compose_one_arrows(f2, f1), compose_one_arrows(g2, g1)
        worst = max(worst, two_arrow_residual(tensor_unitaries(u2, u1), lhs, rhs))
    _expect(worst <= bound, f"largest residual {worst:.3e} exceeds {bound:.1e}")
    return worst


@_property
def alignment_transitivity(size: int, tol: float) -> float:
    """Criterion 6: ``size`` composites of conjugated trivial shifts align within 8 tol."""
    rng = random.Random(60606)
    np_rng = np.random.default_rng(60606)
    bound = 8 * tol
    worst = 0.0
    for trial in range(size):
        d0 = trivial_shift(random_essential(rng, max_size=3, max_entry=2))
        composed = compose_shifts(_conjugated(d0, np_rng), _conjugated(d0, np_rng))
        _expect(composed.lag == 2, f"trial {trial}: composite lag {composed.lag}")
        report = alignment_report(composed, bound)  # residuals None when not concrete
        _expect(report.aligned, f"trial {trial}: not aligned within {bound:.1e}, residuals {report.residuals}")
        worst = max(worst, *report.residuals)
    return worst


@_property
def alignment_formulations(size: int, tol: float) -> float:
    """Criterion 8: on ``size`` built, conjugated and twisted shifts, concrete within
    tol, the two alignment residuals differ by 10 tol at most and agree at tol."""
    rng = random.Random(80808)
    np_rng = np.random.default_rng(80808)
    shifts = []
    while len(shifts) < size:
        base = random_essential(rng, max_size=3, max_entry=2)
        d = build_from_se(random_sse_chain(base, 1, seed=rng.randrange(10**9)).steps[0])
        shifts += [d, _conjugated(d, np_rng), phase_twist(d, rng.uniform(0.3, 2.8))]
    worst = 0.0
    for idx, d in enumerate(shifts[:size]):
        _expect(verify_concrete_shift(d, tol), f"shift {idx}: a structure map is not unitary")
        direct = max(alignment_residuals(d))
        via = max(two_arrow_residuals(d))
        gap = abs(direct - via)
        _expect(gap <= 10 * tol, f"shift {idx}: gap {gap:.3e}")
        _expect((direct <= tol) == (via <= tol), f"shift {idx}: verdicts disagree")
        worst = max(worst, gap)
    return worst


@_property
def homotopy_roundtrip(size: int, tol: float) -> float:
    """Criterion 7: the golden witness's two ``size``-sample homotopies pass
    :func:`homotopy_failure` at tol, their endpoint squares within 10 tol."""
    _, hom_x, hom_y = homotopy_shift_equivalence_from_se(GOLDEN_WITNESS, steps=size)
    worst = 0.0
    for side, hom in (("x", hom_x), ("y", hom_y)):
        _expect(len(hom.path) == size, f"homotopy {side}: {len(hom.path)} samples")
        failure = homotopy_failure(hom, tol)
        _expect(failure is None, f"homotopy {side}: {failure}")
        endpoint0 = two_arrow_residual(hom.h0, hom.fiber_arrow(0), hom.f_arrow)
        endpoint1 = two_arrow_residual(hom.h1, hom.fiber_arrow(size - 1), hom.g_arrow)
        worst = max(worst, endpoint0, endpoint1)
        _expect(worst <= 10 * tol, f"homotopy {side}: endpoint residual {worst:.3e}")
    return worst


@_property
def recover_golden(size: int, tol: float) -> float:
    """Criterion 9, first half: the bounded search finds the golden R and S."""
    found = search_se(GOLDEN_WITNESS.a, GOLDEN_WITNESS.b, 1, 1)
    _expect(found is not None and verify_se(found), "no verified witness for [[2]] ~ [[1,1],[1,1]]")
    _expect(
        found.r == GOLDEN_WITNESS.r and found.s == GOLDEN_WITNESS.s,
        "the search found a witness other than the golden one",
    )
    return 0.0


@_property
def refute_two_against_three(size: int, tol: float) -> float:
    """Criterion 9, second half: no lag-1 witness with entries <= ``size`` joins [[2]], [[3]]."""
    found = search_se(from_rows([[2]]), from_rows([[3]]), 1, size)
    _expect(found is None, f"a lag-1 witness [[2]] ~ [[3]] with entries <= {size}")
    return 0.0


def search_recovery(size: int, tol: float) -> Outcome:
    """Criterion 9: :func:`recover_golden`, then :func:`refute_two_against_three`."""
    outcome = recover_golden(1, tol)
    return outcome if outcome.failure else refute_two_against_three(size, tol)


class Property(NamedTuple):
    """One acceptance criterion: its report name, its check, and the size
    ``selftest`` runs it at.  A size counts trials, except the homotopy's
    samples and the search's entry bound; checks of fixed instances ignore it."""

    name: str
    check: Callable[[int, float], Outcome]
    field_size: int


#: The acceptance criteria, in report order (criteria 7 and 8 swap places).
PROPERTIES = (
    Property("witness-verification", witness_verification, 1),
    Property("chain-composition", chain_composition, 10),
    Property("invariant-separation", invariant_separation, 1),
    Property("tensor-dims-oracle", tensor_dims_oracle, 25),
    Property("bicategory-laws", bicategory_laws, 10),
    Property("alignment-transitivity", alignment_transitivity, 5),
    Property("alignment-formulations", alignment_formulations, 12),
    Property("homotopy-roundtrip", homotopy_roundtrip, 8),
    Property("search-recovery", search_recovery, 5),
)


def run_selftest(tol: float) -> list[tuple[str, Optional[str]]]:
    """Run every property at its field size within ``tol``; returns (name,
    failure) pairs, the failure None for a check that passed."""
    return [(p.name, p.check(p.field_size, tol).failure) for p in PROPERTIES]

"""Shift-equivalence witnesses: verification, composition, search, generation.

A witness is a tuple (A, B, R, S, m) of nonnegative integer matrices claiming
that A and B are shift equivalent with lag m, i.e.

    A^m = RS,   B^m = SR,   BS = SA,   AR = RB.

Verification is exact.  ``search_se`` is a bounded enumeration (no general
decision procedure is attempted); ``random_sse_chain`` manufactures lag-1
witnesses from random row/column splittings, which always verify by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import CompositionError, ContractError, DomainError, ShapeError
from .exact import (
    IntMatrix,
    from_rows,
    identity,
    is_essential,
    is_nonnegative,
    mat_mul,
    mat_pow,
    power_equals,
    transpose,
)

#: The four defining equations, in the order they are checked and reported.
SE_EQUATIONS = ("A^m = RS", "B^m = SR", "BS = SA", "AR = RB")


@dataclass(frozen=True)
class SEWitness:
    """A claimed shift equivalence (a, b, r, s, lag); validity is separate."""

    a: IntMatrix
    b: IntMatrix
    r: IntMatrix
    s: IntMatrix
    lag: int

    def __post_init__(self):
        if not self.a.is_square or not self.b.is_square:
            raise ShapeError("witness endpoints must be square matrices")
        if (self.r.rows, self.r.cols) != (self.a.rows, self.b.rows):
            raise ShapeError(
                f"R must be {self.a.rows}x{self.b.rows}, got {self.r.rows}x{self.r.cols}"
            )
        if (self.s.rows, self.s.cols) != (self.b.rows, self.a.rows):
            raise ShapeError(
                f"S must be {self.b.rows}x{self.a.rows}, got {self.s.rows}x{self.s.cols}"
            )
        for name, m in (("a", self.a), ("b", self.b), ("r", self.r), ("s", self.s)):
            if not is_nonnegative(m):
                raise DomainError(f"witness matrix {name} has a negative entry")
        if self.lag < 1:
            raise DomainError("lag must be a positive integer")


@dataclass(frozen=True)
class SSEChain:
    """A chain of lag-1 witnesses, consecutive endpoints matching."""

    steps: tuple[SEWitness, ...]

    def __post_init__(self):
        for w in self.steps:
            if w.lag != 1:
                raise DomainError("chain steps must have lag 1")
        for w1, w2 in zip(self.steps, self.steps[1:]):
            if w1.b != w2.a:
                raise CompositionError("consecutive chain steps do not share an endpoint")


def failing_equation(w: SEWitness) -> Optional[str]:
    """Name of the first defining equation that fails, or None if all hold."""
    checks = (
        lambda: power_equals(w.a, w.lag, mat_mul(w.r, w.s)),
        lambda: power_equals(w.b, w.lag, mat_mul(w.s, w.r)),
        lambda: mat_mul(w.b, w.s) == mat_mul(w.s, w.a),
        lambda: mat_mul(w.a, w.r) == mat_mul(w.r, w.b),
    )
    return next((name for name, holds in zip(SE_EQUATIONS, checks) if not holds()), None)


def verify_se(w: SEWitness) -> bool:
    """True iff all four shift-equivalence equations hold exactly."""
    return failing_equation(w) is None


def identity_witness(a: IntMatrix) -> SEWitness:
    """The lag-1 self-witness (A, A, I, A)."""
    return SEWitness(a, a, identity(a.rows), a, 1)


def reverse_se(w: SEWitness) -> SEWitness:
    """Swap the roles of the two endpoints; requires a verified input."""
    if not verify_se(w):
        raise ContractError("reverse_se requires a verified witness")
    return SEWitness(w.b, w.a, w.s, w.r, w.lag)


def compose_se(w1: SEWitness, w2: SEWitness) -> SEWitness:
    """Chain two verified witnesses A ~ B and B ~ C into A ~ C.

    The result has R = R1*R2, S = S2*S1 and lag m1 + m2; it verifies whenever
    the inputs do.
    """
    if w1.b != w2.a:
        raise CompositionError("compose_se requires w1.b == w2.a")
    if not verify_se(w1) or not verify_se(w2):
        raise ContractError("compose_se requires verified witnesses")
    return SEWitness(
        w1.a, w2.b, mat_mul(w1.r, w2.r), mat_mul(w2.s, w1.s), w1.lag + w2.lag
    )


def fold_chain(chain: SSEChain) -> SEWitness:
    """Compose all steps of a nonempty chain into a single witness."""
    if not chain.steps:
        raise DomainError("cannot fold an empty chain")
    acc = chain.steps[0]
    for step in chain.steps[1:]:
        acc = compose_se(acc, step)
    return acc


# ---------------------------------------------------------------------------
# Bounded witness search
# ---------------------------------------------------------------------------


def _bounded_intertwiners(
    left: IntMatrix, right: IntMatrix, rows: int, cols: int, bound: int
) -> Iterator[IntMatrix]:
    """All nonnegative integer X with entries <= bound and left*X == X*right.

    Enumerated in lexicographic order of the row-major entry vector.  Entries
    are filled one by one, each node carrying the running sum of every linear
    constraint over the cells filled so far.  ``low[c]`` and ``high[c]`` are
    the least and greatest totals cells c, c+1, ... can still add to each
    constraint within [0, bound], computed once; a node is pruned as soon as
    some constraint's sum can no longer reach zero.
    """
    ncells = rows * cols
    # Constraint (i, j): sum_k left[i,k] X[k,j] - sum_k X[i,k] right[k,j] == 0.
    # columns[p * cols + q] holds cell (p, q)'s coefficient in every constraint.
    columns = [
        [
            (left[i, p] if q == j else 0) - (right[q, j] if i == p else 0)
            for i in range(rows)
            for j in range(cols)
        ]
        for p in range(rows)
        for q in range(cols)
    ]
    low, high = [[0] * ncells], [[0] * ncells]
    for column in reversed(columns):
        low.insert(0, [lo + bound * min(x, 0) for lo, x in zip(low[0], column)])
        high.insert(0, [hi + bound * max(x, 0) for hi, x in zip(high[0], column)])

    values = [0] * ncells

    def fill(cell: int, sums: list) -> Iterator[IntMatrix]:
        if cell == ncells:
            yield from_rows(
                [values[i * cols : (i + 1) * cols] for i in range(rows)]
            )
            return
        for x in range(bound + 1):
            values[cell] = x
            partial = [s + x * c for s, c in zip(sums, columns[cell])]
            if all(
                s + lo <= 0 <= s + hi
                for s, lo, hi in zip(partial, low[cell + 1], high[cell + 1])
            ):
                yield from fill(cell + 1, partial)

    yield from fill(0, [0] * ncells)


def search_se(
    a: IntMatrix, b: IntMatrix, lag: int, entry_bound: int
) -> Optional[SEWitness]:
    """Exhaustive bounded search for a witness between two essential matrices.

    Candidate R with AR = RB and entries at most min(bound, max A^m), and S
    with BS = SA and entries at most min(bound, max B^m), are enumerated first;
    then A^m = RS and B^m = SR are checked.  The box loses no witness: B^m = SR
    has no zero row, so neither has S, and a j with s_kj >= 1 gives
    r_ik <= (RS)_ij = (A^m)_ij (S likewise); an entry clipped at the cap reads
    cap + 1 > bound.  Returns the first verified witness in lexicographic order
    of (R entries, S entries), or None.
    """
    if not is_essential(a) or not is_essential(b):
        raise DomainError("search_se requires essential matrices")
    if lag < 1:
        raise DomainError("lag must be a positive integer")
    if entry_bound < 0:
        raise DomainError("entry bound must be nonnegative")

    # Entries of RS and SR are at most rows * bound^2: capped, the powers compare exactly at any lag.
    am = mat_pow(a, lag, cap=b.rows * entry_bound**2)
    bm = mat_pow(b, lag, cap=a.rows * entry_bound**2)
    r_bound, s_bound = (min(entry_bound, max(map(max, p.entries))) for p in (am, bm))
    s_candidates = None
    for r in _bounded_intertwiners(a, b, a.rows, b.rows, r_bound):
        # A^m = RS forces every row of A^m to vanish where R's row is zero;
        # essential A^m has no zero rows, so R must not either.
        if any(all(x == 0 for x in r.row(i)) for i in range(r.rows)):
            continue
        if s_candidates is None:
            s_candidates = list(_bounded_intertwiners(b, a, b.rows, a.rows, s_bound))
        for s in s_candidates:
            if mat_mul(r, s) == am and mat_mul(s, r) == bm:
                return SEWitness(a, b, r, s, lag)
    return None


# ---------------------------------------------------------------------------
# Random strong-shift-equivalence chains
# ---------------------------------------------------------------------------


def _random_row_split(a: IntMatrix, rng: random.Random) -> tuple[IntMatrix, IntMatrix]:
    """Factor A = R*S by splitting one row into two nonzero parts.

    R is the 0/1 amalgamation matrix gluing the two copies back together and
    S stacks the split rows, so B = SR is the out-split adjacency matrix.
    Requires some row with sum >= 2.
    """
    n = a.rows
    splittable = [i for i in range(n) if sum(a.row(i)) >= 2]
    i = rng.choice(splittable)
    row = list(a.row(i))
    while True:
        u = [rng.randint(0, x) for x in row]
        v = [x - y for x, y in zip(row, u)]
        if any(u) and any(v):
            break
    # Split state i into rows i and n of S; R glues them.
    s_rows = [list(a.row(k)) for k in range(n)]
    s_rows[i] = u
    s_rows.append(v)
    r_rows = [[1 if k == j else 0 for j in range(n + 1)] for k in range(n)]
    r_rows[i][n] = 1
    return from_rows(r_rows), from_rows(s_rows)


def _random_col_split(a: IntMatrix, rng: random.Random) -> tuple[IntMatrix, IntMatrix]:
    """Factor A = R*S by splitting one column into two nonzero parts (in-split):
    the row split A^T = R'S' transposed back, R = S'^T and S = R'^T."""
    r, s = _random_row_split(transpose(a), rng)
    return transpose(s), transpose(r)


def random_sse_chain(a: IntMatrix, steps: int, seed: int) -> SSEChain:
    """A chain of verified lag-1 witnesses starting at ``a``.

    Each step factors the current matrix as A = RS through a random row or
    column splitting and moves to B = SR, so every step is an elementary
    shift equivalence by construction and every intermediate matrix stays
    essential.  Deterministic for a fixed seed.
    """
    if not is_essential(a):
        raise DomainError("random_sse_chain requires an essential matrix")
    rng = random.Random(seed)
    chain: list[SEWitness] = []
    current = a
    for _ in range(steps):
        can_row = any(sum(current.row(i)) >= 2 for i in range(current.rows))
        can_col = any(sum(current.col(j)) >= 2 for j in range(current.cols))
        if can_row and (not can_col or rng.random() < 0.5):
            r, s = _random_row_split(current, rng)
        elif can_col:
            r, s = _random_col_split(current, rng)
        else:
            # Permutation-like matrix: fall back to the trivial factorization.
            r, s = current, identity(current.rows)
        b = mat_mul(s, r)
        chain.append(SEWitness(current, b, r, s, 1))
        current = b
    return SSEChain(tuple(chain))

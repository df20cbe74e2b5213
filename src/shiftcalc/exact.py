"""Exact arbitrary-precision integer matrices and their normal forms.

Every result is an exact integer.  Matrices live in Python integers, which
cannot overflow.  One computation runs on residues instead, exactly: the
characteristic polynomial together with the adjugate product adj(I - A) B
(see :func:`char_poly_and_adjugate`).  The module supplies the engine for the
rest of the package -- matrix products, :func:`power`, the one repeated-squaring
routine for every power of the package, and the capped power check
``power_equals`` for witness verification, the invariant factors of the Smith
normal form, over Z or modulo an integer, for cokernel invariants (the
diagonal only; the unimodular transforms are never built), the
characteristic polynomial and the adjugate of I - A, and the rank as the
number of nonzero invariant factors.

All values are immutable; every function returns fresh objects and is safe to
call concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, ShapeError


def _as_int(x) -> int:
    """Exact integer coercion; floats and other inexact types are rejected."""
    try:
        return int(operator.index(x))
    except TypeError:
        raise DomainError(f"expected an integer entry, got {x!r}") from None


@dataclass(frozen=True)
class IntMatrix:
    """A rectangular matrix of arbitrary-precision integers, row-major.

    Use :func:`from_rows` rather than the raw constructor; it validates and
    normalizes the entry lists.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"matrix must be at least 1x1, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ShapeError("entry grid does not match declared shape")

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"IntMatrix({self.rows}x{self.cols}: [{body}])"


def from_rows(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Build an :class:`IntMatrix` from a nested sequence of integers."""
    grid = tuple(map(tuple, rows))
    if not {*map(type, chain.from_iterable(grid))} <= {int}:
        grid = tuple(tuple(_as_int(x) for x in r) for r in grid)
    if not grid or not grid[0]:
        raise ShapeError("matrix must have at least one row and one column")
    return IntMatrix(len(grid), len(grid[0]), grid)


def identity(n: int) -> IntMatrix:
    """The n-by-n identity matrix."""
    return from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def transpose(a: IntMatrix) -> IntMatrix:
    return from_rows([a.col(j) for j in range(a.cols)])


def is_nonnegative(a: IntMatrix) -> bool:
    """True iff every entry of ``a`` is >= 0."""
    return min(map(min, a.entries)) >= 0


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product.

    Raises :class:`ShapeError` when the inner dimensions disagree.
    """
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = [b.col(j) for j in range(b.cols)]
    return from_rows(
        [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.entries]
    )


def mat_pow(a: IntMatrix, m: int, cap: int | None = None) -> IntMatrix:
    """``a`` raised to the m-th power; ``a ** 0`` is the identity.

    With ``cap``, for nonnegative ``a``, every entry above ``cap`` reads ``cap + 1``.
    Clipping at cap + 1 commutes with sums and products of nonnegative integers, so the
    entries at most ``cap`` are exact, and the work stays small however large m is.
    """
    if not a.is_square:
        raise ShapeError("matrix power requires a square matrix")
    if m < 0:
        raise DomainError("matrix power requires a nonnegative exponent")

    def clip(x: IntMatrix) -> IntMatrix:
        return x if cap is None else from_rows([[min(v, cap + 1) for v in row] for row in x.entries])

    return power(clip(a), m, lambda x, y: clip(mat_mul(x, y))) if m else identity(a.rows)


def power(x, m: int, times: Callable):
    """``x`` times itself, m >= 1 factors, for an associative ``times``, by square-and-multiply from the low
    bit: floor(log2 m) squarings and popcount(m) - 1 other products, in a loop, so m may have any size."""
    result = None
    while m:
        if m & 1:
            result = x if result is None else times(result, x)
        if m := m >> 1:
            x = times(x, x)
    return result


def power_equals(a: IntMatrix, m: int, product: IntMatrix) -> bool:
    """a^m == product, for nonnegative a and product.  The power is capped at
    product's largest entry: an entry of a^m above it reads cap + 1 and
    differs, the rest are exact, so the verdict is exact at any m."""
    return mat_pow(a, m, cap=max(map(max, product.entries))) == product


def is_essential(a: IntMatrix) -> bool:
    """True iff the square nonnegative matrix ``a`` has no zero row or column.

    This is the condition under which the associated edge bimodule is full
    and regular, so every adjacency matrix used as an object must satisfy it.
    """
    if not a.is_square:
        raise ShapeError("essentiality is defined for square matrices")
    if not is_nonnegative(a):
        raise DomainError("essentiality is defined for nonnegative matrices")
    return all(map(any, a.entries)) and all(map(any, zip(*a.entries)))


# ---------------------------------------------------------------------------
# Smith normal form and rank
# ---------------------------------------------------------------------------


def smith_normal_form(m: IntMatrix, modulus: int = 0) -> tuple[int, ...]:
    """Invariant factors of ``m`` over the integers: the diagonal of its Smith
    normal form, min(rows, cols) entries d1 | d2 | ..., nonnegative, zeros
    trailing.  The chain is unique, so no transforms are kept.

    With ``modulus`` h >= 1 it returns gcd(d_i, h) for each i (so h where
    d_i = 0): the invariant factors of the lattice im(m) + hZ^rows.

    * h = 1: every gcd is 1, so m is not read.
    * h = 2: the odd d_i come first in the chain, and there are r of them,
      r the rank of m over GF(2) (reduced modulo 2, the unimodular transforms
      stay invertible).  The rank is found by XOR elimination on one integer
      bitmask per row, the bits of its odd entries.
    * Any other h: the elimination below runs over Z/hZ.  Every entry stays
      reduced modulo h, and a pivot whose column is clear becomes
      gcd(pivot, h), which the column h e_t of that lattice allows, so the
      pivots divide h and keep their divisibility chain.

    The default 0 is Z itself (gcd(d, 0) = d).  Pivots are chosen as the
    smallest-absolute-value nonzero entry of the remaining block, ties broken
    by (row, col) position.
    """
    h = modulus
    n = min(m.rows, m.cols)
    if h == 1:
        return (1,) * n
    if h == 2:
        # Each row kept in ``pivots`` under its lowest set bit; XOR with it
        # clears that bit and changes only higher ones, so every reduction ends.
        pivots = {}
        for row in m.entries:
            mask = sum(1 << j for j, x in enumerate(row) if x & 1)
            while mask:
                low = mask & -mask
                if low not in pivots:
                    pivots[low] = mask
                    break
                mask ^= pivots[low]
        return (1,) * len(pivots) + (2,) * (n - len(pivots))
    work = [[x % h for x in row] for row in m.entries] if h else m.to_lists()
    r, c = m.rows, m.cols
    diag = []
    for t in range(n):
        while True:
            # Smallest |x| != 0 in the trailing block, first in row-major
            # order; nothing beats |x| = 1, so the scan stops there.
            p, pi = 0, t
            for i in range(t, r):
                x = min(filter(None, map(abs, work[i][t:])), default=0)
                if x and (not p or x < p):
                    p, pi = x, i
                    if p == 1:
                        break
            if not p:  # the trailing block is zero, and stays zero
                return (*diag, *[h] * (n - t))
            work[t], work[pi] = work[pi], work[t]
            pivot_row = work[t]
            pj = next(j for j in range(t, c) if abs(pivot_row[j]) == p)
            if pj != t:
                for row in work[t:]:
                    row[t], row[pj] = row[pj], row[t]
            if pivot_row[t] < 0:
                pivot_row[t:] = [-x for x in pivot_row[t:]]

            # Reduce column t modulo the pivot by row operations.
            clear = True
            for row in work[t + 1:]:
                if row[t]:
                    q = row[t] // p
                    if h:
                        row[t:] = [(x - q * y) % h for x, y in zip(row[t:], pivot_row[t:])]
                    else:
                        row[t:] = [x - q * y for x, y in zip(row[t:], pivot_row[t:])]
                    clear = clear and not row[t]
            if not clear:
                continue  # a strictly smaller remainder exists; re-select pivot
            if h:
                p = pivot_row[t] = math.gcd(p, h)
            # Column t is clear below the pivot, so each column operation
            # that reduces row t changes row t alone.
            pivot_row[t + 1:] = [x % p for x in pivot_row[t + 1:]]
            if any(pivot_row[t + 1:]):
                continue
            if p == 1:
                break

            # Row and column are clear.  Enforce divisibility of the rest by
            # adding the first offending row to row t.
            offender = next((row for row in work[t + 1:] if any(x % p for x in row[t + 1:])), None)
            if offender is None:
                break
            pivot_row[t + 1:] = offender[t + 1:]
        diag.append(work[t][t])
    return tuple(diag)


def rank(a: IntMatrix) -> int:
    """Rank over the rationals: the number of nonzero invariant factors."""
    return sum(1 for d in smith_normal_form(a) if d)


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; ``coeffs[k]`` is the coefficient of t**k.

    Normalized so the highest-stored coefficient is nonzero; the zero
    polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            a = self.coeffs[k]
            if a == 0:
                continue
            if k == 0:
                term = str(abs(a))
            else:
                mag = "" if abs(a) == 1 else str(abs(a)) + "*"
                term = f"{mag}t^{k}" if k > 1 else f"{mag}t"
            if not parts:
                parts.append(("-" if a < 0 else "") + term)
            else:
                parts.append(("- " if a < 0 else "+ ") + term)
        return " ".join(parts)


def poly(coeffs: Iterable[int]) -> IntPolynomial:
    """Build a normalized :class:`IntPolynomial` from low-to-high coefficients."""
    cs = [_as_int(x) for x in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return IntPolynomial(tuple(cs))


def poly_strip_t(p: IntPolynomial) -> tuple[IntPolynomial, int]:
    """Remove every factor of t; returns (stripped polynomial, multiplicity)."""
    if p.is_zero:
        return p, 0
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    return IntPolynomial(p.coeffs[k:]), k


def poly_eval_matrix(p: IntPolynomial, a: IntMatrix) -> IntMatrix:
    """Evaluate ``p`` at a square matrix, exactly (Horner scheme)."""
    if not a.is_square:
        raise ShapeError("polynomial evaluation requires a square matrix")
    acc = from_rows([[0] * a.rows] * a.rows)
    for coeff in reversed(p.coeffs):
        rows = mat_mul(acc, a).to_lists()
        for i, row in enumerate(rows):
            row[i] += coeff
        acc = from_rows(rows)
    return acc


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5 and 7, which is deterministic below
    3215031751; every candidate here is below 2**27."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


#: Descending primes per size class k, built on first use: every prime p in
#: ``_PRIME_TABLES[k]`` has 2**(2k) * (p - 1)**2 < 2**53 and p > 2**k.  A longer
#: table replaces a shorter one whole, so concurrent callers never share one half built.
_PRIME_TABLES: dict[int, tuple[int, ...]] = {}


def _moduli(n: int, exceed: int) -> list[int]:
    """Primes for matrices of size n, descending, until their product exceeds
    ``exceed``: the largest ones with 2**(2k) * (p - 1)**2 < 2**53 and p > 2**k
    for the size class 2**k > n, from that class's table, extended as needed.

    Each class has finitely many such primes, those in (2**k, 2**(26.5 - k)];
    their product is about 2**265953 for k = 9 (n = 256..511), 2**131801 for
    k = 10, 2**63579 for k = 11, 2**27413 for k = 12 and 2**4839 for k = 13
    (n = 4096..8191), and at least 2**265953 below n = 256.  When ``exceed``
    is larger, :class:`DomainError` is raised: the limit depends on n and on
    the bound together.  Every 4096x4096 permutation matrix is refused (its
    bound is 3**4096, about 2**6492), as is every matrix from n = 2**13 on,
    whose class has no prime at all.
    """
    k = n.bit_length()
    table = _PRIME_TABLES.get(k, ())
    chosen, product = [], 1
    while product <= exceed:
        if len(chosen) < len(table):
            chosen.append(table[len(chosen)])
        else:
            # The largest q with 2**(2k) * (q - 1)**2 <= 2**53 - 1, then downwards.
            q = chosen[-1] - 1 if chosen else 1 + math.isqrt(((1 << 53) - 1) >> 2 * k)
            while q > 1 << k and not _is_prime(q):
                q -= 1
            if q <= 1 << k:
                raise DomainError(
                    f"a {n}x{n} matrix with these entries is too large for exact float64 residue arithmetic"
                )
            chosen.append(q)
        product *= chosen[-1]
    if len(chosen) > len(table):
        _PRIME_TABLES[k] = tuple(chosen)
    return chosen


def _coefficient_bound(a: IntMatrix) -> int:
    """B = prod_i (2 + isqrt(sum_j a_ij**2)) >= prod_i (1 + rho_i), rho_i the
    2-norm of row i.  Coefficient c_k of det(tI - A) is +- the sum of the k-by-k
    principal minors; Hadamard bounds each by the product of its rows' norms,
    so |c_k| <= e_k(rho) <= B."""
    bound = 1
    for row in a.entries:
        bound *= 2 + math.isqrt(sum(map(operator.mul, row, row)))
    return bound


def _reduce(c: np.ndarray, p: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """``c`` modulo ``p`` in place, for float64 integers 0 <= c < 2**53, with p
    and ``inverse`` = 1/p broadcast against c.

    The quotient c * (1/p) carries a relative error of a few units in the last
    place, so its floor is off by at most one and c - floor(c * (1/p)) * p lies
    in [-p, 2p); one correction by +p or -p brings it into [0, p).  Every
    value is an integer of magnitude below 2**53, so each step is exact.
    """
    q = c * inverse
    np.floor(q, out=q)
    q *= p
    c -= q
    np.add(c, p, out=c, where=c < 0)
    np.subtract(c, p, out=c, where=c >= p)
    return c


#: Bytes of baby and giant powers held at once.  Primes are taken in chunks
#: that fit, so memory does not grow with the number of primes, that is with
#: the size of the entries.  A chunk holds at least one prime, whose powers
#: alone outgrow the budget from n = 256 on.
_TABLE_BYTES = 1 << 24


def _powers(a: np.ndarray, primes: list[int], r: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """The baby powers (A^T)^j, j < r (transposed, ready for the trace
    product), and the giant powers A^(ri), i < g, modulo each of the K
    primes, as float64 (r, K, n, n) and (g, K, n, n) stacks.

    Each power is one batched product of (K, n, n) stacks, reduced by
    :func:`_reduce` against full-size arrays of the primes (a broadcast of K
    primes made the reduction three times slower).
    """
    k, n = len(primes), len(a)
    p = np.repeat(np.array(primes, dtype=np.float64), n * n).reshape(k, n, n)
    inverse = 1 / p
    baby = np.empty((r, k, n, n))
    baby[0] = np.eye(n)
    baby[1] = _residues(a, primes).transpose(0, 2, 1)
    for j in range(2, r):
        _reduce(np.matmul(baby[j - 1], baby[1], out=baby[j]), p, inverse)
    giant = np.empty((g, k, n, n))
    giant[0] = np.eye(n)
    if g > 1:
        # A^r = A A^(r-1), each factor the transpose of a baby power.
        _reduce(np.matmul(baby[1].transpose(0, 2, 1), baby[r - 1].transpose(0, 2, 1), out=giant[1]), p, inverse)
    for i in range(2, g):
        _reduce(np.matmul(giant[i - 1], giant[1], out=giant[i]), p, inverse)
    return baby, giant


def _modular_char_poly_and_adjugate(
    a: np.ndarray, b: np.ndarray, primes: list[int], r: int, g: int
) -> tuple[list[int], list[int]]:
    """c_0, ..., c_n of det(tI - A) and the entries of adj(I - A) B, row by
    row, modulo the product of ``primes``, from their baby and giant powers
    (see :func:`char_poly_and_adjugate`); A and B come as :func:`_as_array`
    arrays.  The powers are freed on return."""
    k, n, modulus = len(primes), len(a), math.prod(primes)
    baby, giant = _powers(a, primes, r, g)
    p = np.array(primes, dtype=np.float64)[:, None, None]
    traces = giant.reshape(g, k, n * n).transpose(1, 0, 2) @ baby.reshape(r, k, n * n).transpose(1, 2, 0)
    traces = _reduce(traces, p, 1 / p).reshape(k, g * r)[:, 1:n + 1]
    # (-1)**(i-1) s_i for i = 1..n.
    signed = [-s if i % 2 else s for i, s in enumerate(_crt(traces.astype(np.int64).tolist(), primes))]
    e = [1]
    for m in range(1, n + 1):
        e.append(sum(map(operator.mul, reversed(e), signed)) * pow(m, -1, modulus) % modulus)
    chi = [x if m % 2 == 0 else -x % modulus for m, x in enumerate(e)][::-1]
    q = [*accumulate(reversed(chi[1:]))][::-1]
    q_residues = np.zeros((k, g * r))
    q_residues[:, :n] = [[x % prime for x in q] for prime in primes]
    powers_b = _reduce(baby.transpose(0, 1, 3, 2) @ _residues(b, primes).astype(np.float64), p, 1 / p)
    cols = b.shape[1]
    inner = q_residues.reshape(k, g, r) @ powers_b.reshape(r, k, n * cols).transpose(1, 0, 2)
    inner = _reduce(inner, p, 1 / p).transpose(1, 0, 2).reshape(g, k, n, cols)
    y = _reduce((giant @ inner).sum(axis=0), p, 1 / p)
    return chi, _crt(y.astype(np.int64).reshape(k, -1).tolist(), primes)


def char_poly_and_adjugate(a: IntMatrix, b: IntMatrix) -> tuple[IntPolynomial, IntMatrix]:
    """det(tI - A) and adj(I - A) B, exactly, from one table of powers of A
    modulo primes: traces of powers, Newton's identities and the Chinese
    remainder theorem (Preparata-Sarwate 1978, with baby-step/giant-step traces).

    * Primes: the largest p with 2**(2k) * (p - 1)**2 < 2**53 for the size
      class 2**k > n (see :func:`_moduli`), until their product M exceeds
      2 * :func:`_coefficient_bound` (A) times the largest column sum of |B|,
      or 1 if that is larger.  Residues lie in [0, p), so every product of two
      is a nonnegative integer, and every partial sum of up to n**2 < 2**(2k)
      such products is below 2**53: float64 BLAS products are exact in any
      order of summation, with or without fused multiply-add.  Each product is
      reduced by c - floor(c * (1/p)) * p and one correction by +-p (see
      :func:`_reduce`).  A size class has finitely many such primes, so
      :class:`DomainError` is raised when the bound outgrows them: for every
      matrix from n = 2**13 on, and earlier for large entries or large n.
    * Chunks: the primes are taken in chunks whose powers fit in
      ``_TABLE_BYTES``; each chunk, with product M_c, yields chi and
      adj(I - A) B modulo M_c (:func:`_modular_char_poly_and_adjugate`), and a
      last CRT over the chunks lifts both into (-M/2, M/2].
    * Table: with r = isqrt(n) + 1, the baby powers A^j, j < r, and the giant
      powers A^(ri), i <= n // r (see :func:`_powers`).
    * chi: s_(ri+j) = tr(A^(ri) A^j) is the inner product of A^(ri) with
      (A^j)^T, so every power sum comes from one batched product of the
      flattened giant and baby powers, n**2 terms per sum.  Newton's
      identities k e_k = sum_(i<=k) (-1)**(i-1) e_(k-i) s_i run modulo M_c
      (each prime exceeds 2**k > n, so k <= n is invertible), and
      c_(n-k) = (-1)**k e_k.  Exact, since Hadamard bounds |c_k| by
      :func:`_coefficient_bound` (A) < M/2.
    * Adjugate: with D = chi(1) = det(I - A) and q(t) = (chi(t) - D) / (t - 1),
      whose coefficients are the suffix sums q_k = sum_(j>k) c_j, Cayley-Hamilton
      gives (I - A) q(A) = D I, so adj(I - A) = q(A).  Each entry of adj(I - A)
      is an (n-1)-minor of I - A, whose rows have 2-norms at most 1 + rho_i, so
      Hadamard bounds it by :func:`_coefficient_bound` (A), and an entry of
      the product by that times the largest column sum of |B|.  q(A) B = sum_i A^(ri) (sum_j q_(ri+j) A^j B)
      (Paterson-Stockmeyer): one product for the A^j B, one contraction with
      the residues of q, one with the giant powers.
    """
    if not a.is_square:
        raise ShapeError("characteristic polynomial requires a square matrix")
    n = a.rows
    if b.rows != n:
        raise ShapeError("adjugate product needs B with as many rows as A")
    column_sum = max(1, *(sum(map(abs, col)) for col in zip(*b.entries)))
    primes = _moduli(n, 2 * _coefficient_bound(a) * column_sum)
    r = math.isqrt(n) + 1
    g = n // r + 1
    chunk = max(1, _TABLE_BYTES // (8 * (r + g) * n * n))
    parts = [primes[i:i + chunk] for i in range(0, len(primes), chunk)]
    rows, rhs = _as_array(a), _as_array(b)
    chis, adjugates = zip(*(_modular_char_poly_and_adjugate(rows, rhs, part, r, g) for part in parts))
    moduli = [*map(math.prod, parts)]
    values = _crt(adjugates, moduli)
    return poly(_crt(chis, moduli)), from_rows([values[i * b.cols:(i + 1) * b.cols] for i in range(n)])


def char_poly(a: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(tI - A): :func:`char_poly_and_adjugate` with B one zero column."""
    return char_poly_and_adjugate(a, from_rows([[0]] * a.rows))[0]


def _as_array(a: IntMatrix) -> np.ndarray:
    """The entries of ``a`` as an int64 array, or as an object array of
    Python ints when some entry does not fit in int64."""
    try:
        return np.array(a.entries, dtype=np.int64)
    except OverflowError:
        return np.array(a.entries, dtype=object)


def _residues(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """The (K, rows, cols) int64 residues in [0, p) of the :func:`_as_array`
    array ``a`` modulo each of the K primes, from entries of any size and
    sign."""
    if a.dtype == object:
        return np.stack([(a % q).astype(np.int64) for q in primes])
    return a % np.array(primes, dtype=np.int64)[:, None, None]


def _crt(residues: list[list[int]], moduli: list[int]) -> list[int]:
    """The integers in the symmetric range (-M/2, M/2], M the product of the
    pairwise coprime ``moduli``, with ``residues[k]`` modulo ``moduli[k]``,
    entry by entry: sum_k r_k e_k modulo M, lifted, where the weight
    e_k = (M/m_k) ((M/m_k)^-1 mod m_k) is 1 modulo m_k and 0 modulo the others."""
    modulus = math.prod(moduli)
    weights = [modulus // q * pow(modulus // q, -1, q) for q in moduli]
    values = [sum(map(operator.mul, weights, rs)) % modulus for rs in zip(*residues)]
    return [x - modulus if 2 * x > modulus else x for x in values]

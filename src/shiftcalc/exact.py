"""Exact arbitrary-precision integer matrices and their normal forms.

Every result is an exact integer; no floats are involved.  Matrices live in
Python integers, which cannot overflow.  Two computations use fixed-width
arithmetic: the characteristic polynomial and the adjugate product
adj(I - A) B.  Both work on stacked int64 residues modulo primes p with
n * (p - 1)**2 < 2**63, so every product of two residues and every sum of n
such products fits, and a Hadamard bound makes the Chinese-remainder
recovery exact.  The module supplies the engine for the rest of the package
-- matrix products and powers for witness verification, the invariant
factors of the Smith normal form, over Z or modulo an integer, for cokernel
invariants (the diagonal only; the unimodular transforms are never built),
the multi-modular Hessenberg characteristic polynomial, the adjugate of
I - A from it, and the fraction-free (Bareiss) rank.

All values are immutable; every function returns fresh objects and is safe to
call concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Sequence

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


def zeros(rows: int, cols: int) -> IntMatrix:
    return from_rows([[0] * cols for _ in range(rows)])


def transpose(a: IntMatrix) -> IntMatrix:
    return from_rows([a.col(j) for j in range(a.cols)])


def is_nonnegative(a: IntMatrix) -> bool:
    """True iff every entry of ``a`` is >= 0."""
    return all(x >= 0 for r in a.entries for x in r)


def mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError(f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    return from_rows([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError(f"cannot subtract {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    return from_rows([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def mat_scale(c: int, a: IntMatrix) -> IntMatrix:
    return from_rows([[c * x for x in r] for r in a.entries])


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

    result = identity(a.rows)
    base = clip(a)
    while m:
        if m & 1:
            result = clip(mat_mul(result, base))
        base = clip(mat_mul(base, base)) if m > 1 else base
        m >>= 1
    return result


def is_essential(a: IntMatrix) -> bool:
    """True iff the square nonnegative matrix ``a`` has no zero row or column.

    This is the condition under which the associated edge bimodule is full
    and regular, so every adjacency matrix used as an object must satisfy it.
    """
    if not a.is_square:
        raise ShapeError("essentiality is defined for square matrices")
    if not is_nonnegative(a):
        raise DomainError("essentiality is defined for nonnegative matrices")
    for i in range(a.rows):
        if all(x == 0 for x in a.row(i)):
            return False
    for j in range(a.cols):
        if all(x == 0 for x in a.col(j)):
            return False
    return True


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def smith_normal_form(m: IntMatrix, modulus: int = 0) -> tuple[int, ...]:
    """Invariant factors of ``m`` over the integers: the diagonal of its Smith
    normal form, min(rows, cols) entries d1 | d2 | ..., nonnegative, zeros
    trailing.  The chain is unique, so no transforms are kept.

    With ``modulus`` h >= 1 the same elimination runs over Z/hZ and returns
    gcd(d_i, h) for each i (so h where d_i = 0): the invariant factors of the
    lattice im(m) + hZ^rows.  Every entry stays reduced modulo h, and a pivot
    whose column is clear becomes gcd(pivot, h), which the column h e_t of that
    lattice allows, so the pivots divide h and keep their divisibility chain.
    The default 0 is Z itself (gcd(d, 0) = d).

    Pivots are chosen as the smallest-absolute-value nonzero entry of the
    remaining block, ties broken by (row, col) position.
    """
    h = modulus
    work = [[x % h for x in row] for row in m.entries] if h else m.to_lists()
    r, c = m.rows, m.cols
    n = min(r, c)
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
            _swap_rows(work, t, pi)
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


# ---------------------------------------------------------------------------
# Characteristic polynomial and rank, fraction-free
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
    n = a.rows
    acc = zeros(n, n)
    for coeff in reversed(p.coeffs):
        acc = mat_add(mat_mul(acc, a), mat_scale(coeff, identity(n)))
    return acc


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5 and 7, which is deterministic below
    3215031751; every candidate here is at most 1 + isqrt(2**63 - 1)."""
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
#: ``_PRIME_TABLES[k]`` has 2**k * (p - 1)**2 < 2**63.
_PRIME_TABLES: dict[int, list[int]] = {}


def _moduli(n: int, exceed: int) -> list[int]:
    """Primes p with n * (p - 1)**2 < 2**63, descending, until their product
    exceeds ``exceed``: the largest ones with 2**k * (p - 1)**2 < 2**63 for
    the size class 2**k >= n, from that class's table, extended as needed."""
    k = (n - 1).bit_length()
    table = _PRIME_TABLES.setdefault(k, [])
    chosen, product = [], 1
    while product <= exceed:
        if len(chosen) == len(table):
            q = table[-1] if table else 2 + math.isqrt((1 << (63 - k)) - 1)
            q -= 1
            while not _is_prime(q):
                q -= 1
            table.append(q)
        chosen.append(table[len(chosen)])
        product *= chosen[-1]
    return chosen


def _coefficient_bound(a: IntMatrix) -> int:
    """B = prod_i (2 + isqrt(sum_j a_ij**2)) >= prod_i (1 + rho_i), rho_i the
    2-norm of row i.  Coefficient c_k of det(tI - A) is +- the sum of the k-by-k
    principal minors; Hadamard bounds each by the product of its rows' norms,
    so |c_k| <= e_k(rho) <= B."""
    bound = 1
    for row in a.entries:
        bound *= 2 + math.isqrt(sum(x * x for x in row))
    return bound


def char_poly(a: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(tI - A), exactly, by Hessenberg reduction
    modulo several primes at once and the Chinese remainder theorem (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 2.2.9).

    * Bound: every coefficient lies within B = prod_i (2 + isqrt(sum_j a_ij**2))
      (see :func:`_coefficient_bound`).
    * Primes: primes p with n * (p - 1)**2 < 2**63 (see :func:`_moduli`),
      until their product M exceeds 2B.  Each residue lies in [0, p), so
      every sum of at most n residue products fits an int64.
    * Per prime, in one (K, n, n) array: the similarity reduction to upper
      Hessenberg form H (pivot swaps, inverses through ``pow(x, -1, p)``),
      then, with H_m its leading m-by-m block and 1-based indices, the
      recurrence det(tI - H_m) = (t - h_mm) det(tI - H_(m-1))
      - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) det(tI - H_(i-1)).
    * Recovery: CRT into the symmetric range (-M/2, M/2], exact since |c_k| <= B.
    """
    if not a.is_square:
        raise ShapeError("characteristic polynomial requires a square matrix")
    n = a.rows
    primes = _moduli(n, 2 * _coefficient_bound(a))
    p = np.array(primes, dtype=np.int64)[:, None]
    h = _residues(a, primes)

    for m in range(1, n - 1):
        # Pivot: the first nonzero entry of column m - 1 at or below row m.
        if not h[:, m, m - 1].all():
            piv = (h[:, m:, m - 1] != 0).argmax(axis=1) + m
            ks = np.flatnonzero(piv != m)
            ii = piv[ks]
            h[ks, m], h[ks, ii] = h[ks, ii], h[ks, m].copy()
            h[ks, :, m], h[ks, :, ii] = h[ks, :, ii], h[ks, :, m].copy()
        inverse = np.array(
            [pow(x, -1, q) if x else 0 for x, q in zip(h[:, m, m - 1].tolist(), primes)],
            dtype=np.int64,
        )
        # Rows below m lose u times row m; column m gains the same multiples of
        # their columns, which makes the step a similarity.
        u = h[:, m + 1:, m - 1] * inverse[:, None] % p
        h[:, m + 1:, m - 1:] -= u[:, :, None] * h[:, m, None, m - 1:]
        h[:, m + 1:, m - 1:] %= p[:, :, None]
        h[:, :, m] += np.einsum("kri,ki->kr", h[:, :, m + 1:], u)
        h[:, :, m] %= p

    # polys[:, m, d] is the t**d coefficient of det(tI - H_m), H_m the leading
    # m-by-m block.  At corner c, sub[:, i] = h_(i+1,i) ... h_(c,c-1) for i <= c,
    # the empty product 1 at i = c; the sum over i then takes in the h_cc term.
    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    sub = np.ones((len(primes), n), dtype=np.int64)
    for c in range(n):
        if c:
            sub[:, :c] *= h[:, c, c - 1, None]
            sub[:, :c] %= p
        w = h[:, :c + 1, c] * sub[:, :c + 1] % p
        nxt = polys[:, c + 1, :c + 2]
        nxt[:, :-1] = -np.einsum("ki,kid->kd", w, polys[:, :c + 1, :c + 1])
        nxt[:, 1:] += polys[:, c, :c + 1]
        nxt %= p

    return poly(_crt(polys[:, n].tolist(), primes))


def adjugate_product(a: IntMatrix, chi: IntPolynomial, b: IntMatrix) -> IntMatrix:
    """adj(I - A) B, exactly, from ``chi`` = det(tI - A) = sum_k c_k t**k.

    * Adjugate: with D = chi(1) = det(I - A) and q(t) = (chi(t) - D) / (t - 1),
      whose coefficients are the suffix sums q_k = sum_(j>k) c_j, Cayley-Hamilton
      gives (I - A) q(A) = D I, so adj(I - A) = q(A).
    * Bound: each entry of adj(I - A) is an (n-1)-minor of I - A, whose rows have
      2-norms at most 1 + rho_i, so Hadamard bounds it by
      :func:`_coefficient_bound`; an entry of the product is within that times
      the largest column sum of |b|.
    * q(A) B by Horner's rule, Y <- A Y + q_k B, on the stacked int64 residues
      modulo primes from :func:`_moduli` whose product exceeds twice the bound,
      then CRT into the symmetric range.  No matrix-matrix product is formed.
    """
    n = a.rows
    if not a.is_square or b.rows != n or chi.degree != n:
        raise ShapeError("adjugate product needs a square A, its characteristic polynomial and B with n rows")
    column_sum = max(sum(map(abs, col)) for col in zip(*b.entries))
    primes = _moduli(n, 2 * _coefficient_bound(a) * column_sum)
    p = np.array(primes, dtype=np.int64)[:, None, None]
    # q_(n-1), ..., q_0: the Horner order.
    q = list(accumulate(reversed(chi.coeffs[1:])))
    q_residues = np.array([[x % r for x in q] for r in primes], dtype=np.int64)
    h, hb = _residues(a, primes), _residues(b, primes)
    y = np.zeros_like(hb)
    for k in range(n):
        y = (h @ y % p + q_residues[:, k, None, None] * hb) % p
    values = _crt(y.reshape(len(primes), -1).tolist(), primes)
    return from_rows([values[i * b.cols:(i + 1) * b.cols] for i in range(n)])


def _residues(a: IntMatrix, primes: list[int]) -> np.ndarray:
    """The (K, rows, cols) int64 residues in [0, p) of ``a`` modulo each of the
    K primes, from entries of any size and sign."""
    try:
        rows = np.array(a.entries, dtype=np.int64)
    except OverflowError:
        rows = np.array(a.entries, dtype=object)
        return np.stack([(rows % q).astype(np.int64) for q in primes])
    return rows % np.array(primes, dtype=np.int64)[:, None, None]


def _crt(residues: list[list[int]], primes: list[int]) -> list[int]:
    """The integers in the symmetric range (-M/2, M/2], M the product of
    ``primes``, with ``residues[k]`` modulo ``primes[k]``, entry by entry."""
    values = [0] * len(residues[0])
    modulus = 1
    for q, rs in zip(primes, residues):
        inv = pow(modulus, -1, q)
        values = [x + modulus * ((r - x) * inv % q) for x, r in zip(values, rs)]
        modulus *= q
    return [x - modulus if 2 * x > modulus else x for x in values]


def rank(a: IntMatrix) -> int:
    """Rank over the rationals, via fraction-free Bareiss elimination."""
    work = a.to_lists()
    r, c = a.rows, a.cols
    prev = 1
    row = 0
    rk = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if work[i][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            _swap_rows(work, row, piv)
        for i in range(row + 1, r):
            for j in range(col + 1, c):
                work[i][j] = (work[i][j] * work[row][col] - work[i][col] * work[row][j]) // prev
            work[i][col] = 0
        prev = work[row][col]
        row += 1
        rk += 1
        if row == r:
            break
    return rk

"""Exact arbitrary-precision integer matrices and their normal forms.

Everything in this module is pure Python integer arithmetic: no floats, no
overflow.  It supplies the engine for the rest of the package -- matrix
products and powers for witness verification, Smith normal form for cokernel
invariants, the division-free (Berkowitz) characteristic polynomial and the
fraction-free (Bareiss) rank.

All values are immutable; every function returns fresh objects and is safe to
call concurrently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    grid = tuple(tuple(_as_int(x) for x in r) for r in rows)
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


def mat_pow(a: IntMatrix, m: int) -> IntMatrix:
    """``a`` raised to the m-th power; ``a ** 0`` is the identity."""
    if not a.is_square:
        raise ShapeError("matrix power requires a square matrix")
    if m < 0:
        raise DomainError("matrix power requires a nonnegative exponent")
    result = identity(a.rows)
    base = a
    while m:
        if m & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if m > 1 else base
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


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = diag(d1, ..., dk) padded with zeros, with U, V unimodular.

    ``diag`` holds the invariant factors: nonnegative, each dividing the
    next, zeros trailing.
    """

    left: IntMatrix
    diag: tuple[int, ...]
    right: IntMatrix

    def diagonal_matrix(self, rows: int, cols: int) -> IntMatrix:
        grid = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(self.diag):
            grid[i][i] = d
        return from_rows(grid)


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: list[list[int]], dst: int, src: int, q: int) -> None:
    # row dst += q * row src
    m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]


def _add_col(m: list[list[int]], dst: int, src: int, q: int) -> None:
    for row in m:
        row[dst] += q * row[src]


def _negate_row(m: list[list[int]], i: int) -> None:
    m[i] = [-x for x in m[i]]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers with full transform bookkeeping.

    Pivots are chosen as the smallest-absolute-value nonzero entry of the
    remaining block, ties broken by (row, col) position, so the run is
    reproducible bit for bit.  The returned invariant factors are the unique
    nonnegative chain d1 | d2 | ... with zeros trailing.
    """
    work = m.to_lists()
    r, c = m.rows, m.cols
    u = identity(r).to_lists()
    v = identity(c).to_lists()
    n = min(r, c)

    for t in range(n):
        while True:
            # Smallest |x| != 0 in the trailing block; row-major scan keeps the
            # first occurrence, which is the (row, col)-lexicographic tie-break.
            pivot = None
            for i in range(t, r):
                for j in range(t, c):
                    x = work[i][j]
                    if x != 0 and (pivot is None or abs(x) < abs(work[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                return SmithDecomposition(from_rows(u), _read_diag(work, n), from_rows(v))
            if pivot[0] != t:
                _swap_rows(work, t, pivot[0])
                _swap_rows(u, t, pivot[0])
            if pivot[1] != t:
                _swap_cols(work, t, pivot[1])
                _swap_cols(v, t, pivot[1])
            if work[t][t] < 0:
                _negate_row(work, t)
                _negate_row(u, t)

            # Reduce the pivot row and column modulo the pivot.
            p = work[t][t]
            dirty = False
            for i in range(t + 1, r):
                if work[i][t] != 0:
                    q = work[i][t] // p
                    _add_row(work, i, t, -q)
                    _add_row(u, i, t, -q)
                    dirty = dirty or work[i][t] != 0
            for j in range(t + 1, c):
                if work[t][j] != 0:
                    q = work[t][j] // p
                    _add_col(work, j, t, -q)
                    _add_col(v, j, t, -q)
                    dirty = dirty or work[t][j] != 0
            if dirty:
                continue  # a strictly smaller remainder exists; re-select pivot

            # Row and column are clear.  Enforce divisibility of the rest.
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if work[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(work, t, offender, 1)
            _add_row(u, t, offender, 1)

    return SmithDecomposition(from_rows(u), _read_diag(work, n), from_rows(v))


def _read_diag(work: list[list[int]], n: int) -> tuple[int, ...]:
    return tuple(work[i][i] for i in range(n))


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


def char_poly(a: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(tI - A), by Berkowitz's division-free
    algorithm: bordering the leading r-by-r block A_r with row R, column C and
    corner a_rr multiplies its coefficients (highest degree first) by the
    lower-triangular Toeplitz matrix with first column
    [1, -a_rr, -R C, -R A_r C, ..., -R A_r^(r-1) C].
    """
    if not a.is_square:
        raise ShapeError("characteristic polynomial requires a square matrix")
    rows = a.entries
    coeffs = [1]
    for r in range(a.rows):
        block = [row[:r] for row in rows[:r]]
        bottom = rows[r][:r]
        v = [row[r] for row in rows[:r]]
        column = [1, -rows[r][r]]
        for k in range(r):
            if k:
                v = [sum(map(operator.mul, row, v)) for row in block]
            column.append(-sum(map(operator.mul, bottom, v)))
        coeffs = [
            sum(column[i - j] * coeffs[j] for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly(reversed(coeffs))


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

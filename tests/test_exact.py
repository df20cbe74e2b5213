import math
import operator
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcalc import (
    DomainError,
    IntMatrix,
    ShapeError,
    char_poly,
    from_rows,
    identity,
    is_essential,
    mat_mul,
    mat_pow,
    poly,
    rank,
    smith_normal_form,
    transpose,
)
from shiftcalc import exact
from shiftcalc.exact import poly_eval_matrix, poly_strip_t
from tests.conftest import mat_sub


def schoolbook(a, b):
    """Independent multiplication oracle: triple loop, no shortcuts."""
    assert a.cols == b.rows
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a[i, k] * b[k, j]
    return from_rows(out)


def squares(max_n, bound):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(from_rows)


square_matrices = squares(4, 9)


def faddeev_leverrier(a):
    """Oracle: the trace recurrence M_k = A M_(k-1) + c_(k-1) I with
    c_k = -tr(A M_k) / k, whose divisions are exact over the integers."""
    n = a.rows
    coeffs = [1]  # highest degree first
    am = from_rows([[0] * n for _ in range(n)])
    for k in range(1, n + 1):
        m = [[x + (coeffs[-1] if i == j else 0) for j, x in enumerate(r)] for i, r in enumerate(am.entries)]
        am = mat_mul(a, from_rows(m))
        s = sum(am[i, i] for i in range(n))
        assert s % k == 0
        coeffs.append(-(s // k))
    return poly(reversed(coeffs))


class TestConstructorRefusals:
    """Each refusal of ``IntMatrix``, with its message."""

    @pytest.mark.parametrize("rows, cols, entries", [(0, 2, ()), (2, 0, ((), ()))], ids=["no row", "no column"])
    def test_a_matrix_needs_a_row_and_a_column(self, rows, cols, entries):
        with pytest.raises(ShapeError, match=f"^matrix must be at least 1x1, got {rows}x{cols}$"):
            IntMatrix(rows, cols, entries)

    @pytest.mark.parametrize("entries", [((1, 2),), ((1, 2), (3,))], ids=["too few rows", "a short row"])
    def test_the_entry_grid_must_match_the_shape(self, entries):
        with pytest.raises(ShapeError, match="^entry grid does not match declared shape$"):
            IntMatrix(2, 2, entries)


class TestOperationRefusals:
    """Each refusal of the exact operations, with its message."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: from_rows([]), ShapeError, "matrix must have at least one row and one column"),
            (lambda: mat_mul(from_rows([[1, 2]]), from_rows([[1, 2]])), ShapeError, "cannot multiply 1x2 by 1x2"),
            (lambda: mat_pow(from_rows([[1, 2]]), 2), ShapeError, "matrix power requires a square matrix"),
            (lambda: mat_pow(from_rows([[1]]), -1), DomainError, "matrix power requires a nonnegative exponent"),
            (lambda: is_essential(from_rows([[1, 2]])), ShapeError, "essentiality is defined for square matrices"),
            (lambda: is_essential(from_rows([[-1]])), DomainError, "essentiality is defined for nonnegative matrices"),
            (
                lambda: poly_eval_matrix(poly([1]), from_rows([[1, 2]])),
                ShapeError,
                "polynomial evaluation requires a square matrix",
            ),
            (
                # Size class 2**15 has no prime q > 2**15 with 2**30 (q - 1)**2 < 2**53.
                lambda: exact._moduli(2**14, 2),
                DomainError,
                "a 16384x16384 matrix with these entries is too large for exact float64 residue arithmetic",
            ),
            (
                lambda: exact.char_poly_and_adjugate(from_rows([[1]]), from_rows([[1], [1]])),
                ShapeError,
                "adjugate product needs B with as many rows as A",
            ),
        ],
        ids=[
            "no row", "multiply", "power shape", "power exponent", "essential shape",
            "essential sign", "polynomial", "residue size", "adjugate rows",
        ],
    )
    def test_refusal_names_its_reason(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestMatMul:
    def test_fibonacci_square(self):
        fib = from_rows([[1, 1], [1, 0]])
        assert mat_mul(fib, fib) == from_rows([[2, 1], [1, 1]])

    def test_row_times_column(self):
        assert mat_mul(from_rows([[1, 1]]), from_rows([[1], [1]])) == from_rows([[2]])

    def test_against_schoolbook_oracle(self):
        rng = random.Random(314)
        for _ in range(50):
            a = from_rows([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            b = from_rows([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            assert mat_mul(a, b) == schoolbook(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(from_rows([[1, 2]]), from_rows([[1, 2]]))


class TestMatPow:
    def test_fibonacci_squared(self):
        fib = from_rows([[1, 1], [1, 0]])
        assert mat_pow(fib, 2) == from_rows([[2, 1], [1, 1]])

    def test_scalar_power(self):
        assert mat_pow(from_rows([[2]]), 5) == from_rows([[32]])

    def test_cube_matches_repeated_multiplication(self):
        ones = from_rows([[1, 1], [1, 1]])
        expected = mat_mul(mat_mul(ones, ones), ones)
        assert expected == from_rows([[4, 4], [4, 4]])
        assert mat_pow(ones, 3) == expected

    def test_zeroth_power_is_identity(self):
        assert mat_pow(from_rows([[7, 1], [2, 3]]), 0) == identity(2)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            mat_pow(from_rows([[1, 2]]), 2)

    @given(square_matrices, st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_power_additivity(self, a, m, n):
        assert mat_pow(a, m + n) == mat_mul(mat_pow(a, m), mat_pow(a, n))

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
        ),
        st.integers(0, 12),
        st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_capped_power_is_the_clipped_power(self, rows, m, cap):
        a = from_rows(rows)
        clipped = [[min(x, cap + 1) for x in row] for row in mat_pow(a, m).entries]
        assert mat_pow(a, m, cap=cap) == from_rows(clipped)

    @pytest.mark.parametrize("cap", [None, 3])
    def test_a_power_takes_log_many_products(self, cap, monkeypatch):
        # Square-and-multiply from the low bit: floor(log2 m) squarings and popcount(m) - 1 other products,
        # each a call of the module's mat_mul, and no product with the identity.
        calls = []
        monkeypatch.setattr(exact, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
        fib, folded = from_rows([[1, 1], [1, 0]]), identity(2)
        for m in range(1, 65):
            folded = mat_mul(folded, fib)  # the unpatched product: the left fold, uncounted
            calls.clear()
            result = mat_pow(fib, m, cap)
            assert len(calls) == m.bit_length() - 1 + bin(m).count("1") - 1
            assert result == (folded if cap is None else from_rows([[min(x, cap + 1) for x in row]
                                                                    for row in folded.entries]))

    def test_capped_power_of_a_huge_exponent(self):
        swap = from_rows([[0, 1], [1, 0]])
        assert mat_pow(swap, 10**400, cap=1) == identity(2)
        assert mat_pow(swap, 10**400 + 1, cap=1) == swap
        assert mat_pow(from_rows([[2]]), 10**400, cap=5) == from_rows([[6]])


# ---------------------------------------------------------------------------
# Reference Smith normal form with full transform bookkeeping.  The package
# returns the invariant factors alone; this is the earlier transform-carrying
# elimination, kept here so the U * M * V, unimodularity and divisibility
# checks stay as strong as they were.
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


def smith_decomposition(m: IntMatrix) -> SmithDecomposition:
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


def rectangles(max_side, bound):
    """Matrices of 1..max_side rows and columns, some rows and columns zeroed
    and the whole matrix scaled by 1..3, so zero rows, zero columns and
    non-cyclic cokernels (every invariant factor divisible by the scale)
    all turn up."""
    def build(drawn):
        grid, zero_rows, zero_cols, scale = drawn
        return from_rows(
            [[0 if i in zero_rows or j in zero_cols else scale * x for j, x in enumerate(row)]
             for i, row in enumerate(grid)]
        )

    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.tuples(
                st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                         min_size=r, max_size=r),
                st.sets(st.integers(0, r - 1), max_size=r // 3 + 1),
                st.sets(st.integers(0, c - 1), max_size=c // 3 + 1),
                st.integers(1, 3),
            )
        )
    ).map(build)


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "mat,expected",
        [
            ([[0]], (0,)),
            ([[-2]], (2,)),
            # Hand row/column reduction: [[2,4],[6,8]] -> [[2,0],[0,-4]] -> diag (2,4).
            ([[2, 4], [6, 8]], (2, 4)),
        ],
    )
    def test_examples(self, mat, expected):
        assert smith_normal_form(from_rows(mat)) == expected
        assert smith_decomposition(from_rows(mat)).diag == expected

    def _check(self, m):
        d = smith_decomposition(m)
        assert mat_mul(mat_mul(d.left, m), d.right) == d.diagonal_matrix(m.rows, m.cols)
        nonzero = [x for x in d.diag if x != 0]
        zeros = [x for x in d.diag if x == 0]
        assert d.diag == tuple(nonzero + zeros)
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        # Unimodularity of the transforms.
        assert abs(_det(d.left)) == 1
        assert abs(_det(d.right)) == 1

    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.integers(1, 4).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(-12, 12), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        ).map(from_rows)
    )
    @settings(max_examples=80, deadline=None)
    def test_reassembly_and_chain(self, m):
        self._check(m)

    def test_permutation_invariance(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = from_rows([[m[perm[i], perm[j]] for j in range(n)] for i in range(n)])
            assert smith_normal_form(m) == smith_normal_form(shuffled)

    @given(rectangles(6, 12))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_transform_reference(self, m):
        assert smith_normal_form(m) == smith_decomposition(m).diag

    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_matches_the_transform_reference_on_i_minus_a(self, n):
        rng = random.Random(7 * n)
        a = from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        m = mat_sub(identity(n), a)
        assert smith_normal_form(m) == smith_decomposition(m).diag

    @given(rectangles(6, 12))
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, m):
        import sympy  # test-only oracle; the package never imports it
        from sympy.matrices.normalforms import invariant_factors

        expected = invariant_factors(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
        assert smith_normal_form(m) == tuple(int(x) for x in expected)


def _det(m):
    # Cofactor expansion; fine at test sizes, independent of the SNF code.
    if m.rows == 1:
        return m[0, 0]
    total = 0
    for j in range(m.cols):
        minor = from_rows(
            [[m[i, k] for k in range(m.cols) if k != j] for i in range(1, m.rows)]
        )
        total += (-1) ** j * m[0, j] * _det(minor)
    return total


# ---------------------------------------------------------------------------
# Reference characteristic polynomial.  The package computes it modulo primes
# and recovers it by CRT; this is the earlier division-free algorithm on Python
# integers, kept here as the oracle it is checked against.
# ---------------------------------------------------------------------------


def berkowitz(a):
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


def check_against_berkowitz(a):
    """char_poly agrees with the reference, and every coefficient lies within
    the Hadamard bound that sized its primes."""
    p = char_poly(a)
    assert p == berkowitz(a)
    assert max(map(abs, p.coeffs)) <= exact._coefficient_bound(a)
    return p


def assert_char_poly_and_adjugate(a, b, chi):
    """The shared table gives ``chi``, and its adj(I - A) B passes
    (I - A) adj(I - A) B = det(I - A) B."""
    got, adjugate = exact.char_poly_and_adjugate(a, b)
    assert got == chi
    det = sum(chi.coeffs)
    expected = from_rows([[det * x for x in row] for row in b.entries])
    assert mat_mul(mat_sub(identity(a.rows), a), adjugate) == expected


def sylvester_hadamard(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return from_rows(h)


def cycle_product(perm):
    """prod (t^len - 1) over the cycles of ``perm``: det(tI - P) for the
    permutation matrix P with P[i][perm[i]] = 1."""
    coeffs, seen = [1], set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = perm[i], length + 1
        if length:  # multiply by t^length - 1
            coeffs = [
                (coeffs[k - length] if k >= length else 0) - (coeffs[k] if k < len(coeffs) else 0)
                for k in range(len(coeffs) + length)
            ]
    return poly(coeffs)


def near_prime_entries(n):
    """Entries that are 0 or +-1 modulo the first primes of size n: p - 1, p,
    p + 1 and small multiples of p, with both signs."""
    values = {0, 1, -1}
    for q in exact._moduli(n, 1 << 400):
        values |= {s * x for s in (1, -1) for x in (q - 1, q, q + 1, 2 * q, 3 * q)}
    return sorted(values)


class TestCharPoly:
    def test_scalar(self):
        assert char_poly(from_rows([[2]])) == poly([-2, 1])

    def test_two_by_two_formula(self):
        # Oracle: t^2 - tr t + det.
        a = from_rows([[1, 1], [1, 1]])
        assert char_poly(a) == poly([0, -2, 1])
        b = from_rows([[0, 1], [1, 0]])
        assert char_poly(b) == poly([-1, 0, 1])

    @given(square_matrices)
    @settings(max_examples=60, deadline=None)
    def test_transpose_invariance(self, a):
        assert char_poly(a) == char_poly(transpose(a))

    @given(square_matrices, st.lists(st.integers(-20, 20), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_poly_eval_matrix_is_the_sum_of_powers(self, a, coeffs):
        # Oracle: sum_k c_k A^k, each power multiplied out on its own.
        expected = [[0] * a.rows for _ in range(a.rows)]
        for k, c in enumerate(coeffs):
            for i, row in enumerate(mat_pow(a, k).entries):
                for j, x in enumerate(row):
                    expected[i][j] += c * x
        assert poly_eval_matrix(poly(coeffs), a) == from_rows(expected)

    @given(square_matrices)
    @settings(max_examples=40, deadline=None)
    def test_cayley_hamilton(self, a):
        zero = mat_sub(a, a)
        assert poly_eval_matrix(char_poly(a), a) == zero

    def test_constant_term_is_det_up_to_sign(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            assert char_poly(a).constant_term() == (-1) ** n * _det(a)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            char_poly(from_rows([[1, 2]]))

    @given(squares(12, 50))
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy(self, a):
        import sympy  # test-only oracle; the package never imports it

        expected = sympy.Matrix(a.to_lists()).charpoly().all_coeffs()
        assert char_poly(a) == poly(int(c) for c in reversed(expected))

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_matches_trace_recurrence_on_large_essential_matrices(self, n):
        rng = random.Random(n)
        a = from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        assert is_essential(a)
        assert char_poly(a) == faddeev_leverrier(a)


    @given(squares(8, 10**30))
    @settings(max_examples=60, deadline=None)
    def test_matches_berkowitz_beyond_int64(self, a):
        check_against_berkowitz(a)

    @given(squares(12, 9))
    @settings(max_examples=80, deadline=None)
    def test_matches_berkowitz_with_negative_entries(self, a):
        check_against_berkowitz(a)

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from(near_prime_entries(n)), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        ).map(from_rows)
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_berkowitz_at_multiples_of_the_primes(self, a):
        check_against_berkowitz(a)

    @given(
        st.sampled_from([3, 4, 8, 9, 15, 16, 24, 25, 31, 32, 33, 63, 64, 65]),
        st.sampled_from([5, 10**30]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_power_table_at_split_and_size_class_edges(self, n, bound, seed):
        # n next to a square, where the baby-step count r = isqrt(n) + 1 moves,
        # and next to 2**k, where the primes move.  char_poly against Berkowitz;
        # adj(I - A) B through (I - A) adj(I - A) B = det(I - A) B.
        rng = random.Random(seed)
        a = from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        b = from_rows([[rng.randint(-bound, bound) for _ in range(2)] for _ in range(n)])
        chi = check_against_berkowitz(a)
        assert_char_poly_and_adjugate(a, b, chi)

    @pytest.mark.parametrize("n, bound", [(1, 10**30), (9, 5), (16, 10**30), (33, 3), (65, 10**30)])
    def test_primes_in_chunks_of_one(self, monkeypatch, n, bound):
        # A table budget below one prime's powers makes every prime its own
        # chunk, as at large n, so the last CRT combines several chunks.
        rng = random.Random(n)
        a = from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        b = from_rows([[rng.randint(-bound, bound) for _ in range(2)] for _ in range(n)])
        chi = berkowitz(a)
        monkeypatch.setattr(exact, "_TABLE_BYTES", 1)
        assert len(exact._moduli(n, 2 * exact._coefficient_bound(a))) > 1
        assert char_poly(a) == chi
        assert_char_poly_and_adjugate(a, b, chi)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sylvester_hadamard_reaches_the_hadamard_bound(self, sign):
        h = sylvester_hadamard(32)
        a = from_rows([[sign * x for x in row] for row in h.entries])
        # |det| = 32^16: the rows are orthogonal, each of norm sqrt(32).
        assert abs(check_against_berkowitz(a).constant_term()) == 2**80

    @given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(n))))
    @settings(max_examples=15, deadline=None)
    def test_permutation_matrices(self, perm):
        n = len(perm)
        a = from_rows([[int(perm[i] == j) for j in range(n)] for i in range(n)])
        assert check_against_berkowitz(a) == cycle_product(perm)

    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_zero_and_nilpotent_matrices(self, n, seed):
        rng = random.Random(seed)
        perm = list(range(n))
        rng.shuffle(perm)
        # Strictly upper triangular, then relabelled by a permutation: nilpotent.
        upper = [[rng.randint(-5, 5) if j > i else 0 for j in range(n)] for i in range(n)]
        nilpotent = from_rows([[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
        for a in (from_rows([[0] * n for _ in range(n)]), nilpotent):
            assert check_against_berkowitz(a) == poly([0] * n + [1])

    def test_reduction_is_exact_next_to_multiples_of_the_primes(self):
        # Next to a multiple of p, floor(c * (1/p)) can be off by one either
        # way; the reduction still returns c mod p, up to c < 2**53.
        import numpy as np

        rng = random.Random(7)
        for n in (1, 20, 40, 2**13 - 1):
            for q in exact._moduli(n, 1 << 200):
                top = ((1 << 53) - 1) // q
                multiples = [rng.randrange(top) for _ in range(500)] + [top - 1, top]
                c = [x * q + d for x in multiples for d in (-1, 0, 1) if 0 <= x * q + d < 2**53]
                got = exact._reduce(np.array(c, dtype=np.float64), q, 1 / q)
                assert got.tolist() == [x % q for x in c]

    def test_table_primes_are_prime_and_overflow_free(self):
        # Float64 holds every integer below 2**53 exactly: with residues in
        # [0, q), every sum of up to n**2 < 2**(2k) residue products stays
        # there.  Each prime exceeds 2**k > n, so Newton's divisions by k <= n
        # exist modulo their product.
        import sympy  # test-only oracle; the package never imports it

        for n in (1, 2, 3, 31, 32, 40, 64, 65, 1000, 2**13 - 1):
            assert len(exact._moduli(n, 1 << 600)) > 1
        for k, table in exact._PRIME_TABLES.items():
            # The largest q with 2**(2k) * (q - 1)**2 < 2**53.
            ceiling = math.isqrt(2**53 >> 2 * k) + 2
            while (1 << 2 * k) * (ceiling - 1) ** 2 >= 2**53:
                ceiling -= 1
            # The table is every prime up to the ceiling, descending, none skipped.
            assert table[0] == sympy.prevprime(ceiling + 1)
            for q, smaller in zip(table, table[1:]):
                assert smaller == sympy.prevprime(q)
            for q in table:
                assert sympy.isprime(q)
                assert (1 << 2 * k) * (q - 1) ** 2 < 2**53
                assert q > 1 << k
        # n = 2**13 is in class k = 14, which asks for q > 2**14 with
        # (q - 1)**2 < 2**25: there is none, so the size is refused.
        with pytest.raises(DomainError):
            exact._moduli(2**13, 1)

    def test_concurrent_first_calls_share_no_half_built_table(self, monkeypatch):
        # Two threads meet inside the prime search of the same empty size class
        # (k = 3), as a scheduler may interleave them.  Neither may extend a
        # table the other is reading: a prime listed twice would make a later
        # call divide by a modulus that is not coprime to the others.
        import threading

        is_prime = exact._is_prime
        first_calls = threading.Barrier(2, timeout=10)
        met = set()

        def meeting(m):
            if threading.get_ident() not in met:
                met.add(threading.get_ident())
                first_calls.wait()
            return is_prime(m)

        monkeypatch.setattr(exact, "_PRIME_TABLES", {})
        monkeypatch.setattr(exact, "_is_prime", meeting)
        results = [None, None]

        def run(i):
            results[i] = exact._moduli(5, 1 << 100)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        monkeypatch.setattr(exact, "_is_prime", is_prime)
        later = exact._moduli(5, 1 << 200)
        monkeypatch.setattr(exact, "_PRIME_TABLES", {})
        expected = exact._moduli(5, 1 << 200)
        assert results[0] == results[1] == expected[: len(results[0])]
        assert later == expected and len(set(later)) == len(later)

    def test_size_classes_run_out_of_primes_before_n_reaches_2_13(self):
        # An n x n permutation matrix has bound 3**n.  Class k = 13
        # (n = 4096..8191) has primes in (8192, 11586] only, whose product is
        # about 2**4839 < 2 * 3**4096: already n = 4096 is refused.  Class
        # k = 12 holds about 2**27413, enough for n = 4095.
        assert exact._coefficient_bound(from_rows([[int(j == (i + 1) % 7) for j in range(7)] for i in range(7)])) == 3**7
        with pytest.raises(DomainError, match="too large for exact float64 residue arithmetic"):
            exact._moduli(4096, 2 * 3**4096)
        assert math.prod(exact._moduli(4095, 2 * 3**4095)) > 2 * 3**4095
        # Class k = 11 (n = 1024..2047) holds about 2**63579, which a 1024 x
        # 1024 matrix with entries near 2**62 passes: its bound is about
        # (32 * 2**62)**1024 = 2**68608.
        with pytest.raises(DomainError):
            exact._moduli(1024, 2 * (2 + 32 * 2**62) ** 1024)


class TestStripAndRank:
    def test_strip_factors_of_t(self):
        stripped, k = poly_strip_t(poly([0, 0, 3, 1]))
        assert stripped == poly([3, 1]) and k == 2

    def test_rank_matches_eventual_rank_degree(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            stripped, _ = poly_strip_t(char_poly(a))
            deg = stripped.degree if not stripped.is_zero else 0
            assert rank(mat_pow(a, n)) == deg


    @given(rectangles(6, 12))
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_sympy(self, m):
        import sympy  # test-only oracle; the package never imports it

        assert rank(m) == sympy.Matrix(m.to_lists()).rank()


class TestEssential:
    def test_examples(self):
        assert is_essential(from_rows([[1, 1], [1, 0]]))
        assert not is_essential(from_rows([[1, 0], [1, 0]]))  # zero column
        assert not is_essential(from_rows([[0, 0], [1, 1]]))  # zero row

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            is_essential(from_rows([[1, -1], [1, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            is_essential(from_rows([[1, 1]]))

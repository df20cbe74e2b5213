import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftcalc import (
    DomainError,
    bowen_franks_general,
    char_poly,
    compare,
    compute_invariants,
    from_rows,
    fold_chain,
    identity,
    is_essential,
    mat_pow,
    poly,
    random_sse_chain,
    rank,
    smith_normal_form,
    transpose,
)
from shiftcalc.exact import _coefficient_bound, char_poly_and_adjugate
from shiftcalc.invariants import ONE_MINUS_T, ONE_MINUS_T_SQUARED, ONE_PLUS_T, cokernel_invariant_factors
from shiftcalc import invariants
from tests.conftest import mat_sub, random_essential


class TestComputeInvariants:
    def test_full_shift_two(self):
        inv = compute_invariants(from_rows([[2]]))
        assert inv.nonzero_char_poly == poly([-2, 1])
        assert inv.bowen_franks == ()  # coker([-1]) is trivial
        assert inv.eventual_rank == 1
        assert inv.det_away_from_zero == 2

    def test_full_shift_three(self):
        inv = compute_invariants(from_rows([[3]]))
        assert inv.nonzero_char_poly == poly([-3, 1])
        assert inv.bowen_franks == (2,)  # coker([-2]) = Z/2, by hand
        assert inv.eventual_rank == 1

    def test_ones_matrix(self):
        inv = compute_invariants(from_rows([[1, 1], [1, 1]]))
        assert inv.nonzero_char_poly == poly([-2, 1])  # t^2 - 2t with t stripped
        assert inv.bowen_franks == ()  # det(I - B) = -1
        assert inv.eventual_rank == 1

    def test_eventual_rank_equals_stripped_degree(self):
        rng = random.Random(8)
        for _ in range(30):
            a = random_essential(rng, max_size=4, max_entry=3)
            inv = compute_invariants(a)
            assert inv.eventual_rank == inv.nonzero_char_poly.degree
            assert inv.nonzero_char_poly.constant_term() != 0

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ).map(from_rows).filter(is_essential)
    )
    @settings(max_examples=80, deadline=None)
    def test_eventual_rank_matches_rank_of_the_nth_power(self, a):
        assert compute_invariants(a).eventual_rank == rank(mat_pow(a, a.rows))

    def test_relabeling_invariance(self):
        rng = random.Random(21)
        for _ in range(25):
            a = random_essential(rng, max_size=4, max_entry=3)
            n = a.rows
            perm = list(range(n))
            rng.shuffle(perm)
            b = from_rows([[a[perm[i], perm[j]] for j in range(n)] for i in range(n)])
            assert compute_invariants(a) == compute_invariants(b)

    def test_eventual_rank_transpose(self):
        rng = random.Random(34)
        for _ in range(25):
            a = random_essential(rng, max_size=4, max_entry=3)
            assert (
                compute_invariants(a).eventual_rank
                == compute_invariants(transpose(a)).eventual_rank
            )

    def test_requires_essential(self):
        with pytest.raises(DomainError):
            compute_invariants(from_rows([[0, 0], [1, 1]]))


def essentials(max_n):
    """Essential matrices up to max_n x max_n, entries 0..1 or 0..3; the 0..1
    draws often have det(I - A) = 0."""
    return st.tuples(st.integers(1, max_n), st.sampled_from([1, 3])).flatmap(
        lambda nb: st.lists(
            st.lists(st.integers(0, nb[1]), min_size=nb[0], max_size=nb[0]),
            min_size=nb[0], max_size=nb[0],
        )
    ).map(from_rows).filter(is_essential)


class TestBowenFranksOrder:
    """|coker(I - A)| = |det(I - A)| = |chi_A(1)|: the Smith form of I - A
    against the Berkowitz characteristic polynomial."""

    @staticmethod
    def _check(a):
        chi_at_one = sum(char_poly(a).coeffs)
        bf = compute_invariants(a).bowen_franks
        torsion = [d for d in bf if d != 0]
        assert (bf[-1:] == (0,)) == (chi_at_one == 0)
        assert bf == tuple(torsion) + (0,) * (len(bf) - len(torsion))
        if chi_at_one:
            assert math.prod(torsion) == abs(chi_at_one)

    @given(essentials(10))
    @example(from_rows([[1]]))
    @example(from_rows([[0, 1], [1, 0]]))
    @example(from_rows([[1, 0], [0, 1]]))
    @example(from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    @settings(max_examples=100, deadline=None)
    def test_order_is_chi_at_one(self, a):
        self._check(a)

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_order_is_chi_at_one_at_bench_sizes(self, n):
        rng = random.Random(1000 + n)
        a = from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        assert is_essential(a)
        self._check(a)


def essential_of_size(rng, n, max_entry):
    """Random essential n x n matrix, entries 0..max_entry; zero rows and
    columns get a 1 at a random place."""
    rows = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if not any(rows[i]):
            rows[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(rows[i][j] for i in range(n)):
            rows[rng.randrange(n)][j] = 1
    return from_rows(rows)


def permutation(rng, n):
    perm = rng.sample(range(n), n)
    return from_rows([[int(perm[i] == j) for j in range(n)] for i in range(n)])


def block_sum(*blocks):
    n = sum(b.rows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(r) + [0] * (n - at - b.rows) for r in b.entries]
        at += b.rows
    return from_rows(rows)


def sympy_bowen_franks(a):
    """Canonical invariant factors of coker(I - A) from sympy's Smith form."""
    import sympy  # test-only oracle; the package never imports it
    from sympy.matrices.normalforms import invariant_factors

    m = sympy.eye(a.rows) - sympy.Matrix(a.to_lists())
    factors = [int(d) for d in invariant_factors(m, domain=sympy.ZZ)]
    return tuple(d for d in factors if d not in (0, 1)) + (0,) * factors.count(0)


@pytest.fixture
def smith_moduli(monkeypatch):
    """The moduli that ``compute_invariants`` passes to the Smith form, in call order."""
    moduli = []
    smith = invariants.smith_normal_form
    monkeypatch.setattr(
        invariants, "smith_normal_form", lambda m, modulus=0: moduli.append(modulus) or smith(m, modulus)
    )
    return moduli


class TestBowenFranksThroughTheAdjugate:
    """``compute_invariants`` takes coker(I - A) from det(I - A) = chi_A(1), the
    adjugate chi-quotient q(A) and the Smith form modulo the gcd h; the oracles
    are the Smith form of I - A over Z and, up to n = 12, sympy."""

    @staticmethod
    def _check(a):
        got = compute_invariants(a).bowen_franks
        assert got == cokernel_invariant_factors(mat_sub(identity(a.rows), a))
        if a.rows <= 12:
            assert got == sympy_bowen_franks(a)
        return got

    @given(st.integers(1, 40), st.sampled_from([1, 3, 10**12]), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_essential(self, n, max_entry, seed):
        self._check(essential_of_size(random.Random(seed), n, max_entry))

    @given(st.integers(1, 20), st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_entries_beyond_every_table_prime(self, n, seed):
        self._check(essential_of_size(random.Random(seed), n, 10**30))

    def test_entries_beyond_every_table_prime_at_n_40(self):
        self._check(essential_of_size(random.Random(40), 40, 10**30))

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 40])
    def test_permutations_are_singular(self, n, smith_moduli):
        # det(I - P) = 0: one free summand per cycle.  A single n-cycle has
        # adj(I - P) = J, so h = gcd(0, adj(I - P) B) = gcd(n, n(n + 1)/2) != 0
        # and the Smith form runs modulo h; with two or more cycles
        # adj(I - P) = 0, so h = 0 and it runs over Z.
        def check(p):
            smith_moduli.clear()
            bf = self._check(p)  # compute_invariants first, then the oracles
            return bf, smith_moduli[0]

        cycle = from_rows([[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
        assert check(cycle) == ((0,), math.gcd(n, n * (n + 1) // 2))
        if n > 1:
            assert check(identity(n)) == ((0,) * n, 0)
            k = n // 2
            two_cycles = [(i + 1) % k if i < k else k + (i - k + 1) % (n - k) for i in range(n)]
            assert check(from_rows([[int(j == two_cycles[i]) for j in range(n)] for i in range(n)])) == ((0, 0), 0)
        rng = random.Random(n)
        for _ in range(3):
            p = permutation(rng, n)
            bf = self._check(p)
            assert bf and set(bf) == {0}

    def test_every_class_of_modulus(self, smith_moduli):
        # The Smith form modulo h = 1 reads nothing, modulo 2 it is a rank over
        # GF(2), and any other h eliminates modulo h.  Random essential
        # matrices up to 12 x 12 are drawn, each checked against sympy, until
        # every class has come up three times.
        rng = random.Random(30)
        seen = {1: 0, 2: 0, "h > 2": 0}
        for _ in range(500):
            smith_moduli.clear()
            self._check(essential_of_size(rng, rng.randint(1, 12), rng.choice([1, 3])))
            h = smith_moduli[0]
            if h:
                seen[h if h < 3 else "h > 2"] += 1
            if min(seen.values()) >= 3:
                break
        assert min(seen.values()) >= 3, seen

    @pytest.mark.parametrize("n", [2, 6, 12, 40])
    def test_unit_determinant(self, n):
        # Companion matrices of t^k - t^(k-1) - 1 (chi(1) = -1), block sums of
        # them (D = +-1) and relabelings: the group is trivial and h = 1.
        rng = random.Random(n)
        for _ in range(3):
            sizes, left = [], n
            while left:
                sizes.append(rng.randint(1, left))
                left -= sizes[-1]
            blocks = []
            for k in sizes:
                top = [1] + [0] * (k - 2) + [1] if k > 1 else [2]
                blocks.append(from_rows([top] + [[int(j == i) for j in range(k)] for i in range(k - 1)]))
            a = block_sum(*blocks)
            perm = rng.sample(range(n), n)
            a = from_rows([[a[perm[i], perm[j]] for j in range(n)] for i in range(n)])
            assert abs(sum(char_poly(a).coeffs)) == 1
            assert self._check(a) == ()

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_scalar_matrices(self, n, k):
        # coker((1 - k) I) = (Z/(k - 1))^n, by hand; k = 3 is diag(3, ..., 3), (Z/2)^n.
        expected = (k - 1,) * n if k > 2 else ()
        assert self._check(from_rows([[k * (i == j) for j in range(n)] for i in range(n)])) == expected

    @pytest.mark.parametrize("copies,size", [(2, 3), (3, 4), (4, 10), (2, 20)])
    def test_block_sums_of_equal_blocks(self, copies, size):
        # coker of a block sum is the sum of the cokernels: each factor repeats.
        rng = random.Random(copies * size)
        for _ in range(2):
            block = essential_of_size(rng, size, 3)
            alone = cokernel_invariant_factors(mat_sub(identity(size), block))
            got = self._check(block_sum(*[block] * copies))
            assert sorted(got) == sorted(alone * copies)

    @pytest.mark.parametrize("a", [[[1]], [[2]], [[3]], [[10**30]]])
    def test_one_by_one(self, a):
        assert self._check(from_rows(a)) == tuple(d for d in (abs(1 - a[0][0]),) if d != 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_factor_lists_at_n_40(self, seed):
        self._check(essential_of_size(random.Random(4000 + seed), 40, 3))

    @given(
        st.integers(1, 8),
        st.sampled_from([3, 10**30]),
        st.sampled_from([5, 10**40]),
        st.booleans(),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjugate_product(self, n, max_entry, max_b, singular, seed):
        import sympy  # test-only oracle

        rng = random.Random(seed)
        rows = [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(n)]
        if singular:  # row 0 of I - A is zero, so D = det(I - A) = 0
            rows[0] = [int(j == 0) for j in range(n)]
        a = from_rows(rows)
        # Entries of B up to 10**40 make the column sum, not A, size the primes.
        b = from_rows([[rng.randint(-max_b, max_b) for _ in range(2)] for _ in range(n)])
        adj = (sympy.eye(n) - sympy.Matrix(a.to_lists())).adjugate()
        assert max(map(abs, adj)) <= _coefficient_bound(a)
        chi, adjugate = char_poly_and_adjugate(a, b)
        assert chi == char_poly(a) and (sum(chi.coeffs) == 0 or not singular)
        assert adjugate.to_lists() == (adj * sympy.Matrix(b.to_lists())).tolist()


class TestSmithNormalFormModulo:
    @given(
        st.integers(1, 7).flatmap(
            lambda r: st.integers(1, 7).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(-10**6, 10**6), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        ).map(from_rows),
        st.integers(1, 50),
    )
    @example(from_rows([[4, 0], [0, 6]]), 6)
    @example(from_rows([[0]]), 7)
    @example(from_rows([[5, 3]]), 1)
    @settings(max_examples=300, deadline=None)
    def test_is_gcd_with_the_factors_over_z(self, m, h):
        assert smith_normal_form(m, modulus=h) == tuple(math.gcd(d, h) for d in smith_normal_form(m))

    @given(
        st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
            lambda rc: st.lists(
                st.just([0] * rc[1])
                | st.lists(st.integers(-4, 4) | st.integers(-10**30, 10**30), min_size=rc[1], max_size=rc[1]),
                min_size=rc[0],
                max_size=rc[0],
            )
        ).map(from_rows),
        st.sampled_from([1, 2]),
    )
    @example(from_rows([[0, 0, 0]]), 2)
    @example(from_rows([[3, -5, 0, 7]]), 2)
    @example(from_rows([[2, -4, 6]]), 2)
    @example(from_rows([[-3, 5]]), 1)
    @example(from_rows([[1], [-1], [0]]), 2)
    @example(from_rows([[1, 1], [1, -1], [0, 0]]), 2)
    @settings(max_examples=300, deadline=None)
    def test_moduli_one_and_two_are_gcds_with_the_factors_over_z(self, m, h):
        # Rectangular shapes, 1 x k rows, zero rows and negative entries; the
        # small entries make odd and even ones meet often.
        assert smith_normal_form(m, modulus=h) == tuple(math.gcd(d, h) for d in smith_normal_form(m))

    @pytest.mark.parametrize("h", [1, 2, 12, 50])
    def test_on_i_minus_a_at_n_40(self, h):
        m = mat_sub(identity(40), essential_of_size(random.Random(h), 40, 3))
        assert smith_normal_form(m, modulus=h) == tuple(math.gcd(d, h) for d in smith_normal_form(m))


class TestCompare:
    def test_two_vs_three(self):
        verdict = compare(from_rows([[2]]), from_rows([[3]]))
        assert verdict.distinguished
        assert verdict.primary == "nonzero_char_poly"

    def test_two_vs_ones_inconclusive(self):
        verdict = compare(from_rows([[2]]), from_rows([[1, 1], [1, 1]]))
        assert not verdict.distinguished

    def test_reflexive_inconclusive(self):
        a = from_rows([[1, 2], [2, 1]])
        assert not compare(a, a).distinguished

    def test_three_vs_sym_separated_by_bowen_franks(self):
        verdict = compare(from_rows([[3]]), from_rows([[1, 2], [2, 1]]))
        assert verdict.distinguished
        assert "bowen_franks" in verdict.separating


class TestBowenFranksGeneral:
    def test_one_minus_t_on_three(self):
        assert bowen_franks_general(from_rows([[3]]), poly([1, -1])) == (2,)

    def test_constant_one_gives_trivial_group(self):
        a = from_rows([[1, 2], [2, 1]])
        assert bowen_franks_general(a, poly([1])) == ()

    def test_fibonacci_trivial(self):
        # det(I - A) = -1 for the golden mean shift.
        assert bowen_franks_general(from_rows([[1, 1], [1, 0]]), poly([1, -1])) == ()

    def test_rejects_non_unit_constant_term(self):
        with pytest.raises(DomainError):
            bowen_franks_general(from_rows([[2]]), poly([2, 1]))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: compute_invariants(from_rows([[1, 0], [0, 0]])), "invariants are defined for essential matrices"),
            (
                lambda: bowen_franks_general(from_rows([[2]]), poly([2, 1])),
                "generalized Bowen-Franks groups need p(0) in {1, -1}",
            ),
        ],
        ids=["inessential", "constant term"],
    )
    def test_refusal_names_its_reason(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_invariant_along_sse_chains(self):
        rng = random.Random(77)
        for _ in range(15):
            base = random_essential(rng, max_size=3, max_entry=2)
            chain = random_sse_chain(base, rng.randint(1, 3), seed=rng.randrange(10**6))
            folded = fold_chain(chain)
            assert not compare(folded.a, folded.b).distinguished
            for p in (ONE_MINUS_T, ONE_PLUS_T, ONE_MINUS_T_SQUARED):
                assert bowen_franks_general(folded.a, p) == bowen_franks_general(folded.b, p)

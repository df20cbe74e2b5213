import math
import random

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
    is_essential,
    mat_pow,
    poly,
    random_sse_chain,
    rank,
    transpose,
)
from shiftcalc.invariants import ONE_MINUS_T, ONE_MINUS_T_SQUARED, ONE_PLUS_T
from tests.conftest import random_essential


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

    def test_invariant_along_sse_chains(self):
        rng = random.Random(77)
        for _ in range(15):
            base = random_essential(rng, max_size=3, max_entry=2)
            chain = random_sse_chain(base, rng.randint(1, 3), seed=rng.randrange(10**6))
            folded = fold_chain(chain)
            assert not compare(folded.a, folded.b).distinguished
            for p in (ONE_MINUS_T, ONE_PLUS_T, ONE_MINUS_T_SQUARED):
                assert bowen_franks_general(folded.a, p) == bowen_franks_general(folded.b, p)

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcalc import (
    CompositionError,
    ContractError,
    DomainError,
    SEWitness,
    ShapeError,
    SSEChain,
    compose_se,
    failing_equation,
    fold_chain,
    from_rows,
    identity,
    identity_witness,
    mat_mul,
    mat_pow,
    random_sse_chain,
    reverse_se,
    search_se,
    transpose,
    verify_se,
)
from shiftcalc.witnesses import SE_EQUATIONS, _random_col_split
from tests.conftest import random_essential


def verify_elementary(a, b, r, s):
    """Shift equivalence with lag 1."""
    return verify_se(SEWitness(a, b, r, s, 1))


class TestVerify:
    def test_identity_witness(self):
        fib = from_rows([[1, 1], [1, 0]])
        assert verify_se(identity_witness(fib))

    def test_golden_witness_by_direct_multiplication(self, golden_witness):
        # Oracle: multiply everything out by hand.
        w = golden_witness
        assert mat_mul(w.r, w.s) == from_rows([[2]])
        assert mat_mul(w.s, w.r) == from_rows([[1, 1], [1, 1]])
        assert mat_mul(w.a, w.r) == from_rows([[2, 2]]) == mat_mul(w.r, w.b)
        assert mat_mul(w.b, w.s) == from_rows([[2], [2]]) == mat_mul(w.s, w.a)
        assert verify_se(w)

    def test_failing_equation_named(self):
        w = SEWitness(from_rows([[2]]), from_rows([[3]]), from_rows([[1]]), from_rows([[2]]), 1)
        assert failing_equation(w) == "B^m = SR"
        assert not verify_se(w)

    def test_elementary(self, golden_witness):
        w = golden_witness
        assert verify_elementary(w.a, w.b, w.r, w.s)
        a = from_rows([[1, 2], [3, 1]])
        assert verify_elementary(a, a, identity(2), a)
        assert not verify_elementary(from_rows([[2]]), from_rows([[2]]), from_rows([[0]]), from_rows([[0]]))

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            SEWitness(from_rows([[-1]]), from_rows([[1]]), from_rows([[1]]), from_rows([[1]]), 1)

    def test_zero_lag_rejected(self):
        with pytest.raises(DomainError):
            SEWitness(from_rows([[1]]), from_rows([[1]]), from_rows([[1]]), from_rows([[1]]), 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            SEWitness(from_rows([[1]]), from_rows([[1]]), from_rows([[1, 1]]), from_rows([[1]]), 1)


def uncapped_failing_equation(w):
    """Reference: both powers multiplied out in full."""
    checks = (
        (mat_pow(w.a, w.lag), mat_mul(w.r, w.s)),
        (mat_pow(w.b, w.lag), mat_mul(w.s, w.r)),
        (mat_mul(w.b, w.s), mat_mul(w.s, w.a)),
        (mat_mul(w.a, w.r), mat_mul(w.r, w.b)),
    )
    return next((name for name, (lhs, rhs) in zip(SE_EQUATIONS, checks) if lhs != rhs), None)


class TestConstructorRefusals:
    """Each refusal of ``SEWitness`` and ``SSEChain``, with its message."""

    ONE = from_rows([[1]])

    def test_endpoints_must_be_square(self):
        with pytest.raises(ShapeError, match="^witness endpoints must be square matrices$"):
            SEWitness(from_rows([[1, 1]]), self.ONE, self.ONE, self.ONE, 1)
        with pytest.raises(ShapeError, match="^witness endpoints must be square matrices$"):
            SEWitness(self.ONE, from_rows([[1], [1]]), self.ONE, self.ONE, 1)

    def test_r_must_map_b_rows_to_a_rows(self):
        a = identity(2)
        with pytest.raises(ShapeError, match="^R must be 2x1, got 1x2$"):
            SEWitness(a, self.ONE, from_rows([[1, 1]]), from_rows([[1, 1]]), 1)

    def test_s_must_map_a_rows_to_b_rows(self):
        a = identity(2)
        with pytest.raises(ShapeError, match="^S must be 1x2, got 2x1$"):
            SEWitness(a, self.ONE, from_rows([[1], [1]]), from_rows([[1], [1]]), 1)

    @pytest.mark.parametrize("name", ["a", "b", "r", "s"])
    def test_a_negative_entry_is_refused(self, name):
        matrices = {key: self.ONE for key in "abrs"}
        matrices[name] = from_rows([[-1]])
        with pytest.raises(DomainError, match=f"^witness matrix {name} has a negative entry$"):
            SEWitness(**matrices, lag=1)

    def test_chain_steps_must_have_lag_1(self):
        step = SEWitness(self.ONE, self.ONE, self.ONE, self.ONE, 2)
        with pytest.raises(DomainError, match="^chain steps must have lag 1$"):
            SSEChain((identity_witness(self.ONE), step))

    def test_consecutive_steps_must_share_an_endpoint(self):
        steps = (identity_witness(self.ONE), identity_witness(from_rows([[2]])))
        with pytest.raises(CompositionError, match="^consecutive chain steps do not share an endpoint$"):
            SSEChain(steps)


ONE = from_rows([[1]])
UNVERIFIED = SEWitness(from_rows([[2]]), from_rows([[3]]), ONE, from_rows([[2]]), 1)


class TestOperationRefusals:
    """Each refusal of the witness operations, with its message."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: reverse_se(UNVERIFIED), ContractError, "reverse_se requires a verified witness"),
            (lambda: compose_se(UNVERIFIED, UNVERIFIED), CompositionError, "compose_se requires w1.b == w2.a"),
            (
                lambda: compose_se(UNVERIFIED, identity_witness(UNVERIFIED.b)),
                ContractError,
                "compose_se requires verified witnesses",
            ),
            (lambda: fold_chain(SSEChain(())), DomainError, "cannot fold an empty chain"),
            (
                lambda: search_se(from_rows([[0]]), ONE, 1, 1),
                DomainError,
                "search_se requires essential matrices",
            ),
            (lambda: search_se(ONE, ONE, 1, -1), DomainError, "entry bound must be nonnegative"),
            (
                lambda: random_sse_chain(from_rows([[1, 0], [0, 0]]), 1, seed=0),
                DomainError,
                "random_sse_chain requires an essential matrix",
            ),
        ],
        ids=[
            "reverse", "compose ends", "compose verified", "fold", "search essential", "search bound", "random chain",
        ],
    )
    def test_refusal_names_its_reason(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestCappedPowers:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([None, "a", "b", "r", "s"]))
    @settings(max_examples=120, deadline=None)
    def test_capped_and_uncapped_decisions_agree(self, seed, lag, perturbed):
        rng = random.Random(seed)
        w = fold_chain(random_sse_chain(random_essential(rng, 3, 2), lag, seed))
        if perturbed is not None:
            rows = getattr(w, perturbed).to_lists()
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[i][j] += 1 if rows[i][j] == 0 or rng.random() < 0.5 else -1
            w = SEWitness(**{**vars(w), perturbed: from_rows(rows)})
        assert failing_equation(w) == uncapped_failing_equation(w)
        # Every entry of an essential witness feeds some product, so a
        # perturbed one always fails.
        assert (failing_equation(w) is None) == (perturbed is None)

    def test_huge_lag_is_decided_at_once(self):
        two, one = from_rows([[2]]), from_rows([[1]])
        assert failing_equation(SEWitness(two, two, one, two, 10**9)) == "A^m = RS"
        ones = from_rows([[1, 1], [1, 1]])
        assert failing_equation(SEWitness(ones, ones, identity(2), ones, 10**9)) == "A^m = RS"
        perm = from_rows([[0, 1], [1, 0]])
        assert failing_equation(SEWitness(perm, perm, identity(2), identity(2), 10**9 + 1)) == "A^m = RS"
        assert failing_equation(SEWitness(perm, perm, identity(2), identity(2), 10**9)) is None


class TestReverseCompose:
    def test_reverse_identity_witness(self):
        a = from_rows([[1, 1], [1, 0]])
        rev = reverse_se(identity_witness(a))
        assert rev.r == a and rev.s == identity(2)
        assert verify_se(rev)

    def test_reverse_golden(self, golden_witness):
        assert verify_se(reverse_se(golden_witness))

    def test_reverse_involutive(self, golden_witness):
        assert reverse_se(reverse_se(golden_witness)) == golden_witness

    def test_reverse_requires_verified(self):
        bad = SEWitness(from_rows([[2]]), from_rows([[3]]), from_rows([[1]]), from_rows([[2]]), 1)
        with pytest.raises(ContractError):
            reverse_se(bad)

    def test_compose_with_reverse(self, golden_witness):
        c = compose_se(golden_witness, reverse_se(golden_witness))
        assert c.lag == 2
        assert c.r == from_rows([[2]]) and c.s == from_rows([[2]])
        assert verify_se(c)

    def test_compose_with_identity_witness(self, golden_witness):
        c = compose_se(golden_witness, identity_witness(golden_witness.b))
        assert c.lag == 2
        assert c.r == golden_witness.r  # R picks up only an identity factor
        assert verify_se(c)

    def test_compose_two_identity_witnesses(self):
        a = from_rows([[1, 1], [1, 1]])
        c = compose_se(identity_witness(a), identity_witness(a))
        assert c.r == identity(2) and c.s == mat_mul(a, a) and c.lag == 2
        assert verify_se(c)

    def test_compose_chain_mismatch(self, golden_witness):
        with pytest.raises(CompositionError):
            compose_se(golden_witness, golden_witness)

    def test_compose_requires_verified(self, golden_witness):
        bad = SEWitness(
            golden_witness.b, golden_witness.b, from_rows([[1, 0], [0, 0]]), from_rows([[1, 0], [0, 0]]), 1
        )
        with pytest.raises(ContractError):
            compose_se(golden_witness, bad)


class TestSearch:
    def test_recovers_golden_witness(self, golden_witness):
        found = search_se(golden_witness.a, golden_witness.b, 1, 1)
        assert found is not None
        assert found.r == golden_witness.r and found.s == golden_witness.s
        assert verify_se(found)

    def test_distinguished_pair_has_no_witness(self):
        # Invariants separate [2] and [3], so every bounded box must come
        # back empty.
        for bound in range(4):
            assert search_se(from_rows([[2]]), from_rows([[3]]), 1, bound) is None
        assert search_se(from_rows([[2]]), from_rows([[3]]), 1, 5) is None

    def test_self_search_finds_verified_witness(self):
        a = from_rows([[1, 1], [1, 0]])
        found = search_se(a, a, 1, 1)
        assert found is not None and verify_se(found)

    def test_lexicographic_first(self):
        # For A = B = [2] at bound 2 the smallest (R, S) with RS = 2 is (1, 2).
        a = from_rows([[2]])
        found = search_se(a, a, 1, 2)
        assert found.r == from_rows([[1]]) and found.s == from_rows([[2]])

    def test_products_at_the_power_cap_are_found(self):
        # A^lag and B^lag are capped at the largest entry RS and SR can have:
        # b.rows * bound^2 = 3 here, which RS = [[3]] reaches, and
        # a.rows * bound^2 = 1, which every entry of SR = J reaches.
        ones = from_rows([[1, 1, 1]] * 3)
        found = search_se(from_rows([[3]]), ones, 1, 1)
        assert found.r == from_rows([[1, 1, 1]]) and found.s == from_rows([[1], [1], [1]])
        found = search_se(ones, from_rows([[3]]), 1, 1)
        assert found.r == from_rows([[1], [1], [1]]) and found.s == from_rows([[1, 1, 1]])

    def test_requires_essential(self):
        with pytest.raises(DomainError):
            search_se(from_rows([[0]]), from_rows([[1]]), 1, 1)


def reference_search_se(a, b, lag, bound):
    """Reference: the search over the whole box [0, bound], with uncapped powers."""
    from shiftcalc.witnesses import _bounded_intertwiners

    am, bm = mat_pow(a, lag), mat_pow(b, lag)
    s_candidates = list(_bounded_intertwiners(b, a, b.rows, a.rows, bound))
    for r in _bounded_intertwiners(a, b, a.rows, b.rows, bound):
        for s in s_candidates:
            if mat_mul(r, s) == am and mat_mul(s, r) == bm:
                return SEWitness(a, b, r, s, lag)
    return None


class TestSearchBoxes:
    """R's entries are at most max A^m and S's at most max B^m in any witness, so
    ``search_se`` enumerates no further, whatever the bound."""

    def test_the_boxes_lose_no_witness(self):
        rng = random.Random(2116)
        found = 0
        for case in range(150):
            a = random_essential(rng, max_size=2, max_entry=2)
            lag = rng.randint(1, 2)
            if case % 2:
                # A recovery case: the end of a random chain, searched at its witness's largest entry or more.
                w = fold_chain(random_sse_chain(a, lag, seed=case))
                b = w.b if w.b.rows <= 3 else a
            else:
                b = random_essential(rng, max_size=2, max_entry=2)
            bound = rng.randint(0, 3)
            expected = reference_search_se(a, b, lag, bound)
            got = search_se(a, b, lag, bound)
            if expected is None:
                assert got is None
            else:
                assert (got.r, got.s) == (expected.r, expected.s)
                found += 1
        assert found >= 20

    @pytest.mark.parametrize("bound", [20, 40, 10**6])
    def test_a_refutation_does_not_grow_with_the_bound(self, bound):
        # Witnesses here have entries at most 2 = max A = max B, so a bound of a
        # million enumerates what a bound of 2 does.
        assert search_se(from_rows([[2, 0], [0, 2]]), from_rows([[1, 1], [1, 1]]), 1, bound) is None


class TestBoundedIntertwiners:
    def test_matches_brute_force_box_filter(self):
        # Oracle: enumerate the whole box and filter; the pruned DFS must
        # produce the same matrices in the same lexicographic order.
        from itertools import product as iproduct

        from shiftcalc.witnesses import _bounded_intertwiners

        rng = random.Random(404)
        for _ in range(15):
            n, p = rng.randint(1, 2), rng.randint(1, 2)
            a = from_rows([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
            b = from_rows([[rng.randint(0, 2) for _ in range(p)] for _ in range(p)])
            bound = 2
            expected = []
            for cells in iproduct(range(bound + 1), repeat=n * p):
                x = from_rows([list(cells[i * p : (i + 1) * p]) for i in range(n)])
                if mat_mul(a, x) == mat_mul(x, b):
                    expected.append(x)
            assert list(_bounded_intertwiners(a, b, n, p, bound)) == expected


def reference_bounded_intertwiners(left, right, rows, cols, bound):
    """Reference: the enumerator that re-sums every constraint over every cell
    at every node, with no running sums and no precomputed suffix ranges."""
    ncells = rows * cols
    constraints = []
    for i in range(rows):
        for j in range(cols):
            coeff = [0] * ncells
            for k in range(rows):
                coeff[k * cols + j] += left[i, k]
            for k in range(cols):
                coeff[i * cols + k] -= right[k, j]
            constraints.append(coeff)

    values = [0] * ncells

    def feasible(filled):
        for coeff in constraints:
            lo = hi = sum(c * v for c, v in zip(coeff[:filled], values[:filled]))
            for c in coeff[filled:]:
                if c > 0:
                    hi += c * bound
                elif c < 0:
                    lo += c * bound
            if lo > 0 or hi < 0:
                return False
        return True

    def fill(cell):
        if cell == ncells:
            yield from_rows([values[i * cols : (i + 1) * cols] for i in range(rows)])
            return
        for x in range(bound + 1):
            values[cell] = x
            if feasible(cell + 1):
                yield from fill(cell + 1)
        values[cell] = 0

    yield from fill(0)


small_squares = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
).map(from_rows)


@given(small_squares, small_squares, st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_bounded_intertwiners_match_the_reference_sequence(left, right, bound):
    from shiftcalc.witnesses import _bounded_intertwiners

    rows, cols = left.rows, right.rows
    assert list(_bounded_intertwiners(left, right, rows, cols, bound)) == list(
        reference_bounded_intertwiners(left, right, rows, cols, bound)
    )


class TestRandomChains:
    def test_zero_steps(self):
        chain = random_sse_chain(from_rows([[2]]), 0, seed=1)
        assert chain.steps == ()

    def test_single_step_from_full_shift(self):
        chain = random_sse_chain(from_rows([[2]]), 1, seed=3)
        (step,) = chain.steps
        assert verify_elementary(step.a, step.b, step.r, step.s)

    def test_every_step_verifies_and_chains(self):
        rng = random.Random(2024)
        for _ in range(20):
            base = random_essential(rng, max_size=4, max_entry=3)
            chain = random_sse_chain(base, rng.randint(1, 4), seed=rng.randrange(10**6))
            for step in chain.steps:
                assert step.lag == 1 and verify_se(step)
            for s1, s2 in zip(chain.steps, chain.steps[1:]):
                assert s1.b == s2.a

    def test_fold_yields_single_witness_with_total_lag(self):
        chain = random_sse_chain(from_rows([[1, 1], [1, 1]]), 4, seed=11)
        folded = fold_chain(chain)
        assert folded.lag == 4
        assert verify_se(folded)
        assert mat_pow(folded.a, 4) == mat_mul(folded.r, folded.s)

    def test_deterministic_for_seed(self):
        a = from_rows([[1, 2], [1, 1]])
        c1 = random_sse_chain(a, 3, seed=42)
        c2 = random_sse_chain(a, 3, seed=42)
        assert c1 == c2

    def test_requires_essential(self):
        with pytest.raises(DomainError):
            random_sse_chain(from_rows([[1, 0], [1, 0]]), 1, seed=0)


def reference_col_split(a, rng):
    """Reference: the in-split built column by column, independently of the
    row split."""
    n = a.rows
    splittable = [j for j in range(n) if sum(a.col(j)) >= 2]
    j = rng.choice(splittable)
    col = list(a.col(j))
    while True:
        u = [rng.randint(0, x) for x in col]
        v = [x - y for x, y in zip(col, u)]
        if any(u) and any(v):
            break
    r_cols = [list(a.col(k)) for k in range(n)]
    r_cols[j] = u
    r_cols.append(v)
    r = from_rows([[r_cols[k][i] for k in range(n + 1)] for i in range(n)])
    s_rows = [[1 if k == i else 0 for k in range(n)] for i in range(n)]
    s_rows.append([1 if k == j else 0 for k in range(n)])
    return r, from_rows(s_rows)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_col_split_matches_the_reference_and_its_draws(matrix_seed, seed, max_size, max_entry):
    a = random_essential(random.Random(matrix_seed), max_size, max_entry)
    if not any(sum(a.col(j)) >= 2 for j in range(a.cols)):
        return  # nothing to split
    rng, reference_rng = random.Random(seed), random.Random(seed)
    r, s = _random_col_split(a, rng)
    assert (r, s) == reference_col_split(a, reference_rng)
    assert rng.getstate() == reference_rng.getstate()
    assert mat_mul(r, s) == a


# ---------------------------------------------------------------------------
# The symmetries of shift equivalence as metamorphic relations: each test
# compares the code's verdict on an input with its verdict on a transformed
# input, so no second implementation is needed.
# ---------------------------------------------------------------------------


def relabel(m, p, q):
    """P M Q^T for the permutation matrices P and Q of ``p`` and ``q``: entry (i, j) is m[p[i], q[j]]."""
    return from_rows([[m[p[i], q[j]] for j in range(m.cols)] for i in range(m.rows)])


def transposed(w):
    """(A^T, B^T, S^T, R^T): its A^m = RS and B^m = SR are the transposes of w's, and its
    BS = SA and AR = RB are the transposes of w's AR = RB and BS = SA."""
    return SEWitness(transpose(w.a), transpose(w.b), transpose(w.s), transpose(w.r), w.lag)


@st.composite
def search_problems(draw):
    """(A, B, lag, bound): essential A and B of size at most 3 and entries at most 2, B drawn
    apart from A, as the far end of a random lag-1 step from A (so a witness exists at some
    bound), or as a relabeling of A; lag and bound at most 2."""
    rng = draw(st.randoms(use_true_random=False))
    a = random_essential(rng, max_size=3, max_entry=2)
    kind = draw(st.sampled_from(["apart", "step", "relabeled"]))
    if kind == "step" and a.rows < 3:
        b = random_sse_chain(a, 1, seed=rng.randrange(2**32)).steps[0].b
    elif kind == "relabeled":
        p = draw(st.permutations(range(a.rows)))
        b = relabel(a, p, p)
    else:
        b = random_essential(rng, max_size=3, max_entry=2)
    return a, b, draw(st.integers(1, 2)), draw(st.integers(1, 2))


@st.composite
def witnesses(draw):
    """A witness between small essential matrices: the fold of a random chain of one or two
    steps, which verifies, or that witness with one entry of R or S moved by one, which need not."""
    rng = draw(st.randoms(use_true_random=False))
    a = random_essential(rng, max_size=2, max_entry=2)
    w = fold_chain(random_sse_chain(a, draw(st.integers(1, 2)), seed=rng.randrange(2**32)))
    if draw(st.booleans()):
        name = draw(st.sampled_from(["r", "s"]))
        m = getattr(w, name)
        i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))
        rows = [list(row) for row in m.entries]
        rows[i][j] += 1 if rows[i][j] == 0 or draw(st.booleans()) else -1
        w = replace(w, **{name: from_rows(rows)})
    return w


def found(a, b, lag, bound) -> bool:
    return search_se(a, b, lag, bound) is not None


class TestSymmetries:
    """Shift equivalence is symmetric and commutes with transposition and with relabeling of
    vertices, and a witness at lag m gives one at lag m + 1 (Lind & Marcus, section 7.3)."""

    @given(search_problems())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_swap(self, problem):
        a, b, lag, bound = problem
        assert found(b, a, lag, bound) == found(a, b, lag, bound)

    @given(search_problems())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_transposition_of_a_search(self, problem):
        a, b, lag, bound = problem
        assert found(transpose(a), transpose(b), lag, bound) == found(a, b, lag, bound)

    @given(witnesses())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_transposition_of_a_witness(self, w):
        assert verify_se(transposed(w)) == verify_se(w)

    @given(search_problems(), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_relabeling_of_a_search(self, problem, data):
        a, b, lag, bound = problem
        p, q = (data.draw(st.permutations(range(n))) for n in (a.rows, b.rows))
        assert found(relabel(a, p, p), relabel(b, q, q), lag, bound) == found(a, b, lag, bound)

    @given(witnesses(), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_relabeling_of_a_witness(self, w, data):
        p, q = (data.draw(st.permutations(range(n))) for n in (w.a.rows, w.b.rows))
        moved = SEWitness(relabel(w.a, p, p), relabel(w.b, q, q), relabel(w.r, p, q), relabel(w.s, q, p), w.lag)
        assert verify_se(moved) == verify_se(w)

    @given(witnesses())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_lag(self, w):
        if verify_se(w):
            assert verify_se(SEWitness(w.a, w.b, mat_mul(w.a, w.r), w.s, w.lag + 1))

import dataclasses
import random
import re
import time
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcalc import (
    BlockUnitary,
    DomainError,
    GraphCorrespondence,
    ObjectPair,
    OneArrow,
    ShapeError,
    canonical_assoc,
    canonical_identification,
    check_two_arrow,
    compose_one_arrows,
    compose_unitaries,
    conjugate_arrow,
    from_matrix,
    from_rows,
    identity_arrow,
    identity_unitary,
    left_unitor,
    mat_mul,
    mat_pow,
    object_pair,
    power_arrow,
    power_correspondence,
    random_block_unitary,
    random_sse_chain,
    right_unitor,
    slide_past_powers,
    tensor,
    tensor_unitaries,
    two_arrow_residual,
    unitarity_defect,
    unitary_distance,
)
from shiftcalc import exact
from shiftcalc.corr import _follow, basis_fits
from shiftcalc.selftest import GOLDEN_WITNESS
from tests.conftest import arrow_from_witness, random_essential

TOL = 1e-9


def count_composable_paths(r, s):
    """Independent oracle: enumerate edges of both matrices and count joinable
    pairs per (v, w) block, never touching the tensor machinery."""
    edges_r = [(v, a, u) for v in range(r.rows) for u in range(r.cols) for a in range(r[v, u])]
    edges_s = [(u, b, w) for u in range(s.rows) for w in range(s.cols) for b in range(s[u, w])]
    counts = {}
    for (v, _, u1) in edges_r:
        for (u2, _, w) in edges_s:
            if u1 == u2:
                counts[(v, w)] = counts.get((v, w), 0) + 1
    return counts


def itinerary_blocks(mats):
    """Independent oracle for the basis of X(M1) (x) ... (x) X(Mk): extend
    every edge path by every composable edge, group the paths by block and
    sort each block by the ((target, alpha), ...) itinerary of its paths."""
    def edges(m):
        return [(v, a, w) for v in range(m.rows) for w in range(m.cols) for a in range(m[v, w])]

    paths = [(e,) for e in edges(mats[0])]
    for m in mats[1:]:
        paths = [p + (e,) for p in paths for e in edges(m) if e[0] == p[-1][2]]
    blocks = {}
    for p in paths:
        blocks.setdefault((p[0][0], p[-1][2]), []).append(p)
    for block in blocks.values():
        block.sort(key=lambda p: tuple((w, a) for _, a, w in p))
    return blocks


def fold(corrs, right):
    """Tensor product of ``corrs``, bracketed to the right or to the left."""
    if right:
        return reduce(lambda acc, c: tensor(c, acc), reversed(corrs))
    return reduce(tensor, corrs)


def matrices(r, c):
    """r-by-c matrices with entries 0..2."""
    return st.lists(st.lists(st.integers(0, 2), min_size=c, max_size=c), min_size=r, max_size=r).map(from_rows)


def factor_chains(min_factors=1):
    """Composable sequences of up to four matrices, 1-3 nodes wide, entries 0..2."""
    return (
        st.integers(min_factors, 4)
        .flatmap(lambda k: st.lists(st.integers(1, 3), min_size=k + 1, max_size=k + 1))
        .flatmap(lambda n: st.tuples(*(matrices(r, c) for r, c in zip(n, n[1:]))))
    )


class TestDerivedBases:
    @given(factor_chains(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_block_basis_is_the_sorted_itinerary_order(self, mats, right):
        t = fold([from_matrix(m) for m in mats], right)
        oracle = itinerary_blocks(mats)
        for i in range(mats[0].rows):
            for j in range(mats[-1].cols):
                assert t.block_basis(i, j) == tuple(oracle.get((i, j), ()))

    @given(factor_chains(), st.integers(0, 4), st.integers(2, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_repeated_factor_gives_one_spelling_under_either_bracketing(self, mats, at, times, data):
        # A square factor repeated ``times`` over, forced in at position ``at`` of the chain.
        at = min(at, len(mats))
        n = mats[at].rows if at < len(mats) else mats[-1].cols
        mats = mats[:at] + (data.draw(matrices(n, n)),) * times + mats[at:]
        corrs = [from_matrix(m) for m in mats]
        left, right = fold(corrs, False), fold(corrs, True)
        assert left == right and hash(left) == hash(right)
        assert left.factors == right.factors
        # The runs spell the chain, a new run starting only where the factor changes.
        assert [atom[2] for atom, count in left.factors for _ in range(count)] == list(mats)
        assert all(a != b for (a, _), (b, _) in zip(left.factors, left.factors[1:]))
        assert max(count for _, count in left.factors) >= times

    @given(factor_chains(2), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_tensor_unitaries_places_each_pair_at_the_oracle_index(self, mats, split, right, seed):
        k = min(split, len(mats) - 1)
        rng = np.random.default_rng(seed)
        x = fold([from_matrix(m) for m in mats[:k]], right)
        y = fold([from_matrix(m) for m in mats[k:]], right)
        # Targets are the atomic correspondences of the same dims, so their
        # basis order differs from the sources' whenever a side has several
        # factors.
        u = BlockUnitary(x, from_matrix(x.dims), random_block_unitary(x, rng).blocks)
        v = BlockUnitary(y, from_matrix(y.dims), random_block_unitary(y, rng).blocks)
        w = tensor_unitaries(u, v)
        src_x, src_y = itinerary_blocks(mats[:k]), itinerary_blocks(mats[k:])
        tgt_x, tgt_y = itinerary_blocks([x.dims]), itinerary_blocks([y.dims])
        src, tgt = itinerary_blocks(mats), itinerary_blocks([x.dims, y.dims])
        for (i, j), block in w.blocks.items():
            expected = np.zeros_like(block)
            for mid in range(x.dims.cols):
                pairs = [
                    (tgt[(i, j)].index(p2 + q2), src[(i, j)].index(p + q),
                     u.block(i, mid)[a2, a] * v.block(mid, j)[b2, b])
                    for a, p in enumerate(src_x.get((i, mid), ()))
                    for b, q in enumerate(src_y.get((mid, j), ()))
                    for a2, p2 in enumerate(tgt_x.get((i, mid), ()))
                    for b2, q2 in enumerate(tgt_y.get((mid, j), ()))
                ]
                for row, col, value in pairs:
                    expected[row, col] = value
            assert np.allclose(block, expected, rtol=0, atol=1e-12)


    @given(factor_chains(2), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_a_correspondence_factor_is_placed_as_its_identity_unitary(self, mats, split, right, seed):
        # F in place of a factor stands for identity_unitary(F), which np.kron multiplies in.
        k = min(split, len(mats) - 1)
        rng = np.random.default_rng(seed)
        x = fold([from_matrix(m) for m in mats[:k]], right)
        y = fold([from_matrix(m) for m in mats[k:]], right)
        u = BlockUnitary(x, from_matrix(x.dims), random_block_unitary(x, rng).blocks)
        v = BlockUnitary(y, from_matrix(y.dims), random_block_unitary(y, rng).blocks)
        for placed, multiplied in (
            (tensor_unitaries(u, y), tensor_unitaries(u, identity_unitary(y))),
            (tensor_unitaries(x, v), tensor_unitaries(identity_unitary(x), v)),
        ):
            assert placed.source == multiplied.source and placed.target == multiplied.target
            assert placed.blocks.keys() == multiplied.blocks.keys()
            assert all(np.array_equal(m, multiplied.blocks[ij]) for ij, m in placed.blocks.items())


def eager_atom(m, v=None, w=None):
    """(from_matrix(m, v, w), its ends and dims as the constructor once stored them): a reference for
    the derived ``ends``, each row's columns repeated by ``np.repeat``, and ``dims``, m itself."""
    return from_matrix(m, v, w), tuple(np.repeat(np.arange(m.cols), m.row(i)) for i in range(m.rows)), m


def eager_tensor(x, y):
    """(tensor(X, Y), its ends and dims as ``tensor`` once stored them) for eager triples x and y: each
    row of X's ends, in order, replaced by Y's ends out of each of its entries, and one ``mat_mul``."""
    (cx, ex, dx), (cy, ey, dy) = x, y
    ends = tuple(np.concatenate([ey[u] for u in row]) if row.size else row for row in ex)
    return tensor(cx, cy), ends, mat_mul(dx, dy)


def assert_ends_are(c, expected):
    assert len(c.ends) == len(expected)
    for p, q in zip(c.ends, expected):
        assert p.dtype == q.dtype and np.array_equal(p, q)


class TestDerivedEnds:
    """``ends`` and ``dims`` are derived from the factor runs on first read, and agree with the eager
    derivations that every constructor once ran: one ``np.repeat`` per atom row, one concatenation
    and one ``mat_mul`` per tensor."""

    @given(factor_chains(), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_the_derived_ends_are_the_eager_ones(self, mats, right, labelled):
        sizes = [mats[0].rows] + [m.cols for m in mats]
        labels = [tuple(f"{k}:{i}" for i in range(n)) if labelled else None for k, n in enumerate(sizes)]
        eager = [eager_atom(m, v, w) for m, v, w in zip(mats, labels, labels[1:])]
        if right:
            c, expected, dims = reduce(lambda acc, x: eager_tensor(x, acc), reversed(eager))
        else:
            c, expected, dims = reduce(eager_tensor, eager)
        assert "ends" not in vars(c) and "dims" not in vars(c)
        assert_ends_are(c, expected)
        assert vars(c)["ends"] is c.ends  # read once, kept
        assert c.dims == dims and vars(c)["dims"] is c.dims

    @given(st.integers(1, 2).flatmap(lambda n: st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                                         min_size=n, max_size=n)), st.booleans())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_a_power_derives_the_ends_of_its_left_fold(self, rows, labelled):
        # Entries 0 or 1 plus the identity: essential, with at most 3**9 paths out of a vertex at m = 9.
        a = from_rows([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)])
        labels = tuple("pq"[: a.rows]) if labelled else None
        obj = object_pair(a, labels)
        unit, atom = eager_atom(mat_pow(a, 0), labels, labels), eager_atom(a, labels, labels)
        for m in range(10):
            power = power_correspondence(obj, m)
            left, expected, dims = reduce(eager_tensor, [atom] * m) if m else unit
            assert power == left and "ends" not in vars(power)
            assert_ends_are(power, expected)
            assert power.dims == dims

    def test_ends_is_no_field_and_takes_no_part_in_equality(self):
        fields = [f.name for f in dataclasses.fields(GraphCorrespondence)]
        assert fields == ["left_index", "right_index", "factors"]
        a = from_rows([[1, 2], [0, 1]])
        read, fresh = tensor(from_matrix(a), from_matrix(a)), tensor(from_matrix(a), from_matrix(a))
        assert "dims" not in vars(read)  # tensor derived none
        read.ends, read.dims
        assert {"ends", "dims"} <= vars(read).keys() and not {"ends", "dims"} & vars(fresh).keys()
        assert read == fresh and hash(read) == hash(fresh)
        for c in (fresh, from_matrix(a)):  # == and hash derived none
            assert not {"ends", "dims"} & vars(c).keys()


class TestFromMatrix:
    def test_single_block_of_dimension_two(self):
        c = from_matrix(from_rows([[2]]))
        assert c.total_dim == 2
        assert c.basis == (((0, 0, 0),), ((0, 1, 0),))

    def test_entry_sum_counts_basis(self):
        c = from_matrix(from_rows([[1, 1], [1, 0]]))
        assert c.total_dim == 3

    def test_zero_row_allowed(self):
        c = from_matrix(from_rows([[0, 0], [1, 1]]))
        assert c.total_dim == 2

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="^correspondence matrices must be nonnegative$"):
            from_matrix(from_rows([[-1]]))

    @pytest.mark.parametrize(
        "rows, fits",
        [([[2**60 - 1]], True), ([[2**58, 2**59]], True), ([[2**59, 2**59]], False), ([[2**62]], False), ([[10**20, 0]], False)],
    )
    def test_basis_fits_is_numpys_own_index_limit(self, rows, fits):
        # A row numpy cannot index is refused before anything is allocated; any other reaches
        # the allocator, which cannot give exbibytes either, when its ends are first read.
        r = from_rows(rows)
        assert basis_fits(r) is fits
        with pytest.raises(MemoryError if fits else (OverflowError, ValueError)):
            np.repeat(np.arange(r.cols), r.row(0))
        with pytest.raises(DomainError, match="^correspondence block dimensions are too large to hold a basis$"):
            c = from_matrix(r)  # refused here when the row does not fit
            assert fits  # a row that fits is built, and refused where its ends are allocated
            c.ends


class TestRecords:
    """Correspondences, objects and arrows are immutable records; the first two
    compare and hash by value, an arrow by identity."""

    def test_a_correspondence_is_immutable(self):
        c = from_matrix(from_rows([[2]]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.dims = from_rows([[3]])

    def test_equal_correspondences_and_objects_hash_equal(self):
        a, b = (from_rows([[1, 1], [1, 0]]) for _ in range(2))
        assert tensor(from_matrix(a), from_matrix(a)) == tensor(from_matrix(b), from_matrix(b))
        assert hash(tensor(from_matrix(a), from_matrix(a))) == hash(tensor(from_matrix(b), from_matrix(b)))
        assert object_pair(a) == object_pair(b) and hash(object_pair(a)) == hash(object_pair(b))
        assert from_matrix(a) != from_matrix(a, "pq", "pq") and object_pair(a) != object_pair(a, "pq")

    def test_an_arrow_is_equal_only_to_itself(self):
        obj = object_pair(from_rows([[2]]))
        first, second = power_arrow(obj, 1), power_arrow(obj, 1)
        assert first == first and first != second
        assert len({first, second, first}) == 2


class TestTensor:
    def test_row_times_column_block(self):
        t = tensor(from_matrix(from_rows([[1, 1]])), from_matrix(from_rows([[1], [1]])))
        assert t.dims == from_rows([[2]])
        assert t.total_dim == 2

    def test_identity_is_neutral_for_dims(self):
        r = from_rows([[1, 2], [0, 1]])
        c = from_matrix(r)
        unit = from_matrix(from_rows([[1, 0], [0, 1]]))
        assert tensor(c, unit).dims == r
        assert tensor(unit, c).dims == r

    def test_against_path_enumeration_oracle(self):
        rng = random.Random(1234)
        for _ in range(60):
            rows, mid, cols = (rng.randint(1, 3) for _ in range(3))
            r = from_rows([[rng.randint(0, 2) for _ in range(mid)] for _ in range(rows)])
            s = from_rows([[rng.randint(0, 2) for _ in range(cols)] for _ in range(mid)])
            t = tensor(from_matrix(r), from_matrix(s))
            assert t.dims == mat_mul(r, s)
            counts = count_composable_paths(r, s)
            for i in range(rows):
                for j in range(cols):
                    assert t.block_dim(i, j) == counts.get((i, j), 0)
            assert t.total_dim == sum(counts.values())

    def test_index_mismatch(self):
        with pytest.raises(ShapeError):
            tensor(from_matrix(from_rows([[1, 1]])), from_matrix(from_rows([[1, 1]])))


class TestConstructorRefusals:
    """Each refusal of ``ObjectPair``, ``BlockUnitary`` and ``OneArrow``, with its message."""

    def test_an_object_must_be_indexed_by_its_vertex_set(self):
        x = from_matrix(from_rows([[1, 1], [1, 1]]), (0, 1), ("a", "b"))
        with pytest.raises(ShapeError, match="^object correspondence must be indexed by the object's vertex set$"):
            ObjectPair((0, 1), x)

    def test_an_object_must_have_essential_dims(self):
        with pytest.raises(DomainError, match="^object correspondence must have essential dims$"):
            ObjectPair((0, 1), from_matrix(from_rows([[1, 1], [0, 0]])))

    def test_a_block_unitary_needs_equal_dims(self):
        with pytest.raises(ShapeError, match="^source and target of a block unitary must have equal dims$"):
            BlockUnitary(from_matrix(from_rows([[1]])), from_matrix(from_rows([[2]])), {(0, 0): [[1]]})

    def test_a_block_of_the_wrong_size_is_refused(self):
        c = from_matrix(from_rows([[2]]))
        with pytest.raises(ShapeError, match=re.escape("block (0, 0) must be 2x2, got (1, 1)")):
            BlockUnitary(c, c, {(0, 0): [[1]]})

    def test_phi_must_start_and_end_at_the_canonical_products(self):
        # Same dims [[4]] as X (x) X, but one factor where it has two.
        obj = object_pair(from_rows([[2]]))
        arrow = power_arrow(obj, 1)
        other = from_matrix(from_rows([[4]]))
        with pytest.raises(ShapeError, match=re.escape("phi must start at Y (x) F with the canonical basis")):
            OneArrow(obj, obj, arrow.f, canonical_identification(other, arrow.phi.target))
        with pytest.raises(ShapeError, match=re.escape("phi must end at F (x) X with the canonical basis")):
            OneArrow(obj, obj, arrow.f, canonical_identification(arrow.phi.source, other))

    def test_a_mislabelled_f_has_no_canonical_products(self):
        # F must be indexed by the target on the left and the source on the right;
        # a label off on either side leaves one of phi's tensors undefined.
        obj = object_pair(from_rows([[2]]))
        off_left = from_matrix(from_rows([[2]]), ("a",), (0,))
        off_right = from_matrix(from_rows([[2]]), (0,), ("a",))
        # Each phi is an identity on the one product its F can form.
        for f, phi in (
            (off_left, identity_unitary(tensor(off_left, obj.x))),
            (off_right, identity_unitary(tensor(obj.x, off_right))),
        ):
            with pytest.raises(ShapeError, match="^tensor factors must share their middle index set$"):
                OneArrow(obj, obj, f, phi)


ONE, TWO, THREE = (from_matrix(from_rows([[k]])) for k in (1, 2, 3))
TWO_ARROW = power_arrow(object_pair(from_rows([[2]])), 1)


class TestOperationRefusals:
    """Each refusal of the correspondence operations, with its message."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: from_matrix(from_rows([[1]]), (0, 1)), ShapeError, "index label lists must match the matrix shape"),
            (
                lambda: from_matrix(from_rows([[10**20]])),
                DomainError,
                "correspondence block dimensions are too large to hold a basis",
            ),
            (
                lambda: unitary_distance(identity_unitary(ONE), identity_unitary(TWO)),
                ShapeError,
                "cannot compare block maps of different shapes",
            ),
            (
                lambda: compose_unitaries(identity_unitary(ONE), identity_unitary(TWO)),
                ShapeError,
                "cannot compose: middle correspondences differ in shape",
            ),
            (
                lambda: power_correspondence(TWO_ARROW.source, -1),
                DomainError,
                "tensor powers need a nonnegative exponent",
            ),
            (
                lambda: two_arrow_residual(identity_unitary(THREE), TWO_ARROW, TWO_ARROW),
                ShapeError,
                "psi endpoints must match the arrows' correspondences",
            ),
            (
                lambda: conjugate_arrow(TWO_ARROW, identity_unitary(THREE)),
                ShapeError,
                "u must start at the arrow's correspondence",
            ),
        ],
        ids=["labels", "too large", "distance", "compose", "power", "psi endpoints", "conjugate"],
    )
    def test_refusal_names_its_reason(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestAssociator:
    def test_identity_for_any_composable_triple(self):
        rng = random.Random(7)
        for _ in range(20):
            dims = [rng.randint(1, 3) for _ in range(4)]
            mats = [
                from_rows(
                    [[rng.randint(0, 2) for _ in range(dims[k + 1])] for _ in range(dims[k])]
                )
                for k in range(3)
            ]
            x, y, z = (from_matrix(m) for m in mats)
            u = canonical_assoc(x, y, z)
            assert all(np.array_equal(m, np.eye(m.shape[0])) for m in u.blocks.values())

    def test_explicit_basis_chase_for_eight_paths(self):
        # X([2]) three times: paths are (alpha, beta, gamma) in {0,1}^3 and both
        # bracketings enumerate them in the same lexicographic order.
        c = from_matrix(from_rows([[2]]))
        left = tensor(tensor(c, c), c)
        right = tensor(c, tensor(c, c))
        expected = tuple(
            ((0, a, 0), (0, b, 0), (0, g, 0))
            for a in range(2)
            for b in range(2)
            for g in range(2)
        )
        assert left.block_basis(0, 0) == expected
        assert right.block_basis(0, 0) == expected

    def test_pentagon(self):
        # All associators are identities, so any two reassociation routes of
        # four factors compose to the same (identity) permutation.
        c = from_matrix(from_rows([[1, 1], [1, 0]]))
        w1 = tensor(tensor(tensor(c, c), c), c)
        w2 = tensor(c, tensor(c, tensor(c, c)))
        w3 = tensor(tensor(c, c), tensor(c, c))
        assert w1 == w2 == w3


def two_svd_defect(u):
    """The defect as max(||U*U - I||_2, ||UU* - I||_2), two SVDs per block."""
    worst = 0.0
    for m in u.blocks.values():
        eye = np.eye(len(m))
        worst = max(worst, np.linalg.norm(m.conj().T @ m - eye, 2), np.linalg.norm(m @ m.conj().T - eye, 2))
    return worst


class TestBlockUnitaries:
    @pytest.mark.parametrize("seed", range(6))
    def test_unitarity_defect_matches_the_two_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = from_matrix(from_rows([[16, 1], [3, 7]]))
        u = random_block_unitary(c, rng)
        (i, j), m = list(u.blocks.items())[seed % 4]
        d = len(m)
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for block in (m, m + 1e-9 * noise, m + 1e-3 * noise, 2.5 * m, 0.5 * m, noise):
            v = u.replace_block(i, j, block)
            # Both compute ||U*U - I|| with rounding of order d * eps * ||U||^2.
            scale = 8 * 16 * np.finfo(float).eps * max(1.0, np.linalg.norm(block, 2) ** 2)
            assert abs(unitarity_defect(v) - two_svd_defect(v)) <= scale

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-6])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_verdict_with_tol_is_the_exact_verdict(self, seed, tol):
        rng = np.random.default_rng(seed)
        c = from_matrix(from_rows([[16, 1], [3, 7]]))
        u = random_block_unitary(c, rng)
        (i, j), m = list(u.blocks.items())[seed % 4]
        d = len(m)
        # m V diag(sqrt(1 + lam)) V* has U*U - I = V diag(lam) V*: exact defect max |lam|,
        # Frobenius norm ||lam||_2, which lies between tol / 2 and tol for some targets.
        v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        lam = rng.uniform(-1, 1, d)
        lam /= np.abs(lam).max()
        blocks = [m, np.eye(d)[rng.permutation(d)], np.full((d, d), np.nan)]
        for target in (0.25, 0.45, 0.5, 0.55, 0.7, 0.95, 1.0, 1.05, 2.0):
            scale = np.sqrt(1 + target * max(tol, 1e-14) * lam)
            blocks.append(m @ (v * scale) @ v.conj().T)
        for block in blocks:
            w = u.replace_block(i, j, block)
            got, exact = unitarity_defect(w, tol), unitarity_defect(w)
            assert (got <= tol) == (exact <= tol)
            if not got <= tol / 2:
                assert got == exact or np.isnan(got) and np.isnan(exact)
            else:
                # The bound is an upper bound, up to rounding in U*U - I.
                assert exact <= got + 64 * d * np.finfo(float).eps
        assert unitarity_defect(identity_unitary(c), 0.0) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_block_of_nan_or_inf_has_distance_nan(self, bad):
        rng = np.random.default_rng(9)
        c = from_matrix(from_rows([[16, 1], [3, 7]]))
        u = random_block_unitary(c, rng)
        for (i, j), m in u.blocks.items():
            v = u.replace_block(i, j, np.full_like(m, bad))
            # Every block position, so a nan after a finite block is kept too.
            assert np.isnan(unitary_distance(u, v)) and np.isnan(unitary_distance(v, u))
        assert unitary_distance(u, u) == 0.0

    def test_an_exactly_zero_difference_takes_no_eigensolver(self, monkeypatch):
        rng = np.random.default_rng(13)
        c = from_matrix(from_rows([[16, 1], [3, 7]]))
        u = random_block_unitary(c, rng)
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        assert unitary_distance(u, u) == 0.0 and calls == []
        for (i, j), m in u.blocks.items():
            # One block differs: its own distance, from one eigensolve.
            v = u.replace_block(i, j, m + 1e-3 * random_block_unitary(c, rng).blocks[(i, j)])
            diff = m - v.blocks[(i, j)]
            expected = np.sqrt(max(eigvalsh(diff.conj().T @ diff)[-1], 0.0))
            calls.clear()
            assert unitary_distance(u, v) == expected > 0 and calls == [m.shape]
            # A nan is not an exactly zero difference.
            assert np.isnan(unitary_distance(u, u.replace_block(i, j, np.full_like(m, np.nan))))

    @pytest.mark.parametrize("scale", [1e-150, 1e-15, 1e-9, 1.0, 1e150])
    def test_the_distance_is_the_largest_singular_value(self, scale):
        # sqrt(max eigvalsh(D*D)) against the SVD, to a few ulps of the norm,
        # from residuals near rounding up to far outside every tolerance.
        rng = np.random.default_rng(11)
        c = from_matrix(from_rows([[16, 1], [3, 7]]))
        u = random_block_unitary(c, rng)
        v = BlockUnitary(c, c, {ij: m + scale * random_block_unitary(c, rng).blocks[ij] for ij, m in u.blocks.items()})
        svd = max(np.linalg.norm(v.blocks[ij] - m, 2) for ij, m in u.blocks.items())
        assert unitary_distance(u, v) == pytest.approx(svd, rel=64 * np.finfo(float).eps)

    def test_an_overflowing_difference_has_distance_nan_without_a_warning(self):
        # Finite entries whose D*D overflows: nan, which no tolerance accepts,
        # and no floating-point warning on stderr.
        c = from_matrix(from_rows([[3]]))
        u = identity_unitary(c)
        v = u.replace_block(0, 0, np.full((3, 3), 1e200 + 0j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(unitary_distance(u, v)) and np.isnan(unitary_distance(v, u))

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(1)
        c = from_matrix(from_rows([[2, 1], [1, 1]]))
        u = random_block_unitary(c, rng)
        assert unitary_distance(compose_unitaries(u, u.adjoint()), identity_unitary(c)) < TOL

    def test_composition_of_random_unitaries_is_unitary(self):
        rng = np.random.default_rng(2)
        c = from_matrix(from_rows([[3, 1], [2, 2]]))
        for _ in range(10):
            u1 = random_block_unitary(c, rng)
            u2 = random_block_unitary(c, rng)
            assert unitarity_defect(compose_unitaries(u1, u2)) < TOL

    def test_composition_associative(self):
        rng = np.random.default_rng(3)
        c = from_matrix(from_rows([[2, 2], [1, 1]]))
        u1, u2, u3 = (random_block_unitary(c, rng) for _ in range(3))
        lhs = compose_unitaries(compose_unitaries(u1, u2), u3)
        rhs = compose_unitaries(u1, compose_unitaries(u2, u3))
        assert unitary_distance(lhs, rhs) < 4 * TOL

    def test_tensor_of_identities_is_identity(self):
        x = from_matrix(from_rows([[1, 1], [1, 0]]))
        y = from_matrix(from_rows([[2], [1]]))
        t = tensor_unitaries(identity_unitary(x), identity_unitary(y))
        assert unitary_distance(t, identity_unitary(tensor(x, y))) == 0.0

    def test_tensor_preserves_unitarity(self):
        rng = np.random.default_rng(4)
        x = from_matrix(from_rows([[2, 1], [1, 1]]))
        y = from_matrix(from_rows([[1, 2], [1, 0]]))
        for _ in range(10):
            u = random_block_unitary(x, rng)
            v = random_block_unitary(y, rng)
            assert unitarity_defect(tensor_unitaries(u, v)) < TOL

    def test_tensor_unitaries_associative(self):
        rng = np.random.default_rng(6)
        x = from_matrix(from_rows([[1, 1], [1, 0]]))
        y = from_matrix(from_rows([[2, 0], [1, 1]]))
        z = from_matrix(from_rows([[1], [2]]))
        u = random_block_unitary(x, rng)
        v = random_block_unitary(y, rng)
        w = random_block_unitary(z, rng)
        lhs = tensor_unitaries(tensor_unitaries(u, v), w)
        rhs = tensor_unitaries(u, tensor_unitaries(v, w))
        assert lhs.source == rhs.source  # identity associator
        assert unitary_distance(lhs, rhs) < TOL

    def test_interchange_law(self):
        rng = np.random.default_rng(5)
        x = from_matrix(from_rows([[2, 1], [1, 1]]))
        y = from_matrix(from_rows([[1, 1], [2, 1]]))
        for _ in range(10):
            u1, u2 = (random_block_unitary(x, rng) for _ in range(2))
            v1, v2 = (random_block_unitary(y, rng) for _ in range(2))
            lhs = tensor_unitaries(compose_unitaries(u1, u2), compose_unitaries(v1, v2))
            rhs = compose_unitaries(tensor_unitaries(u1, v1), tensor_unitaries(u2, v2))
            assert unitary_distance(lhs, rhs) < 4 * TOL


class TestArrows:
    def test_identity_arrow_structure(self):
        obj = object_pair(from_rows([[1, 1], [1, 1]]))
        ia = identity_arrow(obj)
        assert ia.f.dims == from_rows([[1, 0], [0, 1]])
        for m in ia.phi.blocks.values():
            assert np.array_equal(m, np.eye(m.shape[0]))

    def test_power_arrow_dims(self):
        a = from_rows([[1, 1], [1, 1]])
        obj = object_pair(a)
        for m in range(4):
            f = power_correspondence(obj, m)
            assert f.dims == mat_pow(a, m)
        p1 = power_arrow(obj, 1)
        assert p1.f == obj.x
        for m in power_arrow(obj, 0).phi.blocks.values():
            assert np.array_equal(m, np.eye(m.shape[0]))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_powers_by_squaring_match_the_left_fold(self, m):
        # exact.power raises every power of the package; for each of its products it must agree with
        # the left fold x (x) x (x) ... (x) x: exactly for integer matrices and ends, as equal records
        # for tensor products, and within rounding for slides, whose bracketing moves their last bits.
        rng = random.Random(500 + m)
        for _ in range(4):
            obj = object_pair(random_essential(rng, 3, 1))
            a = obj.x.dims
            assert exact.power(a, m, mat_mul) == mat_pow(a, m) == reduce(mat_mul, [a] * m)
            power, left = power_correspondence(obj, m), reduce(tensor, [obj.x] * m)
            assert power == left == exact.power(obj.x, m, tensor)
            assert (power.left_index, power.right_index) == (left.left_index, left.right_index)
            for ends in (power.ends, exact.power(obj.x.ends, m, _follow)):
                folded = reduce(_follow, [obj.x.ends] * m)
                assert len(ends) == len(folded)
                for p, q in zip(ends, folded):
                    assert p.dtype == q.dtype and np.array_equal(p, q)
        arrow = arrow_from_witness(GOLDEN_WITNESS)
        arrow = conjugate_arrow(arrow, random_block_unitary(arrow.f, np.random.default_rng(313)))
        slide = arrow.phi
        for k in range(1, m):  # (k, slide_k) . (1, phi_F), one factor at a time
            slide = compose_unitaries(tensor_unitaries(power_correspondence(arrow.target, k), arrow.phi),
                                      tensor_unitaries(slide, arrow.source.x))
        assert unitary_distance(slide_past_powers(arrow, m), slide) < TOL

    def test_a_tensor_power_of_one_factor_is_one_run(self):
        # X([[1]])^(x)m holds m atomic factors, however small its blocks: as one run,
        # made in O(log m) tensors.
        obj = object_pair(from_rows([[1]]))
        start = time.perf_counter()
        power = power_correspondence(obj, 2**30)
        assert time.perf_counter() - start < 0.1
        [(atom, count)] = obj.x.factors
        assert power.factors == ((atom, 2**30),) and power.dims == obj.x.dims

    def test_composed_powers_two_isomorphic_to_sum(self):
        obj = object_pair(from_rows([[1, 1], [1, 0]]))
        p2, p3 = power_arrow(obj, 2), power_arrow(obj, 3)
        composed = compose_one_arrows(p2, power_arrow(obj, 1))
        # F's agree up to the canonical reindexing, so that identification is
        # the connecting 2-arrow.
        psi = canonical_identification(composed.f, p3.f)
        assert two_arrow_residual(psi, composed, p3) < TOL

    def test_unit_laws(self):
        rng = random.Random(31)
        np_rng = np.random.default_rng(31)
        for _ in range(10):
            base = random_essential(rng)
            w = random_sse_chain(base, 1, seed=rng.randrange(10**6)).steps[0]
            arrow = arrow_from_witness(w, np_rng)
            right = compose_one_arrows(arrow, identity_arrow(arrow.source))
            assert two_arrow_residual(right_unitor(arrow.f), right, arrow) < TOL
            left = compose_one_arrows(identity_arrow(arrow.target), arrow)
            assert two_arrow_residual(left_unitor(arrow.f), left, arrow) < TOL

    def test_arrow_composition_dims(self):
        rng = random.Random(13)
        base = random_essential(rng)
        chain = random_sse_chain(base, 2, seed=5).steps
        f1 = arrow_from_witness(chain[0])
        f2 = arrow_from_witness(chain[1])
        composite = compose_one_arrows(f2, f1)
        assert composite.f.dims == mat_mul(f2.f.dims, f1.f.dims)

    def test_arrow_composition_associative(self):
        rng = random.Random(67)
        np_rng = np.random.default_rng(67)
        base = random_essential(rng)
        chain = random_sse_chain(base, 3, seed=29).steps
        f1, f2, f3 = (arrow_from_witness(w, np_rng) for w in chain)
        left = compose_one_arrows(compose_one_arrows(f3, f2), f1)
        right = compose_one_arrows(f3, compose_one_arrows(f2, f1))
        assert left.f == right.f  # identity associator: same correspondence
        assert unitary_distance(left.phi, right.phi) < 4 * TOL

    def test_an_f_that_does_not_fit_is_refused_before_phi_is_made(self):
        # Y (x) F has dims B F = [[2]] and F (x) X has F A = [[1]]: no phi can join them.
        from shiftcalc.corr import arrow_with

        def refuse(*args):
            raise AssertionError("make called")

        with pytest.raises(ShapeError, match=re.escape("the arrow's F does not fit its objects: B F = F A fails")):
            arrow_with(object_pair(from_rows([[1]])), object_pair(from_rows([[2]])), ONE, make=refuse)

    def test_arrow_composition_mismatch(self, golden_witness):
        arrow = arrow_from_witness(golden_witness)
        with pytest.raises(ShapeError, match="^arrows are not composable: middle objects differ$"):
            compose_one_arrows(arrow, arrow)


class TestTwoArrows:
    def test_identity_two_arrow(self):
        obj = object_pair(from_rows([[2]]))
        p = power_arrow(obj, 2)
        assert check_two_arrow(identity_unitary(p.f), p, p)

    def test_slide_instance_of_composition_with_powers(self, golden_witness):
        # phi_F itself intertwines [Y,1] (x) [F,phi_F] with [F,phi_F] (x) [X,1].
        arrow = arrow_from_witness(golden_witness, np.random.default_rng(8))
        left = compose_one_arrows(power_arrow(arrow.target, 1), arrow)
        right = compose_one_arrows(arrow, power_arrow(arrow.source, 1))
        assert two_arrow_residual(arrow.phi, left, right) < TOL

    def test_conjugated_arrow_yields_two_arrow_and_inverse(self):
        rng = random.Random(47)
        np_rng = np.random.default_rng(47)
        for _ in range(10):
            base = random_essential(rng)
            w = random_sse_chain(base, 1, seed=rng.randrange(10**6)).steps[0]
            arrow = arrow_from_witness(w, np_rng)
            u = random_block_unitary(arrow.f, np_rng)
            other = conjugate_arrow(arrow, u)
            assert check_two_arrow(u, arrow, other)
            assert check_two_arrow(u.adjoint(), other, arrow)

    def test_one_sided_phase_breaks_intertwining(self):
        # A phase on a single basis vector of psi moves the two sides of the
        # square differently as soon as the intertwiner genuinely mixes paths.
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(23)
        f = power_arrow(obj, 1)
        u = random_block_unitary(f.f, rng)
        g = conjugate_arrow(f, u)
        twisted = u.replace_block(0, 0, np.diag([np.exp(1j * np.pi / 3), 1.0]) @ u.block(0, 0))
        assert check_two_arrow(u, f, g)
        assert not check_two_arrow(twisted, f, g)

    def test_a_nan_block_breaks_intertwining(self):
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(23)
        f = power_arrow(obj, 1)
        u = random_block_unitary(f.f, rng)
        g = conjugate_arrow(f, u)
        broken = u.replace_block(0, 0, np.full_like(u.block(0, 0), np.nan))
        assert np.isnan(two_arrow_residual(broken, f, g))
        assert not check_two_arrow(broken, f, g, 1e300)

    def test_non_parallel_arrows_rejected(self, golden_witness):
        arrow = arrow_from_witness(golden_witness)
        unit = identity_arrow(arrow.source)
        with pytest.raises(ShapeError, match="^two-arrow check needs parallel arrows$"):
            two_arrow_residual(identity_unitary(arrow.f), arrow, unit)

    def test_vertical_composition_of_two_arrows(self):
        rng = random.Random(53)
        np_rng = np.random.default_rng(53)
        base = random_essential(rng)
        w = random_sse_chain(base, 1, seed=99).steps[0]
        f = arrow_from_witness(w, np_rng)
        u1 = random_block_unitary(f.f, np_rng)
        g = conjugate_arrow(f, u1)
        u2 = random_block_unitary(g.f, np_rng)
        h = conjugate_arrow(g, u2)
        assert check_two_arrow(compose_unitaries(u1, u2), f, h, 4 * TOL)

    def test_horizontal_composition_of_two_arrows(self):
        rng = random.Random(59)
        np_rng = np.random.default_rng(59)
        base = random_essential(rng)
        chain = random_sse_chain(base, 2, seed=17).steps
        f1 = arrow_from_witness(chain[0], np_rng)
        f2 = arrow_from_witness(chain[1], np_rng)
        u1 = random_block_unitary(f1.f, np_rng)
        u2 = random_block_unitary(f2.f, np_rng)
        g1 = conjugate_arrow(f1, u1)
        g2 = conjugate_arrow(f2, u2)
        horizontal = tensor_unitaries(u2, u1)
        assert check_two_arrow(
            horizontal, compose_one_arrows(f2, f1), compose_one_arrows(g2, g1), 4 * TOL
        )

import json
import os
import random
import re
import subprocess
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcalc import (
    ArrowHomotopy,
    BlockUnitary,
    DomainError,
    GraphCorrespondence,
    OneArrow,
    SEWitness,
    ShapeError,
    UnitaryPath,
    canonical_identification,
    compose_unitaries,
    conjugate_arrow,
    connect_unitaries,
    from_matrix,
    from_rows,
    homotopy_failure,
    homotopy_shift_equivalence_from_se,
    homotopy_to_identity,
    identity_unitary,
    identity_witness,
    mat_mul,
    mat_pow,
    object_pair,
    power_arrow,
    random_block_unitary,
    tensor,
    transpose,
    unitarity_defect,
    unitary_distance,
    verify_homotopy,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# Homotopy of arrows is an equivalence relation: reflexivity, symmetry and
# transitivity, built from the package's paths and checked by its verifier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ListedPath(Sequence):
    """A path given by its samples (t, unitary), as gluing or editing geodesics leaves it,
    with the members ``ArrowHomotopy`` reads of a ``UnitaryPath``.  ``generator`` is None
    when no single generator describes the samples."""

    samples: tuple
    generator: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, k: int) -> tuple:
        return self.samples[k]

    @property
    def times(self) -> list:
        return [t for t, _ in self.samples]

    def ends(self) -> list:
        """(source, target) of the samples' unitaries, once for each pair of objects they share."""
        return list({(id(u.source), id(u.target)): (u.source, u.target) for _, u in self.samples}.values())


def reverse_path(p) -> ListedPath:
    """Time reversal t -> 1 - t; the generator flips sign relative to the new
    starting point."""
    samples = tuple((1.0 - t, u) for t, u in reversed(p))
    generator = {ij: -h for ij, h in p.generator.items()}
    return ListedPath(samples, generator)


def concatenate_paths(p1, p2) -> ListedPath:
    """Run p1 on [0, 1/2] and p2 on [1/2, 1]; sample-only (no generator)."""
    first = tuple((t / 2, u) for t, u in p1)
    second = tuple((0.5 + t / 2, u) for t, u in p2 if t > 0.0)
    return ListedPath(first + second)


def constant_homotopy(arrow: OneArrow) -> ArrowHomotopy:
    """The reflexivity homotopy: the fiber is the arrow itself at every time."""
    samples = ((0.0, arrow.phi), (1.0, arrow.phi))
    zero_gen = {ij: np.zeros_like(m) for ij, m in arrow.phi.blocks.items()}
    path = ListedPath(samples, zero_gen)
    ident = identity_unitary(arrow.f)
    return ArrowHomotopy(arrow, arrow, arrow.f, path, ident, ident)


def reverse_homotopy(h: ArrowHomotopy) -> ArrowHomotopy:
    """Symmetry: reverse time and swap the endpoint data."""
    return ArrowHomotopy(
        h.g_arrow, h.f_arrow, h.fiber, reverse_path(h.path), h.h1, h.h0
    )


def concatenate_homotopies(h1: ArrowHomotopy, h2: ArrowHomotopy) -> ArrowHomotopy:
    """Transitivity: glue homotopies f ~ g and g ~ k along their g ends.

    The second path is transported onto the first fiber through the
    connecting unitary c = h2.h0* after h1.h1, which matches the seam fibers
    exactly, so only sampled data survives (no closed-form generator).
    """
    if h1.g_arrow is not h2.f_arrow and h1.g_arrow != h2.f_arrow:
        raise ShapeError("homotopies must share their middle arrow")
    connect = compose_unitaries(h1.h1, h2.h0.adjoint())  # fiber1 -> fiber2
    back = connect.adjoint()
    transported = tuple(
        (t, conjugate_arrow(h2.fiber_arrow(k), back).phi) for k, t in enumerate(h2.path.times)
    )
    p2 = ListedPath(transported)
    path = concatenate_paths(h1.path, p2)
    h1_end = compose_unitaries(connect, h2.h1)
    return ArrowHomotopy(h1.f_arrow, h2.g_arrow, h1.fiber, path, h1.h0, h1_end)


class TestConnectUnitaries:
    def test_constant_path_when_endpoints_equal(self):
        c = from_matrix(from_rows([[2, 1], [1, 1]]))
        u = identity_unitary(c)
        p = connect_unitaries(u, u, 4)
        for ij, h in p.generator.items():
            assert np.allclose(h, 0.0)
        for _, sample in p:
            assert unitary_distance(sample, u) < 1e-12

    def test_scalar_quarter_turn(self):
        # Oracle: the 1-dimensional logarithm; U(t) = exp(i pi t / 2).
        c = from_matrix(from_rows([[1]]))
        u0 = identity_unitary(c)
        u1 = BlockUnitary(c, c, {(0, 0): np.array([[1j]])})
        p = connect_unitaries(u0, u1, 9)
        for t, sample in p:
            assert abs(sample.block(0, 0)[0, 0] - np.exp(1j * np.pi * t / 2)) < 1e-12

    def test_each_sample_is_made_when_asked_for(self):
        # A geodesic holds no sample: each lookup makes the sample anew, in arrays of its own.
        c = from_matrix(from_rows([[3, 1], [2, 5]]))
        rng = np.random.default_rng(3)
        p = connect_unitaries(random_block_unitary(c, rng), random_block_unitary(c, rng), 5)
        assert len(p) == 5 and p[-1][0] == 1.0
        (t, first), (again_t, again) = p[2], p[2]
        assert t == again_t == 0.5 and first is not again
        for ij in c.blocks():
            assert first.blocks[ij].base is None and again.blocks[ij].base is None
            assert first.blocks[ij].tobytes() == again.blocks[ij].tobytes()

    @pytest.mark.parametrize("dims", [[[1]], [[3, 1], [2, 5]], [[16]], [[4, 2], [2, 9]]], ids=str)
    def test_every_sample_is_the_start_times_the_exponential(self, dims):
        # Oracle: U0 expm(tH), with scipy's Pade expm of the path's own generator
        # and no Schur form.  Ten seeded Haar pairs per dims; the first block of
        # U0* U1 has an eigenvalue at -1.
        import scipy.linalg

        c = from_matrix(from_rows(dims))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            u0, w = random_block_unitary(c, rng), random_block_unitary(c, rng)
            first, q = next(iter(w.blocks.items()))
            spectrum = np.exp(1j * rng.uniform(-np.pi, np.pi, len(q)))
            spectrum[0] = -1.0
            rotations = {**w.blocks, first: (q * spectrum) @ q.conj().T}
            u1 = BlockUnitary(c, c, {ij: u0.blocks[ij] @ m for ij, m in rotations.items()})
            p = connect_unitaries(u0, u1, 9)
            assert [t for t, _ in p] == [k / 8 for k in range(9)]
            for t, sample in p:
                for ij, h in p.generator.items():
                    expected = u0.blocks[ij] @ scipy.linalg.expm(t * h)
                    assert np.linalg.norm(sample.blocks[ij] - expected, 2) < 1e-12

    def test_branch_at_minus_one(self):
        # An eigenvalue at exactly -1 takes the +pi branch: midpoint is +i.
        c = from_matrix(from_rows([[1]]))
        u0 = identity_unitary(c)
        u1 = BlockUnitary(c, c, {(0, 0): np.array([[-1.0 + 0.0j]])})
        p = connect_unitaries(u0, u1, 3)
        assert abs(p[1][1].block(0, 0)[0, 0] - 1j) < 1e-12

    @pytest.mark.parametrize(
        "block",
        [np.roll(np.eye(n), 1, axis=0) for n in (2, 4, 6, 8)] + [np.diag([-1.0, -1.0, 1.0])],
        ids=["2-cycle", "4-cycle", "6-cycle", "8-cycle", "repeated -1"],
    )
    def test_generator_angles_in_branch(self, block):
        # Every eigenvalue -1 (the Schur form of the 6- and 8-cycles puts its
        # argument at or just above -pi) gets angle +pi, none -pi.
        c = from_matrix(from_rows([[len(block)]]))
        u1 = BlockUnitary(c, c, {(0, 0): block})
        p = connect_unitaries(identity_unitary(c), u1, 3)
        angles = np.linalg.eigvalsh(-1j * p.generator[(0, 0)])
        assert angles.min() > -np.pi + 1e-6
        assert angles.max() <= np.pi + 1e-9
        assert np.isclose(angles.max(), np.pi)
        assert unitary_distance(p[-1][1], u1) <= 1e-12

    def test_random_endpoints_reproduced(self):
        rng = np.random.default_rng(12)
        c = from_matrix(from_rows([[4]]))
        for _ in range(10):
            a = random_block_unitary(c, rng)
            b = random_block_unitary(c, rng)
            p = connect_unitaries(a, b, 6)
            assert unitary_distance(p[0][1], a) <= 1e-10
            assert unitary_distance(p[-1][1], b) <= 1e-10
            for _, sample in p:
                assert unitarity_defect(sample) <= 1e-10

    def test_large_block_budget(self):
        # The documented double-precision budget: endpoints within 1e-10 for
        # blocks up to size 64.
        rng = np.random.default_rng(13)
        c = from_matrix(from_rows([[64]]))
        a = random_block_unitary(c, rng)
        b = random_block_unitary(c, rng)
        p = connect_unitaries(a, b, 3)
        assert unitary_distance(p[-1][1], b) <= 1e-10

    def test_generator_is_skew_hermitian(self):
        rng = np.random.default_rng(14)
        c = from_matrix(from_rows([[3, 1], [2, 2]]))
        p = connect_unitaries(random_block_unitary(c, rng), random_block_unitary(c, rng), 4)
        for h in p.generator.values():
            assert np.allclose(h + h.conj().T, 0.0, atol=1e-12)

    def test_a_path_is_sized_by_what_its_blocks_hold(self):
        # The refusal predicts from dims alone the bytes the blocks of u hold.
        from shiftcalc import homotopy

        u = random_block_unitary(from_matrix(from_rows([[2, 0], [1, 3]])), np.random.default_rng(15))
        steps = 2**40
        each = sum(homotopy._BLOCK_OVERHEAD_BYTES + m.nbytes for m in u.blocks.values())
        held = steps * (homotopy._SAMPLE_OVERHEAD_BYTES + each)
        with pytest.raises(DomainError, match=f"^{steps} samples would take {held} bytes, above the "):
            connect_unitaries(u, u, steps)

    def test_needs_two_steps(self):
        c = from_matrix(from_rows([[1]]))
        u = identity_unitary(c)
        with pytest.raises(DomainError, match="^need at least two samples$"):
            connect_unitaries(u, u, 1)

    def test_endpoints_must_share_their_correspondences(self):
        one, two = (identity_unitary(from_matrix(from_rows([[k]]))) for k in (1, 2))
        with pytest.raises(ShapeError, match="^endpoints must share source and target correspondences$"):
            connect_unitaries(one, two, 2)


def schur_log(w: np.ndarray) -> np.ndarray:
    """The documented branch of log(w) through a dense Schur form, as the closed form's
    oracle: arguments in (-pi, pi], and one within 4 ulp of -pi taken as +pi."""
    import scipy.linalg

    t_mat, z = scipy.linalg.schur(w, output="complex")
    theta = np.angle(np.diag(t_mat))
    theta[theta <= -np.pi + 4 * np.spacing(np.pi)] = np.pi
    return (z * (1j * theta)) @ z.conj().T


@st.composite
def permutations(draw) -> tuple[np.ndarray, list[int]]:
    """A permutation matrix of size 1-40 with at least one even cycle, and its cycle lengths."""
    lengths = [draw(st.sampled_from([2, 4, 6, 8, 10]))]
    for size in draw(st.lists(st.integers(1, 12), max_size=6)):
        if sum(lengths) + size <= 40:
            lengths.append(size)
    labels = draw(st.permutations(range(sum(lengths))))
    image, first = {}, 0
    for size in lengths:
        cycle = labels[first:first + size]
        image.update(zip(cycle, cycle[1:] + cycle[:1]))
        first += size
    w = np.zeros((len(labels), len(labels)), dtype=complex)
    w[[image[j] for j in range(len(labels))], range(len(labels))] = 1.0
    return w, lengths


def on_one_block(*blocks: np.ndarray) -> list[BlockUnitary]:
    """Each d x d block as the block unitary on the correspondence of [[d]]."""
    c = from_matrix(from_rows([[len(blocks[0])]]))
    return [BlockUnitary(c, c, {(0, 0): m}) for m in blocks]


class TestPermutationLogs:
    """The closed-form log of a permutation, against a dense Schur form."""

    @given(permutations())
    @settings(max_examples=80, deadline=None)
    def test_the_closed_form_agrees_with_schur(self, drawn):
        w, _ = drawn
        u0, u1 = on_one_block(np.eye(len(w)), w)
        p = connect_unitaries(u0, u1, 2)
        # Both are the one log of the normal w on the branch, each within a few d eps.
        assert np.linalg.norm(p.generator[(0, 0)] - schur_log(w), 2) <= 16 * len(w) * np.finfo(float).eps
        assert unitary_distance(p[-1][1], u1) <= 1e-12

    @given(permutations())
    @settings(max_examples=80, deadline=None)
    def test_angles_lie_in_the_branch_and_minus_one_gets_exactly_pi(self, drawn):
        from shiftcalc.homotopy import _permutation_eig

        w, lengths = drawn
        z, theta = _permutation_eig(w)
        assert np.abs(z.conj().T @ z - np.eye(len(w))).max() <= 8 * len(w) * np.finfo(float).eps
        assert theta.min() > -np.pi and theta.max() <= np.pi
        # A cycle of length L has the eigenvalue -1 exactly when L is even.
        assert np.count_nonzero(theta == np.pi) == sum(size % 2 == 0 for size in lengths) >= 1

    @given(st.permutations(range(12)), st.lists(st.sampled_from([1.0, -1.0]), min_size=12, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_the_identity_has_a_zero_generator_and_samples_equal_to_the_start(self, order, signs):
        # U0 is a signed permutation, so U0* U1 = U0* U0 is exactly the identity.
        u0 = np.zeros((12, 12), dtype=complex)
        u0[order, range(12)] = signs
        [start] = on_one_block(u0)
        p = connect_unitaries(start, start, 5)
        assert not p.generator[(0, 0)].any()
        for _, sample in p:
            assert sample.block(0, 0).tobytes() == u0.tobytes()

    @pytest.mark.parametrize(
        "w",
        [np.diag([1.0 - 2.0**-52, 1, 1, 1]), np.diag([1.0 + 1e-300j, 1, 1, 1]), np.eye(4)[[0, 0, 2, 3]], np.eye(4)[:, [0, 0, 2, 3]]],
        ids=["entry 1 - 2^-52", "imaginary part 1e-300", "a column with two 1s", "a row with two 1s"],
    )
    def test_a_near_permutation_takes_the_schur_form(self, w, monkeypatch):
        import scipy.linalg

        from shiftcalc.homotopy import _permutation_eig

        calls = []
        schur = scipy.linalg.schur
        monkeypatch.setattr(scipy.linalg, "schur", lambda *args, **kwargs: calls.append(args) or schur(*args, **kwargs))
        assert _permutation_eig(w) is None
        connect_unitaries(*on_one_block(np.eye(4), w), 2)
        assert len(calls) == 1
        connect_unitaries(*on_one_block(np.eye(4), np.eye(4)[[1, 2, 3, 0]]), 2)
        assert len(calls) == 1


def folded_chain(k: int) -> SEWitness:
    """The lag-k witness folded from the seeded chain of [[2, 1], [1, 2]]: its homotopies
    have nonzero generators, and eigenvalues -1."""
    from shiftcalc import fold_chain, random_sse_chain

    return fold_chain(random_sse_chain(from_rows([[2, 1], [1, 2]]), k, seed=0))


class TestPermutationSamples:
    """A geodesic's samples on blocks whose W = U0* U1 is a permutation, against the
    dense oracle U0 expm(tH) with H the Schur-form log of W."""

    @given(permutations(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_every_sample_of_a_permutation_or_a_signed_one_is_the_exponential(self, drawn, rnd):
        # A signed permutation U0 is no 0/1 permutation, but keeps W = U0* U1 exact.
        import scipy.linalg

        w, _ = drawn
        d = len(w)
        h_log = schur_log(w)
        order = rnd.sample(range(d), d)
        signs = [rnd.choice([1.0, -1.0]) for _ in range(d)]
        for start in (np.eye(d)[order], np.eye(d)[order] * signs):
            p = connect_unitaries(*on_one_block(start, start @ w), 5)
            for t, sample in p:
                expected = start @ scipy.linalg.expm(t * h_log)
                assert np.linalg.norm(sample.block(0, 0) - expected, 2) <= 16 * d * np.finfo(float).eps

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_sample_is_the_start_times_the_exponential_of_the_schur_log(self, k):
        import scipy.linalg

        from shiftcalc.homotopy import _permutation_eig

        eps = np.finfo(float).eps
        _, hx, hy = homotopy_shift_equivalence_from_se(folded_chain(k), steps=5)
        rotated = at_pi = 0
        for h in (hx, hy):
            u0, u1 = h.f_arrow.phi, conjugate_arrow(h.g_arrow, h.h1.adjoint()).phi
            samples = list(h.path)
            for ij, m0 in u0.blocks.items():
                w = m0.conj().T @ u1.blocks[ij]
                _, angles = _permutation_eig(w)
                if not angles.any():
                    # An identity block: every sample is U0, bit for bit.
                    assert all(u.blocks[ij].tobytes() == m0.tobytes() for _, u in samples)
                    continue
                rotated += 1
                # The angle at -1 is exactly +pi, never -pi or a rounding of pi.
                assert angles.min() > -np.pi and angles.max() <= np.pi
                at_pi += angles.max() == np.pi
                h_log = schur_log(w)
                for t, u in samples:
                    expected = m0 @ scipy.linalg.expm(t * h_log)
                    assert np.linalg.norm(u.blocks[ij] - expected, 2) <= 16 * len(w) * eps
        assert rotated >= 10 and at_pi >= 5


def held_bytes(obj, seen=None) -> int:
    """Bytes of the numpy arrays ``obj`` holds through its fields, dicts, lists and tuples,
    each array once; correspondences hold none and are not walked."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, GraphCorrespondence):
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(held_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(v, seen) for v in obj)
    return sum(held_bytes(v, seen) for v in vars(obj).values()) if hasattr(obj, "__dict__") else 0


def identity_pair() -> list:
    # U0 is a signed permutation, so W = U0* U0 is exactly the identity.
    u0 = np.zeros((12, 12), dtype=complex)
    u0[np.random.default_rng(4).permutation(12), range(12)] = [1.0, -1.0] * 6
    [start] = on_one_block(u0)
    return [(connect_unitaries(start, start, 5), start, start)]


def folded_chain_pairs() -> list:
    _, hx, hy = homotopy_shift_equivalence_from_se(folded_chain(2), steps=5)
    return [(h.path, h.f_arrow.phi, conjugate_arrow(h.g_arrow, h.h1.adjoint()).phi) for h in (hx, hy)]


def haar_pair() -> list:
    c = from_matrix(from_rows([[3, 1], [2, 5]]))
    rng = np.random.default_rng(3)
    u0, u1 = random_block_unitary(c, rng), random_block_unitary(c, rng)
    return [(connect_unitaries(u0, u1, 5), u0, u1)]


class TestDerivedGenerator:
    """A geodesic holds U0 Z, Z* and theta per block, or U0 alone where W = U0* U1 is the
    identity, and makes its generator on each read."""

    @pytest.mark.parametrize(
        "pairs, budget",
        [
            (identity_pair, lambda d: 0.0),
            (folded_chain_pairs, lambda d: 16 * d * np.finfo(float).eps),
            (haar_pair, lambda d: 1e-12),
        ],
        ids=["identity block", "permutation blocks of a folded chain", "Haar pair"],
    )
    def test_a_path_holds_no_generator_and_its_generator_exponentiates_to_w(self, pairs, budget):
        import scipy.linalg

        rotated = 0
        for path, u0, u1 in pairs():
            ws = {ij: m0.conj().T @ u1.blocks[ij] for ij, m0 in u0.blocks.items()}
            identities = [(w == np.eye(len(w))).all() for w in ws.values()]
            rotated += identities.count(False)
            # One d x d complex array where W is the identity, else two and theta.
            allowed = sum(16 * len(w) ** 2 if same else 32 * len(w) ** 2 + 8 * len(w) for w, same in zip(ws.values(), identities))
            assert held_bytes(path) <= allowed
            generator = path.generator
            assert path.generator is not generator
            for ij, w in ws.items():
                assert np.linalg.norm(scipy.linalg.expm(generator[ij]) - w, 2) <= budget(len(w))
        assert rotated >= (0 if pairs is identity_pair else 4)


def relabeled(w: SEWitness, seed: int) -> SEWitness:
    """(P A P^T, Q B Q^T, P R Q^T, Q S P^T) for permutation matrices P and Q drawn from ``seed``."""
    rnd = random.Random(seed)

    def permutation(n: int):
        order = rnd.sample(range(n), n)
        return from_rows([[int(j == order[i]) for j in range(n)] for i in range(n)])

    def conjugated(left, m, right):
        return mat_mul(mat_mul(left, m), transpose(right))

    p, q = permutation(w.a.rows), permutation(w.b.rows)
    return SEWitness(conjugated(p, w.a, p), conjugated(q, w.b, q), conjugated(p, w.r, q), conjugated(q, w.s, p), w.lag)


class TestRelabeling:
    """Relabeling the vertices of a witness relabels its homotopies: the verdicts stay."""

    def test_a_relabeled_folded_chain_keeps_its_verdicts_and_its_defects_within_tol(self):
        w = folded_chain(2)
        moved = relabeled(w, 3)
        assert (moved.a, moved.b) != (w.a, w.b)
        verdicts = []
        for witness in (w, moved):
            _, hx, hy = homotopy_shift_equivalence_from_se(witness, steps=4)
            verdicts.append((verify_homotopy(hx), verify_homotopy(hy)))
            for h in (hx, hy):
                # Some block of W is a permutation other than the identity.
                assert any(g.any() for g in h.path.generator.values())
                assert max(unitarity_defect(u) for _, u in h.path) <= TOL
        assert verdicts[1] == verdicts[0] == (True, True)


class TestHomotopyToIdentity:
    def test_identity_phi_gives_constant_homotopy(self):
        obj = object_pair(from_rows([[1, 1], [1, 1]]))
        phi = power_arrow(obj, 2).phi
        h = homotopy_to_identity(phi, obj, 2, steps=5)
        assert verify_homotopy(h)
        for _, sample in h.path:
            assert unitary_distance(sample, phi) < 1e-12

    def test_random_phi_on_full_shift(self):
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(15)
        square = tensor(obj.x, obj.x)
        phi = random_block_unitary(square, rng)
        h = homotopy_to_identity(phi, obj, 1, steps=8)
        assert verify_homotopy(h)
        assert h.f_arrow.phi.blocks[(0, 0)].shape == (4, 4)

    def test_block_shapes_match_power_dims(self):
        a = from_rows([[1, 1], [1, 0]])
        obj = object_pair(a)
        # At m = 0, phi starts at X (x) I, whose runs are not those of X^(x)1.
        for m in (0, 2):
            phi = power_arrow(obj, m).phi
            h = homotopy_to_identity(phi, obj, m, steps=3)
            cube = mat_pow(a, m + 1)
            for (i, j), block in h.path[0][1].blocks.items():
                assert block.shape == (cube[i, j], cube[i, j])

    def test_a_phi_off_the_power_is_refused_before_the_power_is_built(self):
        # phi starts at X (x) X, of dims [[4]], not at X (x) X^(x)40: X^(x)40, one block of 2^40
        # paths, is never built, which in a child capped at 3 GiB would raise MemoryError.
        import shiftcalc

        code = (
            "import json, resource, time\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({3 << 30}, {3 << 30}))\n"
            "from shiftcalc import ShapeError, from_rows, homotopy_to_identity, object_pair, power_arrow\n"
            "obj = object_pair(from_rows([[2]]))\n"
            "phi = power_arrow(obj, 1).phi\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    homotopy_to_identity(phi, obj, 40)\n"
            "except ShapeError as e:\n"
            "    print(json.dumps([str(e), time.perf_counter() - start]))\n"
        )
        src = os.path.dirname(os.path.dirname(shiftcalc.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        message, seconds = json.loads(done.stdout)
        assert message == "endpoints must share source and target correspondences" and seconds < 1.0


class TestVerifyHomotopy:
    def test_corrupted_interior_sample_is_named(self):
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(16)
        square = tensor(obj.x, obj.x)
        phi = random_block_unitary(square, rng)
        h = homotopy_to_identity(phi, obj, 1, steps=6)
        t, bad_sample = h.path[3]
        block = bad_sample.block(0, 0)
        # A nan defect fails as a large one does, whatever the tolerance.
        for corrupted, tol in ((block * 1.5, TOL), (np.full_like(block, np.nan), 1e300)):
            samples = list(h.path)
            samples[3] = (t, bad_sample.replace_block(0, 0, corrupted))
            bad_path = ListedPath(tuple(samples))
            bad = ArrowHomotopy(h.f_arrow, h.g_arrow, h.fiber, bad_path, h.h0, h.h1)
            assert not verify_homotopy(bad, tol)
            assert "sample 3" in homotopy_failure(bad, tol)

    def test_nan_endpoint_square_is_named(self):
        # Every sample and both 2-arrows stay unitary; only the arrow at t = 0
        # carries a nan, so the square of h0 is the first thing to fail.
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(16)
        square = tensor(obj.x, obj.x)
        phi = random_block_unitary(square, rng)
        h = homotopy_to_identity(phi, obj, 1, steps=6)
        f = h.f_arrow
        nan_phi = f.phi.replace_block(0, 0, np.full_like(f.phi.block(0, 0), np.nan))
        bad = ArrowHomotopy(OneArrow(f.source, f.target, f.f, nan_phi), h.g_arrow, h.fiber, h.path, h.h0, h.h1)
        assert homotopy_failure(bad, 1e300) == "h0 fails the 2-arrow square at t=0: residual nan"
        assert not verify_homotopy(bad, 1e300)

    def test_non_unitary_h1_is_named(self):
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(16)
        square = tensor(obj.x, obj.x)
        h = homotopy_to_identity(random_block_unitary(square, rng), obj, 1, steps=6)
        doubled = h.h1.replace_block(0, 0, 2.0 * h.h1.block(0, 0))
        bad = ArrowHomotopy(h.f_arrow, h.g_arrow, h.fiber, h.path, h.h0, doubled)
        assert homotopy_failure(bad, TOL) == "endpoint 2-arrow h1 is not unitary: defect 3.000e+00"
        assert not verify_homotopy(bad, TOL)

    def test_t1_square_alone_fails(self):
        # The samples, h0, h1 and the square at t = 0 all check out; only the
        # arrow at t = 1 is replaced, by one whose phi carries a nan.
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(16)
        square = tensor(obj.x, obj.x)
        h = homotopy_to_identity(random_block_unitary(square, rng), obj, 1, steps=6)
        g = h.g_arrow
        nan_phi = g.phi.replace_block(0, 0, np.full_like(g.phi.block(0, 0), np.nan))
        bad = ArrowHomotopy(h.f_arrow, OneArrow(g.source, g.target, g.f, nan_phi), h.fiber, h.path, h.h0, h.h1)
        assert homotopy_failure(bad, 1e300) == "h1 fails the 2-arrow square at t=1: residual nan"
        assert not verify_homotopy(bad, 1e300)
        # A finite defect is named the same way, at the working tolerance.
        twisted = OneArrow(g.source, g.target, g.f, g.phi.replace_block(0, 0, 1j * g.phi.block(0, 0)))
        bad = ArrowHomotopy(h.f_arrow, twisted, h.fiber, h.path, h.h0, h.h1)
        assert homotopy_failure(bad, TOL).startswith("h1 fails the 2-arrow square at t=1: residual ")

    def test_constant_homotopy_of_valid_arrow(self):
        obj = object_pair(from_rows([[1, 2], [1, 1]]))
        h = constant_homotopy(power_arrow(obj, 1))
        assert verify_homotopy(h)

    def test_reverse_preserves_verification(self):
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(17)
        square = tensor(obj.x, obj.x)
        phi = random_block_unitary(square, rng)
        h = homotopy_to_identity(phi, obj, 1, steps=6)
        assert verify_homotopy(reverse_homotopy(h))

    def test_concatenation_preserves_verification(self):
        obj = object_pair(from_rows([[2]]))
        rng = np.random.default_rng(18)
        square = tensor(obj.x, obj.x)
        phi = random_block_unitary(square, rng)
        h = homotopy_to_identity(phi, obj, 1, steps=5)
        joined = concatenate_homotopies(reverse_homotopy(h), h)
        assert verify_homotopy(joined)
        assert joined.f_arrow is h.g_arrow and joined.g_arrow is h.g_arrow


class TestConstruction:
    """Each refusal of ``ArrowHomotopy``, the one place a path is checked."""

    @staticmethod
    def geodesic() -> ArrowHomotopy:
        obj = object_pair(from_rows([[2]]))
        return homotopy_to_identity(power_arrow(obj, 1).phi, obj, 1, steps=4)

    @staticmethod
    def with_samples(h: ArrowHomotopy, samples) -> ArrowHomotopy:
        return ArrowHomotopy(h.f_arrow, h.g_arrow, h.fiber, ListedPath(tuple(samples)), h.h0, h.h1)

    def test_a_path_is_data(self):
        # A path alone does not check its times; the homotopy carrying it refuses them.
        h = self.geodesic()
        empty = replace(h.path, times=[])
        with pytest.raises(ShapeError, match=re.escape("a path needs two or more samples at times increasing strictly from 0 to 1")):
            ArrowHomotopy(h.f_arrow, h.g_arrow, h.fiber, empty, h.h0, h.h1)

    @pytest.mark.parametrize(
        "rotation",
        [
            (np.eye(3), None, None),
            (np.eye(4), np.eye(3), np.zeros(4)),
            (np.eye(4), np.eye(4), np.zeros(3)),
            (np.eye(4), np.eye(4), None),
            (np.eye(4), None, np.zeros(4)),
        ],
        ids=["start too small", "back too small", "too few angles", "a back without angles", "angles without a back"],
    )
    def test_each_rotation_must_fit_its_block(self, rotation):
        # The fiber's one block is 4x4, so none of these could make a sample.
        h = self.geodesic()
        with pytest.raises(ShapeError, match=re.escape("the rotation of block (0, 0) does not fit a 4x4 block")):
            UnitaryPath(h.path.source, h.path.target, h.path.times, {(0, 0): rotation})

    @pytest.mark.parametrize("blocks", [[], [(0, 0), (0, 1)]], ids=["none", "one too many"])
    def test_there_is_one_rotation_per_nonempty_block(self, blocks):
        h = self.geodesic()
        rotations = {ij: (np.eye(4), None, None) for ij in blocks}
        with pytest.raises(ShapeError, match="^a path needs one rotation per nonempty block of its source$"):
            UnitaryPath(h.path.source, h.path.target, h.path.times, rotations)

    def test_rotations_that_fit_make_their_samples(self):
        h = self.geodesic()
        theta = np.array([0.0, 0.0, np.pi, np.pi])
        for rotation in [(np.eye(4), None, None), (np.eye(4), np.eye(4), theta)]:
            path = UnitaryPath(h.path.source, h.path.target, h.path.times, {(0, 0): rotation})
            assert [u.blocks[(0, 0)].shape for _, u in path] == [(4, 4)] * len(h.path)

    def test_ends_must_be_parallel(self):
        h = self.geodesic()
        other = power_arrow(object_pair(from_rows([[3]])), 1)
        with pytest.raises(ShapeError, match="^homotopy endpoints must be parallel arrows$"):
            ArrowHomotopy(h.f_arrow, other, h.fiber, h.path, h.h0, h.h1)

    @pytest.mark.parametrize("retimed", ["unitary-path", "sample-only"])
    @pytest.mark.parametrize(
        "times",
        [(0.0,), (0.0, 0.5, 0.25, 1.0), (0.0, 1 / 3, 2 / 3, 0.9), (0.1, 1 / 3, 2 / 3, 1.0), (0.0, 0.5, 0.5, 1.0)],
        ids=["one sample", "out of order", "not ending at 1", "not starting at 0", "a repeated time"],
    )
    def test_sample_times_must_increase_strictly_from_0_to_1(self, times, retimed):
        # The geodesic with its times replaced, or its samples listed at those times.
        h = self.geodesic()
        message = re.escape("a path needs two or more samples at times increasing strictly from 0 to 1")
        with pytest.raises(ShapeError, match=message):
            if retimed == "unitary-path":
                ArrowHomotopy(h.f_arrow, h.g_arrow, h.fiber, replace(h.path, times=list(times)), h.h0, h.h1)
            else:
                self.with_samples(h, [(t, u) for t, (_, u) in zip(times, h.path)])

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_a_stray_sample_is_refused(self, index):
        # Sample ``index`` is a Haar unitary on a correspondence of dims [[3]], not
        # on the fiber's X (x) X of dims [[4]]; it is unitary, so only the shape
        # check can see it.
        h = self.geodesic()
        samples = list(h.path)
        stray = random_block_unitary(from_matrix(from_rows([[3]])), np.random.default_rng(21))
        samples[index] = (samples[index][0], stray)
        with pytest.raises(ShapeError, match=re.escape("path unitaries must start at Y (x) fiber")):
            self.with_samples(h, samples)

    def test_a_sample_ending_elsewhere_is_refused(self):
        # Same dims [[4]] as fiber (x) X, but one factor where it has two.
        h = self.geodesic()
        samples = list(h.path)
        t, u = samples[2]
        samples[2] = (t, canonical_identification(u.source, from_matrix(from_rows([[4]]))))
        with pytest.raises(ShapeError, match=re.escape("path unitaries must end at fiber (x) X")):
            self.with_samples(h, samples)

    def test_samples_of_a_geodesic_share_their_endpoints(self):
        # So construction compares one source and one target, whatever the steps.
        h = self.geodesic()
        assert len({(id(u.source), id(u.target)) for _, u in h.path}) == 1

    def test_a_path_gives_its_times_and_its_ends_once_per_pair_of_objects(self):
        # A geodesic reads them without making a sample; the same samples listed agree.
        h = self.geodesic()
        listed = ListedPath(tuple(h.path))
        [(source, target)] = h.path.ends()
        assert h.path.times == listed.times == [0.0, 1 / 3, 2 / 3, 1.0]
        assert [(a is source, b is target) for a, b in listed.ends()] == [(True, True)]

    def test_endpoint_two_arrows_must_fit(self):
        h = self.geodesic()
        wrong = identity_unitary(from_matrix(from_rows([[3]])))
        with pytest.raises(ShapeError, match="^h0 must map the fiber onto the first arrow's correspondence$"):
            ArrowHomotopy(h.f_arrow, h.g_arrow, h.fiber, h.path, wrong, h.h1)
        with pytest.raises(ShapeError, match="^h1 must map the fiber onto the second arrow's correspondence$"):
            ArrowHomotopy(h.f_arrow, h.g_arrow, h.fiber, h.path, h.h0, wrong)


class TestFromWitness:
    def test_identity_witness_gives_constant_homotopies(self):
        w = identity_witness(from_rows([[1, 1], [1, 0]]))
        _, hx, hy = homotopy_shift_equivalence_from_se(w, steps=4)
        for h in (hx, hy):
            assert verify_homotopy(h)
            first = h.path[0][1]
            for _, sample in h.path:
                assert unitary_distance(sample, first) < 1e-12

    def test_golden_witness_end_to_end(self, golden_witness):
        shift, hx, hy = homotopy_shift_equivalence_from_se(golden_witness, steps=16)
        assert verify_homotopy(hx) and verify_homotopy(hy)
        assert len(hx.path) == 16
        # Lag and dims bookkeeping carried through the bundle.
        assert shift.lag == 1
        assert hx.fiber.dims == golden_witness.a
        assert hy.fiber.dims == golden_witness.b

    def test_requires_verified_witness(self):
        bad = SEWitness(from_rows([[2]]), from_rows([[3]]), from_rows([[1]]), from_rows([[2]]), 1)
        from shiftcalc import ContractError

        with pytest.raises(ContractError):
            homotopy_shift_equivalence_from_se(bad)

    def test_lag_two_witness(self):
        two = from_rows([[2]])
        w = SEWitness(two, two, two, two, 2)
        _, hx, hy = homotopy_shift_equivalence_from_se(w, steps=8)
        assert verify_homotopy(hx) and verify_homotopy(hy)
        assert hx.fiber.dims == from_rows([[4]])

    def test_random_chain_witnesses_end_to_end(self):
        # Unlike the golden witnesses, whose composites are all identity
        # permutations, folded chains give canonical shifts that are not
        # aligned, so their homotopies take real logarithms, some through
        # the eigenvalue -1 and hence the +pi branch.
        import random

        from shiftcalc import fold_chain, random_sse_chain
        from tests.conftest import random_essential

        rng = random.Random(515)
        nonzero = at_pi = 0
        for _ in range(40):
            base = random_essential(rng, max_size=3, max_entry=2)
            chain = random_sse_chain(base, rng.randint(1, 2), seed=rng.randrange(10**6))
            w = fold_chain(chain)
            _, hx, hy = homotopy_shift_equivalence_from_se(w, steps=4)
            assert verify_homotopy(hx), homotopy_failure(hx)
            assert verify_homotopy(hy), homotopy_failure(hy)
            assert hx.fiber.dims == mat_pow(w.a, w.lag)
            assert hy.fiber.dims == mat_pow(w.b, w.lag)
            # The dims both paths are sized from before either side is built.
            assert hx.path[0][1].source.dims == mat_mul(w.a, mat_mul(w.r, w.s))
            assert hy.path[0][1].source.dims == mat_mul(w.b, mat_mul(w.s, w.r))
            for h in (hx, hy):
                # U(1) is the composite conjugated onto the tensor-power fiber.
                end = conjugate_arrow(h.g_arrow, h.h1.adjoint()).phi
                assert unitary_distance(h.path[-1][1], end) <= 10 * TOL
            angles = np.concatenate(
                [np.linalg.eigvalsh(-1j * g) for h in (hx, hy) for g in h.path.generator.values()]
            )
            assert angles.min() > -np.pi + 1e-6
            assert angles.max() <= np.pi + 1e-9
            nonzero += bool(np.abs(angles).max() > 0.0)
            at_pi += bool(np.isclose(angles.max(), np.pi))
        assert nonzero >= 10
        assert at_pi >= 10

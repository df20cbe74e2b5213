import random
import re
from dataclasses import replace

import numpy as np
import pytest

from shiftcalc import (
    AlignedShiftData,
    CompositionError,
    ContractError,
    DomainError,
    SEWitness,
    ShapeError,
    alignment_residuals,
    build_from_se,
    compose_one_arrows,
    compose_se,
    compose_shifts,
    compose_unitaries,
    conjugate_arrow,
    conjugate_shift,
    fold_chain,
    from_rows,
    identity_unitary,
    identity_witness,
    mat_mul,
    mat_pow,
    power_arrow,
    power_correspondence,
    random_block_unitary,
    random_sse_chain,
    reverse_se,
    reverse_shift,
    slide_past_powers,
    tensor_unitaries,
    trivial_shift,
    two_arrow_residual,
    two_arrow_residuals,
    unitarity_defect,
    unitary_distance,
    verify_aligned,
    verify_concrete_shift,
)
from shiftcalc.selftest import GOLDEN_WITNESS, phase_twist
from tests.conftest import random_essential

TOL = 1e-9


def golden_lag(lag: int) -> SEWitness:
    """The golden witness lifted to ``lag`` by identity witnesses on its B side."""
    w = GOLDEN_WITNESS
    while w.lag < lag:
        w = compose_se(w, identity_witness(w.b))
    return w


def lag_one(seed: int) -> SEWitness:
    """The lag-1 witness of one random splitting of [[2, 1], [1, 2]]."""
    return fold_chain(random_sse_chain(from_rows([[2, 1], [1, 2]]), 1, seed=seed))


class TestConcreteShift:
    def test_trivial_shift_verifies(self):
        d = trivial_shift(from_rows([[1, 1], [1, 0]]))
        assert verify_concrete_shift(d)
        assert d.lag == 1

    def test_golden_witness_shift(self, golden_witness):
        d = build_from_se(golden_witness)
        assert verify_concrete_shift(d)
        assert d.m_arrow.f.dims == golden_witness.r
        assert d.n_arrow.f.dims == golden_witness.s

    def test_corrupt_block_fails(self, golden_witness):
        d = build_from_se(golden_witness)
        (i, j) = next(iter(d.psi_x.blocks))
        bad_block = d.psi_x.block(i, j) * 2.0
        bad = AlignedShiftData(
            d.x_obj, d.y_obj, d.m_arrow, d.n_arrow,
            d.psi_x.replace_block(i, j, bad_block), d.psi_y, d.lag,
        )
        assert not verify_concrete_shift(bad)

    def test_dims_bookkeeping(self):
        rng = random.Random(61)
        for _ in range(10):
            base = random_essential(rng)
            chain = random_sse_chain(base, 2, seed=rng.randrange(10**6))
            w = chain.steps[0]
            d = build_from_se(w)
            assert mat_mul(d.m_arrow.f.dims, d.n_arrow.f.dims) == mat_pow(w.a, w.lag)
            assert mat_mul(d.n_arrow.f.dims, d.m_arrow.f.dims) == mat_pow(w.b, w.lag)

    def test_build_requires_verified_witness(self):
        bad = SEWitness(from_rows([[2]]), from_rows([[3]]), from_rows([[1]]), from_rows([[2]]), 1)
        with pytest.raises(ContractError):
            build_from_se(bad)

    def test_build_rejects_wrong_shape_user_unitary(self, golden_witness):
        from shiftcalc import ShapeError, identity_unitary, from_matrix

        wrong = identity_unitary(from_matrix(from_rows([[3]])))
        with pytest.raises(ShapeError):
            build_from_se(golden_witness, lambda name, src, tgt: wrong if name == "psi_x" else None)

    def test_given_runs_only_on_a_verified_witness(self, golden_witness):
        calls = []

        def given(name, src, tgt):
            calls.append((name, src, tgt))

        bad = SEWitness(from_rows([[2]]), from_rows([[3]]), from_rows([[1]]), from_rows([[2]]), 1)
        with pytest.raises(ContractError):
            build_from_se(bad, given)
        assert calls == []
        def maps(d):
            return {"phi_m": d.m_arrow.phi, "phi_n": d.n_arrow.phi, "psi_x": d.psi_x, "psi_y": d.psi_y}

        built = maps(build_from_se(golden_lag(2), given))
        assert [name for name, _, _ in calls] == ["phi_m", "phi_n", "psi_x", "psi_y"]
        for name, src, tgt in calls:
            assert (src, tgt) == (built[name].source, built[name].target)
        # None from given means the canonical identification.
        for name, u in maps(build_from_se(golden_lag(2))).items():
            assert unitary_distance(built[name], u) == 0.0


    def test_psi_targets_other_than_the_lag_th_power_are_refused(self):
        from shiftcalc import ShapeError, canonical_identification, from_matrix, tensor

        d = build_from_se(golden_lag(2))
        for lag in (1, 3):
            with pytest.raises(ShapeError, match="psi_x must end at the lag-th tensor power of X"):
                AlignedShiftData(d.x_obj, d.y_obj, d.m_arrow, d.n_arrow, d.psi_x, d.psi_y, lag)
        # Two factors each, with the dims A^2 = [[4]] and B^2 = [[2, 2], [2, 2]] of the
        # squares, but other factors than X, X and Y, Y.
        wrong_x = tensor(from_matrix(from_rows([[1]])), from_matrix(from_rows([[4]])))
        wrong_y = tensor(from_matrix(from_rows([[1, 0], [0, 1]])), from_matrix(from_rows([[2, 2], [2, 2]])))
        psi_x = canonical_identification(d.psi_x.source, wrong_x)
        psi_y = canonical_identification(d.psi_y.source, wrong_y)
        with pytest.raises(ShapeError, match="psi_x must end at the lag-th tensor power of X"):
            AlignedShiftData(d.x_obj, d.y_obj, d.m_arrow, d.n_arrow, psi_x, d.psi_y, 2)
        with pytest.raises(ShapeError, match="psi_y must end at the lag-th tensor power of Y"):
            AlignedShiftData(d.x_obj, d.y_obj, d.m_arrow, d.n_arrow, d.psi_x, psi_y, 2)

    def test_a_lag_below_one_is_refused(self):
        d = build_from_se(golden_lag(1))
        for lag in (0, -1):
            with pytest.raises(DomainError, match="^shift lag must be a positive integer$"):
                AlignedShiftData(d.x_obj, d.y_obj, d.m_arrow, d.n_arrow, d.psi_x, d.psi_y, lag)

    def test_m_arrow_must_point_from_y_to_x(self):
        d = build_from_se(golden_lag(1))
        with pytest.raises(ShapeError, match="^m_arrow must point from the Y object to the X object$"):
            AlignedShiftData(d.x_obj, d.y_obj, d.n_arrow, d.n_arrow, d.psi_x, d.psi_y, 1)

    def test_n_arrow_must_point_from_x_to_y(self):
        d = build_from_se(golden_lag(1))
        with pytest.raises(ShapeError, match="^n_arrow must point from the X object to the Y object$"):
            AlignedShiftData(d.x_obj, d.y_obj, d.m_arrow, d.m_arrow, d.psi_x, d.psi_y, 1)

    def test_psi_sources_other_than_the_canonical_products_are_refused(self):
        d = build_from_se(golden_lag(1))
        with pytest.raises(ShapeError, match=re.escape("psi_x must start at M (x) N with the canonical basis")):
            AlignedShiftData(d.x_obj, d.y_obj, d.m_arrow, d.n_arrow, d.psi_y, d.psi_y, 1)
        with pytest.raises(ShapeError, match=re.escape("psi_y must start at N (x) M with the canonical basis")):
            AlignedShiftData(d.x_obj, d.y_obj, d.m_arrow, d.n_arrow, d.psi_x, d.psi_x, 1)

    def test_the_power_check_agrees_with_the_built_power(self):
        # The constructor accepts a psi_x or psi_y target exactly when it equals the built
        # power: every candidate ends both maps of the shift (X, X, X^(x)lag, I), and is
        # refused unless it is X^(x)lag; one of another shape ends no map from M (x) N.
        from shiftcalc import BlockUnitary, ObjectPair, canonical_identification, from_matrix, identity
        from shiftcalc import object_pair, tensor
        from shiftcalc.corr import arrow_with

        x = object_pair(from_rows([[2]]))
        y = object_pair(from_rows([[1, 1], [1, 1]]))
        a, b = from_matrix(from_rows([[1, 1], [1, 0]])), from_matrix(from_rows([[0, 1], [1, 1]]))
        objects = [
            x,
            y,
            # Two different atomic factors, 1x2 then 2x1: runs R, S.
            ObjectPair((0,), tensor(from_matrix(from_rows([[1, 1]])), from_matrix(from_rows([[1], [1]])))),
            # One factor with itself: one run of two, whose powers are those of y.
            ObjectPair((0, 1), tensor(y.x, y.x)),
            # First and last factors agree, so the powers' seams merge: runs A, B, A.
            ObjectPair((0, 1), tensor(tensor(a, b), a)),
        ]
        powers = [power_correspondence(obj, k) for obj in objects for k in range(1, 5)]
        candidates = powers + [
            tensor(from_matrix(from_rows([[1]])), from_matrix(from_rows([[4]]))),
            from_matrix(from_rows([[4]])),
            power_correspondence(object_pair(from_rows([[2]]), ["a"]), 2),
            power_correspondence(object_pair(from_rows([[1, 1], [1, 1]]), [1, 0]), 2),
        ]
        # Same labels as a power, but one run one factor longer or shorter, or one factor moved
        # between two runs of the same factor; kept where the runs still multiply, as the runs
        # of every correspondence a constructor makes do.
        def multiplies(runs):
            atoms = [atom for atom, count in runs for _ in range(count)]
            return all(left[1] == right[0] for left, right in zip(atoms, atoms[1:]))

        for power in powers:
            runs = power.factors
            variants = []
            for i, (atom, count) in enumerate(runs):
                for delta in (-1, 1):
                    if count + delta:
                        variants.append(runs[:i] + ((atom, count + delta),) + runs[i + 1:])
                for j in range(i + 1, len(runs)):
                    if runs[j][0] == atom and count > 1:
                        moved = list(runs)
                        moved[i], moved[j] = (atom, count - 1), (atom, runs[j][1] + 1)
                        variants.append(tuple(moved))
            candidates += [replace(power, factors=v) for v in variants if multiplies(v)]
        assert power_correspondence(objects[3], 2) == power_correspondence(y, 4)
        verdicts = {"accepted": 0, "refused": 0, "other shape": 0}
        for obj in objects:
            unit = from_matrix(identity(len(obj.algebra_index)), obj.algebra_index, obj.algebra_index)
            for lag in range(1, 5):
                built = power_correspondence(obj, lag)
                power = power_correspondence(obj, lag)
                psi_x, psi_y = (canonical_identification(tensor(*pair), power) for pair in ((built, unit), (unit, built)))
                d = AlignedShiftData(obj, obj, arrow_with(obj, obj, built), arrow_with(obj, obj, unit), psi_x, psi_y, lag)
                for c in candidates:
                    if not c.same_shape(built):
                        verdicts["other shape"] += 1
                        with pytest.raises(ShapeError, match="^source and target of a block unitary must have equal dims$"):
                            BlockUnitary(d.psi_x.source, c, d.psi_x.blocks)
                        continue
                    psi_x, psi_y = (BlockUnitary(psi.source, c, psi.blocks) for psi in (d.psi_x, d.psi_y))
                    if c == built:
                        verdicts["accepted"] += 1
                        replace(d, psi_x=psi_x, psi_y=psi_y)
                        continue
                    verdicts["refused"] += 1
                    with pytest.raises(ShapeError, match="^psi_x must end at the lag-th tensor power of X$"):
                        replace(d, psi_x=psi_x)
                    with pytest.raises(ShapeError, match="^psi_y must end at the lag-th tensor power of Y$"):
                        replace(d, psi_y=psi_y)
        # A variant that spells another power's runs is that power, so it is accepted at that lag.
        assert verdicts == {"accepted": 42, "refused": 18, "other shape": 1660}

    def test_the_power_check_does_no_arithmetic(self, monkeypatch):
        # psi's endpoints are compared as records, labels and factor runs: X^(x)40, of 2**40 basis
        # vectors, and X^(x)(2**62) are refused as X^(x)3 is accepted, with no integer product.
        import shiftcalc.aligned
        import shiftcalc.corr
        import shiftcalc.exact
        from shiftcalc import canonical_identification, from_matrix, object_pair, tensor
        from shiftcalc.corr import arrow_with

        x, unit = object_pair(from_rows([[2]])), from_matrix(from_rows([[1]]))
        cube = power_correspondence(x, 3)
        m_arrow, n_arrow = arrow_with(x, x, cube), arrow_with(x, x, unit)
        psi_x = canonical_identification(tensor(cube, unit), cube)
        psi_y = canonical_identification(tensor(unit, cube), cube)

        def refuse(*args, **kwargs):
            raise AssertionError("integer arithmetic")

        for module, name in ((shiftcalc.exact, "mat_mul"), (shiftcalc.exact, "mat_pow"),
                             (shiftcalc.corr, "mat_mul"), (shiftcalc.aligned, "mat_mul")):
            monkeypatch.setattr(module, name, refuse)
        d = AlignedShiftData(x, x, m_arrow, n_arrow, psi_x, psi_y, 3)
        for lag in (40, 2**62):
            with pytest.raises(ShapeError, match="^psi_x must end at the lag-th tensor power of X$"):
                replace(d, lag=lag)

    @pytest.mark.parametrize(
        "a, b, lag, equation",
        [([[2]], [[2]], 2, "A^lag = R S"), ([[2]], [[2]], 40, "A^lag = R S"), ([[2]], [[2]], 64, "A^lag = R S"),
         ([[1]], [[2]], 2, "B^lag = S R")],
        ids=["A-lag2", "A-lag40", "A-lag64", "B-lag2"],
    )
    def test_the_builder_refuses_a_lag_that_does_not_fit(self, a, b, lag, equation, monkeypatch):
        # X^(x)40 would need 2**40 basis vectors: the lag is refused before any power or map is made,
        # and before any edge is held.  The objects and M, N come first, since they allocate nothing.
        # The first power, map or read of ends fails the test, so code that builds first fails here
        # instead of allocating.
        import time

        import shiftcalc.aligned
        from shiftcalc.aligned import assemble_shift
        from shiftcalc.corr import GraphCorrespondence

        def refuse(name):
            def call(*args):
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(shiftcalc.aligned, "power_correspondence", refuse("power_correspondence"))
        monkeypatch.setattr(GraphCorrespondence, "ends", property(refuse("ends")))
        one = from_rows([[1]])
        started = time.perf_counter()
        with pytest.raises(ShapeError, match=f"^lag {lag} does not fit the bundle: {re.escape(equation)} fails$"):
            assemble_shift(SEWitness(from_rows(a), from_rows(b), one, one, lag), refuse("make"))
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("read", ["build_from_se", "shift_from_json"])
    def test_a_shift_holds_one_object_per_side(self, read):
        from shiftcalc.jsonio import shift_from_json, shift_to_json

        d = build_from_se(golden_lag(2))
        if read == "shift_from_json":
            d = shift_from_json(shift_to_json(d))
        assert d.m_arrow.target is d.x_obj is d.n_arrow.source
        assert d.m_arrow.source is d.y_obj is d.n_arrow.target

    @pytest.mark.parametrize("case", ["golden3", *range(6)])
    def test_the_maps_are_sized_by_what_they_hold(self, case, monkeypatch):
        # 24 bytes per entry: the 16 each complex map keeps, and the 8 of the float64
        # identity it is made from.  A bound one byte below the prediction refuses the shift.
        from shiftcalc import aligned

        if case == "golden3":
            w = golden_lag(3)
        else:
            rng = random.Random(case)
            base = random_essential(rng, max_size=3, max_entry=2)
            w = fold_chain(random_sse_chain(base, rng.randint(1, 2), seed=rng.randrange(10**6)))
        d = build_from_se(w)
        held = sum(m.nbytes for u in (d.m_arrow.phi, d.n_arrow.phi, d.psi_x, d.psi_y) for m in u.blocks.values())
        predicted = held // 16 * 24
        monkeypatch.setattr(aligned, "_MAPS_BYTES", predicted)
        assert build_from_se(w).lag == w.lag
        monkeypatch.setattr(aligned, "_MAPS_BYTES", predicted - 1)
        refusal = f"the structure maps would take {predicted} bytes, above the {predicted - 1} a shift may take"
        with pytest.raises(DomainError, match=f"^{refusal}$"):
            build_from_se(w)


class TestAssembleArrow:
    """The one builder of an arrow from its integer record (A, B, F): bases first, then its rules from their dims."""

    @pytest.mark.parametrize(
        "a, b, f, error, message",
        [([[0, 10**7], [0, 0]], [[1]], [[0, 0]], DomainError, "object correspondence must have essential dims"),
         ([[1]], [[0, 0], [10**7, 0]], [[1], [0]], DomainError, "object correspondence must have essential dims"),
         ([[10**7]], [[1]], [[1]], ShapeError, "the arrow's F does not fit its objects: B F = F A fails"),
         ([[10**7]], [[10**7]], [[1]], DomainError,
          "phi would take 2400000000000000 bytes, above the 1073741824 an arrow may take")],
        ids=["source-inessential", "target-inessential", "B F != F A", "heavy-phi"],
    )
    def test_the_builder_refuses_an_arrow_from_its_integers(self, a, b, f, error, message, monkeypatch):
        # Each object would have a basis of 10**7 edges: the bases are built, and hold no edge, but the
        # first read of their ends or the first map made fails the test.
        from shiftcalc.aligned import assemble_arrow
        from shiftcalc.corr import GraphCorrespondence

        def refuse(name):
            def call(*args):
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(GraphCorrespondence, "ends", property(refuse("ends")))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            assemble_arrow(from_rows(a), from_rows(b), from_rows(f), refuse("make"))

    @pytest.mark.parametrize(
        "a, b, f, error, message",
        [([[1, 1]], [[1]], [[1]], ShapeError, "index label lists must match the matrix shape"),
         ([[1]], [[1]], [[1, 1]], ShapeError, "index label lists must match the matrix shape"),
         ([[1]], [[1]], [[-1]], DomainError, "correspondence matrices must be nonnegative"),
         ([[-1]], [[1]], [[1]], DomainError, "correspondence matrices must be nonnegative")],
        ids=["non-square A", "F of the wrong shape", "negative F", "negative A"],
    )
    def test_a_malformed_record_is_refused_by_the_basis_builder(self, a, b, f, error, message):
        from shiftcalc.aligned import assemble_arrow

        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            assemble_arrow(from_rows(a), from_rows(b), from_rows(f))

    def test_a_witness_gives_the_canonical_arrow_of_s(self, golden_witness):
        from shiftcalc import canonical_identification, from_matrix, object_pair, tensor
        from shiftcalc.aligned import assemble_arrow

        w = golden_witness
        labels = ([f"a{i}" for i in range(w.a.rows)], [f"b{i}" for i in range(w.b.rows)])
        arrow = assemble_arrow(w.a, w.b, w.s, labels=labels)
        source, target = object_pair(w.a, labels[0]), object_pair(w.b, labels[1])
        assert (arrow.source, arrow.target) == (source, target)
        assert arrow.f == from_matrix(w.s, labels[1], labels[0])
        phi = canonical_identification(tensor(target.x, arrow.f), tensor(arrow.f, source.x))
        assert (arrow.phi.source, arrow.phi.target) == (phi.source, phi.target)
        assert all(np.array_equal(arrow.phi.blocks[ij], phi.blocks[ij]) for ij in phi.blocks)


class TestAlignment:
    def test_trivial_shift_aligned(self):
        for mat in ([[2]], [[1, 1], [1, 0]], [[1, 2], [2, 1]]):
            d = trivial_shift(from_rows(mat))
            assert verify_aligned(d)
            assert max(alignment_residuals(d)) == 0.0

    def test_canonical_defaults_for_golden_witness(self, golden_witness):
        # Nothing guarantees the default identifications align; this records
        # the empirical outcome for this witness (they do, exactly).
        d = build_from_se(golden_witness)
        assert verify_aligned(d)

    def test_power_of_full_shift_all_canonical(self):
        # A = B = [2], M = N = X([2]), lag 2: every map is the identity
        # permutation on sorted path bases, so alignment holds exactly.
        two = from_rows([[2]])
        w = SEWitness(two, two, two, two, 2)
        d = build_from_se(w)
        assert verify_aligned(d)
        assert max(alignment_residuals(d)) == 0.0

    def test_phase_breaks_alignment(self, golden_witness):
        d = phase_twist(build_from_se(golden_witness), 0.9)
        assert verify_concrete_shift(d)
        assert not verify_aligned(d)

    def test_verify_aligned_requires_concrete(self, golden_witness):
        d = build_from_se(golden_witness)
        (i, j) = next(iter(d.psi_y.blocks))
        bad = AlignedShiftData(
            d.x_obj, d.y_obj, d.m_arrow, d.n_arrow, d.psi_x,
            d.psi_y.replace_block(i, j, d.psi_y.block(i, j) * 3.0), d.lag,
        )
        with pytest.raises(ContractError):
            verify_aligned(bad)

    def test_formulations_agree_on_mixed_population(self, golden_witness):
        rng = np.random.default_rng(404)
        population = []
        base = build_from_se(golden_witness)
        population.append(base)
        for _ in range(5):
            u = random_block_unitary(base.m_arrow.f, rng)
            v = random_block_unitary(base.n_arrow.f, rng)
            population.append(conjugate_shift(base, u, v))
        population.append(phase_twist(base, 0.9))
        population.append(phase_twist(population[1], 0.9))
        for d in population:
            direct = max(alignment_residuals(d))
            via = max(two_arrow_residuals(d))
            assert abs(direct - via) <= 1e-8
            assert (direct <= TOL) == (via <= TOL)

    def test_two_arrow_square_onto_conjugated_power_agrees(self):
        # Psi_X is a 2-arrow onto [X^(x)m, 1] iff u Psi_X is one onto that arrow
        # conjugated by a Haar unitary u.  The conjugated phi is dense, so this
        # square shares no exact identity with the triple-tensor equation: the
        # two residuals agree in exact arithmetic only, not bit for bit.
        rng = random.Random(2718)
        np_rng = np.random.default_rng(2718)
        bases = [build_from_se(golden_lag(lag)) for lag in range(1, 5)]
        while len(bases) < 40:
            base = random_essential(rng, max_size=3, max_entry=2)
            chain = random_sse_chain(base, rng.randint(1, 3), seed=rng.randrange(10**6))
            bases.append(build_from_se(fold_chain(chain)))
        residuals = []
        for d in bases:
            conj = conjugate_shift(
                d, random_block_unitary(d.m_arrow.f, np_rng), random_block_unitary(d.n_arrow.f, np_rng)
            )
            for shift in (d, conj, phase_twist(conj, rng.uniform(0.3, 2.8))):
                direct = alignment_residuals(shift)
                sides = (
                    (shift.x_obj, shift.m_arrow, shift.n_arrow, shift.psi_x),
                    (shift.y_obj, shift.n_arrow, shift.m_arrow, shift.psi_y),
                )
                for side, (obj, first, second, psi) in enumerate(sides):
                    power = power_arrow(obj, shift.lag)
                    u = random_block_unitary(power.f, np_rng)
                    via = two_arrow_residual(
                        compose_unitaries(psi, u),
                        compose_one_arrows(first, second),
                        conjugate_arrow(power, u),
                    )
                    assert (direct[side] <= TOL) == (via <= TOL)
                    assert abs(direct[side] - via) <= 10 * TOL
                    residuals.append((direct[side], via))
        assert len(residuals) == 240
        # Both verdicts are well represented, and most residual pairs differ
        # in their last bits, so the arithmetic really is separate.
        unaligned = sum(direct > TOL for direct, _ in residuals)
        assert 40 <= unaligned <= 200
        assert sum(direct == via for direct, via in residuals) < 60


def reference_alignment_residuals(d: AlignedShiftData) -> tuple[float, float]:
    """The two coherence equations written out side by side, with the
    composite intertwiners built inline: the reference for the one loop of
    ``alignment_residuals``."""
    x = d.x_obj.x
    y = d.y_obj.x
    m_corr = d.m_arrow.f
    n_corr = d.n_arrow.f

    lhs_x = compose_unitaries(
        compose_unitaries(
            tensor_unitaries(d.m_arrow.phi, identity_unitary(n_corr)),
            tensor_unitaries(identity_unitary(m_corr), d.n_arrow.phi),
        ),
        tensor_unitaries(d.psi_x, identity_unitary(x)),
    )
    rhs_x = tensor_unitaries(identity_unitary(x), d.psi_x)

    lhs_y = compose_unitaries(
        compose_unitaries(
            tensor_unitaries(d.n_arrow.phi, identity_unitary(m_corr)),
            tensor_unitaries(identity_unitary(n_corr), d.m_arrow.phi),
        ),
        tensor_unitaries(d.psi_y, identity_unitary(y)),
    )
    rhs_y = tensor_unitaries(identity_unitary(y), d.psi_y)

    return unitary_distance(lhs_x, rhs_x), unitary_distance(lhs_y, rhs_y)


def reference_composite_psis(d1: AlignedShiftData, d2: AlignedShiftData):
    """Psi_X and Psi_Y of ``compose_shifts(d1, d2)``, each side written out:
    the reference for its one helper called with mirrored arguments."""
    m1, n1 = d1.m_arrow, d1.n_arrow
    m2, n2 = d2.m_arrow, d2.n_arrow
    # M1 (x) M2 (x) N2 (x) N1 -> M1 (x) Y^n (x) N1 -> M1 (x) N1 (x) X^n -> X^(m+n)
    psi_x = compose_unitaries(
        compose_unitaries(
            tensor_unitaries(
                tensor_unitaries(identity_unitary(m1.f), d2.psi_x),
                identity_unitary(n1.f),
            ),
            tensor_unitaries(identity_unitary(m1.f), slide_past_powers(n1, d2.lag)),
        ),
        tensor_unitaries(
            d1.psi_x, identity_unitary(power_correspondence(d1.x_obj, d2.lag))
        ),
    )
    # N2 (x) N1 (x) M1 (x) M2 -> N2 (x) Y^m (x) M2 -> N2 (x) M2 (x) Z^m -> Z^(n+m)
    psi_y = compose_unitaries(
        compose_unitaries(
            tensor_unitaries(
                tensor_unitaries(identity_unitary(n2.f), d1.psi_y),
                identity_unitary(m2.f),
            ),
            tensor_unitaries(identity_unitary(n2.f), slide_past_powers(m2, d1.lag)),
        ),
        tensor_unitaries(
            d2.psi_y, identity_unitary(power_correspondence(d2.y_obj, d1.lag))
        ),
    )
    return psi_x, psi_y


def same_bits(u1, u2) -> bool:
    """Equal endpoints and bit-identical blocks."""
    return (
        u1.source == u2.source
        and u1.target == u2.target
        and u1.blocks.keys() == u2.blocks.keys()
        and all(np.array_equal(m, u2.blocks[ij]) for ij, m in u1.blocks.items())
    )


class TestAgainstTheWrittenOutSides:
    def test_residuals_bit_for_bit(self):
        # Folded chains, each also Haar-conjugated and then phase-twisted.
        rng = random.Random(1729)
        np_rng = np.random.default_rng(1729)
        bases = [build_from_se(golden_lag(lag)) for lag in range(1, 4)]
        while len(bases) < 34:
            base = random_essential(rng, max_size=3, max_entry=2)
            chain = random_sse_chain(base, rng.randint(1, 2), seed=rng.randrange(10**6))
            bases.append(build_from_se(fold_chain(chain)))
        shifts = []
        for d in bases:
            conj = conjugate_shift(
                d, random_block_unitary(d.m_arrow.f, np_rng), random_block_unitary(d.n_arrow.f, np_rng)
            )
            shifts += [d, conj, phase_twist(conj, rng.uniform(0.3, 2.8))]
        assert len(shifts) == 102
        residuals = [alignment_residuals(d) for d in shifts]
        assert residuals == [reference_alignment_residuals(d) for d in shifts]
        # Both verdicts are well represented.
        assert 20 <= sum(max(r) > TOL for r in residuals) <= 80

    def test_composites_bit_for_bit(self):
        # Conjugated trivial shifts, chained at lags 1 + 1 and, through a
        # composite of two, at 2 + 1 and 1 + 2, so the slides run over powers.
        rng = random.Random(31)
        np_rng = np.random.default_rng(31)

        def conjugated_trivial(a):
            d = trivial_shift(a)
            return conjugate_shift(
                d, random_block_unitary(d.m_arrow.f, np_rng), random_block_unitary(d.n_arrow.f, np_rng)
            )

        def compose(d1, d2):
            composed = compose_shifts(d1, d2, 8e-9)
            psi_x, psi_y = reference_composite_psis(d1, d2)
            assert same_bits(composed.psi_x, psi_x)
            assert same_bits(composed.psi_y, psi_y)
            assert alignment_residuals(composed) == reference_alignment_residuals(composed)
            return composed

        for k in range(20):
            a = random_essential(rng, max_size=2, max_entry=2)
            d1, d2 = conjugated_trivial(a), conjugated_trivial(a)
            if k % 3 == 0:
                compose(d1, d2)
            elif k % 3 == 1:
                compose(compose(d1, d2), conjugated_trivial(a))
            else:
                compose(d1, compose(d2, conjugated_trivial(a)))


class TestConjugation:
    def test_conjugation_preserves_alignment(self):
        rng = np.random.default_rng(11)
        for mat in ([[2]], [[1, 1], [1, 1]], [[1, 1], [1, 0]]):
            d = trivial_shift(from_rows(mat))
            u = random_block_unitary(d.m_arrow.f, rng)
            v = random_block_unitary(d.n_arrow.f, rng)
            conj = conjugate_shift(d, u, v)
            assert verify_concrete_shift(conj)
            assert verify_aligned(conj)
            assert max(alignment_residuals(conj)) < 8 * TOL


class TestReverseCompose:
    def test_reverse_trivial(self):
        d = trivial_shift(from_rows([[1, 1], [1, 1]]))
        rev = reverse_shift(d)
        assert verify_aligned(rev)
        assert rev.x_obj == d.y_obj and rev.y_obj == d.x_obj

    def test_reverse_involutive(self, golden_witness):
        d = build_from_se(golden_witness)
        again = reverse_shift(reverse_shift(d))
        assert again.m_arrow is d.m_arrow and again.psi_x is d.psi_x

    def test_reverse_preserves_alignment_of_conjugated(self):
        rng = np.random.default_rng(77)
        d = trivial_shift(from_rows([[1, 2], [1, 1]]))
        conj = conjugate_shift(
            d,
            random_block_unitary(d.m_arrow.f, rng),
            random_block_unitary(d.n_arrow.f, rng),
        )
        assert verify_aligned(reverse_shift(conj))

    def test_compose_trivial_with_itself(self):
        d = trivial_shift(from_rows([[2]]))
        c = compose_shifts(d, d)
        assert c.lag == 2
        assert verify_aligned(c, 8e-9)

    def test_compose_with_reverse(self, golden_witness):
        d = build_from_se(golden_witness)
        c = compose_shifts(d, reverse_shift(d))
        assert c.lag == 2
        assert c.x_obj == d.x_obj and c.y_obj == d.x_obj
        assert verify_aligned(c, 8e-9)

    def test_compose_lag_bookkeeping(self):
        d1 = trivial_shift(from_rows([[1, 1], [1, 1]]))
        d2 = compose_shifts(d1, d1)
        d3 = compose_shifts(d2, d1)
        assert d3.lag == 3

    def test_compose_mixed_lags(self):
        # Lag 1 + lag 2: the slide construction runs over a genuine power.
        rng = np.random.default_rng(515)
        two = from_rows([[2]])
        d0 = trivial_shift(two)
        d1 = conjugate_shift(
            d0,
            random_block_unitary(d0.m_arrow.f, rng),
            random_block_unitary(d0.n_arrow.f, rng),
        )
        d2 = build_from_se(SEWitness(two, two, two, two, 2))
        composed = compose_shifts(d1, d2)
        assert composed.lag == 3
        assert verify_aligned(composed, 8e-9)
        other_way = compose_shifts(d2, d1)
        assert other_way.lag == 3
        assert verify_aligned(other_way, 8e-9)

    def test_compose_conjugated_shifts_between_different_objects(self, golden_witness):
        # Chain [2] ~ ones ~ [2] through independently conjugated shifts.
        rng = np.random.default_rng(909)
        base = build_from_se(golden_witness)
        d1 = conjugate_shift(
            base,
            random_block_unitary(base.m_arrow.f, rng),
            random_block_unitary(base.n_arrow.f, rng),
        )
        d2 = reverse_shift(
            conjugate_shift(
                base,
                random_block_unitary(base.m_arrow.f, rng),
                random_block_unitary(base.n_arrow.f, rng),
            )
        )
        composed = compose_shifts(d1, d2)
        assert composed.lag == 2
        assert composed.x_obj == base.x_obj and composed.y_obj == base.x_obj
        assert verify_aligned(composed, 8e-9)

    def test_compose_requires_chainable(self, golden_witness):
        d = build_from_se(golden_witness)
        with pytest.raises(CompositionError, match="^shifts are not chainable: middle objects differ$"):
            compose_shifts(d, d)

    def test_compose_requires_aligned(self, golden_witness):
        d = build_from_se(golden_witness)
        bad = phase_twist(d, 0.9)
        with pytest.raises(ContractError, match="^compose_shifts requires aligned inputs$"):
            compose_shifts(bad, reverse_shift(d))

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda d: reverse_shift(replace(d, psi_x=d.psi_x.replace_block(0, 0, 2.0 * d.psi_x.block(0, 0)))),
                ContractError,
                "reverse_shift requires a verified concrete shift",
            ),
            (
                lambda d: conjugate_shift(d, identity_unitary(d.n_arrow.f), identity_unitary(d.n_arrow.f)),
                ShapeError,
                "u must be an automorphism of M",
            ),
            (
                lambda d: conjugate_shift(d, identity_unitary(d.m_arrow.f), identity_unitary(d.m_arrow.f)),
                ShapeError,
                "v must be an automorphism of N",
            ),
            (lambda d: slide_past_powers(d.n_arrow, -1), DomainError, "slide exponent must be nonnegative"),
        ],
        ids=["reverse", "conjugate u", "conjugate v", "slide"],
    )
    def test_refusal_names_its_reason(self, golden_witness, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(build_from_se(golden_witness))


class TestSwap:
    """The swap relation of shift equivalence on the numerical layer: the shift built from the
    reversed witness is the reversed shift, map for map and bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_the_reversed_witness_builds_the_reversed_shift(self, k):
        w = fold_chain(random_sse_chain(from_rows([[2, 1], [1, 2]]), k, seed=0))
        d, built = build_from_se(w), build_from_se(reverse_se(w))
        swapped = reverse_shift(d)
        assert (built.x_obj, built.y_obj, built.lag) == (swapped.x_obj, swapped.y_obj, swapped.lag)
        for u, v in zip(
            (built.m_arrow.phi, built.n_arrow.phi, built.psi_x, built.psi_y),
            (swapped.m_arrow.phi, swapped.n_arrow.phi, swapped.psi_x, swapped.psi_y),
        ):
            assert (u.source, u.target) == (v.source, v.target)
            assert u.blocks.keys() == v.blocks.keys()
            assert all(np.array_equal(u.blocks[ij], v.blocks[ij]) for ij in u.blocks)
        rx, ry = alignment_residuals(d)
        assert alignment_residuals(built) == (ry, rx)


class TestLagRelation:
    """The lag relation of shift equivalence on the numerical layer: composing an aligned shift d
    of lag m with the trivial shift of its Y side gives an aligned shift of lag m + 1, with the
    objects and the M and N dims of the shift built from the composed witness.  That shift's own
    verdict is not compared: its maps are canonical, not composites, and need not be aligned."""

    @pytest.mark.parametrize(
        "w",
        [golden_lag(2), golden_lag(3), *map(lag_one, (0, 5, 8, 9))],
        ids=["golden lag 2", "golden lag 3", "seed 0", "seed 5", "seed 8", "seed 9"],
    )
    def test_a_trivial_shift_adds_one_to_the_lag(self, w):
        # Both shifts are conjugated by Haar-random unitaries, so no map is a permutation.  psi_y
        # slides the trivial shift's phi_M past Y^(x)m, which composes slides for m >= 2; psi_x
        # slides d's phi_N past X^(x)1.
        rng = np.random.default_rng(37)

        def haar(d):
            return conjugate_shift(d, random_block_unitary(d.m_arrow.f, rng), random_block_unitary(d.n_arrow.f, rng))

        composite = compose_shifts(haar(build_from_se(w)), haar(trivial_shift(w.b)))
        built = build_from_se(compose_se(w, identity_witness(w.b)))
        assert verify_aligned(composite) and composite.lag == w.lag + 1
        assert (composite.x_obj, composite.y_obj) == (built.x_obj, built.y_obj)
        assert (composite.m_arrow.f.dims, composite.n_arrow.f.dims) == (built.m_arrow.f.dims, built.n_arrow.f.dims)

    def test_the_composed_witness_need_not_build_an_aligned_shift(self):
        w = lag_one(8)
        composite = compose_shifts(build_from_se(w), trivial_shift(w.b))
        built = build_from_se(compose_se(w, identity_witness(w.b)))
        assert alignment_residuals(composite) == (0.0, 0.0)
        assert alignment_residuals(built) == (2.0, 2.0)


class TestSlide:
    def test_slide_matches_phi_for_one_factor(self, golden_witness):
        d = build_from_se(golden_witness)
        s = slide_past_powers(d.n_arrow, 1)
        assert unitarity_defect(s) < TOL
        assert s.source == d.n_arrow.phi.source
        diff = max(
            np.linalg.norm(s.blocks[ij] - d.n_arrow.phi.blocks[ij], ord=2)
            for ij in s.blocks
        )
        assert diff == 0.0

    def test_slide_unitary_for_higher_powers(self, golden_witness):
        d = build_from_se(golden_witness)
        for n in (2, 3):
            assert unitarity_defect(slide_past_powers(d.n_arrow, n)) < TOL

    @pytest.mark.parametrize("n", [64, 2000])
    def test_a_long_slide_takes_log_many_compositions(self, n, monkeypatch):
        # 1x1 blocks at every power.  A slide is a power under exact.power, so it composes at most
        # 2 floor(log2 n) times: one factor at a time would compose n - 1 times, and a recursion one
        # factor deep per step would pass Python's recursion limit (1000 frames by default).
        import shiftcalc.aligned

        calls = []
        compose = shiftcalc.aligned.compose_unitaries
        monkeypatch.setattr(shiftcalc.aligned, "compose_unitaries", lambda u, v: calls.append(1) or compose(u, v))
        arrow = trivial_shift(from_rows([[1]])).m_arrow
        s = slide_past_powers(arrow, n)
        assert [m.tolist() for m in s.blocks.values()] == [[[1]]]
        assert len(calls) <= 2 * (n.bit_length() - 1)

    def test_slide_is_two_arrow_between_power_composites(self, golden_witness):
        from shiftcalc import compose_one_arrows, power_arrow, two_arrow_residual

        rng = np.random.default_rng(313)
        base = build_from_se(golden_witness)
        arrow = base.n_arrow
        from shiftcalc import conjugate_arrow, random_block_unitary as rbu

        arrow = conjugate_arrow(arrow, rbu(arrow.f, rng))
        for n in (0, 1, 2, 3, 4, 5):
            left = compose_one_arrows(power_arrow(arrow.target, n), arrow)
            right = compose_one_arrows(arrow, power_arrow(arrow.source, n))
            residual = two_arrow_residual(slide_past_powers(arrow, n), left, right)
            assert residual < max(n, 1) * 4 * TOL

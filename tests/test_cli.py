import builtins
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from shiftcalc import SEWitness, build_from_se, from_rows, homotopy_shift_equivalence_from_se, verify_aligned
from shiftcalc.cli import main
from shiftcalc.jsonio import (
    SCHEMA,
    dump_json,
    homotopy_to_json,
    matrix_from_json,
    matrix_to_json,
    nonnegative_matrix_from_file,
    shift_from_json,
    shift_to_json,
    witness_to_json,
)
from shiftcalc import ParseError


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def mat(rows):
    return matrix_to_json(from_rows(rows))


@pytest.fixture
def files(tmp_path):
    return {
        "two": write(tmp_path / "two.json", mat([[2]])),
        "three": write(tmp_path / "three.json", mat([[3]])),
        "pair": write(tmp_path / "pair.json", mat([[1, 1], [1, 1]])),
        "r": write(tmp_path / "r.json", mat([[1, 1]])),
        "s": write(tmp_path / "s.json", mat([[1], [1]])),
        "tmp": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestVerifySE:
    def test_verified_exit_zero(self, files, capsys):
        code, report, _ = run(
            capsys,
            ["verify-se", "--a", files["two"], "--b", files["pair"],
             "--r", files["r"], "--s", files["s"], "--lag", "1"],
        )
        assert code == 0
        assert report["verdict"] == {"verified": True, "failing_equation": None}

    def test_refuted_names_equation_on_stderr(self, files, capsys, tmp_path):
        bad_r = write(tmp_path / "badr.json", mat([[2, 1]]))
        code, report, err = run(
            capsys,
            ["verify-se", "--a", files["two"], "--b", files["pair"],
             "--r", bad_r, "--s", files["s"], "--lag", "1"],
        )
        assert code == 1
        assert report["verdict"]["failing_equation"] == "A^m = RS"
        assert "A^m = RS" in err

    def test_huge_lag_is_refuted_at_once(self, files, capsys, tmp_path):
        one = write(tmp_path / "one.json", mat([[1]]))
        start = time.perf_counter()
        code, report, err = run(
            capsys,
            ["verify-se", "--a", files["two"], "--b", files["two"],
             "--r", one, "--s", files["two"], "--lag", "1000000000"],
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert report["verdict"] == {"verified": False, "failing_equation": "A^m = RS"}

    def test_negative_entry_is_data_error(self, files, capsys, tmp_path):
        neg = write(tmp_path / "neg.json", mat([[1]]) | {"entries": [[-1]]})
        code, _, err = run(
            capsys,
            ["verify-se", "--a", neg, "--b", files["pair"],
             "--r", files["r"], "--s", files["s"], "--lag", "1"],
        )
        assert code == 65
        assert "(0, 0)" in err


class TestUsageAndParsing:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == 64

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    # Written out by hand, apart from the table the parser is built from: every
    # flag a subcommand cannot run without.
    REQUIRED_FLAGS = {
        "verify-se": ["--a", "--b", "--r", "--s", "--lag"],
        "search-se": ["--a", "--b", "--lag", "--bound"],
        "invariants": ["--a"],
        "compare": ["--a", "--b"],
        "corr tensor": ["--r", "--s"],
        "corr check-2arrow": ["--psi", "--f", "--g"],
        "aligned verify": ["--data"],
        "aligned from-se": ["--witness"],
        "homotopy from-se": ["--witness"],
    }

    @staticmethod
    def argv(command, flags):
        return [*command.split(), *(x for flag in flags for x in (flag, "1"))]

    def test_twenty_required_flags(self):
        from shiftcalc.cli import _build_parser

        assert sum(map(len, self.REQUIRED_FLAGS.values())) == 20
        for command, flags in self.REQUIRED_FLAGS.items():
            assert _build_parser().parse_args(self.argv(command, flags)).name == command

    @pytest.mark.parametrize(
        "command, flag", [(command, flag) for command, flags in REQUIRED_FLAGS.items() for flag in flags]
    )
    def test_each_required_flag_omitted_is_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main(self.argv(command, [f for f in self.REQUIRED_FLAGS[command] if f != flag]))
        assert exc.value.code == 64
        assert capsys.readouterr().err.endswith(f"error: the following arguments are required: {flag}\n")

    @pytest.mark.parametrize(
        "command, flag",
        [("verify-se", "--lag"), ("search-se", "--lag"), ("search-se", "--bound"), ("homotopy from-se", "--steps")],
    )
    @pytest.mark.parametrize("value", ["x", "1.5"])
    def test_integer_flags_refuse_other_values(self, capsys, command, flag, value):
        argv = self.argv(command, [f for f in self.REQUIRED_FLAGS[command] if f != flag])
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 64
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: '{value}'\n")

    def test_steps_default_to_sixteen(self):
        from shiftcalc.cli import _build_parser

        assert _build_parser().parse_args(["homotopy", "from-se", "--witness", "w.json"]).steps == 16

    def test_every_readme_command_line_reaches_a_handler(self):
        import shlex
        from pathlib import Path

        from shiftcalc.cli import _build_parser

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        assert len(lines) == 10
        for line in lines:
            words = shlex.split(line)
            assert words[0] == "shiftcalc"
            args = _build_parser().parse_args(words[1:])
            assert args.fn.__name__.startswith("_cmd_"), line

    def test_missing_entries_field(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1}))
        with pytest.raises(ParseError, match="entries"):
            nonnegative_matrix_from_file(str(path))

    def test_ragged_rows_named(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 2], [3]]}))
        with pytest.raises(ParseError, match="row 1"):
            nonnegative_matrix_from_file(str(path))

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ParseError, match="line 2"):
            nonnegative_matrix_from_file(str(path))

    def test_scalar_matrix_roundtrip(self):
        doc = {"rows": 1, "cols": 1, "entries": [[2]]}
        assert matrix_from_json(doc) == from_rows([[2]])


class TestCompareAndInvariants:
    def test_compare_distinguished_exit_two(self, files, capsys):
        code, report, _ = run(capsys, ["compare", "--a", files["two"], "--b", files["three"]])
        assert code == 2
        assert report["verdict"]["primary"] == "nonzero_char_poly"

    def test_compare_inconclusive_exit_zero(self, files, capsys):
        code, report, _ = run(capsys, ["compare", "--a", files["two"], "--b", files["pair"]])
        assert code == 0
        assert report["verdict"]["distinguished"] is False

    def test_invariants_report(self, files, capsys):
        code, report, _ = run(capsys, ["invariants", "--a", files["three"]])
        assert code == 0
        assert report["verdict"]["nonzero_char_poly"] == [-3, 1]
        assert report["verdict"]["bowen_franks"] == [2]


class TestSearchAndTensor:
    def test_search_found(self, files, capsys):
        code, report, _ = run(
            capsys, ["search-se", "--a", files["two"], "--b", files["pair"], "--lag", "1", "--bound", "1"]
        )
        assert code == 0
        assert report["verdict"]["witness"]["r"]["entries"] == [[1, 1]]

    def test_search_not_found_exit_one(self, files, capsys):
        code, report, _ = run(
            capsys, ["search-se", "--a", files["two"], "--b", files["three"], "--lag", "1", "--bound", "5"]
        )
        assert code == 1
        assert report["verdict"] == {"found": False, "witness": None}

    def test_search_at_a_huge_lag_is_refuted_at_once(self, files, capsys):
        # A^lag and B^lag are capped at the largest entry RS and SR can reach.
        start = time.perf_counter()
        code, report, _ = run(
            capsys,
            ["search-se", "--a", files["two"], "--b", files["pair"], "--lag", "1000000000", "--bound", "1"],
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert report["verdict"] == {"found": False, "witness": None}

    def test_tensor_dims(self, files, capsys):
        code, report, _ = run(capsys, ["corr", "tensor", "--r", files["r"], "--s", files["s"]])
        assert code == 0
        assert report["verdict"]["dims"] == [[2]]
        assert report["verdict"]["basis_size"] == 2

    @pytest.mark.parametrize(
        "r, s, dims",
        [
            ([[10**20]], [[1]], [[10**20]]),
            ([[2**62]], [[1]], [[2**62]]),
            ([[1000000]], [[1000]], [[1000000000]]),
            ([[100000, 1], [1, 100000]], [[100000, 1], [1, 100000]], [[10000000001, 200000], [200000, 10000000001]]),
        ],
        ids=["10^20", "2^62", "10^6 by 10^3", "2x2 squared"],
    )
    def test_tensor_of_large_entries_is_read_from_the_dims(self, capsys, tmp_path, r, s, dims):
        # Such tensors have more basis paths than memory holds; the report needs only R S.
        r_path, s_path = write(tmp_path / "r.json", mat(r)), write(tmp_path / "s.json", mat(s))
        start = time.perf_counter()
        code, report, err = run(capsys, ["corr", "tensor", "--r", r_path, "--s", s_path])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert report["verdict"] == {
            "dims": dims,
            "basis_size": sum(map(sum, dims)),
            "left_index": list(range(len(r))),
            "right_index": list(range(len(s[0]))),
        }

    def test_tensor_of_a_mismatched_inner_dimension_is_data_error(self, files, capsys):
        code, report, err = run(capsys, ["corr", "tensor", "--r", files["r"], "--s", files["r"]])
        assert (code, report) == (65, None)
        assert err.startswith("shiftcalc: ") and err.count("\n") == 1


class TestAlignedAndHomotopy:
    def test_from_se_then_verify_roundtrip(self, files, capsys, tmp_path, golden_witness):
        witness_path = write(tmp_path / "w.json", witness_to_json(golden_witness))
        out_path = str(tmp_path / "shift.json")
        code, report, _ = run(
            capsys, ["aligned", "from-se", "--witness", witness_path, "--out", out_path]
        )
        assert code == 0
        assert report["verdict"]["concrete"] is True

        code, report, _ = run(capsys, ["aligned", "verify", "--data", out_path])
        assert code == 0
        assert report["verdict"]["aligned"] is True

    def test_huge_lag_bundle_verifies_at_once(self, capsys, tmp_path):
        one = mat([[1]])
        witness_path = write(tmp_path / "w.json", {"a": one, "b": one, "r": one, "s": one, "lag": 10**5})
        out_path = str(tmp_path / "shift.json")
        code, _, _ = run(capsys, ["aligned", "from-se", "--witness", witness_path, "--out", out_path])
        assert code == 0
        start = time.perf_counter()
        code, report, _ = run(capsys, ["aligned", "verify", "--data", out_path])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert report["verdict"]["aligned"] is True

    def test_verify_rejects_twisted_bundle(self, capsys, tmp_path, golden_witness):
        shift = build_from_se(golden_witness)
        doc = shift_to_json(shift)
        # Non-unitary corruption straight in the file.  At 1e200, U*U - I
        # overflows to inf and nan, which no tolerance accepts.
        key = sorted(doc["psi_x"]["blocks"])[0]
        for entry, options in (([5.0, 0.0], []), ([1e200, 0.0], ["--tol", "1e300"])):
            doc["psi_x"]["blocks"][key][0][0] = entry
            data = write(tmp_path / "bad.json", doc)
            with np.errstate(over="ignore", invalid="ignore"):
                code, report, _ = run(capsys, [*options, "aligned", "verify", "--data", data])
            assert code == 1
            assert report["verdict"]["concrete"] is False

    def test_a_bundle_with_array_labels_verifies(self, capsys, tmp_path, golden_witness):
        # JSON labels may be arrays, which cannot be hashed: nothing may key a cache by them.  Y's labels
        # 0 and 1 become [0] and [1], in the objects, the maps' indices and the block keys alike.
        doc = shift_to_json(build_from_se(golden_witness))
        doc["y"]["labels"] = [[0], [1]]
        for name, sides in (("phi_m", (False, True)), ("phi_n", (True, False)), ("psi_y", (True, True))):
            u = doc[name]
            for field, on_y in zip(("left_index", "right_index"), sides):
                u[field] = [[0], [1]] if on_y else u[field]
            u["blocks"] = {
                ",".join(f"[{v}]" if on_y else v for v, on_y in zip(key.split(","), sides)): block
                for key, block in u["blocks"].items()
            }
        code, report, err = run(capsys, ["aligned", "verify", "--data", write(tmp_path / "shift.json", doc)])
        assert (code, err) == (0, "")
        assert report["verdict"] == {"aligned": True, "concrete": True, "residuals": {"x": 0.0, "y": 0.0}}

    def test_shift_bundle_roundtrip_preserves_alignment(self, golden_witness):
        shift = build_from_se(golden_witness)
        text = io.StringIO()
        dump_json(shift_to_json(shift), text)
        again = shift_from_json(json.loads(text.getvalue()))
        assert verify_aligned(again)

    def test_homotopy_bundle_embedded_without_out(self, capsys, tmp_path, golden_witness):
        witness_path = write(tmp_path / "w.json", witness_to_json(golden_witness))
        code, report, _ = run(
            capsys, ["homotopy", "from-se", "--witness", witness_path, "--steps", "4"]
        )
        assert code == 0
        assert len(report["verdict"]["bundle"]["homotopy_y"]["samples"]) == 4

    def test_homotopy_bundle(self, capsys, tmp_path, golden_witness):
        witness_path = write(tmp_path / "w.json", witness_to_json(golden_witness))
        out_path = str(tmp_path / "bundle.json")
        code, report, _ = run(
            capsys,
            ["homotopy", "from-se", "--witness", witness_path, "--steps", "8", "--out", out_path],
        )
        assert code == 0
        assert report["verdict"] == {"verified_x": True, "verified_y": True, "steps": 8, "out": out_path}
        bundle = json.loads((tmp_path / "bundle.json").read_text())
        assert len(bundle["homotopy_x"]["samples"]) == 8
        assert bundle["shift"]["lag"] == 1


def bundle_witness(case):
    """The golden witness lifted to lag ``case``, or for ``"chain<k>"`` a folded
    random chain drawn from seed k (the chains listed below have homotopies with
    nonzero generators; every golden generator is exactly zero)."""
    import random

    from shiftcalc import compose_se, fold_chain, identity_witness, random_sse_chain
    from shiftcalc.selftest import GOLDEN_WITNESS, random_essential

    if isinstance(case, int):
        w = GOLDEN_WITNESS
        while w.lag < case:
            w = compose_se(w, identity_witness(w.b))
        return w
    rng = random.Random(int(case.removeprefix("chain")))
    return fold_chain(random_sse_chain(random_essential(rng), rng.randint(1, 2), seed=rng.randrange(10**6)))


CHAINS = ["chain0", "chain5", "chain6", "chain9", "chain10", "chain12", "chain17", "chain23"]


def stdlib_rendering(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ": "), indent=1) + "\n"


@pytest.mark.parametrize("lag", [1, 2, 3, 4, *CHAINS])
def test_homotopy_bundle_bytes_are_the_stdlib_rendering(capsys, tmp_path, lag):
    witness_path = write(tmp_path / "w.json", witness_to_json(bundle_witness(lag)))
    out_path = tmp_path / "bundle.json"
    argv = ["homotopy", "from-se", "--witness", witness_path, "--steps", "3"]
    for extra in ([], ["--out", str(out_path)]):
        assert main(argv + extra) == 0
        stdout = capsys.readouterr().out
        # Every float survives a JSON round trip, so the reloaded document
        # is the one the command wrote.
        assert stdout == stdlib_rendering(stdout)
    text = out_path.read_text()
    assert text == stdlib_rendering(text)
    if lag in CHAINS:
        # A nonzero generator makes the interior samples no permutations.
        doc = json.loads(text)
        blocks = [
            block for side in ("homotopy_x", "homotopy_y")
            for block in doc[side]["samples"][1]["unitary"]["blocks"].values()
        ]
        assert {x for block in blocks for row in block for pair in row for x in pair} - {0.0, 1.0}


def test_a_lag_6_bundle_is_written_without_holding_its_text(capsys, tmp_path):
    # The bundle is 25.4 MiB.  Its text built whole, joined and encoded would take
    # a few times that, and the samples of the two paths 10.6 MiB if they were held;
    # streamed, with each sample made as it is checked or written, the peak is 5.0 MiB.
    import tracemalloc

    witness_path = write(tmp_path / "w.json", witness_to_json(bundle_witness(6)))
    out_path = tmp_path / "bundle.json"
    # A warm-up run, so that what is made once per process is not counted in the traced run.
    assert main(["homotopy", "from-se", "--witness", witness_path, "--steps", "2"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["homotopy", "from-se", "--witness", witness_path, "--steps", "16", "--out", str(out_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out
    assert peak < out_path.stat().st_size
    assert peak <= 7 << 20


def traced_peak(argv) -> int:
    """The tracemalloc peak, in bytes, of ``main(argv)``, which must exit 0."""
    import tracemalloc

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def eager_homotopy_bundle(w: SEWitness, steps: int) -> str:
    """The ``homotopy from-se`` bundle text with every sample made by the dense formula
    U0 expm(t H), H the Schur-form log of W = U0* U1 per block, all held before writing."""
    import scipy.linalg

    from shiftcalc import BlockUnitary, conjugate_arrow
    from shiftcalc.jsonio import block_unitary_to_json, homotopy_to_json
    from tests.test_homotopy import schur_log

    shift, *homotopies = homotopy_shift_equivalence_from_se(w, steps=steps)
    bundle = {"schema": SCHEMA, "witness": witness_to_json(w), "steps": steps,
              "shift": shift_to_json(shift, _arrays=True)}
    for side, h in zip(("homotopy_x", "homotopy_y"), homotopies):
        u0, u1 = h.f_arrow.phi, conjugate_arrow(h.g_arrow, h.h1.adjoint()).phi
        logs = {ij: schur_log(m.conj().T @ u1.blocks[ij]) for ij, m in u0.blocks.items()}
        samples = [
            (k / (steps - 1), {ij: m @ scipy.linalg.expm(k / (steps - 1) * logs[ij]) for ij, m in u0.blocks.items()})
            for k in range(steps)
        ]
        doc = homotopy_to_json(h, _arrays=True)
        doc["samples"] = [
            {"t": t, "unitary": block_unitary_to_json(BlockUnitary(u0.source, u0.target, blocks), _arrays=True)}
            for t, blocks in samples
        ]
        bundle[side] = doc
    text = io.StringIO()
    dump_json(bundle, text)
    return text.getvalue()


def test_homotopy_memory_is_flat_in_steps_and_its_bundles_are_the_eager_ones(capsys, tmp_path):
    # A path makes each sample when it is checked or written, so 64 steps take what 16 do;
    # and the bundles at the benchmark's lags are those of samples made and held up front.
    witness_path = write(tmp_path / "w.json", witness_to_json(bundle_witness(5)))
    argv = ["homotopy", "from-se", "--witness", witness_path, "--out", str(tmp_path / "h.json"), "--steps"]
    traced_peak([*argv, "2"])  # what is made once per process is not counted below
    sixteen, sixty_four = traced_peak([*argv, "16"]), traced_peak([*argv, "64"])
    assert abs(sixty_four - sixteen) <= 1 << 20, (sixteen, sixty_four)
    for lag in (4, 5, 6):
        w = bundle_witness(lag)
        witness_path = write(tmp_path / "w.json", witness_to_json(w))
        assert main(["homotopy", "from-se", "--witness", witness_path, "--steps", "16", "--out", str(tmp_path / "h.json")]) == 0
        assert (tmp_path / "h.json").read_text() == eager_homotopy_bundle(w, 16)
    capsys.readouterr()


def test_huge_steps_are_refused_before_sampling(capsys, tmp_path):
    # 3 * 10**6 samples of the 32 x 32 block at lag 4 would take 57 GB.
    witness_path = write(tmp_path / "w.json", witness_to_json(bundle_witness(4)))
    start = time.perf_counter()
    code, report, err = run(
        capsys, ["homotopy", "from-se", "--witness", witness_path, "--steps", "3000000", "--out", str(tmp_path / "h.json")]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 65 and report is None
    assert err == "shiftcalc: 3000000 samples would take 57216000000 bytes, above the 1073741824 a path may take\n"


@pytest.mark.parametrize("steps", ["1", "0", "-3"])
def test_too_few_steps_are_refused_before_the_shift_is_built(capsys, tmp_path, monkeypatch, steps):
    # The path preflight refuses them with the witness checked, before any structure map is made.
    import shiftcalc.aligned

    calls = []
    assemble = shiftcalc.aligned.assemble_shift

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(shiftcalc.aligned, "assemble_shift", counted)
    witness_path = write(tmp_path / "w.json", witness_to_json(bundle_witness(8)))
    code, report, err = run(capsys, ["homotopy", "from-se", "--witness", witness_path, "--steps", steps])
    assert (code, report, calls) == (65, None, [])
    assert err == "shiftcalc: need at least two samples\n"


def test_both_paths_are_refused_before_either_is_sampled(capsys, tmp_path, golden_witness):
    # The X path alone (883200000 bytes) would fit; the Y path does not.
    witness_path = write(tmp_path / "w.json", witness_to_json(golden_witness))
    start = time.perf_counter()
    code, report, err = run(capsys, ["homotopy", "from-se", "--witness", witness_path, "--steps", "300000"])
    assert time.perf_counter() - start < 1.0
    assert code == 65 and report is None
    assert err == "shiftcalc: 300000 samples would take 1459200000 bytes, above the 1073741824 a path may take\n"


def failed_homotopy_run(capsys, tmp_path):
    """``homotopy from-se`` at tol 1e-300, where the first sample of each side already has a rounding defect."""
    from shiftcalc import fold_chain, random_sse_chain

    witness = fold_chain(random_sse_chain(from_rows([[2, 1], [1, 2]]), 2, seed=0))
    witness_path = write(tmp_path / "w.json", witness_to_json(witness))
    argv = ["--tol", "1e-300", "homotopy", "from-se", "--witness", witness_path, "--steps", "4", "--out", str(tmp_path / "h.json")]
    return run(capsys, argv)


def test_a_failed_homotopy_names_its_first_defect_per_side(capsys, tmp_path):
    code, report, err = failed_homotopy_run(capsys, tmp_path)
    assert code == 1
    assert report["verdict"] == {"verified_x": False, "verified_y": False, "steps": 4, "out": str(tmp_path / "h.json")}
    x_line, y_line = err.splitlines()
    assert x_line.startswith("homotopy x: sample 0 (t=0) is not unitary: defect ")
    assert y_line.startswith("homotopy y: sample 0 (t=0) is not unitary: defect ")


def test_each_side_is_checked_once(capsys, tmp_path, monkeypatch):
    # Its verdict and its stderr line come from one check, whichever name reaches it.
    from shiftcalc import cli, homotopy

    checked, check = [], homotopy.homotopy_failure

    def counted(h, tol):
        checked.append(h)
        return check(h, tol)

    monkeypatch.setattr(homotopy, "homotopy_failure", counted)
    monkeypatch.setattr(cli, "homotopy_failure", counted)
    code, report, err = failed_homotopy_run(capsys, tmp_path)
    assert code == 1 and err.count("\n") == 2
    assert len(checked) == 2 and checked[0] is not checked[1]


def test_steps_of_small_blocks_are_refused_by_what_each_sample_holds(capsys, tmp_path):
    # 2**25 samples of the identity witness's 1 x 1 blocks make 512 MiB of arrays,
    # and each sample's objects and bundle text are charged about 90 GB more.
    one = from_rows([[1]])
    witness_path = write(tmp_path / "w.json", witness_to_json(SEWitness(one, one, one, one, 1)))
    start = time.perf_counter()
    code, report, err = run(capsys, ["homotopy", "from-se", "--witness", witness_path, "--steps", str(2**25)])
    assert time.perf_counter() - start < 1.0
    assert code == 65 and report is None
    assert err.startswith(f"shiftcalc: {2**25} samples would take ") and err.count("\n") == 1


def test_paths_are_refused_before_either_side_is_built(capsys, tmp_path, golden_witness, monkeypatch):
    # Both paths are sized from the witness's dims: no composite arrow or
    # conjugated intertwiner is made before the Y path is refused.
    from shiftcalc import homotopy

    def unreachable(*args):
        raise AssertionError("a side was built before both paths were sized")

    monkeypatch.setattr(homotopy, "compose_one_arrows", unreachable)
    monkeypatch.setattr(homotopy, "conjugate_arrow", unreachable)
    witness_path = write(tmp_path / "w.json", witness_to_json(golden_witness))
    code, report, err = run(capsys, ["homotopy", "from-se", "--witness", witness_path, "--steps", "300000"])
    assert code == 65 and report is None
    assert err == "shiftcalc: 300000 samples would take 1459200000 bytes, above the 1073741824 a path may take\n"


def run_with_file_size_limit(argv, limit: int, umask: int = 0o027):
    """``main(argv)`` in a child process that may write files of at most ``limit`` bytes and
    runs under ``umask``; returns (exit code, stderr)."""
    import shiftcalc

    code = (
        "import os, resource, sys\n"
        "from shiftcalc.cli import main\n"
        f"os.umask({umask})\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(shiftcalc.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
    )
    return done.returncode, done.stderr


class TestOutIsCompleteOrAbsent:
    """A bundle is written beside its target and renamed onto it only once complete."""

    @staticmethod
    def argv(tmp_path, golden_witness, steps: int, out) -> list:
        witness_path = write(tmp_path / "w.json", witness_to_json(golden_witness))
        return ["homotopy", "from-se", "--witness", witness_path, "--steps", str(steps), "--out", str(out)]

    def test_a_write_past_the_file_size_limit_leaves_no_file(self, tmp_path, golden_witness):
        # 4000 samples of the golden witness render to more than 1 MB; the limit is 200 KiB.
        argv = self.argv(tmp_path, golden_witness, 4000, tmp_path / "big.json")
        assert run_with_file_size_limit(argv, 200 << 10) == (65, "shiftcalc: [Errno 27] File too large\n")
        assert sorted(os.listdir(tmp_path)) == ["w.json"]

    def test_a_failed_write_leaves_an_existing_bundle_byte_identical(self, tmp_path, golden_witness):
        out = tmp_path / "h.json"
        assert run_with_file_size_limit(self.argv(tmp_path, golden_witness, 8, out), 200 << 10) == (0, "")
        before = out.read_bytes()
        code, err = run_with_file_size_limit(self.argv(tmp_path, golden_witness, 4000, out), 200 << 10)
        assert (code, err) == (65, "shiftcalc: [Errno 27] File too large\n")
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["h.json", "w.json"]

    def test_a_written_bundle_takes_its_mode_from_the_umask(self, tmp_path, golden_witness):
        out = tmp_path / "h.json"
        assert run_with_file_size_limit(self.argv(tmp_path, golden_witness, 8, out), 200 << 10, 0o027) == (0, "")
        assert out.stat().st_mode & 0o777 == 0o640

    def test_an_interrupted_write_leaves_no_file(self, tmp_path, golden_witness, monkeypatch):
        from shiftcalc import jsonio

        def interrupted(doc, fh):
            fh.write("{")
            raise KeyboardInterrupt

        monkeypatch.setattr(jsonio, "dump_json", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(self.argv(tmp_path, golden_witness, 8, tmp_path / "h.json"))
        assert sorted(os.listdir(tmp_path)) == ["w.json"]

    def test_a_symlinked_target_keeps_its_link(self, capsys, tmp_path, golden_witness):
        # The bundle replaces the file the link names, as writing through the link did.
        (tmp_path / "link.json").symlink_to("real.json")
        code, _, _ = run(capsys, self.argv(tmp_path, golden_witness, 8, tmp_path / "link.json"))
        assert code == 0 and (tmp_path / "link.json").is_symlink()
        assert json.loads((tmp_path / "real.json").read_text())["steps"] == 8

    def test_a_device_is_written_in_place(self, capsys, tmp_path, golden_witness):
        code, report, _ = run(capsys, self.argv(tmp_path, golden_witness, 8, os.devnull))
        assert code == 0 and report["verdict"]["out"] == os.devnull
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def run_in_two_gigabytes(calls, trace=False):
    """(exit code, seconds, stderr, stdout) of ``main`` on each argv of ``calls``, in turn, in
    one child process limited to 2 GiB of address space: a call that would run the host short
    of memory fails there with a ``MemoryError`` (exit 70) instead.  With ``trace``, each
    call's tracemalloc peak in bytes follows, traced in that child only then."""
    import resource

    import shiftcalc

    src = os.path.dirname(os.path.dirname(shiftcalc.__file__))
    code = (
        "import contextlib, io, json, sys, time, tracemalloc\n"
        "from shiftcalc.cli import main\n"
        f"trace = {trace}\n"
        "results = []\n"
        "if trace:\n"
        "    tracemalloc.start()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err, start = io.StringIO(), io.StringIO(), time.perf_counter()\n"
        "    tracemalloc.reset_peak()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    result = [code, time.perf_counter() - start, err.getvalue(), out.getvalue()]\n"
        "    results.append(result + [tracemalloc.get_traced_memory()[1]] if trace else result)\n"
        "print(json.dumps(results))\n"
    )
    limit = 2 << 30
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_steps_are_refused_from_dims_before_the_sides_are_built(tmp_path):
    # X (x) X^(x)12 has one 8192 x 8192 block: 1 GiB per sample.  Building the
    # composite arrows to read that size ran out of memory, and the shift's four
    # structure maps would take 641 MiB traced: the paths are sized before those are made.
    big = mat([[64]])
    w = {"a": mat([[2]]), "b": mat([[2]]), "r": big, "s": big, "lag": 12}
    witness_path = write(tmp_path / "w.json", w)
    results = run_in_two_gigabytes(
        [["homotopy", "from-se", "--witness", witness_path, "--steps", steps] for steps in ("16", "2")], trace=True
    )
    assert [(code, err) for code, _, err, _, _ in results] == [
        (65, "shiftcalc: 16 samples would take 17179912192 bytes, above the 1073741824 a path may take\n"),
        (65, "shiftcalc: 2 samples would take 2147489024 bytes, above the 1073741824 a path may take\n"),
    ]
    assert all(peak < 64 << 20 for *_, peak in results)


def test_the_edge_bases_are_built_only_after_the_paths_are_sized(tmp_path):
    # [[e]] ~ [[e]] through R = [[1]] and S = [[e]]: X (x) X^(x)1 has one e^2 x e^2 block, refused
    # from the dims before the edge bases of A, B and S, 8 bytes per edge (240 MB here), are built.
    e = mat([[10**7]])
    witness_path = write(tmp_path / "w.json", {"a": e, "b": e, "r": mat([[1]]), "s": e, "lag": 1})
    [(code, seconds, err, _, peak)] = run_in_two_gigabytes([["homotopy", "from-se", "--witness", witness_path]], trace=True)
    predicted = 16 * (2048 + 640 + 16 * 10**28)
    assert (code, err) == (65, f"shiftcalc: 16 samples would take {predicted} bytes, above the 1073741824 a path may take\n")
    assert peak < 16 << 20 and seconds < 1.0


def edge_bundle(e: int) -> dict:
    """The shift bundle of [[e]] ~ [[e]] through M = [[1]] and N = [[e]] at lag 1, whose four
    maps hold no block: under 1 kB, with a basis of e edges in X, Y and N."""
    obj = {"labels": [0], "matrix": mat([[e]])}
    empty = {"schema": SCHEMA, "left_index": [0], "right_index": [0], "dims": [[1]], "blocks": {}}
    maps = dict.fromkeys(("phi_m", "phi_n", "psi_x", "psi_y"), empty)
    return {"schema": SCHEMA, "x": obj, "y": obj, "lag": 1, "m_dims": mat([[1]]), "n_dims": mat([[e]]), **maps}


@pytest.mark.parametrize("command", ["aligned from-se", "aligned verify"])
def test_a_shift_is_sized_from_its_integer_record_before_any_edge_basis(tmp_path, command):
    # [[e]] ~ [[e]] through R = [[1]] and S = [[e]], as a witness or as a bundle: the structure maps
    # are refused from the integer matrices, at e = 10**7 within 5 MB of e = 10**3, before the
    # edge bases of A, B and S, 8 bytes per edge (240 MB here), are built.
    def argv(e):
        if command == "aligned verify":
            return ["aligned", "verify", "--data", write(tmp_path / f"s{e}.json", edge_bundle(e))]
        w = {"a": mat([[e]]), "b": mat([[e]]), "r": mat([[1]]), "s": mat([[e]]), "lag": 1}
        return ["aligned", "from-se", "--witness", write(tmp_path / f"w{e}.json", w)]

    small, (code, seconds, err, _, peak) = run_in_two_gigabytes([argv(10**3), argv(10**7)], trace=True)
    predicted = 240000000000007200000000000000
    assert (code, err) == (65, f"shiftcalc: the structure maps would take {predicted} bytes, above the 1073741824 a shift may take\n")
    assert small[0] == 65 and "the structure maps would take" in small[2]
    assert peak < 16 << 20 and peak < small[4] + 5_000_000 and seconds < 1.0


def arrow_file(tmp_path, name, source, target, f, phi_dims, blocks) -> str:
    """An arrow file between the objects ``source`` and ``target``, vertices labelled 0, 1, ...,
    through F = ``f``, whose phi declares ``phi_dims`` and holds ``blocks``."""
    source, target = ({"labels": list(range(len(rows))), "matrix": mat(rows)} for rows in (source, target))
    phi = {"schema": SCHEMA, "left_index": target["labels"], "right_index": source["labels"], "dims": phi_dims,
           "blocks": blocks}
    doc = {"schema": SCHEMA, "source": source, "target": target, "f_dims": mat(f), "phi": phi}
    return write(tmp_path / name, doc)


@pytest.mark.parametrize("case", ["heavy phi", "unequal dims"])
def test_an_arrow_is_sized_from_its_integer_record_before_any_edge_basis(tmp_path, case):
    # Source [[e]] and F = [[1]], read by `corr check-2arrow` as --f and --g.  Onto the target [[e]],
    # phi would hold one e x e block; onto the target [[1]], B F = [[1]] is not F A = [[e]].  Both are
    # refused from the integer matrices, at e = 10**7 within 5 MB of e = 10**3, before the edge
    # bases of the objects, 8 bytes per edge, are built.
    def argv(e):
        if case == "heavy phi":
            path = arrow_file(tmp_path, f"f{e}.json", [[e]], [[e]], [[1]], [[e]], {})
        else:
            path = arrow_file(tmp_path, f"f{e}.json", [[e]], [[1]], [[1]], [[1]], {"0,0": [[[1.0, 0.0]]]})
        return ["corr", "check-2arrow", "--psi", path, "--f", path, "--g", path]

    small, (code, seconds, err, _, peak) = run_in_two_gigabytes([argv(10**3), argv(10**7)], trace=True)
    refusal = {
        "heavy phi": "phi would take 2400000000000000 bytes, above the 1073741824 an arrow may take",
        "unequal dims": "the arrow's F does not fit its objects: B F = F A fails",
    }[case]
    assert (code, err) == (65, f"shiftcalc: {refusal}\n")
    # At e = 10**3 phi would take 24 MB, within the bound, so its missing block refuses it.
    small_refusal = "missing block '0,0'" if case == "heavy phi" else refusal
    assert (small[0], small[2]) == (65, f"shiftcalc: {small_refusal}\n")
    assert peak < 16 << 20 and peak < small[4] + 5_000_000 and seconds < 1.0


@pytest.mark.parametrize("case", ["missing block", "complete"])
def test_an_arrow_builds_no_basis_of_a_vertex_its_f_never_reaches(tmp_path, case):
    # Source diag(1, e), target [[1]] and F = [[1, 0]]: B F = F A = [[1, 0]], so phi is one 1 x 1
    # block and every guard passes.  A correspondence holds its ends only once tensor_unitaries reads
    # them, and nothing reads those of the source's e loops, 8 bytes apiece: at e = 10**7 the check
    # refuses phi's missing block, or passes psi = 1, within 5 MB of e = 10**3.
    one = {"0,0": [[[1.0, 0.0]]]}
    psi = {"schema": SCHEMA, "left_index": [0], "right_index": [0, 1], "dims": [[1, 0]], "blocks": one}
    psi_path = write(tmp_path / "psi.json", psi)

    def argv(e):
        blocks = {} if case == "missing block" else one
        path = arrow_file(tmp_path, f"f{e}.json", [[1, 0], [0, e]], [[1]], [[1, 0]], [[1, 0]], blocks)
        return ["corr", "check-2arrow", "--psi", psi_path, "--f", path, "--g", path]

    small, (code, seconds, err, out, peak) = run_in_two_gigabytes([argv(10**3), argv(10**7)], trace=True)
    if case == "missing block":
        assert (code, err) == (small[0], small[2]) == (65, "shiftcalc: missing block '0,0'\n")
    else:
        verdict = json.loads(out)["verdict"]
        assert (code, err) == (small[0], small[2]) == (0, "")
        assert verdict == json.loads(small[3])["verdict"] and verdict["two_arrow"] is True
    assert peak < 16 << 20 and peak < small[4] + 5_000_000 and seconds < 1.0


@pytest.mark.parametrize("command", ["aligned from-se", "homotopy from-se", "aligned verify"])
def test_an_object_is_checked_for_essential_dims_before_its_basis(tmp_path, command):
    # x = [[0, e], [0, 0]] ~ y = [[0]] through R = 0 and S = 0 at lag 2: the witness verifies and all
    # four maps have dims 0, but x has a zero row and a zero column.  It is refused from its matrix,
    # at e = 10**7 within 5 MB of e = 10**3, before its basis of e edges, 8 bytes apiece, is built.
    def argv(e):
        x, y, r, s = mat([[0, e], [0, 0]]), mat([[0]]), mat([[0], [0]]), mat([[0, 0]])
        if command == "aligned verify":
            maps = dict.fromkeys(("phi_m", "phi_n", "psi_x", "psi_y"), {})
            bundle = {"schema": SCHEMA, "x": {"labels": [0, 1], "matrix": x}, "y": {"labels": [0], "matrix": y},
                      "lag": 2, "m_dims": r, "n_dims": s, **maps}
            return ["aligned", "verify", "--data", write(tmp_path / f"s{e}.json", bundle)]
        witness = write(tmp_path / f"w{e}.json", {"a": x, "b": y, "r": r, "s": s, "lag": 2})
        return [*command.split(), "--witness", witness]

    small, (code, seconds, err, _, peak) = run_in_two_gigabytes([argv(10**3), argv(10**7)], trace=True)
    refusal = "shiftcalc: object correspondence must have essential dims\n"
    assert (code, err) == (small[0], small[2]) == (65, refusal)
    assert peak < 16 << 20 and peak < small[4] + 5_000_000 and seconds < 1.0


def test_no_identity_factor_is_multiplied_on_the_command_line(capsys, tmp_path, monkeypatch):
    # Golden shifts, and the golden lag-3 shift conjugated by Haar-random factors as the
    # dense-homotopy bench builds its fixtures: every u (x) 1_F is placed, so np.kron never runs.
    from shiftcalc.aligned import conjugate_shift
    from shiftcalc.corr import random_block_unitary

    rng = np.random.default_rng(101)
    shift = build_from_se(bundle_witness(3))
    dense = conjugate_shift(shift, random_block_unitary(shift.m_arrow.f, rng), random_block_unitary(shift.n_arrow.f, rng))
    dense_path = write(tmp_path / "dense.json", shift_to_json(dense))
    kron, calls = np.kron, []
    monkeypatch.setattr(np, "kron", lambda a, b: calls.append((a.shape, b.shape)) or kron(a, b))
    for lag in (1, 2, 3):
        witness_path = write(tmp_path / f"w{lag}.json", witness_to_json(bundle_witness(lag)))
        shift_path = str(tmp_path / f"shift{lag}.json")
        for argv in (
            ["aligned", "from-se", "--witness", witness_path, "--out", shift_path],
            ["aligned", "verify", "--data", shift_path],
            ["homotopy", "from-se", "--witness", witness_path, "--steps", "4"],
        ):
            assert run(capsys, argv)[0] == 0  # each verdict holds
    code, report, _ = run(capsys, ["aligned", "verify", "--data", dense_path])
    assert code == 0 and report["verdict"]["aligned"] is True
    assert calls == []


@pytest.mark.parametrize("steps", ["1", "2", "16", "300000"])
def test_an_unverified_witness_is_refused_before_its_paths_are_sized(capsys, tmp_path, golden_witness, steps):
    # Whatever --steps is, even one the paths would refuse, the witness is checked first.
    doc = witness_to_json(golden_witness)
    doc["lag"] = 2
    code, report, err = run(capsys, ["homotopy", "from-se", "--witness", write(tmp_path / "w.json", doc), "--steps", steps])
    assert (code, report) == (65, None)
    assert err == "shiftcalc: build_from_se requires a verified witness\n"


def test_structure_maps_are_refused_from_dims_before_any_is_made(capsys, tmp_path):
    # M (x) N and N (x) M each have one 16384 x 16384 block: 4 GiB of complex entries
    # apiece, which ran out of memory while the first identity was made.
    big = mat([[128]])
    w = {"a": mat([[2]]), "b": mat([[2]]), "r": big, "s": big, "lag": 14}
    witness_path = write(tmp_path / "w.json", w)
    refusal = "shiftcalc: the structure maps would take 12888047616 bytes, above the 1073741824 a shift may take\n"
    # The bounded child first: without the refusal, this process would try to allocate them.
    [(code, seconds, err, _)] = run_in_two_gigabytes([["aligned", "from-se", "--witness", witness_path]])
    assert (code, err) == (65, refusal) and seconds < 1.0
    start = time.perf_counter()
    code, report, err = run(capsys, ["aligned", "from-se", "--witness", witness_path])
    assert time.perf_counter() - start < 1.0
    assert (code, report, err) == (65, None, refusal)


def test_a_tensor_power_of_a_huge_lag_is_built_at_once(tmp_path):
    # Every dims entry is 1 or 0, so the structure maps are 1x1 or 2x2 blocks, while
    # X^(x)lag holds lag atomic factors: as one run, in O(log lag) tensors.
    swap = mat([[0, 1], [1, 0]])
    one = mat([[1]])
    swap_witness = {"a": swap, "b": swap, "r": mat([[1, 0], [0, 1]]), "s": swap, "lag": 2**30 + 1}
    swap_path = write(tmp_path / "swap.json", swap_witness)
    one_path = write(tmp_path / "one.json", {"a": one, "b": one, "r": one, "s": one, "lag": 2**30})
    bundle = shift_to_json(build_from_se(SEWitness(*[from_rows([[1]])] * 4, 1)))
    bundle["lag"] = 2**30
    bundle_path = write(tmp_path / "shift.json", bundle)
    results = run_in_two_gigabytes(
        [
            ["aligned", "from-se", "--witness", swap_path],
            ["homotopy", "from-se", "--steps", "2", "--witness", one_path],
            ["aligned", "verify", "--data", bundle_path],
        ]
    )
    for code, seconds, err, _ in results:
        assert (code, err) == (0, "") and seconds < 1.0
    swap_report, one_report, bundle_report = (json.loads(out)["verdict"] for *_, out in results)
    assert swap_report["aligned"] is True
    assert one_report["verified_x"] is True and one_report["verified_y"] is True
    assert bundle_report["residuals"] == {"x": 0.0, "y": 0.0}


class TestCheckTwoArrow:
    @pytest.fixture
    def arrow_files(self, tmp_path):
        import numpy as np

        from shiftcalc import (
            conjugate_arrow,
            object_pair,
            power_arrow,
            random_block_unitary,
        )
        from shiftcalc.jsonio import arrow_to_json, block_unitary_to_json

        rng = np.random.default_rng(2025)
        # Endo-arrow on the full 2-shift: its correspondence has a 2-dim block.
        f = power_arrow(object_pair(from_rows([[2]])), 1)
        u = random_block_unitary(f.f, rng)
        g = conjugate_arrow(f, u)
        twisted = u.replace_block(0, 0, np.diag([np.exp(0.4j), 1.0]) @ u.block(0, 0))
        return {
            "f": write(tmp_path / "f.json", arrow_to_json(f)),
            "g": write(tmp_path / "g.json", arrow_to_json(g)),
            "psi": write(tmp_path / "psi.json", block_unitary_to_json(u)),
            "bad_psi": write(tmp_path / "bad_psi.json", block_unitary_to_json(twisted)),
        }

    def test_valid_two_arrow_exit_zero(self, arrow_files, capsys):
        code, report, _ = run(
            capsys,
            ["corr", "check-2arrow", "--psi", arrow_files["psi"],
             "--f", arrow_files["f"], "--g", arrow_files["g"]],
        )
        assert code == 0
        assert report["verdict"]["two_arrow"] is True
        assert report["verdict"]["residual"] <= 1e-9

    def test_twisted_psi_exit_one(self, arrow_files, capsys):
        code, report, _ = run(
            capsys,
            ["corr", "check-2arrow", "--psi", arrow_files["bad_psi"],
             "--f", arrow_files["f"], "--g", arrow_files["g"]],
        )
        assert code == 1
        assert report["verdict"]["two_arrow"] is False

    def test_shape_mismatch_is_data_error(self, arrow_files, capsys, tmp_path):
        other = write(tmp_path / "mat.json", mat([[1]]))
        code, _, _ = run(
            capsys,
            ["corr", "check-2arrow", "--psi", other,
             "--f", arrow_files["f"], "--g", arrow_files["g"]],
        )
        assert code == 65


class TestFromSeOverrides:
    def test_psi_override_roundtrip(self, capsys, tmp_path, golden_witness):
        import numpy as np

        from shiftcalc import build_from_se
        from shiftcalc.jsonio import block_unitary_to_json, witness_to_json

        shift = build_from_se(golden_witness)
        # Re-feed the canonical psi_x rotated by a diagonal phase on one
        # basis vector: still unitary, no longer aligned.
        phase = np.diag([np.exp(0.5j), 1.0])
        twisted = shift.psi_x.replace_block(0, 0, phase @ shift.psi_x.block(0, 0))
        witness_path = write(tmp_path / "w.json", witness_to_json(golden_witness))
        psi_path = write(tmp_path / "psi_x.json", block_unitary_to_json(twisted))
        code, report, _ = run(
            capsys,
            ["aligned", "from-se", "--witness", witness_path, "--psi-x", psi_path],
        )
        assert code == 0  # still a concrete shift
        assert report["verdict"]["concrete"] is True
        assert report["verdict"]["aligned"] is False
        assert "shift" in report["verdict"]


class TestDeterminism:
    def test_byte_identical_stdout(self, files, capsys):
        def capture(argv):
            main(argv)
            return capsys.readouterr().out

        argv = ["compare", "--a", files["two"], "--b", files["three"]]
        assert capture(argv) == capture(argv)

    def test_env_tolerance_override(self, files, capsys, monkeypatch):
        monkeypatch.setenv("SHIFTCALC_TOL", "1e-6")
        code, report, _ = run(capsys, ["invariants", "--a", files["two"]])
        assert code == 0
        assert report["tolerances"]["tol"] == 1e-6

    def test_flag_overrides_env(self, files, capsys, monkeypatch):
        monkeypatch.setenv("SHIFTCALC_TOL", "1e-6")
        code, report, _ = run(capsys, ["--tol", "1e-12", "invariants", "--a", files["two"]])
        assert report["tolerances"]["tol"] == 1e-12

    def test_each_input_is_read_once_and_digested_as_decoded(self, files, capsys, tmp_path, golden_witness, monkeypatch):
        shift = write(tmp_path / "shift.json", shift_to_json(build_from_se(golden_witness)))
        matrices = [files["two"], files["pair"], files["r"], files["s"]]
        calls = [
            (["verify-se", "--a", matrices[0], "--b", matrices[1], "--r", matrices[2], "--s", matrices[3], "--lag", "1"],
             matrices),
            (["aligned", "verify", "--data", shift], [shift]),
        ]
        digests = {p: "sha256:" + hashlib.sha256(open(p, "rb").read()).hexdigest() for p in [*matrices, shift]}
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        for argv, paths in calls:
            opened.clear()
            code, report, _ = run(capsys, argv)
            assert code == 0
            assert opened == paths
            assert report["inputs"] == {p: digests[p] for p in paths}

    def test_aligned_verify_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The golden lag-7 shift conjugated by Haar-random factors, as the
        # dense-homotopy bench builds its fixtures: its residuals are operator
        # norms of dense 128 x 128 and 256 x 256 differences, whose SVD gave
        # other last bits on 2 and 4 OpenBLAS threads than on 1.
        import shiftcalc
        from shiftcalc.aligned import conjugate_shift
        from shiftcalc.corr import random_block_unitary

        rng = np.random.default_rng(101)
        shift = build_from_se(bundle_witness(7))
        dense = conjugate_shift(
            shift, random_block_unitary(shift.m_arrow.f, rng), random_block_unitary(shift.n_arrow.f, rng)
        )
        data = tmp_path / "dense.json"
        with open(data, "w", encoding="utf-8") as f:
            dump_json(shift_to_json(dense), f)
        src = os.path.dirname(os.path.dirname(shiftcalc.__file__))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "shiftcalc.cli", "aligned", "verify", "--data", str(data)],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t},
                capture_output=True,
                text=True,
            )
            for t in ("1", "2", "4")
        ]
        assert {(r.returncode, r.stdout, r.stderr) for r in runs} == {(runs[0].returncode, runs[0].stdout, "")}
        assert runs[0].returncode == 0 and json.loads(runs[0].stdout)["verdict"]["aligned"] is True


class TestBadInputs:
    @pytest.mark.parametrize(
        "entry", [["re", 0.0], [0.0, None], [float("nan"), 0.0], [0.0, float("inf")], [10**400, 0]]
    )
    def test_bad_block_entry_is_data_error(self, capsys, tmp_path, golden_witness, entry):
        doc = shift_to_json(build_from_se(golden_witness))
        key = sorted(doc["psi_x"]["blocks"])[0]
        doc["psi_x"]["blocks"][key][0][0] = entry
        data = write(tmp_path / "bad.json", doc)
        code, report, err = run(capsys, ["aligned", "verify", "--data", data])
        assert code == 65
        assert report is None
        assert f"block '{key}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "part, field, value",
        [("x", "labels", 5), ("psi_x", "left_index", 5), ("psi_x", "right_index", 5),
         ("psi_x", "dims", [1]), ("psi_y", "dims", [[True, 1], [1, 1]]), ("psi_x", "blocks", 5)],
    )
    def test_malformed_bundle_field_is_data_error(self, capsys, tmp_path, golden_witness, part, field, value):
        doc = shift_to_json(build_from_se(golden_witness))
        doc[part][field] = value
        data = write(tmp_path / "bad.json", doc)
        code, report, err = run(capsys, ["aligned", "verify", "--data", data])
        assert code == 65
        assert report is None
        assert f"'{field}'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("shape", [(True, True), (True, 1), (1, True)])
    def test_bool_matrix_shape_is_data_error(self, capsys, tmp_path, shape):
        doc = {"rows": shape[0], "cols": shape[1], "entries": [[2]]}
        code, report, err = run(capsys, ["invariants", "--a", write(tmp_path / "a.json", doc)])
        assert code == 65
        assert report is None
        assert "matrix shape must be integers" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", [["homotopy", "from-se", "--witness"], ["aligned", "from-se", "--witness"]]
    )
    def test_bool_witness_lag_is_data_error(self, capsys, tmp_path, golden_witness, command):
        doc = witness_to_json(golden_witness)
        doc["lag"] = True
        code, report, err = run(capsys, [*command, write(tmp_path / "w.json", doc)])
        assert code == 65
        assert report is None
        assert "witness lag must be an integer" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", [["homotopy", "from-se", "--witness"], ["aligned", "from-se", "--witness"]]
    )
    def test_unverified_witness_is_data_error(self, capsys, tmp_path, command):
        bad = SEWitness(from_rows([[2]]), from_rows([[3]]), from_rows([[1]]), from_rows([[2]]), 1)
        code, report, err = run(capsys, [*command, write(tmp_path / "w.json", witness_to_json(bad))])
        assert code == 65
        assert report is None
        assert err == "shiftcalc: build_from_se requires a verified witness\n"

    def test_unverified_huge_lag_builds_no_power(self, capsys, tmp_path, golden_witness, monkeypatch):
        # X^(x)40 would need 2**40 basis vectors: the witness is checked before
        # any structure map gets its endpoints.
        import shiftcalc.aligned

        def refuse(*args):
            raise AssertionError("power_correspondence called")

        monkeypatch.setattr(shiftcalc.aligned, "power_correspondence", refuse)
        doc = witness_to_json(golden_witness)
        doc["lag"] = 40
        code, report, err = run(capsys, ["aligned", "from-se", "--witness", write(tmp_path / "w.json", doc)])
        assert (code, report) == (65, None)
        assert err == "shiftcalc: build_from_se requires a verified witness\n"

    def test_colliding_block_keys_are_data_error(self, capsys, tmp_path):
        from tests.test_jsonio import colliding_bundle

        data = write(tmp_path / "s.json", colliding_bundle())
        code, report, err = run(capsys, ["aligned", "verify", "--data", data])
        assert (code, report) == (65, None)
        assert err.count("\n") == 1
        assert err.startswith("shiftcalc: two blocks share the key '0,1,1'")

    def test_bool_shift_lag_is_data_error(self, capsys, tmp_path, golden_witness):
        doc = shift_to_json(build_from_se(golden_witness))
        doc["lag"] = True
        code, report, err = run(capsys, ["aligned", "verify", "--data", write(tmp_path / "s.json", doc)])
        assert code == 65
        assert report is None
        assert "lag must be a positive integer" in err and err.count("\n") == 1

    @pytest.mark.parametrize("lag", [40, 10**9])
    def test_huge_shift_lag_is_a_quick_data_error(self, capsys, tmp_path, golden_witness, lag):
        # X^(x)lag would need 2**lag basis vectors: the lag must be rejected
        # against the declared matrices before any tensor power is built.
        import time

        doc = shift_to_json(build_from_se(golden_witness))
        doc["lag"] = lag
        data = write(tmp_path / "s.json", doc)
        started = time.perf_counter()
        code, report, err = run(capsys, ["aligned", "verify", "--data", data])
        assert time.perf_counter() - started < 1.0
        assert code == 65
        assert report is None
        assert f"lag {lag} does not fit the bundle" in err and err.count("\n") == 1

    @pytest.mark.parametrize("entry", [10**20, 2**62])
    @pytest.mark.parametrize("command", ["aligned from-se", "homotopy from-se", "aligned verify"])
    def test_oversized_entry_is_data_error(self, capsys, tmp_path, command, entry):
        # Too large for a basis of edges: 10**20 overflows a machine integer,
        # 2**62 edges do not fit in an array.  The witness itself is valid, and
        # the bundle holds the same integer record.
        if command == "aligned verify":
            argv = [*command.split(), "--data", write(tmp_path / "s.json", edge_bundle(entry))]
        else:
            w = {"a": mat([[entry]]), "b": mat([[entry]]), "r": mat([[1]]), "s": mat([[entry]]), "lag": 1}
            argv = [*command.split(), "--witness", write(tmp_path / "w.json", w)]
        code, report, err = run(capsys, argv)
        assert code == 65
        assert report is None
        assert "too large" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100000 + "]" * 100000, "JSON nested too deeply to read"),
            ('{"rows": 1, "cols": 1, "entries": ' + "[" * 100000 + "]" * 100000 + "}", "JSON nested too deeply to read"),
            (
                '{"rows": 1, "cols": 1, "entries": [[' + "1" * 5001 + "]]}",
                f"a number has more than {sys.get_int_max_str_digits()} digits, too many to read",
            ),
        ],
        ids=["deep", "deep entries", "long literal"],
    )
    def test_json_the_decoder_refuses_is_data_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "a.json"
        path.write_text(text)
        code, report, err = run(capsys, ["invariants", "--a", str(path)])
        assert (code, report) == (65, None)
        assert err == f"shiftcalc: {path}: {message}\n"

    def test_an_integer_too_long_to_write_is_data_error(self, capsys, tmp_path):
        # Its 3001-digit entries are read; the constant term of the characteristic
        # polynomial, 10**6000 - 1, cannot be written.
        a = write(tmp_path / "a.json", mat([[10**3000, 1], [1, 10**3000]]))
        code, report, err = run(capsys, ["invariants", "--a", a])
        assert (code, report) == (65, None)
        assert err == f"shiftcalc: an integer has more than {sys.get_int_max_str_digits()} digits, too many to write\n"

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_bad_tol_flag_is_usage_error(self, files, capsys, tol):
        code, report, err = run(capsys, [f"--tol={tol}", "invariants", "--a", files["two"]])
        assert code == 64
        assert report is None
        assert "tolerance" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf", "1e400"])
    def test_bad_tol_env_is_usage_error(self, files, capsys, monkeypatch, tol):
        monkeypatch.setenv("SHIFTCALC_TOL", tol)
        code, report, err = run(capsys, ["invariants", "--a", files["two"]])
        assert code == 64
        assert report is None
        assert "tolerance" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["abc", ""])
    def test_non_numeric_tol_env_is_usage_error(self, files, capsys, monkeypatch, tol):
        monkeypatch.setenv("SHIFTCALC_TOL", tol)
        code, report, err = run(capsys, ["invariants", "--a", files["two"]])
        assert (code, report) == (64, None)
        assert err == "shiftcalc: invalid SHIFTCALC_TOL\n"

    def test_verbose_success_adds_one_timing_line(self, files, capsys):
        import re

        argv = ["invariants", "--a", files["two"]]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(["--verbose", *argv]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == plain.out and plain.err == ""
        assert re.fullmatch(r"\[invariants\] finished in \d+\.\d ms\n", verbose.err)

    def test_zero_tol_is_accepted(self, files, capsys):
        code, report, _ = run(capsys, ["--tol", "0", "invariants", "--a", files["two"]])
        assert code == 0
        assert report["tolerances"]["tol"] == 0.0

    @pytest.mark.parametrize("command", [["invariants", "--a"], ["aligned", "verify", "--data"]])
    @pytest.mark.parametrize("kind", ["directory", "under a file", "not utf-8"])
    def test_unreadable_input_is_data_error(self, files, capsys, tmp_path, command, kind):
        if kind == "directory":
            path = str(tmp_path)
        elif kind == "under a file":
            path = files["two"] + "/a.json"
        else:
            path = tmp_path / "latin1.json"
            path.write_bytes(b'{"rows": "\xe9"}')
        code, report, err = run(capsys, [*command, str(path)])
        assert code == 65
        assert report is None
        assert err.startswith("shiftcalc: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestInternalErrors:
    @pytest.mark.parametrize("error", [RuntimeError("boom"), MemoryError()])
    def test_unexpected_exception_exits_70(self, files, capsys, monkeypatch, error):
        import shiftcalc.cli

        def broken(a):
            raise error

        monkeypatch.setattr(shiftcalc.cli, "compute_invariants", broken)
        code, report, err = run(capsys, ["invariants", "--a", files["two"]])
        assert code == 70
        assert report is None
        assert err == f"shiftcalc: internal error: {error!r}\n"
        assert type(error).__name__ in err

    def test_verbose_adds_the_traceback(self, files, capsys, monkeypatch):
        import shiftcalc.cli

        def broken(a):
            raise RuntimeError("boom")

        monkeypatch.setattr(shiftcalc.cli, "compute_invariants", broken)
        code, report, err = run(capsys, ["--verbose", "invariants", "--a", files["two"]])
        assert code == 70
        assert err.startswith("Traceback")
        assert err.endswith("shiftcalc: internal error: RuntimeError('boom')\n")

    @pytest.mark.parametrize("error", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_pass_through(self, files, monkeypatch, error):
        import shiftcalc.cli

        def broken(a):
            raise error

        monkeypatch.setattr(shiftcalc.cli, "compute_invariants", broken)
        with pytest.raises(error):
            main(["invariants", "--a", files["two"]])


SELFTEST_NAMES = [
    "witness-verification", "chain-composition", "invariant-separation", "tensor-dims-oracle",
    "bicategory-laws", "alignment-transitivity", "alignment-formulations", "homotopy-roundtrip",
    "search-recovery",
]


class TestSelftest:
    def test_default_run_passes_all_nine(self, capsys):
        code, report, err = run(capsys, ["selftest"])
        assert code == 0
        assert report["verdict"] == {
            "checks": [{"name": name, "ok": True} for name in SELFTEST_NAMES],
            "passed": 9,
            "failed": 0,
        }
        assert err == "".join(f"PASS {name}\n" for name in SELFTEST_NAMES)

    def test_tiny_tol_fails_the_bounded_checks(self, capsys):
        code, report, err = run(capsys, ["--tol", "1e-300", "selftest"])
        assert code == 1
        failed = [check["name"] for check in report["verdict"]["checks"] if not check["ok"]]
        # The five exact checks pass, and so does the homotopy: the golden
        # lag-1 homotopy is a constant path whose residuals are exactly 0.0.
        assert failed == ["bicategory-laws", "alignment-transitivity", "alignment-formulations"]
        assert "FAIL bicategory-laws: trial 0" in err and "Traceback" not in err

    def test_package_error_fails_only_its_check(self, capsys, monkeypatch):
        import shiftcalc.selftest as selftest
        from shiftcalc import ContractError

        def not_concrete(*args):
            raise ContractError("verify_aligned requires a verified concrete shift")

        monkeypatch.setattr(selftest, "alignment_report", not_concrete)
        monkeypatch.setattr(selftest, "PROPERTIES", selftest.PROPERTIES[4:6])
        code, report, err = run(capsys, ["selftest"])
        assert code == 1
        assert [check["ok"] for check in report["verdict"]["checks"]] == [True, False]
        assert err.splitlines()[1] == (
            "FAIL alignment-transitivity: ContractError: verify_aligned requires a verified concrete shift"
        )

    def test_acceptance_criteria_run_the_properties(self):
        # Each acceptance criterion names one row of the table, every row
        # once; the report order swaps criteria 7 and 8.
        import inspect
        import re

        from shiftcalc.selftest import PROPERTIES
        from tests import test_acceptance

        criteria = [fn for name, fn in vars(test_acceptance).items() if name.startswith("test_criterion_")]
        named = [re.search(r'"([a-z]+(?:-[a-z]+)+)"', inspect.getsource(fn)).group(1) for fn in criteria]
        assert [row.name for row in PROPERTIES] == SELFTEST_NAMES
        assert sorted(named) == sorted(SELFTEST_NAMES)


class TestEachVerdictOnce:
    @pytest.fixture
    def counts(self, monkeypatch):
        import shiftcalc.aligned
        import shiftcalc.cli

        counts = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("unitarity_defect", "alignment_residuals", "two_arrow_residuals", "power_correspondence"):
            counted(shiftcalc.aligned, name)
        counted(shiftcalc.cli, "build_from_se")
        return counts

    def test_aligned_verify(self, counts, capsys, tmp_path, golden_witness):
        data = write(tmp_path / "shift.json", shift_to_json(build_from_se(golden_witness)))
        counts.clear()
        code, report, _ = run(capsys, ["aligned", "verify", "--data", data])
        assert code == 0
        assert report["verdict"]["aligned"] is True
        # X^(x)lag and Y^(x)lag, once each for psi_x and psi_y, and once more each as the
        # constructor compares those targets with rebuilt powers: 60-199 us a check at
        # golden and 3x3 lags 6-8, in process on one core, against 32-90 us for a check
        # of the factor runs that builds no power.
        assert counts == {"unitarity_defect": 4, "alignment_residuals": 1, "power_correspondence": 4}

    def test_aligned_from_se_with_overrides(self, counts, capsys, tmp_path, golden_witness):
        from shiftcalc.jsonio import block_unitary_to_json

        shift = build_from_se(golden_witness)
        witness_path = write(tmp_path / "w.json", witness_to_json(golden_witness))
        phi_path = write(tmp_path / "phi_m.json", block_unitary_to_json(shift.m_arrow.phi))
        psi_path = write(tmp_path / "psi_y.json", block_unitary_to_json(shift.psi_y))
        counts.clear()
        code, report, _ = run(
            capsys,
            ["aligned", "from-se", "--witness", witness_path,
             "--phi-m", phi_path, "--psi-y", psi_path, "--out", str(tmp_path / "out.json")],
        )
        assert code == 0
        assert report["verdict"]["aligned"] is True
        assert sorted(report["inputs"]) == sorted([witness_path, phi_path, psi_path])
        assert counts == {
            "build_from_se": 1,
            "unitarity_defect": 4,
            "alignment_residuals": 1,
            "power_correspondence": 4,
        }


class TestBundlesWithoutNestedLists:
    """The command line writes bundles from array leaves: no block unitary goes
    through the nested-list form that the public ``*_to_json`` functions return."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The shape of each block that a writer turns into nested lists."""
        import shiftcalc.jsonio

        calls = []
        convert = shiftcalc.jsonio.block_unitary_to_json

        def counted(u, *, _arrays=False):
            if not _arrays:
                calls.extend(m.shape for m in u.blocks.values())
            return convert(u, _arrays=_arrays)

        monkeypatch.setattr(shiftcalc.jsonio, "block_unitary_to_json", counted)
        return calls

    @pytest.mark.parametrize("command", [["homotopy", "from-se", "--steps", "3"], ["aligned", "from-se"]])
    @pytest.mark.parametrize("out", [True, False])
    def test_from_se(self, calls, capsys, tmp_path, command, out):
        witness_path = write(tmp_path / "w.json", witness_to_json(bundle_witness(2)))
        extra = ["--out", str(tmp_path / "out.json")] if out else []
        code, report, _ = run(capsys, [*command, "--witness", witness_path, *extra])
        assert code == 0 and report is not None
        assert calls == []
        if out:
            # The bundle is the stdlib rendering of what the public functions return.
            witness = bundle_witness(2)
            if command[0] == "homotopy":
                shift, hom_x, hom_y = homotopy_shift_equivalence_from_se(witness, steps=3)
                list_form = {
                    "schema": SCHEMA,
                    "witness": witness_to_json(witness),
                    "steps": 3,
                    "shift": shift_to_json(shift),
                    "homotopy_x": homotopy_to_json(hom_x),
                    "homotopy_y": homotopy_to_json(hom_y),
                }
            else:
                list_form = shift_to_json(build_from_se(witness))
            expected = json.dumps(list_form, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
            assert (tmp_path / "out.json").read_text() == expected

    def test_the_public_functions_still_return_lists(self, calls, golden_witness):
        # ... so the fixture does see the converter the default path calls.
        doc = shift_to_json(build_from_se(golden_witness))
        assert len(calls) == sum(len(doc[name]["blocks"]) for name in ("phi_m", "phi_n", "psi_x", "psi_y"))
        assert all(type(block) is list for block in doc["psi_x"]["blocks"].values())


def test_one_process_answers_as_fresh_processes(files, capsys, monkeypatch):
    # The parser is built once per process; usage errors and subcommands
    # in turn must leave it as a fresh process finds it.
    import shiftcalc

    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(shiftcalc.__file__))
    calls = [
        ["invariants", "--a", files["pair"]],
        ["--frobnicate"],
        ["compare", "--a", files["two"], "--b", files["three"]],
        ["corr", "tensor", "--r", files["r"]],
        ["--tol", "1e-6", "corr", "tensor", "--r", files["r"], "--s", files["s"]],
        ["invariants", "--a", files["pair"]],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "shiftcalc.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def run_in_child(code: str, *args: str) -> str:
    """The stdout of ``python -c code args`` in a fresh interpreter that imports this package."""
    import shiftcalc

    src = os.path.dirname(os.path.dirname(shiftcalc.__file__))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_importing_the_cli_builds_no_prime_table():
    # char_poly's prime tables are built on first use, never at import.
    out = run_in_child("import shiftcalc.cli, shiftcalc.exact; print(shiftcalc.exact._PRIME_TABLES)")
    assert out == "{}\n"


def test_importing_the_cli_leaves_scipy_linalg_and_sympy_unloaded():
    # Only a log of a dense unitary uses scipy.linalg, so the commands must not pay
    # for loading it on import; sympy is a test-only oracle.
    out = run_in_child("import sys, shiftcalc.cli; print({'scipy.linalg', 'sympy'} & set(sys.modules))")
    assert out == "set()\n"


def test_homotopies_of_canonical_shifts_leave_scipy_linalg_unloaded(tmp_path):
    # Every log the command line takes is of a permutation, and has a closed form.  The
    # folded chain's 28 nonzero generators all have the eigenvalue -1, whose angle is +pi.
    from shiftcalc import fold_chain, random_sse_chain

    chain = fold_chain(random_sse_chain(from_rows([[2, 1], [1, 2]]), 3, seed=0))
    witnesses = [write(tmp_path / f"{name}.json", witness_to_json(w)) for name, w in (("lag4", bundle_witness(4)), ("chain", chain))]
    code = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "from shiftcalc import homotopy_shift_equivalence_from_se\n"
        "from shiftcalc.cli import main\n"
        "from shiftcalc.jsonio import load_json, witness_from_json\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['homotopy', 'from-se', '--witness', path]) for path in sys.argv[1:]]\n"
        "_, hx, hy = homotopy_shift_equivalence_from_se(witness_from_json(load_json(sys.argv[2])), steps=2)\n"
        "angles = [np.linalg.eigvalsh(-1j * g) for h in (hx, hy) for g in h.path.generator.values() if g.any()]\n"
        "print(codes, len(angles), sum(abs(a.max() - np.pi) < 1e-12 and a.min() > -np.pi + 1e-6 for a in angles), {'scipy.linalg'} & set(sys.modules))\n"
    )
    assert run_in_child(code, *witnesses) == "[0, 0] 28 28 set()\n"


def test_a_dense_unitary_still_takes_a_schur_form():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from shiftcalc import from_rows, homotopy_to_identity, object_pair, random_block_unitary, tensor, verify_homotopy\n"
        "obj = object_pair(from_rows([[2]]))\n"
        "phi = random_block_unitary(tensor(obj.x, obj.x), np.random.default_rng(0))\n"
        "print(verify_homotopy(homotopy_to_identity(phi, obj, 1, steps=4)), 'scipy.linalg' in sys.modules)\n"
    )
    assert run_in_child(code) == "True True\n"


#: The values a mutated leaf of a corpus document may take.
MUTATION_POOL = [0, -1, 2, 10**30, 10**400, 1.5, float("nan"), True, None, "x", [], {}, [[1]], "0,1"]
CORPUS_EXITS = {0, 1, 2, 64, 65}


def leaf_paths(doc, prefix=()):
    """The path of every leaf of a JSON document: a scalar or an empty container."""
    if isinstance(doc, (dict, list)) and doc:
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from leaf_paths(value, prefix + (key,))
    else:
        yield prefix


def mutation_corpus(rng, originals: dict, count: int):
    """(schema, document) pairs: ``count`` copies of each original with 1-3 of its
    leaves replaced by values drawn from ``MUTATION_POOL``."""
    from tests.test_jsonio import mutate

    for _ in range(count):
        for schema, original in originals.items():
            doc = json.loads(json.dumps(original))
            for _ in range(rng.randint(1, 3)):
                doc = mutate(doc, rng.choice(list(leaf_paths(doc))), rng.choice(MUTATION_POOL))
            yield schema, doc


def test_mutated_documents_exit_with_a_documented_code(capsys, tmp_path):
    # Every subcommand that reads a schema gets each mutated document of it.
    import random

    from shiftcalc import identity_unitary
    from shiftcalc.jsonio import arrow_to_json, block_unitary_to_json
    from shiftcalc.selftest import GOLDEN_WITNESS, arrow_from_witness
    from tests.test_aligned import golden_lag

    witness = golden_lag(2)
    arrow = arrow_from_witness(GOLDEN_WITNESS)
    originals = {
        "witness": witness_to_json(witness),
        "shift": shift_to_json(build_from_se(witness)),
        "matrix": matrix_to_json(witness.b),
        "arrow": arrow_to_json(arrow),
    }
    b = write(tmp_path / "b.json", originals["matrix"])
    f = write(tmp_path / "f.json", originals["arrow"])
    psi = write(tmp_path / "psi.json", block_unitary_to_json(identity_unitary(arrow.f)))
    commands = {
        "witness": [["aligned", "from-se", "--witness"], ["homotopy", "from-se", "--steps", "2", "--witness"]],
        "shift": [["aligned", "verify", "--data"]],
        "matrix": [
            ["invariants", "--a"], ["compare", "--b", b, "--a"], ["corr", "tensor", "--r", b, "--s"],
            ["search-se", "--b", b, "--lag", "1", "--bound", "1", "--a"],
            ["verify-se", "--a", b, "--b", b, "--r", b, "--lag", "1", "--s"],
        ],
        "arrow": [
            ["corr", "check-2arrow", "--psi", psi, "--g", f, "--f"],
            ["corr", "check-2arrow", "--psi", psi, "--f", f, "--g"],
        ],
    }
    path = str(tmp_path / "doc.json")
    for schema, doc in mutation_corpus(random.Random(18), originals, 40):
        write(tmp_path / "doc.json", doc)
        for command in commands[schema]:
            code, _, err = run(capsys, [*command, path])
            assert code in CORPUS_EXITS, (command, doc, err)
            assert code != 65 or err.count("\n") == 1, (command, doc, err)

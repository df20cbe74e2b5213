"""Tests of the benchmark itself: span arithmetic, output checks, smoke runs.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import spans
import worker
import workloads
from shiftcalc import exact
from shiftcalc.exact import from_rows

ROOT = os.path.dirname(worker.BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] holds a [1, 4] (with grandchild [2, 3]), b [5, 9] and c
    # [8, 11], which overlaps b and runs past the root's end.
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 11.0]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_tracer_rebinds_by_name_imports_and_restores_them():
    import shiftcalc.aligned
    import shiftcalc.corr

    original = shiftcalc.corr.tensor
    tracer = spans.Tracer()
    with tracer.install():
        assert shiftcalc.aligned.tensor is shiftcalc.corr.tensor is not original
        tracer.op = 7
        exact.mat_pow(from_rows([[1, 1], [1, 0]]), 3)
    assert shiftcalc.aligned.tensor is shiftcalc.corr.tensor is original
    names = [spans.SPAN_NAMES[i] for i in tracer.name]
    assert names[0] == "exact.mat_pow" and set(names[1:]) == {"exact.mat_mul"}
    assert list(tracer.parent) == [-1] + [0] * (len(names) - 1)
    assert set(tracer.op_id) == {7}
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))
    assert [worker.percentile(values, p) for p in (50, 70, 90, 100)] == [5, 7, 9, 10]


def test_timings_are_divided_by_the_slowness_around_each_call():
    cal = worker.Calibration.__new__(worker.Calibration)
    cal.readings = [1.0, 1.0, 4.0, 2.0, 2.0, 2.0, 1.0]
    slowness = cal.slowness()
    assert slowness == [1.0, 1.5, 2.0, 2.0, 2.0, 2.0, 2.0]
    cycle = [workloads.Op(("a",), "a", "a", 0, list)]
    samples = [(0, dt, 0, "") for dt in (1.0, 3.0, 2.0, 2.0, 4.0, 6.0, 8.0)]
    metrics, info = worker.end_to_end(workloads.Workload(cycle, 70), samples, slowness, 1024, 0)
    assert (metrics["op_p50_s"], metrics["op_tail_s"], metrics["throughput_ops_s"]) == (2.0, 2.0, 7 / 14.0)
    assert info["raw"] == {"op_p50_s": 3.0, "op_tail_s": 4.0, "throughput_ops_s": 7 / 26.0}
    assert info["tail_samples_beyond"] == 2


def test_calibration_reads_near_one_on_an_idle_host():
    assert 0.2 < worker.Calibration().measure() < 20


def test_oracle_gives_the_golden_invariants():
    assert checks.invariants_oracle([[2]]) == {
        "nonzero_char_poly": [-2, 1],
        "bowen_franks": [],
        "eventual_rank": 1,
        "det_away_from_zero": 2,
    }
    assert checks.invariants_oracle([[3, 0], [0, 5]])["bowen_franks"] == [2, 4]


def test_large_matrices_are_checked_through_the_cokernel_order():
    n = checks.SNF_ORACLE_MAX_N + 1
    rows = [[3 if i == j else 0 for j in range(n)] for i in range(n)]
    expected = checks.invariants_oracle(rows)
    assert "bowen_franks" not in expected
    verdict = {
        "nonzero_char_poly": expected["nonzero_char_poly"],
        "bowen_franks": [2] * n,
        "eventual_rank": n,
        "det_away_from_zero": expected["det_away_from_zero"],
    }
    assert checks.invariants_problems(verdict, expected) == []
    verdict["bowen_franks"] = [2] * (n - 1) + [4]
    assert checks.invariants_problems(verdict, expected) == [f"bowen_franks_order is {2 ** (n + 1)}, sympy gives {2 ** n}"]


@pytest.mark.parametrize("name", ["aligned-perm", "dense-homotopy", "invariants", "search"])
def test_tiny_smoke_run_has_no_failures(name, tmp_path):
    result = worker.run_workload(name, 5, 0.0, 0, str(tmp_path / "fx"), scale="tiny")
    assert result["attempted"] >= 1 and result["failed"] == 0, result["problems"]
    assert result["metrics"]["error_rate"] == 0
    assert {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"} <= set(result["metrics"])


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    result = worker.run_workload("aligned-perm", 5, 0.0, 1, str(tmp_path / "fx"), scale="tiny")
    assert result["failed"] == 0, result["problems"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(result["metrics"])
    assert result["metrics"]["cli.main.calls"] == 1.0
    assert 0.0 <= result["metrics"]["trace.unattributed_share"] < 1.0


def _one_cycle(name, tmp_path):
    from shiftcalc import cli

    w = workloads.build(name, str(tmp_path / "fx"), 5, "tiny")
    samples, _, _ = worker.run_cycles(cli, w.cycle, cycles=1)
    assert not any(worker.check_samples(w.cycle, samples))
    return w.cycle, samples


def _edit(sample, old, new):
    slot, dt, rc, stdout = sample
    assert old in stdout
    return (slot, dt, rc, stdout.replace(old, new))


def test_corrupted_outputs_count_as_failures(tmp_path):
    cycle, samples = _one_cycle("aligned-perm", tmp_path)
    verify = next(i for i, s in enumerate(samples) if cycle[s[0]].command == "aligned verify")
    report = json.loads(samples[verify][3])
    residual = repr(report["verdict"]["residuals"]["x"])

    flipped = list(samples)
    flipped[verify] = _edit(samples[verify], '"aligned": true', '"aligned": false')
    assert [bool(p) for p in worker.check_samples(cycle, flipped)] == [i == verify for i in range(len(samples))]

    loose = list(samples)
    loose[verify] = _edit(samples[verify], residual, "0.001")
    problems = worker.check_samples(cycle, loose)[verify]
    assert any("exceeds tolerance" in p for p in problems)

    crashed = list(samples)
    crashed[verify] = samples[verify][:2] + ("raised ValueError: boom", "")
    assert worker.check_samples(cycle, crashed)[verify] == ["raised ValueError: boom"]


def test_wrong_search_verdict_and_changed_repeat_are_failures(tmp_path):
    cycle, samples = _one_cycle("search", tmp_path)
    refutation = next(i for i, s in enumerate(samples) if cycle[s[0]].want_rc == 1)
    wrong = list(samples)
    slot, dt, _, stdout = samples[refutation]
    wrong[refutation] = (slot, dt, 0, stdout.replace('"found": false', '"found": true'))
    assert worker.check_samples(cycle, wrong)[refutation]

    repeated = samples + [samples[0][:3] + (samples[0][3] + " ",)]
    problems = worker.check_samples(cycle, repeated)
    assert not any(problems[:-1])
    assert "stdout differs from an earlier call with the same argv" in problems[-1]


def test_homotopy_bundle_with_a_non_unitary_sample_fails(tmp_path):
    cycle, samples = _one_cycle("dense-homotopy", tmp_path)
    op = next(op for op in cycle if op.post is not None)
    path = op.argv[op.argv.index("--out") + 1]
    with open(path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    block = next(iter(bundle["homotopy_x"]["samples"][0]["unitary"]["blocks"].values()))
    block[0][0] = [2.0, 0.0]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh)
    assert any("unitarity" in p for p in op.post())


def test_benchmark_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(worker.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

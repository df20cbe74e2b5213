"""One workload in one fresh process: set up, run the closed loop, check.

``run.py`` starts this script once per measurement so that import cost,
set-up time and peak RSS belong to the workload alone.  It prints one JSON
result object as the last line of stdout.

The loop is closed with one client: each operation is one in-process
``shiftcalc.cli.main(argv)`` call, started when the previous one returns.
It runs whole cycles of the workload until ``--seconds`` have passed, so
every run holds each call of the cycle equally often and its percentiles
describe the same mix whatever the run length.  Outputs are checked after
the loop, outside the timed region.
"""

import time

SETUP_START = time.perf_counter()  # set-up time counts from before any heavy import

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "bench")


def import_package():
    """Import shiftcalc from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "shiftcalc", "__init__.py")):
        raise SystemExit(f"no shiftcalc package under {SRC}")
    sys.path.insert(0, SRC)
    import shiftcalc

    if os.path.dirname(os.path.dirname(os.path.abspath(shiftcalc.__file__))) != SRC:
        raise SystemExit(f"shiftcalc was imported from {shiftcalc.__file__}, not {SRC}")
    return shiftcalc


def call(cli, argv):
    """One operation; returns (seconds, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # any crash is a failed operation, not a crashed benchmark
            rc = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue()


#: Time of each half of ``Calibration.measure`` on the reference host, the
#: 2-vCPU development VM at its quietest.
CAL_PY_REF_S = 0.0008
CAL_NP_REF_S = 0.006
#: Calls on each side whose calibrations are pooled for one call's slowness.
CAL_NEIGHBOURS = 2
#: Readings whose median gives the slowness that set-up time is divided by.
SETUP_CAL_READINGS = 9


class Calibration:
    """Host slowness, from fixed code that no change to ``src/`` can alter.

    On a shared host, other tenants slow every call by up to 2x, in phases
    that last from a second to minutes, so medians of raw times from runs a
    few minutes apart differ by 20-30 %.  The same phases slow a fixed
    pure-Python big-integer product and a fixed numpy SVD alike, so each
    call's time divided by the slowness measured just before it stays put.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._ints = [[(i * 7 + j * 3) % 11 + 10**12 for j in range(12)] for i in range(12)]
        self._floats = np.random.default_rng(0).standard_normal((96, 96))
        self.readings = []
        self.measure()  # the first SVD pays for lazy LAPACK set-up

    def measure(self):
        """Slowness now: 1.0 on the reference host, 2.0 at half its speed."""
        a = self._ints
        t0 = time.perf_counter()
        for _ in range(3):
            [[sum(a[i][k] * a[k][j] for k in range(12)) for j in range(12)] for i in range(12)]
        t1 = time.perf_counter()
        for _ in range(4):
            self._np.linalg.svd(self._floats)
        t2 = time.perf_counter()
        return ((t1 - t0) / CAL_PY_REF_S + (t2 - t1) / CAL_NP_REF_S) / 2

    def before_call(self):
        self.readings.append(self.measure())

    def slowness(self):
        """Per call, the median reading of the calls within ``CAL_NEIGHBOURS``."""
        r = self.readings
        return [statistics.median(r[max(0, i - CAL_NEIGHBOURS) : i + CAL_NEIGHBOURS + 1]) for i in range(len(r))]


def run_cycles(cli, cycle, seconds=None, cycles=None, tracer=None, calibration=None):
    """Run whole cycles until ``seconds`` have passed (at least one), or
    exactly ``cycles`` of them; returns (samples, cycles run, wall seconds).

    A sample is (index in cycle, seconds, exit code, stdout).  With a
    ``calibration``, its slowness is read before every call, outside the call's time.
    """
    samples = []
    started = time.perf_counter()
    done = 0
    while True:
        for slot, op in enumerate(cycle):
            if tracer is not None:
                tracer.op = len(samples)
            if calibration is not None:
                calibration.before_call()
            samples.append((slot,) + call(cli, op.argv))
        done += 1
        if cycles is not None and done >= cycles:
            break
        if cycles is None and time.perf_counter() - started >= seconds:
            break
    return samples, done, time.perf_counter() - started


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _problems_of(op, rc, stdout):
    import checks

    if not isinstance(rc, int):
        return [str(rc)]
    report, problems = checks.report_problems(rc, stdout, op.command, op.want_rc)
    if report is not None:
        try:
            problems += op.expect(report["verdict"])
        except Exception as exc:  # a verdict of the wrong shape is a wrong output
            problems.append(f"verdict check raised {type(exc).__name__}: {exc}")
    return problems


def check_samples(cycle, samples):
    """Problems per sample.  The first output of each argv is checked in full;
    a repeat must be byte-identical to it (and is checked in full if not).
    Checks of written files run once per argv and apply to all its samples."""
    first = {}
    per_sample = []
    for slot, _, rc, stdout in samples:
        op = cycle[slot]
        if op.argv not in first:
            first[op.argv] = (rc, stdout, _problems_of(op, rc, stdout))
        ref_rc, ref_out, ref_problems = first[op.argv]
        if (rc, stdout) == (ref_rc, ref_out):
            per_sample.append(ref_problems)
        else:
            per_sample.append(_problems_of(op, rc, stdout) + ["stdout differs from an earlier call with the same argv"])
    post = {}
    for op in cycle:
        if op.post is not None and op.argv not in post:
            try:
                post[op.argv] = op.post()
            except Exception as exc:  # an unreadable output file is a wrong output
                post[op.argv] = [f"output file check raised {type(exc).__name__}: {exc}"]
    return [problems + post.get(cycle[slot].argv, []) for (slot, *_), problems in zip(samples, per_sample)]


def _file_bytes(argv, flags):
    total = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in flags and os.path.exists(value):
            total += os.path.getsize(value)
    return total


def sample_sizes(cycle, samples):
    """Problem size of every sample, from the fixture and the files written."""
    by_argv = {}
    out = []
    for slot, _, _, stdout in samples:
        op = cycle[slot]
        if op.argv not in by_argv:
            sizes = dict(op.sizes)
            sizes["bytes_in"] = _file_bytes(op.argv, ("--witness", "--data", "--a", "--b"))
            sizes["bytes_out"] = len(stdout.encode()) + _file_bytes(op.argv, ("--out",))
            by_argv[op.argv] = sizes
        out.append(by_argv[op.argv])
    return out


def end_to_end(workload, samples, slowness, rss_kb, failed):
    """Timings over the run's calls, each divided by the host slowness read
    around it; the raw times' figures are returned beside them for the record."""
    raw = [dt for _, dt, _, _ in samples]
    times = [dt / s for dt, s in zip(raw, slowness)]
    pct = workload.tail_percentile
    tail = percentile(times, pct)
    n = len(times)
    return {
        "op_p50_s": percentile(times, 50),
        "op_tail_s": tail,
        "throughput_ops_s": n / sum(times),
        "peak_rss_mb": rss_kb / 1024.0,
        "error_rate": failed / n,
    }, {
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for t in times if t > tail),
        "samples": n,
        "slowness_median": statistics.median(slowness),
        "raw": {"op_p50_s": percentile(raw, 50), "op_tail_s": percentile(raw, pct), "throughput_ops_s": n / sum(raw)},
    }


def per_layer(tracer, samples_traced, samples_plain, cycle, sizes):
    """Per-operation layer metrics from the traced run's spans."""
    import spans

    n = len(samples_traced)
    self_s = spans.self_times(tracer.start, tracer.end, tracer.parent)
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    for name_id, s in zip(tracer.name, self_s):
        name = spans.SPAN_NAMES[name_id]
        calls[name] += 1
        self_by_name[name] += s
    metrics = {}
    module_self = defaultdict(float)
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.self_s"] = self_by_name[name] / n
        module_self[name.split(".")[0]] += self_by_name[name]
    for module in spans.LAYERS:
        metrics[f"{module}.self_s"] = module_self[module] / n
    traced_wall = sum(dt for _, dt, _, _ in samples_traced)
    plain_wall = sum(dt for _, dt, _, _ in samples_plain[:n])
    attributed = sum(v for k, v in self_by_name.items() if k != "cli.main")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall) / n
    metrics["trace.unattributed_share"] = 1.0 - attributed / traced_wall
    metrics["trace.spans"] = len(tracer) / n
    for key, metric in (
        ("total_dim", "corr.total_dim"),
        ("max_block_dim", "corr.max_block_dim"),
        ("bytes_in", "jsonio.bytes_in"),
        ("bytes_out", "jsonio.bytes_out"),
        ("lag", "size.lag"),
        ("matrix_n", "size.matrix_n"),
        ("search_bound", "size.search_bound"),
    ):
        metrics[metric] = sum(s.get(key, 0) for s in sizes) / n
    searches = [rc for slot, _, rc, _ in samples_traced if cycle[slot].command == "search-se"]
    metrics["witnesses.search_se.found_ratio"] = searches.count(0) / len(searches) if searches else 0.0
    return metrics


def run_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def run_workload(name, seed, seconds, trace, fixtures, scale="full", setup_only=False):
    """Set up one workload and measure it; returns the result dictionary."""
    import_package()
    import workloads
    from shiftcalc import cli

    workload = workloads.build(name, fixtures, seed, scale)
    # Warm up with the smallest call of each subcommand, in cycle order (an
    # aligned verify reads the bundle its from-se wrote), so that set-up
    # time does not depend on which sizes the seed put first.
    for command in dict.fromkeys(op.command for op in workload.cycle):
        ops = [op for op in workload.cycle if op.command == command]
        call(cli, min(ops, key=lambda op: sorted(op.sizes.items())).argv)
    setup_raw_s = time.perf_counter() - SETUP_START
    calibration = Calibration()
    setup_slowness = statistics.median(calibration.measure() for _ in range(SETUP_CAL_READINGS))
    result = {"setup_s": setup_raw_s / setup_slowness, "setup_raw_s": setup_raw_s}
    if setup_only:
        return result

    if not trace:
        samples, cycles, _ = run_cycles(cli, workload.cycle, seconds=seconds, calibration=calibration)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        problems = check_samples(workload.cycle, samples)
        failed = sum(1 for p in problems if p)
        metrics, tail_info = end_to_end(workload, samples, calibration.slowness(), rss_kb, failed)
        result.update(tail_info)
    else:
        import spans

        plain, cycles, _ = run_cycles(cli, workload.cycle, seconds=seconds / 2)
        tracer = spans.Tracer()
        with tracer.install():
            traced, _, _ = run_cycles(cli, workload.cycle, cycles=cycles, tracer=tracer)
        samples = plain + traced
        problems = check_samples(workload.cycle, samples)
        failed = sum(1 for p in problems if p)
        metrics = per_layer(tracer, traced, plain, workload.cycle, sample_sizes(workload.cycle, traced))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{name}.jsonl"))
    untraced = samples[: len(samples) // 2] if trace else samples
    by_kind = defaultdict(list)
    for op, size in zip(workload.cycle, sample_sizes(workload.cycle, untraced)):
        by_kind[op.kind].append(size)
    kinds = {}
    for kind, sizes in by_kind.items():
        times = [dt for slot, dt, _, _ in untraced if workload.cycle[slot].kind == kind]
        kinds[kind] = {key: sum(s[key] for s in sizes) / len(sizes) for key in sizes[0]}
        kinds[kind].update(per_cycle=len(sizes), median_s=percentile(times, 50))
    result.update(
        {
            "metrics": metrics,
            "attempted": len(samples),
            "failed": failed,
            "cycles": cycles,
            "problems": sorted({p for ps in problems for p in ps})[:20],
            "kinds": kinds,
            "info": run_info(),
        }
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.fixtures, setup_only=args.setup_only
        )
    finally:
        shutil.rmtree(args.fixtures, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Benchmark of the shiftcalc command line, end to end and layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh worker process (``worker.py``) with BLAS
pinned to one thread.  With ``--trace 0`` the run prints the end-to-end
metrics named in ``BENCHMARK.json``; set-up time is the median over
``SETUP_RUNS`` fresh processes.  With ``--trace 1`` it runs the same loop
untraced and then traced, and prints the per-layer metrics.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with the machine, versions and problem sizes is
written under ``.bench_build/bench/records``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_build", "bench")
WORKLOADS = ("aligned-perm", "dense-homotopy", "invariants", "search")
#: Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_RUNS = 3
#: BLAS threads in every worker (at most nproc on any machine).
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 150


def _worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(workload, seed, seconds, trace, tag, setup_only=False):
    fixtures = os.path.join(OUT_DIR, "fixtures", f"{workload}-{seed}-{tag}")
    cmd = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--fixtures", fixtures,
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_id():
    """The commit if this is a git checkout, and a digest of src/ always."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
    except OSError:
        git = []
    if len(git) == 2 and os.path.realpath(git[0]) == os.path.realpath(ROOT):
        commit = git[1]
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns its worker result with setup_s merged in."""
    result = _worker(workload, seed, seconds, trace, "run")
    if not trace:
        setups = [result] + [
            _worker(workload, seed, seconds, 0, f"setup{k}", setup_only=True) for k in range(1, SETUP_RUNS)
        ]
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        result["setup_runs_s"] = [s["setup_s"] for s in setups]
    return result


def _print_table(workload, result, trace, units):
    print(f"== {workload}: {result['attempted']} operations in {result['cycles']} cycles, {result['failed']} failed")
    m = result["metrics"]
    if not trace:
        for name in ("setup_s", "op_p50_s", "op_tail_s", "throughput_ops_s", "peak_rss_mb", "error_rate"):
            note = ""
            if name == "op_tail_s":
                note = f"  (p{result['tail_percentile']}: {result['tail_samples_beyond']} of {result['samples']} samples beyond)"
            if name in result["raw"]:
                note += f"  [raw times: {result['raw'][name]:.6g}]"
            elif name == "setup_s":
                note = f"  (median of {len(result['setup_runs_s'])} fresh processes)"
            elif name == "op_p50_s":
                note = f"  (host slowness {result['slowness_median']:.3f})"
            print(f"  {name:<18} {m[name]:.6g} {units.get(name, 'share')}{note}")
    else:
        ranked = sorted(
            (k for k in m if k.endswith(".self_s") and k.count(".") == 2), key=lambda k: -m[k]
        )
        wall = sum(m[k] for k in ranked)
        print(f"  top self time per operation (unattributed share {m['trace.unattributed_share']:.3f}):")
        for k in ranked[:10]:
            calls = m[k[: -len('.self_s')] + '.calls']
            print(f"    {k[:-len('.self_s')]:<48} {m[k]:.6f} s  {m[k] / wall:6.1%}  {calls:.1f} calls")
        for k in sorted(m):
            if not k.endswith((".self_s", ".calls")) or k.count(".") == 1:
                print(f"  {k:<40} {m[k]:.6g} {units.get(k, 's' if k.endswith('_s') else '')}")
    for kind, entry in sorted(result["kinds"].items()):
        sizes = ", ".join(f"{k}={v:g}" for k, v in entry.items() if k not in ("median_s", "per_cycle"))
        print(f"    {kind:<36} x{entry['per_cycle']:<3} median {entry['median_s']:.4f} s  {sizes}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "shiftcalc", "cli.py")):
        raise SystemExit(f"no shiftcalc sources under {ROOT}/src: run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    source = _source_id()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        result.update(source, workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
        records = os.path.join(OUT_DIR, "records")
        os.makedirs(records, exist_ok=True)
        with open(os.path.join(records, f"{workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        _print_table(workload, result, args.trace, units)
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{workload}."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

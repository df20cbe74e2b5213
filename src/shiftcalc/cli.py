"""Command-line front end.

Every subcommand prints exactly one JSON run report to stdout (schema
"shiftcalc/v1": command, input digests, tolerances, verdict) and reserves
stderr for human-readable notes.  Reports are byte-identical across runs for
identical inputs, flags and seeds; wall-clock timing is therefore only shown
on stderr under --verbose.  Reports and bundles are written block by block,
so the memory a run takes does not grow with the size of what it writes.

Exit codes: 0 verified / found / inconclusive, 1 refuted / not found,
2 distinguished by an invariant, 64 usage error, 65 data error, 70 internal
error (an unexpected exception, named in one stderr line; --verbose adds
its traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import os
import sys
import time
import traceback

from . import jsonio
from .aligned import alignment_report, build_from_se
from .corr import DEFAULT_TOL, two_arrow_residual
from .errors import ShiftcalcError
from .exact import IntMatrix, mat_mul
from .homotopy import homotopy_failure, homotopy_shift_equivalence_from_se
from .invariants import INVARIANT_NAMES, compare, compute_invariants
from .selftest import run_selftest
from .witnesses import SEWitness, failing_equation, search_se

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_DISTINGUISHED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

DEFAULT_TOL_ENV = "SHIFTCALC_TOL"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Run:
    """Collects the run report and handles emission."""

    def __init__(self, command: str, tol: float, verbose: bool):
        self.command = command
        self.tol = tol
        self.verbose = verbose
        self.inputs: dict[str, str] = {}
        self.started = time.perf_counter()

    def track(self, path: str):
        """The ``on_read`` of a reader of ``path``: records the digest of the bytes it decodes."""

        def record(data: bytes):
            self.inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()

        return record

    def load(self, path: str):
        return jsonio.load_json(path, on_read=self.track(path))

    def note(self, message: str):
        print(message, file=sys.stderr)

    def emit(self, verdict: dict, exit_code: int) -> int:
        report = {
            "schema": jsonio.SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "tolerances": {"tol": self.tol},
            "verdict": verdict,
        }
        jsonio.dump_json(report, sys.stdout)
        if self.verbose:
            elapsed = (time.perf_counter() - self.started) * 1000.0
            print(f"[{self.command}] finished in {elapsed:.1f} ms", file=sys.stderr)
        return exit_code


def _load_matrix(run: _Run, path: str) -> IntMatrix:
    return jsonio.nonnegative_matrix_from_file(path, on_read=run.track(path))


def _write_or_embed(verdict: dict, key: str, bundle: dict, out) -> None:
    """Write ``bundle`` to ``out`` and name the file in ``verdict``, or embed it under ``key``.

    A file is written beside ``out`` and renamed onto it once complete, so a failed write
    leaves no file and an existing one unchanged; a target that exists and is no regular
    file, such as ``/dev/null``, is written in place."""
    if not out:
        verdict[key] = bundle
        return
    target = os.path.realpath(out)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            jsonio.dump_json(bundle, fh)
    else:
        partial = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.partial")
        fh = open(partial, "x", encoding="utf-8")  # mode 0666 less the umask, as open(out, "w") gives
        try:
            with fh:
                jsonio.dump_json(bundle, fh)
            os.replace(partial, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(partial)
            raise
    verdict["out"] = out


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_verify_se(run: _Run, args) -> int:
    w = SEWitness(
        _load_matrix(run, args.a),
        _load_matrix(run, args.b),
        _load_matrix(run, args.r),
        _load_matrix(run, args.s),
        args.lag,
    )
    failure = failing_equation(w)
    verdict = {"verified": failure is None, "failing_equation": failure}
    if failure is not None:
        run.note(f"refuted: first failing equation is {failure}")
        return run.emit(verdict, EXIT_REFUTED)
    return run.emit(verdict, EXIT_OK)


def _cmd_search_se(run: _Run, args) -> int:
    a = _load_matrix(run, args.a)
    b = _load_matrix(run, args.b)
    found = search_se(a, b, args.lag, args.bound)
    if found is None:
        return run.emit({"found": False, "witness": None}, EXIT_REFUTED)
    return run.emit({"found": True, "witness": jsonio.witness_to_json(found)}, EXIT_OK)


def _cmd_invariants(run: _Run, args) -> int:
    inv = compute_invariants(_load_matrix(run, args.a))
    verdict = {name: getattr(inv, name) for name in INVARIANT_NAMES}
    verdict["nonzero_char_poly"] = inv.nonzero_char_poly.coeffs
    return run.emit(verdict, EXIT_OK)


def _cmd_compare(run: _Run, args) -> int:
    verdict = compare(_load_matrix(run, args.a), _load_matrix(run, args.b))
    doc = {
        "distinguished": verdict.distinguished,
        "separating": list(verdict.separating),
        "primary": verdict.primary,
    }
    if verdict.distinguished:
        run.note(f"distinguished by {verdict.primary}")
        return run.emit(doc, EXIT_DISTINGUISHED)
    return run.emit(doc, EXIT_OK)


def _cmd_corr_tensor(run: _Run, args) -> int:
    r = _load_matrix(run, args.r)
    s = _load_matrix(run, args.s)
    dims = mat_mul(r, s)
    verdict = {
        "dims": [list(row) for row in dims.entries],
        "basis_size": sum(map(sum, dims.entries)),
        "left_index": list(range(r.rows)),
        "right_index": list(range(s.cols)),
    }
    return run.emit(verdict, EXIT_OK)


def _cmd_corr_check_two_arrow(run: _Run, args) -> int:
    f = jsonio.arrow_from_json(run.load(args.f))
    g = jsonio.arrow_from_json(run.load(args.g))
    psi = jsonio.block_unitary_from_json(run.load(args.psi), f.f, g.f)
    residual = two_arrow_residual(psi, f, g)
    ok = residual <= run.tol
    verdict = {"two_arrow": ok, "residual": residual}
    return run.emit(verdict, EXIT_OK if ok else EXIT_REFUTED)


def _cmd_aligned_verify(run: _Run, args) -> int:
    shift = jsonio.shift_from_json(run.load(args.data))
    report = alignment_report(shift, run.tol)
    if not report.concrete:
        run.note("not a concrete shift: some structure map is not unitary")
        return run.emit({"concrete": False, "aligned": None}, EXIT_REFUTED)
    rx, ry = report.residuals
    verdict = {
        "concrete": True,
        "aligned": report.aligned,
        "residuals": {"x": rx, "y": ry},
    }
    return run.emit(verdict, EXIT_OK if report.aligned else EXIT_REFUTED)


def _cmd_aligned_from_se(run: _Run, args) -> int:
    witness = jsonio.witness_from_json(run.load(args.witness))

    def given(name, src, tgt):
        path = getattr(args, name)
        if path is not None:
            return jsonio.block_unitary_from_json(run.load(path), src, tgt)

    shift = build_from_se(witness, given)
    report = alignment_report(shift, run.tol)
    verdict = {"concrete": report.concrete, "aligned": report.aligned}
    _write_or_embed(verdict, "shift", jsonio.shift_to_json(shift, _arrays=True), args.out)
    return run.emit(verdict, EXIT_OK if report.concrete else EXIT_REFUTED)


def _cmd_homotopy_from_se(run: _Run, args) -> int:
    witness = jsonio.witness_from_json(run.load(args.witness))
    shift, hom_x, hom_y = homotopy_shift_equivalence_from_se(witness, steps=args.steps)
    failures = [homotopy_failure(hom, run.tol) for hom in (hom_x, hom_y)]
    for side, failure in zip("xy", failures):
        if failure is not None:
            run.note(f"homotopy {side}: {failure}")
    bundle = {
        "schema": jsonio.SCHEMA,
        "witness": jsonio.witness_to_json(witness),
        "steps": args.steps,
        "shift": jsonio.shift_to_json(shift, _arrays=True),
        "homotopy_x": jsonio.homotopy_to_json(hom_x, _arrays=True),
        "homotopy_y": jsonio.homotopy_to_json(hom_y, _arrays=True),
    }
    verdict = {"verified_x": failures[0] is None, "verified_y": failures[1] is None, "steps": args.steps}
    _write_or_embed(verdict, "bundle", bundle, args.out)
    return run.emit(verdict, EXIT_OK if failures == [None, None] else EXIT_REFUTED)


def _cmd_selftest(run: _Run, args) -> int:
    results = run_selftest(run.tol)
    for name, failure in results:
        run.note(f"PASS {name}" if failure is None else f"FAIL {name}: {failure}")
    failed = sum(failure is not None for _, failure in results)
    verdict = {
        "checks": [{"name": name, "ok": failure is None} for name, failure in results],
        "passed": len(results) - failed,
        "failed": failed,
    }
    return run.emit(verdict, EXIT_REFUTED if failed else EXIT_OK)


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}

# One row per subcommand, in the order ``shiftcalc -h`` lists them.  A leaf row
# holds its words, its help, its handler and its flags, each flag with the
# keywords ``add_argument`` takes; a group row holds its word and its help, and
# the rows after it whose words begin with that word are its subcommands.  The
# words are also the ``command`` each report names.
_COMMANDS = (
    ("verify-se", "check the four witness equations exactly", _cmd_verify_se,
     {"--a": _REQUIRED, "--b": _REQUIRED, "--r": _REQUIRED, "--s": _REQUIRED, "--lag": _REQUIRED_INT}),
    ("search-se", "bounded search for a witness", _cmd_search_se,
     {"--a": _REQUIRED, "--b": _REQUIRED, "--lag": _REQUIRED_INT, "--bound": _REQUIRED_INT}),
    ("invariants", "invariant battery of one matrix", _cmd_invariants, {"--a": _REQUIRED}),
    ("compare", "compare invariant batteries of two matrices", _cmd_compare, {"--a": _REQUIRED, "--b": _REQUIRED}),
    ("corr", "correspondence calculus"),
    ("corr tensor", "tensor product of two edge correspondences", _cmd_corr_tensor,
     {"--r": _REQUIRED, "--s": _REQUIRED}),
    ("corr check-2arrow", "check the intertwining square of psi", _cmd_corr_check_two_arrow,
     {"--psi": _REQUIRED, "--f": _REQUIRED, "--g": _REQUIRED}),
    ("aligned", "concrete and aligned shifts"),
    ("aligned verify", "verify a shift bundle", _cmd_aligned_verify, {"--data": _REQUIRED}),
    ("aligned from-se", "build a shift bundle from a witness", _cmd_aligned_from_se,
     {"--witness": _REQUIRED, "--phi-m": {}, "--phi-n": {}, "--psi-x": {}, "--psi-y": {}, "--out": {}}),
    ("homotopy", "homotopies of arrows"),
    ("homotopy from-se", "homotopy shift equivalence from a witness", _cmd_homotopy_from_se,
     {"--witness": _REQUIRED, "--steps": {"type": int, "default": 16}, "--out": {}}),
    ("selftest", "run the acceptance properties at field sizes within --tol", _cmd_selftest, {}),
)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="shiftcalc", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="human-readable notes and timing on stderr")
    parser.add_argument("--tol", type=float, default=None, help="numerical tolerance (default from SHIFTCALC_TOL or 1e-9)")
    # argparse names a missing subcommand by its dest, so each group keeps "<group>_command".
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for words, help_text, *leaf in _COMMANDS:
        group, _, word = words.rpartition(" ")
        p = subparsers[group].add_parser(word, help=help_text)
        if not leaf:
            subparsers[words] = p.add_subparsers(dest=f"{words}_command", required=True)
            continue
        fn, flags = leaf
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=fn, name=words)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tol = args.tol
    if tol is None:
        try:
            tol = float(os.environ.get(DEFAULT_TOL_ENV, DEFAULT_TOL))
        except ValueError:
            print(f"shiftcalc: invalid {DEFAULT_TOL_ENV}", file=sys.stderr)
            return EXIT_USAGE
    if not (math.isfinite(tol) and tol >= 0):
        print(f"shiftcalc: the tolerance must be finite and nonnegative, got {tol}", file=sys.stderr)
        return EXIT_USAGE
    run = _Run(args.name, tol, args.verbose)
    try:
        return args.fn(run, args)
    except (OSError, ShiftcalcError) as exc:
        # A missing, unreadable or undecodable input is bad data, not a
        # refutation: exit 65 with one line on stderr.
        print(f"shiftcalc: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        # A fault of the program, not a verdict: never exit 1, which means "refuted".
        if run.verbose:
            traceback.print_exc()
        print(f"shiftcalc: internal error: {exc!r}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for benchmark operations.

Every expectation comes from how the fixture was built, never from a second
run of the code under test.  A check returns a list of problems; an empty
list means the output is correct.  sympy is imported only here, and only by
the oracle, so the timed region never pays for it.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA = "shiftcalc/v1"
#: The tolerance every operation runs with: the CLI default, as no op sets --tol.
TOL = 1e-9


def report_problems(rc, stdout: str, command: str, want_rc: int):
    """Parse one run report; returns (report or None, problems)."""
    problems = []
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return None, problems + ["stdout is not one JSON report"]
    if not isinstance(report, dict) or not isinstance(report.get("verdict"), dict):
        return None, problems + ["report has no verdict object"]
    if report.get("schema") != SCHEMA:
        problems.append(f"schema {report.get('schema')!r}, expected {SCHEMA!r}")
    if report.get("command") != command:
        problems.append(f"command {report.get('command')!r}, expected {command!r}")
    return report, problems


def _field(verdict: dict, key: str, want) -> list[str]:
    got = verdict.get(key)
    return [] if got == want and type(got) is type(want) else [f"{key} is {got!r}, expected {want!r}"]


def _residual(value, name: str, tol: float) -> list[str]:
    if not isinstance(value, float) or not math.isfinite(value) or value > tol:
        return [f"residual {name} = {value!r} exceeds tolerance {tol:g}"]
    return []


def aligned_verify_problems(verdict: dict, tol: float = TOL) -> list[str]:
    """A shift built aligned by construction must verify with small residuals."""
    problems = _field(verdict, "concrete", True) + _field(verdict, "aligned", True)
    residuals = verdict.get("residuals")
    if not isinstance(residuals, dict):
        return problems + ["residuals are missing"]
    for side in ("x", "y"):
        problems += _residual(residuals.get(side), side, tol)
    return problems


def aligned_from_se_problems(verdict: dict, out: str) -> list[str]:
    """The canonical shift of a verified witness is concrete and aligned."""
    return _field(verdict, "concrete", True) + _field(verdict, "aligned", True) + _field(verdict, "out", out)


def homotopy_problems(verdict: dict, steps: int, out: str) -> list[str]:
    return (
        _field(verdict, "verified_x", True)
        + _field(verdict, "verified_y", True)
        + _field(verdict, "steps", steps)
        + _field(verdict, "out", out)
    )


def _block_unitarity_defect(doc: dict) -> float:
    worst = 0.0
    for block in doc["blocks"].values():
        m = np.array(block, dtype=float)
        u = m[..., 0] + 1j * m[..., 1]
        worst = max(worst, float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), ord=2)))
    return worst


def homotopy_bundle_problems(path: str, steps: int, tol: float = TOL) -> list[str]:
    """The written bundle holds two sampled paths of unitaries.

    Checks the schema, the sample count and times, and, independently of the
    package, the unitarity of the first, middle and last sample of each path.
    """
    with open(path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    problems = _field(bundle, "schema", SCHEMA) + _field(bundle, "steps", steps)
    for side in ("homotopy_x", "homotopy_y"):
        samples = bundle.get(side, {}).get("samples", [])
        if len(samples) != steps:
            problems.append(f"{side} has {len(samples)} samples, expected {steps}")
            continue
        if samples[0]["t"] != 0.0 or samples[-1]["t"] != 1.0:
            problems.append(f"{side} samples do not run from t=0 to t=1")
        for k in (0, steps // 2, steps - 1):
            defect = _block_unitarity_defect(samples[k]["unitary"])
            problems += _residual(defect, f"{side} sample {k} unitarity", tol)
    return problems


#: Largest matrix whose Bowen-Franks factors come from sympy's full Smith
#: normal form.  On some random 40x40 matrices that form takes 30-40 s, so
#: larger ones are checked through the group's order and free rank instead.
SNF_ORACLE_MAX_N = 30


def invariants_oracle(rows: list[list[int]]) -> dict:
    """The invariant battery of one matrix, computed with sympy.

    The nonzero part of ``Matrix.charpoly`` gives the char-poly invariant;
    ``rank(A^n)`` is the number of nonzero eigenvalues counted with algebraic
    multiplicity, so it is the degree of that nonzero part, and the
    determinant away from zero is ``(-1)^degree`` times its constant term.
    The Bowen-Franks factors come from sympy's Smith normal form of I - A;
    above ``SNF_ORACLE_MAX_N`` the oracle gives the cokernel's free rank
    (the nullity of I - A) and, when that is 0, its order ``|det(I - A)|``.
    """
    import sympy
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.matrices import DomainMatrix

    a = sympy.Matrix(rows)
    n = a.rows
    low_to_high = [int(c) for c in reversed(a.charpoly().all_coeffs())]
    while low_to_high and low_to_high[0] == 0:
        low_to_high.pop(0)
    degree = len(low_to_high) - 1
    expected = {
        "nonzero_char_poly": low_to_high,
        "eventual_rank": degree,
        "det_away_from_zero": (-1) ** degree * low_to_high[0],
    }
    m = sympy.eye(n) - a
    if n <= SNF_ORACLE_MAX_N:
        snf = smith_normal_form(m, domain=sympy.ZZ)
        diag = [abs(int(snf[i, i])) for i in range(n)]
        expected["bowen_franks"] = sorted(d for d in diag if d not in (0, 1)) + [0] * diag.count(0)
    else:
        dm = DomainMatrix.from_Matrix(m).convert_to(sympy.ZZ)
        free = n - dm.rank()
        expected["bowen_franks_free_rank"] = free
        if free == 0:
            expected["bowen_franks_order"] = abs(int(dm.det()))
    return expected


def invariants_problems(verdict: dict, expected: dict) -> list[str]:
    got = dict(verdict)
    factors = verdict.get("bowen_franks") or []
    got["bowen_franks_free_rank"] = factors.count(0)
    got["bowen_franks_order"] = math.prod(factors)
    return [
        f"{key} is {got.get(key)!r}, sympy gives {want!r}"
        for key, want in expected.items()
        if got.get(key) != want
    ]


def compare_problems(verdict: dict, distinguished: bool) -> list[str]:
    """Shift-equivalent endpoints compare inconclusive; pairs built with
    different traces have different nonzero char polys."""
    if not distinguished:
        return _field(verdict, "distinguished", False) + _field(verdict, "separating", [])
    return _field(verdict, "distinguished", True) + _field(verdict, "primary", "nonzero_char_poly")


def search_problems(verdict: dict, a, b, lag: int, bound: int, expect_found: bool) -> list[str]:
    """A recovery case must return a witness that ``verify_se`` accepts; a
    pair with different invariants has no witness at any bound."""
    from shiftcalc.jsonio import witness_from_json
    from shiftcalc.witnesses import verify_se

    problems = _field(verdict, "found", expect_found)
    if not expect_found:
        return problems + _field(verdict, "witness", None)
    try:
        w = witness_from_json(verdict.get("witness"))
    except Exception as exc:  # any malformed witness is a wrong output
        return problems + [f"witness does not parse: {exc}"]
    if (w.a, w.b, w.lag) != (a, b, lag):
        problems.append("witness endpoints or lag differ from the search input")
    if max(max(row) for m in (w.r, w.s) for row in m.entries) > bound:
        problems.append("witness exceeds the entry bound")
    if not verify_se(w):
        problems.append("returned witness fails verify_se")
    return problems

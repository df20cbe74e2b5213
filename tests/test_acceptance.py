"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion is one row of ``shiftcalc.selftest.PROPERTIES``, which holds
its seeds, its instances and its residual budgets in units of the tolerance;
``shiftcalc selftest`` runs the same rows at field sizes.  Here every row runs
at full size with ``TAU``, under the literal gates on its worst residual and
its wall time.  Run with ``pytest -s tests/test_acceptance.py`` to see one
pass/fail line per criterion; a plain ``pytest`` run enforces the same
assertions silently.  Every random instance is seeded, so the suite is
reproducible bit for bit.
"""

import time

from shiftcalc.selftest import PROPERTIES, Outcome, recover_golden, refute_two_against_three

TAU = 1e-9

ROWS = {row.name: row for row in PROPERTIES}


def _passed(name: str, outcome: Outcome) -> Outcome:
    assert outcome.failure is None, f"{name}: {outcome.failure}"
    return outcome


def _run(name: str, size: int) -> Outcome:
    """The named property at acceptance ``size`` and ``TAU``; it must pass."""
    return _passed(name, ROWS[name].check(size, TAU))


def _report(number: int, label: str):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_se_verification_exactness():
    started = time.perf_counter()
    _run("witness-verification", 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.010, f"verification took {elapsed * 1000:.2f} ms"
    _report(1, "SE verification exactness")


def test_criterion_2_se_composition_soundness():
    started = time.perf_counter()
    _run("chain-composition", 200)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"composition suite took {elapsed:.1f} s"
    _report(2, "SE composition soundness, 200 chains")


def test_criterion_3_invariant_separation():
    _run("invariant-separation", 1)
    _report(3, "invariant separation")


def test_criterion_4_tensor_dimension_oracle():
    _run("tensor-dims-oracle", 500)
    _report(4, "tensor dimension oracle, 500 pairs")


def test_criterion_5_bicategory_laws():
    # 100 seeded arrows for the unit, invertibility and power laws, then 100
    # seeded pairs for the interchange law.
    worst = _run("bicategory-laws", 100).worst
    assert worst <= 1e-8, f"max residual {worst:.3e}"
    _report(5, f"bicategory laws, max residual {worst:.1e}")


def test_criterion_6_alignment_transitivity():
    worst = _run("alignment-transitivity", 50).worst
    assert worst <= 8e-9, f"max residual {worst:.3e}"
    _report(6, f"alignment transitivity, max residual {worst:.1e}")


def test_criterion_7_homotopy_end_to_end():
    started = time.perf_counter()
    worst = _run("homotopy-roundtrip", 16).worst
    assert worst <= 1e-8, f"endpoint residual {worst:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _report(7, "homotopy shift equivalence end to end")


def test_criterion_8_alignment_formulations_agree():
    worst = _run("alignment-formulations", 100).worst
    assert worst <= 1e-8, f"gap {worst:.3e}"
    _report(8, "alignment formulations agree on 100 shifts")


def test_criterion_9_search_timings():
    # The two halves of "search-recovery", timed apart.
    started = time.perf_counter()
    _passed("search-recovery", recover_golden(1, TAU))
    first = time.perf_counter() - started
    assert first < 1.0, f"recovery took {first:.2f} s"

    started = time.perf_counter()
    _passed("search-recovery", refute_two_against_three(5, TAU))
    second = time.perf_counter() - started
    assert second < 10.0, f"refutation took {second:.2f} s"
    _report(9, "bounded search timings")

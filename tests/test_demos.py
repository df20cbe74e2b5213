"""Smoke test of the demo scripts: each runs in a fresh interpreter against
this checkout's package, exits 0 and writes nothing to stderr."""

import os
import pathlib
import subprocess
import sys

import pytest

import shiftcalc

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))

DEMO_02_STDOUT = """\
[2] -> char away from zero: t - 2 | Bowen-Franks: () | eventual rank: 1
[3] -> char away from zero: t - 3 | Bowen-Franks: (2,) | eventual rank: 1
compare([2],[3]): Distinguished(nonzero_char_poly, bowen_franks, det_away_from_zero)
compare([2], ones): Inconclusive
SNF of [[2,4],[6,8]]: (2, 4)
coker(p(A)) for p=-t + 1: trivial
coker(p(A)) for p=t + 1: trivial
coker(p(A)) for p=-t^2 + 1: trivial
endpoints of a random SSE chain compare as: Inconclusive
"""

# The basis paths here are those the factor runs expand to.
DEMO_03_STDOUT = """\
basis of X([2]): (((0, 0, 0),), ((0, 1, 0),))
dims of X(R) (x) X(S): IntMatrix(1x1: [2]) = R*S: IntMatrix(1x1: [2])
its basis paths: (((0, 0, 0), (0, 0, 0)), ((0, 0, 1), (1, 0, 0)))
associator blocks are identities: True
unit arrow dims: IntMatrix(2x2: [1 0; 0 1])
X^(x)2 dims: IntMatrix(2x2: [2 2; 2 2])
unit law residual: 0.0
u is a 2-arrow: True
u* is the inverse 2-arrow: True
conjugated intertwiner stays unitary: True
"""


def _run(demo):
    src = os.path.dirname(os.path.dirname(shiftcalc.__file__))
    return subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_all_five_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
    pinned = {"02_": DEMO_02_STDOUT, "03_": DEMO_03_STDOUT}.get(demo.name[:3])
    if pinned is not None:
        assert done.stdout == pinned

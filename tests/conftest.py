"""Shared generators and oracles for the test suite.

Random instances are always drawn from explicitly seeded generators so every
run is reproducible; tests state their seeds inline.  The generators live in
``shiftcalc.selftest`` beside the acceptance properties that draw from them,
and are re-exported here for the other test modules.  ``mat_sub`` is the
oracle for I - A that the exact and invariant tests compare against.
"""

import pytest

from shiftcalc import IntMatrix, SEWitness, from_rows
from shiftcalc.selftest import GOLDEN_WITNESS, arrow_from_witness, random_essential  # noqa: F401


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a - b entrywise, for same-shaped a and b: the oracle for I - A."""
    return from_rows([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


@pytest.fixture
def golden_witness() -> SEWitness:
    """The 1x1 full shift against the 2x2 all-ones matrix, lag 1."""
    return GOLDEN_WITNESS

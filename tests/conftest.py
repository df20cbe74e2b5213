"""Shared generators for the test suite.

Random instances are always drawn from explicitly seeded generators so every
run is reproducible; tests state their seeds inline.  The generators live in
``shiftcalc.selftest`` beside the acceptance properties that draw from them,
and are re-exported here for the other test modules.
"""

import pytest

from shiftcalc import SEWitness
from shiftcalc.selftest import GOLDEN_WITNESS, arrow_from_witness, random_essential  # noqa: F401


@pytest.fixture
def golden_witness() -> SEWitness:
    """The 1x1 full shift against the 2x2 all-ones matrix, lag 1."""
    return GOLDEN_WITNESS

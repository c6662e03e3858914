import numpy as np
import pytest

from mimocap import NetworkGeometry


@pytest.fixture
def geometry():
    """The shipped scenario: a = 1600 m, hole 100 m, gamma = 4, reuse 1."""
    return NetworkGeometry()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)

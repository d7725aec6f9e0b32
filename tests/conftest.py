import numpy as np
import pytest

from bergman import RadialWeight, make_grid


@pytest.fixture(scope="session")
def grid8():
    return make_grid(8)


@pytest.fixture(scope="session")
def grid10():
    return make_grid(10)


@pytest.fixture(scope="session")
def grid12():
    return make_grid(12)


@pytest.fixture(scope="session")
def unit_weight():
    return RadialWeight.power(0.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


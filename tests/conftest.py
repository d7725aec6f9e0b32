import numpy as np
import pytest

from bergman import QuadratureGrid, RadialWeight


@pytest.fixture(scope="session")
def grid8():
    return QuadratureGrid(8)


@pytest.fixture(scope="session")
def grid10():
    return QuadratureGrid(10)


@pytest.fixture(scope="session")
def grid12():
    return QuadratureGrid(12)


@pytest.fixture(scope="session")
def unit_weight():
    return RadialWeight.power(0.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


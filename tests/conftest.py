import numpy as np
import pytest

from levosc import HeliumMedia, OscillatorSpec


@pytest.fixture(scope="session")
def media():
    return HeliumMedia()


@pytest.fixture(scope="session")
def osc():
    return OscillatorSpec(mass=6.33e-6, radius_warm=1.00e-3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)

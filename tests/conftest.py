import numpy as np
import pytest

pytest_plugins = ["pytester"]  # the pytester fixture of test_pytest_settings


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

import os
from pathlib import Path

import numpy as np
import pytest

import spinfringe
from spinfringe import SlitGeometry


@pytest.fixture
def two_slit():
    """Default desk-scale layout: 2 slits 2 um apart, 500 nm light, 1 m screen."""
    return SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1.0)


@pytest.fixture
def three_slit():
    return SlitGeometry.evenly_spaced(3, 2e-6, 500e-9, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def subprocess_env():
    """Environment for a child interpreter that imports this checkout's ``spinfringe``.

    ``PYTHONPATH`` is made absolute, so the child finds the package from any
    working directory.
    """
    src = str(Path(spinfringe.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}

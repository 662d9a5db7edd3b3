import numpy as np
import pytest

from latgas.velocities import VelocitySet, two_velocity_set
from reference import four_velocity_set


@pytest.fixture
def vs2():
    """Reference d=1 set {+1/2, -1/2}."""
    return two_velocity_set(0.5)


@pytest.fixture
def vs4():
    """d=1 set {±1/2, ±1/4} with genuine collisions."""
    return four_velocity_set(0.5, 0.25)


@pytest.fixture
def vs_unit():
    """d=1 set {+1, -1} used in several arithmetic examples."""
    return VelocitySet(np.array([[1.0], [-1.0]]))


@pytest.fixture
def vs2d():
    """d=2 set {(±1/2, 0), (0, ±1/2)}."""
    return VelocitySet(np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)

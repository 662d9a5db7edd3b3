"""Boundary-driven lattice gas with velocities.

Simulates the microscopic exclusion-with-collisions chain, solves the
macroscopic diffusion system with nonlinear drift, extracts empirical fields,
and evaluates the trajectory cost functional, cross-checking all three layers
against each other.
"""

__version__ = "0.1.0"

from .velocities import VelocitySet, CollisionSet
from .lattice import Lattice
from .dynamics import Model, ReservoirProfiles, simulate

__all__ = [
    "__version__",
    "VelocitySet",
    "CollisionSet",
    "Lattice",
    "Model",
    "ReservoirProfiles",
    "simulate",
]

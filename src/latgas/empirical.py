"""Macroscopic observables of microscopic configurations.

A configuration is a plain (n_sites, nv) array of 0/1 occupations in the
lattice's site order.  The empirical measure puts mass N^{-d} I_k(eta_x) at
x/N (`Lattice.positions`) for each conserved component k; block averages
coarse-grain the conserved vector over cubes; the box smoother turns the
atomic measure into grid-sampled densities (mass in the sup-norm eps-box
around each node, divided by the box's Lebesgue measure inside the domain and
by the inflation constant U_eps = 1 + eps).  Every function takes leading
batch axes (replicas, sample times), so a stack of configurations is
measured, block-averaged, smoothed and compared in one call, with the bytes
of one call per configuration.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grid import Grid
from .lattice import Lattice
from .velocities import VelocitySet


def _occupations(eta, lattice: Lattice, vset: VelocitySet) -> np.ndarray:
    """eta as an array, checked to be (..., n_sites, nv)."""
    eta = np.asarray(eta)
    if eta.shape[-2:] != (lattice.n_sites, len(vset)):
        raise ValueError("configuration shape does not match lattice/velocity set")
    return eta


def empirical_measure(eta, lattice: Lattice, vset: VelocitySet) -> np.ndarray:
    """The masses N^{-d} I(eta_x) of the atoms at `lattice.positions()`,
    (..., n_sites, d+1), of a configuration (n_sites, nv) or of a stack of
    them (..., n_sites, nv)."""
    return float(lattice.N) ** (-lattice.d) * (_occupations(eta, lattice, vset) @ vset.vtilde)


def block_average(eta, lattice: Lattice, vset: VelocitySet, centers, L: int) -> np.ndarray:
    """Average conserved vector over the cube x + {-L..L}^d around each site
    x = (c, 0, ..., 0), c in `centers`: (..., len(centers), d+1) for a
    configuration (n_sites, nv) or a stack (..., n_sites, nv).

    Transverse directions wrap; each wall coordinate must satisfy
    L+1 <= c <= N-1-L so the cube stays inside the walls.  A cube's
    occupation counts are summed as integers, and their products with the
    conserved vectors are summed exactly, so opposite velocities occupied
    equally often cancel to exactly 0.
    """
    if L < 0:
        raise ValueError("block radius must be nonnegative")
    lo, hi = L + 1, lattice.N - 1 - L
    outside = [c for c in centers if not lo <= c <= hi]
    if outside:
        raise DomainError(
            f"blocks of radius {L} around x1={outside} leave the cylinder "
            f"(need {lo} <= x1 <= {hi})"
        )
    eta = _occupations(eta, lattice, vset)
    lead, nv = eta.ndim - 2, eta.shape[-1]
    offsets = np.arange(-L, L + 1)
    # x1 - 1 of each cube's sites, (centers, 2L+1), then each transverse axis
    # cut to the offsets around 0, wrapped
    cube = np.take(eta.reshape(eta.shape[:-2] + lattice.shape + (nv,)),
                   np.asarray(centers, dtype=np.int64)[:, None] - 1 + offsets, axis=lead)
    for axis in range(lead + 2, lead + lattice.d + 1):
        cube = np.take(cube, offsets, axis=axis, mode="wrap")
    size = len(offsets) ** lattice.d
    counts = cube.reshape(cube.shape[:lead + 1] + (size, nv)).sum(axis=-2, dtype=np.int64)
    terms = np.swapaxes(counts[..., None] * vset.vtilde, -1, -2)
    return np.array([math.fsum(t) for t in terms.reshape(-1, nv)]).reshape(terms.shape[:-1]) / size


def smooth(masses, lattice: Lattice, eps: float, grid: Grid) -> np.ndarray:
    """Box-smooth the empirical measure with `masses` (..., n_sites, d+1)
    onto grid nodes: (..., *grid.shape, d+1).

    At node u the density is (mass of atoms within sup-norm distance eps,
    wrapping transverse axes) / (Lebesgue measure of the box clipped to the
    domain) / U_eps with U_eps = 1 + eps.  The box membership of the atoms
    and the box volumes are built once for a batch of measures.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if grid.d != lattice.d:
        raise ValueError("grid dimension does not match the lattice")
    if grid.min_spacing > eps / 2 + 1e-12:
        raise ValueError(
            f"grid spacing {grid.min_spacing:.4g} exceeds eps/2 = {eps / 2:.4g}"
        )
    nodes = grid.nodes().reshape(-1, grid.d)
    pos = lattice.positions()
    inside = np.abs(pos[None, :, 0] - nodes[:, None, 0]) <= eps
    for j in range(1, grid.d):
        diff = np.abs(pos[None, :, j] - nodes[:, None, j])
        inside &= np.minimum(diff, 1.0 - diff) <= eps
    mass = inside @ masses  # (..., n_nodes, d+1)
    len0 = np.minimum(nodes[:, 0] + eps, 1.0) - np.maximum(nodes[:, 0] - eps, 0.0)
    volume = len0 * (min(2 * eps, 1.0) ** (grid.d - 1))
    values = mass / (volume[:, None] * (1.0 + eps))
    return values.reshape(mass.shape[:-2] + grid.shape + mass.shape[-1:])


def l1_distance(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise integral of |a - b| over the domain (trapezoid weights).

    `a` and `b` are fields (*grid.shape, ncomp) with leading batch axes that
    broadcast against each other, such as a stack of replicas against one
    reference; the result is (..., ncomp) over the broadcast leading axes."""
    tail = grid.d + 1
    if min(a.ndim, b.ndim) < tail or a.shape[-tail:] != b.shape[-tail:]:
        raise ValueError("field shapes differ")
    w = grid.weights()
    diff = np.abs(a - b)
    axes = tuple(range(-tail, -1))
    return np.sum(diff * w[..., None], axis=axes)

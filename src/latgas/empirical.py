"""Macroscopic observables of microscopic configurations.

The empirical measure puts mass N^{-d} I_k(eta_x) at x/N for each conserved
component k; block averages coarse-grain the conserved vector over cubes;
the box smoother turns the atomic measure into grid-sampled densities
(mass in the sup-norm eps-box around each node, divided by the box's Lebesgue
measure inside the domain and by the inflation constant U_eps = 1 + eps).
`empirical_measure`, `smooth` and `l1_distance` take leading batch axes
(replicas, sample times), so a stack of configurations is measured, smoothed
and compared in one call, with the bytes of one call per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import Grid
from .lattice import Configuration, Lattice
from .velocities import VelocitySet


@dataclass
class EmpiricalMeasure:
    """Atomic representation: one atom per site, d+1 mass components; a
    batch of measures on the same atoms carries leading axes in `masses`."""

    positions: np.ndarray   # (n_sites, d), x/N
    masses: np.ndarray      # (..., n_sites, d+1), N^{-d} I(eta_x)
    N: int
    d: int


def empirical_measure(eta, lattice: Lattice, vset: VelocitySet) -> EmpiricalMeasure:
    """The empirical measure of a configuration (n_sites, nv), or of a stack
    of them (..., n_sites, nv) whose leading batch axes lead `masses` too."""
    if isinstance(eta, Configuration):
        eta = eta.eta
    eta = np.asarray(eta)
    if eta.shape[-2:] != (lattice.n_sites, len(vset)):
        raise ValueError("configuration shape does not match lattice/velocity set")
    site_I = eta.astype(float) @ vset.vtilde
    scale = float(lattice.N) ** (-lattice.d)
    return EmpiricalMeasure(
        positions=lattice.positions(), masses=scale * site_I,
        N=lattice.N, d=lattice.d,
    )


def block_average(eta, lattice: Lattice, vset: VelocitySet, x, L: int) -> np.ndarray:
    """Average conserved vector over the cube x + {-L..L}^d.

    Transverse directions wrap; the first coordinate must satisfy
    L+1 <= x_1 <= N-1-L so the cube stays inside the walls.
    """
    if isinstance(eta, Configuration):
        eta = eta.eta
    coords = tuple(x)
    if L < 0:
        raise ValueError("block radius must be nonnegative")
    if not L + 1 <= coords[0] <= lattice.N - 1 - L:
        raise DomainError(
            f"block of radius {L} around x1={coords[0]} leaves the cylinder "
            f"(need {L + 1} <= x1 <= {lattice.N - 1 - L})"
        )
    total = np.zeros(vset.d + 1)
    offsets = np.meshgrid(*([np.arange(-L, L + 1)] * lattice.d), indexing="ij")
    offsets = np.stack(offsets, axis=-1).reshape(-1, lattice.d)
    for off in offsets:
        c = list(coords)
        c[0] += off[0]
        for j in range(1, lattice.d):
            c[j] = (c[j] + off[j]) % lattice.N
        site = lattice.index(c)
        total += eta[site].astype(float) @ vset.vtilde
    return total / len(offsets)


@dataclass
class SmoothedField:
    """Grid-sampled smoothed densities of an empirical measure."""

    grid: Grid
    eps: float
    u_eps: float
    values: np.ndarray  # (..., *grid.shape, d+1)


def smooth(measure: EmpiricalMeasure, eps: float, grid: Grid) -> SmoothedField:
    """Box-smooth the empirical measure onto grid nodes.

    At node u the density is (mass of atoms within sup-norm distance eps,
    wrapping transverse axes) / (Lebesgue measure of the box clipped to the
    domain) / U_eps with U_eps = 1 + eps.  The box membership of the atoms
    and the box volumes are built once for a batch of measures, whose
    leading axes lead `values`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if grid.d != measure.d:
        raise ValueError("grid dimension does not match the measure")
    if grid.min_spacing > eps / 2 + 1e-12:
        raise ValueError(
            f"grid spacing {grid.min_spacing:.4g} exceeds eps/2 = {eps / 2:.4g}"
        )
    nodes = grid.nodes().reshape(-1, grid.d)
    pos = measure.positions
    inside = np.abs(pos[None, :, 0] - nodes[:, None, 0]) <= eps
    for j in range(1, grid.d):
        diff = np.abs(pos[None, :, j] - nodes[:, None, j])
        inside &= np.minimum(diff, 1.0 - diff) <= eps
    mass = inside @ measure.masses  # (..., n_nodes, d+1)
    len0 = np.minimum(nodes[:, 0] + eps, 1.0) - np.maximum(nodes[:, 0] - eps, 0.0)
    volume = len0 * (min(2 * eps, 1.0) ** (grid.d - 1))
    u_eps = 1.0 + eps
    values = mass / (volume[:, None] * u_eps)
    return SmoothedField(grid=grid, eps=eps, u_eps=u_eps,
                         values=values.reshape(mass.shape[:-2] + grid.shape + mass.shape[-1:]))


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

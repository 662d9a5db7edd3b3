"""Cylinder lattice {1..N-1} x T_N^{d-1}: site indexing, the neighbor table,
and validated configurations.

The first coordinate runs over 1..N-1 with hard walls (no wrap); the remaining
d-1 coordinates are periodic with period N.  Directions are indexed
0..2d-1 as (+e_1, -e_1, +e_2, -e_2, ...); `neighbor_table` gives every
site's jump target per direction, -1 through a wall, and is the geometry the
event catalog (`dynamics.RateTable`) is built from.  A `periodic=True`
lattice wraps the first coordinate on its ring of N-1 sites instead (used by
the exact generator to check invariance of product measures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .velocities import VelocitySet


@dataclass(frozen=True)
class Lattice:
    N: int
    d: int = 1
    periodic: bool = False

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def shape(self) -> tuple:
        return (self.N - 1,) + (self.N,) * (self.d - 1)

    @property
    def n_sites(self) -> int:
        return (self.N - 1) * self.N ** (self.d - 1)

    def index(self, coords) -> int:
        """Flat site index of coordinates (x1, ..., xd), x1 in 1..N-1."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        x1 = coords[0]
        if not 1 <= x1 <= self.N - 1:
            raise ValueError(f"x1={x1} outside 1..{self.N - 1}")
        rest = coords[1:]
        if any(not 0 <= c <= self.N - 1 for c in rest):
            raise ValueError(f"transverse coordinate out of range in {coords}")
        return int(np.ravel_multi_index((x1 - 1,) + rest, self.shape))

    def all_coords(self) -> np.ndarray:
        """(n_sites, d) integer coordinates in site-index order."""
        grids = np.indices(self.shape).reshape(self.d, -1).T
        grids[:, 0] += 1
        return grids

    def positions(self) -> np.ndarray:
        """Macroscopic positions x/N of all sites, shape (n_sites, d)."""
        return self.all_coords() / self.N

    def neighbor_table(self) -> np.ndarray:
        """(n_sites, 2d) table of jump targets, -1 where suppressed."""
        coords = self.all_coords()
        table = np.empty((self.n_sites, 2 * self.d), dtype=np.int64)
        for direction in range(2 * self.d):
            axis, sign = divmod(direction, 2)
            c = coords.copy()
            c[:, axis] += 1 if sign == 0 else -1
            if axis > 0:
                c[:, axis] %= self.N
            elif self.periodic:
                c[:, 0] = (c[:, 0] - 1) % (self.N - 1) + 1
            inside = (c[:, 0] >= 1) & (c[:, 0] <= self.N - 1)
            c[:, 0] -= 1
            flat = np.ravel_multi_index(tuple(c.T), self.shape, mode="clip")
            table[:, direction] = np.where(inside, flat, -1)
        return table


class Configuration:
    """Occupation field eta(x, v) in {0,1} on lattice sites x and velocities v."""

    def __init__(self, lattice: Lattice, vset: VelocitySet, eta=None):
        self.lattice = lattice
        self.vset = vset
        if eta is None:
            eta = np.zeros((lattice.n_sites, len(vset)), dtype=np.uint8)
        eta = np.asarray(eta, dtype=np.uint8)
        if eta.shape != (lattice.n_sites, len(vset)):
            raise ValueError(
                f"eta shape {eta.shape} does not match "
                f"(n_sites={lattice.n_sites}, nv={len(vset)})"
            )
        if not np.all(eta <= 1):
            raise ValueError("occupations must be 0 or 1")
        self.eta = eta

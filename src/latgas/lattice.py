"""Cylinder lattice {1..N-1} x T_N^{d-1}: site coordinates and the neighbor table.

The first coordinate runs over 1..N-1 with hard walls (no wrap); the remaining
d-1 coordinates are periodic with period N.  Sites are numbered in the C
order of `shape`, (x1 - 1, x2, ..., xd) with the last coordinate fastest; a
configuration is a plain (n_sites, nv) array of 0/1 occupations eta(x, v) in
that order, checked where the simulator takes it (`dynamics.SimState`).
Directions are indexed 0..2d-1 as (+e_1, -e_1, +e_2, -e_2, ...);
`neighbor_table` gives every site's jump target per direction, -1 through a
wall, and is the geometry the event catalog (`dynamics.RateTable`) is built
from.  A `periodic=True` lattice wraps the first coordinate on its ring of
N-1 sites instead (used by the exact generator to check invariance of
product measures); it needs N >= 3, since on a ring of one site every hop
would land on its own slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Lattice:
    N: int
    d: int = 1
    periodic: bool = False

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.periodic and self.N < 3:
            raise ValueError("a periodic lattice needs N >= 3, a ring of at least two sites")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def shape(self) -> tuple:
        return (self.N - 1,) + (self.N,) * (self.d - 1)

    @property
    def n_sites(self) -> int:
        return (self.N - 1) * self.N ** (self.d - 1)

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

"""Uniform space grids on [0,1] x T^{d-1} shared by the PDE, field extraction,
and functional quadrature.

Axis 0 spans [0,1] with m1 nodes including both wall endpoints (spacing
1/(m1-1)); the d-1 transverse axes are periodic with mt nodes at spacing 1/mt.
Space quadrature is the trapezoid rule along axis 0 and the exact uniform rule
on the transverse torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    d: int
    m1: int
    mt: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.m1 < 3:
            raise ValueError("need at least 3 nodes across [0,1]")
        if self.d > 1 and self.mt < 3:
            raise ValueError("transverse axes need at least 3 nodes")

    @property
    def shape(self) -> tuple:
        return (self.m1,) + (self.mt,) * (self.d - 1)

    @property
    def h1(self) -> float:
        return 1.0 / (self.m1 - 1)

    @property
    def ht(self) -> float:
        return 1.0 / self.mt if self.d > 1 else 0.0

    @property
    def min_spacing(self) -> float:
        return min([self.h1] + ([self.ht] if self.d > 1 else []))

    def axis(self, i: int) -> np.ndarray:
        if i == 0:
            return np.linspace(0.0, 1.0, self.m1)
        return np.arange(self.mt) / self.mt

    def nodes(self) -> np.ndarray:
        """(shape..., d) array of node positions, built once per grid (read-only)."""
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        axes = [self.axis(i) for i in range(self.d)]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        nodes.flags.writeable = False
        return nodes

    def weights(self) -> np.ndarray:
        """Space quadrature weights, shape = grid shape; sums to |D| = 1."""
        w1 = np.full(self.m1, self.h1)
        w1[0] = w1[-1] = self.h1 / 2
        w = w1
        for _ in range(self.d - 1):
            w = np.multiply.outer(w, np.full(self.mt, self.ht))
        return w

    @property
    def tshape(self) -> tuple:
        return (self.mt,) * (self.d - 1)

    def transverse_points(self) -> np.ndarray:
        """(n_t, d-1) positions of the wall nodes on the torus, in node order;
        a single empty point for d=1."""
        return self.nodes()[0, ..., 1:].reshape(self.mt ** (self.d - 1), self.d - 1)

    def transverse_weights(self) -> np.ndarray:
        """Flattened surface quadrature weights on T^{d-1}; total mass 1."""
        if self.d == 1:
            return np.ones(1)
        n_t = self.mt ** (self.d - 1)
        return np.full(n_t, 1.0 / n_t)


def field_columns(grid: Grid) -> list:
    """Column names of `field_rows`: t, u1..ud, comp0..compd."""
    return (["t"] + [f"u{i + 1}" for i in range(grid.d)]
            + [f"comp{k}" for k in range(grid.d + 1)])


def field_rows(grid: Grid, times, frames):
    """Long-format rows of (rho, p) fields on `grid`, one per (time, node);
    frames[i] holds the (*grid.shape, d+1) values at times[i]."""
    nodes = grid.nodes().reshape(-1, grid.d).tolist()
    for t, frame in zip(times, frames):
        # Python floats format faster than numpy scalars, to the same text
        for x, row in zip(nodes, np.reshape(frame, (-1, grid.d + 1)).tolist()):
            yield [f"{t:.10g}"] + [f"{c:.10g}" for c in x] + [f"{y:.12g}" for y in row]

"""Macroscopic layer: the diffusion system with nonlinear drift and its tools.

The field w = (rho, p) on [0,1] x T^{d-1} solves

    dw/dt + sum_i d/du_i F_i(w) = (1/2) Lap w,      F_i(w) = sum_v vtilde v_i chi(theta_v(w)),

with Dirichlet data a, b on the walls u_1 = 0, 1 built from the reservoir
profiles.  The controlled variant replaces v_i by v_i - vtilde . d_i H for a
vector field H vanishing on the walls.  Discretization: method of lines,
second-order central differences for both the Laplacian and the flux
divergence, and one second-order implicit-explicit (IMEX) time step: the
(1/2) Lap w term by Crank-Nicolson, the flux divergence by Heun, with the
Dirichlet values held by the implicit solve.  dt is bounded by the advective
CFL condition of `advective_limit`; by default one step per frame.

`QuadratureContext` evaluates the weak-form residual of a trajectory against a
test function (trapezoid in space, midpoint in time) and the chi-weighted
space-time inner product; the residual vanishes on solutions, which is the
linear part of the trajectory cost functional.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field as dc_field
from functools import reduce
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import zpttrf, zpttrs

from .dynamics import ReservoirProfiles
from .errors import DomainError, NumericalFailure, StabilityError
from .grid import Grid
from .thermo import NEWTON_TOL, domain_of, invert_conserved, theta_all
from .velocities import VelocitySet

HULL_EXCURSION_TOL = 1e-9
HULL_INTERIOR_PAD = 1e-12
WALL_VANISH_TOL = 1e-12
# Smallest hull margin admitted for wall data; see BoundaryData.from_profiles.
RESERVOIR_MIN_MARGIN = float(np.sqrt(NEWTON_TOL))


# --- boundary data -------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet values on the two walls: a at u_1 = 0, b at u_1 = 1.

    Arrays have shape tshape + (d+1,); for d=1 they are plain (d+1,) vectors
    a = sum_v (alpha_v, v alpha_v) and b likewise with beta_v.
    """

    a: np.ndarray
    b: np.ndarray

    @classmethod
    def from_profiles(cls, profiles: ReservoirProfiles, vset: VelocitySet,
                      grid: Grid) -> "BoundaryData":
        """Wall data a, b from the reservoir densities at the transverse nodes.

        Raises DomainError unless every wall value has hull margin at least
        RESERVOIR_MIN_MARGIN = sqrt(NEWTON_TOL) = 1e-6.  The floor is numerical:
        `invert_conserved` stops at sup-norm residual NEWTON_TOL, which leaves
        an error of about NEWTON_TOL / lambda_min in the chemical potential,
        where lambda_min is the smallest eigenvalue of the Jacobian
        J = sum_v chi(theta_v) vtilde vtilde^T.  lambda_min vanishes in
        proportion to the margin: where all wall densities vanish together,
        lambda_min = 0.56 x margin for the two-velocity set and 0.35 x margin
        for the four-velocity set (cond(J) stays 4 and 6.4; it is ||J^-1||
        that blows up).  At the floor that leaves about 3e-6 in lambda at
        that corner (1e-5 at the smallest ratio, 0.1, seen over sampled
        interior points), of the order of the densities the floor excludes.
        Densities inside (0, 1) with a smaller margin are rejected here
        rather than in ReservoirProfiles, because the simulator is well
        defined for them.
        """
        pts = grid.transverse_points()
        n_t = len(pts)

        def build(fns):
            dens = np.empty((n_t, len(vset)))
            for v, f in enumerate(fns):
                dens[:, v] = np.broadcast_to(np.asarray(f(pts), dtype=float), (n_t,))
            return (dens @ vset.vtilde).reshape(grid.tshape + (vset.d + 1,))

        a, b = build(profiles.alpha), build(profiles.beta)
        dom = domain_of(vset)
        worst = min(float(np.min(dom.margin(a))), float(np.min(dom.margin(b))))
        if worst < RESERVOIR_MIN_MARGIN:
            raise DomainError(
                f"reservoir data must keep hull margin >= {RESERVOIR_MIN_MARGIN:.0e} "
                f"(worst wall margin {worst:.3e})"
            )
        return cls(a=a, b=b)


# --- test functions and controls -------------------------------------------------

class TimeFactor:
    """Scalar factor tau(t) with an analytic derivative."""

    def __init__(self, kind: str, horizon: float, n: int = 0):
        if kind not in ("const", "linear", "cos", "sin"):
            raise ValueError(f"unknown time factor {kind!r}")
        self.kind, self.T, self.n = kind, float(horizon), int(n)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.ones_like(t)
        if self.kind == "linear":
            return t / self.T
        w = 2 * np.pi * self.n / self.T
        return np.cos(w * t) if self.kind == "cos" else np.sin(w * t)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.zeros_like(t)
        if self.kind == "linear":
            return np.full_like(t, 1.0 / self.T)
        w = 2 * np.pi * self.n / self.T
        return -w * np.sin(w * t) if self.kind == "cos" else w * np.cos(w * t)


class AxisFactor:
    """1D spatial factor with analytic first/second derivatives.

    kind "sine" (sin(k pi u), k >= 1) vanishes at u = 0, 1 and is used along
    the wall axis; "cos"/"sin" Fourier factors (period 1) serve the transverse
    torus axes; "one" is the constant factor.
    """

    def __init__(self, kind: str, k: int = 1):
        if kind not in ("sine", "cos", "sin", "one"):
            raise ValueError(f"unknown axis factor {kind!r}")
        if kind == "sine" and k < 1:
            raise ValueError("sine wavenumber must be >= 1")
        self.kind, self.k = kind, int(k)

    def _omega(self) -> float:
        return np.pi * self.k if self.kind == "sine" else 2 * np.pi * self.k

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "one":
            return np.ones_like(u)
        w = self._omega()
        return np.cos(w * u) if self.kind == "cos" else np.sin(w * u)

    def d1(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "one":
            return np.zeros_like(u)
        w = self._omega()
        return -w * np.sin(w * u) if self.kind == "cos" else w * np.cos(w * u)

    def d2(self, u):
        return -self._omega() ** 2 * self.value(u) if self.kind != "one" \
            else np.zeros_like(np.asarray(u, dtype=float))


def _outer(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.multiply.outer, arrays)


class SeparableMode:
    """One vector test mode G(t,u) = amp * tau(t) * prod_i s_i(u_i) * e_comp.

    The wall-axis factor must be a sine so the mode vanishes on the walls.
    Space arrays are cached per grid.
    """

    def __init__(self, ncomp: int, component: int, time_factor: TimeFactor,
                 axis_factors: Sequence[AxisFactor], amplitude: float = 1.0):
        if not 0 <= component < ncomp:
            raise ValueError("component index out of range")
        if axis_factors[0].kind != "sine":
            raise ValueError("wall-axis factor must vanish at the walls (sine)")
        self.ncomp = ncomp
        self.component = component
        self.tf = time_factor
        self.axes = list(axis_factors)
        self.amplitude = float(amplitude)
        self._cache = {}

    def _space(self, grid: Grid):
        key = id(grid)
        if key not in self._cache:
            d = grid.d
            if len(self.axes) != d:
                raise ValueError(f"mode has {len(self.axes)} axis factors, grid is {d}-d")
            vals = [f.value(grid.axis(i)) for i, f in enumerate(self.axes)]
            d1s = [f.d1(grid.axis(i)) for i, f in enumerate(self.axes)]
            d2s = [f.d2(grid.axis(i)) for i, f in enumerate(self.axes)]
            value = _outer(vals)
            grad = np.stack(
                [_outer([d1s[i] if j == i else vals[j] for j in range(d)])
                 for i in range(d)], axis=-1)
            lap = sum(
                _outer([d2s[i] if j == i else vals[j] for j in range(d)])
                for i in range(d))
            self._cache[key] = (value, grad, lap)
        return self._cache[key]

    def _lift(self, tvals: np.ndarray, space: np.ndarray) -> np.ndarray:
        out = np.zeros((len(tvals),) + space.shape + (self.ncomp,))
        out[..., self.component] = tvals.reshape((-1,) + (1,) * space.ndim) * space
        return out

    def values(self, times, grid: Grid) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        value, _, _ = self._space(grid)
        return self._lift(self.tf.value(times) * self.amplitude, value)

    def dt(self, times, grid: Grid) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        value, _, _ = self._space(grid)
        return self._lift(self.tf.deriv(times) * self.amplitude, value)

    def gradient(self, times, grid: Grid) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        _, grad, _ = self._space(grid)
        return self._lift(self.tf.value(times) * self.amplitude, grad)

    def laplacian(self, times, grid: Grid) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        _, _, lap = self._space(grid)
        return self._lift(self.tf.value(times) * self.amplitude, lap)


class FieldSum:
    """Linear combination of vector test modes (shared ncomp)."""

    def __init__(self, modes: Sequence, coefficients: Optional[Sequence[float]] = None):
        if not modes:
            raise ValueError("empty combination")
        self.modes = list(modes)
        self.coefficients = (np.ones(len(modes)) if coefficients is None
                             else np.asarray(coefficients, dtype=float))
        if len(self.coefficients) != len(self.modes):
            raise ValueError("one coefficient per mode required")
        self.ncomp = modes[0].ncomp

    def _combine(self, method, times, grid):
        out = None
        for c, m in zip(self.coefficients, self.modes):
            term = c * getattr(m, method)(times, grid)
            out = term if out is None else out + term
        return out

    def values(self, times, grid):
        return self._combine("values", times, grid)

    def dt(self, times, grid):
        return self._combine("dt", times, grid)

    def gradient(self, times, grid):
        return self._combine("gradient", times, grid)

    def laplacian(self, times, grid):
        return self._combine("laplacian", times, grid)


def check_vanishes_on_walls(fld, grid: Grid, horizon: float, tol: float = WALL_VANISH_TOL):
    probes = np.linspace(0.0, horizon, 5)
    vals = fld.values(probes, grid)
    worst = max(float(np.max(np.abs(vals[:, 0]))), float(np.max(np.abs(vals[:, -1]))))
    if worst > tol:
        raise ValueError(f"field does not vanish on the walls (max {worst:.2e})")


# --- trajectories ---------------------------------------------------------------

@dataclass
class FieldTrajectory:
    """Grid-sampled (rho, p) path at uniform frame spacing, frame 0 = gamma."""

    grid: Grid
    times: np.ndarray           # (F+1,)
    values: np.ndarray          # (F+1, *shape, d+1)
    gamma: np.ndarray           # (*shape, d+1)
    boundary: BoundaryData
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        expected = (len(self.times),) + self.grid.shape + (self.grid.d + 1,)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")
        if not np.array_equal(self.values[0], self.gamma):
            raise ValueError("frame 0 must equal the initial profile")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def ncomp(self) -> int:
        return self.grid.d + 1

    def frame_at(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"no frame at t={t} (nearest {self.times[i]})")
        return self.values[i]

    def save(self, path) -> None:
        """Write a compressed .npz; `meta` is stored as a JSON string."""
        np.savez_compressed(
            path, times=self.times, values=self.values, gamma=self.gamma,
            bound_a=self.boundary.a, bound_b=self.boundary.b,
            grid=np.array([self.grid.d, self.grid.m1, self.grid.mt]),
            meta=np.array(json.dumps(self.meta)),
        )

    @classmethod
    def load(cls, path) -> "FieldTrajectory":
        """Read a file written by `save`; files without meta load with meta {}."""
        data = np.load(path)
        d, m1, mt = (int(x) for x in data["grid"])
        return cls(
            grid=Grid(d, m1, mt), times=data["times"], values=data["values"],
            gamma=data["gamma"],
            boundary=BoundaryData(a=data["bound_a"], b=data["bound_b"]),
            meta=json.loads(str(data["meta"])) if "meta" in data.files else {},
        )

    def to_csv(self, path, header_comment: str = "") -> None:
        """Long-format CSV: t, u_1..u_d, comp_0..comp_d per row."""
        nodes = self.grid.nodes().reshape(-1, self.grid.d)
        flat = self.values.reshape(len(self.times), -1, self.ncomp)
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(
                ["t"] + [f"u{i+1}" for i in range(self.grid.d)]
                + [f"comp{k}" for k in range(self.ncomp)]
            )
            for i, t in enumerate(self.times):
                for x, row in zip(nodes, flat[i]):
                    writer.writerow([f"{t:.10g}"] + [f"{c:.10g}" for c in x]
                                    + [f"{y:.12g}" for y in row])


def synthetic_trajectory(grid: Grid, times, fn, boundary: Optional[BoundaryData] = None,
                         meta: Optional[dict] = None) -> FieldTrajectory:
    """Build a trajectory by sampling fn(t, nodes)->(shape..., d+1) on the grid."""
    times = np.asarray(times, dtype=float)
    nodes = grid.nodes()
    frames = np.stack([np.asarray(fn(t, nodes), dtype=float) for t in times])
    if boundary is None:
        boundary = BoundaryData(a=frames[0][0].copy(), b=frames[0][-1].copy())
    return FieldTrajectory(grid=grid, times=times, values=frames,
                           gamma=frames[0].copy(), boundary=boundary,
                           meta=meta or {})


# --- flux and spatial operators ---------------------------------------------------

def flux(value, vset: VelocitySet) -> np.ndarray:
    """Node flux tensor F[i, k] = sum_v vtilde_k v_i chi(theta_v) at one state."""
    value = np.asarray(value, dtype=float)
    from .thermo import theta_field

    th = theta_field(value, vset)
    ch = th * (1.0 - th)
    return np.einsum("v,vi,vk->ik", ch, vset.velocities, vset.vtilde)


def _flux_grid(chi_v: np.ndarray, vset: VelocitySet, drift=None) -> np.ndarray:
    """Batched flux F[..., i, k]; `drift` replaces v_i by v_i - vtilde.d_iH."""
    if drift is None:
        return np.einsum("...v,vi,vk->...ik", chi_v, vset.velocities, vset.vtilde)
    return np.einsum("...v,...iv,vk->...ik", chi_v, drift, vset.vtilde)


def _grad_central(f: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Central difference along a spatial axis; wall rows are left at zero."""
    out = np.zeros_like(f)
    if axis == 0:
        sl = [slice(None)] * f.ndim
        hi, lo, mid = sl.copy(), sl.copy(), sl.copy()
        hi[0], lo[0], mid[0] = slice(2, None), slice(None, -2), slice(1, -1)
        out[tuple(mid)] = (f[tuple(hi)] - f[tuple(lo)]) / (2 * grid.h1)
    else:
        out = (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * grid.ht)
    return out


def _lap_axis(f: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    out = np.zeros_like(f)
    if axis == 0:
        sl = [slice(None)] * f.ndim
        hi, lo, mid = sl.copy(), sl.copy(), sl.copy()
        hi[0], lo[0], mid[0] = slice(2, None), slice(None, -2), slice(1, -1)
        out[tuple(mid)] = (f[tuple(hi)] - 2 * f[tuple(mid)] + f[tuple(lo)]) / grid.h1**2
    else:
        out = (np.roll(f, -1, axis=axis) - 2 * f + np.roll(f, 1, axis=axis)) / grid.ht**2
    return out


# --- solver ----------------------------------------------------------------------

def _drift(control, t: float, grid: Grid, vset: VelocitySet) -> np.ndarray:
    """Controlled velocities v_i - vtilde_v . d_iH at time t, shape (*shape, d, nv)."""
    gh = control.gradient(np.array([t]), grid)[0]
    return vset.velocities.T - np.einsum("...ik,vk->...iv", gh, vset.vtilde)


def advective_limit(grid: Grid, vset: VelocitySet, control=None, times=()) -> float:
    """Largest dt for which the IMEX step is stable on frozen coefficients.

    Linearize the flux about a state w: dF_i/dw = M_i J^-1 with
    M_i = sum_v c_iv (1 - 2 theta_v) chi_v vtilde vtilde^T, J = sum_v chi_v
    vtilde vtilde^T, and c_iv = v_i, or v_i - vtilde_v . d_iH under a control.
    Since |c_iv (1 - 2 theta_v)| <= c_i = max_v |c_iv|, the Loewner bounds
    -c_i J <= M_i <= c_i J put every characteristic speed along axis i in
    [-c_i, c_i].  A Fourier mode with angles phi_i per axis therefore splits
    into scalar modes with explicit symbol -i b, |b| <= sum_i c_i |sin phi_i| / h_i,
    and implicit symbol a = -sum_i (2 / h_i^2) sin^2(phi_i / 2) of A = (1/2) Lap_h.
    With r = (1 - x)/(1 + x), x = dt |a| / 2, and s = dt b / (1 + x), one step
    multiplies the mode by g with |g|^2 = r^2 + s^4/4 + s^2 (1 - r)^2 / 4,
    so |g| <= 1 iff beta^4/4 + beta^2 x^2 <= 4x (1 + x)^2 for beta = dt b.
    That holds when beta^2 <= 8 and beta^4 <= 16x.  Cauchy-Schwarz gives
    beta^2 <= 4 dt |c|^2 x and beta <= sigma = dt sum_i c_i / h_i, so both
    hold when sigma <= 1 (CFL 1) and dt sigma^2 |c|^2 <= 4.  The limit is
    min(dt_cfl, (4 dt_cfl^2 / |c|^2)^(1/3)) with dt_cfl = 1 / sum_i c_i / h_i.
    For d = 1 without control it is h_1 / max_v |v_1| whenever
    h_1 max_v |v_1| <= 4.  A control's drift enters c_i through its values at
    `times`.
    """
    speeds = np.max(np.abs(vset.velocities), axis=0)
    for t in times:
        drift = np.abs(_drift(control, t, grid, vset))
        speeds = np.maximum(speeds, drift.max(axis=tuple(range(grid.d)) + (-1,)))
    spacing = np.array([grid.h1] + [grid.ht] * (grid.d - 1))
    dt_cfl = 1.0 / float(np.sum(speeds / spacing))
    return min(dt_cfl, (4.0 * dt_cfl**2 / float(np.sum(speeds**2))) ** (1.0 / 3.0))


class _Stepper:
    """IMEX trapezoidal step (Ascher, Ruuth & Spiteri 1997) at a fixed dt.

    A = (1/2) Lap_h is taken by Crank-Nicolson, the flux divergence N by Heun:
        (I - dt/2 A) W* = W + dt/2 A W + dt N(W)
        (I - dt/2 A) W' = W + dt/2 A W + dt/2 (N(W) + N(W*)),
    with identity rows at the walls holding a and b.  Eliminating the wall rows
    leaves a symmetric positive definite system on the interior; an rfft along
    the periodic transverse axes diagonalizes their Laplacian, leaving one
    tridiagonal system in u_1 per transverse wavenumber (one for d = 1).  Each
    is factored once, here, and solved twice per step.
    """

    def __init__(self, vset: VelocitySet, grid: Grid, boundary: BoundaryData,
                 dt: float, control=None):
        self.vset = vset
        self.grid = grid
        self.boundary = boundary
        self.control = control
        self.dt = dt
        self.dom = domain_of(vset)
        self.lam = None  # Newton warm start, shape (n_nodes, ncomp)
        self.axes = tuple(range(1, grid.d))
        # (I - dt/2 A) on interior rows: -r, 1 + 2r + s_k, -r per wavenumber k.
        self.r = dt / (4.0 * grid.h1**2)
        if grid.d > 1:
            # rfftn keeps all wavenumbers on the leading axes, half on the last.
            sin2 = [np.sin(np.pi * np.arange(m) / grid.mt) ** 2
                    for m in [grid.mt] * (grid.d - 2) + [grid.mt // 2 + 1]]
            s_k = (dt / grid.ht**2) * reduce(np.add.outer, sin2)
        else:
            s_k = np.zeros(1)
        n = grid.m1 - 2
        # The f2py wrappers reject an empty off-diagonal; for m1 = 3 (n = 1)
        # LAPACK reads none of it.
        off = np.full(max(n - 1, 1), -self.r, dtype=complex)
        self.factors = [zpttrf(np.full(n, 1.0 + 2.0 * self.r + s), off)[:2]
                        for s in np.ravel(s_k)]

    def _theta(self, W: np.ndarray) -> np.ndarray:
        flat = W.reshape(-1, self.vset.d + 1)
        lam = invert_conserved(flat, self.vset, lam0=self.lam, check_domain=False)
        self.lam = lam
        return theta_all(lam, self.vset).reshape(W.shape[:-1] + (len(self.vset),))

    def flux_divergence(self, W: np.ndarray, t: float) -> np.ndarray:
        """N(W) = -sum_i d_i F_i(W), with the control drift when there is one."""
        th = self._theta(W)
        drift = None if self.control is None else _drift(self.control, t, self.grid,
                                                         self.vset)
        fl = _flux_grid(th * (1.0 - th), self.vset, drift)
        return -sum(_grad_central(fl[..., i, :], self.grid, axis=i)
                    for i in range(self.grid.d))

    def implicit_solve(self, R: np.ndarray) -> np.ndarray:
        """Solve (I - dt/2 A) X = R; R's wall rows are ignored, X's are a and b."""
        rhs = R[1:-1].copy()
        rhs[0] += self.r * self.boundary.a
        rhs[-1] += self.r * self.boundary.b
        rhs = np.fft.rfftn(rhs, axes=self.axes) if self.axes else rhs.astype(complex)
        modes = rhs.reshape(len(rhs), -1, rhs.shape[-1])
        for k, (d_k, e_k) in enumerate(self.factors):
            modes[:, k] = zpttrs(d_k, e_k, modes[:, k])[0]
        modes = modes.reshape(rhs.shape)
        X = np.empty_like(R)
        X[1:-1] = (np.fft.irfftn(modes, s=self.grid.tshape, axes=self.axes)
                   if self.axes else modes.real)
        X[0] = self.boundary.a
        X[-1] = self.boundary.b
        return X

    def guard(self, W: np.ndarray, t: float) -> np.ndarray:
        flat = W.reshape(-1, self.vset.d + 1)
        margin = np.atleast_1d(self.dom.margin(flat))
        worst = float(margin.min())
        if worst < -HULL_EXCURSION_TOL:
            k = int(np.argmin(margin))
            raise NumericalFailure(
                f"field left the admissible hull at t={t:.6g} "
                f"(node {k}, value {flat[k]}, margin {worst:.3e})"
            )
        if worst < HULL_INTERIOR_PAD:
            bad = margin < HULL_INTERIOR_PAD
            flat[bad] = self.dom.project_inward(flat[bad], min_margin=HULL_INTERIOR_PAD)
        return W

    def step(self, W: np.ndarray, t: float) -> np.ndarray:
        """Advance W from t to t + dt."""
        dt = self.dt
        base = W + 0.25 * dt * sum(_lap_axis(W, self.grid, axis=i)
                                   for i in range(self.grid.d))
        n0 = self.flux_divergence(W, t)
        W1 = self.guard(self.implicit_solve(base + dt * n0), t + dt)
        n1 = self.flux_divergence(W1, t + dt)
        return self.guard(self.implicit_solve(base + 0.5 * dt * (n0 + n1)), t + dt)


def _prepare_gamma(gamma, grid: Grid, vset: VelocitySet) -> np.ndarray:
    if callable(gamma):
        arr = np.asarray(gamma(grid.nodes()), dtype=float)
    else:
        arr = np.asarray(gamma, dtype=float)
    expected = grid.shape + (vset.d + 1,)
    if arr.shape != expected:
        raise ValueError(f"initial profile shape {arr.shape}, expected {expected}")
    margin = domain_of(vset).margin(arr.reshape(-1, vset.d + 1))
    if float(np.min(margin)) <= HULL_INTERIOR_PAD:
        raise DomainError(
            "initial profile must lie strictly inside the admissible hull "
            f"(worst margin {float(np.min(margin)):.3e})"
        )
    return arr


def solve_controlled(gamma, boundary: BoundaryData, horizon: float, grid: Grid,
                     vset: VelocitySet, control=None, dt: Optional[float] = None,
                     n_frames: int = 256) -> FieldTrajectory:
    """March the (optionally controlled) system to `horizon` with the IMEX step.

    With control=None this is exactly the plain solver: the control term is
    skipped, not added as zero.  Choosing dt:

    - By default dt is the smaller of the frame spacing horizon / n_frames and
      `advective_limit` (with the control's drift sampled at the frame times).
      The diffusion is implicit, so the grid limits dt only through the
      advective CFL condition; on the shipped configs the frame spacing is
      the smaller and each frame is one step.
    - A given `dt` (config key `hydro.dt`) above the advective limit raises
      StabilityError (exit 2) before any work.  A smaller one buys accuracy:
      the step is second order in time, so halving dt cuts the time error by 4.
    - The step count is rounded up so frames are uniformly spaced; when there
      are fewer steps than n_frames, every step is a frame.  The cost
      functional integrates over frames (midpoint rule, error O(dt_frame^2)),
      so n_frames sets that quadrature's accuracy as well as the default
      step count.

    The run's dt, step count and whether it was controlled land in `meta`.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if control is not None:
        check_vanishes_on_walls(control, grid, horizon)
    n_frames = max(1, n_frames)
    probes = np.linspace(0.0, horizon, n_frames + 1) if control is not None else ()
    bound = advective_limit(grid, vset, control, probes)
    if dt is None:
        dt = min(horizon / n_frames, bound)
    elif dt > bound * (1 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the advective step bound {bound:.3e} for this grid"
        )

    n_steps = int(np.ceil(horizon / dt - 1e-12))
    n_frames = min(n_frames, n_steps)
    stride = int(np.ceil(n_steps / n_frames))
    n_steps = stride * int(np.ceil(n_steps / stride))
    dt = horizon / n_steps
    n_frames = n_steps // stride

    gamma_arr = _prepare_gamma(gamma, grid, vset)
    stepper = _Stepper(vset, grid, boundary, dt, control=control)
    W = gamma_arr.copy()
    frames = np.empty((n_frames + 1,) + W.shape)
    frames[0] = W
    times = np.empty(n_frames + 1)
    times[0] = 0.0
    for step_idx in range(1, n_steps + 1):
        W = stepper.step(W, (step_idx - 1) * dt)
        if step_idx % stride == 0:
            f = step_idx // stride
            frames[f] = W
            times[f] = step_idx * dt
    return FieldTrajectory(
        grid=grid, times=times, values=frames, gamma=gamma_arr, boundary=boundary,
        meta={"dt": dt, "n_steps": n_steps, "controlled": control is not None},
    )


def solve_hydro(gamma, boundary: BoundaryData, horizon: float, grid: Grid,
                vset: VelocitySet, dt: Optional[float] = None,
                n_frames: int = 256) -> FieldTrajectory:
    """Solve the uncontrolled system; see solve_controlled."""
    return solve_controlled(gamma, boundary, horizon, grid, vset, control=None,
                            dt=dt, n_frames=n_frames)


# --- weak-form residual and energies ----------------------------------------------

class QuadratureContext:
    """Shared space-time quadrature data for one trajectory.

    Time integrals use the midpoint rule on frame intervals (fields averaged
    between adjacent frames); space integrals use the grid's trapezoid rule.
    The chi weights chi(theta_v(w)) at the midpoints are computed once and
    reused by the residual, the inner product, and the quadratic forms built
    on top.
    """

    def __init__(self, traj: FieldTrajectory, vset: VelocitySet, gamma=None):
        self.traj = traj
        self.vset = vset
        self.grid = traj.grid
        self.gamma = traj.gamma if gamma is None else np.asarray(gamma, dtype=float)
        times = traj.times
        self.t_mid = 0.5 * (times[:-1] + times[1:])
        self.dt_f = np.diff(times)
        self.w_mid = 0.5 * (traj.values[:-1] + traj.values[1:])
        self.w_space = traj.grid.weights()
        self.w_t = traj.grid.transverse_weights()
        flat = self.w_mid.reshape(-1, vset.d + 1)
        margin = domain_of(vset).margin(flat)
        if float(np.min(margin)) <= 0:
            raise DomainError(
                "trajectory leaves the open hull; the cost functional requires "
                f"interior fields (worst margin {float(np.min(margin)):.3e})"
            )
        lam = invert_conserved(flat, vset, check_domain=False)
        th = theta_all(lam, vset)
        self.chi = (th * (1.0 - th)).reshape(self.w_mid.shape[:-1] + (len(vset),))

    def _space_sum(self, arr: np.ndarray) -> np.ndarray:
        """Integrate over space: arr has shape (F, *shape); returns (F,)."""
        axes = tuple(range(1, 1 + self.grid.d))
        return np.sum(arr * self.w_space[None], axis=axes)

    def linear_residual(self, G) -> float:
        """Weak-form residual of the trajectory against G (zero on solutions).

        endpoint pairings - int <w, dG/dt + (1/2) Lap G>
        + (1/2) int [b . d1G|_{u1=1} - a . d1G|_{u1=0}]
        - int sum_v chi_v sum_i v_i (vtilde . d_i G).
        """
        traj, grid, vset = self.traj, self.grid, self.vset
        ends = G.values(np.array([traj.times[0], traj.times[-1]]), grid)
        endpoint = (
            float(np.sum(self.w_space[..., None] * traj.values[-1] * ends[1]))
            - float(np.sum(self.w_space[..., None] * self.gamma * ends[0]))
        )

        dtg = G.dt(self.t_mid, grid) + 0.5 * G.laplacian(self.t_mid, grid)
        bulk = float(np.sum(
            self.dt_f * self._space_sum(np.sum(self.w_mid * dtg, axis=-1))
        ))

        grad = G.gradient(self.t_mid, grid)  # (F, *shape, d, ncomp)
        b_arr, a_arr = traj.boundary.b, traj.boundary.a
        g1_right = grad[:, -1, ..., 0, :]    # (F, *tshape, ncomp)
        g1_left = grad[:, 0, ..., 0, :]
        tw = self.w_t.reshape(grid.tshape) if grid.d > 1 else self.w_t[0]
        surf_f = (np.sum((b_arr * g1_right) * (tw[..., None] if grid.d > 1 else tw),
                         axis=tuple(range(1, g1_right.ndim)))
                  - np.sum((a_arr * g1_left) * (tw[..., None] if grid.d > 1 else tw),
                           axis=tuple(range(1, g1_left.ndim))))
        surface = 0.5 * float(np.sum(self.dt_f * surf_f))

        contr = np.einsum("f...ik,vk->f...iv", grad, vset.vtilde)
        flux_density = np.einsum("f...iv,vi->f...", contr * self.chi[..., None, :],
                                 vset.velocities)
        flux_term = float(np.sum(self.dt_f * self._space_sum(flux_density)))

        return endpoint - bulk + surface - flux_term

    def contraction(self, G) -> np.ndarray:
        """A[f, ..., i, v] = vtilde_v . d_i G at the time midpoints."""
        grad = G.gradient(self.t_mid, self.grid)
        return np.einsum("f...ik,vk->f...iv", grad, self.vset.vtilde)

    def pi_inner_from(self, A1: np.ndarray, A2: np.ndarray) -> float:
        dens = np.einsum("f...iv,f...iv,f...v->f...", A1, A2, self.chi)
        return float(np.sum(self.dt_f * self._space_sum(dens)))

    def pi_inner(self, G1, G2) -> float:
        """Space-time inner product sum_v int int chi_v [vt.grad G1][vt.grad G2]."""
        return self.pi_inner_from(self.contraction(G1), self.contraction(G2))

    def pi_norm_sq(self, G) -> float:
        A = self.contraction(G)
        return self.pi_inner_from(A, A)


def weak_residual(traj: FieldTrajectory, G, vset: VelocitySet, gamma=None) -> float:
    """Signed LHS-RHS defect of the weak identity for one test function."""
    return QuadratureContext(traj, vset, gamma=gamma).linear_residual(G)


def field_energy(traj: FieldTrajectory) -> float:
    """Time-integrated squared spatial gradients, all components.

    Central differences (second-order one-sided at the walls, periodic across
    the transverse axes), trapezoid rule in space and time.
    """
    grid = traj.grid
    w_space = grid.weights()
    total_t = np.zeros(len(traj.times))
    for i in range(grid.d):
        if i == 0:
            g = np.gradient(traj.values, grid.h1, axis=1, edge_order=2)
        else:
            g = (np.roll(traj.values, -1, axis=1 + i)
                 - np.roll(traj.values, 1, axis=1 + i)) / (2 * grid.ht)
        sq = np.sum(g**2, axis=-1)
        axes = tuple(range(1, 1 + grid.d))
        total_t += np.sum(sq * w_space[None], axis=axes)
    return float(np.trapezoid(total_t, traj.times))

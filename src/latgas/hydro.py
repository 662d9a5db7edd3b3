"""Macroscopic layer: the diffusion system with nonlinear drift and its tools.

The field w = (rho, p) on [0,1] x T^{d-1} solves

    dw/dt + sum_i d/du_i F_i(w) = (1/2) Lap w,      F_i(w) = sum_v vtilde v_i chi(theta_v(w)),

with Dirichlet data a, b on the walls u_1 = 0, 1 built from the reservoir
profiles.  The controlled variant replaces v_i by v_i - vtilde . d_i H for a
vector field H vanishing on the walls.  Discretization: method of lines,
second-order central differences for both the Laplacian and the flux
divergence, and one second-order implicit-explicit (IMEX) time step: the
(1/2) Lap w term by Crank-Nicolson, one matrix product per transverse
wavenumber holding the Dirichlet values, the flux divergence by Heun.  dt is
bounded by `advective_limit`'s CFL condition; by default one step per frame.

`QuadratureContext` stores, once per trajectory, the weights of the weak-form
residual (trapezoid in space, midpoint in time), the linear part of the cost
functional, which vanishes on solutions.  It evaluates the residual and the Gram
matrix of the chi-weighted inner product from the test functions' 1-D factors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import reduce
from typing import Optional, Sequence

import numpy as np
from numpy import fft

from .config import created
from .dynamics import ReservoirProfiles
from .errors import DomainError, NumericalFailure, StabilityError
from .grid import Grid
from .thermo import (NEWTON_TOL, domain_of, exact_theta, invert_conserved, local_equilibrium,
                     theta_all)
from .velocities import VelocitySet

HULL_EXCURSION_TOL = 1e-9
HULL_INTERIOR_PAD = 1e-12
WALL_VANISH_TOL = 1e-12
# Smallest hull margin admitted for wall data; see BoundaryData.from_densities.
RESERVOIR_MIN_MARGIN = float(np.sqrt(NEWTON_TOL))


# --- boundary data -------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet values on the two walls: a at u_1 = 0, b at u_1 = 1.

    Arrays have shape tshape + (d+1,); for d=1 they are plain (d+1,) vectors
    a = sum_v (alpha_v, v alpha_v) and b likewise with beta_v.  The package
    builds wall data from densities only through `from_densities`, which holds
    it to the margin floor.
    """

    a: np.ndarray
    b: np.ndarray

    @classmethod
    def from_profiles(cls, profiles: ReservoirProfiles, vset: VelocitySet,
                      grid: Grid) -> "BoundaryData":
        """Wall data a, b from the reservoir densities at the transverse nodes;
        `profiles.at` raises DomainError for a density outside (0, 1)."""
        return cls.from_densities(profiles.at(grid.transverse_points()), vset, grid.tshape)

    @classmethod
    def from_densities(cls, walls: tuple, vset: VelocitySet,
                       shape: tuple = (-1,)) -> "BoundaryData":
        """Wall data from the densities (alpha, beta), each (n, nv), as arrays
        of shape `shape` + (d+1,).

        Raises DomainError unless every wall value has hull margin at least
        RESERVOIR_MIN_MARGIN = sqrt(NEWTON_TOL) = 1e-6, for every velocity set:
        the check validates input.  The derivation of the floor concerns the
        Newton path (sets of more than d+1 velocities; sets of exactly d+1
        invert in closed form, see `thermo`).  The floor is numerical there:
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
        rather than in `ReservoirProfiles.at`, because the simulator is well
        defined for them.  A NaN fails.
        """
        a, b = ((dens @ vset.vtilde).reshape(shape + (vset.d + 1,)) for dens in walls)
        worst = domain_of(vset).worst((a, b))
        if not worst >= RESERVOIR_MIN_MARGIN:
            raise DomainError(
                f"reservoir data must keep hull margin >= {RESERVOIR_MIN_MARGIN:.0e} "
                f"(worst wall margin {worst:.3e})"
            )
        return cls(a=a, b=b)


# --- test functions and controls -------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """One 1-D factor with analytic first and second derivatives.

    kind "one" is the constant 1, "linear" is x / scale, and "cos" and "sin"
    are cos(scale x) and sin(scale x).  It serves time and space alike: the
    wall-axis sine is Factor("sin", pi k), which vanishes at u = 0, 1; the
    transverse Fourier factors have scale 2 pi m; time factors are "one",
    Factor("linear", T) or a trig factor of scale 2 pi n / T.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("one", "linear", "cos", "sin"):
            raise ValueError(f"unknown factor {self.kind!r}")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "one":
            return np.ones_like(x)
        if self.kind == "linear":
            return x / self.scale
        w = self.scale
        return np.cos(w * x) if self.kind == "cos" else np.sin(w * x)

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "one":
            return np.zeros_like(x)
        if self.kind == "linear":
            return np.full_like(x, 1.0 / self.scale)
        w = self.scale
        return -w * np.sin(w * x) if self.kind == "cos" else w * np.cos(w * x)

    def d2(self, x):
        if self.kind in ("one", "linear"):
            return np.zeros_like(np.asarray(x, dtype=float))
        return -self.scale ** 2 * self.value(x)


def _space(axes, grid: Grid) -> tuple:
    """(value, gradient, laplacian) on `grid` of the product of the 1-D factors
    `axes`, one per axis; the gradient has a trailing axis of length d."""
    if len(axes) != grid.d:
        raise ValueError(f"field has {len(axes)} axis factors, grid is {grid.d}-d")
    x = [grid.axis(i) for i in range(grid.d)]
    vals = [f.value(x[i]) for i, f in enumerate(axes)]

    def swap(i, part):  # the product with factor i replaced by `part`
        return reduce(np.multiply.outer, vals[:i] + [part] + vals[i + 1:])

    grad = np.stack([swap(i, f.d1(x[i])) for i, f in enumerate(axes)], axis=-1)
    lap = sum(swap(i, f.d2(x[i])) for i, f in enumerate(axes))
    return reduce(np.multiply.outer, vals), grad, lap


class SeparableField:
    """Vector field G(t,u) = sum_j amp_j tau_j(t) prod_i s_ji(u_i) e_comp_j.

    `terms` holds (component, amplitude, time factor, axis factors) per term,
    summed in order; a basis mode is a one-term field and a control a sum of
    terms.  Each wall-axis factor must be a sine so the field vanishes on the
    walls.
    """

    def __init__(self, ncomp: int, terms: Sequence[tuple]):
        if not terms:
            raise ValueError("a field needs at least one term")
        for component, _, _, axes in terms:
            if not 0 <= component < ncomp:
                raise ValueError("component index out of range")
            if axes[0].kind != "sin":
                raise ValueError("wall-axis factor must vanish at the walls (sine)")
        self.ncomp = ncomp
        self.terms = [(comp, float(amp), tf, tuple(axes)) for comp, amp, tf, axes in terms]

    def _sum(self, times, grid: Grid, part: int) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        out = None
        for comp, amp, tf, axes in self.terms:
            space = _space(axes, grid)[part]
            term = np.zeros((len(times),) + space.shape + (self.ncomp,))
            term[..., comp] = (tf.value(times) * amp).reshape((-1,) + (1,) * space.ndim) * space
            out = term if out is None else out + term
        return out

    def values(self, times, grid: Grid) -> np.ndarray:
        return self._sum(times, grid, 0)

    def gradient(self, times, grid: Grid) -> np.ndarray:
        return self._sum(times, grid, 1)


def check_vanishes_on_walls(fld, grid: Grid, horizon: float):
    worst = float(np.max(np.abs(fld.values(np.linspace(0.0, horizon, 5), grid)[:, [0, -1]])))
    if worst > WALL_VANISH_TOL:
        raise ValueError(f"field does not vanish on the walls (max {worst:.2e})")


# --- trajectories ---------------------------------------------------------------

@dataclass
class FieldTrajectory:
    """Grid-sampled (rho, p) path at uniform frame spacing; frame 0, values[0],
    is the initial profile gamma."""

    grid: Grid
    times: np.ndarray           # (F+1,)
    values: np.ndarray          # (F+1, *shape, d+1)
    boundary: BoundaryData
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        expected = (len(self.times),) + self.grid.shape + (self.grid.d + 1,)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape}, expected {expected}")

    def save(self, path) -> None:
        """Write a compressed .npz (through `config.created`), with frame 0
        also under `gamma`; `meta` is stored as a JSON string."""
        with created(path, "wb") as fh:
            np.savez_compressed(
                fh, times=self.times, values=self.values, gamma=self.values[0],
                bound_a=self.boundary.a, bound_b=self.boundary.b,
                grid=np.array([self.grid.d, self.grid.m1, self.grid.mt]),
                meta=np.array(json.dumps(self.meta)),
            )


# --- flux and spatial operators ---------------------------------------------------

def _flux_grid(chi_v: np.ndarray, vset: VelocitySet, drift: np.ndarray) -> np.ndarray:
    """Flux F[..., i, k] = sum_v chi_v drift[..., i, v] vtilde_vk as one matrix
    product, for the velocities c_iv of `drift`: v_i (vset.velocities.T, (d, nv))
    without a control, v_i - vtilde_v . d_iH (*shape, d, nv) under one (`_drifts`)."""
    return (chi_v[..., None, :] * drift) @ vset.vtilde


def _grad_central(f: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Central difference along a spatial axis; wall rows are left at zero."""
    if axis:
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * grid.ht)
    out = np.zeros(f.shape)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * grid.h1)
    return out


def _lap_axis(f: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    if axis:
        return (np.roll(f, -1, axis=axis) - 2 * f + np.roll(f, 1, axis=axis)) / grid.ht**2
    out = np.zeros(f.shape)
    out[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / grid.h1**2
    return out


# --- solver ----------------------------------------------------------------------

def _drifts(control, grid: Grid, vset: VelocitySet, times) -> np.ndarray:
    """Controlled velocities v_i - vtilde_v . d_iH at `times`, in their order,
    (len(times), *shape, d, nv): one `control.gradient` call.  Each time's
    drift is computed on its own, so it does not depend on the other times in
    the call."""
    gh = control.gradient(np.asarray(times, dtype=float), grid)
    return vset.velocities.T - np.einsum("t...ik,vk->t...iv", gh, vset.vtilde)


def advective_limit(grid: Grid, vset: VelocitySet, drifts=()) -> float:
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
    h_1 max_v |v_1| <= 4.  A control enters c_i through `drifts`, its
    controlled velocities (*shape, d, nv) at sampled times (see `_drifts`).
    """
    speeds = np.max(np.abs(vset.velocities), axis=0)
    for drift in drifts:
        speeds = np.maximum(speeds, np.abs(drift).max(axis=tuple(range(grid.d)) + (-1,)))
    spacing = np.array([grid.h1] + [grid.ht] * (grid.d - 1))
    dt_cfl = 1.0 / float(np.sum(speeds / spacing))
    return min(dt_cfl, (4.0 * dt_cfl**2 / float(np.sum(speeds**2))) ** (1.0 / 3.0))


class _Stepper:
    """IMEX trapezoidal step (Ascher, Ruuth & Spiteri 1997) at a fixed dt.

    A = (1/2) Lap_h is taken by Crank-Nicolson, the flux divergence N by Heun:
        (I - dt/2 A) W* = W + dt/2 A W + dt N(W)
        (I - dt/2 A) W' = W + dt/2 A W + dt/2 (N(W) + N(W*)),
    with identity rows at the walls holding a and b.  Eliminating the wall rows
    leaves (I - dt/2 A) on the n = m1 - 2 interior rows with Dirichlet ends,
    which sine modes along u_1 and Fourier modes along the periodic transverse
    axes diagonalize: with r = dt / (4 h_1^2), mode (j, k) has eigenvalue
    1 + 4r sin^2(pi j / (2 (m1 - 1))) + s_k, s_k the transverse part.  With S
    the orthonormal DST-I matrix (its own inverse), the solve applies one real
    matrix S diag(1/eig_k) S per transverse wavenumber k (`inverse`, built
    here) along u_1, between an rfftn across and its inverse in d > 1, and
    adds the solution of the wall data alone (`walls`).  That is O(m1^2) per
    column against a DST's O(m1 log m1), but a DST pair's numpy calls cost
    more below m1 of about 400 in d = 1 (a solve took 3.6 against 24 us at
    m1 = 65, 55 against 42 us at 513, on a 2-core Xeon KVM guest), and no
    shipped config, test or workload marches above m1 = 257; in d = 2 the
    product is faster at (33, 8) and (33, 16), 54 and 62 against 80 and 94 us.
    A step takes the drift at its two stage times as an argument (see
    `_flux_grid`; the plain system's is vset.velocities.T), and skips what it
    never reads: lam for d+1 velocities, per-node hull margins while every
    node is inside.
    """

    def __init__(self, vset: VelocitySet, grid: Grid, boundary: BoundaryData, dt: float):
        self.vset, self.grid, self.dt = vset, grid, dt
        self.dom = domain_of(vset)
        self.lam = None  # Newton warm start, shaped like the field
        self.axes = tuple(range(1, grid.d))
        r = dt / (4.0 * grid.h1**2)
        n = grid.m1 - 2
        j = np.arange(1, n + 1)
        # S_ij with i j reduced mod 2(n+1), so the sine's argument stays below 2 pi
        dst = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * n + 2)) / (n + 1))
        eig = 1.0 + 4.0 * r * np.sin(np.pi * j / (2 * n + 2)) ** 2
        # rfftn keeps all wavenumbers on the leading axes, half on the last
        for m in reversed([grid.mt] * (grid.d - 2) + [grid.mt // 2 + 1] * (grid.d > 1)):
            s_k = (dt / grid.ht**2) * np.sin(np.pi * np.arange(m) / grid.mt) ** 2
            eig = np.add.outer(s_k, eig)
        self.inverse = (dst / eig[..., None, :]) @ dst
        # the solve of R = 0; a wall row enters its neighbour's right-hand side times r
        self.walls = np.zeros(grid.shape + (vset.d + 1,))
        self.walls[0], self.walls[-1] = boundary.a, boundary.b
        self.walls[1:-1] = self._solve(r * (self.walls[:-2] + self.walls[2:]))

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """(I - dt/2 A)^-1 rhs on the interior rows, with zero wall data."""
        if not self.axes:
            return self.inverse @ rhs
        # (n, *k, c) complex -> (*k, n, 2c) real, the real and imaginary parts side by side
        modes = np.ascontiguousarray(np.moveaxis(fft.rfftn(rhs, axes=self.axes), 0, -2))
        modes = (self.inverse @ modes.view(float)).view(complex)
        return fft.irfftn(np.moveaxis(modes, -2, 0), s=self.grid.tshape, axes=self.axes)

    def flux_divergence(self, W: np.ndarray, drift: np.ndarray) -> np.ndarray:
        """N(W) = -sum_i d_i F_i(W), the flux for the velocities of `drift`."""
        vset = self.vset
        # a set of d+1 velocities takes theta alone; larger sets run Newton,
        # warm-started from the last stage's lam
        if len(vset) == vset.d + 1:
            th = exact_theta(W, vset)
        else:
            self.lam, th = local_equilibrium(W, vset, lam0=self.lam, check_domain=False)
        fl = _flux_grid(th * (1.0 - th), vset, drift)
        return -reduce(np.add, (_grad_central(fl[..., i, :], self.grid, axis=i)
                                for i in range(self.grid.d)))

    def implicit_solve(self, R: np.ndarray) -> np.ndarray:
        """Solve (I - dt/2 A) X = R; R's wall rows are ignored, X's are a and b."""
        X = self.walls.copy()
        X[1:-1] += self._solve(R[1:-1])
        return X

    def guard(self, W: np.ndarray, t: float) -> np.ndarray:
        flat = W.reshape(-1, self.vset.d + 1)
        # per-node margins only when the worst is below the pad; a NaN passes
        # on to the next inversion
        worst = self.dom.worst(flat)
        if not worst < HULL_INTERIOR_PAD:
            return W
        margin = self.dom.margin(flat)
        if worst < -HULL_EXCURSION_TOL:
            k = int(np.argmin(margin))
            raise NumericalFailure(
                f"field left the admissible hull at t={t:.6g} "
                f"(node {k}, value {flat[k]}, margin {worst:.3e})"
            )
        bad = margin < HULL_INTERIOR_PAD
        flat[bad] = self.dom.project_inward(flat[bad], min_margin=HULL_INTERIOR_PAD)
        return W

    def step(self, W: np.ndarray, t: float, drifts: tuple) -> np.ndarray:
        """Advance W from t to t + dt; `drifts` holds the drift (`_flux_grid`)
        at t and at t + dt."""
        dt = self.dt
        base = W + 0.25 * dt * reduce(np.add, (_lap_axis(W, self.grid, axis=i)
                                               for i in range(self.grid.d)))
        n0 = self.flux_divergence(W, drifts[0])
        W1 = self.guard(self.implicit_solve(base + dt * n0), t + dt)
        n1 = self.flux_divergence(W1, drifts[1])
        return self.guard(self.implicit_solve(base + 0.5 * dt * (n0 + n1)), t + dt)


def _prepare_gamma(gamma, grid: Grid, vset: VelocitySet) -> np.ndarray:
    arr = np.asarray(gamma, dtype=float)
    expected = grid.shape + (vset.d + 1,)
    if arr.shape != expected:
        raise ValueError(f"initial profile shape {arr.shape}, expected {expected}")
    worst = domain_of(vset).worst(arr)
    if not worst > HULL_INTERIOR_PAD:
        raise DomainError(
            "initial profile must lie strictly inside the admissible hull "
            f"(worst margin {worst:.3e})"
        )
    return arr


def solve_controlled(gamma, boundary: BoundaryData, horizon: float, grid: Grid,
                     vset: VelocitySet, control=None, dt: Optional[float] = None,
                     n_frames: int = 256) -> FieldTrajectory:
    """March the (optionally controlled) system to `horizon` with the IMEX step.

    The plain system is the controlled one with H = 0: with control=None every
    step takes the drift vset.velocities.T, through the same flux as a
    control's.  dt is chosen before the march:

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

    A control's drift is tabulated in blocks of max(steps per frame,
    n_frames) steps as the march reaches them, so the table grows with the
    frame stride and count, not the step count, and holds each distinct
    stage time once (a step's end is most often the next step's start); at
    one step per frame the march makes one `control.gradient` call after
    the advective limit's.
    The run's dt, step count and whether it was controlled land in `meta`.
    """
    # the comparisons are false for NaN, so a NaN horizon or dt is rejected
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if dt is not None and not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if n_frames < 1:
        raise ValueError(f"n_frames must be at least 1, got {n_frames}")
    if control is not None:
        check_vanishes_on_walls(control, grid, horizon)
    bound = advective_limit(grid, vset, () if control is None else _drifts(
        control, grid, vset, np.linspace(0.0, horizon, n_frames + 1)))
    if dt is None:
        dt = min(horizon / n_frames, bound)
    elif dt > bound * (1 + 1e-12):
        raise StabilityError(f"dt={dt:.3e} exceeds the advective step bound {bound:.3e} "
                             "for this grid")
    n_steps = int(np.ceil(horizon / dt - 1e-12))
    stride = int(np.ceil(n_steps / min(n_frames, n_steps)))
    n_steps = stride * int(np.ceil(n_steps / stride))
    dt = horizon / n_steps
    n_frames = n_steps // stride
    block = max(stride, n_frames)  # steps per drift table

    W = _prepare_gamma(gamma, grid, vset)
    stepper = _Stepper(vset, grid, boundary, dt)
    frames = np.empty((n_frames + 1,) + W.shape)
    frames[0] = W
    times = np.arange(0, n_steps + 1, stride) * dt  # frame j is step j * stride
    table = [(vset.velocities.T,) * 2] * block  # the drifts of an uncontrolled block
    for k in range(n_steps):
        if control is not None and k % block == 0:
            # both stage times of each step of the block, each distinct one evaluated once
            stages = np.add.outer(np.arange(k, min(k + block, n_steps)) * dt, [0.0, dt])
            distinct, index = np.unique(stages, return_inverse=True)
            table = None  # the last table goes before the next is built
            table = _drifts(control, grid, vset, distinct)[index.reshape(stages.shape)]
        W = stepper.step(W, k * dt, table[k % block])
        if (k + 1) % stride == 0:
            frames[(k + 1) // stride] = W
    return FieldTrajectory(
        grid=grid, times=times, values=frames, boundary=boundary,
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
    reused by the Gram matrix of the pi inner product.  The weak residual of
    a test function G, zero on solutions,

        endpoint pairings - int <w, dG/dt + (1/2) Lap G>
        + (1/2) int [b . d1G|_{u1=1} - a . d1G|_{u1=0}]
        - int sum_v chi_v sum_i v_i (vtilde . d_i G),

    is linear in G, so the trajectory fixes its weights: the constructor
    stores them once and `gram` contracts them with the factors of G.
    """

    def __init__(self, traj: FieldTrajectory, vset: VelocitySet):
        self.vset = vset
        grid = self.grid = traj.grid
        times = traj.times
        self.t_ends = times[[0, -1]]
        self.t_mid = 0.5 * (times[:-1] + times[1:])
        self.dt_f = np.diff(times)
        w_mid = 0.5 * (traj.values[:-1] + traj.values[1:])
        self.w_space = grid.weights()
        flat = w_mid.reshape(-1, vset.d + 1)
        worst = domain_of(vset).worst(flat)
        if not worst > 0:
            raise DomainError(
                "trajectory leaves the open hull; the cost functional requires "
                f"interior fields (worst margin {worst:.3e})"
            )
        # `invert_conserved` is the inversion that perfbench/tracer.py times;
        # theta is recomputed from lam here, once per trajectory, not per stage.
        th = theta_all(invert_conserved(flat, vset, check_domain=False), vset)
        self.chi = (th * (1.0 - th)).reshape(w_mid.shape[:-1] + (len(vset),))
        del th  # each frame-sized temporary goes as soon as it is read

        # weights of the weak residual, against G at the frame midpoints
        # (dG/dt) and the ends (G(T), G(0)): -dt_f w w_mid, w w(T), -w w(0);
        # against (Lap G, d_1 G, ..., d_d G) at the midpoints: -(1/2) dt_f w w_mid
        # and the flux term -dt_f w sum_v chi_v vtilde_k v_i with the wall terms
        # (1/2) dt_f (b, -a) on d_1 G at u_1 = 1 and u_1 = 0
        dtw = (self.dt_f.reshape((-1,) + (1,) * grid.d) * self.w_space)[..., None]
        ends = self.w_space[..., None] * traj.values[[-1, 0]]
        self.value_weights = np.concatenate([-dtw * w_mid, ends[:1], -ends[1:]])
        cw = dtw * self.chi
        # the Gram matrix's weights M_cc' = sum_v chi_v vt_vc vt_vc' dt_f w, (nodes, ...)
        self.pi_weights = np.einsum("f...v,vc,vk->...fck", cw, vset.vtilde,
                                    vset.vtilde).reshape(self.w_space.size, -1)
        gw = -np.einsum("f...v,vk,vi->f...ik", cw, vset.vtilde, vset.velocities)
        del cw
        half = 0.5 * self.dt_f.reshape((-1,) + (1,) * grid.d)
        tw = grid.transverse_weights().reshape(grid.tshape)[..., None]
        gw[:, -1, ..., 0, :] += half * tw * traj.boundary.b
        gw[:, 0, ..., 0, :] -= half * tw * traj.boundary.a
        self.lap_grad_weights = np.concatenate([-0.5 * (dtw * w_mid)[..., None, :], gw], axis=-2)

    def gram(self, fields, linear=None) -> np.ndarray:
        """Gram matrix Q[a, b] = sum_v int int chi_v [vt.grad G_a][vt.grad G_b].

        Fields are sums of terms amp tau(t) s(u) e_c over few distinct factors.
        The weights M_cc' = sum_v chi_v vt_vc vt_vc' dt_f w, summed over the
        nodes against grad s . grad s' and over the frames against tau tau',
        give every pair of terms; the amplitudes map terms to fields, and Q is
        symmetrized to be exactly symmetric.  An array `linear` gets each
        field's weak residual, from the stored weights likewise.  Each product
        has one shape per factor or pair, so no entry depends on other fields.
        """
        grid, ncomp, n_f, n_x = self.grid, self.vset.d + 1, len(self.dt_f), self.w_space.size
        terms = [term for G in fields for term in G.terms]
        taus = list(dict.fromkeys(term[2] for term in terms))
        spaces = list(dict.fromkeys(term[3] for term in terms))
        ti, si, ci = np.array([(taus.index(tf), spaces.index(axes), comp)
                               for comp, _, tf, axes in terms]).T
        amps = np.zeros((len(fields), len(terms)))
        amps[[a for a, G in enumerate(fields) for _ in G.terms], range(len(terms))] = \
            [term[1] for term in terms]
        val, grad, lap = (np.stack(part).reshape(len(spaces), n_x, -1)
                          for part in zip(*(_space(axes, grid) for axes in spaces)))
        tau = np.array([tf.value(self.t_mid) for tf in taus])
        k = (grad[:, None] * grad[None]).sum(axis=-1)[:, :, None] @ self.pi_weights
        k = (tau[:, None] * tau[None])[:, :, None, None, None] @ k.reshape(k.shape[:2] + (n_f, -1))
        quad = amps @ k[ti[:, None], ti, si[:, None], si, 0, ci[:, None] * ncomp + ci] @ amps.T
        if linear is not None:
            # time factors (d/dt at the midpoints, at the ends, at the midpoints) against
            # per-frame sums, the large, nearly cancelling Lap and flux terms summed together
            frame = np.concatenate([
                val[:, None, None, :, 0] @ self.value_weights.reshape(n_f + 2, n_x, -1),
                np.concatenate([lap, grad], axis=-1).reshape(len(spaces), 1, 1, -1)
                @ self.lap_grad_weights.reshape(n_f, -1, ncomp)], axis=1)[:, :, 0]
            time = np.concatenate([[tf.d1(self.t_mid) for tf in taus],
                                   [tf.value(self.t_ends[::-1]) for tf in taus], tau], axis=1)
            linear[:] = amps @ (time[:, None, None] @ frame)[:, :, 0][ti, si, ci]
        return 0.5 * (quad + quad.T)

    def pi_norm_sq(self, G) -> float:
        return float(self.gram([G])[0, 0])


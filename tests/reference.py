"""Reference formulas the tests compare the package against, and fixtures.

The package states the chain once, as the event catalog `RateTable`.  These
references restate it one event, site or test function at a time on plain
lattice coordinates: site indices, single-event rates, the neighbor map,
conserved totals, the control drift at one time, and the weak residual and
cost integrand of one test function.

The per-event simulator references run a `SimState` one event at a time,
each drawn by `advance(-inf)` and applied by `_apply` as `simulate` does with
an event log: `step` returns each event and its waiting time, and
`OccupationTracker` integrates each slot's occupation over a run from the
slot flips (`tracked_occupation`).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce

import numpy as np

from latgas.config import TIME_MODES
from latgas.dynamics import COLLISION, EXCLUSION, jump_probabilities
from latgas.generator import _cuts, _patterns
from latgas.hydro import (
    BoundaryData,
    Factor,
    FieldTrajectory,
    QuadratureContext,
    SeparableField,
    _grad_central,
    _lap_axis,
    _Stepper,
)
from latgas.ldp import default_basis, time_factor
from latgas.thermo import sample_profile_state, theta_all
from latgas.velocities import VelocitySet


def four_velocity_set(fast: float = 0.5, slow: float = 0.25) -> VelocitySet:
    """d=1 set {±fast, ±slow} with genuine pair-exchange collisions."""
    if fast == slow:
        raise ValueError("speeds must differ")
    return VelocitySet(np.array([[fast], [-fast], [slow], [-slow]]))


# --- lattice geometry ---------------------------------------------------------

def index(lattice, coords) -> int:
    """Flat site index of coordinates (x1, ..., xd), x1 in 1..N-1."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != lattice.d:
        raise ValueError(f"expected {lattice.d} coordinates, got {len(coords)}")
    x1 = coords[0]
    if not 1 <= x1 <= lattice.N - 1:
        raise ValueError(f"x1={x1} outside 1..{lattice.N - 1}")
    rest = coords[1:]
    if any(not 0 <= c <= lattice.N - 1 for c in rest):
        raise ValueError(f"transverse coordinate out of range in {coords}")
    return int(np.ravel_multi_index((x1 - 1,) + rest, lattice.shape))


def coords(lattice, site: int) -> tuple:
    """Coordinates (x1, ..., xd) of a flat site index, x1 in 1..N-1."""
    idx = np.unravel_index(int(site), lattice.shape)
    return (int(idx[0]) + 1,) + tuple(int(c) for c in idx[1:])


def neighbor_site(lattice, site: int, direction: int) -> int:
    """Target of a unit jump, or -1 if it would exit through a wall."""
    axis, sign = divmod(direction, 2)
    step = 1 if sign == 0 else -1
    c = list(coords(lattice, site))
    if axis == 0:
        x1 = c[0] + step
        if lattice.periodic:
            x1 = (x1 - 1) % (lattice.N - 1) + 1
        elif not 1 <= x1 <= lattice.N - 1:
            return -1
        c[0] = x1
    else:
        c[axis] = (c[axis] + step) % lattice.N
    return index(lattice, c)


def neighbor_sites(lattice, site: int) -> set:
    """The sites that one unit jump from `site` reaches."""
    return {neighbor_site(lattice, site, d) for d in range(2 * lattice.d)} - {-1}


class BoundarySide(Enum):
    LEFT = "left"
    RIGHT = "right"
    BULK = "bulk"


def side_of(lattice, site: int) -> BoundarySide:
    """The reservoir a site touches: x1 = 1 the left one (also at N = 2,
    where x1 = N-1 too), x1 = N-1 the right one, none on a ring."""
    x1 = coords(lattice, site)[0]
    if lattice.periodic or 1 < x1 < lattice.N - 1:
        return BoundarySide.BULK
    return BoundarySide.LEFT if x1 == 1 else BoundarySide.RIGHT


# --- conserved quantities -----------------------------------------------------

def conserved_of_state(xi, vset: VelocitySet) -> np.ndarray:
    """(mass, momentum) of a single-site occupation vector xi in {0,1}^V."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (len(vset),):
        raise ValueError(f"state has {xi.shape} entries, expected {(len(vset),)}")
    if not np.all((xi == 0) | (xi == 1)):
        raise ValueError("occupations must be 0 or 1")
    return xi @ vset.vtilde


def totals(eta, vset: VelocitySet) -> np.ndarray:
    """Extensive conserved vector sum_x (mass, momentum)(eta_x)."""
    eta = np.asarray(eta)
    if eta.shape[1] != len(vset):
        raise ValueError("eta/velocity-set shape mismatch")
    counts = eta.sum(axis=0, dtype=np.int64).astype(float)
    return counts @ vset.vtilde


def chi(r):
    """Static compressibility r(1-r)."""
    return r * (1.0 - r)


# --- single-event rates -------------------------------------------------------

def exclusion_rate(model, eta: np.ndarray, x: int, z: int, v_idx: int) -> float:
    """eta(x,v) (1 - eta(z,v)) times P_N(y, v) = 1/2 + p(y, v)/N summed over
    the unit moves y taking x to z.

    That is one move, except on a ring of two sites, where both directions
    lead to z; the rate is zero when no move does (e.g. through a wall).
    """
    lat = model.lattice
    if not (0 <= x < lat.n_sites and 0 <= z < lat.n_sites):
        return 0.0
    probs = jump_probabilities(model.vset)
    pn = 0.0
    for direction in range(2 * lat.d):
        if neighbor_site(lat, x, direction) == z:
            pn += 0.5 + float(probs[v_idx, direction]) / lat.N
    return float(eta[x, v_idx]) * (1.0 - float(eta[z, v_idx])) * pn


def collision_rate(eta: np.ndarray, y: int, q) -> float:
    """1 if the incoming pair is present and the outgoing pair absent, else 0."""
    row = eta[y]
    return float(row[q.v] * row[q.w] * (1 - row[q.vp]) * (1 - row[q.wp]))


def boundary_rate(model, eta: np.ndarray, x: int, v_idx: int) -> float:
    """Reservoir flip rate at a wall site: birth alpha_v / beta_v, death 1 - it."""
    lat = model.lattice
    side = side_of(lat, x)
    if side == BoundarySide.BULK or model.profiles is None:
        return 0.0
    tilde = np.array(coords(lat, x)[1:], dtype=float)[None] / lat.N
    fns = model.profiles.alpha if side == BoundarySide.LEFT else model.profiles.beta
    dens = float(np.asarray(fns[v_idx](tilde)).ravel()[0])
    return dens if eta[x, v_idx] == 0 else 1.0 - dens


def entry_rates(model, eta) -> np.ndarray:
    """The rate of every entry of `model.table` under eta, in catalog order.

    An exclusion entry's rate is its direction's hop rate where the hop is
    open, a boundary entry's its flip rate.  A collision entry's rate is
    the paper's: the sum of `collision_rate` over the ordered quadruples of
    `CollisionSet.active` that make its decoded swap {v, w} -> {v', w'}."""
    table, flat = model.table, eta.reshape(-1)
    a, b = flat[table.ex_slots].T
    exclusion = np.stack((a * (1 - b), b * (1 - a)), axis=1) * table.ex_rate
    collision = []
    for idx in range(table.counts[COLLISION]):
        ev = table.event_from_entry(COLLISION, idx)
        swap = _swap(ev.quadruple)
        collision.append(sum(collision_rate(eta, ev.site, q)
                             for q in model.collisions.active if _swap(q) == swap))
    occupied = flat[table.bd_slot]
    return np.concatenate((exclusion.reshape(-1), collision,
                           np.where(occupied == 0, table.bd_birth, table.bd_death)))


def _swap(q) -> tuple:
    """The unordered incoming and outgoing velocity pairs of a quadruple."""
    return frozenset((q.v, q.w)), frozenset((q.vp, q.wp))


def event_rate(model, eta: np.ndarray, event) -> float:
    """Rate of a `dynamics.Event` under eta.  An exclusion hop's rate sums
    every move taking its site to its target: on a ring of two sites that is
    both catalog entries of the hop (see `RateTable.event_from_entry`)."""
    if event.kind == EXCLUSION:
        return exclusion_rate(model, eta, event.site, event.target, event.velocity)
    if event.kind == COLLISION:
        return collision_rate(eta, event.site, event.quadruple)
    return boundary_rate(model, eta, event.site, event.velocity)


# --- one simulator event at a time --------------------------------------------

def step(state):
    """Execute one event of `state`: returns (event, waiting time) and applies it.

    The waiting time is exponential with the current total macroscopic rate;
    the event is drawn proportionally to its rate.
    """
    t_before = state.t
    kind, idx = state.advance(-math.inf)
    state._apply(kind, idx)
    return state.table.event_from_entry(kind, idx), state.t - t_before


class OccupationTracker:
    """Time-weighted occupation averages, updated only when slots flip."""

    def __init__(self, n_slots: int):
        self.occ_time = np.zeros(n_slots)
        self.last = np.zeros(n_slots)
        self.t0 = 0.0

    def start(self, t: float) -> None:
        self.t0 = t
        self.last[:] = t

    def on_flip(self, t: float, slot: int, old: int) -> None:
        if old == 1:
            self.occ_time[slot] += t - self.last[slot]
        self.last[slot] = t

    def mean_occupation(self, t_end: float, eta_flat) -> np.ndarray:
        occ = self.occ_time.copy()
        for slot in range(len(occ)):
            if eta_flat[slot]:
                occ[slot] += t_end - self.last[slot]
        span = t_end - self.t0
        return occ / span if span > 0 else occ


def tracked_occupation(state, horizon: float) -> np.ndarray:
    """Each slot's occupation averaged over [0, horizon], horizon > 0, along a
    run of `state` from time 0.  A tracker sees each event's slot flips at its
    time: the slots whose occupation `_apply` changed, in slot order; the
    first event at or after the horizon is drawn and left unapplied, as in
    `simulate`."""
    eta = state.eta_flat
    tracker = OccupationTracker(len(eta))
    tracker.start(state.t)
    while True:
        kind, idx = state.advance(-math.inf)
        if state.t >= horizon:
            return tracker.mean_occupation(horizon, eta)
        before = eta.copy()
        state._apply(kind, idx)
        for slot in np.flatnonzero(eta != before):
            tracker.on_flip(state.t, slot, int(before[slot]))


# --- the exact generator -----------------------------------------------------

def exit_rates_by_views(flips, tables, n_bits: int) -> np.ndarray:
    """Each state's total rate: mask by mask in table order, each nonzero
    pattern's rate added on its own view of the states (`_cuts`), low masks
    included."""
    out = np.zeros(1 << n_bits)
    for flip, rates in zip(flips.tolist(), tables):
        shape, cut = _cuts(flip, n_bits)
        view = out.reshape(shape)
        for pattern, rate in _patterns(flip, rates):
            view[cut(pattern)] += rate
    return out


# --- fixtures -----------------------------------------------------------------

def sample_product_state(lam, lattice, vset: VelocitySet, rng) -> np.ndarray:
    """Sample eta(x, v) ~ independent Bernoulli(theta_v(lam)) over all sites.

    Returns a (n_sites, nv) uint8 array; deterministic given the rng state.
    """
    th = theta_all(np.asarray(lam, dtype=float), vset)
    return sample_profile_state(np.broadcast_to(th, (lattice.n_sites, len(vset))), rng)


def synthetic_trajectory(grid, times, fn) -> FieldTrajectory:
    """A trajectory sampling fn(t, nodes)->(shape..., d+1) on the grid, with
    its first frame's wall values as the boundary data."""
    times = np.asarray(times, dtype=float)
    frames = np.stack([np.asarray(fn(t, grid.nodes()), dtype=float) for t in times])
    first = frames[0]
    return FieldTrajectory(grid=grid, times=times, values=frames,
                           boundary=BoundaryData(a=first[0].copy(), b=first[-1].copy()))


# --- test fields ----------------------------------------------------------------

def wall_mode(component: int, tau: Factor, k: int, amplitude: float = 1.0):
    """The d = 1 field amplitude tau(t) sin(k pi u) e_component of (rho, p)."""
    return SeparableField(2, [(component, amplitude, tau, [Factor("sin", np.pi * k)])])


def combination(fields, coefficients) -> SeparableField:
    """sum_j c_j G_j as one field: each term's amplitude times its c_j."""
    return SeparableField(fields[0].ncomp, [
        (comp, c * amp, tau, axes)
        for c, G in zip(coefficients, fields) for comp, amp, tau, axes in G.terms])


def basis(d: int, horizon: float, n_space: int, n_transverse: int = 0) -> list:
    """`default_basis` over the default time modes."""
    return default_basis(d, [time_factor(t, horizon) for t in TIME_MODES], n_space,
                         n_transverse)


# --- one control or test function at a time ----------------------------------

def drift(control, t: float, grid, vset: VelocitySet) -> np.ndarray:
    """Controlled velocities v_i - vtilde_v . d_iH at time t, (*shape, d, nv)."""
    gh = control.gradient(np.array([t]), grid)[0]
    return vset.velocities.T - np.einsum("...ik,vk->...iv", gh, vset.vtilde)


def field_dt(G, times, grid) -> np.ndarray:
    """dG/dt of a `SeparableField` at `times`, (times, *shape, ncomp)."""
    out = np.zeros((len(times),) + grid.shape + (G.ncomp,))
    for comp, amp, tau, axes in G.terms:
        space = reduce(np.multiply.outer, [f.value(grid.axis(i)) for i, f in enumerate(axes)])
        out[..., comp] += amp * np.multiply.outer(tau.d1(times), space)
    return out


def field_laplacian(G, times, grid) -> np.ndarray:
    """Lap G of a `SeparableField` at `times`, (times, *shape, ncomp)."""
    out = np.zeros((len(times),) + grid.shape + (G.ncomp,))
    for comp, amp, tau, axes in G.terms:
        vals = [f.value(grid.axis(i)) for i, f in enumerate(axes)]
        lap = sum(reduce(np.multiply.outer, vals[:i] + [f.d2(grid.axis(i))] + vals[i + 1:])
                  for i, f in enumerate(axes))
        out[..., comp] += amp * np.multiply.outer(tau.value(times), lap)
    return out


def linear_residual(ctx: QuadratureContext, G) -> float:
    """Weak-form residual of the context's trajectory against G (zero on
    solutions; see `QuadratureContext`): the inner products of G's full
    arrays, dG/dt at the midpoints and G at the ends, and (Lap G, grad G) at
    the midpoints, with the context's weights, the products summed by `math.fsum`."""
    grid, t_mid = ctx.grid, ctx.t_mid
    values = np.concatenate([field_dt(G, t_mid, grid), G.values(ctx.t_ends[::-1], grid)])
    lap_grad = np.concatenate([field_laplacian(G, t_mid, grid)[..., None, :],
                               G.gradient(t_mid, grid)], axis=-2)
    return math.fsum(np.concatenate([(ctx.value_weights * values).ravel(),
                                     (ctx.lap_grad_weights * lap_grad).ravel()]))


def weak_residual(traj: FieldTrajectory, G, vset: VelocitySet) -> float:
    """Signed LHS-RHS defect of the weak identity for one test function."""
    return linear_residual(QuadratureContext(traj, vset), G)


def j_hat(traj: FieldTrajectory, G, vset: VelocitySet) -> float:
    """Cost integrand for one test function: linear residual minus |G|_pi^2."""
    ctx = QuadratureContext(traj, vset)
    return linear_residual(ctx, G) - ctx.pi_norm_sq(G)


# --- the forms the solver and the quadrature replaced ------------------------

def einsum_weights(traj: FieldTrajectory, vset: VelocitySet) -> tuple:
    """(context, pi_weights, lap_grad_weights) of the trajectory, the two
    weights from three-operand einsums over the velocities, as
    `QuadratureContext` built them before each became one matrix product
    against a small velocity table."""
    ctx = QuadratureContext(traj, vset)
    grid = traj.grid
    dtw = (ctx.dt_f.reshape((-1,) + (1,) * grid.d) * ctx.w_space)[..., None]
    cw = dtw * ctx.chi
    pi = np.einsum("f...v,vc,vk->...fck", cw, vset.vtilde, vset.vtilde)
    gw = -np.einsum("f...v,vk,vi->f...ik", cw, vset.vtilde, vset.velocities)
    half = 0.5 * ctx.dt_f.reshape((-1,) + (1,) * grid.d)
    tw = grid.transverse_weights().reshape(grid.tshape)[..., None]
    gw[:, -1, ..., 0, :] += half * tw * traj.boundary.b
    gw[:, 0, ..., 0, :] -= half * tw * traj.boundary.a
    w_mid = 0.5 * (traj.values[:-1] + traj.values[1:])
    lap = -0.5 * (dtw * w_mid)[..., None, :]
    return ctx, pi.reshape(ctx.w_space.size, -1), np.concatenate([lap, gw], axis=-2)


class ComposedStepper:
    """The d = 1 IMEX step composed as the sum it was before its stages became
    the two operators of `_Stepper`: base = W + dt/4 Lap_h W, the flux
    divergence N = -d_h F_1 by central differences, and each stage the
    Crank-Nicolson solve walls + S diag(1/eig) S (base + c N) on the interior
    rows, c = dt with N(W), then dt/2 with N(W) + N(W*).  The flux, the guard
    and the wall solve are those of a `_Stepper` on the same data."""

    def __init__(self, vset: VelocitySet, grid, boundary: BoundaryData, dt: float):
        self.stepper = _Stepper(vset, grid, boundary, dt)
        r = dt / (4.0 * grid.h1**2)
        n = grid.m1 - 2
        j = np.arange(1, n + 1)
        dst = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * n + 2)) / (n + 1))
        eig = 1.0 + 4.0 * r * np.sin(np.pi * j / (2 * n + 2)) ** 2
        self.inverse = (dst / eig[None, :]) @ dst

    def implicit_solve(self, R: np.ndarray) -> np.ndarray:
        X = self.stepper.walls.copy()
        X[1:-1] += self.inverse @ R[1:-1]
        return X

    def divergence(self, W: np.ndarray, drift: np.ndarray) -> np.ndarray:
        return -_grad_central(self.stepper.flux(W, drift)[:, 0], self.stepper.grid, 0)

    def step(self, W: np.ndarray, t: float, drifts: tuple) -> np.ndarray:
        st = self.stepper
        dt = st.dt
        base = W + 0.25 * dt * _lap_axis(W, st.grid, 0)
        n0 = self.divergence(W, drifts[0])
        W1 = st.guard(self.implicit_solve(base + dt * n0), t + dt)
        n1 = self.divergence(W1, drifts[1])
        return st.guard(self.implicit_solve(base + 0.5 * dt * (n0 + n1)), t + dt)

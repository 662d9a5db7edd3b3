"""Continuous-time dynamics: exclusion jumps, on-site collisions, reservoirs.

Three event families drive the chain, all accelerated by N^2 on the
macroscopic clock:

  * exclusion: a particle at (x, v) hops to a neighbor (x+y, v) at rate
    P_N(y, v) = 1/2 + p(y, v)/N when the target slot is empty; jumps through
    the x_1 walls are suppressed;
  * collision: an ordered quadruple q = (v, w, v', w') fires at rate 1 on a
    site holding the incoming pair with the outgoing slots empty, swapping
    (v, w) occupation into (v', w');
  * boundary: slots on the wall layers flip at reservoir rates alpha_v /
    1 - alpha_v (left) and beta_v / 1 - beta_v (right).

The simulator thins a Poisson candidate stream against per-family rate
bounds (Lewis & Shedler's thinning in the composition-rejection form of
Slepoy, Thompson & Plimpton): candidates arrive at the summed bound rate,
are accepted with probability rate/bound evaluated lazily from the current
configuration, and rejected candidates advance the clock only.  Waiting times
between accepted events are therefore exactly Exponential(total rate x N^2)
and events are chosen proportionally to their rates, with O(1) expected work
per event.

Each event has a reverse on the same slots, and a configuration lets at most
one of the two fire, so a candidate selects a reversible pair, uniformly
within its family: a bond and a velocity (exclusion), a site and an
unordered {incoming, outgoing} slot pair (collisions), a wall slot
(boundary).  The configuration opens at most one direction of the pair; the
accept variate, scaled by the family bound, picks the direction's catalog
entry by running rate sums or rejects.  A family's bound is its largest
direction total (`RateTable`): max P_N, 4 (the orderings of (v, w) and of
(v', w')) and max(alpha, 1 - alpha).

Exclusion and boundary candidates are thinned against their static weights
(`RateTable.weights`, pairs x bound).  A collision pair is seldom open, so
collisions use the n-fold way (Bortz, Kalos & Lebowitz) within that scheme:
each `SimState` keeps the list of its open collision pairs, whose slots read
(1, 1, 0, 0) or (0, 0, 1, 1), and draws collision candidates uniformly from
it.  An open direction's total rate is 4, so a collision candidate is never
rejected, and the candidate rate is R = W_ex + 4 n_open + W_bd: `weights[1]`
stays the static collision bound, the simulator's collision rate is
4 n_open.  R changes only when an applied event opens or closes a pair;
after each event the collision pairs of the sites it touched (site s owns
pairs s G ... s G + G - 1 of `col_pairs`, G = `RateTable.col_groups`) are
re-tested, in increasing site order, an opened pair appended to the list and
a closed one swap-removed.  R = 0 is an absorbing state and raises
`NumericalFailure` before any candidate is read.

`SimState.advance(stop)` runs the candidate stream.  `_refill` draws it in
batches, each in a fixed order (standard exponentials, then selector
uniforms, then accept variates) into the prefixes of a gap buffer and a
uniform buffer, B gaps and 2B uniforms; the buffers persist across
`SimState.restart` and grow only when B outgrows them.  The loop scales the
candidates by the current R, a gap E / (R N^2) and a selector u R.  For a
model without collision pairs R is `RateTable.total_bound` throughout.  The
first batch holds `SimState.FIRST_BATCH` = 2^8 candidates and each later one
as many as all earlier batches together, up to `SimState.BATCH` = 2^14: a
short run draws few more candidates than it reads (at most twice as many, or
2^8), and a long one draws 2^14 at a time.  The schedule is fixed by these
constants alone, never by `stop`, the sample times or the horizon, so a seed
fixes the stream whichever loop consumes it and however the run is observed.
The loop applies every accepted event with clock reading t < stop and
returns the first accepted event at t >= stop unapplied, with the clock at
its time: `simulate` passes the next sample time or the horizon, so samples
see the state before any event at or after their time.  With an event log,
the one per-event path, it passes stop = -inf and applies each event in
Python.  After every CHECK_EVERY consecutive rejections the loop checks
`RateTable.exact_totals` and raises `NumericalFailure` in an absorbing state.

The loop is a C function (`_eventloop.c`, built and loaded by `eventloop`)
reading the candidate arrays, the `RateTable` pair arrays, the uint8
configuration and the open collision list in place, with the same arithmetic
and list updates as `_select`/`_apply`, so both give the same bytes.  It is
compiled on first use into the package's `__pycache__/` (a private temporary
directory when that is not writable); with no C compiler `SimState` runs
`_select`/`_apply`, the Python reference.
`SimState.event_loop` and `SimulationResult.event_loop` say which ran.

Each `Model` holds one `SimState` for `simulate` (`Model.sim_state`): the
first call builds it, with its loop state, open-pair list and candidate
buffers, and later calls `restart` it from their own configuration and
stream, which leaves it as a new `SimState` would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalFailure
from .lattice import Lattice
from .velocities import Collision, CollisionSet, VelocitySet


def jump_probabilities(vset: VelocitySet) -> np.ndarray:
    """The nearest-neighbor jump law as an (nv, 2d) table of p(y, v) over the
    unit displacements y, columns in the direction order (+e_1, -e_1, +e_2,
    -e_2, ...): p(+-e_j, v) = (a_j +- v_j)/2 with a_j = |v_j| + (1 - sum|v_k|)/d.
    Each row is a probability vector whose mean displacement is v; that needs
    max_l1_speed <= 1, and a faster set raises ValueError."""
    v = vset.velocities
    excess = vset.max_l1_speed()
    if excess > 1.0 + 1e-12:
        raise ValueError(
            f"max l1 speed {excess:.3g} exceeds 1; rescale the velocity set "
            "before building the nearest-neighbor jump law"
        )
    a = np.abs(v) + (1.0 - np.sum(np.abs(v), axis=1, keepdims=True)) / vset.d
    probs = np.empty((len(vset), 2 * vset.d))
    probs[:, 0::2] = (a + v) / 2.0
    probs[:, 1::2] = (a - v) / 2.0
    return probs


class ReservoirProfiles:
    """Reservoir densities alpha_v, beta_v as functions on the transverse torus.

    Each entry is a callable taking a (..., d-1) array of transverse positions
    and returning densities; plain numbers are promoted to constants.  `at`
    is the one evaluation of them, and it checks the open range (0, 1), where
    the simulator is well defined, at the points it is given; a NaN is
    outside.  `Model` evaluates its wall layer, `hydro.BoundaryData` the
    grid's transverse nodes, where it also applies the stricter hull-margin
    floor that numerical conditioning needs.
    """

    def __init__(self, vset: VelocitySet, alpha: Sequence, beta: Sequence):
        if len(alpha) != len(vset) or len(beta) != len(vset):
            raise ValueError("need one alpha and one beta profile per velocity")
        self.alpha = [self._promote(f) for f in alpha]
        self.beta = [self._promote(f) for f in beta]

    @staticmethod
    def _promote(f) -> Callable:
        if callable(f):
            return f
        value = float(f)
        return lambda u, _v=value: np.full(np.shape(u)[:-1], _v) if np.ndim(u) else _v

    def at(self, pts) -> tuple:
        """(alpha, beta) at the transverse positions `pts` (n, d-1), each an
        (n, nv) array; raises DomainError unless every density lies in (0, 1)."""
        walls = []
        for name, fns in (("alpha", self.alpha), ("beta", self.beta)):
            dens = np.stack([np.broadcast_to(np.asarray(f(pts), dtype=float), len(pts))
                             for f in fns], axis=1)
            outside = ~((dens > 0.0) & (dens < 1.0))
            if outside.any():
                k, v = np.argwhere(outside)[0]
                where = f" at transverse position {pts[k].tolist()}" if pts.shape[1] else ""
                raise DomainError(f"reservoir density {name}[{v}] = {dens[k, v]:.4g}"
                                  f"{where} leaves (0, 1)")
            walls.append(dens)
        return tuple(walls)

    @classmethod
    def constant(cls, vset: VelocitySet, alpha, beta) -> "ReservoirProfiles":
        return cls(vset, list(np.atleast_1d(alpha)), list(np.atleast_1d(beta)))

    @classmethod
    def matched(cls, vset: VelocitySet, lam) -> "ReservoirProfiles":
        """Equal reservoirs at the product-measure densities theta_v(lam)."""
        from .thermo import theta_all

        th = theta_all(np.asarray(lam, dtype=float), vset)
        return cls(vset, list(th), list(th))


@dataclass
class Model:
    """A lattice-gas instance: geometry, velocities, reservoirs, collisions.

    `jump_probs` is the velocities' `jump_probabilities`, built (and a set
    too fast for it rejected) here.  `walls` is `profiles.at` the transverse
    positions x~/N of a wall layer, in site order, evaluated once here (so a
    density outside (0, 1) raises DomainError); None without reservoirs or
    walls."""

    lattice: Lattice
    vset: VelocitySet
    profiles: Optional[ReservoirProfiles] = None
    include_collisions: bool = True
    collisions: Optional[CollisionSet] = field(init=False)
    jump_probs: np.ndarray = field(init=False, repr=False, compare=False)
    walls: Optional[tuple] = field(init=False, repr=False, compare=False)
    _state: Optional["SimState"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.jump_probs = jump_probabilities(self.vset)
        self.collisions = CollisionSet(self.vset) if self.include_collisions else None
        lat = self.lattice
        self.walls = None
        if self.profiles is not None and not lat.periodic:
            # the first wall layer's sites, x_1 = 1, come first in site order
            self.walls = self.profiles.at(lat.all_coords()[:lat.N ** (lat.d - 1), 1:] / lat.N)

    @property
    def time_scale(self) -> float:
        """Diffusive acceleration N^2 of the macroscopic clock."""
        return float(self.lattice.N) ** 2

    @cached_property
    def table(self) -> "RateTable":
        """The event catalog, built on first use; every SimState and generator reads it."""
        return RateTable(self)

    def sim_state(self, eta: np.ndarray, rng) -> "SimState":
        """The model's one `SimState` for `simulate`, from `eta` at time 0 on
        `rng`: the first call builds it, later ones restart it, so runs on one
        model share its set-up and must not overlap."""
        if self._state is None:
            self._state = SimState(self, eta, rng)
        else:
            self._state.restart(eta, rng)
        return self._state


# --- events ------------------------------------------------------------------

EXCLUSION, COLLISION, BOUNDARY = 0, 1, 2
KIND_NAMES = ("exclusion", "collision", "boundary")
# the event families the exact generator assembles (`exact.parts`), in the
# order reports print them
ALL_PARTS = tuple(sorted(KIND_NAMES))

# Consecutive rejected candidates between absorbing-state checks.  In place
# of an event family the compiled loop returns CHECK_ABSORBING when a check
# is due and -1 when its candidate batch runs out.
CHECK_EVERY = 10_000_000
CHECK_ABSORBING = -2


@dataclass(frozen=True)
class Event:
    kind: int
    site: int
    velocity: Optional[int] = None
    target: Optional[int] = None
    quadruple: Optional[Collision] = None

    @property
    def kind_name(self) -> str:
        return KIND_NAMES[self.kind]


# --- rate table ---------------------------------------------------------------

@dataclass(frozen=True)
class ReversiblePairs:
    """One family's catalog entries grouped into reversible pairs.

    Row p of `slots` holds pair p's two slot sets of equal size: direction 0
    empties the first set into the second, direction 1 the second into the
    first, and a configuration opens at most one of them.  `entry[p, j]` lists
    direction j's catalog entries and `cum[p, j]` their running rate sums;
    the largest direction total `bound` is the family's rate bound.
    """

    slots: np.ndarray  # (pairs, 2 x set size)
    entry: np.ndarray  # (pairs, 2, entries per direction)
    cum: np.ndarray  # same shape as entry

    @property
    def bound(self) -> float:
        return float(self.cum.max(initial=0.0))

    def pick(self, p: int, direction: int, u: float) -> int:
        """The entry of the direction whose running sum first exceeds u, or -1."""
        for idx, total in zip(self.entry[p, direction], self.cum[p, direction]):
            if u < total:
                return int(idx)
        return -1


class RateTable:
    """The event catalog: every possible event as array entries, plus per-family
    rate bounds for the simulator.

    Entries are slot indices `site * nv + v` into the flat configuration:
    exclusion hops `ex_src` -> `ex_tgt` at constant `ex_pn` (ordered by site,
    velocity, direction), collisions `col_slots` = (v, w, v', w') slots of one
    site at rate 1 (ordered by site, then `collisions.active`), and reservoir
    flips of `bd_slot` at rate `bd_birth` when empty, `bd_death` when occupied
    (ordered by wall site, then velocity).  The exact generator and the
    simulator's returned indices both read this order.  Suppressed exclusion
    moves (through a wall) are left out, as are collision quadruples that can
    never fire.  `exact_totals` recomputes the family sums for checks and
    waiting-time statistics.

    For the simulator, `ex_pairs` groups the hops into reversible pairs (a
    bond and a velocity; a two-site ring has two bonds between its sites) and
    `col_pairs` the quadruples (a site and an unordered {incoming, outgoing}
    velocity pair, four orderings per direction); a boundary pair is one wall
    slot.  `n_pairs` counts the pairs per family, `col_groups` the collision
    pairs per site (`col_pairs` is site-major), and `bound_ex`, `bound_col`,
    `bound_bd` are the largest direction totals: max P_N, 4, and
    max(alpha, 1 - alpha) over the walls.  `weights`, pairs x bound, is each
    family's static rate bound: the exclusion and boundary candidate rates,
    and for collisions the bound 4 x pairs, while the simulator's collision
    candidate rate is 4 x the pairs open (`SimState.n_open`).
    """

    def __init__(self, model: Model):
        lat, nv = model.lattice, len(model.vset)
        self.nv = nv
        # exclusion: np.nonzero walks the (site, velocity, direction) grid in
        # C order, skipping moves through a wall
        nbr = lat.neighbor_table()
        s, v, d = np.nonzero(np.repeat(nbr[:, None, :] >= 0, nv, axis=1))
        self.ex_src = s * nv + v
        self.ex_tgt = nbr[s, d] * nv + v
        self.ex_pn = (0.5 + model.jump_probs / lat.N)[v, d]
        # a bond runs from a site along +e_a; its pair, one per velocity, is
        # the hop along it and the hop back (a two-site ring has two bonds)
        index = np.full((lat.n_sites, nv, 2 * lat.d), -1)
        index[s, v, d] = np.arange(len(s))
        along = np.flatnonzero(d % 2 == 0)
        back = index[nbr[s[along], d[along]], v[along], d[along] + 1]
        entry = np.stack((along, back), axis=1)[:, :, None]
        self.ex_pairs = ReversiblePairs(
            np.stack((self.ex_src[along], self.ex_tgt[along]), axis=1), entry,
            self.ex_pn[entry])

        quads = [] if model.collisions is None else \
            [(q.v, q.w, q.vp, q.wp) for q in model.collisions.active]
        quads = np.array(quads, dtype=np.int64).reshape(-1, 4)
        sites = np.arange(lat.n_sites)[:, None, None]
        self.col_slots = (sites * nv + quads).reshape(-1, 4)
        # a pair is one site's unordered {incoming, outgoing} velocity pair;
        # each direction holds the four orderings of (v, w) and of (v', w')
        pairs = {}
        for k, q in enumerate(quads.tolist()):
            out, into = sorted(q[:2]), sorted(q[2:])
            first, second = sorted((out, into))
            pairs.setdefault((*first, *second), ([], []))[out != first].append(k)
        velocities = np.array(list(pairs), dtype=np.int64).reshape(-1, 4)
        local = np.array(list(pairs.values()), dtype=np.int64).reshape(-1, 2, 4)
        self.col_groups = len(pairs)  # collision pairs per site, site-major
        self.col_pairs = ReversiblePairs(
            (sites * nv + velocities).reshape(-1, 4),
            (sites[..., None] * len(quads) + local).reshape(-1, 2, 4),
            np.tile(np.arange(1.0, 5.0), (lat.n_sites * len(pairs), 2, 1)))

        # boundary: the wall layers' slots are the first and the last of the
        # configuration, alpha's layer first; at N = 2 one layer faces both walls
        # and takes alpha
        slots, births = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        if model.walls is not None:
            layers = model.walls[:1 + (lat.N > 2)]
            per_layer = layers[0].size
            starts = (0, lat.n_sites * nv - per_layer)
            slots += [start + np.arange(per_layer) for start in starts[:len(layers)]]
            births += [dens.reshape(-1) for dens in layers]
        self.bd_slot = np.concatenate(slots)
        self.bd_birth = np.concatenate(births)
        self.bd_death = 1.0 - self.bd_birth

        self.bound_ex = self.ex_pairs.bound
        self.bound_col = self.col_pairs.bound
        self.bound_bd = float(np.maximum(self.bd_birth, self.bd_death).max(initial=0.0))
        self.counts = (len(self.ex_src), len(self.col_slots), len(self.bd_slot))
        self.n_pairs = (len(self.ex_pairs.slots), len(self.col_pairs.slots), self.counts[2])
        self.weights = (
            self.n_pairs[0] * self.bound_ex,
            self.n_pairs[1] * self.bound_col,
            self.n_pairs[2] * self.bound_bd,
        )
        self.total_bound = sum(self.weights)

    @cached_property
    def loop_pointers(self) -> tuple:
        """Addresses of the pair and boundary arrays in `eventloop.LoopState`
        order, which the compiled loop of every `SimState` on this table reads
        in place."""
        ex, col = self.ex_pairs, self.col_pairs
        arrays = (ex.slots, ex.entry, ex.cum, col.slots, col.entry, col.cum,
                  self.bd_slot, self.bd_birth, self.bd_death)
        self._loop_arrays = [
            np.ascontiguousarray(a, dtype=float if a.dtype.kind == "f" else np.int64)
            for a in arrays]
        return tuple(a.ctypes.data for a in self._loop_arrays)

    def exact_totals(self, eta: np.ndarray) -> np.ndarray:
        """Microscopic (per unit N^2-time) total rate per event family."""
        flat = eta.reshape(-1)
        ex = np.sum(flat[self.ex_src] * (1 - flat[self.ex_tgt]) * self.ex_pn)
        sl = flat[self.col_slots]
        col = np.sum(sl[:, 0] * sl[:, 1] * (1 - sl[:, 2]) * (1 - sl[:, 3]))
        occ = flat[self.bd_slot]
        bd = np.sum(np.where(occ == 0, self.bd_birth, self.bd_death))
        return np.array([ex, col, bd], dtype=float)

    def event_from_entry(self, kind: int, idx: int) -> Event:
        """The `Event` of one catalog entry, decoded from its slots.

        An exclusion `Event` names its sites, not its direction, so on a
        ring of two sites the two entries of a hop x -> z (via +e_1 and via
        -e_1, at different rates) decode to one `Event`, whose rate is
        their summed `ex_pn`; a per-entry audit reads `ex_pn[idx]` instead."""
        nv = self.nv
        if kind == EXCLUSION:
            src, tgt = int(self.ex_src[idx]), int(self.ex_tgt[idx])
            return Event(EXCLUSION, site=src // nv, velocity=src % nv, target=tgt // nv)
        if kind == COLLISION:
            slots = [int(s) for s in self.col_slots[idx]]
            return Event(COLLISION, site=slots[0] // nv,
                         quadruple=Collision(*(s % nv for s in slots)))
        slot = int(self.bd_slot[idx])
        return Event(BOUNDARY, site=slot // nv, velocity=slot % nv)


# --- simulation ---------------------------------------------------------------

class SimState:
    """Mutable state driving the thinned candidate stream over `Model.table`,
    from a configuration `eta` (n_sites, nv) of 0/1 occupations at time 0;
    any other shape or value raises ValueError.

    `__init__` does the model-level set-up (the configuration buffer, the
    open-pair list, the loop state and its pointers) and then calls
    `restart`, which later runs call too: a restarted state is a new one from
    its configuration and stream."""

    FIRST_BATCH = 1 << 8  # candidates in the first batch
    BATCH = 1 << 14  # the cap on later batches, which double the stream drawn

    def __init__(self, model: Model, eta: np.ndarray, rng):
        from .eventloop import LoopState, load_kernel

        # the model's sizes and clock, not the model, which holds this state
        self.table = table = model.table
        self.n_sites, self.nv = model.lattice.n_sites, len(model.vset)
        self.time_scale = model.time_scale
        if table.total_bound <= 0.0:
            raise NumericalFailure("no events are possible for this model")
        self.eta_flat = np.empty(self.n_sites * self.nv, dtype=np.uint8)
        # the candidate buffers, whose prefixes hold the batch of `_batch`
        # candidates; empty until the first
        self._gaps, self._uniforms, self._batch = np.empty(0), np.empty(0), 0
        self.kind_counts = np.zeros(3, dtype=np.int64)
        # the open collision pairs in `_open[:n_open]`, and each pair's place
        # there or -1 in `_where`; a model without collision pairs has neither
        if table.col_groups:
            n_col = table.n_pairs[1]
            self._open = np.empty(n_col, dtype=np.int64)
            self._where = np.empty(n_col, dtype=np.int64)
        self._run = load_kernel()
        if self._run is not None:
            # in LoopState field order; the candidate pointers and count are
            # set by each refill, n_open, the clock and position per call
            self._loop = LoopState(
                None, None, None, *table.loop_pointers,
                self.eta_flat.ctypes.data, self.kind_counts.ctypes.data, None, None,
                0, table.n_pairs[0], table.n_pairs[2], self.nv, table.col_groups, 0,
                table.bound_ex, table.bound_col, table.bound_bd,
                table.weights[0], table.weights[2], model.time_scale)
            if table.col_groups:
                self._loop.open = self._open.ctypes.data
                self._loop.where = self._where.ctypes.data
        self.restart(eta, rng)

    def restart(self, eta: np.ndarray, rng) -> None:
        """Start over from the configuration `eta` at time 0 on the stream
        `rng`, as a new `SimState` would, keeping the buffers; `eta` is
        checked before anything changes."""
        table = self.table
        eta = np.asarray(eta)
        if eta.shape != (self.n_sites, self.nv):
            raise ValueError(f"eta has shape {eta.shape}; the lattice has "
                             f"{self.n_sites} sites of {self.nv} velocity slots")
        # one reduction for the unsigned dtypes (`sample_profile_state` gives uint8)
        if not (eta.max() <= 1 if eta.dtype.kind in "bu" else ((eta == 0) | (eta == 1)).all()):
            raise ValueError("occupations must be 0 or 1")
        self.eta_flat[:] = eta.reshape(-1)
        self.rng = rng
        self.t = 0.0
        self.kind_counts[:] = 0
        # the batch in hand counts as read, so the first candidate draws anew
        self._pos, self._drawn = self._batch, 0
        self.n_open = 0
        if table.col_groups:
            sl = self.eta_flat[table.col_pairs.slots]
            opened = np.flatnonzero((sl[:, 0] == sl[:, 1]) & (sl[:, 1] != sl[:, 2])
                                    & (sl[:, 2] == sl[:, 3]))
            self.n_open = len(opened)
            self._open[:self.n_open] = opened
            self._where.fill(-1)
            self._where[opened] = np.arange(self.n_open)
        if self._run is not None:
            self._loop.tried = 0

    @property
    def candidates(self) -> int:
        """Candidates read so far: those drawn less the unread rest of the batch."""
        return self._drawn - (self._batch - self._pos)

    @property
    def event_loop(self) -> str:
        return "python" if self._run is None else "compiled"

    def _refill(self):
        """Draw the next batch of B candidates in place: B standard
        exponentials into `_gaps[:B]`, then B selector and B accept uniforms
        into `_uniforms[:2B]`, the stream of three separate draws.  The
        buffers persist across restarts and are re-allocated only when B
        outgrows them, the old ones dropped first."""
        B = self._batch = min(max(self._drawn, self.FIRST_BATCH), self.BATCH)
        if B > len(self._gaps):
            self._gaps = self._uniforms = None
            self._gaps, self._uniforms = np.empty(B), np.empty(2 * B)
            if self._run is not None:
                self._loop.gap = self._gaps.ctypes.data
                self._loop.sel = self._uniforms.ctypes.data
        if self._run is not None:
            # the accept variates follow the B selectors
            self._loop.acc = self._loop.sel + B * self._uniforms.itemsize
            self._loop.n_cand = B
        self.rng.standard_exponential(out=self._gaps[:B])
        self.rng.random(out=self._uniforms[:2 * B])
        self._drawn += B
        self._pos = 0

    def _next_candidate(self):
        if self._pos >= self._batch:
            self._refill()
        i = self._pos
        self._pos += 1
        return self._gaps[i], self._uniforms[i], self._uniforms[self._batch + i]

    def snapshot(self) -> np.ndarray:
        return self.eta_flat.reshape(self.n_sites, self.nv).copy()

    def _check_absorbing(self) -> None:
        if self.table.exact_totals(self.eta_flat).sum() == 0.0:
            raise NumericalFailure("absorbing state reached: total rate is zero")

    def advance(self, stop: float):
        """Apply the accepted events before clock reading `stop` and return the
        first accepted one at t >= stop as (kind, idx), unapplied, with the
        clock at its time.  Runs the compiled loop when it is loaded; stop =
        -inf returns the next accepted event, which the caller applies with
        `_apply`."""
        if self._run is None:
            while True:
                kind, idx = self._select()
                if self.t >= stop:
                    return kind, idx
                self._apply(kind, idx)
        loop = self._loop
        while True:
            if self._pos >= self._batch:
                self._refill()
            loop.t, loop.pos, loop.n_open = self.t, self._pos, self.n_open
            kind = self._run(loop, stop)
            self.t, self._pos, self.n_open = loop.t, loop.pos, loop.n_open
            if kind >= 0:
                return kind, loop.idx
            if kind == CHECK_ABSORBING:
                self._check_absorbing()

    def _select(self):
        """Advance the clock to the next accepted event; return (kind, idx).

        The Python reference for the compiled loop's candidate scan: a
        candidate selects an exclusion pair, an open collision pair or a wall
        slot; the configuration opens at most one direction of the pair, and
        the accept variate picks an entry of it or rejects."""
        table, eta = self.table, self.eta_flat
        n_ex, n_bd = table.n_pairs[0], table.n_pairs[2]
        w_ex, w_bd = table.weights[0], table.weights[2]
        # the candidate rate changes only when an applied event opens or
        # closes a collision pair, so it holds until this call returns
        thr2 = w_ex + table.bound_col * self.n_open
        rate = thr2 + w_bd
        if rate == 0.0:
            self._check_absorbing()
        scale = 1.0 / (rate * self.time_scale)
        tried = 0
        while True:
            gap, sel, acc = self._next_candidate()
            sel *= rate
            self.t += gap * scale
            if sel < w_ex:
                p = min(int(sel / table.bound_ex), n_ex - 1)
                a, b = table.ex_pairs.slots[p]
                if eta[a] != eta[b]:
                    idx = table.ex_pairs.pick(p, eta[b], acc * table.bound_ex)
                    if idx >= 0:
                        return EXCLUSION, idx
            elif sel < thr2:
                p = self._open[min(int((sel - w_ex) / table.bound_col), self.n_open - 1)]
                c = table.col_pairs.slots[p, 2]
                return COLLISION, table.col_pairs.pick(p, eta[c], acc * table.bound_col)
            else:
                idx = min(int((sel - thr2) / table.bound_bd), n_bd - 1)
                slot = table.bd_slot[idx]
                flip = table.bd_death[idx] if eta[slot] else table.bd_birth[idx]
                if acc * table.bound_bd < flip:
                    return BOUNDARY, idx
            tried += 1
            if tried % CHECK_EVERY == 0:
                self._check_absorbing()

    def _apply(self, kind: int, idx: int) -> None:
        eta, table = self.eta_flat, self.table
        if kind == EXCLUSION:
            src, tgt = table.ex_src[idx], table.ex_tgt[idx]
            eta[src] = 0
            eta[tgt] = 1
            sites = sorted((src // self.nv, tgt // self.nv))
        elif kind == COLLISION:
            a, b, c, d = table.col_slots[idx]
            eta[a] = 0
            eta[b] = 0
            eta[c] = 1
            eta[d] = 1
            sites = (a // self.nv,)
        else:
            slot = table.bd_slot[idx]
            eta[slot] = 1 - eta[slot]
            sites = (slot // self.nv,)
        self.kind_counts[kind] += 1
        if table.col_groups:
            for site in sites:
                self._retest(site)

    def _retest(self, site: int) -> None:
        """Re-test one site's collision pairs (`col_pairs` is site-major):
        append those that opened to the open list, swap-remove those that
        closed."""
        eta, slots, where = self.eta_flat, self.table.col_pairs.slots, self._where
        groups = self.table.col_groups
        for p in range(site * groups, site * groups + groups):
            a, b, c, d = slots[p]
            is_open = eta[a] == eta[b] != eta[c] == eta[d]
            k = where[p]
            if is_open and k < 0:
                where[p] = self.n_open
                self._open[self.n_open] = p
                self.n_open += 1
            elif not is_open and k >= 0:
                self.n_open -= 1
                last = self._open[self.n_open]
                self._open[k] = last
                where[last] = k
                where[p] = -1


@dataclass
class SimulationResult:
    final: np.ndarray  # (n_sites, nv) uint8, the state at the horizon
    n_events: int
    kind_counts: tuple
    candidates: int  # candidates read, accepted or not
    samples: list
    event_loop: str  # "compiled" or "python"


def simulate(initial: np.ndarray, model: Model, horizon: float, rng,
             sample_times: Optional[Sequence[float]] = None,
             event_log=None) -> SimulationResult:
    """Run the chain from the configuration `initial`, an (n_sites, nv) 0/1
    array (checked by `SimState`), to macroscopic time `horizon`, on the
    model's one state (`Model.sim_state`).

    The returned samples list holds (t, eta array) pairs at each requested
    sample time, in increasing t: the state at t, i.e. before any event at a
    later clock reading.  `final` is the (n_sites, nv) uint8 state at the
    horizon.  `event_log`, an open text stream, receives a CSV header and
    one line per event; it makes every event return to Python, while a plain
    run calls `SimState.advance` at most once per sample time and once for
    the horizon.  Deterministic given the rng seed, with or without the log.
    """
    # the comparisons are false for NaN, so a NaN horizon or time is rejected
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    times = sorted(float(t) for t in (() if sample_times is None else sample_times))
    if not all(0 <= t <= horizon for t in times):
        raise ValueError("sample times must lie in [0, horizon]")

    samples: list = []
    state = model.sim_state(initial, rng)
    # the log sees every event, so each one returns to Python
    per_event = event_log is not None
    if per_event:
        event_log.write("time,kind,site,velocity,target,quadruple\n")
    next_i = 0
    if horizon > 0:
        while True:
            stop = -math.inf if per_event else (
                times[next_i] if next_i < len(times) else horizon)
            kind, idx = state.advance(stop)
            t_new = state.t
            while next_i < len(times) and times[next_i] <= min(t_new, horizon):
                samples.append((times[next_i], state.snapshot()))
                next_i += 1
            if t_new >= horizon:
                break
            state._apply(kind, idx)
            if per_event:
                ev = state.table.event_from_entry(kind, idx)
                q = "" if ev.quadruple is None else (
                    f"{ev.quadruple.v}|{ev.quadruple.w}|{ev.quadruple.vp}|{ev.quadruple.wp}"
                )
                event_log.write(
                    f"{t_new:.12g},{ev.kind_name},{ev.site},"
                    f"{'' if ev.velocity is None else ev.velocity},"
                    f"{'' if ev.target is None else ev.target},{q}\n"
                )
    # with horizon == 0 no event is drawn; every sample sees the initial state
    while next_i < len(times):
        samples.append((times[next_i], state.snapshot()))
        next_i += 1

    kind_counts = tuple(state.kind_counts.tolist())
    return SimulationResult(
        final=state.snapshot(),
        n_events=sum(kind_counts),
        kind_counts=kind_counts,
        candidates=state.candidates,
        samples=samples,
        event_loop=state.event_loop,
    )

"""Continuous-time dynamics: exclusion jumps, on-site collisions, reservoirs.

Three event families drive the chain, all accelerated by N^2 on the
macroscopic clock:

  * exclusion: a particle at (x, v) hops to a neighbor (x+y, v) at rate
    P_N(y, v) = 1/2 + p(y, v)/N when the target slot is empty; jumps through
    the x_1 walls are suppressed;
  * collision: an ordered quadruple q = (v, w, v', w') fires at rate 1 on a
    site holding the incoming pair with the outgoing slots empty, swapping
    (v, w) occupation into (v', w').  The four orderings of (v, w) and of
    (v', w') make one transition, so the catalog holds each swap
    {v, w} -> {v', w'} once, at rate 4;
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

Each transition has a reverse on the same slots, and a configuration lets
at most one of the two fire, so the catalog (`RateTable`) is made of
reversible pairs, whose two directions are its entries: a bond and a
velocity (exclusion), a site and an unordered {incoming, outgoing} velocity
pair (collisions); a boundary pair is one wall slot, its one entry flipping
it either way.  A candidate selects a pair uniformly within its family; the
configuration opens at most one direction of it, and the accept variate,
scaled by the family bound, accepts that direction's entry below its rate
or rejects.  A family's bound is its largest direction rate: max P_N, 4 and
max(alpha, 1 - alpha).

Exclusion and boundary candidates are thinned against their static weights
(`RateTable.weights`, pairs x bound).  A collision pair is seldom open, so
collisions use the n-fold way (Bortz, Kalos & Lebowitz) within that scheme:
each `SimState` keeps the list of its open collision pairs, whose slots read
(1, 1, 0, 0) or (0, 0, 1, 1), and draws collision candidates uniformly from
it.  An open direction's total rate is 4, so a collision candidate is
rejected only where its selector rounds past the last open pair (below), and
the candidate rate is R = W_ex + 4 n_open + W_bd: `weights[1]` stays the
static collision bound, the simulator's collision rate is 4 n_open.  R
changes only when an applied event opens or closes a pair; after each event
the collision pairs of the sites it touched (site s owns pairs s G ...
s G + G - 1 of `col_slots`, G = `RateTable.col_groups`) are re-tested, in
increasing site order, an opened pair appended to the list and a closed one
swap-removed.  R = 0 is an absorbing state and raises `NumericalFailure`
before any candidate is read.

`SimState.advance(stop)` runs the candidate stream.  `_refill` draws it in
batches of B candidates, two draws each: B standard exponentials into a gap
buffer, then B uniforms into a selector buffer; the buffers persist across
`SimState.restart` and grow only when B outgrows them.  The loop scales the
candidates by the current R, a gap E / (R N^2) and a selector u R.  A
selector in a family's band [offset, offset + W) gives both the pair and the
accept variate: with x = (u R - offset) / bound, the pair is
p = min(floor(x), n - 1) of the family's n and the accept variate is x - p.
Up to rounding that is uniform on [0, 1) and independent of the pair; it
keeps about 53 - log2(n) bits.  Where x rounds up to n the clamp gives
x - p >= 1, which every family rejects.  For a model without collision pairs
R is `RateTable.total_bound` throughout.  The first batch holds
`SimState.FIRST_BATCH` = 2^8 candidates and each later one as many as all
earlier batches together, up to `SimState.BATCH` = 2^14: a short run draws
few more candidates than it reads (at most twice as many, or 2^8), and a
long one draws 2^14 at a time.  The schedule is fixed by these
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

class RateTable:
    """The event catalog: every reversible pair of slot sets per family, its
    directions the catalog entries, plus per-family rate bounds for the
    simulator.

    Slots are indices `site * nv + v` into the flat configuration.  A pair's
    direction 0 empties its first slot set into its second and direction 1
    the second into the first, and a configuration opens at most one of them.
    Exclusion pairs `ex_slots` (P, 2) are a bond and a velocity, ordered by
    site, velocity and axis (a bond runs from its site along +e_a; a ring of
    two sites has two bonds between them); `ex_rate` (P, 2) holds the hop
    rates P_N of the two directions, along the bond and back.  Collision
    pairs `col_slots` (Q, 4) are a site and an unordered {incoming, outgoing}
    velocity pair, ordered by site, then by the first of their quadruples in
    `collisions.active` (`col_groups` pairs per site); each direction is one
    entry at rate `bound_col` = 4, the four ordered quadruples (v, w, v', w')
    of the swap at rate 1 each.  Entry e of these two families is direction
    e % 2 of pair e // 2.  A boundary entry is one wall slot `bd_slot`,
    flipped at rate `bd_birth` when empty and `bd_death` when occupied
    (ordered by wall site, then velocity).  Suppressed hops (through a wall)
    and collisions that can never fire are left out.  The exact generator
    and the simulator's returned entries both read this order;
    `exact_totals` recomputes the family sums for checks.

    `n_pairs` counts the pairs per family (a boundary pair is one wall slot)
    and `counts` the entries; `bound_ex`, `bound_col` and `bound_bd` are the
    largest direction rates: max P_N, 4 and max(alpha, 1 - alpha) over the
    walls.  `weights`, pairs x bound, is each family's static rate bound:
    the exclusion and boundary candidate rates, and for collisions the bound
    4 x pairs, while the simulator's collision candidate rate is 4 x the
    pairs open (`SimState.n_open`).
    """

    def __init__(self, model: Model):
        lat, nv = model.lattice, len(model.vset)
        self.nv = nv
        # exclusion: np.nonzero walks the (site, velocity, axis) grid in C
        # order, skipping bonds through a wall
        nbr = lat.neighbor_table()
        s, v, a = np.nonzero(np.repeat(nbr[:, None, 0::2] >= 0, nv, axis=1))
        pn = 0.5 + model.jump_probs / lat.N
        self.ex_slots = np.stack((s * nv + v, nbr[s, 2 * a] * nv + v), axis=1)
        self.ex_rate = np.stack((pn[v, 2 * a], pn[v, 2 * a + 1]), axis=1)

        # collisions: a swap's four orderings share one unordered pair of
        # sorted (v, w) and sorted (v', w'), which dict.fromkeys keeps in
        # order of first appearance
        active = () if model.collisions is None else model.collisions.active
        swaps = dict.fromkeys(tuple(sorted((tuple(sorted((q.v, q.w))),
                                            tuple(sorted((q.vp, q.wp))))))
                              for q in active)
        velocities = np.array(list(swaps), dtype=np.int64).reshape(-1, 4)
        self.col_groups = len(velocities)  # collision pairs per site, site-major
        self.col_slots = (np.arange(lat.n_sites)[:, None, None] * nv
                          + velocities).reshape(-1, 4)

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

        self.bound_ex = float(self.ex_rate.max(initial=0.0))
        self.bound_col = 4.0 if self.col_groups else 0.0
        self.bound_bd = float(np.maximum(self.bd_birth, self.bd_death).max(initial=0.0))
        self.n_pairs = (len(self.ex_slots), len(self.col_slots), len(self.bd_slot))
        self.counts = (2 * self.n_pairs[0], 2 * self.n_pairs[1], self.n_pairs[2])
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
        arrays = (self.ex_slots, self.ex_rate, self.col_slots,
                  self.bd_slot, self.bd_birth, self.bd_death)
        self._loop_arrays = [
            np.ascontiguousarray(a, dtype=float if a.dtype.kind == "f" else np.int64)
            for a in arrays]
        return tuple(a.ctypes.data for a in self._loop_arrays)

    def entry_slots(self, kind: int, idx: int) -> np.ndarray:
        """The slots one entry flips: its pair's, or its wall slot's."""
        if kind == BOUNDARY:
            return self.bd_slot[idx:idx + 1]
        return (self.ex_slots if kind == EXCLUSION else self.col_slots)[idx // 2]

    def open_collisions(self, flat: np.ndarray) -> np.ndarray:
        """Whether each collision pair is open under the flat configuration:
        its slots read (1, 1, 0, 0) or (0, 0, 1, 1)."""
        sl = flat[self.col_slots]
        return (sl[:, 0] == sl[:, 1]) & (sl[:, 1] != sl[:, 2]) & (sl[:, 2] == sl[:, 3])

    def exact_totals(self, eta: np.ndarray) -> np.ndarray:
        """Microscopic (per unit N^2-time) total rate per event family."""
        flat = eta.reshape(-1)
        a, b = flat[self.ex_slots].T
        ex = np.sum(a * (1 - b) * self.ex_rate[:, 0] + b * (1 - a) * self.ex_rate[:, 1])
        col = self.bound_col * np.count_nonzero(self.open_collisions(flat))
        occ = flat[self.bd_slot]
        bd = np.sum(np.where(occ == 0, self.bd_birth, self.bd_death))
        return np.array([ex, col, bd], dtype=float)

    def event_from_entry(self, kind: int, idx: int) -> Event:
        """The `Event` of one catalog entry, decoded from its slots.

        An exclusion `Event` names its sites, not its bond, so on a ring of
        two sites the two entries of a hop x -> z (along the two bonds, at
        different rates) decode to one `Event`, whose rate is their summed
        `ex_rate`; a per-entry audit reads `ex_rate` instead.  A collision
        `Event` names the ordering of its direction's slots, the first of
        the four orderings its entry stands for."""
        nv = self.nv
        slots = [int(s) for s in self.entry_slots(kind, idx)]
        if kind == BOUNDARY:
            return Event(BOUNDARY, site=slots[0] // nv, velocity=slots[0] % nv)
        half = len(slots) // 2
        if idx % 2:
            slots = slots[half:] + slots[:half]
        if kind == EXCLUSION:
            src, tgt = slots
            return Event(EXCLUSION, site=src // nv, velocity=src % nv, target=tgt // nv)
        return Event(COLLISION, site=slots[0] // nv,
                     quadruple=Collision(*(s % nv for s in slots)))


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
        self._gaps, self._selectors, self._batch = np.empty(0), np.empty(0), 0
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
                None, None, *table.loop_pointers,
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
            opened = np.flatnonzero(table.open_collisions(self.eta_flat))
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
        """Draw the next batch of B candidates in place, two draws: B
        standard exponentials into `_gaps[:B]`, then B selector uniforms into
        `_selectors[:B]`, whose remainders are the accept variates.  The
        buffers persist across restarts and are re-allocated only when B
        outgrows them, the old ones dropped first."""
        B = self._batch = min(max(self._drawn, self.FIRST_BATCH), self.BATCH)
        if B > len(self._gaps):
            self._gaps = self._selectors = None
            self._gaps, self._selectors = np.empty(B), np.empty(B)
            if self._run is not None:
                self._loop.gap = self._gaps.ctypes.data
                self._loop.sel = self._selectors.ctypes.data
        if self._run is not None:
            self._loop.n_cand = B
        self.rng.standard_exponential(out=self._gaps[:B])
        self.rng.random(out=self._selectors[:B])
        self._drawn += B
        self._pos = 0

    def _next_candidate(self):
        if self._pos >= self._batch:
            self._refill()
        i = self._pos
        self._pos += 1
        return self._gaps[i], self._selectors[i]

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
        candidate's selector picks an exclusion pair, an open collision pair
        or a wall slot, and its remainder within the pair is the accept
        variate (`_pair_of`).  The configuration opens at most one direction
        of the pair, the one its second slot set's occupation names, and
        the accept variate, scaled by the family bound, accepts that
        direction's entry where it falls below the direction's rate: always
        for an open collision pair, whose rate is the bound.  A remainder of
        1 or more, where the selector rounds past the last pair, rejects in
        every family."""
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
            gap, sel = self._next_candidate()
            sel *= rate
            self.t += gap * scale
            if sel < w_ex:
                p, acc = _pair_of(sel / table.bound_ex, n_ex)
                a, b = table.ex_slots[p]
                j = int(eta[b])
                if eta[a] != j and acc * table.bound_ex < table.ex_rate[p, j]:
                    return EXCLUSION, 2 * p + j
            elif sel < thr2:
                k, acc = _pair_of((sel - w_ex) / table.bound_col, self.n_open)
                if acc < 1.0:
                    p = int(self._open[k])
                    return COLLISION, 2 * p + int(eta[table.col_slots[p, 2]])
            else:
                idx, acc = _pair_of((sel - thr2) / table.bound_bd, n_bd)
                slot = table.bd_slot[idx]
                flip = table.bd_death[idx] if eta[slot] else table.bd_birth[idx]
                if acc * table.bound_bd < flip:
                    return BOUNDARY, idx
            tried += 1
            if tried % CHECK_EVERY == 0:
                self._check_absorbing()

    def _apply(self, kind: int, idx: int) -> None:
        """Flip every slot of the entry's pair, then re-test the collision
        pairs of its sites in increasing order."""
        table = self.table
        slots = table.entry_slots(kind, idx)
        self.eta_flat[slots] ^= 1
        self.kind_counts[kind] += 1
        if table.col_groups:
            for site in sorted({int(slots[0]) // self.nv, int(slots[-1]) // self.nv}):
                self._retest(site)

    def _retest(self, site: int) -> None:
        """Re-test one site's collision pairs (`col_slots` is site-major):
        append those that opened to the open list, swap-remove those that
        closed."""
        eta, slots, where = self.eta_flat, self.table.col_slots, self._where
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


def _pair_of(x: float, n: int) -> tuple:
    """The pair min(floor(x), n - 1) of a selector x >= 0 among n pairs, and
    the remainder x - pair, the accept variate."""
    p = min(int(x), n - 1)
    return p, x - p


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

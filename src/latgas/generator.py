"""Exact generators of tiny systems, held as one small rate table per flip mask.

States are integers whose bit `site * k + rank(v)` holds eta(x, v) for the
k velocities of the generator's group; for all velocities it is `site * nv +
v`, the slot index of the simulator's event catalog `Model.table`, which the
generator is built from.  Every event flips a fixed bit mask, so the generator
is a sum of masked XOR permutations: L[s, s ^ flips[k]] = r_k(s) (N^2-scaled)
and L[s, s] = -exit[s] = -sum_k r_k(s).  A catalog entry fires from the states
whose bits under its mask read one pattern (its source slots full, its
targets empty), so r_k(s) depends only on those 1-4 bits: `tables[k]` holds
it as a (2,)*popcount(flips[k]) array, one axis per bit of the mask (top bit
first).  Memory is O(states): the tables take a few entries each, and only
`exit` and the vectors a method is given or returns have one entry per state.

Only collisions join velocities, so the chain's generator is the Kronecker
sum of its components' (`velocity_groups`) and a product measure the product
of theirs; `invariance_residual` combines the components in blocks of about
CHUNK states, in memory for the last component, the product of the others
and one block: O(largest component + CHUNK) for two components.

The passes over the states go through views.  With a vector over all
states reshaped so that each run of bits that a mask sets or leaves is one
axis (C order: top bit first), the states whose bits under the mask read a
pattern p are the basic-index view that cuts each set run's axis to the bits
p has there.  A pass visits only the views of the patterns whose rate is
nonzero, each paired with the view at p ^ mask, where those states go; the
states where a mask does not fire are not visited.  The one exception is
`exit`'s sum (`_exit_rates`): a mask within the lowest log2(CHUNK) bits,
whose views have inner runs of a few states, is added as its rate row over
those bits, tiled, to every CHUNK-wide row of states.  The CSR `matrix` is
built only when asked for.  Intended for verification: invariance of
homogeneous product measures under periodic exclusion, and detailed balance
of the collision dynamics with respect to the single-site product weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import ALL_PARTS, Model, RateTable
from .errors import SizeError

STATE_SPACE_CAP = 2**20
CHUNK = 2**14  # states per slice of an in-place update over all states


def max_abs(x: np.ndarray) -> float:
    """max|x|, without the full-size temporary of np.abs."""
    return float(max(x.max(), -x.min()))


def velocity_groups(model: Model, parts=ALL_PARTS) -> list:
    """The chain's components: the velocities that the active collisions in
    `parts` join, as sorted tuples in order.  Without a collision part, or
    collisions, every velocity is its own group."""
    groups = [{v} for v in range(len(model.vset))]
    if "collision" in parts and model.collisions is not None:
        for q in model.collisions.active:
            joined = [g for g in groups if g & {q.v, q.w, q.vp, q.wp}]
            groups = [g for g in groups if g not in joined] + [set().union(*joined)]
    return sorted(tuple(sorted(g)) for g in groups)


def _rate_tables(table: RateTable, parts, scale: float, group=None) -> tuple:
    """(flips, tables): the flip masks of the catalog entries in `parts`, in
    catalog order of first appearance, and each mask's N^2-scaled rate
    table, indexed by the state's bits under the mask (top bit first).  A
    pair's two directions share its mask and fire from its first and from
    its second slot set; a boundary entry fires both ways, death first.
    Entries sharing a mask (two bonds between the sites of a ring of two)
    are each scaled, then added in catalog order.  Only the entries within
    `group`'s velocities (default all) are kept, slot (site, v) moved to bit
    site * len(group) + rank of v in the group, an order-keeping map."""
    pairs = []  # (slots, direction rates)
    if "exclusion" in parts:
        pairs += zip(table.ex_slots.tolist(), table.ex_rate.tolist())
    if "collision" in parts:
        pairs += ((slots, (table.bound_col,) * 2) for slots in table.col_slots.tolist())
    entries = []  # (flip mask, slots of the mask occupied where it fires, micro rate)
    for slots, rates in pairs:
        half = len(slots) // 2
        sets = (sum(1 << s for s in slots[:half]), sum(1 << s for s in slots[half:]))
        entries += [(sets[0] | sets[1], occupied, rate) for occupied, rate in zip(sets, rates)]
    if "boundary" in parts:
        for slot, birth, death in zip(table.bd_slot.tolist(), table.bd_birth,
                                      table.bd_death):
            entries += [(1 << slot, 1 << slot, death), (1 << slot, 0, birth)]
    rank = {v: r for r, v in enumerate(group or range(table.nv))}
    tables: dict = {}
    for flip, occupied, rate in entries:
        bits = _mask_bits(flip)
        if any(b % table.nv not in rank for b in bits):
            continue
        flip = sum(1 << (b // table.nv * len(rank) + rank[b % table.nv]) for b in bits)
        rates = tables.setdefault(flip, np.zeros((2,) * len(bits)))
        rates[tuple((occupied >> b) & 1 for b in bits)] += rate * scale
    return np.array(list(tables), dtype=np.int64), tuple(tables.values())


def _mask_bits(flip: int) -> list:
    """The bits that `flip` sets, top bit first: the axes of its table."""
    return [b for b in reversed(range(flip.bit_length())) if (flip >> b) & 1]


def _patterns(flip: int, rates: np.ndarray) -> list:
    """(pattern, rate) for each nonzero entry of a mask's table, the pattern
    being the state's bits under `flip` (as an integer) where it fires."""
    bits = _mask_bits(flip)
    return [(sum(int(i) << b for i, b in zip(index, bits)), float(rates[index]))
            for index in zip(*np.nonzero(rates))]


def _cuts(flip: int, n_bits: int) -> tuple:
    """(shape, cut) such that x.reshape(shape)[cut(p)] is the view of x (one
    entry per state) at the states whose bits under `flip` read pattern p.
    Each run of bits that `flip` sets or leaves is one axis (C order: top bit
    first); a set run's axis is cut to the entry that p's bits spell there
    (a slice, so the view is an array even when `flip` sets every bit)."""
    runs, low = [], n_bits  # (set, lowest bit, length), top run first
    for on, run in itertools.groupby((flip >> b) & 1 for b in reversed(range(n_bits))):
        length = len(list(run))
        low -= length
        runs.append((on, low, length))

    def cut(pattern: int) -> tuple:
        index = []
        for on, lo, r in runs:
            i = (pattern >> lo) & ((1 << r) - 1)
            index.append(slice(i, i + 1) if on else slice(None))
        return tuple(index)

    return [1 << r for _, _, r in runs], cut


def _expand(flip: int, rates: np.ndarray, n_bits: int) -> np.ndarray:
    """A mask's rate from every state (0 where it does not fire)."""
    row = np.zeros(1 << n_bits)
    shape, cut = _cuts(flip, n_bits)
    view = row.reshape(shape)
    for pattern, rate in _patterns(flip, rates):
        view[cut(pattern)] = rate
    return row


def _exit_rates(flips, tables, n_bits: int) -> np.ndarray:
    """Each state's total rate: the tables' rates added mask by mask, in table
    order, as a sum over the expanded rows (axis 0) adds them.  A mask below
    the width (CHUNK, or every state if fewer) adds its rate row over its bits,
    tiled to the width, to each width-long row of `out` (+0.0 where it does
    not fire); a wider mask adds through the views of its nonzero patterns."""
    out = np.zeros(1 << n_bits)
    width = min(CHUNK, len(out))
    rows = out.reshape(-1, width)
    for flip, rates in zip(flips.tolist(), tables):
        if flip < width:
            w = flip.bit_length()
            rows += np.tile(_expand(flip, rates, w), width >> w)
            continue
        shape, cut = _cuts(flip, n_bits)
        view = out.reshape(shape)
        for pattern, rate in _patterns(flip, rates):
            view[cut(pattern)] += rate
    return out


@dataclass
class ExactGenerator:
    """The generator L as its rate tables, with invariance and balance checks.

    `group` holds the velocities of the states' bits, `flips` (F,) the masks
    and `tables` each mask's N^2-scaled rate as a (2,)*popcount array
    indexed by the state's bits under the mask (top bit first); `exit`
    (n_states,) is their sum per state in table order, so `row_sums` (the
    same sum minus `exit`) is exactly zero.  The other methods read the
    states through one view per nonzero pattern of a mask and the view at
    pattern ^ mask, so memory stays O(states).  `matrix`, the canonical CSR
    form with int32 indices, is built on first use.
    """

    model: Model
    group: tuple
    flips: np.ndarray
    tables: tuple
    exit: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.exit)

    @property
    def n_bits(self) -> int:
        return self.n_states.bit_length() - 1

    @cached_property
    def matrix(self):
        """The CSR form; scipy.sparse is imported here, since no command reads it."""
        import scipy.sparse as sp

        # row s holds the diagonal -exit[s], then mask k's rate at s ^ flips[k]
        n, width = self.n_states, len(self.flips) + 1
        masks = np.concatenate(([0], self.flips)).astype(np.int32)
        cols = np.arange(n, dtype=np.int32)[:, None] ^ masks
        data = np.empty((n, width))
        data[:, 0] = -self.exit
        for k, (flip, rates) in enumerate(zip(self.flips.tolist(), self.tables)):
            data[:, k + 1] = _expand(flip, rates, self.n_bits)
        indptr = np.arange(0, n * width + 1, width, dtype=np.int32)
        mat = sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(n, n))
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat

    def row_sums(self) -> np.ndarray:
        out = _exit_rates(self.flips, self.tables, self.n_bits)
        out -= self.exit
        return out

    def state_bits(self) -> np.ndarray:
        states = np.arange(self.n_states, dtype=np.int64)
        return ((states[:, None] >> np.arange(self.n_bits)) & 1).astype(np.uint8)

    def product_measure(self, lam) -> np.ndarray:
        """Normalized product-measure weights mu_lam over all states: the
        Kronecker product of the 2^k single-site weights exp(lam . I(xi)) of
        the group's k velocities, multiplied from site 0 up, so states whose
        per-site conserved vectors coincide get bitwise-identical weights."""
        k = len(self.group)
        xi = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(float)
        vtilde = self.model.vset.vtilde[list(self.group)]
        site = np.exp((xi @ vtilde) @ np.asarray(lam, dtype=float))
        weights = np.ones(1)
        for _ in range(self.model.lattice.n_sites):
            weights = np.kron(site, weights)
        weights /= weights.sum()
        return weights

    def left(self, mu) -> np.ndarray:
        """mu L for a row vector mu over all states: per mask, the flux
        mu rate out of each firing pattern's view lands on the view at
        pattern ^ mask, masks added in table order; then -mu exit.  Both
        steps run in place, about CHUNK states at a time, so the temporaries
        stay small beside the three vectors over all states (`exit`, mu and
        the result)."""
        out = np.zeros(self.n_states)
        mu = np.asarray(mu)
        for flip, rates in zip(self.flips.tolist(), self.tables):
            shape, cut = _cuts(flip, self.n_bits)
            src, dst = mu.reshape(shape), out.reshape(shape)
            for pattern, rate in _patterns(flip, rates):
                into, view = dst[cut(pattern ^ flip)], src[cut(pattern)]
                # slices of the outermost axis whose inner block fits a CHUNK
                axis, inner = 0, view.size // view.shape[0]
                while inner > CHUNK:
                    axis += 1
                    inner //= view.shape[axis]
                step = max(1, CHUNK // inner)
                for lo in range(0, view.shape[axis], step):
                    part = (slice(None),) * axis + (slice(lo, lo + step),)
                    into[part] += view[part] * rate
        for lo in range(0, self.n_states, CHUNK):
            part = slice(lo, lo + CHUNK)
            out[part] -= mu[part] * self.exit[part]
        return out

    def invariance_residual(self, mu, rest=()) -> float:
        """max|mu L| relative to max_j mu_j exit_j, or exactly 0.0 when it is
        within `rounding_bound`, which rounding alone can produce.  L is the
        Kronecker sum of this generator and those of `rest`, (generator,
        measure) pairs of the other components, and mu the product measure:
        mu L = sum_c (mu_c L_c) x mu_rest and exit = sum_c exit_c.  `rest` is
        folded into its product states' measure, mu L and exit, then this
        generator's states are read in blocks of about CHUNK states of L.
        With no rest the fold is one state (measure 1, mu L 0, exit 0).  A
        NaN in a measure gives NaN, never 0."""
        weight, flux, out = np.ones(1), np.zeros(1), np.zeros(1)
        for gen, m in rest:
            flux = (np.multiply.outer(flux, m) + np.multiply.outer(weight, gen.left(m))).ravel()
            weight, out = np.multiply.outer(weight, m).ravel(), np.add.outer(out, gen.exit).ravel()
        left, residual, scale = self.left(mu), 0.0, 0.0
        step = max(1, CHUNK // len(weight))
        for lo in range(0, self.n_states, step):  # np.maximum, unlike max, keeps a NaN
            part = slice(lo, lo + step)
            residual = np.maximum(residual, max_abs(np.multiply.outer(flux, mu[part])
                                                    + np.multiply.outer(weight, left[part])))
            scale = np.maximum(scale, np.max(np.multiply.outer(weight, mu[part])
                                             * np.add.outer(out, self.exit[part])))
        if scale == 0.0:
            return 0.0
        residual = float(residual / scale)
        return 0.0 if residual <= self.rounding_bound(rest) else residual

    def rounding_bound(self, rest=()) -> float:
        """Largest `invariance_residual` that rounding can give an exactly
        invariant product measure of this component and those of `rest`:
        (F + G) gamma_n over G components with F masks in all, gamma_n =
        n u / (1 - n u), n = 2 max_c F_c + 3 n_sites + 4 + 4(G - 1), u = 2^-53.

        Each entry of mu_c L_c sums F_c + 1 terms, the F_c inflows mu_c r_k
        and the outflow mu_c exit_c, each at most max mu_c exit_c in size.
        Forming the terms (the outflow's exit sums F_c rates) and adding them
        takes 2F_c roundings; each mu_c entry takes three per site (the site
        weight's argument, its exp and the product) and one to normalize,
        each rate three (P_N = 1/2 + p/N, times N^2).  Multiplying a term by
        the other G - 1 measures and adding the G products, and multiplying
        G measures and adding G exits for mu exit, take 4(G - 1) more, and
        gamma_a (1 + gamma_b) <= gamma_(a+b).  As exits are >= 0, max mu_c
        exit_c times the others' measure is at most max mu exit.  One
        component gives (F + 1) gamma_n, n = 2F + 3 n_sites + 4.
        """
        counts = [len(self.flips)] + [len(gen.flips) for gen, _ in rest]
        n = 2 * max(counts) + 3 * self.model.lattice.n_sites + 4 + 4 * (len(counts) - 1)
        u = np.finfo(float).eps / 2
        return (sum(counts) + len(counts)) * n * u / (1 - n * u)

    def detailed_balance_audit(self, mu) -> dict:
        """Check mu(eta) rate(eta->eta') == mu(eta') rate(eta'->eta) per transition.

        `mu` is a measure over all states, as from `product_measure`.  Only
        meaningful for the collision part (build with parts=("collision",)).
        A mask's transitions from pattern p pair with its rate from p ^ mask:
        a table with n nonzero entries holds n 2^(n_bits - popcount)
        transitions, all reversible when each nonzero pattern's flipped
        pattern is nonzero too, and the imbalance is read on the two views.
        Returns the number of transitions, the worst absolute imbalance (NaN
        when a NaN in `mu` reaches a transition), and whether every
        transition has a reverse."""
        count, worst, reversible = 0, 0.0, True
        mu = np.asarray(mu)
        for flip, rates in zip(self.flips.tolist(), self.tables):
            shape, cut = _cuts(flip, self.n_bits)
            count += int(np.count_nonzero(rates)) << (self.n_bits - rates.ndim)
            fired = dict(_patterns(flip, rates))
            view = mu.reshape(shape)
            for pattern, rate in fired.items():
                back = fired.get(pattern ^ flip)
                if back is None:
                    reversible = False
                    continue
                flux = view[cut(pattern)] * rate - view[cut(pattern ^ flip)] * back
                worst = np.maximum(worst, np.max(np.abs(flux), initial=0.0))
        return {"n_transitions": count, "worst_imbalance": float(worst),
                "all_reversible": reversible}


def assemble_exact_generator(model: Model, parts=ALL_PARTS, group=None) -> ExactGenerator:
    """Build the rate tables of the generator of a tiny system on the slots
    of `group`'s velocities (default all; see `velocity_groups`).

    `parts` selects which of the boundary/collision/exclusion dynamics are
    included; use a periodic lattice in the model to replace the walls by a
    wrap.  The whole chain's state space 2^(sites x velocities) is capped at
    2^20, whatever the group.
    """
    parts = tuple(parts)
    unknown = set(parts) - set(ALL_PARTS)
    if unknown:
        raise ValueError(f"unknown generator parts {sorted(unknown)}")
    n_bits = model.lattice.n_sites * len(model.vset)
    if 2**n_bits > STATE_SPACE_CAP:
        raise SizeError(f"state space 2^{n_bits} exceeds the cap {STATE_SPACE_CAP}")
    group = tuple(range(len(model.vset)) if group is None else group)
    flips, tables = _rate_tables(model.table, parts, model.time_scale, group)
    return ExactGenerator(model=model, group=group, flips=flips, tables=tables,
                          exit=_exit_rates(flips, tables, model.lattice.n_sites * len(group)))

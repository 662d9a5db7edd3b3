"""Exact generators of tiny systems, held as one rate row per flip mask.

States are integers whose bit `site * nv + v` holds eta(x, v), the slot index
of the simulator's event catalog `Model.table`, which the generator is built
from.  Every event flips a fixed bit mask, so the generator is a sum of masked
XOR permutations: L[s, s ^ flips[k]] = rates[k, s] (N^2-scaled) and
L[s, s] = -exit[s] = -sum_k rates[k, s].  A catalog entry fires from the
states whose bits under its mask read one pattern (its source slots full,
its targets empty).  With a rate row seen as a (2,)*n_bits array, one axis
per bit, those states are the basic-index view that cuts each masked axis
to the pattern's bit, so each entry's rate is added through a view, without
a pass over the states where it does not fire.  mu L (`left`) is one pass
per mask, read through a view that reverses the mask's bits; the CSR
`matrix` is built only when asked for.  Intended for verification:
invariance of homogeneous product measures under periodic exclusion, and
detailed balance of the collision dynamics with respect to the single-site
product weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import Model, RateTable
from .errors import SizeError

STATE_SPACE_CAP = 2**20
ALL_PARTS = ("boundary", "collision", "exclusion")


def _rate_rows(table: RateTable, parts, n_bits: int, scale: float) -> tuple:
    """(flips, rates): the flip masks of the catalog entries in `parts`, in
    the catalog order of first appearance, and each mask's N^2-scaled rate
    from every state (0 where nothing fires).  Entries sharing a mask (both
    directions of a hop; two directions to one site on a ring of two) are
    each scaled, then added in catalog order."""
    entries = []  # (flip mask, slots of the mask occupied where it fires, micro rate)
    if "exclusion" in parts:
        for s, t, pn in zip(table.ex_src.tolist(), table.ex_tgt.tolist(),
                            table.ex_pn.tolist()):
            entries.append(((1 << s) | (1 << t), 1 << s, pn))
    if "collision" in parts:
        for a, b, c, d in table.col_slots.tolist():
            entries.append(((1 << a) | (1 << b) | (1 << c) | (1 << d),
                            (1 << a) | (1 << b), 1.0))
    if "boundary" in parts:
        for slot, birth, death in zip(table.bd_slot.tolist(), table.bd_birth,
                                      table.bd_death):
            entries += [(1 << slot, 1 << slot, death), (1 << slot, 0, birth)]
    flips = list(dict.fromkeys(flip for flip, _, _ in entries))
    rates = np.zeros((len(flips), 1 << n_bits))
    for flip, occupied, rate in entries:
        view = _fired(rates[flips.index(flip)], flip, occupied, n_bits)
        view += rate * scale
    return np.array(flips, dtype=np.int64), rates


def _fired(row: np.ndarray, flip: int, occupied: int, n_bits: int) -> np.ndarray:
    """The view of `row` (one entry per state) at the states whose bits
    under `flip` equal `occupied`: `row` as a (2,)*n_bits array (C order: top
    bit first) with the axis of each bit of `flip` cut to that bit of
    `occupied`."""
    index = []
    for b in reversed(range(n_bits)):
        bit = (occupied >> b) & 1
        index.append(slice(bit, bit + 1) if (flip >> b) & 1 else slice(None))
    return row.reshape((2,) * n_bits)[tuple(index)]


def _xor_view(flip: int, n_bits: int) -> tuple:
    """(shape, index) such that x.reshape(shape)[index] is a view reading
    x[j ^ flip] where x.reshape(shape) holds x[j].  Each run of bits that
    `flip` sets or leaves is one axis (C order: top bit first); reversing an
    axis of 2^r entries maps i to i ^ (2^r - 1)."""
    runs = [(on, len(list(run))) for on, run in itertools.groupby(
        (flip >> b) & 1 for b in reversed(range(n_bits)))]
    return ([1 << r for _, r in runs],
            tuple(slice(None, None, -1) if on else slice(None) for on, _ in runs))


@dataclass
class ExactGenerator:
    """The generator L as its rate table, with invariance and balance checks.

    `flips` (F,) holds the masks, `rates` (F, n_states) each mask's rate from
    each state, and `exit` their sum in row order, so `row_sums` (the same sum
    minus `exit`) is exactly zero.  `matrix`, the canonical CSR form with int32
    indices, is built on first use.
    """

    model: Model
    parts: tuple
    flips: np.ndarray
    rates: np.ndarray
    exit: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.exit)

    @cached_property
    def matrix(self):
        """The CSR form; scipy.sparse is imported here, since no command reads it."""
        import scipy.sparse as sp

        # row s holds the diagonal -exit[s], then rates[k, s] at s ^ flips[k]
        n, width = self.n_states, len(self.flips) + 1
        masks = np.concatenate(([0], self.flips)).astype(np.int32)
        cols = np.arange(n, dtype=np.int32)[:, None] ^ masks
        data = np.column_stack((-self.exit, self.rates.T))
        indptr = np.arange(0, n * width + 1, width, dtype=np.int32)
        mat = sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(n, n))
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat

    def row_sums(self) -> np.ndarray:
        return self.rates.sum(axis=0) - self.exit

    def state_bits(self) -> np.ndarray:
        n_bits = self.model.lattice.n_sites * len(self.model.vset)
        states = np.arange(self.n_states, dtype=np.int64)
        return ((states[:, None] >> np.arange(n_bits)) & 1).astype(np.uint8)

    def product_measure(self, lam) -> np.ndarray:
        """Normalized product-measure weights mu_lam over all states: the
        Kronecker product of the 2^nv single-site weights exp(lam . I(xi)),
        multiplied from site 0 up, so states whose per-site conserved vectors
        coincide get bitwise-identical weights."""
        nv = len(self.model.vset)
        xi = ((np.arange(1 << nv)[:, None] >> np.arange(nv)) & 1).astype(float)
        site = np.exp((xi @ self.model.vset.vtilde) @ np.asarray(lam, dtype=float))
        weights = np.ones(1)
        for _ in range(self.model.lattice.n_sites):
            weights = np.kron(site, weights)
        return weights / weights.sum()

    def left(self, mu) -> np.ndarray:
        """mu L for a row vector mu over all states: per mask the flux
        mu rates[k] read at j ^ flips[k], added in table order, then -mu exit."""
        out = np.zeros(self.n_states)
        n_bits = self.n_states.bit_length() - 1
        for flip, rate in zip(self.flips.tolist(), self.rates):
            shape, index = _xor_view(flip, n_bits)
            view = out.reshape(shape)
            view += (mu * rate).reshape(shape)[index]
        return out - mu * self.exit

    def invariance_residual(self, mu) -> float:
        """max|mu L| relative to max_j mu_j exit_j for a measure mu over all
        states (see product_measure), or exactly 0.0 when it is within
        `rounding_bound`, which rounding alone can produce."""
        scale = float(np.max(mu * self.exit, initial=0.0))
        if scale == 0.0:
            return 0.0
        residual = float(np.max(np.abs(self.left(mu)))) / scale
        return 0.0 if residual <= self.rounding_bound else residual

    @property
    def rounding_bound(self) -> float:
        """Largest `invariance_residual` that rounding can give an exactly
        invariant product measure: (F + 1) gamma_n, gamma_n = n u / (1 - n u).

        Each entry of mu L sums F + 1 terms, the F inflows mu rates[k] and the
        outflow mu exit, each at most max mu exit in size.  Forming the terms
        (the outflow's exit sums F rates) and adding them takes 2F roundings;
        each mu entry takes three per site (the site weight's argument, its
        exp and the product) and one to normalize, each rate three (P_N =
        1/2 + p/N, times N^2): n = 2F + 3 n_sites + 4, with u = 2^-53.
        """
        n = 2 * len(self.flips) + 3 * self.model.lattice.n_sites + 4
        u = np.finfo(float).eps / 2
        return (len(self.flips) + 1) * n * u / (1 - n * u)

    def detailed_balance_audit(self, mu) -> dict:
        """Check mu(eta) rate(eta->eta') == mu(eta') rate(eta'->eta) per transition.

        `mu` is a measure over all states, as from `product_measure`.  Only
        meaningful for the collision part (build with parts=("collision",)).
        Each transition s -> s ^ flips[k] pairs with rates[k, s ^ flips[k]].
        Returns the number of transitions, the worst absolute imbalance, and
        whether every transition has a reverse."""
        n_bits = self.n_states.bit_length() - 1
        count, worst, reversible = 0, 0.0, True
        for flip, rate in zip(self.flips.tolist(), self.rates):
            shape, index = _xor_view(flip, n_bits)
            fwd = rate.reshape(shape)
            fires = fwd != 0
            paired = fires & fires[index]
            flux = mu.reshape(shape) * fwd
            count += int(np.count_nonzero(fires))
            reversible = reversible and bool(np.array_equal(fires, paired))
            worst = max(worst, float(np.max(np.abs(flux - flux[index])[paired],
                                            initial=0.0)))
        return {"n_transitions": count, "worst_imbalance": worst,
                "all_reversible": reversible}


def assemble_exact_generator(model: Model, parts=ALL_PARTS) -> ExactGenerator:
    """Build the rate table of the full generator of a tiny system.

    `parts` selects which of the boundary/collision/exclusion dynamics are
    included; use a periodic lattice in the model to replace the walls by a
    wrap.  The state space 2^(sites x velocities) is capped at 2^20.
    """
    parts = tuple(parts)
    unknown = set(parts) - set(ALL_PARTS)
    if unknown:
        raise ValueError(f"unknown generator parts {sorted(unknown)}")
    n_bits = model.lattice.n_sites * len(model.vset)
    if 2**n_bits > STATE_SPACE_CAP:
        raise SizeError(f"state space 2^{n_bits} exceeds the cap {STATE_SPACE_CAP}")
    flips, rates = _rate_rows(model.table, parts, n_bits, model.time_scale)
    gen = ExactGenerator(model=model, parts=parts, flips=flips, rates=rates,
                         exit=rates.sum(axis=0))
    assert not np.any(gen.row_sums())
    return gen

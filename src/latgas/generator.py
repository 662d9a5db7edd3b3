"""Exact generator matrices for tiny systems (full state-space enumeration).

States are integers whose bit `site * nv + v` holds eta(x, v), the slot index
of the simulator's event catalog.  The generator is assembled from that
catalog, the model's `Model.table`, so the simulator and the generator share
one list of events: for each entry, a few bit operations over all 2^n_bits
states give the states where it fires, its target states and its rates.
Off-diagonal entries are N^2 x (sum of rates of all events mapping one state
to another), and a diagonal makes every row sum to zero.  Intended for
verification: invariance of homogeneous product measures under periodic
exclusion, and detailed balance of the collision dynamics with respect to the
single-site product weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dynamics import Model, RateTable
from .errors import SizeError

STATE_SPACE_CAP = 2**20
ALL_PARTS = ("boundary", "collision", "exclusion")


def _firings(table: RateTable, parts, n_bits: int) -> tuple:
    """(state, state', micro_rate) arrays of every catalog entry in `parts`.

    Each entry contributes one triple per state where it fires, in state
    order; entries follow the catalog order.  Two entries mapping the same
    state to the same state' (a hop on a ring of two sites, say) stay separate
    triples and are summed at assembly.
    """
    states = np.arange(1 << n_bits, dtype=np.int64)
    occ = [((states >> k) & 1).astype(bool) for k in range(n_bits)]
    rows, cols, vals = [], [], []

    def fire(mask, flip, rate):
        src = states[mask]
        rows.append(src)
        cols.append(src ^ flip)
        vals.append(np.full(len(src), rate))

    if "exclusion" in parts:
        for s, t, pn in zip(table.ex_src.tolist(), table.ex_tgt.tolist(),
                            table.ex_pn.tolist()):
            fire(occ[s] & ~occ[t], (1 << s) | (1 << t), pn)
    if "collision" in parts:
        for a, b, c, d in table.col_slots.tolist():
            fire(occ[a] & occ[b] & ~occ[c] & ~occ[d],
                 (1 << a) | (1 << b) | (1 << c) | (1 << d), 1.0)
    if "boundary" in parts:
        for slot, birth, death in zip(table.bd_slot.tolist(), table.bd_birth,
                                      table.bd_death):
            rows.append(states)
            cols.append(states ^ (1 << slot))
            vals.append(np.where(occ[slot], death, birth))
    if not rows:
        return (), (), ()
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


@dataclass
class ExactGenerator:
    """Assembled generator with helpers for invariance and balance checks.

    `matrix` is the canonical CSR form.  `row_sums` re-evaluates each row in
    the documented order (off-diagonal entries as accumulated during
    assembly, diagonal last); since the diagonal is defined as the negated
    running sum of its row, the result is exactly zero for every row.
    """

    model: Model
    matrix: sp.csr_matrix  # includes diagonal; rows sum to zero exactly
    parts: tuple
    _off_rows: np.ndarray = None
    _off_vals: np.ndarray = None
    _diag: np.ndarray = None

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def row_sums(self) -> np.ndarray:
        # np.add.at accumulates element-by-element in array order, which is
        # exactly how the diagonal was built: the sum cancels bitwise.
        sums = np.zeros(self.n_states)
        np.add.at(sums, self._off_rows, self._off_vals)
        return sums + self._diag

    def state_bits(self) -> np.ndarray:
        n_bits = self.model.lattice.n_sites * len(self.model.vset)
        states = np.arange(self.n_states, dtype=np.int64)
        return ((states[:, None] >> np.arange(n_bits)) & 1).astype(np.uint8)

    def product_measure(self, lam) -> np.ndarray:
        """Normalized product-measure weights mu_lam over all states.

        Per-site weights use exp(lam . I(xi)), so states whose per-site
        conserved vectors coincide get bitwise-identical weights (exact for
        velocity sets whose component sums are exactly representable).
        """
        lat, vset = self.model.lattice, self.model.vset
        nv = len(vset)
        bits = self.state_bits()
        n_states = bits.shape[0]
        lam = np.asarray(lam, dtype=float)
        weights = np.ones(n_states)
        for s in range(lat.n_sites):
            xi = bits[:, s * nv:(s + 1) * nv].astype(float)
            site_I = xi @ vset.vtilde
            weights = weights * np.exp(site_I @ lam)
        return weights / weights.sum()

    def invariance_residual(self, mu) -> float:
        """sup-norm of mu^T L for a measure mu over all states (see product_measure)."""
        return float(np.max(np.abs(mu @ self.matrix)))

    def detailed_balance_audit(self, mu) -> dict:
        """Check mu(eta) rate(eta->eta') == mu(eta') rate(eta'->eta) per transition.

        `mu` is a measure over all states, as from `product_measure`.  Only
        meaningful for the collision part (build with parts=("collision",)).
        Returns the number of transitions, the worst absolute imbalance, and
        whether every reverse transition exists with the same rate.
        """
        coo = self.matrix.tocoo()
        off = coo.row != coo.col
        n = self.n_states
        # pair (i, j) has key i*n + j; sorted keys find each reverse by bisection
        keys = coo.row[off].astype(np.int64) * n + coo.col[off]
        order = np.argsort(keys)
        keys, rates = keys[order], coo.data[off][order]
        rows, cols = np.divmod(keys, n)
        back = np.minimum(np.searchsorted(keys, cols * n + rows), len(keys) - 1)
        ok = keys[back] == cols * n + rows
        imbalance = np.abs(mu[rows[ok]] * rates[ok] - mu[cols[ok]] * rates[back[ok]])
        return {
            "n_transitions": len(keys),
            "worst_imbalance": float(np.max(imbalance, initial=0.0)),
            "all_reversible": bool(np.all(ok)),
        }


def assemble_exact_generator(model: Model, parts=ALL_PARTS) -> ExactGenerator:
    """Build the full generator matrix of a tiny system.

    `parts` selects which of the boundary/collision/exclusion dynamics are
    included; use a periodic lattice in the model to replace the walls by a
    wrap.  The state space 2^(sites x velocities) is capped at 2^20.
    """
    parts = tuple(parts)
    unknown = set(parts) - set(ALL_PARTS)
    if unknown:
        raise ValueError(f"unknown generator parts {sorted(unknown)}")
    lat = model.lattice
    n_bits = lat.n_sites * len(model.vset)
    if 2**n_bits > STATE_SPACE_CAP:
        raise SizeError(
            f"state space 2^{n_bits} exceeds the cap {STATE_SPACE_CAP}"
        )
    n_states = 1 << n_bits
    rows, cols, vals = _firings(model.table, parts, n_bits)
    scale = model.time_scale
    if len(rows):
        off = sp.coo_matrix(
            (vals * scale, (rows, cols)), shape=(n_states, n_states)
        ).tocsr()
        off.sum_duplicates()
        off.sort_indices()
    else:
        off = sp.csr_matrix((n_states, n_states))
    canon = off.tocoo()
    off_rows = canon.row.astype(np.int64)
    off_vals = canon.data.copy()
    diag = np.zeros(n_states)
    np.add.at(diag, off_rows, off_vals)
    diag = -diag
    mat = (off + sp.diags(diag)).tocsr()
    gen = ExactGenerator(model=model, matrix=mat, parts=parts,
                         _off_rows=off_rows, _off_vals=off_vals, _diag=diag)
    assert not np.any(gen.row_sums())
    return gen

"""Finite symmetric velocity sets and their momentum-conserving collision table.

A velocity set is a finite family of d-vectors closed under sign flips of any
single coordinate and under coordinate permutations.  Collisions are ordered
quadruples (v, w, v', w') with v + w = v' + w'; a collision moves an incoming
pair of particles at (v, w) on one site to the outgoing slots (v', w').
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SizeError

# The largest velocity set accepted: the collision table scans nv^4
# quadruples and the hull (`thermo.ConvexDomain`) one cofactor vector per
# d-subset of the nv generators.
MAX_VELOCITIES = 16


def _symmetry_orbit(v: tuple) -> set:
    """All images of v under coordinate sign flips and permutations."""
    orbit = set()
    for perm in itertools.permutations(v):
        for signs in itertools.product((1.0, -1.0), repeat=len(v)):
            orbit.add(tuple(s * c for s, c in zip(signs, perm)))
    return orbit


@dataclass(frozen=True)
class VelocitySet:
    """An ordered, duplicate-free, reflection/permutation-invariant velocity
    set of at most MAX_VELOCITIES = 16 velocities (more raise SizeError,
    exit 2, before any work that grows with nv).

    Attributes:
        velocities: (nv, d) float array, one velocity per row.
        d: spatial dimension.
        vtilde: (nv, d+1) array with rows (1, v_1, ..., v_d), the per-particle
            contribution to the (mass, momentum) vector.
    """

    velocities: np.ndarray
    d: int = field(init=False)
    vtilde: np.ndarray = field(init=False)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if v.size == 0:
            raise ValueError("velocity set must be nonempty")
        object.__setattr__(self, "velocities", v)
        object.__setattr__(self, "d", v.shape[1])
        object.__setattr__(self, "vtilde", np.hstack([np.ones((len(v), 1)), v]))
        self._validate()

    def _validate(self):
        rows = [tuple(r) for r in self.velocities]
        if len(rows) > MAX_VELOCITIES:
            raise SizeError(
                f"velocity sets are capped at {MAX_VELOCITIES} velocities, got {len(rows)}"
            )
        if len(set(rows)) != len(rows):
            raise ValueError("duplicate velocities in set")
        members = set(rows)
        for r in rows:
            missing = _symmetry_orbit(r) - members
            if missing:
                raise ValueError(
                    f"velocity set not closed under reflections/permutations: "
                    f"orbit of {r} is missing {sorted(missing)[:4]}"
                )

    def __len__(self) -> int:
        return len(self.velocities)

    @cached_property
    def vtilde_inv(self) -> np.ndarray:
        """Inverse of the square vtilde of a set with exactly d+1 velocities."""
        return np.linalg.inv(self.vtilde)

    def max_l1_speed(self) -> float:
        """max_v sum_j |v_j|; must be <= 1 for `dynamics.jump_probabilities`."""
        return float(np.max(np.sum(np.abs(self.velocities), axis=1)))


@dataclass(frozen=True)
class Collision:
    """Ordered quadruple of velocity indices (v, w, v', w') with v+w = v'+w'."""

    v: int
    w: int
    vp: int
    wp: int


class CollisionSet:
    """The momentum-conserving collisions of a velocity set that can fire.

    `active` holds every (v, w, v', w') in V^4 with v + w = v' + w' exactly
    that can ever fire under the occupancy rate
    eta(v) eta(w) (1-eta(v')) (1-eta(w')): those with {v, w} disjoint from
    {v', w'}.  Construction rejects velocity sets containing a fireable
    quadruple with a repeated incoming or outgoing slot, since the slot swap
    would not conserve mass for such sets.
    """

    def __init__(self, vset: VelocitySet):
        self.vset = vset
        vel = vset.velocities
        nv = len(vset)
        active = []
        for i, j, k, l in itertools.product(range(nv), repeat=4):
            if not np.array_equal(vel[i] + vel[j], vel[k] + vel[l]):
                continue
            q = Collision(i, j, k, l)
            if {i, j}.isdisjoint({k, l}):
                if i == j or k == l:
                    raise ValueError(
                        "velocity set admits a mass-non-conserving collision "
                        f"quadruple {q}; repeated slots in a fireable collision "
                        "are not supported"
                    )
                active.append(q)
        self.active = tuple(active)


def two_velocity_set(speed: float = 0.5) -> VelocitySet:
    """d=1 minimal set {+speed, -speed}; collisions are all no-ops for this set."""
    return VelocitySet(np.array([[speed], [-speed]]))

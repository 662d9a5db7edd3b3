"""Local-equilibrium thermodynamics of a single site.

A site state xi assigns 0/1 occupation to every velocity slot.  Its conserved
vector is (mass, momentum) = (sum_v xi(v), sum_v v xi(v)).  The one-parameter
family of product measures with chemical potential lam = (lam_0, ..., lam_d)
has per-velocity occupation probability

    theta_v(lam) = logistic(lam_0 + lam . v),

and the map lam -> (rho, p) = (sum theta_v, sum v theta_v) is a diffeomorphism
onto the open convex hull U of the single-site conserved vectors.  This module
evaluates theta_v(lam) and inverts the map.  The conserved vector w = theta
vtilde is linear in theta, so a set of exactly d+1 velocities (square vtilde)
inverts in closed form: theta = w vtilde^-1 and lam = logit(theta) vtilde^-T,
and `exact_theta` gives theta alone, for callers that never read lam.
Larger sets are inverted by a damped Newton iteration (exact Jacobian:
sum_v chi(theta_v) vtilde vtilde^T with chi(r) = r(1-r), positive definite on
U), to sup-norm residual NEWTON_TOL within NEWTON_MAX_ITER steps.  The module
also tests membership of U through its closed-form zonotope facets and samples
configurations from per-site densities.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .velocities import VelocitySet

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


def _logistic(z):
    # Stable form: exponentiate -|z| only, 1 / (1 + e^-z) for z >= 0 and
    # e^z / (1 + e^z) below.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def theta_all(lam, vset: VelocitySet) -> np.ndarray:
    """Per-velocity occupation probabilities theta_v(lam).

    lam may be a single (d+1,) vector or a batch (..., d+1); returns (..., nv).
    """
    return _logistic(np.asarray(lam, dtype=float) @ vset.vtilde.T)


class ConvexDomain:
    """The open hull U of the single-site conserved vectors {I(xi)}.

    U is the image of the cube {0,1}^V under xi -> xi @ vtilde, that is the
    zonotope sum_v [0, vtilde_v], and its facets have a closed form.  Every
    facet plane of a zonotope in R^(d+1) is spanned by d linearly independent
    generators; its unit normal n is their generalized cross product (the
    vector of signed d x d cofactors), and the zonotope lies between the planes
    n.x = sum_v min(0, n.vtilde_v) and n.x = sum_v max(0, n.vtilde_v).  Each
    d-subset of generators of rank d gives such a pair, parallel normals
    counted once.  Membership tests use these facet inequalities; `margin` is
    the signed Euclidean distance to the nearest facet plane (positive
    inside), and `worst` the smallest margin of a batch, the one reduction
    that every hull check reads.  The centre is (1/2) sum_v vtilde_v.  A
    velocity set whose conserved vectors have rank below d+1 has no interior
    and is rejected.
    The facet construction takes one cofactor vector per d-subset of the nv
    generators, bounded by the cap on velocity sets
    (`velocities.MAX_VELOCITIES`).
    """

    def __init__(self, vset: VelocitySet):
        nv = len(vset)
        self.vset = vset
        vt = vset.vtilde
        if np.linalg.matrix_rank(vt) <= vset.d:
            raise ConfigError(
                "conserved vectors are not full-dimensional; the density/momentum "
                "parametrization is degenerate for this velocity set"
            )
        gens = vt[np.array(list(itertools.combinations(range(nv), vset.d)))]
        cof = np.stack([(-1) ** i * np.linalg.det(np.delete(gens, i, axis=2))
                        for i in range(vset.d + 1)], axis=-1)
        size = np.linalg.norm(cof, axis=1)
        rank_d = size > 1e-10 * np.prod(np.linalg.norm(gens, axis=2), axis=1)
        n = cof[rank_d] / size[rank_d, None]
        n = n[~np.triu(np.abs(n @ n.T) > 1.0 - 1e-12, 1).any(axis=0)]
        proj = n @ vt.T
        # Facet inequalities normal . x + offset <= 0 with unit normals.
        self.normals = np.vstack([n, -n])
        self.offsets = np.concatenate([-np.maximum(proj, 0.0).sum(axis=1),
                                       np.minimum(proj, 0.0).sum(axis=1)])
        self.centroid = 0.5 * vt.sum(axis=0)

    def margin(self, x) -> np.ndarray:
        """Signed distance to the hull boundary; positive strictly inside."""
        return -np.max(np.asarray(x, dtype=float) @ self.normals.T + self.offsets, axis=-1)

    def worst(self, x) -> float:
        """The smallest margin of the points x (..., d+1), one max over points
        and facets; NaN when a point is, so `not worst > floor` rejects it."""
        x = np.asarray(x, dtype=float)
        return -float((x.reshape(-1, x.shape[-1]) @ self.normals.T + self.offsets).max())

    def project_inward(self, x, min_margin: float = 0.0) -> np.ndarray:
        """Pull points toward the centroid until margin >= min_margin.

        Intended for rounding-scale excursions only; the pull distance is of
        the order of the margin deficit.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x).copy()
        for _ in range(60):
            m = self.margin(x)
            bad = m < min_margin
            if not np.any(bad):
                return x[0] if single else x
            t = np.minimum(1.0, 2.0 * (min_margin - m[:, None]) + 1e-15)
            x = np.where(bad[:, None], x + t * (self.centroid - x), x)
        raise DomainError("could not project points into the hull interior")


_DOMAIN_CACHE: dict = {}


def domain_of(vset: VelocitySet) -> ConvexDomain:
    key = vset.velocities.tobytes()
    dom = _DOMAIN_CACHE.get(key)
    if dom is None:
        dom = _DOMAIN_CACHE[key] = ConvexDomain(vset)
    return dom


def invert_conserved(targets, vset: VelocitySet, lam0=None,
                     check_domain: bool = True) -> np.ndarray:
    """Batched inverse lam(rho, p) of the (rho, p) parametrization.

    targets: (..., d+1) interior points.  For a set of d+1 velocities the
    inverse is exact (see the module docstring) and lam0 is unused.
    Otherwise damped Newton runs to NEWTON_TOL, warm-started from lam0 (same
    shape) when given; steps are halved while the sup-norm residual of a
    point increases.  Raises DomainError for non-interior targets (when
    check_domain), and ConvergenceError when Newton fails (with the worst
    residual) or the exact densities leave (0, 1).
    """
    return local_equilibrium(targets, vset, lam0, check_domain)[0]


def local_equilibrium(targets, vset: VelocitySet, lam0=None,
                      check_domain: bool = True) -> tuple:
    """(lam, theta_v(lam)) at the targets, shaped (..., d+1) and (..., nv).

    The inversion of `invert_conserved`; theta is the inversion's own (exact,
    or from the last Newton evaluation), so callers that need both do not
    recompute it from lam.
    """
    targets = np.asarray(targets, dtype=float)
    t = targets.reshape(-1, targets.shape[-1])
    if check_domain:
        worst = domain_of(vset).worst(t)
        if not worst > 0:
            raise DomainError(
                f"target outside the open admissible region (worst margin {worst:.3e})"
            )
    if len(vset) == vset.d + 1:
        th = exact_theta(t, vset)
        lam = (np.log(th) - np.log1p(-th)) @ vset.vtilde_inv.T
    else:
        lam, th = _invert_newton(t, vset, lam0)
    return lam.reshape(targets.shape), th.reshape(targets.shape[:-1] + (len(vset),))


def exact_theta(targets: np.ndarray, vset: VelocitySet) -> np.ndarray:
    """theta = w vtilde^-1 at targets (..., d+1), for a set of d+1 velocities.

    The exact inversion without lam, taken as one (n, d+1) batch; raises
    ConvergenceError unless every density lies in (0, 1).
    """
    th = targets.reshape(-1, vset.d + 1) @ vset.vtilde_inv
    if not ((th > 0.0) & (th < 1.0)).all():
        raise ConvergenceError(
            "conserved target outside the open hull: exact densities span "
            f"[{float(np.min(th)):.3e}, {float(np.max(th)):.3e}], not inside (0, 1)"
        )
    return th.reshape(targets.shape)


def _invert_newton(t: np.ndarray, vset: VelocitySet, lam0) -> tuple:
    """Damped Newton on (n, d+1) targets; returns (lam, theta) of the last
    evaluation."""
    vt = vset.vtilde
    vv = (vt[:, :, None] * vt[:, None, :]).reshape(len(vt), -1)
    lam = np.zeros_like(t) if lam0 is None else np.array(lam0, dtype=float).reshape(t.shape)
    th = _logistic(lam @ vt.T)
    res = t - th @ vt
    rnorm = np.max(np.abs(res), axis=-1)
    for _ in range(NEWTON_MAX_ITER):
        if np.all(rnorm <= NEWTON_TOL):
            break
        w = th * (1.0 - th)
        jac = (w @ vv).reshape(-1, vt.shape[1], vt.shape[1])
        step = np.linalg.solve(jac, res[..., None])[..., 0]
        alpha = np.ones(len(t))
        for _ in range(50):
            cand = lam + alpha[:, None] * step
            th_c = _logistic(cand @ vt.T)
            res_c = t - th_c @ vt
            rn_c = np.max(np.abs(res_c), axis=-1)
            worse = rn_c > rnorm
            if not np.any(worse & (rnorm > NEWTON_TOL)):
                break
            alpha = np.where(worse, alpha * 0.5, alpha)
        lam, th, res, rnorm = cand, th_c, res_c, rn_c
    if np.any(rnorm > NEWTON_TOL):
        raise ConvergenceError(f"Newton inversion did not reach {NEWTON_TOL:.1e} "
                               f"(worst residual {float(np.max(rnorm)):.3e})")
    return lam, th


def theta_field(target, vset: VelocitySet, lam0=None, check_domain: bool = True) -> np.ndarray:
    """Per-velocity densities theta_v at the chemical potential matching target.

    Accepts batches (..., d+1) and returns (..., nv); sums against vtilde
    reproduce the target to rounding for a set of d+1 velocities (exact
    inverse) and up to the Newton tolerance otherwise.
    """
    return local_equilibrium(target, vset, lam0, check_domain)[1]


def sample_profile_state(theta, rng) -> np.ndarray:
    """Sample eta(x, v) ~ independent Bernoulli(theta[x, v]), theta of shape
    (n_sites, nv): e.g. `theta_field` of per-site targets, inverted once and
    shared by every replica of one profile.  Returns uint8 of that shape.
    """
    u = rng.random(theta.shape)
    return (u < theta).astype(np.uint8)

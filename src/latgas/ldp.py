"""Trajectory cost functional over a test basis, and the F06 identity.

For a trajectory w and a vector test function G vanishing on the walls, the
cost building block is

    j_hat(w, G) = l(G) - |G|_pi^2,

with |G|_pi^2 = sum_v int int chi(theta_v(w)) sum_i (vtilde . d_i G)^2 and
l(G) the weak-form residual of w against G.  l is linear in G, so the
trajectory fixes its weights once: `QuadratureContext` stores them, and l(G)
is a few inner products of G with those weights.  The trajectory cost is the
supremum of j_hat over G; over the span of a finite basis this is a concave
quadratic maximization

    sup_c  l.c - c.Q c  =  (1/4) l.Q^+ l,

with l the per-mode residuals and Q the pi-inner-product Gram matrix
(symmetric positive semidefinite; regularized by eps*I before solving, with
eps = DEFAULT_REG_SCALE x trace(Q) / m for m modes).  On a solution of the
plain system the estimate vanishes; on a solution of the controlled system
with control H it equals (1/4) |H|_pi^2, and `verify_f06` reads both sides
from one context.  A basis is a list of `SeparableField` modes, and its
prefix basis[:m] is the nested basis of size m: its Gram matrix is Q[:m, :m],
so nested estimates are `RateReport.leading`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConditioningError, ConfigError
from .grid import Grid
from .hydro import (
    BoundaryData,
    Factor,
    FieldTrajectory,
    QuadratureContext,
    SeparableField,
    solve_controlled,
)
from .velocities import VelocitySet

DEFAULT_REG_SCALE = 1e-10


# --- vector test basis ------------------------------------------------------------

def time_factor(token, horizon: float) -> Factor:
    """The time factor a time-mode token names: const | linear | cos:N | sin:N,
    N >= 1 periods over the horizon."""
    token = str(token)
    if token == "const":
        return Factor("one")
    if token == "linear":
        return Factor("linear", horizon)
    kind, _, num = token.partition(":")
    if kind in ("cos", "sin") and num.isdigit() and int(num) >= 1:
        return Factor(kind, 2 * np.pi * int(num) / horizon)
    raise ConfigError(f"bad time mode {token!r} (use const|linear|cos:N|sin:N)")


def default_basis(d: int, time_factors, n_space: int, n_transverse: int = 0) -> list:
    """Separable one-term modes: components x sine(k pi u1) x time factors.

    Ordered by wall wavenumber first, so the leading 8 (for d=1 and four time
    factors) span the k=1 block, the leading 16 the k<=2 blocks, and so on.
    Transverse Fourier factors are added for d > 1 when n_transverse > 0.
    Distinct factors give linearly independent modes.
    """
    transverse = [Factor("one")]
    for m in range(1, n_transverse + 1):
        transverse += [Factor("cos", 2 * np.pi * m), Factor("sin", 2 * np.pi * m)]
    return [SeparableField(d + 1, [(comp, 1.0, tf, [Factor("sin", np.pi * k), *tr])])
            for k in range(1, n_space + 1)
            for tf in time_factors
            for tr in itertools.product(transverse, repeat=d - 1)
            for comp in range(d + 1)]


# --- cost functional ---------------------------------------------------------------

def quadratic_sup(linear: np.ndarray, quad: np.ndarray):
    """Maximize l.c - c.Q c over c for symmetric PSD Q (regularized).

    Returns (value, c_star, regularization).  Raises ConditioningError when
    the regularized matrix is not positive definite.
    """
    linear = np.asarray(linear, dtype=float)
    quad = np.asarray(quad, dtype=float)
    dim = len(linear)
    reg = DEFAULT_REG_SCALE * max(np.trace(quad), np.finfo(float).tiny) / dim
    try:
        chol = np.linalg.cholesky(quad + reg * np.eye(dim))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"quadratic form numerically singular beyond regularization {reg:.3e}"
        ) from exc
    sol = np.linalg.solve(chol.T, np.linalg.solve(chol, linear))
    c_star = 0.5 * sol
    value = max(0.25 * float(linear @ sol), 0.0)
    return value, c_star, reg


@dataclass
class RateReport:
    """Result of a basis-restricted cost maximization."""

    estimate: float
    coefficients: np.ndarray
    linear_term: np.ndarray
    quad_matrix: np.ndarray
    basis_size: int
    regularization: float
    quadrature: dict = dc_field(default_factory=dict)

    @classmethod
    def solve(cls, linear, quad, quadrature: dict) -> "RateReport":
        """Report of the maximization of l.c - c.Q c (see `quadratic_sup`)."""
        value, c_star, reg = quadratic_sup(linear, quad)
        return cls(estimate=value, coefficients=c_star, linear_term=linear,
                   quad_matrix=quad, basis_size=len(linear), regularization=reg,
                   quadrature=dict(quadrature))

    def leading(self, m: int) -> "RateReport":
        """Report of the first m modes: the solve on the leading block of Q."""
        if not 1 <= m <= self.basis_size:
            raise ValueError(f"leading size {m} out of range 1..{self.basis_size}")
        return RateReport.solve(self.linear_term[:m], self.quad_matrix[:m, :m],
                                self.quadrature)

    def lines(self):
        """The lines of the `rate-report` (`config.write_report`)."""
        def floats(x):  # Python floats format faster than numpy scalars
            return " ".join(map("{:.17g}".format, x.tolist()))

        yield f"estimate: {self.estimate:.17g}"
        yield f"basis_size: {self.basis_size}"
        yield f"regularization: {self.regularization:.17g}"
        for key, val in sorted(self.quadrature.items()):
            yield f"quadrature.{key}: {val}"
        yield "linear_term: " + floats(self.linear_term)
        yield "coefficients: " + floats(self.coefficients)
        yield "quad_matrix:"
        for row in self.quad_matrix:
            yield "  " + floats(row)



def rate_estimate(traj: FieldTrajectory, basis: list, vset: VelocitySet) -> RateReport:
    """Basis-restricted supremum of the cost functional over span{G_m}."""
    return _rate_report(QuadratureContext(traj, vset), basis)


def _rate_report(ctx, basis: list) -> RateReport:
    """`rate_estimate` on an already built context."""
    linear = np.empty(len(basis))
    quad = ctx.gram(basis, linear)
    quadrature = {"frames": len(ctx.dt_f), "m1": ctx.grid.m1, "mt": ctx.grid.mt,
                  "horizon": float(ctx.t_ends[-1])}
    return RateReport.solve(linear, quad, quadrature)


# --- chi-weighted control norm ------------------------------------------------------

def h_norm(traj: FieldTrajectory, control, vset: VelocitySet) -> float:
    """Squared control norm |H|_pi^2 along the trajectory (quadratic in H)."""
    return QuadratureContext(traj, vset).pi_norm_sq(control)


# --- controlled-equation identity ---------------------------------------------------

@dataclass
class F06Report:
    lhs: float          # basis-restricted cost of the controlled trajectory
    rhs: float          # quarter of the squared control norm along it
    rel_gap: float
    rate: RateReport


def verify_f06(gamma, boundary: BoundaryData, control, grid: Grid,
               vset: VelocitySet, horizon: float, basis: list,
               dt=None, n_frames: int = 256) -> F06Report:
    """Cross-check cost(controlled solution) against |H|_pi^2 / 4."""
    # both sides read only the context, so the trajectory's frames are not kept
    ctx = QuadratureContext(
        solve_controlled(gamma, boundary, horizon, grid, vset, control=control,
                         dt=dt, n_frames=n_frames), vset)
    report = _rate_report(ctx, basis)
    rhs = 0.25 * ctx.pi_norm_sq(control)
    gap = abs(report.estimate - rhs) / max(abs(rhs), 1e-300)
    return F06Report(lhs=report.estimate, rhs=rhs, rel_gap=gap, rate=report)

"""Trajectory cost functional and related variational quantities.

For a trajectory w and a vector test function G vanishing on the walls, the
cost building block is

    j_hat(w, G) = linear_residual(w, G) - |G|_pi^2,

with |G|_pi^2 = sum_v int int chi(theta_v(w)) sum_i (vtilde . d_i G)^2.  The
trajectory cost is the supremum of j_hat over G; over the span of a finite
basis this is a concave quadratic maximization

    sup_c  l.c - c.Q c  =  (1/4) l.Q^+ l,

with l the per-mode residuals and Q the pi-inner-product Gram matrix
(symmetric positive semidefinite; regularized by eps*I before solving).  On a
solution of the plain system the estimate vanishes; on a solution of the
controlled system with control H it equals (1/4) |H|_pi^2.  A prefix basis of
size m has Gram matrix Q[:m, :m], so nested estimates are `RateReport.leading`.

The field energy in variational form is, per component k and direction i,
sup over compactly supported scalar g of 2 int <p_k, d_i g> - |g|_2^2, a
quadratic maximization with the plain L2 Gram; summed over (i, k) it matches
the gradient-quadrature energy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .errors import ConditioningError
from .grid import Grid
from .hydro import (
    AxisFactor,
    BoundaryData,
    FieldTrajectory,
    QuadratureContext,
    SeparableMode,
    TimeFactor,
    solve_controlled,
)
from .velocities import VelocitySet

DEFAULT_REG_SCALE = 1e-10


# --- vector test basis ------------------------------------------------------------

class TestBasis:
    """Ordered family of separable vector modes vanishing on the walls.

    Modes are grouped by wall-axis wavenumber so that prefixes of the family
    are natural nested bases; `subset(m)` returns the first m modes as a new
    basis.  Mode signatures must be pairwise distinct, which together with
    separable-factor orthogonality makes the family linearly independent.
    """

    __test__ = False  # a library class, not a pytest test class

    def __init__(self, modes, signatures=None):
        if not modes:
            raise ValueError("empty basis")
        self.modes = list(modes)
        self.signatures = list(signatures) if signatures is not None else None
        if self.signatures is not None:
            if len(set(self.signatures)) != len(self.signatures):
                raise ValueError("basis modes are not pairwise distinct")

    def __len__(self) -> int:
        return len(self.modes)

    def subset(self, m: int) -> "TestBasis":
        if not 1 <= m <= len(self.modes):
            raise ValueError(f"subset size {m} out of range")
        sigs = self.signatures[:m] if self.signatures is not None else None
        return TestBasis(self.modes[:m], sigs)


def default_basis(d: int, horizon: float, n_space: int = 4,
                  time_kinds=(("const", 0), ("linear", 0), ("cos", 1), ("sin", 1)),
                  n_transverse: int = 0) -> TestBasis:
    """Separable modes: components x sine(k pi u1) x time factors.

    Ordered by wall wavenumber first, so the leading 8 (for d=1 and four time
    kinds) span the k=1 block, the leading 16 the k<=2 blocks, and so on.
    Transverse Fourier factors are added for d > 1 when n_transverse > 0.
    """
    ncomp = d + 1
    tfactors = [(kind, n, TimeFactor(kind, horizon, n)) for kind, n in time_kinds]
    tr_factors = [("one", 0)]
    for m in range(1, n_transverse + 1):
        tr_factors += [("cos", m), ("sin", m)]
    modes, sigs = [], []
    for k in range(1, n_space + 1):
        for kind, n, tf in tfactors:
            for tr in itertools.product(tr_factors, repeat=d - 1):
                for comp in range(ncomp):
                    axes = [AxisFactor("sine", k)] + [AxisFactor(kd, m) for kd, m in tr]
                    modes.append(SeparableMode(ncomp, comp, tf, axes))
                    sigs.append((k, kind, n, tr, comp))
    return TestBasis(modes, sigs)


# --- cost functional ---------------------------------------------------------------

def j_hat(traj: FieldTrajectory, gamma, G, vset: VelocitySet) -> float:
    """Cost integrand for one test function: linear residual minus |G|_pi^2."""
    ctx = QuadratureContext(traj, vset, gamma=gamma)
    return ctx.linear_residual(G) - ctx.pi_norm_sq(G)


def quadratic_sup(linear: np.ndarray, quad: np.ndarray,
                  reg_scale: float = DEFAULT_REG_SCALE):
    """Maximize l.c - c.Q c over c for symmetric PSD Q (regularized).

    Returns (value, c_star, regularization).  Raises ConditioningError when
    the regularized matrix is not positive definite.
    """
    linear = np.asarray(linear, dtype=float)
    quad = np.asarray(quad, dtype=float)
    dim = len(linear)
    reg = reg_scale * max(np.trace(quad), np.finfo(float).tiny) / dim
    try:
        chol = scipy.linalg.cho_factor(quad + reg * np.eye(dim))
        sol = scipy.linalg.cho_solve(chol, linear)
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"quadratic form numerically singular beyond regularization {reg:.3e}"
        ) from exc
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
    reg_scale: float = DEFAULT_REG_SCALE

    @classmethod
    def solve(cls, linear, quad, quadrature: dict, reg_scale: float) -> "RateReport":
        """Report of the maximization of l.c - c.Q c (see `quadratic_sup`)."""
        value, c_star, reg = quadratic_sup(linear, quad, reg_scale)
        return cls(estimate=value, coefficients=c_star, linear_term=linear,
                   quad_matrix=quad, basis_size=len(linear), regularization=reg,
                   quadrature=dict(quadrature), reg_scale=reg_scale)

    def leading(self, m: int) -> "RateReport":
        """Report of the first m modes: the solve on the leading block of Q."""
        if not 1 <= m <= self.basis_size:
            raise ValueError(f"leading size {m} out of range 1..{self.basis_size}")
        return RateReport.solve(self.linear_term[:m], self.quad_matrix[:m, :m],
                                self.quadrature, self.reg_scale)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("format: latgas-rate-report v1\n")
            fh.write(f"estimate: {self.estimate:.17g}\n")
            fh.write(f"basis_size: {self.basis_size}\n")
            fh.write(f"regularization: {self.regularization:.17g}\n")
            for key, val in sorted(self.quadrature.items()):
                fh.write(f"quadrature.{key}: {val}\n")
            fh.write("linear_term: " + " ".join(f"{x:.17g}" for x in self.linear_term) + "\n")
            fh.write("coefficients: " + " ".join(f"{x:.17g}" for x in self.coefficients) + "\n")
            fh.write("quad_matrix:\n")
            for row in self.quad_matrix:
                fh.write("  " + " ".join(f"{x:.17g}" for x in row) + "\n")

    @classmethod
    def load(cls, path) -> "RateReport":
        scalars, quadrature, arrays, rows = {}, {}, {}, []
        in_matrix = False
        with open(path) as fh:
            for line in fh:
                if in_matrix:
                    rows.append([float(x) for x in line.split()])
                    continue
                key, _, rest = line.partition(":")
                key, rest = key.strip(), rest.strip()
                if key == "quad_matrix":
                    in_matrix = True
                elif key in ("linear_term", "coefficients"):
                    arrays[key] = np.array([float(x) for x in rest.split()])
                elif key.startswith("quadrature."):
                    quadrature[key.split(".", 1)[1]] = rest
                elif key != "format":
                    scalars[key] = rest
        return cls(
            estimate=float(scalars["estimate"]),
            coefficients=arrays["coefficients"],
            linear_term=arrays["linear_term"],
            quad_matrix=np.array(rows),
            basis_size=int(scalars["basis_size"]),
            regularization=float(scalars["regularization"]),
            quadrature=quadrature,
        )


def rate_estimate(traj: FieldTrajectory, gamma, basis: TestBasis,
                  vset: VelocitySet, reg_scale: float = DEFAULT_REG_SCALE) -> RateReport:
    """Basis-restricted supremum of the cost functional over span{G_m}."""
    ctx = QuadratureContext(traj, vset, gamma=gamma)
    linear = np.array([ctx.linear_residual(G) for G in basis.modes])
    quadrature = {"frames": len(traj.times) - 1, "m1": traj.grid.m1,
                  "mt": traj.grid.mt, "horizon": traj.horizon}
    return RateReport.solve(linear, ctx.gram(basis.modes), quadrature, reg_scale)


# --- chi-weighted control norm ------------------------------------------------------

def h_norm(traj: FieldTrajectory, control, vset: VelocitySet) -> float:
    """Squared control norm |H|_pi^2 along the trajectory (quadratic in H)."""
    ctx = QuadratureContext(traj, vset)
    return ctx.pi_norm_sq(control)


# --- energy in variational form ------------------------------------------------------

class EnergyBasis:
    """Separable scalar modes sin(a pi t / T) sin(b pi u1) (x transverse trig).

    All factors vanish on the respective boundaries and are exactly orthogonal
    under the midpoint-time x trapezoid-space quadrature, so the Gram matrix
    of the product family is diagonal.
    """

    def __init__(self, n_time: int, n_space: int, n_transverse: int = 0):
        if n_time < 1 or n_space < 1:
            raise ValueError("need at least one time and one space factor")
        self.n_time = int(n_time)
        self.n_space = int(n_space)
        self.n_transverse = int(n_transverse)

    def time_matrix(self, t_mid: np.ndarray, horizon: float) -> np.ndarray:
        a = np.arange(1, self.n_time + 1)
        return np.sin(np.pi * np.outer(t_mid, a) / horizon)  # (F, n_time)

    def space_factors(self, grid: Grid):
        """Per-axis factor value/derivative matrices: lists over axes."""
        vals, ders = [], []
        u1 = grid.axis(0)
        b = np.arange(1, self.n_space + 1)
        vals.append(np.sin(np.pi * np.outer(u1, b)))
        ders.append(np.pi * b[None, :] * np.cos(np.pi * np.outer(u1, b)))
        for ax in range(1, grid.d):
            u = grid.axis(ax)
            cols_v, cols_d = [np.ones_like(u)], [np.zeros_like(u)]
            for m in range(1, self.n_transverse + 1):
                w = 2 * np.pi * m
                cols_v += [np.cos(w * u), np.sin(w * u)]
                cols_d += [-w * np.sin(w * u), w * np.cos(w * u)]
            vals.append(np.stack(cols_v, axis=1))
            ders.append(np.stack(cols_d, axis=1))
        return vals, ders


def energy_variational(traj: FieldTrajectory, basis: EnergyBasis) -> float:
    """Variational energy: sum over components and directions of the
    basis-restricted supremum of 2 <p_k, d_i g> - |g|_2^2."""
    grid = traj.grid
    t_mid = 0.5 * (traj.times[:-1] + traj.times[1:])
    dt_f = np.diff(traj.times)
    w_mid = 0.5 * (traj.values[:-1] + traj.values[1:])
    w_space = grid.weights().reshape(-1)
    horizon = traj.horizon

    tm = basis.time_matrix(t_mid, horizon)               # (F, nt)
    tnorm = (dt_f[:, None] * tm * tm).sum(axis=0)        # (nt,)
    vals, ders = basis.space_factors(grid)

    ncomp = grid.d + 1
    n_nodes = grid.n_nodes
    fields = w_mid.reshape(len(t_mid), n_nodes, ncomp)

    total = 0.0
    for i in range(grid.d):
        # space matrices for the modes' i-th derivative and plain values, flattened
        mats_d = [ders[ax] if ax == i else vals[ax] for ax in range(grid.d)]
        der_flat = _tensor_columns(mats_d).reshape(n_nodes, -1)
        val_flat = _tensor_columns(vals).reshape(n_nodes, -1)
        snorm = (w_space[:, None] * val_flat * val_flat).sum(axis=0)  # (ns,)
        gram = np.outer(tnorm, snorm)  # diagonal Gram entries of the products
        for k in range(ncomp):
            # l[a, s] = sum_f dt tau_a(f) * sum_x w_x p_k(f,x) dg_s(x)
            px = np.einsum("fx,x,xs->fs", fields[:, :, k], w_space, der_flat)
            l_mat = (dt_f[:, None] * tm).T @ px          # (nt, ns)
            total += float(np.sum(l_mat**2 / gram))
    return total


def _tensor_columns(mats):
    """Column-wise tensor product of per-axis factor matrices.

    mats[ax] has shape (len(axis_ax), n_ax); the result has shape
    (*axis_lengths, prod n_ax) with columns ordered like itertools.product.
    """
    out = mats[0]
    for m in mats[1:]:
        out = np.einsum("...a,yb->...yab", out, m).reshape(
            out.shape[:-1] + (m.shape[0], out.shape[-1] * m.shape[1])
        )
    return out


# --- controlled-equation identity ---------------------------------------------------

@dataclass
class F06Report:
    lhs: float          # basis-restricted cost of the controlled trajectory
    rhs: float          # quarter of the squared control norm along it
    rel_gap: float
    rate: RateReport


def verify_f06(gamma, boundary: BoundaryData, control, grid: Grid,
               vset: VelocitySet, horizon: float, basis: TestBasis,
               dt=None, n_frames: int = 256) -> F06Report:
    """Cross-check cost(controlled solution) against |H|_pi^2 / 4."""
    traj = solve_controlled(gamma, boundary, horizon, grid, vset, control=control,
                            dt=dt, n_frames=n_frames)
    report = rate_estimate(traj, traj.gamma, basis, vset)
    rhs = 0.25 * h_norm(traj, control, vset)
    gap = abs(report.estimate - rhs) / max(abs(rhs), 1e-300)
    return F06Report(lhs=report.estimate, rhs=rhs, rel_gap=gap, rate=report)

import numpy as np
import pytest

import latgas.ldp
from latgas.config import write_report
from latgas.dynamics import ReservoirProfiles
from latgas.errors import ConditioningError
from latgas.grid import Grid
from latgas.hydro import (
    BoundaryData,
    Factor,
    FieldTrajectory,
    QuadratureContext,
    SeparableField,
    solve_hydro,
)
from latgas.ldp import check_control, h_norm, quadratic_sup, rate_estimate, verify_f06
from latgas.velocities import VelocitySet
from reference import (
    basis,
    combination,
    einsum_weights,
    field_dt,
    field_laplacian,
    j_hat,
    linear_residual,
    synthetic_trajectory,
    wall_mode,
)

T = 0.5


@pytest.fixture(scope="module")
def solution(vs2_module):
    vs = vs2_module
    grid = Grid(1, 65)
    prof = ReservoirProfiles.constant(vs, [0.3, 0.4], [0.6, 0.5])
    bd = BoundaryData.from_profiles(prof, vs, grid)

    x = grid.nodes()[..., 0, None]
    gamma = (1 - x) * bd.a + x * bd.b
    traj = solve_hydro(gamma, bd, T, grid, vs, n_frames=128)
    return vs, grid, bd, gamma, traj


@pytest.fixture(scope="module")
def vs2_module():
    from latgas.velocities import two_velocity_set

    return two_velocity_set(0.5)


def wall_factor(G) -> Factor:
    """The wall-axis factor of a one-term field."""
    return G.terms[0][3][0]


class TestBasisConstruction:
    def test_default_sizes_and_order(self):
        modes = basis(1, T, n_space=4)
        assert len(modes) == 32
        # leading 8 modes all have wall wavenumber 1
        assert all(wall_factor(G) == Factor("sin", np.pi) for G in modes[:8])
        assert all(wall_factor(G) == Factor("sin", np.pi * 2) for G in modes[8:16])

    def test_d2_includes_transverse_modes(self):
        modes = basis(2, 0.1, n_space=2, n_transverse=1)
        assert len(modes) == 2 * 4 * 3 * 3


class TestJhat:
    def test_zero_function(self, solution):
        vs, grid, bd, gamma, traj = solution
        zero = wall_mode(0, Factor("one"), 1, amplitude=0.0)
        assert j_hat(traj, zero, vs) == 0.0

    def test_nonpositive_on_solutions(self, solution):
        # on a solution the linear part is (numerically) tiny, so the value
        # is dominated by the negative quadratic term
        vs, grid, bd, gamma, traj = solution
        for G in basis(1, T, n_space=3)[:9]:
            assert j_hat(traj, G, vs) < 0.0

    def test_linear_plus_quadratic_structure(self, solution):
        vs, grid, bd, gamma, traj = solution
        G = wall_mode(1, Factor("linear", T), 2, amplitude=0.6)
        vals = {}
        for c in (1.0, 2.0, 3.0):
            scaled = combination([G], [c])
            vals[c] = j_hat(traj, scaled, vs)
        # fit j(c) = c l - c^2 q from c=1,2; predict c=3
        q = (2 * vals[1.0] - vals[2.0]) / 2.0
        l = vals[1.0] + q
        assert vals[3.0] == pytest.approx(3 * l - 9 * q, abs=1e-10)

    def test_bilinear_form_audit(self, solution, rng):
        vs, grid, bd, gamma, traj = solution
        modes = basis(1, T, n_space=2)
        rep = rate_estimate(traj, modes, vs)
        for _ in range(3):
            c = rng.normal(size=len(modes)) * 0.4
            direct = j_hat(traj, combination(modes, c), vs)
            quadform = float(rep.linear_term @ c - c @ rep.quad_matrix @ c)
            assert direct == pytest.approx(quadform, abs=1e-10)


D2_HORIZON = 0.2


def d2_trajectory():
    """A smooth interior d=2 path whose wall data vary along the torus."""
    return synthetic_trajectory(
        Grid(2, 17, 8), np.linspace(0, D2_HORIZON, 9),
        lambda t, u: np.stack([
            1.0 + 0.3 * np.sin(np.pi * u[..., 0]) * np.cos(2 * np.pi * u[..., 1]) * (1 + t),
            0.05 * np.sin(2 * np.pi * u[..., 1]),
            0.04 * u[..., 0] * (1 - t),
        ], axis=-1))


def einsum_residual(ctx, traj, G):
    """Reference weak residual of one mode: einsums over G and the trajectory."""
    grid, vset = traj.grid, ctx.vset
    axes = tuple(range(1, 1 + grid.d))
    w = ctx.w_space[..., None]
    ends = G.values(traj.times[[0, -1]], grid)
    endpoint = np.sum(w * traj.values[-1] * ends[1]) - np.sum(w * traj.values[0] * ends[0])
    w_mid = 0.5 * (traj.values[:-1] + traj.values[1:])
    dtg = field_dt(G, ctx.t_mid, grid) + 0.5 * field_laplacian(G, ctx.t_mid, grid)
    bulk = np.sum(ctx.dt_f * np.sum(np.sum(w_mid * dtg, axis=-1) * ctx.w_space, axis=axes))
    grad = G.gradient(ctx.t_mid, grid)
    tw = grid.transverse_weights().reshape(grid.tshape)[..., None]
    wall = tuple(range(1, grid.d + 1))
    surf = (np.sum(traj.boundary.b * grad[:, -1, ..., 0, :] * tw, axis=wall)
            - np.sum(traj.boundary.a * grad[:, 0, ..., 0, :] * tw, axis=wall))
    contr = np.einsum("f...ik,vk->f...iv", grad, vset.vtilde)
    dens = np.einsum("f...iv,f...v,vi->f...", contr, ctx.chi, vset.velocities)
    flux_term = np.sum(ctx.dt_f * np.sum(dens * ctx.w_space, axis=axes))
    return float(endpoint - bulk + 0.5 * np.sum(ctx.dt_f * surf) - flux_term)


def gram_linear(ctx, fields):
    """The weak residuals that `gram` writes into its `linear` array."""
    lin = np.empty(len(fields))
    ctx.gram(fields, lin)
    return lin


class TestLinearResidual:
    def test_matches_einsum_reference_d1(self, solution):
        vs, grid, bd, gamma, traj = solution
        ctx = QuadratureContext(traj, vs)
        modes = basis(1, T, n_space=3)
        lin = gram_linear(ctx, modes)
        ref = np.array([einsum_residual(ctx, traj, G) for G in modes])
        assert np.max(np.abs(lin - ref)) <= 1e-12 * np.max(np.abs(lin))

    def test_matches_einsum_reference_d2(self, vs2d):
        tr = d2_trajectory()
        ctx = QuadratureContext(tr, vs2d)
        modes = basis(2, D2_HORIZON, n_space=2, n_transverse=1)
        lin = gram_linear(ctx, modes)
        ref = np.array([einsum_residual(ctx, tr, G) for G in modes])
        assert np.max(np.abs(lin)) > 1e-3  # the path is not a solution
        assert np.max(np.abs(lin - ref)) <= 1e-12 * np.max(np.abs(lin))


# six velocities whose tables vt_vc vt_vk and v_vi vt_vk are not dyadic
VS6 = VelocitySet(np.array([[0.5], [-0.5], [0.3], [-0.3], [0.13], [-0.13]]))


def short_solution(vs):
    """A d = 1 solution over [0, 0.1] in 8 frames on 33 nodes, between
    constant reservoirs."""
    grid = Grid(1, 33)
    nv = len(vs)
    prof = ReservoirProfiles.constant(vs, np.linspace(0.3, 0.45, nv), np.linspace(0.6, 0.5, nv))
    bd = BoundaryData.from_profiles(prof, vs, grid)
    x = grid.nodes()[..., 0, None]
    return solve_hydro((1 - x) * bd.a + x * bd.b, bd, 0.1, grid, vs, n_frames=8)


class TestWeights:
    """`pi_weights` and the flux block of `lap_grad_weights` are one matrix
    product each against a velocity table; the einsums they replaced
    multiply the same three factors in another order.  For vs2, vs4 and
    vs2d every table entry is a signed power of two or zero, so each product
    is exact in both orders and the sums over v round alike: the weights are
    equal.  For VS6 they are not, and the two orders differ by rounding, a
    few units of 1.1e-16 times the largest weight (seen 2.3e-17); per entry
    it can be more, since the mixed entries sum_v chi_v v_v nearly cancel."""

    @pytest.mark.parametrize("vs_name", ["vs2", "vs4", "vs2d", "vs6"])
    def test_match_the_einsum_weights(self, vs_name, request):
        if vs_name == "vs2d":
            vs, traj = request.getfixturevalue(vs_name), d2_trajectory()
        else:
            vs = VS6 if vs_name == "vs6" else request.getfixturevalue(vs_name)
            traj = short_solution(vs)
        ctx, pi, lap_grad = einsum_weights(traj, vs)
        if vs_name == "vs6":
            for new, ref in ((ctx.pi_weights, pi), (ctx.lap_grad_weights, lap_grad)):
                assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))
        else:
            assert np.array_equal(ctx.pi_weights, pi)
            assert np.array_equal(ctx.lap_grad_weights, lap_grad)


def pairwise_gram(ctx, modes):
    """Reference Gram matrix: one chi-weighted einsum per pair of modes."""
    axes = tuple(range(1, 1 + ctx.grid.d))
    contr = [np.einsum("f...ik,vk->f...iv", G.gradient(ctx.t_mid, ctx.grid),
                       ctx.vset.vtilde) for G in modes]
    quad = np.empty((len(modes), len(modes)))
    for a, A in enumerate(contr):
        for b, B in enumerate(contr):
            dens = np.einsum("f...iv,f...iv,f...v->f...", A, B, ctx.chi)
            quad[a, b] = np.sum(ctx.dt_f * np.sum(dens * ctx.w_space[None], axis=axes))
    return quad


class TestGram:
    def test_matches_pairwise_reference_d1(self, solution):
        vs, grid, bd, gamma, traj = solution
        ctx = QuadratureContext(traj, vs)
        modes = basis(1, T, n_space=3)
        quad = ctx.gram(modes)
        assert np.array_equal(quad, quad.T)
        ref = pairwise_gram(ctx, modes)
        assert np.max(np.abs(quad - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_matches_pairwise_reference_d2(self, vs2d):
        ctx = QuadratureContext(d2_trajectory(), vs2d)
        modes = basis(2, D2_HORIZON, n_space=2, n_transverse=1)
        quad = ctx.gram(modes)
        assert np.array_equal(quad, quad.T)
        ref = pairwise_gram(ctx, modes)
        assert np.max(np.abs(quad - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", [1, 2])
    def test_mixed_terms_match_per_field_references(self, solution, vs2d, d):
        # one-term modes, a two-term control (both components, different time
        # factors, the wall factor of a mode) and a mode listed twice
        if d == 1:
            vs, traj, horizon = solution[0], solution[-1], T
        else:
            vs, traj, horizon = vs2d, d2_trajectory(), D2_HORIZON
        ctx = QuadratureContext(traj, vs)
        modes = basis(d, horizon, n_space=2, n_transverse=1)
        wall, transverse = modes[0].terms[0][3][0], modes[-1].terms[0][3][1:]
        control = SeparableField(d + 1, [(0, 0.2, Factor("one"), [wall, *transverse]),
                                         (d, -0.3, Factor("linear", horizon),
                                          [Factor("sin", 3 * np.pi), *transverse])])
        fields = modes[:5] + [control, modes[3]] + modes[5:]
        lin = np.empty(len(fields))
        quad = ctx.gram(fields, lin)
        assert np.array_equal(quad, quad.T)
        ref = pairwise_gram(ctx, fields)
        assert np.max(np.abs(quad - ref)) <= 1e-13 * np.max(np.abs(ref))
        ref_lin = np.array([linear_residual(ctx, G) for G in fields])
        assert np.max(np.abs(lin - ref_lin)) <= 1e-12 * np.max(np.abs(ref_lin))
        assert np.array_equal(quad[3], quad[6]) and lin[3] == lin[6]


class TestRateEstimate:
    def test_nonnegative_and_small_on_solution(self, solution):
        vs, grid, bd, gamma, traj = solution
        rep = rate_estimate(traj, basis(1, T, n_space=4), vs)
        assert 0.0 <= rep.estimate <= 1e-5

    def test_nested_monotone(self, solution):
        vs, grid, bd, gamma, traj = solution
        full = rate_estimate(traj, basis(1, T, n_space=4)[:32], vs)
        values = [full.leading(m).estimate for m in (8, 16, 32)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    @pytest.mark.parametrize("m", [8, 16])
    def test_leading_block_matches_separate_solve(self, solution, m):
        vs, grid, bd, gamma, traj = solution
        modes = basis(1, T, n_space=4)
        lead = rate_estimate(traj, modes, vs).leading(m)
        alone = rate_estimate(traj, modes[:m], vs)
        assert lead.basis_size == m
        assert lead.estimate == pytest.approx(alone.estimate, rel=1e-12)
        assert lead.regularization == alone.regularization
        assert np.array_equal(lead.linear_term, alone.linear_term)

    def test_leading_rejects_sizes_outside_the_basis(self, solution):
        vs, grid, bd, gamma, traj = solution
        rep = rate_estimate(traj, basis(1, T, n_space=1), vs)
        for m in (0, len(rep.linear_term) + 1):
            with pytest.raises(ValueError, match="out of range"):
                rep.leading(m)

    def test_perturbation_raises_estimate(self, solution):
        vs, grid, bd, gamma, traj = solution
        modes = basis(1, T, n_space=4)
        base = rate_estimate(traj, modes, vs).estimate
        vals = traj.values.copy()
        x = grid.nodes()[..., 0]
        vals[1:] += 0.05 * np.sin(np.pi * x)[None, :, None] * np.array([1.0, 0.0])
        bad = FieldTrajectory(grid=grid, times=traj.times, values=vals,
                              boundary=traj.boundary)
        worse = rate_estimate(bad, modes, vs).estimate
        assert worse >= 10 * max(base, 1e-12)

    def test_quadratic_sup_matches_closed_form(self):
        q = np.diag([2.0, 0.5])
        l = np.array([1.0, 1.0])
        value, c_star, reg = quadratic_sup(l, q)
        # max l.c - c.Q c = l Q^-1 l / 4, Q regularized by reg = 1e-10 trace(Q) / 2
        assert reg == pytest.approx(1.25e-10, rel=1e-12)
        assert value == pytest.approx(0.25 * (1 / (2 + reg) + 1 / (0.5 + reg)), rel=1e-12)
        assert np.allclose(c_star, [0.25, 1.0])

    def test_quadratic_sup_rejects_indefinite_forms(self):
        with pytest.raises(ConditioningError, match="singular"):
            quadratic_sup(np.ones(2), np.diag([1.0, -1.0]))

    def test_report_roundtrip(self, solution, tmp_path):
        vs, grid, bd, gamma, traj = solution
        rep = rate_estimate(traj, basis(1, T, n_space=2), vs)
        path = tmp_path / "report.txt"
        write_report(path, "rate-report", rep.lines())
        lines = path.read_text().splitlines()
        back = dict(line.split(": ", 1) for line in lines if ": " in line)
        assert float(back["estimate"]) == rep.estimate
        assert int(back["basis_size"]) == rep.basis_size
        assert np.array_equal(np.array(back["linear_term"].split(), dtype=float),
                              rep.linear_term)
        rows = lines[lines.index("quad_matrix:") + 1:]
        assert np.array_equal(np.array([row.split() for row in rows], dtype=float),
                              rep.quad_matrix)


class TestHNorm:
    def test_zero_control(self, solution):
        vs, grid, bd, gamma, traj = solution
        zero = wall_mode(0, Factor("one"), 1, amplitude=0.0)
        assert h_norm(traj, zero, vs) == 0.0

    def test_hand_value_constant_field(self, vs2_module):
        # constant (rho, p) = (1, 0): chi_± = 1/4; H = sin(pi u) e_0 gives
        # |H|^2 = horizon * pi^2 / 4
        vs = vs2_module
        horizon = 0.8
        grid = Grid(1, 129)
        tr = synthetic_trajectory(
            grid, np.linspace(0, horizon, 17),
            lambda t, u: np.broadcast_to([1.0, 0.0], u.shape[:-1] + (2,)).copy())
        H = wall_mode(0, Factor("one"), 1)
        assert h_norm(tr, H, vs) == pytest.approx(horizon * np.pi**2 / 4, rel=1e-10)

    def test_quadratic_scaling_exact(self, solution):
        vs, grid, bd, gamma, traj = solution
        H = combination([wall_mode(0, Factor("one"), 1), wall_mode(1, Factor("linear", T), 2)],
                        [0.2, 0.1])
        base = h_norm(traj, H, vs)
        for c in (2.0, 3.0, 0.5):
            scaled = combination([H], [c])
            assert h_norm(traj, scaled, vs) == pytest.approx(c**2 * base, rel=1e-12)


class TestControlledIdentity:
    def test_f06_reference_gap(self, solution):
        vs, grid, bd, gamma, traj = solution
        ctrl = combination([wall_mode(0, Factor("one"), 1), wall_mode(1, Factor("linear", T), 2)],
                           [0.2, 0.15])
        rep = verify_f06(gamma, bd, ctrl, grid, vs, T, basis(1, T, n_space=4), n_frames=128)
        assert rep.rel_gap <= 0.05
        assert rep.lhs > 1e-4  # genuinely nonzero cost

    def test_one_quadrature_context(self, solution, monkeypatch):
        vs, grid, bd, gamma, traj = solution
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return QuadratureContext(*args, **kwargs)

        monkeypatch.setattr(latgas.ldp, "QuadratureContext", counting)
        zero = wall_mode(0, Factor("one"), 1, amplitude=0.0)
        verify_f06(gamma, bd, zero, grid, vs, T, basis(1, T, n_space=1), n_frames=8)
        assert len(built) == 1

    def test_one_control_gradient_call(self, solution, monkeypatch):
        # the drift comes from two batched calls, the frame-time probes of the
        # advective limit and then one block of the 128 steps of the rate
        # config, whose 256 stage times hold 129 distinct (each step ends where
        # the next starts); the Gram matrix and |H| are built from the
        # control's factors, not from its gradient
        vs, grid, bd, gamma, traj = solution
        ctrl = combination([wall_mode(0, Factor("one"), 1), wall_mode(1, Factor("linear", T), 2)],
                           [0.2, 0.15])
        calls = []

        def counting(times, grid):
            calls.append(len(times))
            return SeparableField.gradient(ctrl, times, grid)

        monkeypatch.setattr(ctrl, "gradient", counting)
        verify_f06(gamma, bd, ctrl, grid, vs, T, basis(1, T, n_space=1), n_frames=128)
        assert calls == [128 + 1, 128 + 1]

    def test_check_control_reads_the_frame_midpoints(self):
        # sin(2 pi N t / T) is zero at t = 0, T/4, ..., T for even N, but at
        # every midpoint of n frames only when n divides N; F06's quadrature
        # then sees no control
        grid = Grid(1, 33)
        check_control(wall_mode(0, Factor("sin", 2 * np.pi * 2 / T), 1), grid, T, 8)
        for zero in (wall_mode(0, Factor("one"), 1, amplitude=0.0),
                     combination([wall_mode(1, Factor("one"), 2)] * 2, [0.2, -0.2]),
                     wall_mode(0, Factor("sin", 2 * np.pi * 8 / T), 1)):
            with pytest.raises(ValueError, match="frame midpoints"):
                check_control(zero, grid, T, 8)

    def test_zero_control_both_sides_vanish(self, solution):
        vs, grid, bd, gamma, traj = solution
        zero = wall_mode(0, Factor("one"), 1, amplitude=0.0)
        rep = verify_f06(gamma, bd, zero, grid, vs, T, basis(1, T, n_space=2), n_frames=64)
        assert rep.lhs <= 1e-6  # cost of the plain solution at this resolution
        assert rep.rhs == 0.0

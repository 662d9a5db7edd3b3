import numpy as np
import pytest

from latgas.dynamics import ReservoirProfiles
from latgas.errors import DomainError, NumericalFailure, StabilityError
from latgas.grid import Grid
from latgas.hydro import (
    RESERVOIR_MIN_MARGIN,
    AxisFactor,
    BoundaryData,
    FieldSum,
    FieldTrajectory,
    QuadratureContext,
    SeparableMode,
    TimeFactor,
    advective_limit,
    check_vanishes_on_walls,
    field_energy,
    flux,
    solve_controlled,
    solve_hydro,
    synthetic_trajectory,
    weak_residual,
    _lap_axis,
    _Stepper,
)
from latgas.thermo import domain_of
from latgas.velocities import VelocitySet

T = 0.5


@pytest.fixture
def setup(vs2):
    grid = Grid(1, 65)
    prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
    bd = BoundaryData.from_profiles(prof, vs2, grid)
    return grid, bd, linear_gamma(bd)


def smooth_gamma(u):
    """Smooth d=1 profile equal to (1, 0) on both walls."""
    x = u[..., 0]
    out = np.empty(u.shape[:-1] + (2,))
    out[..., 0] = 1.0 + 0.4 * np.sin(np.pi * x)
    out[..., 1] = 0.1 * np.sin(2 * np.pi * x)
    return out


def linear_gamma(bd):
    return lambda u: (1 - u[..., 0])[..., None] * bd.a + u[..., 0][..., None] * bd.b


def closed_form_flux(rho, p, v):
    """d=1 two-velocity oracle from theta_± = rho/2 ± p/(2v)."""
    thp, thm = rho / 2 + p / (2 * v), rho / 2 - p / (2 * v)
    chip, chim = thp * (1 - thp), thm * (1 - thm)
    return np.array([[v * (chip - chim), v * v * (chip + chim)]])


class TestBoundaryData:
    def test_reference_values(self, vs2, setup):
        _, bd, _ = setup
        assert np.allclose(bd.a, [0.7, -0.05], atol=1e-15)
        assert np.allclose(bd.b, [1.1, 0.05], atol=1e-15)

    def test_rejects_degenerate_profiles(self, vs2):
        grid = Grid(1, 17)
        prof = ReservoirProfiles.constant(vs2, [1e-9, 1e-9], [0.5, 0.5])
        with pytest.raises(DomainError):
            BoundaryData.from_profiles(prof, vs2, grid)

    @pytest.mark.parametrize("vs_name, per_density", [("vs2", 0.894), ("vs4", 1.789)])
    def test_margin_floor(self, vs_name, per_density, request):
        vs = request.getfixturevalue(vs_name)
        nv = len(vs)
        assert RESERVOIR_MIN_MARGIN == pytest.approx(1e-6)
        # Near the empty site the hull margin of sum_v s vtilde_v is linear in s.
        ratio = domain_of(vs).margin(1e-3 * vs.vtilde.sum(axis=0)) / 1e-3
        assert ratio == pytest.approx(per_density, rel=1e-3)
        s_floor = RESERVOIR_MIN_MARGIN / ratio
        grid = Grid(1, 17)
        above = ReservoirProfiles.constant(vs, [1.01 * s_floor] * nv, [0.5] * nv)
        BoundaryData.from_profiles(above, vs, grid)
        below = ReservoirProfiles.constant(vs, [0.5] * nv, [0.99 * s_floor] * nv)
        with pytest.raises(DomainError, match="margin"):
            BoundaryData.from_profiles(below, vs, grid)


class TestFlux:
    def test_hand_value_unit_speeds(self, vs_unit):
        # (rho, p) = (1, 0): theta_± = 1/2, chi = 1/4: mass flux 0, momentum 1/2
        f = flux([1.0, 0.0], vs_unit)
        assert f.shape == (1, 2)
        assert np.allclose(f, [[0.0, 0.5]], atol=1e-13)

    def test_matches_closed_form(self, vs2, rng):
        from latgas.thermo import rho_p_of_lambda

        targets = rho_p_of_lambda(rng.normal(size=(20, 2)), vs2)
        for t in targets:
            assert np.allclose(flux(t, vs2), closed_form_flux(t[0], t[1], 0.5),
                               atol=1e-12)

    def test_vacuum_limit(self, vs2):
        f = flux([1e-9, 0.0], vs2)
        assert np.max(np.abs(f)) < 1e-9

    def test_outside_domain(self, vs2):
        with pytest.raises(DomainError):
            flux([3.0, 0.0], vs2)


class TestSolver:
    def test_constant_data_is_stationary(self, vs2):
        grid = Grid(1, 33)
        c = np.array([1.0, 0.02])
        bd = BoundaryData(a=c, b=c)
        traj = solve_hydro(lambda u: np.broadcast_to(c, u.shape[:-1] + (2,)).copy(),
                           bd, 0.1, grid, vs2, n_frames=8)
        assert np.max(np.abs(traj.values - traj.values[0])) <= 1e-12

    def test_stability_error(self, vs2, setup):
        grid, bd, gamma = setup
        # d = 1, no control: CFL 1, h_1 / max|v_1| = (1/64) / (1/2).
        bound = advective_limit(grid, vs2)
        assert bound == pytest.approx(grid.h1 / 0.5, rel=1e-12)
        with pytest.raises(StabilityError, match="advective"):
            solve_hydro(gamma, bd, 0.1, grid, vs2, dt=1.01 * bound)
        traj = solve_hydro(gamma, bd, 0.1, grid, vs2, dt=0.99 * bound)
        assert traj.meta["n_steps"] == 4

    def test_bad_initial_profile(self, vs2, setup):
        grid, bd, _ = setup
        with pytest.raises(DomainError):
            solve_hydro(lambda u: np.broadcast_to([5.0, 0.0], u.shape[:-1] + (2,)).copy(),
                        bd, 0.1, grid, vs2)

    def test_boundary_pinned_and_inside_hull(self, vs2, setup):
        grid, bd, gamma = setup
        traj = solve_hydro(gamma, bd, 0.2, grid, vs2, n_frames=16)
        assert np.allclose(traj.values[1:, 0], bd.a, atol=1e-15)
        assert np.allclose(traj.values[1:, -1], bd.b, atol=1e-15)
        from latgas.thermo import domain_of

        m = domain_of(vs2).margin(traj.values.reshape(-1, 2))
        assert np.min(m) > 0

    def test_self_convergence_second_order(self, vs2):
        # smooth manufactured initial data, matched boundary; compare
        # against a fine reference at the final time.  At dt = 2.5e-4 the
        # time error (about 0.85 dt^2, see test_temporal_second_order) is
        # below 1e-3 of the m1 = 33 spatial error, so the ratio is spatial.
        c = np.array([1.0, 0.0])
        bd = BoundaryData(a=c, b=c)
        horizon, dt = 0.02, 2.5e-4
        ref = solve_hydro(smooth_gamma, bd, horizon, Grid(1, 129), vs2, dt=dt, n_frames=4)
        errs = []
        for m1 in (17, 33):
            traj = solve_hydro(smooth_gamma, bd, horizon, Grid(1, m1), vs2, dt=dt,
                               n_frames=4)
            stride = 128 // (m1 - 1)
            errs.append(np.max(np.abs(traj.values[-1] - ref.values[-1][::stride])))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.5  # second order in space

    def test_temporal_second_order(self, vs2):
        # fixed m1; halving dt cuts the error against a fine-dt solution by 4
        c = np.array([1.0, 0.0])
        bd = BoundaryData(a=c, b=c)
        grid, horizon = Grid(1, 65), 0.1
        ref = solve_hydro(smooth_gamma, bd, horizon, grid, vs2, dt=horizon / 1024,
                          n_frames=4)
        errs = []
        for n in (16, 32, 64):
            traj = solve_hydro(smooth_gamma, bd, horizon, grid, vs2, dt=horizon / n,
                               n_frames=4)
            assert traj.meta["n_steps"] == n
            errs.append(np.max(np.abs(traj.values[-1] - ref.values[-1])))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.05)

    def test_zero_control_reduces_exactly(self, vs2, setup):
        grid, bd, gamma = setup
        plain = solve_hydro(gamma, bd, 0.1, grid, vs2, n_frames=8)
        zero = FieldSum([SeparableMode(2, 0, TimeFactor("const", 0.1),
                                       [AxisFactor("sine", 1)], amplitude=0.0)])
        controlled = solve_controlled(gamma, bd, 0.1, grid, vs2, control=zero,
                                      n_frames=8)
        assert np.array_equal(plain.values, controlled.values)

    def test_small_control_linear_response(self, vs2, setup):
        grid, bd, gamma = setup
        plain = solve_hydro(gamma, bd, 0.1, grid, vs2, n_frames=8)
        deltas = []
        for amp in (0.08, 0.04, 0.02):
            ctrl = FieldSum([SeparableMode(2, 0, TimeFactor("const", 0.1),
                                           [AxisFactor("sine", 1)], amplitude=amp)])
            out = solve_controlled(gamma, bd, 0.1, grid, vs2, control=ctrl, n_frames=8)
            deltas.append(np.max(np.abs(out.values - plain.values)))
        assert deltas[0] > deltas[1] > deltas[2] > 0
        assert deltas[0] / deltas[1] == pytest.approx(2.0, rel=0.15)
        assert deltas[1] / deltas[2] == pytest.approx(2.0, rel=0.15)

    def test_control_must_vanish_on_walls(self, vs2, setup):
        grid, bd, gamma = setup

        class BadControl:
            ncomp = 2

            def values(self, times, grid):
                out = np.ones((len(times),) + grid.shape + (2,))
                return out

            def gradient(self, times, grid):
                return np.zeros((len(times),) + grid.shape + (1, 2))

        with pytest.raises(ValueError, match="vanish"):
            solve_controlled(gamma, bd, 0.05, grid, vs2, control=BadControl())

    def test_runaway_control_hits_hull_guard(self, vs2, setup):
        grid, bd, gamma = setup
        ctrl = FieldSum([SeparableMode(2, 0, TimeFactor("const", 0.2),
                                       [AxisFactor("sine", 1)], amplitude=40.0)])
        with pytest.raises(NumericalFailure, match="hull"):
            solve_controlled(gamma, bd, 0.2, grid, vs2, control=ctrl, n_frames=8)


class TestTransverse:
    """d = 2 on Grid(2, 33, 8) with the diagonal set {(±1/2, ±1/2)}.

    With equal densities on (v_1, +1/2) and (v_1, -1/2), lambda_2 = 0 and the
    set is two copies of the d = 1 pair {±1/2}: (rho, p_1) is twice the d = 1
    field and p_2 = 0.
    """

    T = 0.1

    @pytest.fixture
    def diag(self):
        vs = VelocitySet(np.array([[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]]))
        grid = Grid(2, 33, 8)
        side = lambda dens: [dens[0] if v[0] > 0 else dens[1] for v in vs.velocities]
        prof = ReservoirProfiles.constant(vs, side([0.3, 0.4]), side([0.6, 0.5]))
        bd = BoundaryData.from_profiles(prof, vs, grid)
        return vs, grid, bd, solve_hydro(linear_gamma(bd), bd, self.T, grid, vs, n_frames=8)

    def test_transverse_constant_matches_d1(self, vs2, diag):
        _, _, _, flat = diag
        grid = Grid(1, 33)
        prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
        bd = BoundaryData.from_profiles(prof, vs2, grid)
        one = solve_hydro(linear_gamma(bd), bd, self.T, grid, vs2, n_frames=8)
        assert flat.meta == one.meta
        assert np.max(np.abs(flat.values[..., :2] - 2 * one.values[:, :, None])) <= 1e-12
        assert np.max(np.abs(flat.values[..., 2])) <= 1e-12

    def test_transverse_cosine_decays_inside_hull(self, diag):
        vs, grid, bd, flat = diag
        eps = 0.05

        def gamma(u):
            out = linear_gamma(bd)(u)
            out[..., 0] += eps * np.sin(np.pi * u[..., 0]) * np.cos(2 * np.pi * u[..., 1])
            return out

        traj = solve_hydro(gamma, bd, self.T, grid, vs, n_frames=8)
        assert np.min(domain_of(vs).margin(traj.values.reshape(-1, 3))) > 0
        amp = np.max(np.abs(traj.values - flat.values), axis=(1, 2, 3))
        assert amp[0] == pytest.approx(eps)
        assert np.all(np.diff(amp) < 0)
        # heat-equation decay exp(-(pi^2 + (2 pi)^2) T / 2) = 0.085; seen 0.093
        assert amp[-1] < 0.15 * eps


@pytest.mark.parametrize("grid", [Grid(1, 3), Grid(1, 17), Grid(2, 9, 5), Grid(3, 9, 6)],
                         ids=str)
def test_implicit_solve_inverts_the_crank_nicolson_matrix(grid, rng):
    # Every transverse wavenumber of the rfft layout (odd and even mt, d = 3)
    # and the smallest grid: (I - dt/4 Lap_h) X = R on the interior rows.
    d, dt = grid.d, 0.02
    vs = VelocitySet(np.vstack([s * 0.5 * np.eye(d) for s in (1, -1)]))
    nv = 2 * d
    prof = ReservoirProfiles.constant(vs, [0.3] * nv, [0.5] * nv)
    bd = BoundaryData.from_profiles(prof, vs, grid)
    R = rng.normal(size=grid.shape + (d + 1,))
    X = _Stepper(vs, grid, bd, dt).implicit_solve(R)
    lap = sum(_lap_axis(X, grid, axis=i) for i in range(d))
    assert np.max(np.abs((X - 0.25 * dt * lap - R)[1:-1])) < 1e-13
    assert np.array_equal(X[0], bd.a) and np.array_equal(X[-1], bd.b)


class TestModes:
    def test_derivatives_match_finite_differences(self, vs2):
        grid = Grid(1, 401)
        mode = SeparableMode(2, 1, TimeFactor("sin", T, 1), [AxisFactor("sine", 3)],
                             amplitude=0.7)
        times = np.array([0.123])
        vals = mode.values(times, grid)[0]
        grad = mode.gradient(times, grid)[0]
        lap = mode.laplacian(times, grid)[0]
        h = grid.h1
        # The mode is A sin(k u); for a sine each stencil below errs by less than
        # its leading truncation term, a multiple of h^2 A k^3 or h^2 A k^4.
        A, k = 0.7 * abs(np.sin(2 * np.pi * times[0] / T)), 3 * np.pi
        num_grad = np.gradient(vals, h, axis=0, edge_order=2)
        grad_err = np.abs(num_grad - grad[:, 0, :])
        assert np.max(grad_err[1:-1]) < h**2 * A * k**3 / 6       # central
        assert np.max(grad_err[[0, -1]]) < h**2 * A * k**3 / 3    # one-sided at walls
        num_lap = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
        assert np.max(np.abs(num_lap - lap[1:-1])) < h**2 * A * k**4 / 12
        dt_num = (mode.values(times + 1e-6, grid)[0] - mode.values(times - 1e-6, grid)[0]) / 2e-6
        assert np.max(np.abs(dt_num - mode.dt(times, grid)[0])) < 1e-6

    def test_wall_axis_must_be_sine(self):
        with pytest.raises(ValueError, match="sine"):
            SeparableMode(2, 0, TimeFactor("const", T), [AxisFactor("cos", 1)])

    def test_vanishing_check(self, vs2):
        grid = Grid(1, 33)
        good = SeparableMode(2, 0, TimeFactor("const", T), [AxisFactor("sine", 2)])
        check_vanishes_on_walls(good, grid, T)


class TestWeakResidual:
    def test_stationary_solution_tiny_residual(self, vs2):
        grid = Grid(1, 33)
        c = np.array([1.0, 0.0])
        bd = BoundaryData(a=c, b=c)
        traj = solve_hydro(lambda u: np.broadcast_to(c, u.shape[:-1] + (2,)).copy(),
                           bd, 0.2, grid, vs2, n_frames=16)
        G = SeparableMode(2, 0, TimeFactor("cos", 0.2, 1), [AxisFactor("sine", 1)])
        assert abs(weak_residual(traj, G, vs2)) <= 1e-10

    def test_residual_decreases_under_refinement(self, vs2):
        prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
        res = []
        for m1, nf in ((33, 32), (65, 64), (129, 128)):
            grid = Grid(1, m1)
            bd = BoundaryData.from_profiles(prof, vs2, grid)
            gamma = lambda u: (1 - u[..., 0])[..., None] * bd.a \
                + u[..., 0][..., None] * bd.b
            traj = solve_hydro(gamma, bd, 0.2, grid, vs2, n_frames=nf)
            G = SeparableMode(2, 0, TimeFactor("const", 0.2), [AxisFactor("sine", 1)])
            res.append(abs(weak_residual(traj, G, vs2)))
        assert res[0] > res[1] > res[2]
        assert res[2] < 1e-4

    def test_corrupted_trajectory_order_of_perturbation(self, vs2, setup):
        grid, bd, gamma = setup
        traj = solve_hydro(gamma, bd, 0.2, grid, vs2, n_frames=16)
        vals = traj.values.copy()
        x = grid.nodes()[..., 0]
        vals[1:] += 0.1 * np.sin(np.pi * x)[None, :, None] * np.array([1.0, 0.0])
        bad = FieldTrajectory(grid=grid, times=traj.times, values=vals,
                              gamma=traj.gamma, boundary=traj.boundary)
        G = SeparableMode(2, 0, TimeFactor("const", 0.2), [AxisFactor("sine", 1)])
        r = abs(weak_residual(bad, G, vs2))
        assert 0.01 < r < 1.0

    def test_interior_requirement(self, vs2):
        grid = Grid(1, 17)
        times = np.linspace(0, 0.1, 5)
        vals = np.zeros((5, 17, 2))  # vacuum sits on the hull boundary
        bad = FieldTrajectory(grid=grid, times=times, values=vals,
                              gamma=vals[0].copy(),
                              boundary=BoundaryData(a=vals[0][0], b=vals[0][-1]))
        G = SeparableMode(2, 0, TimeFactor("const", 0.1), [AxisFactor("sine", 1)])
        with pytest.raises(DomainError):
            weak_residual(bad, G, vs2)


class TestFieldEnergy:
    def test_constant_trajectory_zero(self, vs2):
        grid = Grid(1, 33)
        tr = synthetic_trajectory(
            grid, np.linspace(0, 1, 9),
            lambda t, u: np.broadcast_to([1.0, 0.0], u.shape[:-1] + (2,)).copy())
        assert field_energy(tr) == 0.0

    def test_sine_profile_oracle(self, vs2):
        # p0(u) = 1 + a sin(pi u): integral of (a pi cos)^2 = a^2 pi^2/2 per unit time
        a = 0.3
        tr = synthetic_trajectory(
            Grid(1, 257), np.linspace(0, 1, 33),
            lambda t, u: np.stack([1 + a * np.sin(np.pi * u[..., 0]),
                                   np.zeros_like(u[..., 0])], axis=-1))
        assert field_energy(tr) == pytest.approx(a**2 * np.pi**2 / 2, rel=1e-3)


class TestTrajectoryIO:
    def test_npz_roundtrip(self, vs2, setup, tmp_path):
        grid, bd, gamma = setup
        traj = solve_hydro(gamma, bd, 0.05, grid, vs2, n_frames=4)
        path = tmp_path / "traj.npz"
        traj.save(path)
        back = FieldTrajectory.load(path)
        assert back.grid == traj.grid
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.values, traj.values)
        assert np.array_equal(back.boundary.a, traj.boundary.a)
        assert back.meta == traj.meta == {"dt": 0.05 / 4, "n_steps": 4, "controlled": False}

    def test_frame_lookup(self, vs2, setup):
        grid, bd, gamma = setup
        traj = solve_hydro(gamma, bd, 0.1, grid, vs2, n_frames=10)
        assert np.array_equal(traj.frame_at(0.05), traj.values[5])
        with pytest.raises(ValueError):
            traj.frame_at(0.033)

    def test_csv_export(self, vs2, setup, tmp_path):
        grid, bd, gamma = setup
        traj = solve_hydro(gamma, bd, 0.05, grid, vs2, n_frames=2)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, header_comment="meta")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# meta"
        assert len(lines) == 2 + 3 * 65

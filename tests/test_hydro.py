import hashlib
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from latgas.config import write_csv
from latgas.dynamics import ReservoirProfiles
from latgas.errors import DomainError, NumericalFailure, StabilityError
from latgas.grid import Grid, field_columns, field_rows
from latgas.hydro import (
    HULL_INTERIOR_PAD,
    RESERVOIR_MIN_MARGIN,
    BoundaryData,
    Factor,
    FieldTrajectory,
    SeparableField,
    advective_limit,
    check_vanishes_on_walls,
    solve_controlled,
    solve_hydro,
    _flux_grid,
    _lap_axis,
    _Stepper,
)
from latgas.thermo import domain_of, theta_all, theta_field
from latgas.velocities import VelocitySet, two_velocity_set
from reference import (
    ComposedStepper,
    chi,
    combination,
    drift,
    field_dt,
    field_laplacian,
    wall_mode,
    weak_residual,
)

T = 0.5

# recorded by `tests/record_data.py`: `controlled_march_digest` of each case
RECORDED_MARCHES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "controlled_marches.json").read_text())


@pytest.fixture
def setup(vs2):
    grid = Grid(1, 65)
    prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
    bd = BoundaryData.from_profiles(prof, vs2, grid)
    return grid, bd, linear_gamma(bd, grid)


def smooth_gamma(u):
    """Smooth d=1 profile equal to (1, 0) on both walls."""
    x = u[..., 0]
    out = np.empty(u.shape[:-1] + (2,))
    out[..., 0] = 1.0 + 0.4 * np.sin(np.pi * x)
    out[..., 1] = 0.1 * np.sin(2 * np.pi * x)
    return out


def linear_gamma(bd, grid):
    """The profile interpolating linearly from the wall data a to b, at the grid nodes."""
    x = grid.nodes()[..., 0, None]
    return (1 - x) * bd.a + x * bd.b


def closed_form_flux(rho, p, v):
    """d=1 two-velocity oracle from theta_± = rho/2 ± p/(2v)."""
    chip, chim = chi(rho / 2 + p / (2 * v)), chi(rho / 2 - p / (2 * v))
    return np.array([[v * (chip - chim), v * v * (chip + chim)]])


def node_flux(w, vset):
    """The flux F[..., i, k] at conserved vectors w, as `_Stepper.flux`
    forms it: theta from the inversion, then `_flux_grid` of chi(theta)."""
    th = theta_field(w, vset)
    return _flux_grid(th * (1.0 - th), vset, vset.velocities.T)


# (dt, n_frames) of each pinned controlled march over [0, 0.1]: one step
# per frame; four steps per frame, which tabulates the drift in four blocks
# of 16 steps; and two frames, where the advective limit under the control,
# not the frame spacing, sets the default dt (12 steps)
CONTROLLED_MARCHES = {"step-per-frame": (None, 16), "four-drift-blocks": (0.1 / 64, 16),
                      "advective-dt": (None, 2)}


def controlled_march_digest(name: str) -> str:
    """sha256 of the frames of `solve_controlled` under a two-term control,
    on the d = 1 two-velocity gas of the `setup` fixture."""
    vs = two_velocity_set(0.5)
    grid = Grid(1, 65)
    bd = BoundaryData.from_profiles(ReservoirProfiles.constant(vs, [0.3, 0.4], [0.6, 0.5]),
                                    vs, grid)
    ctrl = combination([wall_mode(0, Factor("one"), 1),
                        wall_mode(1, Factor("cos", 2 * np.pi / 0.1), 2)], [0.2, 0.15])
    dt, n_frames = CONTROLLED_MARCHES[name]
    traj = solve_controlled(linear_gamma(bd, grid), bd, 0.1, grid, vs, control=ctrl, dt=dt,
                            n_frames=n_frames)
    return hashlib.sha256(traj.values.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONTROLLED_MARCHES))
def test_controlled_march_reproduces_recorded_bytes(name):
    # the controlled march is deterministic: its frames pin every step and
    # every drift table
    assert controlled_march_digest(name) == RECORDED_MARCHES[name]


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
        f = node_flux([1.0, 0.0], vs_unit)
        assert f.shape == (1, 2)
        assert np.allclose(f, [[0.0, 0.5]], atol=1e-13)

    def test_matches_closed_form(self, vs2, rng):
        targets = theta_all(rng.normal(size=(20, 2)), vs2) @ vs2.vtilde
        fluxes = node_flux(targets, vs2)
        for t, f in zip(targets, fluxes):
            assert np.allclose(f, closed_form_flux(t[0], t[1], 0.5), atol=1e-12)

    def test_vacuum_limit(self, vs2):
        f = node_flux([1e-9, 0.0], vs2)
        assert np.max(np.abs(f)) < 1e-9

    def test_outside_domain(self, vs2):
        with pytest.raises(DomainError):
            node_flux([3.0, 0.0], vs2)


class TestSolver:
    # vs2 inverts the conserved map in closed form, vs4 by Newton.
    @pytest.mark.parametrize("vs_name", ["vs2", "vs4"])
    def test_constant_data_is_stationary(self, vs_name, request):
        vs = request.getfixturevalue(vs_name)
        grid = Grid(1, 33)
        c = np.array([1.0, 0.02])
        bd = BoundaryData(a=c, b=c)
        traj = solve_hydro(np.broadcast_to(c, grid.shape + (2,)), bd, 0.1, grid, vs,
                           n_frames=8)
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

    @pytest.mark.parametrize("name,kwargs", [
        ("horizon", {"horizon": np.nan}),
        ("horizon", {"horizon": np.inf}),
        ("dt", {"dt": np.nan}),
        ("dt", {"dt": -0.01}),
        ("dt", {"dt": 0.0}),
        ("n_frames", {"n_frames": 0}),
        ("n_frames", {"n_frames": -5}),
    ])
    def test_bad_arguments_are_named(self, vs2, setup, name, kwargs):
        grid, bd, gamma = setup
        args = {"horizon": 0.1, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} "):
            solve_hydro(gamma, bd, args.pop("horizon"), grid, vs2, **args)

    def test_bad_initial_profile(self, vs2, setup):
        grid, bd, _ = setup
        with pytest.raises(DomainError):
            solve_hydro(np.broadcast_to([5.0, 0.0], grid.shape + (2,)), bd, 0.1, grid, vs2)

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
        ref_grid = Grid(1, 129)
        ref = solve_hydro(smooth_gamma(ref_grid.nodes()), bd, horizon, ref_grid, vs2, dt=dt,
                          n_frames=4)
        errs = []
        for m1 in (17, 33):
            grid = Grid(1, m1)
            traj = solve_hydro(smooth_gamma(grid.nodes()), bd, horizon, grid, vs2, dt=dt,
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
        gamma = smooth_gamma(grid.nodes())
        ref = solve_hydro(gamma, bd, horizon, grid, vs2, dt=horizon / 1024, n_frames=4)
        errs = []
        for n in (16, 32, 64):
            traj = solve_hydro(gamma, bd, horizon, grid, vs2, dt=horizon / n,
                               n_frames=4)
            assert traj.meta["n_steps"] == n
            errs.append(np.max(np.abs(traj.values[-1] - ref.values[-1])))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.05)

    # vs2 and vs2d invert in closed form, vs4 by Newton
    @pytest.mark.parametrize("vs_name, grid", [("vs2", Grid(1, 65)), ("vs4", Grid(1, 33)),
                                               ("vs2d", Grid(2, 17, 8))],
                             ids=["vs2", "vs4", "vs2d"])
    def test_zero_control_reduces_exactly(self, vs_name, grid, request):
        # H = 0 is the plain system: the controlled march gives its bytes
        vs = request.getfixturevalue(vs_name)
        nv, d = len(vs), vs.d
        prof = ReservoirProfiles.constant(vs, [0.3, 0.4, 0.35, 0.45][:nv],
                                          [0.6, 0.5, 0.55, 0.65][:nv])
        bd = BoundaryData.from_profiles(prof, vs, grid)
        gamma = linear_gamma(bd, grid)
        zero = SeparableField(d + 1, [(0, 0.0, Factor("one"),
                                       [Factor("sin", np.pi)] + [Factor("one")] * (d - 1))])
        plain = solve_hydro(gamma, bd, 0.1, grid, vs, n_frames=8)
        controlled = solve_controlled(gamma, bd, 0.1, grid, vs, control=zero, n_frames=8)
        assert controlled.meta == dict(plain.meta, controlled=True)
        assert np.array_equal(plain.values, controlled.values)

    def test_small_control_linear_response(self, vs2, setup):
        grid, bd, gamma = setup
        plain = solve_hydro(gamma, bd, 0.1, grid, vs2, n_frames=8)
        deltas = []
        for amp in (0.08, 0.04, 0.02):
            ctrl = wall_mode(0, Factor("one"), 1, amplitude=amp)
            out = solve_controlled(gamma, bd, 0.1, grid, vs2, control=ctrl, n_frames=8)
            deltas.append(np.max(np.abs(out.values - plain.values)))
        assert deltas[0] > deltas[1] > deltas[2] > 0
        assert deltas[0] / deltas[1] == pytest.approx(2.0, rel=0.15)
        assert deltas[1] / deltas[2] == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("n_frames", [16, 2])
    def test_batched_drift_matches_per_call_drift(self, vs2, setup, n_frames):
        # two frames: the advective limit, not the frame spacing, sets dt
        grid, bd, gamma = setup
        ctrl = combination([wall_mode(0, Factor("one"), 1),
                            wall_mode(1, Factor("cos", 2 * np.pi / 0.1), 2)], [0.2, 0.15])
        traj = solve_controlled(gamma, bd, 0.1, grid, vs2, control=ctrl, n_frames=n_frames)
        dt, n_steps = traj.meta["dt"], traj.meta["n_steps"]
        assert (n_steps > n_frames) == (n_frames == 2)
        stepper = _Stepper(vs2, grid, bd, dt)
        W = traj.values[0]
        for step_idx in range(n_steps):
            t = step_idx * dt
            W = stepper.step(W, t, (drift(ctrl, t, grid, vs2), drift(ctrl, t + dt, grid, vs2)))
            if n_steps == n_frames:
                assert np.array_equal(W, traj.values[step_idx + 1])
        assert np.array_equal(W, traj.values[-1])

    def test_drift_table_is_bounded_by_the_frame_stride(self, vs2, setup):
        # The drift is tabulated in blocks of max(steps per frame, n_frames)
        # steps, so at 64 steps per frame the table holds the stage times of
        # 64 steps, not of all 1,024: traced peak 369 KiB against 84 KiB at
        # one step per frame (one table for every step took 4.1 MiB).
        grid, bd, gamma = setup
        ctrl = combination([wall_mode(0, Factor("one"), 1),
                            wall_mode(1, Factor("linear", 0.1), 2)], [0.2, 0.15])
        # one untraced solve keeps first-use allocations out of the peaks
        solve_controlled(gamma, bd, 0.1, grid, vs2, control=ctrl, n_frames=16)
        peaks = []
        for steps_per_frame in (1, 64):
            tracemalloc.start()
            try:
                traj = solve_controlled(gamma, bd, 0.1, grid, vs2, control=ctrl,
                                        dt=0.1 / (16 * steps_per_frame), n_frames=16)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert traj.meta["n_steps"] == 16 * steps_per_frame
        assert peaks[1] < 8 * peaks[0]

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
        ctrl = wall_mode(0, Factor("one"), 1, amplitude=40.0)
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
        return vs, grid, bd, solve_hydro(linear_gamma(bd, grid), bd, self.T, grid, vs,
                                         n_frames=8)

    def test_transverse_constant_matches_d1(self, vs2, diag):
        _, _, _, flat = diag
        grid = Grid(1, 33)
        prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
        bd = BoundaryData.from_profiles(prof, vs2, grid)
        one = solve_hydro(linear_gamma(bd, grid), bd, self.T, grid, vs2, n_frames=8)
        assert flat.meta == one.meta
        assert np.max(np.abs(flat.values[..., :2] - 2 * one.values[:, :, None])) <= 1e-12
        assert np.max(np.abs(flat.values[..., 2])) <= 1e-12

    def test_transverse_cosine_decays_inside_hull(self, diag):
        vs, grid, bd, flat = diag
        eps = 0.05

        u = grid.nodes()
        gamma = linear_gamma(bd, grid)
        gamma[..., 0] += eps * np.sin(np.pi * u[..., 0]) * np.cos(2 * np.pi * u[..., 1])
        traj = solve_hydro(gamma, bd, self.T, grid, vs, n_frames=8)
        assert np.min(domain_of(vs).margin(traj.values.reshape(-1, 3))) > 0
        amp = np.max(np.abs(traj.values - flat.values), axis=(1, 2, 3))
        assert amp[0] == pytest.approx(eps)
        assert np.all(np.diff(amp) < 0)
        # heat-equation decay exp(-(pi^2 + (2 pi)^2) T / 2) = 0.085; seen 0.093
        assert amp[-1] < 0.15 * eps


def implicit_solve(stepper, R):
    """(I - dt/4 Lap_h) X = R on the interior rows with X = a, b on the walls,
    as a stage solves it: the stage of R with no flux term in d > 1; in
    d = 1 the stage walls - K_g F of the state W = 0 (so b = walls), for a
    flux F whose central difference (F[i+1] - F[i-1]) / (2 h_1) is -R[i]."""
    if stepper.axes:
        return stepper._stage(R, 0.0, 0.0)
    F = np.zeros(R.shape)
    for i in range(2, len(R)):
        F[i] = F[i - 2] - 2 * stepper.grid.h1 * R[i - 1]
    return stepper._stage(stepper.walls, stepper.k_grad @ F, 1.0)


@pytest.mark.parametrize("grid", [Grid(1, 3), Grid(1, 17), Grid(2, 9, 5), Grid(3, 9, 6)],
                         ids=str)
def test_implicit_solve_inverts_the_crank_nicolson_matrix(grid, rng):
    # Every transverse wavenumber of the rfft layout (odd and even mt, d = 3)
    # and the smallest grid: (I - dt/4 Lap_h) X = R on the interior rows.
    # In d = 1 the solve is folded into the stage operator K_g.
    d, dt = grid.d, 0.02
    vs = VelocitySet(np.vstack([s * 0.5 * np.eye(d) for s in (1, -1)]))
    nv = 2 * d
    prof = ReservoirProfiles.constant(vs, [0.3] * nv, [0.5] * nv)
    bd = BoundaryData.from_profiles(prof, vs, grid)
    R = rng.normal(size=grid.shape + (d + 1,))
    X = implicit_solve(_Stepper(vs, grid, bd, dt), R)
    lap = sum(_lap_axis(X, grid, axis=i) for i in range(d))
    assert np.max(np.abs((X - 0.25 * dt * lap - R)[1:-1])) < 1e-13
    assert np.array_equal(X[0], bd.a) and np.array_equal(X[-1], bd.b)


def second_difference(m: int, h: float, periodic: bool) -> np.ndarray:
    out = (np.eye(m, k=1) - 2 * np.eye(m) + np.eye(m, k=-1)) / h**2
    if periodic:
        out[0, -1] = out[-1, 0] = 1 / h**2
    return out


@pytest.mark.parametrize("grid", [Grid(1, 3), Grid(1, 4), Grid(1, 65), Grid(1, 129),
                                  Grid(2, 9, 4), Grid(2, 9, 5), Grid(2, 33, 16)], ids=str)
def test_implicit_solve_matches_dense_solve(grid, rng):
    # (I - dt/2 A) assembled on every node, A = (1/2) Lap_h with periodic
    # transverse rows, and identity rows at the walls holding a and b.
    d, dt = grid.d, 0.02
    n_nodes = int(np.prod(grid.shape))
    vs = VelocitySet(np.vstack([s * 0.5 * np.eye(d) for s in (1, -1)]))
    prof = ReservoirProfiles.constant(vs, [0.3] * 2 * d, [0.5] * 2 * d)
    bd = BoundaryData.from_profiles(prof, vs, grid)
    wall = np.zeros(grid.m1)
    wall[[0, -1]] = 1.0
    lap = np.kron(np.diag(1 - wall) @ second_difference(grid.m1, grid.h1, False),
                  np.eye(grid.mt or 1))
    if d == 2:
        lap += np.kron(np.diag(1 - wall), second_difference(grid.mt, grid.ht, True))
    matrix = np.eye(n_nodes) - 0.25 * dt * lap
    R = rng.normal(size=grid.shape + (d + 1,))
    rhs = R.copy()
    rhs[0], rhs[-1] = bd.a, bd.b
    dense = np.linalg.solve(matrix, rhs.reshape(n_nodes, d + 1)).reshape(rhs.shape)
    X = implicit_solve(_Stepper(vs, grid, bd, dt), R)
    assert np.max(np.abs(X - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("controlled", [False, True], ids=["plain", "controlled"])
@pytest.mark.parametrize("m1", [3, 5, 65, 129])
@pytest.mark.parametrize("vs_name", ["vs2", "vs4"])
def test_stage_operators_match_the_composed_step(vs_name, m1, controlled, request):
    # In d = 1 a step is b = walls + K_b W and two stages b - c K_g F, with
    # K_b = inverse (I + dt/4 Lap_h) and K_g = inverse d_h; the composed step
    # (`reference.ComposedStepper`) applies inverse to base + c N instead.
    # The two differ by the rounding of those products, a few units of
    # 1.1e-16 of the O(1) field per stage, and the step does not amplify a
    # difference (`advective_limit`), so 128 steps of two stages add up to
    # at most about 128 x 2 x 4 x 1.1e-16 = 1.1e-13; seen at most 6.4e-15
    # (vs4 at m1 = 3).  The march runs 128 steps of the rate config's dt
    # under a time-dependent two-term control, or under none.
    vs = request.getfixturevalue(vs_name)
    nv, grid, dt = len(vs), Grid(1, m1), 0.5 / 128
    prof = ReservoirProfiles.constant(vs, [0.3, 0.4, 0.35, 0.45][:nv], [0.6, 0.5, 0.55, 0.65][:nv])
    bd = BoundaryData.from_profiles(prof, vs, grid)
    ctrl = combination([wall_mode(0, Factor("one"), 1),
                        wall_mode(1, Factor("cos", 2 * np.pi / 0.5), 2)], [0.2, 0.15])
    stepper, composed = _Stepper(vs, grid, bd, dt), ComposedStepper(vs, grid, bd, dt)
    W = V = linear_gamma(bd, grid)
    for k in range(128):
        t = k * dt
        drifts = ((drift(ctrl, t, grid, vs), drift(ctrl, t + dt, grid, vs)) if controlled
                  else (vs.velocities.T,) * 2)
        W, V = stepper.step(W, t, drifts), composed.step(V, t, drifts)
        assert np.max(np.abs(W - V)) <= 1.1e-13
    assert np.max(np.abs(W - linear_gamma(bd, grid))) > 1e-3  # the field moved


class TestStepperFastPaths:
    """The guard returns at once when every node keeps the interior pad, and a
    set of d+1 velocities takes theta without lam."""

    @pytest.fixture
    def stepper(self, vs2, setup):
        grid, bd, gamma = setup
        return _Stepper(vs2, grid, bd, 0.01), gamma

    @staticmethod
    def push_out(W, dom, k, margin):
        """Move node k along its nearest facet's normal to the given margin."""
        slack = dom.normals @ W[k] + dom.offsets
        j = int(np.argmax(slack))
        W[k] += (-margin - slack[j]) * dom.normals[j]

    def test_interior_field_is_returned_unchanged(self, stepper):
        st, gamma = stepper
        W = gamma.copy()
        assert st.guard(W, 0.0) is W
        assert np.array_equal(W, gamma)

    def test_rounding_excursion_is_projected_at_one_node(self, stepper):
        st, gamma = stepper
        W = gamma.copy()
        self.push_out(W, st.dom, 20, -1e-10)
        assert -1e-9 < st.dom.margin(W[20]) < 0
        before = W.copy()
        st.guard(W, 0.0)
        assert st.dom.margin(W[20]) >= HULL_INTERIOR_PAD
        others = np.arange(len(W)) != 20
        assert np.array_equal(W[others], before[others])

    def test_excursion_past_the_tolerance_names_the_node(self, stepper):
        st, gamma = stepper
        W = gamma.copy()
        self.push_out(W, st.dom, 20, -1e-6)
        with pytest.raises(NumericalFailure, match="node 20,"):
            st.guard(W, 0.0)

    @pytest.mark.parametrize("name", ["vs2", "vs4"])
    def test_only_the_newton_path_keeps_a_warm_start(self, name, request):
        vs = request.getfixturevalue(name)
        grid = Grid(1, 17)
        prof = ReservoirProfiles.constant(vs, [0.3, 0.4, 0.35, 0.45][:len(vs)],
                                          [0.6, 0.5, 0.55, 0.65][:len(vs)])
        bd = BoundaryData.from_profiles(prof, vs, grid)
        st = _Stepper(vs, grid, bd, 0.01)
        W = st.step(linear_gamma(bd, grid), 0.0, (vs.velocities.T,) * 2)
        if len(vs) == vs.d + 1:
            assert st.lam is None
        else:
            assert st.lam.shape == W.shape


class TestModes:
    def test_derivatives_match_finite_differences(self, vs2):
        grid = Grid(1, 401)
        mode = wall_mode(1, Factor("sin", 2 * np.pi / T), 3, amplitude=0.7)
        times = np.array([0.123])
        vals = mode.values(times, grid)[0]
        grad = mode.gradient(times, grid)[0]
        lap = field_laplacian(mode, times, grid)[0]
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
        assert np.max(np.abs(dt_num - field_dt(mode, times, grid)[0])) < 1e-6

    def test_wall_axis_must_be_sine(self):
        with pytest.raises(ValueError, match="sine"):
            SeparableField(2, [(0, 1.0, Factor("one"), [Factor("cos", 2 * np.pi)])])

    def test_vanishing_check(self, vs2):
        grid = Grid(1, 33)
        good = wall_mode(0, Factor("one"), 2)
        check_vanishes_on_walls(good, grid, T)

    def test_space_arrays_follow_the_grid(self):
        # CPython builds the second grid where the dropped first one lived,
        # with the same id
        mode = wall_mode(0, Factor("one"), 1)
        shapes = [mode.values([0.0], Grid(1, m1)).shape for m1 in (33, 65)]
        assert shapes == [(1, 33, 2), (1, 65, 2)]

    def test_terms_sum_in_order(self):
        grid, times = Grid(1, 17), np.array([0.0, 0.3])
        a = wall_mode(0, Factor("linear", T), 1, amplitude=0.2)
        b = wall_mode(1, Factor("cos", 2 * np.pi / T), 2, amplitude=0.5)
        both = SeparableField(2, a.terms + b.terms)
        for part in (SeparableField.values, SeparableField.gradient, field_dt,
                     field_laplacian):
            assert np.array_equal(part(both, times, grid),
                                  part(a, times, grid) + part(b, times, grid))


class TestWeakResidual:
    def test_stationary_solution_tiny_residual(self, vs2):
        grid = Grid(1, 33)
        c = np.array([1.0, 0.0])
        bd = BoundaryData(a=c, b=c)
        traj = solve_hydro(np.broadcast_to(c, grid.shape + (2,)), bd, 0.2, grid, vs2,
                           n_frames=16)
        G = wall_mode(0, Factor("cos", 2 * np.pi / 0.2), 1)
        assert abs(weak_residual(traj, G, vs2)) <= 1e-10

    def test_residual_decreases_under_refinement(self, vs2):
        prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
        res = []
        for m1, nf in ((33, 32), (65, 64), (129, 128)):
            grid = Grid(1, m1)
            bd = BoundaryData.from_profiles(prof, vs2, grid)
            traj = solve_hydro(linear_gamma(bd, grid), bd, 0.2, grid, vs2, n_frames=nf)
            G = wall_mode(0, Factor("one"), 1)
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
                              boundary=traj.boundary)
        G = wall_mode(0, Factor("one"), 1)
        r = abs(weak_residual(bad, G, vs2))
        assert 0.01 < r < 1.0

    def test_interior_requirement(self, vs2):
        grid = Grid(1, 17)
        times = np.linspace(0, 0.1, 5)
        vals = np.zeros((5, 17, 2))  # vacuum sits on the hull boundary
        bad = FieldTrajectory(grid=grid, times=times, values=vals,
                              boundary=BoundaryData(a=vals[0][0], b=vals[0][-1]))
        G = wall_mode(0, Factor("one"), 1)
        with pytest.raises(DomainError):
            weak_residual(bad, G, vs2)


class TestTrajectoryIO:
    def test_npz_roundtrip(self, vs2, setup, tmp_path):
        grid, bd, gamma = setup
        traj = solve_hydro(gamma, bd, 0.05, grid, vs2, n_frames=4)
        path = tmp_path / "traj.npz"
        traj.save(path)
        back = np.load(path)
        assert back["grid"].tolist() == [grid.d, grid.m1, grid.mt]
        assert np.array_equal(back["times"], traj.times)
        assert np.array_equal(back["values"], traj.values)
        assert np.array_equal(back["gamma"], traj.values[0])
        assert np.array_equal(back["bound_a"], traj.boundary.a)
        assert json.loads(str(back["meta"])) == traj.meta == {
            "dt": 0.05 / 4, "n_steps": 4, "controlled": False}

    def test_frame_lookup(self, vs2, setup):
        # frames sit on the uniform time grid, so a time's frame is found by
        # its index: t = 0.05 is frame 5 and t = 0.033 is no frame
        grid, bd, gamma = setup
        traj = solve_hydro(gamma, bd, 0.1, grid, vs2, n_frames=10)
        assert np.allclose(traj.times, np.linspace(0.0, 0.1, 11), rtol=0, atol=1e-15)
        assert np.flatnonzero(np.isclose(traj.times, 0.05, rtol=0, atol=1e-12)).tolist() == [5]
        assert not np.any(np.isclose(traj.times, 0.033, rtol=0, atol=1e-9))

    def test_csv_export(self, vs2, setup, tmp_path):
        grid, bd, gamma = setup
        traj = solve_hydro(gamma, bd, 0.05, grid, vs2, n_frames=2)
        path = tmp_path / "traj.csv"
        write_csv(path, ["meta"], field_columns(grid),
                  field_rows(grid, traj.times, traj.values))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# meta"
        assert len(lines) == 2 + 3 * 65

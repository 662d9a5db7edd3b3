"""Batch experiment harness.

Subcommands: simulate | hydro | converge | rate | exact, each driven by a
YAML config (see configs/reference.yaml).  Every command writes CSV or
structured-text outputs plus a run manifest, each whole or absent through the
writers of `config`; all data files carry the config hash in a header
comment.  Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    ReplicaStreams,
    compile_expression,
    load_config,
    write_csv,
    write_manifest,
    write_report,
)
from .dynamics import Model, ReservoirProfiles, simulate
from .empirical import block_average, empirical_measure, l1_distance, smooth
from .errors import ConfigError, DomainError, LatgasError, NumericalFailure
from .generator import assemble_exact_generator, max_abs, velocity_groups
from .grid import Grid, field_columns, field_rows
from .hydro import HULL_INTERIOR_PAD, BoundaryData, Factor, SeparableField, solve_hydro
from .lattice import Lattice
from .ldp import check_control, default_basis, rate_estimate, time_factor, verify_f06
from .thermo import domain_of, sample_profile_state, theta_field


# --- shared builders -----------------------------------------------------------

def build_profiles(cfg: ExperimentConfig) -> ReservoirProfiles:
    return ReservoirProfiles(cfg.model.velocities, *cfg.model.profile_callables())


def build_model(cfg: ExperimentConfig, N: int, periodic: bool = False,
                reservoirs: bool = True) -> Model:
    """The model on the N-lattice; a lattice or velocity set it rejects, or
    a reservoir density outside (0, 1) at a lattice point, exits 2."""
    try:
        return Model(Lattice(N, cfg.model.d, periodic=periodic), cfg.model.velocities,
                     profiles=build_profiles(cfg) if reservoirs else None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_grid(cfg: ExperimentConfig, m1: int, mt=None) -> Grid:
    d = cfg.model.d
    if d > 1 and mt is None:
        raise ConfigError("hydro.mt is required for d > 1")
    return Grid(d, m1, mt or 0)


def smoothing_grid(cfg: ExperimentConfig, command: str) -> Grid:
    """The grid `simulate` or `converge` smooths onto; an eps below twice its
    spacing, which `empirical.smooth` rejects, exits 2 before any work."""
    sec = getattr(cfg, command)
    grid = build_grid(cfg, sec["grid_m1"], cfg.hydro["mt"])
    if grid.min_spacing > sec["eps"] / 2 + 1e-12:
        raise ConfigError(f"{command}.eps is below twice the grid spacing {grid.min_spacing:.4g}")
    return grid


def build_gamma(cfg: ExperimentConfig, walls: tuple, points) -> np.ndarray:
    """The initial profile gamma (`hydro.gamma`) at `points` (..., d).

    `walls` holds the wall vectors (a, b) at each point's own transverse
    position, broadcastable against points[..., :1]; linear gamma runs from
    a at u_1 = 0 to b at u_1 = 1.  A gamma within HULL_INTERIOR_PAD of the
    hull boundary (or NaN), which the PDE solver would reject, is an input
    problem found before any work, so it raises ConfigError (exit 2) in every
    command, not the DomainError of a run.
    """
    spec = cfg.hydro["gamma"]
    ncomp = cfg.model.d + 1
    if spec == "linear":
        a, b = walls
        x = points[..., 0, None]
        values = (1 - x) * a + x * b
    else:
        if len(spec) != ncomp:
            raise ConfigError(f"hydro.gamma needs {ncomp} component expressions")
        names = [f"u{i}" for i in range(1, cfg.model.d + 1)]
        values = np.stack([compile_expression(s, names)(points) for s in spec], axis=-1)
    worst = domain_of(cfg.model.velocities).worst(values)
    if not worst > HULL_INTERIOR_PAD:
        raise ConfigError("hydro.gamma leaves the open hull of the conserved vectors "
                          f"(worst margin {worst:.3e}, the solver needs more than "
                          f"{HULL_INTERIOR_PAD:.0e})")
    return values


def build_basis(cfg: ExperimentConfig, horizon: float) -> list:
    ldp = cfg.ldp
    factors = [time_factor(tok, horizon) for tok in ldp["time_modes"]]
    if len(set(factors)) != len(factors):
        raise ConfigError(f"ldp.time_modes repeats a mode: {ldp['time_modes']}")
    return default_basis(cfg.model.d, factors, ldp["n_space_modes"], ldp["n_transverse"])


def build_control(cfg: ExperimentConfig, horizon: float):
    """The control of `ldp.control`, one term per entry, or None.  A term the
    field rejects, or a control `check_control` rejects on the hydro grid and
    frames, exits 2."""
    terms = cfg.ldp["control"]
    if not terms:
        return None
    d = cfg.model.d
    grid = build_grid(cfg, cfg.hydro["m1"], cfg.hydro["mt"])
    try:
        control = SeparableField(d + 1, [
            (term["component"], term["amplitude"], time_factor(term["time_mode"], horizon),
             [Factor("sin", np.pi * term["space_mode"])] + [Factor("one")] * (d - 1))
            for term in terms])
        check_control(control, grid, horizon, cfg.hydro["n_frames"])
    except ValueError as exc:
        raise ConfigError(f"ldp.control: {exc}") from None
    return control


def _csv_header(cfg: ExperimentConfig, units: str) -> str:
    return f"config_hash={cfg.config_hash} units={units} latgas={__version__}"


def _out_dir(cfg: ExperimentConfig, args) -> str:
    return args.out or cfg.output["directory"]


def _output(cfg: ExperimentConfig, args, name: str) -> str:
    """The path of the output file `name`, called as the command is about to
    write it: the output directory is made and the command's manifest from an
    earlier run removed, so a directory without the manifest holds an
    incomplete run, and a command that stops before its first file leaves the
    directory as it was."""
    directory = _out_dir(cfg, args)
    os.makedirs(directory, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(os.path.join(directory, f"manifest_{args.command}.txt"))
    return os.path.join(directory, name)


def lattice_walls(model: Model) -> tuple:
    """The wall vectors (a, b) at each lattice site's own transverse position
    (from `model.walls`), one row per site; exit 2 below the wall-data margin
    floor."""
    try:
        walls = BoundaryData.from_densities(model.walls, model.vset)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    # the transverse coordinates vary fastest
    row = np.arange(model.lattice.n_sites) % len(walls.a)
    return walls.a[row], walls.b[row]


# --- simulate -------------------------------------------------------------------

def _replica_cells(cfg: ExperimentConfig, command: str, N: int, replicas: range) -> list:
    """The cells (N, r), r in `replicas`, of `simulate` or `converge` (one run
    to t_compare, sampled there); top-level so it can cross a process boundary.

    What the replicas share is built once: the model with its event catalog
    and its one `SimState` (loop state, open-pair list and candidate buffers,
    restarted per replica by `simulate`), the SFC64 seeding words of every
    replica, drawn in one call of N's one SeedSequence
    (`ReplicaStreams.block`), with one generator re-seeded from each in
    turn, the smoothing grid, and the densities theta of the product measure
    along gamma (`cmd_simulate` checks the block centers).
    Each replica draws its initial state from theta, the first draw of its
    own stream, and runs from it; then the samples of every replica are
    measured, smoothed and block-averaged in one call each.
    """
    if command == "converge":
        sec = cfg.converge
        horizon = sec["t_compare"]
        times, centers, block_radius = [horizon], [], 0
    else:
        sec = cfg.simulate
        horizon, times = sec["horizon"], sec["sample_times"]
        block_radius, centers = sec["block_radius"], sec["block_centers"]
        lo, hi = block_radius + 1, N - 1 - block_radius
        if centers == "auto":
            centers = sorted({min(max(c, lo), hi) for c in (N // 4, N // 2, (3 * N) // 4)}) \
                if hi >= lo else []

    model = build_model(cfg, N)
    grid = smoothing_grid(cfg, command)
    lat, vset = model.lattice, model.vset
    theta = theta_field(build_gamma(cfg, lattice_walls(model), lat.positions()), vset)
    runs = [simulate(sample_profile_state(theta, rng), model, horizon, rng, sample_times=times)
            for rng in ReplicaStreams(cfg.model.seed).block(N, replicas)]
    del model  # and its state's candidate buffers, before the samples are measured
    # (replicas, samples, n_sites, nv), smoothed to (replicas, samples,
    # *grid.shape, d+1) and block-averaged to (replicas, samples, centers, d+1);
    # the samples are in increasing time, which `times` need not be
    snapshots = np.array([[eta for _, eta in res.samples] for res in runs], dtype=np.uint8)
    snapshots = snapshots.reshape(len(runs), len(times), lat.n_sites, len(vset))
    values = smooth(empirical_measure(snapshots, lat, vset), lat, sec["eps"], grid)
    averages = block_average(snapshots, lat, vset, centers, block_radius)
    # per cell: its sample times, the block centers, its fields and block
    # averages, and the manifest's record of the run (its event loop, event
    # and candidate counts)
    return [{"times": [t for t, _ in res.samples], "centers": centers,
             "fields": fields, "blocks": blocks,
             "run": {"event_loop": res.event_loop, "n_events": res.n_events,
                     "kind_counts": res.kind_counts, "candidates": res.candidates}}
            for res, fields, blocks in zip(runs, values, averages)]


def cmd_simulate(cfg: ExperimentConfig, args) -> list:
    sec = cfg.simulate
    centers, lo = sec["block_centers"], sec["block_radius"] + 1
    for N in cfg.model.n_values:  # every lattice size, before any replica runs
        if centers != "auto" and any(not lo <= c <= N - lo for c in centers):
            raise ConfigError(f"simulate.block_centers {centers}: a block of radius "
                              f"{lo - 1} at N={N} needs {lo} <= x1 <= {N - lo}")
    outputs = []
    grid = smoothing_grid(cfg, "simulate")
    ncomp = cfg.model.d + 1
    for (N, r), res in _map_cells("simulate", cfg, args):
        times = res["times"]
        fpath = _output(cfg, args, f"sim_N{N}_r{r}_fields.csv")
        write_csv(fpath, [_csv_header(cfg, "macroscopic time / densities per unit volume")],
                  field_columns(grid), field_rows(grid, times, res["fields"]))
        bpath = _output(cfg, args, f"sim_N{N}_r{r}_blocks.csv")
        write_csv(bpath, [_csv_header(cfg, "macroscopic time / per-site conserved quantities")],
                  ["t", "x1"] + [f"comp{k}" for k in range(ncomp)],
                  ([f"{t:.10g}", c] + [f"{y:.12g}" for y in vec]
                   for t, row in zip(times, res["blocks"].tolist())
                   for c, vec in zip(res["centers"], row)))
        outputs += [fpath, bpath]
    return outputs


def _map_cells(command: str, cfg: ExperimentConfig, args) -> list:
    """(cell, result) per (N, replica) cell of `command`, in output order.

    Each `_replica_cells` task, one per (N, contiguous block of replicas),
    sets N up once: its replicas share one model, one `SimState` and one
    generator, re-seeded from the words of one `generate_state` call of N's
    SeedSequence (`ReplicaStreams.block`).  `--threads k` splits each N's
    replicas into k blocks for at most k worker processes, one per task;
    `generate_state` is prefix-stable, so every cell's stream depends only on
    (seed, N, r), and a restarted state is a new one, so no output changes.
    Adds each cell's stream key N:replica and run record (its result's "run")
    to `args.cells`."""
    R, k = cfg.model.replicas, args.threads
    cuts = [R * i // k for i in range(k + 1)]
    tasks = [(N, range(lo, hi)) for N in cfg.model.n_values
             for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    k = min(k, len(tasks))  # no more worker processes than tasks
    if k <= 1:
        blocks = [_replica_cells(cfg, command, *task) for task in tasks]
    else:
        import concurrent.futures  # only a pool needs it (6.6 ms)

        with concurrent.futures.ProcessPoolExecutor(max_workers=k) as pool:
            futures = [pool.submit(_replica_cells, cfg, command, *task) for task in tasks]
            blocks = [f.result() for f in futures]
    cells = [(N, r) for N, replicas in tasks for r in replicas]
    results = [res for block in blocks for res in block]
    args.cells += [(f"{N}:{r}", res["run"]) for (N, r), res in zip(cells, results)]
    return list(zip(cells, results))


# --- hydro ----------------------------------------------------------------------

def _initial_data(cfg: ExperimentConfig, grid: Grid):
    """Wall data and gamma at the grid nodes; either outside the hull exits 2."""
    try:
        boundary = BoundaryData.from_profiles(build_profiles(cfg), cfg.model.velocities, grid)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return build_gamma(cfg, (boundary.a, boundary.b), grid.nodes()), boundary


def _hydro_solve(cfg: ExperimentConfig):
    hyd = cfg.hydro
    grid = build_grid(cfg, hyd["m1"], hyd["mt"])
    return solve_hydro(*_initial_data(cfg, grid), hyd["horizon"], grid,
                       cfg.model.velocities, dt=hyd["dt"], n_frames=hyd["n_frames"])


def cmd_hydro(cfg: ExperimentConfig, args) -> list:
    traj = _hydro_solve(cfg)
    npz = _output(cfg, args, "hydro_traj.npz")
    traj.save(npz)
    csv_path = _output(cfg, args, "hydro_fields.csv")
    write_csv(csv_path, [_csv_header(cfg, "macroscopic time / densities per unit volume")],
              field_columns(traj.grid), field_rows(traj.grid, traj.times, traj.values))
    return [npz, csv_path]


# --- converge -------------------------------------------------------------------

def cmd_converge(cfg: ExperimentConfig, args) -> list:
    if len(cfg.model.n_values) < 2:
        raise ConfigError("converge needs model.N to list at least two sizes")
    conv = cfg.converge
    t_cmp, grid_m1, ref_m1 = conv["t_compare"], conv["grid_m1"], conv["reference_m1"]
    if (ref_m1 - 1) % (grid_m1 - 1) != 0:
        raise ConfigError("converge.reference_m1 - 1 must be a multiple of grid_m1 - 1")
    stride = (ref_m1 - 1) // (grid_m1 - 1)
    cmp_grid = smoothing_grid(cfg, "converge")

    ref_grid = build_grid(cfg, ref_m1, cfg.hydro["mt"])
    ref = solve_hydro(*_initial_data(cfg, ref_grid), t_cmp, ref_grid, cfg.model.velocities,
                      n_frames=conv["n_frames"])
    pde_cmp = ref.values[-1][::stride]

    ncomp = cfg.model.d + 1
    per_n = {}
    for (N, r), res in _map_cells("converge", cfg, args):
        per_n.setdefault(N, []).append(res["fields"][0])

    def rows():
        for N in cfg.model.n_values:
            errs = l1_distance(cmp_grid, np.array(per_n[N]), pde_cmp)
            mean = errs.mean(axis=0)
            sem = (errs.std(axis=0, ddof=1) / np.sqrt(len(errs))
                   if len(errs) > 1 else np.zeros(ncomp))
            for k in range(ncomp):
                yield [N, k, f"{mean[k]:.6e}", f"{sem[k]:.6e}", len(errs)]

    table = _output(cfg, args, "converge.csv")
    write_csv(table, [_csv_header(cfg, f"L1 distance smoothed empirical vs PDE at t={t_cmp}")],
              ["N", "component", "l1_mean", "l1_sem", "replicas"], rows())
    return [table]


# --- rate -----------------------------------------------------------------------

def cmd_rate(cfg: ExperimentConfig, args) -> list:
    hyd = cfg.hydro
    horizon = hyd["horizon"]
    basis = build_basis(cfg, horizon)
    n = len(basis)
    sizes = cfg.ldp["basis_sizes"]
    sizes = sorted(set([min(8, n), min(16, n), n] if sizes is None else sizes))
    bad = [m for m in sizes if not 1 <= m <= n]
    if bad or not sizes:
        raise ConfigError(f"ldp.basis_sizes {bad or 'is empty'}: "
                          f"each entry must lie in 1..{n}, the basis length")
    control = build_control(cfg, horizon)
    traj = _hydro_solve(cfg)
    full = rate_estimate(traj, basis[:sizes[-1]], cfg.model.velocities)

    sweep_path = _output(cfg, args, "rate_sweep.csv")
    write_csv(sweep_path, [_csv_header(cfg, "cost estimate of the uncontrolled solution")],
              ["basis_size", "estimate"],
              ([m, f"{full.leading(m).estimate:.6e}"] for m in sizes))
    report_path = _output(cfg, args, "rate_report.txt")
    write_report(report_path, "rate-report", full.lines())
    outputs = [sweep_path, report_path]

    if control is not None:
        rep6 = verify_f06(traj.values[0], traj.boundary, control, traj.grid,
                          cfg.model.velocities, horizon, basis,
                          dt=hyd["dt"], n_frames=hyd["n_frames"])
        f06_path = _output(cfg, args, "f06_report.txt")
        write_report(f06_path, "f06-report", [
            f"config_hash: {cfg.config_hash}",
            f"lhs_cost_estimate: {rep6.lhs:.12e}",
            f"rhs_quarter_control_norm: {rep6.rhs:.12e}",
            f"relative_gap: {rep6.rel_gap:.6e}",
            f"basis_size: {rep6.rate.basis_size}"])
        outputs.append(f06_path)
    return outputs


# --- exact ----------------------------------------------------------------------

def cmd_exact(cfg: ExperimentConfig, args) -> list:
    """The exact chain's report, from one generator per component of the
    chain that `exact.parts` joins (`velocity_groups`): the chain's generator
    is their Kronecker sum, and its product measure's residual is combined
    from theirs in blocks (`ExactGenerator.invariance_residual`).  The
    collision audit is taken per component of the collision part, which is
    one component or lone velocities without transitions: a velocity set the
    model accepts is closed under sign flips, so any two +- pairs collide
    through the sum 0.  So its counts need no factor for other components."""
    exact = cfg.exact
    n, periodic, parts = exact["N"], exact["periodic"], exact["parts"]
    lam = np.array(exact["lambda"], dtype=float)

    def measure(gen):
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            mu = gen.product_measure(lam)
        if not np.isfinite(mu).all():
            raise ConfigError(f"exact.lambda {exact['lambda']} overflows the product "
                              "measure's weights")
        return mu

    model = build_model(cfg, n, periodic, reservoirs="boundary" in parts)
    gens = [assemble_exact_generator(model, parts, group)
            for group in velocity_groups(model, parts)]
    mus = [measure(gen) for gen in gens]
    n_states = math.prod(gen.n_states for gen in gens)
    row_max = max(max_abs(gen.row_sums()) for gen in gens)
    inv_res = gens[-1].invariance_residual(mus[-1], list(zip(gens, mus))[:-1])
    audits = []  # per collision component
    for group in velocity_groups(model, ("collision",)):
        gen = assemble_exact_generator(model, ("collision",), group)
        audits.append(gen.detailed_balance_audit(measure(gen)))
    assert len(audits) == 1 or not any(a["n_transitions"] for a in audits)
    transitions = sum(a["n_transitions"] for a in audits)
    worst = max(a["worst_imbalance"] for a in audits)

    path = _output(cfg, args, "exact_report.txt")
    write_report(path, "exact-report", [
        f"config_hash: {cfg.config_hash}",
        f"N: {n}", f"periodic: {periodic}", f"parts: {' '.join(parts)}",
        f"n_states: {n_states}",
        f"max_abs_row_sum: {row_max:.3e}",
        f"invariance_residual: {inv_res:.6e}",
        f"collision_transitions: {transitions}",
        f"collision_detailed_balance_worst: {worst:.3e}",
        f"collision_all_reversible: {all(a['all_reversible'] for a in audits)}"])
    return [path]


# --- entry point -----------------------------------------------------------------

COMMANDS = {
    "simulate": cmd_simulate,
    "hydro": cmd_hydro,
    "converge": cmd_converge,
    "rate": cmd_rate,
    "exact": cmd_exact,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgas",
        description="Boundary-driven lattice gas with velocities: "
                    "simulate, solve, and evaluate trajectory costs.",
    )
    parser.add_argument("--version", action="version", version=f"latgas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override model.seed")
        p.add_argument("--out", default=None, help="override output.directory")
        p.add_argument("--threads", type=int, default=1,
                       help="replica worker processes")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg = load_config(args.config, seed=args.seed)
        args.cells = []
        outputs = COMMANDS[args.command](cfg, args)
        write_manifest(_output(cfg, args, f"manifest_{args.command}.txt"), args.command,
                       cfg, args.cells, outputs, time.perf_counter() - started)
        print(f"[latgas] {args.command}: wrote {len(outputs)} file(s) to "
              f"{_out_dir(cfg, args)}")
        return 0
    except ConfigError as exc:
        print(f"[latgas] config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, LatgasError) as exc:
        print(f"[latgas] numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

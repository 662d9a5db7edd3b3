import hashlib
import json
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from numpy.random import Generator, Philox, SeedSequence

import latgas.cli
import latgas.config
import latgas.dynamics
import latgas.hydro
from latgas import eventloop
from latgas.cli import COMMANDS, build_model, lattice_walls, main
from latgas.config import (_CONTROL, _SECTIONS, ReplicaStreams, compile_expression, load_config,
                           parse_config)
from latgas.dynamics import RateTable
from latgas.errors import ConfigError, ConvergenceError, DomainError, NumericalFailure
from latgas.generator import STATE_SPACE_CAP, ExactGenerator
from latgas.grid import Grid
from latgas.hydro import BoundaryData
from latgas.thermo import theta_field


def test_hydro_rejects_wall_data_below_margin_floor(tmp_path, capsys):
    # Densities inside (0, 1) pass ReservoirProfiles but put the wall data
    # within 1e-9 of the hull boundary, below the floor of BoundaryData.
    config = {
        "model": {"d": 1, "velocities": [[0.5], [-0.5]],
                  "alpha": ["1e-9", "1e-9"], "beta": ["0.5", "0.5"],
                  "N": 16, "seed": 1},
        "hydro": {"m1": 17, "horizon": 0.01, "n_frames": 2},
    }
    path = tmp_path / "floor.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["hydro", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "margin" in capsys.readouterr().err


def test_hydro_dt_against_advective_bound(tmp_path, capsys):
    # m1 = 17, max|v_1| = 1/2: the bound is h_1 / (1/2) = 0.125.
    out = tmp_path / "out"
    for dt, code in ((0.13, 2), (0.005, 0)):
        config = {
            "model": {"d": 1, "velocities": [[0.5], [-0.5]],
                      "alpha": ["0.3", "0.4"], "beta": ["0.6", "0.5"],
                      "N": 16, "seed": 1},
            "hydro": {"m1": 17, "horizon": 0.01, "n_frames": 2, "dt": dt},
        }
        path = tmp_path / f"dt{dt}.yaml"
        path.write_text(yaml.safe_dump(config))
        assert main(["hydro", "--config", str(path), "--out", str(out)]) == code
    assert "advective" in capsys.readouterr().err
    meta = json.loads(str(np.load(out / "hydro_traj.npz")["meta"]))
    assert meta == {"dt": pytest.approx(0.005), "n_steps": 2, "controlled": False}


@pytest.mark.parametrize("section,key,value", [
    ("output", "formats", ["csv"]),
    ("ldp", "energy_time_modes", 96),
    ("ldp", "energy_space_modes", 96),
    ("simulate", "event_log", "events.csv"),
])
def test_ignored_config_keys_rejected(tmp_path, capsys, section, key, value):
    # No command reads these keys, so they are unknown keys (exit 2), not
    # settings that are silently dropped.
    config = {
        "model": {"d": 1, "velocities": [[0.5], [-0.5]],
                  "alpha": ["0.3", "0.4"], "beta": ["0.6", "0.5"], "N": 3},
        "exact": {"N": 3, "periodic": True, "parts": ["exclusion"]},
        section: {key: value},
    }
    with pytest.raises(ConfigError, match=f"{key}.*under {section}"):
        parse_config(config)
    path = tmp_path / "ignored.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["exact", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def tiny_config(tmp_path, **sections):
    """Write a small two-velocity config with every command's section."""
    config = {
        "model": {"d": 1, "velocities": [[0.5], [-0.5]],
                  "alpha": ["0.3", "0.4"], "beta": ["0.6", "0.5"],
                  "N": [4, 6], "seed": 7, "replicas": 2},
        "simulate": {"horizon": 0.05, "sample_times": [0.0, 0.05], "eps": 0.25,
                     "grid_m1": 17},
        "hydro": {"m1": 17, "horizon": 0.05, "n_frames": 4},
        "converge": {"t_compare": 0.05, "eps": 0.25, "grid_m1": 17,
                     "reference_m1": 17, "n_frames": 4},
        "ldp": {"n_space_modes": 2, "basis_sizes": [4, 16]},
        "exact": {"N": 3, "periodic": True, "parts": ["exclusion"],
                  "lambda": [0.4, -0.3]},
    }
    for name, values in sections.items():
        config[name].update(values)
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(config))
    return str(path)


def output_digests(tmp_path, command, threads, config=None):
    """sha256 of each data file (not the manifest) one command writes on the
    config `config(tmp_path)` (default `tiny_config`)."""
    out = tmp_path / f"{command}-threads{threads}"
    path = (config or tiny_config)(tmp_path)
    assert main([command, "--config", path, "--out", str(out),
                 "--threads", str(threads)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if not p.name.startswith("manifest_")}


# recorded by `tests/record_data.py`: `output_digests(..., threads=1)` on the
# Python loop and `exact_report_digest`
RECORDED_OUTPUTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_outputs.json").read_text())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_outputs_reproduce_recorded_bytes(tmp_path, command, threads):
    assert output_digests(tmp_path, command, threads) == RECORDED_OUTPUTS[command]


def test_hydro_reproduces_recorded_bytes(tmp_path):
    # the PDE march is deterministic: its trajectory files pin every step
    assert output_digests(tmp_path, "hydro", threads=1) == RECORDED_OUTPUTS["hydro"]


@pytest.mark.parametrize("command", ["simulate", "hydro"])
def test_two_dimensional_outputs_reproduce_recorded_bytes(tmp_path, command):
    # alpha varies across the wall, so these pin the wall data at the
    # lattice's and at the grid's transverse positions
    assert output_digests(tmp_path, command, threads=1, config=tiny_config_2d) \
        == RECORDED_OUTPUTS["2d"][command]


def test_simulate_with_no_sample_times(tmp_path):
    # every replica's field and blocks files hold their headers alone
    out = tmp_path / "out"
    assert main(["simulate", "--config", tiny_config(tmp_path, simulate={"sample_times": []}),
                 "--out", str(out)]) == 0
    for kind, columns in (("fields", "t,u1,comp0,comp1"), ("blocks", "t,x1,comp0,comp1")):
        paths = sorted(out.glob(f"sim_N*_{kind}.csv"))
        assert len(paths) == 4
        for path in paths:
            assert path.read_text().splitlines()[-1] == columns


VS4_MODEL = {"d": 1, "velocities": [[0.5], [-0.5], [0.25], [-0.25]],
             "alpha": ["0.3", "0.4", "0.35", "0.45"],
             "beta": ["0.6", "0.5", "0.55", "0.65"], "N": 4}
VS2_MODEL = {"d": 1, "velocities": [[0.5], [-0.5]], "alpha": ["0.3", "0.4"],
             "beta": ["0.6", "0.5"], "N": 4}
# (model, exact section) per case.  Four velocities collide, so all parts
# join them into one component; two velocities never collide, and without a
# collision part every velocity is its own component.
EXACT_CONFIGS = {
    # 3 sites x 4 velocities = 2^12 states
    "walls_driven_all_parts": (VS4_MODEL, {"N": 4, "periodic": False,
                                           "parts": ["boundary", "collision", "exclusion"],
                                           "lambda": [0.2, -0.1]}),
    "ring_with_collisions": (VS4_MODEL, {"N": 4, "periodic": True,
                                         "parts": ["collision", "exclusion"],
                                         "lambda": [0.3, 0.2]}),
    # 5 sites: two layers of 2^5 states
    "vs2_walls_all_parts": (VS2_MODEL, {"N": 6, "periodic": False,
                                        "parts": ["boundary", "collision", "exclusion"],
                                        "lambda": [0.2, -0.1]}),
    # 3 sites: four layers of 2^3 states; the audit still counts the collisions
    "vs4_walls_without_collisions": (VS4_MODEL, {"N": 4, "periodic": False,
                                                 "parts": ["boundary", "exclusion"],
                                                 "lambda": [0.2, -0.1]}),
    # 4 sites: four layers of 2^4 states, an invariant product measure
    "vs4_ring_exclusion": (VS4_MODEL, {"N": 5, "periodic": True, "parts": ["exclusion"],
                                       "lambda": [0.3, 0.2]}),
    # 5 sites: two layers of 2^5 states
    "vs2_ring_exclusion": (VS2_MODEL, {"N": 6, "periodic": True, "parts": ["exclusion"],
                                       "lambda": [0.4, -0.3]}),
}


def exact_report_digest(tmp_path, name):
    """sha256 of the exact_report.txt that `latgas exact` writes on one of
    EXACT_CONFIGS."""
    model, exact = EXACT_CONFIGS[name]
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump({"model": model, "exact": exact}))
    out = tmp_path / name
    assert main(["exact", "--config", str(path), "--out", str(out)]) == 0
    return hashlib.sha256((out / "exact_report.txt").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(EXACT_CONFIGS))
def test_exact_report_reproduces_recorded_bytes(tmp_path, name):
    assert exact_report_digest(tmp_path, name) == RECORDED_OUTPUTS["exact"][name]


def test_exact_never_builds_the_sparse_matrix(tmp_path, monkeypatch):
    # every line of the report comes from the rate table
    def no_matrix(gen):
        raise AssertionError("latgas exact built the CSR matrix")

    monkeypatch.setattr(ExactGenerator, "matrix", property(no_matrix))
    exact_report_digest(tmp_path, "walls_driven_all_parts")


@pytest.mark.parametrize("exact,message", [
    ({"N": 1}, "exact.N must be an integer >= 2"),
    ({"N": 0}, "exact.N must be an integer >= 2"),
    ({"parts": ["exclusion", "drift"]}, "exact.parts must be a subset"),
    ({"lambda": ["a", 1]}, "exact.lambda needs 2 numbers"),
    ({"lambda": [0.1]}, "exact.lambda needs 2 numbers"),
    ({"periodic": "no"}, "exact.periodic has wrong type str"),
    # a ring has no walls, so no boundary events to build
    ({"periodic": True, "parts": ["boundary"]}, "exact.parts holds boundary"),
    ({"periodic": True, "parts": ["boundary", "exclusion"]}, "exact.parts holds boundary"),
    ({"parts": ["exclusion", "exclusion", "boundary"]}, "exact.parts must list each part once"),
    ({"parts": ["collision", "collision"]}, "exact.parts must list each part once"),
])
def test_exact_section_errors_exit_2(tmp_path, capsys, exact, message):
    path = tiny_config(tmp_path, exact=exact)
    assert main(["exact", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("periodic,parts", [
    (False, ("boundary", "collision", "exclusion")), (True, ("collision", "exclusion"))])
def test_exact_parts_default_to_the_lattices_dynamics(tmp_path, periodic, parts):
    config = yaml.safe_load(pathlib.Path(tiny_config(tmp_path)).read_text())
    config["exact"] = {"N": 4, "periodic": periodic}
    assert parse_config(config).exact["parts"] == parts
    path = tmp_path / "default.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["exact", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "exact_report.txt").read_text()
    assert f"parts: {' '.join(parts)}\n" in report


def test_exact_parts_read_in_one_order(tmp_path):
    # two orderings of one subset give the same parts and the same report,
    # but for the hash of the config text
    reports = []
    for i, listed in enumerate((["exclusion", "boundary"], ["boundary", "exclusion"])):
        config = yaml.safe_load(pathlib.Path(tiny_config(tmp_path)).read_text())
        config["exact"] = {"N": 4, "parts": listed}
        assert parse_config(config).exact["parts"] == ("boundary", "exclusion")
        path = tmp_path / f"order{i}.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / f"out{i}"
        assert main(["exact", "--config", str(path), "--out", str(out)]) == 0
        reports.append([line for line in (out / "exact_report.txt").read_text().splitlines()
                        if not line.startswith("config_hash:")])
    assert "parts: boundary exclusion" in reports[0]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("model,key", [
    ({"d": 0}, "model.d"),
    ({"N": 1}, "model.N"),
    ({"N": [4, 1]}, "model.N"),
    ({"replicas": 0}, "model.replicas"),
    ({"seed": "x"}, "model.seed"),
    ({"velocities_file": "v.txt"}, "unknown key(s) ['velocities_file'] under model"),
    ({"alpha": ["0.3"]}, "model.alpha"),
    ({"alpha": None}, "model.alpha"),
    ({"velocities": None}, "missing required key model.velocities"),
])
def test_model_section_errors_exit_2(tmp_path, capsys, model, key):
    # a None value deletes the key
    path = pathlib.Path(tiny_config(tmp_path))
    config = yaml.safe_load(path.read_text())
    config["model"].update(model)
    config["model"] = {k: v for k, v in config["model"].items() if v is not None}
    path.write_text(yaml.safe_dump(config))
    assert main(["exact", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# One velocity at rest: the conserved vectors (1, 0) span a line, so the hull
# U has no interior and the (rho, p) parametrization is degenerate.  Eighteen
# velocities pass the cap of 16 on velocity sets, which is checked before the
# collision table or the hull is built.
AT_REST = [[0.0]]
EIGHTEEN = [[s * k / 18] for k in range(1, 10) for s in (1, -1)]


@pytest.mark.parametrize("command,velocities,message", [
    ("hydro", AT_REST, "not full-dimensional"),
    ("simulate", AT_REST, "not full-dimensional"),
    ("rate", AT_REST, "not full-dimensional"),
    ("hydro", EIGHTEEN, "capped at 16 velocities"),
    ("simulate", EIGHTEEN, "capped at 16 velocities"),
])
def test_velocity_sets_without_a_hull_exit_2(tmp_path, capsys, command, velocities,
                                              message):
    path = tiny_config(tmp_path)
    config = yaml.safe_load(pathlib.Path(path).read_text())
    nv = len(velocities)
    config["model"].update(velocities=velocities, alpha=["0.3"] * nv, beta=["0.6"] * nv)
    pathlib.Path(path).write_text(yaml.safe_dump(config))
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_exact_rejects_a_velocity_set_the_model_rejects(tmp_path, capsys):
    # 2 x 1/4 = 1/8 + 3/8: a fireable collision with a repeated incoming slot
    path = tiny_config(tmp_path, exact={"N": 2})
    config = yaml.safe_load(pathlib.Path(path).read_text())
    velocities = [[s * k / 8] for k in (1, 2, 3) for s in (1, -1)]
    config["model"].update(velocities=velocities, alpha=["0.3"] * 6, beta=["0.6"] * 6)
    pathlib.Path(path).write_text(yaml.safe_dump(config))
    assert main(["exact", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "mass-non-conserving" in capsys.readouterr().err


REFERENCE = pathlib.Path(__file__).parents[1] / "configs" / "reference.yaml"
RATE_BENCH = pathlib.Path(__file__).parents[1] / "perfbench" / "configs" / "rate.yaml"


@pytest.mark.parametrize("command,section,key,value", [
    ("simulate", "simulate", "horizon", "abc"),
    ("simulate", "simulate", "block_radius", "one"),
    ("hydro", "hydro", "m1", "x"),
    ("hydro", "hydro", "n_frames", 2.5),
    ("converge", "converge", "eps", "e"),
    ("rate", "ldp", "n_space_modes", "four"),
    ("rate", "ldp", "time_modes", ["const", "const"]),
    ("rate", "ldp", "control", [{"amplitude": "big"}]),
    ("simulate", "simulate", "block_radius", -1),
    # a given value never falls back to its default
    ("converge", "converge", "reference_m1", 0),
    ("exact", "exact", "lambda", []),
    ("converge", "converge", "grid_m1", 1),
    ("hydro", "hydro", "n_frames", 0),
    ("rate", "ldp", "n_transverse", -1),
    # numbers out of range, rejected before any work
    ("converge", "converge", "eps", 0),
    ("simulate", "simulate", "eps", 0),
    ("converge", "converge", "eps", 0.01),  # below twice the spacing 1/64 of grid_m1 = 65
    ("simulate", "simulate", "horizon", -0.1),
    ("simulate", "simulate", "sample_times", [0.0, 1.0]),  # past the horizon 0.5
    ("hydro", "hydro", "horizon", 0),
    ("hydro", "hydro", "horizon", float("nan")),
    ("rate", "hydro", "horizon", 0),
    ("rate", "hydro", "horizon", float("nan")),
    ("converge", "converge", "t_compare", -0.1),
    ("hydro", "hydro", "dt", -0.01),
    ("hydro", "hydro", "dt", float("nan")),
    # a boolean is not a number
    ("simulate", "model", "seed", True),
    ("rate", "ldp", "n_space_modes", True),
    ("converge", "converge", "eps", False),
])
def test_values_of_the_wrong_type_exit_2(tmp_path, capsys, command, section, key, value):
    config = yaml.safe_load(REFERENCE.read_text())
    config[section][key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_block_centers_outside_the_cylinder_exit_2_before_any_run(tmp_path, capsys,
                                                                 monkeypatch):
    # a block of radius 1 needs 2 <= x1 <= N - 2, so x1 = 1 fits no lattice
    def no_run(*args, **kwargs):
        raise AssertionError("a replica ran before the block centers were checked")

    monkeypatch.setattr(latgas.cli, "simulate", no_run)
    config = yaml.safe_load(REFERENCE.read_text())
    config["simulate"]["block_centers"] = [1]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "simulate.block_centers [1]" in capsys.readouterr().err


def test_block_centers_are_checked_at_every_size_before_any_run(tmp_path, capsys,
                                                                monkeypatch):
    # x1 = 20 fits N = 64 but not N = 16, listed second
    def no_run(*args, **kwargs):
        raise AssertionError("a replica ran before the block centers were checked")

    monkeypatch.setattr(latgas.cli, "simulate", no_run)
    config = yaml.safe_load(REFERENCE.read_text())
    config["model"]["N"] = [64, 16]
    config["simulate"]["block_centers"] = [20]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "a block of radius 1 at N=16" in capsys.readouterr().err
    assert not list(tmp_path.rglob("sim_*"))


def test_hydro_dt_reaches_the_f06_solve(tmp_path):
    # the controlled solve of the F06 check steps at hydro.dt, as the plain one does
    config = yaml.safe_load(RATE_BENCH.read_text())
    reports = []
    for steps in (128, 512):
        config["hydro"]["dt"] = 0.5 / steps
        path = tmp_path / f"rate{steps}.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / f"out{steps}"
        assert main(["rate", "--config", str(path), "--out", str(out)]) == 0
        f06 = (out / "f06_report.txt").read_text().splitlines()
        reports.append([line for line in f06 if not line.startswith("config_hash")])
    assert reports[0] != reports[1]


def test_reference_f06_gap_is_pinned(tmp_path):
    # the accuracy gate of a speed change: the F06 relative gap of the
    # reference config (32 modes, m1 = 129) may move only by rounding
    out = tmp_path / "out"
    assert main(["rate", "--config", str(REFERENCE), "--out", str(out)]) == 0
    assert float(manifest_line(out / "f06_report.txt", "relative_gap")[0]) == \
        pytest.approx(2.480240e-4, rel=1e-6)


def test_numbers_written_as_text_still_read():
    # PyYAML reads 1e-3 as a string; integral floats are integers
    config = yaml.safe_load(REFERENCE.read_text())
    config["converge"].update(eps="1e-3", grid_m1=65.0)
    cfg = parse_config(config)
    assert cfg.converge["eps"] == 1e-3
    assert cfg.converge["grid_m1"] == 65 and isinstance(cfg.converge["grid_m1"], int)
    assert cfg.raw["converge"]["eps"] == "1e-3"  # the hash covers the file's values


def test_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("model: [1, 2\nsimulate: {horizon: 0.1\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "cannot parse" in capsys.readouterr().err


class RecordingSection(dict):
    """A parsed config section that records each key read from it."""

    def __init__(self, values, name, reads):
        super().__init__(values)
        self.name, self.reads = name, reads

    def __getitem__(self, key):
        self.reads.add((self.name, key))
        return super().__getitem__(key)


def test_every_config_key_is_read(tmp_path, monkeypatch):
    # No key is accepted and then ignored: over the five commands, on a
    # config with a control and with one command run without --out, the keys
    # read from the parsed sections and control terms are the schema's keys.
    # `parse_config` reads the model section whole into `cfg.model`.
    reads = set()

    def recording_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        sections = {name: dict(getattr(cfg, name)) for name in _SECTIONS if name != "model"}
        sections["ldp"]["control"] = [RecordingSection(term, "ldp.control", reads)
                                      for term in sections["ldp"]["control"]]
        for name, values in sections.items():
            setattr(cfg, name, RecordingSection(values, name, reads))
        return cfg

    monkeypatch.setattr(latgas.cli, "load_config", recording_config)
    path = pathlib.Path(tiny_config(tmp_path))
    config = yaml.safe_load(path.read_text())
    config["ldp"]["control"] = [{"component": 1, "amplitude": 0.05, "space_mode": 2,
                                 "time_mode": "linear"}]
    config["output"] = {"directory": "outdir"}
    path.write_text(yaml.safe_dump(config))
    monkeypatch.chdir(tmp_path)
    for command in ("simulate", "hydro", "converge", "rate"):
        assert main([command, "--config", str(path), "--out", "out"]) == 0
    assert main(["exact", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "f06_report.txt").exists()
    assert (tmp_path / "outdir" / "exact_report.txt").exists()
    schema = {(name, key) for name, keys in _SECTIONS.items() if name != "model"
              for key in keys}
    assert reads == schema | {("ldp.control", key) for key in _CONTROL}


def fresh_python(script: str) -> list:
    """The stdout lines of `script` run in a fresh interpreter on this sys.path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True).stdout.splitlines()


def test_commands_load_no_scipy_submodule(tmp_path):
    # A command imports only what it runs.  Set-up loads neither scipy (the
    # manifest reads its version from a file; any scipy submodule costs
    # ~0.25 s), the process pool (only --threads > 1 starts one) nor
    # subprocess (only a kernel build runs one).  No command at one thread
    # loads scipy or numpy.ma (16 ms; numpy 2's `np.unique` imports it),
    # the controlled solve of `rate` included.  subprocess is not checked
    # after the commands: a first run in a fresh checkout builds the kernel.
    control = [{"component": 0, "amplitude": 0.2, "space_mode": 1, "time_mode": "const"}]
    path = tiny_config(tmp_path, ldp={"control": control})
    lines = fresh_python(
        "import sys\n"
        "from latgas.cli import main\n"
        "loaded = lambda *names: sorted(m for m in names if m in sys.modules)\n"
        "print(loaded('scipy', 'concurrent.futures', 'subprocess'))\n"
        f"path, out = {path!r}, {str(tmp_path / 'out')!r}\n"
        "for command in ('exact', 'hydro', 'rate', 'simulate', 'converge'):\n"
        "    assert main([command, '--config', path, '--out', out, '--threads', '1']) == 0\n"
        "print(loaded('scipy', 'numpy.ma'))\n"
    )
    assert (lines[0], lines[-1]) == ("[]", "[]")
    assert (tmp_path / "out" / "f06_report.txt").exists()


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_one_replica_setup_per_lattice_size(tmp_path, monkeypatch, command):
    # Model, event catalog and the densities along gamma depend on N only:
    # one RateTable and one Newton inversion of gamma per N, whatever the
    # replica count (the tiny config has two per N).
    tables, inversions = [], []

    def counting_table(model):
        tables.append(model.lattice.N)
        return RateTable(model)

    def counting_inversion(targets, *args, **kwargs):
        inversions.append(len(targets))
        return theta_field(targets, *args, **kwargs)

    monkeypatch.setattr(latgas.dynamics, "RateTable", counting_table)
    monkeypatch.setattr(latgas.cli, "theta_field", counting_inversion)
    path = tiny_config(tmp_path)
    assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                 "--threads", "1"]) == 0
    assert tables == [4, 6]
    assert inversions == [3, 5]  # the N - 1 sites of each lattice


@pytest.mark.parametrize("command", ["hydro", "converge", "simulate"])
def test_gamma_outside_the_hull_is_a_config_error(tmp_path, capsys, command):
    # rho = 2.5 exceeds 2, the largest mass of a two-velocity site: an input
    # problem found before any work, so exit 2.
    path = tiny_config(tmp_path, hydro={"gamma": ["2.5", "0.0"]})
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "hydro.gamma leaves the open hull" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hydro", "converge", "simulate"])
def test_gamma_inside_the_hull_by_less_than_the_pad_is_a_config_error(tmp_path, capsys,
                                                                      command):
    # margin 4.5e-14: inside the hull but within the solver's pad of 1e-12,
    # so every command rejects it before any work rather than the solver
    # mid-run (exit 3)
    path = tiny_config(tmp_path, hydro={"gamma": ["1e-13", "0.0"]})
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "worst margin 4.472e-14" in capsys.readouterr().err


def config_with(tmp_path, section, key, value):
    """The tiny config with `section.key` set to `value`, and an exact
    section whose boundary events read the reservoir densities."""
    path = pathlib.Path(tiny_config(tmp_path, exact={"N": 3, "periodic": False,
                                                     "parts": ["boundary", "exclusion"]}))
    config = yaml.safe_load(path.read_text())
    config[section][key] = value
    path.write_text(yaml.safe_dump(config))
    return str(path)


@pytest.mark.parametrize("command", ["exact", "hydro", "simulate"])
def test_a_nan_reservoir_density_exits_2(tmp_path, capsys, command):
    # inf - inf is NaN, which is not inside (0, 1)
    path = config_with(tmp_path, "model", "alpha", ["1e400-1e400", "0.4"])
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "reservoir density alpha[0] = nan leaves (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command,section,key,value", [
    ("exact", "model", "alpha", ["0/0", "0.4"]),
    ("simulate", "model", "alpha", ["1/0", "0.4"]),
    ("hydro", "model", "alpha", ["2.0**2000", "0.4"]),
    ("converge", "hydro", "gamma", ["0/0", "0.0"]),
])
def test_expressions_that_cannot_be_evaluated_exit_2(tmp_path, capsys, command, section,
                                                     key, value):
    path = config_with(tmp_path, section, key, value)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"cannot evaluate expression {value[0]!r}" in capsys.readouterr().err


def test_expressions_give_nan_and_inf_on_arrays_without_a_warning():
    # the range and hull checks reject them; numpy's RuntimeWarning is muted
    fn = compile_expression("1/u2 + 0*u2/u2", ["u2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = fn(np.array([[0.0], [0.5]]))
    assert np.isnan(values[0]) and values[1] == 2.0


@pytest.mark.parametrize("error", [
    ConvergenceError("Newton inversion did not reach 1e-12"),
    DomainError("could not project points into the hull interior"),
])
def test_failures_during_a_run_exit_3(tmp_path, capsys, monkeypatch, error):
    # No shipped config makes the PDE's inversion fail, so the stepper's
    # exact theta (the tiny config's two velocities are a set of d+1) raises;
    # a DomainError raised mid-run exits 3 too.
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(latgas.hydro, "exact_theta", failing)
    path = tiny_config(tmp_path)
    assert main(["hydro", "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert f"numerical failure: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("sizes,bad", [
    ([4, 17], "[17]"), ([0, 20, 40], "[0, 20, 40]"), ([], "empty")])
def test_rate_rejects_basis_sizes_outside_the_basis(tmp_path, capsys, sizes, bad):
    # n_space_modes = 2 with four time modes and two components: 16 modes.
    path = tiny_config(tmp_path, ldp={"basis_sizes": sizes})
    assert main(["rate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert bad in err
    if sizes:
        assert "1..16" in err


def test_exact_rejects_state_spaces_past_the_cap(tmp_path, capsys):
    # 12 sites x 2 velocities is 2^24 states, past the 2^20 cap: an input
    # problem found before any work, so a config error (exit 2).
    path = tiny_config(tmp_path, exact={"N": 12})
    assert main(["exact", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"cap {STATE_SPACE_CAP}" in capsys.readouterr().err


def manifest_line(path, key):
    for line in path.read_text().splitlines():
        name, _, rest = line.partition(":")
        if name == key:
            return rest.split()
    raise KeyError(key)


@pytest.mark.parametrize("command,keys", [
    ("simulate", ["4:0", "4:1", "6:0", "6:1"]),
    ("converge", ["4:0", "4:1", "6:0", "6:1"]),
    ("hydro", []),
    ("rate", []),
    ("exact", []),
])
def test_manifest_lists_the_replica_streams_drawn(tmp_path, command, keys):
    out = tmp_path / "out"
    assert main([command, "--config", tiny_config(tmp_path), "--out", str(out)]) == 0
    assert manifest_line(out / f"manifest_{command}.txt", "stream_keys") == keys


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 20240809])
def test_replica_keys_are_numpys_seed_sequence_keys(seed):
    # one pass per block gives SeedSequence's keys, for blocks at 0 and at
    # the --threads 2 offset of 192 replicas, N of one and two words, and
    # replica indices of two words
    streams = ReplicaStreams(seed)
    for N in (2, 4, 128, 2**32 + 1):
        for replicas in (range(0, 96), range(96, 192), range(2**32 - 2, 2**32 + 2)):
            want = [SeedSequence(seed, spawn_key=(N, r)).generate_state(2, np.uint64)
                    for r in replicas]
            keys = streams.keys(N, replicas)
            assert keys.dtype == np.uint64 and keys.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 20240809, 2**40 + 3])
def test_replica_streams_are_the_keyed_philox_streams(seed):
    # each re-keyed stream of a block, after an odd count of 32-bit draws on
    # the one before it, is the stream of its own new generator
    def draws(rng):
        return (rng.integers(0, 2**32, 3, dtype=np.uint32).tobytes(),
                rng.random(5).tobytes(), rng.standard_exponential(7).tobytes())

    streams = ReplicaStreams(seed)
    for N in (4, 8, 16, 128):
        for replicas in (range(0, 200, 7), range(96, 192, 5)):
            got = [draws(rng) for rng in streams.block(N, replicas)]
            assert got == [draws(Generator(Philox(SeedSequence(seed, spawn_key=(N, r)))))
                           for r in replicas]


def test_one_state_and_one_generator_per_replica_block(tmp_path, monkeypatch):
    # each `_replica_cells` task, one per N at --threads 1, builds one
    # Philox generator and derives its replicas' keys in one pass, with no
    # SeedSequence; it builds one SimState, and with it the event catalog,
    # inside the task's first `simulate` call
    built, calls = [], []

    def counting(name, make):
        def build(*args, **kwargs):
            built.append((name, len(calls)))
            return make(*args, **kwargs)
        return build

    def counting_simulate(*args, **kwargs):
        calls.append(args[1].lattice.N)
        return simulate(*args, **kwargs)

    simulate = latgas.cli.simulate
    monkeypatch.setattr(latgas.cli, "simulate", counting_simulate)
    monkeypatch.setattr(latgas.dynamics, "SimState",
                        counting("SimState", latgas.dynamics.SimState))
    monkeypatch.setattr(latgas.dynamics, "RateTable", counting("RateTable", RateTable))
    monkeypatch.setattr(latgas.config, "Philox", counting("Philox", Philox))
    monkeypatch.setattr(ReplicaStreams, "keys", counting("keys", ReplicaStreams.keys))
    monkeypatch.setattr(np.random, "SeedSequence", counting("SeedSequence", SeedSequence))
    assert not hasattr(latgas.config, "SeedSequence")
    path = tiny_config(tmp_path, model={"N": [4, 6, 8], "replicas": 3})
    assert main(["converge", "--config", path, "--out", str(tmp_path / "out"),
                 "--threads", "1"]) == 0
    assert calls == [4, 4, 4, 6, 6, 6, 8, 8, 8]
    # (what, simulate calls begun when it was built)
    assert built == [("Philox", 0), ("keys", 0), ("SimState", 1), ("RateTable", 1),
                     ("Philox", 3), ("keys", 3), ("SimState", 4), ("RateTable", 4),
                     ("Philox", 6), ("keys", 6), ("SimState", 7), ("RateTable", 7)]


def test_manifest_records_scipy_and_blas_threads(tmp_path, monkeypatch):
    # rate outputs are byte-reproducible only at one BLAS thread
    import scipy

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    assert main(["exact", "--config", tiny_config(tmp_path), "--out", str(out)]) == 0
    manifest = out / "manifest_exact.txt"
    assert manifest_line(manifest, "scipy_version") == [scipy.__version__]
    assert manifest_line(manifest, "blas_threads") == [
        "OPENBLAS_NUM_THREADS=1", "OMP_NUM_THREADS=unset"]


def test_manifest_scipy_version_is_the_installed_one_without_importing_scipy(tmp_path):
    from importlib.metadata import version

    out = tmp_path / "out"
    lines = fresh_python(
        "import sys\n"
        "from latgas.cli import main\n"
        f"assert main(['exact', '--config', {tiny_config(tmp_path)!r}, '--out', {str(out)!r}]) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    assert lines[-1] == "False"
    assert manifest_line(out / "manifest_exact.txt", "scipy_version") == [version("scipy")]


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_threads_do_not_change_outputs(tmp_path, command):
    path = tiny_config(tmp_path)
    runs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main([command, "--config", path, "--out", str(out),
                     "--threads", str(threads)]) == 0
        runs[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                         if not p.name.startswith("manifest_")}
    assert runs[1] and runs[1] == runs[2]


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    out = tmp_path / "out"
    assert main(["simulate", "--config", tiny_config(tmp_path), "--out", str(out),
                 "--threads", threads]) == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_the_pool_has_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # two sizes of two replicas make four one-replica tasks at --threads 8;
    # the pool is a fake that runs each task inline and records its size, so
    # no process starts
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert output_digests(tmp_path, "simulate", threads=8) == RECORDED_OUTPUTS["simulate"]
    assert sizes == [4]


def test_a_failure_while_writing_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the second size's L1 distance fails while converge.csv is written,
    # after the first size's rows: the table is whole or absent, no
    # temporary file is left beside it, and no manifest is written
    original, calls = latgas.cli.l1_distance, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise NumericalFailure("the second size fails")
        return original(*args)

    monkeypatch.setattr(latgas.cli, "l1_distance", failing)
    out = tmp_path / "out"
    assert main(["converge", "--config", tiny_config(tmp_path), "--out", str(out)]) == 3
    assert "the second size fails" in capsys.readouterr().err
    assert len(calls) == 2 and list(out.iterdir()) == []


def test_every_output_has_the_mode_of_a_plain_open(tmp_path):
    # the manifest included: no file is a private (0600) temporary file
    probe = tmp_path / "probe"
    probe.write_text("")
    out, path = tmp_path / "out", tiny_config(tmp_path)
    for command in COMMANDS:
        assert main([command, "--config", path, "--out", str(out)]) == 0
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert {f"manifest_{command}.txt" for command in COMMANDS} < set(modes)
    assert set(modes.values()) == {stat.S_IMODE(probe.stat().st_mode)}


def test_a_failed_run_leaves_no_earlier_manifest(tmp_path, capsys, monkeypatch):
    # seed 2 fails on its third field table after rewriting seed 1's first
    # cell tables: the directory holds a mixed set, so the manifest that
    # listed seed 1's files must be gone
    out, path = tmp_path / "out", tiny_config(tmp_path)
    assert main(["simulate", "--config", path, "--out", str(out), "--seed", "1"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    original, calls = latgas.cli.field_rows, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise NumericalFailure("the third table fails")
        return original(*args)

    monkeypatch.setattr(latgas.cli, "field_rows", failing)
    assert main(["simulate", "--config", path, "--out", str(out), "--seed", "2"]) == 3
    assert "the third table fails" in capsys.readouterr().err
    now = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(now) == set(first) - {"manifest_simulate.txt"}
    assert now["sim_N4_r0_fields.csv"] != first["sim_N4_r0_fields.csv"]


def test_a_run_that_exits_2_leaves_the_directory_as_it_was(tmp_path):
    # the basis sizes are checked after the config loads and before any work
    out = tmp_path / "out"
    assert main(["rate", "--config", tiny_config(tmp_path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "manifest_rate.txt" in before
    bad = tiny_config(tmp_path, ldp={"basis_sizes": [99]})
    assert main(["rate", "--config", bad, "--out", str(out)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["rate", "--config", bad, "--out", str(tmp_path / "new")]) == 2
    assert not (tmp_path / "new").exists()


RUN_LINES = ("stream_keys", "event_loop", "n_events", "kind_counts", "candidates")


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_manifest_records_each_cell_event_counts(tmp_path, command):
    # Every cell must record events.  Each of the four reservoir slots flips
    # at rate at least min(alpha_v, 1 - alpha_v) or min(beta_v, 1 - beta_v):
    # 0.3 + 0.4 + 0.4 + 0.5 = 1.6 in all, times N^2 on the macroscopic clock.
    # So P(no event by T) <= exp(-1.6 N^2 T), for N = 4 exp(-32) = 1.3e-14 at
    # T = 1.25; the tiny config's horizon 0.05 leaves about 3% per cell.
    path = tiny_config(tmp_path, simulate={"horizon": 1.25},
                       converge={"t_compare": 1.25})
    lines = {}
    for threads in (1, 2):
        manifest = tmp_path / f"threads{threads}" / f"manifest_{command}.txt"
        assert main([command, "--config", path, "--out", str(manifest.parent),
                     "--threads", str(threads)]) == 0
        lines[threads] = {key: manifest_line(manifest, key) for key in RUN_LINES}
    assert lines[1] == lines[2]
    keys = lines[1]["stream_keys"]
    assert lines[1]["event_loop"] in (["compiled"], ["python"])
    events = dict(item.split("=") for item in lines[1]["n_events"])
    kinds = dict(item.split("=") for item in lines[1]["kind_counts"])
    candidates = dict(item.split("=") for item in lines[1]["candidates"])
    assert list(events) == list(kinds) == list(candidates) == keys
    for key in keys:
        assert int(events[key]) > 0
        assert sum(int(k) for k in kinds[key].split("/")) == int(events[key])
        # every event is a read candidate, and so is the first one past the horizon
        assert int(candidates[key]) > int(events[key])


def test_manifest_has_no_event_lines_without_simulation(tmp_path):
    out = tmp_path / "out"
    assert main(["exact", "--config", tiny_config(tmp_path), "--out", str(out)]) == 0
    for key in RUN_LINES[1:]:
        with pytest.raises(KeyError):
            manifest_line(out / "manifest_exact.txt", key)


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_outputs_without_a_compiler_are_the_same_bytes(tmp_path, monkeypatch, command):
    path = tiny_config(tmp_path)
    runs, lines = {}, {}
    for name in ("default", "no_compiler"):
        if name == "no_compiler":
            monkeypatch.setattr(eventloop, "_kernel", None)
            monkeypatch.setattr(eventloop, "CACHE_DIR", str(tmp_path / "cache"))
            monkeypatch.setattr(eventloop, "find_compiler", lambda: None)
        out = tmp_path / name
        assert main([command, "--config", path, "--out", str(out)]) == 0
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()
                      if not p.name.startswith("manifest_")}
        lines[name] = {key: manifest_line(out / f"manifest_{command}.txt", key)
                       for key in RUN_LINES}
    assert runs["default"] and runs["default"] == runs["no_compiler"]
    assert lines["no_compiler"].pop("event_loop") == ["python"]
    lines["default"].pop("event_loop")
    assert lines["default"] == lines["no_compiler"]


def test_seed_flag_is_the_config_seed(tmp_path):
    # --seed 3 runs the config with model.seed: 3: the manifest records that
    # master seed and the config hash of the file that states it.
    path = tiny_config(tmp_path)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "flag"),
                 "--seed", "3"]) == 0
    stated = tiny_config(tmp_path, model={"seed": 3})
    assert main(["simulate", "--config", stated, "--out", str(tmp_path / "file")]) == 0
    flag, file = (tmp_path / name / "manifest_simulate.txt" for name in ("flag", "file"))
    assert manifest_line(flag, "master_seed") == ["3"]
    assert manifest_line(flag, "config_hash") == manifest_line(file, "config_hash")


def tiny_config_2d(tmp_path):
    """A small d = 2 four-velocity config whose alpha varies across the wall."""
    config = {
        "model": {"d": 2, "velocities": [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]],
                  "alpha": ["0.3 + 0.1*sin(2*pi*u2)", "0.4", "0.35", "0.45"],
                  "beta": ["0.6", "0.5", "0.55", "0.65"],
                  "N": [4, 6], "seed": 3, "replicas": 2},
        "simulate": {"horizon": 0.05, "sample_times": [0.0, 0.05], "eps": 0.25,
                     "grid_m1": 9},
        "hydro": {"mt": 8, "m1": 9, "horizon": 0.05, "n_frames": 4},
        "converge": {"t_compare": 0.05, "eps": 0.25, "grid_m1": 9, "reference_m1": 9,
                     "n_frames": 4},
    }
    path = tmp_path / "tiny2d.yaml"
    path.write_text(yaml.safe_dump(config))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_linear_gamma_in_two_dimensions(tmp_path, command):
    # The lattice's transverse positions (multiples of 1/N) are not the
    # grid's (multiples of 1/mt), so linear gamma reads the wall data at
    # each site's own transverse position.
    assert main([command, "--config", tiny_config_2d(tmp_path),
                 "--out", str(tmp_path / "out")]) == 0


def test_lattice_walls_are_the_wall_data_at_each_site(tmp_path):
    # N = mt = 4: the lattice's transverse positions are the grid's nodes, so
    # each site's row is the wall data of its own transverse node.
    cfg = parse_config(yaml.safe_load(pathlib.Path(tiny_config_2d(tmp_path)).read_text()))
    model = build_model(cfg, 4)
    a, b = lattice_walls(model)
    walls = BoundaryData.from_profiles(model.profiles, model.vset, Grid(2, 3, 4))
    transverse = model.lattice.all_coords()[:, 1]
    assert a.shape == b.shape == (model.lattice.n_sites, 3)
    assert np.array_equal(a, walls.a[transverse]) and np.array_equal(b, walls.b[transverse])
    assert len(np.unique(a[:, 0])) > 1

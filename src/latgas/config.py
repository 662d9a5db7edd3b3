"""Experiment configuration: YAML schema, safe expression parsing, manifests.

A config file is a YAML mapping with sections `model`, `simulate`, `hydro`,
`converge`, `ldp`, `exact`, `output`.  Unknown keys anywhere, and values of
the wrong type, are rejected with their full path.  Reservoir profiles and
initial profiles are restricted closed-form expressions (numbers, + - * / **,
sin, cos, pi, and the allowed coordinates), parsed through the ast module with
a strict whitelist so they stay twice continuously differentiable and safe to
evaluate.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import scipy
import yaml
from numpy.random import Generator, Philox, SeedSequence

from .errors import ConfigError
from .generator import ALL_PARTS
from .velocities import VelocitySet, load_velocity_set

_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos}
_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow}


def compile_expression(src: str, variables: list):
    """Compile a restricted arithmetic expression into a vectorized callable.

    `variables` lists the coordinate names in order; the returned callable
    takes an array (..., len(variables)) and returns an array (...).
    """
    try:
        tree = ast.parse(str(src), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc}") from None

    def check(node):
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp):
            if type(node.op) not in _ALLOWED_BINOPS:
                raise ConfigError(f"operator not allowed in {src!r}")
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.UAdd, ast.USub)):
                raise ConfigError(f"operator not allowed in {src!r}")
            check(node.operand)
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _ALLOWED_FUNCS
                    or node.keywords or len(node.args) != 1):
                raise ConfigError(f"only sin(..)/cos(..) calls allowed in {src!r}")
            check(node.args[0])
        elif isinstance(node, ast.Name):
            if node.id != "pi" and node.id not in variables:
                raise ConfigError(
                    f"unknown name {node.id!r} in {src!r}; allowed: pi, "
                    + ", ".join(variables)
                )
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigError(f"non-numeric constant in {src!r}")
        else:
            raise ConfigError(f"construct {type(node).__name__} not allowed in {src!r}")

    check(tree)
    code = compile(tree, "<profile-expression>", "eval")

    def fn(coords):
        coords = np.asarray(coords, dtype=float)
        env = {"pi": np.pi, **_ALLOWED_FUNCS}
        for i, name in enumerate(variables):
            env[name] = coords[..., i]
        out = eval(code, {"__builtins__": {}}, env)  # noqa: S307 - whitelisted AST
        return np.broadcast_to(np.asarray(out, dtype=float), coords.shape[:-1]).copy()

    return fn


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a mapping")
    return obj


def _check_keys(obj: dict, allowed: set, path: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under {path}")


def _get(obj, key, path, kind=None, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key {path}.{key}")
        return default
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"{path}.{key} has wrong type {type(val).__name__}")
    return val


@dataclass
class ModelConfig:
    d: int
    velocities: VelocitySet
    alpha_exprs: list
    beta_exprs: list
    n_values: list
    seed: int
    replicas: int

    def profile_callables(self):
        names = [f"u{i}" for i in range(2, self.d + 1)]
        alpha = [compile_expression(e, names) for e in self.alpha_exprs]
        beta = [compile_expression(e, names) for e in self.beta_exprs]
        return alpha, beta


@dataclass
class ExperimentConfig:
    raw: dict
    model: ModelConfig
    simulate: dict = field(default_factory=dict)
    hydro: dict = field(default_factory=dict)
    converge: dict = field(default_factory=dict)
    ldp: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _integer(val) -> int:
    if int(val) != float(val):
        raise ValueError
    return int(val)


def _count(val) -> int:
    if _integer(val) < 0:
        raise ValueError
    return int(val)


def _wavenumber(val) -> int:
    if _integer(val) < 1:
        raise ValueError
    return int(val)


def _list_of(read):
    def read_list(val) -> list:
        if not isinstance(val, list):
            raise TypeError
        return [read(x) for x in val]
    return read_list


def _read_section(sec: dict, readers: dict, path: str) -> dict:
    """A copy of the section with each value read by its key's reader (None
    keeps it as is) and null values left out, so their keys take their
    defaults; a value its reader rejects is a ConfigError naming its path."""
    _check_keys(sec, set(readers), path)
    out = {}
    for key, val in sec.items():
        try:
            if val is not None:
                out[key] = val if readers[key] is None else readers[key](val)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.{key} has wrong type or value {val!r}") from None
    return out


# Each section's keys with the reader of their values.  Sections are read
# into copies, so `raw`, and with it the config hash, keeps the file's values.
_TOP_KEYS = {"model", "simulate", "hydro", "converge", "ldp", "exact", "output"}
_MODEL_KEYS = {"d", "velocities", "velocities_file", "alpha", "beta", "N",
               "seed", "replicas"}
_SECTIONS = {
    "simulate": {"horizon": float, "sample_times": _list_of(float), "n_samples": _integer,
                 "eps": float, "grid_m1": _integer, "block_radius": _count,
                 "block_centers": lambda v: v if v == "auto" else _list_of(_integer)(v)},
    "hydro": {"m1": _integer, "mt": _integer, "horizon": float, "n_frames": _integer,
              "dt": float, "refine": None, "gamma": None},
    "converge": {"t_compare": float, "eps": float, "grid_m1": _integer,
                 "reference_m1": _integer, "n_frames": _integer},
    "ldp": {"n_space_modes": _integer, "time_modes": None,
            "n_transverse": _integer, "basis_sizes": _list_of(_integer), "control": None},
    "exact": {"N": None, "periodic": None, "parts": None, "lambda": None},
    "output": {"directory": None},
}
_CONTROL_KEYS = {"component": _integer, "amplitude": float, "space_mode": _wavenumber,
                 "time_mode": None}


def load_config(path, seed=None, replicas=None) -> ExperimentConfig:
    """Read and parse a config file; a given `seed` or `replicas` (--seed,
    --replicas) replaces model.seed or model.replicas before the parse."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
    model = raw.get("model") if isinstance(raw, dict) else None
    for key, val in (("seed", seed), ("replicas", replicas)):
        if val is not None and isinstance(model, dict):
            model[key] = int(val)
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_config(raw, base_dir: str = ".") -> ExperimentConfig:
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _TOP_KEYS, "config")
    model_raw = _require_mapping(_get(raw, "model", "config", required=True), "model")
    _check_keys(model_raw, _MODEL_KEYS, "model")

    d = _get(model_raw, "d", "model", int, required=True)
    if d < 1:
        raise ConfigError("model.d must be >= 1")
    if "velocities" in model_raw and "velocities_file" in model_raw:
        raise ConfigError("give model.velocities or model.velocities_file, not both")
    if "velocities_file" in model_raw:
        vpath = model_raw["velocities_file"]
        if not os.path.isabs(vpath):
            vpath = os.path.join(base_dir, vpath)
        try:
            vset = load_velocity_set(vpath)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"model.velocities_file: {exc}") from None
    else:
        rows = _get(model_raw, "velocities", "model", list, required=True)
        try:
            vset = VelocitySet(np.array(rows, dtype=float).reshape(len(rows), -1))
        except ValueError as exc:
            raise ConfigError(f"model.velocities: {exc}") from None
    if vset.d != d:
        raise ConfigError(f"velocity set is {vset.d}-dimensional, model.d = {d}")

    alpha = _get(model_raw, "alpha", "model", list, required=True)
    beta = _get(model_raw, "beta", "model", list, required=True)
    if len(alpha) != len(vset) or len(beta) != len(vset):
        raise ConfigError("model.alpha/beta need one entry per velocity")

    n_raw = _get(model_raw, "N", "model", required=True)
    n_values = [n_raw] if isinstance(n_raw, int) else list(n_raw)
    if (not n_values or not all(isinstance(n, int) and n >= 2 for n in n_values)):
        raise ConfigError("model.N must be an integer >= 2 or a list of them")

    seed = _get(model_raw, "seed", "model", int, default=0)
    replicas = _get(model_raw, "replicas", "model", int, default=1)
    if replicas < 1:
        raise ConfigError("model.replicas must be >= 1")

    model = ModelConfig(d=d, velocities=vset,
                        alpha_exprs=[str(a) for a in alpha],
                        beta_exprs=[str(b) for b in beta],
                        n_values=n_values, seed=seed, replicas=replicas)
    # compile now so bad expressions fail at load time
    model.profile_callables()

    sections = {name: _read_section(_require_mapping(raw.get(name) or {}, name), readers, name)
                for name, readers in _SECTIONS.items()}
    control = sections["ldp"].get("control")
    if control:
        if not isinstance(control, list):
            raise ConfigError("ldp.control must be a list of mappings")
        sections["ldp"]["control"] = [
            _read_section(_require_mapping(term, f"ldp.control[{i}]"), _CONTROL_KEYS,
                          f"ldp.control[{i}]")
            for i, term in enumerate(control)]
    n_exact = sections["exact"].get("N", 3)
    if not isinstance(n_exact, int) or n_exact < 2:
        raise ConfigError("exact.N must be an integer >= 2")
    parts = _get(sections["exact"], "parts", "exact", list, default=[])
    if any(part not in ALL_PARTS for part in parts):
        raise ConfigError(f"exact.parts must be a subset of {list(ALL_PARTS)}, got {parts}")
    _get(sections["exact"], "periodic", "exact", bool)
    lam = _get(sections["exact"], "lambda", "exact", list, default=[0.0] * (d + 1))
    if len(lam) != d + 1 or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                    for x in lam):
        raise ConfigError(f"exact.lambda needs {d + 1} numbers, got {lam}")

    return ExperimentConfig(raw=raw, model=model, simulate=sections["simulate"],
                            hydro=sections["hydro"], converge=sections["converge"],
                            ldp=sections["ldp"], exact=sections["exact"],
                            output=sections["output"])


def replica_rng(seed: int, *key) -> Generator:
    """Independent, reproducible stream for one (N, replica, ...) cell.

    Streams come from a counter-based bit generator keyed by the master seed
    and the spawn key, so replicas are independent and order-insensitive.
    """
    ss = SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return Generator(Philox(ss))


def write_manifest(path, command: str, config: ExperimentConfig, cells: list,
                   outputs: list, wallclock: float) -> None:
    """Atomically write the run manifest (temp file + rename).

    `cells` holds (stream key, run record) per simulated (N, replica) cell,
    in cell order; a run record has the `event_loop` that ran ("compiled" or
    "python"), `n_events`, `kind_counts` (exclusion, collision, boundary) and
    the `candidates` read, so n_events / candidates is the cell's acceptance.
    Commands that simulate list them in `event_loop`, `n_events`,
    `kind_counts` and `candidates` lines, per cell as key=value.
    `blas_threads` records the OPENBLAS_NUM_THREADS and OMP_NUM_THREADS values
    the run saw (`unset` if absent): outputs that go through BLAS, such as
    `rate_report.txt`, are byte-reproducible only at one BLAS thread.
    """
    import latgas

    lines = [
        "format: latgas-run-manifest v1",
        f"command: {command}",
        f"config_hash: {config.config_hash}",
        f"package_version: {latgas.__version__}",
        f"numpy_version: {np.__version__}",
        f"scipy_version: {scipy.__version__}",
        " ".join(["blas_threads:"] + [f"{name}={os.environ.get(name, 'unset')}" for name
                                      in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]),
        f"master_seed: {config.model.seed}",
        " ".join(["stream_keys:"] + [key for key, _ in cells]),
    ]
    if cells:
        lines += [
            "event_loop: " + " ".join(sorted({run["event_loop"] for _, run in cells})),
            " ".join(["n_events:"] + [f"{key}={run['n_events']}" for key, run in cells]),
            " ".join(["kind_counts:"] + [f"{key}=" + "/".join(map(str, run["kind_counts"]))
                                         for key, run in cells]),
            " ".join(["candidates:"] + [f"{key}={run['candidates']}" for key, run in cells]),
        ]
    lines += [
        "outputs: " + " ".join(str(o) for o in outputs),
        f"wallclock_seconds: {wallclock:.3f}",
        f"created_unix: {time.time():.0f}",
    ]
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".manifest-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

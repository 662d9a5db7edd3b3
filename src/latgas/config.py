"""Experiment configuration: YAML schema, safe expression parsing, manifests.

A config file is a YAML mapping with sections `model`, `simulate`, `hydro`,
`converge`, `ldp`, `exact`, `output`.  Unknown keys anywhere are rejected with
their full path.  Reservoir profiles and initial profiles are restricted
closed-form expressions (numbers, + - * / **, sin, cos, pi, and the allowed
coordinates), parsed through the ast module with a strict whitelist so they
stay twice continuously differentiable and safe to evaluate.
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
    base_dir: str = "."  # resolves a relative model.velocities_file

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


_TOP_KEYS = {"model", "simulate", "hydro", "converge", "ldp", "exact", "output"}
_MODEL_KEYS = {"d", "velocities", "velocities_file", "alpha", "beta", "N",
               "seed", "replicas"}
_SIM_KEYS = {"horizon", "sample_times", "n_samples", "eps", "grid_m1",
             "block_radius", "block_centers"}
_HYDRO_KEYS = {"m1", "mt", "horizon", "n_frames", "dt", "refine", "gamma"}
_CONV_KEYS = {"t_compare", "eps", "grid_m1", "reference_m1", "n_frames"}
_LDP_KEYS = {"n_space_modes", "time_modes", "n_transverse", "basis_sizes", "control"}
_EXACT_KEYS = {"N", "periodic", "parts", "lambda"}
_OUTPUT_KEYS = {"directory"}


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
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

    sections = {}
    for name, keys in (("simulate", _SIM_KEYS), ("hydro", _HYDRO_KEYS),
                       ("converge", _CONV_KEYS), ("ldp", _LDP_KEYS),
                       ("exact", _EXACT_KEYS), ("output", _OUTPUT_KEYS)):
        sec = raw.get(name, {}) or {}
        sec = _require_mapping(sec, name)
        _check_keys(sec, keys, name)
        sections[name] = sec
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
                            output=sections["output"], base_dir=base_dir)


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

"""Experiment configuration: YAML schema, safe expression parsing, and the
output files.

A config file is a YAML mapping with sections `model`, `simulate`, `hydro`,
`converge`, `ldp`, `exact`, `output`.  `_SECTIONS` holds every key with its
reader and default; unknown keys anywhere, and values their reader rejects,
are rejected with their full path.  Reservoir profiles and initial profiles
are restricted closed-form expressions (numbers, + - * / **, sin, cos, pi, and
the allowed coordinates), parsed through the ast module with a strict
whitelist so they stay twice continuously differentiable and safe to evaluate.

Every file a command writes goes through `created`, so it is whole or absent:
it is written under a temporary name beside its path and renamed into place
only when complete.  Tables are long-format CSV (`write_csv`: `# ` comment
lines, the column names, the rows); reports and the run manifest are
`key: value` lines under a `format: latgas-<kind> v1` line (`write_report`).
A run without a manifest is an incomplete run.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import importlib.util
import json
import os
import time
from dataclasses import dataclass

import numpy as np
import yaml
from numpy.random import SFC64, Generator

from .dynamics import ALL_PARTS
from .errors import ConfigError
from .velocities import VelocitySet

_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos}
_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow}


def compile_expression(src: str, variables: list):
    """Compile a restricted arithmetic expression into a vectorized callable.

    `variables` lists the coordinate names in order; the returned callable
    takes an array (..., len(variables)) and returns an array (...).  An
    arithmetic error ("0/0") or complex value raises ConfigError; NaN and inf
    of arrays pass, unwarned, to the range and hull checks.
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
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out = np.asarray(eval(code, {"__builtins__": {}}, env), dtype=float)  # noqa: S307
        except (ArithmeticError, TypeError) as exc:
            raise ConfigError(f"cannot evaluate expression {src!r}: {exc}") from None
        return np.broadcast_to(out, coords.shape[:-1]).copy()

    return fn


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a mapping")
    return obj


def _check_keys(obj: dict, allowed, path: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under {path}")


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
    simulate: dict
    hydro: dict
    converge: dict
    ldp: dict
    exact: dict
    output: dict

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


# --- readers: each takes a given value and returns it read, or raises
# TypeError or ValueError; a `_Rejected` carries the reason for the message;
# a boolean is not a number

class _Rejected(ValueError):
    pass


def _integer(val) -> int:
    if isinstance(val, bool) or int(val) != float(val):
        raise ValueError
    return int(val)


def _above(low: float):
    def read(val) -> float:
        if not isinstance(val, bool) and low < (x := float(val)) < np.inf:
            return x
        raise _Rejected(f"must be a finite number > {low}")
    return read


def _at_least(low: int):
    def read(val) -> int:
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            if (n := _integer(val)) >= low:
                return n
        raise _Rejected(f"must be an integer >= {low}")
    return read


def _of_type(kind):
    def read(val):
        if not isinstance(val, kind):
            raise _Rejected(f"has wrong type {type(val).__name__}")
        return val
    return read


def _list_of(read):
    def read_list(val) -> list:
        if not isinstance(val, list):
            raise TypeError
        return [read(x) for x in val]
    return read_list


def _lattice_sizes(val) -> list:
    with contextlib.suppress(_Rejected):
        if sizes := [_at_least(2)(n) for n in (val if isinstance(val, list) else [val])]:
            return sizes
    raise _Rejected("must be an integer >= 2 or a list of them")


def _block_centers(val):
    return val if val == "auto" else _list_of(_integer)(val)


def _gamma(val):
    if val != "linear" and not isinstance(val, list):
        raise _Rejected("must be 'linear' or a list of expressions")
    return val


def _parts(val) -> tuple:
    """The listed parts in `ALL_PARTS` order, so that every ordering of one
    subset reads and reports the same."""
    if not isinstance(val, list) or not all(part in ALL_PARTS for part in val):
        raise _Rejected(f"must be a subset of {list(ALL_PARTS)}, got {val}")
    if len(set(val)) < len(val):
        raise _Rejected(f"must list each part once, got {val}")
    return tuple(part for part in ALL_PARTS if part in val)


def _control_terms(val) -> list:
    if not isinstance(val, list):
        raise _Rejected("must be a list of mappings")
    return [_read_section(term, _CONTROL, f"ldp.control[{i}]") for i, term in enumerate(val)]


def _read_section(sec, schema: dict, path: str) -> dict:
    """The section with every key of its schema: a given value read by the
    key's reader, a missing or null one set to the key's default.  A value
    its reader rejects, or a missing required one, is a ConfigError naming
    its path."""
    sec = {} if sec is None else _require_mapping(sec, path)
    _check_keys(sec, schema, path)
    out = {}
    for key, (read, default) in schema.items():
        val = sec.get(key)
        if val is None and default is _REQUIRED:
            raise ConfigError(f"missing required key {path}.{key}")
        try:
            out[key] = default if val is None else read(val)
        except ConfigError:
            raise
        except _Rejected as exc:
            raise ConfigError(f"{path}.{key} {exc}") from None
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{path}.{key} has wrong type or value {val!r}") from None
    return out


# Every key of every section with its (reader, default); None defers the
# value to the command (hydro.mt, hydro.dt, ldp.basis_sizes) or to
# `parse_config`, which fills the defaults that depend on other keys.
# Sections are read into copies, so `raw`, and with it the config hash, keeps
# the file's values.
_REQUIRED = object()
_NODES = _at_least(3)  # a grid axis's node count
# the default ldp.time_modes: constant, linear, and one period of cos and sin
TIME_MODES = ("const", "linear", "cos:1", "sin:1")
_SECTIONS = {
    "model": {"d": (_at_least(1), _REQUIRED), "velocities": (_of_type(list), _REQUIRED),
              "alpha": (_list_of(str), _REQUIRED), "beta": (_list_of(str), _REQUIRED),
              "N": (_lattice_sizes, _REQUIRED), "seed": (_at_least(0), 0),
              "replicas": (_at_least(1), 1)},
    "simulate": {"horizon": (_above(0), 0.5), "sample_times": (_list_of(_above(-np.inf)), None),
                 "eps": (_above(0), 0.1), "grid_m1": (_NODES, 65),
                 "block_radius": (_at_least(0), 1), "block_centers": (_block_centers, "auto")},
    "hydro": {"m1": (_NODES, 129), "mt": (_NODES, None), "horizon": (_above(0), 0.5),
              "n_frames": (_at_least(1), 256), "dt": (_above(0), None),
              "gamma": (_gamma, "linear")},
    "converge": {"t_compare": (_above(0), 0.25), "eps": (_above(0), 0.1),
                 "grid_m1": (_NODES, 65),
                 "reference_m1": (_NODES, None), "n_frames": (_at_least(1), 64)},
    "ldp": {"n_space_modes": (_at_least(1), 4), "time_modes": (_list_of(str), TIME_MODES),
            "n_transverse": (_at_least(0), 0), "basis_sizes": (_list_of(_integer), None),
            "control": (_control_terms, ())},
    "exact": {"N": (_at_least(2), 3), "periodic": (_of_type(bool), False),
              "parts": (_parts, None), "lambda": (_of_type(list), None)},
    "output": {"directory": (str, "out")},
}
_CONTROL = {"component": (_integer, 0), "amplitude": (_above(-np.inf), 0.1),
            "space_mode": (_at_least(1), 1), "time_mode": (str, "const")}


def load_config(path, seed=None) -> ExperimentConfig:
    """Read and parse a config file; a given `seed` (--seed) replaces
    model.seed before the parse."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
    model = raw.get("model") if isinstance(raw, dict) else None
    if seed is not None and isinstance(model, dict):
        model["seed"] = int(seed)
    return parse_config(raw)


def parse_config(raw) -> ExperimentConfig:
    """Every section read through its schema, then the checks and defaults
    that tie keys to each other."""
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _SECTIONS, "config")
    sections = {name: _read_section(raw.get(name), schema, name)
                for name, schema in _SECTIONS.items()}
    m = sections.pop("model")
    rows = m["velocities"]
    try:
        vset = VelocitySet(np.array(rows, dtype=float).reshape(len(rows), -1))
    except ValueError as exc:
        raise ConfigError(f"model.velocities: {exc}") from None
    d = m["d"]
    if vset.d != d:
        raise ConfigError(f"velocity set is {vset.d}-dimensional, model.d = {d}")
    if len(m["alpha"]) != len(vset) or len(m["beta"]) != len(vset):
        raise ConfigError("model.alpha/beta need one entry per velocity")
    model = ModelConfig(d=d, velocities=vset, alpha_exprs=m["alpha"], beta_exprs=m["beta"],
                        n_values=m["N"], seed=m["seed"], replicas=m["replicas"])
    # compile now so bad expressions fail at load time
    model.profile_callables()

    simulate, converge, exact = sections["simulate"], sections["converge"], sections["exact"]
    if simulate["sample_times"] is None:
        simulate["sample_times"] = list(np.linspace(0.0, simulate["horizon"], 5))
    elif not all(0 <= t <= simulate["horizon"] for t in simulate["sample_times"]):
        raise ConfigError("simulate.sample_times must lie in [0, simulate.horizon]")
    if converge["reference_m1"] is None:
        converge["reference_m1"] = 2 * (converge["grid_m1"] - 1) + 1
    if exact["parts"] is None:
        exact["parts"] = tuple(p for p in ALL_PARTS if not exact["periodic"] or p != "boundary")
    elif exact["periodic"] and "boundary" in exact["parts"]:
        raise ConfigError("exact.parts holds boundary, but a periodic lattice has no walls")
    if exact["periodic"] and exact["N"] < 3:
        raise ConfigError("exact.N must be >= 3 on a periodic lattice, a ring of N - 1 sites")
    if exact["lambda"] is None:
        exact["lambda"] = [0.0] * (d + 1)
    lam = exact["lambda"]
    if len(lam) != d + 1 or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                    for x in lam):
        raise ConfigError(f"exact.lambda needs {d + 1} numbers, got {lam}")
    return ExperimentConfig(raw=raw, model=model, **sections)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _WORD = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _words(n: int) -> list:
    """The 32-bit words of n >= 0, lowest first ([0] for 0), as SeedSequence reads it."""
    return [n >> s & _WORD for s in range(0, max(n.bit_length(), 1), 32)]


def _mix(x, y):
    z = (_MIX_L * x - _MIX_R * y) & _WORD
    return z ^ z >> 16


class ReplicaStreams:
    """Independent, reproducible streams, one per cell (N, r) of the master
    seed `seed`, all served by one generator.

    A cell's stream is numpy's own SFC64 seeding from
    `SeedSequence(seed, spawn_key=(N, r)).generate_state(3, np.uint64)`: the
    three words a, b, c make the state (a, b, c, 1), and the first 12 outputs
    are discarded, so replicas are independent and order-insensitive.
    SeedSequence's hash is fixed, so `keys` computes the words of a block of
    replicas in one pass of that hash: the entropy words (the seed's,
    zero-padded to the pool size 4 before a spawn key, numpy gh-16539; N's;
    r's) are mixed into a pool of four under multipliers that advance per
    hash whatever the data, the seed and N once as Python ints, r as uint64
    arrays over the block.  `block` sets the one generator's state and empty
    buffer through the public `bit_generator.state` per replica and discards
    the 12 outputs: exactly the stream of
    `Generator(SFC64(SeedSequence(seed, spawn_key=(N, r))))`, which
    tests/test_cli.py checks against numpy's own SeedSequence, at a tenth of
    the cost of building that generator.  A replica's stream ends when the
    next is yielded.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = Generator(SFC64(0))

    def keys(self, N: int, replicas: range) -> np.ndarray:
        """The (len(replicas), 3) uint64 seeding words of the cells (N, r)."""
        const, mult = _INIT_A, _MULT_A

        def hashmix(value):
            nonlocal const
            value = (value ^ const) * (const := const * mult & _WORD) & _WORD
            return value ^ value >> 16

        seed = _words(self.seed)
        entropy = seed + [0] * (4 - len(seed)) + _words(N)
        pool = [hashmix(word) for word in entropy[:4]]
        for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
            pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        r = np.arange(replicas.start, replicas.stop, replicas.step, dtype=np.uint64)
        for word in entropy[4:] + [r & _WORD]:
            pool = [_mix(p, hashmix(word)) for p in pool]
        high = r >> 32  # r's second word, where r >= 2^32
        pool = [np.where(high > 0, _mix(p, hashmix(high)), p) for p in pool]
        const, mult = _INIT_B, _MULT_B  # the output hash, cycling over the pool
        out = [hashmix(pool[i % 4]) for i in range(6)]
        return np.stack([out[i] | out[i + 1] << 32 for i in range(0, 6, 2)], axis=1)

    def block(self, N: int, replicas: range):
        """The generator, re-seeded to each cell (N, r), r in `replicas`, in turn."""
        words = np.ones(4, dtype=np.uint64)
        state = {"bit_generator": "SFC64", "state": {"state": words},
                 "has_uint32": 0, "uinteger": 0}
        bits = self.rng.bit_generator
        for key in self.keys(N, replicas):
            words[:3] = key
            bits.state = state
            bits.random_raw(12)  # SFC64's own warm-up (output=False is slower)
            yield self.rng


def _scipy_version() -> str:
    """The `version = "..."` string of scipy's installed `version.py`, which
    `scipy.__version__` re-exports, read without importing scipy (no command
    uses it); `unknown` when the file cannot be read."""
    try:
        directory = importlib.util.find_spec("scipy").submodule_search_locations[0]
        with open(os.path.join(directory, "version.py")) as fh:
            for line in fh:
                if line.startswith("version = "):
                    return ast.literal_eval(line[len("version = "):].strip())
    except (AttributeError, OSError, SyntaxError, TypeError, ValueError):
        pass
    return "unknown"


@contextlib.contextmanager
def created(path, mode: str = "w"):
    """`open(path, mode)` under a temporary name in the same directory, renamed
    to `path` when the block ends and deleted if it raises, so `path` is whole
    or absent.  The file gets the mode a plain `open` gives; text is written
    with newline="", so `csv` ends its rows with its own line terminator."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path, comments, columns, rows) -> None:
    """A CSV table: each comment as a `# ` line, the column names, the rows."""
    with created(path) as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_report(path, kind: str, lines) -> None:
    """A `key: value` report: `format: latgas-<kind> v1`, then each line."""
    with created(path) as fh:
        fh.write(f"format: latgas-{kind} v1\n")
        fh.writelines(f"{line}\n" for line in lines)


def write_manifest(path, command: str, config: ExperimentConfig, cells: list,
                   outputs: list, wallclock: float) -> None:
    """Write the run manifest, a `run-manifest` report (`write_report`).

    `cells` holds (stream key, run record) per simulated (N, replica) cell,
    in cell order; a run record has the `event_loop` that ran ("compiled" or
    "python"), `n_events`, `kind_counts` (exclusion, collision, boundary) and
    the `candidates` read, so n_events / candidates is the cell's acceptance.
    Commands that simulate name the bit generator of the streams
    (`ReplicaStreams`) in a `bit_generator` line and list the run records in
    `event_loop`, `n_events`, `kind_counts` and `candidates` lines, per cell
    as key=value.
    `blas_threads` records the OPENBLAS_NUM_THREADS and OMP_NUM_THREADS values
    the run saw (`unset` if absent): outputs that go through BLAS, such as
    `rate_report.txt`, are byte-reproducible only at one BLAS thread.
    `scipy_version` is read from scipy's `version.py` (`_scipy_version`), so
    writing the manifest imports nothing.
    """
    import latgas

    lines = [
        f"command: {command}",
        f"config_hash: {config.config_hash}",
        f"package_version: {latgas.__version__}",
        f"numpy_version: {np.__version__}",
        f"scipy_version: {_scipy_version()}",
        " ".join(["blas_threads:"] + [f"{name}={os.environ.get(name, 'unset')}" for name
                                      in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]),
        f"master_seed: {config.model.seed}",
        " ".join(["stream_keys:"] + [key for key, _ in cells]),
    ]
    if cells:
        lines += [
            "bit_generator: SFC64",  # the generator of every cell's stream (ReplicaStreams)
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
    write_report(path, "run-manifest", lines)

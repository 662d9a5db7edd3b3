"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder patches public latgas names where their callers look them up
(for example `latgas.cli.simulate` or `latgas.hydro.invert_conserved`), so
nothing under src/ changes.  Each call becomes a span holding its name, start,
end, parent and a few counters read from the return value; spans stay in
memory until the run ends.  Layers are named by module: a span called
"hydro.solve" belongs to the `hydro` layer.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

LAYERS = ("dynamics", "thermo", "hydro", "ldp", "empirical", "generator", "cli")
COMMANDS = ("simulate", "rate", "exact", "converge")
FAMILIES = ("exclusion", "collision", "boundary")


# --- counters read from return values -------------------------------------------

def _simulate_attrs(res, args, kwargs):
    model = args[1] if len(args) > 1 else kwargs["model"]
    horizon = args[2] if len(args) > 2 else kwargs["horizon"]
    return {"events": int(res.n_events), "kind_counts": [int(k) for k in res.kind_counts],
            "time_scale": float(model.time_scale), "horizon": float(horizon)}


def _table_attrs(table, args, kwargs):
    return {"weights": [float(w) for w in table.weights]}


def _solve_attrs(traj, args, kwargs):
    return {"steps": int(traj.meta["n_steps"])}


def _rate_attrs(report, args, kwargs):
    return {"basis_size": int(report.basis_size),
            "gram_cond": float(np.linalg.cond(report.quad_matrix))}


def _f06_attrs(report, args, kwargs):
    return {"rel_gap": float(report.rel_gap)}


def _generator_attrs(gen, args, kwargs):
    return {"states": int(gen.n_states), "nnz": int(gen.matrix.nnz)}


# (module, attribute path, span name, counters) for every wrapped public name.
TARGETS = (
    ("latgas.cli", "simulate", "dynamics.simulate", _simulate_attrs),
    ("latgas.dynamics", "RateTable", "dynamics.rate_table", _table_attrs),
    ("latgas.cli", "sample_profile_state", "thermo.sample_profile", None),
    ("latgas.hydro", "invert_conserved", "thermo.invert", None),
    ("latgas.cli", "solve_hydro", "hydro.solve", _solve_attrs),
    ("latgas.ldp", "solve_controlled", "hydro.solve", _solve_attrs),
    ("latgas.cli", "rate_estimate", "ldp.rate_estimate", _rate_attrs),
    ("latgas.ldp", "rate_estimate", "ldp.rate_estimate", _rate_attrs),
    ("latgas.ldp", "QuadratureContext", "ldp.quadrature", None),
    ("latgas.ldp", "h_norm", "ldp.h_norm", None),
    ("latgas.cli", "verify_f06", "ldp.verify_f06", _f06_attrs),
    ("latgas.cli", "empirical_measure", "empirical.measure", None),
    ("latgas.cli", "smooth", "empirical.smooth", None),
    ("latgas.cli", "block_average", "empirical.block", None),
    ("latgas.cli", "l1_distance", "empirical.l1", None),
    ("latgas.cli", "assemble_exact_generator", "generator.assemble", _generator_attrs),
    ("latgas.generator", "ExactGenerator.invariance_residual", "generator.audit", None),
    ("latgas.generator", "ExactGenerator.detailed_balance_audit", "generator.audit", None),
)


class Recorder:
    """In-memory span list; `installed()` patches TARGETS for its duration."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its attrs dict for counters."""
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if counters is not None:
                attrs.update(counters(result, args, kwargs))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, name, counters in TARGETS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counters))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# --- aggregation ------------------------------------------------------------------

def self_times(spans) -> list:
    """Span duration minus the union of its direct children's intervals."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


def root_of(spans, i: int) -> int:
    while spans[i]["parent"] is not None:
        i = spans[i]["parent"]
    return i


def layer_self_times(spans) -> dict:
    """{root span index: {layer: self seconds}} for every root span."""
    selfs = self_times(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        layers = out.setdefault(root_of(spans, i), {})
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[i]
    return out


def acceptance(calls) -> tuple:
    """Accepted events over expected candidates: (all families, per family).

    `calls` holds (kind_counts, weights, time_scale, horizon) per simulate
    call, with weights the RateTable's per-family rate bounds.  Candidates of
    family k arrive at rate weights[k] x N^2 on the macroscopic clock, so
    weights[k] * time_scale * horizon of them are drawn on average.  A family
    with no candidates reports 0.
    """
    counts = [0.0] * len(FAMILIES)
    expected = [0.0] * len(FAMILIES)
    for kind_counts, weights, time_scale, horizon in calls:
        for k in range(len(FAMILIES)):
            counts[k] += kind_counts[k]
            expected[k] += weights[k] * time_scale * horizon

    def ratio(c, e):
        return c / e if e > 0 else 0.0

    return ratio(sum(counts), sum(expected)), [ratio(c, e) for c, e in zip(counts, expected)]


def per_layer_metrics(spans, commands) -> dict:
    """Per-layer metric values from one traced run.

    `commands` lists {"name", "wall_s"} for each CLI command in run order; each
    command's root span is named "cli.<name>".
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def self_sum(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, ()))

    def attrs(name):
        return [spans[i]["attrs"] for i in by_name.get(name, ())]

    m: dict = {}

    sims = attrs("dynamics.simulate")
    events = sum(a["events"] for a in sims)
    sim_total = total("dynamics.simulate")
    m["dynamics.simulate_s"] = self_sum("dynamics.simulate")
    m["dynamics.calls"] = len(sims)
    m["dynamics.events"] = events
    m["dynamics.events_per_s"] = events / sim_total if sim_total > 0 else 0.0
    m["dynamics.ms_per_call"] = 1e3 * sim_total / len(sims) if sims else 0.0
    calls = []
    for i in by_name.get("dynamics.simulate", ()):
        a = spans[i]["attrs"]
        for j in by_name.get("dynamics.rate_table", ()):
            if spans[j]["parent"] == i:
                calls.append((a["kind_counts"], spans[j]["attrs"]["weights"],
                              a["time_scale"], a["horizon"]))
    overall, families = acceptance(calls)
    m["dynamics.acceptance"] = overall
    for family, value in zip(FAMILIES, families):
        m[f"dynamics.acceptance.{family}"] = value
    m["dynamics.rate_table_s"] = self_sum("dynamics.rate_table")

    m["thermo.invert_s"] = self_sum("thermo.invert")
    m["thermo.invert_calls"] = len(by_name.get("thermo.invert", ()))
    m["thermo.sample_profile_s"] = self_sum("thermo.sample_profile")

    steps = sum(a["steps"] for a in attrs("hydro.solve"))
    m["hydro.solve_s"] = self_sum("hydro.solve")
    m["hydro.solves"] = len(by_name.get("hydro.solve", ()))
    m["hydro.steps"] = steps
    m["hydro.ms_per_step"] = 1e3 * total("hydro.solve") / steps if steps else 0.0

    rates = attrs("ldp.rate_estimate")
    m["ldp.rate_estimate_s"] = self_sum("ldp.rate_estimate")
    m["ldp.quadrature_s"] = self_sum("ldp.quadrature")
    m["ldp.h_norm_s"] = self_sum("ldp.h_norm")
    m["ldp.basis_modes"] = max((a["basis_size"] for a in rates), default=0)
    m["ldp.gram_cond"] = max((a["gram_cond"] for a in rates), default=0.0)
    m["ldp.f06_rel_gap"] = max((a["rel_gap"] for a in attrs("ldp.verify_f06")), default=0.0)

    m["empirical.measure_s"] = self_sum("empirical.measure")
    m["empirical.smooth_s"] = self_sum("empirical.smooth")
    m["empirical.block_s"] = self_sum("empirical.block")
    m["empirical.l1_s"] = self_sum("empirical.l1")

    gens = attrs("generator.assemble")
    assemble = self_sum("generator.assemble")
    states = max((a["states"] for a in gens), default=0)
    m["generator.assemble_s"] = assemble
    m["generator.states"] = states
    m["generator.nnz"] = max((a["nnz"] for a in gens), default=0)
    m["generator.states_per_s"] = sum(a["states"] for a in gens) / assemble if assemble > 0 else 0.0
    m["generator.audit_s"] = self_sum("generator.audit")

    layers = {layer: 0.0 for layer in LAYERS}
    for per_root in layer_self_times(spans).values():
        for layer, seconds in per_root.items():
            layers[layer] += seconds
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers[layer]

    walls = {c["name"]: c["wall_s"] for c in commands}
    for name in COMMANDS:
        m[f"wall.{name}_s"] = walls.get(name, 0.0)
    return m


PER_LAYER_UNITS = {
    "dynamics.simulate_s": "s", "dynamics.calls": "count", "dynamics.events": "count",
    "dynamics.events_per_s": "1/s", "dynamics.ms_per_call": "ms",
    "dynamics.acceptance": "1", "dynamics.acceptance.exclusion": "1",
    "dynamics.acceptance.collision": "1", "dynamics.acceptance.boundary": "1",
    "dynamics.rate_table_s": "s",
    "thermo.invert_s": "s", "thermo.invert_calls": "count", "thermo.sample_profile_s": "s",
    "hydro.solve_s": "s", "hydro.solves": "count", "hydro.steps": "count",
    "hydro.ms_per_step": "ms",
    "ldp.rate_estimate_s": "s", "ldp.quadrature_s": "s", "ldp.h_norm_s": "s",
    "ldp.basis_modes": "count", "ldp.gram_cond": "1", "ldp.f06_rel_gap": "1",
    "empirical.measure_s": "s", "empirical.smooth_s": "s", "empirical.block_s": "s",
    "empirical.l1_s": "s",
    "generator.assemble_s": "s", "generator.states": "count", "generator.nnz": "count",
    "generator.states_per_s": "1/s", "generator.audit_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"wall.{name}_s": "s" for name in COMMANDS},
    "trace.overhead_s": "s",
}

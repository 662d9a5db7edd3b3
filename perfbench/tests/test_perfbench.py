"""Tests of the benchmark's own arithmetic, names and configs.

    python3 -m pytest perfbench/tests
"""

import json
import os
import re

import numpy as np
import pytest

import checks
import run
import tracer
from worker import ROOT, WORKLOADS, SpeedProbe, config_path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def synthetic_tree():
    # cli.rate [0, 10]
    #   hydro.solve [1, 7]
    #     thermo.invert [2, 3], thermo.invert [4, 6]
    #   ldp.rate_estimate [7.5, 9]
    #     ldp.quadrature [8, 8.5]
    # cli.exact [20, 24]
    #   generator.assemble [20.5, 23.5]
    return [
        span("cli.rate", 0.0, 10.0),
        span("hydro.solve", 1.0, 7.0, 0, steps=100),
        span("thermo.invert", 2.0, 3.0, 1),
        span("thermo.invert", 4.0, 6.0, 1),
        span("ldp.rate_estimate", 7.5, 9.0, 0, basis_size=8, gram_cond=5.0),
        span("ldp.quadrature", 8.0, 8.5, 4),
        span("cli.exact", 20.0, 24.0),
        span("generator.assemble", 20.5, 23.5, 6, states=64, nnz=300),
    ]


def test_self_times_subtract_children():
    assert tracer.self_times(synthetic_tree()) == pytest.approx(
        [10 - 6 - 1.5, 6 - 1 - 2, 1, 2, 1.5 - 0.5, 0.5, 4 - 3, 3])


def test_self_times_count_overlapping_children_once():
    spans = [span("cli.x", 0.0, 10.0), span("a.b", 1.0, 5.0, 0), span("a.c", 3.0, 6.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(5.0)


def test_layer_self_times_sum_to_each_command():
    spans = synthetic_tree()
    layers = tracer.layer_self_times(spans)
    assert layers[0] == pytest.approx({"cli": 2.5, "hydro": 3.0, "thermo": 3.0, "ldp": 1.5})
    assert layers[6] == pytest.approx({"cli": 1.0, "generator": 3.0})
    for root, per_layer in layers.items():
        assert sum(per_layer.values()) == pytest.approx(spans[root]["end"] - spans[root]["start"])


def test_per_layer_metrics_on_synthetic_tree():
    m = tracer.per_layer_metrics(synthetic_tree(), [{"name": "rate", "wall_s": 10.0},
                                                    {"name": "exact", "wall_s": 4.0}])
    assert m["hydro.solve_s"] == pytest.approx(3.0)
    assert m["hydro.steps"] == 100
    assert m["hydro.ms_per_step"] == pytest.approx(60.0)
    assert m["thermo.invert_calls"] == 2
    assert m["thermo.invert_s"] == pytest.approx(3.0)
    assert m["ldp.rate_estimate_s"] == pytest.approx(1.0)
    assert m["ldp.gram_cond"] == 5.0
    assert m["generator.states_per_s"] == pytest.approx(64 / 3.0)
    assert m["cli.self_s"] == pytest.approx(3.5)
    assert m["wall.rate_s"] == 10.0 and m["wall.simulate_s"] == 0.0
    assert m["dynamics.calls"] == 0 and m["dynamics.acceptance"] == 0.0


def test_acceptance_against_hand_computed_rate_table():
    from latgas.dynamics import Model, RateTable, ReservoirProfiles
    from latgas.lattice import Lattice
    from latgas.velocities import two_velocity_set

    vset = two_velocity_set()
    profiles = ReservoirProfiles.constant(vset, [0.3, 0.4], [0.6, 0.5])
    model = Model(Lattice(3), vset, profiles=profiles)
    table = RateTable(model)
    # N=3 with walls: sites x1 = 1, 2.  Exclusion: one inner bond, both
    # directions, two velocities = 4 moves; the largest hop rate is
    # 1/2 + p(+e1, +1/2)/N = 1/2 + 0.75/3.  No collision changes a
    # two-velocity site.  Boundary: 4 wall slots, bound max(alpha, 1-alpha,
    # beta, 1-beta) = 0.7.
    assert table.weights == pytest.approx((4 * 0.75, 0.0, 4 * 0.7))
    overall, families = tracer.acceptance([((6, 0, 2), table.weights, 9.0, 0.5)])
    assert families == pytest.approx([6 / (3.0 * 4.5), 0.0, 2 / (2.8 * 4.5)])
    assert overall == pytest.approx(8 / (5.8 * 4.5))


def test_acceptance_pools_calls_by_expected_candidates():
    overall, families = tracer.acceptance([((1, 0, 0), (1.0, 0.0, 0.0), 4.0, 1.0),
                                           ((3, 0, 0), (1.0, 0.0, 0.0), 16.0, 1.0)])
    assert families[0] == pytest.approx(4 / 20) and overall == pytest.approx(4 / 20)


def test_recorder_patches_and_restores():
    import latgas.hydro
    from latgas.velocities import two_velocity_set

    original = latgas.hydro.invert_conserved
    recorder = tracer.Recorder()
    with recorder.installed():
        assert latgas.hydro.invert_conserved is not original
        with recorder.span("cli.test"):
            latgas.hydro.invert_conserved(np.array([[1.0, 0.1]]), two_velocity_set())
    assert latgas.hydro.invert_conserved is original
    assert [s["name"] for s in recorder.spans] == ["cli.test", "thermo.invert"]
    assert recorder.spans[1]["parent"] == 0


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == tracer.PER_LAYER_UNITS
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "command_s", "peak_rss_mb"]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]


def test_per_layer_metrics_cover_every_unit():
    names = set(tracer.per_layer_metrics(synthetic_tree(), []))
    assert names | {"trace.overhead_s"} == set(tracer.PER_LAYER_UNITS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_config_loads(workload):
    from latgas.config import load_config

    cfg = load_config(config_path(workload))
    assert cfg.model.replicas >= 1


def test_rate_check_rejects_a_large_f06_gap(tmp_path):
    (tmp_path / "f06_report.txt").write_text(
        "lhs_cost_estimate: 1.0e-02\nrelative_gap: 6.0e-02\n")
    (tmp_path / "rate_sweep.csv").write_text("# c\nbasis_size,estimate\n64,1.0e-06\n")
    problems = checks.check_rate(str(tmp_path), {})
    assert len(problems) == 1 and "F06" in problems[0]


def test_converge_check_requires_decrease_in_n(tmp_path):
    rows = ["4,0,0.5,0.01,2", "4,1,0.1,0.01,2", "8,0,0.6,0.01,2", "8,1,0.1,0.01,2"]
    (tmp_path / "converge.csv").write_text(
        "# c\nN,component,l1_mean,l1_sem,replicas\n" + "\n".join(rows) + "\n")
    cfg = {"model": {"N": [4, 8], "d": 1}}
    assert checks.check_converge(str(tmp_path), cfg)


def test_data_files_ignore_volatile_manifest_lines(tmp_path):
    outs = []
    for name, wall in (("a", "1.0"), ("b", "2.0")):
        out = tmp_path / name
        out.mkdir()
        (out / "x.csv").write_text("1,2\n")
        (out / "manifest_rate.txt").write_text(
            f"command: rate\noutputs: {out}/x.csv\nwallclock_seconds: {wall}\n"
            f"created_unix: {wall}\n")
        outs.append(checks.data_files(str(out)))
    assert outs[0] == outs[1]


def test_scaling_to_reference_speed():
    # a CPU at half the reference speed takes twice PROBE_REF_S per probe
    slow = [2 * run.PROBE_REF_S] * 3
    assert run.at_reference_speed(4.0, slow, []) == pytest.approx(2.0)
    assert run.at_reference_speed(4.0, [], slow) == pytest.approx(2.0)
    assert run.at_reference_speed(4.0, [], []) == 4.0


def test_speed_probe_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.35:
            pass
    assert len(probe.seconds_between(started, time.perf_counter())) >= 2
    assert signal.getsignal(signal.SIGALRM) is before

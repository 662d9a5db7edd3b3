"""The compiled event loop against the Python reference loop and a recorded stream.

`tests/data/sim_streams.json` holds `stream_record` of each case, recorded
from the Python reference loop by `tests/record_data.py`, with candidate
batches growing from 2^8 to 2^14.  Both loops must reproduce it exactly: same
event counts, same configuration bytes at every sample time and at the end,
same event log, and the same tracker averages and `step()` draws from the
per-event references of `tests/reference.py`.  Both must also draw the
first event from a fixed state with the catalog's law, and keep their list of
open collision pairs equal to the pairs the configuration opens.
"""

import ctypes
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from scipy.special import chdtri, ndtri

from latgas import eventloop
from latgas.errors import NumericalFailure
from latgas.dynamics import COLLISION, KIND_NAMES, Model, ReservoirProfiles, SimState, simulate
from latgas.lattice import Lattice
from latgas.velocities import VelocitySet, two_velocity_set
from reference import (entry_rates, four_velocity_set, sample_product_state, step,
                       tracked_occupation)

VS2 = two_velocity_set(0.5)
VS4 = four_velocity_set(0.5, 0.25)
VS2D = VelocitySet(np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]))
# three collision pairs per site: {0.5, -0.5}, {0.3, -0.3} and {0.13, -0.13}
# each collide with the other two
VS6 = VelocitySet(np.array([[0.5], [-0.5], [0.3], [-0.3], [0.13], [-0.13]]))
# six collision pairs per site: the four opposite pairs collide pairwise
VS8_2D = VelocitySet(np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5],
                               [0.25, 0.0], [-0.25, 0.0], [0.0, 0.25], [0.0, -0.25]]))


def walls(lattice, vset):
    """A model between reservoirs of distinct densities in [0.3, 0.65]."""
    nv = len(vset)
    return Model(lattice, vset, profiles=ReservoirProfiles.constant(
        vset, np.linspace(0.3, 0.45, nv), np.linspace(0.65, 0.5, nv)))

# name -> (model factory, initial lambda, horizon, sample times)
STREAM_CASES = {
    "vs2_walls_N16": (
        lambda: Model(Lattice(16, 1), VS2, profiles=ReservoirProfiles.constant(
            VS2, [0.3, 0.4], [0.6, 0.5])),
        [0.1, -0.2], 2.0, [0.0, 0.5, 1.25, 2.0]),
    "vs4_walls_N16": (
        lambda: Model(Lattice(16, 1), VS4, profiles=ReservoirProfiles.constant(
            VS4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
        [0.0, 0.1], 2.0, [0.4, 1.0, 2.0]),
    "vs2d_walls_N6": (
        lambda: Model(Lattice(6, 2), VS2D, profiles=ReservoirProfiles.constant(
            VS2D, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
        [0.0, 0.1, 0.0], 1.0, [0.25, 0.75]),
}
SEEDS = (3, 11)
N_STEPS = 300
LOG_HORIZON = 0.05

RECORDED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "sim_streams.json").read_text())


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()


def stream_record(name: str, seed: int) -> dict:
    """Counts and hashes of one seeded run of a case through `simulate`, the
    reference tracker and `step()`."""
    make, lam, horizon, times = STREAM_CASES[name]
    model = make()
    lat, vs = model.lattice, model.vset

    rng = np.random.default_rng(seed)
    eta0 = sample_product_state(lam, lat, vs, rng)
    res = simulate(eta0, model, horizon, rng, sample_times=times)
    record = {
        "n_events": res.n_events,
        "kind_counts": list(res.kind_counts),
        "final_sha256": _sha(res.final.tobytes()),
        "samples_sha256": _sha(*[c for t, eta in res.samples for c in (t, eta.tobytes())]),
    }

    log = io.StringIO()
    res = simulate(eta0, model, LOG_HORIZON, np.random.default_rng(seed), event_log=log)
    record["log_n_events"] = res.n_events
    record["event_log_sha256"] = _sha(log.getvalue().encode())
    occ = tracked_occupation(SimState(model, eta0, np.random.default_rng(seed)), LOG_HORIZON)
    record["tracker_sha256"] = _sha(occ.tobytes())

    state = SimState(model, eta0, np.random.default_rng(seed))
    steps = [step(state) for _ in range(N_STEPS)]
    record["steps_sha256"] = _sha(*[(ev, float(wait)) for ev, wait in steps])
    record["steps_final_sha256"] = _sha(state.snapshot().tobytes())
    return record


CASES = [(name, seed) for name in STREAM_CASES for seed in SEEDS]
IDS = [f"{name}-seed{seed}" for name, seed in CASES]


@pytest.fixture
def python_loop(monkeypatch):
    """Run every SimState on the Python reference loop."""
    monkeypatch.setattr(eventloop, "load_kernel", lambda: None)


requires_compiler = pytest.mark.skipif(
    eventloop.load_kernel() is None, reason="no C compiler to build the event loop")


def event_loop_of(name: str) -> str:
    model = STREAM_CASES[name][0]()
    return SimState(model, np.zeros((model.lattice.n_sites, len(model.vset))), None).event_loop


@requires_compiler
@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_compiled_loop_reproduces_recorded_stream(name, seed):
    assert event_loop_of(name) == "compiled"
    assert stream_record(name, seed) == RECORDED[f"{name}-seed{seed}"]


@pytest.mark.parametrize("name,seed", CASES, ids=IDS)
def test_python_loop_reproduces_recorded_stream(python_loop, name, seed):
    assert event_loop_of(name) == "python"
    assert stream_record(name, seed) == RECORDED[f"{name}-seed{seed}"]


# models outside the recorded cases: a ring (no boundary family), exclusion
# only (no collision family) and three collision pairs per site
AGREE_CASES = {
    "vs4_ring_N12": lambda: Model(Lattice(12, 1, periodic=True), VS4),
    "vs4_exclusion_only_N12": lambda: Model(
        Lattice(12, 1), VS4, include_collisions=False,
        profiles=ReservoirProfiles.constant(VS4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
    "vs6_walls_N12": lambda: walls(Lattice(12, 1), VS6),
}


class CountingRng:
    """A seeded generator that records the length of each candidate batch
    (one standard exponential draw of gaps per batch, into `out`)."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.batches = []

    def standard_exponential(self, out):
        self.batches.append(len(out))
        return self._rng.standard_exponential(out=out)

    def random(self, out):
        return self._rng.random(out=out)


def run_every_entry_point(make, seed: int) -> dict:
    """Samples, final state, batch lengths, event log, tracker averages and
    `step()` draws."""
    model = make()
    lat, vs = model.lattice, model.vset
    eta0 = sample_product_state([0.2, 0.1], lat, vs, np.random.default_rng(seed))
    rng = CountingRng(seed)
    res = simulate(eta0, model, 16.0, rng, sample_times=[0.5, 2.0, 16.0])
    log = io.StringIO()
    logged = simulate(eta0, model, 0.1, np.random.default_rng(seed), event_log=log)
    tracked = tracked_occupation(SimState(model, eta0, np.random.default_rng(seed)), 0.1)
    state = SimState(model, eta0, np.random.default_rng(seed))
    steps = [step(state) for _ in range(N_STEPS)]
    return {
        "counts": (res.n_events, res.kind_counts, logged.n_events, logged.kind_counts),
        "samples": [(t, eta.tobytes()) for t, eta in res.samples],
        "final": res.final.tobytes(),
        "batches": rng.batches,
        "log": log.getvalue(),
        "tracker": tracked.tobytes(),
        "steps": [(ev, float(wait)) for ev, wait in steps],
        "steps_final": state.snapshot().tobytes(),
        "event_loop": res.event_loop,
    }


@requires_compiler
@pytest.mark.parametrize("name", sorted(AGREE_CASES))
def test_compiled_and_python_loops_agree(monkeypatch, name):
    compiled = run_every_entry_point(AGREE_CASES[name], 5)
    monkeypatch.setattr(eventloop, "load_kernel", lambda: None)
    python = run_every_entry_point(AGREE_CASES[name], 5)
    assert (compiled.pop("event_loop"), python.pop("event_loop")) == ("compiled", "python")
    # the run spans the growing batches and several at the cap
    assert compiled["batches"][:8] == [256, 256, 512, 1024, 2048, 4096, 8192, SimState.BATCH]
    assert compiled["batches"].count(SimState.BATCH) >= 2
    assert compiled == python


@pytest.fixture(params=["compiled", "python"])
def loop(request, monkeypatch):
    """Run every SimState on the named loop."""
    if request.param == "compiled":
        if eventloop.load_kernel() is None:
            pytest.skip("no C compiler to build the event loop")
    else:
        monkeypatch.setattr(eventloop, "load_kernel", lambda: None)
    return request.param


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_sample_times_do_not_change_the_stream(loop, name):
    # A sample stops the loop at its time, which must not move the batch
    # boundaries: the seed alone fixes the trajectory.  The horizon spans at
    # least three batches on every case.
    model = STREAM_CASES[name][0]()
    lat, vs = model.lattice, model.vset
    eta0 = np.zeros((lat.n_sites, len(vs)), dtype=np.uint8)
    rngs = [CountingRng(7), CountingRng(7)]
    runs = [simulate(eta0, model, 0.2, rng, sample_times=times)
            for rng, times in zip(rngs, ([0.0, 0.1, 0.2], [0.0, 0.2]))]
    assert runs[0].event_loop == loop
    assert runs[0].final.tobytes() == runs[1].final.tobytes()
    assert (runs[0].n_events, runs[0].kind_counts) == (runs[1].n_events, runs[1].kind_counts)
    assert rngs[0].batches == rngs[1].batches and len(rngs[0].batches) >= 3


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_a_plain_run_stays_in_the_batch_loop(loop, monkeypatch, name):
    # without an event log `simulate` calls `advance` at most once per sample
    # time and once for the horizon, and the loop applies the events between;
    # with one it calls `advance` once per event and once for the event that
    # ends the run
    make, lam, horizon, times = STREAM_CASES[name]
    model = make()
    eta0 = sample_product_state(lam, model.lattice, model.vset, np.random.default_rng(3))
    stops, advance = [], SimState.advance

    def counted(state, stop):
        stops.append(stop)
        return advance(state, stop)

    monkeypatch.setattr(SimState, "advance", counted)
    res = simulate(eta0, model, horizon, np.random.default_rng(4), sample_times=times)
    assert res.event_loop == loop
    assert res.n_events > 1000 and 0 < len(stops) <= len(times) + 1
    stops.clear()
    res = simulate(eta0, model, LOG_HORIZON, np.random.default_rng(4), event_log=io.StringIO())
    assert res.n_events > 0 and stops == [-np.inf] * (res.n_events + 1)


def advance_through(state, stops) -> None:
    """Apply every event before the last stop, calling `advance` once per stop
    as `simulate` does for its sample times."""
    i = 0
    while True:
        kind, idx = state.advance(stops[i])
        while i < len(stops) and state.t >= stops[i]:
            i += 1
        if i == len(stops):
            return
        state._apply(kind, idx)


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_stop_times_do_not_change_the_stream(loop, name):
    model = STREAM_CASES[name][0]()
    lat, vs = model.lattice, model.vset
    eta0 = np.zeros((lat.n_sites, len(vs)), dtype=np.uint8)
    one, many = (SimState(model, eta0, CountingRng(7)) for _ in range(2))
    advance_through(one, [0.3])
    advance_through(many, list(np.linspace(0.001, 0.3, 97)))
    assert one.event_loop == loop
    assert one.eta_flat.tobytes() == many.eta_flat.tobytes()
    assert list(one.kind_counts) == list(many.kind_counts)
    assert one.t == many.t and one.rng.batches == many.rng.batches
    assert len(one.rng.batches) >= 4


def test_candidates_are_the_stream_of_two_draws_per_batch(loop):
    # each batch of B reads B standard exponentials, then B selector
    # uniforms, as two separate draws would; the arrays are kept while B
    # holds and replaced when it grows
    model = STREAM_CASES["vs2_walls_N16"][0]()
    zeros = np.zeros((model.lattice.n_sites, len(model.vset)), dtype=np.uint8)
    state, fresh = SimState(model, zeros, np.random.default_rng(9)), np.random.default_rng(9)
    assert state.event_loop == loop
    buffers = []
    for B in (256, 256, 512, 1024):
        got = np.array([state._next_candidate() for _ in range(B)])
        want = np.column_stack((fresh.standard_exponential(B), fresh.random(B)))
        assert got.tobytes() == want.tobytes()
        buffers.append((state._gaps, state._selectors))
    assert all(a is b for a, b in zip(buffers[1], buffers[0]))
    for old, new in zip(buffers[1:], buffers[2:]):
        assert old[0] is not new[0] and old[1] is not new[1]


def restart_record(state, stops) -> tuple:
    """A state's open collision list and counters as it starts, then its
    candidate batches, counters, clock and configuration after running
    through `stops`."""
    started = (state._open[:state.n_open].tolist(), state._where.tolist()) \
        if state.table.col_groups else ()
    started += (state.candidates, state.t, list(state.kind_counts), state.eta_flat.tobytes())
    advance_through(state, stops)
    return started, (state.rng.batches, list(state.kind_counts), state.candidates, state.t,
                     state.n_open, state.eta_flat.tobytes())


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_a_restarted_state_runs_as_a_new_one(loop, name):
    # a state restarted after a run long enough to draw a batch at the 2^14
    # cap, which leaves open collision pairs in its list, keeps its buffers
    # and runs as a new SimState from the same configuration and stream
    make, lam, _, _ = STREAM_CASES[name]
    model = make()
    lat, vs = model.lattice, model.vset
    used = SimState(model, sample_product_state(lam, lat, vs, np.random.default_rng(1)),
                    CountingRng(2))
    assert used.event_loop == loop
    while SimState.BATCH not in used.rng.batches:
        kind, idx = used.advance(used.t + 0.01)
        used._apply(kind, idx)
    assert (used.n_open > 0) == (model.table.col_groups > 0)
    eta0 = sample_product_state(lam, lat, vs, np.random.default_rng(3))
    before = used.eta_flat.copy()
    with pytest.raises(ValueError, match="0 or 1"):
        used.restart(2 * eta0, CountingRng(4))
    assert used.eta_flat.tobytes() == before.tobytes()
    used.restart(eta0, CountingRng(4))
    assert len(used._gaps) == SimState.BATCH
    fresh = SimState(model, eta0, CountingRng(4))
    stops = list(np.linspace(0.01, 0.3, 7))
    assert restart_record(used, stops) == restart_record(fresh, stops)
    assert len(fresh.rng.batches) >= 4


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64, np.float64, np.float32])
def test_restart_rejects_a_bad_configuration_before_it_changes_anything(dtype):
    # a value other than 0 and 1 in any dtype, or a wrong shape, raises and
    # leaves the configuration and clock alone; 0/1 in any dtype, bool too,
    # is accepted
    model = STREAM_CASES["vs4_walls_N16"][0]()
    shape = (model.lattice.n_sites, len(model.vset))
    eta0 = sample_product_state(STREAM_CASES["vs4_walls_N16"][1], model.lattice, model.vset,
                                np.random.default_rng(3))
    state = SimState(model, eta0, np.random.default_rng(4))
    state.advance(state.t + 0.01)
    before = (state.eta_flat.tobytes(), state.t, state.candidates)
    values = [2, 255] if np.dtype(dtype).kind == "u" else [2, -1, 0.5, np.nan, np.inf]
    for value in values:
        if np.dtype(dtype).kind in "ui" and not float(value).is_integer():
            continue
        bad = eta0.astype(dtype)
        bad[-1, -1] = value
        with pytest.raises(ValueError, match="0 or 1"):
            state.restart(bad, np.random.default_rng(5))
        assert (state.eta_flat.tobytes(), state.t, state.candidates) == before
    with pytest.raises(ValueError, match="slots"):
        state.restart(eta0.astype(dtype).reshape(shape[::-1]), np.random.default_rng(5))
    assert (state.eta_flat.tobytes(), state.t, state.candidates) == before
    for good in (eta0.astype(dtype), eta0.astype(bool)):
        state.restart(good, np.random.default_rng(5))
        assert state.eta_flat.tobytes() == eta0.astype(np.uint8).tobytes()


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_simulate_restarts_one_state_per_model(loop, name):
    # `simulate` builds a model's state on its first run and restarts it on
    # later ones, which give what a new model gives
    make, lam, horizon, times = STREAM_CASES[name]
    model = make()
    eta0 = sample_product_state(lam, model.lattice, model.vset, np.random.default_rng(5))

    def run(on, seed):
        res = simulate(eta0, on, horizon / 4, np.random.default_rng(seed), sample_times=[0.0])
        return (res.event_loop, res.n_events, res.kind_counts, res.candidates,
                res.final.tobytes(), [(t, eta.tobytes()) for t, eta in res.samples])

    first = run(model, 6)
    state = model._state
    assert run(model, 7) == run(make(), 7)
    assert run(model, 6) == first and model._state is state
    assert first[0] == loop
    # the state does not hold its model, so both go with the model's last
    # reference, without waiting for the cycle collector
    freed = weakref.ref(state)
    del model, state
    assert freed() is None


@requires_compiler
def test_loops_agree_across_buffer_growths(monkeypatch):
    # read into the fifth batch: the first arrays serve two batches, then
    # grow three times (to 512, 1024 and 2048 candidates)
    def run():
        model = STREAM_CASES["vs4_walls_N16"][0]()
        rng = CountingRng(4)
        state = SimState(model, np.zeros((model.lattice.n_sites, len(model.vset)),
                                         dtype=np.uint8), rng)
        advance_through(state, list(np.linspace(0.03, 0.3, 10)))
        return (state.event_loop, rng.batches, state.candidates, state.t,
                state.eta_flat.tobytes(), list(state.kind_counts))

    compiled = run()
    monkeypatch.setattr(eventloop, "load_kernel", lambda: None)
    python = run()
    assert (compiled[0], python[0]) == ("compiled", "python")
    assert compiled[1] == [256, 256, 512, 1024, 2048] and compiled[2] > 2048
    assert compiled[1:] == python[1:]


@requires_compiler
def test_loops_agree_on_the_sim_workload_model(monkeypatch):
    # the model of the sim benchmark workload (perfbench/configs/sim.yaml):
    # its 504 exclusion pairs leave each accept variate more than 44 bits
    def run():
        model = Model(Lattice(128, 1), VS4, profiles=ReservoirProfiles.constant(
            VS4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.5]))
        assert model.table.n_pairs == (504, 127, 8)
        eta0 = sample_product_state([0.1, 0.0], model.lattice, model.vset,
                                    np.random.default_rng(1))
        rng = CountingRng(2)
        res = simulate(eta0, model, 0.005, rng, sample_times=[0.0025])
        return (res.event_loop, rng.batches, res.n_events, res.kind_counts, res.candidates,
                res.final.tobytes(), [(t, eta.tobytes()) for t, eta in res.samples])

    compiled = run()
    monkeypatch.setattr(eventloop, "load_kernel", lambda: None)
    python = run()
    assert (compiled[0], python[0]) == ("compiled", "python")
    assert compiled[1][-1] == SimState.BATCH and all(compiled[3])
    assert compiled[1:] == python[1:]


class FirstSelectorRng:
    """A seeded generator whose first selector uniform is the largest float
    below 1."""

    def __init__(self, seed: int):
        self._rng, self._first = np.random.default_rng(seed), True

    def standard_exponential(self, out):
        return self._rng.standard_exponential(out=out)

    def random(self, out):
        self._rng.random(out=out)
        if self._first:
            out[0], self._first = np.nextafter(1.0, 0.0), False
        return out


# family -> (model factory with that family alone, a configuration in which
# every pair of the family is open).  On each, the largest selector below the
# family's weight W = n x bound, divided by the bound, rounds to n.  (The
# collision band's bound 4 divides exactly, so there only a tie in the
# subtraction of W_ex could reach the edge.)
CLAMP_EDGE_CASES = {
    "exclusion": (lambda: Model(Lattice(5, 1), VS2), [[1, 1], [0, 0], [1, 1], [0, 0]]),
    "boundary": (lambda: Model(Lattice(2, 1), VS6, include_collisions=False,
                               profiles=ReservoirProfiles.constant(
                                   VS6, [0.65] + [0.5] * 5, [0.5] * 6)),
                 [[1, 0, 1, 0, 1, 0]]),
}


def clamp_edge_runs() -> dict:
    """Per CLAMP_EDGE_CASES family: the first accepted event, the clock and
    the candidates read from its configuration on `FirstSelectorRng`."""
    runs = {}
    for name, (make, rows) in sorted(CLAMP_EDGE_CASES.items()):
        state = SimState(make(), np.array(rows, dtype=np.uint8), FirstSelectorRng(8))
        kind, idx = state.advance(-np.inf)
        runs[name] = [int(kind), int(idx), state.t, state.candidates]
    return runs


@pytest.mark.parametrize("name", sorted(CLAMP_EDGE_CASES))
def test_a_selector_rounded_past_the_last_pair_is_rejected(loop, name):
    # x = selector / bound rounds to n, so the pair is clamped to n - 1 and
    # its remainder x - (n - 1) = 1 rejects the candidate, although every
    # pair is open and a remainder of 0 would accept
    make, rows = CLAMP_EDGE_CASES[name]
    model = make()
    table, kind = model.table, KIND_NAMES.index(name)
    n, rate = table.n_pairs[kind], table.total_bound
    bound = (table.bound_ex, table.bound_col, table.bound_bd)[kind]
    selector = np.nextafter(1.0, 0.0) * rate
    assert table.weights[kind] == rate and selector < rate and selector / bound == n
    state = SimState(model, np.array(rows, dtype=np.uint8), FirstSelectorRng(8))
    assert state.event_loop == loop
    state.advance(-np.inf)
    assert state.candidates > 1


@requires_compiler
def test_loops_agree_at_the_clamp_edge(monkeypatch):
    compiled = clamp_edge_runs()
    monkeypatch.setattr(eventloop, "load_kernel", lambda: None)
    assert compiled == clamp_edge_runs()


@pytest.mark.parametrize("horizon", [1e-5, 1e-3, 0.01, 0.03, 0.1, 0.3])
def test_short_runs_draw_at_most_twice_what_they_read(loop, horizon):
    model = STREAM_CASES["vs4_walls_N16"][0]()
    lat, vs = model.lattice, model.vset
    rng = CountingRng(5)
    state = SimState(model, np.zeros((lat.n_sites, len(vs)), dtype=np.uint8), rng)
    advance_through(state, [horizon])
    drawn = sum(rng.batches)
    read = state.candidates
    assert 0 < read <= drawn <= max(SimState.FIRST_BATCH, 2 * read)


# name -> (model factory, collision pairs per site)
OPEN_SET_CASES = {
    "vs4_walls_N16": (STREAM_CASES["vs4_walls_N16"][0], 1),
    "vs2d_walls_N6": (STREAM_CASES["vs2d_walls_N6"][0], 1),
    "vs6_walls_N8": (lambda: walls(Lattice(8, 1), VS6), 3),
    "vs8_2d_walls_N4": (lambda: walls(Lattice(4, 2), VS8_2D), 6),
}


def assert_open_list_matches(state) -> None:
    """The state's open collision list holds exactly the pairs whose slots
    read (1, 1, 0, 0) or (0, 0, 1, 1), and each pair's recorded place in it."""
    sl = state.eta_flat[state.table.col_slots]
    opened = (sl[:, 0] == sl[:, 1]) & (sl[:, 1] != sl[:, 2]) & (sl[:, 2] == sl[:, 3])
    listed = state._open[:state.n_open]
    assert sorted(listed) == list(np.flatnonzero(opened))
    assert list(state._where[listed]) == list(range(state.n_open))
    assert np.count_nonzero(state._where >= 0) == state.n_open


@pytest.mark.parametrize("name", sorted(OPEN_SET_CASES))
def test_open_collision_list_matches_the_configuration(loop, name):
    # `step()` applies each event in Python and `advance(stop)` many in the
    # loop itself; after either the list must equal the open pairs of eta
    make, groups = OPEN_SET_CASES[name]
    model = make()
    lat, vs = model.lattice, model.vset
    assert model.table.col_groups == groups
    eta0 = sample_product_state(np.zeros(vs.d + 1), lat, vs, np.random.default_rng(1))
    state = SimState(model, eta0, np.random.default_rng(2))
    assert state.event_loop == loop
    assert_open_list_matches(state)
    for _ in range(2000):
        step(state)
        assert_open_list_matches(state)
    for stop in state.t + np.linspace(0.001, 0.05, 50):
        kind, idx = state.advance(stop)
        assert_open_list_matches(state)
        state._apply(kind, idx)
        assert_open_list_matches(state)
    assert state.kind_counts[COLLISION] > 100


# name -> (model factory, fixed states as (sites, velocities) occupations)
LAW_CASES = {
    "vs2_walls_N3": (
        lambda: Model(Lattice(3, 1), VS2, profiles=ReservoirProfiles.constant(
            VS2, [0.3, 0.4], [0.6, 0.5])),
        [[[1, 0], [0, 0]], [[1, 1], [0, 1]]]),
    # a collision open forward at site 0 and backward at site 1, then one
    # open at neither site
    "vs4_walls_N3": (
        lambda: Model(Lattice(3, 1), VS4, profiles=ReservoirProfiles.constant(
            VS4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
        [[[1, 1, 0, 0], [0, 0, 1, 1]], [[1, 1, 0, 1], [1, 0, 1, 0]]]),
    "vs2d_walls_N3": (
        lambda: Model(Lattice(3, 2), VS2D, profiles=ReservoirProfiles.constant(
            VS2D, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
        [[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0],
          [0, 1, 0, 0], [0, 0, 0, 1], [1, 1, 1, 0]]]),
    # two of site 0's three collision pairs open, forward then backward
    "vs6_walls_N3": (
        lambda: walls(Lattice(3, 1), VS6),
        [[[1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0]], [[0, 0, 1, 1, 1, 1], [1, 0, 0, 1, 1, 0]]]),
    "vs4_ring_N4": (
        lambda: Model(Lattice(4, 1, periodic=True), VS4),
        [[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]]]),
    # each hop between the two sites has two entries, one on each of the
    # ring's two bonds, with different rates
    "vs2_ring_N3": (
        lambda: Model(Lattice(3, 1, periodic=True), VS2),
        [[[1, 0], [0, 1]], [[1, 1], [0, 0]]]),
}
LAW_DRAWS = 20_000
LAW_P = 1e-6


@pytest.mark.parametrize("name", sorted(LAW_CASES))
def test_first_event_law(loop, name):
    # From a fixed state each `advance(-inf)` returns the next accepted event
    # unapplied, so repeated calls are independent draws of the first event:
    # its entry must have the catalog law and its waiting time must be
    # exponential with the total rate.
    make, states = LAW_CASES[name]
    model = make()
    table = model.table
    offsets = np.cumsum((0,) + table.counts)
    for i, rows in enumerate(states):
        eta = np.array(rows, dtype=np.uint8)
        rates = entry_rates(model, eta)
        assert np.isclose(rates.sum(), table.exact_totals(eta).sum(), rtol=1e-14)
        state = SimState(model, eta, np.random.default_rng(i))
        assert state.event_loop == loop
        counts = np.zeros(len(rates))
        for _ in range(LAW_DRAWS):
            kind, idx = state.advance(-np.inf)
            counts[offsets[kind] + idx] += 1
        assert state.eta_flat.tobytes() == eta.tobytes()
        fires = rates > 0
        assert counts[~fires].sum() == 0
        expected = LAW_DRAWS * rates[fires] / rates.sum()
        chi2 = np.sum((counts[fires] - expected) ** 2 / expected)
        assert chi2 <= chdtri(fires.sum() - 1, LAW_P), (i, chi2)
        # state.t sums LAW_DRAWS Exponential(total rate) waiting times
        ratio = state.t / LAW_DRAWS * table.exact_totals(eta).sum() * model.time_scale
        assert abs(ratio - 1) <= ndtri(1 - LAW_P / 2) / np.sqrt(LAW_DRAWS), (i, ratio)


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """Forget the loaded kernel and build into an empty cache."""
    monkeypatch.setattr(eventloop, "_kernel", None)
    monkeypatch.setattr(eventloop, "CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    return tmp_path


def test_no_compiler_falls_back_to_the_python_loop(monkeypatch, fresh_kernel):
    monkeypatch.setattr(eventloop, "find_compiler", lambda: None)
    assert eventloop.load_kernel() is None
    assert event_loop_of("vs2_walls_N16") == "python"
    assert stream_record("vs2_walls_N16", 3) == RECORDED["vs2_walls_N16-seed3"]
    assert not (fresh_kernel / "cache").exists()


@requires_compiler
def test_unwritable_cache_builds_in_a_private_directory(fresh_kernel):
    (fresh_kernel / "cache").write_text("a file where the cache directory should be")
    assert eventloop.load_kernel() is not None
    assert [p.suffix for p in (fresh_kernel / "tmp").glob("latgas-*/*")] == [".so"]
    assert stream_record("vs2_walls_N16", 11) == RECORDED["vs2_walls_N16-seed11"]


@requires_compiler
def test_cached_build_is_reused(monkeypatch, fresh_kernel):
    assert eventloop.load_kernel() is not None
    built = list((fresh_kernel / "cache").iterdir())
    assert [p.suffix for p in built] == [".so"]
    monkeypatch.setattr(eventloop, "_kernel", None)
    monkeypatch.setattr(eventloop, "find_compiler", lambda: None)
    assert eventloop.load_kernel() is not None
    assert list((fresh_kernel / "cache").iterdir()) == built


@requires_compiler
def test_absorbing_state_raises():
    # a full ring: every exclusion hop is blocked and no collision can fire,
    # so the loop rejects every candidate until the absorbing check runs
    model = Model(Lattice(4, 1, periodic=True), VS2)
    full = np.ones((model.lattice.n_sites, 2), dtype=np.uint8)
    with pytest.raises(NumericalFailure, match="absorbing"):
        simulate(full, model, 1e9, np.random.default_rng(0))


def test_zero_candidate_rate_raises_at_once(loop):
    # one site and no reservoirs: no exclusion or boundary candidates, and
    # with every collision closed no collision candidate either, so the state
    # is absorbing before any candidate is read
    model = Model(Lattice(2, 1), VS4)
    assert model.table.weights[0] == model.table.weights[2] == 0.0
    state = SimState(model, np.array([[1, 0, 1, 0]], dtype=np.uint8), np.random.default_rng(0))
    assert state.event_loop == loop
    with pytest.raises(NumericalFailure, match="absorbing"):
        state.advance(np.inf)
    assert state.candidates == 0 and state.t == 0.0


def test_event_loop_compiles_without_warnings(tmp_path):
    # the shipped FLAGS carry no warning options; this build adds them
    compiler = eventloop.find_compiler()
    if compiler is None:
        pytest.skip("no C compiler to build the event loop")
    built = subprocess.run(
        [compiler, *eventloop.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "eventloop.so"), eventloop.SOURCE],
        capture_output=True, text=True)
    assert built.returncode == 0, built.stderr


def loop_state_fields(source: str) -> list:
    """(name, ctypes type) of each field of the `loop_state` typedef in a C
    source, in order: a pointer is c_void_p, int64_t c_int64, double
    c_double; any other C type raises KeyError."""
    body = re.search(r"typedef struct \{(.*?)\} loop_state;", source, re.S).group(1)
    fields = []
    for decl in filter(str.strip, re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")):
        c_type, declarators = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*?)\s*", decl,
                                           re.S).groups()
        for declarator in declarators.split(","):
            name = declarator.strip().lstrip("*").strip()
            fields.append((name, ctypes.c_void_p if "*" in declarator else
                           {"int64_t": ctypes.c_int64, "double": ctypes.c_double}[c_type]))
    return fields


def test_loop_state_matches_the_c_struct():
    # ctypes lays LoopState out from its field list alone, so a field that
    # the C struct orders or types differently would read another's bytes
    with open(eventloop.SOURCE) as fh:
        fields = loop_state_fields(fh.read())
    assert fields == eventloop.LoopState._fields_


def short_runs() -> dict:
    """Event loop, counts and final-state digest of one short seeded run per
    AGREE_CASES model, and `clamp_edge_runs`."""
    runs = {}
    for name, make in sorted(AGREE_CASES.items()):
        model = make()
        eta0 = sample_product_state([0.2, 0.1], model.lattice, model.vset,
                                    np.random.default_rng(1))
        res = simulate(eta0, model, 0.5, np.random.default_rng(2))
        runs[name] = [res.event_loop, res.n_events, list(res.kind_counts), res.candidates,
                      _sha(res.final.tobytes())]
    runs["clamp_edge"] = clamp_edge_runs()
    return runs


@requires_compiler
def test_sanitized_build_runs_the_same_stream(tmp_path):
    # AddressSanitizer and UndefinedBehaviorSanitizer abort on the first
    # out-of-bounds read or undefined operation in the loop; the library is
    # loaded into a Python started with the ASan runtime preloaded
    compiler = eventloop.find_compiler()
    libasan = subprocess.run([compiler, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan):  # the bare name: the compiler has no libasan
        pytest.skip("no libasan to run a sanitized build")
    lib = tmp_path / "eventloop-sanitized.so"
    built = subprocess.run(
        [compiler, *eventloop.FLAGS, "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-o", str(lib), eventloop.SOURCE],
        capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    paths = [str(pathlib.Path(eventloop.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    script = (f"import json, sys\nsys.path[:0] = {paths!r}\n"
              "import test_eventloop\nfrom latgas import eventloop\n"
              f"eventloop._kernel = eventloop._bind({str(lib)!r})\n"
              "print(json.dumps(test_eventloop.short_runs()))\n")
    env = dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == short_runs()


def test_configuration_of_the_wrong_size_is_rejected():
    model = STREAM_CASES["vs2_walls_N16"][0]()
    with pytest.raises(ValueError, match="slots"):
        SimState(model, np.zeros((model.lattice.n_sites - 1, 2)), None)

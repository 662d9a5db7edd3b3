import collections
import dataclasses
import io
import json
import math
import pathlib

import numpy as np
import pytest

from latgas.dynamics import (
    BOUNDARY,
    COLLISION,
    EXCLUSION,
    Event,
    Model,
    RateTable,
    ReservoirProfiles,
    SimState,
    jump_probabilities,
    simulate,
)
from latgas.errors import DomainError
from latgas.generator import assemble_exact_generator
from latgas.lattice import Lattice
from latgas.thermo import theta_all
from latgas.velocities import Collision, VelocitySet, two_velocity_set
from reference import (
    boundary_rate,
    collision_rate,
    entry_rates,
    event_rate,
    exclusion_rate,
    four_velocity_set,
    index,
    neighbor_sites,
    sample_product_state,
    step,
    totals,
    tracked_occupation,
)


RECORDED_EVENTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "catalog_events.json").read_text())

VS4 = four_velocity_set(0.5, 0.25)
VS2D = VelocitySet(np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]))
CATALOG_MODELS = {
    "vs2_walls_N4": lambda: Model(Lattice(4, 1), two_velocity_set(0.5), profiles=(
        ReservoirProfiles.constant(two_velocity_set(0.5), [0.3, 0.4], [0.6, 0.5]))),
    "vs4_walls_N3": lambda: Model(Lattice(3, 1), VS4, profiles=ReservoirProfiles.constant(
        VS4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
    "vs4_ring_N3": lambda: Model(Lattice(3, 1, periodic=True), VS4),
    "vs2d_walls_N3": lambda: Model(Lattice(3, 2), VS2D, profiles=ReservoirProfiles.constant(
        VS2D, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
}


def catalog_record(name) -> list:
    """The decoded Event of each catalog entry of `CATALOG_MODELS[name]`, in
    catalog order, as a row [kind, site, velocity, target, quadruple]
    (`tests/record_data.py` writes these rows to catalog_events.json)."""
    table = RateTable(CATALOG_MODELS[name]())
    events = (table.event_from_entry(kind, idx)
              for kind, count in enumerate(table.counts) for idx in range(count))
    return [[ev.kind, ev.site, ev.velocity, ev.target,
             ev.quadruple and list(dataclasses.astuple(ev.quadruple))] for ev in events]


def make_model(N, vs, alpha=None, beta=None, periodic=False, collisions=True):
    lat = Lattice(N, 1, periodic=periodic)
    profiles = None
    if alpha is not None:
        profiles = ReservoirProfiles.constant(vs, alpha, beta)
    return Model(lat, vs, profiles=profiles, include_collisions=collisions)


def empty_state(model):
    """The configuration with every slot empty."""
    return np.zeros((model.lattice.n_sites, len(model.vset)), dtype=np.uint8)


class TestSimStateInput:
    # SimState is where a configuration array is checked
    def test_shape_validation(self, vs2):
        model = make_model(4, vs2)
        # too few sites; sites and velocities swapped (the same slot count)
        for eta in (np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8)):
            with pytest.raises(ValueError):
                SimState(model, eta, None)

    def test_binary_validation(self, vs2):
        model = make_model(4, vs2)
        with pytest.raises(ValueError):
            SimState(model, 2 * np.ones((3, 2), dtype=np.uint8), None)


class TestJumpLaw:
    def test_nearest_neighbor_mean_velocity(self, vs4):
        probs = jump_probabilities(vs4)
        mean = probs[:, 0::2] - probs[:, 1::2]
        assert np.max(np.abs(mean - vs4.velocities)) <= 1e-15
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_reference_probabilities(self, vs2):
        # v = +1/2 in d=1: a = 1, p(+1) = 3/4, p(-1) = 1/4; columns (+e_1, -e_1)
        probs = jump_probabilities(vs2)
        assert probs.shape == (2, 2)
        assert probs[0] == pytest.approx([0.75, 0.25])
        assert probs[1] == pytest.approx([0.25, 0.75])

    def test_PN(self, vs2):
        # the catalog's hop rates are P_N = 1/2 + p/N, and only unit hops
        # exist: each bond runs from a site to the next, and its direction 0
        # hops along +e_1
        table = make_model(10, vs2).table
        src, tgt = table.ex_slots.T
        forward = src % 2 == 0
        assert forward.sum() == 8
        assert np.allclose(table.ex_rate[forward, 0], 0.5 + 0.75 / 10, rtol=1e-15, atol=0)
        assert np.all(tgt // 2 - src // 2 == 1)

    def test_fast_sets_rejected(self):
        vs = VelocitySet(np.array([[2.0], [-2.0]]))
        with pytest.raises(ValueError, match="rescale"):
            jump_probabilities(vs)
        with pytest.raises(ValueError, match="rescale"):
            Model(Lattice(4), vs)

    def test_d2_law(self, vs2d):
        probs = jump_probabilities(vs2d)
        mean = probs[:, 0::2] - probs[:, 1::2]
        assert np.max(np.abs(mean - vs2d.velocities)) <= 1e-15


class TestProfiles:
    def test_range_validation(self, vs2):
        # densities are checked where they are evaluated: at the model's
        # wall layer, or at the points given to `at`; a NaN is outside
        profiles = ReservoirProfiles.constant(vs2, [0.0, 0.5], [0.5, 0.5])
        with pytest.raises(DomainError, match=r"alpha\[0\] = 0 leaves \(0, 1\)"):
            Model(Lattice(4), vs2, profiles=profiles)
        with pytest.raises(DomainError, match=r"beta\[1\] = nan leaves"):
            ReservoirProfiles.constant(vs2, [0.3, 0.5], [0.5, np.nan]).at(np.zeros((1, 0)))
        # a periodic lattice has no walls and evaluates none
        assert Model(Lattice(4, periodic=True), vs2, profiles=profiles).walls is None

    def test_range_checked_at_every_lattice_point(self, vs2d):
        # 0.5 + 0.6 sin(2 pi 64 u) is 1/2 on every multiple of 1/64, but
        # reaches 1.0196 at u = 1/3 on the wall layer of N = 3
        wavy = lambda u: 0.5 + 0.6 * np.sin(2 * np.pi * 64 * u[..., 0])  # noqa: E731
        profiles = ReservoirProfiles(vs2d, [wavy, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])
        alpha, _ = profiles.at(np.arange(64)[:, None] / 64)
        assert alpha[:, 0] == pytest.approx(np.full(64, 0.5), abs=1e-12)
        with pytest.raises(DomainError, match=r"alpha\[0\] = 1\.02 at transverse "
                                              r"position \[0\.333"):
            Model(Lattice(3, 2), vs2d, profiles=profiles)

    def test_walls_are_the_wall_layer_densities(self, vs2d):
        # one row per transverse position x~/N of a wall layer, in site order
        profiles = ReservoirProfiles(
            vs2d, [lambda u: 0.3 + 0.1 * u[..., 0], 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])
        model = Model(Lattice(5, 2), vs2d, profiles=profiles)
        alpha, beta = model.walls
        assert alpha.shape == beta.shape == (5, 4)
        assert np.array_equal(alpha[:, 0], 0.3 + 0.1 * np.arange(5) / 5)
        table = model.table
        assert np.array_equal(table.bd_birth, np.concatenate([alpha.ravel(), beta.ravel()]))
        assert np.array_equal(table.bd_slot[:20] // 4, np.repeat(np.arange(5), 4))
        assert np.array_equal(table.bd_slot[20:] // 4, np.repeat(np.arange(15, 20), 4))

    def test_matched(self, vs2):
        # both walls' reservoir births in the catalog are theta_v(lam)
        prof = ReservoirProfiles.matched(vs2, [0.2, -0.1])
        th = theta_all(np.array([0.2, -0.1]), vs2)
        table = Model(Lattice(4), vs2, profiles=prof).table
        assert table.bd_birth == pytest.approx(np.tile(th, 2))


class TestRates:
    def test_exclusion_no_particle(self, vs2):
        model = make_model(5, vs2)
        eta = np.zeros((4, 2), dtype=np.uint8)
        assert exclusion_rate(model, eta, 1, 2, 0) == 0.0

    def test_exclusion_open_target(self, vs2):
        model = make_model(5, vs2)
        eta = np.zeros((4, 2), dtype=np.uint8)
        eta[1, 0] = 1
        expected = 0.5 + 0.75 / 5
        assert exclusion_rate(model, eta, 1, 2, 0) == pytest.approx(expected)

    def test_exclusion_blocked_target(self, vs2):
        model = make_model(5, vs2)
        eta = np.zeros((4, 2), dtype=np.uint8)
        eta[1, 0] = 1
        eta[2, 0] = 1
        assert exclusion_rate(model, eta, 1, 2, 0) == 0.0

    def test_collision_rate_cases(self, vs4):
        q = Collision(0, 1, 2, 3)
        eta = np.zeros((1, 4), dtype=np.uint8)
        eta[0, [0, 1]] = 1
        assert collision_rate(eta, 0, q) == 1.0
        eta[0, 2] = 1  # outgoing slot occupied
        assert collision_rate(eta, 0, q) == 0.0
        eta[0, 2] = 0
        eta[0, 1] = 0  # incoming pair incomplete
        assert collision_rate(eta, 0, q) == 0.0

    def test_boundary_rates(self, vs2):
        model = make_model(5, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        eta = np.zeros((4, 2), dtype=np.uint8)
        left = index(model.lattice, (1,))
        assert boundary_rate(model, eta, left, 0) == pytest.approx(0.3)
        eta[left, 0] = 1
        assert boundary_rate(model, eta, left, 0) == pytest.approx(0.7)
        bulk = index(model.lattice, (2,))
        assert boundary_rate(model, eta, bulk, 0) == 0.0
        right = index(model.lattice, (4,))
        assert boundary_rate(model, eta, right, 1) == pytest.approx(0.5)


def applied(model, eta, event):
    """The configuration after `SimState._apply` of the catalog entry that
    decodes to `event`."""
    table = model.table
    idx = next(i for i in range(table.counts[event.kind])
               if table.event_from_entry(event.kind, i) == event)
    state = SimState(model, eta, np.random.default_rng(0))
    state._apply(event.kind, idx)
    return state.snapshot()


class TestApplyEvent:
    def test_collision_preserves_site_conservation(self, vs4):
        model = make_model(2, vs4)
        eta = np.zeros((1, 4), dtype=np.uint8)
        eta[0, [0, 1]] = 1
        before = eta[0].astype(float) @ vs4.vtilde
        eta = applied(model, eta, Event(COLLISION, site=0, quadruple=Collision(0, 1, 2, 3)))
        after = eta[0].astype(float) @ vs4.vtilde
        assert np.array_equal(before, after)
        assert list(eta[0]) == [0, 0, 1, 1]

    def test_exclusion_preserves_velocity_counts(self, vs2):
        model = make_model(5, vs2)
        eta = np.zeros((4, 2), dtype=np.uint8)
        eta[1, 0] = 1
        before = eta.sum(axis=0)
        eta = applied(model, eta, Event(EXCLUSION, site=1, velocity=0, target=2))
        assert np.array_equal(eta.sum(axis=0), before)
        assert eta[2, 0] == 1 and eta[1, 0] == 0

    def test_boundary_changes_totals_by_vtilde(self, vs2):
        model = make_model(5, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        eta = np.zeros((4, 2), dtype=np.uint8)
        before = totals(eta, vs2)
        eta = applied(model, eta, Event(BOUNDARY, site=0, velocity=0))
        assert np.allclose(totals(eta, vs2) - before, vs2.vtilde[0])

    def test_zero_rate_event_rejected(self, vs4):
        # the simulator applies only events of positive rate: every event
        # `step` returns had a positive reference rate just before it
        model = make_model(4, vs4, alpha=[0.3, 0.4, 0.35, 0.45], beta=[0.6, 0.5, 0.55, 0.65])
        eta = np.zeros((3, 4), dtype=np.uint8)
        eta[1, [0, 1]] = 1
        state = SimState(model, eta, np.random.default_rng(8))
        for _ in range(300):
            before = state.snapshot()
            event, _ = step(state)
            assert event_rate(model, before, event) > 0.0


class TestRateTable:
    def test_exact_totals_match_bruteforce(self, vs4, rng):
        model = make_model(6, vs4, alpha=[0.3, 0.4, 0.35, 0.45], beta=[0.6, 0.5, 0.55, 0.65])
        table = RateTable(model)
        eta = sample_product_state([0.2, 0.3], model.lattice, vs4, rng)
        tot = table.exact_totals(eta)
        brute = np.zeros(3)
        lat = model.lattice
        for s in range(lat.n_sites):
            for v in range(4):
                for t in neighbor_sites(lat, s):
                    brute[0] += exclusion_rate(model, eta, s, t, v)
                brute[2] += boundary_rate(model, eta, s, v)
            for q in model.collisions.active:
                brute[1] += collision_rate(eta, s, q)
        assert np.allclose(tot, brute, atol=1e-12)

    def test_rate_of_agrees_with_event_lookup(self, vs4, rng):
        # each entry's rate under eta (its hop rate or its flip rate where it
        # fires; a collision swap's quadruples of `collisions.active`) is
        # the reference rate of its decoded Event, for a collision summed
        # over the four orderings of the Event's (v, w) and (v', w')
        model = make_model(5, vs4, alpha=[0.3, 0.4, 0.35, 0.45], beta=[0.6, 0.5, 0.55, 0.65])
        table = model.table
        eta = sample_product_state([0.0, 0.0], model.lattice, vs4, rng)
        rates, offsets = entry_rates(model, eta), np.cumsum((0,) + table.counts)
        for kind, count in enumerate(table.counts):
            for idx in range(count):
                ev = table.event_from_entry(kind, idx)
                events = [ev]
                if kind == COLLISION:
                    q = ev.quadruple
                    events = [dataclasses.replace(ev, quadruple=Collision(*inc, *out))
                              for inc in ((q.v, q.w), (q.w, q.v))
                              for out in ((q.vp, q.wp), (q.wp, q.vp))]
                assert sum(event_rate(model, eta, e) for e in events) == \
                    rates[offsets[kind] + idx]
        assert rates[offsets[COLLISION]:offsets[BOUNDARY]].max() == 4.0

    def test_no_wall_jumps_in_catalog(self, vs2):
        model = make_model(4, vs2)
        table = RateTable(model)
        lat, nv = model.lattice, table.nv
        events = [table.event_from_entry(EXCLUSION, idx) for idx in range(table.counts[0])]
        hops = sorted((ev.site, ev.target) for ev in events)
        inside = sorted((s, t) for s in range(lat.n_sites) for t in neighbor_sites(lat, s))
        assert hops == sorted(inside * nv)

    @pytest.mark.parametrize("name", sorted(CATALOG_MODELS))
    def test_reversible_pairs_partition_the_catalog(self, name):
        # Entry e of the exclusion and collision families is direction e % 2
        # of pair e // 2: its decoded Event empties the pair's first slot set
        # into its second (direction 0) or the second into the first.  Each
        # swap {v, w} -> {v', w'} of every site is one collision entry, and
        # its rate, the bound, counts its ordered quadruples in
        # `collisions.active`.
        model = CATALOG_MODELS[name]()
        table, nv = model.table, model.table.nv
        swaps = []
        for kind, pairs in ((EXCLUSION, table.ex_slots), (COLLISION, table.col_slots)):
            assert table.counts[kind] == 2 * table.n_pairs[kind] == 2 * len(pairs)
            half = pairs.shape[1] // 2
            for idx in range(table.counts[kind]):
                ev = table.event_from_entry(kind, idx)
                if kind == EXCLUSION:
                    out, into = [ev.site * nv + ev.velocity], [ev.target * nv + ev.velocity]
                else:
                    q = ev.quadruple
                    out, into = [ev.site * nv + q.v, ev.site * nv + q.w], \
                        [ev.site * nv + q.vp, ev.site * nv + q.wp]
                    swaps.append((ev.site, frozenset((q.v, q.w)), frozenset((q.vp, q.wp))))
                sets = [set(pairs[idx // 2, :half]), set(pairs[idx // 2, half:])]
                assert [set(out), set(into)] == sets[::1 - 2 * (idx % 2)]
        orderings = collections.Counter((frozenset((q.v, q.w)), frozenset((q.vp, q.wp)))
                                        for q in model.collisions.active)
        assert sorted(swaps, key=repr) == sorted(
            ((site, *swap) for site in range(model.lattice.n_sites) for swap in orderings),
            key=repr)
        assert set(orderings.values()) == ({table.bound_col} if orderings else set())
        assert table.bound_ex == table.ex_rate.max()
        assert table.weights == tuple(n * b for n, b in zip(
            table.n_pairs, (table.bound_ex, table.bound_col, table.bound_bd)))

    @pytest.mark.parametrize("name", sorted(RECORDED_EVENTS))
    def test_event_from_entry_matches_recorded_catalog(self, name):
        # Each entry's decoded Event, in catalog order.  The pair order fixes
        # the trajectories (a candidate selects a pair); the entry order
        # fixes the indices the loops return and the generator's mask order.
        assert catalog_record(name) == RECORDED_EVENTS[name]


class TestStep:
    def test_single_possible_event(self, vs2):
        # one particle, exclusion only, on a 2-site segment: the only positive
        # rate is the hop toward the empty site
        model = make_model(3, vs2, collisions=True)
        eta = np.zeros((2, 2), dtype=np.uint8)
        eta[0, 0] = 1
        for seed in range(5):
            state = SimState(model, eta, np.random.default_rng(seed))
            event, wait = step(state)
            assert event.kind == EXCLUSION
            assert (event.site, event.target, event.velocity) == (0, 1, 0)
            assert wait > 0

    def test_waiting_time_mean(self, vs2):
        # fixed state: empirical mean waiting time ~ 1/(N^2 total rate)
        model = make_model(3, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        eta = np.zeros((2, 2), dtype=np.uint8)
        eta[0, 0] = 1
        table = RateTable(model)
        expected = 1.0 / (table.exact_totals(eta).sum() * model.time_scale)
        n = 20_000
        rng = np.random.default_rng(99)
        total = 0.0
        for _ in range(n):
            state = SimState(model, eta, rng)
            _, wait = step(state)
            total += wait
        mean = total / n
        sigma = expected / math.sqrt(n)
        assert abs(mean - expected) <= 4 * sigma

    def test_single_site_stationary_occupation(self, vs2):
        # N=2: one site, boundary flips only; velocity-v occupancy is a
        # two-state chain with birth alpha_v, death 1-alpha_v, so the
        # stationary occupation equals alpha_v
        alpha = [0.3, 0.4]
        model = make_model(2, vs2, alpha=alpha, beta=[0.9, 0.9])
        state = SimState(model, empty_state(model), np.random.default_rng(3))
        # mean total flip rate at stationarity is sum_v 2 alpha_v (1 - alpha_v)
        horizon = 33_000.0
        occ = tracked_occupation(state, horizon)
        assert state.kind_counts.sum() >= 100_000
        for v in range(2):
            rate_sum = 1.0 * model.time_scale  # birth + death = 1, accelerated
            var = 2 * alpha[v] * (1 - alpha[v]) / (rate_sum * horizon)
            assert abs(occ[v] - alpha[v]) <= 4 * math.sqrt(var)


class TestSimulate:
    def test_zero_horizon(self, vs2, rng):
        model = make_model(5, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        eta0 = sample_product_state([0.0, 0.0], model.lattice, vs2, rng)
        res = simulate(eta0, model, 0.0, rng, sample_times=[0.0])
        assert res.n_events == 0
        assert np.array_equal(res.final, eta0)
        assert len(res.samples) == 1

    # Every comparison with NaN is false: a NaN sample time that passed the
    # range check would never be reached by the event loop.
    @pytest.mark.parametrize("horizon,sample_times", [(math.nan, None), (0.0, [math.nan])])
    def test_nan_times_rejected(self, vs2, rng, horizon, sample_times):
        model = make_model(5, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        eta0 = empty_state(model)
        with pytest.raises(ValueError, match="horizon"):
            simulate(eta0, model, horizon, rng, sample_times=sample_times)

    def test_conservation_with_boundary_disabled(self, vs4, rng):
        model = make_model(8, vs4)
        eta0 = sample_product_state([0.0, 0.0], model.lattice, vs4, rng)
        before_counts = eta0.sum(axis=0)
        before_totals = totals(eta0, vs4)
        res = simulate(eta0, model, 2.0, rng)
        assert res.n_events > 500
        assert res.kind_counts[COLLISION] > 0
        # collisions change per-velocity counts but conserve (mass, momentum)
        assert np.array_equal(totals(res.final, vs4), before_totals)
        assert res.final.sum() == before_counts.sum()

    def test_exclusion_only_preserves_velocity_counts(self, vs4, rng):
        model = make_model(8, vs4, collisions=False)
        eta0 = sample_product_state([0.0, 0.0], model.lattice, vs4, rng)
        before = eta0.sum(axis=0)
        res = simulate(eta0, model, 0.2, rng)
        assert np.array_equal(res.final.sum(axis=0), before)

    def test_seed_determinism(self, vs4):
        model = make_model(6, vs4, alpha=[0.3, 0.4, 0.35, 0.45], beta=[0.6, 0.5, 0.55, 0.65])
        eta0 = sample_product_state([0.1, 0.0], model.lattice, vs4, np.random.default_rng(1))
        runs = [simulate(eta0, model, 0.1, np.random.default_rng(77),
                         sample_times=[0.05, 0.1]) for _ in range(2)]
        assert runs[0].n_events == runs[1].n_events
        assert runs[0].kind_counts == runs[1].kind_counts
        assert np.array_equal(runs[0].final, runs[1].final)
        for (ta, ea), (tb, eb) in zip(runs[0].samples, runs[1].samples):
            assert ta == tb and np.array_equal(ea, eb)

    def test_sample_times_validation(self, vs2, rng):
        model = make_model(4, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        eta0 = empty_state(model)
        with pytest.raises(ValueError):
            simulate(eta0, model, 0.1, rng, sample_times=[0.5])

    @pytest.mark.parametrize("times", [[0.0, 0.05, 0.1], []])
    def test_sample_times_may_be_an_array(self, vs2, times):
        # an array has no truth value, so it must not be tested as one
        model = make_model(4, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        eta0 = empty_state(model)
        from_list, from_array = (
            simulate(eta0, model, 0.1, np.random.default_rng(5), sample_times=given)
            for given in (times, np.array(times)))
        assert [t for t, _ in from_array.samples] == times
        assert from_array.n_events == from_list.n_events > 0
        assert np.array_equal(from_array.final, from_list.final)
        for (ta, ea), (tb, eb) in zip(from_list.samples, from_array.samples):
            assert ta == tb and np.array_equal(ea, eb)

    def test_event_log(self, vs2, rng):
        model = make_model(4, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        eta0 = empty_state(model)
        buf = io.StringIO()
        res = simulate(eta0, model, 0.02, rng, event_log=buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].startswith("time,kind")
        assert len(lines) == 1 + res.n_events

    def test_matched_reservoirs_flat_profile(self, vs2):
        # equal reservoirs at product-measure densities: the time-averaged
        # occupation profile is flat at theta_v (stationarity sanity check)
        lam = np.array([0.25, -0.15])
        th = theta_all(lam, vs2)
        model = make_model(8, vs2, alpha=list(th), beta=list(th))
        lat = model.lattice
        horizon = 8.0
        reps = 6
        means = []
        for r in range(reps):
            rng = np.random.default_rng(100 + r)
            eta0 = sample_product_state(lam, lat, vs2, rng)
            means.append(tracked_occupation(SimState(model, eta0, rng), horizon))
        means = np.array(means).reshape(reps, lat.n_sites, 2)
        mean = means.mean(axis=0)
        sem = means.std(axis=0, ddof=1) / math.sqrt(reps)
        dev = np.abs(mean - th[None, :])
        assert np.all(dev <= 4 * sem + 0.02)

    def test_event_count_scaling_with_N(self, vs2):
        # d=1: bulk (exclusion) events ~ N^3 T, boundary events ~ N^2 T
        counts = {}
        for N in (12, 24):
            model = make_model(N, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
            rng = np.random.default_rng(5)
            eta0 = sample_product_state([0.0, 0.0], model.lattice, vs2, rng)
            res = simulate(eta0, model, 0.5, rng)
            counts[N] = res.kind_counts
        bulk_ratio = counts[24][EXCLUSION] / counts[12][EXCLUSION]
        bd_ratio = counts[24][BOUNDARY] / counts[12][BOUNDARY]
        assert 5.6 <= bulk_ratio <= 11.4  # nominal 8
        assert 2.4 <= bd_ratio <= 6.8  # nominal 4

    def test_simulator_matches_exact_stationary_distribution(self, vs2):
        # strongest dynamics oracle: time-averaged slot occupations of a long
        # run against the stationary distribution of the exact generator
        model = make_model(3, vs2, alpha=[0.3, 0.4], beta=[0.6, 0.5])
        assert_matches_exact_stationary(model, seed=400)

    def test_simulator_with_collisions_matches_exact_stationary_distribution(self, vs4):
        # the same oracle on 256 states, where collisions fire in both
        # directions (about 1 event in 7); the longer runs keep the SEM near
        # 0.01 at this slower event rate
        model = make_model(3, vs4, alpha=[0.3, 0.4, 0.35, 0.45], beta=[0.6, 0.5, 0.55, 0.65])
        assert_matches_exact_stationary(model, seed=500, horizon=100.0)


def assert_matches_exact_stationary(model, seed, reps=4, horizon=30.0):
    """Per-slot occupations averaged over `reps` runs from the empty state lie
    within 4 SEM + 0.01 of the exact generator's stationary marginals."""
    import scipy.linalg

    gen = assemble_exact_generator(model)
    # stationary distribution: left null vector of the generator
    w, vl = scipy.linalg.eig(gen.matrix.toarray().T)
    pi = np.real(vl[:, int(np.argmin(np.abs(w)))])
    exact = (pi / pi.sum()) @ gen.state_bits()  # marginal occupation per slot

    sims = np.array([
        tracked_occupation(SimState(model, empty_state(model), np.random.default_rng(seed + r)),
                           horizon)
        for r in range(reps)])
    mean = sims.mean(axis=0)
    sem = sims.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mean - exact) <= 4 * sem + 0.01)

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from latgas.dynamics import ALL_PARTS, Model, ReservoirProfiles
from latgas.errors import SizeError
from latgas.generator import (CHUNK, _cuts, _exit_rates, _expand, _rate_tables,
                              assemble_exact_generator, max_abs, velocity_groups)
from latgas.lattice import Lattice
from latgas.velocities import VelocitySet, two_velocity_set
from reference import (
    boundary_rate,
    collision_rate,
    exclusion_rate,
    exit_rates_by_views,
    four_velocity_set,
    neighbor_sites,
)


def two_site_model(vs2, periodic=True, profiles=None):
    lat = Lattice(3, 1, periodic=periodic)
    return Model(lat, vs2, profiles=profiles)


class TestAssembly:
    def test_state_space_size(self, vs2):
        gen = assemble_exact_generator(two_site_model(vs2), parts=("exclusion",))
        assert gen.n_states == 16

    def test_rows_sum_to_zero_exactly(self, vs2, vs4):
        prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
        models = [
            (two_site_model(vs2), ("exclusion",)),
            (two_site_model(vs2, periodic=False, profiles=prof),
             ("boundary", "collision", "exclusion")),
            (Model(Lattice(2, 1), vs4, profiles=None), ("collision",)),
        ]
        for model, parts in models:
            gen = assemble_exact_generator(model, parts=parts)
            assert np.max(np.abs(gen.row_sums())) == 0.0

    def test_off_diagonal_nonnegative(self, vs2):
        prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
        gen = assemble_exact_generator(two_site_model(vs2, periodic=False, profiles=prof))
        coo = gen.matrix.tocoo()
        off = coo.data[coo.row != coo.col]
        assert np.all(off > 0)

    def test_unknown_part_rejected(self, vs2):
        with pytest.raises(ValueError, match="unknown"):
            assemble_exact_generator(two_site_model(vs2), parts=("drift",))

    def test_size_cap(self, vs4):
        model = Model(Lattice(8, 1), vs4, profiles=None)  # 28 bits
        with pytest.raises(SizeError):
            assemble_exact_generator(model)

    def test_rates_scaled_by_N_squared(self, vs2):
        # single particle on the periodic 2-site ring: hop rates are
        # N^2 (1/2 + p/N) through both channels
        model = two_site_model(vs2)
        gen = assemble_exact_generator(model, parts=("exclusion",))
        state = 1 << (0 * 2 + 0)  # site 0, velocity +1/2
        target = 1 << (1 * 2 + 0)
        n = model.lattice.N
        expected = n**2 * ((0.5 + 0.75 / n) + (0.5 + 0.25 / n))
        assert gen.matrix[state, target] == pytest.approx(expected, rel=1e-14)


def test_a_million_states_stay_under_32_mib(vs4):
    # everything `latgas exact` runs, on the walled four-velocity chain at
    # N = 6 (2^20 states, 29 masks): the rate tables keep the traced peak to
    # a few vectors over the states (8 MiB each; 25.6 MiB measured), where one
    # dense (masks x states) array alone would take 232 MiB
    prof = ReservoirProfiles.constant(vs4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])
    model = Model(Lattice(6, 1), vs4, profiles=prof)
    tracemalloc.start()
    try:
        gen = assemble_exact_generator(model)
        row_max = max_abs(gen.row_sums())
        mu = gen.product_measure(np.array([0.2, -0.1]))
        residual = gen.invariance_residual(mu)
        audit = assemble_exact_generator(model, parts=("collision",)) \
            .detailed_balance_audit(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (gen.n_states, len(gen.flips), row_max) == (2**20, 29, 0.0)
    assert residual > 0.1 and audit["all_reversible"] and audit["n_transitions"] > 0
    assert peak < 32 * 2**20


def wavy(base):
    """A reservoir density that varies along the first transverse axis."""
    return lambda u: base + 0.1 * np.sin(2 * np.pi * u[..., 0])


def reference_off_diagonal(model) -> dict:
    """{(state, state'): N^2 x sum of single-event rates}, from the reference
    rate formulas, one state at a time."""
    lat, nv = model.lattice, len(model.vset)
    n_bits = lat.n_sites * nv
    quads = model.collisions.active if model.collisions is not None else ()
    out: dict = {}

    def add(state, flipped, rate):
        if rate > 0:
            key = (state, state ^ sum(1 << b for b in flipped))
            out[key] = out.get(key, 0.0) + rate

    for state in range(1 << n_bits):
        eta = ((state >> np.arange(n_bits)) & 1).reshape(lat.n_sites, nv)
        for x in range(lat.n_sites):
            for v in range(nv):
                for z in sorted(neighbor_sites(lat, x)):
                    add(state, (x * nv + v, z * nv + v),
                        exclusion_rate(model, eta, x, z, v))
                add(state, (x * nv + v,), boundary_rate(model, eta, x, v))
            for q in quads:
                add(state, [x * nv + k for k in (q.v, q.w, q.vp, q.wp)],
                    collision_rate(eta, x, q))
    return {key: model.time_scale * rate for key, rate in out.items()}


VS2, VS4 = two_velocity_set(0.5), four_velocity_set(0.5, 0.25)
VS2D = VelocitySet(np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]))
VS0_D2 = VelocitySet(np.zeros((1, 2)))
REFERENCE_MODELS = {
    "vs2_walls_N4": lambda: Model(Lattice(4, 1), VS2, profiles=ReservoirProfiles.constant(
        VS2, [0.3, 0.4], [0.6, 0.5])),
    "vs4_walls_N3": lambda: Model(Lattice(3, 1), VS4, profiles=ReservoirProfiles.constant(
        VS4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
    # a ring of four sites (hops across the wrap) and one of two (two
    # directions lead to the same site)
    "vs2_ring_N5": lambda: Model(Lattice(5, 1, periodic=True), VS2),
    "vs4_ring_N3": lambda: Model(Lattice(3, 1, periodic=True), VS4),
    # d = 2: collisions, and a transverse ring of two, on one wall layer ...
    "vs2d_N2": lambda: Model(Lattice(2, 2), VS2D, profiles=ReservoirProfiles(
        VS2D, [wavy(0.3), wavy(0.4), 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
    # ... and both walls with a transverse ring of three
    "vs0_d2_N3": lambda: Model(Lattice(3, 2), VS0_D2, profiles=ReservoirProfiles(
        VS0_D2, [wavy(0.3)], [wavy(0.6)])),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_off_diagonal_matches_reference_rates(name):
    model = REFERENCE_MODELS[name]()
    gen = assemble_exact_generator(model)
    coo = gen.matrix.tocoo()
    off = coo.row != coo.col
    got = dict(zip(zip(coo.row[off].tolist(), coo.col[off].tolist()), coo.data[off].tolist()))
    ref = reference_off_diagonal(model)
    assert sorted(got) == sorted(ref)
    for key, rate in ref.items():
        assert got[key] == pytest.approx(rate, rel=1e-14), key


def masked_rate_rows(table, parts, n_bits: int, scale: float) -> tuple:
    """The generator's rate tables expanded to one row over all states per
    mask, by one masked pass per catalog entry: each entry's N^2-scaled rate
    is added, in catalog order, where the state's bits under the flip mask
    equal the entry's occupied pattern."""
    entries = []  # (flip mask, slots of the mask occupied where it fires, micro rate)
    if "exclusion" in parts:
        for (a, b), (along, back) in zip(table.ex_slots.tolist(), table.ex_rate.tolist()):
            entries += [((1 << a) | (1 << b), 1 << a, along),
                        ((1 << a) | (1 << b), 1 << b, back)]
    if "collision" in parts:
        for a, b, c, d in table.col_slots.tolist():
            flip = (1 << a) | (1 << b) | (1 << c) | (1 << d)
            entries += [(flip, (1 << a) | (1 << b), table.bound_col),
                        (flip, (1 << c) | (1 << d), table.bound_col)]
    if "boundary" in parts:
        for slot, birth, death in zip(table.bd_slot.tolist(), table.bd_birth,
                                      table.bd_death):
            entries += [(1 << slot, 1 << slot, death), (1 << slot, 0, birth)]
    flips = list(dict.fromkeys(flip for flip, _, _ in entries))
    states = np.arange(1 << n_bits, dtype=np.int32)
    rates = np.zeros((len(flips), len(states)))
    for flip, occupied, rate in entries:
        row = rates[flips.index(flip)]
        np.add(row, rate * scale, out=row, where=(states & flip) == occupied)
    return np.array(flips, dtype=np.int64), rates


RATE_ROW_MODELS = {
    # the crosscheck benchmark's walls: 9 sites x 2 velocities = 2^18 states
    "vs2_walls_N10": lambda: Model(Lattice(10, 1), VS2, profiles=ReservoirProfiles.constant(
        VS2, [0.3, 0.4], [0.6, 0.5])),
    "vs4_ring_N4": lambda: Model(Lattice(4, 1, periodic=True), VS4),
    "vs2d_N2": REFERENCE_MODELS["vs2d_N2"],
    "vs0_d2_N3": REFERENCE_MODELS["vs0_d2_N3"],
}


@pytest.mark.parametrize("name", sorted(RATE_ROW_MODELS))
def test_rate_rows_match_the_masked_pass(name):
    model = RATE_ROW_MODELS[name]()
    n_bits = model.lattice.n_sites * len(model.vset)
    for r in range(1, len(ALL_PARTS) + 1):
        for parts in itertools.combinations(ALL_PARTS, r):
            flips, tables = _rate_tables(model.table, parts, model.time_scale)
            want_flips, want_rates = masked_rate_rows(model.table, parts, n_bits,
                                                      model.time_scale)
            rates = np.array([_expand(flip, table, n_bits)
                              for flip, table in zip(flips.tolist(), tables)])
            assert flips.tobytes() == want_flips.tobytes(), parts
            assert rates.tobytes() == want_rates.tobytes(), parts


@pytest.mark.parametrize("name", sorted(RATE_ROW_MODELS))
def test_left_and_exit_match_the_dense_rows_bit_for_bit(name):
    # exit is the rows' sum over axis 0 and mu L adds each row's flux
    # mu rates[k] read at j ^ flips[k] in row order, then -mu exit; mu is
    # generic, with negative entries
    model = RATE_ROW_MODELS[name]()
    n_bits = model.lattice.n_sites * len(model.vset)
    states = np.arange(1 << n_bits)
    mu = np.random.default_rng(7).uniform(-0.5, 1.5, len(states))
    for r in range(len(ALL_PARTS) + 1):
        for parts in itertools.combinations(ALL_PARTS, r):
            gen = assemble_exact_generator(model, parts=parts)
            flips, rates = masked_rate_rows(model.table, parts, n_bits, model.time_scale)
            exit_rates = rates.sum(axis=0)
            want = np.zeros(len(states))
            for flip, rate in zip(flips.tolist(), rates):
                want += (mu * rate)[states ^ flip]
            want -= mu * exit_rates
            assert gen.exit.tobytes() == exit_rates.tobytes(), parts
            assert gen.left(mu).tobytes() == want.tobytes(), parts


@pytest.mark.parametrize("n_bits", range(1, 21))
def test_tiled_exit_rates_match_the_pattern_views(n_bits):
    # random masks of 1-4 bits in a random table order, on both sides of
    # CHUNK where the states reach past it, with tables of random rates and
    # zeros: the tiled pass adds the same terms in the same order
    rng = np.random.default_rng(n_bits)
    low_bits = min(n_bits, CHUNK.bit_length() - 1)
    flips = set()
    for k in range(24):
        width = n_bits if k % 2 else low_bits  # every other mask fits below CHUNK
        bits = rng.choice(width, size=rng.integers(1, min(width, 4) + 1), replace=False)
        flips.add(sum(1 << int(b) for b in bits))
    flips = np.array(sorted(flips, key=lambda f: rng.random()), dtype=np.int64)
    tables = tuple(rng.uniform(0.1, 3.0, (2,) * bin(f).count("1"))
                   * (rng.random((2,) * bin(f).count("1")) < 0.7) for f in flips.tolist())
    if n_bits > low_bits:
        assert min(flips) < CHUNK <= max(flips)
    want = exit_rates_by_views(flips, tables, n_bits)
    assert _exit_rates(flips, tables, n_bits).tobytes() == want.tobytes()


TILED_EXIT_MODELS = {
    "vs2_walls_N10": RATE_ROW_MODELS["vs2_walls_N10"],
    "vs2_ring_N11": lambda: Model(Lattice(11, 1, periodic=True), VS2),
    "vs4_walls_N5": lambda: Model(Lattice(5, 1), VS4, profiles=ReservoirProfiles.constant(
        VS4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])),
    "vs4_ring_N4": RATE_ROW_MODELS["vs4_ring_N4"],
}


@pytest.mark.parametrize("name", sorted(TILED_EXIT_MODELS))
def test_exit_tiles_the_low_masks_bit_for_bit(name):
    # walled and periodic chains of 12 to 20 bits, masks below and above
    # CHUNK: `exit` equals the per-pattern pass, and `row_sums` is zero
    model = TILED_EXIT_MODELS[name]()
    for r in range(1, len(ALL_PARTS) + 1):
        for parts in itertools.combinations(ALL_PARTS, r):
            gen = assemble_exact_generator(model, parts=parts)
            want = exit_rates_by_views(gen.flips, gen.tables, gen.n_bits)
            assert gen.exit.tobytes() == want.tobytes(), parts
            assert not gen.row_sums().any(), parts


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_left_product_matches_the_matrix(name):
    # mu L from the rate table against the built CSR, for every subset of
    # the dynamics; mu is a generic positive vector
    model = REFERENCE_MODELS[name]()
    for r in range(len(ALL_PARTS) + 1):
        for parts in itertools.combinations(ALL_PARTS, r):
            gen = assemble_exact_generator(model, parts=parts)
            mu = np.random.default_rng(r).uniform(0.5, 1.5, gen.n_states)
            got, want = gen.left(mu), mu @ gen.matrix
            assert gen.matrix.indices.dtype == gen.matrix.indptr.dtype == np.int32
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), parts


@pytest.mark.parametrize("flip", [0b000001, 0b100000, 0b100101, 0b010010,
                                  0b111111, 0b000011, 0b110001])
def test_pattern_views_read_the_masked_states(flip):
    # masks with bit 0, the top bit, adjacent and non-adjacent bits; every
    # pattern's view is the states whose bits under the mask read it
    x = np.arange(64)
    shape, cut = _cuts(flip, 6)
    for pattern in range(64):
        if pattern & ~flip:
            continue
        view = x.reshape(shape)[cut(pattern)]
        assert np.shares_memory(view, x)
        assert np.array_equal(view.reshape(-1), x[(x & flip) == pattern])


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_product_measure_matches_a_loop_over_states(name):
    model = REFERENCE_MODELS[name]()
    gen = assemble_exact_generator(model, parts=())
    vt, nv = model.vset.vtilde, len(model.vset)
    lam = np.linspace(0.3, -0.4, vt.shape[1])
    weights = np.ones(gen.n_states)
    for state in range(gen.n_states):
        for site in range(model.lattice.n_sites):
            xi = [(state >> (site * nv + v)) & 1 for v in range(nv)]
            weights[state] *= np.exp(np.dot(xi @ vt, lam))
    np.testing.assert_allclose(gen.product_measure(lam), weights / weights.sum(),
                               rtol=1e-14, atol=0)


class TestInvariance:
    def test_product_measure_invariant_for_periodic_exclusion(self, vs2):
        gen = assemble_exact_generator(two_site_model(vs2), parts=("exclusion",))
        for lam in ([0.0, 0.0], [0.4, -0.3], [1.0, 0.7]):
            assert gen.invariance_residual(gen.product_measure(np.array(lam))) <= 1e-12

    def test_product_measure_invariant_periodic_with_collisions(self, vs4):
        lat = Lattice(3, 1, periodic=True)
        gen = assemble_exact_generator(Model(lat, vs4, profiles=None),
                                       parts=("exclusion", "collision"))
        assert gen.invariance_residual(gen.product_measure(np.array([0.2, -0.4]))) <= 1e-12

    def test_boundary_driven_measure_not_invariant(self, vs2):
        # mismatched reservoirs drive a current; the product measure fails
        prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
        gen = assemble_exact_generator(two_site_model(vs2, periodic=False, profiles=prof))
        assert gen.invariance_residual(gen.product_measure(np.array([0.0, 0.0]))) > 1e-3

    def test_rounding_noise_reads_zero_in_any_summation_order(self, vs4):
        # mu L of an invariant measure is rounding noise whose value depends on
        # the order the rate tables are added; below the rounding bound the
        # residual is exactly 0, so both orders report the same
        gen = assemble_exact_generator(Model(Lattice(5, 1, periodic=True), vs4),
                                       parts=("exclusion", "collision"))
        reverse = dataclasses.replace(gen, flips=gen.flips[::-1], tables=gen.tables[::-1])
        noisy = 0
        for lam in ([0.3, 0.2], [0.2, -0.4], [1.5, -0.7]):
            mu = gen.product_measure(np.array(lam))
            noisy += np.max(np.abs(gen.left(mu))) > 0
            assert gen.invariance_residual(mu) == reverse.invariance_residual(mu) == 0.0
        assert noisy and gen.rounding_bound() < 1e-12

    def test_rounding_noise_of_components_reads_zero_in_any_summation_order(self, vs4):
        # four exclusion layers of 2^4 states on a ring: each layer's mu_c L_c
        # is rounding noise, and the combined residual is exactly 0 whichever
        # layer is read in blocks and in either table order
        model = Model(Lattice(5, 1, periodic=True), vs4)
        gens = [assemble_exact_generator(model, ("exclusion",), group)
                for group in velocity_groups(model, ("exclusion",))]
        reverse = [dataclasses.replace(gen, flips=gen.flips[::-1], tables=gen.tables[::-1])
                   for gen in gens[::-1]]
        noisy = 0
        for lam in ([0.3, 0.2], [0.2, -0.4], [1.5, -0.7]):
            mus = [gen.product_measure(np.array(lam)) for gen in gens]
            noisy += any(np.max(np.abs(gen.left(mu))) > 0 for gen, mu in zip(gens, mus))
            forward = list(zip(gens, mus))
            backward = list(zip(reverse, mus[::-1]))
            assert gens[-1].invariance_residual(mus[-1], forward[:-1]) \
                == reverse[-1].invariance_residual(mus[0], backward[:-1]) == 0.0
        assert len(gens) == 4
        assert noisy and gens[-1].rounding_bound(forward[:-1]) < 1e-12

    def test_residual_is_relative_to_the_largest_outflow(self, vs4):
        prof = ReservoirProfiles.constant(vs4, [0.3, 0.4, 0.35, 0.45], [0.6, 0.5, 0.55, 0.65])
        gen = assemble_exact_generator(Model(Lattice(4, 1), vs4, profiles=prof))
        mu = gen.product_measure(np.array([0.2, -0.1]))
        relative = np.max(np.abs(mu @ gen.matrix)) / np.max(mu * gen.exit)
        assert gen.invariance_residual(mu) == pytest.approx(relative, rel=1e-12)
        assert relative > 0.1

    @pytest.mark.parametrize("at", [0, -1])
    def test_a_nan_in_the_measure_reads_nan(self, vs4, at):
        # an overflowed measure is not reported as invariant
        gen = assemble_exact_generator(Model(Lattice(3, 1, periodic=True), vs4),
                                       parts=("exclusion", "collision"))
        mu = gen.product_measure(np.array([0.2, -0.4]))
        mu[at] = np.nan
        assert np.isnan(gen.invariance_residual(mu))


def component_states(model, group) -> np.ndarray:
    """Each whole-chain state's state in the chain of `group`'s velocities:
    slot (site, v) read into bit site * len(group) + rank of v."""
    nv, states = len(model.vset), np.arange(1 << model.lattice.n_sites * len(model.vset))
    return sum(((states >> (x * nv + v)) & 1) << (x * len(group) + r)
               for x in range(model.lattice.n_sites) for r, v in enumerate(group))


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_the_chain_is_the_kronecker_sum_of_its_components(name):
    # for every subset of the dynamics, the whole generator equals the sum
    # over components c of L_c acting on c's bits with the others' held
    model = REFERENCE_MODELS[name]()
    lam = np.linspace(0.3, -0.4, model.vset.vtilde.shape[1])
    for r in range(len(ALL_PARTS) + 1):
        for parts in itertools.combinations(ALL_PARTS, r):
            whole = assemble_exact_generator(model, parts)
            groups = velocity_groups(model, parts)
            index = [component_states(model, group) for group in groups]
            same = [i[:, None] == i[None, :] for i in index]
            want = np.zeros((whole.n_states, whole.n_states))
            measure = np.ones(whole.n_states)
            for c, group in enumerate(groups):
                gen = assemble_exact_generator(model, parts, group)
                held = np.prod([same[j] for j in range(len(groups)) if j != c], axis=0)
                want += gen.matrix.toarray()[index[c][:, None], index[c][None, :]] * held
                measure *= gen.product_measure(lam)[index[c]]
            np.testing.assert_allclose(whole.matrix.toarray(), want, rtol=1e-14, atol=0,
                                       err_msg=str(parts))
            np.testing.assert_allclose(whole.product_measure(lam), measure, rtol=1e-14,
                                       atol=0, err_msg=str(parts))
            if "collision" not in parts:
                assert groups == [(v,) for v in range(len(model.vset))]


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_components_give_the_whole_chains_residual(name):
    # the residual combined in blocks from the components against the one
    # read on the whole chain, for every subset of the dynamics
    model = REFERENCE_MODELS[name]()
    lam = np.linspace(0.3, -0.4, model.vset.vtilde.shape[1])
    for r in range(len(ALL_PARTS) + 1):
        for parts in itertools.combinations(ALL_PARTS, r):
            whole = assemble_exact_generator(model, parts)
            gens = [assemble_exact_generator(model, parts, group)
                    for group in velocity_groups(model, parts)]
            pairs = [(gen, gen.product_measure(lam)) for gen in gens]
            got = gens[-1].invariance_residual(pairs[-1][1], pairs[:-1])
            want = whole.invariance_residual(whole.product_measure(lam))
            assert got == pytest.approx(want, rel=1e-12, abs=0), parts


def stationary(gen) -> np.ndarray:
    """The generator's stationary law: the dense null vector of its matrix,
    normalized."""
    lhs = gen.matrix.toarray().T
    lhs[-1] = 1.0
    return np.linalg.solve(lhs, np.eye(gen.n_states)[-1])


def spectral_gap(gen) -> float:
    rates = np.sort(-np.linalg.eigvals(gen.matrix.toarray()).real)
    return rates[1]


@pytest.mark.parametrize("n", [4, 6])
def test_walled_two_velocity_ness_is_the_product_of_its_layers(n):
    # no collision joins +-1/2, so the driven chain is two independent open
    # exclusion layers: its stationary law is the product of theirs, and at
    # N = 4 its spectral gap is the smaller layer gap
    model = Model(Lattice(n, 1), VS2, profiles=ReservoirProfiles.constant(
        VS2, [0.3, 0.4], [0.6, 0.5]))
    whole = assemble_exact_generator(model)
    groups = velocity_groups(model)
    layers = [assemble_exact_generator(model, group=group) for group in groups]
    product = np.ones(whole.n_states)
    for group, layer in zip(groups, layers):
        product *= stationary(layer)[component_states(model, group)]
    assert groups == [(0,), (1,)]
    assert np.max(np.abs(stationary(whole) - product)) <= 1e-12
    if n == 4:
        assert spectral_gap(whole) == pytest.approx(min(map(spectral_gap, layers)), rel=1e-12)


def dict_audit(gen, lam):
    """Reference detailed-balance audit: a walk over a dict of the entries."""
    mu = gen.product_measure(lam)
    coo = gen.matrix.tocoo()
    entries = {(int(i), int(j)): float(r)
               for i, j, r in zip(coo.row, coo.col, coo.data) if i != j}
    worst, reversible = 0.0, True
    for (i, j), r in entries.items():
        r_back = entries.get((j, i))
        if r_back is None:
            reversible = False
            continue
        worst = max(worst, abs(mu[i] * r - mu[j] * r_back))
    return {"n_transitions": len(entries), "worst_imbalance": worst,
            "all_reversible": reversible}


class TestDetailedBalance:
    def test_audit_matches_dict_walk(self, vs2, vs4):
        lam = np.array([0.4, -0.3])
        prof = ReservoirProfiles.constant(vs2, [0.3, 0.4], [0.6, 0.5])
        exclusion = assemble_exact_generator(two_site_model(vs2), parts=("exclusion",))
        driven = assemble_exact_generator(two_site_model(vs2, periodic=False, profiles=prof))
        collision = assemble_exact_generator(Model(Lattice(2, 1), vs4, profiles=None),
                                             parts=("collision",))
        # drop one table entry, leaving the transitions from its pattern's
        # states without a partner; the audit reads the rate tables, and
        # dict_audit the matrix built from them
        tables = list(exclusion.tables)
        tables[0] = tables[0].copy()
        index = tuple(np.argwhere(tables[0])[0])
        tables[0][index] = 0.0
        one_way = dataclasses.replace(exclusion, tables=tuple(tables))
        dropped = exclusion.n_states >> tables[0].ndim
        audits = {}
        for name, gen in (("exclusion", exclusion), ("driven", driven),
                          ("collision", collision), ("one_way", one_way)):
            audits[name] = gen.detailed_balance_audit(gen.product_measure(lam))
            assert audits[name] == dict_audit(gen, lam), name
        assert audits["driven"]["worst_imbalance"] > 0.0
        assert not audits["one_way"]["all_reversible"]
        assert audits["one_way"]["n_transitions"] == \
            audits["exclusion"]["n_transitions"] - dropped

    def test_two_velocity_system_has_no_collision_transitions(self, vs2):
        gen = assemble_exact_generator(two_site_model(vs2, periodic=False),
                                       parts=("collision",))
        audit = gen.detailed_balance_audit(gen.product_measure(np.array([0.3, 0.2])))
        assert audit["n_transitions"] == 0
        assert audit["worst_imbalance"] == 0.0

    def test_four_velocity_collisions_balance_exactly(self, vs4):
        for n_sites_lat in (Lattice(2, 1), Lattice(3, 1)):
            gen = assemble_exact_generator(Model(n_sites_lat, vs4, profiles=None),
                                           parts=("collision",))
            for lam in ([0.0, 0.0], [0.3, 1.1], [-0.7, 0.4]):
                audit = gen.detailed_balance_audit(gen.product_measure(np.array(lam)))
                assert audit["n_transitions"] > 0
                assert audit["all_reversible"]
                assert audit["worst_imbalance"] == 0.0

    def test_a_nan_measure_reads_nan(self, vs4):
        gen = assemble_exact_generator(Model(Lattice(3, 1), vs4, profiles=None),
                                       parts=("collision",))
        audit = gen.detailed_balance_audit(np.full(gen.n_states, np.nan))
        assert audit["n_transitions"] > 0 and np.isnan(audit["worst_imbalance"])

    def test_boundary_reversible_when_matched(self, vs2):
        # with alpha = beta = theta(lam) the boundary dynamics is reversible
        # for the product measure at lam
        from latgas.thermo import theta_all

        lam = np.array([0.3, -0.2])
        th = theta_all(lam, vs2)
        prof = ReservoirProfiles.constant(vs2, list(th), list(th))
        gen = assemble_exact_generator(two_site_model(vs2, periodic=False, profiles=prof),
                                       parts=("boundary",))
        audit = gen.detailed_balance_audit(gen.product_measure(lam))
        assert audit["n_transitions"] > 0
        assert audit["all_reversible"]
        assert audit["worst_imbalance"] <= 1e-16

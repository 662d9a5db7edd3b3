import numpy as np
import pytest

from latgas.empirical import block_average, empirical_measure, l1_distance, smooth
from latgas.config import write_csv
from latgas.errors import DomainError
from latgas.grid import Grid, field_columns, field_rows
from latgas.lattice import Lattice
from latgas.thermo import theta_all
from latgas.velocities import VelocitySet
from reference import conserved_of_state, coords, index, sample_product_state


def pair(masses, lattice, G, component: int = 0) -> float:
    """<pi_k, G> = sum over atoms of mass_k(x) G(x), G a function or a constant."""
    positions = lattice.positions()
    gvals = G(positions) if callable(G) else np.full(len(positions), G)
    return float(masses[..., component] @ gvals)


class TestEmpiricalMeasure:
    def test_full_configuration_total_mass(self, vs_unit):
        lat = Lattice(4, 1)
        eta = np.ones((3, 2), dtype=np.uint8)
        m = empirical_measure(eta, lat, vs_unit)
        assert m.sum(axis=0) == pytest.approx([2 * 3 / 4, 0.0])

    def test_empty_configuration(self, vs2):
        lat = Lattice(6, 1)
        m = empirical_measure(np.zeros((5, 2), dtype=np.uint8), lat, vs2)
        assert np.all(m == 0.0)

    def test_pairing_matches_bruteforce(self, vs4, rng):
        lat = Lattice(9, 1)
        eta = sample_product_state([0.2, -0.1], lat, vs4, rng)
        m = empirical_measure(eta, lat, vs4)
        g = lambda u: 1.5 * u[:, 0] - 0.25
        for k in range(2):
            brute = 0.0
            for s in range(lat.n_sites):
                x = coords(lat, s)[0] / lat.N
                brute += (conserved_of_state(eta[s], vs4)[k] / lat.N) * (1.5 * x - 0.25)
            assert pair(m, lat, g, component=k) == pytest.approx(brute, abs=1e-14)

    def test_pair_constants(self, vs2, rng):
        lat = Lattice(8, 1)
        eta = sample_product_state([0.0, 0.0], lat, vs2, rng)
        m = empirical_measure(eta, lat, vs2)
        assert pair(m, lat, 1.0, component=0) == pytest.approx(m[:, 0].sum())
        assert pair(m, lat, 0.0, component=0) == 0.0


class TestBlockAverage:
    def test_constant_configuration(self, vs4):
        lat = Lattice(9, 1)
        eta = np.zeros((8, 4), dtype=np.uint8)
        eta[:, [0, 3]] = 1  # +1/2 and -1/4 occupied everywhere
        expect = conserved_of_state(eta[0], vs4)
        got = block_average(eta, lat, vs4, [4], 2)[0]
        assert np.allclose(got, expect, atol=1e-15)

    def test_radius_zero_is_single_site(self, vs4, rng):
        lat = Lattice(9, 1)
        eta = sample_product_state([0.1, 0.2], lat, vs4, rng)
        s = index(lat, (5,))
        got = block_average(eta, lat, vs4, [5], 0)[0]
        assert np.array_equal(got, conserved_of_state(eta[s], vs4))

    def test_matches_bruteforce(self, vs2, rng):
        lat = Lattice(12, 1)
        eta = sample_product_state([0.0, 0.4], lat, vs2, rng)
        L = 2
        got = block_average(eta, lat, vs2, [6], L)[0]
        brute = np.zeros(2)
        for x1 in range(4, 9):
            brute += conserved_of_state(eta[index(lat, (x1,))], vs2)
        assert np.allclose(got, brute / 5, atol=1e-14)

    def test_transverse_wrap(self, vs2d, rng):
        lat = Lattice(5, 2)
        eta = sample_product_state([0.0, 0.0, 0.0], lat, vs2d, rng)
        got = block_average(eta, lat, vs2d, [2], 1)[0]
        brute = np.zeros(3)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                site = index(lat, (2 + dx, (0 + dy) % 5))
                brute += conserved_of_state(eta[site], vs2d)
        assert np.allclose(got, brute / 9, atol=1e-14)

    def test_zero_momentum_reads_exactly_zero(self):
        # 0.35 + 0.1 - 0.35 - 0.1 added site by site in floats is not 0
        vs = VelocitySet(np.array([[0.5], [-0.5], [0.35], [-0.35], [0.1], [-0.1]]))
        lat = Lattice(8, 1)
        eta = np.zeros((7, 6), dtype=np.uint8)
        eta[[1, 2, 3, 4], [2, 4, 3, 5]] = 1
        assert sum(conserved_of_state(row, vs)[1] for row in eta[1:6]) != 0.0
        assert block_average(eta, lat, vs, [4], 2)[0].tolist() == [4 / 5, 0.0]

    def test_wall_violation(self, vs2):
        lat = Lattice(8, 1)
        eta = np.zeros((7, 2), dtype=np.uint8)
        with pytest.raises(DomainError):
            block_average(eta, lat, vs2, [1], 1)
        with pytest.raises(DomainError):
            block_average(eta, lat, vs2, [7], 1)


class TestSmoothing:
    def test_single_atom_density(self, vs2):
        lat = Lattice(10, 1)
        eta = np.zeros((9, 2), dtype=np.uint8)
        eta[index(lat, (5,)), 0] = 1  # one particle at u = 0.5
        m = empirical_measure(eta, lat, vs2)
        grid = Grid(1, 41)
        eps = 0.1
        sf = smooth(m, lat, eps, grid)
        mass = 1 / 10
        expect = mass / (2 * eps * (1 + eps))
        u = grid.axis(0)
        holds = np.abs(u - 0.5) <= eps - 1e-12
        assert np.allclose(sf[holds, 0], expect, atol=1e-14)
        far = np.abs(u - 0.5) > eps + 1e-12
        assert np.all(sf[far, 0] == 0.0)

    def test_uniform_atoms_near_flat(self, vs2, rng):
        lat = Lattice(2001, 1)
        eta = sample_product_state([0.0, 0.0], lat, vs2, rng)
        m = empirical_measure(eta, lat, vs2)
        grid = Grid(1, 41)
        eps = 0.1
        sf = smooth(m, lat, eps, grid)
        interior = (grid.axis(0) >= eps) & (grid.axis(0) <= 1 - eps)
        # An interior box holds n = 2 eps N sites, up to one site; each site
        # carries mass sum_v theta_v / N with variance sum_v chi(theta_v) / N^2.
        th = theta_all([0.0, 0.0], vs2)
        n = 2 * eps * lat.N
        scale = lat.N * 2 * eps * (1 + eps)
        mean = n * th.sum() / scale
        sigma = np.sqrt(n * np.sum(th * (1 - th))) / scale
        # 5 sigma per node: a correct smoother fails on one of the 33 nodes with
        # probability <= 33 x 5.7e-7.  One site more or less moves a mean by mean / n.
        assert np.all(np.abs(sf[interior, 0] - mean) <= 5 * sigma + mean / n)

    def test_pairing_converges_as_eps_shrinks(self, vs2, rng):
        lat = Lattice(4001, 1)
        eta = sample_product_state([0.3, 0.1], lat, vs2, rng)
        m = empirical_measure(eta, lat, vs2)
        g = lambda u: np.sin(np.pi * u)
        target = pair(m, lat, lambda p: np.sin(np.pi * p[:, 0]), component=0)
        errors = []
        for eps in (0.1, 0.05, 0.025):
            grid = Grid(1, 161)
            sf = smooth(m, lat, eps, grid)
            w = grid.weights()
            approx = float(np.sum(w * g(grid.axis(0)) * sf[:, 0]))
            errors.append(abs(approx - target))
        assert errors[0] > errors[1] > errors[2]

    def test_grid_resolution_precondition(self, vs2, rng):
        lat = Lattice(50, 1)
        m = empirical_measure(sample_product_state([0, 0], lat, vs2, rng), lat, vs2)
        with pytest.raises(ValueError, match="eps/2"):
            smooth(m, lat, 0.02, Grid(1, 17))

    def test_box_values_within_bounds(self, vs2, rng):
        lat = Lattice(64, 1)
        eta = sample_product_state([2.0, 0.0], lat, vs2, rng)
        sf = smooth(empirical_measure(eta, lat, vs2), lat, 0.1, Grid(1, 65))
        assert np.all(sf[..., 0] >= 0.0)
        assert np.all(sf[..., 0] <= len(vs2))
        assert np.all(np.abs(sf[..., 1]) <= np.max(vs2.velocities) * len(vs2))

    def test_csv_export(self, vs2, rng, tmp_path):
        lat = Lattice(32, 1)
        eps, grid = 0.1, Grid(1, 33)
        sf = smooth(empirical_measure(
            sample_product_state([0, 0], lat, vs2, rng), lat, vs2), lat, eps, grid)
        path = tmp_path / "field.csv"
        write_csv(path, ["test", f"eps={eps} u_eps={1 + eps}"], field_columns(grid),
                  field_rows(grid, [1 / 3], [sf]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# test"
        assert lines[1] == "# eps=0.1 u_eps=1.1"
        assert lines[2].strip() == "t,u1,comp0,comp1"
        assert len(lines) == 3 + 33
        rho, p = sf[1]
        assert lines[4].strip() == f"0.3333333333,0.03125,{rho:.12g},{p:.12g}"


@pytest.mark.parametrize("d, N, m1, mt, eps", [(1, 6, 17, 0, 0.125), (2, 5, 9, 8, 0.25)])
def test_batched_calls_match_single_calls(d, N, m1, mt, eps, vs2, vs2d):
    # a (3, 2) stack of configurations measured, smoothed, block-averaged and
    # compared in one call each gives the bytes of six single calls; in d = 2
    # the boxes and blocks wrap the transverse axis (eps = 1/4 on a
    # transverse ring of five sites)
    vs, lat, grid = (vs2, Lattice(N, 1), Grid(1, m1)) if d == 1 else (
        vs2d, Lattice(N, 2), Grid(2, m1, mt))
    rng = np.random.default_rng(d)
    etas = rng.integers(0, 2, size=(3, 2, lat.n_sites, len(vs)), dtype=np.uint8)
    ref = rng.random(grid.shape + (d + 1,))
    batch = empirical_measure(etas, lat, vs)
    fields = smooth(batch, lat, eps, grid)
    l1 = l1_distance(grid, fields, ref)
    centers = list(range(2, N - 1))
    blocks = block_average(etas, lat, vs, centers, 1)
    assert fields.shape == (3, 2) + grid.shape + (d + 1,) and l1.shape == (3, 2, d + 1)
    assert blocks.shape == (3, 2, len(centers), d + 1)
    for i, j in np.ndindex(3, 2):
        one = empirical_measure(etas[i, j], lat, vs)
        field = smooth(one, lat, eps, grid)
        assert batch[i, j].tobytes() == one.tobytes()
        assert fields[i, j].tobytes() == field.tobytes()
        assert l1[i, j].tobytes() == l1_distance(grid, field, ref).tobytes()
        assert batch.sum(axis=-2)[i, j].tobytes() == one.sum(axis=-2).tobytes()
        for k, c in enumerate(centers):
            assert (blocks[i, j, k].tobytes()
                    == block_average(etas[i, j], lat, vs, [c], 1)[0].tobytes())
    # a run with no sample times smooths and block-averages an empty stack
    empty = smooth(empirical_measure(etas[:, :0], lat, vs), lat, eps, grid)
    assert empty.shape == (3, 0) + grid.shape + (d + 1,)
    assert block_average(etas[:, :0], lat, vs, centers, 1).shape == (3, 0, len(centers), d + 1)
    with pytest.raises(ValueError):
        empirical_measure(etas[..., :-1, :], lat, vs)
    with pytest.raises(ValueError):
        l1_distance(grid, fields, ref[..., :-1])
    with pytest.raises(ValueError):
        l1_distance(grid, fields, ref[:-1])


def test_l1_distance():
    grid = Grid(1, 11)
    a = np.zeros((11, 2))
    b = np.ones((11, 2))
    assert np.allclose(l1_distance(grid, a, b), [1.0, 1.0], atol=1e-14)
    with pytest.raises(ValueError):
        l1_distance(grid, a, np.ones((10, 2)))

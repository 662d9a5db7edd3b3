import numpy as np
import pytest

from latgas.dynamics import Model, ReservoirProfiles
from latgas.lattice import Lattice
from latgas.velocities import two_velocity_set
from reference import (
    BoundarySide,
    conserved_of_state,
    coords,
    index,
    neighbor_site,
    sample_product_state,
    side_of,
    totals,
)


def neighbors(lat, site) -> list:
    """The jump targets of one site's row of the neighbor table."""
    return [int(t) for t in lat.neighbor_table()[site] if t >= 0]


class TestGeometry:
    def test_site_count(self):
        assert Lattice(4, 1).n_sites == 3
        assert Lattice(3, 2).n_sites == 2 * 3
        assert Lattice(5, 3).n_sites == 4 * 25

    def test_index_coord_roundtrip(self):
        lat = Lattice(4, 2)
        for s in range(lat.n_sites):
            assert index(lat, coords(lat, s)) == s

    def test_invalid_coordinates(self):
        lat = Lattice(4, 1)
        with pytest.raises(ValueError):
            index(lat, (0,))
        with pytest.raises(ValueError):
            index(lat, (4,))


class TestNeighbors:
    def test_d1_bulk(self):
        lat = Lattice(4, 1)
        nbrs = {coords(lat, t)[0] for t in neighbors(lat, index(lat, (2,)))}
        assert nbrs == {1, 3}

    def test_d1_wall(self):
        lat = Lattice(4, 1)
        nbrs = {coords(lat, t)[0] for t in neighbors(lat, index(lat, (1,)))}
        assert nbrs == {2}

    def test_d2_transverse_wrap(self):
        lat = Lattice(3, 2)
        nbrs = {coords(lat, t) for t in neighbors(lat, index(lat, (1, 0)))}
        assert nbrs == {(2, 0), (1, 1), (1, 2)}

    def test_symmetry(self):
        lat = Lattice(5, 2)
        for s in range(lat.n_sites):
            for t in neighbors(lat, s):
                assert s in neighbors(lat, t)

    def test_neighbor_counts(self):
        for d in (1, 2):
            lat = Lattice(5, d)
            for s in range(lat.n_sites):
                expected = 2 * d if side_of(lat, s) == BoundarySide.BULK else 2 * d - 1
                assert len(neighbors(lat, s)) == expected

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_ring_of_one_site_is_rejected(self, d):
        # its hops would land on their own slot; a ring of two sites is the
        # smallest, with two bonds between them
        with pytest.raises(ValueError, match="periodic lattice needs N >= 3"):
            Lattice(2, d, periodic=True)
        assert Lattice(3, d, periodic=True).n_sites == 2 * 3 ** (d - 1)

    def test_periodic_wrap_first_axis(self):
        lat = Lattice(4, 1, periodic=True)
        nbrs = {coords(lat, t)[0] for t in neighbors(lat, index(lat, (3,)))}
        assert nbrs == {2, 1}  # wraps on the ring of 3 sites
        assert all(len(neighbors(lat, s)) == 2 for s in range(lat.n_sites))

    @pytest.mark.parametrize("lat", [
        Lattice(2, 1), Lattice(5, 1),
        Lattice(3, 1, periodic=True), Lattice(5, 1, periodic=True),
        Lattice(2, 2), Lattice(4, 2), Lattice(3, 3, periodic=True),
    ], ids=repr)
    def test_neighbor_table_matches_neighbor_site(self, lat):
        table = lat.neighbor_table()
        assert table.shape == (lat.n_sites, 2 * lat.d)
        for s in range(lat.n_sites):
            for direction in range(2 * lat.d):
                assert table[s, direction] == neighbor_site(lat, s, direction)


VS2 = two_velocity_set(0.5)
ALPHA, BETA = (0.3, 0.4), (0.6, 0.55)


def catalog_side(lat, site):
    """The reservoir of a site's flips in the event catalog, told apart by
    their birth rates: alpha on the left wall, beta on the right."""
    table = Model(lat, VS2, profiles=ReservoirProfiles.constant(VS2, ALPHA, BETA)).table
    births = tuple(table.bd_birth[table.bd_slot // len(VS2) == site])
    return {(): BoundarySide.BULK, ALPHA: BoundarySide.LEFT, BETA: BoundarySide.RIGHT}[births]


class TestClassify:
    @pytest.mark.parametrize("x1,side", [(1, BoundarySide.LEFT), (4, BoundarySide.RIGHT),
                                         (2, BoundarySide.BULK), (3, BoundarySide.BULK)])
    def test_n5(self, x1, side):
        lat = Lattice(5, 1)
        assert side_of(lat, index(lat, (x1,))) == side
        assert catalog_side(lat, index(lat, (x1,))) == side

    def test_n2_single_site_is_left(self):
        # x1 = 1 = N-1: the left wall's reservoir takes precedence
        lat = Lattice(2, 1)
        assert side_of(lat, 0) == catalog_side(lat, 0) == BoundarySide.LEFT

    def test_periodic_all_bulk(self):
        lat = Lattice(5, 1, periodic=True)
        assert all(side_of(lat, s) == catalog_side(lat, s) == BoundarySide.BULK
                   for s in range(lat.n_sites))


class TestTotals:
    def test_empty(self, vs2):
        lat = Lattice(4, 1)
        eta = np.zeros((lat.n_sites, 2), dtype=np.uint8)
        assert np.array_equal(totals(eta, vs2), [0.0, 0.0])

    def test_full_unit_set(self, vs_unit):
        lat = Lattice(4, 1)
        eta = np.ones((lat.n_sites, 2), dtype=np.uint8)
        assert np.array_equal(totals(eta, vs_unit), [6.0, 0.0])

    def test_matches_per_site_loop(self, vs4, rng):
        lat = Lattice(6, 1)
        eta = sample_product_state([0.2, 0.1], lat, vs4, rng)
        brute = np.zeros(2)
        for s in range(lat.n_sites):
            brute += conserved_of_state(eta[s], vs4)
        assert np.allclose(totals(eta, vs4), brute, atol=1e-12)

    def test_additive_over_partitions(self, vs4, rng):
        lat = Lattice(9, 1)
        eta = sample_product_state([0.0, 0.3], lat, vs4, rng)
        whole = totals(eta, vs4)
        parts = totals(eta[:3], vs4) + totals(eta[3:], vs4)
        assert np.allclose(whole, parts, atol=1e-12)


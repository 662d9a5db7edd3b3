import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgas.errors import ConvergenceError, DomainError
from latgas.lattice import Lattice
from latgas.thermo import (
    ConvexDomain,
    domain_of,
    exact_theta,
    invert_conserved,
    sample_profile_state,
    theta_all,
    theta_field,
)
from latgas.velocities import VelocitySet
from reference import chi, conserved_of_state, sample_product_state


def rho_p_of_lambda(lam, vset):
    """Forward map: conserved vector (rho, p) of the product measure at lam."""
    return theta_all(lam, vset) @ vset.vtilde


def random_interior_targets(vset, rng, n):
    """Interior points generated by pushing random potentials through the forward map."""
    lams = rng.normal(scale=1.5, size=(n, vset.d + 1))
    return rho_p_of_lambda(lams, vset)


class TestConservedOfState:
    def test_full_site_symmetric(self, vs_unit):
        assert np.array_equal(conserved_of_state([1, 1], vs_unit), [2.0, 0.0])

    def test_single_particle(self, vs_unit):
        assert np.array_equal(conserved_of_state([1, 0], vs_unit), [1.0, 1.0])

    def test_empty_site_d2(self, vs2d):
        assert np.array_equal(conserved_of_state([0, 0, 0, 0], vs2d), [0.0, 0.0, 0.0])

    def test_shape_mismatch(self, vs_unit):
        with pytest.raises(ValueError):
            conserved_of_state([1, 0, 1], vs_unit)


class TestTheta:
    def test_zero_potential(self, vs2):
        assert theta_all([0.0, 0.0], vs2).tolist() == [0.5, 0.5]

    def test_log3_values(self, vs_unit):
        # velocity +1 is slot 0, velocity -1 slot 1
        assert theta_all([math.log(3), 0.0], vs_unit)[0] == pytest.approx(0.75, abs=1e-15)
        assert theta_all([0.0, math.log(3)], vs_unit)[1] == pytest.approx(0.25, abs=1e-15)

    def test_stable_for_large_potentials(self, vs2):
        with np.errstate(over="raise"):
            lo = theta_all(np.array([-800.0, 0.0]), vs2)
            hi = theta_all(np.array([800.0, 0.0]), vs2)
        assert np.all(lo >= 0.0) and np.all(hi <= 1.0)
        assert np.all(lo < 1e-300)

    # |logit| <= ~22 keeps the logistic away from FP saturation at 1.0
    @given(lam0=st.floats(-15, 15), lam1=st.floats(-15, 15))
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotonicity(self, lam0, lam1):
        from latgas.velocities import two_velocity_set

        vs = two_velocity_set(0.5)
        th = theta_all(np.array([lam0, lam1]), vs)
        assert np.all((th > 0.0) & (th < 1.0))
        th_up = theta_all(np.array([lam0 + 0.5, lam1]), vs)
        assert np.all(th_up > th)


class TestChi:
    @pytest.mark.parametrize("r,expected", [(0.0, 0.0), (0.5, 0.25), (0.75, 3 / 16)])
    def test_values(self, r, expected):
        assert chi(r) == pytest.approx(expected, abs=1e-16)

    @given(st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, r):
        assert 0.0 <= chi(r) <= 0.25


class TestForwardMap:
    def test_zero_potential(self, vs_unit):
        assert np.allclose(rho_p_of_lambda([0.0, 0.0], vs_unit), [1.0, 0.0], atol=1e-15)

    def test_log3(self, vs_unit):
        out = rho_p_of_lambda([math.log(3), 0.0], vs_unit)
        assert out == pytest.approx([1.5, 0.0], abs=1e-15)

    def test_roundtrip_through_inverse(self, vs4, rng):
        lams = rng.normal(scale=1.2, size=(200, 2))
        targets = rho_p_of_lambda(lams, vs4)
        back = invert_conserved(targets, vs4)
        assert np.max(np.abs(rho_p_of_lambda(back, vs4) - targets)) <= 1e-12
        # the potential itself is recovered (diffeomorphism)
        assert np.max(np.abs(back - lams)) < 1e-9


class TestInverse:
    def test_center(self, vs_unit):
        assert np.allclose(invert_conserved([1.0, 0.0], vs_unit), [0.0, 0.0], atol=1e-13)

    def test_closed_form_two_velocities(self, vs_unit):
        # theta_{±v}(Lambda(rho, p)) = rho/2 ± p/(2v) for the minimal d=1 set
        lam = invert_conserved([1.0, 0.5], vs_unit)
        assert theta_all(lam, vs_unit) == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_closed_form_randomized(self, vs2, rng):
        v = 0.5
        targets = random_interior_targets(vs2, rng, 100)
        th = theta_field(targets, vs2)
        expect_plus = targets[:, 0] / 2 + targets[:, 1] / (2 * v)
        expect_minus = targets[:, 0] / 2 - targets[:, 1] / (2 * v)
        assert np.max(np.abs(th[:, 0] - expect_plus)) <= 1e-12
        assert np.max(np.abs(th[:, 1] - expect_minus)) <= 1e-12

    def test_rejects_boundary_and_exterior(self, vs_unit):
        with pytest.raises(DomainError):
            invert_conserved([2.0, 0.0], vs_unit)  # hull vertex
        with pytest.raises(DomainError):
            invert_conserved([3.0, 0.0], vs_unit)

    def test_warm_start(self, vs4, rng):
        targets = random_interior_targets(vs4, rng, 32)
        lam = invert_conserved(targets, vs4)
        again = invert_conserved(targets, vs4, lam0=lam)
        assert np.max(np.abs(again - lam)) < 1e-9


class TestThetaField:
    def test_center_value(self, vs_unit):
        assert np.allclose(theta_field([1.0, 0.0], vs_unit), [0.5, 0.5], atol=1e-13)

    def test_consistency_sums(self, vs4, rng):
        targets = random_interior_targets(vs4, rng, 50)
        th = theta_field(targets, vs4)
        recon = th @ vs4.vtilde
        assert np.max(np.abs(recon - targets)) <= 1e-10

    def test_midpoint_affinity_minimal_set(self, vs2, rng):
        # exact for the d=1 two-velocity family, where theta is affine in (rho, p)
        a = random_interior_targets(vs2, rng, 40)
        b = random_interior_targets(vs2, rng, 40)
        mid = 0.5 * (a + b)
        gap = theta_field(mid, vs2) - 0.5 * (theta_field(a, vs2) + theta_field(b, vs2))
        assert np.max(np.abs(gap)) <= 1e-10

    def test_affinity_all_epsilon(self, vs2, rng):
        a = random_interior_targets(vs2, rng, 10)
        b = random_interior_targets(vs2, rng, 10)
        for eps in np.linspace(0.0, 1.0, 9):
            mix = (1 - eps) * a + eps * b
            gap = theta_field(mix, vs2) - (
                (1 - eps) * theta_field(a, vs2) + eps * theta_field(b, vs2)
            )
            assert np.max(np.abs(gap)) <= 1e-10


class _UncheckedVelocitySet(VelocitySet):
    """A velocity set without the reflection/permutation check.  The
    thermodynamics reads only vtilde, and no symmetric set in d = 2 has
    exactly d+1 velocities."""

    def _validate(self):
        pass


@pytest.fixture
def vs_square_d2():
    """d=2 set {(1, 0), (0, 1), (-1, -1)}: vtilde is square with det 3."""
    return _UncheckedVelocitySet(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))


class TestExactInverse:
    """Sets of d+1 velocities invert in closed form, theta = w vtilde^-1."""

    def test_reproduces_interior_targets(self, vs_square_d2, rng):
        assert np.linalg.det(vs_square_d2.vtilde) == pytest.approx(3.0, abs=1e-14)
        targets = random_interior_targets(vs_square_d2, rng, 200)
        lam = invert_conserved(targets, vs_square_d2)
        th = theta_field(targets, vs_square_d2)
        assert np.max(np.abs(th @ vs_square_d2.vtilde - targets)) <= 1e-14
        assert np.max(np.abs(theta_all(lam, vs_square_d2) - th)) <= 1e-13

    def test_exterior_target(self, vs_square_d2):
        outside = np.array([[0.5, 0.5, 0.5], [1.2, 0.5, 0.5]]) @ vs_square_d2.vtilde
        with pytest.raises(ConvergenceError):
            theta_field(outside, vs_square_d2, check_domain=False)
        with pytest.raises(ConvergenceError):
            invert_conserved(np.full(3, np.nan), vs_square_d2, check_domain=False)
        with pytest.raises(DomainError):
            theta_field(outside, vs_square_d2, check_domain=True)

    @pytest.mark.parametrize("name", ["vs2", "vs_square_d2"])
    def test_theta_alone_is_the_inversions_theta(self, name, request, rng):
        # `exact_theta`, the PDE step's inversion, skips lam but not the check
        vs = request.getfixturevalue(name)
        targets = random_interior_targets(vs, rng, 50)
        assert np.array_equal(exact_theta(targets, vs), theta_field(targets, vs))
        outside = np.full((1, len(vs)), 0.5)
        outside[0, 0] = 1.2
        with pytest.raises(ConvergenceError, match="not inside"):
            exact_theta(outside @ vs.vtilde, vs)

    @pytest.mark.parametrize("name", ["vs2", "vs4"])
    def test_batches_with_several_leading_axes(self, name, request, rng):
        # vs2 inverts in closed form, vs4 by Newton; a (5, 3, d+1) batch gives
        # the values of the same 15 targets passed as one (15, d+1) batch.
        vs = request.getfixturevalue(name)
        targets = random_interior_targets(vs, rng, 15)
        batch = targets.reshape(5, 3, vs.d + 1)
        lam, th = invert_conserved(batch, vs), theta_field(batch, vs)
        assert lam.shape == (5, 3, vs.d + 1) and th.shape == (5, 3, len(vs))
        assert np.array_equal(lam.reshape(targets.shape), invert_conserved(targets, vs))
        assert np.array_equal(th.reshape(15, len(vs)), theta_field(targets, vs))


class TestHull:
    def test_vertex_not_interior(self, vs2):
        assert not domain_of(vs2).worst([len(vs2), 0.0]) > 0

    def test_center_interior(self, vs2):
        assert domain_of(vs2).worst([len(vs2) / 2, 0.0]) > 0

    def test_positive_mixture_of_all_vertices_interior(self, vs4, rng):
        from scipy.spatial import ConvexHull

        nv = len(vs4)
        states = ((np.arange(2**nv)[:, None] >> np.arange(nv)) & 1).astype(float)
        points = np.unique(states @ vs4.vtilde, axis=0)
        verts = points[ConvexHull(points).vertices]
        for _ in range(25):
            w = rng.dirichlet(np.ones(len(verts))) + 1e-3
            w = w / w.sum()
            point = w @ verts
            assert domain_of(vs4).worst(point) > 0

    def test_margin_is_distance(self, vs_unit):
        # for {±1} the hull is the square with vertices (0,0),(1,±1),(2,0)
        assert domain_of(vs_unit).worst([1.0, 0.0]) == pytest.approx(1 / math.sqrt(2),
                                                                     abs=1e-12)

    def test_project_inward(self, vs2):
        dom = domain_of(vs2)
        x = np.array([2.0 + 1e-10, 0.0])  # just past the right vertex
        y = dom.project_inward(x, min_margin=0.0)
        assert dom.margin(y) >= 0.0
        assert np.linalg.norm(y - x) < 1e-8


HULL_SETS = {
    "vs2": [[0.5], [-0.5]],
    "vs4": [[0.5], [-0.5], [0.25], [-0.25]],
    "unit": [[1.0], [-1.0]],
    "rest": [[-1.0], [0.0], [1.0]],
    "d2_four": [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]],
    "d2_five": [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5], [0.0, 0.0]],
    "d2_eight": [[sx * a, sy * b] for a, b in ((0.5, 0.25), (0.25, 0.5))
                 for sx in (1, -1) for sy in (1, -1)],
    "d3_six": [list(s * 0.5 * e) for e in np.eye(3) for s in (1, -1)],
}


@pytest.mark.parametrize("name", sorted(HULL_SETS))
def test_zonotope_facets_match_qhull(name, rng):
    # qhull on the 2^nv site-state images is the reference for the closed form.
    from scipy.spatial import ConvexHull

    vs = VelocitySet(np.array(HULL_SETS[name]))
    dom = ConvexDomain(vs)
    nv = len(vs)
    states = ((np.arange(2**nv)[:, None] >> np.arange(nv)) & 1).astype(float)
    points = np.unique(states @ vs.vtilde, axis=0)
    hull = ConvexHull(points)
    lo, hi = points.min(axis=0), points.max(axis=0)
    x = lo + (hi - lo) * rng.uniform(-0.2, 1.2, size=(2000, vs.d + 1))
    reference = -np.max(x @ hull.equations[:, :-1].T + hull.equations[:, -1], axis=1)
    assert np.any(reference > 0) and np.any(reference < 0)
    assert np.max(np.abs(dom.margin(x) - reference)) < 1e-12
    # the one reduction of margins: the smallest margin, bit for bit, and NaN
    # for a NaN point
    assert dom.worst(x) == np.min(dom.margin(x))
    x[7, 0] = np.nan
    assert np.isnan(dom.worst(x))
    assert np.allclose(dom.centroid, points[hull.vertices].mean(axis=0))
    cosines = dom.normals @ dom.normals.T
    assert np.max(cosines - 2 * np.eye(len(cosines))) < 1 - 1e-9  # each facet once


class TestSampling:
    def test_deep_vacuum_limit(self, vs2, rng):
        lat = Lattice(50, 1)
        eta = sample_product_state([-200.0, 0.0], lat, vs2, rng)
        assert eta.sum() == 0

    def test_half_filling_within_4_sigma(self, vs2):
        lat = Lattice(50_001, 1)  # 1e5 sites
        rng = np.random.default_rng(5)
        eta = sample_product_state([0.0, 0.0], lat, vs2, rng)
        n = lat.n_sites
        sigma = math.sqrt(0.25 / n)
        for v in range(2):
            assert abs(eta[:, v].mean() - 0.5) <= 4 * sigma

    def test_seed_determinism(self, vs4):
        lat = Lattice(20, 1)
        a = sample_product_state([0.3, -0.2], lat, vs4, np.random.default_rng(123))
        b = sample_product_state([0.3, -0.2], lat, vs4, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_profile_sampling_matches_targets(self, vs2):
        lat = Lattice(20_001, 1)
        rng = np.random.default_rng(11)
        u = lat.positions()[:, 0]
        targets = np.stack([0.8 + 0.4 * u, 0.05 * np.sin(2 * np.pi * u)], axis=1)
        eta = sample_profile_state(theta_field(targets, vs2), rng)
        emp = (eta @ vs2.vtilde).mean(axis=0)
        expected = targets.mean(axis=0)
        assert np.abs(emp - expected).max() < 0.01

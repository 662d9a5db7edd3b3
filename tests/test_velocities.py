import numpy as np
import pytest

from latgas.velocities import Collision, CollisionSet, VelocitySet


def reversed_collision(q: Collision) -> Collision:
    """The collision that undoes q: (v', w') back into (v, w)."""
    return Collision(q.vp, q.wp, q.v, q.w)


def test_basic_properties(vs4):
    assert vs4.d == 1
    assert len(vs4) == 4
    assert np.allclose(vs4.vtilde[:, 0], 1.0)
    assert np.array_equal(vs4.vtilde[:, 1:], vs4.velocities)


def test_rejects_asymmetric_set():
    with pytest.raises(ValueError, match="reflections"):
        VelocitySet(np.array([[0.5], [0.25]]))


def test_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        VelocitySet(np.array([[0.5], [-0.5], [0.5]]))


def test_d2_requires_permutation_closure():
    # {(±a,0)} alone is not permutation closed in d=2
    with pytest.raises(ValueError):
        VelocitySet(np.array([[0.5, 0.0], [-0.5, 0.0]]))
    VelocitySet(np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]))


def test_collision_set_conserves_momentum(vs4):
    cs = CollisionSet(vs4)
    vel = vs4.velocities
    assert len(cs.active) > 0
    for q in cs.active:
        assert np.array_equal(vel[q.v] + vel[q.w], vel[q.vp] + vel[q.wp])


def test_collision_set_closed_under_reversal(vs4):
    cs = CollisionSet(vs4)
    active = set(cs.active)
    for q in cs.active:
        assert reversed_collision(q) in active


def test_two_velocity_collisions_never_fire(vs2):
    # with only {±v} every momentum-conserving quadruple reuses its incoming
    # slots, so no collision can ever have positive rate
    cs = CollisionSet(vs2)
    assert len(cs.active) == 0


def test_four_velocity_active_collisions(vs4):
    cs = CollisionSet(vs4)
    # (±1/2) pair exchanges with (±1/4) pair: 2 incoming x 2 outgoing orders,
    # both directions
    assert len(cs.active) == 8
    for q in cs.active:
        assert {q.v, q.w}.isdisjoint({q.vp, q.wp})


def test_mass_nonconserving_set_rejected():
    # 2*1 = -1 + 3 admits a fireable quadruple with a repeated incoming slot
    vs = VelocitySet(np.array([[1.0], [-1.0], [3.0], [-3.0]]))
    with pytest.raises(ValueError, match="mass-non-conserving"):
        CollisionSet(vs)


def test_collision_reversal_involution(vs4):
    # reversal pairs every active collision with another active one, never
    # with itself: the two directions of one reversible pair of the catalog
    active = CollisionSet(vs4).active
    for q in active:
        back = reversed_collision(q)
        assert back != q and reversed_collision(back) == q

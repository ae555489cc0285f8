"""Geometry layer: distances, balls, volumes, dilations, annuli."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyheat.grid import SpaceTimeGrid
from hardyheat.space import (
    Annulus,
    SpacePoint,
    ball,
    ball_masks,
    ball_volume,
    dilate,
    halfspace_flags,
    parabolic_distance,
    scaled_in_halfspace,
    truncated_volume,
)

coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
radius = st.floats(0.05, 8.0, allow_nan=False)


def pt(t, *x):
    return SpacePoint(float(t), tuple(float(c) for c in x))


# -- distance ------------------------------------------------------------------

def test_distance_hand_values():
    assert parabolic_distance(pt(0, 0), pt(0, 3)) == 3.0
    assert parabolic_distance(pt(4, 0), pt(0, 0)) == 2.0
    assert parabolic_distance(pt(4, 3), pt(0, 0)) == 3.0
    # n = 2: Euclidean in space
    assert parabolic_distance(pt(0, 0, 0), pt(0, 3, 4)) == 5.0
    # time dominates when sqrt(|dt|) > |dx|
    assert parabolic_distance(pt(0, 0, 0), pt(36, 3, 4)) == 6.0


@given(
    st.tuples(coord, coord, coord),
    st.tuples(coord, coord, coord),
    st.tuples(coord, coord, coord),
)
@settings(max_examples=60, deadline=None)
def test_distance_is_a_metric(a, b, c):
    p, q, r = pt(*a), pt(*b), pt(*c)
    assert parabolic_distance(p, q) == parabolic_distance(q, p)
    assert parabolic_distance(p, p) == 0.0
    # |x-y| and sqrt|t-s| are both metrics, so their max is one too
    assert (
        parabolic_distance(p, r)
        <= parabolic_distance(p, q) + parabolic_distance(q, r) + 1e-12
    )


# -- volumes: frozen hand-computed values ---------------------------------------

def test_ball_volume_exact_values():
    assert ball_volume(ball(0.0, 0.0, 1.0)) == 4.0  # 2*1*2*1
    assert ball_volume(ball(0.0, 0.0, 2.0)) == 32.0  # 2*4*2*2
    assert ball_volume(ball(0.0, (0.0, 0.0), 2.0)) == pytest.approx(32.0 * math.pi)


def test_truncated_volume_clips_time_only():
    assert truncated_volume(ball(1.0, 0.0, 1.0)) == 4.0  # (0,2) kept whole
    assert truncated_volume(ball(0.0, 0.0, 1.0)) == 2.0  # (-1,1) -> (0,1)
    assert truncated_volume(ball(-2.0, 0.0, 1.0)) == 0.0  # entirely below X


@given(st.floats(-20, 20), radius, st.floats(1.0, 8.0))
@settings(max_examples=60, deadline=None)
def test_volume_doubling_exact(t0, r, theta):
    Q = ball(t0, 0.5, r)
    n = Q.n
    assert ball_volume(dilate(Q, theta)) == pytest.approx(
        theta ** (n + 2) * ball_volume(Q), rel=1e-12
    )


@given(st.floats(-20, 20), radius)
@settings(max_examples=60, deadline=None)
def test_truncated_volume_bounds(t0, r):
    Q = ball(t0, 0.0, r)
    v = truncated_volume(Q)
    assert 0.0 <= v <= ball_volume(Q) + 1e-12
    if Q.time_interval[0] >= 0.0:
        assert v == pytest.approx(ball_volume(Q), rel=1e-12)


# -- halfspace geometry ----------------------------------------------------------

def test_halfspace_flags_thresholds():
    # r = 1: 2Q ⊆ X iff t0 >= 4, 4Q ⊆ X iff t0 >= 16
    assert halfspace_flags(ball(17.0, 0.0, 1.0)) == (True, True)
    assert halfspace_flags(ball(5.0, 0.0, 1.0)) == (True, False)
    assert halfspace_flags(ball(1.0, 0.0, 1.0)) == (False, False)
    # boundary case: closure touching t = 0 counts (open ball)
    assert scaled_in_halfspace(ball(16.0, 0.0, 1.0), 4.0)
    assert scaled_in_halfspace(ball(4.0, 0.0, 1.0), 2.0)


def test_ball_membership_is_open():
    Q = ball(5.0, 0.0, 1.0)
    assert Q.contains(pt(5.0, 0.0))
    assert not Q.contains(pt(5.0, 1.0))  # |dx| == r excluded
    assert not Q.contains(pt(6.0, 0.0))  # |dt| == r^2 excluded
    assert Q.contains(pt(5.999, 0.999))


def test_mask_matches_contains_pointwise():
    Q = ball(2.0, 0.25, 1.5)
    ts = np.linspace(-1.0, 5.0, 13)
    xs = np.linspace(-2.0, 2.0, 11)
    m = Q.mask(ts[:, None], xs[None, :])
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            assert m[i, j] == Q.contains(pt(t, x))


# -- annuli -----------------------------------------------------------------------

def test_annuli_partition_dilated_ball():
    Q = ball(3.0, 0.5, 1.0)
    J = 4
    pts = [pt(t, x) for t in np.linspace(0.01, 70.0, 41) for x in np.linspace(-35, 35, 37)]
    big = dilate(Q, 2.0 ** (J + 1))
    for p in pts:
        hits = [j for j in range(1, J + 1) if Annulus(Q, j).contains(p)]
        if big.contains(p) and p.in_halfspace():
            assert len(hits) == 1
        else:
            assert hits == []


def test_annulus_measures_telescope():
    Q = ball(3.0, 0.5, 1.0)
    J = 6
    total = sum(Annulus(Q, j).measure() for j in range(1, J + 1))
    assert total == pytest.approx(truncated_volume(dilate(Q, 2.0 ** (J + 1))), rel=1e-12)


@given(st.floats(0.1, 30.0), radius, st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_annulus_measure_nonnegative(t0, r, j):
    a = Annulus(ball(t0, 0.0, r), j)
    assert a.measure() >= -1e-12


@pytest.mark.parametrize("grid", [SpaceTimeGrid(1, 4.0, 32, -4.0, 4.0, 32),
                                  SpaceTimeGrid(2, 1.0, 8, 0.0, 1.0, 8)], ids=["n1", "n2"])
def test_ball_masks_equal_each_ball_mask(grid):
    rng = np.random.default_rng(3)
    # random balls, and balls whose edges fall on cell midpoints
    balls = [ball(float(rng.uniform(-1.0, 1.0)), tuple(rng.uniform(-0.5, 0.5, grid.n)),
                  float(rng.uniform(0.2, 1.0))) for _ in range(6)]
    balls += [ball(grid.ts[3], tuple(grid.xs[:grid.n]), 2.0 * grid.h),
              ball(0.5, (0.0,) * grid.n, grid.h / 2.0)]
    masks = ball_masks(balls, *grid.mesh())
    assert masks.shape == (len(balls),) + grid.shape
    for Q, m in zip(balls, masks):
        assert np.array_equal(m, Q.mask(*grid.mesh()))
    assert ball_masks([], *grid.mesh()).shape == (0,) + grid.shape
    with pytest.raises(ValueError, match="dimension"):
        ball_masks([ball(0.0, (0.0,) * (3 - grid.n), 1.0)], *grid.mesh())

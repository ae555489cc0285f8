"""Grid layer: quadrature, extensions, reflections."""
import math

import numpy as np
import pytest

from hardyheat.grid import (
    GridFunction,
    SpaceTimeGrid,
    even_extend,
    integrate,
    lp_norm,
    odd_extend,
    restrict,
    sample,
    time_reflect,
)
from hardyheat.space import ball


def halfgrid(n=1, L=2.0, nx=16, T=1.0, nt=8):
    return SpaceTimeGrid(n, L, nx, 0.0, T, nt)


def test_grid_spacings():
    g = halfgrid()
    assert g.h == 0.25
    assert g.tau == 0.125
    assert g.cell_measure == 0.25 * 0.125
    assert g.shape == (8, 16)
    assert g.xs[0] == -2.0 + 0.125
    assert g.ts[-1] == pytest.approx(1.0 - 0.0625)


def test_integrate_constant_equals_box_measure():
    g = halfgrid()
    one = GridFunction(g, np.ones(g.shape))
    assert integrate(one) == pytest.approx(4.0 * 1.0)
    g2 = SpaceTimeGrid(2, 1.0, 8, 0.0, 0.5, 4)
    one2 = GridFunction(g2, np.ones(g2.shape))
    assert integrate(one2) == pytest.approx(2.0 * 2.0 * 0.5)


def test_lp_norms_on_indicator():
    g = halfgrid()
    Q = ball(0.5, 0.0, 0.5)
    f = sample(g, lambda tt, xx: Q.mask(tt, xx).astype(float))
    m = Q.mask(*g.mesh()).sum() * g.cell_measure
    assert lp_norm(f, 1) == pytest.approx(m)
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(m))
    assert lp_norm(f, np.inf) == 1.0


def test_values_are_immutable_and_copied():
    g = halfgrid()
    src = np.ones(g.shape)
    f = GridFunction(g, src)
    src[0, 0] = 7.0  # caller's buffer stays writable, grid function unaffected
    assert f.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_extensions_shapes_and_parity():
    g = halfgrid()
    f = sample(g, lambda tt, xx: tt * (1.0 + xx**2))
    fe, fo = even_extend(f), odd_extend(f)
    for F in (fe, fo):
        assert F.grid.t_min == -1.0 and F.grid.nt == 16
    # mirror slab pairing: slab k <-> slab 2*nt-1-k
    assert np.allclose(fe.values[:8], fe.values[15:7:-1])
    assert np.allclose(fo.values[:8], -fo.values[15:7:-1])


def test_even_extension_doubles_mass_odd_kills_it():
    g = halfgrid()
    f = sample(g, lambda tt, xx: np.exp(-(xx**2)) * (0.5 + tt))
    assert integrate(even_extend(f)) == pytest.approx(2.0 * integrate(f))
    assert integrate(odd_extend(f)) == pytest.approx(0.0, abs=1e-14)
    assert lp_norm(odd_extend(f), 2) == pytest.approx(math.sqrt(2.0) * lp_norm(f, 2))


def test_restrict_inverts_extension():
    g = halfgrid()
    f = sample(g, lambda tt, xx: np.sin(3 * xx) + tt)
    for ext in (even_extend, odd_extend):
        back = restrict(ext(f))
        assert back.grid == g
        assert np.allclose(back.values, f.values)


def test_time_reflect_is_involution_and_swaps_parity():
    g = halfgrid()
    f = sample(g, lambda tt, xx: tt**2 * xx)
    F = odd_extend(f)
    R = time_reflect(F)
    assert np.allclose(time_reflect(R).values, F.values)
    assert np.allclose(R.values, -F.values)  # odd in t
    E = even_extend(f)
    assert np.allclose(time_reflect(E).values, E.values)


def test_sample_broadcasts_scalar_fields():
    g = halfgrid(n=2, L=1.0, nx=4, T=0.5, nt=2)
    f = sample(g, lambda tt, xx, yy: xx + yy)
    assert f.values.shape == (2, 4, 4)
    assert f.values[0, 0, 0] == pytest.approx(g.xs[0] * 2)


@pytest.mark.parametrize("args", [
    (1, math.nan, 8, 0.0, 1.0, 4),
    (1, math.inf, 8, 0.0, 1.0, 4),
    (1, 1.0, 8, -math.inf, 1.0, 4),
    (1, 1.0, 8, 0.0, math.nan, 4),
    (1, 1.0, 8, 0.0, 1.0, 2.5),
    (1, 1.0, 8.0, 0.0, 1.0, 4),
    (1.0, 1.0, 8, 0.0, 1.0, 4),
], ids=["length_nan", "length_inf", "t_min_inf", "t_max_nan", "nt_float", "nx_float",
        "n_float"])
def test_grid_rejects_non_finite_extents_and_non_integral_sizes(args):
    with pytest.raises(ValueError):
        SpaceTimeGrid(*args)


def test_grid_accepts_numpy_integer_sizes():
    g = SpaceTimeGrid(np.int64(1), 2.0, np.int64(16), 0.0, 1.0, np.int32(8))
    assert g == halfgrid() and hash(g) == hash(halfgrid())
    assert g.shape == (8, 16)


def test_grid_coordinates_are_cached_and_read_only():
    g = halfgrid(n=2, L=1.0, nx=4, T=0.5, nt=2)
    for name in ("xs", "ts", "x_edges", "t_edges"):
        a = getattr(g, name)
        assert getattr(g, name) is a
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert g.mesh() is g.mesh()
    for a in g.mesh():
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    # grids made from g compute their own coordinates
    fine, ext = g.refine(), even_extend(GridFunction(g, np.zeros(g.shape))).grid
    for other in (fine, ext):
        assert other.xs is not g.xs and other.ts is not g.ts
        assert all(a is not b for a, b in zip(other.mesh(), g.mesh()))
    assert np.array_equal(fine.xs, -1.0 + (np.arange(8) + 0.5) * 0.25)
    assert np.array_equal(ext.ts, -0.5 + (np.arange(4) + 0.5) * 0.25)
    # the cache takes no part in equality or hashing
    twin = halfgrid(n=2, L=1.0, nx=4, T=0.5, nt=2)
    assert twin == g and hash(twin) == hash(g)
    assert twin.xs is not g.xs and np.array_equal(twin.xs, g.xs)

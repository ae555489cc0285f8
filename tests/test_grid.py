"""Grid layer: quadrature, extensions, reflections, serialisation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyheat.grid import (
    GridFunction,
    SpaceTimeGrid,
    even_extend,
    integrate,
    lp_norm,
    odd_extend,
    read_binary,
    restrict,
    sample,
    time_reflect,
    write_binary,
    write_csv,
    zero_extend,
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
    fe, fo, fz = even_extend(f), odd_extend(f), zero_extend(f)
    for F in (fe, fo, fz):
        assert F.grid.t_min == -1.0 and F.grid.nt == 16
    # mirror slab pairing: slab k <-> slab 2*nt-1-k
    assert np.allclose(fe.values[:8], fe.values[15:7:-1])
    assert np.allclose(fo.values[:8], -fo.values[15:7:-1])
    assert np.all(fz.values[:8] == 0.0)
    assert np.allclose(fz.values[8:], f.values)


def test_even_extension_doubles_mass_odd_kills_it():
    g = halfgrid()
    f = sample(g, lambda tt, xx: np.exp(-(xx**2)) * (0.5 + tt))
    assert integrate(even_extend(f)) == pytest.approx(2.0 * integrate(f))
    assert integrate(odd_extend(f)) == pytest.approx(0.0, abs=1e-14)
    assert lp_norm(odd_extend(f), 2) == pytest.approx(math.sqrt(2.0) * lp_norm(f, 2))


def test_restrict_inverts_extension():
    g = halfgrid()
    f = sample(g, lambda tt, xx: np.sin(3 * xx) + tt)
    for ext in (even_extend, odd_extend, zero_extend):
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


@given(st.integers(1, 2), st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_binary_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    g = SpaceTimeGrid(n, 1.5, 6, 0.0, 2.0, 5)
    f = GridFunction(g, rng.normal(size=g.shape))
    path = f"/tmp/hardyheat_rt_{n}_{seed}.bin"
    write_binary(f, path)
    back = read_binary(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_binary_header_layout():
    g = SpaceTimeGrid(1, 2.0, 4, 0.0, 1.0, 2)
    f = GridFunction(g, np.arange(8, dtype=float).reshape(2, 4))
    path = "/tmp/hardyheat_hdr.bin"
    write_binary(f, path)
    raw = np.fromfile(path, dtype="<f8")
    assert raw[:6].tolist() == [1.0, 2.0, 1.0, 0.0, 1.0, 0.5]  # n, L, h, T-, T+, tau
    assert raw[6:].tolist() == list(range(8))


def test_csv_has_midpoints_and_values(tmp_path):
    g = SpaceTimeGrid(1, 1.0, 2, 0.0, 1.0, 1)
    f = GridFunction(g, np.array([[1.5, -2.5]]))
    p = tmp_path / "f.csv"
    write_csv(f, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t,x,value"
    assert lines[1].split(",") == ["0.5", "-0.5", "1.5"]
    assert lines[2].split(",") == ["0.5", "0.5", "-2.5"]


def test_sample_broadcasts_scalar_fields():
    g = halfgrid(n=2, L=1.0, nx=4, T=0.5, nt=2)
    f = sample(g, lambda tt, xx, yy: xx + yy)
    assert f.values.shape == (2, 4, 4)
    assert f.values[0, 0, 0] == pytest.approx(g.xs[0] * 2)

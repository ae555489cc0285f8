"""Shared fixtures: slab-sum references of T and T* in mpmath arithmetic.

The references sum every slab and cell of the input entry by entry, at a
working precision set for the call only (mpmath's global precision is left
as it was), and share no code with heatop.
"""
import functools
import math

import numpy as np
import pytest

from hardyheat import heatop
from hardyheat.grid import GridFunction


def _slab_sum(mp, f, t, op, mass, cells):
    """Σ over slabs and cells of f · (mass(u1, cell) - mass(u2, cell)).

    u1, u2 are the lags of the slab's far and near ends (T: t - a, t - b;
    T*: b - t, a - t; clipped at 0); cells(lo, hi) lists the cells that a
    grid cell (lo, hi) contributes, each with its weight.
    """
    t = mp.mpf(t)
    total = mp.mpf(0)
    te, xe = f.grid.t_edges, f.grid.x_edges
    for k in range(f.grid.nt):
        a, b = mp.mpf(te[k]), mp.mpf(te[k + 1])
        if op == "T":
            u1, u2 = t - a, max(t - b, 0)
        else:
            u1, u2 = b - t, max(a - t, 0)
        if u1 <= 0:
            continue
        for j in np.flatnonzero(f.values[k]):
            for w, lo, hi in cells(mp.mpf(xe[j]), mp.mpf(xe[j + 1])):
                total += w * mp.mpf(f.values[k, j]) * (mass(u1, lo, hi) - mass(u2, lo, hi))
    return total


def _cells(image_sign):
    """The direct cell, plus its image (-hi, -lo) weighted image_sign if nonzero."""
    if image_sign == 0:
        return lambda lo, hi: [(1, lo, hi)]
    return lambda lo, hi: [(1, lo, hi), (image_sign, -hi, -lo)]


def _point_reference(f, t, x, op, image_sign=0, dps=80):
    """Tf or T*f at (t, x) by the slab sum of cell masses in dps-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        x = mp.mpf(x)

        def mass(u, lo, hi):  # ∫_lo^hi p_u(x - y) dy, in the tail that keeps it exact
            if u == 0:
                return mp.mpf(int(lo <= x < hi))
            s = 2 * mp.sqrt(u)
            if x < (lo + hi) / 2:
                return (mp.erfc((lo - x) / s) - mp.erfc((hi - x) / s)) / 2
            return (mp.erfc((x - hi) / s) - mp.erfc((x - lo) / s)) / 2

        return _slab_sum(mp, f, t, op, mass, _cells(image_sign))


def _window_reference(f, t, x_lo, x_hi, op, image_sign=0, dps=80):
    """∫_{x_lo}^{x_hi} (Tf or T*f)(t, x) dx in dps-digit arithmetic.

    The double integral of p_u over window × cell is
    (s/2) [F((x_hi - lo)/s) - F((x_hi - hi)/s) - F((x_lo - lo)/s) + F((x_lo - hi)/s)]
    with s = 2√u and F(z) = z erf z + (e^{-z²} - 1)/√π; at u = 0 it is the
    overlap length.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        x_lo, x_hi = mp.mpf(x_lo), mp.mpf(x_hi)

        def F(z):
            return z * mp.erf(z) + (mp.exp(-z * z) - 1) / mp.sqrt(mp.pi)

        def mass(u, lo, hi):
            if u == 0:
                return max(mp.mpf(0), min(hi, x_hi) - max(lo, x_lo))
            s = 2 * mp.sqrt(u)
            return s / 2 * (F((x_hi - lo) / s) - F((x_hi - hi) / s)
                            - F((x_lo - lo) / s) + F((x_lo - hi) / s))

        return _slab_sum(mp, f, t, op, mass, _cells(image_sign))


@functools.lru_cache(maxsize=None)
def _far_field_reference(spec):
    """Far rows and windows of a battery atom, with their 40-digit references.

    The atom is random_hz_atom(0) on the whole line and the near wall atom
    of the seed-0 wall experiments on the half lines.  The centre and radii
    of the expansion are read off the live slabs and cells of the input
    (inside x > 0 on half lines), not from heatop.  Two times: just past
    the first time the thresholds admit, where the truncation is largest,
    and 16 times that lag.  Returns (f, rows, windows): rows is a list of
    (t, xs, reference values), windows of (t, ends, reference values).
    """
    from hardyheat.verify import _wall_atom, random_hz_atom

    f = random_hz_atom(0)[0] if spec.is_whole else _wall_atom(0.25, 0.25, seed=1)[0]
    sign = 0 if spec.is_whole else spec.image_sign
    inside = GridFunction(f.grid, f.values * (f.grid.xs > 0.0)) if sign else f
    slabs = np.flatnonzero(inside.values.any(axis=1))
    cells = np.flatnonzero(inside.values.any(axis=0))
    t0, t1 = f.grid.t_edges[slabs[0]], f.grid.t_edges[slabs[-1] + 1]
    x0, x1 = f.grid.x_edges[cells[0]], f.grid.x_edges[cells[-1] + 1]
    t_c, c = 0.5 * (t0 + t1), 0.5 * (x0 + x1)
    u_first = max((0.5 * (x1 - x0)) ** 2 / (4.0 * heatop.FAR_RHO_X**2),
                  0.5 * (t1 - t0) / (4.0 * heatop.FAR_RHO_T))
    rows, windows = [], []
    for t in t_c + u_first * np.array([1.01, 16.0]):
        s = 2.0 * math.sqrt(t - t_c)
        if sign:
            xs, ends = s * np.array([0.02, 0.6, 2.0]), s * np.array([[0.0, 0.5], [0.3, 3.0]])
        else:
            xs = c + s * np.array([-1.2, 0.3, 2.0])
            ends = c + s * np.array([[-1.0, 0.7], [0.5, 4.0]])
        rows.append((t, xs, np.array([float(_point_reference(inside, t, x, "T", sign, dps=40))
                                      for x in xs])))
        windows.append((t, ends, np.array([
            float(_window_reference(inside, t, lo, hi, "T", sign, dps=40))
            for lo, hi in ends])))
    return f, rows, windows


def _far_field_errors(spec) -> tuple[float, float]:
    """The largest error of heatop.far_field's rows and windows against the
    40-digit references of _far_field_reference, each relative to the
    largest reference value at its time."""
    f, rows, windows = _far_field_reference(spec)
    series = heatop.far_field(f, spec)
    row_err = win_err = 0.0
    for t, xs, ref in rows:
        assert series.reaches([t]).all()
        got = series.rows(np.full(len(xs), t), xs)
        row_err = max(row_err, np.abs(got - ref).max() / np.abs(ref).max())
    for t, ends, ref in windows:
        got = series.window(t, ends[:, 0], ends[:, 1])
        win_err = max(win_err, np.abs(got - ref).max() / np.abs(ref).max())
    return row_err, win_err


@pytest.fixture
def mp_reference():
    """Tf or T*f at one point: (f, t, x, op, image_sign=0, dps=80) -> mpf."""
    return _point_reference


@pytest.fixture
def mp_window_reference():
    """∫ Tf or T*f over one window: (f, t, x_lo, x_hi, op, image_sign=0, dps=80) -> mpf."""
    return _window_reference


@pytest.fixture
def far_field_errors():
    """spec -> the largest (row, window) errors of heatop.far_field on a
    battery atom, relative to 40-digit references."""
    return _far_field_errors

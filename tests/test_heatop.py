"""Operator core: kernels, semigroup matrices, T/T*, oracle, window masses.

Frozen reference values are computed independently (closed forms or scipy
quadrature) and pinned here; the shadow bounds use constants frozen from an
analytic worst-case computation with ~20% headroom.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hardyheat import heatop
from hardyheat.grid import CHUNK, GridFunction, SpaceTimeGrid, lp_norm, sample
from hardyheat.heatop import (
    HALF_LINE_DIRICHLET,
    HALF_LINE_NEUMANN,
    KernelSpec,
    WHOLE,
    apply_T,
    apply_T_each,
    apply_Tstar,
    duhamel_reference,
    gauss_kernel,
    gauss_kernel_dt,
    image_rows,
    image_window,
    spatial_quadrature_error,
)
from hardyheat.heatop import (
    _causal_sum,
    _cell_mass_rows,
    _duhamel_rows,
    _fast_len,
    _fft_shape,
    _gl_nodes,
    _near_field_row,
    _operator_input,
    _psi,
    _psi_window,
    _toeplitz,
)

DIRICHLET = KernelSpec(1, HALF_LINE_DIRICHLET)
NEUMANN = KernelSpec(1, HALF_LINE_NEUMANN)


def xgrid(L=4.0, nx=64, T=4.0, nt=16):
    return SpaceTimeGrid(1, L, nx, 0.0, T, nt)


def inner(f, g):
    return float((f.values * g.values).sum() * f.grid.cell_measure)


def _matrices(grid, u):
    """Per-axis whole-space matrices for one semigroup application (time u)."""
    return (_toeplitz(grid, _cell_mass_rows(grid, [u])[0]),) * grid.n


def _apply_axes(X, mats):
    """Apply per-axis matrices to slab profiles stacked along axis 0."""
    if len(mats) == 1:
        return X @ mats[0].T
    Ax, Ay = mats
    return np.matmul(np.matmul(Ax, X), Ay.T)


# -- pointwise kernel values ------------------------------------------------------

def test_kernel_frozen_values():
    assert gauss_kernel(1.0, 0.0, 1) == pytest.approx(0.28209479177387814, rel=1e-14)
    assert gauss_kernel_dt(1.0, 0.0, 1) == pytest.approx(-0.14104739588693907, rel=1e-14)
    assert gauss_kernel(1.0, 0.0, 2) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)


def test_kernel_is_a_probability_density():
    for t in (0.3, 1.0, 5.0):
        mass, _ = quad(lambda z: gauss_kernel(t, z * z, 1), -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)
    mass2, _ = quad(
        lambda r: gauss_kernel(2.0, r * r, 2) * 2.0 * math.pi * r, 0, np.inf
    )
    assert mass2 == pytest.approx(1.0, abs=1e-10)


def test_dt_sign_change_at_2nt():
    for n in (1, 2):
        for t in (0.5, 1.0, 3.0):
            r2c = 2.0 * n * t
            assert gauss_kernel_dt(t, r2c, n) == pytest.approx(0.0, abs=1e-15)
            assert gauss_kernel_dt(t, 0.5 * r2c, n) < 0
            assert gauss_kernel_dt(t, 2.0 * r2c, n) > 0


def _core_bound(t, n):
    """-(n/4t) (4 pi t)^(-n/2) e^(-n/4): on |z|^2 <= n t, r2/4t <= n/4, so
    ∂_t p_t = p_t (r2 - 2nt)/(4t^2) sits below it, with equality at |z|^2 = n t."""
    return -(n / (4.0 * t)) * (4.0 * math.pi * t) ** (-n / 2.0) * math.exp(-n / 4.0)


@given(st.floats(0.05, 20.0), st.floats(0.0, 1.0), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_dt_negativity_bound_holds_on_core(t, frac, n):
    # on |z|^2 <= n t the derivative sits below the (negative) bound
    r2 = frac * n * t
    assert gauss_kernel_dt(t, r2, n) <= _core_bound(t, n) * (1.0 - 1e-12)


def test_dt_negativity_bound_is_tight_at_the_edge():
    # equality at |z|^2 = n t; dropping the e^{-n/4} factor would be wrong there
    for n in (1, 2):
        t = 1.7
        edge = gauss_kernel_dt(t, n * t, n)
        assert edge == pytest.approx(_core_bound(t, n), rel=1e-13)
        uncorrected = -(n / (4.0 * t)) * (4.0 * math.pi * t) ** (-n / 2.0)
        assert edge > uncorrected  # the stronger constant fails here


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(2, HALF_LINE_DIRICHLET)
    with pytest.raises(ValueError):
        KernelSpec(1, "periodic")
    with pytest.raises(ValueError):
        gauss_kernel(0.0, 1.0, 1)


# -- shadow bounds (constants frozen from an analytic worst case + headroom) ------

@given(st.floats(0.05, 10.0), st.floats(-15.0, 15.0), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_time_derivative_gaussian_bound(t, z, n):
    C = {1: 0.18, 2: 0.09}[n]
    bound = C * t ** (-1.0 - n / 2.0) * math.exp(-z * z / (8.0 * t))
    assert abs(gauss_kernel_dt(t, z * z, n)) <= bound + 1e-300


@given(
    st.floats(0.05, 10.0),
    st.floats(-10.0, 10.0),
    st.floats(-1.0, 1.0),
    st.integers(1, 2),
)
@settings(max_examples=100, deadline=None)
def test_dt_kernel_hoelder_shadow(t, x_rel, shift_rel, n):
    # |p'_t(x-y) - p'_t(x-x0)| <= C (|y-x0|/sqrt t) t^{-1-n/2} e^{-|x-x0|^2/16t}
    C = {1: 0.20, 2: 0.09}[n]
    s = math.sqrt(t)
    x, dy = x_rel * s, shift_rel * s  # |y - x0| <= sqrt(t)
    # both squares by one multiply: pow(z, 2) can differ from z * z by an ulp,
    # which at dy = 0 left lhs ~ 3e-17 against rhs = 0
    xm = x - dy
    lhs = abs(gauss_kernel_dt(t, xm * xm, n) - gauss_kernel_dt(t, x * x, n))
    rhs = C * (abs(dy) / s) * t ** (-1.0 - n / 2.0) * math.exp(-x * x / (16.0 * t))
    assert lhs <= rhs + 1e-300


# -- cell-mass tables ---------------------------------------------------------------

@pytest.mark.parametrize("L, nx, T, nt", [(4.0, 64, 4.0, 16), (4.0, 128, 4.0, 32)])
def test_cell_mass_rows_match_40_digit_erf_differences(L, nx, T, nt):
    # every nonzero entry, the far tail down to 1e-111 included, to 1e-12
    # relative (measured at most 3.6e-14); off the centre cell the reference
    # is a difference of erfc in the tail, since both erf values sit so near
    # ±1 that 40 digits return 0 for their difference
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    g = SpaceTimeGrid(1, L, nx, 0.0, T, nt)
    us = (np.arange(nt) + 0.5) * g.tau
    rows = _cell_mass_rows(g, us)
    for u, row in zip(us, rows):
        s = 2 * mp.sqrt(mp.mpf(u))
        for j in np.flatnonzero(row):
            k = j - (nx - 1)
            hi, lo = mp.mpf((k + 0.5) * g.h), mp.mpf((k - 0.5) * g.h)
            if k > 0:
                ref = (mp.erfc(lo / s) - mp.erfc(hi / s)) / 2
            elif k < 0:
                ref = (mp.erfc(-hi / s) - mp.erfc(-lo / s)) / 2
            else:
                ref = (mp.erf(hi / s) - mp.erf(lo / s)) / 2
            assert abs(row[j] - ref) <= 1e-12 * ref


def _dense_cell_mass(u, x_out, edges):
    """Reference table: every entry from its own offsets, no row reuse.

    A[i, j] = [lo_j <= x_i < hi_j] + ψ(u, x_i - lo_j) - ψ(u, x_i - hi_j).
    """
    to_lo = x_out[:, None] - edges[None, :-1]
    to_hi = x_out[:, None] - edges[None, 1:]
    A = ((to_lo >= 0.0) & (to_hi < 0.0)).astype(float)
    if u == 0.0:
        return A
    A = A + (_psi(u, to_lo) - _psi(u, to_hi))
    A[np.abs(A) < np.finfo(float).tiny] = 0.0
    return A


def _dense_matrices(g, u):
    """Reference tables for whole space, Dirichlet and Neumann at lag u.

    The half-line tables are the image kernels p(x-y) ∓ p(x+y) entry by entry,
    clipped at 0 (Dirichlet) and masked to x > 0 on both sides: an
    independent reference for the image that apply_T carries in its input.
    """
    base = _dense_cell_mass(u, g.xs, g.x_edges)
    refl = _dense_cell_mass(u, -g.xs, g.x_edges)  # ∫_cell p(x + y) dy
    out = {WHOLE: base}
    for spec in (DIRICHLET, NEUMANN):
        A = base + spec.image_sign * refl
        if spec.image_sign < 0:
            A = np.maximum(A, 0.0)
        A[g.xs <= 0.0, :] = 0.0
        A[:, g.xs <= 0.0] = 0.0
        out[spec] = A
    return out


def _table_pairs(g):
    """(row-built, dense) whole-space table pairs over u = 0 and every lag."""
    for u in [0.0] + [(m + 0.5) * g.tau for m in range(g.nt)]:
        (A,) = _matrices(g, u)
        yield A, _dense_matrices(g, u)[WHOLE]


@pytest.mark.parametrize("L, nx, T, nt", [
    (4.0, 64, 4.0, 16), (4.0, 128, 4.0, 16), (16.0, 128, 64.0, 256),
])
def test_row_tables_equal_dense_tables_on_dyadic_grids(L, nx, T, nt):
    # offsets (k + 1/2) h are exact on dyadic grids, so every entry is the
    # same floating-point number as the entry-by-entry table
    g = SpaceTimeGrid(1, L, nx, 0.0, T, nt)
    for A, B in _table_pairs(g):
        assert np.array_equal(A, B)


@pytest.mark.parametrize("L, nx, T, nt", [
    (2.0, 24, 2.0, 12), (2.0, 48, 2.0, 24), (2.0, 96, 2.0, 48), (4.0, 192, 4.0, 192),
])
def test_row_tables_match_dense_tables_on_other_grids(L, nx, T, nt):
    # offsets carry different roundings off dyadic grids (measured at most
    # 2.9e-15); the subnormal flush must still zero the same entries
    g = SpaceTimeGrid(1, L, nx, 0.0, T, nt)
    for A, B in _table_pairs(g):
        assert np.max(np.abs(A - B)) <= 1e-14
        assert np.array_equal(A == 0.0, B == 0.0)


def test_near_field_matrix_integrates_to_cell_mass_difference():
    # independent panel quadrature of dA/du must land on A(u) - I
    g = xgrid(nx=32)
    u = g.tau / 8.0
    N = _toeplitz(g, _near_field_row(g, u))
    (A,) = _matrices(g, u)
    assert np.max(np.abs(N - (A - np.eye(g.nx)))) < 1e-10


# -- semigroup ------------------------------------------------------------------------

def semigroup_apply(grid, u, g, spec=WHOLE):
    """e^{uΔ} of one spatial profile g, the kernel integrated exactly over each cell.

    Half lines go through _operator_input's image and read 0 at x <= 0.
    """
    one = SpaceTimeGrid(grid.n, grid.length, grid.nx, 0.0, 1.0, 1)
    g = _operator_input(GridFunction(one, np.asarray(g, dtype=float)[None]), spec)
    out = _apply_axes(g, _matrices(grid, u))[0]
    if not spec.is_whole:
        out[grid.xs <= 0.0] = 0.0
    return out


def test_semigroup_identity_at_zero():
    g = xgrid()
    rng = np.random.default_rng(0)
    prof = rng.normal(size=g.nx)
    assert np.array_equal(semigroup_apply(g, 0.0, prof), prof)


def test_semigroup_mass_conservation_and_max_principle():
    g = xgrid(L=10.0, nx=200)
    rng = np.random.default_rng(1)
    prof = np.where(np.abs(g.xs) < 2.0, rng.uniform(-1.0, 2.0, g.nx), 0.0)
    out = semigroup_apply(g, 0.8, prof)
    assert out.sum() * g.h == pytest.approx(prof.sum() * g.h, abs=1e-10)
    assert out.max() <= max(prof.max(), 0.0) + 1e-12
    assert out.min() >= min(prof.min(), 0.0) - 1e-12


def test_semigroup_gaussian_variance_law():
    # e^{tΔ} N(0, s^2) = N(0, s^2 + 2t); checked at the peak
    g = xgrid(L=12.0, nx=480)
    s2 = 0.5
    prof = np.exp(-g.xs**2 / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
    for t in (0.25, 1.0):
        out = semigroup_apply(g, t, prof)
        peak = 1.0 / math.sqrt(2.0 * math.pi * (s2 + 2.0 * t))
        assert out[np.argmin(np.abs(g.xs))] == pytest.approx(peak, rel=1e-3)


def test_semigroup_point_mass_refines_to_kernel():
    u = 0.5
    errs = []
    for nx in (100, 200, 400):
        g = SpaceTimeGrid(1, 10.0, nx, 0.0, 1.0, 4)
        prof = np.zeros(nx)
        prof[nx // 2] = 1.0 / g.h  # unit point mass
        out = semigroup_apply(g, u, prof)
        target = gauss_kernel(u, (g.xs - g.xs[nx // 2]) ** 2, 1)
        errs.append(np.abs(out - target).sum() * g.h)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-4


def test_semigroup_methods_agree_on_smooth_profiles():
    # exact cell masses against the sampled midpoint rule h * p_u(x_i - x_j)
    g = xgrid(L=6.0, nx=128)
    prof = np.exp(-g.xs**2)
    a = semigroup_apply(g, 0.7, prof)
    b = g.h * gauss_kernel(0.7, (g.xs[:, None] - g.xs[None, :]) ** 2, 1) @ prof
    assert np.abs(a - b).max() < 2e-4


def test_half_line_mass_dichotomy():
    # Neumann conserves the half-line mass; Dirichlet strictly loses it
    g = xgrid(L=16.0, nx=256)
    prof = np.where((g.xs > 0.5) & (g.xs < 2.0), 1.0, 0.0)
    m0 = prof[g.xs > 0].sum() * g.h
    neu = semigroup_apply(g, 1.0, prof, NEUMANN)
    dir_ = semigroup_apply(g, 1.0, prof, DIRICHLET)
    assert neu[g.xs > 0].sum() * g.h == pytest.approx(m0, abs=1e-10)
    assert dir_[g.xs > 0].sum() * g.h < m0 - 1e-3
    assert np.all(dir_ >= -1e-15)
    assert np.all(neu[g.xs <= 0] == 0.0)


# -- apply_T / apply_Tstar -------------------------------------------------------------

def test_apply_T_constant_input_telescopes_exactly():
    g = xgrid()
    prof = np.exp(-g.xs**2) * np.sin(2 * g.xs)
    f = GridFunction(g, np.broadcast_to(prof, g.shape).copy())
    out = apply_T(f)
    for i in (0, 3, g.nt - 1):
        target = semigroup_apply(g, g.ts[i], prof) - prof
        assert np.allclose(out.values[i], target, atol=1e-12)


def test_apply_T_constant_input_2d():
    g = SpaceTimeGrid(2, 3.0, 24, 0.0, 2.0, 8)
    prof = np.exp(-(g.xs[:, None] ** 2 + g.xs[None, :] ** 2))
    f = GridFunction(g, np.broadcast_to(prof, g.shape).copy())
    out = apply_T(f)
    target = semigroup_apply(g, g.ts[-1], prof) - prof
    assert np.allclose(out.values[-1], target, atol=1e-12)


def test_apply_T_causality_and_Tstar_anticausality():
    g = xgrid()
    vals = np.zeros(g.shape)
    vals[10:] = 1.0  # supported in late slabs
    late = GridFunction(g, vals)
    assert np.all(apply_T(late).values[:10] == 0.0)
    vals = np.zeros(g.shape)
    vals[:6] = 1.0  # supported in early slabs
    early = GridFunction(g, vals)
    assert np.all(apply_Tstar(early).values[6:] == 0.0)


def test_apply_Tstar_future_constant_closed_form():
    g = xgrid()
    prof = np.exp(-((g.xs - 0.5) ** 2))
    f = GridFunction(g, np.broadcast_to(prof, g.shape).copy())
    out = apply_Tstar(f)
    for i in (0, 7):
        # slabs (t_i, T] contribute e^{(T - t_i)Δ}g - g
        target = semigroup_apply(g, g.t_max - g.ts[i], prof) - prof
        assert np.allclose(out.values[i], target, atol=1e-12)


def _box_indicator(g):
    tt, xx = g.mesh()
    return GridFunction(g, ((tt > 0) & (tt < 1) & (np.abs(xx) < 1)).astype(float))


def erf_box_profile(u, x):
    s = 2.0 * math.sqrt(u)
    from scipy.special import erf as _erf

    return 0.5 * (_erf((x + 1.0) / s) - _erf((x - 1.0) / s))


def test_apply_T_matches_erf_closed_form_on_box_input():
    # edges align with the box, so the grid input is exactly the indicator
    g = SpaceTimeGrid(1, 8.0, 128, 0.0, 4.0, 32)
    f = _box_indicator(g)
    out = apply_T(f)
    for i in range(g.nt):
        t = g.ts[i]
        if t > 1.0:
            target = erf_box_profile(t, g.xs) - erf_box_profile(t - 1.0, g.xs)
        else:
            target = erf_box_profile(t, g.xs) - (np.abs(g.xs) < 1.0)
        assert np.allclose(out.values[i], target, atol=1e-9), f"slab {i}"


@pytest.mark.parametrize("spec", [WHOLE, KernelSpec(2), DIRICHLET, NEUMANN])
def test_adjointness(spec):
    if spec.n == 1:
        g = xgrid(nx=48, nt=12)
    else:
        g = SpaceTimeGrid(2, 2.0, 12, 0.0, 1.5, 6)
    rng = np.random.default_rng(42)
    f = GridFunction(g, rng.normal(size=g.shape))
    w = GridFunction(g, rng.normal(size=g.shape))
    if not spec.is_whole:
        keep = (g.xs > 0).astype(float)
        f = GridFunction(g, f.values * keep)
        w = GridFunction(g, w.values * keep)
    lhs = inner(apply_T(f, spec), w)
    rhs = inner(f, apply_Tstar(w, spec))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_apply_T_at_agrees_with_grid_operator():
    g = xgrid(nx=48, nt=12)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.normal(size=g.shape))
    out = apply_T(f)
    star = apply_Tstar(f)
    for i in (0, 5, 11):
        at = image_rows(f, [g.ts[i]], g.xs)[0]
        assert np.allclose(at, out.values[i], atol=1e-11)
        at_star = image_rows(f, [g.ts[i]], g.xs, op="Tstar")[0]
        assert np.allclose(at_star, star.values[i], atol=1e-11)


def test_apply_T_at_beyond_the_grid():
    g = xgrid(nx=48, nt=12)
    rng = np.random.default_rng(4)
    f = GridFunction(g, rng.normal(size=g.shape))
    # far output points see (almost) nothing
    far = image_rows(f, [2.0], [60.0, -60.0])[0]
    assert np.abs(far).max() < 1e-9
    # times after t_max are fine: every slab is completed
    late = image_rows(f, [2.0 * g.t_max], g.xs)[0]
    assert np.isfinite(late).all()
    # T* of anything at t >= t_max is zero
    assert np.all(image_rows(f, [g.t_max], g.xs, op="Tstar") == 0.0)


def test_half_lines_and_corner_sums_reject_2d_grids():
    # KernelSpec.n defaults to 1, so only the grid can tell a half-line spec
    # that its input is two-dimensional
    g = SpaceTimeGrid(2, 1.0, 8, 0.0, 1.0, 4)
    f = GridFunction(g, np.ones(g.shape))
    half = KernelSpec(boundary=HALF_LINE_DIRICHLET)
    for op in (apply_T, apply_Tstar):
        with pytest.raises(ValueError, match="one-dimensional"):
            op(f, half)
    with pytest.raises(ValueError, match="one-dimensional"):
        image_rows(f, [0.5], [0.0, 0.5])
    with pytest.raises(ValueError, match="one-dimensional"):
        image_window(f, [0.5], -0.5, 0.5)


def _mirrored_Tstar(f, spec):
    """T* by the anticausal slab sum T*f_i = sum_m A_m eps_{i+m} - g_i, eps_k = g_k - g_{k+1}.

    Whole-space tables on the input with its half-line image; half lines
    read 0 at x <= 0.
    """
    grid = f.grid
    g = _operator_input(f, spec)
    eps = g.copy()
    eps[:-1] -= g[1:]
    out = np.zeros_like(g)
    for m in range(grid.nt):
        mats = _matrices(grid, (m + 0.5) * grid.tau)
        out[: grid.nt - m] += _apply_axes(eps[m:], mats)
    out -= g
    if not spec.is_whole:
        out[:, grid.xs <= 0.0] = 0.0
    return out


@pytest.mark.parametrize("n, nx, nt, spec", [
    (1, 128, 128, WHOLE), (1, 128, 128, DIRICHLET), (1, 64, 20, NEUMANN),
    (2, 32, 16, KernelSpec(2)),
])
def test_apply_Tstar_is_time_reversal_exactly(n, nx, nt, spec):
    # T* is R T R bit for bit, R reversing the slabs; the anticausal slab sum
    # agrees to rounding (measured at most 8.8e-16 of max |ref|)
    g = SpaceTimeGrid(n, 4.0, nx, 0.0, 4.0, nt)
    f = GridFunction(g, np.random.default_rng(nx + nt).normal(size=g.shape))
    got = apply_Tstar(f, spec).values
    reversed_T = apply_T(GridFunction(g, f.values[::-1]), spec).values[::-1]
    assert np.array_equal(got, reversed_T)
    ref = _mirrored_Tstar(f, spec)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _direct_T(f, spec):
    """T by the causal slab sum Tf_i = sum_m A_m delta_{i-m} - g_i, one matmul per lag.

    The O(nt² nx²) reference for apply_T's FFT correlation: whole-space tables
    on the input with its half-line image; half lines read 0 at x <= 0.
    """
    grid = f.grid
    g = _operator_input(f, spec)
    delta = g.copy()
    delta[1:] -= g[:-1]
    out = np.zeros_like(g)
    for m in range(grid.nt):
        mats = _matrices(grid, (m + 0.5) * grid.tau)
        out[m:] += _apply_axes(delta[: grid.nt - m], mats)
    out -= g
    if not spec.is_whole:
        out[:, grid.xs <= 0.0] = 0.0
    return out


@pytest.mark.parametrize("L, nx, T, nt", [
    (4.0, 64, 4.0, 16), (4.0, 128, 4.0, 32),  # dyadic
    (4.0, 33, 4.0, 16), (1.0, 17, 0.5, 7),    # odd nx
    (2.0, 24, 2.0, 1), (1.0, 7, 1.0, 1),      # one slab
    (2.0, 25, 2.0, 9), (3.0, 49, 2.0, 17),    # 2 nx - 1 and 2 nt - 1 are 5-smooth + 1
    (4.0, 65, 4.0, 41),
])
@pytest.mark.parametrize("spec", [WHOLE, DIRICHLET, NEUMANN])
def test_fft_correlation_matches_direct_slab_sum(L, nx, T, nt, spec):
    # the FFT sums in another order than the lag loop (measured at most
    # 5.7e-16 of max |out|); T* is checked through its slab-reversed input
    g = SpaceTimeGrid(1, L, nx, 0.0, T, nt)
    f = GridFunction(g, np.random.default_rng(nx + nt).normal(size=g.shape))
    ref_T = _direct_T(f, spec)
    ref_Tstar = _direct_T(GridFunction(g, f.values[::-1]), spec)[::-1]
    for got, ref in ((apply_T(f, spec).values, ref_T),
                     (apply_Tstar(f, spec).values, ref_Tstar)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _full_offset_rows(grid, us):
    """The cell-mass rows with ψ evaluated at all 2 nx cell edges, none mirrored."""
    nx = grid.nx
    us = np.asarray(us, dtype=float)
    rows = np.zeros((len(us), 2 * nx - 1))
    rows[:, nx - 1] = 1.0
    live = us > 0.0
    rows[live] += np.diff(_psi(us[live, None], (np.arange(-nx, nx) + 0.5) * grid.h), axis=1)
    rows[np.abs(rows) < np.finfo(float).tiny] = 0.0
    return rows


def _fresh_T(f, spec, op):
    """T or T* of one input with nothing shared, in the evaluation order of apply_T.

    The rows are rebuilt from all 2 nx edges; for n = 1 the row spectrum is
    the left operand of the product and is overwritten by it (R *= X), for
    n = 2 every lag is a plain A y A^T.
    """
    grid = f.grid
    g = _operator_input(f, spec)
    if op == "Tstar":
        g = g[::-1]
    delta = g.copy()
    delta[1:] -= g[:-1]
    out = np.zeros_like(g)
    start = int(np.argmax(delta.reshape(grid.nt, -1).any(axis=1)))
    if delta[start].any():
        d = delta[start:]
        rows = _full_offset_rows(grid, (np.arange(len(d)) + 0.5) * grid.tau)
        if grid.n == 1:
            nt, nx = d.shape
            Pt, Px = _fft_shape(nt, nx)
            R = np.fft.fft(np.fft.rfft(rows, Px), Pt, axis=0)
            R *= np.fft.fft(np.fft.rfft(d, Px), Pt, axis=0)
            out[start:] = np.fft.irfft(np.fft.ifft(R, axis=0)[:nt], Px)[:, nx - 1 : 2 * nx - 1]
        else:
            for m in range(len(d)):
                A = _toeplitz(grid, rows[m])
                out[start + m :] += A @ d[: len(d) - m] @ A.T
    out -= g
    if not spec.is_whole:
        out[:, grid.xs <= 0.0] = 0.0
    return out[::-1] if op == "Tstar" else out


@pytest.mark.parametrize("L, nx, T, nt", [
    (3.0, 128, 2.0, 256), (2.0, 16, 1.0, 8), (4.0, 64, 4.0, 16), (1.0, 7, 0.5, 3),
])
def test_cell_mass_rows_mirror_the_right_half_bit_for_bit(L, nx, T, nt):
    # ψ is odd in z and the edges (k + 1/2) h negate exactly, so evaluating ψ
    # right of the midpoint only changes no bit of the table
    g = SpaceTimeGrid(1, L, nx, 0.0, T, nt)
    us = np.concatenate([[0.0], (np.arange(nt) + 0.5) * g.tau, [1e-6, 50.0]])
    assert np.array_equal(_cell_mass_rows(g, us), _full_offset_rows(g, us))


@pytest.mark.parametrize("n, nx, nt, spec", [
    (1, 48, 24, WHOLE), (1, 48, 24, DIRICHLET), (1, 33, 10, NEUMANN),
    (2, 16, 12, KernelSpec(2)),
])
@pytest.mark.parametrize("op", ["T", "Tstar"])
def test_apply_T_each_is_bit_identical_to_fresh_single_inputs(n, nx, nt, spec, op):
    # one kernel per first live slab, shared by the inputs of a call: each
    # image must equal a single-input evaluation with nothing shared, bit for
    # bit.  The inputs go dead in their first or last slabs, so under T and
    # under T* (which reverses them) the first live slab differs
    g = SpaceTimeGrid(n, 3.0, nx, 0.0, 2.0, nt)
    rng = np.random.default_rng(nx + nt)
    fs = []
    for lead, trail in ((0, 0), (3, 0), (0, 4), (0, 0), (3, 2)):
        v = rng.normal(size=g.shape)
        v[:lead] = 0.0
        v[nt - trail :] = 0.0
        fs.append(GridFunction(g, v))
    fs.append(GridFunction(g, np.zeros(g.shape)))
    images = apply_T_each(fs, spec, op)
    single = apply_T if op == "T" else apply_Tstar
    assert len(images) == len(fs)
    for f, image in zip(fs, images):
        assert image.grid == g
        assert np.array_equal(image.values, _fresh_T(f, spec, op))
        assert np.array_equal(image.values, single(f, spec).values)


def test_apply_T_each_rejects_mixed_grids_and_unknown_ops():
    g = xgrid(nx=8, nt=4)
    f = GridFunction(g, np.ones(g.shape))
    assert apply_T_each([]) == []
    with pytest.raises(ValueError, match="one grid"):
        apply_T_each([f, GridFunction(g.refine(), np.ones(g.refine().shape))])
    with pytest.raises(ValueError, match="op"):
        apply_T_each([f], WHOLE, "T*")


def test_buffered_2d_causal_sum_equals_plain_matmuls():
    # rows that are not symmetric, so a transposed factor cannot pass
    g = SpaceTimeGrid(2, 2.0, 12, 0.0, 1.0, 9)
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(g.nt, 2 * g.nx - 1))
    x = rng.normal(size=g.shape)
    ref = np.zeros(g.shape)
    for m in range(g.nt):
        A = _toeplitz(g, rows[m])
        ref[m:] += A @ x[: g.nt - m] @ A.T
    assert np.array_equal(_causal_sum(g, rows, x, np.zeros(g.shape)), ref)


def test_fast_len_is_the_smallest_5_smooth_length():
    smooth = np.sort([2**a * 3**b * 5**c
                      for a in range(12) for b in range(8) for c in range(6)])
    for n in range(1, 2001):
        assert _fast_len(n) == smooth[np.searchsorted(smooth, n)]


def _dense_slab_sums(f, spec):
    """Tf and T*f by the causal and anticausal slab sums of the dense image tables.

    Tf_i = sum_m B_m delta_{i-m} - g_i and T*f_i = sum_m B_m eps_{i+m} - g_i,
    with B_m = _dense_matrices(grid, (m + 1/2) tau)[spec] and g = f on x > 0.
    """
    grid = f.grid
    g = f.values * (grid.xs > 0.0)
    delta, eps = g.copy(), g.copy()
    delta[1:] -= g[:-1]
    eps[:-1] -= g[1:]
    T, Tstar = -g, -g
    for m in range(grid.nt):
        B = _dense_matrices(grid, (m + 0.5) * grid.tau)[spec]
        T[m:] = T[m:] + delta[: grid.nt - m] @ B.T
        Tstar[: grid.nt - m] = Tstar[: grid.nt - m] + eps[m:] @ B.T
    return T, Tstar


@pytest.mark.parametrize("L, nx, T, nt", [
    (4.0, 128, 4.0, 16), (4.0, 64, 4.0, 20),  # dyadic
    (2.0, 24, 2.0, 12), (3.0, 48, 2.0, 10),   # offsets off the dyadic lattice
    (4.0, 33, 4.0, 16), (1.0, 17, 0.5, 7),    # odd nx: the middle cell is the wall
])
@pytest.mark.parametrize("spec", [DIRICHLET, NEUMANN])
def test_half_line_operators_match_dense_image_tables(L, nx, T, nt, spec):
    # apply_T and apply_Tstar carry the image in their input and evaluate
    # whole-space tables; the reference adds p(x + y) entry by entry, so the
    # two agree to rounding (measured at most 1.2e-15 of max |out|)
    g = SpaceTimeGrid(1, L, nx, 0.0, T, nt)
    f = GridFunction(g, np.random.default_rng(nx + nt).normal(size=g.shape))
    ref_T, ref_Tstar = _dense_slab_sums(f, spec)
    for got, ref in ((apply_T(f, spec).values, ref_T),
                     (apply_Tstar(f, spec).values, ref_Tstar)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.all(got[:, g.xs <= 0.0] == 0.0)


@pytest.mark.parametrize("spec", [WHOLE, DIRICHLET, NEUMANN])
@pytest.mark.parametrize("op", ["T", "Tstar"])
def test_image_rows_match_one_row_calls(spec, op):
    g = SpaceTimeGrid(1, 1.0, 16, 0.0, 0.8, 8)
    f = GridFunction(g, np.random.default_rng(6).normal(size=g.shape))
    # off-lattice times, a slab edge, and points on cell edges and past the box
    ts = np.array([0.05, g.t_edges[3], 0.47, 0.8, 1.9])
    xs = np.concatenate([g.x_edges[5:12], [-0.31, 0.2, 0.77, 3.5]])
    rows = image_rows(f, ts, xs, spec, op)
    assert rows.shape == (len(ts), len(xs))
    for t, row in zip(ts, rows):
        assert np.array_equal(row, image_rows(f, [t], xs, spec, op)[0])
    # one row of points per time: each row is its one-row call, half lines
    # reading 0 at that row's own x <= 0
    X = np.stack([np.roll(xs, k) + 0.03 * k for k in range(len(ts))])
    X[2, 4] = 0.0
    per_time = image_rows(f, ts, X, spec, op)
    assert per_time.shape == X.shape
    for t, x_row, row in zip(ts, X, per_time):
        assert np.array_equal(row, image_rows(f, [t], x_row, spec, op)[0])
    if not spec.is_whole:
        assert np.all(per_time[X <= 0.0] == 0.0) and np.any(per_time[X > 0.0] != 0.0)
    with pytest.raises(ValueError, match="one row per time"):
        image_rows(f, ts, X[:2], spec, op)
    # the slab-midpoint rows agree with the grid operator
    grid_op = {"T": apply_T, "Tstar": apply_Tstar}[op](f, spec).values
    mid = image_rows(f, g.ts, g.xs, spec, op)
    assert np.allclose(mid, grid_op, atol=1e-11)


@pytest.mark.parametrize("op", ["T", "Tstar"])
def test_image_rows_edge_conventions(op):
    g = SpaceTimeGrid(1, 1.0, 16, 0.0, 0.8, 8)
    f = GridFunction(g, np.random.default_rng(7).normal(size=g.shape))
    e, d = g.x_edges[7], 1e-9
    # inside a slab the image jumps with the input across a cell edge; the
    # edge itself reads the midpoint of the jump
    t = 0.33
    left, mid, right = image_rows(f, [t], [e - d, e, e + d], op=op)[0]
    assert abs(right - left) > 0.1
    assert mid == pytest.approx(0.5 * (left + right), abs=1e-7)
    # on a slab edge the image is continuous in t
    te = g.t_edges[4]
    before, on, after = image_rows(f, [te - d, te, te + d], [0.11], op=op)[:, 0]
    assert on == pytest.approx(before, abs=1e-6)
    assert on == pytest.approx(after, abs=1e-6)


def _loop_corner_sum(f, ts, pts, spec, op, kernel):
    """The corner sum corner by corner, every kernel value evaluated directly:
    the reference the kernel tables of heatop._corner_sum are tested against."""
    g = _operator_input(f, spec)
    if op == "Tstar":
        g, lags = g[::-1], f.grid.t_edges[::-1, None] - ts
    else:
        lags = ts - f.grid.t_edges[:, None]
    D = np.diff(np.diff(np.pad(g, 1), axis=0), axis=1)
    keep = D.any(axis=0)
    edges, D = f.grid.x_edges[keep], D[:, keep]
    out = np.zeros((len(ts), pts.shape[-1]))
    step = max(1, CHUNK // max(1, out.shape[1] * len(edges)))
    for m, u in enumerate(lags):
        live = np.flatnonzero(u > 0.0) if D[m].any() else []
        for c in range(0, len(live), step):
            i = live[c : c + step]
            p = pts if pts.ndim == 1 else pts[i]
            out[i] += kernel(u[i][:, None, None], p[..., None] - edges) @ D[m]
    return out


def _loop_image_rows(f, ts, x_out, spec, op):
    ts, x_out = np.asarray(ts, dtype=float), np.asarray(x_out, dtype=float)
    out = _loop_corner_sum(f, ts, x_out, spec, op, _psi)
    if not spec.is_whole:
        out[np.broadcast_to(x_out <= 0.0, out.shape)] = 0.0
    return out


def _loop_image_window(f, ts, lo, hi, spec, op):
    # one row of ends per time, scalar ends too
    ts = np.asarray(ts, dtype=float)
    ends = np.stack(np.broadcast_arrays(lo, hi, ts)[:2], axis=-1).astype(float)
    if not spec.is_whole:
        ends = np.maximum(ends, 0.0)
    out = _loop_corner_sum(f, ts, ends, spec, op, _psi_window)
    return out[:, 1] - out[:, 0]


@pytest.mark.parametrize("spec", [WHOLE, DIRICHLET, NEUMANN])
@pytest.mark.parametrize("op", ["T", "Tstar"])
@pytest.mark.parametrize("dyadic", [True, False])
def test_corner_sum_tables_equal_the_corner_loop(monkeypatch, spec, op, dyadic):
    # the kernel tables gather the values the loop evaluates and every row
    # adds its corner terms in corner order, so they agree bit for bit
    g = (SpaceTimeGrid(1, 1.0, 16, 0.0, 1.0, 8) if dyadic
         else SpaceTimeGrid(1, 0.7, 18, 0.3, 1.1, 7))
    rng = np.random.default_rng(11)
    atom = np.zeros(g.shape)  # jumps on a few corners only, as an atom has
    atom[2:5, 6:10] = rng.normal(size=(3, 4))
    paths, corner_kernel = [], heatop._corner_kernel

    def spy(*args):
        operand = corner_kernel(*args)
        paths.append(operand.__name__)
        return operand

    monkeypatch.setattr(heatop, "_corner_kernel", spy)
    R = 0.37
    midpoints = -g.length + (np.arange(-4, g.nx + 4) + 0.5) * g.h  # cell-aligned
    off_grid = 0.05 - R + (np.arange(24) + 0.5) * (2.0 * R / 24)
    slab_rows = (g.t_edges[:-1, None] + (np.arange(3) + 0.5) * (g.tau / 3)).ravel()
    past = g.t_max * 2.0 ** np.linspace(0.05, 4.0, 17)  # rows past the horizon
    for values in (rng.normal(size=g.shape), atom):
        f = GridFunction(g, values)
        for ts in (slab_rows, past, np.concatenate([slab_rows, past])):
            for xs in (midpoints, off_grid):
                got = image_rows(f, ts, xs, spec, op)
                assert np.array_equal(got, _loop_image_rows(f, ts, xs, spec, op))
            X = off_grid + 0.01 * np.arange(len(ts))[:, None]  # per-time points
            got = image_rows(f, ts, X, spec, op)
            assert np.array_equal(got, _loop_image_rows(f, ts, X, spec, op))
            for lo, hi in [(-0.3, 0.45), (g.x_edges[3], 5.0), (-R - ts, R + ts)]:
                got = image_window(f, ts, lo, hi, spec, op)
                assert np.array_equal(got, _loop_image_window(f, ts, lo, hi, spec, op))
    # all three operands are exercised; the dyadic grid repeats its lags
    # exactly at the slab-midpoint rows
    assert {"aligned", "direct"} <= set(paths)
    assert "by_lag" in paths or not dyadic


def _mp_slab_sum(f, t, op, mass, cells):
    """Σ over slabs and cells of f · (mass(u1, cell) - mass(u2, cell)), 80 digits.

    u1, u2 are the lags of the slab's far and near ends (T: t - a, t - b;
    T*: b - t, a - t; clipped at 0); cells(lo, hi) lists the cells that a
    grid cell (lo, hi) contributes, each with its weight.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 80
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


def _mp_cells(image_sign):
    """The direct cell, plus its image (-hi, -lo) weighted image_sign if nonzero."""
    if image_sign == 0:
        return lambda lo, hi: [(1, lo, hi)]
    return lambda lo, hi: [(1, lo, hi), (image_sign, -hi, -lo)]


def _mp_reference(f, t, x, op, image_sign=0):
    """Tf or T*f at (t, x) by the slab sum of cell masses in 80-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 80
    x = mp.mpf(x)

    def mass(u, lo, hi):  # ∫_lo^hi p_u(x - y) dy, in the tail that keeps it exact
        if u == 0:
            return mp.mpf(int(lo <= x < hi))
        s = 2 * mp.sqrt(u)
        if x < (lo + hi) / 2:
            return (mp.erfc((lo - x) / s) - mp.erfc((hi - x) / s)) / 2
        return (mp.erfc((x - hi) / s) - mp.erfc((x - lo) / s)) / 2

    return _mp_slab_sum(f, t, op, mass, _mp_cells(image_sign))


def _mp_window_reference(f, t, x_lo, x_hi, op, image_sign=0):
    """∫_{x_lo}^{x_hi} (Tf or T*f)(t, x) dx in 80-digit arithmetic.

    The double integral of p_u over window × cell is
    (s/2) [F((x_hi - lo)/s) - F((x_hi - hi)/s) - F((x_lo - lo)/s) + F((x_lo - hi)/s)]
    with s = 2√u and F(z) = z erf z + (e^{-z²} - 1)/√π; at u = 0 it is the
    overlap length.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 80
    x_lo, x_hi = mp.mpf(x_lo), mp.mpf(x_hi)

    def F(z):
        return z * mp.erf(z) + (mp.exp(-z * z) - 1) / mp.sqrt(mp.pi)

    def mass(u, lo, hi):
        if u == 0:
            return max(mp.mpf(0), min(hi, x_hi) - max(lo, x_lo))
        s = 2 * mp.sqrt(u)
        return s / 2 * (F((x_hi - lo) / s) - F((x_hi - hi) / s)
                        - F((x_lo - lo) / s) + F((x_lo - hi) / s))

    return _mp_slab_sum(f, t, op, mass, _mp_cells(image_sign))


@pytest.mark.parametrize("x, size", [
    (-30.303705637140283, 1.795e-153),
    (-9.350596039425668, 1.835e-15),
    (29.936484456289236, 5.137e-152),
])
def test_far_field_against_80_digit_reference(x, size):
    # rows of the seed-0 interior T* atom's sixth annulus, where a tail cut at
    # 1e-12 used to return exactly 0.0
    from hardyheat.atoms import AtomKind
    from hardyheat.verify import _tstar_atom

    a, _ = _tstar_atom(AtomKind.TYPE_A, 0)
    t = 0.5059650805903846
    ref = _mp_reference(a, t, x, "Tstar")
    got = float(image_rows(a, [t], [x], op="Tstar")[0, 0])
    assert abs(got) == pytest.approx(size, rel=1e-3)
    assert got == pytest.approx(float(ref), rel=1e-11)


@pytest.mark.parametrize("spec", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("op", ["T", "Tstar"])
def test_half_line_far_field_against_80_digit_reference(spec, op):
    # the direct cells of f on x > 0 plus their image cells (-hi, -lo),
    # weighted by the image sign, summed entry by entry in 80 digits; early
    # and mid times, off the slab edges and before the late-time cancellation
    # floor of the corner sums (measured at most 6.3e-14 on rows down to
    # 1e-118, 4.6e-13 on windows)
    g = SpaceTimeGrid(1, 0.5, 10, 0.0, 0.5, 5)
    f = GridFunction(g, np.random.default_rng(8).normal(size=g.shape))
    inside = GridFunction(g, f.values * (g.xs > 0.0))
    s = spec.image_sign
    for t in (0.05, 0.17, 0.45):
        for x in (0.01, 0.6, 6.0, 14.0):
            ref = float(_mp_reference(inside, t, x, op, s))
            got = float(image_rows(f, [t], [x], spec, op)[0, 0])
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-300)
    for t in (0.05, 0.45):
        for lo, hi in ((0.0, 0.4), (1.0, 3.0)):
            ref = float(_mp_window_reference(inside, t, lo, hi, op, s))
            got = float(image_window(f, [t], lo, hi, spec, op)[0])
            assert got == pytest.approx(ref, rel=1e-11)


def test_Tstar_next_to_a_slab_edge_against_80_digit_reference():
    # the image is only Hölder-1/2 in t at a slab edge, so a lag rounded by
    # one ulp there would move T* by about √ulp of the input's jumps
    g = SpaceTimeGrid(1, 0.5, 10, 0.0, 0.5, 5)
    f = GridFunction(g, np.random.default_rng(8).normal(size=g.shape))
    inside = GridFunction(g, f.values * (g.xs > 0.0))
    for k in range(1, g.nt):
        for t in (np.nextafter(g.t_edges[k], 0.0), g.t_edges[k]):
            ref = float(_mp_window_reference(inside, t, 0.0, 0.4, "Tstar", -1))
            got = float(image_window(f, [t], 0.0, 0.4, DIRICHLET, "Tstar")[0])
            assert got == pytest.approx(ref, rel=1e-13)


def test_far_field_T_against_80_digit_reference():
    g = SpaceTimeGrid(1, 0.5, 10, 0.0, 0.5, 5)
    f = GridFunction(g, np.random.default_rng(8).normal(size=g.shape))
    for t, x in ((0.9, 14.0), (0.3, -6.0), (0.45, 0.13)):
        ref = float(_mp_reference(f, t, x, "T"))
        assert float(image_rows(f, [t], [x])[0, 0]) == pytest.approx(ref, rel=1e-11)


# -- the independent oracle -------------------------------------------------------------

def test_duhamel_reference_close_at_default_grid():
    g = xgrid()
    f = sample(g, lambda tt, xx: np.exp(-(xx**2) - 0.5 * (tt - 1.5) ** 2))
    (ref,) = duhamel_reference([f])
    gap = lp_norm(apply_T(f) - ref, 2)
    assert gap / lp_norm(f, 2) < 1e-4
    assert gap <= 10.0 * spatial_quadrature_error(f, g.tau / 8.0)


def _dense_duhamel_stack(grid, u_switch, gl_order=12):
    """The oracle's slab matrices C_m built entry by entry: every quadrature
    node evaluates the full nx x nx matrix of x_i - y_j, with no row reuse."""
    xs, edges, h, tau = grid.xs, grid.x_edges, grid.h, grid.tau
    diff = xs[:, None] - xs[None, :]
    d = h / (2.0 * math.sqrt(3.0))
    w_lo = xs[:, None] - edges[None, :-1]
    w_hi = xs[:, None] - edges[None, 1:]

    def far_integral(lo, hi):
        out = np.zeros((grid.nx, grid.nx))
        panel = [lo]
        while panel[-1] < hi:
            panel.append(min(2.0 * panel[-1], hi))
        for a, b in zip(panel[:-1], panel[1:]):
            for u, w in zip(*_gl_nodes(a, b, gl_order)):
                out += w * (0.5 * h * (gauss_kernel_dt(u, (diff - d) ** 2, 1)
                                       + gauss_kernel_dt(u, (diff + d) ** 2, 1)))
        return out

    near = np.zeros((grid.nx, grid.nx))
    hi = u_switch
    for _ in range(42):
        lo = hi / 2.0
        for u, w in zip(*_gl_nodes(lo, hi, 8)):
            c = 1.0 / (4.0 * math.sqrt(math.pi) * u**1.5)
            near += (w * c) * (w_hi * np.exp(-w_hi * w_hi / (4.0 * u))
                               - w_lo * np.exp(-w_lo * w_lo / (4.0 * u)))
        hi = lo
    C = [near + far_integral(u_switch, tau / 2.0)]
    return C + [far_integral((m - 0.5) * tau, (m + 0.5) * tau) for m in range(1, grid.nt)]


@pytest.mark.parametrize("L, nx, T, nt", [
    (4.0, 64, 4.0, 16), (4.0, 128, 4.0, 16), (3.0, 48, 2.0, 10),
])
def test_duhamel_rows_equal_dense_build(L, nx, T, nt):
    # the battery's coarse and refined oracle grids, and one whose tau is not
    # dyadic: x offsets are exact on all three, so the rows gather to the
    # same floating-point matrices as the entry-by-entry build
    g = SpaceTimeGrid(1, L, nx, 0.0, T, nt)
    dense = _dense_duhamel_stack(g, g.tau / 8.0)
    rows = _duhamel_rows(g, g.tau / 8.0, 12)
    assert len(rows) == len(dense) == nt
    for row, C in zip(rows, dense):
        assert np.array_equal(_toeplitz(g, row), C)


def test_duhamel_rows_match_dense_build_off_dyadic_offsets():
    # h = 1/6: x_i - x_j carries different roundings than x_k - x_0, so the
    # entries agree to rounding only (measured at most 8e-16 of max |C_m|)
    g = SpaceTimeGrid(1, 2.0, 24, 0.0, 2.0, 12)
    for row, C in zip(_duhamel_rows(g, g.tau / 8.0, 12), _dense_duhamel_stack(g, g.tau / 8.0)):
        assert np.max(np.abs(_toeplitz(g, row) - C)) <= 1e-13 * np.max(np.abs(C))


def test_duhamel_reference_batch_equals_single_calls():
    g = xgrid(nx=32, nt=8)
    rng = np.random.default_rng(9)
    fs = [GridFunction(g, rng.normal(size=g.shape)) for _ in range(3)]
    refs = duhamel_reference(fs)
    assert len(refs) == 3
    for f, ref in zip(fs, refs):
        (single,) = duhamel_reference([f])
        assert ref.grid == g
        assert np.array_equal(ref.values, single.values)


def test_duhamel_reference_rejects_unsupported_setups():
    g2 = SpaceTimeGrid(2, 2.0, 8, 0.0, 1.0, 4)
    f2 = GridFunction(g2, np.zeros(g2.shape))
    with pytest.raises(ValueError):
        duhamel_reference([f2])
    g = xgrid()
    f = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        duhamel_reference([])
    other = GridFunction(xgrid(nx=32), np.zeros(xgrid(nx=32).shape))
    with pytest.raises(ValueError):
        duhamel_reference([f, other])


# -- window masses ------------------------------------------------------------------------

def test_window_mass_conservation_split():
    # one cell: the whole line splits into complementary windows whose
    # integrals cancel (Δ has mean zero); Neumann conserves the mass on the
    # half line, Dirichlet leaks it through the wall
    grid = SpaceTimeGrid(1, 1.0, 10, 0.0, 0.5, 5)
    vals = np.zeros(grid.shape)
    vals[0, 6] = 1.0
    one = GridFunction(grid, vals)
    ts = np.linspace(0.05, 1.25, 7)
    left, right = image_window(one, ts, -60.0, 0.5), image_window(one, ts, 0.5, 60.0)
    assert np.abs(left).min() > 1e-4
    assert np.abs(left + right).max() <= 1e-14
    assert np.abs(image_window(one, ts, 0.0, 60.0, NEUMANN)).max() <= 1e-14
    assert image_window(one, ts, 0.0, 60.0, DIRICHLET).max() < -1e-3

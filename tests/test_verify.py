"""Experiment battery: local-lattice certification, growth tables, dichotomies."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import erf

from hardyheat.atoms import FIT_SLACK
from hardyheat.grid import GridFunction, SpaceTimeGrid
from hardyheat.heatop import (
    HALF_LINE_DIRICHLET,
    HALF_LINE_NEUMANN,
    WHOLE,
    KernelSpec,
    _dyadic_edges,
    gauss_kernel,
    image_rows,
    image_window,
)
from hardyheat.space import Annulus, ball, dilate, truncated_volume
from hardyheat.verify import (
    C_TSTAR,
    EXPERIMENTS,
    ExperimentResult,
    Gate,
    Settings,
    _annulus_rows,
    _BOX,
    _box_cone_integral,
    _kernel_dt_mass,
    _moment_scale,
    _smooth_field,
    _time_panels,
    _window_moment,
    image_molecule_report,
    random_hz_atom,
    run_experiment,
)

FAST = dataclasses.replace(
    Settings(), oracle_inputs=3, n_atoms=3, mean_times=6, n_tstar_atoms=2,
    n_roundtrip_balls=10, n_hz_given=2, l2_inputs=4,
)


# -- settings & result plumbing ----------------------------------------------


@pytest.mark.parametrize("op, value, limit, slack, holds", [
    ("<=", 0.5, 2.0, (0.75, True), True),
    ("<=", 0.25, 0.0, (-0.25, False), False),
    (">=", 3.0, 2.0, (0.5, True), True),
    (">=", 1.0, 2.0, (-0.5, True), False),
    (">", 0.25, 0.0, (0.25, False), True),
    (">", 0.0, 0.0, (0.0, False), False),
    ("==", True, True, (0.0, False), True),
    ("==", False, True, (-1.0, False), False),
    ("fit>=", 0.5, 0.5, ((0.5 - (0.5 - FIT_SLACK)) / 0.5, True), True),
    ("fit>=", 0.5 - FIT_SLACK, 0.5, (0.0, True), True),
    ("fit>=", 0.25, 0.5, ((0.25 - (0.5 - FIT_SLACK)) / 0.5, True), False),
])
def test_gate_slack_reads_how_far_the_value_may_move(op, value, limit, slack, holds):
    # a value exactly FIT_SLACK below a fit>= bound sits on the edge: slack 0,
    # and the gate still holds
    gate = Gate("x", op, limit)
    assert gate.slack(value, limit) == slack
    assert gate.holds({"x": value}, Settings()) is holds


def test_settings_frozen():
    s = Settings()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.seed = 1


def test_result_json_roundtrip():
    r = ExperimentResult(
        experiment="x", passed=True,
        parameters={"k": np.int64(3)},
        measured={"v": np.float64(1.5), "arr": np.array([1.0, 2.0]),
                  "flag": True, "np_flag": np.bool_(False)},
        tolerances={"tol": 1e-3},
        notes=("a note",),
    )
    d = json.loads(json.dumps(r.to_json_dict()))
    assert d["parameters"]["k"] == 3
    assert d["measured"]["arr"] == [1.0, 2.0]
    assert d["measured"]["flag"] is True and d["measured"]["np_flag"] is False
    assert d["notes"] == ["a note"]


# -- shared probes -------------------------------------------------------------


def test_smooth_field_deterministic():
    g = SpaceTimeGrid(1, 2.0, 16, 0.0, 1.0, 8)
    assert np.array_equal(_smooth_field(7, g), _smooth_field(7, g))
    assert not np.array_equal(_smooth_field(7, g), _smooth_field(8, g))


def test_random_hz_atom_properties():
    a, Q = random_hz_atom(3)
    tv = truncated_volume(Q)
    assert abs(np.abs(a.values).max() * tv - 1.0) <= 1e-12
    assert abs(a.values.sum() * a.grid.cell_measure) <= 1e-15 / tv * 10
    mask = Q.mask(*a.grid.mesh())
    assert np.all(a.values[~mask] == 0.0)


@hyp_settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_hz_atom_normalisation(seed):
    a, Q = random_hz_atom(seed)
    assert np.abs(a.values).max() * truncated_volume(Q) == pytest.approx(1.0)
    m = a.values[Q.mask(*a.grid.mesh())]
    assert abs(m.sum()) <= 1e-10 * np.abs(m).sum()


def test_annulus_rows_cover_and_align():
    grid = SpaceTimeGrid(1, 1.0, 8, 0.0, 0.7, 7)
    outer = dilate(ball(0.1, 0.0, 0.2), 8.0)
    rows, wts = _annulus_rows(outer, grid, rows_target=9)
    t_lo, t_hi = 0.0, outer.t0 + outer.radius**2
    assert wts.sum() == pytest.approx(t_hi - t_lo)
    assert np.all(rows > t_lo) and np.all(rows < t_hi)
    # no midpoint panel straddles a slab edge of the grid
    for r, w in zip(rows, wts):
        inside = (grid.t_edges > r - w / 2 + 1e-12) & (grid.t_edges < r + w / 2 - 1e-12)
        assert not inside.any()


def _loop_time_panels(grid, t_lo, t_hi):
    """The panel edges of _time_panels, one edge at a time into a set."""
    edges = {t_lo, t_hi}
    edges.update(float(e) for e in grid.t_edges if t_lo < e < t_hi)
    if t_hi > grid.t_max:
        edges.update(_dyadic_edges(max(grid.t_max, t_lo), t_hi)[1:])
    return sorted(edges)


def _loop_annulus_rows(outer, grid, rows_target):
    """The rows and weights of _annulus_rows, one panel and one row at a time."""
    t_lo = max(0.0, outer.t0 - outer.radius**2)
    t_hi = outer.t0 + outer.radius**2
    edges = _loop_time_panels(grid, t_lo, t_hi)
    span = t_hi - t_lo
    rows, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        q = max(1, round(rows_target * (b - a) / span))
        w = (b - a) / q
        rows.extend(a + (m + 0.5) * w for m in range(q))
        weights.extend([w] * q)
    return np.asarray(rows), np.asarray(weights)


@pytest.mark.parametrize("grid", [SpaceTimeGrid(1, 1.0, 8, 0.0, 0.7, 7),
                                  SpaceTimeGrid(1, 0.7, 36, 0.37, 1.9, 14),
                                  SpaceTimeGrid(1, 1.0, 8, 0.0, 1.0, 4)])
@pytest.mark.parametrize("rows_target", [1, 3, 5, 9, 10, 40])
def test_annulus_rows_equal_the_panel_loop(grid, rows_target):
    # balls inside the grid's time range, straddling t = 0, and past the
    # horizon; on the last grid the ball (0, 0.5) has quarter panels, whose
    # counts 1.5 and 2.5 at rows_target 3 and 5 round to even in both
    for t0, r, theta in [(0.5, 0.1, 1.0), (0.1, 0.2, 8.0), (1.2, 0.25, 4.0),
                         (1.5, 0.3, 64.0), (0.45, 0.05, 2.0), (0.25, 0.5, 1.0)]:
        outer = dilate(ball(t0, 0.0, r), theta)
        t_lo, t_hi = max(0.0, t0 - (theta * r) ** 2), t0 + (theta * r) ** 2
        assert np.array_equal(_time_panels(grid, t_lo, t_hi),
                              _loop_time_panels(grid, t_lo, t_hi))
        rows, wts = _annulus_rows(outer, grid, rows_target)
        ref_rows, ref_wts = _loop_annulus_rows(outer, grid, rows_target)
        assert np.array_equal(rows, ref_rows) and np.array_equal(wts, ref_wts)


# -- window moments vs adaptive quadrature --------------------------------------


def cell_window_mass(u, cell_lo, cell_hi, win_lo, win_hi):
    """∫_{y in cell} ∫_{x in [win_lo, win_hi]} p_u(x - y) dx dy, vectorised over cells.

    Independent of the corner sums: antiderivatives of erf,
    ∫_0^z erf = z erf(z) + (e^(-z^2) - 1)/sqrt(pi).  At u = 0 this is the
    overlap length.
    """
    c = np.asarray(cell_lo, dtype=float)
    d = np.asarray(cell_hi, dtype=float)
    if u == 0.0:
        return np.maximum(0.0, np.minimum(d, win_hi) - np.maximum(c, win_lo))
    s = 2.0 * math.sqrt(u)

    def F(z):
        return z * erf(z) + (np.exp(-z * z) - 1.0) / math.sqrt(math.pi)

    return (s / 2.0) * (
        F((win_hi - c) / s) - F((win_hi - d) / s) - F((win_lo - c) / s) + F((win_lo - d) / s)
    )


def test_cell_window_mass_exactness():
    u, c, d, a, b = 0.35, 0.1, 0.4, -0.2, 0.9
    oracle, _ = dblquad(
        lambda x, y: gauss_kernel(u, (x - y) ** 2, 1), c, d, a, b, epsabs=1e-12
    )
    assert float(cell_window_mass(u, c, d, a, b)) == pytest.approx(oracle, rel=1e-9)
    # u = 0: overlap length; giant window: the full cell length
    assert float(cell_window_mass(0.0, 0.1, 0.4, 0.2, 1.0)) == pytest.approx(0.2)
    assert float(cell_window_mass(u, c, d, -80.0, 80.0)) == pytest.approx(d - c, rel=1e-12)


def _slab_window_integrand(f, spec, win):
    """t -> ∫_win Tf(t, x) dx by the slab sum of exact cell-window masses.

    Half lines take f on x > 0 and add the image cell (-hi, -lo) with the
    kernel's image sign.
    """
    g = f.values if spec.is_whole else f.values * (f.grid.xs > 0.0)
    lo_e, hi_e = f.grid.x_edges[:-1], f.grid.x_edges[1:]

    def W(u):
        out = cell_window_mass(u, lo_e, hi_e, *win)
        if not spec.is_whole:
            out = out + spec.image_sign * cell_window_mass(u, -hi_e, -lo_e, *win)
        return out

    def S(t):
        out = 0.0
        edges = f.grid.t_edges
        for k in range(f.grid.nt):
            a, b = edges[k], edges[k + 1]
            if t <= a:
                break
            out += float(g[k] @ (W(t - a) - W(max(t - b, 0.0))))
        return out

    return S


def test_window_moment_matches_adaptive_quad():
    """GL panels between kinks reproduce scipy's adaptive result exactly-ish."""
    grid = SpaceTimeGrid(1, 1.0, 10, 0.0, 0.5, 5)
    vals = np.zeros(grid.shape)
    vals[1, 4] = 2.0
    vals[3, 6] = -1.0
    f = GridFunction(grid, vals)
    win = (-0.9, 0.9)
    S = _slab_window_integrand(f, WHOLE, win)
    ref, _ = quad(S, 0.0, 1.3, points=list(grid.t_edges), limit=200, epsabs=1e-13)
    got = _window_moment(f, WHOLE, "T", win, 0.0, 1.3)
    # the fixed-order panels bottom out around 1e-9 of the input scale (the
    # sqrt-u series at a kink has a small radius); every gate fed by this
    # integral sits four orders above that floor
    assert got == pytest.approx(ref, abs=5e-9)


@pytest.mark.parametrize("boundary", [HALF_LINE_DIRICHLET, HALF_LINE_NEUMANN])
def test_half_line_window_moment_matches_adaptive_quad(boundary):
    """The wall experiments' moments: exact image-cell integrals in x.

    Same input as the whole-space case; the cell left of the wall is masked
    out, so the wall cell (0, 0.2) carries a kink of the image.
    """
    spec = KernelSpec(1, boundary)
    grid = SpaceTimeGrid(1, 1.0, 10, 0.0, 0.5, 5)
    vals = np.zeros(grid.shape)
    vals[1, 4] = 2.0
    vals[3, 6] = -1.0
    f = GridFunction(grid, vals)
    win = (0.0, 1.4)
    S = _slab_window_integrand(f, spec, win)
    ts = np.linspace(0.01, 1.29, 17)
    assert np.allclose(image_window(f, ts, *win, spec), [S(t) for t in ts],
                       rtol=0.0, atol=1e-14)
    ref, _ = quad(S, 0.0, 1.3, points=list(grid.t_edges), limit=200, epsabs=1e-13)
    assert _window_moment(f, spec, "T", win, 0.0, 1.3, gl_order=16) == pytest.approx(
        ref, abs=1e-12)
    # the default six-node panels sit at their floor: 7.6e-9 (Dirichlet) and
    # 5.7e-9 (Neumann) here, against moments of 1.9e-2 and 6.4e-3
    assert _window_moment(f, spec, "T", win, 0.0, 1.3) == pytest.approx(ref, abs=1e-8)


def test_window_moment_rejects_bad_op():
    grid = SpaceTimeGrid(1, 1.0, 4, 0.0, 0.5, 2)
    f = GridFunction(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match="op"):
        _window_moment(f, WHOLE, "both", (-1, 1), 0.0, 1.0)


# -- annulus lattices vs a brute-force uniform grid ------------------------------


def test_image_report_matches_grid_quadrature():
    """M_1, M_2 from local lattices agree with a global-grid evaluation of Ta.

    The brute-force grid shares the atom's cell structure (same h, same tau,
    doubled extent), so its midpoints never straddle the kinks the image
    inherits from the input cells.
    """
    a, Q = random_hz_atom(0)
    report, _ = image_molecule_report(a, Q, "T", 0.5, 2, nx_loc=40, rows_target=24)
    g = a.grid
    outer = dilate(Q, 8.0)
    nt_big = math.ceil((outer.t0 + outer.radius**2) / g.tau)
    big = SpaceTimeGrid(1, 4.0 * g.length, 4 * g.nx, 0.0, nt_big * g.tau, nt_big)
    assert big.covers_ball(outer, clip_time=True)
    Ta = image_rows(a, big.ts, big.xs)
    tt, xx = big.mesh()
    for j, m_local in zip((1, 2), report.weighted_norms):
        msk = Annulus(Q, j).mask(tt, xx)
        l2 = math.sqrt(float((Ta[msk] ** 2).sum()) * big.cell_measure)
        m_grid = l2 * math.sqrt(truncated_volume(Annulus(Q, j).outer))
        assert m_local == pytest.approx(m_grid, rel=0.05)


def test_image_report_rejects_2d():
    grid = SpaceTimeGrid(2, 1.0, 8, 0.0, 0.5, 4)
    f = GridFunction(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match="one-dimensional"):
        image_molecule_report(f, ball(0.1, (0.0, 0.0), 0.2), "T", 0.5, 2)


# -- single-atom certification ---------------------------------------------------


def test_certify_T_on_atom_passes():
    a, Q = random_hz_atom(1)
    report, _ = image_molecule_report(a, Q, "T", 0.5, Settings().J)
    assert report.certifies()
    assert report.fitted_alpha > 1.0
    assert abs(report.moment) / _moment_scale(a, Q) < 1e-5


def test_deep_atom_moment_tiny():
    # far from the boundary the image mean is pure quadrature dust
    a, Q = random_hz_atom(5)  # t0 ≈ 3 r², the deepest family member
    report, _ = image_molecule_report(a, Q, "T", 0.5, Settings().J)
    assert abs(report.moment) / _moment_scale(a, Q) <= 1e-6


# -- the experiments, at reduced sample counts -----------------------------------


def test_telescoping_oracle():
    r = run_experiment("telescoping_oracle", FAST)
    assert r.passed
    assert r.measured["max_rel_error"] <= 1e-4
    assert r.measured["min_refinement_gain"] >= 8.0


def test_atom_images():
    r = run_experiment("atom_images", FAST)
    assert r.passed
    assert r.measured["min_fitted_alpha"] >= 1.0
    assert r.measured["constant_band"] <= 2.5
    assert r.measured["max_mean_rel"] <= 1e-8
    assert "peak_time_mass_diagnostic is reported, not gated" in r.notes


def test_tstar_images():
    r = run_experiment("tstar_images", FAST)
    assert r.passed
    assert r.measured["anticausal_max"] == 0.0
    assert r.measured["min_fitted_boundary"] >= 2.0
    assert r.measured["min_fitted_boundary"] > r.measured["min_fitted_interior"]


def test_growth_T_levels_off():
    r = run_experiment("growth_T", FAST)
    assert r.passed
    diffs = r.measured["dyadic_increments"]
    assert all(d > 0 for d in diffs)
    assert r.measured["dyadic_spread"] <= 0.05
    assert r.measured["cone_sign_max"] <= 0.0
    assert math.isfinite(r.measured["h1r_bound"])
    # frozen endpoint of the growth table
    assert dict(map(tuple, r.measured["growth_table"]))[128.0] == pytest.approx(
        0.9521185930, rel=1e-8
    )


def test_growth_T_increments_near_c_log2():
    # dyadic increments approach (asymptotic slope) * log 2 from above
    r = run_experiment("growth_T", FAST)
    last = r.measured["dyadic_increments"][-1]
    assert last == pytest.approx(r.measured["log_slope"] * math.log(2.0), rel=0.05)


def _box_cone_reference(a: float, b: float) -> float:
    """The cone integral by adaptive quadrature, one window call per node."""
    def inner(t: float) -> float:
        W = 0.5 * math.sqrt(t)
        return -float(image_window(_BOX, [t], -W, W)[0])

    val, _ = quad(inner, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


_DEFAULT_PANELS = list(zip((4.0,) + Settings().growth_T_values, Settings().growth_T_values))


@pytest.mark.parametrize("a, b", _DEFAULT_PANELS + [
    (4.0, 6.0), (6.0, 16.0), (4.0, 100.0), (100.0, 1000.0),
])
def test_box_cone_integral_matches_adaptive_quad(a, b):
    # beyond T ~ 1e4 the reference itself warns of roundoff
    assert _box_cone_integral(a, b) == pytest.approx(_box_cone_reference(a, b), rel=1e-12)


def test_box_cone_integral_additive():
    # split off the dyadic edges so the two sides use different panels
    whole = _box_cone_integral(4.0, 16.0)
    split = _box_cone_integral(4.0, 6.0) + _box_cone_integral(6.0, 16.0)
    assert whole == pytest.approx(split, abs=1e-11)


@pytest.mark.parametrize("u", [1.0, 2.0, 17.0, 230.0, 1024.0])
def test_kernel_dt_mass_scales_like_one_over_u(u):
    assert u * _kernel_dt_mass(u) == pytest.approx(C_TSTAR, abs=1e-15)


def test_growth_Tstar_constants():
    r = run_experiment("growth_Tstar", FAST)
    assert r.passed
    assert r.measured["c_gap"] <= 1e-12
    assert r.measured["scaling_defect"] <= 1e-12
    assert r.measured["slope_rel_gap"] <= 1e-9
    G = dict(map(tuple, r.measured["growth_table"]))
    assert G[1024.0] == pytest.approx(C_TSTAR * math.log(1024.0), rel=1e-10)


def test_roundtrips():
    r = run_experiment("roundtrips", FAST)
    assert r.passed
    assert r.measured["restrict_residual_max"] == 0.0
    assert r.measured["overlap_max"] <= 16
    assert r.measured["hz_residual_max"] <= 1e-15
    for c in r.measured["molecule_tail_constants"]:
        assert c == pytest.approx(0.3, rel=1e-9)


def test_l2_stability():
    r = run_experiment("l2_stability", FAST)
    assert r.passed
    assert r.measured["max_drift"] <= 0.02
    for s in r.measured["operator_norms"]:
        assert 0.5 <= s <= 1.5


def test_lp_probe():
    r = run_experiment("lp_probe", FAST)
    assert r.passed
    assert r.measured["zero_image_norm"] == 0.0
    ratios = r.measured["l1_contrast_ratios"]
    assert ratios[2] > ratios[1] > ratios[0]
    assert r.measured["max_refinement_ratio"] <= 1.05


def test_boundary_dichotomy_pair():
    neu = run_experiment("boundary_neumann", FAST)
    dir_ = run_experiment("boundary_dirichlet", FAST)
    assert neu.passed and dir_.passed
    assert neu.measured["max_moment_rel"] <= 1e-9
    assert dir_.measured["near_moment_rel"] >= 0.03
    assert dir_.measured["far_moment_rel"] <= 1e-9
    # the two regimes disagree by orders of magnitude on the same geometry
    assert dir_.measured["near_moment_rel"] / neu.measured["max_moment_rel"] > 1e6


# -- registry & determinism ------------------------------------------------------


def test_registry_complete():
    assert set(EXPERIMENTS) == {
        "telescoping_oracle", "atom_images", "tstar_images", "growth_T",
        "growth_Tstar", "roundtrips", "l2_stability", "lp_probe",
        "boundary_dirichlet", "boundary_neumann",
    }


def test_run_experiment_unknown():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("nope", FAST)


def test_run_experiment_checks_declared_dims():
    two_d = dataclasses.replace(FAST, n=2)
    with pytest.raises(ValueError, match="lp_probe is one-dimensional; run it with n=1"):
        run_experiment("lp_probe", two_d)
    assert EXPERIMENTS["roundtrips"].dims == (1, 2)


# one pass through each loop is enough to reach every read
TINY = dataclasses.replace(
    Settings(), oracle_inputs=1, n_atoms=1, mean_times=1, n_tstar_atoms=1,
    n_roundtrip_balls=2, n_hz_given=1, l2_inputs=1,
)
_FIELDS = {f.name for f in dataclasses.fields(Settings)}


def _recording(settings: Settings):
    """A copy of settings that notes each field read, and the set it fills."""
    reads = set()

    class Recording(Settings):
        def __getattribute__(self, name):
            if name in _FIELDS:
                reads.add(name)
            return super().__getattribute__(name)

    return Recording(**{k: getattr(settings, k) for k in _FIELDS}), reads


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_declared_reads_are_the_recorded_reads(name):
    exp = EXPERIMENTS[name]
    settings, reads = _recording(TINY)
    result = run_experiment(name, settings)
    assert reads == set(exp.reads)
    assert result.tolerances == {g.bound: getattr(TINY, g.bound)
                                 for g in exp.gates
                                 if isinstance(g.bound, str) and 1 in g.dims}


def test_bit_reproducible():
    a = json.dumps(run_experiment("l2_stability", FAST).to_json_dict(), sort_keys=True)
    b = json.dumps(run_experiment("l2_stability", FAST).to_json_dict(), sort_keys=True)
    assert a == b


def test_seed_changes_measurements():
    s2 = dataclasses.replace(FAST, seed=1)
    a = run_experiment("l2_stability", FAST).measured["operator_norms"]
    b = run_experiment("l2_stability", s2).measured["operator_norms"]
    assert a != b

"""Negative controls: a defect injected by monkeypatching must fail a battery gate.

Each test runs an experiment at a reduced size twice, once as shipped (it
passes) and once with one defect patched into the layer it certifies (it
fails).  The program itself carries no defect switch.
"""
import dataclasses

import numpy as np
import pytest
from scipy.special import erfc

import hardyheat.decompose as decompose
import hardyheat.heatop as heatop
from hardyheat.heatop import HALF_LINE_DIRICHLET, HALF_LINE_NEUMANN, WHOLE, KernelSpec
from hardyheat.verify import Settings, run_experiment


def _input_without_mirror(f, spec):
    """_operator_input with the half-line image dropped: f masked to x > 0 only."""
    g = np.asarray(f.values, dtype=float)
    return g if spec.is_whole else g * (f.grid.xs > 0.0)


def test_dropping_the_mirror_term_fails_boundary_neumann(monkeypatch):
    # without its image the conservative wall leaks mass like an open one:
    # max_moment_rel reads 3.3e-2 against the 1e-3 gate (4.4e-11 as shipped)
    settings = Settings(J=4)
    assert run_experiment("boundary_neumann", settings).passed
    monkeypatch.setattr(heatop, "_operator_input", _input_without_mirror)
    assert not run_experiment("boundary_neumann", settings).passed


# The far-field series of heatop.far_field against its 40-digit reference
# (the far_field_errors fixture of tests/conftest.py): at most 3.1e-13 of the
# largest image value as shipped, against a 1e-12 bound.  Each defect below
# fails that bound.

DIRICHLET = KernelSpec(1, HALF_LINE_DIRICHLET)
NEUMANN = KernelSpec(1, HALF_LINE_NEUMANN)


def test_dropping_the_time_moments_fails_the_far_field_reference(monkeypatch, far_field_errors):
    # the l >= 1 rows of μ zeroed: past the last corner only time moments
    # carry the image (Σ_m D_mj = 0), so the series reads 0
    moments = heatop._space_time_moments

    def spatial_only(*args):
        mu = moments(*args)
        mu[1:] = 0.0
        return mu

    monkeypatch.setattr(heatop, "_space_time_moments", spatial_only)
    for spec in (WHOLE, DIRICHLET, NEUMANN):
        assert max(far_field_errors(spec)) > 1e-12


@pytest.mark.parametrize("spec", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_a_flipped_mirror_term_fails_the_far_field_reference(monkeypatch, spec,
                                                            far_field_errors):
    # the reflected half-line term read with the other wall's sign: the
    # errors read 1.8 to 3.8
    far_field = heatop.far_field
    monkeypatch.setattr(heatop, "far_field", lambda f, spec: dataclasses.replace(
        far_field(f, spec), image_sign=-far_field(f, spec).image_sign))
    assert max(far_field_errors(spec)) > 1e-12


def test_eight_terms_fail_the_far_field_reference(monkeypatch, far_field_errors):
    # K = 8 leaves the time terms l = 4 .. 20 out, about (4 ρ_t)^4 just past
    # the threshold: the errors read 3.8e-3 to 2.4e-2
    monkeypatch.setattr(heatop, "FAR_TERMS", 8)
    for spec in (WHOLE, DIRICHLET, NEUMANN):
        assert max(far_field_errors(spec)) > 1e-12


def test_an_unpadded_correlation_fails_the_oracle_and_lp_probe(monkeypatch):
    # transformed at the input's own shape (nt, nx), the correlation wraps
    # late lags onto early slabs, cuts the row table to its first nx offsets
    # and reads one output column for every x: max_rel_error reads 1.13
    # against the 1e-3 gate (5.2e-6 as shipped), l1_min_step -6.5e-3 against
    # > 0 (0.68 as shipped)
    settings = Settings(oracle_inputs=2)
    for name in ("telescoping_oracle", "lp_probe"):
        assert run_experiment(name, settings).passed
    monkeypatch.setattr(heatop, "_fft_shape", lambda nt, nx: (nt, nx))
    for name in ("telescoping_oracle", "lp_probe"):
        assert not run_experiment(name, settings).passed


def test_a_correlation_wrapped_in_time_fails_the_oracle(monkeypatch):
    # padded in space only, at (nt, _fast_len(2 nx - 1)), the correlation
    # wraps late lags onto early slabs but leaves x alias-free:
    # max_rel_error reads 0.43 against the 1e-3 gate.  lp_probe passes under
    # this defect (l1_min_step 0.83, max_refinement_ratio 1.02): its gates do
    # not see a wrap in time, a blind spot listed under ROADMAP item 3
    settings = Settings(oracle_inputs=2)
    monkeypatch.setattr(heatop, "_fft_shape",
                        lambda nt, nx: (nt, heatop._fast_len(2 * nx - 1)))
    assert not run_experiment("telescoping_oracle", settings).passed


# lp_probe and l2_stability pass under each of the three defects below: their
# sups over smooth fields and the box's L¹ contrast move too little for their
# gates, a blind spot listed under ROADMAP item 3.  The oracle catches each.

def test_every_lag_one_slab_late_fails_the_oracle(monkeypatch):
    # the cell-mass rows read at u + tau instead of u, for every u > 0:
    # max_rel_error reads 0.298 against the 1e-3 gate (5.2e-6 as shipped)
    settings = Settings(oracle_inputs=2)
    assert run_experiment("telescoping_oracle", settings).passed
    rows = heatop._cell_mass_rows
    monkeypatch.setattr(heatop, "_cell_mass_rows", lambda grid, us: rows(
        grid, np.where(np.asarray(us) > 0.0, np.asarray(us) + grid.tau, us)))
    assert not run_experiment("telescoping_oracle", settings).passed


def test_dropping_minus_g_fails_the_oracle(monkeypatch):
    # Tf_i = sum_m A_m delta_{i-m} without the - g_i term: max_rel_error reads
    # 1.69 against the 1e-3 gate
    settings = Settings(oracle_inputs=2)
    assert run_experiment("telescoping_oracle", settings).passed
    telescoped = heatop._telescoped
    monkeypatch.setattr(heatop, "_telescoped",
                        lambda grid, g, spec, kernels: telescoped(grid, g, spec, kernels) + g)
    assert not run_experiment("telescoping_oracle", settings).passed


def _psi_of_width(width):
    return lambda u, z: -0.5 * np.sign(z) * erfc(np.abs(z) / (width * np.sqrt(u)))


def test_a_narrow_heat_kernel_fails_the_oracle(monkeypatch):
    # psi with width 1.9 sqrt(u) instead of 2 sqrt(u): max_rel_error reads
    # 0.060 against the 1e-3 gate
    settings = Settings(oracle_inputs=2)
    assert run_experiment("telescoping_oracle", settings).passed
    monkeypatch.setattr(heatop, "_psi", _psi_of_width(1.9))
    assert not run_experiment("telescoping_oracle", settings).passed


def test_a_slightly_narrow_heat_kernel_fails_the_refinement_gate(monkeypatch):
    # psi with width 1.999 sqrt(u): only the refinement gate sees it.
    # min_refinement_gain reads 0.995 against >= 4, while max_rel_error,
    # 5.8e-4, still passes its 1e-3 gate; lp_probe and l2_stability pass
    settings = Settings(oracle_inputs=2)
    assert run_experiment("telescoping_oracle", settings).passed
    monkeypatch.setattr(heatop, "_psi", _psi_of_width(1.999))
    result = run_experiment("telescoping_oracle", settings)
    assert not result.passed
    assert result.measured["max_rel_error"] <= result.tolerances["oracle_rel"]
    assert result.measured["min_refinement_gain"] < result.tolerances["oracle_improvement"]


@pytest.mark.parametrize("n, shift", [(1, -1), (2, 1)], ids=["n1-previous", "n2-next"])
def test_a_wrong_owner_fails_roundtrips(monkeypatch, n, shift):
    # every cell handed to a neighbouring ball of its cover: the pieces still
    # partition Q ∩ X and the residual stays 0, but the cells leave the balls
    # their terms name (coefficient_constant_max 1.59 as shipped at n = 1).
    # At n = 1 the next ball is no defect this check can see: the centre
    # before a cell's first centre c does not hold it, so c <= x < c + rho,
    # the next ball holds the cell too (unless x = c) and the terms stay type
    # (b) atoms; only the per-ball reference tests of tests/test_decompose.py
    # see that owner
    settings = Settings(n=n, n_roundtrip_balls=20, n_hz_given=2)
    assert run_experiment("roundtrips", settings).passed
    first_owner = decompose._first_ball_owner

    def neighbour(layers, inp, t, xs):
        n_balls = layers.ball_at[layers.first[1:]] - layers.ball_at[layers.first[:-1]]
        return (first_owner(layers, inp, t, xs) + shift) % n_balls[inp]

    monkeypatch.setattr(decompose, "_first_ball_owner", neighbour)
    with pytest.raises(decompose.DecompositionError, match="outside their owner ball"):
        run_experiment("roundtrips", settings)


@pytest.mark.parametrize("n, k_pass, k_fail", [(1, 2, 3), (2, 5, 6)], ids=["n1", "n2"])
def test_repeated_cover_layers_fail_the_overlap_bound(monkeypatch, n, k_pass, k_fail):
    # every cover with its layers repeated k times: the copies own no cell,
    # so the decompositions stay exact, but every point lies in k times as
    # many balls.  overlap_max reads 6 (n = 1) and 12 (n = 2) as shipped, so
    # exactly 6 k and 12 k here: k_pass still meets the bound (16 and 64),
    # k_fail exceeds it by one repeat, which shows the sweep counts exactly
    settings = Settings(n=n, n_roundtrip_balls=20, n_hz_given=2)
    shipped, bound = (6, 16) if n == 1 else (12, 64)
    assert run_experiment("roundtrips", settings).measured["overlap_max"] == shipped
    cover = decompose.whitney_cover

    def repeat(k):
        monkeypatch.setattr(decompose, "whitney_cover", lambda Q, t_floor=None:
                            decompose.WhitneyCover(cover(Q, t_floor).layers * k))

    repeat(k_pass)
    result = run_experiment("roundtrips", settings)
    assert result.passed and result.measured["overlap_max"] == k_pass * shipped
    repeat(k_fail)
    with pytest.raises(decompose.DecompositionError,
                       match=f"cover overlap {k_fail * shipped} exceeds the bound {bound}"):
        run_experiment("roundtrips", settings)

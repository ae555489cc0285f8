"""Negative controls: a defect injected by monkeypatching must fail a battery gate.

Each test runs an experiment at a reduced size twice, once as shipped (it
passes) and once with one defect patched into the layer it certifies (it
fails).  The program itself carries no defect switch.
"""
import numpy as np
from scipy.special import erfc

import hardyheat.heatop as heatop
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


def test_a_narrow_heat_kernel_fails_the_oracle(monkeypatch):
    # psi with width 1.9 sqrt(u) instead of 2 sqrt(u): max_rel_error reads
    # 0.060 against the 1e-3 gate
    settings = Settings(oracle_inputs=2)
    assert run_experiment("telescoping_oracle", settings).passed
    monkeypatch.setattr(heatop, "_psi", lambda u, z: -0.5 * np.sign(z) * erfc(
        np.abs(z) / (1.9 * np.sqrt(u))))
    assert not run_experiment("telescoping_oracle", settings).passed

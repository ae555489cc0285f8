"""Negative controls: a defect injected by monkeypatching must fail a battery gate.

Each test runs an experiment at a reduced size twice, once as shipped (it
passes) and once with one defect patched into the layer it certifies (it
fails).  The program itself carries no defect switch.
"""
import numpy as np

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

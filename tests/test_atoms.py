"""Atom construction/validation round-trips and molecule decay reports."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyheat.atoms import (
    ATOM_TOL,
    AtomCertificate,
    AtomKind,
    _bump_field,
    fit_decay_exponent,
    make_atom,
    make_molecule,
    molecule_report,
    validate_atom,
    validate_atom_each,
)
from hardyheat import grid as grid_module
from hardyheat.grid import GridFunction, SpaceTimeGrid, integrate, lp_norm, sample
from hardyheat.space import ball, ball_volume, truncated_volume


def classical_grid():
    # symmetric in time, resolves a unit ball comfortably
    return SpaceTimeGrid(1, 3.0, 48, -2.0, 2.0, 32)


def halfspace_grid():
    return SpaceTimeGrid(1, 4.0, 64, 0.0, 24.0, 96)


BALLS = {
    AtomKind.CLASSICAL_INF: ball(0.25, -0.5, 1.0),
    AtomKind.CLASSICAL_2: ball(-0.5, 0.75, 0.8),
    AtomKind.TYPE_A: ball(20.0, 0.0, 1.0),  # 4Q ⊆ X
    AtomKind.TYPE_B: ball(5.0, 1.0, 1.0),  # 2Q ⊆ X, 4Q ⊄ X
}


@pytest.mark.parametrize("kind", list(AtomKind))
@pytest.mark.parametrize("seed", range(25))
def test_make_validate_roundtrip(kind, seed):
    grid = halfspace_grid() if kind.on_halfspace else classical_grid()
    Q = BALLS[kind]
    a = make_atom(grid, Q, kind, seed=seed)
    cert = validate_atom(a, Q, kind)
    assert cert.passed, cert
    # normalisation is tight, not just within tolerance
    assert cert.size_slack == pytest.approx(1.0, rel=1e-12)
    if kind.needs_moment:
        assert abs(cert.moment) <= 1e-12


def _certificate_by_hand(a, Q, kind):
    # the certificate from the mask, norms and moment of the one input
    mask = Q.mask(*a.grid.mesh())
    outside = np.abs(a.values[~mask])
    scale = max(float(np.abs(a.values).max()), 1.0)
    vol = ball_volume(Q)
    l2 = lp_norm(a, 2)
    moment = integrate(a)
    return AtomCertificate(
        kind=kind, ball=Q,
        support_ok=bool(outside.size == 0 or outside.max() <= ATOM_TOL * scale),
        geometry_ok=kind.fits(Q),
        size_slack=lp_norm(a, np.inf) * vol if kind.uses_sup_norm else l2 * math.sqrt(vol),
        moment=moment,
        moment_rel=abs(moment) / (math.sqrt(vol) * l2) if l2 > 0 else 0.0,
        tol=ATOM_TOL,
    )


@pytest.mark.parametrize("chunk", [None, 100])
def test_validate_atom_each_equals_the_one_input_certificates(chunk, monkeypatch):
    grid = classical_grid()
    Qs = [ball(-0.5, 0.75, 0.8), ball(0.25, -0.5, 1.0), ball(0.0, 1.1, 0.5), ball(1.0, -2.0, 0.9)]
    atoms = [make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=i) for i, Q in enumerate(Qs)]
    leaky = GridFunction(grid, atoms[2].values + 1e-3 * (~Qs[2].mask(*grid.mesh())))
    atoms += [2.0 * atoms[0], leaky, GridFunction(grid, np.zeros(grid.shape))]
    Qs += [Qs[0], Qs[2], Qs[3]]
    if chunk:
        monkeypatch.setattr(grid_module, "CHUNK", chunk)
    for kind in (AtomKind.CLASSICAL_2, AtomKind.CLASSICAL_INF):
        certs = validate_atom_each(atoms, Qs, kind)
        assert certs == [_certificate_by_hand(a, Q, kind) for a, Q in zip(atoms, Qs)]
        assert certs == [validate_atom(a, Q, kind) for a, Q in zip(atoms, Qs)]
    assert [c.passed for c in validate_atom_each(atoms, Qs, AtomKind.CLASSICAL_2)] == [
        True] * 4 + [False] * 2 + [True]
    assert validate_atom_each([], [], AtomKind.CLASSICAL_2) == []
    with pytest.raises(ValueError, match="one ball per input"):
        validate_atom_each(atoms, Qs[:-1], AtomKind.CLASSICAL_2)
    other = make_atom(halfspace_grid(), BALLS[AtomKind.TYPE_B], AtomKind.TYPE_B)
    with pytest.raises(ValueError, match="share one grid"):
        validate_atom_each([atoms[0], other], Qs[:2], AtomKind.CLASSICAL_2)


def test_size_violation_is_caught():
    grid = classical_grid()
    Q = BALLS[AtomKind.CLASSICAL_2]
    a = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=1)
    assert not validate_atom(2.0 * a, Q, AtomKind.CLASSICAL_2).passed


def test_support_violation_is_caught():
    grid = classical_grid()
    Q = BALLS[AtomKind.CLASSICAL_INF]
    a = make_atom(grid, Q, AtomKind.CLASSICAL_INF, seed=2)
    leaked = a.values.copy()
    leaked[0, 0] = 0.5 * np.abs(a.values).max()  # cell far outside Q
    cert = validate_atom(GridFunction(grid, leaked), Q, AtomKind.CLASSICAL_INF)
    assert not cert.support_ok and not cert.passed


def test_moment_violation_is_caught():
    grid = classical_grid()
    Q = BALLS[AtomKind.CLASSICAL_INF]
    mask = Q.mask(*grid.mesh())
    # positive bump: correct size, support, geometry — but no cancellation
    f = np.where(mask, 1.0 / ball_volume(Q), 0.0)
    cert = validate_atom(GridFunction(grid, f), Q, AtomKind.CLASSICAL_INF)
    assert cert.support_ok and cert.size_slack <= 1.0
    assert not cert.passed


def test_type_b_skips_moment():
    grid = halfspace_grid()
    Q = BALLS[AtomKind.TYPE_B]
    mask = Q.mask(*grid.mesh())
    f = np.where(mask, 1.0, 0.0)
    f /= math.sqrt((f**2).sum() * grid.cell_measure) * math.sqrt(ball_volume(Q))
    cert = validate_atom(GridFunction(grid, f), Q, AtomKind.TYPE_B)
    assert cert.passed and cert.moment > 0.0


def test_geometry_gate():
    grid = halfspace_grid()
    deep, shallow = BALLS[AtomKind.TYPE_A], BALLS[AtomKind.TYPE_B]
    a = make_atom(grid, deep, AtomKind.TYPE_A, seed=3)
    # a deep ball is not type_b territory, and vice versa
    assert not validate_atom(a, deep, AtomKind.TYPE_B).geometry_ok
    b = make_atom(grid, shallow, AtomKind.TYPE_B, seed=3)
    assert not validate_atom(b, shallow, AtomKind.TYPE_A).geometry_ok
    with pytest.raises(ValueError):
        make_atom(grid, deep, AtomKind.TYPE_B, seed=0)


@given(st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_random_seeds_always_give_valid_atoms(seed):
    rng = np.random.default_rng(seed)
    kind = list(AtomKind)[int(rng.integers(4))]
    grid = halfspace_grid() if kind.on_halfspace else classical_grid()
    a = make_atom(grid, BALLS[kind], kind, seed=seed)
    assert validate_atom(a, BALLS[kind], kind).passed


def test_atom_in_two_dimensions():
    grid = SpaceTimeGrid(2, 2.0, 24, -1.0, 1.0, 16)
    Q = ball(0.0, (0.25, -0.25), 0.75)
    a = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=7)
    cert = validate_atom(a, Q, AtomKind.CLASSICAL_2)
    assert cert.passed
    assert lp_norm(a, 2) == pytest.approx(ball_volume(Q) ** -0.5, rel=1e-12)


# -- molecules -----------------------------------------------------------------

def test_fit_decay_exponent_recovers_exact_line():
    js = range(1, 9)
    Ms = [2.0 ** (-0.7 * j) for j in js]
    assert fit_decay_exponent(js, Ms) == pytest.approx(0.7, abs=1e-12)


def test_fit_decay_exponent_ignores_dead_annuli():
    assert fit_decay_exponent([1, 2, 3], [0.5, 0.0, 0.125]) == pytest.approx(1.0, abs=1e-9)
    assert fit_decay_exponent([1, 2], [0.0, 0.0]) == math.inf


def test_make_molecule_hits_profile_exactly():
    Q = ball(0.02, 0.0, 0.05)  # small ball: 32Q still fits the grid
    grid = SpaceTimeGrid(1, 1.8, 72, 0.0, 2.6, 104)
    m = make_molecule(grid, Q, alpha=0.5, J=4, seed=11)
    rep = molecule_report(m, Q, alpha=0.5, J=4)
    for j, M in zip(rep.js, rep.weighted_norms):
        assert M == pytest.approx(2.0 ** (-0.5 * j), rel=1e-10)
    assert rep.fitted_alpha == pytest.approx(0.5, abs=1e-6)
    assert rep.constant == pytest.approx(1.0, rel=1e-10)
    assert rep.certifies()
    assert not molecule_report(m, Q, alpha=0.6, J=4).certifies()


def test_molecule_report_weights_use_truncated_volume():
    Q = ball(0.02, 0.0, 0.05)
    grid = SpaceTimeGrid(1, 1.8, 72, 0.0, 2.6, 104)
    m = make_molecule(grid, Q, alpha=0.5, J=3, seed=2)
    rep = molecule_report(m, Q, alpha=0.5, J=3)
    mesh = grid.mesh()
    from hardyheat.space import Annulus

    for j, M in zip(rep.js, rep.weighted_norms):
        ann = Annulus(Q, j)
        w = math.sqrt(truncated_volume(ann.outer))
        assert M == pytest.approx(w * lp_norm(m, 2, where=ann.mask(*mesh)), rel=1e-12)


def test_molecule_report_requires_coverage():
    Q = ball(1.0, 0.0, 1.0)
    grid = SpaceTimeGrid(1, 4.0, 32, 0.0, 8.0, 32)
    m = sample(grid, lambda tt, xx: np.exp(-(xx**2) - tt))
    with pytest.raises(ValueError):
        molecule_report(m, Q, J=8)


def test_one_cell_support_raises():
    # a single support cell demeans to zero: no atom or annulus fluctuation exists
    grid = SpaceTimeGrid(1, 1.0, 8, -1.0, 1.0, 8)
    Q = ball(0.125, 0.125, 0.1)
    assert Q.mask(*grid.mesh()).sum() == 1
    with pytest.raises(ValueError, match="cancels"):
        make_atom(grid, Q, AtomKind.CLASSICAL_2)
    coarse = SpaceTimeGrid(1, 1.0, 1, 0.0, 0.3, 1)
    Qm = ball(0.1, 0.0, 0.1)
    with pytest.raises(ValueError, match="too small to carry a fluctuation"):
        make_molecule(coarse, Qm, J=1)


def _full_grid_bumps(grid, mask, rng, bumps):
    """The bump field evaluated on every cell and cut to the mask, sign by rng.choice."""
    tt, *xxs = grid.mesh()
    idx = np.argwhere(mask)
    t_span = float(np.ptp(grid.ts[idx[:, 0]])) + grid.tau
    x_span = grid.h * (float(np.ptp(idx[:, 1:])) + 1.0)
    vals = np.zeros(grid.shape)
    for _ in range(bumps):
        c = idx[rng.integers(len(idx))]
        st = rng.uniform(0.2, 0.6) * t_span
        sx = rng.uniform(0.2, 0.6) * x_span
        w = rng.uniform(0.25, 1.0) * rng.choice((-1.0, 1.0))
        expo = ((tt - grid.ts[c[0]]) / st) ** 2
        for axis, xx in enumerate(xxs):
            expo = expo + ((xx - grid.xs[c[1 + axis]]) / sx) ** 2
        vals = vals + w * np.exp(-expo)
    return np.where(mask, vals, 0.0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bumps", [2, 3])
def test_bump_field_on_the_support_equals_the_full_grid_field(n, bumps):
    # the bumps are evaluated at the mask cells only, and the sign is drawn
    # by integers(2) instead of choice: same values and same stream, bit for bit
    grid = SpaceTimeGrid(n, 1.0, 24, 0.0, 1.0, 10)
    Q = ball(0.5, (0.1, -0.2) if n == 2 else 0.1, 0.45)
    mask = Q.mask(*grid.mesh())
    for seed in range(40):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # several fields from one stream
            got = _bump_field(grid, mask, got_rng, bumps)
            assert np.array_equal(got, _full_grid_bumps(grid, mask, ref_rng, bumps))
        assert got_rng.random() == ref_rng.random()

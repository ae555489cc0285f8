"""Decomposition routes: Whitney covers, restriction, reflection, symmetrisation,
molecule splitting, finite norm bounds."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyheat import decompose
from hardyheat import grid as grid_module
from hardyheat.atoms import AtomKind, make_atom, make_molecule, validate_atom
from hardyheat.config import Settings
from hardyheat.decompose import (
    CoverLayer,
    Decomposition,
    DecompositionError,
    Term,
    WHITNEY_OVERLAP_BOUND,
    WhitneyCover,
    WhitneyTerms,
    _pow2_at_least,
    cover_max_overlap,
    finite_norm_bound,
    hz_decompose,
    molecule_decompose,
    restrict_decompose,
    restrict_decompose_each,
    whitney_cover,
)
from hardyheat.grid import (
    GridFunction,
    SpaceTimeGrid,
    integrate,
    lp_norm,
    restrict,
    time_reflect,
)
from hardyheat.space import (
    ball,
    ball_volume,
    scaled_in_halfspace,
    truncated_volume,
)
from hardyheat.verify import run_experiment

STRADDLE = ball(1.0, 0.0, 1.0)  # t0 = r^2: intersection reaches the wall


# -- power-of-two rounding ------------------------------------------------------


@pytest.mark.parametrize(
    "s,expect", [(1.0, 1.0), (0.75, 1.0), (2.0, 2.0), (2.1, 4.0), (15.81, 16.0), (0.3, 0.5)]
)
def test_pow2_values(s, expect):
    assert _pow2_at_least(s) == expect


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
def test_pow2_roundtrip_exact(s, x):
    # dividing and re-multiplying by a power of two is lossless
    p = _pow2_at_least(s)
    m, _ = math.frexp(p)
    assert m == 0.5 and s <= p < 2.0 * s * (1 + 1e-15)
    assert (x / p) * p == x


def test_pow2_elementwise_on_arrays():
    s = np.array([1.0, 0.75, 2.0, 2.1, 15.81, 0.3, 2.0**-1074, 1.5e300])
    got = _pow2_at_least(s)
    assert got.shape == s.shape
    assert got.tolist() == [_pow2_at_least(float(v)) for v in s]
    assert _pow2_at_least(np.array([])).shape == (0,)


def test_pow2_rejects_nonpositive():
    with pytest.raises(ValueError):
        _pow2_at_least(0.0)
    with pytest.raises(ValueError):
        _pow2_at_least(math.inf)
    with pytest.raises(ValueError):
        _pow2_at_least(np.array([1.0, -2.0]))


# -- Whitney covers -------------------------------------------------------------


def test_whitney_every_ball_has_type_b_geometry():
    cover = whitney_cover(STRADDLE, t_floor=1.0 / 64)
    assert len(cover) > 100
    for b in cover:
        assert scaled_in_halfspace(b, 2.0)
        assert not scaled_in_halfspace(b, 4.0)


def test_whitney_overlap_within_bound():
    cover = whitney_cover(STRADDLE, t_floor=1.0 / 64)
    stats = decompose._cover_stats_each(decompose._Layers([cover]), [STRADDLE])[0]
    assert stats["overlap_max"] <= WHITNEY_OVERLAP_BOUND[1]
    assert stats["n_layers"] == 4
    assert stats["volume_ratio"] < 8.0


def _probe_points(grid, Q):
    mesh = grid.mesh()
    qm = Q.mask(*mesh)
    tt = np.broadcast_to(mesh[0], grid.shape)[qm]
    xs = [np.broadcast_to(m, grid.shape)[qm] for m in mesh[1:]]
    return tt, xs


def _covered(cover, tt, xs):
    hit = np.zeros(tt.shape, dtype=bool)
    for b in cover:
        m = np.abs(tt - b.t0) < b.radius**2
        for c, x in zip(b.center.x, xs):
            m &= np.abs(x - c) < b.radius
        hit |= m
    return hit


def test_whitney_covers_intersection():
    grid = SpaceTimeGrid(1, 2.0, 64, 0.0, 2.0, 64)
    tt, xs = _probe_points(grid, STRADDLE)
    cover = whitney_cover(STRADDLE, t_floor=grid.tau / 2)
    assert _covered(cover, tt, xs).all()


def test_whitney_rejections():
    with pytest.raises(ValueError):
        whitney_cover(ball(20.0, 0.0, 1.0))  # 2Q already inside X
    with pytest.raises(ValueError):
        whitney_cover(ball(-5.0, 0.0, 1.0))  # no intersection with X
    with pytest.raises(ValueError):
        whitney_cover(STRADDLE, t_floor=10.0)


def _reference_cover(Q, t_floor):
    """The cover built ball by ball: layers largest first, rows ascending in
    time, centres over the offset lattice in lexicographic order."""
    r = Q.radius
    top = Q.t0 + r * r
    bottom = max(Q.t0 - r * r, 0.0)
    balls = []
    k = 0
    while True:
        B_k = top * 4.0 ** (-k)
        A_k = B_k / 4.0
        rho = 0.5 * math.sqrt(A_k)
        rho2 = rho * rho
        n_rows = math.ceil((B_k - A_k) / rho2 - 0.5)
        rows = [A_k + (m + 0.5) * rho2 for m in range(n_rows)]
        n_off = math.ceil((r + rho) / rho)
        offs = [i * rho for i in range(-n_off, n_off + 1) if abs(i) * rho < r + rho]
        for t_c in rows:
            if t_c + rho2 <= bottom:
                continue
            for off in product(offs, repeat=Q.n):
                balls.append(ball(t_c, tuple(c + o for c, o in zip(Q.center.x, off)), rho))
        if A_k <= t_floor:
            break
        k += 1
    return balls


@pytest.mark.parametrize(
    "Q", [ball(0.5, 0.25, 1.0), ball(0.05, (0.1, -0.2), 0.3)], ids=["n1", "n2"]
)
def test_whitney_cover_order(Q):
    top = Q.t0 + Q.radius**2
    cover = whitney_cover(Q, t_floor=top / 20.0)
    balls = list(cover)
    assert balls == _reference_cover(Q, top / 20.0)
    assert len(cover) == len(balls) and len(cover.layers) == 3
    for layer in cover.layers:
        assert np.all(np.diff(layer.rows) > 0.0)  # lowest row first
    assert [L.rho for L in cover.layers] == sorted((L.rho for L in cover.layers), reverse=True)


def test_whitney_cover_len_and_keyword_sweep():
    # an outside tracer counts len(cover) and reads the argument named cover
    cover = whitney_cover(STRADDLE, t_floor=1.0 / 64)
    assert len(cover) == sum(1 for _ in cover) == sum(len(L.rows) * len(_centres(L))
                                                      for L in cover.layers)
    assert cover_max_overlap(cover=cover) == cover_max_overlap(cover)


def test_whitney_ball_cap_raises_before_building(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(DecompositionError, match="exceeds"):
            whitney_cover(STRADDLE, t_floor=1e-300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 200k balls as objects take ~50 MB; the layers built before the cap, a
    # few hundred kB
    assert peak < 4e6
    monkeypatch.setattr(decompose, "_MAX_COVER_BALLS", len(whitney_cover(STRADDLE)))
    whitney_cover(STRADDLE)
    monkeypatch.setattr(decompose, "_MAX_COVER_BALLS", len(whitney_cover(STRADDLE)) - 1)
    with pytest.raises(DecompositionError, match="exceeds"):
        whitney_cover(STRADDLE)


def _cover(*balls):
    """A cover with one single-ball layer per ball, in the given order."""
    return WhitneyCover(tuple(CoverLayer(b.radius, np.array([b.t0]),
                                         tuple(np.array([c]) for c in b.center.x))
                              for b in balls))


def _centres(L):
    """The centres of layer L (n_centres x n) in lexicographic order."""
    return np.stack(np.meshgrid(*L.axes, indexing="ij"), -1).reshape(-1, len(L.axes))


def _max_overlap_each(covers):
    # the batched sweep, as a list
    return decompose._max_overlap_each(decompose._Layers(covers)).tolist()


def test_cover_max_overlap_handmade():
    b = ball(1.0, 0.0, 0.5)
    assert cover_max_overlap(_cover(b, b)) == 2
    assert cover_max_overlap(_cover(b, ball(9.0, 0.0, 0.5))) == 1
    assert cover_max_overlap(_cover(b, ball(1.0, 0.5, 0.5))) == 2
    assert cover_max_overlap(_cover(b, ball(1.0, 1.0, 0.5))) == 1  # open balls that touch
    assert cover_max_overlap(_cover()) == 0
    # n = 2 sweeps bounding squares: these disks share no point (their
    # centres lie 3 sqrt(2) > 3 + 1 apart), their squares overlap at the corner
    assert cover_max_overlap(_cover(ball(1.0, (0.0, 0.0), 3.0), ball(1.0, (3.0, 3.0), 1.0))) == 2


def test_cover_max_overlap_rejects_off_lattice_covers():
    # 0.5 is not a multiple of the smallest radius 0.3, nor 0.1 of 0.3
    with pytest.raises(DecompositionError, match="lattice"):
        cover_max_overlap(_cover(ball(1.0, 0.0, 0.5), ball(1.0, 0.1, 0.3)))
    # a Whitney layer with one centre moved by 1 % of its radius
    cover = whitney_cover(STRADDLE, t_floor=1.0 / 64)
    L = cover.layers[-1]
    centres = L.axes[0].copy()
    centres[3] += 0.01 * L.rho
    moved = WhitneyCover(cover.layers[:-1] + (CoverLayer(L.rho, L.rows, (centres,)),))
    with pytest.raises(DecompositionError, match="lattice"):
        cover_max_overlap(moved)
    # and one with a row moved by 1 % of its step
    rows = L.rows.copy()
    rows[-1] += 0.01 * L.rho**2
    with pytest.raises(DecompositionError, match="lattice"):
        cover_max_overlap(WhitneyCover(cover.layers[:-1] + (CoverLayer(L.rho, rows, L.axes),)))


def test_cover_max_overlap_merges_coincident_faces():
    # three centres rho apart on one row: c_0 + rho and c_2 - rho are the same
    # point, computed two ways; open balls that only touch there do not meet
    for rho, centres in ((0.6, (1.1, 1.7, 2.3)), (0.9, (-1.4, -0.5, 0.4)),
                         (0.3, (0.7, 1.0, 1.3))):
        layer = CoverLayer(rho, np.array([1.0]), (np.array(centres),))
        assert cover_max_overlap(WhitneyCover((layer,))) == 2
        # the same balls as one-ball layers
        assert cover_max_overlap(_cover(*WhitneyCover((layer,)))) == 2


def _lattice_overlap(cover):
    """Exact box overlap of a Whitney cover on its integer lattice.

    Time faces lie on (rho_K^2 / 2)Z and spatial faces on c + rho_K Z, with
    rho_K the last layer's radius and c any centre, so in those units every
    face is an integer and each cell of the arrangement holds the point half
    a unit above its lower face.  The count there is the rows whose interval
    holds it times the centres whose box holds it, summed over layers.
    """
    rho_K = cover.layers[-1].rho
    origin = _centres(cover.layers[0])[0]

    def lattice(v):
        k = np.rint(v).astype(np.int64)
        assert np.all(np.abs(v - k) < 1e-6)
        return k

    T = [lattice(2.0 * L.rows / rho_K**2) for L in cover.layers]
    wt = [lattice(2.0 * L.rho**2 / rho_K**2) for L in cover.layers]
    X = [lattice((_centres(L) - origin) / rho_K) for L in cover.layers]
    wx = [lattice(L.rho / rho_K) for L in cover.layers]
    pt = np.unique(np.concatenate([np.r_[t - w, t + w] for t, w in zip(T, wt)])) + 0.5
    px = [np.unique(np.concatenate([np.r_[x[:, i] - w, x[:, i] + w] for x, w in zip(X, wx)]))
          + 0.5 for i in range(len(origin))]
    pts = np.array(list(product(*px)))
    a = np.stack([(np.abs(pt[:, None] - t) < w).sum(1) for t, w in zip(T, wt)], axis=1)
    B = np.stack([(np.abs(pts[:, None, :] - x) < w).all(2).sum(1) for x, w in zip(X, wx)],
                 axis=1)
    return int((a @ B.T).max())


def test_overlap_sweep_counts_rectangular_layers():
    # n = 2 layers whose axes differ in length, which a table of centres
    # with equal sides cannot hold: 2 rows x 3 x 5 centres of radius 0.5,
    # 8 boxes deep (2 rows x 2 x 2 centres), and 3 rows x 4 x 2 centres of
    # radius 0.25, 8 deep inside a cell where the first layer is 8 deep
    big = CoverLayer(0.5, np.array([1.0, 1.25]), (0.5 * np.arange(3), 0.5 * np.arange(5)))
    small = CoverLayer(0.25, np.array([1.0625, 1.125, 1.1875]),
                       (np.array([0.25, 0.5, 0.75, 1.0]), np.array([0.5, 0.75])))
    covers = [WhitneyCover((big,)), WhitneyCover((big, small))]
    assert [len(c) for c in covers] == [30, 54]
    assert [cover_max_overlap(c) for c in covers] == [8, 16]
    assert _max_overlap_each(covers) == [8, 16]
    assert [_lattice_overlap(c) for c in covers] == [8, 16]


def _roundtrip_balls(seed, n, n_balls=100):
    # the balls of the roundtrips experiment's restriction leg
    for i in range(n_balls):
        rng = np.random.default_rng(seed * 4001 + i)
        if n == 2:
            r = float(rng.uniform(0.15, 0.4))
            x0 = tuple(rng.uniform(-0.4, 0.4, size=2))
        else:
            r = float(rng.uniform(0.3, 0.9))
            x0 = float(rng.uniform(-2.0, 2.0))
        yield ball(float(rng.uniform(0.15, 0.95)) * r * r, x0, r)


def _roundtrip_grid(n):
    # the grid of the roundtrips experiment's restriction leg
    if n == 2:
        return SpaceTimeGrid(2, 1.0, 20, -0.5, 0.5, 40)
    return SpaceTimeGrid(1, 3.0, 48, -2.0, 2.0, 64)


def _roundtrip_covers(seed, n, n_balls):
    # the covers restrict_decompose builds for the roundtrips experiment's
    # draws: t_floor = max(tau / 2, bottom) on the experiment's grid
    tau = _roundtrip_grid(n).tau
    for Q in _roundtrip_balls(seed, n, n_balls):
        yield whitney_cover(Q, t_floor=max(tau / 2.0, Q.t0 - Q.radius * Q.radius, 0.0))


@pytest.mark.parametrize("n, n_balls, expected", [(1, 100, 6), (2, 20, 12)])
def test_cover_max_overlap_equals_lattice_count(n, n_balls, expected):
    for seed in range(3):
        got = []
        for cover in _roundtrip_covers(seed, n, n_balls):
            got.append(cover_max_overlap(cover))
            assert got[-1] == _lattice_overlap(cover)
        assert max(got) == expected


_CAP_COVERS = [(ball(0.5, 0.25, 1.0), 1.5 * 2.0**-22), (ball(0.05, (0.1, -0.2), 0.3), 0.14 * 2.0**-10)]


@pytest.mark.parametrize("Q, t_floor", _CAP_COVERS, ids=["n1", "n2"])
def test_cover_faces_stay_apart_near_the_ball_cap(Q, t_floor):
    # rho_K is smallest against the faces here; the lattice test below
    # checks that the faces still sit on their integer lattice
    cover = whitney_cover(Q, t_floor=t_floor)
    assert 0.8 * decompose._MAX_COVER_BALLS < len(cover) <= decompose._MAX_COVER_BALLS
    assert cover_max_overlap(cover) == (6 if Q.n == 1 else 12)


def _lattice_covers():
    # every roundtrips cover at seeds 0-2 in both dimensions, and the two
    # covers near the ball cap, where rho_K is smallest against the faces
    for seed, n in product(range(3), (1, 2)):
        yield from _roundtrip_covers(seed, n, 100)
    for Q, t_floor in _CAP_COVERS:
        yield whitney_cover(Q, t_floor=t_floor)


def test_whitney_covers_lie_on_their_lattice():
    """The lattice the overlap sweep and the owner pass rely on.

    In each layer the rows step by rho^2 and the coordinates on each
    spatial axis by rho; every face lies within 1e-3 of a unit of the
    cover's lattice: time faces on (rho_K^2 / 2)Z from the first row,
    spatial faces on rho_K Z from the first centre's coordinate.
    """
    for cover in _lattice_covers():
        rho_K = min(L.rho for L in cover.layers)
        first = cover.layers[0]
        for L in cover.layers:
            assert len(L.axes) == len(first.axes)
            for v, step, origin, unit in ((L.rows, L.rho**2, first.rows[0], rho_K**2 / 2.0),
                                          *((a, L.rho, a0[0], rho_K)
                                            for a, a0 in zip(L.axes, first.axes))):
                m = (v - v[0]) / step
                assert np.all(np.abs(m - np.arange(len(v))) < 1e-3)
                k = (v[:, None] + [-step, step] - origin) / unit
                assert np.all(np.abs(k - np.rint(k)) < 1e-3)


def test_overlap_sweep_of_many_covers_equals_one_cover_sweeps():
    # the roundtrips covers at seeds 0-19 (n = 1) and at seed 0 (n = 2)
    for covers in [list(_roundtrip_covers(seed, 1, 100)) for seed in range(20)] + [
            list(_roundtrip_covers(0, 2, 100))]:
        assert _max_overlap_each(covers) == [cover_max_overlap(c) for c in covers]
    straddle = whitney_cover(STRADDLE, t_floor=1.0 / 64)
    # one layer per ball: the same boxes, counted without the lattice
    assert _max_overlap_each([straddle, _cover(*straddle)]) == [cover_max_overlap(straddle)] * 2


def test_overlap_sweep_counts_each_cover_on_its_own_lattice():
    # covers about 1e6 and 1e9 from the origin, batched beside near ones,
    # count as the same ball at the origin: each cover's lattice starts at
    # its own first row and first centre
    near = whitney_cover(ball(0.5, 0.25, 1.0), t_floor=1.5 / 20.0)
    far, farther = (whitney_cover(ball(0.5, 0.25 + shift, 1.0), t_floor=1.5 / 20.0)
                    for shift in (1e6, 1e9))
    whitney = list(_roundtrip_covers(0, 1, 3))
    want = cover_max_overlap(near)
    assert cover_max_overlap(far) == cover_max_overlap(farther) == want
    assert _max_overlap_each([far, *whitney, farther, near]) == [
        want, *(cover_max_overlap(c) for c in whitney), want, want]


def test_overlap_sweep_merges_coincident_faces_in_a_batch():
    # the covers of test_cover_max_overlap_merges_coincident_faces between
    # Whitney covers and an empty cover
    coincident = [WhitneyCover((CoverLayer(rho, np.array([1.0]), (np.array(c),)),))
                  for rho, c in ((0.6, (1.1, 1.7, 2.3)), (0.9, (-1.4, -0.5, 0.4)),
                                 (0.3, (0.7, 1.0, 1.3)))]
    whitney = list(_roundtrip_covers(0, 1, 3))
    covers = [whitney[0], *coincident, _cover(), whitney[1], _cover(*coincident[1]), whitney[2]]
    assert _max_overlap_each(covers) == [cover_max_overlap(whitney[0]), 2, 2, 2, 0,
                                         cover_max_overlap(whitney[1]), 2,
                                         cover_max_overlap(whitney[2])]


@settings(max_examples=15, deadline=None)
@given(
    r=st.floats(min_value=0.5, max_value=1.5),
    frac=st.floats(min_value=-0.9, max_value=0.95),
    x0=st.floats(min_value=-2.0, max_value=2.0),
)
def test_whitney_random_balls_certified(r, frac, x0):
    Q = ball(frac * r * r, x0, r)
    cover = whitney_cover(Q, t_floor=(Q.t0 + r * r) / 30.0)
    assert cover_max_overlap(cover) <= WHITNEY_OVERLAP_BOUND[1]
    for b in cover:
        assert scaled_in_halfspace(b, 2.0) and not scaled_in_halfspace(b, 4.0)


# -- restriction of classical atoms ---------------------------------------------


@pytest.fixture(scope="module")
def straddle_setup():
    grid = SpaceTimeGrid(1, 6.0, 96, -4.0, 12.0, 128)
    Q = ball(0.5, 0.25, 1.0)
    A = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=3)
    return grid, Q, A


def test_restrict_interior_case():
    grid = SpaceTimeGrid(1, 4.0, 64, 0.0, 20.0, 80)
    Q = ball(17.0, 0.5, 1.0)
    A = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=1)
    dec = restrict_decompose(A, Q)
    assert dec.ledger["case"] == "interior"
    (term,) = dec.terms
    assert term.kind is AtomKind.TYPE_A and term.coefficient == 1.0
    assert dec.residual == 0.0
    assert validate_atom(term.atom, Q, AtomKind.TYPE_A).passed


def test_restrict_tiebreak_at_critical_height():
    # t0 = 16 r^2 exactly counts as interior (open-ball convention)
    grid = SpaceTimeGrid(1, 4.0, 64, 0.0, 20.0, 80)
    Q = ball(16.0, 0.0, 1.0)
    A = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=2)
    dec = restrict_decompose(A, Q)
    assert dec.ledger["case"] == "interior"
    assert dec.terms[0].kind is AtomKind.TYPE_A


def test_restrict_band_case():
    grid = SpaceTimeGrid(1, 4.0, 64, 0.0, 20.0, 80)
    Q = ball(5.0, -0.5, 1.0)
    A = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=4)
    dec = restrict_decompose(A, Q)
    assert dec.ledger["case"] == "boundary_band"
    (term,) = dec.terms
    assert term.kind is AtomKind.TYPE_B
    assert dec.residual == 0.0


def test_restrict_whitney_residual_exactly_zero(straddle_setup):
    _, Q, A = straddle_setup
    dec = restrict_decompose(A, Q)
    assert dec.ledger["case"] == "whitney"
    assert dec.residual == 0.0
    half = restrict(A)
    assert np.array_equal(dec.reconstruct().values, half.values)


def test_restrict_whitney_terms_validate(straddle_setup):
    _, Q, A = straddle_setup
    dec = restrict_decompose(A, Q)
    assert len(dec.terms) > 10
    for term in dec.terms:
        cert = validate_atom(term.atom, term.ball, term.kind)
        assert cert.passed, cert
        assert term.kind is AtomKind.TYPE_B


def test_restrict_whitney_enforces_overlap_bound(straddle_setup, monkeypatch):
    _, Q, A = straddle_setup
    monkeypatch.setitem(WHITNEY_OVERLAP_BOUND, 1, 1)
    with pytest.raises(DecompositionError, match="overlap"):
        restrict_decompose(A, Q)


def test_restrict_whitney_ledger(straddle_setup):
    _, Q, A = straddle_setup
    dec = restrict_decompose(A, Q)
    led = dec.ledger
    assert led["overlap_max"] <= WHITNEY_OVERLAP_BOUND[1]
    # Cauchy-Schwarz: coefsum <= ||A|_X|| sqrt(sum nu(Q_j)); pow2 rounding <= 2x
    assert led["coefficient_constant_raw"] <= math.sqrt(led["volume_ratio"]) + 1e-12
    assert led["coefficient_constant"] <= 2.0 * led["coefficient_constant_raw"] + 1e-12


def test_restrict_constant_bounded_across_inputs():
    grid = SpaceTimeGrid(1, 6.0, 96, -4.0, 12.0, 128)
    rng = np.random.default_rng(0)
    consts = []
    for s in range(12):
        r = float(rng.uniform(0.6, 1.4))
        Q = ball(float(rng.uniform(-0.9, 0.95)) * r * r, float(rng.uniform(-2, 2)), r)
        A = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=100 + s)
        consts.append(restrict_decompose(A, Q).ledger["coefficient_constant_raw"])
    assert max(consts) <= 2.0  # bounded independently of the atom


def test_restrict_rejects_non_atom(straddle_setup):
    grid, Q, A = straddle_setup
    with pytest.raises(DecompositionError, match="size_slack"):
        restrict_decompose(3.0 * A, Q)  # size bound violated
    small = SpaceTimeGrid(1, 0.5, 8, -4.0, 12.0, 128)
    tiny = GridFunction(small, np.zeros(small.shape))
    with pytest.raises(DecompositionError):
        restrict_decompose(tiny, Q)  # grid does not cover Q


def test_restrict_whitney_2d():
    grid = SpaceTimeGrid(2, 0.8, 16, 0.0, 0.14, 14)
    Q = ball(0.09, (0.0, 0.0), 0.2)
    A = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=11)
    dec = restrict_decompose(A, Q)
    assert dec.ledger["case"] == "whitney"
    assert dec.residual == 0.0
    assert dec.ledger["overlap_max"] <= WHITNEY_OVERLAP_BOUND[2]
    for term in dec.terms[:: max(1, len(dec.terms) // 7)]:
        assert validate_atom(term.atom, term.ball, term.kind).passed


def _reference_whitney(A, Q):
    """restrict_decompose's Whitney branch as a pass over the balls in order.

    Each ball masks the full grid; its piece is the cells of Q it contains
    that no earlier ball took.
    """
    half = restrict(A) if A.grid.t_min < 0.0 else A
    hgrid = half.grid
    floor = max(hgrid.tau / 2.0, max(Q.t0 - Q.radius**2, 0.0))
    balls = list(whitney_cover(Q, t_floor=floor))
    mesh = hgrid.mesh()
    qmask = Q.mask(*mesh)
    unassigned = qmask.copy()
    cm = hgrid.cell_measure
    vals = half.values
    terms = []
    raw_sum = 0.0
    for b in balls:
        bmask = b.mask(*mesh)
        piece = bmask & unassigned
        if not piece.any():
            continue
        unassigned &= ~bmask
        w = math.sqrt(float((vals[piece] ** 2).sum()) * cm)
        if w == 0.0:
            continue
        raw = w * math.sqrt(ball_volume(b))
        raw_sum += raw
        coeff = _pow2_at_least(raw)
        av = np.zeros(hgrid.shape)
        av[piece] = vals[piece] / coeff
        terms.append(Term(coeff, GridFunction(hgrid, av), b, AtomKind.TYPE_B))
    assert not unassigned.any()
    dec = Decomposition(terms, residual=0.0)
    dec.residual = lp_norm(half - dec.reconstruct(), 1)
    scale = lp_norm(half, 2) * math.sqrt(truncated_volume(Q))
    vol = sum(ball_volume(b) for b in balls)
    dec.ledger.update(
        {
            "case": "whitney",
            "coefficient_constant": dec.coefficient_sum / scale,
            "coefficient_constant_raw": raw_sum / scale,
            "n_balls": len(balls),
            "n_layers": len({b.radius for b in balls}),
            "overlap_max": cover_max_overlap(_cover(*balls)),
            "volume_sum": float(vol),
            "volume_ratio": float(vol / truncated_volume(Q)),
        }
    )
    return dec


def _reference_pieces(A, Q):
    """restrict_decompose's Whitney branch at the cells of Q only, for batches
    of the 2-d roundtrips balls.

    _reference_whitney masks the full grid once per ball, which is too slow
    for the 472,800 balls of the 2-d roundtrips covers at one seed.  Here each
    layer tests its rows at the times and its centres at the positions of the
    cells of Q ∩ X, with the strict tests of ParabolicBall.mask, and a cell
    goes to the (layer, row, centre) that comes first in cover order.  Each
    piece's owner is returned as the ball built from those arrays, not as a
    cover index; the overlap comes from _lattice_overlap and the layer count
    from the distinct radii.
    """
    half = restrict(A) if A.grid.t_min < 0.0 else A
    hgrid = half.grid
    floor = max(hgrid.tau / 2.0, max(Q.t0 - Q.radius**2, 0.0))
    cover = whitney_cover(Q, t_floor=floor)
    mesh = hgrid.mesh()
    qmask = Q.mask(*mesh)
    tt, *xs = (np.broadcast_to(m, hgrid.shape)[qmask] for m in mesh)
    first = np.full((len(tt), 3), -1)  # (layer, row, centre) of each cell's ball
    for k, L in enumerate(cover.layers):
        r2 = L.rho**2
        in_t = (tt > (L.rows - r2)[:, None]) & (tt < (L.rows + r2)[:, None])
        centres = _centres(L)
        in_x = sum((x - centres[:, i, None]) ** 2 for i, x in enumerate(xs)) < r2
        new = (first[:, 0] < 0) & in_t.any(0) & in_x.any(0)
        first[new] = np.stack([np.full(new.sum(), k), in_t.argmax(0)[new], in_x.argmax(0)[new]], 1)
    assert np.all(first[:, 0] >= 0)  # every cell of Q ∩ X is covered
    cells = np.flatnonzero(qmask)
    vals = half.values.ravel()
    cm = hgrid.cell_measure
    balls, pieces, raws = [], [], []
    # np.unique sorts the (layer, row, centre) triples in cover order
    owners, which = np.unique(first, axis=0, return_inverse=True)
    for i, (k, m, j) in enumerate(owners.tolist()):
        piece = cells[which.ravel() == i]
        w = math.sqrt(float((vals[piece] ** 2).sum()) * cm)
        if w != 0.0:
            L = cover.layers[k]
            balls.append(ball(L.rows[m], _centres(L)[j], L.rho))
            pieces.append(piece)
            raws.append(w * math.sqrt(ball_volume(balls[-1])))
    coefficients = [_pow2_at_least(raw) for raw in raws]
    values = [vals[piece] / coeff for piece, coeff in zip(pieces, coefficients)]
    recon = np.zeros(hgrid.shape)
    for piece, coeff, v in zip(pieces, coefficients, values):
        recon.flat[piece] = coeff * v
    raw_sum = coefficient_sum = vol = 0.0
    for raw, coeff in zip(raws, coefficients):
        raw_sum += raw
        coefficient_sum += coeff
    for L in cover.layers:
        v = ball_volume(L.ball(0)) if len(L) else 0.0
        for _ in range(len(L)):
            vol += v
    scale = lp_norm(half, 2) * math.sqrt(truncated_volume(Q))
    ref = {"half": half, "balls": balls, "cells": pieces, "values": values,
           "coefficients": coefficients, "coefficient_sum": coefficient_sum,
           "residual": lp_norm(half - GridFunction(hgrid, recon), 1)}
    ref["ledger"] = {
        "case": "whitney",
        "coefficient_constant": coefficient_sum / scale,
        "coefficient_constant_raw": raw_sum / scale,
        "n_balls": len(cover),
        "n_layers": len({L.rho for L in cover.layers if len(L)}),
        "overlap_max": _lattice_overlap(cover),
        "volume_sum": vol,
        "volume_ratio": vol / truncated_volume(Q),
    }
    return ref


def _roundtrip_2d_cases():
    # the draws of the roundtrips experiment's 2-d leg at seed 0
    grid = _roundtrip_grid(2)
    for i, Q in enumerate(_roundtrip_balls(0, 2, 5)):
        yield make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=i), Q


def _r_odd_case(monkeypatch):
    # the odd-extension atom and ball finite_norm_bound restricts for growth_T's box
    grid = SpaceTimeGrid(1, 4.0, 64, 0.0, 4.0, 32)
    tt, xx = grid.mesh()
    f = GridFunction(grid, ((tt < 1.0) & (np.abs(xx) < 1.0)).astype(float))
    seen = []

    def spy(A, Q):
        seen.append((A, Q))
        return restrict_decompose(A, Q)

    monkeypatch.setattr(decompose, "restrict_decompose", spy)
    finite_norm_bound(f)
    (case,) = seen
    return case


def _dyadic_tie_case():
    # top(Q ∩ X) = 4 makes every rho_k dyadic: row and lattice edges fall on
    # cell midpoints, so the strict tests of the ball masks decide
    grid = SpaceTimeGrid(1, 4.0, 32, -4.0, 4.0, 32)
    Q = ball(2.0, 0.125, math.sqrt(2.0))
    return make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=5), Q


def test_restrict_whitney_matches_per_ball_reference(straddle_setup, monkeypatch):
    _, Q, A = straddle_setup
    cases = [(A, Q), _dyadic_tie_case(), *_roundtrip_2d_cases(), _r_odd_case(monkeypatch)]
    for A, Q in cases:
        dec = restrict_decompose(A, Q)
        ref = _reference_whitney(A, Q)
        assert dec.ledger["case"] == "whitney"
        assert len(dec.terms) == len(ref.terms) > 0
        for got, want in zip(dec.terms, ref.terms):
            assert got.coefficient == want.coefficient
            assert got.ball == want.ball and got.kind is want.kind
            assert np.array_equal(got.atom.values, want.atom.values)
        assert dec.residual == ref.residual == 0.0
        assert dec.ledger == ref.ledger


def _assert_same_record(got, want):
    # term count, coefficient sum, residual, ledger, and each term's
    # coefficient, kind and ball, read without building any atom
    assert len(got.terms) == len(want.terms)
    assert got.coefficient_sum == want.coefficient_sum
    assert got.residual == want.residual
    assert got.ledger == want.ledger
    if isinstance(got.terms, WhitneyTerms):
        balls = [got.terms.cover.ball(o) for o in got.terms.owners]
        got_terms = zip(got.terms.coefficients, [AtomKind.TYPE_B] * len(balls), balls)
    else:
        got_terms = ((t.coefficient, t.kind, t.ball) for t in got.terms)
    want_terms = [(t.coefficient, t.kind, t.ball) for t in want.terms]
    assert list(got_terms) == want_terms


def _assert_same_terms(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.coefficient) is float and g.coefficient == w.coefficient
        assert g.ball == w.ball and g.kind is w.kind and g.atom.grid == w.atom.grid
        assert np.array_equal(g.atom.values, w.atom.values)


def test_whitney_term_sequence_matches_per_ball_reference(straddle_setup, monkeypatch):
    _, Q, A = straddle_setup
    cases = [(A, Q), _dyadic_tie_case(), *_roundtrip_2d_cases(), _r_odd_case(monkeypatch)]
    for A, Q in cases:
        dec = restrict_decompose(A, Q)
        ref = _reference_whitney(A, Q)
        _assert_same_record(dec, ref)
        _assert_same_terms([dec.terms[-1]], [ref.terms[-1]])
        _assert_same_terms([dec.terms[-len(ref.terms)]], [ref.terms[0]])
        _assert_same_terms(dec.terms[::3], ref.terms[::3])
        _assert_same_terms(list(dec.terms), ref.terms)
        assert dec.terms[len(ref.terms):] == []
        for i in (len(ref.terms), -len(ref.terms) - 1):
            with pytest.raises(IndexError):
                dec.terms[i]
        assert np.array_equal(dec.reconstruct().values, ref.reconstruct().values)


def test_r_odd_bound_matches_per_ball_reference(box_function, monkeypatch):
    got = finite_norm_bound(box_function)
    monkeypatch.setattr(decompose, "restrict_decompose", _reference_whitney)
    want = finite_norm_bound(box_function)
    assert (got.value, got.ball, got.moment) == (want.value, want.ball, want.moment)
    _assert_same_record(got.decomposition, want.decomposition)


def _roundtrip_batch(seed, n):
    # the atoms and balls of the roundtrips restriction leg and their batch
    grid = _roundtrip_grid(n)
    Qs = list(_roundtrip_balls(seed, n))
    As = [make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=i) for i, Q in enumerate(Qs)]
    decs = restrict_decompose_each(As, Qs)
    assert len(decs) == len(Qs)
    return As, Qs, decs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_restrict_each_matches_per_ball_reference_on_roundtrips(seed):
    """The batch over the 100 balls of roundtrips (n = 1) equals
    _reference_whitney per ball, bit for bit: terms, coefficients, owner
    balls, atoms, residual and ledger.

    This test and its 2-d twin are the only guard that each owner is the
    first ball containing its cells: roundtrips checks only that every cell
    lies in its owner ball, and at n = 1 the next ball holds it too.
    """
    As, Qs, decs = _roundtrip_batch(seed, 1)
    for dec, A, Q in zip(decs, As, Qs):
        ref = _reference_whitney(A, Q)
        _assert_same_record(dec, ref)
        _assert_same_terms(list(dec.terms), ref.terms)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_restrict_each_matches_per_ball_reference_on_2d_roundtrips(seed):
    """The batch over the 100 balls of roundtrips (n = 2) equals
    _reference_pieces per ball, bit for bit: terms, coefficients, owner
    balls, atoms, residual and ledger.

    With its 1-d twin, the only guard that each owner is the first
    containing ball.  The owners are compared as balls, so the owner pass
    and WhitneyTerms must agree on the ball a cover index names.
    """
    As, Qs, decs = _roundtrip_batch(seed, 2)
    for dec, A, Q in zip(decs, As, Qs):
        ref = _reference_pieces(A, Q)
        terms = dec.terms
        assert isinstance(terms, WhitneyTerms) and terms.grid == ref["half"].grid
        assert [terms.cover.ball(o) for o in terms.owners] == ref["balls"]
        assert terms.coefficients.tolist() == ref["coefficients"]
        # a term's atom is its values at its cells and zero elsewhere
        pieces = np.split(np.arange(terms.bounds[-1]), terms.bounds[1:-1])
        assert [terms.cells[p].tolist() for p in pieces] == [c.tolist() for c in ref["cells"]]
        assert [terms.values[p].tolist() for p in pieces] == [v.tolist() for v in ref["values"]]
        assert dec.residual == ref["residual"] == 0.0
        assert dec.coefficient_sum == ref["coefficient_sum"]
        assert dec.ledger == ref["ledger"]


def _mixed_cases():
    # interior, boundary_band and Whitney inputs on one grid
    grid = SpaceTimeGrid(1, 4.0, 64, -4.0, 20.0, 96)
    balls = [ball(0.5, 0.25, 1.0), ball(17.0, 0.5, 1.0), ball(0.3, -1.5, 0.8),
             ball(5.0, -0.5, 1.0), ball(16.0, 0.0, 1.0), ball(1.2, 1.0, 1.3)]
    return [(make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=i), Q) for i, Q in enumerate(balls)]


def test_restrict_each_mixed_batch_keeps_input_order():
    cases = _mixed_cases()
    decs = restrict_decompose_each(*zip(*cases))
    assert [d.ledger["case"] for d in decs] == [
        "whitney", "interior", "whitney", "boundary_band", "interior", "whitney"]
    for dec, (A, Q) in zip(decs, cases):
        alone = restrict_decompose(A, Q)
        _assert_same_record(dec, alone)
        _assert_same_terms(list(dec.terms), list(alone.terms))
        if dec.ledger["case"] == "whitney":
            _assert_same_record(dec, _reference_whitney(A, Q))
    # the same inputs in another order give the same decompositions
    back = restrict_decompose_each(*zip(*cases[::-1]))
    for got, want in zip(back, decs[::-1]):
        _assert_same_record(got, want)


def test_restrict_each_rejects_bad_batches():
    (A, Q), (B, P) = _mixed_cases()[:2]
    with pytest.raises(ValueError, match="at least one input"):
        restrict_decompose_each([], [])
    with pytest.raises(ValueError, match="one ball per input"):
        restrict_decompose_each([A, B], [Q])
    other = make_atom(SpaceTimeGrid(1, 4.0, 32, -4.0, 20.0, 96), Q, AtomKind.CLASSICAL_2, seed=1)
    with pytest.raises(ValueError, match="share one grid"):
        restrict_decompose_each([A, other], [Q, Q])
    # one bad input fails the batch, whatever its place
    with pytest.raises(DecompositionError, match="size_slack"):
        restrict_decompose_each([A, 3.0 * B], [Q, P])


def test_restrict_each_does_not_depend_on_the_chunk_size(monkeypatch):
    # chunks of a few elements split every batched pass many times over
    cases = {n: list(zip(*[(make_atom(_roundtrip_grid(n), Q, AtomKind.CLASSICAL_2, seed=i), Q)
                           for i, Q in enumerate(_roundtrip_balls(1, n, 12))])) for n in (1, 2)}
    want = {n: restrict_decompose_each(*c) for n, c in cases.items()}
    covers = {n: list(_roundtrip_covers(1, n, 12)) for n in (1, 2)}
    overlaps = {n: [cover_max_overlap(c) for c in cs] for n, cs in covers.items()}
    monkeypatch.setattr(grid_module, "CHUNK", 50)
    for n, c in cases.items():
        for got, w in zip(restrict_decompose_each(*c), want[n]):
            _assert_same_record(got, w)
            _assert_same_terms(list(got.terms), list(w.terms))
        assert _max_overlap_each(covers[n]) == overlaps[n]


def test_restrict_each_bounds_its_temporaries():
    # the 2-d leg of roundtrips: the owner pass tests three rows and nine
    # centres per cell and layer, and the passes peak at about 7.1 MB
    grid = _roundtrip_grid(2)
    Qs = list(_roundtrip_balls(0, 2))
    As = [make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=i) for i, Q in enumerate(Qs)]
    tracemalloc.start()
    try:
        restrict_decompose_each(As, Qs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_restrict_whitney_builds_terms_only_on_demand(straddle_setup, monkeypatch):
    # the Whitney leg builds no GridFunction (the residual is measured on a
    # stack of the inputs) and no ball, however many pieces Q ∩ X breaks into
    _, Q, A = straddle_setup
    cases = [(A, Q), *_roundtrip_2d_cases()]
    calls = {"GridFunction": 0, "ball": 0}

    def counting(name, make):
        def counted(*args, **kwargs):
            calls[name] += 1
            return make(*args, **kwargs)
        return counted

    monkeypatch.setattr(decompose, "GridFunction", counting("GridFunction", GridFunction))
    monkeypatch.setattr(decompose, "ball", counting("ball", ball))
    pieces = 0
    for A, Q in cases:
        before = dict(calls)
        dec = restrict_decompose(A, Q)
        assert dec.ledger["case"] == "whitney" and dec.residual == 0.0
        assert dec.coefficient_sum > 0.0
        # a per-piece build would make a GridFunction and a ball per term
        assert calls == before
        pieces += len(dec.terms)
        dec.terms[0]
        assert calls == {k: v + 1 for k, v in before.items()}
    assert pieces > 700


def test_roundtrips_fails_when_coefficients_are_not_powers_of_two(monkeypatch):
    # negative control: the zero residual comes from power-of-two rounding,
    # so a coefficient that is not one must make the experiment fail
    monkeypatch.setattr(decompose, "_pow2_at_least", lambda s: s * 1.1)
    with pytest.raises(AssertionError, match="restriction residual must be exactly zero"):
        run_experiment("roundtrips", Settings(seed=0, n_roundtrip_balls=3, n_hz_given=1))


# -- symmetrise + restrict ------------------------------------------------------


def _mirrored_given(grid, specs, seed=5):
    """Decomposition whose reconstruction is even: each atom plus its mirror."""
    rng = np.random.default_rng(seed)
    terms = []
    for t0, x0, r in specs:
        Q = ball(t0, x0, r)
        A = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=int(rng.integers(10**6)))
        lam = float(rng.uniform(0.5, 2.0))
        terms.append(Term(lam, A, Q, AtomKind.CLASSICAL_2))
        terms.append(Term(lam, time_reflect(A), ball(-t0, x0, r), AtomKind.CLASSICAL_2))
    return Decomposition(terms, residual=0.0)


@pytest.fixture(scope="module")
def hz_setup():
    grid = SpaceTimeGrid(1, 6.0, 96, -9.0, 9.0, 144)
    given = _mirrored_given(grid, [(4.0, 1.0, 1.2), (0.3, -2.0, 0.9)])
    f = restrict(given.reconstruct())
    return grid, given, f


def test_hz_cases_and_residual(hz_setup):
    _, given, f = hz_setup
    out = hz_decompose(f, given)
    assert out.ledger["cases"] == {
        "interior": 1,
        "reflected": 1,
        "straddling": 2,
        "dropped": 0,
    }
    assert out.residual <= 1e-12
    assert out.coefficient_sum <= given.coefficient_sum + 1e-12


def test_hz_output_balls(hz_setup):
    _, given, f = hz_setup
    out = hz_decompose(f, given)
    for term in out.terms:
        assert term.kind is AtomKind.CLASSICAL_2
        assert term.ball.t0 >= term.ball.radius ** 2  # closure of the ball in X
        cert = validate_atom(term.atom, term.ball, AtomKind.CLASSICAL_2)
        assert cert.passed
    # the straddling input and its mirror both recentre to ((r^2, x0), r)
    strads = [t for t in out.terms if t.ball.t0 == pytest.approx(0.81)]
    assert len(strads) == 2 and all(t.ball.radius == 0.9 for t in strads)


def test_hz_moments_cell_exact(hz_setup):
    _, given, f = hz_setup
    out = hz_decompose(f, given)
    for term in out.terms:
        scale = math.sqrt(ball_volume(term.ball)) * lp_norm(term.atom, 2)
        assert abs(integrate(term.atom)) <= 1e-12 * scale


def test_hz_drops_cancelling_odd_pair():
    grid = SpaceTimeGrid(1, 6.0, 96, -9.0, 9.0, 144)
    given = _mirrored_given(grid, [(4.0, 1.0, 1.2)], seed=9)
    Q = ball(0.2, 2.0, 0.8)
    A = make_atom(grid, Q, AtomKind.CLASSICAL_2, seed=13)
    odd = GridFunction(grid, A.values - time_reflect(A).values)
    w = lp_norm(odd, 2) * math.sqrt(ball_volume(Q))
    given.terms.append(Term(w, GridFunction(grid, odd.values / w), Q, AtomKind.CLASSICAL_2))
    given.terms.append(Term(w, GridFunction(grid, -odd.values / w), Q, AtomKind.CLASSICAL_2))
    f = restrict(given.reconstruct())
    out = hz_decompose(f, given)
    assert out.ledger["cases"]["dropped"] == 2
    assert out.residual <= 1e-12


def test_hz_rejects_bad_given(hz_setup):
    grid, given, f = hz_setup
    broken = Decomposition(
        [Term(t.coefficient * 1.01, t.atom, t.ball, t.kind) for t in given.terms],
        residual=0.0,
    )
    with pytest.raises(DecompositionError):
        hz_decompose(f, broken)
    other = SpaceTimeGrid(1, 6.0, 96, 0.0, 4.0, 32)
    with pytest.raises(DecompositionError):
        hz_decompose(GridFunction(other, np.zeros(other.shape)), given)


# -- recentring -----------------------------------------------------------------


def test_recentre_volume_ratio_at_most_two():
    # nu(Q~)/nu(Q ∩ X) = 2r^2/(s + r^2) <= 2, worst as s -> 0
    for s in (0.01, 0.3, 0.8):
        Q = ball(s, 0.0, 1.0)
        assert ball_volume(ball(1.0, 0.0, 1.0)) / truncated_volume(Q) <= 2.0 / (s + 1.0) * (1 + 1e-12)


# -- molecules ------------------------------------------------------------------

MOL_GRID = SpaceTimeGrid(1, 1.8, 72, 0.0, 2.6, 104)
MOL_BALL = ball(0.02, 0.0, 0.05)


def test_molecule_type_a_atom_reduces_to_one_term():
    grid = SpaceTimeGrid(1, 2.2, 88, 0.0, 5.8, 116)
    Q = ball(1.7, 0.0, 0.25)
    a = make_atom(grid, Q, AtomKind.TYPE_A, seed=1)
    dec = molecule_decompose(a, Q, alpha=0.5, J=2)
    assert len(dec.terms) == 1
    assert dec.residual == 0.0


@pytest.mark.parametrize("J", [2, 3, 4])
def test_molecule_residual_tracks_tail(J):
    # worst-case moment profile: running integral c 2^(-J), residual exactly that
    m = make_molecule(MOL_GRID, MOL_BALL, alpha=1.0, J=J, seed=7, moment_profile="geometric")
    dec = molecule_decompose(m, MOL_BALL, alpha=1.0, J=J)
    assert dec.residual == pytest.approx(0.3 * 2.0**-J, rel=1e-10)
    assert dec.ledger["tail_mu"] == pytest.approx(0.3 * 2.0**-J, rel=1e-10)


def test_molecule_zero_profile_reconstructs():
    m = make_molecule(MOL_GRID, MOL_BALL, alpha=0.5, J=4, seed=3, moment_profile="zero")
    dec = molecule_decompose(m, MOL_BALL, alpha=0.5, J=4)
    assert dec.residual <= 1e-13 * lp_norm(m, 1)
    assert len(dec.terms) == 4  # a_j only; every mu_j vanishes


def test_molecule_terms_validate_and_mu_decays():
    m = make_molecule(MOL_GRID, MOL_BALL, alpha=0.5, J=4, seed=2, moment_profile="geometric")
    dec = molecule_decompose(m, MOL_BALL, alpha=0.5, J=4)
    assert len(dec.terms) == 4 + 3  # a_1..a_4 plus b_2..b_4
    for term in dec.terms:
        assert validate_atom(term.atom, term.ball, term.kind).passed
    assert dec.ledger["mu_decay_constant"] <= 0.75
    assert dec.ledger["lambda"] == [2.0 ** (-0.5 * j) for j in range(1, 5)]


def test_molecule_coefficient_sum_stable():
    sums = []
    for s in range(20):
        prof = "geometric" if s % 2 else "zero"
        m = make_molecule(MOL_GRID, MOL_BALL, alpha=0.5, J=4, seed=s, moment_profile=prof)
        sums.append(molecule_decompose(m, MOL_BALL, alpha=0.5, J=4).coefficient_sum)
    assert max(sums) / min(sums) <= 2.0
    assert max(sums) <= 8.0


def test_molecule_rejects_uncertified():
    m = make_molecule(MOL_GRID, MOL_BALL, alpha=0.25, J=4, seed=0)
    with pytest.raises(DecompositionError):
        molecule_decompose(m, MOL_BALL, alpha=0.5, J=4)


def test_molecule_rejects_uncovered_grid():
    m = make_molecule(MOL_GRID, MOL_BALL, alpha=0.5, J=4, seed=0)
    with pytest.raises(ValueError):
        molecule_decompose(m, MOL_BALL, alpha=0.5, J=7)


# -- finite norm bounds ----------------------------------------------------------


@pytest.fixture(scope="module")
def deep_atom():
    grid = SpaceTimeGrid(1, 2.2, 88, 0.0, 5.8, 116)
    return make_atom(grid, ball(1.7, 0.0, 0.25), AtomKind.TYPE_A, seed=1)


def test_bound_homogeneity(deep_atom):
    nb = finite_norm_bound(deep_atom)
    nb2 = finite_norm_bound(2.0 * deep_atom)
    assert nb2.value == pytest.approx(2.0 * nb.value, rel=1e-12)


@pytest.fixture(scope="module")
def box_function():
    grid = SpaceTimeGrid(1, 4.0, 64, 0.0, 4.0, 32)
    tt, xx = grid.mesh()
    return GridFunction(grid, ((tt < 1.0) & (np.abs(xx) < 1.0)).astype(float))


def test_bound_box_finite_via_odd_route(box_function):
    nb = finite_norm_bound(box_function)
    assert math.isfinite(nb.value) and 0.0 < nb.value < 10.0
    assert nb.decomposition.residual == 0.0


def test_bound_rejects():
    grid = SpaceTimeGrid(1, 1.0, 8, 0.0, 1.0, 8)
    with pytest.raises(DecompositionError):
        finite_norm_bound(GridFunction(grid, np.zeros(grid.shape)))


# -- container mechanics ---------------------------------------------------------


def test_reconstruct_guards():
    with pytest.raises(DecompositionError):
        Decomposition([], residual=0.0).reconstruct()
    g1 = SpaceTimeGrid(1, 1.0, 4, 0.0, 1.0, 4)
    g2 = SpaceTimeGrid(1, 1.0, 8, 0.0, 1.0, 8)
    terms = [
        Term(1.0, GridFunction(g1, np.zeros(g1.shape)), STRADDLE, AtomKind.CLASSICAL_2),
        Term(1.0, GridFunction(g2, np.zeros(g2.shape)), STRADDLE, AtomKind.CLASSICAL_2),
    ]
    with pytest.raises(DecompositionError):
        Decomposition(terms, residual=0.0).reconstruct()

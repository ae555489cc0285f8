"""Constructive atomic decompositions on the parabolic half-space.

Three routes from a function (or an atom in the wrong position) to a sum of
certified atoms on X:

* ``restrict_decompose`` — restrict a classical atom to X; depending on how
  far its ball sits from the t = 0 wall this is a single type (a) or type (b)
  atom, or a Whitney-type boundary cover with one type (b) atom per cover ball.
  The Whitney terms are kept as arrays (``WhitneyTerms``): a term's atom and
  ball are built only when it is indexed, and the reconstruction is one
  scatter of coefficient times atom value into a zero grid.
* ``hz_decompose`` — push a decomposition of the even extension back down to X
  by symmetrising and restricting each term, recentring straddling balls.
* ``molecule_decompose`` — split a certified molecule into dyadic-annulus
  atoms plus telescoping correction atoms via a finite Abel summation.

All coefficients are rounded up to the nearest power of two before the term
atom is normalised.  Division and multiplication by a power of two are exact
in binary floating point, so ``coefficient * atom`` reproduces the sliced
input values bit for bit and restriction residuals are exactly zero.  The
rounding costs at most a factor 2 in each coefficient; measured constants are
recorded in the decomposition ledger.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .atoms import AtomKind, _ball_dict, molecule_report, validate_atom
from .grid import (
    GridFunction,
    SpaceTimeGrid,
    even_extend,
    integrate,
    lp_norm,
    odd_extend,
    restrict,
    time_reflect,
)
from .space import (
    Annulus,
    ParabolicBall,
    ball,
    ball_volume,
    dilate,
    halfspace_flags,
    truncated_volume,
)

#: Maximum number of cover balls sharing a point, by dimension.  The cover
#: construction yields at most 2 active layers x 2 time rows x 2^n lattice
#: cells; the bounds below leave slack for boundary effects.
WHITNEY_OVERLAP_BOUND = {1: 16, 2: 64}

_MAX_COVER_BALLS = 200_000


class DecompositionError(RuntimeError):
    """A decomposition routine could not produce certified output."""


def _pow2_at_least(s: float | np.ndarray) -> float | np.ndarray:
    """Smallest power of two >= s (s itself when s is one), elementwise.

    A float gives a float, an array an array of the same shape.
    """
    if not (np.all(s > 0.0) and np.all(np.isfinite(s))):
        raise ValueError(f"need positive finite scales, got {s}")
    m, e = np.frexp(s)  # s = m * 2**e with m in [0.5, 1)
    p = np.where(m == 0.5, s, np.ldexp(1.0, e))
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class Term:
    coefficient: float
    atom: GridFunction
    ball: ParabolicBall
    kind: AtomKind

    def to_json_dict(self) -> dict:
        return _term_dict(self.coefficient, self.kind, self.ball)


def _term_dict(coefficient: float, kind: AtomKind, b: ParabolicBall) -> dict:
    return {"coefficient": float(coefficient), "kind": kind.value, "ball": _ball_dict(b)}


@dataclass
class Decomposition:
    """A finite atomic sum approximating some input on a fixed grid.

    residual is the L1 norm of (input - sum of coefficient * atom), measured
    on the grid the routine worked on.  ledger carries measured constants the
    producing routine wants on the record; treat it as append-only.
    """

    terms: Sequence[Term]
    residual: float
    ledger: dict = field(default_factory=dict)

    @property
    def coefficient_sum(self) -> float:
        if isinstance(self.terms, WhitneyTerms):
            coefficients = self.terms.coefficients.tolist()
        else:
            coefficients = [t.coefficient for t in self.terms]
        return float(sum(abs(c) for c in coefficients))

    def reconstruct(self) -> GridFunction:
        if not self.terms:
            raise DecompositionError("cannot reconstruct from an empty decomposition")
        if isinstance(self.terms, WhitneyTerms):
            return self.terms.reconstruct()
        grid = self.terms[0].atom.grid
        acc = np.zeros(grid.shape)
        for t in self.terms:
            if t.atom.grid != grid:
                raise DecompositionError("terms live on different grids")
            acc += t.coefficient * t.atom.values
        return GridFunction(grid, acc)

    def to_json_dict(self) -> dict:
        if isinstance(self.terms, WhitneyTerms):
            terms = self.terms.to_json_dicts()
        else:
            terms = [t.to_json_dict() for t in self.terms]
        return {
            "n_terms": len(self.terms),
            "coefficient_sum": self.coefficient_sum,
            "residual": float(self.residual),
            "ledger": self.ledger,
            "terms": terms,
        }


@dataclass(frozen=True, eq=False)
class WhitneyTerms(Sequence):
    """The type (b) terms of a Whitney restriction, kept as arrays.

    Term i has coefficient coefficients[i], ball cover.ball(owners[i]) and an
    atom that is values[bounds[i]:bounds[i + 1]] at the flat cell indices
    cells[bounds[i]:bounds[i + 1]] of grid and zero elsewhere.  Indexing or
    iterating builds the Terms; len, coefficients, to_json_dicts and
    reconstruct build none.
    """

    grid: SpaceTimeGrid
    cover: WhitneyCover
    cells: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    owners: np.ndarray
    coefficients: np.ndarray

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError("term index out of range")
        i %= len(self)
        a, b = self.bounds[i], self.bounds[i + 1]
        av = np.zeros(self.grid.shape)
        av.flat[self.cells[a:b]] = self.values[a:b]
        return Term(
            float(self.coefficients[i]),
            GridFunction(self.grid, av),
            self.cover.ball(self.owners[i]),
            AtomKind.TYPE_B,
        )

    def to_json_dicts(self) -> list[dict]:
        """Term.to_json_dict of every term, without building the atoms."""
        return [_term_dict(c, AtomKind.TYPE_B, self.cover.ball(o))
                for c, o in zip(self.coefficients, self.owners)]

    def reconstruct(self) -> GridFunction:
        """Sum of coefficient * atom: one scatter into a zero grid.

        The pieces are disjoint, so each cell receives 0.0 + c * (v / c), the
        same sum the term-by-term loop of Decomposition.reconstruct forms.
        """
        acc = np.zeros(self.grid.shape)
        per_cell = np.repeat(self.coefficients, np.diff(self.bounds))
        acc.flat[self.cells] += per_cell * self.values
        return GridFunction(self.grid, acc)


# -- Whitney boundary cover ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverLayer:
    """One layer of a Whitney cover: a ball of radius rho at every (row, centre) pair.

    rows holds the ball times in ascending order and centres the spatial
    centres (n_centres x n) in lexicographic order of their lattice offsets;
    the layer's balls run row-major over (row, centre).
    """

    rho: float
    rows: np.ndarray
    centres: np.ndarray

    def __len__(self) -> int:
        return len(self.rows) * len(self.centres)

    def ball(self, i: int) -> ParabolicBall:
        m, c = divmod(int(i), len(self.centres))
        return ball(self.rows[m], self.centres[c], self.rho)


@dataclass(frozen=True, eq=False)
class WhitneyCover:
    """A Whitney cover as per-layer arrays; iterating yields its balls in order."""

    layers: tuple[CoverLayer, ...]

    def __len__(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def __iter__(self):
        for layer in self.layers:
            for i in range(len(layer)):
                yield layer.ball(i)

    def ball(self, i: int) -> ParabolicBall:
        """The i-th ball in cover order (layer, row, centre)."""
        for layer in self.layers:
            if i < len(layer):
                return layer.ball(i)
            i -= len(layer)
        raise IndexError("cover ball index out of range")


def whitney_cover(Q: ParabolicBall, t_floor: float | None = None) -> WhitneyCover:
    """Cover Q ∩ X down to t_floor by balls with type (b) geometry.

    Layer k occupies times [A_k, B_k) with B_k = 4^(-k) * top(Q ∩ X) and
    A_k = B_k / 4.  Each layer uses balls of radius rho_k = sqrt(A_k) / 2:
    centres at time t_c in the layer then satisfy 4 rho_k^2 <= t_c < 16 rho_k^2,
    i.e. the doubled ball sits in X while the quadrupled ball pokes out —
    exactly the type (b) position, for every ball, by construction.  Time
    rows are spaced rho_k^2 apart (intervals of length 2 rho_k^2, so adjacent
    rows overlap by half) and the spatial lattice has spacing rho_k.

    The type (b) geometry is checked here; the overlap bound
    WHITNEY_OVERLAP_BOUND is enforced by restrict_decompose, which sweeps the
    cover once for both the check and its ledger.  Balls are ordered by layer
    (largest first), then by row time (ascending: row t_c = A_k + (m + 1/2)
    rho_k^2), then by centre (lattice offsets in lexicographic order);
    restrict_decompose's first-ball partition depends on this order.
    """
    if truncated_volume(Q) <= 0.0:
        raise ValueError("Q does not meet the half-space")
    two_in, _ = halfspace_flags(Q)
    if two_in:
        raise ValueError("2Q lies inside X; no boundary cover is needed")
    r = Q.radius
    top = Q.t0 + r * r
    bottom = max(Q.t0 - r * r, 0.0)
    if t_floor is None:
        t_floor = top / 4.0**4
    if not (0.0 < t_floor < top):
        raise ValueError(f"t_floor must lie in (0, {top}), got {t_floor}")

    x0 = Q.center.x
    n = Q.n
    layers: list[CoverLayer] = []
    n_balls = 0
    k = 0
    while True:
        B_k = top * 4.0 ** (-k)
        A_k = B_k / 4.0
        rho = 0.5 * math.sqrt(A_k)
        rho2 = rho * rho  # = A_k / 4
        n_rows = math.ceil((B_k - A_k) / rho2 - 0.5)
        rows = A_k + (np.arange(n_rows) + 0.5) * rho2
        rows = rows[rows + rho2 > bottom]
        reach = r + rho
        n_off = math.ceil(reach / rho)
        idx = np.arange(-n_off, n_off + 1)
        offs = idx[np.abs(idx) * rho < reach] * rho
        n_balls += len(rows) * len(offs) ** n
        if n_balls > _MAX_COVER_BALLS:
            raise DecompositionError(f"cover exceeds {_MAX_COVER_BALLS} balls; raise t_floor")
        if len(rows):
            lattice = np.meshgrid(*[offs] * n, indexing="ij")
            centres = np.stack([x0[i] + g.ravel() for i, g in enumerate(lattice)], axis=1)
            layers.append(CoverLayer(rho, rows, centres))
        if A_k <= t_floor:
            break
        k += 1

    for layer in layers:
        # 2Q_j in X but 4Q_j not (the float tests of scaled_in_halfspace):
        # guaranteed by the radius choice above
        lost = ~(layer.rows - (2.0 * layer.rho) ** 2 >= 0.0) | (
            layer.rows - (4.0 * layer.rho) ** 2 >= 0.0
        )
        if lost.any():
            b = layer.ball(int(np.argmax(lost)) * len(layer.centres))
            raise DecompositionError(f"cover ball {b} lost type (b) geometry")
    return WhitneyCover(tuple(layers))


def cover_max_overlap(cover: WhitneyCover) -> int:
    """Maximum number of cover balls sharing a point: exact for n = 1, upper bound for n = 2.

    Each ball counts as the box |t - t0| < r^2, |x_i - c_i| < r.  For n = 1
    that is the ball itself and the count is exact; for n = 2 the box is the
    bounding square of the spatial disk, so the count can exceed the true
    overlap and a gate on it is conservative.  The box count is constant on
    the cells of the arrangement of box faces.  Within a layer every ball is a
    (row, centre) pair, so at a cell the count is sum_k a_k(t) b_k(x): the rows
    of layer k whose interval holds t times the centres of layer k whose box
    holds x.  a comes from a difference array over the time cells; for each
    distinct row of a, the boxes of all centres, weighted by a_k, go into one
    difference array over the spatial cells, and the maximum of its sums is
    the result.

    Faces that coincide in exact arithmetic, such as c_j + rho and
    c_{j+2} - rho, can differ by an ulp in floating point.  Counted apart, the
    sliver between them would be a cell where open balls that only touch
    appear to meet, so faces closer than 32 ulps of the axis' largest face
    magnitude are merged.  Distinct faces of a Whitney cover are much farther
    apart.  Time faces lie on (rho_K^2 / 2)Z and the faces of each spatial
    axis on a shift of rho_K Z, with rho_K the last layer's radius.  Below
    _MAX_COVER_BALLS the last layer has at least one row of 2 r / rho_K
    centres per axis, so rho_K > 1e-5 r and rho_K^2 > 2e-11 times the cover's
    top time.  That is far above the merge tolerance in time, and in space
    unless Q's centre lies about 1e9 radii from the origin.
    """
    if not len(cover):
        return 0
    layers = cover.layers
    rho = np.array([L.rho for L in layers])
    row_layer = np.repeat(np.arange(len(layers)), [len(L.rows) for L in layers])
    centre_layer = np.repeat(np.arange(len(layers)), [len(L.centres) for L in layers])
    # a[c, k]: rows of layer k whose interval holds time cell c
    rows = np.concatenate([L.rows for L in layers])[:, None]
    (lo,), (hi,), (n_t,) = _box_cells(rows, rho[row_layer] ** 2)
    a = np.zeros((n_t, len(layers)), dtype=np.int64)
    np.add.at(a, (lo, row_layer), 1)
    np.add.at(a, (hi, row_layer), -1)
    a = np.unique(np.cumsum(a, axis=0), axis=0)
    # per distinct a row, the spatial difference array of every centre's box
    # weighted by its layer's row count, summed up along each axis
    centres = np.concatenate([L.centres for L in layers])
    lo, hi, shape = _box_cells(centres, rho[centre_layer])
    weight = a.T[centre_layer]
    counts = np.zeros((math.prod(shape), len(a)), dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=len(shape)):
        at = np.ravel_multi_index([h if c else l for c, l, h in zip(corner, lo, hi)], shape)
        np.add.at(counts, at, (-1) ** sum(corner) * weight)
    counts = counts.reshape(shape + (len(a),))
    for axis in range(len(shape)):
        counts = np.cumsum(counts, axis=axis)
    return int(counts.max())


def _box_cells(points: np.ndarray, half: np.ndarray):
    """Per axis, the cells [lo, hi) that each box |x - p| < half covers.

    The cells are the elementary intervals between the merged faces of all
    boxes on that axis, indexed from 0; returns (lo, hi, cells + 1) with one
    entry per axis.  A cell is covered when its midpoint lies strictly inside.
    """
    lo, hi, shape = [], [], []
    for p in points.T:
        faces = np.sort(np.concatenate([p - half, p + half]))
        faces = faces[np.r_[True, np.diff(faces) > 32.0 * np.spacing(np.abs(faces).max())]]
        mids = 0.5 * (faces[:-1] + faces[1:])
        lo.append(np.searchsorted(mids, p - half))
        hi.append(np.searchsorted(mids, p + half))
        shape.append(len(faces))
    return lo, hi, tuple(shape)


def _layer_volumes(cover: WhitneyCover) -> list[float]:
    """nu of one ball per layer; every ball of a layer has the same radius."""
    return [ball_volume(L.ball(0)) for L in cover.layers]


def cover_stats(cover: WhitneyCover, Q: ParabolicBall) -> dict:
    """Measured cover quality: ball count, layers, overlap, volume ratio."""
    per_ball = np.repeat(_layer_volumes(cover), [len(L) for L in cover.layers])
    # cumsum adds one ball at a time in cover order (np.sum would pair terms)
    vol = float(np.cumsum(per_ball)[-1]) if per_ball.size else 0.0
    tv = truncated_volume(Q)
    return {
        "n_balls": len(cover),
        "n_layers": len(cover.layers),
        "overlap_max": cover_max_overlap(cover),
        "volume_sum": vol,
        "volume_ratio": float(vol / tv) if tv > 0 else math.inf,
    }


def _first_ball_owner(
    cover: WhitneyCover, grid: SpaceTimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Cover index of the first ball containing each cell midpoint, and the cover count.

    Both are (nt, cells per time slab) arrays, with owner -1 where no ball
    contains the cell.  Within a layer a ball contains a cell iff its row
    contains the cell's time and its centre the cell's position, with the
    strict tests of ParabolicBall.mask.  Balls run (layer, row, centre), so
    the first containing ball pairs the first such row with the first such
    centre, in the first layer that has both.
    """
    mesh = grid.mesh()
    ts = mesh[0].ravel()
    space = [m[0] for m in mesh[1:]]  # per-axis midpoints, broadcastable
    shape = (grid.nt, grid.nx**grid.n)
    owner = np.full(shape, -1, dtype=np.int64)
    counts = np.zeros(shape, dtype=np.int64)
    start = 0
    for layer in cover.layers:
        r2 = layer.rho**2
        lo, hi = (layer.rows - r2)[:, None], (layer.rows + r2)[:, None]
        in_t = (ts > lo) & (ts < hi)
        d2 = sum(
            (x[None] - layer.centres[:, i].reshape((-1,) + (1,) * x.ndim)) ** 2
            for i, x in enumerate(space)
        )
        in_x = d2.reshape(len(layer.centres), -1) < r2
        first = start + in_t.argmax(0)[:, None] * len(layer.centres) + in_x.argmax(0)
        new = in_t.any(0)[:, None] & in_x.any(0) & (owner < 0)
        owner[new] = first[new]
        counts += in_t.sum(0)[:, None] * in_x.sum(0)
        start += len(layer)
    return owner, counts


# -- restriction of classical atoms --------------------------------------------


def restrict_decompose(
    A: GridFunction, Q: ParabolicBall, tol: float = 1e-8
) -> Decomposition:
    """Decompose the restriction to X of a classical L2 atom.

    Three positions of Q relative to the t = 0 wall:

    * 4Q in X: the restriction is already a type (a) atom — one term.
    * 2Q in X, 4Q not: a type (b) atom — one term.
    * 2Q pokes out: Whitney cover of Q ∩ X; the cells of Q ∩ X are assigned
      to the first cover ball containing their midpoint (a disjoint partition
      refining the cover), and each slice becomes one type (b) term.  The
      cover's overlap is checked against WHITNEY_OVERLAP_BOUND first.  The
      terms come back as a WhitneyTerms sequence: per-piece coefficients,
      owner balls and cell values as arrays, with a term's atom and ball
      built only when the term is indexed.  The residual is measured on the
      reconstruction, one scatter of coefficient * atom value into a zero
      grid; it is exactly zero because the pieces are disjoint and the
      coefficients powers of two.

    The coefficient bound Cauchy–Schwarz gives — sum of coefficients over
    ||A|_X||_2 nu(Q ∩ X)^(1/2) — is measured and recorded in the ledger.
    """
    grid = A.grid
    if not grid.covers_ball(Q, clip_time=grid.over_halfspace()):
        raise DecompositionError("grid does not cover Q (clipped to X)")
    cert = validate_atom(A, Q, AtomKind.CLASSICAL_2, tol)
    if not cert.passed:
        raise DecompositionError(f"input is not a classical L2 atom: {cert.to_json_dict()}")
    if truncated_volume(Q) <= 0.0:
        raise DecompositionError("Q does not meet the half-space")

    if grid.t_min < 0.0:
        half = restrict(A)
    elif grid.over_halfspace():
        half = A
    else:
        raise DecompositionError("grid must reach t = 0 or straddle it")

    two_in, four_in = halfspace_flags(Q)
    if four_in:
        term = Term(1.0, half, Q, AtomKind.TYPE_A)
        return Decomposition([term], residual=0.0, ledger={"case": "interior"})
    if two_in:
        term = Term(1.0, half, Q, AtomKind.TYPE_B)
        return Decomposition([term], residual=0.0, ledger={"case": "boundary_band"})

    # boundary case: Whitney cover, one type (b) slice per ball
    hgrid = half.grid
    bottom = max(Q.t0 - Q.radius**2, 0.0)
    floor = max(hgrid.tau / 2.0, bottom)
    cover = whitney_cover(Q, t_floor=floor)
    stats = cover_stats(cover, Q)
    bound = WHITNEY_OVERLAP_BOUND[Q.n]
    if stats["overlap_max"] > bound:
        raise DecompositionError(
            f"cover overlap {stats['overlap_max']} exceeds the bound {bound}"
        )
    inq = Q.mask(*hgrid.mesh()).reshape(hgrid.nt, -1)
    owner, counts = _first_ball_owner(cover, hgrid)
    escaped = int((inq & (owner < 0)).sum())
    if escaped:
        raise DecompositionError(f"{escaped} cells of Q ∩ X escaped the cover")
    # group the cells of Q by owner; the stable sort keeps each piece in C
    # order, the order in which a boolean mask reads vals[piece]
    cells = np.flatnonzero(inq)
    own = owner.ravel()[cells]
    order = np.argsort(own, kind="stable")
    cells, own = cells[order], own[order]
    pv = half.values.ravel()[cells]
    sq = pv**2
    starts = np.r_[0, np.flatnonzero(np.diff(own)) + 1]
    lengths = np.diff(np.r_[starts, len(cells)])
    # per-piece sums of squares, each bit-identical to sq[a:b].sum(): numpy
    # adds fewer than 8 terms left to right, as bincount does, and unrolls
    # longer sums 8 ways, so the few long pieces are summed one by one
    seg = np.repeat(np.arange(len(starts)), lengths)
    ss = np.bincount(seg, weights=sq, minlength=len(starts))
    for k in np.flatnonzero(lengths >= 8):
        ss[k] = sq[starts[k]:starts[k] + lengths[k]].sum()
    w = np.sqrt(ss * hgrid.cell_measure)
    keep = w != 0.0
    owners = own[starts[keep]]
    layer_starts = np.cumsum([0] + [len(L) for L in cover.layers])
    layer = np.searchsorted(layer_starts, owners, side="right") - 1
    raw = w[keep] * np.sqrt(_layer_volumes(cover))[layer]
    coeffs = _pow2_at_least(raw)
    in_kept = np.repeat(keep, lengths)
    terms = WhitneyTerms(
        hgrid,
        cover,
        cells[in_kept],
        pv[in_kept] / np.repeat(coeffs, lengths[keep]),  # exact: powers of two
        np.r_[0, np.cumsum(lengths[keep])],
        owners,
        coeffs,
    )

    dec = Decomposition(terms, residual=lp_norm(half - terms.reconstruct(), 1))
    # cumsum adds the raw constants one at a time, in term order
    raw_sum = float(np.cumsum(raw)[-1]) if raw.size else 0.0
    half_l2 = lp_norm(half, 2)
    scale = half_l2 * math.sqrt(truncated_volume(Q))
    dec.ledger.update(
        {
            "case": "whitney",
            # realized bound includes the power-of-two rounding; the raw
            # Cauchy-Schwarz constant is the one stable across inputs
            "coefficient_constant": dec.coefficient_sum / scale if scale > 0 else 0.0,
            "coefficient_constant_raw": raw_sum / scale if scale > 0 else 0.0,
            "grid_overlap_max": int(np.where(inq, counts, 0).max()),
            **stats,
        }
    )
    return dec


# -- halving/symmetrisation of even-extension decompositions --------------------


def hz_decompose(f: GridFunction, given: Decomposition) -> Decomposition:
    """Turn a decomposition of the even extension of f into one of f on X.

    Each given term atom A is symmetrised to (A + A(-., .)) / 2 — which
    leaves the reconstruction unchanged because the target is even — and
    restricted to X.  The output ball is the input ball when it lies in
    t >= 0, its mirror image when it lies in t <= 0, and the recentred ball
    ((r^2, x_0), r) of equal volume when it straddles.  Coefficients are kept;
    terms whose symmetrisation vanishes (odd atoms) are dropped.
    """
    if not f.grid.over_halfspace():
        raise DecompositionError("f must live on a grid over X")
    fe = even_extend(f)
    if not given.terms:
        raise DecompositionError("given decomposition has no terms")
    if given.terms[0].atom.grid != fe.grid:
        raise DecompositionError("given decomposition lives on the wrong grid")
    recon = given.reconstruct()
    scale = max(lp_norm(fe, 2), 1e-300)
    err = lp_norm(recon - fe, 2) / scale
    if err > 1e-9:
        raise DecompositionError(
            f"given decomposition does not reconstruct the even extension "
            f"(relative L2 error {err:.3e})"
        )

    cases = {"interior": 0, "reflected": 0, "straddling": 0, "dropped": 0}
    terms: list[Term] = []
    for t in given.terms:
        if t.kind not in (AtomKind.CLASSICAL_2, AtomKind.CLASSICAL_INF):
            raise DecompositionError(f"given term of kind {t.kind} is not classical")
        sym = (t.atom + time_reflect(t.atom)) * 0.5
        a = restrict(sym)
        w = lp_norm(a, 2)
        if w <= 1e-12 * lp_norm(t.atom, 2):
            cases["dropped"] += 1
            continue
        s, r = t.ball.t0, t.ball.radius
        x0 = t.ball.center.x
        if s >= r * r:
            out_ball = t.ball
            cases["interior"] += 1
        elif s <= -r * r:
            out_ball = ball(-s, x0, r)
            cases["reflected"] += 1
        else:
            out_ball = ball(r * r, x0, r)
            cases["straddling"] += 1
        cert = validate_atom(a, out_ball, AtomKind.CLASSICAL_2)
        if not cert.passed:
            raise DecompositionError(
                f"symmetrised term failed validation: {cert.to_json_dict()}"
            )
        terms.append(Term(t.coefficient, a, out_ball, AtomKind.CLASSICAL_2))

    dec = Decomposition(terms, residual=0.0, ledger={"cases": cases})
    out = dec.reconstruct() if terms else GridFunction(f.grid, np.zeros(f.grid.shape))
    dec.residual = lp_norm(f - out, 1)
    return dec


# -- molecules -> atoms ---------------------------------------------------------


def _annulus_ball(Q: ParabolicBall, j: int) -> ParabolicBall:
    """Ball in the closure of X containing 2^(j+1) Q ∩ X (recentred if needed)."""
    R = 2.0 ** (j + 1) * Q.radius
    if Q.t0 >= R * R:
        return dilate(Q, 2.0 ** (j + 1))
    return ball(R * R, Q.center.x, R)


def molecule_decompose(
    m: GridFunction,
    Q: ParabolicBall,
    alpha: float = 0.5,
    J: int = 8,
) -> Decomposition:
    """Split a certified molecule into annulus atoms plus correction atoms.

    With B_j the j-th dyadic annulus of Q (B_1 = 4Q ∩ X), nu_j its *grid*
    measure and mu_j the integral of m over 2^j Q ∩ X, the finite Abel
    identity

        m 1_{2^(J+1)Q ∩ X} = sum_j lambda_j a_j + sum_{j>=2} mu_j b_j
                             + mu_{J+1} 1_{B_J} / nu_J

    holds cell-exactly, where lambda_j = 2^(-j alpha), a_j is the demeaned
    slice (m - mean_{B_j} m) 1_{B_j} / lambda_j and b_j = 1_{B_{j-1}}/nu_{j-1}
    - 1_{B_j}/nu_j.  Only the a_j and b_j become terms; the tail lands in the
    residual, which decays like 2^(-J alpha) for a certified molecule.  Each
    term atom is renormalised by a recorded power-of-two slack so it validates
    as a mean-zero L2 atom on the (recentred) ball around 2^(j+1) Q.
    """
    report = molecule_report(m, Q, alpha=alpha, J=J)
    if not report.certifies(alpha):
        raise DecompositionError(
            f"molecule report does not certify decay alpha={alpha}: "
            f"{report.to_json_dict()}"
        )
    grid = m.grid
    mesh = grid.mesh()
    cm = grid.cell_measure
    vals = m.values
    l1 = lp_norm(m, 1)
    drop = 1e-13 * max(l1, 1.0)

    masks = []
    nus = []
    for j in range(1, J + 1):
        msk = Annulus(Q, j).mask(*mesh)
        cnt = int(msk.sum())
        if cnt == 0:
            raise DecompositionError(f"annulus j={j} contains no grid cells")
        masks.append(msk)
        nus.append(cnt * cm)
    mu = {}
    for j in range(2, J + 2):
        mu[j] = float(vals[dilate(Q, 2.0**j).mask(*mesh)].sum() * cm)

    terms: list[Term] = []
    lambdas, a_slack, b_slack = [], [], []
    for j in range(1, J + 1):
        msk = masks[j - 1]
        lam = 2.0 ** (-j * alpha)
        bll = _annulus_ball(Q, j)
        raw = np.zeros(grid.shape)
        raw[msk] = vals[msk] - vals[msk].mean()
        w = math.sqrt(float((raw**2).sum()) * cm)
        if w * math.sqrt(ball_volume(bll)) <= drop:
            continue
        slack = max(w * math.sqrt(ball_volume(bll)) / lam, 1.0)
        coeff = _pow2_at_least(lam * slack)
        terms.append(
            Term(coeff, GridFunction(grid, raw / coeff), bll, AtomKind.CLASSICAL_2)
        )
        lambdas.append(lam)
        a_slack.append(float(coeff / lam))
        if j == 1:
            continue
        if abs(mu[j]) <= drop:
            continue
        bv = np.zeros(grid.shape)
        bv[masks[j - 2]] = 1.0 / nus[j - 2]
        bv[msk] -= 1.0 / nus[j - 1]
        wb = math.sqrt(float((bv**2).sum()) * cm)
        slack_b = max(wb * math.sqrt(ball_volume(bll)), 1.0)
        coeff_b = math.copysign(_pow2_at_least(abs(mu[j]) * slack_b), mu[j])
        terms.append(
            Term(coeff_b, GridFunction(grid, bv * (mu[j] / coeff_b)), bll, AtomKind.CLASSICAL_2)
        )
        b_slack.append(float(abs(coeff_b) / abs(mu[j])))

    dec = Decomposition(terms, residual=0.0)
    recon = dec.reconstruct() if terms else GridFunction(grid, np.zeros(grid.shape))
    dec.residual = lp_norm(m - recon, 1)
    tail = mu[J + 1]
    mu_const = max(
        (abs(mu[j]) * 2.0 ** (j * alpha) for j in range(2, J + 2)), default=0.0
    )
    dec.ledger.update(
        {
            "alpha": float(alpha),
            "J": int(J),
            "lambda": [float(v) for v in lambdas],
            "mu": {str(j): mu[j] for j in sorted(mu)},
            "a_slack": a_slack,
            "b_slack": b_slack,
            "tail_mu": float(tail),
            "mu_decay_constant": float(mu_const),
            "report": report.to_json_dict(),
        }
    )
    return dec


# -- finite norm bounds ---------------------------------------------------------


@dataclass(frozen=True)
class NormBound:
    """An upper bound for an atomic-decomposition norm, with its witness."""

    value: float
    strategy: str
    ball: ParabolicBall
    moment: float
    decomposition: Decomposition

    def to_json_dict(self) -> dict:
        return {
            "value": float(self.value),
            "strategy": self.strategy,
            "ball": _ball_dict(self.ball),
            "moment": float(self.moment),
            "n_terms": len(self.decomposition.terms),
            "residual": float(self.decomposition.residual),
        }


def _support_box(f: GridFunction):
    """(t_lo, t_hi, centre, rho) cell-edge bounding box of the support of f."""
    grid = f.grid
    idx = np.argwhere(f.values != 0.0)
    if idx.size == 0:
        raise DecompositionError("input is identically zero")
    t_lo = grid.t_edges[int(idx[:, 0].min())]
    t_hi = grid.t_edges[int(idx[:, 0].max()) + 1]
    centre = []
    rho = 0.0
    for ax in range(grid.n):
        lo = grid.x_edges[int(idx[:, 1 + ax].min())]
        hi = grid.x_edges[int(idx[:, 1 + ax].max()) + 1]
        centre.append(0.5 * (lo + hi))
        rho = max(rho, 0.5 * (hi - lo))
    return t_lo, t_hi, tuple(centre), rho


def _direct_bound(f: GridFunction) -> NormBound | None:
    """Try to certify f itself as a multiple of a single half-space atom.

    Candidate balls around the support box: the box's own parabolic ball,
    typed by its distance to the wall, and — when that ball is deep enough
    for type (a) but f carries a moment — an inflation just large enough to
    break 4Q ⊆ X, which is type (b) and needs no moment.  The bound is the
    exact normalising coefficient — no rounding, so a unit atom scores <= 1.
    """
    t_lo, t_hi, centre, rho = _support_box(f)
    l2 = lp_norm(f, 2)
    candidates = []
    R0 = max(rho, math.sqrt(0.5 * (t_hi - t_lo)))
    t_c = 0.5 * (t_lo + t_hi)
    Qc = ball(t_c, centre, R0)
    two_in, four_in = halfspace_flags(Qc)
    if four_in:
        candidates.append((Qc, AtomKind.TYPE_A))
        Rb = (1.0 + 1e-9) * math.sqrt(t_c) / 4.0
        candidates.append((ball(t_c, centre, max(R0, Rb)), AtomKind.TYPE_B))
    elif two_in:
        candidates.append((Qc, AtomKind.TYPE_B))
    for Qc, kind in candidates:
        lam = l2 * math.sqrt(ball_volume(Qc))
        a = f * (1.0 / lam)
        cert = validate_atom(a, Qc, kind)
        if cert.passed:
            dec = Decomposition(
                [Term(lam, a, Qc, kind)],
                residual=0.0,
                ledger={"certificate": cert.to_json_dict()},
            )
            dec.residual = lp_norm(f - dec.reconstruct(), 1)
            return NormBound(lam, "direct", Qc, integrate(f), dec)
    return None


def finite_norm_bound(f: GridFunction, strategy: str = "auto") -> NormBound:
    """Certified upper bound for the atomic norm of f on X, with a witness.

    strategy "direct" certifies f itself as a multiple of a single atom (the
    tight route when f already is one).  "hz" wraps the even extension in a
    classical atom on the enclosing ball and pushes it through
    ``hz_decompose`` — this needs the integral of f to vanish, and fails
    otherwise.  "r_odd" wraps the odd extension (whose integral always
    vanishes) and restricts it through ``restrict_decompose``.  "auto" tries
    them in that order.
    """
    if strategy not in ("auto", "direct", "hz", "r_odd"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if not f.grid.over_halfspace():
        raise DecompositionError("f must live on a grid over X")
    moment = integrate(f)

    if strategy in ("auto", "direct"):
        nb = _direct_bound(f)
        if nb is not None:
            return nb
        if strategy == "direct":
            raise DecompositionError("f is not a multiple of a single atom")

    t_lo, t_hi, centre, rho = _support_box(f)
    Qh = ball(0.0, centre, max(rho, math.sqrt(t_hi)))
    vol = ball_volume(Qh)

    if strategy in ("auto", "hz"):
        fe = even_extend(f)
        l2 = lp_norm(fe, 2)
        mom_rel = abs(2.0 * moment) / (math.sqrt(vol) * l2)
        if mom_rel > 1e-8:
            if strategy == "hz":
                raise DecompositionError(
                    "f does not have a vanishing moment; the even-extension "
                    f"route does not apply (relative moment {mom_rel:.3e})"
                )
        else:
            lam = _pow2_at_least(l2 * math.sqrt(vol))
            A = GridFunction(fe.grid, fe.values / lam)
            given = Decomposition(
                [Term(lam, A, Qh, AtomKind.CLASSICAL_2)],
                residual=0.0,
                ledger={"origin": "enclosing-ball"},
            )
            dec = hz_decompose(f, given)
            return NormBound(dec.coefficient_sum, "hz", Qh, moment, dec)

    F = odd_extend(f)
    lam = _pow2_at_least(lp_norm(F, 2) * math.sqrt(vol))
    A = GridFunction(F.grid, F.values / lam)
    dec = restrict_decompose(A, Qh)
    value = lam * dec.coefficient_sum
    dec.ledger["odd_extension_coefficient"] = float(lam)
    return NormBound(value, "r_odd", Qh, moment, dec)

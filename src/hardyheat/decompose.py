"""Constructive atomic decompositions on the parabolic half-space.

Three routes from a function (or an atom in the wrong position) to a sum of
certified atoms on X:

* ``restrict_decompose`` — restrict a classical atom to X; depending on how
  far its ball sits from the t = 0 wall this is a single type (a) or type (b)
  atom, or a Whitney-type boundary cover with one type (b) atom per cover ball.
  The Whitney terms are kept as arrays (``WhitneyTerms``): a term's atom and
  ball are built only when it is indexed, and the reconstruction is one
  scatter of coefficient times atom value into a zero grid.
  ``restrict_decompose_each`` restricts a batch of atoms on one grid with
  one array pass per stage over all of them (checks, overlap sweep, first
  owners, pieces), and ``restrict_decompose`` is its one-input case; every
  input gets the decomposition it would get alone, bit for bit.
* ``hz_decompose`` — push a decomposition of the even extension back down to X
  by symmetrising and restricting each term, recentring straddling balls.
* ``molecule_decompose`` — split a certified molecule into dyadic-annulus
  atoms plus telescoping correction atoms via a finite Abel summation.

``finite_norm_bound`` bounds the atomic norm of a function on X through the
first route: its odd extension in time is one classical atom on an enclosing
ball, whose restriction to X is the function.

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

from .atoms import AtomKind, molecule_report, validate_atom, validate_atom_each
from .grid import (
    GridFunction,
    SpaceTimeGrid,
    chunk_slices,
    even_extend,
    integrate,
    lp_norm,
    odd_extend,
    restrict,
    restrict_grid,
    time_reflect,
)
from .space import (
    UNIT_BALL_VOLUME,
    Annulus,
    ParabolicBall,
    ball,
    ball_masks,
    ball_volume,
    dilate,
    halfspace_flags,
    in_section,
    in_time_interval,
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
        """Σ |c| over the terms, added one at a time in term order."""
        if isinstance(self.terms, WhitneyTerms):
            coefficients = self.terms.coefficients
        else:
            coefficients = np.array([t.coefficient for t in self.terms], dtype=float)
        return float(np.cumsum(np.abs(coefficients))[-1]) if len(coefficients) else 0.0

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


@dataclass(frozen=True, eq=False)
class WhitneyTerms(Sequence):
    """The type (b) terms of a Whitney restriction, kept as arrays.

    Term i has coefficient coefficients[i], ball cover.ball(owners[i]) and an
    atom that is values[bounds[i]:bounds[i + 1]] at the flat cell indices
    cells[bounds[i]:bounds[i + 1]] of grid and zero elsewhere.  Indexing or
    iterating builds the Terms; len, coefficients and reconstruct build none.
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
        # offsets i rho with |i| rho < reach; the test is monotone in |i|
        n_off = math.ceil(reach / rho)
        while n_off * rho >= reach:
            n_off -= 1
        offs = np.arange(-n_off, n_off + 1) * rho
        n_balls += len(rows) * len(offs) ** n
        if n_balls > _MAX_COVER_BALLS:
            raise DecompositionError(f"cover exceeds {_MAX_COVER_BALLS} balls; raise t_floor")
        if len(rows):
            # 2Q_j in X but 4Q_j not (the float tests of scaled_in_halfspace):
            # guaranteed by the radius choice above.  Both tests are monotone
            # in the ascending rows, so the lowest and the highest row decide.
            if not rows[0] - (2.0 * rho) ** 2 >= 0.0 or rows[-1] - (4.0 * rho) ** 2 >= 0.0:
                raise DecompositionError(
                    f"cover layer of radius {rho} (rows {rows[0]} to {rows[-1]}) "
                    "lost type (b) geometry"
                )
            # the lattice x0 + offs^n in lexicographic order: axis i of the
            # grid below runs over the offsets of coordinate i
            m = len(offs)
            centres = np.empty((m,) * n + (n,))
            for i, c in enumerate(x0):
                centres[..., i] = (c + offs).reshape((m,) + (1,) * (n - 1 - i))
            layers.append(CoverLayer(rho, rows, centres.reshape(-1, n)))
        if A_k <= t_floor:
            break
        k += 1
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
    holds x.  a[k, time cell] and b[k, spatial cell] each come from one
    difference array per layer, filled by bincount (_layer_box_diffs) and
    summed up along each axis; the result is the largest entry of a^T b.
    This is the one-cover case of _max_overlap_each, which sweeps many
    covers at once.

    Faces that coincide in exact arithmetic, such as c_j + rho and
    c_{j+2} - rho, can differ by an ulp in floating point.  Counted apart, the
    sliver between them would be a cell where open balls that only touch
    appear to meet, so faces closer than 32 ulps of the axis' largest face
    magnitude in the cover are merged.  Distinct faces of a Whitney cover are
    much farther apart.  Time faces lie on (rho_K^2 / 2)Z and the faces of
    each spatial axis on a shift of rho_K Z, with rho_K the last layer's
    radius.  Below _MAX_COVER_BALLS the last layer has at least one row of
    2 r / rho_K centres per axis, so rho_K > 1e-5 r and rho_K^2 > 2e-11 times
    the cover's top time.  That is far above the merge tolerance in time, and
    in space unless Q's centre lies about 1e9 radii from the origin.
    """
    return int(_max_overlap_each(_Layers([cover]))[0])


class _Layers:
    """The layers of a sequence of covers as flat arrays, layer g running over
    the layers of every cover in cover order.

    Cover c holds layers first[c]:first[c + 1]; layer g holds rows
    row_at[g]:row_at[g + 1] of rows, centres centre_at[g]:centre_at[g + 1]
    of centres, and the balls ball_at[g]:ball_at[g + 1] of all covers, counted
    in cover order.  volume[g] is nu of one of its balls.
    """

    def __init__(self, covers: Sequence[WhitneyCover]):
        layers = [L for cover in covers for L in cover.layers]
        self.n = n = layers[0].centres.shape[1] if layers else 1
        self.n_covers = len(covers)
        self.first = np.cumsum([0] + [len(cover.layers) for cover in covers])
        self.cover = np.repeat(np.arange(len(covers)), np.diff(self.first))
        self.rho = np.array([L.rho for L in layers])
        self.rows = np.concatenate([L.rows for L in layers] or [np.empty(0)])
        self.centres = np.concatenate([L.centres for L in layers] or [np.empty((0, n))])
        self.row_at = np.cumsum([0] + [len(L.rows) for L in layers])
        self.centre_at = np.cumsum([0] + [len(L.centres) for L in layers])
        self.ball_at = np.cumsum([0] + [len(L) for L in layers])
        # 2 rho^2 omega_n rho^n in ball_volume's order of operations, so each
        # entry is bit-equal to ball_volume of the layer's balls
        self.volume = np.array([2.0 * L.rho**2 * UNIT_BALL_VOLUME[n] * L.rho**n for L in layers])

    def __len__(self) -> int:
        return len(self.rho)

    def of(self, at: np.ndarray) -> np.ndarray:
        """The layer of each row, centre or ball, given row_at, centre_at or ball_at."""
        return np.repeat(np.arange(len(self)), np.diff(at))


def _max_overlap_each(layers: _Layers) -> np.ndarray:
    """cover_max_overlap of every cover, from one sweep over all of them.

    The faces of the covers are merged in one lexsort by (cover, value),
    each cover with its own tolerance, and the boxes of every layer of every
    cover go into one difference array per axis set (_layer_box_diffs).
    Covers go through the sweep in runs of about CHUNK faces; only the
    cumulative sums and the product a^T b are formed cover by cover.
    """
    out = np.zeros(layers.n_covers, dtype=np.int64)
    first, rho = layers.first, layers.rho
    row_layer, centre_layer = layers.of(layers.row_at), layers.of(layers.centre_at)
    faces = 2 * (np.diff(layers.row_at[first]) + np.diff(layers.centre_at[first]) * layers.n)
    for run in chunk_slices(faces):
        g0, g1 = first[run.start], first[run.stop]
        if g0 == g1:
            continue
        cover, n_covers = layers.cover[g0:g1] - run.start, run.stop - run.start
        rows = slice(layers.row_at[g0], layers.row_at[g1])
        centres = slice(layers.centre_at[g0], layers.centre_at[g1])
        rl, cl = row_layer[rows] - g0, centre_layer[centres] - g0
        t_lo, t_hi, t_shape = _box_cells(layers.rows[rows, None], rho[g0:g1][rl] ** 2, cover[rl],
                                         n_covers)
        x_lo, x_hi, x_shape = _box_cells(layers.centres[centres], rho[g0:g1][cl], cover[cl],
                                         n_covers)
        a, a_at = _layer_box_diffs(rl, t_lo, t_hi, t_shape[cover])
        b, b_at = _layer_box_diffs(cl, x_lo, x_hi, x_shape[cover])
        for c in range(n_covers):
            k0, k1 = first[run.start + c] - g0, first[run.start + c + 1] - g0
            if k0 == k1:
                continue
            # counts from differences: cumulative sums along every axis
            A = a[a_at[k0]:a_at[k1]].reshape(k1 - k0, -1).cumsum(axis=1)
            B = b[b_at[k0]:b_at[k1]].reshape((k1 - k0, *x_shape[c]))
            for axis in range(1, B.ndim):
                B = B.cumsum(axis=axis)
            # small integers: the float product is exact
            out[run.start + c] = (A.T @ B.reshape(k1 - k0, -1)).max()
    return out


def _box_cells(points: np.ndarray, half: np.ndarray, group: np.ndarray, n_groups: int):
    """Per axis, the cells [lo, hi) that each box |x - p| < half covers.

    Box i belongs to group[i] (its cover).  The cells of a group are the
    elementary intervals between the merged faces of that group's boxes on
    the axis, indexed from 0; faces are merged within a group only, with the
    group's own tolerance.  Returns (lo, hi, shape): lo and hi of shape
    (axes, boxes), shape (n_groups, axes) with each group's face count on
    each axis (its cells + 1; 0 for a group without boxes).  A cell is
    covered when its midpoint lies strictly inside.
    """
    n_axes = points.shape[1]
    lo = np.empty((n_axes, len(points)), dtype=np.int64)
    hi = np.empty_like(lo)
    shape = np.zeros((n_groups, n_axes), dtype=np.int64)
    groups = np.concatenate([group, group])
    for d, p in enumerate(points.T):
        ends = np.concatenate([p - half, p + half])
        order = np.lexsort((ends, groups))
        faces, g = ends[order], groups[order]
        new = np.concatenate(([True], g[1:] != g[:-1]))
        rank = np.cumsum(new) - 1  # group rank of each sorted face
        head = np.flatnonzero(new)
        tail = np.append(head[1:], len(faces)) - 1
        # sorted, so the largest magnitude is at one end of each group
        tol = 32.0 * np.spacing(np.maximum(-faces[head], faces[tail]))
        keep = new.copy()
        keep[1:] |= faces[1:] - faces[:-1] > tol[rank[1:]]
        merged = np.cumsum(keep) - 1  # the kept face each face merges into
        kept = faces[keep]
        mids = 0.5 * (kept[:-1] + kept[1:])
        count = np.diff(np.append(merged[head], len(kept)))
        local = merged - merged[head][rank]
        # searchsorted(mids of the group, face): kept faces are more than tol
        # apart, so each mid below the face's own kept face lies below the
        # face and each mid above the next kept face above it; only the mid
        # between the two needs a comparison
        up = local < count[rank] - 1
        up[up] = mids[merged[up]] < faces[up]
        at = np.empty_like(order)
        at[order] = local + up
        lo[d], hi[d] = at[: len(p)], at[len(p) :]
        shape[g[head], d] = count
    return lo, hi, shape


def _layer_box_diffs(layer: np.ndarray, lo, hi, shape) -> tuple[np.ndarray, np.ndarray]:
    """Per layer, the difference array of its boxes; returns (diffs, at).

    Box i of layer[i] covers the cells [lo[d][i], hi[d][i]) on each axis d
    (the output of _box_cells) of the arrangement of shape[layer[i]], the
    face counts of its cover.  Layer g's differences are diffs[at[g]:at[g +
    1]] in C order over shape[g], one bincount per corner of the boxes;
    cumulative sums along the axes turn them into the layer's box counts.
    """
    size = shape.prod(axis=1)
    at = np.concatenate(([0], np.cumsum(size)))
    box_shape = shape[layer]
    diffs = np.zeros(at[-1])
    for corner in itertools.product((0, 1), repeat=shape.shape[1]):
        flat = at[layer]
        stride = 1
        for d in reversed(range(shape.shape[1])):
            flat = flat + stride * (hi[d] if corner[d] else lo[d])
            stride = stride * box_shape[:, d]
        diffs += (-1) ** sum(corner) * np.bincount(flat, minlength=at[-1])
    return diffs, at


def _cover_stats_each(layers: _Layers, Qs: Sequence[ParabolicBall]) -> list[dict]:
    """Measured quality of every cover of layers, Qs[c] the ball cover c covers:
    ball count, layers, overlap, volume sum and volume ratio.  The overlaps
    come from one sweep."""
    first, n_balls = layers.first, np.diff(layers.ball_at)
    stats = []
    for c, (Q, overlap) in enumerate(zip(Qs, _max_overlap_each(layers).tolist())):
        # cumsum adds one ball at a time in cover order (np.sum would pair terms)
        g0, g1 = first[c], first[c + 1]
        per_ball = np.repeat(layers.volume[g0:g1], n_balls[g0:g1])
        vol = float(np.cumsum(per_ball)[-1]) if per_ball.size else 0.0
        tv = truncated_volume(Q)
        stats.append({
            "n_balls": per_ball.size,
            "n_layers": int(g1 - g0),
            "overlap_max": overlap,
            "volume_sum": vol,
            "volume_ratio": float(vol / tv) if tv > 0 else math.inf,
        })
    return stats


_NONE = np.iinfo(np.int64).max  # no containing row or centre


def _first_hit(inside: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Per segment at[g]:at[g + 1] of inside's rows, the first row that is
    inside, counted from the segment's start (_NONE where none is)."""
    shape = (-1,) + (1,) * (inside.ndim - 1)
    hit = np.minimum.reduceat(np.where(inside, np.arange(len(inside)).reshape(shape), _NONE),
                              at, axis=0)
    return np.where(hit == _NONE, _NONE, hit - at.reshape(shape))


def _first_ball_owner(layers: _Layers, grid: SpaceTimeGrid,
                      inp: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Index in cover inp[i] of its first ball containing the midpoint of cells[i].

    cells are flat indices into the grid; -1 marks a cell no ball contains.
    Within a layer a ball contains a cell iff its row contains the cell's
    time (in_time_interval) and its centre the cell's position (in_section),
    the tests of ParabolicBall.mask.  Balls run (layer, row, centre), so the first
    containing ball pairs the first such row with the first such centre, in
    the first layer that has both.  np.minimum.reduceat over the layers of
    all covers gives the first row per (layer, slab), and the first centre
    per (layer, spatial cell) for the spatial cells that hold a cell of the
    layer's input, CHUNK elements at a time; then one pass per layer rank
    assigns the owners of every cell.
    """
    first, nc = layers.first, np.diff(layers.centre_at)
    n_layers = np.diff(first)
    start = layers.ball_at[:-1] - layers.ball_at[first[layers.cover]]  # within its cover
    # Python's rho**2, the square ParabolicBall.mask takes of a radius
    r2 = np.array([rho**2 for rho in layers.rho.tolist()])

    rr = np.repeat(r2, np.diff(layers.row_at))
    in_t = in_time_interval(grid.ts, (layers.rows - rr)[:, None], (layers.rows + rr)[:, None])
    first_row = _first_hit(in_t, layers.row_at[:-1])

    # the spatial cells of each input, once each; pair (u, k) is spatial
    # cell u with layer k of its input's cover
    n_cells = grid.nx**grid.n
    slab, cell = np.divmod(cells, n_cells)
    spots, which = np.unique(inp * n_cells + cell, return_inverse=True)
    spot_inp, spot_cell = np.divmod(spots, n_cells)
    pair_at = np.cumsum(n_layers[spot_inp]) - n_layers[spot_inp]
    pair_spot = np.repeat(np.arange(len(spots)), n_layers[spot_inp])
    pair_layer = first[spot_inp][pair_spot] + np.arange(len(pair_spot)) - pair_at[pair_spot]
    pair_x = [grid.xs[ax][pair_spot] for ax in np.unravel_index(spot_cell, (grid.nx,) * grid.n)]
    first_centre = np.empty(len(pair_spot), dtype=np.int64)
    for run in chunk_slices(nc[pair_layer]):
        g = pair_layer[run]
        at = np.cumsum(nc[g]) - nc[g]
        # every centre of each pair's layer, pair by pair
        k = np.repeat(layers.centre_at[g] - at, nc[g]) + np.arange(at[-1] + nc[g][-1])
        inside = in_section((np.repeat(x[run], nc[g]) for x in pair_x),
                            (c[k] for c in layers.centres.T), np.repeat(r2[g], nc[g]))
        first_centre[run] = _first_hit(inside, at)

    owner = np.full(len(cells), -1)
    for k in range(n_layers.max(initial=0)):
        todo = np.flatnonzero((owner < 0) & (n_layers[inp] > k))
        pair = pair_at[which[todo]] + k
        g = pair_layer[pair]
        fr, fc = first_row[g, slab[todo]], first_centre[pair]
        hit = (fr != _NONE) & (fc != _NONE)
        g = g[hit]
        owner[todo[hit]] = start[g] + fr[hit] * nc[g] + fc[hit]
    return owner


# -- restriction of classical atoms --------------------------------------------


def restrict_decompose(A: GridFunction, Q: ParabolicBall) -> Decomposition:
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

    This is restrict_decompose_each of the one input: a batch gives every
    input the decomposition it would get alone, bit for bit.
    """
    return restrict_decompose_each([A], [Q])[0]


def restrict_decompose_each(As: Sequence[GridFunction],
                            Qs: Sequence[ParabolicBall]) -> list[Decomposition]:
    """restrict_decompose of every (A, Q) pair, in order, on one grid.

    Each stage is one array pass over every input, so its per-call cost is
    paid once per batch: the input checks (ball masks and atom
    certificates, validate_atom_each), the overlap sweep of all Whitney
    covers (_cover_stats_each), the first-owner pass over the cells of all
    balls (_first_ball_owner) and the grouping of those cells into pieces,
    with one stable sort by (input, owner), one bincount of the piece sums of
    squares and one power-of-two rounding of the coefficients.  Each input's
    WhitneyTerms holds slices of the shared arrays.  The residuals and
    half-space norms come from one stack of the inputs, CHUNK elements at a
    time.  Only the whitney_cover calls and the sequential sums (raw and
    rounded coefficient sums, cover volumes) run input by input, in term
    order, so every ledger is the one-input ledger bit for bit.  Nothing is
    kept between calls.

    The checks raise for the first failing input of the first failing check.
    """
    As, Qs = list(As), list(Qs)
    if not As or len(As) != len(Qs):
        raise ValueError("need at least one input and one ball per input")
    grid = As[0].grid
    if any(A.grid != grid for A in As):
        raise ValueError("the inputs of one call must share one grid")
    if not all(grid.covers_ball(Q, clip_time=grid.over_halfspace()) for Q in Qs):
        raise DecompositionError("grid does not cover Q (clipped to X)")
    for cert in validate_atom_each(As, Qs, AtomKind.CLASSICAL_2):
        if not cert.passed:
            raise DecompositionError(f"input is not a classical L2 atom: {cert}")
    if any(truncated_volume(Q) <= 0.0 for Q in Qs):
        raise DecompositionError("Q does not meet the half-space")
    if grid.t_min < 0.0:
        k0, hgrid = restrict_grid(grid)
    elif grid.over_halfspace():
        k0, hgrid = 0, grid
    else:
        raise DecompositionError("grid must reach t = 0 or straddle it")

    decs: dict[int, Decomposition] = {}
    for i, (A, Q) in enumerate(zip(As, Qs)):
        two_in, four_in = halfspace_flags(Q)
        if four_in:
            kind, case = AtomKind.TYPE_A, "interior"
        elif two_in:
            kind, case = AtomKind.TYPE_B, "boundary_band"
        else:
            continue
        half = restrict(A) if grid.t_min < 0.0 else A
        decs[i] = Decomposition([Term(1.0, half, Q, kind)], residual=0.0, ledger={"case": case})
    # boundary case: Whitney cover, one type (b) slice per ball
    whitney = [i for i in range(len(As)) if i not in decs]
    if whitney:
        decs.update(zip(whitney, _whitney_each([As[i] for i in whitney],
                                               [Qs[i] for i in whitney], k0, hgrid)))
    return [decs[i] for i in range(len(As))]


def _half_values(As: Sequence[GridFunction], k0: int) -> np.ndarray:
    """The inputs' values from slab k0 on, stacked: (len(As), cells over X)."""
    return np.stack([A.values[k0:] for A in As]).reshape(len(As), -1)


def _whitney_each(As: Sequence[GridFunction], Qs: Sequence[ParabolicBall], k0: int,
                  hgrid: SpaceTimeGrid) -> list[Decomposition]:
    """The Whitney branch of restrict_decompose_each, its inputs' slabs k0 on on hgrid."""
    covers = [whitney_cover(Q, t_floor=max(hgrid.tau / 2.0, max(Q.t0 - Q.radius**2, 0.0)))
              for Q in Qs]
    layers = _Layers(covers)
    stats = _cover_stats_each(layers, Qs)
    bound = WHITNEY_OVERLAP_BOUND[hgrid.n]
    for st in stats:
        if st["overlap_max"] > bound:
            raise DecompositionError(
                f"cover overlap {st['overlap_max']} exceeds the bound {bound}"
            )

    # the cells of each Q ∩ X in C order, input by input, and the values there
    size = math.prod(hgrid.shape)
    found = []
    for s in chunk_slices([size] * len(As)):
        at = np.flatnonzero(ball_masks(Qs[s], *hgrid.mesh()))
        found.append((at // size + s.start, at % size, _half_values(As[s], k0).ravel()[at]))
    inp, cells, pv = (np.concatenate(x) for x in zip(*found))
    own = _first_ball_owner(layers, hgrid, inp, cells)
    escaped = int((own < 0).sum())
    if escaped:
        raise DecompositionError(f"{escaped} cells of Q ∩ X escaped the cover")
    # group the cells of each Q by owner; the stable sort keeps each piece in
    # C order, the order in which a boolean mask reads vals[piece]
    order = np.argsort(inp * (own.max(initial=0) + 1) + own, kind="stable")
    inp, cells, pv, own = inp[order], cells[order], pv[order], own[order]
    sq = pv**2
    new = (own[1:] != own[:-1]) | (inp[1:] != inp[:-1])
    starts = np.flatnonzero(np.concatenate(([True], new)))
    lengths = np.diff(starts, append=len(cells))
    # per-piece sums of squares, each bit-identical to sq[a:b].sum(): numpy
    # adds fewer than 8 terms left to right, as bincount does, and unrolls
    # longer sums 8 ways, so the few long pieces are summed one by one
    seg = np.repeat(np.arange(len(starts)), lengths)
    ss = np.bincount(seg, weights=sq, minlength=len(starts))
    for k in np.flatnonzero(lengths >= 8):
        ss[k] = sq[starts[k]:starts[k] + lengths[k]].sum()
    w = np.sqrt(ss * hgrid.cell_measure)
    keep = w != 0.0
    piece_inp, owners = inp[starts[keep]], own[starts[keep]]
    # the layer of each owner, counted over the balls of all covers
    ball = layers.ball_at[layers.first[piece_inp]] + owners
    raw = w[keep] * np.sqrt(layers.volume)[np.searchsorted(layers.ball_at, ball, side="right") - 1]
    coeffs = _pow2_at_least(raw)
    in_kept = np.repeat(keep, lengths)
    cells, pv, inp = cells[in_kept], pv[in_kept], inp[in_kept]
    per_cell = np.repeat(coeffs, lengths[keep])
    values = pv / per_cell  # exact: powers of two
    bounds = np.concatenate(([0], np.cumsum(lengths[keep])))

    # |half - reconstruction| and |half|^2 summed per input; the
    # reconstruction, coefficient * atom value on the pieces and zero
    # elsewhere, only replaces the pieces' cells
    resid, half_sq = np.empty(len(As)), np.empty(len(As))
    for s in chunk_slices([size] * len(As)):
        D = np.abs(_half_values(As[s], k0))
        half_sq[s] = (D**2).sum(axis=1)
        a, b = np.searchsorted(inp, [s.start, s.stop])
        at = (inp[a:b] - s.start) * size + cells[a:b]
        D.ravel()[at] = np.abs(pv[a:b] - per_cell[a:b] * values[a:b])
        resid[s] = D.sum(axis=1)

    decs = []
    piece_at = np.searchsorted(piece_inp, np.arange(len(As) + 1))
    for j, (cover, Q, st) in enumerate(zip(covers, Qs, stats)):
        p0, p1 = piece_at[j], piece_at[j + 1]
        c0, c1 = bounds[p0], bounds[p1]
        terms = WhitneyTerms(hgrid, cover, cells[c0:c1], values[c0:c1], bounds[p0:p1 + 1] - c0,
                             owners[p0:p1], coeffs[p0:p1])
        dec = Decomposition(terms, residual=float(resid[j] * hgrid.cell_measure))
        # cumsum adds the raw constants one at a time, in term order
        raw_sum = float(np.cumsum(raw[p0:p1])[-1]) if p1 > p0 else 0.0
        half_l2 = float(half_sq[j] * hgrid.cell_measure) ** 0.5
        scale = half_l2 * math.sqrt(truncated_volume(Q))
        dec.ledger.update(
            {
                "case": "whitney",
                # realized bound includes the power-of-two rounding; the raw
                # Cauchy-Schwarz constant is the one stable across inputs
                "coefficient_constant": dec.coefficient_sum / scale if scale > 0 else 0.0,
                "coefficient_constant_raw": raw_sum / scale if scale > 0 else 0.0,
                **st,
            }
        )
        decs.append(dec)
    return decs


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
            raise DecompositionError(f"symmetrised term failed validation: {cert}")
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
    if not report.certifies():
        raise DecompositionError(
            f"molecule report does not certify decay alpha={alpha}: {report}"
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
        }
    )
    return dec


# -- finite norm bounds ---------------------------------------------------------


@dataclass(frozen=True)
class NormBound:
    """An upper bound for an atomic-decomposition norm, with its witness."""

    value: float
    ball: ParabolicBall
    moment: float
    decomposition: Decomposition


def _support_box(f: GridFunction):
    """(t_hi, centre, rho) of the cell-edge bounding box of the support of f."""
    grid = f.grid
    idx = np.argwhere(f.values != 0.0)
    if idx.size == 0:
        raise DecompositionError("input is identically zero")
    t_hi = grid.t_edges[int(idx[:, 0].max()) + 1]
    centre = []
    rho = 0.0
    for ax in range(grid.n):
        lo = grid.x_edges[int(idx[:, 1 + ax].min())]
        hi = grid.x_edges[int(idx[:, 1 + ax].max()) + 1]
        centre.append(0.5 * (lo + hi))
        rho = max(rho, 0.5 * (hi - lo))
    return t_hi, tuple(centre), rho


def finite_norm_bound(f: GridFunction) -> NormBound:
    """Certified upper bound for the atomic norm of f on X, with a witness.

    The odd extension of f in time has vanishing integral whatever the
    moment of f, so, scaled by a power of two, it is a classical L2 atom on
    the ball Q_h of centre (0, support centre) that encloses the support.
    Its restriction to X is f; ``restrict_decompose`` splits it into type
    (b) atoms, and the bound is the scale times their coefficient sum.
    """
    if not f.grid.over_halfspace():
        raise DecompositionError("f must live on a grid over X")
    t_hi, centre, rho = _support_box(f)
    Qh = ball(0.0, centre, max(rho, math.sqrt(t_hi)))
    F = odd_extend(f)
    lam = _pow2_at_least(lp_norm(F, 2) * math.sqrt(ball_volume(Qh)))
    A = GridFunction(F.grid, F.values / lam)
    dec = restrict_decompose(A, Qh)
    dec.ledger["odd_extension_coefficient"] = float(lam)
    return NormBound(lam * dec.coefficient_sum, Qh, integrate(f), dec)

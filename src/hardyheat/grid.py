"""Uniform space-time grids and piecewise-constant grid functions.

A grid covers the box [-L, L]^n x (T-, T+] with nx uniform cells per spatial
axis and nt time slabs of width tau.  A GridFunction is constant on each cell;
integration and Lp norms are exact cell sums, and continuous functions enter
through midpoint sampling.  Grids over X have T- = 0; extension operators
produce the time-symmetric grid over (-T+, T+].

A grid computes its coordinate arrays (xs, ts, x_edges, t_edges and the mesh)
on first access and keeps them.  They are read-only, since every caller of
the grid shares them; equality and hashing still see only the six fields.

Passes over many inputs, balls or points at once (the corner sums of heatop,
validate_atom_each, restrict_decompose_each) keep each temporary array near
CHUNK elements.  The one temporary sized by its call's work instead is the
corner sums' kernel table, which holds at most the kernel evaluations it
replaces.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .space import ParabolicBall


#: elements per temporary array in a pass over many inputs, balls or points
CHUNK = 1 << 16


def chunk_slices(sizes: Sequence[int]) -> list[slice]:
    """Consecutive runs of items whose sizes add up to at most CHUNK.

    An item larger than CHUNK forms a run of its own.
    """
    runs, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > CHUNK:
            runs.append(slice(start, i))
            start, total = i, 0
        total += size
    if len(sizes):
        runs.append(slice(start, len(sizes)))
    return runs


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpaceTimeGrid:
    n: int
    length: float  # spatial half-width L
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n!r}")
        if not (isinstance(self.nx, numbers.Integral) and isinstance(self.nt, numbers.Integral)):
            raise ValueError(f"nx and nt must be integers, got {self.nx!r} and {self.nt!r}")
        if not all(map(math.isfinite, (self.length, self.t_min, self.t_max))):
            raise ValueError(
                f"length, t_min and t_max must be finite, got {self.length!r}, "
                f"{self.t_min!r} and {self.t_max!r}"
            )
        if self.length <= 0 or self.nx < 1 or self.nt < 1 or self.t_max <= self.t_min:
            raise ValueError("degenerate grid")

    @property
    def h(self) -> float:
        return 2.0 * self.length / self.nx

    @property
    def tau(self) -> float:
        return (self.t_max - self.t_min) / self.nt

    @property
    def cell_measure(self) -> float:
        return self.tau * self.h**self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nt,) + (self.nx,) * self.n

    @cached_property
    def xs(self) -> np.ndarray:
        """Cell midpoints of one spatial axis."""
        return _read_only(-self.length + (np.arange(self.nx) + 0.5) * self.h)

    @cached_property
    def x_edges(self) -> np.ndarray:
        return _read_only(-self.length + np.arange(self.nx + 1) * self.h)

    @cached_property
    def ts(self) -> np.ndarray:
        """Slab midpoints."""
        return _read_only(self.t_min + (np.arange(self.nt) + 0.5) * self.tau)

    @cached_property
    def t_edges(self) -> np.ndarray:
        return _read_only(self.t_min + np.arange(self.nt + 1) * self.tau)

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcastable (tt, xx[, yy]) midpoint arrays matching `shape`."""
        return self._mesh

    @cached_property
    def _mesh(self) -> tuple[np.ndarray, ...]:
        if self.n == 1:
            return self.ts[:, None], self.xs[None, :]
        return (
            self.ts[:, None, None],
            self.xs[None, :, None],
            self.xs[None, None, :],
        )

    def over_halfspace(self) -> bool:
        return self.t_min == 0.0

    def covers_ball(self, Q: ParabolicBall, clip_time: bool = False) -> bool:
        """Whether every point of Q (or of Q ∩ X if clip_time) lies in the grid box."""
        lo, hi = Q.time_interval
        if clip_time:
            lo = max(lo, 0.0)
        eps = 1e-9 * max(1.0, abs(hi))
        if lo < self.t_min - eps or hi > self.t_max + eps:
            return False
        return all(
            abs(c) + Q.radius <= self.length + 1e-9 * self.length for c in Q.center.x
        )

    def refine(self) -> "SpaceTimeGrid":
        """The same box with every cell and slab halved."""
        return SpaceTimeGrid(self.n, self.length, 2 * self.nx, self.t_min, self.t_max, 2 * self.nt)


@dataclass(frozen=True)
class GridFunction:
    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, order="C")  # defensive copy
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(c))

    __rmul__ = __mul__


def sample(grid: SpaceTimeGrid, fn) -> GridFunction:
    """Midpoint sampling: fn(tt, x[, y]) evaluated on broadcastable midpoint arrays."""
    values = np.broadcast_to(np.asarray(fn(*grid.mesh()), dtype=float), grid.shape)
    return GridFunction(grid, np.array(values))


def _resolve_mask(f: GridFunction, where) -> np.ndarray | None:
    if where is None:
        return None
    return np.broadcast_to(np.asarray(where, dtype=bool), f.grid.shape)


def integrate(f: GridFunction, where=None) -> float:
    """∫ f dν over the grid (or over the cells selected by `where`)."""
    mask = _resolve_mask(f, where)
    total = f.values.sum() if mask is None else f.values[mask].sum()
    return float(total * f.grid.cell_measure)


def lp_norm(f: GridFunction, p: float, where=None) -> float:
    mask = _resolve_mask(f, where)
    v = f.values if mask is None else f.values[mask]
    if v.size == 0:
        return 0.0
    if p == np.inf:
        return float(np.abs(v).max())
    if p <= 0:
        raise ValueError("p must be positive or inf")
    return float((np.abs(v) ** p).sum() * f.grid.cell_measure) ** (1.0 / p)


# -- time reflections and extensions -----------------------------------------

def _extend(f: GridFunction, sign: float) -> GridFunction:
    """f on (0, T+] and sign * f(-t, x) on (-T+, 0]."""
    if not f.grid.over_halfspace():
        raise ValueError("extension input must live on a grid over X (t_min == 0)")
    g = f.grid
    ext = SpaceTimeGrid(g.n, g.length, g.nx, -g.t_max, g.t_max, 2 * g.nt)
    values = np.empty(ext.shape)
    values[g.nt :] = f.values
    values[: g.nt] = sign * f.values[::-1]
    return GridFunction(ext, values)


def even_extend(f: GridFunction) -> GridFunction:
    return _extend(f, 1.0)


def odd_extend(f: GridFunction) -> GridFunction:
    return _extend(f, -1.0)


def time_reflect(F: GridFunction) -> GridFunction:
    """F(-t, x) on a grid symmetric about t = 0."""
    g = F.grid
    if abs(g.t_min + g.t_max) > 1e-12 * max(1.0, g.t_max):
        raise ValueError("time_reflect requires a grid symmetric about t = 0")
    return GridFunction(g, F.values[::-1])


def restrict_grid(g: SpaceTimeGrid) -> tuple[int, SpaceTimeGrid]:
    """(k0, grid over X) for a grid with a slab edge at t = 0: slab k0 of g is
    the first slab of the grid over X, and slabs k0 onwards are its slabs."""
    if not (g.t_min < 0.0 < g.t_max):
        raise ValueError("restrict expects a grid straddling t = 0")
    k0 = int(round(-g.t_min / g.tau))
    if abs(g.t_min + k0 * g.tau) > 1e-12 * max(1.0, g.t_max):
        raise ValueError("no slab edge at t = 0")
    return k0, SpaceTimeGrid(g.n, g.length, g.nx, 0.0, g.t_max, g.nt - k0)


def restrict(F: GridFunction) -> GridFunction:
    """Restriction to X of a function on a grid with a slab edge at t = 0."""
    k0, sub = restrict_grid(F.grid)
    return GridFunction(sub, F.values[k0:])

"""Uniform space-time grids and piecewise-constant grid functions.

A grid covers the box [-L, L]^n x (T-, T+] with nx uniform cells per spatial
axis and nt time slabs of width tau.  A GridFunction is constant on each cell;
integration and Lp norms are exact cell sums, and continuous functions enter
through midpoint sampling.  Grids over X have T- = 0; extension operators
produce the time-symmetric grid over (-T+, T+].
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .space import ParabolicBall

_HEADER = struct.Struct("<6d")  # n, L, h, T-, T+, tau


@dataclass(frozen=True)
class SpaceTimeGrid:
    n: int
    length: float  # spatial half-width L
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("n must be 1 or 2")
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

    @property
    def xs(self) -> np.ndarray:
        """Cell midpoints of one spatial axis."""
        return -self.length + (np.arange(self.nx) + 0.5) * self.h

    @property
    def x_edges(self) -> np.ndarray:
        return -self.length + np.arange(self.nx + 1) * self.h

    @property
    def ts(self) -> np.ndarray:
        """Slab midpoints."""
        return self.t_min + (np.arange(self.nt) + 0.5) * self.tau

    @property
    def t_edges(self) -> np.ndarray:
        return self.t_min + np.arange(self.nt + 1) * self.tau

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcastable (tt, xx[, yy]) midpoint arrays matching `shape`."""
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

    def refine(self, factor: int = 2) -> "SpaceTimeGrid":
        return SpaceTimeGrid(
            self.n, self.length, self.nx * factor, self.t_min, self.t_max, self.nt * factor
        )


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

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)

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
    if callable(where):
        where = where(*f.grid.mesh())
    mask = np.broadcast_to(np.asarray(where, dtype=bool), f.grid.shape)
    return mask


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

def _check_halfspace(f: GridFunction):
    if not f.grid.over_halfspace():
        raise ValueError("extension input must live on a grid over X (t_min == 0)")


def _extended_grid(g: SpaceTimeGrid) -> SpaceTimeGrid:
    return SpaceTimeGrid(g.n, g.length, g.nx, -g.t_max, g.t_max, 2 * g.nt)


def zero_extend(f: GridFunction) -> GridFunction:
    _check_halfspace(f)
    g = _extended_grid(f.grid)
    values = np.zeros(g.shape)
    values[f.grid.nt :] = f.values
    return GridFunction(g, values)


def even_extend(f: GridFunction) -> GridFunction:
    _check_halfspace(f)
    g = _extended_grid(f.grid)
    values = np.empty(g.shape)
    values[f.grid.nt :] = f.values
    values[: f.grid.nt] = f.values[::-1]
    return GridFunction(g, values)


def odd_extend(f: GridFunction) -> GridFunction:
    _check_halfspace(f)
    g = _extended_grid(f.grid)
    values = np.empty(g.shape)
    values[f.grid.nt :] = f.values
    values[: f.grid.nt] = -f.values[::-1]
    return GridFunction(g, values)


def time_reflect(F: GridFunction) -> GridFunction:
    """F(-t, x) on a grid symmetric about t = 0."""
    g = F.grid
    if abs(g.t_min + g.t_max) > 1e-12 * max(1.0, g.t_max):
        raise ValueError("time_reflect requires a grid symmetric about t = 0")
    return GridFunction(g, F.values[::-1])


def restrict(F: GridFunction) -> GridFunction:
    """Restriction to X of a function on a grid with a slab edge at t = 0."""
    g = F.grid
    if not (g.t_min < 0.0 < g.t_max):
        raise ValueError("restrict expects a grid straddling t = 0")
    k0 = int(round(-g.t_min / g.tau))
    if abs(g.t_min + k0 * g.tau) > 1e-12 * max(1.0, g.t_max):
        raise ValueError("no slab edge at t = 0")
    sub = SpaceTimeGrid(g.n, g.length, g.nx, 0.0, g.t_max, g.nt - k0)
    return GridFunction(sub, F.values[k0:])


# -- serialisation ------------------------------------------------------------

def write_binary(f: GridFunction, path) -> None:
    """Flat layout: 6 little-endian float64 header (n, L, h, T-, T+, tau), then
    the cell values row-major as little-endian float64."""
    g = f.grid
    header = _HEADER.pack(float(g.n), g.length, g.h, g.t_min, g.t_max, g.tau)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def read_binary(path) -> GridFunction:
    with open(path, "rb") as fh:
        n, L, h, t_min, t_max, tau = _HEADER.unpack(fh.read(_HEADER.size))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    grid = SpaceTimeGrid(
        int(round(n)), L, int(round(2.0 * L / h)), t_min, t_max,
        int(round((t_max - t_min) / tau)),
    )
    if raw.size != int(np.prod(grid.shape)):
        raise ValueError("payload size does not match header geometry")
    return GridFunction(grid, raw.reshape(grid.shape))


def write_csv(f: GridFunction, path) -> None:
    """One row per cell: t, x[, y], value, at cell midpoints."""
    g = f.grid
    cols = ["t", "x", "value"] if g.n == 1 else ["t", "x", "y", "value"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        if g.n == 1:
            for i, t in enumerate(g.ts):
                for j, x in enumerate(g.xs):
                    writer.writerow([repr(float(t)), repr(float(x)), repr(float(f.values[i, j]))])
        else:
            for i, t in enumerate(g.ts):
                for j, x in enumerate(g.xs):
                    for k, y in enumerate(g.xs):
                        writer.writerow(
                            [repr(float(t)), repr(float(x)), repr(float(y)),
                             repr(float(f.values[i, j, k]))]
                        )

"""Heat kernel, semigroup, and the maximal-regularity operator T with adjoint.

The operator under study is

    Tf(t, x)  = ∫_0^t [Δ e^{(t-s)Δ} f(s, ·)](x) ds,
    T*f(t, x) = ∫_t^∞ [Δ e^{(s-t)Δ} f(s, ·)](x) ds,

applied to grid functions that are piecewise constant in time.  Because
∂_s e^{(t-s)Δ} g = -Δ e^{(t-s)Δ} g, the time integral over a slab (a, b]
telescopes exactly:

    completed slab (t >= b):   e^{(t-a)Δ} g - e^{(t-b)Δ} g
    active slab    (a < t < b): e^{(t-a)Δ} g - g

There is no time-quadrature error anywhere; the only discretisation left is
spatial.  T* is the time reversal R T R, with R reversing the slabs, so the
adjointness identity <Tf, w> = <f, T*w> holds to rounding (the test suite
checks it).  Both evaluators below only compute the causal whole-space T: T*
and the half lines are transformations of the input.

Every number computed here is a heat mass of piecewise-constant data, built
from one primitive: ψ(u, z) = -1/2 sgn(z) erfc(|z| / 2√u), the response
e^{uΔ}H - H of the unit step H(x - e), read at z = x - e.  Its window
integral Ψ(u, z) = ∫_0^z ψ(u, ·) is closed form too (Carslaw & Jaeger,
App. II; Abramowitz & Stegun §7.2).  Each term costs one erfc and is small
in relative precision far from its edge, so no difference of two erf values
near ±1 ever cancels.

On the grid (apply_T), a slab profile is piecewise constant on cells, so one
semigroup application is a matrix with entries

    A(u)[i, j] = ∫_{cell_j} p_u(x_i - y) dy
               = [i = j] + ψ(u, x_i - lo_j) - ψ(u, x_i - hi_j),

e^{uΔ} of the cell indicator read at the output midpoint.  All entries lie
in [0, 1] and rows sum to at most 1 (+ rounding), the discrete maximum
principle.  On the uniform grid x_i - lo_j = (i - j + 1/2) h, so the table is
Toeplitz: one row of 2 nx - 1 offsets per lag u determines it, and the rows
of all lags come from one vectorised erfc evaluation.  The cell edges
(k + 1/2) h negate exactly in pairs and ψ is odd in z bit for bit, so ψ is
evaluated at the nx edges right of the midpoint and mirrored: half the erfc
calls, the same table.  No Gaussian tail is cut; only entries below the
smallest normal double are flushed to 0.

With the lag rows stacked in time, the telescoped sum over slabs is one
causal 2-d convolution of the input's time jumps with the row table.  For
n = 1 it is evaluated as a single zero-padded real FFT correlation, padded to
at least 2 nt - 1 slabs and 2 nx - 1 cells so nothing wraps around: O(N log N)
instead of the O(nt² nx²) of one Toeplitz matmul per lag.  For n = 2 it stays
one matmul per lag and axis (_causal_sum), into two slab stacks allocated
once per call: on a 64² × 32 grid a 3-d FFT of the padded space-time volume
took 67 ms on one core, the matmuls 18 ms.  The row table (n = 2) or its
padded spectrum (n = 1) depends only on the grid and the input's first live
slab, so apply_T_each builds it once per call and applies it to every input
of the call that needs it; apply_T and apply_Tstar are its one-input case.

At arbitrary points (image_rows, image_window; n = 1) the telescoping is
summed by parts into one corner sum.  With D the mixed time/space jumps of g
at the grid corners (t_m, e_j),

    Tf(t, x) = Σ_{t_m < t} Σ_j D_mj ψ(t - t_m, x - e_j).

T* is the same sum on the slab-reversed input, each lag read from the
reversed time edges.  No tail is cut here either, so molecule decay is
measured down to the underflow of erfc instead of to a truncation radius.  On
a cell edge ψ(u, 0) = 0 and the sum reads the midpoint of the jump (H(0) = 1/2).
Window integrals over x replace ψ by Ψ, the kernel of the same _corner_sum.

The path follows from the layout of the points.  On a lattice shared by
all times, the corner sum evaluates the kernel once per distinct (lag,
signed offset) pair and gathers it: one table of the distinct live lags ×
the distinct offsets x - e_j.  Lattices on cell midpoints repeat their
offsets (225 distinct among an atom's 1,368 point-edge pairs), and rows on
slab midpoints repeat their lags (about 30% distinct for T*).  The table
never holds more elements than the direct evaluations it replaces, since
there are at most as many distinct lags as live (corner, row) pairs and
at most as many distinct offsets as (point, edge) pairs.  Per-time points
share no offsets between times, so they evaluate the kernel per corner.
The table's z are the very values the direct evaluation sees, so both give
the same sums bit for bit.

Half-line kernels (n = 1) come from the method of images,
K_u(x, y) = p_u(x-y) ∓ p_u(x+y) for Dirichlet/Neumann (Carslaw & Jaeger
§2.5): the half-line T of f is the whole-space T of f on x > 0 plus ∓ its
mirror image (_operator_input), read at x > 0.

Far field (far_field; T, n = 1).  Past the last live corner t_last the
corner sum cancels: its terms are of order one while Tf is small, so it
loses about 1.5 digits per dyadic annulus.  There T is one Hermite series
instead, the moment expansion of the fast Gauss transform (Greengard &
Strain, SIAM J. Sci. Stat. Comput. 12, 1991).  Write ψ = Φ - H, with
Φ(u, ·) = e^{uΔ}H entire, and expand Φ(t - t_m, x - e_j) about the centre
(t_c, c), the midpoints of the live corner times and edges.  Then:

  - Σ_j D_mj = 0 kills every term without a space moment, and past t_last
    Σ_m D_mj = 0 kills the H part and every term without a time moment;
  - ∂_u Φ = ∂_z² Φ folds the time Taylor terms into the same series.

With s = 2√(t - t_c), r = -1/s, y = (x - c)/s and the Hermite functions
h_k(y) = H_k(y) e^{-y²}/√π,

    Tf(t, x) = -Σ_{n=3}^{K} A_n r^n h_{n-1}(y),
    A_n = Σ_{k + 2l = n} μ_lk / (l! k!),  μ_lk = Σ D_mj (t_c - t_m)^l (c - e_j)^k.

The moments are summed by parts over the slabs and cells of f
(_space_time_moments), so every μ_l0 and μ_0k is 0 exactly and the
mean-zero cancellation happens in the algebra, not in rounding.  A window
∫_lo^hi is G(hi) - G(lo) with G = s Σ_n A_n r^n h_{n-2}(y): no erf at all.
Both sums run the recurrence q_{n+1} = a q_n - (n - 1) b q_{n-1} of
q_n = r^n h_{n-1}(y), with a = -2(x - c)/s² and b = 2/s², over a flat list
of points.  Half lines expand f on x > 0 and read the series at x plus
image_sign times at -x.

The series takes a time when ρ_x = max|e - c|/s <= FAR_RHO_X = 0.5 and
ρ_t = max|t_m - t_c|/s² <= FAR_RHO_T = 0.05 (which puts t past t_last), at
every point of that time.  The truncation bound fixes K = FAR_TERMS = 40.  Cramér's inequality
|h_m(y)| <= 1.0865 √(2^m m!/π) and |μ_lk| <= l k span^{l-1} width^{k-1} ‖f‖₁
bound the terms past K by E_K ‖f‖₁/s³, with

    E_K = 1.0865/√π Σ_{n>K} Σ_{2l+k=n; l,k>=1} ρ_t^{l-1} ρ_x^{k-1}
          √(2^{n-1} (n-1)!) / ((l-1)! (k-1)!).

At the thresholds E_40 = 9.4e-9, against 1.73 for the leading term n = 3,
and E_8 = 1.8.  The bound holds for every y; on the battery's atoms the
series is within 3.1e-13 of max|Tf| at the first time it takes, against a
40-digit reference (tests/test_heatop.py).  The corner sum stays the
reference, and it still takes T*, the near rows and the direct image_rows
and image_window calls.

`duhamel_reference` is an independent brute-force quadrature of the defining
integral (midpoint-in-space ∂_u kernel matrices under Gauss-Legendre panels
away from the singularity, plus an analytically differentiated near-field),
sharing no telescoping shortcut with apply_T; it is the oracle the
acceptance suite compares against.  It takes a sequence of inputs on one grid
and builds its input-independent rows once per call: its entries depend on
i - j only, so each slab matrix is one row of offsets.  The rows of all
quadrature nodes are evaluated in one array pass and summed in quadrature
order, so each matrix is bit-identical to an entry-by-entry build.  They are
applied by the causal slab sum of n = 2 apply_T, which shares no code with
the n = 1 FFT the oracle certifies.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .grid import CHUNK, GridFunction, SpaceTimeGrid

WHOLE_SPACE = "whole_space"
HALF_LINE_DIRICHLET = "half_line_dirichlet"
HALF_LINE_NEUMANN = "half_line_neumann"
_BOUNDARIES = (WHOLE_SPACE, HALF_LINE_DIRICHLET, HALF_LINE_NEUMANN)


@dataclass(frozen=True)
class KernelSpec:
    """Which heat kernel: dimension and boundary treatment.

    Half-line variants require n = 1 and act on the spatial region x > 0;
    grid cells with midpoint x <= 0 are treated as outside the domain.
    """

    n: int = 1
    boundary: str = WHOLE_SPACE

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.boundary != WHOLE_SPACE and self.n != 1:
            raise ValueError("half-line kernels require n = 1")

    @property
    def is_whole(self) -> bool:
        return self.boundary == WHOLE_SPACE

    @property
    def image_sign(self) -> float:
        # p_u(x-y) + sign * p_u(x+y)
        return {HALF_LINE_DIRICHLET: -1.0, HALF_LINE_NEUMANN: +1.0}[self.boundary]


WHOLE = KernelSpec()


# -- pointwise kernels ---------------------------------------------------------

def gauss_kernel(t, r2, n: int = 1):
    """p_t at squared distance r2: (4 pi t)^(-n/2) exp(-r2 / 4t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return (4.0 * math.pi * t) ** (-n / 2.0) * np.exp(-np.asarray(r2) / (4.0 * t))


def gauss_kernel_dt(t, r2, n: int = 1):
    """∂_t p_t = p_t * (r2/4t^2 - n/2t); negative inside r2 < 2nt."""
    if t <= 0:
        raise ValueError("t must be positive")
    r2 = np.asarray(r2)
    return gauss_kernel(t, r2, n) * (r2 / (4.0 * t * t) - n / (2.0 * t))


# -- the heat-mass primitive ----------------------------------------------------

def _psi(u, z):
    """ψ(u, z) = -1/2 sgn(z) erfc(|z| / 2√u): e^{uΔ}H - H for the unit step H."""
    return -0.5 * np.sign(z) * erfc(np.abs(z) / (2.0 * np.sqrt(u)))


def _psi_window(u, z):
    """Ψ(u, z) = ∫_0^z ψ(u, ·) = -1/2 [|z| erfc(|z|/s) + s (1 - e^{-z²/s²}) / √π]."""
    s, a = 2.0 * np.sqrt(u), np.abs(z)
    return -0.5 * (a * erfc(a / s) - s * np.expm1(-(a / s) ** 2) / math.sqrt(math.pi))


# -- cell-mass tables -----------------------------------------------------------

def _cell_mass_rows(grid: SpaceTimeGrid, us) -> np.ndarray:
    """Cell masses at every offset for each lag u: shape (len(us), 2 nx - 1).

    Entry nx - 1 + k of a row is ∫ p_u over the cell k cells to the left of
    the output midpoint: e^{uΔ} applied to the cell indicator, read at the
    midpoint.  The indicator is a difference of two unit steps, so the row is
    the identity row plus differences of ψ at the cell edges (k ± 1/2) h.
    Those edges negate exactly in pairs and ψ(u, -z) = -ψ(u, z) bit for bit,
    so ψ is evaluated at the nx edges right of the midpoint and mirrored.
    The identity is added after the differences, in place, so no live row
    is copied out and back: 1 + d = d + 1 exactly, and the flush below turns
    a -0.0 into 0.0.  A difference of
    the monotone tail is never negative.  Subnormal entries are flushed to
    0, so none reaches the n = 2 matmuls, where they are slow; at u = 0 the
    row is the identity row.
    """
    us = np.asarray(us, dtype=float)
    nx, h = grid.nx, grid.h
    rows = np.zeros((len(us), 2 * nx - 1))
    live = us > 0.0
    pos = _psi(us[live, None], (np.arange(nx) + 0.5) * h)
    rows[live] = np.diff(np.concatenate([-pos[:, ::-1], pos], axis=1), axis=1)
    rows[:, nx - 1] += 1.0
    rows[np.abs(rows) < np.finfo(float).tiny] = 0.0
    return rows


def _toeplitz(grid: SpaceTimeGrid, rows: np.ndarray) -> np.ndarray:
    """The nx × nx matrix of each row of offsets: A[i, j] = row[nx - 1 + i - j].

    A(u)[i, j] depends only on i - j (Toeplitz).  The tables are whole-space
    only: a half line's image is in its input (_operator_input).
    """
    i = np.arange(grid.nx)
    return np.take(rows, grid.nx - 1 + i[:, None] - i[None, :], axis=-1)


def _causal_sum(grid: SpaceTimeGrid, rows: np.ndarray, x: np.ndarray, out: np.ndarray):
    """Add sum_m A_m x_{i-m} to out[i], A_m the Toeplitz matrix of rows[m].

    A_m acts on every spatial axis of the slab profiles x: y A_m^T for n = 1,
    A_m y A_m^T for n = 2.  One lag's matrix is gathered at a time, and each
    product is added into the caller's out.  For n = 2 both products go into
    two slab stacks allocated once per call, the second against a
    C-contiguous copy of A_m^T.
    """
    if grid.n == 2:
        ay, aya = np.empty_like(x), np.empty_like(x)
    for m in range(len(x)):
        A = _toeplitz(grid, rows[m])
        y = x[: len(x) - m]
        if grid.n == 1:
            out[m:] += y @ A.T
        else:
            k = len(y)
            np.matmul(A, y, out=ay[:k])
            out[m:] += np.matmul(ay[:k], np.ascontiguousarray(A.T), out=aya[:k])
    return out


# -- the operator T and its adjoint --------------------------------------------

def _operator_input(f: GridFunction, spec: KernelSpec) -> np.ndarray:
    """The whole-space input g of T: half lines take f on x > 0 plus image_sign
    times its mirror image (the grid is [-L, L], so cell j mirrors to nx - 1 - j)."""
    if f.grid.t_min < 0:
        raise ValueError("T acts on functions on X; grid must start at t >= 0")
    if not spec.is_whole and f.grid.n != 1:
        raise ValueError("half-line kernels require a one-dimensional grid")
    g = np.asarray(f.values, dtype=float)
    if not spec.is_whole:
        g = g * (f.grid.xs > 0.0)
        g = g + spec.image_sign * g[:, ::-1]
    return g


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length numpy's FFT transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p35 = 1
    while p35 < best:
        p = p35
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p35 *= 5
    return best


def _fft_shape(nt: int, nx: int) -> tuple[int, int]:
    """FFT lengths at which _correlate's causal correlation does not wrap around.

    The linear convolution of nt slabs with nt lag rows spans 2 nt - 1 slabs;
    its columns nx - 1 .. 2 nx - 2 take no alias at a period of 2 nx - 1.
    """
    return _fast_len(2 * nt - 1), _fast_len(2 * nx - 1)


def _slab_kernel(grid: SpaceTimeGrid, nt: int) -> np.ndarray:
    """What _telescoped applies to a sum over nt slabs, independent of the input.

    The rows of _cell_mass_rows at the lags u = (m + 1/2) tau, m < nt; for
    n = 1 their zero-padded 2-d FFT at the lengths of _fft_shape, the
    spectrum _correlate multiplies by.
    """
    lags = (np.arange(nt) + 0.5) * grid.tau
    if grid.n == 2:
        return _cell_mass_rows(grid, lags)
    Pt, Px = _fft_shape(nt, grid.nx)
    return np.fft.fft(np.fft.rfft(_cell_mass_rows(grid, lags), Px), Pt, axis=0)


def _correlate(delta: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """sum_m A_m delta_{i-m} for n = 1, as one zero-padded real 2-d FFT.

    A_m[x, j] = rows[m, nx - 1 + x - j] for the rows of _cell_mass_rows at
    the lags, so the sum is the full convolution of delta with the row table,
    read at slabs 0 .. nt - 1 and columns nx - 1 .. 2 nx - 2.  spectrum is
    the table's padded transform (_slab_kernel) and is left as it is: the
    product goes into delta's transform, with the table as the left operand
    (complex products round by operand order), and the inverse transform in
    time is taken in place there too, so a call allocates one padded
    spectrum.  It is cut to nt slabs in time before the inverse transform
    in space.
    """
    nt, nx = delta.shape
    Pt, Px = _fft_shape(nt, nx)
    X = np.fft.fft(np.fft.rfft(delta, Px), Pt, axis=0)
    np.multiply(spectrum, X, out=X)
    X = np.fft.ifft(X, axis=0, out=X)[:nt]
    return np.fft.irfft(X, Px)[:, nx - 1 : 2 * nx - 1]


def _telescoped(grid: SpaceTimeGrid, g: np.ndarray, spec: KernelSpec, kernels: dict):
    """Tf at slab midpoints by exact-in-time telescoping, from the input values g.

    With A_m the cell-mass matrix at u = (m + 1/2) tau and
    delta_k = g_k - g_{k-1} (delta_0 = g_0), the completed/active slab sums
    rearrange to Tf_i = sum_m A_m delta_{i-m} - g_i, which is what is
    evaluated: by _correlate for n = 1, by per-axis matmuls of the Toeplitz
    tables for n = 2.  The sum starts at the first slab where delta is
    nonzero, so every earlier slab reads exactly 0 (FFT rounding would leave
    about 1e-16 there).  Half lines read 0 at x <= 0.  kernels holds the
    _slab_kernel of each slab count already met in this call; a missing one
    is built and added.
    """
    nt = grid.nt
    delta = g.copy()
    delta[1:] -= g[:-1]
    out = np.zeros_like(g)
    start = int(np.argmax(delta.reshape(nt, -1).any(axis=1)))
    if delta[start].any():
        if nt - start not in kernels:
            kernels[nt - start] = _slab_kernel(grid, nt - start)
        kernel = kernels[nt - start]
        if grid.n == 1:
            out[start:] = _correlate(delta[start:], kernel)
        else:
            _causal_sum(grid, kernel, delta[start:], out[start:])
    out -= g
    if not spec.is_whole:
        out[:, grid.xs <= 0.0] = 0.0
    return out


def apply_T_each(fs: Sequence[GridFunction], spec: KernelSpec = WHOLE,
                 op: str = "T") -> list[GridFunction]:
    """Tf (op="T") or T*f (op="Tstar") of every input, in order, on one grid.

    T is evaluated by exact-in-time telescoping (_telescoped).  T* is the
    time reversal R T R, where R reverses the slabs: reversing the slabs
    turns the anticausal integral over (t, ∞) into the causal one, so
    adjointness <Tf, w> = <f, T*w> holds to rounding, since both sides
    reduce to the same symmetric matrices A_m.  The kernel rows (n = 2) or
    their spectrum (n = 1) depend only on the grid and the input's first
    live slab, so each is built once per call and shared by the inputs that
    need it; nothing is kept between calls.
    """
    if op not in ("T", "Tstar"):
        raise ValueError("op must be 'T' or 'Tstar'")
    fs = list(fs)
    if any(f.grid != fs[0].grid for f in fs):
        raise ValueError("the inputs of one call must share one grid")
    kernels: dict = {}
    order = slice(None) if op == "T" else slice(None, None, -1)  # R for T*
    return [GridFunction(f.grid, _telescoped(f.grid, _operator_input(f, spec)[order],
                                             spec, kernels)[order])
            for f in fs]


def apply_T(f: GridFunction, spec: KernelSpec = WHOLE) -> GridFunction:
    """Tf at slab midpoints: apply_T_each of the one input f."""
    return apply_T_each([f], spec)[0]


def apply_Tstar(f: GridFunction, spec: KernelSpec = WHOLE) -> GridFunction:
    """T*f at slab midpoints, the time reversal R T R: apply_T_each of the one input f."""
    return apply_T_each([f], spec, "Tstar")[0]


# -- corner sums: T and T* at arbitrary points ---------------------------------


def _corner_sum(f: GridFunction, ts, pts: np.ndarray, spec: KernelSpec, op: str,
                kernel):
    """Σ_m Σ_j D_mj kernel(u, p - e_j) at every time in ts and point p (n = 1).

    pts is one row of points shared by all times, shape (k,), or one row per
    time, shape (len(ts), k); the result has shape (len(ts), k).  D_m holds
    the mixed time/space jumps of the whole-space input g (_operator_input)
    at the corners (t_m, e_j), and u = t - t_m; only u > 0 contributes.  T*
    is T of the slab-reversed input, whose corner m sits at
    t_min + t_max - t_edges[nt - m]: its lag is t_edges[nt - m] - t, read
    from the grid's own edges, so no reflected time is ever rounded.  On a
    shared row the kernel (ψ or Ψ) is evaluated once at the distinct live
    lags × the distinct signed offsets z = p - e_j and gathered; the table
    sees the very z the direct evaluation sees, so a gathered value is the
    direct one bit for bit.  Per-time points evaluate it per corner.  Each
    row adds its corner terms in corner order, times in batches whose
    operands hold about CHUNK elements.
    """
    if op not in ("T", "Tstar"):
        raise ValueError("op must be 'T' or 'Tstar'")
    if f.grid.n != 1:
        raise ValueError("corner sums are one-dimensional")
    if pts.ndim == 2 and len(pts) != len(ts):
        raise ValueError("per-time points need one row per time")
    g = _operator_input(f, spec)
    if op == "Tstar":
        g, lags = g[::-1], f.grid.t_edges[::-1, None] - ts
    else:
        lags = ts - f.grid.t_edges[:, None]
    D = np.diff(np.diff(np.pad(g, 1), axis=0), axis=1)
    keep = D.any(axis=0)  # edges without jumps add nothing
    edges, D = f.grid.x_edges[keep], D[:, keep]
    live = (lags > 0.0) & D.any(axis=1)[:, None]
    if pts.ndim == 1:
        z = pts[:, None] - edges
        us, zs = np.unique(lags[live]), np.unique(z)
        table = kernel(us[:, None], zs)
        # only live (corner, row) pairs read lag_index: a dead one may point past us
        lag_index, offset_index = np.searchsorted(us, lags), np.searchsorted(zs, z)
    out = np.zeros((len(ts), pts.shape[-1]))
    step = max(1, CHUNK // max(1, out.shape[1] * len(edges)))
    for m in range(len(lags)):
        rows = np.flatnonzero(live[m])
        for c in range(0, len(rows), step):
            i = rows[c : c + step]
            if pts.ndim == 1:
                # np.take gives a C-contiguous operand, which the matmul takes
                # as it takes a direct one
                operand = np.take(table[lag_index[m, i]], offset_index, axis=1)
            else:
                operand = kernel(lags[m, i][:, None, None], pts[i][..., None] - edges)
            out[i] += operand @ D[m]
    return out


def image_rows(f: GridFunction, ts, x_out, spec: KernelSpec = WHOLE, op: str = "T"):
    """Tf (op="T") or T*f (op="Tstar") at every time in ts on the lattice x_out.

    x_out is one lattice for all times, or one row of points per time, shape
    (len(ts), k).  The result has shape (len(ts), k): the corner sum of the
    module docstring, n = 1.  Half lines read 0 at x <= 0.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    x_out = np.atleast_1d(np.asarray(x_out, dtype=float))
    out = _corner_sum(f, ts, x_out, spec, op, _psi)
    if not spec.is_whole:
        out[np.broadcast_to(x_out <= 0.0, out.shape)] = 0.0
    return out


def image_window(f: GridFunction, ts, lo, hi, spec: KernelSpec = WHOLE, op: str = "T"):
    """∫_lo^hi (Tf or T*f)(t, x) dx at every time in ts, exactly in x (n = 1).

    lo and hi broadcast against ts.  Each corner term integrates in closed
    form, Ψ(u, hi - e) - Ψ(u, lo - e); half lines integrate over x > 0.
    Scalar ends are one lattice of two points for all times, so the corner
    sum shares kernel values between times (one table of _corner_sum).

    Far from every corner both terms sit near the same -√(u/π), so a window
    keeps only about 1e-16 √u absolute: a window that holds no corner and
    whose value is far below √u has no relative accuracy.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.ndim == hi.ndim == 0:
        ends = np.stack([lo, hi])
    else:
        ends = np.stack(np.broadcast_arrays(lo, hi, ts)[:2], axis=-1)
    if not spec.is_whole:
        ends = np.maximum(ends, 0.0)
    out = _corner_sum(f, ts, ends, spec, op, _psi_window)
    return out[:, 1] - out[:, 0]


# -- far field: T past the last live corner as one Hermite series -------------

FAR_TERMS = 40  # K: the series keeps the terms n <= K
FAR_RHO_X = 0.5  # the series takes a time when max|e - c| <= FAR_RHO_X s
FAR_RHO_T = 0.05  # ... and max|t_m - t_c| <= FAR_RHO_T s²


@dataclass(frozen=True)
class FarField:
    """Tf past the last live corner, as the Hermite series of the module docstring.

    coeffs holds A_n at n = 0 .. FAR_TERMS about the centre (t_c, c); width
    and span are the largest |e - c| and |t_m - t_c| of the live corners, and
    t_last the last live corner time.  image_sign is 0 on the whole line and
    the half line's sign otherwise: the series is then that of f on x > 0,
    read at x and, times image_sign, at -x.
    """

    coeffs: np.ndarray
    t_c: float
    c: float
    t_last: float
    width: float
    span: float
    image_sign: float

    def reaches(self, ts) -> np.ndarray:
        """Which times in ts the series takes: past t_last, where it converges."""
        ts = np.asarray(ts, dtype=float)
        s2 = 4.0 * np.maximum(ts - self.t_c, 0.0)
        return ((ts > self.t_last) & (self.width**2 <= FAR_RHO_X**2 * s2)
                & (self.span <= FAR_RHO_T * s2))

    def _sum(self, coeffs: np.ndarray, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """-Σ_{n ≥ 1} coeffs[n] q_n(t, x), with q_n = r^n h_{n-1}(y) by its recurrence."""
        s2 = 4.0 * (ts - self.t_c)
        a, b = -2.0 * (xs - self.c) / s2, 2.0 / s2
        q_prev, q = np.zeros_like(a), -np.exp(-(xs - self.c) ** 2 / s2) / np.sqrt(math.pi * s2)
        out = -coeffs[1] * q
        for n in range(1, len(coeffs) - 1):
            q, q_prev = a * q - (n - 1) * b * q_prev, q
            out -= coeffs[n + 1] * q
        return out

    def _read(self, coeffs: np.ndarray, ts: np.ndarray, xs: np.ndarray,
              sign: float) -> np.ndarray:
        """_sum at (t, x) plus sign times _sum at (t, -x), in one pass."""
        if not sign:
            return self._sum(coeffs, ts, xs)
        both = self._sum(coeffs, np.concatenate([ts, ts]), np.concatenate([xs, -xs]))
        return both[: len(ts)] + sign * both[len(ts):]

    def rows(self, ts, xs) -> np.ndarray:
        """Tf at the flat list of points (ts[i], xs[i]); half lines read 0 at x <= 0."""
        ts, xs = (np.ravel(a).astype(float) for a in np.broadcast_arrays(ts, xs))
        out = self._read(self.coeffs, ts, xs, self.image_sign)
        if self.image_sign:
            out[xs <= 0.0] = 0.0
        return out

    def window(self, ts, lo, hi) -> np.ndarray:
        """∫_lo^hi Tf(t, x) dx at every time in ts: G(hi) - G(lo), no erf.

        lo and hi broadcast against ts; half lines integrate over x > 0.  G is
        an antiderivative, so the mirror image enters it with the sign flipped.
        """
        ts, lo, hi = (np.ravel(a).astype(float) for a in np.broadcast_arrays(ts, lo, hi))
        if self.image_sign:
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        G = self._read(self.coeffs[1:], np.concatenate([ts, ts]), np.concatenate([hi, lo]),
                       -self.image_sign)
        return G[: len(ts)] - G[len(ts):]


def _space_time_moments(g: np.ndarray, t_edges: np.ndarray, x_edges: np.ndarray,
                        t_c: float, c: float) -> np.ndarray:
    """μ_lk = Σ D_mj (t_c - t_m)^l (c - e_j)^k for l <= FAR_TERMS // 2, k <= FAR_TERMS.

    Summed by parts over the slabs and cells of g, whose corners and edges
    t_edges and x_edges are: μ = ΔT g ΔX^T with ΔT[l, i] = δ_i^l - δ_{i+1}^l
    and ΔX[k, p] = ε_p^k - ε_{p+1}^k.  So μ_l0 and μ_0k are 0 exactly, not
    sums of jumps that cancel to rounding.
    """
    dt = np.vander(t_c - t_edges, FAR_TERMS // 2 + 1, increasing=True)
    dx = np.vander(c - x_edges, FAR_TERMS + 1, increasing=True)
    return (dt[:-1] - dt[1:]).T @ g @ (dx[:-1] - dx[1:])


def far_field(f: GridFunction, spec: KernelSpec = WHOLE) -> FarField:
    """The Hermite series of Tf past the last live corner of f (n = 1).

    A_n = Σ_{k + 2l = n} μ_lk / (l! k!) about the midpoints of the live
    corner times and edges.  Half lines expand f on x > 0.  An input without
    corners gives a series that reaches no time.
    """
    if f.grid.n != 1:
        raise ValueError("the far-field series is one-dimensional")
    g = np.asarray(f.values, dtype=float)
    sign = 0.0
    if not spec.is_whole:
        g, sign = g * (f.grid.xs > 0.0), spec.image_sign
    slabs, cells = np.flatnonzero(g.any(axis=1)), np.flatnonzero(g.any(axis=0))
    if not slabs.size:
        return FarField(np.zeros(FAR_TERMS + 1), 0.0, 0.0, math.inf, 0.0, 0.0, sign)
    te = f.grid.t_edges[slabs[0] : slabs[-1] + 2]
    xe = f.grid.x_edges[cells[0] : cells[-1] + 2]
    t_c, c = 0.5 * (te[0] + te[-1]), 0.5 * (xe[0] + xe[-1])
    mu = _space_time_moments(g[slabs[0] : slabs[-1] + 1, cells[0] : cells[-1] + 1],
                             te, xe, t_c, c)
    l, k = np.arange(mu.shape[0])[:, None], np.arange(mu.shape[1])
    fact = np.cumprod([1.0, *range(1, FAR_TERMS + 1)])
    order = 2 * l + k
    keep = order <= FAR_TERMS
    coeffs = np.bincount(order[keep], (mu / (fact[l] * fact[k]))[keep],
                         minlength=FAR_TERMS + 1)
    return FarField(coeffs, t_c, c, float(te[-1]), 0.5 * (xe[-1] - xe[0]),
                    0.5 * (te[-1] - te[0]), sign)


# -- independent Duhamel oracle --------------------------------------------------

# below u = U_SWITCH * tau the oracle integrates the analytic u-derivative of
# the cell mass; above it, the sampled kernel on Gauss-Legendre panels
U_SWITCH = 0.125


@functools.lru_cache(maxsize=None)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gl_nodes(lo: float, hi: float, order: int):
    z, w = _leggauss(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * z, half * w


def _dyadic_edges(a: float, b: float) -> list[float]:
    """a, 2a, 4a, … up to b, the last panel clipped at b; a must be positive."""
    if a <= 0.0:
        raise ValueError(f"dyadic panels start at a positive time, got {a!r}")
    edges = [a]
    while edges[-1] < b:
        edges.append(min(2.0 * edges[-1], b))
    return edges


def _panels(edges, order: int):
    """Gauss–Legendre nodes and weights on each [edges[k], edges[k+1]]: (panels, order)."""
    e = np.asarray(edges, dtype=float)[:, None]
    return _gl_nodes(e[:-1], e[1:], order)


def _offset_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i - b_j at every offset k = i - j, read from the grid's own arrays.

    Entry nx - 1 + k is a[k] - b[0] for k >= 0 and a[0] - b[-k] for k < 0.
    On the uniform grid that is a_i - b_j for every i - j = k, bit for bit on
    dyadic grids; _toeplitz reads it back as a matrix.
    """
    return np.concatenate([a[0] - b[:0:-1], a - b[0]])


def _gauss2_row(grid: SpaceTimeGrid, kernel, u, diff: np.ndarray) -> np.ndarray:
    """Two-point Gauss sampling per cell of kernel(u, ·) at every offset in diff.

    u is one lag, or a column of lags that the kernel broadcasts to one row
    each.  (h/2) [k(x_i - y_j + d) + k(x_i - y_j - d)] with d = h / (2 sqrt 3):
    exact for cubics in y, so the oracle's spatial error is O(h^4) while
    apply_T's cell masses are exact — the discrepancy between the two routes
    collapses fast under h-refinement.
    """
    d = grid.h / (2.0 * math.sqrt(3.0))
    return 0.5 * grid.h * (kernel(u, (diff - d) ** 2, 1) + kernel(u, (diff + d) ** 2, 1))


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... added one row at a time onto zeros, in row
    order (np.sum would pair terms)."""
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out


def _near_field_row(grid: SpaceTimeGrid, u_hi: float):
    """∫_0^{u_hi} ∂_u A(u) du via the differentiated cell-mass formula, as a row.

    d/du of the cell mass is (4 sqrt(pi) u^{3/2})^{-1} [w_hi e^{-w_hi^2/4u}
    - w_lo e^{-w_lo^2/4u}] with w = x_i - edge; integrable through u -> 0
    (each term vanishes faster than any power).  42 geometric panels of 8
    Gauss-Legendre nodes, halving down from u_hi, resolve the boundary layer;
    below the last panel the integrand is < erfc(h / (4 sqrt(u_min))), i.e.
    zero to double precision.
    The result has one entry per offset i - j (see _offset_row).  All 336
    nodes are evaluated in one array pass and summed in node order (panels
    from u_hi down) by _sum_in_order.
    """
    xs, edges = grid.xs, grid.x_edges
    w_lo = _offset_row(xs, edges[:-1])
    w_hi = _offset_row(xs, edges[1:])
    his = np.ldexp(u_hi, -np.arange(42))[:, None]  # panel tops, halving down
    us, ws = (a.ravel() for a in _gl_nodes(his / 2.0, his, 8))
    # per-node scalars in numpy scalar arithmetic, as a loop over the nodes
    # takes them: an array power may round differently
    wc = [w * (1.0 / (4.0 * math.sqrt(math.pi) * u**1.5)) for u, w in zip(us, ws)]
    four_u = 4.0 * us[:, None]
    terms = w_hi * np.exp(-w_hi * w_hi / four_u) - w_lo * np.exp(-w_lo * w_lo / four_u)
    return _sum_in_order(np.array(wc)[:, None] * terms)


def _duhamel_rows(grid: SpaceTimeGrid, u_switch: float, gl_order: int) -> np.ndarray:
    """The row of every slab matrix C_m of duhamel_reference: shape (nt, 2 nx - 1).

    C_0 integrates ∂_u A(u) over (0, tau/2): the near field below u_switch,
    Gauss-Legendre panels above it.  C_m (m >= 1) integrates over
    ((m - 1/2) tau, (m + 1/2) tau), on geometric panels from the lower end
    upward (the integrand is steepest at small u).  The far-field nodes of
    all slabs are evaluated in one array pass, and each row sums its own
    nodes in node order (_sum_in_order).  So each entry accumulates the same
    nodes in the same order as an entry-by-entry build of the matrices would.
    """
    tau = grid.tau
    windows = [(u_switch, tau / 2.0)]
    windows += [((m - 0.5) * tau, (m + 0.5) * tau) for m in range(1, grid.nt)]
    panels = [_panels(_dyadic_edges(lo, hi), gl_order) for lo, hi in windows]
    us = np.concatenate([nodes.ravel() for nodes, _ in panels])
    ws = np.concatenate([weights.ravel() for _, weights in panels])
    # gauss_kernel_dt(u, r2, 1) at the column of nodes, its prefactor
    # (4 pi u)^(-1/2) in numpy scalar arithmetic as a loop over the nodes
    # takes it: an array power may round differently
    amp = np.array([(4.0 * math.pi * u) ** -0.5 for u in us])[:, None]

    def kernel_dt(u, r2, n):
        return amp * np.exp(-r2 / (4.0 * u)) * (r2 / (4.0 * u * u) - n / (2.0 * u))

    diff = _offset_row(grid.xs, grid.xs)
    terms = ws[:, None] * _gauss2_row(grid, kernel_dt, us[:, None], diff)
    ends = np.cumsum([0] + [nodes.size for nodes, _ in panels])
    rows = np.array([_sum_in_order(terms[a:b]) for a, b in zip(ends[:-1], ends[1:])])
    rows[0] = _near_field_row(grid, u_switch) + rows[0]
    return rows


def duhamel_reference(fs: Sequence[GridFunction]) -> list[GridFunction]:
    """Brute-force space-time quadrature of the defining integral of T.

    Writes Tf(t_i) = sum over slabs of ∫ (Δ e^{uΔ}) g du over the slab's
    u-window.  For u >= U_SWITCH tau the integrand is the
    two-point-Gauss-sampled ∂_u kernel matrix under Gauss-Legendre panels in
    u (geometrically refined toward the switch); below it — only the active
    slab reaches there — the analytic u-derivative of the cell mass is
    integrated instead, so no route through the telescoped semigroup formula
    of apply_T is used.  The far panels carry 12 Gauss-Legendre nodes each.
    Whole-space, n = 1.

    Takes a sequence of inputs on one grid and returns their references in
    order.  The rows of the slab matrices C_m depend only on the grid, so
    they are built once per call (_duhamel_rows) and applied to every input
    by the causal slab sum Σ_m C_m g_{i-m} (_causal_sum); nothing is kept
    between calls.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("the reference oracle needs at least one input")
    grid = fs[0].grid
    if any(f.grid != grid for f in fs):
        raise ValueError("the inputs of one call must share one grid")
    if grid.n != 1:
        raise ValueError("the reference oracle is implemented for n = 1, whole space")
    if grid.t_min < 0:
        raise ValueError("T acts on functions on X")
    rows = _duhamel_rows(grid, U_SWITCH * grid.tau, 12)
    return [GridFunction(grid, _causal_sum(grid, rows, f.values, np.zeros(grid.shape)))
            for f in fs]


def spatial_quadrature_error(f: GridFunction, u: float) -> float:
    """Size of the sampled-vs-exact spatial rule gap at scale u, for this input.

    sqrt(tau) * sum over slabs of || (A_gauss2(u) - A_cell(u)) g_k ||_{L2(dx)}
    with A_gauss2 the oracle's two-point Gauss rule applied to the semigroup
    kernel — the budget the oracle comparison is judged against (the oracle
    samples the kernel, apply_T integrates it exactly over cells; u at the
    switch point is where the two differ most).
    """
    grid = f.grid
    if grid.n != 1:
        raise ValueError("defined for n = 1")
    row = _gauss2_row(grid, gauss_kernel, u, _offset_row(grid.xs, grid.xs))
    gap = _toeplitz(grid, row - _cell_mass_rows(grid, [u])[0])
    resid = (f.values @ gap.T) ** 2
    per_slab = np.sqrt(resid.sum(axis=1) * grid.h)
    return float(math.sqrt(grid.tau) * per_slab.sum())

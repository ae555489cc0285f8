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
spatial.  T* is the time reversal of T: apply_Tstar = R apply_T R with R
reversing the slabs, so the adjointness identity <Tf, w> = <f, T*w> holds to
rounding (the test suite checks it).

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

e^{uΔ} of the cell indicator read at the output midpoint.  Entries beyond
the radius R(u) = sqrt(4u * ln(1/eps_tail)) + h are set to zero: the
neglected Gaussian tail mass is below eps_tail, and no subnormal entry
reaches the matmuls.  All entries lie in [0, 1] and rows sum to at most 1
(+ rounding), the discrete maximum principle.  On the uniform grid
x_i - lo_j = (i - j + 1/2) h, so the table is Toeplitz: one row of 2 nx - 1
offsets per lag u determines it, and the rows of all lags come from one
vectorised erfc evaluation.  The half-line image term depends on i + j only
(Hankel) and reads the same row.

At arbitrary points (image_rows, image_window) both telescopings are summed
by parts into one corner sum.  With D the mixed time/space jumps of g at the
grid corners (t_m, e_j),

    Tf(t, x)  =  Σ_{t_m < t} Σ_j D_mj ψ(t - t_m, x - e_j),
    T*f(t, x) = -Σ_{t_m > t} Σ_j D_mj ψ(t_m - t, x - e_j).

No tail is cut here, so molecule decay is measured down to the underflow of
erfc instead of to a truncation radius.  On a cell edge ψ(u, 0) = 0 and the
sum reads the midpoint of the jump (H(0) = 1/2).  Window integrals over x
replace ψ by Ψ.

Half-line kernels (n = 1) come from the method of images,
K_u(x, y) = p_u(x-y) ∓ p_u(x+y) for Dirichlet/Neumann; inputs and outputs
are masked to x > 0.  In the corner sum every corner at e_j gains an image
corner at -e_j.

`duhamel_reference` is an independent brute-force quadrature of the defining
integral (midpoint-in-space ∂_u kernel matrices under Gauss-Legendre panels
away from the singularity, plus an analytically differentiated near-field),
sharing no telescoping shortcut with apply_T; it is the oracle the
acceptance suite compares against.  It takes a sequence of inputs on one grid
and builds its input-independent matrix stack once per call.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .grid import GridFunction, SpaceTimeGrid

EPS_TAIL = 1e-12  # default neglected Gaussian tail mass per matrix entry

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

def _cell_mass_rows(grid: SpaceTimeGrid, us, eps_tail: float = EPS_TAIL) -> np.ndarray:
    """Cell masses at every offset for each lag u: shape (len(us), 2 nx - 1).

    Entry nx - 1 + k of a row is ∫ p_u over the cell k cells to the left of
    the output midpoint: e^{uΔ} applied to the cell indicator, read at the
    midpoint.  The indicator is a difference of two unit steps, so the row is
    the identity row plus differences of ψ at the cell edges (k ± 1/2) h.
    A difference of the monotone tail is never negative.  Entries are cut to
    zero where |k| h > R(u); at u = 0 the row is the identity row.
    """
    us = np.asarray(us, dtype=float)
    nx, h = grid.nx, grid.h
    rows = np.zeros((len(us), 2 * nx - 1))
    rows[:, nx - 1] = 1.0
    live = us > 0.0
    rows[live] += np.diff(_psi(us[live, None], (np.arange(-nx, nx) + 0.5) * h), axis=1)
    if eps_tail > 0.0:
        R = np.sqrt(4.0 * us[:, None] * math.log(1.0 / eps_tail)) + h
        rows[np.abs(np.arange(1 - nx, nx) * h) > R] = 0.0
    return rows


def _gather(grid: SpaceTimeGrid, spec: KernelSpec):
    """The map from a lag's row to its per-axis matrices.

    A(u)[i, j] depends only on i - j (Toeplitz).  The half-line image term
    ∫_cell_j p_u(x_i + y) dy depends only on i + j, since -x_i - mid_j =
    (nx - 1 - i - j) h, so it reads the same row (Hankel).
    """
    i = np.arange(grid.nx)
    toeplitz = grid.nx - 1 + i[:, None] - i[None, :]
    if spec.is_whole:
        return lambda row: (row[toeplitz],) * grid.n
    hankel = 2 * grid.nx - 2 - i[:, None] - i[None, :]
    outside = grid.xs <= 0.0

    def tables(row):
        A = row[toeplitz] + spec.image_sign * row[hankel]
        if spec.image_sign < 0:
            A = np.maximum(A, 0.0)
        A[outside, :] = 0.0
        A[:, outside] = 0.0
        return (A,)

    return tables


def _matrices(grid, u, spec, eps_tail=EPS_TAIL):
    """Per-axis operator matrices for one semigroup application (time u)."""
    return _gather(grid, spec)(_cell_mass_rows(grid, [u], eps_tail)[0])


def _apply_axes(X: np.ndarray, mats) -> np.ndarray:
    """Apply per-axis matrices to slab profiles stacked along axis 0."""
    if len(mats) == 1:
        return X @ mats[0].T
    Ax, Ay = mats
    return np.matmul(np.matmul(Ax, X), Ay.T)


# -- the operator T and its adjoint --------------------------------------------

def _operator_input(f: GridFunction, spec: KernelSpec) -> np.ndarray:
    if f.grid.t_min < 0:
        raise ValueError("T acts on functions on X; grid must start at t >= 0")
    g = f.values
    if not spec.is_whole:
        keep = f.grid.xs > 0.0
        g = g * keep[None, :]
    return np.asarray(g, dtype=float)


def _telescoped(grid: SpaceTimeGrid, g: np.ndarray, spec: KernelSpec):
    """Tf at slab midpoints by exact-in-time telescoping, from the input values g.

    With A_m the cell-mass matrix at u = (m + 1/2) tau and
    delta_k = g_k - g_{k-1} (delta_0 = g_0), the completed/active slab sums
    rearrange to Tf_i = sum_m A_m delta_{i-m} - g_i, which is what is
    evaluated.  The rows of every A_m come from one vectorised call; each A_m
    is gathered from its row and consumed in a single pass.
    """
    delta = g.copy()
    delta[1:] -= g[:-1]
    out = np.zeros_like(g)
    tables = _gather(grid, spec)
    rows = _cell_mass_rows(grid, (np.arange(grid.nt) + 0.5) * grid.tau)
    for m, row in enumerate(rows):
        out[m:] += _apply_axes(delta[: grid.nt - m], tables(row))
    out -= g
    return out


def apply_T(f: GridFunction, spec: KernelSpec = WHOLE) -> GridFunction:
    """Tf at slab midpoints by exact-in-time telescoping (see _telescoped)."""
    return GridFunction(f.grid, _telescoped(f.grid, _operator_input(f, spec), spec))


def apply_Tstar(f: GridFunction, spec: KernelSpec = WHOLE) -> GridFunction:
    """T*f at slab midpoints: the time reversal R T R, where R reverses the slabs.

    Reversing the slabs turns the anticausal integral over (t, ∞) into the
    causal one, so adjointness <Tf, w> = <f, T*w> holds to rounding: both
    sides reduce to the same symmetric matrices A_m.
    """
    g = _operator_input(f, spec)[::-1]
    return GridFunction(f.grid, _telescoped(f.grid, g, spec)[::-1])


# -- corner sums: T and T* at arbitrary points ---------------------------------

_CHUNK = 1 << 16  # elements per temporary array in a corner sum


def _corner_sum(f: GridFunction, ts, spec: KernelSpec, op: str, term, out, per_edge: int):
    """Add term(i, u, edges, ±D_m) to out[i] for every corner time t_m of f.

    D_m holds the mixed time/space jumps of g at the corners (t_m, edges).
    u = t - t_m for T; T* takes u = t_m - t and weight -1.  Only u > 0
    contributes.  Half lines add an image corner at -e for each corner at e,
    weighted -image_sign.  Times go in batches whose temporaries hold about
    _CHUNK elements (per_edge elements per edge and time).
    """
    if op not in ("T", "Tstar"):
        raise ValueError("op must be 'T' or 'Tstar'")
    sign = 1.0 if op == "T" else -1.0
    D = np.pad(_operator_input(f, spec), 1)
    for axis in range(D.ndim):
        D = np.diff(D, axis=axis)
    edges = f.grid.x_edges
    if not spec.is_whole:
        edges = np.concatenate([edges, -edges])
        D = np.concatenate([D, -spec.image_sign * D], axis=1)
    if f.grid.n == 1:  # edges without jumps add nothing
        keep = D.any(axis=0)
        edges, D = edges[keep], D[:, keep]
    step = max(1, _CHUNK // max(1, per_edge * len(edges)))
    for m, tm in enumerate(f.grid.t_edges):
        live = np.flatnonzero(sign * (ts - tm) > 0.0) if D[m].any() else []
        for c in range(0, len(live), step):
            i = live[c : c + step]
            out[i] += term(i, sign * (ts[i] - tm), edges, sign * D[m])
    return out


def image_rows(f: GridFunction, ts, x_out, spec: KernelSpec = WHOLE, op: str = "T"):
    """Tf (op="T") or T*f (op="Tstar") at every time in ts on the lattice x_out.

    Shape (len(ts), len(x_out)), or (len(ts), nx_out, ny_out) for n = 2 with
    x_out the two per-axis arrays.  For n = 1 this is the corner sum of the
    module docstring.  For n = 2 the time corners act through per-axis
    tables: (H + ψ_x) D_m (H + ψ_y)ᵀ - H D_m Hᵀ, expanded so nothing cancels.
    Half lines read 0 at x <= 0.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    axes = [np.atleast_1d(np.asarray(ax, dtype=float))
            for ax in ((x_out,) if f.grid.n == 1 else x_out)]
    if f.grid.n == 1:
        def term(i, u, edges, Dm):
            return _psi(u[:, None, None], axes[0][:, None] - edges) @ Dm
    else:
        Hx, Hy = (np.heaviside(ax[:, None] - f.grid.x_edges, 0.5) for ax in axes)

        def term(i, u, edges, Dm):
            Px, Py = (_psi(u[:, None, None], ax[:, None] - edges) for ax in axes)
            return Px @ Dm @ np.swapaxes(Hy + Py, 1, 2) + Hx @ Dm @ np.swapaxes(Py, 1, 2)

    out = np.zeros((len(ts),) + tuple(len(ax) for ax in axes))
    _corner_sum(f, ts, spec, op, term, out, sum(map(len, axes)))
    if not spec.is_whole:
        out[:, axes[0] <= 0.0] = 0.0
    return out


def image_window(f: GridFunction, ts, lo, hi, spec: KernelSpec = WHOLE, op: str = "T"):
    """∫_lo^hi (Tf or T*f)(t, x) dx at every time in ts, exactly in x (n = 1).

    lo and hi broadcast against ts.  Each corner term integrates in closed
    form, Ψ(u, hi - e) - Ψ(u, lo - e); half lines integrate over x > 0.
    """
    if f.grid.n != 1:
        raise ValueError("window moments are one-dimensional")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    ends = np.stack(np.broadcast_arrays(lo, hi, ts)[:2], axis=-1).astype(float)
    if not spec.is_whole:
        ends = np.maximum(ends, 0.0)

    def term(i, u, edges, Dm):
        return _psi_window(u[:, None, None], ends[i][:, :, None] - edges) @ Dm

    out = _corner_sum(f, ts, spec, op, term, np.zeros((len(ts), 2)), 2)
    return out[:, 1] - out[:, 0]


# -- independent Duhamel oracle --------------------------------------------------

@functools.lru_cache(maxsize=None)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gl_nodes(lo: float, hi: float, order: int):
    z, w = _leggauss(order)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * z, half * w


def _dt_quad_matrix(grid: SpaceTimeGrid, u: float) -> np.ndarray:
    """Two-point Gauss sampling per cell of the T kernel ∂_u p_u(x_i - y).

    (h/2) [k(x_i - y_j + d) + k(x_i - y_j - d)] with d = h / (2 sqrt 3):
    exact for cubics in y, so the oracle's spatial error is O(h^4) while
    apply_T's cell masses are exact — the discrepancy between the two routes
    collapses fast under h-refinement.
    """
    d = grid.h / (2.0 * math.sqrt(3.0))
    diff = grid.xs[:, None] - grid.xs[None, :]
    return 0.5 * grid.h * (
        gauss_kernel_dt(u, (diff - d) ** 2, 1) + gauss_kernel_dt(u, (diff + d) ** 2, 1)
    )


def _near_field_matrix(grid: SpaceTimeGrid, u_hi: float, order: int = 8, halvings: int = 42):
    """∫_0^{u_hi} ∂_u A(u) du via the differentiated cell-mass formula.

    d/du of the cell mass is (4 sqrt(pi) u^{3/2})^{-1} [w_hi e^{-w_hi^2/4u}
    - w_lo e^{-w_lo^2/4u}] with w = x_i - edge; integrable through u -> 0
    (each term vanishes faster than any power).  Geometric panels halving
    down from u_hi resolve the boundary layer; below the last panel the
    integrand is < erfc(h / (4 sqrt(u_min))), i.e. zero to double precision.
    """
    xs, edges = grid.xs, grid.x_edges
    w_lo = xs[:, None] - edges[None, :-1]
    w_hi = xs[:, None] - edges[None, 1:]
    total = np.zeros((grid.nx, grid.nx))
    hi = u_hi
    for _ in range(halvings):
        lo = hi / 2.0
        us, ws = _gl_nodes(lo, hi, order)
        for u, w in zip(us, ws):
            c = 1.0 / (4.0 * math.sqrt(math.pi) * u**1.5)
            term = w_hi * np.exp(-w_hi * w_hi / (4.0 * u)) - w_lo * np.exp(
                -w_lo * w_lo / (4.0 * u)
            )
            total += (w * c) * term
        hi = lo
    return total


def duhamel_reference(
    fs: Sequence[GridFunction],
    u_switch: float | None = None,
    gl_order: int = 12,
    spec: KernelSpec = WHOLE,
) -> list[GridFunction]:
    """Brute-force space-time quadrature of the defining integral of T.

    Writes Tf(t_i) = sum over slabs of ∫ (Δ e^{uΔ}) g du over the slab's
    u-window.  For u >= u_switch the integrand is the two-point-Gauss-sampled
    ∂_u kernel matrix under Gauss-Legendre panels in u (geometrically refined
    toward u_switch); for u < u_switch — only the active slab reaches it —
    the analytic u-derivative of the cell mass is integrated instead, so no
    route through the telescoped semigroup formula of apply_T is used.
    Whole-space, n = 1.

    Takes a sequence of inputs on one grid and returns their references in
    order.  The stack of slab matrices C_m depends only on the grid, so it is
    built once per call and applied to every input; nothing is kept between
    calls.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("the reference oracle needs at least one input")
    grid = fs[0].grid
    if any(f.grid != grid for f in fs):
        raise ValueError("the inputs of one call must share one grid")
    if grid.n != 1 or not spec.is_whole:
        raise ValueError("the reference oracle is implemented for n = 1, whole space")
    if grid.t_min < 0:
        raise ValueError("T acts on functions on X")
    tau = grid.tau
    if u_switch is None:
        u_switch = tau / 8.0
    if not 0.0 < u_switch <= tau / 2.0:
        raise ValueError("u_switch must lie in (0, tau/2]")

    def far_integral(lo: float, hi: float) -> np.ndarray:
        # geometric panels from lo upward (integrand steepest at small u)
        out = np.zeros((grid.nx, grid.nx))
        edges = [lo]
        while edges[-1] < hi:
            edges.append(min(2.0 * edges[-1], hi))
        for a, b in zip(edges[:-1], edges[1:]):
            us, ws = _gl_nodes(a, b, gl_order)
            for u, w in zip(us, ws):
                out += w * _dt_quad_matrix(grid, u)
        return out

    C = [_near_field_matrix(grid, u_switch) + far_integral(u_switch, tau / 2.0)]
    for m in range(1, grid.nt):
        C.append(far_integral((m - 0.5) * tau, (m + 0.5) * tau))

    refs = []
    for f in fs:
        g = f.values
        out = np.zeros_like(g)
        for m in range(grid.nt):
            out[m:] += g[: grid.nt - m] @ C[m].T
        refs.append(GridFunction(grid, out))
    return refs


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
    d = grid.h / (2.0 * math.sqrt(3.0))
    diff_x = grid.xs[:, None] - grid.xs[None, :]
    A_q = 0.5 * grid.h * (
        gauss_kernel(u, (diff_x - d) ** 2, 1) + gauss_kernel(u, (diff_x + d) ** 2, 1)
    )
    (A_cell,) = _matrices(grid, u, WHOLE, eps_tail=0.0)
    resid = (f.values @ (A_q - A_cell).T) ** 2
    per_slab = np.sqrt(resid.sum(axis=1) * grid.h)
    return float(math.sqrt(grid.tau) * per_slab.sum())

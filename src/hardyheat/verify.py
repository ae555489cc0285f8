"""Certification experiments: every numerically checkable claim as a pass/fail record.

Each experiment is one declaration: a measure function under ``@experiment``
that names its claim, alias, spatial dimensions, the ``Settings`` fields it
reads, and its gates, each a (measured key, comparison, bound) triple.  The
verdict, the recorded ``tolerances``, the dimension guard, the CLI catalogue
and the battery summary all derive from the declaration; ``EXPERIMENTS`` maps
names to declarations, and calling one gives a ``Settings -> ExperimentResult``
function.  Results are deterministic in (seed, config): rerunning with the same
settings reproduces the JSON payload byte for byte.  A gate's bound is a
``Settings`` field — pinned defaults from pilot runs — or a constant the claim
fixes (an exact zero, the Whitney overlap bound); every result records the
values of the fields its gates read.

The operator images Ta, T*a are certified as molecules without ever building a
global grid at the 2^(J+1)Q scale: the annulus norms M_j come from local
midpoint lattices whose time rows align with the slab kinks of the telescoped
image, and the moments come from closed-form spatial window masses integrated
in time by Gauss panels between the same kinks.  For T, the rows and nodes
far past the input take one far-field series per report (heatop.far_field),
which keeps the decay measurable where the corner sums cancel to rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .atoms import FIT_SLACK, AtomKind, MoleculeReport, _bump_field, make_atom, make_molecule
from .decompose import (
    WHITNEY_OVERLAP_BOUND,
    Decomposition,
    Term,
    finite_norm_bound,
    hz_decompose,
    molecule_decompose,
    restrict_decompose_each,
)
from .grid import GridFunction, SpaceTimeGrid, chunk_slices, lp_norm, restrict, time_reflect
from .heatop import (
    HALF_LINE_DIRICHLET,
    HALF_LINE_NEUMANN,
    U_SWITCH,
    WHOLE,
    FarField,
    KernelSpec,
    _dyadic_edges,
    _gl_nodes,
    _panels,
    apply_T,
    apply_T_each,
    duhamel_reference,
    far_field,
    gauss_kernel_dt,
    image_rows,
    image_window,
    spatial_quadrature_error,
)
from .space import Annulus, ParabolicBall, ball, dilate, truncated_volume

# ∫_R |∂_t p_t(x)| dx at t = 1, n = 1: the integrand changes sign at |x| = √2,
# and the two lobes give 2 √2 p_1(√2) = sqrt(2/π) e^{-1/2}.
C_TSTAR = math.sqrt(2.0 / math.pi) * math.exp(-0.5)


@dataclass(frozen=True)
class Settings:
    """Pinned tolerances and sample counts for the experiment battery.

    Every statistical gate reads from here; the defaults were frozen from
    pilot runs of the same experiments.  A result stores the values it used,
    so a passing record is interpretable without this file.
    """

    seed: int = 0
    n: int = 1  # spatial dimension; only the round-trip experiment runs in 2-d

    # telescoping vs independent Duhamel quadrature
    oracle_inputs: int = 20
    oracle_rel: float = 1e-3
    oracle_factor: float = 10.0
    oracle_improvement: float = 4.0
    oracle_grid: tuple[float, ...] = (4.0, 64.0, 4.0, 16.0)  # L, nx, T, nt

    # molecule certification of Ta over random atoms
    n_atoms: int = 50
    alpha: float = 0.5
    J: int = 8
    moment_rel_tol: float = 1e-3
    uniformity_band: float = 4.0
    mean_times: int = 20
    mean_value_tol: float = 1e-3

    # adjoint images
    n_tstar_atoms: int = 10
    bfit_min: float = 1.5

    # growth counterexamples
    growth_T_values: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0, 128.0)
    dyadic_spread: float = 0.20
    slope_rel_tol: float = 0.05
    c_abs_tol: float = 1e-6

    # decomposition round trips
    n_roundtrip_balls: int = 100
    n_hz_given: int = 10
    hz_residual_tol: float = 1e-12
    molecule_tail_constant: float = 1.0

    # stability probes
    l2_inputs: int = 8
    l2_drift: float = 0.10
    lp_exponents: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0)
    lp_ratio_max: float = 1.1
    lp1_growth_min: float = 1.2

    # boundary dichotomy
    neumann_moment_max: float = 1e-3
    dirichlet_moment_min: float = 1e-2
    far_moment_max: float = 1e-3


def _x0(Q: ParabolicBall) -> float:
    """Scalar spatial centre of a one-dimensional ball."""
    return float(Q.center.x[0])


def _jsonable(obj):
    """Recursively coerce numpy scalars/arrays into plain python values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment run: what was measured, against which tolerances, verdict.

    ``tolerances`` holds the Settings fields the gates read, with their values
    (the provenance of every configurable gate is the config, by construction).
    """

    experiment: str
    passed: bool
    parameters: dict
    measured: dict
    tolerances: dict
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": bool(self.passed),
            "parameters": _jsonable(self.parameters),
            "measured": _jsonable(self.measured),
            "tolerances": _jsonable(self.tolerances),
            "notes": list(self.notes),
        }


# -- declarations -----------------------------------------------------------------

_COMPARE: dict[str, Callable[[object, object], bool]] = {
    "<=": operator.le,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    # a fitted decay exponent, with the slack of MoleculeReport.certifies
    "fit>=": lambda value, bound: value >= bound - FIT_SLACK,
}


@dataclass(frozen=True)
class Gate:
    """One pass condition: measured[key] <op> bound.

    op is "<=", ">=", ">", "==", or "fit>=" for a fitted decay exponent (">="
    less FIT_SLACK).  bound names a Settings field, whose value the result
    records under ``tolerances``, or is a constant the claim fixes.  The gate
    applies to runs in the spatial dimensions ``dims``.
    """

    key: str
    op: str
    bound: str | float
    dims: tuple[int, ...] = (1, 2)

    def limit(self, settings: Settings):
        return getattr(settings, self.bound) if isinstance(self.bound, str) else self.bound

    def holds(self, measured: dict, settings: Settings) -> bool:
        return bool(_COMPARE[self.op](measured[self.key], self.limit(settings)))

    def slack(self, value, limit) -> tuple[float, bool]:
        """(signed slack of value against the limit, whether it is relative).

        The slack is how far value may move toward the limit before the gate
        fails, so "==" reads 0 when it holds and "fit>=" counts FIT_SLACK in;
        it is divided by |limit| when the limit is a nonzero number.
        """
        relative = (isinstance(limit, (int, float)) and not isinstance(limit, bool)
                    and limit != 0)
        value, edge = float(value), float(limit) - (FIT_SLACK if self.op == "fit>=" else 0.0)
        gap = {"<=": edge - value, "==": 0.0 - abs(value - edge)}.get(self.op, value - edge)
        return (gap / abs(limit) if relative else gap), relative


@dataclass(frozen=True)
class Measurement:
    """What an experiment's measure function returns; the gates judge it."""

    parameters: dict
    measured: dict
    notes: tuple[str, ...] = ()


def _active(gates: tuple[Gate, ...], settings: Settings) -> list[Gate]:
    return [g for g in gates if settings.n in g.dims]


def _tolerances(gates: tuple[Gate, ...], settings: Settings) -> dict:
    return {g.bound: g.limit(settings) for g in _active(gates, settings)
            if isinstance(g.bound, str)}


def _judge(name: str, gates: tuple[Gate, ...], settings: Settings,
           m: Measurement) -> ExperimentResult:
    return ExperimentResult(
        experiment=name,
        passed=all(g.holds(m.measured, settings) for g in _active(gates, settings)),
        parameters=m.parameters,
        measured=m.measured,
        tolerances=_tolerances(gates, settings),
        notes=m.notes,
    )


@dataclass(frozen=True)
class Experiment:
    """One certified claim: how it is measured and when it passes.

    Calling it with Settings checks the spatial dimension against ``dims``,
    runs ``measure`` and judges the record by the gates that apply.  ``reads``
    lists every Settings field a run reads, the gate bounds and ``n``
    included.
    """

    name: str
    claim: str
    reads: tuple[str, ...]
    gates: tuple[Gate, ...]
    measure: Callable[[Settings], Measurement]
    alias: str | None = None
    dims: tuple[int, ...] = (1,)

    @property
    def summary(self) -> str:
        return (self.measure.__doc__ or "").strip().splitlines()[0]

    def dims_error(self, n: int) -> str | None:
        """Why the experiment cannot run in dimension n; None when it can."""
        if n in self.dims:
            return None
        if self.dims == (1,):
            return f"{self.name} is one-dimensional; run it with n=1"
        return f"{self.name} supports n in {list(self.dims)}"

    def failure(self, settings: Settings, exc: Exception) -> ExperimentResult:
        """The failed record of a run that raised exc."""
        return ExperimentResult(
            experiment=self.name, passed=False, parameters={}, measured={},
            tolerances=_tolerances(self.gates, settings),
            notes=(f"raised {type(exc).__name__}: {exc}",),
        )

    def __call__(self, settings: Settings = Settings()) -> ExperimentResult:
        error = self.dims_error(settings.n)
        if error is not None:
            raise ValueError(error)
        return _judge(self.name, self.gates, settings, self.measure(settings))


def experiment(*, claim: str, reads: tuple[str, ...], gates: tuple[Gate, ...],
               alias: str | None = None, dims: tuple[int, ...] = (1,)):
    """Declare the decorated measure function as the experiment of its name."""
    def declare(measure: Callable[[Settings], Measurement]) -> Experiment:
        return Experiment(measure.__name__, claim, reads, gates, measure, alias, dims)
    return declare


# -- shared probes ---------------------------------------------------------------

def _smooth_field(seed: int, grid: SpaceTimeGrid) -> np.ndarray:
    """Low-order random Fourier field sampled at cell midpoints.

    The same seed on a refined grid samples the same function, which is what
    lets the oracle-gap and operator-norm probes compare resolutions.
    """
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    tt, xx = mesh[0], mesh[1]
    out = np.zeros(grid.shape)
    span = grid.t_max - grid.t_min
    for k in range(1, 6):
        a, phi, psi = rng.standard_normal(3)
        out += (a / k**2) * np.cos(k * math.pi * xx / grid.length + phi) * np.cos(
            k * math.pi * (tt - grid.t_min) / span + psi
        )
    return out


def _time_panels(grid: SpaceTimeGrid, t_lo: float, t_hi: float) -> np.ndarray:
    """Sorted time-panel edges of [t_lo, t_hi] for an image of a function on grid.

    The image has a kink at every slab edge of the grid, so each edge inside
    the range is a panel edge; past the grid horizon the panels double
    geometrically.
    """
    e = grid.t_edges
    edges = [[t_lo, t_hi], e[(e > t_lo) & (e < t_hi)]]
    if t_hi > grid.t_max:
        # t_edges[-1] can differ from t_max by an ulp; a second edge there
        # would add a sliver panel, so the doubling starts one step up
        edges.append(_dyadic_edges(max(grid.t_max, t_lo), t_hi)[1:])
    return np.unique(np.concatenate(edges))


def _window_moment(
    f: GridFunction,
    spec: KernelSpec,
    op: str,
    win: tuple[float, float],
    t_lo: float,
    t_hi: float,
    gl_order: int = 6,
) -> float:
    """∫_{t_lo}^{t_hi} ∫_{win} (Tf or T*f)(t, x) dx dt, n = 1.

    The spatial integral is exact: image_window, or for T the far-field
    series (heatop.far_field) at the nodes it reaches.  Time panels come
    from _time_panels, with Gauss-Legendre nodes inside each panel; the
    integrand is evaluated at all nodes in at most one call of each.
    """
    edges = _time_panels(f.grid, t_lo, t_hi)
    a, b = edges[:-1, None], edges[1:, None]
    # the image behaves like sqrt(t - edge) just past a slab edge (and like
    # sqrt(edge - t) just before one for T*); a square-root substitution at
    # the singular end keeps the panels spectral
    ss, wq = _gl_nodes(0.0, np.sqrt(b - a), gl_order)
    ts = (a + ss * ss if op == "T" else b - ss * ss).ravel()
    far = np.zeros(ts.shape, dtype=bool)
    if op == "T":
        series = far_field(f, spec)
        far = series.reaches(ts)
    values = np.empty(ts.shape)
    if far.any():
        values[far] = series.window(ts[far], win[0], win[1])
    if not far.all():
        values[~far] = image_window(f, ts[~far], win[0], win[1], spec, op)
    return float((2.0 * ss * wq).ravel() @ values)


def _annulus_rows(outer: ParabolicBall, grid: SpaceTimeGrid, rows_target: int):
    """Midpoint time rows + weights covering the outer ball's time range.

    Rows never cross a panel edge of _time_panels (the image is smooth
    between kinks, so the midpoint rule keeps its order).
    """
    t_lo = max(0.0, outer.t0 - outer.radius**2)
    t_hi = outer.t0 + outer.radius**2
    edges = _time_panels(grid, t_lo, t_hi)
    a, b = edges[:-1], edges[1:]
    # rint rounds half to even, as round does
    q = np.maximum(1, np.rint(rows_target * (b - a) / (t_hi - t_lo))).astype(int)
    w = np.repeat((b - a) / q, q)
    m = np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)
    return np.repeat(a, q) + (m + 0.5) * w, w


def _annulus_images(f: GridFunction, lattices: list, spec: KernelSpec, op: str,
                    series: FarField | None) -> list[np.ndarray]:
    """The image on each annulus lattice (rows, xs), one array per lattice.

    For T, the rows the far-field series reaches, in all annuli, take one
    series pass over the flat list of their points.  The other rows stay on
    the corner sum.  For T the annuli j >= 2 keep the same near rows, the
    slab midpoints, and share one image_rows call on the union of their
    lattices; T* annuli keep rows of their own, one call each.  The shared
    call gives each annulus the values of its own call to rounding: a
    point's corner terms are one dot product over the edges, whose last bit
    can depend on where the point falls in the BLAS blocking of the lattice.
    """
    far = [np.zeros(len(rows), dtype=bool) if series is None else series.reaches(rows)
           for rows, _ in lattices]
    out = [np.empty((len(rows), len(xs))) for rows, xs in lattices]
    counts = [np.count_nonzero(m) for m in far]
    if any(counts):
        ts = np.concatenate([np.repeat(rows[m], len(xs))
                             for (rows, xs), m in zip(lattices, far)])
        xs = np.concatenate([np.tile(xs, k) for (_, xs), k in zip(lattices, counts)])
        ends = np.cumsum([k * o.shape[1] for o, k in zip(out, counts)])[:-1]
        for o, m, k, v in zip(out, far, counts, np.split(series.rows(ts, xs), ends)):
            o[m] = v.reshape(k, o.shape[1])
    groups: dict = {}
    for i, ((rows, _), m) in enumerate(zip(lattices, far)):
        if not m.all():
            groups.setdefault(rows[~m].tobytes() if op == "T" else i, []).append(i)
    for members in groups.values():
        near = lattices[members[0]][0][~far[members[0]]]
        xs = np.unique(np.concatenate([lattices[i][1] for i in members]))
        values = image_rows(f, near, xs, spec, op)
        for i in members:
            out[i][~far[i]] = values[:, np.searchsorted(xs, lattices[i][1])]
    return out


def image_molecule_report(
    f: GridFunction,
    Q: ParabolicBall,
    op: str,
    alpha: float,
    J: int,
    spec: KernelSpec = WHOLE,
    nx_loc: int = 24,
    rows_target: int = 10,
) -> tuple[MoleculeReport, float]:
    """Molecule profile of Tf or T*f around Q, measured on annulus-local lattices.

    Returns the report plus the largest single-row mass sup_t ∫|image(t, ·)| dx
    seen along the way (the natural denominator for per-time mean checks).
    Half-line kernels restrict the lattice to x > 0; the volume weights keep
    only the time truncation, which shifts the constant, not the exponent.
    For T the far rows and the moment's far nodes come from one far-field
    series (heatop.far_field); see _annulus_images.
    """
    if f.grid.n != 1:
        raise ValueError("image certification lattices are one-dimensional")
    if f.grid.t_min < 0:
        raise ValueError("T acts on functions on X; grid must start at t >= 0")
    x0 = _x0(Q)
    annuli, lattices = [], []
    for j in range(1, J + 1):
        ann = Annulus(Q, j)
        R = ann.outer.radius
        rows, wts = _annulus_rows(ann.outer, f.grid, rows_target)
        if j == 1:
            # the first annulus contains the support of f, where the active
            # slab leaves the cell jumps of g in the image; nodes aligned with
            # the input midpoints integrate the piecewise-constant part exactly
            hx = f.grid.h
            k_lo = math.floor((x0 - R + f.grid.length) / hx)
            k_hi = math.ceil((x0 + R + f.grid.length) / hx)
            xs = -f.grid.length + (np.arange(k_lo, k_hi) + 0.5) * hx
        else:
            hx = 2.0 * R / nx_loc
            xs = x0 - R + (np.arange(nx_loc) + 0.5) * hx
        if not spec.is_whole:
            xs = xs[xs > 0.0]
        annuli.append((ann, wts, hx))
        lattices.append((rows, xs))
    series = far_field(f, spec) if op == "T" else None
    norms = []
    row_l1_max = 0.0
    images = _annulus_images(f, lattices, spec, op, series)
    for (ann, wts, hx), (rows, xs), vals in zip(annuli, lattices, images):
        msk = ann.mask(rows[:, None], xs[None, :])
        acc = float(np.where(msk, vals**2, 0.0).sum(axis=1) @ wts) * hx
        row_l1_max = max(row_l1_max, float(np.abs(vals).sum(axis=1).max()) * hx)
        norms.append(math.sqrt(acc) * math.sqrt(truncated_volume(ann.outer)))
    outer = dilate(Q, 2.0 ** (J + 1))
    R = outer.radius
    win = (x0 - R, x0 + R) if spec.is_whole else (0.0, x0 + R)
    moment = _window_moment(
        f, spec, op, win, max(0.0, outer.t0 - R**2), outer.t0 + R**2
    )
    report = MoleculeReport(Q, alpha, tuple(range(1, J + 1)), tuple(norms), moment)
    return report, row_l1_max


def _sup_atom(grid: SpaceTimeGrid, mask: np.ndarray, rng, Q: ParabolicBall) -> GridFunction:
    """Random bump field on the mask, demeaned there, with sup norm 1/ν(Q ∩ X)."""
    vals = _bump_field(grid, mask, rng)
    vals[mask] -= vals[mask].mean()
    peak = np.abs(vals).max()
    if peak == 0.0:
        raise ValueError("degenerate sample; use another seed")
    vals /= peak * truncated_volume(Q)
    return GridFunction(grid, vals)


def random_hz_atom(seed: int) -> tuple[GridFunction, ParabolicBall]:
    """Random (1, ∞)-atom for the zero-extension space, on its own small grid.

    Supported in Q ∩ X with sup norm 1/ν(Q ∩ X) and vanishing mean there;
    roughly a third of the balls straddle the t = 0 face.
    """
    rng = np.random.default_rng(seed)
    r = float(rng.uniform(0.2, 0.45))
    if rng.random() < 0.35:
        t0 = float(rng.uniform(0.3, 0.9)) * r * r
    else:
        t0 = float(rng.uniform(1.0, 5.0)) * r * r
    x0 = float(rng.uniform(-0.25, 0.25))
    Q = ball(t0, x0, r)
    grid = SpaceTimeGrid(1, 0.8, 40, 0.0, 1.05 * (t0 + r * r), 14)
    return _sup_atom(grid, Q.mask(*grid.mesh()), rng, Q), Q


def _moment_scale(a: GridFunction, Q: ParabolicBall) -> float:
    """ν(Q ∩ X)^(1/2) ‖a‖₂: the scale an image moment of a is measured against."""
    return math.sqrt(truncated_volume(Q)) * lp_norm(a, 2)


# -- experiments ------------------------------------------------------------------

@experiment(
    claim=(
        "The slab-telescoped evaluation of Tf(t,x) = ∫₀ᵗ Δe^((t-s)Δ) f(s,·)(x) ds "
        "agrees with an independent Duhamel quadrature to within the spatial "
        "quadrature budget, and the gap shrinks at fourth order when the mesh "
        "is halved."
    ),
    reads=("seed", "n", "oracle_inputs", "oracle_grid", "oracle_rel",
           "oracle_factor", "oracle_improvement"),
    gates=(
        Gate("max_rel_error", "<=", "oracle_rel"),
        Gate("max_gap_over_budget", "<=", "oracle_factor"),
        Gate("min_refinement_gain", ">=", "oracle_improvement"),
    ),
)
def telescoping_oracle(settings: Settings) -> Measurement:
    """Telescoped evaluation of T against the independent Duhamel quadrature.

    Over random smooth inputs: the L² gap stays within oracle_factor times the
    spatial quadrature budget, the relative error is below oracle_rel, and
    halving h shrinks the gap by at least oracle_improvement (the comparison
    rule is fourth order in h).
    """
    L, nx, T, nt = settings.oracle_grid
    grid = SpaceTimeGrid(1, L, int(nx), 0.0, T, int(nt))
    fine = SpaceTimeGrid(1, L, 2 * int(nx), 0.0, T, int(nt))
    seeds = [settings.seed * 100003 + i for i in range(settings.oracle_inputs)]
    coarse = [GridFunction(grid, _smooth_field(seed, grid)) for seed in seeds]
    refined = [GridFunction(fine, _smooth_field(seed, fine)) for seed in seeds]
    refs, refs2 = duhamel_reference(coarse), duhamel_reference(refined)
    images, images2 = apply_T_each(coarse), apply_T_each(refined)
    rels, factors, improvements = [], [], []
    for f, Tf, ref, Tf2, ref2 in zip(coarse, images, refs, images2, refs2):
        gap = lp_norm(Tf - ref, 2)
        rels.append(gap / lp_norm(ref, 2))
        factors.append(gap / spatial_quadrature_error(f, U_SWITCH * grid.tau))
        gap2 = lp_norm(Tf2 - ref2, 2)
        improvements.append(gap / gap2 if gap2 > 0 else math.inf)
    return Measurement(
        parameters={"grid": asdict(grid), "inputs": settings.oracle_inputs,
                    "u_switch": U_SWITCH * grid.tau},
        measured={
            "max_rel_error": max(rels),
            "max_gap_over_budget": max(factors),
            "min_refinement_gain": min(improvements),
            "rel_errors": rels,
        },
    )


@experiment(
    alias="certify_T",
    claim=(
        "For random (1,∞)-atoms a supported in Q ∩ X, Ta is a mean-zero "
        "molecule: annulus norms satisfy M_j ≤ C 2^(-jα) with fitted α ≥ 1/2 "
        "and constants in a uniform band, |∫ Ta| is negligible against "
        "ν(Q)^(1/2) ‖a‖₂, and the spatial mean of Ta(t,·) vanishes at every "
        "sampled time."
    ),
    reads=("seed", "n", "n_atoms", "alpha", "J", "uniformity_band",
           "moment_rel_tol", "mean_times", "mean_value_tol"),
    gates=(
        Gate("min_fitted_alpha", "fit>=", "alpha"),
        Gate("constant_band", "<=", "uniformity_band"),
        Gate("max_moment_rel", "<=", "moment_rel_tol"),
        Gate("max_mean_rel", "<=", "mean_value_tol"),
    ),
)
def atom_images(settings: Settings) -> Measurement:
    """Ta is a mean-zero molecule, uniformly over random (1, ∞)-atoms.

    Per atom: fitted decay exponent ≥ alpha, moment below moment_rel_tol, and
    at mean_times sampled times the spatial mean of Ta(t, ·) below
    mean_value_tol relative to the largest single-time mass.  Across atoms the
    molecule constants stay inside a uniformity_band factor band.
    """
    fitted, constants, moments, means = [], [], [], []
    l1_diag = []
    for i in range(settings.n_atoms):
        seed = settings.seed * 7919 + i
        a, Q = random_hz_atom(seed)
        report, row_l1 = image_molecule_report(a, Q, "T", settings.alpha, settings.J)
        fitted.append(report.fitted_alpha)
        constants.append(report.constant)
        moments.append(abs(report.moment) / _moment_scale(a, Q))
        # sampled-time spatial means, exact-in-x window masses
        rng = np.random.default_rng(seed + 1)
        t_top = a.grid.t_max
        ts = np.exp(rng.uniform(math.log(0.05 * t_top), math.log(2.0 * t_top),
                                settings.mean_times))
        reach = 0.8 + 8.0 * np.sqrt(ts)
        mean_max = float(np.abs(image_window(a, ts, -reach, reach)).max(initial=0.0))
        means.append(mean_max / row_l1 if row_l1 > 0 else 0.0)
        if i < 5:
            l1_diag.append(row_l1 * math.sqrt(truncated_volume(Q)) /
                           _moment_scale(a, Q))
    band = max(constants) / min(constants)
    return Measurement(
        parameters={"n_atoms": settings.n_atoms, "J": settings.J,
                    "mean_times": settings.mean_times},
        measured={
            "min_fitted_alpha": min(fitted),
            "constant_band": band,
            "constants": constants,
            "max_moment_rel": max(moments),
            "max_mean_rel": max(means),
            "peak_time_mass_diagnostic": l1_diag,
        },
        notes=("peak_time_mass_diagnostic is reported, not gated",),
    )


def _tstar_atom(kind: AtomKind, seed: int) -> tuple[GridFunction, ParabolicBall]:
    rng = np.random.default_rng(seed)
    r = float(rng.uniform(0.15, 0.3))
    if kind is AtomKind.TYPE_A:
        t0 = float(rng.uniform(16.5, 22.0)) * r * r
    else:
        t0 = float(rng.uniform(4.4, 14.0)) * r * r
    x0 = float(rng.uniform(-0.2, 0.2))
    Q = ball(t0, x0, r)
    t_lo = max(0.0, t0 - 1.2 * r * r)
    grid = SpaceTimeGrid(1, 0.7, 36, t_lo, t0 + 1.05 * r * r, 14)
    return make_atom(grid, Q, kind, seed=seed), Q


@experiment(
    alias="certify_Tstar",
    claim=(
        "T* maps interior atoms (4Q ⊆ X, mean zero) to mean-zero molecules, "
        "and boundary atoms (2Q ⊆ X, 4Q ⊄ X, no moment) to images whose "
        "annulus norms decay strictly faster than 2^(-j), consistent with "
        "exp(-c·4^j); T*a vanishes identically past the support in time."
    ),
    reads=("seed", "n", "n_tstar_atoms", "alpha", "J", "moment_rel_tol",
           "bfit_min"),
    gates=(
        Gate("min_fitted_interior", "fit>=", "alpha"),
        Gate("max_moment_rel_interior", "<=", "moment_rel_tol"),
        Gate("min_fitted_boundary", ">=", "bfit_min"),
        Gate("anticausal_max", "==", 0.0),
    ),
)
def tstar_images(settings: Settings) -> Measurement:
    """T* sends boundary-adapted atoms to molecules, faster for the boundary kind.

    Interior atoms (4Q ⊆ X): mean-zero molecules with fitted exponent ≥ alpha.
    Boundary-band atoms (2Q ⊆ X only): fitted exponent ≥ bfit_min — the
    anticausal image dies off Gaussian-fast in the annulus index.
    Anticausality itself is checked exactly: T*a(t, ·) = 0 once t clears the
    support.

    Neither moment can fail.  ∫ Δe^{uΔ}g dx = 0 for any g, so on the whole
    line a window moment is only the flux through the window's ends; T*'s
    lags are at most t_max, far too short to carry mass to ends 2^(J+1) r
    away, and both moments read 0.0 at seeds 0-19.  The interior gate thus
    certifies only that the corner jumps sum to zero.
    """
    fitted_a, moments_a, fitted_b, moments_b = [], [], [], []
    anticausal_max = 0.0
    for i in range(settings.n_tstar_atoms):
        seed = settings.seed * 6007 + i
        a, Qa = _tstar_atom(AtomKind.TYPE_A, seed)
        rep, _ = image_molecule_report(a, Qa, "Tstar", settings.alpha, settings.J)
        fitted_a.append(rep.fitted_alpha)
        moments_a.append(abs(rep.moment) / _moment_scale(a, Qa))
        b, Qb = _tstar_atom(AtomKind.TYPE_B, seed)
        rep_b, _ = image_molecule_report(b, Qb, "Tstar", settings.alpha, settings.J)
        fitted_b.append(rep_b.fitted_alpha)
        moments_b.append(abs(rep_b.moment) / _moment_scale(b, Qb))
        # discrete anticausality: zero above the last slab edge carrying mass
        # (the grid smears the support top t0 + r² by at most one slab)
        last = np.flatnonzero(np.abs(b.values).max(axis=1))[-1]
        t_past = float(b.grid.t_edges[last + 1])
        probe = image_rows(b, [t_past], np.linspace(-0.6, 0.6, 9), op="Tstar")[0]
        anticausal_max = max(anticausal_max, float(np.abs(probe).max()))
    return Measurement(
        parameters={"n_atoms_per_kind": settings.n_tstar_atoms, "J": settings.J},
        measured={
            "min_fitted_interior": min(fitted_a),
            "max_moment_rel_interior": max(moments_a),
            "min_fitted_boundary": min(fitted_b),
            "max_moment_rel_boundary": max(moments_b),
            "anticausal_max": anticausal_max,
        },
        notes=("boundary-kind moments are recorded, not gated",),
    )


# Gauss–Legendre nodes per panel for the two growth integrals; both integrands
# are analytic inside each panel, so the rule converges geometrically there
_PANEL_ORDER = 16


def _box(grid: SpaceTimeGrid) -> GridFunction:
    """The indicator box f = χ_{(0,1)×(-1,1)} sampled at the cell midpoints of grid."""
    tt, xx = grid.mesh()
    return GridFunction(grid, ((tt < 1.0) & (np.abs(xx) < 1.0)).astype(float))


# the box on its own cell: one cell, one slab
_BOX = _box(SpaceTimeGrid(1, 1.0, 1, 0.0, 1.0, 1))


def _box_cone_integral(a: float, b: float) -> float:
    """∫_a^b ∫_{|x| ≤ √t/2} |Tf| dx dt for f = χ_{(0,1)×(-1,1)}, exact in x.

    For t ≥ 1 the slab is completed and Tf(t, ·) is single-signed (negative)
    on the cone |x| ≤ √t/2, so |Tf| integrates to minus the window integral.
    The slab's last kink is at t = 1 ≤ a, so the window is smooth in t on
    [a, b]; it decays like a power of t, so dyadic panels [a, 2a], [2a, 4a], …
    keep every panel equally well resolved.  One window call takes every node.
    """
    ts, ws = map(np.ravel, _panels(_dyadic_edges(a, b), _PANEL_ORDER))
    W = 0.5 * np.sqrt(ts)
    return -float(ws @ image_window(_BOX, ts, -W, W))


@experiment(
    alias="counterexample_T",
    claim=(
        "For the indicator f = χ_{(0,1)×(-1,1)}, which has a finite "
        "atomic-norm certificate, the truncated mass I(T) = ∫₄ᵀ∫_{|x|≤√t/2} "
        "|Tf| grows logarithmically: dyadic increments I(2T) - I(T) are "
        "positive and near-constant, so Tf is not integrable and T cannot map "
        "into an L¹-embedded space."
    ),
    reads=("n", "growth_T_values", "dyadic_spread"),
    gates=(
        Gate("min_dyadic_increment", ">", 0.0),
        Gate("dyadic_spread", "<=", "dyadic_spread"),
        Gate("log_slope", ">", 0.0),
        Gate("cone_sign_max", "<=", 0.0),
        Gate("h1r_bound_finite", "==", True),
    ),
)
def growth_T(settings: Settings) -> Measurement:
    """T of an indicator box leaves no Hardy-type space: logarithmic mass growth.

    I(T) = ∫_4^T ∫_{|x| ≤ √t/2} |Tf| with f = χ_{(0,1)×(-1,1)} grows like
    c log T: the dyadic increments I(2T) - I(T) are positive and level within
    dyadic_spread, the least-squares slope against log T is positive, while
    finite_norm_bound still certifies the same f with a finite bound.  I(T)
    is exact in x and takes 16 Gauss–Legendre nodes per dyadic panel in t; the
    panels start at t = 4, past the slab's completion at t = 1, so the
    integrand has no kink inside any of them.
    """
    Ts = (4.0,) + tuple(settings.growth_T_values)
    I = {}
    acc = 0.0
    for a, b in zip(Ts[:-1], Ts[1:]):
        acc += _box_cone_integral(a, b)
        I[b] = acc
    vals = [I[T] for T in settings.growth_T_values]
    diffs = [b - a for a, b in zip(vals[:-1], vals[1:])]
    spread = (max(diffs) - min(diffs)) / min(diffs) if min(diffs) > 0 else math.inf
    logs = np.log([T for T in settings.growth_T_values])
    slope, intercept = np.polyfit(logs, vals, 1)
    resid = float(np.abs(np.asarray(vals) - (slope * logs + intercept)).max())
    # single-signedness spot check on the cone: 21 points across |x| <= √t/2
    # at each of 37 times, each time on its own row of points, in one call
    ts = np.linspace(4.0, max(Ts), 37)
    W = 0.5 * np.sqrt(ts)
    sign_max = float(image_rows(_BOX, ts, np.linspace(-W, W, 21, axis=1)).max())
    # the same box is certified by the odd-extension route
    bound = finite_norm_bound(_box(SpaceTimeGrid(1, 4.0, 64, 0.0, 4.0, 32)))
    return Measurement(
        parameters={"T_values": list(settings.growth_T_values), "t_start": 4.0},
        measured={
            "growth_table": [[float(T), float(I[T])] for T in settings.growth_T_values],
            "dyadic_increments": diffs,
            "min_dyadic_increment": min(diffs),
            "dyadic_spread": spread,
            "log_slope": float(slope),
            "fit_residual_max": resid,
            "cone_sign_max": sign_max,
            "h1r_bound": bound.value,
            "h1r_bound_finite": math.isfinite(bound.value),
        },
        notes=("growth_table columns: T, I_T",),
    )


def _kernel_dt_mass(u: float) -> float:
    """c(u) = ∫_R |∂_u p_u(x)| dx for n = 1, on Gauss–Legendre panels in |x|.

    ∂_u p_u(x) changes sign at the kink x* = √(2u), so one panel covers
    [0, x*] and forty panels of width √u cover [x*, x* + 40√u]; past that the
    Gaussian tail is below e^{-400}.  One kernel call takes every node.
    """
    xstar = math.sqrt(2.0 * u)
    edges = np.concatenate(([0.0], xstar + math.sqrt(u) * np.arange(41.0)))
    xs, ws = map(np.ravel, _panels(edges, _PANEL_ORDER))
    return 2.0 * float(ws @ np.abs(gauss_kernel_dt(u, xs * xs, 1)))


@experiment(
    alias="counterexample_Tstar",
    claim=(
        "The kernel mass c = ∫ |∂_t p_t(x)| dx equals √(2/π)·e^(-1/2) at "
        "t = 1 and scales like c/t, so the truncated double integral "
        "G(T) = ∫₁ᵀ ∫ |∂_u p_u| dx du grows like c·ln T without bound."
    ),
    reads=("n", "c_abs_tol", "slope_rel_tol"),
    gates=(
        Gate("c_gap", "<=", "c_abs_tol"),
        Gate("slope_rel_gap", "<=", "slope_rel_tol"),
    ),
)
def growth_Tstar(settings: Settings) -> Measurement:
    """The time-derivative kernel mass diverges logarithmically under truncation.

    c = ∫|∂_t p_t(x)| dx at t = 1 on Gauss–Legendre panels in x that break at
    the kink x* = √2, where ∂_t p_1 changes sign (`_kernel_dt_mass`), matches
    the closed form sqrt(2/π) e^{-1/2} to c_abs_tol; the time-truncated mass
    G(T) = ∫_1^T ∫|∂_t p_u| dx du, eight Gauss nodes per dyadic panel in u with
    the inner integral taken the same way at every node, grows with slope c
    against log T to within slope_rel_tol.
    """
    c = _kernel_dt_mass(1.0)
    scaling = max(abs(u * _kernel_dt_mass(u) - c) / c for u in (2.0, 17.0, 230.0))
    T_values = (4.0, 16.0, 64.0, 256.0, 1024.0)
    edges = _dyadic_edges(1.0, T_values[-1])
    us, ws = _panels(edges, 8)
    cs = np.array([[_kernel_dt_mass(float(u)) for u in row] for row in us])
    G = dict(zip(edges[1:], np.cumsum((ws * cs).sum(axis=1))))
    logs = np.log(T_values)
    slope, _ = np.polyfit(logs, [G[T] for T in T_values], 1)
    return Measurement(
        parameters={"T_values": list(T_values), "t_min": 1.0},
        measured={
            "c_quadrature": c,
            "c_closed_form": C_TSTAR,
            "c_gap": abs(c - C_TSTAR),
            "scaling_defect": scaling,
            "growth_table": [[float(T), float(G[T])] for T in T_values],
            "log_slope": float(slope),
            "slope_rel_gap": abs(slope - c) / c,
        },
        notes=("growth_table columns: T, I_T",),
    )


@experiment(
    claim=(
        "Restriction to the half-space decomposes classical atoms exactly "
        "(zero residual) into interior/boundary atoms with Whitney cover "
        "overlap within the dimensional bound; even-extension decompositions "
        "reconstruct at rounding scale; truncating a molecule expansion at "
        "level J leaves a residual of C·2^(-Jα) with C logged."
    ),
    reads=("seed", "n", "n_roundtrip_balls", "n_hz_given", "alpha",
           "hz_residual_tol", "molecule_tail_constant"),
    gates=(
        Gate("overlap_max", "<=", WHITNEY_OVERLAP_BOUND[1], dims=(1,)),
        Gate("overlap_max", "<=", WHITNEY_OVERLAP_BOUND[2], dims=(2,)),
        Gate("hz_residual_max", "<=", "hz_residual_tol", dims=(1,)),
        Gate("molecule_tail_constant_max", "<=", "molecule_tail_constant", dims=(1,)),
    ),
    dims=(1, 2),
)
def roundtrips(settings: Settings) -> Measurement:
    """Decomposition round trips at their advertised exactness.

    Restriction: zero residual and in-bound cover overlap on random straddling
    balls.  Even-extension: residual at rounding scale.  Molecule reduction:
    tail residual C 2^(-J alpha) with C logged.

    With n=2 only the restriction leg runs (bound 64 instead of 16); the
    remaining legs are one-dimensional in this battery.
    """
    if settings.n == 2:
        grid_N = SpaceTimeGrid(2, 1.0, 20, -0.5, 0.5, 40)
    else:
        grid_N = SpaceTimeGrid(1, 3.0, 48, -2.0, 2.0, 64)
    balls = []
    for i in range(settings.n_roundtrip_balls):
        rng = np.random.default_rng(settings.seed * 4001 + i)
        if settings.n == 2:
            r = float(rng.uniform(0.15, 0.4))
            x0 = tuple(rng.uniform(-0.4, 0.4, size=2))
        else:
            r = float(rng.uniform(0.3, 0.9))
            x0 = float(rng.uniform(-2.0, 2.0))
        balls.append(ball(float(rng.uniform(0.15, 0.95)) * r * r, x0, r))
    overlaps, constants = [], []
    # one batch per run of atoms holding about CHUNK grid values, so the
    # atoms and the batch's arrays stay small whatever n_roundtrip_balls is
    for run in chunk_slices([math.prod(grid_N.shape)] * len(balls)):
        atoms = [make_atom(grid_N, Q, AtomKind.CLASSICAL_2, seed=i)
                 for i, Q in enumerate(balls[run], run.start)]
        for dec in restrict_decompose_each(atoms, balls[run]):
            if dec.residual != 0.0:
                raise AssertionError("restriction residual must be exactly zero")
            overlaps.append(dec.ledger["overlap_max"])
            constants.append(dec.ledger["coefficient_constant_raw"])
    parameters = {"n": settings.n, "n_balls": settings.n_roundtrip_balls}
    measured = {"restrict_residual_max": 0.0,
                "overlap_max": max(overlaps),
                "coefficient_constant_max": max(constants)}
    overlap_note = (f"whitney overlap bound: {WHITNEY_OVERLAP_BOUND[settings.n]} "
                    f"(n = {settings.n})")
    if settings.n == 2:
        return Measurement(parameters=parameters, measured=measured,
                           notes=("restriction leg only: the even-extension and "
                                  "molecule legs are one-dimensional", overlap_note))
    hz_resid = []
    grid_hz = SpaceTimeGrid(1, 4.0, 64, -6.0, 6.0, 96)
    for i in range(settings.n_hz_given):
        rng = np.random.default_rng(settings.seed * 5003 + i)
        terms = []
        for k in range(2):
            r = float(rng.uniform(0.6, 1.2))
            Qk = ball(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-2.5, 2.5)), r)
            Ak = make_atom(grid_hz, Qk, AtomKind.CLASSICAL_2, seed=i * 10 + k)
            c = float(rng.uniform(0.5, 2.0))
            terms.append(Term(c, Ak, Qk, AtomKind.CLASSICAL_2))
            Qm = ball(-Qk.t0, Qk.center.x, r)
            terms.append(Term(c, time_reflect(Ak), Qm, AtomKind.CLASSICAL_2))
        given = Decomposition(terms=tuple(terms), residual=0.0)
        f = restrict(given.reconstruct())
        out = hz_decompose(f, given)
        hz_resid.append(out.residual / max(1.0, lp_norm(f, 1)))
    mol_grid = SpaceTimeGrid(1, 1.8, 72, 0.0, 2.6, 104)
    mol_ball = ball(0.02, 0.0, 0.05)
    tail_constants = []
    for J in (2, 3, 4):
        m = make_molecule(mol_grid, mol_ball, alpha=settings.alpha, J=J,
                          seed=settings.seed, moment_profile="geometric")
        dec = molecule_decompose(m, mol_ball, alpha=settings.alpha, J=J)
        tail_constants.append(dec.residual * 2.0 ** (J * settings.alpha))
    parameters.update(n_hz_given=settings.n_hz_given, alpha=settings.alpha)
    measured.update(hz_residual_max=max(hz_resid),
                    molecule_tail_constants=tail_constants,
                    molecule_tail_constant_max=max(tail_constants))
    return Measurement(parameters=parameters, measured=measured, notes=(overlap_note,))


def _norm_ratio_table(base: SpaceTimeGrid, seed: int, inputs: int, exponents):
    """sup ‖Tf‖ₚ/‖f‖ₚ for each p, over smooth inputs, on base and two refinements.

    The inputs are the _smooth_field samples of seeds seed, …, seed + inputs - 1,
    so every grid sees the same functions.  Returns the three grids and, per p,
    the list of their sups, coarsest first.
    """
    grids = [base, base.refine(), base.refine().refine()]
    table: dict[float, list[float]] = {p: [] for p in exponents}
    for grid in grids:
        fields = [GridFunction(grid, _smooth_field(seed + i, grid)) for i in range(inputs)]
        images = apply_T_each(fields)
        for p in exponents:
            table[p].append(max(lp_norm(g, p) / lp_norm(f, p)
                                for f, g in zip(fields, images)))
    return grids, table


@experiment(
    claim=(
        "T is bounded on L²: the empirical operator norm over a fixed random "
        "input family drifts by a bounded fraction under dyadic refinement."
    ),
    reads=("seed", "n", "l2_inputs", "l2_drift"),
    gates=(Gate("max_drift", "<=", "l2_drift"),),
)
def l2_stability(settings: Settings) -> Measurement:
    """The empirical L² operator norm of T is stable under dyadic refinement.

    The sup of ‖Tf‖₂/‖f‖₂ over smooth random inputs, recomputed on three
    dyadically refined grids, drifts by at most l2_drift between neighbours.
    """
    grids, table = _norm_ratio_table(SpaceTimeGrid(1, 2.0, 24, 0.0, 2.0, 12),
                                     settings.seed * 3001, settings.l2_inputs, (2,))
    sups = table[2]
    drifts = [abs(b - a) / a for a, b in zip(sups[:-1], sups[1:])]
    return Measurement(
        parameters={"grids": [asdict(g) for g in grids],
                    "inputs": settings.l2_inputs},
        measured={"operator_norms": sups, "max_drift": max(drifts)},
    )


@experiment(
    claim=(
        "Empirical Lᵖ→Lᵖ ratios of T stay stable under refinement for p > 1, "
        "while the L¹ mass ratio grows with the time horizon — the loss is "
        "specific to p = 1."
    ),
    reads=("seed", "n", "l2_inputs", "lp_exponents", "lp_ratio_max",
           "lp1_growth_min"),
    gates=(
        Gate("max_refinement_ratio", "<=", "lp_ratio_max"),
        Gate("l1_min_step", ">", 0.0),
        Gate("l1_growth_ratio", ">=", "lp1_growth_min"),
        Gate("zero_image_norm", "==", 0.0),
    ),
)
def lp_probe(settings: Settings) -> Measurement:
    """Empirical Lᵖ → Lᵖ ratios: stable for p > 1, growing mass for p = 1.

    For each p the sup of ‖Tf‖ₚ/‖f‖ₚ over smooth inputs may grow by at most
    lp_ratio_max per dyadic refinement.  The p = 1 contrast drives the
    indicator box through growing time horizons at fixed resolution and wants
    strictly growing ratios (the logarithmic mass escaping any L¹ bound).
    The zero input maps to ratio zero.
    """
    grids, table = _norm_ratio_table(SpaceTimeGrid(1, 2.0, 16, 0.0, 2.0, 8),
                                     settings.seed * 2003, settings.l2_inputs,
                                     settings.lp_exponents)
    ratio_max = max(b / a for sups in table.values()
                    for a, b in zip(sups[:-1], sups[1:]))
    l1_ratios = []
    for t_max in (4.0, 16.0, 64.0):
        L = 2.0 * math.sqrt(t_max)
        f = _box(SpaceTimeGrid(1, L, int(L / 0.125), 0.0, t_max, int(t_max / 0.25)))
        l1_ratios.append(lp_norm(apply_T(f), 1) / lp_norm(f, 1))
    zero = GridFunction(grids[0], np.zeros(grids[0].shape))
    zero_norm = lp_norm(apply_T(zero), 2)
    return Measurement(
        parameters={"exponents": list(settings.lp_exponents),
                    "l1_horizons": [4.0, 16.0, 64.0]},
        measured={
            "ratio_tables": {str(p): sups for p, sups in table.items()},
            "max_refinement_ratio": ratio_max,
            "l1_contrast_ratios": l1_ratios,
            "l1_growth_ratio": l1_ratios[-1] / l1_ratios[0],
            "l1_min_step": min(b - a for a, b in zip(l1_ratios[:-1], l1_ratios[1:])),
            "zero_image_norm": zero_norm,
        },
    )


def _wall_atom(x0: float, r: float, seed: int, nx: int = 48,
               length: float = 1.0) -> tuple[GridFunction, ParabolicBall]:
    """Mean-zero sup-normalised atom at distance x0 from the wall, t0 = 2r²."""
    Q = ball(2.0 * r * r, x0, r)
    grid = SpaceTimeGrid(1, length, nx, 0.0, 1.05 * (Q.t0 + r * r), 12)
    mesh = grid.mesh()
    mask = Q.mask(*mesh) & (mesh[1] > 0.0)
    return _sup_atom(grid, mask, np.random.default_rng(seed), Q), Q


def _wall_moments(spec: KernelSpec, settings: Settings):
    """The measurement of both wall experiments: three atoms, one horizon.

    Conservative vs absorbing wall: the mean of Ta survives or dies with mass.
    Neumann: the image kernel conserves mass, so every atom keeps
    |∬ Ta| ≤ neumann_moment_max relative.  Dirichlet: the atom hugging the
    wall (x0 = r) leaks mass and its moment exceeds dirichlet_moment_min,
    while an atom at x0 ≥ 20 √t_max behaves like the whole-space one.  In both
    regimes the near-wall image still certifies annulus decay.

    The moment is taken over the horizon (0, 4 t_max) × Ω: past the support
    the absorbing wall eventually drains every image to mean zero, so the
    dichotomy lives in the transient just after the atom switches off.
    Returns the relative moments of the near, mid and far atoms, the molecule
    report of the near atom's image and the run parameters; each wall
    experiment builds its own record from them and declares its own gates.
    """
    r = 0.25
    near, Q_near = _wall_atom(r, r, seed=settings.seed * 11 + 1)
    mid, Q_mid = _wall_atom(3.0 * r, r, seed=settings.seed * 11 + 2)
    far_x = 20.0 * math.sqrt(1.05 * 3.0 * r * r) + r
    far, Q_far = _wall_atom(far_x, r, seed=settings.seed * 11 + 3,
                            nx=384, length=far_x + 2.0 * r)

    def moment_rel(a: GridFunction, Q: ParabolicBall) -> float:
        horizon = 4.0 * a.grid.t_max
        win = (0.0, _x0(Q) + 2.0 * Q.radius + 8.0 * math.sqrt(horizon))
        m = _window_moment(a, spec, "T", win, 0.0, horizon)
        return abs(m) / _moment_scale(a, Q)

    rels = (moment_rel(near, Q_near), moment_rel(mid, Q_mid), moment_rel(far, Q_far))
    report, _ = image_molecule_report(near, Q_near, "T", settings.alpha,
                                      settings.J, spec=spec)
    parameters = {"radius": r, "near_x0": r, "far_x0": far_x,
                  "moment_horizon": 4.0 * near.grid.t_max}
    return rels, report, parameters


@experiment(
    claim=(
        "With an absorbing wall the image mean over a fixed transient horizon "
        "survives at order one for an atom at distance r from the wall and is "
        "negligible for a far atom: no uniform mean-value identity holds."
    ),
    reads=("seed", "n", "alpha", "J", "dirichlet_moment_min", "far_moment_max"),
    gates=(
        Gate("near_moment_rel", ">=", "dirichlet_moment_min"),
        Gate("far_moment_rel", "<=", "far_moment_max"),
        Gate("near_fitted_alpha", "fit>=", "alpha"),
    ),
)
def boundary_dirichlet(settings: Settings) -> Measurement:
    """Absorbing wall: the image mean survives near the wall, dies far away."""
    (near, mid, far), report, parameters = _wall_moments(
        KernelSpec(boundary=HALF_LINE_DIRICHLET), settings)
    return Measurement(parameters=parameters, measured={
        "near_moment_rel": near, "mid_moment_rel": mid, "far_moment_rel": far,
        "near_fitted_alpha": report.fitted_alpha})


@experiment(
    claim=(
        "With a conservative wall the image kernel preserves mass, so the "
        "mean of Ta over the transient horizon vanishes for every atom, near "
        "or far from the wall."
    ),
    reads=("seed", "n", "alpha", "J", "neumann_moment_max"),
    gates=(
        Gate("max_moment_rel", "<=", "neumann_moment_max"),
        Gate("near_fitted_alpha", "fit>=", "alpha"),
    ),
)
def boundary_neumann(settings: Settings) -> Measurement:
    """Conservative wall: the image mean vanishes for every atom."""
    rels, report, parameters = _wall_moments(KernelSpec(boundary=HALF_LINE_NEUMANN),
                                             settings)
    return Measurement(parameters=parameters, measured={
        "max_moment_rel": max(rels), "near_fitted_alpha": report.fitted_alpha,
        "moment_rels": list(rels)})


EXPERIMENTS: dict[str, Experiment] = {e.name: e for e in (
    telescoping_oracle,
    atom_images,
    tstar_images,
    growth_T,
    growth_Tstar,
    roundtrips,
    l2_stability,
    lp_probe,
    boundary_dirichlet,
    boundary_neumann,
)}


def run_experiment(name: str, settings: Settings = Settings()) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    return EXPERIMENTS[name](settings)

"""Atoms and molecules for the parabolic Hardy spaces, with certificates.

Grid functions are identified with their cell-midpoint samples, so "supported
in Q" means: zero on every cell whose midpoint lies outside Q.  All size and
moment checks below are exact statements about the grid function (cell sums),
not about an underlying continuum object; certificates record the measured
slack so callers can decide how much quadrature error they will tolerate.

Four kinds of atom are certified:

``classical_inf``
    (1, infinity)-atom on N = R x R^n: support in a parabolic ball Q,
    ``|a| <= 1/nu(Q)`` pointwise, and vanishing moment.
``classical_2``
    (1, 2)-atom on N: support in Q, ``||a||_2 <= nu(Q)^(-1/2)``, vanishing
    moment.
``type_a``
    halfspace atom whose ball satisfies 4Q ⊆ X; support in Q, L2 size bound,
    vanishing moment.
``type_b``
    halfspace atom sitting near the boundary: 2Q ⊆ X but 4Q ⊄ X; support in
    Q and the L2 size bound, with *no* moment condition.

A molecule adapted to Q decays across the dyadic annuli B_j of Q:
``M_j = nu(2^(j+1) Q ∩ X)^(1/2) * ||m||_{L2(B_j)} <= 2^(-j alpha)``.
`molecule_report` measures the M_j on a grid and fits the decay exponent.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .space import (
    Annulus,
    ParabolicBall,
    ball_masks,
    ball_volume,
    dilate,
    halfspace_flags,
    truncated_volume,
)
from .grid import (
    GridFunction,
    SpaceTimeGrid,
    chunk_slices,
    integrate,
    lp_norm,
)

# slack on a fitted decay exponent: the fit is a float least-squares solve, and
# an exact-profile molecule can land an ulp under its own target
FIT_SLACK = 1e-9

# validate_atom's relative slack on support leakage, the size bound and the
# moment: atoms are built in floating point, so exact tests would reject them
ATOM_TOL = 1e-8


class AtomKind(str, enum.Enum):
    CLASSICAL_INF = "classical_inf"
    CLASSICAL_2 = "classical_2"
    TYPE_A = "type_a"
    TYPE_B = "type_b"

    @property
    def uses_sup_norm(self) -> bool:
        return self is AtomKind.CLASSICAL_INF

    @property
    def on_halfspace(self) -> bool:
        return self in (AtomKind.TYPE_A, AtomKind.TYPE_B)

    @property
    def needs_moment(self) -> bool:
        return self is not AtomKind.TYPE_B

    def fits(self, Q: ParabolicBall) -> bool:
        """Whether Q sits where this kind's atoms live: 4Q ⊆ X for type (a),
        2Q ⊆ X but 4Q ⊄ X for type (b), anywhere for the classical kinds."""
        if not self.on_halfspace:
            return True
        two_in, four_in = halfspace_flags(Q)
        return four_in if self is AtomKind.TYPE_A else (two_in and not four_in)


@dataclass(frozen=True)
class AtomCertificate:
    """Measured evidence that a grid function is an atom of the stated kind.

    size_slack is (norm of a) * (size bound denominator); an exact atom has
    slack <= 1.  moment_rel is |∫a| / (nu(Q)^(1/2) ||a||_2), the scale-free
    moment defect (Cauchy-Schwarz makes the denominator an upper bound for
    any support-respecting function, so moment_rel <= 1 always).
    """

    kind: AtomKind
    ball: ParabolicBall
    support_ok: bool
    geometry_ok: bool
    size_slack: float
    moment: float
    moment_rel: float
    tol: float

    @property
    def passed(self) -> bool:
        ok = self.support_ok and self.geometry_ok and self.size_slack <= 1.0 + self.tol
        if self.kind.needs_moment:
            ok = ok and self.moment_rel <= self.tol
        return ok


def validate_atom_each(As: Sequence[GridFunction], Qs: Sequence[ParabolicBall],
                       kind: AtomKind) -> list[AtomCertificate]:
    """Certify every input as an atom of one kind adapted to its ball, in order.

    The inputs share one grid.  Their ball masks come from one broadcast over
    the grid (ball_masks) and their norms and moments from one reduction over
    a stack of inputs, CHUNK elements at a time; each row is reduced as the
    input's own array would be, so every number is the one-input number.
    validate_atom is the one-input case.  The caller is responsible for the
    grid covering each ball (use ``grid.covers_ball``); support outside the
    grid box is invisible here.
    """
    kind = AtomKind(kind)
    As, Qs = list(As), list(Qs)
    if len(As) != len(Qs):
        raise ValueError("need one ball per input")
    if not As:
        return []
    grid = As[0].grid
    if any(a.grid != grid for a in As):
        raise ValueError("the inputs of one call must share one grid")
    peak, outside, sq, total = (np.empty(len(As)) for _ in range(4))
    for s in chunk_slices([math.prod(grid.shape)] * len(As)):
        V = np.stack([a.values for a in As[s]]).reshape(s.stop - s.start, -1)
        total[s] = V.sum(axis=1)
        V = np.abs(V, out=V)
        peak[s] = V.max(axis=1)
        beyond = ~ball_masks(Qs[s], *grid.mesh()).reshape(V.shape)
        outside[s] = V.max(axis=1, where=beyond, initial=0.0)
        sq[s] = np.square(V, out=V).sum(axis=1)

    certs = []
    cm = grid.cell_measure
    for Q, pk, out, s2, tot in zip(Qs, *(x.tolist() for x in (peak, outside, sq, total))):
        vol = ball_volume(Q)
        l2 = (s2 * cm) ** 0.5  # lp_norm(a, 2)
        moment = tot * cm  # integrate(a)
        certs.append(AtomCertificate(
            kind=kind,
            ball=Q,
            support_ok=out <= ATOM_TOL * max(pk, 1.0),
            geometry_ok=kind.fits(Q),
            size_slack=pk * vol if kind.uses_sup_norm else l2 * math.sqrt(vol),
            moment=moment,
            moment_rel=abs(moment) / (math.sqrt(vol) * l2) if l2 > 0 else 0.0,
            tol=ATOM_TOL,
        ))
    return certs


def validate_atom(a: GridFunction, Q: ParabolicBall, kind: AtomKind) -> AtomCertificate:
    """Certify a as an atom of the given kind adapted to Q: validate_atom_each
    of the one input."""
    return validate_atom_each([a], [Q], kind)[0]


def _bump_field(grid: SpaceTimeGrid, mask: np.ndarray, rng, bumps: int = 3) -> np.ndarray:
    """Sum of a few random anisotropic Gaussian bumps centred on cells of the mask.

    The bumps are evaluated at the mask cells only and scattered into a zero
    grid; each cell takes the same operations in the same order as a
    full-grid evaluation would.
    """
    idx = np.argwhere(mask)
    if idx.size == 0:
        raise ValueError("ball does not meet the grid")
    t_span = float(np.ptp(grid.ts[idx[:, 0]])) + grid.tau
    x_span = grid.h * (float(np.ptp(idx[:, 1:])) + 1.0)
    tt, xxs = grid.ts[idx[:, 0]], [grid.xs[i] for i in idx[:, 1:].T]
    on_mask = 0.0
    for _ in range(bumps):
        c = idx[rng.integers(len(idx))]
        st = rng.uniform(0.2, 0.6) * t_span
        sx = rng.uniform(0.2, 0.6) * x_span
        w = rng.uniform(0.25, 1.0) * (-1.0, 1.0)[rng.integers(2)]
        expo = ((tt - grid.ts[c[0]]) / st) ** 2
        for axis, xx in enumerate(xxs):
            expo = expo + ((xx - grid.xs[c[1 + axis]]) / sx) ** 2
        on_mask = on_mask + w * np.exp(-expo)
    vals = np.zeros(grid.shape)
    vals[mask] = on_mask
    return vals


def make_atom(
    grid: SpaceTimeGrid,
    Q: ParabolicBall,
    kind: AtomKind,
    seed: int = 0,
) -> GridFunction:
    """Random atom of the given kind adapted to Q, normalised to equality in
    the size bound.  Moment-bearing kinds are demeaned on the support, so the
    cell-sum moment vanishes to rounding; a field that cancels there (one
    support cell, for those kinds) raises ValueError."""
    kind = AtomKind(kind)
    if not grid.covers_ball(Q, clip_time=kind.on_halfspace):
        raise ValueError("grid does not cover the ball")
    if not kind.fits(Q):
        raise ValueError(f"ball geometry does not match {kind.value}")

    rng = np.random.default_rng(seed)
    mask = Q.mask(*grid.mesh())
    vals = _bump_field(grid, mask, rng)
    if kind.needs_moment:
        vals[mask] -= vals[mask].mean()
    if np.abs(vals).max() < 1e-12:
        raise ValueError(f"random field cancels on the {int(mask.sum())} support cells of Q")

    vol = ball_volume(Q)
    if kind.uses_sup_norm:
        vals /= np.abs(vals).max() * vol
    else:
        l2 = math.sqrt((vals**2).sum() * grid.cell_measure)
        vals /= l2 * math.sqrt(vol)
    return GridFunction(grid, vals)


# -- molecules ----------------------------------------------------------------

def fit_decay_exponent(js, norms) -> float:
    """Least-squares slope of -log2(M_j) against j, over the strictly positive
    M_j.  Returns inf when fewer than two usable points remain (all the mass
    decayed below floating point)."""
    js = np.asarray(js, dtype=float)
    norms = np.asarray(norms, dtype=float)
    keep = norms > 0
    if keep.sum() < 2:
        return math.inf
    slope, _ = np.polyfit(js[keep], -np.log2(norms[keep]), 1)
    return float(slope)


@dataclass(frozen=True)
class MoleculeReport:
    """Annulus-by-annulus decay record for a candidate molecule.

    weighted_norms[j-1] = nu(2^(j+1)Q ∩ X)^(1/2) * L2 norm over the annulus
    B_j.  constant = max_j 2^(j alpha) M_j is the smallest c for which
    M_j <= c 2^(-j alpha) holds along the measured range.
    """

    ball: ParabolicBall
    alpha: float
    js: tuple[int, ...]
    weighted_norms: tuple[float, ...]
    moment: float
    fitted_alpha: float = field(init=False)
    constant: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "fitted_alpha", fit_decay_exponent(self.js, self.weighted_norms))
        cs = [2.0 ** (j * self.alpha) * m for j, m in zip(self.js, self.weighted_norms)]
        object.__setattr__(self, "constant", float(max(cs)) if cs else 0.0)

    def certifies(self) -> bool:
        """Decay at least as fast as the target alpha.

        The exponent comparison allows FIT_SLACK (1e-9) of slack.
        """
        return self.fitted_alpha >= self.alpha - FIT_SLACK


def molecule_report(
    m: GridFunction, Q: ParabolicBall, alpha: float = 0.5, J: int = 8
) -> MoleculeReport:
    """Measure the annulus decay of m around Q on its own grid.

    Requires the grid to cover 2^(J+1) Q ∩ X, so every annulus is fully
    resolved; weights use the exact truncated ball volumes, the L2 norms are
    cell sums.
    """
    grid = m.grid
    if not grid.over_halfspace():
        raise ValueError("molecules live on X; grid must have t_min == 0")
    if not grid.covers_ball(dilate(Q, 2.0 ** (J + 1)), clip_time=True):
        raise ValueError("grid does not cover the outermost annulus")
    mesh = grid.mesh()
    norms = []
    for j in range(1, J + 1):
        ann = Annulus(Q, j)
        w = math.sqrt(truncated_volume(ann.outer))
        norms.append(w * lp_norm(m, 2, where=ann.mask(*mesh)))
    outer = dilate(Q, 2.0 ** (J + 1)).mask(*mesh)
    moment = integrate(m, where=outer)
    return MoleculeReport(
        ball=Q,
        alpha=alpha,
        js=tuple(range(1, J + 1)),
        weighted_norms=tuple(norms),
        moment=float(moment),
    )


def make_molecule(
    grid: SpaceTimeGrid,
    Q: ParabolicBall,
    alpha: float = 0.5,
    J: int = 4,
    seed: int = 0,
    moment_profile: str = "zero",
) -> GridFunction:
    """Random molecule hitting M_j = 2^(-j alpha) exactly on each annulus.

    Each annulus carries an independent bump field rescaled so the weighted
    norm equals its target; annuli the grid cannot see are required to be
    nonempty (raise otherwise).

    moment_profile controls the per-annulus integrals I_j = ∫_{B_j} m:
      "zero":      every I_j = 0 (each annulus field is demeaned), so the
                   molecule has an exactly vanishing integral;
      "geometric": I_1 = c 2^{-alpha}, I_j = c (2^{-j alpha} - 2^{-(j-1) alpha})
                   with c = 0.3, so the running integral over 2^{j+1}Q ∩ X is
                   exactly c 2^{-j alpha} — the worst admissible tail profile,
                   exhibiting truncation residuals that decay like 2^{-J alpha}.
    """
    if moment_profile not in ("zero", "geometric"):
        raise ValueError("moment_profile must be 'zero' or 'geometric'")
    if not grid.covers_ball(dilate(Q, 2.0 ** (J + 1)), clip_time=True):
        raise ValueError("grid does not cover the outermost annulus")
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    vals = np.zeros(grid.shape)
    c_mom = 0.3
    for j in range(1, J + 1):
        ann = Annulus(Q, j)
        mask = ann.mask(*mesh)
        if not mask.any():
            raise ValueError(f"annulus j={j} contains no grid cells")
        f = _bump_field(grid, mask, rng, bumps=2)
        f[mask] -= f[mask].mean()  # fluctuation part: zero annulus integral
        if moment_profile == "zero":
            target_I = 0.0
        elif j == 1:
            target_I = c_mom * 2.0 ** (-alpha)
        else:
            target_I = c_mom * (2.0 ** (-j * alpha) - 2.0 ** (-(j - 1) * alpha))
        nu_j = mask.sum() * grid.cell_measure  # grid measure of the annulus
        beta = target_I / nu_j
        target_sq = (2.0 ** (-j * alpha)) ** 2 / truncated_volume(ann.outer)
        fluct_sq = target_sq - beta * beta * nu_j
        if fluct_sq < 0:
            raise ValueError("moment profile incompatible with the norm target")
        l2 = math.sqrt((f**2).sum() * grid.cell_measure)
        if l2 == 0.0:
            raise ValueError(f"annulus j={j} too small to carry a fluctuation")
        vals += f * (math.sqrt(fluct_sq) / l2)
        vals[mask] += beta
    return GridFunction(grid, vals)

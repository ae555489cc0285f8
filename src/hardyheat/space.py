"""Parabolic geometry on N = R x R^n and on the half-space X = (0, inf) x R^n.

Points carry a time coordinate t and a spatial coordinate x in R^n (n = 1 or 2).
The quasi-distance is d((t,x),(s,y)) = max(|x-y|, |t-s|^(1/2)), so a ball of
radius r is the product of the open time interval (t0 - r^2, t0 + r^2) with the
open Euclidean ball B(x0, r).  All volumes are exact closed forms.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Lebesgue measure of the Euclidean unit ball in R^n.
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi}


@dataclass(frozen=True)
class SpacePoint:
    """A point (t, x) of N; x is a tuple of n floats, n in {1, 2}."""

    t: float
    x: tuple[float, ...]

    def __post_init__(self):
        if len(self.x) not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {len(self.x)}")
        if not (math.isfinite(self.t) and all(math.isfinite(c) for c in self.x)):
            raise ValueError("coordinates must be finite")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class ParabolicBall:
    """Open ball Q = I(t0, r^2) x B(x0, r) for the parabolic quasi-distance."""

    center: SpacePoint
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def n(self) -> int:
        return self.center.n

    @property
    def t0(self) -> float:
        return self.center.t

    @property
    def time_interval(self) -> tuple[float, float]:
        r2 = self.radius**2
        return (self.t0 - r2, self.t0 + r2)

    def mask(self, t, *xs) -> np.ndarray:
        """Vectorised membership for broadcastable coordinate arrays."""
        if len(xs) != self.n:
            raise ValueError("dimension mismatch")
        lo, hi = self.time_interval
        inside = in_time_interval(np.asarray(t), lo, hi)
        return inside & in_section((np.asarray(x) for x in xs), self.center.x, self.radius**2)


def in_time_interval(t, lo, hi) -> np.ndarray:
    """The time test of a parabolic ball: lo < t < hi, both strict.

    With in_section, the one definition of ball membership: ParabolicBall.mask,
    ball_masks and the first-owner pass of a Whitney restriction all take it,
    so their masks agree bit for bit.
    """
    return (t > lo) & (t < hi)


def in_section(xs, centre, r2) -> np.ndarray:
    """The spatial test of a parabolic ball: the sum over axes, in axis order,
    of (x - c)^2 is below r2, strictly."""
    return sum((x - c) ** 2 for x, c in zip(xs, centre)) < r2


def ball_masks(Qs: Sequence[ParabolicBall], t, *xs) -> np.ndarray:
    """Q.mask(t, *xs) of every ball in Qs, stacked on a new first axis.

    One broadcast over the coordinates for all balls, with the tests of
    ParabolicBall.mask, so every slice equals that ball's own mask.
    """
    if any(Q.n != len(xs) for Q in Qs):
        raise ValueError("dimension mismatch")
    t, xs = np.asarray(t), [np.asarray(x) for x in xs]
    at = (len(Qs),) + (1,) * max(a.ndim for a in (t, *xs))
    lo, hi = np.array([Q.time_interval for Q in Qs]).reshape(len(Qs), 2).T
    centres = np.array([Q.center.x for Q in Qs]).reshape(len(Qs), len(xs)).T
    r2 = np.array([Q.radius**2 for Q in Qs])
    inside = in_time_interval(t, lo.reshape(at), hi.reshape(at))
    return inside & in_section(xs, (c.reshape(at) for c in centres), r2.reshape(at))


def ball(t0: float, x0, radius: float) -> ParabolicBall:
    """Convenience constructor; x0 may be a scalar (n = 1) or a pair."""
    if np.isscalar(x0):
        x0 = (float(x0),)
    return ParabolicBall(SpacePoint(float(t0), tuple(float(c) for c in x0)), float(radius))


def ball_volume(Q: ParabolicBall) -> float:
    """nu(Q) = 2 r^2 * omega_n r^n, exactly."""
    return 2.0 * Q.radius**2 * UNIT_BALL_VOLUME[Q.n] * Q.radius**Q.n


def truncated_volume(Q: ParabolicBall) -> float:
    """nu(Q ∩ X): the time interval is clipped to (0, inf), the section is unchanged."""
    lo, hi = Q.time_interval
    span = max(0.0, hi - max(lo, 0.0))
    return span * UNIT_BALL_VOLUME[Q.n] * Q.radius**Q.n


def dilate(Q: ParabolicBall, theta: float) -> ParabolicBall:
    """theta * Q: same center, radius theta*r (so time extent scales by theta^2)."""
    if theta <= 0.0:
        raise ValueError("dilation factor must be positive")
    return ParabolicBall(Q.center, theta * Q.radius)


def scaled_in_halfspace(Q: ParabolicBall, theta: float = 1.0) -> bool:
    """Whether theta*Q is contained in X, i.e. t0 - (theta r)^2 >= 0.

    The ball is open, so the closure touching {t = 0} still counts as inside.
    """
    return Q.t0 - (theta * Q.radius) ** 2 >= 0.0


def halfspace_flags(Q: ParabolicBall) -> tuple[bool, bool]:
    """(2Q ⊆ X, 4Q ⊆ X); the two geometric thresholds the decompositions branch on."""
    return scaled_in_halfspace(Q, 2.0), scaled_in_halfspace(Q, 4.0)


@dataclass(frozen=True)
class Annulus:
    """Dyadic annulus of a ball, clipped to X.

    j = 1 is the full 4Q ∩ X; for j >= 2 it is (2^(j+1) Q \\ 2^j Q) ∩ X.
    Together over j = 1..J these partition 2^(J+1) Q ∩ X.
    """

    ball: ParabolicBall
    j: int

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("annulus index starts at 1")

    @property
    def outer(self) -> ParabolicBall:
        return dilate(self.ball, 2.0 ** (self.j + 1))

    @property
    def inner(self) -> ParabolicBall | None:
        return dilate(self.ball, 2.0**self.j) if self.j >= 2 else None

    def mask(self, t, *xs) -> np.ndarray:
        m = (np.asarray(t) > 0.0) & self.outer.mask(t, *xs)
        if self.inner is not None:
            m &= ~self.inner.mask(t, *xs)
        return m


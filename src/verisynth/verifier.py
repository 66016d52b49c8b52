"""Verifier geometry: acceptance rule, induced truncation bounds, contraction theory.

A verifier holds an approximate parameter vector (the ball center) and accepts
a candidate pair (x, y) when the residual against its own model is small:

    |y - x . center| <= radius * ||x|| + slack.

Restricted to a unit direction v, acceptance of y = v . theta_hat + sigma * xi
is exactly a truncation of the standard-normal noise xi to an interval, which
is what couples the verifier to the truncated-moment machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidBoundsError, NonUnitDirectionError
from .truncnorm import Bounds, std_moments

#: |  ||v|| - 1 | below this is treated as exactly unit
UNIT_NORM_TOL = 1e-10
#: up to this deviation the direction is silently renormalized; beyond it, error
UNIT_NORM_RENORM_TOL = 1e-6


def default_slack(sigma: float) -> float:
    """Default verifier slack: the mean absolute Gaussian residual sqrt(2/pi)*sigma."""
    return math.sqrt(2.0 / math.pi) * sigma


@dataclass(frozen=True)
class KnowledgeBall:
    """Region of parameter space the verifier treats as plausible.

    center : the verifier's own parameter estimate (1-D array, length p)
    radius : per-unit-covariate residual allowance r >= 0
    slack  : additive residual allowance sigma_c >= 0; radius + slack must be > 0
    """

    center: np.ndarray
    radius: float
    slack: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1 or center.size == 0:
            raise DimensionMismatchError("center must be a nonempty 1-D vector")
        if not np.all(np.isfinite(center)):
            raise InvalidBoundsError("center must be finite")
        if math.isnan(self.radius) or self.radius < 0.0:
            raise InvalidBoundsError(f"radius must be >= 0, got {self.radius}")
        if math.isnan(self.slack) or self.slack < 0.0:
            raise InvalidBoundsError(f"slack must be >= 0, got {self.slack}")
        if not self.half_width > 0.0:
            raise InvalidBoundsError("radius + slack must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "slack", float(self.slack))

    @property
    def dimension(self) -> int:
        return self.center.size

    @property
    def half_width(self) -> float:
        """Half-width of the acceptance band of a unit covariate: radius + slack."""
        return self.radius + self.slack

    def bounds(self, units: np.ndarray, generator_means: np.ndarray, sigma: float) -> np.ndarray:
        """Standardized acceptance intervals of a block, lower and upper stacked:
        entry (:, r, j) is :func:`direction_bounds` of ``units[j]`` at
        ``generator_means[r]``, its offset one ``np.vecdot`` dot product, bit
        for bit the ``v @ x`` of a single direction."""
        offset = np.vecdot((self.center - generator_means)[:, None, :], units)
        return np.add.outer([-self.half_width, self.half_width], offset) / sigma

    def acceptance(self, direction: np.ndarray):
        """The acceptance test, vectorized over responses at covariate x = direction."""
        halfwidth = self.radius * float(np.linalg.norm(direction)) + self.slack
        center_proj = float(direction @ self.center)
        return lambda y: np.abs(y - center_proj) <= halfwidth


@dataclass(frozen=True)
class Interval1D:
    """Plausibility interval (lower, upper) for the scalar-mean verifier: the
    verifier of the p = 1 problem, whose one direction is v = 1."""

    lower: float
    upper: float
    dimension = 1

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise InvalidBoundsError("interval endpoints may not be NaN")
        if not lo < hi:
            raise InvalidBoundsError(f"interval must satisfy lower < upper: ({lo}, {hi})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def half_width(self) -> float:
        """Half the interval's length; inf for a half-line."""
        return 0.5 * (self.upper - self.lower)

    @property
    def midpoint(self) -> float:
        """Interval midpoint; NaN when either endpoint is infinite."""
        if math.isfinite(self.lower) and math.isfinite(self.upper):
            return 0.5 * (self.lower + self.upper)
        return math.nan

    def accepts(self, x: np.ndarray) -> np.ndarray:
        """Acceptance decisions for candidate values; the endpoints are rejected."""
        return (x > self.lower) & (x < self.upper)

    def bounds(self, units, generator_means: np.ndarray, sigma: float) -> np.ndarray:
        """Standardized truncation bounds of each generator mean, lower and upper
        stacked on a leading axis; ``units`` is the direction v = 1, left unread."""
        return np.subtract.outer([self.lower, self.upper], generator_means) / sigma

    def acceptance(self, direction):
        """The acceptance test along the direction v = 1: :meth:`accepts`."""
        return self.accepts


def verify_point(ball: KnowledgeBall, x: np.ndarray, y: float) -> bool:
    """Acceptance decision for one candidate pair; the boundary is accepted."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ball.dimension,):
        raise DimensionMismatchError(
            f"covariate has shape {x.shape}, verifier expects ({ball.dimension},)"
        )
    return bool(ball.acceptance(x)(float(y)))


def _as_unit(direction: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(direction))
    if abs(nrm - 1.0) <= UNIT_NORM_TOL:
        return direction
    if abs(nrm - 1.0) <= UNIT_NORM_RENORM_TOL:
        return direction / nrm
    raise NonUnitDirectionError(f"direction norm {nrm!r} deviates from 1 beyond tolerance")


def unit_directions(directions: np.ndarray) -> np.ndarray:
    """Rows of ``directions`` checked for unit norm (renormalized within tolerance)."""
    return np.array([_as_unit(v) for v in directions])


def direction_bounds(
    ball: KnowledgeBall, direction: np.ndarray, generator_mean: np.ndarray, sigma: float
) -> Bounds:
    """Standardized acceptance interval for noise along a unit direction.

    For covariate x = v (unit norm) and response y = v . generator_mean + sigma * xi,
    acceptance by the ball is equivalent to xi falling in the returned bounds:

        ( -(radius + slack) + v . (center - generator_mean) ) / sigma
        up to
        ( +(radius + slack) + v . (center - generator_mean) ) / sigma
    """
    if not sigma > 0.0:
        raise InvalidBoundsError(f"sigma must be positive, got {sigma}")
    direction = np.asarray(direction, dtype=float)
    generator_mean = np.asarray(generator_mean, dtype=float)
    if direction.shape != (ball.dimension,) or generator_mean.shape != (ball.dimension,):
        raise DimensionMismatchError(
            f"direction {direction.shape} / mean {generator_mean.shape} vs dimension {ball.dimension}"
        )
    lower, upper = ball.bounds(_as_unit(direction)[None], generator_mean[None], sigma)
    return Bounds(lower[0, 0], upper[0, 0])


def interval_bounds_1d(interval: Interval1D, generator_mean: float, sigma: float) -> Bounds:
    """Standardized truncation bounds for scalar noise under an interval verifier."""
    if not sigma > 0.0:
        raise InvalidBoundsError(f"sigma must be positive, got {sigma}")
    return Bounds(*interval.bounds(None, generator_mean, sigma))


def contraction_rate(verifier: KnowledgeBall | Interval1D, sigma: float) -> float:
    """Per-round contraction factor rho of the verified retraining dynamics.

    rho equals the variance of a standard normal truncated to the symmetric
    interval of standardized half-width ``verifier.half_width / sigma``; it
    lies in (0, 1], approaching 0 for a maximally selective verifier and 1
    for a vacuous one (a wide verifier rounds to exactly 1). A half-line has
    no contraction rate.
    """
    if not sigma > 0.0:
        raise InvalidBoundsError(f"sigma must be positive, got {sigma}")
    halfwidth = verifier.half_width / sigma
    if not math.isfinite(halfwidth):
        raise InvalidBoundsError("contraction rate requires a finite half-width")
    return std_moments(Bounds(-halfwidth, halfwidth)).m2


def long_term_bound(
    rho: float, initial_sq_error: float, schedule: np.ndarray, k: int, scale: float = 1.0
) -> float:
    """k-round contraction bound on the squared distance to the verifier's center.

    Evaluates rho^(2k) * initial_sq_error + scale * sum_{j<k} rho^(2(k-j)-1) / n_j
    for a contraction rate rho in (0, 1] and per-direction counts n_j. The 1-D
    problem uses scale 1 in standardized units (multiply by sigma^2); the
    regression problem passes scale = p * sigma^2. At rho = 1 (a vacuous
    verifier) it is the unfiltered random walk, initial + scale * sum 1/n_j.
    """
    if not 0.0 < rho <= 1.0:
        raise InvalidBoundsError(f"rho must lie in (0, 1], got {rho}")
    if initial_sq_error < 0.0:
        raise InvalidBoundsError("initial squared error must be >= 0")
    schedule = np.asarray(schedule, dtype=float)
    if k < 0 or k > schedule.size:
        raise InvalidBoundsError(f"k must lie in [0, len(schedule)], got {k}")
    if k == 0:
        return float(initial_sq_error)
    j = np.arange(k)
    noise = np.sum(rho ** (2 * (k - j) - 1) / schedule[:k])
    return float(rho ** (2 * k) * initial_sq_error + scale * noise)

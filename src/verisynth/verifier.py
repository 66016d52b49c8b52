"""Verifier geometry: the acceptance rule and the truncation bounds it induces.

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

from .errors import DimensionMismatchError, InvalidBoundsError
from .truncnorm import Bounds

#: most | ||v|| - 1 | of a direction taken as unit; a farther one is refused
UNIT_NORM_TOL = 1e-10


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
        """The acceptance test, vectorized over responses at covariate x = direction;
        the boundary is accepted."""
        if np.shape(direction) != (self.dimension,):
            raise DimensionMismatchError(f"covariate has shape {np.shape(direction)}, "
                                         f"verifier expects ({self.dimension},)")
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


def direction_bounds(
    ball: KnowledgeBall, direction: np.ndarray, generator_mean: np.ndarray, sigma: float
) -> Bounds:
    """Standardized acceptance interval for noise along a unit direction;
    a direction more than UNIT_NORM_TOL off unit norm raises InvalidBoundsError.

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
    norm = float(np.linalg.norm(direction))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        raise InvalidBoundsError(f"direction norm {norm!r} is more than {UNIT_NORM_TOL} off 1")
    lower, upper = ball.bounds(direction[None], generator_mean[None], sigma)
    return Bounds(lower[0, 0], upper[0, 0])


def interval_bounds_1d(interval: Interval1D, generator_mean: float, sigma: float) -> Bounds:
    """Standardized truncation bounds for scalar noise under an interval verifier."""
    if not sigma > 0.0:
        raise InvalidBoundsError(f"sigma must be positive, got {sigma}")
    return Bounds(*interval.bounds(None, generator_mean, sigma))

"""Scalar-mean retraining dynamics under an interval verifier.

One retraining round replaces the current mean estimate with the empirical mean
of n_k synthetic samples drawn from N(current, sigma^2) and filtered to the
verifier's interval (a, b):

    mean_{k+1} = mean_k + sigma * average of n_k draws of
                 Z | Z in ((a - mean_k)/sigma, (b - mean_k)/sigma).

In standardized coordinates the conditional-expectation map is
T(x) = x + m1(alpha - x, beta - x); its slope is the shifted variance factor
v(x) = m2(alpha - x, beta - x), so for a finite interval the dynamics contract
toward the interval midpoint at rate rho = m2 of the centered interval. The
closed-form one-step risk implemented here and the k-round contraction bound
(:func:`verisynth.verifier.long_term_bound`) quantify that picture.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundsError, VerisynthError
from .kernel import FILTER_DIRECT, FILTER_REJECT, retrain_coords
from .truncnorm import Bounds, std_moments
from .verifier import Interval1D, interval_bounds


class RegimeWarning(UserWarning):
    """The closed-form prediction is being used outside its accuracy regime."""


@dataclass(frozen=True)
class Gaussian1DConfig:
    """Scalar retraining problem: true mean, noise scale, verifier interval, schedule."""

    true_mean: float
    sigma: float
    interval: Interval1D
    n0: int
    schedule: np.ndarray
    filter_mode: str = FILTER_DIRECT

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise InvalidBoundsError(f"sigma must be positive, got {self.sigma}")
        if self.n0 < 1:
            raise InvalidBoundsError(f"n0 must be >= 1, got {self.n0}")
        schedule = np.asarray(self.schedule, dtype=int)
        if schedule.ndim != 1:
            raise InvalidBoundsError("schedule must be a 1-D integer array (may be empty)")
        if np.any(schedule < 1):
            raise InvalidBoundsError("schedule entries must be >= 1")
        if np.any(np.diff(schedule) < 0):
            raise InvalidBoundsError("schedule must be non-decreasing")
        if self.filter_mode not in (FILTER_DIRECT, FILTER_REJECT):
            raise InvalidBoundsError(f"unknown filter mode {self.filter_mode!r}")
        object.__setattr__(self, "schedule", schedule)

    @property
    def rounds(self) -> int:
        return int(self.schedule.size)


@dataclass(frozen=True)
class Trajectory1D:
    """Per-round records of one scalar retraining run.

    Index k = 0 is the real-data estimate; k >= 1 follows retraining rounds.
    ``dist_midpoint`` is |mean - interval midpoint|, NaN when the interval has
    no finite midpoint.
    """

    rounds: np.ndarray
    means: np.ndarray
    dist_midpoint: np.ndarray

    def __len__(self) -> int:
        return int(self.rounds.size)


def initial_mean(config: Gaussian1DConfig, rng: np.random.Generator) -> float:
    """Real-data estimate: mean of n0 i.i.d. N(true_mean, sigma^2) draws."""
    draws = config.true_mean + config.sigma * rng.standard_normal(config.n0)
    return float(draws.mean())


def step_block(means: np.ndarray, config: Gaussian1DConfig, n_k: int, streams, label=None):
    """One retraining round for a block of mean estimates: the kernel at p = 1, v = 1."""
    bounds = accept = None
    if config.filter_mode == FILTER_DIRECT:
        bounds = interval_bounds(config.interval, means, config.sigma)
    else:
        accept = [config.interval.accepts]
    return retrain_coords(means[:, None], config.sigma, config.filter_mode, n_k, streams,
                          label, bounds=bounds, accept=accept)[:, 0]


def retrain_step(
    current_mean: float, config: Gaussian1DConfig, n_k: int, rng: np.random.Generator
) -> float:
    """One retraining round from ``current_mean`` using ``n_k`` verified samples."""
    if n_k < 1:
        raise InvalidBoundsError(f"n_k must be >= 1, got {n_k}")
    means = np.array([current_mean], dtype=float)
    return float(step_block(means, config, n_k, [rng].__getitem__)[0])


def run_iterations(config: Gaussian1DConfig, rng: np.random.Generator) -> Trajectory1D:
    """Full trajectory: real-data estimate followed by len(schedule) retraining rounds."""
    mid = config.interval.midpoint
    means = np.empty(config.rounds + 1)
    means[0] = initial_mean(config, rng)
    streams = [rng].__getitem__
    for k, n_k in enumerate(config.schedule, start=1):
        try:
            means[k] = step_block(means[k - 1 : k], config, int(n_k), streams)[0]
        except VerisynthError as exc:
            raise type(exc)(f"retraining round {k}: {exc}") from exc
    dist = np.abs(means - mid) if math.isfinite(mid) else np.full_like(means, math.nan)
    return Trajectory1D(np.arange(config.rounds + 1), means, dist)


def one_step_mse_prediction_1d(bounds: Bounds, n0: int, n1: int) -> float:
    """Closed-form one-step MSE of the retrained mean, in units of sigma^2.

    ``bounds`` is the standardized verifier interval relative to the true mean.
    The expansion is accurate when n1 > n0 >= 100; outside that regime the
    value is still returned but a RegimeWarning is emitted.
    """
    if n0 < 1 or n1 < 1:
        raise InvalidBoundsError(f"sample counts must be >= 1, got n0={n0}, n1={n1}")
    if not (n1 > n0 >= 100):
        warnings.warn(
            f"prediction derived for n1 > n0 >= 100; called with n0={n0}, n1={n1}",
            RegimeWarning,
            stacklevel=2,
        )
    m = std_moments(bounds)
    return float(m.m2 / n1 + m.m1 ** 2 + (m.m2 ** 2 + m.m3 * m.m1) / n0)


def retraining_map(bounds: Bounds, x: float) -> float:
    """Deterministic infinite-sample update T(x) = x + m1(bounds shifted by x)."""
    return x + std_moments(bounds.shifted(x)).m1


def retraining_map_slope(bounds: Bounds, x: float) -> float:
    """Slope of the deterministic update, identically the shifted variance factor."""
    return std_moments(bounds.shifted(x)).m2


def hitting_time(trajectory: Trajectory1D, level: float, direction: str = "down") -> int | None:
    """First round index whose mean estimate crosses ``level``; None if never.

    direction="down" looks for mean <= level, "up" for mean >= level.
    """
    if direction == "down":
        hits = np.nonzero(trajectory.means <= level)[0]
    elif direction == "up":
        hits = np.nonzero(trajectory.means >= level)[0]
    else:
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    return int(hits[0]) if hits.size else None

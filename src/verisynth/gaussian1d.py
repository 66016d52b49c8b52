"""Scalar-mean retraining dynamics under an interval verifier.

One retraining round replaces the current mean estimate with the empirical mean
of n_k synthetic samples drawn from N(current, sigma^2) and filtered to the
verifier's interval (a, b):

    mean_{k+1} = mean_k + sigma * average of n_k draws of
                 Z | Z in ((a - mean_k)/sigma, (b - mean_k)/sigma).

A round is the p = 1 case of the retraining kernel (direction v = 1). Its
closed forms, the one-step risk, the infinite-sample update map and the
contraction toward the interval midpoint, are in :mod:`verisynth.theory`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundsError, VerisynthError
from .kernel import FILTER_DIRECT, FILTER_REJECT, BlockRound
from .linreg import LinRegConfig, SpectralDesign
from .verifier import Interval1D

#: the spectral design of the p = 1 problem: one direction, v = 1
ONE_DIRECTION = SpectralDesign(np.ones(1), np.ones((1, 1)))


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


def _block_round(config: Gaussian1DConfig) -> BlockRound:
    return BlockRound(ONE_DIRECTION,
                      LinRegConfig(config.interval, config.sigma, config.filter_mode))


def step_block(means: np.ndarray, config: Gaussian1DConfig, n_k: int, streams, label=None):
    """One retraining round for a block of mean estimates: BlockRound at p = 1, v = 1."""
    return _block_round(config)(means[:, None], n_k, streams, label)[:, 0]


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
    block_round = _block_round(config)
    for k, n_k in enumerate(config.schedule, start=1):
        try:
            means[k] = block_round(means[k - 1 : k, None], int(n_k), streams)[0, 0]
        except VerisynthError as exc:
            raise type(exc)(f"retraining round {k}: {exc}") from exc
    dist = np.abs(means - mid) if math.isfinite(mid) else np.full_like(means, math.nan)
    return Trajectory1D(np.arange(config.rounds + 1), means, dist)


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

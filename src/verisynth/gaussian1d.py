"""Scalar-mean retraining dynamics under an interval verifier.

One retraining round replaces the current mean estimate with the empirical mean
of n_k synthetic samples drawn from N(current, sigma^2) and filtered to the
verifier's interval (a, b):

    mean_{k+1} = mean_k + sigma * average of n_k draws of
                 Z | Z in ((a - mean_k)/sigma, (b - mean_k)/sigma).

A round is the p = 1 case of the regression round: :func:`retrain_step` is
:func:`verisynth.linreg.retrain_round` on the design ``ONE_DIRECTION``
(v = 1) with the verifier ``Interval1D(a, b)``. Its closed forms, the
one-step risk, the infinite-sample update map and the contraction toward the
interval midpoint, are in :mod:`verisynth.theory`.
"""
from __future__ import annotations

import numpy as np

from .config import FILTER_DIRECT
from .linreg import SpectralDesign, retrain_round
from .verifier import Interval1D

#: the spectral design of the p = 1 problem: one direction, v = 1
ONE_DIRECTION = SpectralDesign(np.ones(1), np.ones((1, 1)))


def initial_mean(config, rng: np.random.Generator) -> float:
    """Real-data estimate: mean of n0 i.i.d. N(true_mean, sigma^2) draws.

    Reads ``true_mean``, ``sigma`` and ``n0`` of an iterate_1d ExperimentConfig."""
    draws = config.true_mean + config.sigma * rng.standard_normal(config.n0)
    return float(draws.mean())


def retrain_step(
    current_mean: float, interval: Interval1D, sigma: float, n_k: int,
    rng: np.random.Generator, mode: str = FILTER_DIRECT,
) -> float:
    """One retraining round from ``current_mean`` using ``n_k`` samples verified
    by ``interval`` in filter ``mode``."""
    return float(retrain_round(np.array([current_mean]), ONE_DIRECTION, interval, sigma, n_k,
                               [rng], mode)[0])


def hitting_time(means: np.ndarray, level: float, direction: str = "down") -> int | None:
    """First round index whose mean estimate crosses ``level``; None if never.

    ``means`` holds the estimates of rounds 0, 1, ...; direction="down" looks
    for mean <= level, "up" for mean >= level.
    """
    if direction == "down":
        hits = np.nonzero(means <= level)[0]
    elif direction == "up":
        hits = np.nonzero(means >= level)[0]
    else:
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    return int(hits[0]) if hits.size else None

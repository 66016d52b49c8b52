"""Scalar-mean retraining dynamics under an interval verifier.

One retraining round replaces the current mean estimate with the empirical mean
of n_k synthetic samples drawn from N(current, sigma^2) and filtered to the
verifier's interval (a, b):

    mean_{k+1} = mean_k + sigma * average of n_k draws of
                 Z | Z in ((a - mean_k)/sigma, (b - mean_k)/sigma).

A round is the p = 1 case of the regression round: :func:`retrain_step` is
:func:`verisynth.linreg.retrain_round` on the design ``ONE_DIRECTION``
(v = 1) with a ``LinRegConfig(Interval1D(a, b), sigma, mode)``. Its closed
forms, the one-step risk, the infinite-sample update map and the contraction
toward the interval midpoint, are in :mod:`verisynth.theory`.
"""
from __future__ import annotations

import numpy as np

from .linreg import LinRegConfig, SpectralDesign, retrain_round

#: the spectral design of the p = 1 problem: one direction, v = 1
ONE_DIRECTION = SpectralDesign(np.ones(1), np.ones((1, 1)))


def initial_mean(config, rng: np.random.Generator) -> float:
    """Real-data estimate: mean of n0 i.i.d. N(true_mean, sigma^2) draws.

    Reads ``true_mean``, ``sigma`` and ``n0`` of an iterate_1d ExperimentConfig."""
    draws = config.true_mean + config.sigma * rng.standard_normal(config.n0)
    return float(draws.mean())


def retrain_step(
    current_mean: float, config: LinRegConfig, n_k: int, rng: np.random.Generator
) -> float:
    """One retraining round from ``current_mean`` using ``n_k`` verified samples;
    ``config.ball`` is the verifier's Interval1D."""
    return float(retrain_round(np.array([current_mean]), ONE_DIRECTION, config, n_k, [rng])[0])


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

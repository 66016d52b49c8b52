"""Closed-form theory: one-step risk, contraction rate and k-round bound.

Both problems retrain one spectral coordinate at a time, and the 1-D mean is
the case p = 1 with real-data precision mu^2 = n0. With m1, m2, m3 the moments
of Z | Z in (a, b) at a direction's standardized acceptance bounds, one round
of n1 verified samples has risk sum_j m2/n1 + m1^2 + (m1 m3 + m2^2) / mu_j^2
in units of sigma^2. The update x + m1(a - x, b - x) has slope m2(a - x, b - x),
so rounds contract toward the verifier's center at rho = m2 of the centered band.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, InvalidBoundsError
from .truncnorm import Bounds, Truncations, libm, one_value, std_moments


def _risk(limits: np.ndarray, precisions, n1: int) -> np.ndarray:
    """One-step risk in units of sigma^2 of each verifier, from its directions'
    standardized bounds (``limits`` of shape (2, ..., p), lower and upper
    stacked) and real-data precisions mu^2; NaN where a band carries no mass."""
    m1, m2, m3 = Truncations(limits).moments()
    terms = m2 / n1 + m1 ** 2 + (m1 * m3 + m2 ** 2) / precisions
    total = 0.0
    for j in range(terms.shape[-1]):  # one direction at a time, not a pairwise sum
        total = total + terms[..., j]
    return total


def baseline_mse(design, sigma: float) -> float:
    """Exact OLS risk conditional on the design: sigma^2 * sum_j mu_j^-2."""
    return float(sigma * sigma * np.sum(libm(math.pow, design.singular_values, -2.0)))


def one_step_predictions(design, true_theta: np.ndarray, balls, sigma: float,
                         n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form E||theta_1 - true_theta||^2 after one verified retraining
    round for each verifier in ``balls`` (knowledge balls, or the p = 1
    problem's Interval1D on a design of precision n0), and the predicted log ratio
    0.5 log(baseline_mse / it), formed in units of sigma^2 so that it holds
    where sigma^2 underflows or overflows; both NaN for a verifier with an
    acceptance region at the true parameter that carries no mass."""
    if n1 < 1:
        raise InvalidBoundsError(f"n1 must be >= 1, got {n1}")
    if not sigma > 0.0:
        raise InvalidBoundsError(f"sigma must be positive, got {sigma}")
    true_theta = np.asarray(true_theta, dtype=float)
    dimensions = sorted({ball.dimension for ball in balls})
    if true_theta.shape != (design.dimension,) or dimensions != [design.dimension]:
        raise DimensionMismatchError(f"true_theta shape {true_theta.shape} and ball dimensions "
                                     f"{dimensions} vs design dimension {design.dimension}")
    limits = np.stack([ball.bounds(design.directions, true_theta[None], sigma)[:, 0]
                       for ball in balls], axis=1)
    risk = _risk(limits, design.singular_values ** 2, n1)
    with np.errstate(over="ignore"):  # an MSE beyond the largest double is inf
        return sigma * sigma * risk, 0.5 * libm(math.log, baseline_mse(design, 1.0) / risk)


def one_step_prediction(design, true_theta: np.ndarray, ball, sigma: float, n1: int) -> float:
    """:func:`one_step_predictions` of one verifier. Raises DegenerateIntervalError
    when some direction's acceptance region at the true parameter carries no mass."""
    return one_value(one_step_predictions(design, true_theta, [ball], sigma, n1)[0],
                     "an acceptance region at the true parameter")


def _shifted_moment(bounds: Bounds, x, which: int):
    """Moment ``which`` of ``bounds`` shifted by x: for each x of an array in
    one engine call (NaN where the band carries no mass), or for one float x."""
    shifts = np.atleast_1d(np.asarray(x, dtype=float))
    moment = Truncations(np.array([bounds.lower - shifts, bounds.upper - shifts])).moments()[which]
    return moment if np.ndim(x) else one_value(moment, f"bounds {bounds} shifted by {x}")


def retraining_map(bounds: Bounds, x):
    """Deterministic infinite-sample update T(x) = x + m1(bounds shifted by x)."""
    return x + _shifted_moment(bounds, x, 0)


def retraining_map_slope(bounds: Bounds, x):
    """Slope of the deterministic update, identically the shifted variance factor."""
    return _shifted_moment(bounds, x, 1)


def contraction_rate(verifier, sigma: float) -> float:
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


def long_term_bounds(rho: float, initial_sq_error: float, schedule: np.ndarray,
                     scale: float = 1.0) -> np.ndarray:
    """k-round contraction bounds on the squared distance to the verifier's
    center, for k = 0..len(schedule).

    Entry k is rho^(2k) * initial_sq_error + scale * sum_{j<k} rho^(2(k-j)-1) / n_j
    for a contraction rate rho in (0, 1] and per-direction counts n_j. Both
    problems pass scale = p * sigma^2, which is sigma^2 for the 1-D problem
    (p = 1); the default scale 1 gives the bound in units of sigma^2. At
    rho = 1 (a vacuous verifier) it is the unfiltered random walk, initial +
    scale * sum 1/n_j.
    The odd powers of rho are taken once for all K rounds, not once per round.
    """
    if not 0.0 < rho <= 1.0:
        raise InvalidBoundsError(f"rho must lie in (0, 1], got {rho}")
    if not initial_sq_error >= 0.0:
        raise InvalidBoundsError(f"initial squared error must be >= 0, got {initial_sq_error}")
    schedule = np.asarray(schedule, dtype=float)
    rounds = schedule.size
    odd = libm(math.pow, rho, 2.0 * np.arange(rounds, 0, -1) - 1.0)  # rho^(2K-1), ..., rho
    bounds = np.empty(rounds + 1)
    bounds[0] = initial_sq_error
    for k in range(1, rounds + 1):
        bounds[k] = rho ** (2 * k) * initial_sq_error + scale * np.sum(
            odd[rounds - k:] / schedule[:k])
    return bounds

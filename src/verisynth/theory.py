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
import warnings

import numpy as np

from .errors import DimensionMismatchError, InvalidBoundsError
from .truncnorm import Bounds, std_moments
from .verifier import unit_directions


class RegimeWarning(UserWarning):
    """The closed-form prediction is being used outside its accuracy regime."""


def _risk(limits, precisions, n1: int) -> float:
    """One-step risk in units of sigma^2, from each direction's standardized
    bounds (lower row, upper row) and real-data precision mu^2."""
    total = 0.0
    for lower, upper, mu_sq in zip(*limits, precisions):
        m = std_moments(Bounds(lower, upper))
        total += m.m2 / n1 + m.m1 ** 2 + (m.m1 * m.m3 + m.m2 ** 2) / mu_sq
    return total


def baseline_mse(design, sigma: float) -> float:
    """Exact OLS risk conditional on the design: sigma^2 * sum_j mu_j^-2."""
    return float(sigma * sigma * np.sum(design.singular_values ** -2.0))


def _one_step_risk(design, true_theta: np.ndarray, ball, sigma: float, n1: int) -> float:
    if n1 < 1:
        raise InvalidBoundsError(f"n1 must be >= 1, got {n1}")
    if not sigma > 0.0:
        raise InvalidBoundsError(f"sigma must be positive, got {sigma}")
    true_theta = np.asarray(true_theta, dtype=float)
    if true_theta.shape != (design.dimension,) or ball.dimension != design.dimension:
        raise DimensionMismatchError(f"true_theta shape {true_theta.shape} and ball dimension "
                                     f"{ball.dimension} vs design dimension {design.dimension}")
    limits = ball.bounds(unit_directions(design.directions), true_theta[None], sigma)
    return _risk(limits[:, 0], [float(s) ** 2 for s in design.singular_values], n1)


def one_step_prediction(design, true_theta: np.ndarray, ball, sigma: float, n1: int) -> float:
    """Closed-form E||theta_1 - true_theta||^2 after one verified retraining
    round. Raises DegenerateIntervalError when some direction's acceptance
    region at the true parameter carries no mass."""
    return float(sigma * sigma * _one_step_risk(design, true_theta, ball, sigma, n1))


def one_step_gain(design, true_theta: np.ndarray, ball, sigma: float,
                  n1: int) -> tuple[float, float]:
    """:func:`one_step_prediction` and the predicted log error-reduction ratio
    0.5 log(baseline_mse / it), formed from both risks in units of sigma^2,
    so that it holds where sigma^2 underflows or overflows."""
    risk = _one_step_risk(design, true_theta, ball, sigma, n1)
    return float(sigma * sigma * risk), 0.5 * math.log(baseline_mse(design, 1.0) / risk)


def one_step_mse_prediction_1d(bounds: Bounds, n0: int, n1: int) -> float:
    """Closed-form one-step MSE of the retrained mean, in units of sigma^2.

    ``bounds`` is the standardized verifier interval relative to the true mean.
    The expansion is accurate when n1 > n0 >= 100; outside that regime the
    value is still returned but a RegimeWarning is emitted.
    """
    if n0 < 1 or n1 < 1:
        raise InvalidBoundsError(f"sample counts must be >= 1, got n0={n0}, n1={n1}")
    if not (n1 > n0 >= 100):
        warnings.warn(f"prediction derived for n1 > n0 >= 100; called with n0={n0}, n1={n1}",
                      RegimeWarning, stacklevel=2)
    return float(_risk(([bounds.lower], [bounds.upper]), [n0], n1))


def retraining_map(bounds: Bounds, x: float) -> float:
    """Deterministic infinite-sample update T(x) = x + m1(bounds shifted by x)."""
    return x + std_moments(bounds.shifted(x)).m1


def retraining_map_slope(bounds: Bounds, x: float) -> float:
    """Slope of the deterministic update, identically the shifted variance factor."""
    return std_moments(bounds.shifted(x)).m2


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
    for a contraction rate rho in (0, 1] and per-direction counts n_j. The 1-D
    problem uses scale 1 in standardized units (multiply by sigma^2); the
    regression problem passes scale = p * sigma^2. At rho = 1 (a vacuous
    verifier) it is the unfiltered random walk, initial + scale * sum 1/n_j.
    The odd powers of rho are taken once for all K rounds, not once per round.
    """
    if not 0.0 < rho <= 1.0:
        raise InvalidBoundsError(f"rho must lie in (0, 1], got {rho}")
    if initial_sq_error < 0.0:
        raise InvalidBoundsError("initial squared error must be >= 0")
    schedule = np.asarray(schedule, dtype=float)
    rounds = schedule.size
    odd = rho ** (2 * np.arange(rounds, 0, -1) - 1)  # rho^(2K-1), ..., rho^3, rho
    bounds = np.empty(rounds + 1)
    bounds[0] = initial_sq_error
    for k in range(1, rounds + 1):
        bounds[k] = rho ** (2 * k) * initial_sq_error + scale * np.sum(
            odd[rounds - k:] / schedule[:k])
    return bounds


def long_term_bound(rho: float, initial_sq_error: float, schedule: np.ndarray, k: int,
                    scale: float = 1.0) -> float:
    """The k-round entry of :func:`long_term_bounds` on the first k counts of ``schedule``."""
    schedule = np.asarray(schedule, dtype=float)
    if k < 0 or k > schedule.size:
        raise InvalidBoundsError(f"k must lie in [0, len(schedule)], got {k}")
    return float(long_term_bounds(rho, initial_sq_error, schedule[:k], scale)[k])

"""Scalar retraining dynamics: deterministic map, one-step MSE, bounds, hitting times."""
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import ks_2samp

from verisynth import (
    Bounds,
    DegenerateIntervalError,
    FILTER_REJECT,
    Interval1D,
    InvalidBoundsError,
    KnowledgeBall,
    MaxAttemptsError,
    RankDeficientError,
    SpectralDesign,
    acceptance_probability,
    config_from_mapping,
    hitting_time,
    initial_mean,
    interval_bounds_1d,
    long_term_bounds,
    one_step_prediction,
    retrain_step,
    retraining_map,
    retraining_map_slope,
    sample_truncated,
    std_moments,
    theory_summary,
)
from verisynth.kernel import generate_and_verify

from test_kernel import Untouchable

M2_SYM1 = 0.2911250947727931  # variance factor of the standard normal on (-1, 1)


#: the verifier of most 1-D rounds below
UNIT = Interval1D(-1.0, 1.0)


class TestRetrainingMap:
    def test_symmetric_fixed_point_is_midpoint(self):
        bounds = Bounds(-2.0, 4.0)  # midpoint 1
        assert abs(retraining_map(bounds, 1.0) - 1.0) < 1e-12

    def test_asymmetric_fixed_point(self):
        bounds = Bounds(0.0, 3.0)
        x_star = brentq(lambda x: retraining_map(bounds, x) - x, -5.0, 8.0,
                        xtol=1e-14)
        assert abs(retraining_map(bounds, x_star) - x_star) < 1e-12
        assert 0.0 < x_star < 3.0

    def test_map_moves_toward_interval(self):
        bounds = Bounds(5.0, 7.0)
        assert retraining_map(bounds, 0.0) > 0.0
        assert retraining_map(bounds, 20.0) < 20.0

    def test_slope_bound_gives_contraction(self):
        bounds = Bounds(-1.5, 2.5)
        rho = retraining_map_slope(bounds, 0.5)  # slope peaks at the midpoint
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = 0.5 + 3.0 * rng.standard_normal(2)
            tx, ty = retraining_map(bounds, x), retraining_map(bounds, y)
            assert abs(tx - ty) <= rho * abs(x - y) + 1e-12

    def test_slope_at_midpoint_dominates(self):
        bounds = Bounds(-1.0, 1.0)
        mid_slope = retraining_map_slope(bounds, 0.0)
        assert mid_slope == pytest.approx(M2_SYM1, abs=1e-12)
        for x in np.linspace(-6, 6, 25):
            assert retraining_map_slope(bounds, float(x)) <= mid_slope + 1e-12

    def test_array_call_matches_scalar_calls(self):
        bounds = Bounds(-1.0, 3.0)
        xs = np.array([-40.0, -2.0, 0.5, 1.0, 7.0, 40.0])
        inside = xs[1:-1]
        assert list(retraining_map(bounds, inside)) == [retraining_map(bounds, x) for x in inside]
        slopes = retraining_map_slope(Bounds(40.0, 41.0), xs)
        assert math.isnan(slopes[0]) and slopes[-1] == retraining_map_slope(Bounds(40.0, 41.0), 40.0)
        with pytest.raises(DegenerateIntervalError):
            retraining_map_slope(Bounds(40.0, 41.0), -40.0)


class TestRetrainStep:
    def test_filter_modes_agree_in_distribution(self):
        # the two mechanisms draw from the same truncated law
        interval, sigma = Interval1D(-0.5, 2.0), 1.0
        current = 0.3
        n = 100_000
        bounds = interval_bounds_1d(interval, current, sigma)
        direct = sample_truncated(bounds, n, np.random.default_rng(11))
        rejected = generate_and_verify(
            current, sigma, interval.accepts, acceptance_probability(bounds), n,
            np.random.default_rng(12)
        )
        stat = ks_2samp(direct, rejected).statistic
        assert stat < 1.628 * math.sqrt(2.0 / n)  # two-sample KS, alpha = 0.01

    def test_large_sample_step_matches_map(self):
        interval = Interval1D(0.0, 3.0)
        current = 0.5
        n = 200_000
        bounds = interval_bounds_1d(interval, current, 1.0)
        m = std_moments(bounds)
        new = retrain_step(current, interval, 1.0, n, np.random.default_rng(21))
        target = retraining_map(Bounds(0.0, 3.0), current)
        assert abs(new - target) < 5 * math.sqrt(m.m2 / n)

    def test_symmetric_midpoint_is_stationary_in_mean(self):
        interval = Interval1D(-2.0, 2.0)
        n = 200_000
        rho = std_moments(Bounds(-2.0, 2.0)).m2
        for mode, seed in (("direct", 31), ("reject", 32)):
            new = retrain_step(0.0, interval, 1.0, n, np.random.default_rng(seed), mode)
            assert abs(new) < 5 * math.sqrt(rho / n)

    def test_reject_budget_exhaustion(self):
        with pytest.raises(MaxAttemptsError):
            retrain_step(0.0, Interval1D(10.0, 10.001), 1.0, 1, np.random.default_rng(41),
                         FILTER_REJECT)

    def test_invalid_count(self):
        with pytest.raises(InvalidBoundsError):
            retrain_step(0.0, UNIT, 1.0, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("mode", ["direct", "reject", "none"])
    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
    def test_non_finite_estimate_fails_before_any_draw(self, mode, mean):
        with pytest.raises(InvalidBoundsError, match="theta_hat must be finite"):
            retrain_step(mean, UNIT, 1.0, 5, Untouchable(), mode)


def one_step_1d(lower: float, upper: float, n0: int, n1: int) -> float:
    """One-step MSE of the 1-D mean at true mean 0 and sigma 1: the p = 1
    prediction on the design of precision n0."""
    design = SpectralDesign(np.array([math.sqrt(n0)]), np.array([[1.0]]))
    return one_step_prediction(design, np.zeros(1), Interval1D(lower, upper), 1.0, n1)


def oned_config(mean, sigma, n0, lower, upper, n1, reps=1):
    return config_from_mapping({
        "experiment": "iterate_1d", "replications": reps, "master_seed": 0,
        "problem": {"true_mean": mean, "sigma": sigma, "n0": n0},
        "interval": {"lower": lower, "upper": upper},
        "schedule": {"kind": "fixed", "start": n1, "rounds": 1}})


class TestOneStepPrediction:
    def test_frozen_symmetric_value(self):
        pred = one_step_1d(-1.0, 1.0, n0=100, n1=1000)
        assert pred == pytest.approx(M2_SYM1 / 1000 + M2_SYM1 ** 2 / 100, rel=1e-14)
        assert pred == pytest.approx(1.1386632828e-3, abs=1e-9)

    def test_untruncated_reduces_to_classical(self):
        pred = one_step_1d(-math.inf, math.inf, 200, 500)
        assert pred == pytest.approx(1.0 / 500 + 1.0 / 200, rel=1e-14)

    def test_symmetric_general_form(self):
        m = std_moments(Bounds(-0.7, 0.7))
        pred = one_step_1d(-0.7, 0.7, 150, 600)
        assert pred == pytest.approx(m.m2 / 600 + m.m2 ** 2 / 150, rel=1e-14)

    def test_invalid_counts(self):
        with pytest.raises(InvalidBoundsError):
            one_step_1d(-1.0, 1.0, 10, 0)
        with pytest.raises(RankDeficientError):  # n0 = 0: no real data, no precision
            one_step_1d(-1.0, 1.0, 0, 10)

    @pytest.mark.parametrize("n1", [200, 1000])
    def test_monte_carlo_agreement(self, n1):
        mu, sigma, n0, reps = 0.0, 1.0, 100, 5000
        problem = oned_config(mu, sigma, n0, -1.0, 1.0, n1, reps)
        rng = np.random.default_rng(50 + n1)
        sq = np.empty(reps)
        for i in range(reps):
            m0 = initial_mean(problem, rng)
            m1 = retrain_step(m0, UNIT, sigma, n1, rng)
            sq[i] = ((m1 - mu) / sigma) ** 2
        pred = theory_summary(problem)["one_step_mse"]
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - pred) < 3 * se

    # the 1-D mean is the p = 1 regression whose one singular value is sqrt(n0),
    # and a ball (c, r, 0) along v = 1 is the interval (c - r, c + r)
    @pytest.mark.parametrize("center,radius,mean,sigma,n0,n1", [
        (0.3, 1.0, 0.0, 1.0, 100, 400),
        (-1.2, 0.5, 0.4, 2.0, 150, 1000),
        (2.5, 2.0, -0.5, 0.7, 200, 201),
        (0.0, 0.05, 0.0, 1.0, 1000, 5000),
        (4.0, 1.5, 1.0, 1.0, 100, 150),
    ])
    def test_equals_the_p1_regression_prediction(self, center, radius, mean, sigma, n0, n1):
        config = oned_config(mean, sigma, n0, center - radius, center + radius, n1)
        scalar = theory_summary(config)["one_step_mse"]
        design = SpectralDesign(np.array([math.sqrt(n0)]), np.array([[1.0]]))
        ball = KnowledgeBall(np.array([center]), radius, 0.0)
        regression = one_step_prediction(design, np.array([mean]), ball, sigma, n1)
        assert regression == pytest.approx(scalar, rel=1e-12)


class TestLongTermBound:
    def test_matches_explicit_summation(self):
        rho, init, k = 0.5, 1.0, 10
        schedule = np.full(k, 100)
        expected = rho ** (2 * k) * init
        for j in range(k):
            expected += rho ** (2 * (k - j) - 1) / schedule[j]
        got = long_term_bounds(rho, init, schedule)[k]
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(6.667614e-3, abs=1e-8)

    def test_constant_schedule_limit(self):
        rho, n = 0.5, 100
        schedule = np.full(400, n)
        limit = rho / (n * (1 - rho ** 2))
        assert long_term_bounds(rho, 1.0, schedule)[400] == pytest.approx(
            limit, rel=1e-12)

    def test_k_zero_returns_initial(self):
        assert long_term_bounds(0.3, 2.5, np.array([10]))[0] == 2.5

    def test_every_round_equals_its_definition(self):
        # rho^(2k) underflows to 0 from k = 162 on; every entry is still the sum as defined
        rho, init, scale = 0.1, 3.0, 2.5
        schedule = np.arange(1, 301) * 7
        bounds = long_term_bounds(rho, init, schedule, scale)
        assert bounds.size == schedule.size + 1 and rho ** (2 * 300) == 0.0
        for k in range(schedule.size + 1):
            j = np.arange(k)
            defined = (rho ** (2 * k) * init
                       + scale * np.sum(rho ** (2 * (k - j) - 1) / schedule[:k]) if k else init)
            assert bounds[k] == defined

    def test_long_schedule_is_fast(self):
        config = config_from_mapping({
            "experiment": "iterate_1d", "replications": 1, "master_seed": 0,
            "problem": {"true_mean": 0.0, "sigma": 1.0, "n0": 100},
            "interval": {"lower": -1.0, "upper": 1.0},
            "schedule": {"kind": "fixed", "start": 200, "rounds": 20_000}})
        start = time.perf_counter()
        summary = theory_summary(config)
        elapsed = time.perf_counter() - start
        assert math.isfinite(summary["final_round_bound"])
        assert elapsed < 5.0, f"theory of 20,000 rounds took {elapsed:.1f} s"

    def test_validation(self):
        with pytest.raises(InvalidBoundsError):
            long_term_bounds(1.5, 1.0, np.array([10]))
        with pytest.raises(InvalidBoundsError):
            long_term_bounds(0.0, 1.0, np.array([10]))
        with pytest.raises(InvalidBoundsError):
            long_term_bounds(0.5, -1.0, np.array([10]))


class TestHittingTime:
    def test_downward_crossing(self):
        assert hitting_time(np.array([0.0, -5.0, -12.0]), -10.0) == 2

    def test_never_crosses(self):
        assert hitting_time(np.array([0.0, -5.0, -12.0]), -20.0) is None

    def test_upward_crossing(self):
        means = np.array([0.0, 5.0, 12.0])
        assert hitting_time(means, 10.0, direction="up") == 2
        assert hitting_time(means, 0.0, direction="up") == 0

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            hitting_time(np.array([0.0]), 1.0, direction="sideways")

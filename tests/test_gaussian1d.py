"""Scalar retraining dynamics: deterministic map, one-step MSE, bounds, trajectories."""
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import ks_2samp

from verisynth import (
    Bounds,
    DegenerateIntervalError,
    FILTER_REJECT,
    Gaussian1DConfig,
    Interval1D,
    InvalidBoundsError,
    MaxAttemptsError,
    RegimeWarning,
    Trajectory1D,
    hitting_time,
    initial_mean,
    interval_bounds_1d,
    long_term_bound,
    one_step_mse_prediction_1d,
    retrain_step,
    retraining_map,
    retraining_map_slope,
    run_iterations,
    sample_truncated,
    std_moments,
)
from verisynth.kernel import generate_and_verify

M2_SYM1 = 0.2911250947727931  # variance factor of the standard normal on (-1, 1)


def make_config(**kw):
    base = dict(
        true_mean=0.0,
        sigma=1.0,
        interval=Interval1D(-1.0, 1.0),
        n0=100,
        schedule=np.array([200]),
    )
    base.update(kw)
    return Gaussian1DConfig(**base)


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


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidBoundsError):
            make_config(sigma=0.0)
        with pytest.raises(InvalidBoundsError):
            make_config(n0=0)
        with pytest.raises(InvalidBoundsError):
            make_config(schedule=np.array([5, 3]))  # decreasing
        with pytest.raises(InvalidBoundsError):
            make_config(schedule=np.array([0]))
        with pytest.raises(InvalidBoundsError):
            make_config(filter_mode="none")

    def test_empty_schedule_allowed(self):
        assert make_config(schedule=np.array([], dtype=int)).rounds == 0


class TestRetrainStep:
    def test_filter_modes_agree_in_distribution(self):
        # the two mechanisms draw from the same truncated law
        config = make_config(interval=Interval1D(-0.5, 2.0), filter_mode=FILTER_REJECT)
        current = 0.3
        n = 100_000
        bounds = interval_bounds_1d(config.interval, current, config.sigma)
        direct = sample_truncated(bounds, n, np.random.default_rng(11))
        rejected = generate_and_verify(
            current, config.sigma, config.interval.accepts, n, np.random.default_rng(12)
        )
        stat = ks_2samp(direct, rejected).statistic
        assert stat < 1.628 * math.sqrt(2.0 / n)  # two-sample KS, alpha = 0.01

    def test_large_sample_step_matches_map(self):
        config = make_config(interval=Interval1D(0.0, 3.0))
        current = 0.5
        n = 200_000
        bounds = interval_bounds_1d(config.interval, current, config.sigma)
        m = std_moments(bounds)
        new = retrain_step(current, config, n, np.random.default_rng(21))
        target = retraining_map(Bounds(0.0, 3.0), current)
        assert abs(new - target) < 5 * math.sqrt(m.m2 / n)

    def test_symmetric_midpoint_is_stationary_in_mean(self):
        interval = Interval1D(-2.0, 2.0)
        n = 200_000
        rho = std_moments(Bounds(-2.0, 2.0)).m2
        for mode, seed in (("direct", 31), ("reject", 32)):
            config = make_config(interval=interval, filter_mode=mode)
            new = retrain_step(0.0, config, n, np.random.default_rng(seed))
            assert abs(new) < 5 * math.sqrt(rho / n)

    def test_reject_budget_exhaustion(self):
        config = make_config(interval=Interval1D(10.0, 10.001),
                             filter_mode=FILTER_REJECT)
        with pytest.raises(MaxAttemptsError):
            retrain_step(0.0, config, 1, np.random.default_rng(41))

    def test_invalid_count(self):
        with pytest.raises(InvalidBoundsError):
            retrain_step(0.0, make_config(), 0, np.random.default_rng(0))


class TestOneStepPrediction:
    def test_frozen_symmetric_value(self):
        pred = one_step_mse_prediction_1d(Bounds(-1.0, 1.0), n0=100, n1=1000)
        assert pred == pytest.approx(M2_SYM1 / 1000 + M2_SYM1 ** 2 / 100, rel=1e-14)
        assert pred == pytest.approx(1.1386632828e-3, abs=1e-9)

    def test_untruncated_reduces_to_classical(self):
        pred = one_step_mse_prediction_1d(Bounds(-math.inf, math.inf), 200, 500)
        assert pred == pytest.approx(1.0 / 500 + 1.0 / 200, rel=1e-14)

    def test_symmetric_general_form(self):
        m = std_moments(Bounds(-0.7, 0.7))
        pred = one_step_mse_prediction_1d(Bounds(-0.7, 0.7), 150, 600)
        assert pred == pytest.approx(m.m2 / 600 + m.m2 ** 2 / 150, rel=1e-14)

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            one_step_mse_prediction_1d(Bounds(-1.0, 1.0), n0=10, n1=100)
        with pytest.warns(RegimeWarning):
            one_step_mse_prediction_1d(Bounds(-1.0, 1.0), n0=200, n1=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one_step_mse_prediction_1d(Bounds(-1.0, 1.0), n0=100, n1=101)

    def test_invalid_counts(self):
        with pytest.raises(InvalidBoundsError):
            one_step_mse_prediction_1d(Bounds(-1.0, 1.0), 0, 10)

    @pytest.mark.parametrize("n1", [200, 1000])
    def test_monte_carlo_agreement(self, n1):
        mu, sigma, n0, reps = 0.0, 1.0, 100, 5000
        config = make_config(true_mean=mu, sigma=sigma, n0=n0,
                             schedule=np.array([n1]))
        rng = np.random.default_rng(50 + n1)
        sq = np.empty(reps)
        for i in range(reps):
            m0 = initial_mean(config, rng)
            m1 = retrain_step(m0, config, n1, rng)
            sq[i] = ((m1 - mu) / sigma) ** 2
        pred = one_step_mse_prediction_1d(Bounds(-1.0, 1.0), n0, n1)
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - pred) < 3 * se


class TestLongTermBound:
    def test_matches_explicit_summation(self):
        rho, init, k = 0.5, 1.0, 10
        schedule = np.full(k, 100)
        expected = rho ** (2 * k) * init
        for j in range(k):
            expected += rho ** (2 * (k - j) - 1) / schedule[j]
        got = long_term_bound(rho, init, schedule, k)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(6.667614e-3, abs=1e-8)

    def test_constant_schedule_limit(self):
        rho, n = 0.5, 100
        schedule = np.full(400, n)
        limit = rho / (n * (1 - rho ** 2))
        assert long_term_bound(rho, 1.0, schedule, 400) == pytest.approx(
            limit, rel=1e-12)

    def test_k_zero_returns_initial(self):
        assert long_term_bound(0.3, 2.5, np.array([10]), 0) == 2.5

    def test_validation(self):
        with pytest.raises(InvalidBoundsError):
            long_term_bound(1.5, 1.0, np.array([10]), 1)
        with pytest.raises(InvalidBoundsError):
            long_term_bound(0.0, 1.0, np.array([10]), 1)
        with pytest.raises(InvalidBoundsError):
            long_term_bound(0.5, -1.0, np.array([10]), 1)
        with pytest.raises(InvalidBoundsError):
            long_term_bound(0.5, 1.0, np.array([10]), 2)


class TestTrajectories:
    def test_zero_rounds(self):
        config = make_config(schedule=np.array([], dtype=int))
        traj = run_iterations(config, np.random.default_rng(61))
        assert len(traj) == 1
        assert traj.rounds.tolist() == [0]

    def test_shapes_counts_and_distances(self):
        config = make_config(schedule=np.array([50, 60, 70]))
        traj = run_iterations(config, np.random.default_rng(62))
        assert len(traj) == 4
        assert traj.rounds.tolist() == [0, 1, 2, 3]
        assert np.allclose(traj.dist_midpoint, np.abs(traj.means - 0.0))

    def test_semi_infinite_midpoint_distance_is_nan(self):
        config = make_config(interval=Interval1D(-math.inf, 1.0),
                             schedule=np.array([50]))
        traj = run_iterations(config, np.random.default_rng(63))
        assert np.all(np.isnan(traj.dist_midpoint))
        assert np.all(np.isfinite(traj.means))

    def test_contraction_toward_biased_interval(self):
        # interval far from the true mean: estimates drift into it
        config = make_config(interval=Interval1D(4.0, 6.0), n0=400,
                             schedule=np.full(60, 400))
        traj = run_iterations(config, np.random.default_rng(64))
        assert abs(traj.means[0]) < 0.5
        assert abs(traj.means[-1] - 5.0) < 0.2

    def test_round_error_annotation(self):
        config = make_config(interval=Interval1D(50.0, 51.0),
                             schedule=np.array([10]))
        with pytest.raises(DegenerateIntervalError, match="retraining round 1"):
            run_iterations(config, np.random.default_rng(65))


class TestHittingTime:
    def make_traj(self, means):
        means = np.asarray(means, dtype=float)
        k = means.size
        return Trajectory1D(np.arange(k), means, np.abs(means))

    def test_downward_crossing(self):
        assert hitting_time(self.make_traj([0.0, -5.0, -12.0]), -10.0) == 2

    def test_never_crosses(self):
        assert hitting_time(self.make_traj([0.0, -5.0, -12.0]), -20.0) is None

    def test_upward_crossing(self):
        traj = self.make_traj([0.0, 5.0, 12.0])
        assert hitting_time(traj, 10.0, direction="up") == 2
        assert hitting_time(traj, 0.0, direction="up") == 0

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            hitting_time(self.make_traj([0.0]), 1.0, direction="sideways")

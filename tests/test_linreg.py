"""Regression retraining: OLS, spectral designs, block rounds, risk formulas."""
import math

import numpy as np
import pytest

from verisynth import (
    FILTER_REJECT,
    DegenerateIntervalError,
    DimensionMismatchError,
    Interval1D,
    InvalidBoundsError,
    KnowledgeBall,
    RankDeficientError,
    SpectralDesign,
    baseline_mse,
    contraction_rate,
    long_term_bounds,
    ols_fit,
    one_step_prediction,
    retrain_round,
    spectral_design,
)
from verisynth.gaussian1d import retrain_step
from verisynth.kernel import BlockRound
from verisynth.theory import one_step_predictions

from test_kernel import Untouchable

M2_SYM1 = 0.2911250947727931  # variance factor of the standard normal on (-1, 1)


def make_ball(dimension=2, radius=1.0, slack=0.0, center=None):
    if center is None:
        center = np.zeros(dimension)
    return KnowledgeBall(np.asarray(center, dtype=float), radius, slack)


class TestOlsFit:
    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            ols_fit(np.zeros(3), np.zeros(3))  # 1-D covariates
        with pytest.raises(DimensionMismatchError):
            ols_fit(np.zeros((3, 2)), np.zeros(4))

    def test_identity_design_returns_responses(self):
        y = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(ols_fit(np.eye(3), y), y)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 4))
        theta = rng.standard_normal(4)
        fit = ols_fit(x, x @ theta)
        assert np.allclose(fit, theta, atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 8))
        y = x @ rng.standard_normal(8) + rng.standard_normal(50)
        fit = ols_fit(x, y)
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.allclose(fit, oracle, atol=1e-8)

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal((20, 1))
        x = np.hstack([col, col, rng.standard_normal((20, 1))])
        with pytest.raises(RankDeficientError):
            ols_fit(x, rng.standard_normal(20))


class TestSpectralDesign:
    def test_diagonal_design(self):
        d = spectral_design(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(d.singular_values, [3.0, 2.0, 1.0], atol=1e-12)
        assert np.allclose(d.directions, np.eye(3), atol=1e-12)

    def test_frobenius_and_gram_reconstruction(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 6))
        d = spectral_design(x)
        assert np.sum(d.singular_values ** 2) == pytest.approx(
            np.sum(x ** 2), rel=1e-8)
        gram = d.directions.T @ np.diag(d.singular_values ** 2) @ d.directions
        assert np.allclose(gram, x.T @ x, atol=1e-8 * np.sum(x ** 2))

    def test_orthonormal_and_sign_fixed(self):
        rng = np.random.default_rng(4)
        d = spectral_design(rng.standard_normal((25, 5)))
        assert np.allclose(d.directions @ d.directions.T, np.eye(5), atol=1e-10)
        for row in d.directions:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_rank_deficiency_and_shape_errors(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal((10, 1))
        with pytest.raises(RankDeficientError):
            spectral_design(np.hstack([col, 2.0 * col]))
        with pytest.raises(DimensionMismatchError):
            spectral_design(rng.standard_normal((3, 5)))  # fewer rows than columns

    def test_dataclass_validation(self):
        with pytest.raises(InvalidBoundsError):
            SpectralDesign(np.array([1.0, 2.0]), np.eye(2))  # increasing values
        with pytest.raises(RankDeficientError):
            SpectralDesign(np.array([1.0, 0.0]), np.eye(2))
        with pytest.raises(InvalidBoundsError):
            SpectralDesign(np.array([2.0, 1.0]), np.full((2, 2), 0.5))
        with pytest.raises(DimensionMismatchError):
            SpectralDesign(np.array([2.0, 1.0]), np.eye(3))

    @pytest.mark.parametrize("excess", [4e-6, 5e-7])
    def test_rows_off_unit_norm_are_refused(self, excess):
        # every row must be a unit vector within 1e-10, not within allclose's
        # default relative tolerance of 1e-5
        directions = np.eye(2)
        directions[0] *= 1.0 + excess
        with pytest.raises(InvalidBoundsError):
            SpectralDesign(np.array([2.0, 1.0]), directions)


class TestConfigValidation:
    """A round's settings are checked where it is built, before any draw."""

    design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))

    def rounds(self, sigma, mode):
        """Each entry point's round with these settings, built on call."""
        yield lambda: BlockRound(self.design, make_ball(), sigma, mode)
        yield lambda: retrain_round(np.zeros(2), self.design, make_ball(), sigma, 5,
                                    [Untouchable(), Untouchable()], mode)
        yield lambda: retrain_step(0.0, Interval1D(-1.0, 1.0), sigma, 5, Untouchable(), mode)

    def test_unknown_mode(self):
        for mode in ("DIRECT", "filter", "", None):
            for build in self.rounds(1.0, mode):
                with pytest.raises(InvalidBoundsError, match="unknown filter mode"):
                    build()

    def test_sigma_zero_only_unfiltered(self):
        for sigma, mode in ((0.0, "direct"), (0.0, "reject"), (-1.0, "direct"), (-1.0, "none")):
            for build in self.rounds(sigma, mode):
                with pytest.raises(InvalidBoundsError, match="sigma must be > 0"):
                    build()
        assert BlockRound(self.design, make_ball(), 0.0, "none").sigma == 0.0
        rng = np.random.default_rng(0)
        assert retrain_step(0.5, Interval1D(-1.0, 1.0), 0.0, 5, rng, "none") == 0.5

    def test_dimension_mismatches(self):
        # the ball must live in the design's space, or no round can run
        ball = make_ball(dimension=3)
        with pytest.raises(DimensionMismatchError, match="ball dimension 3"):
            BlockRound(self.design, ball, 1.0)
        with pytest.raises(DimensionMismatchError, match="ball dimension 3"):
            retrain_round(np.zeros(2), self.design, ball, 1.0, 5, np.random.default_rng(0))
        # an interval is the verifier of the p = 1 problem only
        with pytest.raises(DimensionMismatchError, match="ball dimension 1"):
            BlockRound(self.design, Interval1D(0.0, 1.0), 1.0)
        with pytest.raises(DimensionMismatchError, match="ball dimension 2"):
            retrain_step(0.0, make_ball(), 1.0, 5, Untouchable())


class TestRetrainRound:
    def test_block_round_reduces_to_scalar_steps(self):
        # with canonical directions each coordinate must reproduce the scalar
        # update bit for bit when fed an identically seeded stream
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        center, radius, slack, sigma = np.array([0.5, 0.1]), 1.0, 0.2, 0.7
        theta_hat = np.array([0.3, -0.2])
        for mode in ("direct", "reject"):
            ball = make_ball(radius=radius, slack=slack, center=center)
            new_theta = retrain_round(
                theta_hat, design, ball, sigma, 64,
                [np.random.default_rng(900), np.random.default_rng(901)], mode,
            )
            for j in range(2):
                interval = Interval1D(center[j] - (radius + slack),
                                      center[j] + (radius + slack))
                scalar = retrain_step(theta_hat[j], interval, sigma, 64,
                                      np.random.default_rng(900 + j), mode)
                assert new_theta[j] == scalar

    def test_unfiltered_zero_noise_is_resolution_of_identity(self):
        rng = np.random.default_rng(10)
        design = spectral_design(rng.standard_normal((30, 4)))
        theta_hat = rng.standard_normal(4)
        new_theta = retrain_round(theta_hat, design, make_ball(dimension=4), 0.0, 5, rng, "none")
        assert np.allclose(new_theta, theta_hat, atol=1e-10)

    def test_ball_centered_at_estimate_is_unbiased(self):
        rng = np.random.default_rng(11)
        design = SpectralDesign(np.array([3.0, 2.0]), np.eye(2))
        theta_hat = np.array([1.0, -2.0])
        ball = make_ball(center=theta_hat, radius=1.0, slack=0.0)
        n = 200_000
        new_theta = retrain_round(theta_hat, design, ball, 1.0, n, rng)
        tol = 5.0 * math.sqrt(M2_SYM1 / n)
        assert np.allclose(new_theta, theta_hat, atol=tol)

    def test_direction_error_annotation(self):
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        ball = make_ball(center=np.array([100.0, 0.0]), radius=1.0)
        with pytest.raises(DegenerateIntervalError, match="direction 0:"):
            retrain_round(np.zeros(2), design, ball, 1.0, 10, np.random.default_rng(12))

    def test_count_and_stream_validation(self):
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        ball = make_ball()
        with pytest.raises(InvalidBoundsError):
            retrain_round(np.zeros(2), design, ball, 1.0, 0, np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError):
            retrain_round(np.zeros(2), design, ball, 1.0, 5,
                          [np.random.default_rng(0)])  # one stream, two directions
        with pytest.raises(DimensionMismatchError):
            retrain_round(np.zeros(3), design, ball, 1.0, 5, np.random.default_rng(0))

    def test_estimate_validation(self):
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        ball = make_ball()
        with pytest.raises(InvalidBoundsError, match="finite"):
            retrain_round(np.array([1.0, math.nan]), design, ball, 1.0, 5,
                          np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError):
            retrain_round(np.eye(2), design, ball, 1.0, 5, np.random.default_rng(0))

    def test_reject_budget_exhaustion_names_direction(self):
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        ball = make_ball(center=np.array([0.0, 30.0]), radius=0.005)
        with pytest.raises(Exception, match="direction 1:"):
            retrain_round(np.zeros(2), design, ball, 1.0, 1, np.random.default_rng(13),
                          FILTER_REJECT)


class TestBaselineMse:
    def test_closed_forms(self):
        assert baseline_mse(SpectralDesign(np.ones(3), np.eye(3)), 1.0) == 3.0
        d = SpectralDesign(np.array([3.0, 2.0, 1.0]), np.eye(3))
        assert baseline_mse(d, 1.0) == pytest.approx(1.0 / 9 + 1.0 / 4 + 1.0,
                                                     rel=1e-14)
        assert baseline_mse(d, 2.0) == pytest.approx(4 * (1.0 / 9 + 1.0 / 4 + 1.0),
                                                     rel=1e-14)
        # libm's power: numpy's on AVX-512 gives 0.018867924528301886, one ulp off
        d = SpectralDesign(np.array([math.sqrt(53)]), np.array([[1.0]]))
        assert baseline_mse(d, 1.0) == math.pow(math.sqrt(53), -2.0)

    def test_monte_carlo_fixed_design(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((20, 3))
        design = spectral_design(x)
        theta = np.array([1.0, -1.0, 2.0])
        reps, sigma = 10_000, 1.5
        sq = np.empty(reps)
        for i in range(reps):
            y = x @ theta + sigma * rng.standard_normal(20)
            sq[i] = np.sum((ols_fit(x, y) - theta) ** 2)
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - baseline_mse(design, sigma)) < 3 * se


class TestOneStepPrediction:
    def test_untruncated_limit_is_classical_risk(self):
        d = SpectralDesign(np.array([3.0, 2.0]), np.eye(2))
        ball = KnowledgeBall(np.zeros(2), 30.0, 0.0)
        pred = one_step_prediction(d, np.zeros(2), ball, 1.0, 500)
        classical = 2 / 500 + baseline_mse(d, 1.0)
        assert pred == pytest.approx(classical, rel=1e-12)

    def test_centered_ball_symmetric_form(self):
        d = SpectralDesign(np.array([3.0, 2.0]), np.eye(2))
        theta = np.array([0.7, -0.3])
        ball = KnowledgeBall(theta, 1.0, 0.0)
        pred = one_step_prediction(d, theta, ball, 1.0, 400)
        expected = sum(M2_SYM1 / 400 + M2_SYM1 ** 2 / mu ** 2 for mu in (3.0, 2.0))
        assert pred == pytest.approx(expected, rel=1e-12)

    def test_bias_raises_one_step_risk(self):
        d = SpectralDesign(np.array([3.0, 2.0, 1.5, 1.0]), np.eye(4))
        theta = np.zeros(4)
        u = np.full(4, 0.5)
        vals = [one_step_prediction(d, theta,
                                    KnowledgeBall(delta * u, 1.0, 0.0), 1.0, 400)
                for delta in np.linspace(0.0, 2.0, 9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_degenerate_direction(self):
        d = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        ball = KnowledgeBall(np.array([0.0, 100.0]), 1.0, 0.0)
        with pytest.raises(DegenerateIntervalError):
            one_step_prediction(d, np.zeros(2), ball, 1.0, 100)

    def test_many_balls_in_one_call(self):
        d = SpectralDesign(np.array([3.0, 2.0, 1.5]), np.linalg.qr(np.ones((3, 3)) + np.eye(3))[0])
        theta = np.array([0.2, -0.4, 1.0])
        balls = [KnowledgeBall(theta + shift, radius, 0.1)
                 for shift in (0.0, 0.7, -1.3, 100.0) for radius in (0.05, 0.5, 2.0)]
        mse, log_ratio = one_step_predictions(d, theta, balls, 0.8, 50)
        for ball, one, ratio in zip(balls[:9], mse, log_ratio):
            assert one == one_step_prediction(d, theta, ball, 0.8, 50)
            assert ratio == pytest.approx(0.5 * math.log(baseline_mse(d, 0.8) / one), rel=1e-14)
        assert np.all(np.isnan(mse[9:])) and np.all(np.isnan(log_ratio[9:]))

    def test_validation(self):
        d = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        ball = KnowledgeBall(np.zeros(2), 1.0, 0.0)
        with pytest.raises(InvalidBoundsError):
            one_step_prediction(d, np.zeros(2), ball, 1.0, 0)
        with pytest.raises(DimensionMismatchError):
            one_step_prediction(d, np.zeros(3), ball, 1.0, 10)

    def test_monte_carlo_one_round(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((100, 4))
        design = spectral_design(x)
        theta_star = np.ones(4)
        u = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        ball = KnowledgeBall(theta_star + 0.5 * u, 1.0, 0.0)
        sigma, n1, reps = 1.0, 100, 3000
        sq = np.empty(reps)
        for i in range(reps):
            y = x @ theta_star + sigma * rng.standard_normal(100)
            new_theta = retrain_round(ols_fit(x, y), design, ball, sigma, n1, rng)
            sq[i] = np.sum((new_theta - theta_star) ** 2)
        pred = one_step_prediction(design, theta_star, ball, sigma, n1)
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - pred) < 3 * se


class TestLongTermBound:
    def rho(self):
        return contraction_rate(KnowledgeBall(np.zeros(8), 1.0, 0.0), 1.0)  # M2_SYM1

    def test_k_zero(self):
        assert long_term_bounds(self.rho(), 5.0, np.array([10]), 8.0)[0] == 5.0

    def test_matches_explicit_summation(self):
        rho, p, sigma, init, k = M2_SYM1, 8, 1.0, 8.0, 30
        schedule = np.full(k, 100)
        expected = rho ** (2 * k) * init
        for j in range(k):
            expected += p * sigma ** 2 * rho ** (2 * (k - j) - 1) / schedule[j]
        got = long_term_bounds(self.rho(), init, schedule, p * sigma * sigma)[k]
        assert got == pytest.approx(expected, rel=1e-13)

    def test_constant_schedule_limit(self):
        rho, p, n = M2_SYM1, 8, 100
        schedule = np.full(300, n)
        limit = p * rho / (n * (1 - rho ** 2))
        assert long_term_bounds(self.rho(), 3.0, schedule, float(p))[300] == \
            pytest.approx(limit, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidBoundsError):
            long_term_bounds(self.rho(), -1.0, np.array([10]), 8.0)

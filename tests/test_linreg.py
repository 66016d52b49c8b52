"""Regression retraining: OLS, spectral designs, block rounds, risk formulas."""
import math

import numpy as np
import pytest

from verisynth import (
    FILTER_REJECT,
    Dataset,
    DegenerateIntervalError,
    DimensionMismatchError,
    Gaussian1DConfig,
    Interval1D,
    InvalidBoundsError,
    KnowledgeBall,
    LinRegConfig,
    RankDeficientError,
    RetrainState,
    SpectralDesign,
    baseline_mse,
    contraction_rate,
    long_term_bound,
    ols_fit,
    one_step_prediction,
    retrain_round,
    spectral_design,
)
from verisynth.gaussian1d import retrain_step

M2_SYM1 = 0.2911250947727931  # variance factor of the standard normal on (-1, 1)


def make_config(dimension=2, radius=1.0, slack=0.0, center=None, sigma=1.0,
                n0=100, schedule=(200,), filter_mode="direct", true_theta=None):
    if true_theta is None:
        true_theta = np.zeros(dimension)
    if center is None:
        center = np.zeros(dimension)
    return LinRegConfig(
        dimension=dimension,
        true_theta=np.asarray(true_theta, dtype=float),
        ball=KnowledgeBall(np.asarray(center, dtype=float), radius, slack),
        sigma=sigma,
        n0=n0,
        schedule=np.asarray(schedule, dtype=int),
        filter_mode=filter_mode,
    )


class TestDataset:
    def test_validation(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros(3), np.zeros(3))  # 1-D covariates
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros((3, 2)), np.zeros(4))
        d = Dataset(np.zeros((5, 2)), np.zeros(5))
        assert (d.covariates.shape, d.dimension) == ((5, 2), 2)


class TestOlsFit:
    def test_identity_design_returns_responses(self):
        y = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(ols_fit(Dataset(np.eye(3), y)), y)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 4))
        theta = rng.standard_normal(4)
        fit = ols_fit(Dataset(x, x @ theta))
        assert np.allclose(fit, theta, atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 8))
        y = x @ rng.standard_normal(8) + rng.standard_normal(50)
        fit = ols_fit(Dataset(x, y))
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.allclose(fit, oracle, atol=1e-8)

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal((20, 1))
        x = np.hstack([col, col, rng.standard_normal((20, 1))])
        with pytest.raises(RankDeficientError):
            ols_fit(Dataset(x, rng.standard_normal(20)))


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


class TestRetrainState:
    def test_validation(self):
        with pytest.raises(InvalidBoundsError):
            RetrainState(np.array([1.0, math.nan]), 0)
        with pytest.raises(InvalidBoundsError):
            RetrainState(np.array([1.0]), -1)
        with pytest.raises(DimensionMismatchError):
            RetrainState(np.eye(2), 0)


class TestConfigValidation:
    def test_sigma_zero_only_unfiltered(self):
        with pytest.raises(InvalidBoundsError):
            make_config(sigma=0.0)
        assert make_config(sigma=0.0, filter_mode="none").sigma == 0.0

    def test_dimension_mismatches(self):
        with pytest.raises(DimensionMismatchError):
            make_config(dimension=2, true_theta=np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            LinRegConfig(2, np.zeros(2), KnowledgeBall(np.zeros(3), 1.0, 0.0),
                         1.0, 10, np.array([5]))

    def test_schedule_rules(self):
        with pytest.raises(InvalidBoundsError):
            make_config(schedule=(5, 3))
        with pytest.raises(InvalidBoundsError):
            make_config(schedule=(0,))
        assert make_config(schedule=()).rounds == 0


class TestRetrainRound:
    def test_block_round_reduces_to_scalar_steps(self):
        # with canonical directions each coordinate must reproduce the scalar
        # update bit for bit when fed an identically seeded stream
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        center, radius, slack, sigma = np.array([0.5, 0.1]), 1.0, 0.2, 0.7
        theta_hat = np.array([0.3, -0.2])
        for mode in ("direct", "reject"):
            config = make_config(radius=radius, slack=slack, center=center,
                                 sigma=sigma, schedule=(64,), filter_mode=mode)
            state = retrain_round(
                RetrainState(theta_hat, 0), design, config, 64,
                [np.random.default_rng(900), np.random.default_rng(901)],
            )
            for j in range(2):
                interval = Interval1D(center[j] - (radius + slack),
                                      center[j] + (radius + slack))
                cfg1 = Gaussian1DConfig(0.0, sigma, interval, 10,
                                        np.array([64]), filter_mode=mode)
                scalar = retrain_step(theta_hat[j], cfg1, 64,
                                      np.random.default_rng(900 + j))
                assert state.theta_hat[j] == scalar

    def test_unfiltered_zero_noise_is_resolution_of_identity(self):
        rng = np.random.default_rng(10)
        design = spectral_design(rng.standard_normal((30, 4)))
        theta_hat = rng.standard_normal(4)
        config = make_config(dimension=4, sigma=0.0, filter_mode="none")
        state = retrain_round(RetrainState(theta_hat, 0), design, config, 5, rng)
        assert np.allclose(state.theta_hat, theta_hat, atol=1e-10)
        assert state.round_index == 1

    def test_ball_centered_at_estimate_is_unbiased(self):
        rng = np.random.default_rng(11)
        design = SpectralDesign(np.array([3.0, 2.0]), np.eye(2))
        theta_hat = np.array([1.0, -2.0])
        config = make_config(center=theta_hat, radius=1.0, slack=0.0)
        n = 200_000
        state = retrain_round(RetrainState(theta_hat, 0), design, config, n, rng)
        tol = 5.0 * math.sqrt(M2_SYM1 / n)
        assert np.allclose(state.theta_hat, theta_hat, atol=tol)

    def test_direction_error_annotation(self):
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        config = make_config(center=np.array([100.0, 0.0]), radius=1.0)
        with pytest.raises(DegenerateIntervalError, match="direction 0:"):
            retrain_round(RetrainState(np.zeros(2), 0), design, config, 10,
                          np.random.default_rng(12))

    def test_count_and_stream_validation(self):
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        config = make_config()
        with pytest.raises(InvalidBoundsError):
            retrain_round(RetrainState(np.zeros(2), 0), design, config, 0,
                          np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError):
            retrain_round(RetrainState(np.zeros(2), 0), design, config, 5,
                          [np.random.default_rng(0)])  # one stream, two directions
        with pytest.raises(DimensionMismatchError):
            retrain_round(RetrainState(np.zeros(3), 0), design, config, 5,
                          np.random.default_rng(0))

    def test_reject_budget_exhaustion_names_direction(self):
        design = SpectralDesign(np.array([2.0, 1.0]), np.eye(2))
        config = make_config(center=np.array([0.0, 30.0]), radius=0.005,
                             filter_mode=FILTER_REJECT)
        with pytest.raises(Exception, match="direction 1:"):
            retrain_round(RetrainState(np.zeros(2), 0), design, config, 1,
                          np.random.default_rng(13))


class TestBaselineMse:
    def test_closed_forms(self):
        assert baseline_mse(SpectralDesign(np.ones(3), np.eye(3)), 1.0) == 3.0
        d = SpectralDesign(np.array([3.0, 2.0, 1.0]), np.eye(3))
        assert baseline_mse(d, 1.0) == pytest.approx(1.0 / 9 + 1.0 / 4 + 1.0,
                                                     rel=1e-14)
        assert baseline_mse(d, 2.0) == pytest.approx(4 * (1.0 / 9 + 1.0 / 4 + 1.0),
                                                     rel=1e-14)

    def test_monte_carlo_fixed_design(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((20, 3))
        design = spectral_design(x)
        theta = np.array([1.0, -1.0, 2.0])
        reps, sigma = 10_000, 1.5
        sq = np.empty(reps)
        for i in range(reps):
            y = x @ theta + sigma * rng.standard_normal(20)
            sq[i] = np.sum((ols_fit(Dataset(x, y)) - theta) ** 2)
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
            state = RetrainState(ols_fit(Dataset(x, y)), 0)
            config = LinRegConfig(4, theta_star, ball, sigma, 100,
                                  np.array([n1]))
            new = retrain_round(state, design, config, n1, rng)
            sq[i] = np.sum((new.theta_hat - theta_star) ** 2)
        pred = one_step_prediction(design, theta_star, ball, sigma, n1)
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - pred) < 3 * se


class TestLongTermBound:
    def rho(self):
        return contraction_rate(KnowledgeBall(np.zeros(8), 1.0, 0.0), 1.0)  # M2_SYM1

    def test_k_zero(self):
        assert long_term_bound(self.rho(), 5.0, np.array([10]), 0, 8.0) == 5.0

    def test_matches_explicit_summation(self):
        rho, p, sigma, init, k = M2_SYM1, 8, 1.0, 8.0, 30
        schedule = np.full(k, 100)
        expected = rho ** (2 * k) * init
        for j in range(k):
            expected += p * sigma ** 2 * rho ** (2 * (k - j) - 1) / schedule[j]
        got = long_term_bound(self.rho(), init, schedule, k, p * sigma * sigma)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_constant_schedule_limit(self):
        rho, p, n = M2_SYM1, 8, 100
        schedule = np.full(300, n)
        limit = p * rho / (n * (1 - rho ** 2))
        assert long_term_bound(self.rho(), 3.0, schedule, 300, float(p)) == \
            pytest.approx(limit, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidBoundsError):
            long_term_bound(self.rho(), -1.0, np.array([10]), 1, 8.0)
        with pytest.raises(InvalidBoundsError):
            long_term_bound(self.rho(), 1.0, np.array([10]), 2, 8.0)

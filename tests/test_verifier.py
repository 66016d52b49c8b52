"""Verifier geometry: acceptance rule, induced truncation bounds, contraction."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verisynth import (
    Bounds,
    DimensionMismatchError,
    Interval1D,
    InvalidBoundsError,
    KnowledgeBall,
    acceptance_probability,
    contraction_rate,
    default_slack,
    direction_bounds,
    interval_bounds_1d,
    long_term_bounds,
    std_moments,
)


class TestKnowledgeBall:
    def test_validation(self):
        with pytest.raises(InvalidBoundsError):
            KnowledgeBall(np.zeros(2), 0.0, 0.0)  # measure-zero acceptance
        with pytest.raises(InvalidBoundsError):
            KnowledgeBall(np.zeros(2), -1.0, 0.0)
        with pytest.raises(InvalidBoundsError):
            KnowledgeBall(np.zeros(2), 1.0, -0.5)
        with pytest.raises(DimensionMismatchError):
            KnowledgeBall(np.zeros((2, 2)), 1.0, 0.0)
        assert KnowledgeBall(np.zeros(3), 1.0, 0.0).dimension == 3

    def test_default_slack(self):
        assert default_slack(2.0) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi))


class TestInterval1D:
    def test_validation(self):
        with pytest.raises(InvalidBoundsError):
            Interval1D(1.0, 1.0)
        with pytest.raises(InvalidBoundsError):
            Interval1D(3.0, -1.0)
        for ends in ((math.nan, 1.0), (-1.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(InvalidBoundsError, match="may not be NaN"):
                Interval1D(*ends)

    def test_is_an_ordered_bounds(self):
        # the verifier interval passes the truncation interval's one check:
        # its ends are cast to float, and a half-line is allowed
        interval = Interval1D(-1, math.inf)
        assert isinstance(interval, Bounds)
        assert (type(interval.lower), interval.upper) == (float, math.inf)
        assert interval.dimension == 1 and interval.half_width == math.inf

    def test_midpoint(self):
        assert Interval1D(-1.0, 3.0).midpoint == 1.0
        assert math.isnan(Interval1D(-math.inf, 1.0).midpoint)


class TestVerifyPoint:
    def setup_method(self):
        self.ball = KnowledgeBall(np.zeros(3), 1.0, 0.0)
        self.e1 = np.array([1.0, 0.0, 0.0])

    def test_inside_accepts(self):
        assert self.ball.acceptance(self.e1)(0.5)

    def test_boundary_accepts(self):
        assert self.ball.acceptance(self.e1)(1.0)

    def test_just_outside_rejects(self):
        assert not self.ball.acceptance(self.e1)(1.0 + 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            self.ball.acceptance(np.array([1.0, 0.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.integers(1, 6)
            center = rng.normal(size=p)
            x = rng.normal(size=p)
            r, sc = rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0)
            resid = rng.normal() * 2.0
            y = float(x @ center) + resid
            base = KnowledgeBall(center, r, sc).acceptance(x)(y)
            for c in (0.25, 3.0, 1e4):
                scaled_y = float(x @ center) + c * resid
                scaled = KnowledgeBall(center, c * r, c * sc).acceptance(x)(scaled_y)
                assert scaled == base


class TestDirectionBounds:
    def test_symmetric_when_unbiased(self):
        ball = KnowledgeBall(np.array([2.0, -1.0]), 1.5, 0.5)
        b = direction_bounds(ball, np.array([0.0, 1.0]), ball.center, 2.0)
        assert b.lower == pytest.approx(-1.0)
        assert b.upper == pytest.approx(1.0)

    def test_offset_example(self):
        # r=1, slack=0, sigma=1, v.(center - generator_mean) = 0.5 -> (-0.5, 1.5)
        ball = KnowledgeBall(np.array([0.5, 0.0]), 1.0, 0.0)
        b = direction_bounds(ball, np.array([1.0, 0.0]), np.zeros(2), 1.0)
        assert (b.lower, b.upper) == pytest.approx((-0.5, 1.5))

    def test_width_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            p = rng.integers(2, 7)
            v = rng.normal(size=p)
            v /= np.linalg.norm(v)
            ball = KnowledgeBall(rng.normal(size=p), rng.uniform(0.1, 3),
                                 rng.uniform(0, 1))
            sigma = rng.uniform(0.3, 2.5)
            b = direction_bounds(ball, v, rng.normal(size=p), sigma)
            assert b.upper - b.lower == pytest.approx(2 * (ball.radius + ball.slack) / sigma)

    # the rule SpectralDesign applies to its rows: a direction is used as it
    # is within UNIT_NORM_TOL of unit norm, and refused beyond it
    def test_unit_tolerance(self):
        ball = KnowledgeBall(np.zeros(2), 1.0, 0.0)
        v = np.array([1.0, 0.0])
        exact = direction_bounds(ball, v, np.zeros(2), 1.0)
        nearly = direction_bounds(ball, v * (1.0 + 5e-11), np.zeros(2), 1.0)
        assert (nearly.lower, nearly.upper) == (exact.lower, exact.upper)
        for scale in (1.0 + 5e-7, 1.01, math.nan):
            with pytest.raises(InvalidBoundsError, match="off 1"):
                direction_bounds(ball, v * scale, np.zeros(2), 1.0)

    def test_acceptance_event_equivalence(self):
        # the ball accepts y = v.theta_hat + sigma*xi  iff  xi is inside
        # direction_bounds, exactly, sample by sample
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.integers(1, 6)
            v = rng.normal(size=p)
            v /= np.linalg.norm(v)
            ball = KnowledgeBall(rng.normal(size=p), rng.uniform(0.2, 2),
                                 rng.uniform(0, 0.5))
            theta_hat = rng.normal(size=p)
            sigma = rng.uniform(0.4, 2.0)
            b = direction_bounds(ball, v, theta_hat, sigma)
            xi = rng.normal(size=400) * 2.0
            y = float(v @ theta_hat) + sigma * xi
            accepted = ball.acceptance(v)(y)
            inside = (xi >= b.lower) & (xi <= b.upper)
            assert np.array_equal(accepted, inside)

    def test_acceptance_fraction_matches_probability(self):
        rng = np.random.default_rng(3)
        n = 40000
        for _ in range(5):
            p = rng.integers(2, 5)
            v = rng.normal(size=p)
            v /= np.linalg.norm(v)
            ball = KnowledgeBall(rng.normal(size=p) * 0.5, rng.uniform(0.5, 2),
                                 rng.uniform(0, 0.5))
            theta_hat = rng.normal(size=p) * 0.5
            sigma = 1.0
            b = direction_bounds(ball, v, theta_hat, sigma)
            xi = rng.normal(size=n)
            inside = (xi >= b.lower) & (xi <= b.upper)
            prob = acceptance_probability(b)
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(inside.mean() - prob) < 5 * se + 1e-12


class TestIntervalBounds1D:
    def test_untruncated(self):
        b = interval_bounds_1d(Interval1D(-math.inf, math.inf), 3.0, 2.0)
        assert (b.lower, b.upper) == (-math.inf, math.inf)

    def test_unit_case(self):
        b = interval_bounds_1d(Interval1D(-1.0, 1.0), 0.0, 1.0)
        assert (b.lower, b.upper) == (-1.0, 1.0)

    def test_shift_and_scale(self):
        b = interval_bounds_1d(Interval1D(0.0, 4.0), 1.0, 2.0)
        assert (b.lower, b.upper) == pytest.approx((-0.5, 1.5))


class TestContractionRate:
    def test_reference_values(self):
        ball = KnowledgeBall(np.zeros(2), 1.0, 0.0)
        assert contraction_rate(ball, 1.0) == pytest.approx(0.2911250947727931, abs=1e-12)
        narrow = KnowledgeBall(np.zeros(2), 0.1, 0.0)
        rho = contraction_rate(narrow, 1.0)
        # acceptance window is (-0.1, 0.1): narrow-interval variance ~ width^2/12
        assert rho == pytest.approx(0.2 ** 2 / 12.0, rel=2e-3)
        assert rho == pytest.approx(0.003328891, abs=2e-8)

    def test_untruncated_limit(self):
        wide = KnowledgeBall(np.zeros(2), 40.0, 0.0)
        assert contraction_rate(wide, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_radius_slack_sigma(self):
        center = np.zeros(2)
        rates_r = [contraction_rate(KnowledgeBall(center, r, 0.2), 1.0)
                   for r in np.linspace(0.2, 4.0, 12)]
        assert all(a < b for a, b in zip(rates_r, rates_r[1:]))
        rates_s = [contraction_rate(KnowledgeBall(center, 1.0, s), 1.0)
                   for s in np.linspace(0.0, 3.0, 12)]
        assert all(a < b for a, b in zip(rates_s, rates_s[1:]))
        rates_sig = [contraction_rate(KnowledgeBall(center, 1.0, 0.5), sig)
                     for sig in np.linspace(0.4, 4.0, 12)]
        assert all(a > b for a, b in zip(rates_sig, rates_sig[1:]))

    def test_equals_symmetric_variance_factor(self):
        ball = KnowledgeBall(np.ones(3), 1.3, 0.4)
        sigma = 0.7
        beta = (1.3 + 0.4) / sigma
        assert contraction_rate(ball, sigma) == std_moments(Bounds(-beta, beta)).m2

    def test_interval_uses_its_half_width(self):
        assert Interval1D(2.0, 4.0).half_width == 1.0
        ball = KnowledgeBall(np.zeros(2), 0.6, 0.4)
        assert contraction_rate(Interval1D(2.0, 4.0), 1.0) == contraction_rate(ball, 1.0)
        assert contraction_rate(Interval1D(-3.0, 1.0), 2.0) == contraction_rate(ball, 1.0)
        assert contraction_rate(Interval1D(-20.0, 20.0), 1.0) == 1.0

    def test_half_line_has_no_rate(self):
        assert Interval1D(-math.inf, 1.0).half_width == math.inf
        with pytest.raises(InvalidBoundsError):
            contraction_rate(Interval1D(-math.inf, 1.0), 1.0)


class TestLongTermBound:
    # rho >= 1e-100 keeps rho^2 a normal float; through subnormal values the
    # direct sum and the recurrence round differently
    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(min_value=1e-100, max_value=1.0),
        init=st.floats(min_value=0.0, max_value=1e6),
        scale=st.floats(min_value=1e-6, max_value=1e6),
        schedule=st.lists(st.integers(min_value=1, max_value=10 ** 6), min_size=1, max_size=40),
    )
    @example(rho=1.0, init=0.5, scale=2.0, schedule=[10, 20, 40])  # the unfiltered walk
    def test_one_round_recurrence(self, rho, init, scale, schedule):
        bounds = long_term_bounds(rho, init, schedule, scale)
        previous = bounds[0]
        for k in range(1, len(schedule) + 1):
            bound = long_term_bounds(rho, init, schedule[:k], scale)[k]
            assert bound == bounds[k]
            recurrence = rho * rho * previous + scale * rho / schedule[k - 1]
            assert math.isclose(bound, recurrence, rel_tol=1e-12)
            previous = bound


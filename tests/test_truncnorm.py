"""Truncated-normal moments, sampling, and the quadrature oracle."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verisynth import (
    Bounds,
    DegenerateIntervalError,
    InvalidBoundsError,
    QuadratureError,
    acceptance_probability,
    quadrature_moments,
    sample_truncated,
    std_moments,
)
from verisynth.truncnorm import MIN_ACCEPTANCE, NARROW_WIDTH, Truncations, _quad_checked, libm

# Frozen independent values: half-normal closed forms and quadrature-derived
# constants for reference intervals.
HALF_NORMAL_M1 = math.sqrt(2.0 / math.pi)          # E[Z | Z > 0]
HALF_NORMAL_M2 = 1.0 - 2.0 / math.pi               # Var[Z | Z > 0]
M2_SYM1 = 0.2911250947727931                       # Var[Z | |Z| < 1]
PROB_M1_2 = 0.8185946141203637                     # P(-1 < Z < 2)


def random_bounds(rng: np.random.Generator, n: int) -> list[Bounds]:
    """A mix of two-sided, semi-infinite, and deep-tail intervals."""
    out = []
    for i in range(n):
        kind = i % 4
        if kind == 0:  # generic two-sided
            lo = rng.uniform(-6.0, 5.0)
            out.append(Bounds(lo, lo + rng.uniform(0.05, 8.0)))
        elif kind == 1:  # deep one-tail two-sided
            lo = rng.uniform(5.0, 25.0)
            b = Bounds(lo, lo + rng.uniform(0.05, 4.0))
            out.append(b if rng.random() < 0.5 else Bounds(-b.upper, -b.lower))
        elif kind == 2:  # semi-infinite
            edge = rng.uniform(-20.0, 20.0)
            out.append(Bounds(edge, math.inf) if rng.random() < 0.5
                       else Bounds(-math.inf, edge))
        else:  # straddles zero
            out.append(Bounds(-rng.uniform(0.05, 6.0), rng.uniform(0.05, 6.0)))
    return out


class TestBounds:
    def test_validation(self):
        with pytest.raises(InvalidBoundsError):
            Bounds(1.0, 1.0)
        with pytest.raises(InvalidBoundsError):
            Bounds(2.0, -1.0)
        with pytest.raises(InvalidBoundsError):
            Bounds(math.nan, 1.0)
        with pytest.raises(InvalidBoundsError):
            Bounds(0.0, math.nan)

    def test_shifted(self):
        b = Bounds(-1.0, 3.0).shifted(2.0)
        assert (b.lower, b.upper) == (-3.0, 1.0)


class TestStdMoments:
    def test_untruncated(self):
        m = std_moments(Bounds(-math.inf, math.inf))
        assert (m.m1, m.m2, m.m3) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.5, 7.0])
    def test_symmetric_odd_moments_vanish(self, beta):
        m = std_moments(Bounds(-beta, beta))
        assert abs(m.m1) < 1e-15
        assert abs(m.m3) < 1e-14
        assert 0.0 < m.m2 < 1.0

    def test_half_normal(self):
        m = std_moments(Bounds(0.0, math.inf))
        assert m.m1 == pytest.approx(HALF_NORMAL_M1, abs=1e-12)
        assert m.m2 == pytest.approx(HALF_NORMAL_M2, abs=1e-12)

    def test_symmetric_unit_interval(self):
        assert std_moments(Bounds(-1.0, 1.0)).m2 == pytest.approx(M2_SYM1, abs=1e-12)

    def test_mean_stays_inside_interval(self):
        for b in random_bounds(np.random.default_rng(7), 40):
            m1 = std_moments(b).m1
            assert b.lower <= m1 <= b.upper

    def test_monotone_m2_in_width(self):
        # widths capped so all bounds stay within |z| <= ~6, where the
        # truncated variance is still representably below 1
        for center in (0.0, 1.5, 4.0, -9.0):
            widths = np.logspace(-1, 1.05, 12)
            m2 = [std_moments(Bounds(center - w / 2, center + w / 2)).m2 for w in widths]
            assert all(a < b for a, b in zip(m2, m2[1:]))
            assert m2[-1] < 1.0

    def test_degenerate_interval_raises(self):
        with pytest.raises(DegenerateIntervalError):
            std_moments(Bounds(40.0, 41.0))
        with pytest.raises(DegenerateIntervalError):
            std_moments(Bounds(-math.inf, -40.0))

    # the one-tail ratios over a normalizer of ~1e-299 would overflow first
    @pytest.mark.parametrize("bounds", [Bounds(1e299, 3e300), Bounds(-3e300, -1e299),
                                        Bounds(1e200, math.inf)])
    def test_degenerate_deep_tail_raises_before_any_overflow(self, bounds):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateIntervalError):
                std_moments(bounds)

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.floats(min_value=-28.0, max_value=28.0),
        width=st.floats(min_value=1e-3, max_value=40.0),
    )
    def test_moment_invariants_property(self, lo, width):
        b = Bounds(lo, lo + width)
        m = std_moments(b)
        assert 0.0 < m.m2 <= 1.0
        if max(abs(b.lower), abs(b.upper)) <= 8.0:
            # truncation representably below 1 at double precision
            assert m.m2 < 1.0
        assert b.lower <= m.m1 <= b.upper
        assert math.isfinite(m.m3)

    def test_oracle_equivalence_sample(self):
        for b in random_bounds(np.random.default_rng(11), 60):
            closed = std_moments(b)
            oracle = quadrature_moments(b)
            assert closed.m1 == pytest.approx(oracle.m1, abs=1e-9)
            assert closed.m2 == pytest.approx(oracle.m2, abs=1e-9)
            assert closed.m3 == pytest.approx(oracle.m3, abs=1e-9)

    @pytest.mark.parametrize("upper", [50.0, 1e4, 1e8, 1e16, 1e154, 1e300])
    @pytest.mark.parametrize("lower", [0.0, 0.5, 3.0, 20.0])
    def test_huge_finite_bound_is_the_half_line(self, lower, upper):
        # beyond b^2 - a^2 ~ 1490 the mass above b underflows doubles entirely
        for b, half_line in ((Bounds(lower, upper), Bounds(lower, math.inf)),
                             (Bounds(-upper, -lower), Bounds(-math.inf, -lower))):
            closed = std_moments(b)
            oracle = quadrature_moments(b)
            assert closed.m1 == pytest.approx(oracle.m1, abs=1e-12)
            assert closed.m2 == pytest.approx(oracle.m2, abs=1e-12)
            assert closed.m3 == pytest.approx(oracle.m3, abs=1e-12)
            assert closed == std_moments(half_line)
            assert closed.m2 > 0.0

    @pytest.mark.parametrize("upper", [1e154, 1.6e288, 1e300])
    def test_straddling_huge_finite_bound_is_finite(self, upper):
        for b, half_line in ((Bounds(-1.0, upper), Bounds(-1.0, math.inf)),
                             (Bounds(-upper, 1.0), Bounds(-math.inf, 1.0))):
            closed = std_moments(b)
            assert all(math.isfinite(v) for v in (closed.m1, closed.m2, closed.m3))
            assert closed.m3 == pytest.approx(quadrature_moments(b).m3, abs=1e-12)
            assert closed == std_moments(half_line)


#: one block through every branch of the moment engine: straddling rows and
#: rows in each tail, a bound at 0 on either side, half-lines, the whole line,
#: rows at +-38, narrow bands, huge finite bounds and rows without mass
ENGINE_ROWS = [
    (-1.0, 2.0), (-3.0, 0.5), (2.0, 4.0), (-6.0, -5.0), (10.0, 11.0), (-25.0, -24.0),
    (0.0, 1.5), (-2.0, 0.0), (0.0, math.inf), (-math.inf, 0.0),
    (3.0, math.inf), (-math.inf, -3.0), (-math.inf, 1.0), (-1.0, math.inf),
    (-math.inf, math.inf), (37.0, 38.0), (-38.0, -37.0), (-38.0, 38.0),
    (-0.001, 0.001), (2.0, 2.00001), (-13.494040413493568, -13.494037880362619),
    (-1.0, 1e300), (0.5, 1e154), (-1e300, -20.0),
    (38.0, 39.0), (40.0, 41.0), (-math.inf, -40.0), (1e299, 3e300), (-3e300, -1e299),
]
ENGINE_DEGENERATE = 5  # the last rows carry less than MIN_ACCEPTANCE


class TestMomentEngine:
    def test_block_rows_equal_one_row_calls(self):
        limits = np.array(ENGINE_ROWS).T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            block = np.array(Truncations(limits).moments())
            rows = [np.array(Truncations(limits[:, i:i + 1]).moments())[:, 0]
                    for i in range(limits.shape[1])]
            grid = np.array(Truncations(limits.reshape(2, -1, 1)).moments())
        assert np.array_equal(block, np.array(rows).T, equal_nan=True)
        assert np.array_equal(block, grid[..., 0], equal_nan=True)
        assert np.all(np.isnan(block[:, -ENGINE_DEGENERATE:]))
        assert np.all(np.isfinite(block[:, :-ENGINE_DEGENERATE]))
        assert np.all(Truncations(limits).mass[-ENGINE_DEGENERATE:] < MIN_ACCEPTANCE)

    def test_std_moments_is_the_one_row_call(self):
        block = np.array(Truncations(np.array(ENGINE_ROWS).T).moments())
        for (lower, upper), column in zip(ENGINE_ROWS[:-ENGINE_DEGENERATE], block.T):
            m = std_moments(Bounds(lower, upper))
            assert (m.m1, m.m2, m.m3) == tuple(column)
        for lower, upper in ENGINE_ROWS[-ENGINE_DEGENERATE:]:
            with pytest.raises(DegenerateIntervalError):
                std_moments(Bounds(lower, upper))

    def test_libm_gives_the_bits_of_math(self):
        x = np.random.default_rng(5).uniform(-40.0, 5.0, 2000)
        assert list(libm(math.exp, x)) == [math.exp(v) for v in x]
        assert list(libm(math.expm1, x)) == [math.expm1(v) for v in x]
        assert list(libm(math.log, np.abs(x))) == [math.log(abs(v)) for v in x]
        assert list(libm(math.pow, 0.97, x)) == [0.97 ** v for v in x]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exps = libm(math.exp, np.array([1000.0, -math.inf, math.nan]))
            logs = libm(math.log, np.array([0.0, -1.0, math.inf]))
        assert exps[0] == math.inf and exps[1] == 0.0 and math.isnan(exps[2])
        assert logs[0] == -math.inf and math.isnan(logs[1]) and logs[2] == math.inf


class TestNarrowBands:
    def test_series_value_of_a_centred_band(self):
        # m2 = h^2/3 - (2 + 3c^2) h^4/45 + O(h^6) for the band c +- h
        h = 0.001
        assert std_moments(Bounds(-h, h)).m2 == pytest.approx(
            h * h / 3 - 2 * h ** 4 / 45, rel=1e-13)

    @pytest.mark.parametrize("bounds", [
        Bounds(-0.001, 0.001), Bounds(2.0, 2.00001),
        Bounds(-13.494040413493568, -13.494037880362619)])
    def test_oracle(self, bounds):
        closed = std_moments(bounds)
        oracle = quadrature_moments(bounds)
        assert closed.m1 == pytest.approx(oracle.m1, abs=1e-12)
        assert closed.m2 == pytest.approx(oracle.m2, rel=1e-8)

    def test_m2_positive_on_a_grid(self):
        widths = np.logspace(-6, -2, 41)
        centres = np.linspace(-30.0, 30.0, 121)
        c, w = np.meshgrid(centres, widths)
        limits = np.array([c - w / 2, c + w / 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            truncations = Truncations(limits)
            m1, m2, _ = truncations.moments()
        live = truncations.mass >= MIN_ACCEPTANCE
        assert np.count_nonzero(live) > 0.9 * live.size
        assert np.array_equal(np.isnan(m2), ~live)
        assert np.all(m2[live] > 0.0)
        # a log-concave density has at most the variance of the uniform
        width = limits[1] - limits[0]
        assert np.all(m2[live] <= width[live] ** 2 / 12 * (1 + 1e-12))
        assert np.all((limits[0][live] <= m1[live]) & (m1[live] <= limits[1][live]))

    def test_branch_edge(self):
        # the rule and the closed form agree where the band stops being narrow
        for lower in (0.0, 1.0, 5.0, -12.0):
            inside = std_moments(Bounds(lower, lower + NARROW_WIDTH * (1 - 1e-9)))
            outside = std_moments(Bounds(lower, lower + NARROW_WIDTH))
            assert inside.m2 == pytest.approx(outside.m2, rel=1e-8)
            assert inside.m3 == pytest.approx(outside.m3, rel=1e-6, abs=1e-15)


class TestDerivativeIdentities:
    def test_map_slope_equals_variance_factor(self):
        # centered finite difference of T(x) = x + m1(bounds shifted by x)
        rng = np.random.default_rng(3)
        h = 1e-5
        for b in random_bounds(rng, 6):
            lo = b.lower if math.isfinite(b.lower) else b.upper - 10.0
            hi = b.upper if math.isfinite(b.upper) else b.lower + 10.0
            for x in rng.uniform(lo, hi, size=10):
                tp = x + h + std_moments(b.shifted(x + h)).m1
                tm = x - h + std_moments(b.shifted(x - h)).m1
                v = std_moments(b.shifted(x)).m2
                assert (tp - tm) / (2 * h) == pytest.approx(v, abs=1e-6)

    def test_variance_slope_equals_third_moment(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for b in random_bounds(rng, 6):
            lo = b.lower if math.isfinite(b.lower) else b.upper - 8.0
            hi = b.upper if math.isfinite(b.upper) else b.lower + 8.0
            for x in rng.uniform(lo, hi, size=8):
                vp = std_moments(b.shifted(x + h)).m2
                vm = std_moments(b.shifted(x - h)).m2
                m3 = std_moments(b.shifted(x)).m3
                assert (vp - vm) / (2 * h) == pytest.approx(m3, abs=1e-6)


class TestAcceptanceProbability:
    def test_reference_values(self):
        assert acceptance_probability(Bounds(-math.inf, math.inf)) == 1.0
        assert acceptance_probability(Bounds(0.0, math.inf)) == pytest.approx(0.5, abs=1e-15)
        assert acceptance_probability(Bounds(-1.0, 2.0)) == pytest.approx(PROB_M1_2, abs=1e-12)

    def test_deep_tail_no_cancellation(self):
        # naive Phi(b) - Phi(a) would return exactly 0 here
        p = acceptance_probability(Bounds(10.0, 11.0))
        assert 0.0 < p < 1e-20
        assert p == pytest.approx(7.619853024160525e-24, rel=1e-9)

    def test_underflow_raises(self):
        with pytest.raises(DegenerateIntervalError):
            acceptance_probability(Bounds(40.0, 41.0))


class TestSampling:
    def test_count_zero(self):
        assert sample_truncated(Bounds(-1, 1), 0, np.random.default_rng(0)).size == 0

    def test_untruncated_mean(self):
        x = sample_truncated(Bounds(-math.inf, math.inf), 10 ** 6, np.random.default_rng(1))
        assert abs(x.mean()) < 4e-3

    def test_half_normal_mean(self):
        n = 10 ** 6
        x = sample_truncated(Bounds(0.0, math.inf), n, np.random.default_rng(2))
        assert np.all(x >= 0.0)
        assert abs(x.mean() - HALF_NORMAL_M1) < 5.0 * math.sqrt(HALF_NORMAL_M2 / n)

    @pytest.mark.parametrize(
        "bounds",
        [Bounds(-1.0, 1.0), Bounds(0.5, 2.0), Bounds(-3.0, -0.5),
         Bounds(2.0, math.inf), Bounds(-math.inf, 1.0)],
    )
    def test_central_moments_match(self, bounds):
        n = 2 * 10 ** 5
        x = sample_truncated(bounds, n, np.random.default_rng(6))
        assert np.all(x >= bounds.lower) and np.all(x <= bounds.upper)
        m = std_moments(bounds)
        assert abs(x.mean() - m.m1) < 5.0 * math.sqrt(m.m2 / n)
        centered = x - x.mean()
        v = centered @ centered / (n - 1)
        se_var = math.sqrt(max(np.mean(centered ** 4) - v ** 2, 0.0) / n)
        assert abs(v - m.m2) < 5.0 * se_var
        m3_hat = np.mean(centered ** 3)
        se_m3 = math.sqrt(np.var(centered ** 3) / n)
        assert abs(m3_hat - m.m3) < 5.0 * se_m3

    @pytest.mark.parametrize(
        "bounds",
        [Bounds(10.0, 10.001), Bounds(10.0, math.inf), Bounds(8.0, 30.0),
         Bounds(-math.inf, -12.0), Bounds(36.0, 36.5), Bounds(-37.0, -36.9),
         Bounds(30.0, 30.001), Bounds(-0.001, 0.001), Bounds(-5.0001, -5.0)],
    )
    def test_deep_tail_rejection_paths(self, bounds):
        # acceptance probabilities from below 1e-3 down to ~1e-300, narrow and
        # wide, in both tails and around 0: the inverse CDF draws them all
        n = 20000
        x = sample_truncated(bounds, n, np.random.default_rng(8))
        assert np.all(x >= bounds.lower) and np.all(x <= bounds.upper)
        m = std_moments(bounds)
        assert abs(x.mean() - m.m1) < 6.0 * math.sqrt(m.m2 / n) + 1e-9

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateIntervalError):
            sample_truncated(Bounds(40.0, 41.0), 10, np.random.default_rng(9))

    def test_deterministic_given_stream(self):
        a = sample_truncated(Bounds(-1, 2), 64, np.random.default_rng(42))
        b = sample_truncated(Bounds(-1, 2), 64, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestQuadratureOracle:
    def test_symmetric_m1_zero(self):
        for beta in (0.5, 2.0, 6.0):
            assert abs(quadrature_moments(Bounds(-beta, beta)).m1) < 1e-12

    def test_half_normal(self):
        m = quadrature_moments(Bounds(0.0, math.inf))
        assert m.m1 == pytest.approx(HALF_NORMAL_M1, abs=1e-10)
        assert m.m2 == pytest.approx(HALF_NORMAL_M2, abs=1e-10)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateIntervalError):
            quadrature_moments(Bounds(45.0, 46.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_integral_raises(self, value):
        # quadpack reports an error of NaN or inf for these; neither is a result
        with pytest.raises(QuadratureError):
            _quad_checked(lambda z: value, 0.0, 1.0)

"""Standard-normal interval truncation: moments, sampling, quadrature cross-check.

Everything here is expressed for a standard normal Z conditioned on an interval
(lower, upper); callers shift and scale. The key quantities are the first three
central moments of the conditioned variable,

    m1 = E[Z | Z in I]           (conditional mean)
    m2 = Var[Z | Z in I]         (variance factor, in (0, 1); rounds to
                                  exactly 1.0 once both bounds pass |z| ~ 9
                                  and the truncation is numerically invisible)
    m3 = E[(Z - m1)^3 | Z in I]  (third central moment)

The textbook ratios phi/Phi cancel catastrophically when the interval sits deep
in one tail, so :func:`std_moments` routes one-tail intervals through a scaled
form built on erfcx (the scaled complementary error function): with
g(z) = Phi_c(z)/phi(z) (the Mills ratio) and w = exp((lower^2 - upper^2)/2),
every needed ratio reduces to combinations of g and (1 - w), which stay in
floating-point range for arbitrarily deep tails.

Accuracy domain, measured against the quadrature oracle on random intervals
with acceptance probability >= 1e-300: at width >= 1 the absolute error is
below ~5e-13 in m1 and m2 and ~3e-11 in m3 (its largest once |bounds| > 15).
Narrower bands lose digits to differences of nearly equal terms, roughly
1e-15/width in m1, 1e-14/width in m2 and 3e-13/width in m3. As m2 is about
width^2/12, it is ~10% off at width 1e-4 and can turn negative below ~5e-5:
(2, 2.00001) gives m2 = 1.4e-10 against 8.3e-12.

Sampling is one inverse CDF for every non-degenerate interval (:class:`Truncations`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr, ndtri

from .errors import DegenerateIntervalError, InvalidBoundsError, QuadratureError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

#: acceptance probabilities below this raise DegenerateIntervalError
MIN_ACCEPTANCE = 1e-300
#: every interval draws by inverse CDF; only the benchmark tracer reads this,
#: splitting its sampler-branch label at this acceptance probability
INVERSE_CDF_MIN_PROB = 1e-3
#: standard-normal mass beyond |z| = 40 underflows double precision entirely
TAIL_CLIP = 40.0


@dataclass(frozen=True)
class Bounds:
    """An ordered truncation interval (lower, upper); either side may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        lo = float(self.lower)
        hi = float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise InvalidBoundsError(f"bounds may not be NaN: ({self.lower}, {self.upper})")
        if not lo < hi:
            raise InvalidBoundsError(f"bounds must satisfy lower < upper: ({lo}, {hi})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def shifted(self, x: float) -> "Bounds":
        """Bounds of Z - x restricted to this interval, i.e. (lower - x, upper - x)."""
        return Bounds(self.lower - x, self.upper - x)


@dataclass(frozen=True)
class Moments:
    """First three central moments of an interval-truncated standard normal."""

    m1: float
    m2: float
    m3: float


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _mills(z: float) -> float:
    """Mills ratio Phi_c(z)/phi(z), stable for all z not far below 0."""
    return _SQRT_HALF_PI * erfcx(z / _SQRT2)


class Truncations:
    """A block of truncation intervals of a standard normal.

    ``limits`` has shape (2, n): row 0 holds the lower bounds, row 1 the
    upper. Intervals with lower >= 0 are handled reflected to (-upper,
    -lower), so that deep right-tail masses keep their relative accuracy and
    inverse-CDF uniforms live near 0, where ndtri keeps it too. After the
    reflection a draw at z <= 0 resolves to within 2^-52 * Phi(z)/phi(z) <
    3e-16 whatever the mass, and a low-mass interval that reaches z > 0 is a
    narrow band around 0; so one inverse CDF serves every interval down to
    MIN_ACCEPTANCE.
    ``mass`` is each interval's acceptance probability, not checked for
    degeneracy; an invalid interval (lower >= upper) has mass <= 0.
    """

    def __init__(self, limits: np.ndarray):
        self.flip = limits[0] >= 0.0
        self.any_flip = np.count_nonzero(self.flip) > 0
        if self.any_flip:
            limits = np.where(self.flip, -limits[::-1], limits)
        self.limits = limits
        cdf = ndtr(limits)
        self.cdf_lo = cdf[0]
        self.mass = cdf[1] - cdf[0]

    def inverse_cdf(self, uniforms: np.ndarray) -> np.ndarray:
        """Draws for every interval from its uniforms (one row each).

        Assumes non-degenerate mass (at least MIN_ACCEPTANCE); the draws are
        clamped into their interval.
        """
        lo, hi = self.limits[:, :, None]
        x = ndtri(self.cdf_lo[:, None] + self.mass[:, None] * uniforms).clip(lo, hi)
        if not self.any_flip:
            return x
        return np.where(self.flip[:, None], -x, x)


def acceptance_probability(bounds: Bounds) -> float:
    """P(lower < Z < upper) for standard normal Z, computed cancellation-safely.

    Raises DegenerateIntervalError when the probability underflows below
    MIN_ACCEPTANCE; never returns 0 or NaN.
    """
    a, b = bounds.lower, bounds.upper
    p = float(Truncations(np.array([[a], [b]])).mass[0])
    if p < MIN_ACCEPTANCE:
        raise DegenerateIntervalError(
            f"acceptance probability underflows ({p!r}) for bounds ({a}, {b})"
        )
    return p


def _oriented_moments(a: float, b: float) -> tuple[float, float, float]:
    """Moments for an interval with b > 0 (a may be any value below b)."""
    if a >= 0.0:
        # one-tail interval: scaled-erfcx path, exact for arbitrarily deep tails
        ga = _mills(a)
        if b == math.inf:
            dnm = ga
            m1 = 1.0 / dnm
            r2 = -a / dnm
            q = (a * a - 1.0) / dnm
        else:
            gb = _mills(b)
            # 1 - w computed via expm1 so narrow intervals keep full precision
            one_minus_w = -math.expm1(0.5 * (a - b) * (a + b))
            dnm = (ga - gb) + gb * one_minus_w
            m1 = one_minus_w / dnm
            r2 = ((b - a) - b * one_minus_w) / dnm
            q = ((a - b) * (a + b) + (b * b - 1.0) * one_minus_w) / dnm
        # degeneracy check in log space (Z = phi(a) * dnm)
        if -0.5 * a * a - _LOG_SQRT_2PI + math.log(dnm) < math.log(MIN_ACCEPTANCE):
            raise DegenerateIntervalError(f"acceptance probability underflows for bounds ({a}, {b})")
    else:
        # interval straddles 0 (or reaches it): the plain ratios are stable
        z_mass = float(ndtr(b)) - float(ndtr(a))
        if z_mass < MIN_ACCEPTANCE:
            raise DegenerateIntervalError(f"acceptance probability underflows for bounds ({a}, {b})")
        pa = _phi(a) if a != -math.inf else 0.0
        pb = _phi(b) if b != math.inf else 0.0
        bpb = b * pb if b != math.inf else 0.0
        apa = a * pa if a != -math.inf else 0.0
        t_hi = (b * b - 1.0) * pb if b != math.inf else 0.0
        t_lo = (a * a - 1.0) * pa if a != -math.inf else 0.0
        m1 = (pa - pb) / z_mass
        r2 = (bpb - apa) / z_mass
        q = (t_lo - t_hi) / z_mass
    m2 = 1.0 - r2 - m1 * m1
    m3 = q + 3.0 * m1 * r2 + 2.0 * m1 ** 3
    return m1, m2, m3


def std_moments(bounds: Bounds) -> Moments:
    """Central moments (m1, m2, m3) of a standard normal truncated to ``bounds``."""
    a, b = bounds.lower, bounds.upper
    if a == -math.inf and b == math.inf:
        return Moments(0.0, 1.0, 0.0)
    if b <= 0.0:
        # reflect into the right half; m1 and m3 are odd under reflection
        m1, m2, m3 = _oriented_moments(-b, -a)
        return Moments(-m1, m2, -m3)
    m1, m2, m3 = _oriented_moments(a, b)
    return Moments(m1, m2, m3)


def sample_truncated(bounds: Bounds, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. samples of Z | Z in bounds.

    Inverse CDF of ``count`` uniforms from ``rng``, for any non-degenerate
    interval (see :class:`Truncations`).
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    acceptance_probability(bounds)  # raises when degenerate
    limits = np.array([[bounds.lower], [bounds.upper]])
    return Truncations(limits).inverse_cdf(rng.random((1, count)))[0]


def _quad_checked(fn, lo: float, hi: float) -> float:
    # imported here: only this oracle needs scipy.integrate, which is slow to import
    from scipy.integrate import quad

    val, abserr, info, *tail = quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12, limit=300, full_output=1)
    if tail:  # quadpack flagged a problem; accept only if the error is truly small
        if abserr > max(1e-13, 1e-9 * abs(val)):
            raise QuadratureError(f"quadrature failed on [{lo}, {hi}]: {tail[0]}")
    if abserr > max(1e-13, 1e-9 * abs(val)):
        raise QuadratureError(
            f"quadrature error {abserr:g} exceeds target for integral {val:g} on [{lo}, {hi}]"
        )
    return val


def quadrature_moments(bounds: Bounds) -> Moments:
    """Adaptive-quadrature oracle for :func:`std_moments`.

    Independent of the closed forms: the normalizer and all moment integrals
    are computed by quadrature of the raw Gaussian density. Infinite tails are
    clipped at |z| = TAIL_CLIP, beyond which the density underflows doubles.
    """
    lo = max(bounds.lower, -TAIL_CLIP)
    hi = min(bounds.upper, TAIL_CLIP)
    if not lo < hi:
        raise DegenerateIntervalError(f"no double-precision mass in bounds ({bounds.lower}, {bounds.upper})")
    # restrict to the numerically effective support so single panels stay resolved
    if lo >= 0.0:
        hi = min(hi, math.sqrt(lo * lo + 84.0) + 1.0)
    elif hi <= 0.0:
        lo = max(lo, -math.sqrt(hi * hi + 84.0) - 1.0)
    z_mass = _quad_checked(_phi, lo, hi)
    if z_mass < MIN_ACCEPTANCE:
        raise DegenerateIntervalError(f"quadrature mass underflows for bounds ({bounds.lower}, {bounds.upper})")
    m1 = _quad_checked(lambda z: z * _phi(z), lo, hi) / z_mass
    m2 = _quad_checked(lambda z: (z - m1) ** 2 * _phi(z), lo, hi) / z_mass
    m3 = _quad_checked(lambda z: (z - m1) ** 3 * _phi(z), lo, hi) / z_mass
    return Moments(m1, m2, m3)

"""Standard-normal interval truncation: one engine for masses, moments and
sampling, and a quadrature cross-check.

Everything here is expressed for a standard normal Z conditioned on an interval
(lower, upper); callers shift and scale. The key quantities are the first three
central moments of the conditioned variable,

    m1 = E[Z | Z in I]           (conditional mean)
    m2 = Var[Z | Z in I]         (variance factor, in (0, 1); rounds to
                                  exactly 1.0 once both bounds pass |z| ~ 9
                                  and the truncation is numerically invisible)
    m3 = E[(Z - m1)^3 | Z in I]  (third central moment)

The one engine, :class:`Truncations`, works on a block of intervals in a
reflected frame where every lower bound is below 0; :func:`std_moments` is its
one-row call. The textbook ratios phi/Phi cancel catastrophically deep in one
tail, so an interval with upper <= 0 there takes a scaled form on its mirror
image (a, b) built on erfcx: with g(z) = Phi_c(z)/phi(z) (the Mills ratio) and
w = exp((a^2 - b^2)/2), every ratio is a combination of g and (1 - w). Its
exp, expm1 and power are libm's (:func:`libm`), so the moments have the same
bits on every CPU.

Accuracy domain, measured against the quadrature oracle and 60-digit
arithmetic on random intervals with acceptance probability >= 1e-300: at
width >= 1 the absolute error is below ~5e-13 in m1 and m2 and ~3e-11 in m3
(its largest once |bounds| > 15); from width 0.1 to 1, m2 keeps 9 digits or
more. Below NARROW_WIDTH, where m2 = 1 - r2 - m1^2 (about width^2/12) would
cancel, a Gauss-Legendre rule on the band keeps m2 to 1e-15 relative at any
centre: 3.333332888888912e-07 on (-0.001, 0.001), where the series
h^2/3 - (2 + 3c^2) h^4/45 of the band c +- h gives 3.33333288888889e-07.
Finite bounds may be as large as any double: where the mass beyond a bound
underflows (w = 0 on the one-tail path, phi(bound) = 0 on the straddling
one), the moments are exactly those of the half-line. For lower bounds 0 to 20
and upper bounds 50 to 1e300, reflections included, the error is below 1e-13.
Sampling is one inverse CDF for every non-degenerate interval, the whole line
(-inf, inf) included: there the mass is exactly 1 and cdf_lo 0, so a draw is
ndtri(max(u, 2^-53)) bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIntervalError, InvalidBoundsError, QuadratureError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

#: acceptance probabilities below this raise DegenerateIntervalError
MIN_ACCEPTANCE = 1e-300
#: bands narrower than this (in standard deviations) take their moments from
#: the 12-point Gauss-Legendre rule on the band: the nodes and weights on
#: (0, 1) of numpy.polynomial.legendre.leggauss(12), mirrored about 0
NARROW_WIDTH = 0.1
_HALF_NODES = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
               0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
_HALF_WEIGHTS = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                 0.16007832854334642, 0.10693932599531907, 0.04717533638651141)
_LEGENDRE_NODES = np.array([-x for x in _HALF_NODES[::-1]] + list(_HALF_NODES))
_LEGENDRE_WEIGHTS = np.array(_HALF_WEIGHTS[::-1] + _HALF_WEIGHTS)
#: every interval draws by inverse CDF; only the benchmark tracer reads this,
#: splitting its sampler-branch label at this acceptance probability
INVERSE_CDF_MIN_PROB = 1e-3
#: standard-normal mass beyond |z| = 40 underflows double precision entirely
TAIL_CLIP = 40.0
#: smallest positive value of Generator.random(); a uniform of 0 is read as
#: this, so that a draw on a half-line stays finite
MIN_UNIFORM = 2.0 ** -53


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


@functools.cache
def _special():
    # imported on first use, like scipy.integrate in _quad_checked: scipy.special
    # is slow to import, and validate, --help and --version never evaluate it
    import scipy.special

    return scipy.special


def libm(fn, *args) -> np.ndarray:
    """``fn`` of :mod:`math` on each element of ``args``: numpy's own exp,
    expm1, log and power differ from libm in the last bit on CPUs with
    AVX-512, and pinned outputs hang on those bits. An argument ``fn`` refuses
    takes numpy's value, which is then exact (0, inf, -inf or NaN)."""
    def one(*values):
        try:
            return fn(*values)
        except (OverflowError, ValueError):
            return float(getattr(np, fn.__name__)(*values))

    with np.errstate(all="ignore"):  # libm raises the flags of what math refused
        return np.frompyfunc(one, len(args), 1)(*args).astype(float)


def one_value(values: np.ndarray, what: str) -> float:
    """The value of a one-row engine result; NaN there means a band without
    mass, which raises DegenerateIntervalError naming ``what``."""
    value = values.item()
    if math.isnan(value):
        raise DegenerateIntervalError(f"acceptance probability underflows for {what}")
    return value


class Truncations:
    """A block of truncation intervals of a standard normal.

    ``limits`` has shape (2, ...), lower bounds over upper (a flat (2, n) for
    :meth:`inverse_cdf`). Intervals with lower >= 0 are handled reflected to
    (-upper, -lower), so that every lower bound is below 0, deep right-tail
    masses keep their relative accuracy and inverse-CDF uniforms live near 0,
    where ndtri keeps it too. After the reflection a draw at z <= 0 resolves
    to within 2^-52 * Phi(z)/phi(z) < 3e-16 whatever the mass, and a low-mass
    interval that reaches z > 0 is a narrow band around 0; so one inverse CDF
    serves every interval down to MIN_ACCEPTANCE.
    ``mass`` is each interval's acceptance probability, not checked for
    degeneracy; an invalid interval (lower >= upper) has mass <= 0.
    """

    def __init__(self, limits: np.ndarray):
        self.flip = limits[0] >= 0.0
        self.any_flip = np.count_nonzero(self.flip) > 0
        if self.any_flip:
            limits = np.where(self.flip, -limits[::-1], limits)
        self.limits = limits
        cdf = _special().ndtr(limits)
        self.cdf_lo = cdf[0]
        self.mass = cdf[1] - cdf[0]

    def inverse_cdf(self, uniforms: np.ndarray) -> np.ndarray:
        """Draws for every interval from its uniforms (one row each).

        Assumes non-degenerate mass (at least MIN_ACCEPTANCE); a uniform of 0
        is read as MIN_UNIFORM, and the draws are clamped into their interval.
        """
        x = np.maximum(uniforms, MIN_UNIFORM)
        x *= self.mass[:, None]
        x += self.cdf_lo[:, None]
        _special().ndtri(x, out=x)
        lo, hi = self.limits[:, :, None]
        np.clip(x, lo, hi, out=x)
        if self.any_flip:
            np.negative(x, out=x, where=self.flip[:, None])
        return x

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Central moments (m1, m2, m3) of every interval, NaN where its mass
        is below MIN_ACCEPTANCE: the scaled erfcx form in one tail (upper <= 0
        in the reflected frame), the plain ratios across 0, and a
        Gauss-Legendre rule on a band narrower than NARROW_WIDTH."""
        lo, hi = self.limits
        with np.errstate(all="ignore"):
            # one tail, on the mirror image (a, b) with 0 <= a < b
            a, b = mirror = -self.limits[::-1]
            ga, gb = _SQRT_HALF_PI * _special().erfcx(mirror / _SQRT2)
            log_w = 0.5 * (a - b) * (a + b)
            # 1 - w computed via expm1 so narrow intervals keep full precision
            one_minus_w = -libm(math.expm1, log_w)
            # w underflows (b = inf included): the half-line (a, inf) in doubles
            half_line = libm(math.exp, log_w) == 0.0
            dnm = np.where(half_line, ga, (ga - gb) + gb * one_minus_w)
            tail_m1 = np.where(half_line, 1.0, one_minus_w) / dnm
            tail_r2 = np.where(half_line, -a, (b - a) - b * one_minus_w) / dnm
            tail_q = np.where(half_line, a * a - 1.0,
                              (a - b) * (a + b) + (b * b - 1.0) * one_minus_w) / dnm
            # straddling 0: a bound whose density underflows (an infinite one
            # included) adds no term; its square may itself overflow there
            pa, pb = density = libm(math.exp, -0.5 * self.limits * self.limits) / _SQRT_2PI
            apa, bpb = np.where(density > 0.0, self.limits * density, 0.0)
            t_lo, t_hi = np.where(density > 0.0, (self.limits * self.limits - 1.0) * density, 0.0)
            tail = hi <= 0.0
            m1 = np.where(tail, -tail_m1, (pa - pb) / self.mass)
            r2 = np.where(tail, tail_r2, (bpb - apa) / self.mass)
            q = np.where(tail, -tail_q, (t_lo - t_hi) / self.mass)
            m2 = 1.0 - r2 - m1 * m1
            m3 = q + 3.0 * m1 * r2 + 2.0 * libm(math.pow, m1, 3.0)
            narrow = (hi - lo < NARROW_WIDTH) & (self.mass >= MIN_ACCEPTANCE)
            if np.count_nonzero(narrow):
                # z = c + t on (c - h, c + h), weighted by phi(c + t) / phi(c)
                n_lo, n_hi = self.limits[:, narrow]
                c = 0.5 * (n_lo + n_hi)
                t = (0.5 * (n_hi - n_lo))[:, None] * _LEGENDRE_NODES
                w = _LEGENDRE_WEIGHTS * libm(math.exp, -t * (c[:, None] + 0.5 * t))
                w /= np.sum(w, axis=-1, keepdims=True)
                shift = np.sum(w * t, axis=-1)
                d = t - shift[:, None]
                m1[narrow] = c + shift
                m2[narrow] = np.sum(w * d * d, axis=-1)
                m3[narrow] = np.sum(w * d * d * d, axis=-1)
            sign = np.where(self.flip, -1.0, 1.0)
            return tuple(np.where(self.mass >= MIN_ACCEPTANCE, [sign * m1, m2, sign * m3], np.nan))


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


def std_moments(bounds: Bounds) -> Moments:
    """Central moments (m1, m2, m3) of a standard normal truncated to ``bounds``,
    the one-row call of :meth:`Truncations.moments`."""
    moments = Truncations(np.array([[bounds.lower], [bounds.upper]])).moments()
    return Moments(*(one_value(m, f"bounds ({bounds.lower}, {bounds.upper})") for m in moments))


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
    # a quadpack warning (in tail) is forgiven when the error is truly small
    if not (math.isfinite(val) and abserr <= max(1e-13, 1e-9 * abs(val))):
        raise QuadratureError(f"quadrature error {abserr:g} exceeds target for integral "
                              f"{val:g} on [{lo}, {hi}]" + (f": {tail[0]}" if tail else ""))
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

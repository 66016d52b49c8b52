"""Exception hierarchy shared across the package.

Every error raised on purpose by verisynth derives from :class:`VerisynthError`,
so callers can catch one type at the boundary. Numerical routines never return
NaN to signal failure; they raise.
"""
from __future__ import annotations


class VerisynthError(Exception):
    """Base class for all verisynth errors."""


class InvalidBoundsError(VerisynthError):
    """Interval bounds are not an ordered pair (lower < upper, no NaN)."""


class DegenerateIntervalError(VerisynthError):
    """Acceptance probability of the interval underflows below 1e-300."""


class QuadratureError(VerisynthError):
    """The quadrature oracle failed to converge to its error target."""


class DimensionMismatchError(VerisynthError):
    """Vector/matrix operands have incompatible dimensions."""


class RankDeficientError(VerisynthError):
    """The covariate matrix is (numerically) rank deficient."""


class MaxAttemptsError(VerisynthError):
    """A generate-and-filter loop exceeded its attempt budget."""


class InsufficientRoundsError(VerisynthError):
    """Not enough trajectory rounds remain after burn-in for estimation."""


class SeedSpaceError(VerisynthError):
    """Stream-derivation indices fall outside the supported key space."""


class ConfigError(VerisynthError):
    """An experiment config failed to parse or validate."""

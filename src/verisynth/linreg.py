"""Linear-regression retraining on the spectral block design.

The pipeline mirrors the scalar dynamics one covariate direction at a time.
From the real dataset (X0, Y0) we take the OLS estimate and the right singular
vectors v_1..v_p of X0. Each retraining round builds, for every direction j, a
block of verified synthetic responses at covariate x = v_j, averages them into
a per-direction coordinate, and reassembles

    theta_{k+1} = sum_j v_j * (v_j . theta_k + sigma * mean of truncated noise).

Because the directions are orthonormal, each coordinate evolves exactly like
the scalar mean-retraining process with bounds given by the verifier geometry,
which is what makes the closed-form one-step risk below and the k-round
contraction bound (:func:`verisynth.verifier.long_term_bound`) exact
statements about this simulator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidBoundsError, RankDeficientError
from .kernel import FILTER_DIRECT, FILTER_MODES, FILTER_NONE, FILTER_REJECT, retrain_coords
from .truncnorm import std_moments
from .verifier import (
    KnowledgeBall,
    ball_acceptance,
    ball_bounds,
    direction_bounds,
    unit_directions,
)


@dataclass(frozen=True)
class Dataset:
    """A regression sample: covariate rows and matching responses."""

    covariates: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=float)
        y = np.asarray(self.responses, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatchError(f"covariates must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise DimensionMismatchError(
                f"responses shape {y.shape} does not match {x.shape[0]} covariate rows"
            )
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "responses", y)

    @property
    def dimension(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class SpectralDesign:
    """Singular values and right singular directions of the real design matrix.

    ``directions`` holds v_j as rows (shape p x p), orthonormal within 1e-10,
    ordered by descending singular value, each row sign-fixed so its
    largest-magnitude entry is positive.
    """

    singular_values: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        v = np.asarray(self.directions, dtype=float)
        p = s.size
        if v.shape != (p, p):
            raise DimensionMismatchError(f"directions shape {v.shape} vs {p} singular values")
        if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise RankDeficientError("singular values must be finite and positive")
        if np.any(np.diff(s) > 0.0):
            raise InvalidBoundsError("singular values must be non-increasing")
        if not np.allclose(v @ v.T, np.eye(p), atol=1e-10):
            raise InvalidBoundsError("directions must be orthonormal within 1e-10")
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "directions", v)

    @property
    def dimension(self) -> int:
        return int(self.singular_values.size)


@dataclass(frozen=True)
class RetrainState:
    """Current estimator and round counter of a retraining run."""

    theta_hat: np.ndarray
    round_index: int

    def __post_init__(self):
        th = np.asarray(self.theta_hat, dtype=float)
        if th.ndim != 1:
            raise DimensionMismatchError("theta_hat must be a 1-D vector")
        if not np.all(np.isfinite(th)):
            raise InvalidBoundsError("theta_hat must be finite")
        if self.round_index < 0:
            raise InvalidBoundsError("round_index must be >= 0")
        object.__setattr__(self, "theta_hat", th)


@dataclass(frozen=True)
class LinRegConfig:
    """One verified retraining round: the verifier ball, the noise scale and
    the filter mode. ``sigma`` may be zero only in NONE (unfiltered) mode,
    where the update is exact.
    """

    ball: KnowledgeBall
    sigma: float
    filter_mode: str = FILTER_DIRECT

    def __post_init__(self):
        if self.filter_mode not in FILTER_MODES:
            raise InvalidBoundsError(f"unknown filter mode {self.filter_mode!r}")
        if self.sigma < 0.0 or (self.sigma == 0.0 and self.filter_mode != FILTER_NONE):
            raise InvalidBoundsError("sigma must be > 0 (>= 0 allowed only in NONE mode)")


def ols_fit(data: Dataset) -> np.ndarray:
    """Least-squares estimate via orthogonal factorization; errors on rank deficiency."""
    theta, _, rank, _ = np.linalg.lstsq(data.covariates, data.responses, rcond=None)
    if rank < data.dimension:
        raise RankDeficientError(
            f"covariates have rank {rank} < dimension {data.dimension}"
        )
    return theta


def spectral_design(covariates: np.ndarray) -> SpectralDesign:
    """SVD of the design with a deterministic sign convention on the directions."""
    x = np.asarray(covariates, dtype=float)
    if x.ndim != 2 or x.shape[0] < x.shape[1]:
        raise DimensionMismatchError(f"need at least p rows, got shape {x.shape}")
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    tol = max(x.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    if s.size < x.shape[1] or np.any(s <= tol):
        raise RankDeficientError("design matrix is numerically rank deficient")
    # sign fix: make the largest-magnitude entry of each direction positive
    idx = np.argmax(np.abs(vt), axis=1)
    signs = np.sign(vt[np.arange(vt.shape[0]), idx])
    signs[signs == 0.0] = 1.0
    return SpectralDesign(s, vt * signs[:, None])


def _direction_rngs(
    rngs: np.random.Generator | Sequence[np.random.Generator], p: int
) -> list[np.random.Generator]:
    if isinstance(rngs, np.random.Generator):
        return [rngs] * p
    rngs = list(rngs)
    if len(rngs) != p:
        raise DimensionMismatchError(f"need {p} per-direction streams, got {len(rngs)}")
    return rngs


class BlockRound:
    """Retraining rounds of one problem for blocks of estimates, one per row.

    Calling it with a (rows x p) block of estimates, a per-direction count
    and the row streams of :func:`verisynth.kernel.retrain_coords` returns the
    next block, reassembled from its spectral coordinates direction by
    direction in the same order as a single estimate's round.
    """

    def __init__(self, design: SpectralDesign, config: LinRegConfig):
        if config.ball.dimension != design.dimension:
            raise DimensionMismatchError(
                f"ball dimension {config.ball.dimension} vs design dimension {design.dimension}"
            )
        self.directions = design.directions
        self.config = config
        mode = config.filter_mode
        self.units = unit_directions(design.directions) if mode == FILTER_DIRECT else None
        self.accept = ([ball_acceptance(config.ball, v) for v in design.directions]
                       if mode == FILTER_REJECT else None)

    def __call__(self, theta, n_k, streams, label=None, uniforms=None) -> np.ndarray:
        config = self.config
        proj = np.vecdot(theta[:, None, :], self.directions)
        bounds = (None if self.units is None
                  else ball_bounds(config.ball, self.units, theta, config.sigma))
        coords = retrain_coords(proj, config.sigma, config.filter_mode, n_k, streams, label,
                                bounds=bounds, accept=self.accept, uniforms=uniforms)
        new_theta = np.zeros_like(theta)
        for j, v in enumerate(self.directions):
            new_theta += v * coords[:, j, None]
        return new_theta


def retrain_round(
    state: RetrainState,
    design: SpectralDesign,
    config: LinRegConfig,
    n_k: int,
    rngs: np.random.Generator | Sequence[np.random.Generator],
) -> RetrainState:
    """One block-design retraining round with ``n_k`` verified samples per direction.

    ``rngs`` is either a single generator (consumed direction by direction) or a
    sequence of one independent generator per direction.
    """
    if n_k < 1:
        raise InvalidBoundsError(f"n_k must be >= 1, got {n_k}")
    p = design.dimension
    if state.theta_hat.shape != (p,):
        raise DimensionMismatchError(
            f"state dimension {state.theta_hat.shape} vs design dimension {p}"
        )
    streams = _direction_rngs(rngs, p)
    new_theta = BlockRound(design, config)(
        state.theta_hat[None, :], n_k, streams.__getitem__, lambda j: f"direction {j}"
    )
    return RetrainState(new_theta[0], state.round_index + 1)


def baseline_mse(design: SpectralDesign, sigma: float) -> float:
    """Exact OLS risk conditional on the design: sigma^2 * sum_j mu_j^-2."""
    return float(sigma * sigma * np.sum(design.singular_values ** -2.0))


def one_step_prediction(
    design: SpectralDesign,
    true_theta: np.ndarray,
    ball: KnowledgeBall,
    sigma: float,
    n1: int,
) -> float:
    """Closed-form E||theta_1 - true_theta||^2 after one verified retraining round.

    Per direction, with standardized acceptance bounds evaluated at the true
    parameter, the risk contribution is m2/n1 + m1^2 + (m1 m3 + m2^2)/mu_j^2,
    all scaled by sigma^2. Raises DegenerateIntervalError when some direction's
    acceptance region carries no mass.
    """
    if n1 < 1:
        raise InvalidBoundsError(f"n1 must be >= 1, got {n1}")
    true_theta = np.asarray(true_theta, dtype=float)
    if true_theta.shape != (design.dimension,):
        raise DimensionMismatchError(
            f"true_theta shape {true_theta.shape} vs design dimension {design.dimension}"
        )
    total = 0.0
    for j in range(design.dimension):
        bounds = direction_bounds(ball, design.directions[j], true_theta, sigma)
        m = std_moments(bounds)
        mu_sq = float(design.singular_values[j]) ** 2
        total += m.m2 / n1 + m.m1 ** 2 + (m.m1 * m.m3 + m.m2 ** 2) / mu_sq
    return float(sigma * sigma * total)

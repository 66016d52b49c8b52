"""Linear-regression retraining on the spectral block design.

The pipeline mirrors the scalar dynamics one covariate direction at a time.
From the real dataset (X0, Y0) we take the OLS estimate and the right singular
vectors v_1..v_p of X0. Each retraining round builds, for every direction j, a
block of verified synthetic responses at covariate x = v_j, averages them into
a per-direction coordinate, and reassembles

    theta_{k+1} = sum_j v_j * (v_j . theta_k + sigma * mean of truncated noise).

Because the directions are orthonormal, each coordinate evolves exactly like
the scalar mean-retraining process with bounds given by the verifier geometry,
which is what makes the closed forms of :mod:`verisynth.theory` (the OLS and
one-step risks, the k-round contraction bound) exact statements about this
simulator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import FILTER_DIRECT
from .errors import DimensionMismatchError, InvalidBoundsError, RankDeficientError
from .kernel import BlockRound
from .verifier import UNIT_NORM_TOL, Interval1D, KnowledgeBall


@dataclass(frozen=True)
class SpectralDesign:
    """Singular values and right singular directions of the real design matrix.

    ``directions`` holds v_j as rows (shape p x p), orthonormal within
    ``verifier.UNIT_NORM_TOL`` = 1e-10 (every entry of v v^T within it of the
    identity's, so each row is a unit vector within it), ordered by descending
    singular value, each row sign-fixed so its largest-magnitude entry is positive.
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
        if not np.allclose(v @ v.T, np.eye(p), rtol=0.0, atol=UNIT_NORM_TOL):
            raise InvalidBoundsError(f"directions must be orthonormal within {UNIT_NORM_TOL}")
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "directions", v)

    @property
    def dimension(self) -> int:
        return int(self.singular_values.size)


def ols_fit(covariates: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """Least-squares estimate of responses on covariate rows via orthogonal
    factorization; errors on mismatched shapes and on rank deficiency."""
    x = np.asarray(covariates, dtype=float)
    y = np.asarray(responses, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatchError(f"covariates must be 2-D, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise DimensionMismatchError(
            f"responses shape {y.shape} does not match {x.shape[0]} covariate rows"
        )
    theta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise RankDeficientError(f"covariates have rank {rank} < dimension {x.shape[1]}")
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


def retrain_round(
    theta_hat: np.ndarray,
    design: SpectralDesign,
    verifier: KnowledgeBall | Interval1D,
    sigma: float,
    n_k: int,
    rngs: np.random.Generator | Sequence[np.random.Generator],
    mode: str = FILTER_DIRECT,
) -> np.ndarray:
    """The estimate after one block-design retraining round from ``theta_hat``
    with ``n_k`` verified samples per direction; ``verifier``, ``sigma`` and
    ``mode`` are those of :class:`verisynth.kernel.BlockRound`.

    ``rngs`` is either a single generator (consumed direction by direction) or a
    sequence of one independent generator per direction.
    """
    if n_k < 1:
        raise InvalidBoundsError(f"n_k must be >= 1, got {n_k}")
    theta_hat = np.asarray(theta_hat, dtype=float)
    p = design.dimension
    if theta_hat.shape != (p,):
        raise DimensionMismatchError(
            f"theta_hat shape {theta_hat.shape} vs design dimension {p}"
        )
    if not np.all(np.isfinite(theta_hat)):
        raise InvalidBoundsError("theta_hat must be finite")
    streams = [rngs] * p if isinstance(rngs, np.random.Generator) else list(rngs)
    if len(streams) != p:
        raise DimensionMismatchError(f"need {p} per-direction streams, got {len(streams)}")
    new_theta = BlockRound(design, verifier, sigma, mode)(
        theta_hat[None, :], n_k, streams.__getitem__, lambda j: f"direction {j}"
    )
    return new_theta[0]

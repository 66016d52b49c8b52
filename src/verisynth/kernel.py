"""The retraining kernel: one verified round for a block of estimates.

Both problems retrain the same way in spectral coordinates. Along direction
v_j an estimate's generator mean is proj = v_j . theta; the round draws n_k
noise values xi from N(0, 1) as filtered by the verifier along v_j, and moves
the coordinate to proj + sigma * mean(xi). The 1-D problem is the case p = 1,
v = 1. :class:`BlockRound` advances a block of such rows at once:
standardized bounds, acceptance masses and inverse-CDF draws are array
operations over the block. The unfiltered arm is the whole-line truncation
(-inf, inf): the mean of n_k N(0, 1) draws is exactly N(0, 1/n_k), so a row
draws one normal by the same inverse CDF and divides it by sqrt(n_k). Only
the REJECT generate-and-verify loop draws row by row.

The generate-and-verify loop sizes each pass from the row's acceptance mass:
a row still short of ``need`` samples draws ceil(need / mass) raw candidates,
at least 64 and at most ``MAX_REJECT_CHUNK`` and what is left of the attempt
budget, so that one pass usually fills the row. The kept draws, the first n_k
accepted ones of the row's stream, are independent of chunking; only how far
the stream runs past the last of them depends on the chunks. A REJECT row
whose acceptance probability times the per-sample budget is not at least 1
(a NaN mass included) fails before any row draws.

Rows are numbered estimate-major (row = r * p + j) and ``streams(row)`` gives
each row's generator. Rows draw in that order (a direct row takes exactly
n_k uniforms, an unfiltered row one, a REJECT row the chunks its mass sets),
so one generator shared by all rows is consumed exactly as a loop over the
rows would consume it.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .config import FILTER_DIRECT, FILTER_MODES, FILTER_NONE, FILTER_REJECT
from .errors import DimensionMismatchError, InvalidBoundsError, MaxAttemptsError, VerisynthError
from .truncnorm import MIN_ACCEPTANCE, Bounds, Truncations, acceptance_probability

#: REJECT-mode attempt budget per needed sample
MAX_REJECT_ATTEMPTS_PER_SAMPLE = 10 ** 6
#: fewest and most raw candidates one pass of the generate-and-verify loop draws
MIN_REJECT_CHUNK = 64
MAX_REJECT_CHUNK = 2 ** 16

Acceptance = Callable[[np.ndarray], np.ndarray]


def generate_and_verify(
    mean: float, sigma: float, accept: Acceptance, mass: float, count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Keep the first ``count`` raw draws of N(mean, sigma^2) that ``accept`` passes.

    ``mass`` is the probability that ``accept`` passes a draw (0 when it
    underflows; not NaN). A pass still short of ``need`` samples draws
    ceil(need / mass) candidates, at least ``MIN_REJECT_CHUNK`` and at most
    ``MAX_REJECT_CHUNK`` and what is left of the budget of
    ``MAX_REJECT_ATTEMPTS_PER_SAMPLE * count`` attempts. The kept draws are
    independent of chunking; how many candidates are drawn past the last kept
    one is not. Returns standardized residuals, so that every filter mode
    shares one update.
    """
    kept = np.empty(count)
    filled = 0
    attempts = 0
    budget = MAX_REJECT_ATTEMPTS_PER_SAMPLE * count
    while filled < count:
        need = count - filled
        if need >= mass * MAX_REJECT_CHUNK:
            chunk = MAX_REJECT_CHUNK
        else:
            chunk = max(math.ceil(need / mass), MIN_REJECT_CHUNK)
        k = min(chunk, budget - attempts)
        if k <= 0:
            raise MaxAttemptsError(
                f"REJECT filter exhausted {budget} attempts for {count} samples"
            )
        y = rng.standard_normal(k)
        y *= sigma
        y += mean
        attempts += k
        got = y[accept(y)]
        take = min(got.size, need)
        kept[filled : filled + take] = got[:take]
        filled += take
    return (kept - mean) / sigma


def first_uniforms(streams: Callable, rows: int, width: int) -> np.ndarray:
    """Each row's first ``width`` uniforms from ``streams(row)``, in row order."""
    uniforms = np.empty((rows, width))
    for row in range(rows):
        streams(row).random(out=uniforms[row])
    return uniforms


def _row_means(x: np.ndarray) -> np.ndarray:
    # the sum and division of ndarray.mean(axis=-1), without its Python wrapper
    return np.add.reduce(x, axis=-1) / x.shape[-1]


class BlockRound:
    """One retraining round for blocks of estimates, one per row: the
    directions of a ``linreg.SpectralDesign``, a ``verifier`` (a
    ``KnowledgeBall``, or an ``Interval1D`` at p = 1), the noise scale
    ``sigma`` and the filter ``mode``. ``sigma`` is finite, and may be zero
    only in the unfiltered mode, where the update is exact.

    Calling it with a (rows x p) block of estimates, a per-direction count
    ``n_k`` and the row streams returns the next block, reassembled from its
    spectral coordinates direction by direction in the same order as a
    single estimate's round. A direct row reads the first n_k uniforms of
    its stream and an unfiltered row the first one, whose inverse CDF on the
    whole line, ndtri(max(u, 2^-53)), over sqrt(n_k) is the row's mean;
    REJECT rows draw from their streams. ``uniforms``, when given, holds
    those first uniforms, one row each and at least as many columns as the
    mode reads, for rows whose streams are their own. A VerisynthError is
    re-raised with ``label(row)`` of the failing row.
    """

    def __init__(self, design, verifier, sigma: float, mode: str = FILTER_DIRECT):
        if mode not in FILTER_MODES:
            raise InvalidBoundsError(f"unknown filter mode {mode!r}")
        if not (0.0 < sigma < math.inf or (sigma == 0.0 and mode == FILTER_NONE)):
            raise InvalidBoundsError(f"sigma must be > 0 and finite (0 only in NONE mode): {sigma}")
        if verifier.dimension != design.dimension:
            raise DimensionMismatchError(
                f"ball dimension {verifier.dimension} vs design dimension {design.dimension}"
            )
        self.directions = design.directions
        if mode == FILTER_REJECT:
            self.accept = [verifier.acceptance(v) for v in design.directions]
        self.verifier, self.sigma, self.mode = verifier, sigma, mode

    def __call__(self, theta, n_k, streams, label=None, uniforms=None) -> np.ndarray:
        verifier, sigma, mode = self.verifier, self.sigma, self.mode
        proj = np.vecdot(theta[:, None, :], self.directions)
        rows, p = proj.size, proj.shape[1]
        row = 0
        try:
            if mode == FILTER_NONE:
                # the whole line: a row's mean of n_k draws is one draw over sqrt(n_k)
                limits, width, pooled = np.repeat([[-np.inf], [np.inf]], rows, axis=1), 1, n_k
            else:
                limits = verifier.bounds(self.directions, theta, sigma).reshape(2, -1)
                width, pooled = n_k, 1
            block = Truncations(limits)
            if mode == FILTER_REJECT:
                short = ~(block.mass * MAX_REJECT_ATTEMPTS_PER_SAMPLE >= 1.0)
                if np.count_nonzero(short):
                    row = int(np.argmax(short))
                    raise MaxAttemptsError(
                        f"REJECT acceptance probability {block.mass[row]:.3g} is below "
                        f"1 in the budget of {MAX_REJECT_ATTEMPTS_PER_SAMPLE} attempts "
                        f"per sample"
                    )
                means = np.empty(rows)
                masses = block.mass.tolist()
                for row, mean in enumerate(proj.reshape(-1).tolist()):
                    noise = generate_and_verify(mean, sigma, self.accept[row % p],
                                                masses[row], n_k, streams(row))
                    means[row] = _row_means(noise)
            else:
                healthy = block.mass >= MIN_ACCEPTANCE
                if np.count_nonzero(healthy) < rows:
                    row = int(np.argmax(~healthy))
                    # the scalar definitions raise this row's error (invalid or degenerate)
                    acceptance_probability(Bounds(*limits[:, row]))
                if uniforms is None:
                    uniforms = first_uniforms(streams, rows, width)
                means = _row_means(block.inverse_cdf(uniforms[:, :width])) / math.sqrt(pooled)
        except VerisynthError as exc:
            if label is None:
                raise
            raise type(exc)(f"{label(row)}: {exc}") from exc
        coords = proj + sigma * means.reshape(proj.shape)
        new_theta = np.zeros_like(theta)
        for j, v in enumerate(self.directions):
            new_theta += v * coords[:, j, None]
        return new_theta

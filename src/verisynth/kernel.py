"""The retraining kernel: one verified round for a block of estimates.

Both problems retrain the same way in spectral coordinates. Along direction
v_j an estimate's generator mean is proj = v_j . theta; the round draws n_k
noise values xi from N(0, 1) as filtered by the verifier along v_j, and moves
the coordinate to proj + sigma * mean(xi). The 1-D problem is the case p = 1,
v = 1. The kernel advances a block of such rows at once: standardized bounds,
acceptance masses and inverse-CDF draws are array operations over the block;
the unfiltered arm and the REJECT generate-and-verify loop draw row by row.

Rows are numbered estimate-major (row = r * p + j) and ``streams(row)`` gives
each row's generator. Rows draw in that order (a direct row takes exactly
n_k uniforms), so one generator shared by all rows is consumed exactly as a
loop over the rows would consume it.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import MaxAttemptsError, VerisynthError
from .truncnorm import MIN_ACCEPTANCE, Bounds, Truncations, acceptance_probability

FILTER_DIRECT = "direct"
FILTER_REJECT = "reject"
FILTER_NONE = "none"
FILTER_MODES = (FILTER_DIRECT, FILTER_REJECT, FILTER_NONE)

#: REJECT-mode attempt budget per needed sample
MAX_REJECT_ATTEMPTS_PER_SAMPLE = 10 ** 6

Streams = Callable[[int], np.random.Generator]
Acceptance = Callable[[np.ndarray], np.ndarray]


def generate_and_verify(
    mean: float, sigma: float, accept: Acceptance, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Keep the first ``count`` raw draws of N(mean, sigma^2) that ``accept`` passes.

    Returns standardized residuals, so that every filter mode shares one update.
    """
    kept = np.empty(count)
    filled = 0
    attempts = 0
    budget = MAX_REJECT_ATTEMPTS_PER_SAMPLE * count
    while filled < count:
        k = min(max(2 * (count - filled), 64), budget - attempts)
        if k <= 0:
            raise MaxAttemptsError(
                f"REJECT filter exhausted {budget} attempts for {count} samples"
            )
        y = mean + sigma * rng.standard_normal(k)
        attempts += k
        got = y[accept(y)]
        take = min(got.size, count - filled)
        kept[filled : filled + take] = got[:take]
        filled += take
    return (kept - mean) / sigma


def _row_means(x: np.ndarray) -> np.ndarray:
    # the sum and division of ndarray.mean(axis=-1), without its Python wrapper
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def retrain_coords(
    proj: np.ndarray,
    sigma: float,
    mode: str,
    n_k: int,
    streams: Streams,
    label: Callable[[int], str] | None = None,
    *,
    bounds: np.ndarray | None = None,
    accept: Sequence[Acceptance] | None = None,
    uniforms: np.ndarray | None = None,
) -> np.ndarray:
    """New spectral coordinates ``proj + sigma * mean(noise)`` of a block.

    ``proj`` has one row per estimate and one column per direction. Mode
    ``direct`` needs ``bounds``, the standardized lower and upper bounds of
    the truncation stacked on a leading axis, each shaped like ``proj``;
    mode ``reject`` needs ``accept``, one raw acceptance test per direction;
    mode ``none`` draws unfiltered noise.
    ``uniforms`` (rows x n_k), when given, holds the first n_k uniforms of
    every row's stream, for rows whose streams are their own. A
    VerisynthError is re-raised with ``label(row)`` of the failing row.
    """
    rows = proj.size
    row = 0
    try:
        if mode == FILTER_NONE:
            noise = np.empty((rows, n_k))
            for row in range(rows):
                streams(row).standard_normal(out=noise[row])
            means = _row_means(noise)
        elif mode == FILTER_REJECT:
            p = proj.shape[1]
            means = np.empty(rows)
            for row, mean in enumerate(proj.reshape(-1)):
                noise = generate_and_verify(mean, sigma, accept[row % p], n_k, streams(row))
                means[row] = _row_means(noise)
        else:
            limits = bounds.reshape(2, -1)
            block = Truncations(limits)
            healthy = block.mass >= MIN_ACCEPTANCE
            if np.count_nonzero(healthy) < rows:
                row = int(np.argmax(~healthy))
                # the scalar definitions raise this row's error (invalid or degenerate)
                acceptance_probability(Bounds(*limits[:, row]))
            if uniforms is None:
                uniforms = np.empty((rows, n_k))
                for row in range(rows):
                    streams(row).random(out=uniforms[row])
            means = _row_means(block.inverse_cdf(uniforms))
    except VerisynthError as exc:
        if label is None:
            raise
        raise type(exc)(f"{label(row)}: {exc}") from exc
    return proj + sigma * means.reshape(proj.shape)

"""Experiment drivers: deterministic Monte Carlo over the three study designs.

Each driver maps an ExperimentConfig to a list of row dicts matching the CSV
schemas in :mod:`verisynth.output`. All randomness flows through the streams
of :func:`verisynth.seeding.derive_stream`, keyed by (master_seed,
replication, round, direction). The replications are split into contiguous
blocks; each block keeps its estimates as one array, advances them with the
retraining kernel one round at a time, derives its streams' keys in bulk
(:class:`verisynth.seeding.KeyedStreams`) and writes its own slots of
preallocated arrays. Every reduction happens after all blocks finish, in
index order, so results are byte-identical for any block split and worker
count.

Arms of an iterative experiment (e.g. verified vs unfiltered) reuse the same
stream keys — common random numbers — which makes between-arm comparisons
conservative when paired with per-arm standard errors.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .config import (
    KIND_ITERATE_1D,
    KIND_ITERATE_LINREG,
    KIND_LANDSCAPE,
    ExperimentConfig,
)
from .errors import (
    ConfigError,
    DegenerateIntervalError,
    InsufficientRoundsError,
)
from .gaussian1d import (
    Gaussian1DConfig,
    initial_mean,
    one_step_mse_prediction_1d,
    step_block,
)
from .linreg import (
    FILTER_NONE,
    BlockRound,
    Dataset,
    LinRegConfig,
    SpectralDesign,
    baseline_mse,
    ols_fit,
    one_step_prediction,
    spectral_design,
)
from .seeding import BIAS_DIRECTION_KEY, DESIGN_KEY, KeyedStreams, derive_stream
from .verifier import (
    Interval1D,
    KnowledgeBall,
    contraction_rate,
    interval_bounds_1d,
    long_term_bound,
)

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"

#: rounds dropped from the front of a trajectory before fitting the decay rate
CONTRACTION_BURN_IN = 10

#: most noise values a block of replications draws in one round; blocks are
#: cut so that (replications x directions x per-direction count) stays below
BLOCK_ELEMENTS = 2 ** 18

#: most stream keys derived in one call
KEY_CHUNK = 2 ** 14


# ---------------------------------------------------------------------------
# shared experiment-level draws


def design_matrix(config: ExperimentConfig) -> np.ndarray:
    """The real covariate matrix X0, fixed per experiment from a reserved stream."""
    rng = derive_stream(config.master_seed, *DESIGN_KEY)
    return rng.standard_normal((config.n0, config.dimension))


def bias_direction(config: ExperimentConfig) -> np.ndarray:
    """Unit vector along which verifier centers are displaced from truth."""
    rng = derive_stream(config.master_seed, *BIAS_DIRECTION_KEY)
    raw = rng.standard_normal(config.dimension)
    return raw / np.linalg.norm(raw)


def resolve_ball(config: ExperimentConfig) -> KnowledgeBall:
    """The experiment's verifier ball, placing the center for delta-style configs."""
    theta = np.asarray(config.true_theta, dtype=float)
    if config.ball_center is not None:
        center = np.asarray(config.ball_center, dtype=float)
    else:
        center = theta + config.ball_delta * bias_direction(config)
    return KnowledgeBall(center, config.ball_radius, config.slack)


# ---------------------------------------------------------------------------
# replication blocks


def _blocks(replications: int, threads: int, elements_per_rep: int) -> list[range]:
    """Contiguous 1-based replication ranges: one per thread, cut to BLOCK_ELEMENTS."""
    size = min(math.ceil(replications / threads), max(1, BLOCK_ELEMENTS // elements_per_rep))
    return [range(start, min(start + size, replications + 1))
            for start in range(1, replications + 1, size)]


def _run_blocks(simulate: Callable[[range], None], blocks: list[range], threads: int) -> None:
    """Simulate every block on at most ``threads`` workers, one per block and CPU at most."""
    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        for block in blocks:
            simulate(block)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(simulate, block) for block in blocks]:
            future.result()


def _keys(block: range, rounds: range, directions: range) -> np.ndarray:
    """(replication, round, direction) keys: one row of keys per round,
    replication-major within it."""
    k, rep, j = np.meshgrid(rounds, block, directions, indexing="ij")
    return np.stack([rep, k, j], axis=-1).reshape(len(rounds), -1, 3)


def _round_rows(streams: KeyedStreams, block: range, rounds: int, p: int):
    """Yield (k, streams of round k's rows) for k = 1..rounds.

    Keys are derived for up to KEY_CHUNK rows at once, spanning many rounds
    when the block is small.
    """
    per_call = max(1, KEY_CHUNK // (len(block) * p))
    for first in range(1, rounds + 1, per_call):
        chunk = range(first, min(first + per_call, rounds + 1))
        chunk_streams = streams.derive(_keys(block, chunk, range(1, p + 1)))
        for i, k in enumerate(chunk):
            yield k, chunk_streams[i]


def _real_estimates(
    config: ExperimentConfig, covariates: np.ndarray, streams: KeyedStreams, block: range
) -> np.ndarray:
    """OLS fits of each replication's real data, drawn from its (rep, 0, 0) stream."""
    signal = covariates @ np.asarray(config.true_theta, dtype=float)
    real = streams.derive(_keys(block, range(1), range(1)))[0]
    estimates = np.empty((len(block), config.dimension))
    for row in range(len(block)):
        noise = real.stream(row).standard_normal(covariates.shape[0])
        estimates[row] = ols_fit(Dataset(covariates, signal + config.sigma * noise))
    return estimates


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms; each row's dot product is bit for bit ``np.linalg.norm(row)``."""
    return np.sqrt(np.vecdot(x, x))


def _mean_se(samples: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=axis)
    n = samples.shape[axis]
    if n > 1:
        se = samples.std(axis=axis, ddof=1) / math.sqrt(n)
    else:
        se = np.zeros_like(mean)
    return mean, se


# ---------------------------------------------------------------------------
# one-step landscape


def _landscape_theory(
    config: ExperimentConfig, design: SpectralDesign
) -> tuple[float, list[tuple[KnowledgeBall | None, dict]]]:
    """The OLS baseline MSE and, per (delta, r) grid cell, the cell's verifier
    ball with its closed-form one-step MSE and predicted log ratio.

    A cell whose acceptance region carries no mass at the true parameter has
    no ball (None) and NaN predictions.
    """
    theta = np.asarray(config.true_theta, dtype=float)
    direction = bias_direction(config)
    base = baseline_mse(design, config.sigma)
    cells = []
    for delta in config.delta_values:
        for radius in config.r_values:
            ball = KnowledgeBall(theta + delta * direction, radius, config.sigma_c)
            try:
                one_step = one_step_prediction(design, theta, ball, config.sigma, config.n1)
                ratio = 0.5 * math.log(base / one_step)
            except DegenerateIntervalError:
                ball, one_step, ratio = None, math.nan, math.nan
            cells.append((ball, {"delta": delta, "r": radius,
                                 "one_step_mse": one_step, "theory_log_ratio": ratio}))
    return base, cells


def run_landscape(config: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Mean log error-reduction ratio over a (delta, r) verifier grid.

    Returns one row per grid cell with the empirical statistic, its standard
    error, and the closed-form prediction. Cells whose acceptance region is
    degenerate for the theory point or any replication are emitted with
    status 'degenerate' and NaN statistics rather than dropped.
    """
    if config.kind != KIND_LANDSCAPE:
        raise ConfigError(f"run_landscape needs a landscape config, got {config.kind}")
    theta = np.asarray(config.true_theta, dtype=float)
    covariates = design_matrix(config)
    design = spectral_design(covariates)
    _, cells = _landscape_theory(config, design)
    reps, p = config.replications, config.dimension

    degenerate = np.array([ball is None for ball, _ in cells])
    cell_rounds = [
        None if ball is None else BlockRound(design, LinRegConfig(
            dimension=p, true_theta=theta, ball=ball, sigma=config.sigma,
            n0=config.n0, schedule=np.array([config.n1]),
        ))
        for ball, _ in cells
    ]
    norm0 = np.empty(reps)
    norm1 = np.full((len(cells), reps), math.nan)

    def simulate(block: range) -> None:
        slots = slice(block.start - 1, block.stop - 1)
        streams = KeyedStreams(config.master_seed)
        theta_hat = _real_estimates(config, covariates, streams, block)
        norm0[slots] = _norms(theta_hat - theta)
        # every cell's round draws from the same (rep, 1, j) streams, so the
        # inverse-CDF branch of every cell reads the same uniforms
        round1 = streams.derive(_keys(block, range(1, 2), range(1, p + 1)))[0]
        uniforms = np.empty((len(block) * p, config.n1))
        for row in range(uniforms.shape[0]):
            round1.stream(row).random(out=uniforms[row])
        for i, cell_round in enumerate(cell_rounds):
            if cell_round is None:
                continue
            try:
                theta1 = cell_round(theta_hat, config.n1, round1.stream, round1.label,
                                    uniforms)
            except DegenerateIntervalError:
                degenerate[i] = True
                continue
            norm1[i, slots] = _norms(theta1 - theta)

    _run_blocks(simulate, _blocks(reps, threads, p * config.n1), threads)

    rows = []
    for i, (_, cell) in enumerate(cells):
        if degenerate[i] or np.any(~np.isfinite(norm1[i])):
            mean = se = math.nan
            status = STATUS_DEGENERATE
        else:
            status = STATUS_OK
            if config.log_ratio_of_means:
                m0, m1 = norm0.mean(), norm1[i].mean()
                mean = math.log(m0 / m1)
                cov = np.cov(norm0, norm1[i], ddof=1)
                var = (cov[0, 0] / m0 ** 2 + cov[1, 1] / m1 ** 2
                       - 2.0 * cov[0, 1] / (m0 * m1)) / reps
                se = math.sqrt(max(var, 0.0))
            else:
                logs = np.log(norm0 / norm1[i])
                mean, se = (float(v) for v in _mean_se(logs))
        rows.append({
            "delta": cell["delta"], "r": cell["r"], "sigma_c": config.sigma_c,
            "log_ratio_mean": mean, "log_ratio_se": se,
            "theory_log_ratio": math.nan if degenerate[i] else cell["theory_log_ratio"],
            "n_reps": reps, "status": status,
        })
    return rows


# ---------------------------------------------------------------------------
# iterative retraining (linear regression)


def _linreg_theory(
    config: ExperimentConfig, design: SpectralDesign, ball: KnowledgeBall, per_dir: np.ndarray
) -> dict:
    """Closed forms of an iterate_linreg config: the contraction rate, the OLS
    baseline MSE, E||theta_0 - center||^2 and the k-round bound for k = 0..K."""
    base = baseline_mse(design, config.sigma)
    init = base + float(np.sum((ball.center - np.asarray(config.true_theta, dtype=float)) ** 2))
    rho = contraction_rate(ball, config.sigma)
    scale = config.dimension * config.sigma * config.sigma
    bounds = [long_term_bound(rho, init, per_dir, k, scale) for k in range(per_dir.size + 1)]
    return {"rho": rho, "baseline_mse": base, "initial_expected_sq_center": init,
            "bounds": bounds}


def _run_iterative_linreg(config: ExperimentConfig, threads: int) -> list[dict]:
    theta = np.asarray(config.true_theta, dtype=float)
    covariates = design_matrix(config)
    design = spectral_design(covariates)
    ball = resolve_ball(config)
    reps, p = config.replications, config.dimension
    per_dir = config.schedule.per_direction_counts(p)
    k_rounds = per_dir.size
    theory = _linreg_theory(config, design, ball, per_dir)

    arm_rounds = {
        arm: BlockRound(design, LinRegConfig(
            dimension=p, true_theta=theta, ball=ball, sigma=config.sigma,
            n0=config.n0, schedule=per_dir, filter_mode=arm,
        ))
        for arm in config.arms
    }
    sq_star = {arm: np.empty((reps, k_rounds + 1)) for arm in config.arms}
    sq_center = {arm: np.empty((reps, k_rounds + 1)) for arm in config.arms}

    def record(arm: str, slots: slice, k: int, estimates: np.ndarray) -> None:
        sq_star[arm][slots, k] = np.sum((estimates - theta) ** 2, axis=1)
        sq_center[arm][slots, k] = np.sum((estimates - ball.center) ** 2, axis=1)

    def simulate(block: range) -> None:
        slots = slice(block.start - 1, block.stop - 1)
        streams = KeyedStreams(config.master_seed)
        theta_hat = _real_estimates(config, covariates, streams, block)
        estimates = dict.fromkeys(config.arms, theta_hat)
        for arm in config.arms:
            record(arm, slots, 0, theta_hat)
        for k, round_k in _round_rows(streams, block, k_rounds, p):
            for arm, arm_round in arm_rounds.items():
                estimates[arm] = arm_round(estimates[arm], int(per_dir[k - 1]),
                                           round_k.stream, round_k.label)
                record(arm, slots, k, estimates[arm])

    _run_blocks(simulate, _blocks(reps, threads, p * int(per_dir.max(initial=1))), threads)

    rows = []
    for arm in config.arms:
        if arm == FILTER_NONE:
            rho, bounds = math.nan, [math.nan] * (k_rounds + 1)
        else:
            rho, bounds = theory["rho"], theory["bounds"]
        star_mean, star_se = _mean_se(sq_star[arm])
        center_mean, center_se = _mean_se(sq_center[arm])
        for k in range(k_rounds + 1):
            rows.append({
                "arm": arm, "round": k,
                "n_k_per_direction": 0 if k == 0 else int(per_dir[k - 1]),
                "dist_theta_star_mean": float(star_mean[k]),
                "dist_theta_star_se": float(star_se[k]),
                "dist_center_mean": float(center_mean[k]),
                "dist_center_se": float(center_se[k]),
                "theory_bound": bounds[k], "rho": rho, "n_reps": reps,
            })
    return rows


# ---------------------------------------------------------------------------
# iterative retraining (1-D Gaussian mean)


def _gaussian1d_theory(
    config: ExperimentConfig, interval: Interval1D, per_dir: np.ndarray
) -> dict:
    """Closed forms of an iterate_1d config: the contraction rate, the fixed
    point (the interval midpoint) and the k-round bound on the squared
    distance to it for k = 0..K. A half-line has no fixed point and does not
    contract, so all three are NaN there."""
    midpoint = interval.midpoint
    if not math.isfinite(midpoint):
        return {"rho": math.nan, "fixed_point": midpoint,
                "bounds": [math.nan] * (per_dir.size + 1)}
    rho = contraction_rate(interval, config.sigma)
    init_std = 1.0 / config.n0 + ((config.true_mean - midpoint) / config.sigma) ** 2
    bounds = [config.sigma ** 2 * long_term_bound(rho, init_std, per_dir, k)
              for k in range(per_dir.size + 1)]
    return {"rho": rho, "fixed_point": midpoint, "bounds": bounds}


def _run_iterative_1d(config: ExperimentConfig, threads: int) -> list[dict]:
    interval = Interval1D(config.interval_lower, config.interval_upper)
    per_dir = config.schedule.per_direction_counts(1)
    bounds = _gaussian1d_theory(config, interval, per_dir)["bounds"]
    k_rounds = per_dir.size
    reps = config.replications
    arm = config.arms[0]
    cfg1d = Gaussian1DConfig(
        true_mean=config.true_mean, sigma=config.sigma, interval=interval,
        n0=config.n0, schedule=per_dir, filter_mode=arm,
    )
    estimates = np.empty((reps, k_rounds + 1))

    def simulate(block: range) -> None:
        slots = slice(block.start - 1, block.stop - 1)
        streams = KeyedStreams(config.master_seed)
        real = streams.derive(_keys(block, range(1), range(1)))[0]
        means = np.array([initial_mean(cfg1d, real.stream(row)) for row in range(len(block))])
        estimates[slots, 0] = means
        for k, round_k in _round_rows(streams, block, k_rounds, 1):
            means = step_block(means, cfg1d, int(per_dir[k - 1]), round_k.stream, round_k.label)
            estimates[slots, k] = means

    _run_blocks(simulate, _blocks(reps, threads, int(per_dir.max(initial=1))), threads)

    est_mean, est_se = _mean_se(estimates)
    if math.isfinite(interval.midpoint):
        sq_mean, sq_se = _mean_se((estimates - interval.midpoint) ** 2)
    else:
        sq_mean = sq_se = np.full(k_rounds + 1, math.nan)

    rows = []
    for k in range(k_rounds + 1):
        rows.append({
            "round": k, "n_k": 0 if k == 0 else int(per_dir[k - 1]),
            "mean_estimate_mean": float(est_mean[k]),
            "mean_estimate_se": float(est_se[k]),
            "dist_midpoint_mean": float(sq_mean[k]),
            "dist_midpoint_se": float(sq_se[k]),
            "theory_bound": bounds[k], "n_reps": reps,
        })
    return rows


def run_iterative(config: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Per-round Monte Carlo trajectory statistics with the matching theory bound.

    Linear-regression configs yield one row block per arm (trajectory.csv
    schema); 1-D configs yield one block (gaussian1d.csv schema). Distance
    columns hold mean SQUARED distances so they are directly comparable to the
    contraction bound.
    """
    if config.kind == KIND_ITERATE_LINREG:
        return _run_iterative_linreg(config, threads)
    if config.kind == KIND_ITERATE_1D:
        return _run_iterative_1d(config, threads)
    raise ConfigError(f"run_iterative needs an iterate config, got {config.kind}")


# ---------------------------------------------------------------------------
# empirical contraction rate and closed-form summaries


def estimate_contraction(
    rounds: np.ndarray, mean_sq_dist: np.ndarray, burn_in: int = CONTRACTION_BURN_IN
) -> float:
    """Empirical contraction rate from a mean-squared-distance trajectory.

    Fits log E-distance^2 against the round index by least squares on rounds
    >= ``burn_in`` and returns exp(slope / 2). Requires at least 10 usable
    (finite, positive) points after burn-in.
    """
    rounds = np.asarray(rounds, dtype=float)
    mean_sq = np.asarray(mean_sq_dist, dtype=float)
    if rounds.shape != mean_sq.shape or rounds.ndim != 1:
        raise InsufficientRoundsError("rounds and mean_sq_dist must be matching 1-D arrays")
    keep = (rounds >= burn_in) & np.isfinite(mean_sq) & (mean_sq > 0.0)
    if keep.sum() < 10:
        raise InsufficientRoundsError(
            f"need >= 10 usable rounds after burn-in {burn_in}, got {int(keep.sum())}"
        )
    slope = np.polyfit(rounds[keep], np.log(mean_sq[keep]), 1)[0]
    return float(math.exp(0.5 * slope))


def theory_summary(config: ExperimentConfig) -> dict:
    """Closed-form predictions for a config, computed without simulation."""
    if config.kind == KIND_LANDSCAPE:
        base, cells = _landscape_theory(config, spectral_design(design_matrix(config)))
        return {"experiment": config.kind, "baseline_mse": base,
                "cells": [cell for _, cell in cells]}
    if config.kind == KIND_ITERATE_LINREG:
        design = spectral_design(design_matrix(config))
        ball = resolve_ball(config)
        per_dir = config.schedule.per_direction_counts(config.dimension)
        theory = _linreg_theory(config, design, ball, per_dir)
        bounds = theory.pop("bounds")
        theta = np.asarray(config.true_theta, dtype=float)
        return {"experiment": config.kind, **theory,
                "one_step_mse": one_step_prediction(design, theta, ball, config.sigma,
                                                    int(per_dir[0])),
                "final_round_bound": bounds[-1]}
    if config.kind == KIND_ITERATE_1D:
        interval = Interval1D(config.interval_lower, config.interval_upper)
        per_dir = config.schedule.per_direction_counts(1)
        theory = _gaussian1d_theory(config, interval, per_dir)
        bounds = theory.pop("bounds")
        at_truth = interval_bounds_1d(interval, config.true_mean, config.sigma)
        out = {"experiment": config.kind, **theory,
               "one_step_mse": config.sigma ** 2 * one_step_mse_prediction_1d(
                   at_truth, config.n0, int(per_dir[0]))}
        if math.isfinite(interval.midpoint):
            out["final_round_bound"] = bounds[-1]
        return out
    raise ConfigError(f"unknown experiment kind {config.kind}")

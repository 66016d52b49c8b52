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

Arms of an experiment (the filter modes of an iterative run, the (delta, r)
cells of a landscape) reuse the same stream keys — common random numbers —
which makes between-arm comparisons conservative when paired with per-arm
standard errors. Each round's row streams are read once, into one block of
uniforms that every arm shares: a direct arm reads each row's first n_k
uniforms and an unfiltered arm the first of them; a REJECT arm draws its
candidates from the streams itself. The closed forms are in :mod:`verisynth.theory`.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .config import (FILTER_DIRECT, FILTER_NONE, KIND_ITERATE_1D, KIND_ITERATE_LINREG,
                     KIND_LANDSCAPE, MIN_BLOCK_NOISE, ExperimentConfig)
from .errors import (ConfigError, DegenerateIntervalError, InsufficientRoundsError,
                     InvalidBoundsError)
from .gaussian1d import initial_mean
from .kernel import BlockRound, first_uniforms
from .linreg import SpectralDesign, ols_fit, spectral_design
from .output import columns_for
from .seeding import BIAS_DIRECTION_KEY, DESIGN_KEY, KeyedStreams, derive_stream
from .theory import (baseline_mse, contraction_rate, long_term_bounds, one_step_prediction,
                     one_step_predictions)
from .truncnorm import libm
from .verifier import Interval1D, KnowledgeBall

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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(simulate: Callable[[range], None], replications: int, threads: int,
                noise_per_rep: int) -> None:
    """Simulate replications 1..``replications`` in contiguous blocks cut to
    BLOCK_ELEMENTS, one per worker that can run (``threads``, at most one per
    usable CPU) and that gets at least MIN_BLOCK_NOISE noise values per round."""
    workers = min(threads, _usable_cpus(),
                  max(1, replications * noise_per_rep // MIN_BLOCK_NOISE))
    size = min(math.ceil(replications / workers), max(1, BLOCK_ELEMENTS // noise_per_rep))
    blocks = [range(start, min(start + size, replications + 1))
              for start in range(1, replications + 1, size)]
    workers = min(workers, len(blocks))
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


def _real_estimates(streams: KeyedStreams, block: range, fit: Callable) -> np.ndarray:
    """Each replication's real-data fit, drawn from its (rep, 0, 0) stream, one row each."""
    real = streams.derive(_keys(block, range(1), range(1)))[0]
    return np.array([fit(real.stream(row)) for row in range(len(block))]).reshape(len(block), -1)


def _real_data(config: ExperimentConfig) -> tuple[SpectralDesign, Callable]:
    """The spectral design of the experiment's covariates, and the OLS fit of
    real responses at them whose noise a replication's stream draws."""
    covariates = design_matrix(config)
    theta = np.asarray(config.true_theta, dtype=float)
    return spectral_design(covariates), lambda rng: ols_fit(
        covariates, covariates @ theta + config.sigma * rng.standard_normal(covariates.shape[0]))


def _run_arms(config: ExperimentConfig, threads: int, design: SpectralDesign, rounds: dict,
              per_dir: tuple[int, ...], widths: tuple[int, ...], fit: Callable,
              record: Callable) -> None:
    """Retrain each replication's real-data fit through every arm's round
    ``rounds[arm]``, passing each block's estimates to
    ``record(arm, slots, k, estimates)`` at round 0 and every round k.

    Round k draws ``per_dir[k - 1]`` per direction; every arm shares its rows'
    first ``widths[k - 1]`` uniforms. No arm's estimates outlive the last round.
    """
    p = design.dimension
    last = len(per_dir)

    def simulate(block: range) -> None:
        slots = slice(block.start - 1, block.stop - 1)
        streams = KeyedStreams(config.master_seed)
        theta_hat = _real_estimates(streams, block, fit)
        estimates = dict.fromkeys(rounds, theta_hat)
        for arm in rounds:
            record(arm, slots, 0, theta_hat)
        for k, round_k in _round_rows(streams, block, last, p):
            n_k, width = per_dir[k - 1], widths[k - 1]
            uniforms = None
            if width:
                uniforms = first_uniforms(round_k.stream, round_k.keys.shape[0], width)
            for arm, arm_round in rounds.items():
                theta_k = arm_round(estimates[arm], n_k, round_k.stream, round_k.label,
                                    uniforms)
                record(arm, slots, k, theta_k)
                estimates[arm] = theta_k if k < last else None

    _run_blocks(simulate, config.replications, threads, p * max(per_dir))


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms; each row's dot product is bit for bit ``np.linalg.norm(row)``."""
    return np.sqrt(np.vecdot(x, x))


def _usable(norms: np.ndarray) -> bool:
    """Whether every error norm is positive and finite, so that its log is."""
    return bool(np.all((norms > 0.0) & (norms < math.inf)))


def _mean_se(samples: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error; a mean past the largest double is inf and the
    spread of infinities NaN, without a warning. A NaN mean has a NaN error."""
    n = samples.shape[axis]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.mean(axis=axis)
        if n > 1:
            return mean, samples.std(axis=axis, ddof=1) / math.sqrt(n)
    return mean, np.where(np.isnan(mean), math.nan, 0.0)


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
    grid = [(delta, radius) for delta in config.delta_values for radius in config.r_values]
    balls = [KnowledgeBall(theta + delta * direction, radius, config.sigma_c)
             for delta, radius in grid]
    one_step, ratio = one_step_predictions(design, theta, balls, config.sigma, config.n1)
    cells = [(None if math.isnan(mse) else ball,
              {"delta": delta, "r": radius, "one_step_mse": float(mse),
               "theory_log_ratio": float(log_ratio)})
             for ball, (delta, radius), mse, log_ratio in zip(balls, grid, one_step, ratio)]
    return baseline_mse(design, config.sigma), cells


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
    design, fit = _real_data(config)
    _, cells = _landscape_theory(config, design)
    reps = config.replications

    degenerate = np.array([ball is None for ball, _ in cells])
    norm0 = np.empty(reps)
    norm1 = np.full((len(cells), reps), math.nan)

    def cell_round(i: int, ball: KnowledgeBall) -> Callable:
        # a replication whose acceptance region has no mass, or whose band
        # collapses to one double, makes the cell degenerate
        block_round = BlockRound(design, ball, config.sigma)

        def advance(theta_hat: np.ndarray, *args) -> np.ndarray:
            try:
                return block_round(theta_hat, *args)
            except (DegenerateIntervalError, InvalidBoundsError):
                degenerate[i] = True
                return np.full_like(theta_hat, math.nan)
        return advance

    def record(i: int, slots: slice, k: int, estimates: np.ndarray) -> None:
        # round 0 is the real-data fit, the same for every cell; an error
        # beyond ~1e154 has an inf norm (set here: a worker has its own errstate)
        with np.errstate(over="ignore"):
            (norm1[i] if k else norm0)[slots] = _norms(estimates - theta)

    # the cells are the arms of one round: every cell's round draws from the
    # same (rep, 1, j) streams, so every cell reads the same uniforms
    rounds = {i: cell_round(i, ball) for i, (ball, _) in enumerate(cells) if ball is not None}
    per_dir = (config.n1,)
    _run_arms(config, threads, design, rounds, per_dir, per_dir, fit, record)

    # a cell with an error norm of 0 or inf has no log ratio: a sigma below
    # the spacing of doubles at theta* rounds estimates to it exactly
    rows, real_usable = [], _usable(norm0)
    for i, (_, cell) in enumerate(cells):
        if degenerate[i] or not (real_usable and _usable(norm1[i])):
            mean = se = math.nan
            status = STATUS_DEGENERATE
        else:
            status = STATUS_OK
            if config.log_ratio_of_means:
                m0, m1 = norm0.mean(), norm1[i].mean()
                mean, se = math.log(m0 / m1), 0.0
                if reps > 1:
                    cov = np.cov(norm0, norm1[i], ddof=1)
                    var = (cov[0, 0] / m0 ** 2 + cov[1, 1] / m1 ** 2
                           - 2.0 * cov[0, 1] / (m0 * m1)) / reps
                    se = math.sqrt(max(var, 0.0))
            else:
                logs = libm(math.log, norm0 / norm1[i])
                mean, se = (float(v) for v in _mean_se(logs))
        rows.append({
            "delta": cell["delta"], "r": cell["r"], "sigma_c": config.sigma_c,
            "log_ratio_mean": mean, "log_ratio_se": se,
            "theory_log_ratio": math.nan if degenerate[i] else cell["theory_log_ratio"],
            "n_reps": reps, "status": status,
        })
    return rows


# ---------------------------------------------------------------------------
# iterative retraining: the 1-D mean is the regression problem at p = 1


def _iterate_problem(config: ExperimentConfig) -> tuple:
    """An iterate config's spectral design, real-data fit, verifier, true
    parameter, verifier center and real-data baseline MSE. The 1-D mean is
    the case p = 1: one direction v = 1 of precision n0, the mean of n0
    draws, the interval and its midpoint."""
    if config.kind == KIND_ITERATE_1D:
        design = SpectralDesign(np.array([math.sqrt(config.n0)]), np.ones((1, 1)))
        interval = Interval1D(config.interval_lower, config.interval_upper)
        problem = (design, lambda rng: initial_mean(config, rng), interval,
                   np.array([config.true_mean]), np.array([interval.midpoint]))
    else:
        design, fit = _real_data(config)
        ball = resolve_ball(config)
        problem = (design, fit, ball, np.asarray(config.true_theta, dtype=float), ball.center)
    return (*problem, baseline_mse(design, config.sigma))


def _iterate_theory(config: ExperimentConfig,
                    problem: tuple) -> tuple[tuple[int, ...], float, float, list[float]]:
    """An iterate problem's per-direction counts, contraction rate,
    E||theta_0 - center||^2 and k-round bound on the squared distance to the
    center for k = 0..K. A half-line has no center and does not contract, so
    its rate and bounds are NaN."""
    design, _, verifier, theta, center, baseline = problem
    per_dir = config.schedule.per_direction_counts(design.dimension)
    with np.errstate(over="ignore"):  # a center beyond ~1e154 from the truth: no bound
        init = baseline + float(np.sum((center - theta) ** 2))
    if not np.all(np.isfinite(center)):
        return per_dir, math.nan, init, [math.nan] * (len(per_dir) + 1)
    rho = contraction_rate(verifier, config.sigma)
    scale = theta.size * config.sigma * config.sigma
    return per_dir, rho, init, long_term_bounds(rho, init, per_dir, scale).tolist()


def run_iterative(config: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Per-round Monte Carlo trajectory statistics with the matching theory bound.

    Linear-regression configs yield one row block per arm (trajectory.csv
    schema); 1-D configs yield one block (gaussian1d.csv schema). Distance
    columns hold mean SQUARED distances so they are directly comparable to the
    contraction bound.
    """
    if config.kind not in (KIND_ITERATE_LINREG, KIND_ITERATE_1D):
        raise ConfigError(f"run_iterative needs an iterate config, got {config.kind}")
    one_d = config.kind == KIND_ITERATE_1D
    problem = _iterate_problem(config)
    design, fit, verifier, theta, center, _ = problem
    per_dir, rho, _, bounds = _iterate_theory(config, problem)
    reps, k_rounds = config.replications, len(per_dir)

    # per (replication, round, arm): the squared distances to the truth and
    # the center, or at 1-D the estimate, whose distance is squared after the run
    kept = {arm: np.empty((1 if one_d else 2, reps, k_rounds + 1)) for arm in config.arms}

    def record(arm: str, slots: slice, k: int, estimates: np.ndarray) -> None:
        if one_d:
            kept[arm][0, slots, k] = estimates[:, 0]
        else:
            # a distance beyond ~1e154 squares to inf (set here: a worker has its own errstate)
            with np.errstate(over="ignore"):
                kept[arm][0, slots, k] = np.sum((estimates - theta) ** 2, axis=1)
                kept[arm][1, slots, k] = np.sum((estimates - center) ** 2, axis=1)

    rounds = {arm: BlockRound(design, verifier, config.sigma, arm) for arm in config.arms}
    # the uniforms per row the arms share: n_k with a direct arm, else 1 with an unfiltered arm
    widths = per_dir if FILTER_DIRECT in rounds else (int(FILTER_NONE in rounds),) * k_rounds
    _run_arms(config, threads, design, rounds, per_dir, widths, fit, record)

    rows, columns = [], columns_for(config.kind)
    for arm in config.arms:
        first = kept[arm][0]
        if not one_d:
            stats = (*_mean_se(first), *_mean_se(kept[arm][1]))
        else:
            # a midpoint beyond ~1e154 squares to inf; a half-line's NaN gives NaN
            with np.errstate(over="ignore"):
                stats = (*_mean_se(first), *_mean_se((first - center[0]) ** 2))
        unfiltered = arm == FILTER_NONE
        for k in range(k_rounds + 1):
            values = (k, 0 if k == 0 else per_dir[k - 1],
                      *(float(stat[k]) for stat in stats), math.nan if unfiltered else bounds[k])
            if not one_d:  # trajectory.csv: the arm first, rho after the bound
                values = (arm, *values, math.nan if unfiltered else rho)
            rows.append(dict(zip(columns, (*values, reps))))
    return rows


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
    if config.kind not in (KIND_ITERATE_LINREG, KIND_ITERATE_1D):
        raise ConfigError(f"unknown experiment kind {config.kind}")
    problem = _iterate_problem(config)
    design, _, verifier, theta, _, baseline = problem
    per_dir, rho, init, bounds = _iterate_theory(config, problem)
    one_step = one_step_prediction(design, theta, verifier, config.sigma, per_dir[0])
    if config.kind == KIND_ITERATE_LINREG:
        return {"experiment": config.kind, "rho": rho, "baseline_mse": baseline,
                "initial_expected_sq_center": init, "one_step_mse": one_step,
                "final_round_bound": bounds[-1]}
    out = {"experiment": config.kind, "rho": rho, "fixed_point": verifier.midpoint,
           "one_step_mse": one_step}
    if math.isfinite(verifier.midpoint):
        out["final_round_bound"] = bounds[-1]
    return out

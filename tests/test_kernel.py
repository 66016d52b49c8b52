"""The batched retraining kernel against the per-stream definitions it replaces.

Every result is compared by ``==`` with a reference built from the scalar
definitions: ``derive_stream`` for the streams, a loop over directions with
``direction_bounds`` / ``sample_truncated`` for one round, and a loop over
replications and rounds for the experiment runners.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verisynth import (
    Dataset,
    DegenerateIntervalError,
    Gaussian1DConfig,
    Interval1D,
    KnowledgeBall,
    LinRegConfig,
    MaxAttemptsError,
    RetrainState,
    SeedSpaceError,
    config_from_mapping,
    derive_stream,
    design_matrix,
    direction_bounds,
    interval_bounds_1d,
    ols_fit,
    one_step_prediction,
    resolve_ball,
    retrain_round,
    run_iterative,
    run_landscape,
    sample_truncated,
    spectral_design,
)
from verisynth import kernel
from verisynth.gaussian1d import initial_mean, retrain_step
from verisynth.kernel import generate_and_verify, retrain_coords
from verisynth.seeding import MAX_INDEX, KeyedStreams
from verisynth.truncnorm import Truncations
from verisynth.verifier import ball_acceptance

INDEX = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, MAX_INDEX]),
                  st.integers(0, MAX_INDEX))


# --- bulk stream keys -----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(master=INDEX, keys=st.lists(st.tuples(INDEX, INDEX, INDEX), min_size=1, max_size=6))
@example(master=0, keys=[(0, 0, 0), (2 ** 32 - 1, 2 ** 32, 0)])
def test_bulk_keys_equal_seed_sequence(master, keys):
    rows = KeyedStreams(master).derive(np.array(keys, dtype=np.uint64))
    for i, key in enumerate(keys):
        expected = np.random.SeedSequence(master, spawn_key=key).generate_state(2, np.uint64)
        assert np.array_equal(rows.keys[i], expected)


def test_positioned_generator_draws_like_derive_stream():
    keys = [(1, 2, 3), (7, 0, 0), (2 ** 32, 5, 1), (3, 60, 8)]
    rows = KeyedStreams(1234).derive(np.array(keys))
    for i in [0, 1, 2, 3, 1, 0]:  # revisiting a key restarts its stream
        for draw in ("random", "standard_normal", "exponential"):
            got = getattr(rows.stream(i), draw)(33)
            assert np.array_equal(got, getattr(derive_stream(1234, *keys[i]), draw)(33))
        assert np.array_equal(rows.stream(i).uniform(-2.0, 3.0, 17),
                              derive_stream(1234, *keys[i]).uniform(-2.0, 3.0, 17))
    assert rows.label(3) == "replication 3, round 60, direction 8"


def test_bulk_keys_reject_out_of_range_indices():
    streams = KeyedStreams(5)
    with pytest.raises(SeedSpaceError, match="stream indices"):
        streams.derive(np.array([[0, -1, 0]]))
    with pytest.raises(SeedSpaceError, match="master_seed"):
        KeyedStreams(MAX_INDEX + 1)


# --- one round: the block kernel against a loop over directions -----------------


def scalar_round(theta, design, config, n_k, rngs):
    """One round of the block design, direction by direction."""
    streams = [rngs] * design.dimension if isinstance(rngs, np.random.Generator) else rngs
    new_theta = np.zeros(design.dimension)
    for j, v in enumerate(design.directions):
        proj = float(v @ theta)
        if config.filter_mode == "none":
            noise = streams[j].standard_normal(n_k)
        elif config.filter_mode == "direct":
            bounds = direction_bounds(config.ball, v, theta, config.sigma)
            noise = sample_truncated(bounds, n_k, streams[j])
        else:
            noise = generate_and_verify(proj, config.sigma, ball_acceptance(config.ball, v),
                                        n_k, streams[j])
        new_theta += v * (proj + config.sigma * float(noise.mean()))
    return new_theta


@pytest.mark.parametrize("mode", ["direct", "reject", "none"])
@pytest.mark.parametrize("shared", [True, False])
def test_round_equals_direction_loop(mode, shared):
    rng = np.random.default_rng(7)
    for case in range(25):
        p = 1 + case % 8
        design = spectral_design(rng.standard_normal((p + 6, p)))
        theta = rng.standard_normal(p)
        # zero radius, tiny slack: acceptance mass below 1e-3
        radius, slack = (0.0, 0.001) if case % 3 == 0 and mode == "direct" else (0.6, 0.3)
        center = theta + 0.5 * rng.standard_normal(p)
        config = LinRegConfig(KnowledgeBall(center, radius, slack), 1.2, filter_mode=mode)
        n_k = int(rng.integers(1, 40))

        def rngs():
            if shared:
                return np.random.default_rng(case)
            return [np.random.default_rng([case, j]) for j in range(p)]

        got = retrain_round(RetrainState(theta, 0), design, config, n_k, rngs()).theta_hat
        assert np.array_equal(got, scalar_round(theta, design, config, n_k, rngs()))


@pytest.mark.parametrize("source", ["own", "shared", "given"])
def test_direct_rows_draw_by_inverse_cdf_at_any_mass(source):
    # masses ~8e-4 (zero radius, slack 1e-3 at sigma 1) and ~1e-20 in both
    # tails, next to one healthy row: each row's mean is that of the inverse
    # CDF of its own n_k uniforms
    limits = np.array([[-1e-3, 9.2, -9.3, -1.0],
                       [1e-3, 9.3, -9.2, 1.0]])
    proj = np.array([[0.5, -2.0], [3.0, 0.0]])
    sigma, n_k = 1.3, 17
    shared = np.random.default_rng(4)
    streams = {"own": lambda row: np.random.default_rng([4, row]),
               "shared": lambda row: shared, "given": None}[source]
    if source == "shared":
        own = np.random.default_rng(4).random((4, n_k))
    else:
        own = np.array([np.random.default_rng([4, row]).random(n_k) for row in range(4)])
    got = retrain_coords(proj, sigma, "direct", n_k, streams, bounds=limits.reshape(2, 2, 2),
                         uniforms=own if source == "given" else None)
    expected = [
        proj.flat[row]
        + sigma * Truncations(limits[:, [row]]).inverse_cdf(own[[row]]).mean()
        for row in range(4)
    ]
    assert np.array_equal(got.reshape(-1), expected)


def test_step_equals_scalar_definition():
    rng = np.random.default_rng(8)
    for case in range(60):
        mode = ("direct", "reject")[case % 2]
        lower = -1.0 if mode == "reject" else float(rng.uniform(-4.0, 2.0))
        upper = lower + float(rng.choice([0.05, 1.0, 3.0, math.inf]))
        if mode == "reject" and not math.isfinite(upper):
            upper = 2.0
        config = Gaussian1DConfig(0.0, 1.3, Interval1D(lower, upper), 10, np.array([5]),
                                  filter_mode=mode)
        mean = float(rng.uniform(-2.0, 2.0))
        n_k = int(rng.integers(1, 60))
        if mode == "direct":
            bounds = interval_bounds_1d(config.interval, mean, config.sigma)
            noise = sample_truncated(bounds, n_k, np.random.default_rng(case))
        else:
            noise = generate_and_verify(mean, config.sigma, config.interval.accepts, n_k,
                                        np.random.default_rng(case))
        expected = mean + config.sigma * float(noise.mean())
        assert retrain_step(mean, config, n_k, np.random.default_rng(case)) == expected


# --- the generate-and-verify loop: chunks, budget and cap ------------------------


class RecordingGenerator:
    """A generator that records the size of every standard_normal call."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


def first_accepted(mean, sigma, accept, count, seed):
    """The first ``count`` accepted draws, standardized, from one long stream."""
    size = 1024
    while True:
        y = mean + sigma * np.random.default_rng(seed).standard_normal(size)
        got = y[accept(y)]
        if got.size >= count:
            return (got[:count] - mean) / sigma
        size *= 2


# acceptance masses about 1, 0.68, 0.24, 0.044 and 1.9e-4 at mean 0, sigma 1
@pytest.mark.parametrize("interval", [Interval1D(-8.0, 8.0), Interval1D(-1.0, 1.0),
                                      Interval1D(0.5, 1.5), Interval1D(1.5, 2.0),
                                      Interval1D(0.3, 0.3005)])
@pytest.mark.parametrize("count", [1, 2, 17, 500])
def test_chunking_cannot_move_a_draw(interval, count):
    for seed, mean, sigma in ((3, 0.0, 1.0), (4, 0.1, 1.3)):
        got = generate_and_verify(mean, sigma, interval.accepts, count,
                                  np.random.default_rng(seed))
        assert np.array_equal(got, first_accepted(mean, sigma, interval.accepts, count, seed))


@pytest.mark.parametrize("budget", [1000, 100_000])
@pytest.mark.parametrize("count", [1, 3, 40])
def test_reject_budget_is_exact_and_chunks_are_capped(monkeypatch, budget, count):
    monkeypatch.setattr(kernel, "MAX_REJECT_ATTEMPTS_PER_SAMPLE", budget)
    rng = RecordingGenerator(np.random.default_rng(9))
    with pytest.raises(MaxAttemptsError):
        generate_and_verify(0.0, 1.0, Interval1D(50.0, 51.0).accepts, count, rng)
    assert sum(rng.sizes) == budget * count
    assert max(rng.sizes) <= kernel.MAX_REJECT_CHUNK


def test_high_acceptance_chunks_are_capped():
    count = 2 ** 17 + 3
    accept = Interval1D(-50.0, 50.0).accepts
    rng = RecordingGenerator(np.random.default_rng(10))
    got = generate_and_verify(0.0, 1.0, accept, count, rng)
    assert max(rng.sizes) <= kernel.MAX_REJECT_CHUNK
    assert np.array_equal(got, first_accepted(0.0, 1.0, accept, count, 10))


# --- the runners against a loop over replications and rounds --------------------


def stats(samples):
    """Per-column mean and standard error over replications (rows)."""
    se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    return samples.mean(axis=0), se


def real_estimate(config, covariates, rep):
    noise = derive_stream(config.master_seed, rep, 0, 0).standard_normal(config.n0)
    y = covariates @ np.asarray(config.true_theta) + config.sigma * noise
    return ols_fit(Dataset(covariates, y))


def round_streams(config, rep, k):
    return [derive_stream(config.master_seed, rep, k, j)
            for j in range(1, config.dimension + 1)]


def reference_landscape(config):
    """(log_ratio_mean, log_ratio_se, status) per cell, one replication at a time.

    With ``log_ratio_of_means`` the statistic is log(mean ||err0|| / mean ||err1||)
    and its standard error the delta method's, from the covariance of the norms.
    """
    theta = np.asarray(config.true_theta)
    covariates = design_matrix(config)
    design = spectral_design(covariates)
    direction = derive_stream(config.master_seed, 0, 0, 1).standard_normal(config.dimension)
    direction /= np.linalg.norm(direction)
    cells = [(d, r) for d in config.delta_values for r in config.r_values]
    reps = config.replications
    norm0 = np.empty(reps)
    norm1 = np.full((len(cells), reps), math.nan)
    for rep in range(1, reps + 1):
        theta_hat = real_estimate(config, covariates, rep)
        norm0[rep - 1] = np.linalg.norm(theta_hat - theta)
        for i, (delta, radius) in enumerate(cells):
            ball = KnowledgeBall(theta + delta * direction, radius, config.sigma_c)
            cell = LinRegConfig(ball, config.sigma)
            try:  # a cell degenerate at the truth or for a replication keeps NaN
                one_step_prediction(design, theta, ball, config.sigma, config.n1)
                state = retrain_round(RetrainState(theta_hat, 0), design, cell, config.n1,
                                      round_streams(config, rep, 1))
            except DegenerateIntervalError:
                continue
            norm1[i, rep - 1] = np.linalg.norm(state.theta_hat - theta)
    out = []
    for i in range(len(cells)):
        if np.any(~np.isfinite(norm1[i])):
            out.append((math.nan, math.nan, "degenerate"))
        elif config.log_ratio_of_means:
            m0, m1 = norm0.mean(), norm1[i].mean()
            cov = np.cov(np.stack([norm0, norm1[i]]))
            grad = np.array([1.0 / m0, -1.0 / m1])
            out.append((math.log(m0 / m1), math.sqrt(grad @ cov @ grad / reps), "ok"))
        else:
            mean, se = stats(np.log(norm0 / norm1[i])[:, None])
            out.append((float(mean[0]), float(se[0]), "ok"))
    return out


def reference_trajectory(config):
    """Per arm, (star mean, star se, center mean, center se) per round."""
    theta = np.asarray(config.true_theta)
    covariates = design_matrix(config)
    design = spectral_design(covariates)
    ball = resolve_ball(config)
    p = config.dimension
    per_dir = config.schedule.per_direction_counts(p)
    reps, k_rounds = config.replications, per_dir.size
    out = {}
    for arm in config.arms:
        arm_config = LinRegConfig(ball, config.sigma, filter_mode=arm)
        star = np.empty((reps, k_rounds + 1))
        center = np.empty((reps, k_rounds + 1))
        for rep in range(1, reps + 1):
            state = RetrainState(real_estimate(config, covariates, rep), 0)
            for k in range(k_rounds + 1):
                if k:
                    state = retrain_round(state, design, arm_config, int(per_dir[k - 1]),
                                          round_streams(config, rep, k))
                star[rep - 1, k] = np.sum((state.theta_hat - theta) ** 2)
                center[rep - 1, k] = np.sum((state.theta_hat - ball.center) ** 2)
        out[arm] = stats(star) + stats(center)
    return out


def reference_1d(config):
    """(estimate mean, estimate se, midpoint sq mean, midpoint sq se) per round."""
    interval = Interval1D(config.interval_lower, config.interval_upper)
    per_dir = config.schedule.per_direction_counts(1)
    cfg = Gaussian1DConfig(config.true_mean, config.sigma, interval, config.n0, per_dir,
                           filter_mode=config.arms[0])
    est = np.empty((config.replications, per_dir.size + 1))
    for rep in range(1, config.replications + 1):
        mean = initial_mean(cfg, derive_stream(config.master_seed, rep, 0, 0))
        est[rep - 1, 0] = mean
        for k in range(1, per_dir.size + 1):
            mean = retrain_step(mean, cfg, int(per_dir[k - 1]),
                                derive_stream(config.master_seed, rep, k, 1))
            est[rep - 1, k] = mean
    return stats(est) + stats((est - interval.midpoint) ** 2)


def same(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


PROBLEM = {"dimension": 3, "true_theta": [1.0, -0.5, 2.0], "sigma": 1.0, "n0": 20}


@pytest.fixture
def fast_switching():
    """Switch threads as often as possible, so that lost updates would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 3])
def test_landscape_equals_replication_loop(threads, fast_switching, split_blocks):
    config = config_from_mapping({
        "experiment": "landscape", "replications": 7, "master_seed": 31,
        "problem": PROBLEM,
        # r = 0.002 with sigma_c = 0 gives acceptance mass below 1e-3; delta = 100
        # makes its cells degenerate
        "landscape": {"delta_values": [0.0, 0.7, 100.0], "r_values": [0.002, 0.5, 1.5],
                      "n1": 30, "sigma_c": 0.0},
    })
    rows = run_landscape(config, threads=threads)
    for row, (mean, se, status) in zip(rows, reference_landscape(config)):
        assert row["status"] == status
        assert same(row["log_ratio_mean"], mean) and same(row["log_ratio_se"], se)
    assert {row["status"] for row in rows} == {"ok", "degenerate"}

    # the log of mean errors, computed in a different order: equal to 1e-12
    mapping = config.to_mapping()
    mapping["landscape"]["log_ratio_of_means"] = True
    ratio = config_from_mapping(mapping)
    rows = run_landscape(ratio, threads=threads)
    for row, (mean, se, status) in zip(rows, reference_landscape(ratio)):
        assert row["status"] == status
        assert row["log_ratio_mean"] == pytest.approx(mean, rel=1e-12, nan_ok=True)
        assert row["log_ratio_se"] == pytest.approx(se, rel=1e-12, nan_ok=True)
    assert {row["status"] for row in rows} == {"ok", "degenerate"}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("ball,schedule,arms", [
    ({"radius": 1.0, "delta": 0.5},
     {"kind": "linear", "start": 30, "end_or_ratio": 90, "rounds": 4},
     ["direct", "reject", "none"]),
    # zero radius: acceptance mass ~8e-4 in the direct arm
    ({"radius": 0.0, "delta": 0.5, "slack": 0.001},
     {"kind": "fixed", "start": 2, "rounds": 3, "unit": "per_direction"},
     ["direct"]),
])
def test_trajectory_equals_replication_loop(threads, ball, schedule, arms, fast_switching,
                                           split_blocks):
    config = config_from_mapping({
        "experiment": "iterate_linreg", "replications": 7, "master_seed": 32,
        "problem": PROBLEM, "ball": ball, "schedule": schedule, "arms": arms,
    })
    rows = run_iterative(config, threads=threads)
    expected = reference_trajectory(config)
    for row in rows:
        star_mean, star_se, center_mean, center_se = expected[row["arm"]]
        k = row["round"]
        assert row["dist_theta_star_mean"] == star_mean[k]
        assert row["dist_theta_star_se"] == star_se[k]
        assert row["dist_center_mean"] == center_mean[k]
        assert row["dist_center_se"] == center_se[k]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("arm", ["direct", "reject"])
def test_one_dimensional_equals_replication_loop(threads, arm, fast_switching, split_blocks):
    config = config_from_mapping({
        "experiment": "iterate_1d", "replications": 7, "master_seed": 33,
        "problem": {"true_mean": 0.0, "sigma": 1.0, "n0": 30},
        "interval": {"lower": 0.5, "upper": 2.5},
        "schedule": {"kind": "fixed", "start": 20, "rounds": 6},
        "arms": [arm],
    })
    rows = run_iterative(config, threads=threads)
    est_mean, est_se, sq_mean, sq_se = reference_1d(config)
    for k, row in enumerate(rows):
        assert row["mean_estimate_mean"] == est_mean[k]
        assert row["mean_estimate_se"] == est_se[k]
        assert row["dist_midpoint_mean"] == sq_mean[k]
        assert row["dist_midpoint_se"] == sq_se[k]

"""Acceptance suite: eleven numbered criteria, one PASS/FAIL summary line each.

Heavy Monte Carlo settings (grid sizes, replication counts, tolerances) are
part of the acceptance contract and must not be reduced. Criterion 9 checks
the escape of the estimate under a half-line verifier, which has no knowledge
center. Under the faithful dynamics (acceptance bounds recentred at the
current estimate every round) the downward drift decays like exp(-t^2/2) in
the standardized distance t below the boundary, so the walk becomes
diffusion-limited and no fixed escape rate is promised. The criterion
therefore compares the observed fraction of seeds that have reached the level
by a round with that fraction's first-passage law, computed by
``first_passage_oracle`` below (about 34% by round 2000); see README.md.
"""
import math
import time

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from verisynth import (
    Bounds,
    Dataset,
    Gaussian1DConfig,
    Interval1D,
    KnowledgeBall,
    LinRegConfig,
    RetrainState,
    config_from_mapping,
    derive_stream,
    estimate_contraction,
    initial_mean,
    ols_fit,
    one_step_prediction,
    output_basename,
    quadrature_moments,
    retrain_round,
    retraining_map,
    retraining_map_slope,
    run_iterations,
    run_iterative,
    run_landscape,
    spectral_design,
    std_moments,
    write_config,
)
from verisynth.cli import main
from verisynth.gaussian1d import step_block
from verisynth.linreg import BlockRound
from verisynth.seeding import KeyedStreams

from test_truncnorm import random_bounds

P, THETA_STAR, SIGMA, N0 = 8, tuple([1.0] * 8), 1.0, 100

CONVERGENCE_MAPPING = {
    "experiment": "iterate_linreg",
    "replications": 200,
    "master_seed": 1105,
    "problem": {"dimension": P, "true_theta": list(THETA_STAR),
                "sigma": SIGMA, "n0": N0},
    "ball": {"radius": 2.0, "delta": 1.0},  # slack defaults to sqrt(2/pi)
    "schedule": {"kind": "linear", "start": 100, "end_or_ratio": 5500,
                 "rounds": 60},
    "arms": ["direct"],
}


def iterate_mapping(**over):
    raw = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in CONVERGENCE_MAPPING.items()}
    raw.update(over)
    return raw


@pytest.fixture(scope="module")
def convergence_run():
    """Shared 60-round convergence experiment (criteria 5 and 10)."""
    config = config_from_mapping(CONVERGENCE_MAPPING)
    start = time.perf_counter()
    rows = run_iterative(config)
    return config, rows, time.perf_counter() - start


def test_criterion_01_moment_oracle_equivalence(acceptance_report):
    bounds = random_bounds(np.random.default_rng(2026), 200)
    start = time.perf_counter()
    worst = 0.0
    for b in bounds:
        fast = std_moments(b)
        slow = quadrature_moments(b)
        worst = max(worst, abs(fast.m1 - slow.m1), abs(fast.m2 - slow.m2),
                    abs(fast.m3 - slow.m3))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    acceptance_report(1, ok, f"closed form vs quadrature max diff "
                             f"{worst:.2e} over 200 bounds in {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_derivative_identity(acceptance_report):
    rng = np.random.default_rng(2027)
    start = time.perf_counter()
    h, worst = 1e-5, 0.0
    for i in range(20):
        if i % 4 == 3:  # semi-infinite
            edge = rng.uniform(-6.0, 6.0)
            b = Bounds(edge, math.inf) if i % 2 else Bounds(-math.inf, edge)
        else:
            lo = rng.uniform(-8.0, 6.0)
            b = Bounds(lo, lo + rng.uniform(0.1, 6.0))
        for x in rng.uniform(-6.0, 6.0, size=50):
            fd = (retraining_map(b, x + h) - retraining_map(b, x - h)) / (2 * h)
            worst = max(worst, abs(fd - retraining_map_slope(b, x)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 2.0
    acceptance_report(2, ok, f"update-map slope vs finite difference max err "
                             f"{worst:.2e} at 20x50 points in {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 2.0


C3_SEED, C3_N1 = 1103, 100


def criterion_03_problem():
    """Criterion 3's design and its 12 (delta, r) cells, each as a one-round config."""
    theta = np.asarray(THETA_STAR)
    covariates = derive_stream(C3_SEED, 0, 0, 0).standard_normal((N0, P))
    design = spectral_design(covariates)
    u = derive_stream(C3_SEED, 0, 0, 1).standard_normal(P)
    u /= np.linalg.norm(u)
    cells = [(delta, radius) for delta in (0.0, 0.5, 1.0, 2.0)
             for radius in (0.5, 1.0, 2.0)]
    configs = [
        LinRegConfig(P, theta, KnowledgeBall(theta + delta * u, radius, 0.0),
                     SIGMA, N0, np.array([C3_N1]))
        for delta, radius in cells
    ]
    return theta, covariates, design, cells, configs


def criterion_03_squared_errors(theta, covariates, design, configs, reps):
    """(cells x reps) squared errors after one round; each cell advances all
    replications as one block. Replication rep fits its real data from stream
    (rep, 0, 0) and draws direction j of the round from (rep, 1, j), as in
    ``run_landscape``."""
    theta0 = np.array([
        ols_fit(Dataset(covariates, covariates @ theta + SIGMA
                        * derive_stream(C3_SEED, rep, 0, 0).standard_normal(N0)))
        for rep in range(1, reps + 1)
    ])
    keys = [(rep, 1, j) for rep in range(1, reps + 1) for j in range(1, P + 1)]
    round1 = KeyedStreams(C3_SEED).derive(np.array(keys))
    # every cell reads the same streams, so its inverse-CDF rows read the same uniforms
    uniforms = np.empty((len(keys), C3_N1))
    for row in range(len(keys)):
        round1.stream(row).random(out=uniforms[row])
    sq = np.empty((len(configs), reps))
    for i, config in enumerate(configs):
        theta1 = BlockRound(design, config)(theta0, C3_N1, round1.stream, round1.label,
                                            uniforms)
        sq[i] = np.sum((theta1 - theta) ** 2, axis=1)
    return sq


def test_criterion_03_block_path_equals_replication_loop():
    theta, covariates, design, _, configs = criterion_03_problem()
    reps = 200
    loop = np.empty((len(configs), reps))
    for rep in range(1, reps + 1):
        noise = derive_stream(C3_SEED, rep, 0, 0).standard_normal(N0)
        state0 = RetrainState(ols_fit(Dataset(covariates, covariates @ theta + SIGMA * noise)), 0)
        for i, config in enumerate(configs):
            streams = [derive_stream(C3_SEED, rep, 1, j) for j in range(1, P + 1)]
            state1 = retrain_round(state0, design, config, C3_N1, streams)
            loop[i, rep - 1] = np.sum((state1.theta_hat - theta) ** 2)
    block = criterion_03_squared_errors(theta, covariates, design, configs, reps)
    assert np.array_equal(block, loop)


def test_criterion_03_one_step_risk_formula(acceptance_report):
    reps = 5000
    theta, covariates, design, cells, configs = criterion_03_problem()
    predictions = [one_step_prediction(design, theta, c.ball, SIGMA, C3_N1)
                   for c in configs]

    start = time.perf_counter()
    sq = criterion_03_squared_errors(theta, covariates, design, configs, reps)
    elapsed = time.perf_counter() - start

    worst_z = worst_rel = 0.0
    for i, (delta, radius) in enumerate(cells):
        mean = sq[i].mean()
        se = sq[i].std(ddof=1) / math.sqrt(reps)
        z = abs(mean - predictions[i]) / se
        rel = abs(mean - predictions[i]) / predictions[i]
        worst_z, worst_rel = max(worst_z, z), max(worst_rel, rel)
    ok = worst_z < 3.0 and worst_rel < 0.05 and elapsed < 120.0
    acceptance_report(3, ok, f"one-step MSE vs MC on 12 (delta, r) cells: "
                             f"worst |z| {worst_z:.2f} (<3), worst rel "
                             f"{worst_rel:.3%} (<5%), {elapsed:.0f}s")
    assert worst_z < 3.0
    assert worst_rel < 0.05
    assert elapsed < 120.0


def test_criterion_04_landscape_sign_structure(acceptance_report):
    config = config_from_mapping({
        "experiment": "landscape",
        "replications": 500,
        "master_seed": 1104,
        "problem": {"dimension": P, "true_theta": list(THETA_STAR),
                    "sigma": SIGMA, "n0": N0},
        "landscape": {"delta_values": [float(d) for d in np.linspace(0, 2, 20)],
                      "r_values": [float(r) for r in np.linspace(0.25, 1.5, 20)],
                      "n1": 100, "sigma_c": 0.0},
    })
    start = time.perf_counter()
    rows = run_landscape(config)
    elapsed = time.perf_counter() - start

    ok_rows = [r for r in rows if r["status"] == "ok"]
    agree = sum(1 for r in ok_rows
                if (r["log_ratio_mean"] > 0) == (r["theory_log_ratio"] > 0))
    agreement = agree / len(ok_rows)

    columns_ok = True
    deltas = sorted({r["delta"] for r in rows})
    for radius in sorted({r["r"] for r in rows}):
        col = sorted((r for r in rows if r["r"] == radius),
                     key=lambda r: r["delta"])
        sig_pos = [r["log_ratio_mean"] > 3 * r["log_ratio_se"] for r in col]
        sig_neg = [r["log_ratio_mean"] < -3 * r["log_ratio_se"] for r in col]
        # no significant sign inversion: never negative before a later positive
        first_neg = sig_neg.index(True) if True in sig_neg else len(col)
        columns_ok &= not any(sig_pos[first_neg:])
        columns_ok &= sig_pos[0]                  # delta = 0: clear gain
        columns_ok &= sig_neg[-1]                 # delta = 2: clear loss
        theory_pos = [r["theory_log_ratio"] > 0 for r in col]
        columns_ok &= theory_pos == sorted(theory_pos, reverse=True)

    ok = (agreement >= 0.95 and columns_ok and len(ok_rows) == len(rows)
          and elapsed < 600.0)
    acceptance_report(4, ok, f"landscape signs: empirical/theory agreement "
                             f"{agree}/{len(ok_rows)} ({agreement:.1%}), "
                             f"contiguous columns {columns_ok}, {elapsed:.0f}s")
    assert len(deltas) == 20
    assert agreement >= 0.95
    assert columns_ok
    assert elapsed < 600.0


def test_criterion_05_convergence_bound(acceptance_report, convergence_run):
    _, rows, elapsed = convergence_run
    violations = sum(
        1 for r in rows
        if r["dist_center_mean"] > r["theory_bound"] + 3 * r["dist_center_se"]
    )
    ratio = rows[10]["dist_center_mean"] / rows[60]["dist_center_mean"]
    ok = violations == 0 and ratio >= 5.0 and elapsed < 300.0
    acceptance_report(5, ok, f"bound respected at {len(rows)}/61 rounds "
                             f"({violations} violations), round-10/round-60 "
                             f"sq-distance ratio {ratio:.1f} (>=5), "
                             f"{elapsed:.0f}s")
    assert violations == 0
    assert ratio >= 5.0
    assert elapsed < 300.0


def test_criterion_06_selectivity_speeds_convergence(acceptance_report,
                                                     convergence_run):
    _, wide_rows, _ = convergence_run                       # r = 2
    narrow_config = config_from_mapping(
        iterate_mapping(ball={"radius": 1.0, "delta": 1.0}))
    narrow_rows = run_iterative(narrow_config)              # r = 1

    def crossing(rows):
        threshold = rows[0]["dist_center_mean"] / 4.0
        for r in rows:
            if r["dist_center_mean"] <= threshold:
                return r["round"]
        return None

    k_narrow, k_wide = crossing(narrow_rows), crossing(wide_rows)
    if k_narrow is None or k_wide is None:
        acceptance_report(6, False, f"quarter-crossing never reached "
                                    f"(r=1: {k_narrow}, r=2: {k_wide})")
        pytest.fail("a run never reached a quarter of its initial sq-distance")
    narrow_at = narrow_rows[k_narrow]
    wide_at = wide_rows[k_narrow]
    separated = (narrow_at["dist_center_mean"] + 3 * narrow_at["dist_center_se"]
                 < wide_at["dist_center_mean"] - 3 * wide_at["dist_center_se"])
    ok = k_narrow < k_wide and separated
    acceptance_report(6, ok, f"quarter-crossing at round {k_narrow} (r=1) vs "
                             f"{k_wide} (r=2), 3-SE bands separated at the "
                             f"crossing: {separated}")
    assert k_narrow < k_wide
    assert separated


def test_criterion_07_unbiased_filter_beats_none(acceptance_report):
    config = config_from_mapping(iterate_mapping(
        master_seed=1107,
        ball={"radius": 1.0, "delta": 0.0},
        arms=["direct", "none"],
    ))
    rows = run_iterative(config)
    direct = {r["round"]: r for r in rows if r["arm"] == "direct"}
    none = {r["round"]: r for r in rows if r["arm"] == "none"}
    margins = []
    for k in range(5, 61):
        gap = none[k]["dist_theta_star_mean"] - direct[k]["dist_theta_star_mean"]
        se = math.hypot(none[k]["dist_theta_star_se"],
                        direct[k]["dist_theta_star_se"])
        margins.append(gap / se)
    worst = min(margins)
    ok = worst > 3.0
    acceptance_report(7, ok, f"unfiltered minus filtered sq-distance gap at "
                             f"rounds 5..60: min margin {worst:.1f} combined "
                             f"SEs (>3)")
    assert worst > 3.0


def test_criterion_08_random_walk_slope(acceptance_report):
    n_per_direction = 50
    config = config_from_mapping(iterate_mapping(
        master_seed=1108,
        ball={"radius": 1.0, "delta": 0.0},
        schedule={"kind": "fixed", "start": n_per_direction, "rounds": 40,
                  "unit": "per_direction"},
        arms=["none"],
    ))
    rows = run_iterative(config)
    rounds = np.array([r["round"] for r in rows], dtype=float)
    means = np.array([r["dist_theta_star_mean"] for r in rows])
    slope = np.polyfit(rounds, means, 1)[0]
    expected = P * SIGMA ** 2 / n_per_direction
    rel = abs(slope - expected) / expected
    ok = rel < 0.10
    acceptance_report(8, ok, f"unfiltered sq-error growth {slope:.4f} per "
                             f"round vs p*sigma^2/n = {expected:.2f} "
                             f"({rel:.1%} off, <10%)")
    assert rel < 0.10


def first_passage_oracle(checkpoints, *, upper, level, n0, n_per_round,
                         step=0.02):
    """P(the estimate has reached ``level`` by round k), for k in ``checkpoints``.

    Half-line verifier (-inf, upper], true mean 0, sigma 1. With bounds
    recentred at the current mean x, the acceptance bound is t = upper - x
    and one round moves x by the average of ``n_per_round`` draws of
    Z | Z < t, whose mean is -lam and variance 1 - t*lam - lam^2, where
    lam = phi(t)/Phi(t). The oracle approximates that average by a Gaussian
    with those moments and iterates the resulting transition kernel on a
    grid of means over [level, 3] with cells of width ``step``, starting
    from the real-data law N(0, 1/n0). Mass leaving below ``level`` is
    absorbed; mass above 3 is kept in the top cell (the drift there is
    about -2.4 per round, so none reaches it in practice).

    The one-round Gaussian approximation is the only one made. Against an
    exact simulation of the truncated draws (20,000 runs, inverse-CDF
    sampling) it predicts 34.4% by round 2000 where the simulation gives
    34.5% +- 0.3%; halving ``step`` moves no prediction by more than 0.001.
    """
    top = 3.0
    edges = np.arange(level, top + step / 2, step)
    x = 0.5 * (edges[:-1] + edges[1:])
    t = upper - x
    lam = np.exp(-0.5 * t * t - 0.5 * math.log(2 * math.pi) - log_ndtr(t))
    mean = x - lam
    sd = np.sqrt((1.0 - t * lam - lam * lam) / n_per_round)
    cdf = ndtr((edges[None, :] - mean[:, None]) / sd[:, None])
    cdf[:, -1] = 1.0
    kernel = np.diff(cdf, axis=1)      # kernel[i, j]: cell i -> cell j
    escape = cdf[:, 0]                 # cell i -> below level
    p = np.diff(ndtr(edges * math.sqrt(n0)))
    p[-1] += ndtr(-top * math.sqrt(n0))
    hit = ndtr(level * math.sqrt(n0))
    predicted = {}
    for k in range(1, max(checkpoints) + 1):
        hit += p @ escape
        p = p @ kernel
        if k in checkpoints:
            predicted[k] = float(hit)
    return predicted


C9_SEED = 1109


def escape_config(k_rounds=2000, upper=1.0, n0=100, n=50):
    """Criterion 9's process: the half-line verifier (-inf, upper], true mean 0, sigma 1."""
    return Gaussian1DConfig(
        true_mean=0.0, sigma=1.0, interval=Interval1D(-math.inf, upper),
        n0=n0, schedule=np.full(k_rounds, n),
    )


def escape_means(config, seeds):
    """(seeds x rounds + 1) means; all seeds advance as one block, seed rep
    on its own stream (rep, 0, 0), first for its real data, then every round."""
    rngs = [derive_stream(C9_SEED, rep, 0, 0) for rep in range(1, seeds + 1)]
    means = [np.array([initial_mean(config, rng) for rng in rngs])]
    for n_k in config.schedule:
        means.append(step_block(means[-1], config, int(n_k), rngs.__getitem__))
    return np.stack(means, axis=1)


def test_criterion_09_block_path_equals_seed_loop():
    config, seeds = escape_config(), 20
    loop = np.array([run_iterations(config, derive_stream(C9_SEED, rep, 0, 0)).means
                     for rep in range(1, seeds + 1)])
    assert np.array_equal(escape_means(config, seeds), loop)


def test_criterion_09_semi_infinite_divergence_speed(acceptance_report):
    seeds, k_rounds, level, upper, n0, n = 200, 2000, -10.0, 1.0, 100, 50
    checkpoints = (1000, 1500, 2000)
    config = escape_config(k_rounds, upper, n0, n)
    # hitting_time's rule per seed: the first round whose mean is <= level
    hits = escape_means(config, seeds) <= level
    times = np.where(hits.any(axis=1), hits.argmax(axis=1), k_rounds + 1)
    predicted = first_passage_oracle(checkpoints, upper=upper, level=level,
                                     n0=n0, n_per_round=n)
    observed, z = {}, {}
    for k, q in predicted.items():
        observed[k] = np.count_nonzero(times <= k) / seeds
        z[k] = (observed[k] - q) / math.sqrt(q * (1.0 - q) / seeds)
    ok = all(abs(v) <= 3.0 for v in z.values())
    acceptance_report(9, ok, f"semi-infinite escape to {level}, observed vs "
                             f"first-passage law over {seeds} seeds: "
                             + ", ".join(f"round {k} {observed[k]:.1%}/"
                                         f"{predicted[k]:.1%} (z {z[k]:+.2f})"
                                         for k in checkpoints)
                             + ", |z| <= 3")
    for k in checkpoints:
        assert abs(z[k]) <= 3.0, (
            f"{observed[k]:.1%} of seeds hit {level} by round {k}; the "
            f"first-passage law predicts {predicted[k]:.1%} (z = {z[k]:+.2f})"
        )


def test_criterion_10_empirical_contraction_rate(acceptance_report,
                                                 convergence_run):
    config, rows, _ = convergence_run
    rounds = np.array([r["round"] for r in rows], dtype=float)
    mean_sq = np.array([r["dist_center_mean"] for r in rows])
    estimate = estimate_contraction(rounds, mean_sq)
    rho = rows[0]["rho"]
    rel = abs(estimate - rho) / rho
    ok = rel < 0.15
    acceptance_report(10, ok, f"fitted contraction {estimate:.3f} vs "
                              f"theoretical {rho:.3f} ({rel:.1%} off, <15%)")
    assert rel < 0.15


def test_criterion_11_thread_count_determinism(acceptance_report, tmp_path):
    cases = {
        "iterate": iterate_mapping(
            replications=8,
            problem={"dimension": 3, "true_theta": [1.0, 1.0, 1.0],
                     "sigma": 1.0, "n0": 30},
            ball={"radius": 1.0, "delta": 0.5},
            schedule={"kind": "linear", "start": 30, "end_or_ratio": 90,
                      "rounds": 4},
            arms=["direct", "none"],
        ),
        "landscape": {
            "experiment": "landscape",
            "replications": 8,
            "master_seed": 1111,
            "problem": {"dimension": 3, "true_theta": [1.0, 1.0, 1.0],
                        "sigma": 1.0, "n0": 30},
            "landscape": {"delta_values": [0.0, 1.0], "r_values": [0.5, 1.0],
                          "n1": 40},
        },
        "gaussian1d": {
            "experiment": "iterate_1d",
            "replications": 8,
            "master_seed": 1111,
            "problem": {"true_mean": 0.0, "sigma": 1.0, "n0": 40},
            "interval": {"lower": -1.0, "upper": 1.0},
            "schedule": {"kind": "fixed", "start": 25, "rounds": 5},
        },
    }
    identical = {}
    for command, mapping in cases.items():
        config = config_from_mapping(mapping)
        config_path = tmp_path / f"{command}.yaml"
        write_config(config, str(config_path))
        blobs = {}
        for threads in (1, 8):
            for fmt in ("csv", "json"):
                out_dir = tmp_path / f"{command}-{threads}-{fmt}"
                code = main([command, "--config", str(config_path),
                             "--out", str(out_dir), "--threads", str(threads),
                             "--format", fmt])
                assert code == 0
                name = f"{output_basename(config.kind)}.{fmt}"
                blobs.setdefault(fmt, {})[threads] = (out_dir / name).read_bytes()
        identical[command] = all(blobs[fmt][1] == blobs[fmt][8]
                                 for fmt in ("csv", "json"))
    ok = all(identical.values())
    acceptance_report(11, ok, "1-thread vs 8-thread outputs byte-identical "
                              f"for {sorted(identical)} (csv and json)")
    assert identical == {name: True for name in cases}

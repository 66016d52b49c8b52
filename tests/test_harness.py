"""Experiment harness: schedules, stream derivation, configs, files, CLI."""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from verisynth import (
    ConfigError,
    GAUSSIAN1D_COLUMNS,
    InsufficientRoundsError,
    KIND_ITERATE_1D,
    KIND_ITERATE_LINREG,
    KIND_LANDSCAPE,
    LANDSCAPE_COLUMNS,
    SeedSpaceError,
    TRAJECTORY_COLUMNS,
    config_from_mapping,
    contraction_rate,
    derive_stream,
    estimate_contraction,
    load_config,
    long_term_bounds,
    output_basename,
    run_iterative,
    run_landscape,
    spectral_design,
    theory_summary,
    write_csv,
    write_json,
)
from verisynth import experiments
from verisynth.cli import main
from verisynth.config import _check_bounds
from verisynth.output import format_cell
from verisynth.schedules import Schedule

# --- minimal valid config mappings, one per experiment kind -----------------


def landscape_mapping(**over):
    raw = {
        "experiment": "landscape",
        "replications": 4,
        "master_seed": 11,
        "problem": {"dimension": 3, "true_theta": [1.0, 1.0, 1.0],
                    "sigma": 1.0, "n0": 40},
        "landscape": {"delta_values": [0.0, 1.0], "r_values": [0.6, 1.2],
                      "n1": 60},
    }
    raw.update(over)
    return raw


def linreg_mapping(**over):
    raw = {
        "experiment": "iterate_linreg",
        "replications": 3,
        "master_seed": 5,
        "problem": {"dimension": 2, "true_theta": [1.0, -1.0],
                    "sigma": 1.0, "n0": 30},
        "ball": {"radius": 1.0, "delta": 0.5},
        "schedule": {"kind": "linear", "start": 40, "end_or_ratio": 80,
                     "rounds": 3},
        "arms": ["direct", "none"],
    }
    raw.update(over)
    return raw


def oned_mapping(**over):
    raw = {
        "experiment": "iterate_1d",
        "replications": 3,
        "master_seed": 5,
        "problem": {"true_mean": 0.0, "sigma": 1.0, "n0": 50},
        "interval": {"lower": -1.0, "upper": 1.0},
        "schedule": {"kind": "fixed", "start": 30, "rounds": 4},
    }
    raw.update(over)
    return raw


#: a parameter scale at which doubles are 3.35e+153 apart
COLLAPSED_THETA = {"dimension": 2, "true_theta": [1.85e169, 1.0], "sigma": 1.0, "n0": 30}

#: the run settings, problem and schedule of the configs whose runs overflowed
OVERFLOW_RUN = {"master_seed": 3, "replications": 2}
HUGE_THETA = {"dimension": 2, "true_theta": 1e308, "sigma": 1.0, "n0": 20}
TINY_SIGMA = {"dimension": 2, "true_theta": 1.0, "sigma": 1e-320, "n0": 20}
FIXED_10X2 = {"kind": "fixed", "start": 10, "rounds": 2}

#: configs that name a bad value, each with the field its error message names
BAD_VALUES = [
    # YAML 1.1 reads 1e3 as a string and 1.0e+2 as a float
    pytest.param(oned_mapping(problem={"true_mean": 0.0, "sigma": 1.0, "n0": "1e3"}),
                 "problem.n0 must be an integer, got '1e3' (YAML 1.1 reads an exponent only "
                 "after a dot and with a sign: write 1000)", id="n0-exponent-string"),
    pytest.param(oned_mapping(schedule={"kind": "fixed", "start": 100.0, "rounds": 4}),
                 "schedule.start must be an integer, got 100.0 (write 100)",
                 id="start-integral-float"),
    pytest.param(oned_mapping(problem={"true_mean": math.nan, "sigma": 1.0, "n0": 50}),
                 "problem.true_mean", id="true_mean-nan"),
    pytest.param(oned_mapping(problem={"true_mean": math.inf, "sigma": 1.0, "n0": 50}),
                 "problem.true_mean", id="true_mean-inf"),
    pytest.param(linreg_mapping(problem={"dimension": 2, "true_theta": [math.nan, 1.0],
                                         "sigma": 1.0, "n0": 30}),
                 "problem.true_theta", id="true_theta-nan"),
    pytest.param(landscape_mapping(problem={"dimension": 3, "true_theta": [1.0, math.inf, 1.0],
                                            "sigma": 1.0, "n0": 40}),
                 "problem.true_theta", id="landscape-true_theta-inf"),
    pytest.param(linreg_mapping(ball={"radius": 1.0, "center": [math.inf, 0.0]}),
                 "ball.center", id="center-inf"),
    pytest.param(linreg_mapping(ball={"radius": 1.0, "center": [0.0, math.nan]}),
                 "ball.center", id="center-nan"),
    pytest.param(linreg_mapping(ball={"radius": 1.0, "delta": math.inf}),
                 "ball.delta", id="delta-inf"),
    pytest.param(linreg_mapping(ball={"radius": math.inf, "delta": 0.5}),
                 "ball.radius", id="radius-inf"),
    pytest.param(linreg_mapping(ball={"radius": 1.0, "delta": 0.5, "slack": math.inf}),
                 "ball.slack", id="slack-inf"),
    pytest.param(linreg_mapping(ball={"radius": 0.0, "delta": 0.5, "slack": 0.0}),
                 "ball.radius + ball.slack", id="ball-no-width"),
    # acceptance bands narrower than 1e-3 standard deviations lose the
    # variance factor m2 to cancellation (e.g. rho = -2.9e-5 at 2e-12)
    pytest.param(linreg_mapping(ball={"radius": 0.0, "delta": 0.5, "slack": 1e-12}),
                 "2 (ball.radius + ball.slack) / problem.sigma", id="ball-narrow"),
    pytest.param(landscape_mapping(landscape={"delta_values": [0.0], "r_values": [1e-7, 0.6],
                                              "n1": 60, "sigma_c": 0.0}),
                 "2 (min landscape.r_values + landscape.sigma_c) / problem.sigma",
                 id="landscape-narrow"),
    pytest.param(oned_mapping(interval={"lower": 0.0, "upper": 1e-9}),
                 "(interval.upper - problem.true_mean) / problem.sigma", id="interval-narrow"),
    # (1 - 1e21) and (-1 - 1e21) round to the same float: the band collapses
    pytest.param(oned_mapping(problem={"true_mean": 1e21, "sigma": 1.0, "n0": 50}),
                 "(interval.lower - problem.true_mean) / problem.sigma",
                 id="interval-collapsed"),
    # delta and the band are lost against true_theta: round 1 would find lower == upper
    pytest.param(linreg_mapping(problem=COLLAPSED_THETA),
                 "ball.radius + ball.slack is 1.8, not above the spacing of doubles",
                 id="ball-collapsed"),
    pytest.param(linreg_mapping(problem={"dimension": 2, "true_theta": [1.0, -1.0],
                                         "sigma": 1.0, "n0": 1}),
                 "problem.n0", id="n0-below-dimension"),
    pytest.param(landscape_mapping(problem={"dimension": 3, "true_theta": [1.0, 1.0, 1.0],
                                            "sigma": 1.0, "n0": 2}),
                 "problem.n0", id="landscape-n0-below-dimension"),
    pytest.param(landscape_mapping(landscape={"delta_values": [0.0, math.inf],
                                              "r_values": [0.6], "n1": 60}),
                 "landscape.delta_values", id="landscape-delta-inf"),
    pytest.param(landscape_mapping(landscape={"delta_values": [0.0], "r_values": [math.inf],
                                              "n1": 60}),
                 "landscape.r_values", id="landscape-r-inf"),
    pytest.param(landscape_mapping(landscape={"delta_values": [0.0], "r_values": [0.6],
                                              "n1": 60, "sigma_c": math.inf}),
                 "landscape.sigma_c", id="landscape-sigma_c-inf"),
    pytest.param(oned_mapping(schedule={"kind": "geometric", "start": 1,
                                        "end_or_ratio": 1e300, "rounds": 5}),
                 "schedule.end_or_ratio must be at most 1e+299 in magnitude",
                 id="geometric-overflow"),
    pytest.param(oned_mapping(schedule={"kind": "geometric", "start": 1,
                                        "end_or_ratio": 1e100, "rounds": 5}),
                 "last count", id="geometric-last-count-overflow"),
    pytest.param(linreg_mapping(schedule={"kind": "geometric", "start": 1,
                                          "end_or_ratio": 10.0, "rounds": 20}),
                 "last count", id="geometric-beyond-int64"),
    # a last count of 1e18 at p = 2: 5e17 noise values per direction in one round
    pytest.param(linreg_mapping(schedule={"kind": "geometric", "start": 1,
                                          "end_or_ratio": 10.0, "rounds": 19}),
                 "1000000000000000000 noise values", id="geometric-noise-per-round"),
    # the last round draws round(16777216.6) = 2^24 + 1 at p = 1
    pytest.param(oned_mapping(schedule={"kind": "linear", "start": 10,
                                        "end_or_ratio": 16777216.6, "rounds": 2}),
                 "16777217 noise values", id="linear-last-count-2^24+1"),
    # the k-round bounds cost O(rounds^2): 3-4 s of theory at 65,536 rounds
    pytest.param(oned_mapping(replications=1, schedule={"kind": "fixed", "start": 10,
                                                        "rounds": 65537}),
                 "schedule.rounds must be >= 1 and < 65537, got 65537", id="rounds-65537"),
    # the schedule's rules; a ratio that is not finite is refused by its own row even
    # at one round, whose last count is the start
    pytest.param(oned_mapping(schedule={"kind": "cubic", "start": 10, "rounds": 5}),
                 "schedule.kind must be one of ('fixed', 'linear', 'geometric'), got 'cubic'",
                 id="schedule-kind-unknown"),
    pytest.param(oned_mapping(schedule={"kind": "fixed", "start": 0, "rounds": 5}),
                 "schedule.start must be >= 1, got 0", id="schedule-start-zero"),
    pytest.param(oned_mapping(schedule={"kind": "fixed", "start": 10, "rounds": 0}),
                 "schedule.rounds must be >= 1, got 0", id="schedule-rounds-zero"),
    pytest.param(oned_mapping(schedule={"kind": "linear", "start": 100, "end_or_ratio": 50,
                                        "rounds": 5}),
                 "schedule.end_or_ratio of a linear schedule", id="linear-decreasing"),
    pytest.param(oned_mapping(schedule={"kind": "geometric", "start": 10,
                                        "end_or_ratio": 0.5, "rounds": 5}),
                 "schedule.end_or_ratio of a geometric schedule", id="geometric-ratio-below-1"),
    pytest.param(oned_mapping(schedule={"kind": "fixed", "start": 10, "rounds": 5,
                                        "unit": "per_batch"}),
                 "schedule.unit must be one of ('total', 'per_direction'), got 'per_batch'",
                 id="schedule-unit-unknown"),
    pytest.param(oned_mapping(schedule={"kind": "linear", "start": 1, "end_or_ratio": math.nan,
                                        "rounds": 5}),
                 "schedule.end_or_ratio must be finite, got nan", id="linear-end-nan"),
    *[pytest.param(oned_mapping(schedule={"kind": "geometric", "start": 1,
                                          "end_or_ratio": ratio, "rounds": 1}),
                   "schedule.end_or_ratio", id=f"geometric-one-round-{ratio}")
      for ratio in (math.nan, math.inf, 1e300)],
    pytest.param(linreg_mapping(arms=["direct", "bogus"]),
                 "arms must be one of ('direct', 'reject', 'none'), got 'bogus'",
                 id="arms-unknown"),
    pytest.param(linreg_mapping(arms=[["direct"]]), "arms[0]", id="arms-nested-list"),
    pytest.param(linreg_mapping(arms=["direct", {"a": 1}]), "arms[1]", id="arms-nested-mapping"),
    pytest.param(landscape_mapping(replications=10 ** 12),
                 "1000000000000 replications", id="landscape-reps-huge"),
    # a scalar true_theta is broadcast only after the dimension is bounded
    pytest.param(landscape_mapping(problem={"dimension": 10 ** 30, "true_theta": 1.0,
                                            "sigma": 1.0, "n0": 40}),
                 "problem.dimension", id="dimension-huge"),
    # n0 >= dimension and n0 x dimension <= 2^24 cap the dimension at 4096 first
    pytest.param(landscape_mapping(problem={"dimension": 2 ** 24, "true_theta": 1.0,
                                            "sigma": 1.0, "n0": 40}),
                 "problem.dimension must be at most 4096", id="dimension-broadcast-2^24"),
    # 1025 x 1024 cells: the grid's theory alone would hold about 1 GB
    pytest.param(landscape_mapping(replications=1, landscape={
        "delta_values": [i / 1024 for i in range(1025)],
        "r_values": [(i + 1) / 1024 for i in range(1024)], "n1": 10}),
                 "landscape.delta_values (1025) x landscape.r_values (1024) give 1049600 cells",
                 id="landscape-grid-huge"),
    # the real data alone: n0 normals per replication, an n0 x p design
    pytest.param(oned_mapping(problem={"true_mean": 0.0, "sigma": 1.0, "n0": 10 ** 10}),
                 "problem.n0", id="oned-real-data-huge"),
    pytest.param(landscape_mapping(problem={"dimension": 100000, "true_theta": 1.0,
                                            "sigma": 1.0, "n0": 100000}),
                 "problem.n0", id="landscape-design-huge"),
    # magnitudes past config.MAX_SCALE: the run would overflow
    pytest.param(landscape_mapping(**OVERFLOW_RUN, problem=HUGE_THETA, landscape={
        "delta_values": [0.0], "r_values": [0.5], "n1": 10}),
                 "problem.true_theta must be at most 1e+299", id="landscape-responses-overflow"),
    pytest.param(linreg_mapping(**OVERFLOW_RUN, problem=HUGE_THETA, ball={
        "radius": 1e300, "delta": 0.5}, schedule=FIXED_10X2),
                 "problem.true_theta must be at most 1e+299", id="ball-bounds-overflow"),
    pytest.param(oned_mapping(**OVERFLOW_RUN, problem={"true_mean": 1e306, "sigma": 1.0,
                                                       "n0": 1000},
                              interval={"lower": 0.0, "upper": 2e306}, schedule=FIXED_10X2),
                 "problem.true_mean must be at most 1e+299", id="real-mean-overflow"),
    pytest.param(oned_mapping(**OVERFLOW_RUN, problem={"true_mean": 0.0, "sigma": 1.0, "n0": 20},
                              interval={"lower": -1e308, "upper": 1e308}, schedule=FIXED_10X2),
                 "interval.lower must be at most 1e+299", id="interval-length-overflow"),
    # sigma so small that (the parameters' scale + the band's half-width) / sigma overflows
    pytest.param(linreg_mapping(**OVERFLOW_RUN, problem=TINY_SIGMA, schedule=FIXED_10X2,
                                ball={"radius": 1.0, "delta": 0.5}),
                 "problem.sigma is too small", id="linreg-sigma-underflow"),
    pytest.param(landscape_mapping(**OVERFLOW_RUN, problem=TINY_SIGMA, landscape={
        "delta_values": [0.0, 0.5], "r_values": [0.5], "n1": 10}),
                 "problem.sigma is too small", id="landscape-sigma-underflow"),
    pytest.param(oned_mapping(**OVERFLOW_RUN, problem={"true_mean": 0.0, "sigma": 1e-320,
                                                       "n0": 20},
                              interval={"lower": 2.0, "upper": 4.0}, schedule=FIXED_10X2),
                 "problem.sigma is too small", id="oned-sigma-underflow"),
]


def write_yaml(config, path):
    """Write a config's resolved mapping as YAML, keys in file order."""
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(config.to_mapping(), handle, sort_keys=False, default_flow_style=None)


#: write_yaml's exact output: a writer that reorders keys still round-trips,
#: so this pins the key order
WRITTEN_YAML = [
    pytest.param(landscape_mapping(), (
        "experiment: landscape\n"
        "replications: 4\n"
        "master_seed: 11\n"
        "problem:\n"
        "  sigma: 1.0\n"
        "  n0: 40\n"
        "  dimension: 3\n"
        "  true_theta: [1.0, 1.0, 1.0]\n"
        "landscape:\n"
        "  delta_values: [0.0, 1.0]\n"
        "  r_values: [0.6, 1.2]\n"
        "  sigma_c: 0.7978845608028654\n"
        "  n1: 60\n"
        "  log_ratio_of_means: false\n"
    ), id="landscape"),
    pytest.param(linreg_mapping(), (
        "experiment: iterate_linreg\n"
        "replications: 3\n"
        "master_seed: 5\n"
        "problem:\n"
        "  sigma: 1.0\n"
        "  n0: 30\n"
        "  dimension: 2\n"
        "  true_theta: [1.0, -1.0]\n"
        "ball: {radius: 1.0, delta: 0.5, slack: 0.7978845608028654}\n"
        "schedule: {kind: linear, start: 40, end_or_ratio: 80.0, rounds: 3, unit: total}\n"
        "arms: [direct, none]\n"
    ), id="iterate_linreg"),
    pytest.param(oned_mapping(), (
        "experiment: iterate_1d\n"
        "replications: 3\n"
        "master_seed: 5\n"
        "problem: {sigma: 1.0, n0: 50, true_mean: 0.0}\n"
        "interval: {lower: -1.0, upper: 1.0}\n"
        "schedule: {kind: fixed, start: 30, end_or_ratio: 30.0, rounds: 4, unit: total}\n"
        "arms: [direct]\n"
    ), id="iterate_1d"),
    pytest.param(linreg_mapping(ball={"radius": 1.0, "center": [0.5, -0.25], "slack": 0.1}), (
        "experiment: iterate_linreg\n"
        "replications: 3\n"
        "master_seed: 5\n"
        "problem:\n"
        "  sigma: 1.0\n"
        "  n0: 30\n"
        "  dimension: 2\n"
        "  true_theta: [1.0, -1.0]\n"
        "ball:\n"
        "  radius: 1.0\n"
        "  center: [0.5, -0.25]\n"
        "  slack: 0.1\n"
        "schedule: {kind: linear, start: 40, end_or_ratio: 80.0, rounds: 3, unit: total}\n"
        "arms: [direct, none]\n"
    ), id="ball-center"),
]

#: run_iterative's rows, each value repr'd, for linreg_mapping's [direct, none]
#: arms. Every arm shares the round's uniforms and an unfiltered row's mean is
#: ndtri(u_1) / sqrt(n_k) from its first one, so a change to the stream layout
#: moves them.
UNFILTERED_ROWS = [
    "'direct' 0 0 0.07557908376172678 0.04962692156913728 0.22724677625056652 "
    "0.06962323063266433 0.32835075832450195 0.6928567553994145 3",
    "'direct' 1 20 0.09504582540447302 0.06115760090900359 0.17820053825971038 "
    "0.07133215808398474 0.22691061583206532 0.6928567553994145 3",
    "'direct' 2 30 0.11352536783609403 0.10831551193195753 0.23993339764714375 "
    "0.06248931387194464 0.15511900120201755 0.6928567553994145 3",
    "'direct' 3 40 0.06692968531086071 0.009936586335347624 0.07620497354330229 "
    "0.01091597951754632 0.10910778929744028 0.6928567553994145 3",
    "'none' 0 0 0.07557908376172678 0.04962692156913728 0.22724677625056652 "
    "0.06962323063266433 nan nan 3",
    "'none' 1 20 0.1594340550844764 0.08137385275644561 0.342623801334696 "
    "0.12147822717718985 nan nan 3",
    "'none' 2 30 0.34727037479233497 0.20614360088180322 0.538419716677748 "
    "0.28416481377383135 nan nan 3",
    "'none' 3 40 0.43665347322671777 0.22503308366940328 0.5419586177801199 "
    "0.20799308177206638 nan nan 3",
]

#: run_iterative's rows, each value repr'd, for small configs: two with a REJECT
#: arm, selective_reject's problem (acceptance about 8e-4) and a 1-D interval
#: (1, 1.5) that accepts about 9% of the first round's candidates, then two
#: direct 1-D runs, a finite interval and a half-line at one replication. A
#: change of chunking or of the stream layout that moves a kept REJECT draw
#: changes them; so does any change to the p = 1 round or its real-data fit.
#: A half-line has no midpoint, so both of its distance columns read nan,
#: while one replication's standard error reads 0.0.
REJECT_ROWS = [
    pytest.param(linreg_mapping(
        master_seed=1105,
        problem={"dimension": 8, "true_theta": 1.0, "sigma": 1.0, "n0": 100},
        ball={"radius": 0.0, "delta": 0.5, "slack": 0.001},
        schedule={"kind": "fixed", "start": 2, "rounds": 5, "unit": "per_direction"},
        arms=["direct", "reject"],
    ), [
        "'direct' 0 0 0.07975101447264585 0.014748771616443399 0.39736808528489037 "
        "0.08407542267881916 0.3334611757727749 3.333332888888912e-07 3",
        "'direct' 1 2 0.24968234669944658 0.00027873811598062707 1.756689788181599e-06 "
        "5.103777430391048e-07 1.3333331926067967e-06 3.333332888888912e-07 3",
        "'direct' 2 2 0.24993097556107927 9.705306512799864e-05 1.2239976104426699e-06 "
        "3.134814017602879e-07 1.333333155555713e-06 3.333332888888912e-07 3",
        "'direct' 3 2 0.25041007700044615 0.00035183012191696174 1.9964613499292703e-06 "
        "7.450989025836583e-07 1.333333155555713e-06 3.333332888888912e-07 3",
        "'direct' 4 2 0.25037076204644726 9.693355205181498e-05 1.8181530439283945e-06 "
        "1.472403722478828e-07 1.333333155555713e-06 3.333332888888912e-07 3",
        "'direct' 5 2 0.2501033297730926 0.0002671219108095264 1.296175688109587e-06 "
        "1.7933353722440107e-07 1.333333155555713e-06 3.333332888888912e-07 3",
        "'reject' 0 0 0.07975101447264585 0.014748771616443399 0.39736808528489037 "
        "0.08407542267881916 0.3334611757727749 3.333332888888912e-07 3",
        "'reject' 1 2 0.24982925893732624 0.00032434984170968484 1.619093971922573e-06 "
        "5.808667227309365e-07 1.3333331926067967e-06 3.333332888888912e-07 3",
        "'reject' 2 2 0.24980081186227862 0.00022979313942223388 1.9163613538979852e-06 "
        "2.3440293956007902e-07 1.333333155555713e-06 3.333332888888912e-07 3",
        "'reject' 3 2 0.24979477402109476 0.00014291588855764128 6.534513770595593e-07 "
        "1.801681818592583e-07 1.333333155555713e-06 3.333332888888912e-07 3",
        "'reject' 4 2 0.24976876752646415 0.00018286311179823488 1.1497605934886451e-06 "
        "3.5403761963832403e-07 1.333333155555713e-06 3.333332888888912e-07 3",
        "'reject' 5 2 0.24970747871001828 0.000107782072496809 1.705572564986383e-06 "
        "4.6100116226596537e-07 1.333333155555713e-06 3.333332888888912e-07 3",
    ], id="selective_reject"),
    pytest.param(oned_mapping(interval={"lower": 1.0, "upper": 1.5}, arms=["reject"]), [
        "0 0 -0.06409067410043677 0.023302061669170974 1.727920271913808 "
        "0.060896394304545215 1.5825 3",
        "1 30 1.2158616915169975 0.016332277289845282 0.0016989106690254256 "
        "0.0013636671199711234 0.0013641578011954008 3",
        "2 30 1.2521069695698943 0.008870046434663647 0.00016179476827463978 "
        "8.090938391816692e-05 0.0006892569865172189 3",
        "3 30 1.2405438113895602 0.014040843249548615 0.00048371006135300193 "
        "0.0004607050265313546 0.0006889689081007433 3",
        "4 30 1.2772239271115526 0.010757398968277496 0.000972585472500526 "
        "0.0004953401942788594 0.0006889687851357502 3",
    ], id="iterate_1d"),
    pytest.param(oned_mapping(master_seed=1201, interval={"lower": 0.25, "upper": 2.0},
                              arms=["direct"]), [
        "0 0 0.09098096985022751 0.07604098576577355 1.0807598177443374 "
        "0.15214222049469062 1.285625 3",
        "1 30 0.9199601390895075 0.04341808363709605 0.045811604535629886 "
        "0.016932288712907813 0.07576903783001694 3",
        "2 30 1.0187005428951619 0.058086966782968354 0.018047766000874696 "
        "0.01569249117339134 0.011684977233100595 3",
        "3 30 0.9731314794416684 0.02243981248848382 0.024071137905613025 "
        "0.007184569148211418 0.008290550994771037 3",
        "4 30 1.1141916156417375 0.0643455705309746 0.008397526066349185 "
        "0.0031446643066257414 0.008110753875485266 3",
    ], id="iterate_1d-direct"),
    pytest.param(oned_mapping(master_seed=1202, replications=1,
                              interval={"lower": -math.inf, "upper": 1.0},
                              schedule={"kind": "fixed", "start": 20, "rounds": 3}), [
        "0 0 0.06182175425635975 0.0 nan nan nan 1",
        "1 20 -0.2671275801849956 0.0 nan nan nan 1",
        "2 20 -0.5854650142049229 0.0 nan nan nan 1",
        "3 20 -0.6514848724645621 0.0 nan nan nan 1",
    ], id="iterate_1d-half-line"),
]

#: names the config schema accepts somewhere, so fuzzed strings sometimes parse
SCHEMA_NAMES = ["landscape", "iterate_linreg", "iterate_1d", "direct", "reject", "none",
                "fixed", "linear", "geometric", "total", "per_direction"]
#: one replacement value of any YAML type; integers skip 10^7..2^62, so that
#: no example builds a large vector while parsing
FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.sampled_from([2 ** 63, 2 ** 70]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SCHEMA_NAMES) | st.text(max_size=8),
    st.lists(st.one_of(st.integers(-3, 300), st.floats(), st.sampled_from(SCHEMA_NAMES)),
             max_size=4),
    st.dictionaries(st.text(max_size=6), st.integers(-3, 300), max_size=3),
)


def scalar_theta_mapping():
    return landscape_mapping(problem={"dimension": 3, "true_theta": 1.0,
                                      "sigma": 1.0, "n0": 40})


def key_paths(mapping, prefix=()):
    """The path of every key of a nested mapping, sections included."""
    for key, value in mapping.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@st.composite
def one_fault_mappings(draw):
    """A minimal valid mapping with one key deleted or its value replaced."""
    mapping = draw(st.sampled_from([landscape_mapping, linreg_mapping, oned_mapping,
                                    scalar_theta_mapping]))()
    path = draw(st.sampled_from(list(key_paths(mapping))))
    node = mapping
    for key in path[:-1]:
        node = node[key]
    if draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = draw(FUZZ_VALUES)
    return mapping

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))

COMMAND_FOR_KIND = {"landscape": "landscape", "iterate_linreg": "iterate",
                    "iterate_1d": "gaussian1d"}

# sha256 of each shipped config's `theory` stdout and of the CSV of a --reps 3
# run, recorded from hand-checked outputs: a change to either is a change of
# published numbers and must be declared, not re-pinned in passing
SHIPPED_DIGESTS = {
    "gaussian1d_convergence": (
        "aa4e5f036d02bdc37449675e458d986ef89434a3b28610ea10349c782d43b347",
        "68e744a22a9d76d678567b0357c4d89351f5e05ca815658058f6f510df2d6d15"),
    "gaussian1d_divergence": (
        "48a3a34835cde17e013aaa02ef6bcfcaf8e36958b6ef6df5dbc7ae5a263792ef",
        "07c4884075f6b5db8b50ef575183dc44296a888904a0dd1edc1254284a8c1d0a"),
    "iterate_linear_growth": (
        "21b3d6a3c78eb48ea179d339bd26c7a226507c42f24362a127f30a4929ef536d",
        "461be61f1adc1af9de61551a3d11af976b6526a3f349d4a7c6433c73dbff590f"),
    "landscape": (
        "24c3b1ef107bcadf69bbc323aab0abea7671a44245ea7670a7e93955bc8c01ad",
        "9239932d3f236888c14c1e97bb715f64493d93861da991005687e4d10c203d2e"),
}

BENCH_WORKLOADS = sorted((Path(__file__).resolve().parents[1] / "bench" / "workloads")
                         .glob("*.yaml"))

# sha256 of the CSV of each benchmark workload's run as written, at any
# thread count: the benchmark times these runs, so they must not change
WORKLOAD_DIGESTS = {
    "gaussian1d_long": "bd969c820fedd68389a29dbd12b431746fcf989d1e09d757fa4b34c1d80363f8",
    "iterate_linreg": "a06dd533cf4a925f64c8618658b4b978ec3a980f259f0c9786ecbd7737f60727",
    "landscape": "6046820fe8cf93aab1324c0bb9d57e93cdab44fe7c467dde3287887b06e3f1a7",
    "selective_reject": "8b7465c1cce78a7a1c88f67ffe6f5c5486a772af8bffb31c30cf69e9f4e0a223",
}


class TestSchedule:
    def test_fixed(self):
        assert Schedule("fixed", 50, 50, 5).counts() == (50,) * 5

    def test_linear_endpoints(self):
        seq = Schedule("linear", 100, 5500, 60).counts()
        assert seq[0] == 100 and seq[-1] == 5500 and len(seq) == 60
        assert list(seq) == sorted(seq)

    def test_linear_single_round(self):
        assert Schedule("linear", 7, 9, 1).counts() == (7,)

    def test_geometric(self):
        assert Schedule("geometric", 10, 2.0, 4).counts() == (10, 20, 40, 80)

    def test_geometric_counts_are_pinned(self):
        # libm's pow(1.6, 2) is 2.5600000000000005; numpy's AVX-512 power gives 2.56
        assert Schedule("geometric", 100, 1.6, 4).counts() == (100, 160, 257, 410)

    def test_last_count_must_fit_the_count_type(self):
        # the config refuses a last count of 2^63 or more (BAD_VALUES geometric-*)
        assert Schedule("geometric", 1, 10.0, 19).counts()[-1] == 10 ** 18

    def test_per_direction_split(self):
        sched = Schedule("linear", 100, 5500, 60, unit="total")
        per = sched.per_direction_counts(8)
        assert per[0] == 12 and per[-1] == 687  # floor division of totals
        assert min(per) >= 1
        direct = Schedule("fixed", 7, 7, 3, unit="per_direction")
        assert direct.per_direction_counts(8) == (7, 7, 7)
        with pytest.raises(Exception):
            sched.per_direction_counts(0)

    def test_small_totals_floor_at_one(self):
        sched = Schedule("fixed", 3, 3, 2, unit="total")
        assert sched.per_direction_counts(8) == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["fixed", "linear", "geometric"]),
        start=st.integers(1, 500),
        extra=st.floats(0.0, 400.0),
        ratio=st.floats(1.0, 1.6),
        rounds=st.integers(1, 60),
        dimension=st.integers(1, 12),
    )
    def test_sequences_are_valid_schedules(self, kind, start, extra, ratio,
                                           rounds, dimension):
        end_or_ratio = {"fixed": float(start), "linear": start + extra,
                        "geometric": ratio}[kind]
        sched = Schedule(kind, start, end_or_ratio, rounds)
        seq = sched.counts()
        assert len(seq) == rounds
        assert min(seq) >= 1
        assert list(seq) == sorted(seq)
        per = sched.per_direction_counts(dimension)
        assert min(per) >= 1
        assert all(n <= count for n, count in zip(per, seq))


class TestDeriveStream:
    def test_deterministic(self):
        a = derive_stream(7, 1, 2, 3).random(100)
        b = derive_stream(7, 1, 2, 3).random(100)
        assert np.array_equal(a, b)

    def test_distinct_keys_give_distinct_streams(self):
        base = derive_stream(7, 1, 2, 3).random(10_000)
        for other in [(7, 1, 2, 4), (7, 1, 3, 3), (7, 2, 2, 3), (8, 1, 2, 3)]:
            assert not np.array_equal(base, derive_stream(*other).random(10_000))

    def test_index_bounds(self):
        with pytest.raises(SeedSpaceError):
            derive_stream(-1, 0, 0, 0)
        with pytest.raises(SeedSpaceError):
            derive_stream(0, -1, 0, 0)
        with pytest.raises(SeedSpaceError):
            derive_stream(0, 0, 2 ** 63, 0)
        derive_stream(2 ** 63 - 1, 0, 0, 0)  # max index is allowed


class TestConfigParsing:
    @pytest.mark.parametrize("mapping", [landscape_mapping(), linreg_mapping(),
                                         oned_mapping()])
    def test_yaml_round_trip(self, tmp_path, mapping):
        config = config_from_mapping(mapping)
        path = tmp_path / "config.yaml"
        write_yaml(config, str(path))
        assert load_config(str(path)) == config

    @pytest.mark.parametrize("mapping,text", WRITTEN_YAML)
    def test_written_bytes(self, tmp_path, mapping, text):
        path = tmp_path / "config.yaml"
        write_yaml(config_from_mapping(mapping), str(path))
        assert path.read_bytes() == text.encode()

    # parses only: nothing is simulated
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mapping=one_fault_mappings())
    @example(mapping=landscape_mapping(problem={"dimension": 2 ** 70, "true_theta": 1.0,
                                                "sigma": 1.0, "n0": 40}))
    def test_one_fault_fails_cleanly_or_round_trips(self, tmp_path, mapping):
        try:
            config = config_from_mapping(mapping)
        except ConfigError:
            return
        path = tmp_path / "fuzzed.yaml"
        write_yaml(config, str(path))
        assert load_config(str(path)) == config

    # validate's noise bound is the largest count the run draws
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["fixed", "linear", "geometric"]),
           start=st.integers(1, 2 ** 25), extra=st.floats(0.0, 2.0 ** 25),
           ratio=st.floats(1.0, 1.5), rounds=st.integers(1, 60),
           unit=st.sampled_from(["total", "per_direction"]), p=st.integers(1, 12))
    @example(kind="linear", start=10, extra=16777206.4, ratio=1.0, rounds=2, unit="total", p=1)
    @example(kind="fixed", start=2 ** 23, extra=0.0, ratio=1.0, rounds=1, unit="per_direction",
             p=2)
    @example(kind="fixed", start=2 ** 24 + 2, extra=0.0, ratio=1.0, rounds=1, unit="total", p=2)
    def test_noise_bound_is_the_drawn_count(self, kind, start, extra, ratio, rounds, unit, p):
        end_or_ratio = {"fixed": start, "linear": start + extra, "geometric": ratio}[kind]
        schedule = {"kind": kind, "start": start, "end_or_ratio": end_or_ratio,
                    "rounds": rounds, "unit": unit}
        mapping = oned_mapping(schedule=schedule) if p == 1 else linreg_mapping(
            problem={"dimension": p, "true_theta": 1.0, "sigma": 1.0, "n0": 30},
            schedule=schedule)
        drawn = p * max(Schedule(kind, start, end_or_ratio, rounds, unit)
                        .per_direction_counts(p))
        try:
            config_from_mapping(mapping)
        except ConfigError as exc:
            assert "noise values" in str(exc) and drawn > 2 ** 24, str(exc)
        else:
            assert drawn <= 2 ** 24

    # every config that parses runs: theory, then one replication
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mapping=one_fault_mappings())
    @example(mapping=landscape_mapping(landscape={"delta_values": [0.0], "r_values": [1e-7],
                                                  "n1": 60, "sigma_c": 0.0}))
    @example(mapping=oned_mapping(problem={"true_mean": 1e21, "sigma": 1.0, "n0": 50}))
    # the squared distance of the midpoint in standard deviations overflows
    @example(mapping=oned_mapping(interval={"lower": -1.0, "upper": 1.6e288}))
    # sigma^2 underflows: both one-step MSEs of the landscape theory are 0
    @example(mapping=landscape_mapping(problem={"dimension": 3, "true_theta": [1.0, 1.0, 1.0],
                                                "sigma": 1e-300, "n0": 40}))
    def test_one_fault_runs_or_fails_cleanly(self, tmp_path, capsys, mapping):
        try:
            config = config_from_mapping(mapping)
        except ConfigError:
            return
        path = tmp_path / "fuzzed.yaml"
        write_yaml(config, str(path))
        command = COMMAND_FOR_KIND[config.kind]
        for argv in (["theory"], [command, "--reps", "1", "--out", str(tmp_path / "out")]):
            code = main(argv + ["--config", str(path)])
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("error: ")]
            assert code in (0, 1, 2)
            assert len(errors) == (code != 0)

    # stored examples above whose theory or run once overflowed a numpy scalar,
    # a sigma whose square overflows a Python float, a center whose squared
    # distance overflows, and the log of mean errors at one replication
    @pytest.mark.parametrize("mapping", [
        landscape_mapping(problem={"dimension": 3, "true_theta": [1.0, 1.0, 1.0],
                                   "sigma": 1e-300, "n0": 40}),
        oned_mapping(interval={"lower": -1.0, "upper": 1.6e288}),
        oned_mapping(**OVERFLOW_RUN, problem={"true_mean": 0.0, "sigma": 1e200, "n0": 20},
                     interval={"lower": 2.0, "upper": 4e200}, schedule=FIXED_10X2),
        linreg_mapping(master_seed=3, problem={"dimension": 2, "true_theta": 1.0,
                                               "sigma": 1.0, "n0": 20},
                       ball={"radius": 1e156, "delta": 1e155}, schedule=FIXED_10X2),
        landscape_mapping(landscape={"delta_values": [0.0, 1.0], "r_values": [0.6, 1.2],
                                     "n1": 60, "log_ratio_of_means": True}),
    ], ids=["landscape-sigma-1e-300", "interval-upper-1.6e288", "oned-sigma-1e200",
            "linreg-far-center", "landscape-log-of-means"])
    def test_extreme_configs_raise_no_runtime_warning(self, tmp_path, mapping, split_blocks):
        path = tmp_path / "extreme.yaml"
        write_yaml(config_from_mapping(mapping), str(path))
        command = COMMAND_FOR_KIND[mapping["experiment"]]
        out = ["--out", str(tmp_path / "out")]
        # two workers: a worker thread does not share the caller's numpy errstate
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for argv in (["theory"], [command, "--reps", "1", *out],
                         [command, "--reps", "4", "--threads", "2", *out]):
                assert main(argv + ["--config", str(path)]) == 0

    @pytest.mark.parametrize("text,message", [
        ("interval: {lower: -1.0, upper: 1.0e17}",
         "interval.upper must be a number, got '1.0e17' (YAML 1.1 reads an exponent "
         "only after a dot and with a sign: write 1.0e+17)"),
        ("interval: {lower: -1.0, upper: inf}",
         "interval.upper must be a number, got 'inf' (YAML 1.1 reads it as a string: "
         "write .inf)"),
        ("interval: {lower: -1.0, upper: one}",
         "interval.upper must be a number, got 'one'"),
    ])
    def test_yaml_1_1_strings_name_their_spelling(self, tmp_path, capsys, text, message):
        mapping = {key: value for key, value in oned_mapping().items() if key != "interval"}
        path = tmp_path / "bad.yaml"
        path.write_text(f"{yaml.safe_dump(mapping)}{text}\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_yaml_1_1_vector_item_names_its_spelling(self):
        raw = yaml.safe_load("landscape: {delta_values: [0.0, 1e5], r_values: [0.6], n1: 60}")
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(landscape_mapping(**raw))
        assert str(exc.value) == (
            "landscape.delta_values[1] must be a number, got '1e5' (YAML 1.1 reads an "
            "exponent only after a dot and with a sign: write 100000.0)")

    @pytest.mark.parametrize("mapping,message", [
        (linreg_mapping(ball={"radius": math.inf, "delta": 0.5}),
         "ball.radius must be finite and >= 0, got inf"),
        (oned_mapping(problem={"true_mean": 0.0, "sigma": 0.0, "n0": 50}),
         "problem.sigma must be finite and > 0, got 0.0"),
        (oned_mapping(replications=0), "replications must be >= 1, got 0"),
        (linreg_mapping(ball={"radius": 1.0, "center": [0.0, math.nan]}),
         "ball.center must be finite, got nan"),
        (landscape_mapping(landscape={"delta_values": [0.0], "r_values": [0.6, 0.0], "n1": 60}),
         "landscape.r_values must be finite and > 0, got 0.0"),
        (linreg_mapping(arms=[]), "arms must be nonempty"),
    ], ids=["radius", "sigma", "replications", "center", "r_values", "arms"])
    def test_key_bounds_name_the_key(self, mapping, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(mapping)
        assert str(exc.value) == message

    def test_broadcast_vector_is_checked_once(self):
        # a number broadcast along 2^22 directions is one number to check; with
        # each copy checked, this refusal took 5 s on 2 shared CPUs
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="problem.n0 must be >= problem.dimension"):
            config_from_mapping(landscape_mapping(problem={"dimension": 2 ** 22, "true_theta": 1.0,
                                                           "sigma": 1.0, "n0": 40}))
        assert time.perf_counter() - start < 2.0

    def test_key_bounds_may_close_above(self):
        # schedule.rounds has an upper end; it is named only where it is crossed
        with pytest.raises(ConfigError, match=r"^leak must be finite and >= 0 and < 1, got 1.0$"):
            _check_bounds(1.0, "leak", (">= 0", "< 1"))
        with pytest.raises(ConfigError, match=r"^leak must be finite and >= 0, got -1.0$"):
            _check_bounds(-1.0, "leak", (">= 0", "< 1"))
        _check_bounds(0.5, "leak", (">= 0", "< 1"))

    def test_non_mapping_names_the_config(self):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping([1])
        assert str(exc.value) == "the config must be a mapping of keys to values"

    def test_top_level_type_errors_name_the_key(self):
        for key in ("replications", "master_seed"):
            with pytest.raises(ConfigError) as exc:
                config_from_mapping(oned_mapping(**{key: "x"}))
            assert str(exc.value) == f"{key} must be an integer, got 'x'"

    def test_defaults_are_resolved(self):
        config = config_from_mapping(linreg_mapping())
        assert config.slack == pytest.approx(math.sqrt(2.0 / math.pi))
        assert config.schedule.unit == "total"
        land = config_from_mapping(landscape_mapping())
        assert land.sigma_c == pytest.approx(math.sqrt(2.0 / math.pi))
        assert land.log_ratio_of_means is False
        oned = config_from_mapping(oned_mapping())
        assert oned.arms == ("direct",)

    def test_unknown_keys_report_dotted_path(self):
        raw = linreg_mapping()
        raw["problem"]["typo_key"] = 1
        with pytest.raises(ConfigError, match="unknown config key 'problem.typo_key'"):
            config_from_mapping(raw)
        with pytest.raises(ConfigError, match="unknown config key 'extra'"):
            config_from_mapping(linreg_mapping(extra=1))

    def test_missing_required(self):
        raw = linreg_mapping()
        del raw["problem"]["sigma"]
        with pytest.raises(ConfigError, match="problem.sigma"):
            config_from_mapping(raw)
        raw = oned_mapping()
        del raw["interval"]
        with pytest.raises(ConfigError, match="interval"):
            config_from_mapping(raw)

    def test_ball_needs_exactly_one_anchor(self):
        raw = linreg_mapping(ball={"radius": 1.0, "delta": 0.5,
                                   "center": [0.0, 0.0]})
        with pytest.raises(ConfigError, match="delta"):
            config_from_mapping(raw)
        raw = linreg_mapping(ball={"radius": 1.0})
        with pytest.raises(ConfigError, match="delta"):
            config_from_mapping(raw)

    def test_sections_must_match_kind(self):
        with pytest.raises(ConfigError, match="interval"):
            config_from_mapping(linreg_mapping(interval={"lower": 0, "upper": 1}))
        with pytest.raises(ConfigError, match="ball"):
            config_from_mapping(oned_mapping(ball={"radius": 1.0, "delta": 0.0}))
        with pytest.raises(ConfigError, match="landscape"):
            config_from_mapping(linreg_mapping(
                landscape={"delta_values": [0], "r_values": [1], "n1": 10}))

    def test_scalar_theta_broadcasts(self):
        raw = landscape_mapping()
        raw["problem"]["true_theta"] = 1.0
        config = config_from_mapping(raw)
        assert config.true_theta == (1.0, 1.0, 1.0)

    def test_one_dimensional_arms_restricted(self):
        with pytest.raises(ConfigError, match="arms"):
            config_from_mapping(oned_mapping(arms=["direct", "reject"]))
        with pytest.raises(ConfigError, match="arms"):
            config_from_mapping(oned_mapping(arms=["none"]))
        config = config_from_mapping(oned_mapping(arms=["reject"]))
        assert config.arms == ("reject",)

    def test_duplicate_arms_rejected(self):
        with pytest.raises(ConfigError, match="arms"):
            config_from_mapping(linreg_mapping(arms=["direct", "direct"]))

    def test_fixed_schedule_end_must_match_start(self):
        raw = oned_mapping(schedule={"kind": "fixed", "start": 30,
                                     "end_or_ratio": 40, "rounds": 4})
        with pytest.raises(ConfigError, match="end_or_ratio"):
            config_from_mapping(raw)

    def test_filter_mode_key_is_unknown(self, tmp_path, capsys):
        # arms is the one filter setting; the old problem-level key is refused
        for mapping in (landscape_mapping(), linreg_mapping(), oned_mapping()):
            mapping["problem"]["filter_mode"] = "direct"
            path = tmp_path / "old.yaml"
            path.write_text(yaml.safe_dump(mapping))
            assert main(["validate", "--config", str(path)]) == 2
            assert "unknown config key 'problem.filter_mode'" in capsys.readouterr().err

    @pytest.mark.parametrize("after,added,message", [
        ("rounds: 3}\n", "replications: 7\n",
         "config key 'replications' is given twice, the second time on line 11"),
        ("n0: 30\n", "  sigma: 5.0\n",
         "config key 'problem.sigma' is given twice, the second time on line 9"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_is_refused(self, tmp_path, capsys, after, added, message):
        # PyYAML itself keeps the last value of a repeated key
        text = ("experiment: iterate_linreg\n"
                "replications: 3\n"
                "master_seed: 5\n"
                "problem:\n"
                "  dimension: 2\n"
                "  true_theta: [1.0, -1.0]\n"
                "  sigma: 1.0\n"
                "  n0: 30\n"
                "ball: {radius: 1.0, delta: 0.5}\n"
                "schedule: {kind: linear, start: 40, end_or_ratio: 80, rounds: 3}\n")
        path = tmp_path / "twice.yaml"
        path.write_text(text.replace(after, after + added))
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == message
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_overrides(self):
        config = config_from_mapping(linreg_mapping())
        changed = config.with_overrides(master_seed=99, replications=7)
        assert (changed.master_seed, changed.replications) == (99, 7)
        assert changed.with_overrides(master_seed=5, replications=3) == config

    def test_resolve_ball_delta_form(self):
        config = config_from_mapping(linreg_mapping())
        ball = experiments.resolve_ball(config)
        offset = np.asarray(ball.center) - np.asarray(config.true_theta)
        assert np.linalg.norm(offset) == pytest.approx(0.5, rel=1e-12)


class TestOutputFiles:
    def test_frozen_headers(self):
        assert ",".join(LANDSCAPE_COLUMNS) == (
            "delta,r,sigma_c,log_ratio_mean,log_ratio_se,theory_log_ratio,"
            "n_reps,status")
        assert ",".join(TRAJECTORY_COLUMNS) == (
            "arm,round,n_k_per_direction,dist_theta_star_mean,"
            "dist_theta_star_se,dist_center_mean,dist_center_se,theory_bound,"
            "rho,n_reps")
        assert ",".join(GAUSSIAN1D_COLUMNS) == (
            "round,n_k,mean_estimate_mean,mean_estimate_se,dist_midpoint_mean,"
            "dist_midpoint_se,theory_bound,n_reps")

    def test_format_cell(self):
        assert format_cell(0.1) == "0.1"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(float("-inf")) == "-inf"
        assert format_cell(True) == "true"
        assert format_cell(3) == "3"
        assert format_cell("ok") == "ok"

    def test_csv_repr_floats_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1 + 0.2  # not representable as a short decimal
        write_csv(str(path), [{"a": value, "b": float("nan")}], ("a", "b"))
        header, line = path.read_text().splitlines()
        assert header == "a,b"
        a, b = line.split(",")
        assert float(a) == value  # repr round-trips exactly
        assert a == "0.30000000000000004"
        assert b == "nan"

    def test_csv_missing_column(self, tmp_path):
        with pytest.raises(ConfigError, match="missing columns"):
            write_csv(str(tmp_path / "t.csv"), [{"a": 1.0}], ("a", "b"))

    def test_json_document(self, tmp_path):
        config = config_from_mapping(oned_mapping())
        path = tmp_path / "t.json"
        write_json(str(path), [{"round": 0, "x": float("nan")},
                               {"round": 1, "x": 2.0}], ("round", "x"), config)
        doc = json.loads(path.read_text())
        assert set(doc) == {"version", "config", "records"}
        assert doc["config"]["experiment"] == "iterate_1d"
        assert doc["records"][0]["x"] is None
        assert doc["records"][1]["x"] == 2.0


class TestRunners:
    def test_landscape_rows(self):
        config = config_from_mapping(landscape_mapping())
        rows = run_landscape(config)
        assert len(rows) == 4
        assert all(set(r) == set(LANDSCAPE_COLUMNS) for r in rows)
        assert [(r["delta"], r["r"]) for r in rows] == [
            (0.0, 0.6), (0.0, 1.2), (1.0, 0.6), (1.0, 1.2)]
        assert all(r["status"] == "ok" for r in rows)
        assert all(math.isfinite(r["log_ratio_mean"]) for r in rows)

    def test_landscape_degenerate_cell(self):
        raw = landscape_mapping()
        raw["landscape"]["delta_values"] = [0.0, 60.0]
        raw["landscape"]["sigma_c"] = 0.0
        rows = run_landscape(config_from_mapping(raw))
        by_delta = {r["delta"]: r for r in rows if r["r"] == 0.6}
        assert by_delta[0.0]["status"] == "ok"
        assert by_delta[60.0]["status"] == "degenerate"
        assert math.isnan(by_delta[60.0]["log_ratio_mean"])
        assert math.isnan(by_delta[60.0]["theory_log_ratio"])

    # at delta = 37.3 the band has mass at the truth but none for some
    # replication's noisier fit: the cell's row drops its theory value too
    @pytest.mark.parametrize("threads", [1, 2])
    def test_landscape_cell_degenerate_for_a_replication(self, threads, split_blocks):
        raw = landscape_mapping(replications=12, master_seed=1, problem={
            "dimension": 3, "true_theta": [1.0, -0.5, 2.0], "sigma": 1.0, "n0": 8})
        raw["landscape"] = {"delta_values": [0.0, 37.3], "r_values": [0.3], "n1": 20,
                            "sigma_c": 0.0}
        config = config_from_mapping(raw)
        assert math.isfinite(theory_summary(config)["cells"][1]["theory_log_ratio"])
        ok, degenerate = run_landscape(config, threads=threads)
        assert ok["status"] == "ok" and math.isfinite(ok["theory_log_ratio"])
        assert degenerate["status"] == "degenerate"
        assert all(math.isnan(degenerate[key])
                   for key in ("log_ratio_mean", "log_ratio_se", "theory_log_ratio"))

    # at |theta| = 1.85e169 one double spans every cell's band for every
    # replication, and the real fit's error norm overflows
    @pytest.mark.parametrize("threads", [1, 2])
    def test_landscape_band_collapsed_in_floating_point(self, tmp_path, threads, split_blocks):
        raw = landscape_mapping(replications=3, problem={
            "dimension": 3, "true_theta": [1.85e169] * 3, "sigma": 1.0, "n0": 40})
        raw["landscape"] = {"delta_values": [0.0, 1.0], "r_values": [0.5, 1.0], "n1": 10}
        path = tmp_path / "collapsed.yaml"
        write_yaml(config_from_mapping(raw), str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["landscape", "--config", str(path), "--threads", str(threads),
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "landscape.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["status"] for row in rows] == ["degenerate"] * 4
        assert all(row[key] == "nan" for row in rows
                   for key in ("log_ratio_mean", "log_ratio_se", "theory_log_ratio"))

    # sigma = 1e-15 lies below the spacing of doubles at theta* = 1, so some
    # retrained estimates round to theta* exactly: an error norm of 0
    @pytest.mark.parametrize("of_means", [False, True], ids=["mean-of-logs", "log-of-means"])
    def test_landscape_zero_error_norm_is_degenerate(self, of_means):
        raw = landscape_mapping(replications=200, master_seed=3, problem={
            "dimension": 2, "true_theta": 1.0, "sigma": 1e-15, "n0": 20})
        raw["landscape"] = {"delta_values": [0.0, 0.5], "r_values": [0.5], "n1": 10,
                            "log_ratio_of_means": of_means}
        rows = run_landscape(config_from_mapping(raw))
        assert [row["status"] for row in rows] == ["degenerate"] * 2
        assert all(math.isnan(row[key]) for row in rows
                   for key in ("log_ratio_mean", "log_ratio_se"))
        assert all(math.isfinite(row["theory_log_ratio"]) for row in rows)

    # a ball placed by its center runs as the delta config that puts it there
    def test_ball_center_runs_as_its_delta_twin(self):
        schedule = {"kind": "linear", "start": 40, "end_or_ratio": 80, "rounds": 5}
        arms = ["direct", "reject", "none"]
        by_delta = config_from_mapping(linreg_mapping(schedule=schedule, arms=arms))
        center = np.asarray(by_delta.true_theta) + 0.5 * experiments.bias_direction(by_delta)
        by_center = config_from_mapping(linreg_mapping(
            schedule=schedule, arms=arms, ball={"radius": 1.0, "center": center.tolist()}))
        assert by_center.ball_delta is None
        rows = [[repr(v) for v in row.values()] for row in run_iterative(by_center)]
        assert len(rows) == 18
        assert rows == [[repr(v) for v in row.values()] for row in run_iterative(by_delta)]

    def test_trajectory_rows(self):
        config = config_from_mapping(linreg_mapping())
        rows = run_iterative(config)
        assert len(rows) == 2 * 4  # two arms, K=3 rounds plus round 0
        direct = [r for r in rows if r["arm"] == "direct"]
        none = [r for r in rows if r["arm"] == "none"]
        assert [r["round"] for r in direct] == [0, 1, 2, 3]
        assert [r["n_k_per_direction"] for r in direct] == [0, 20, 30, 40]
        assert all(math.isnan(r["theory_bound"]) for r in none)
        assert all(math.isnan(r["rho"]) for r in none)
        assert all(math.isfinite(r["theory_bound"]) for r in direct)
        assert direct[0]["rho"] == pytest.approx(
            contraction_rate(experiments.resolve_ball(config), config.sigma))
        # both arms share round 0 (same real data)
        assert direct[0]["dist_center_mean"] == none[0]["dist_center_mean"]

    def test_one_dimensional_rows(self):
        config = config_from_mapping(oned_mapping())
        rows = run_iterative(config)
        assert len(rows) == 5
        assert all(set(r) == set(GAUSSIAN1D_COLUMNS) for r in rows)
        assert [r["n_k"] for r in rows] == [0, 30, 30, 30, 30]
        init_std = 1.0 / 50  # true mean sits at the midpoint
        assert rows[0]["theory_bound"] == pytest.approx(init_std)
        # squared-distance column: round-0 mean near 1/n0
        assert rows[0]["dist_midpoint_mean"] < 10 * init_std

    @pytest.mark.parametrize("mapping,expected", REJECT_ROWS)
    def test_reject_rows_are_pinned(self, mapping, expected):
        rows = run_iterative(config_from_mapping(mapping))
        assert [" ".join(repr(v) for v in row.values()) for row in rows] == expected

    def test_unfiltered_rows_are_pinned(self):
        rows = run_iterative(config_from_mapping(linreg_mapping()))
        assert [" ".join(repr(v) for v in row.values()) for row in rows] == UNFILTERED_ROWS

    @pytest.mark.parametrize("arms", [["none"], ["reject", "none"], ["none", "direct"]])
    def test_unfiltered_rows_do_not_depend_on_the_other_arms(self, arms):
        rows = run_iterative(config_from_mapping(linreg_mapping(arms=arms)))
        unfiltered = [" ".join(repr(v) for v in row.values())
                      for row in rows if row["arm"] == "none"]
        assert unfiltered == UNFILTERED_ROWS[4:]

    def test_semi_infinite_interval_rows_have_nan_bounds(self):
        raw = oned_mapping(interval={"lower": -math.inf, "upper": 1.0})
        rows = run_iterative(config_from_mapping(raw))
        assert all(math.isnan(r["theory_bound"]) for r in rows)
        assert all(math.isnan(r["dist_midpoint_mean"]) for r in rows)
        assert all(math.isfinite(r["mean_estimate_mean"]) for r in rows)

    def test_one_replication_half_line_has_nan_midpoint_statistics(self):
        # one replication has no spread: its SE is 0, but a NaN mean's stays NaN
        raw = oned_mapping(replications=1, interval={"lower": -math.inf, "upper": 1.0})
        rows = run_iterative(config_from_mapping(raw))
        assert all(math.isnan(r["dist_midpoint_mean"]) and math.isnan(r["dist_midpoint_se"])
                   for r in rows)
        assert all(r["mean_estimate_se"] == 0.0 for r in rows)

    def test_kind_dispatch_guards(self):
        with pytest.raises(ConfigError):
            run_landscape(config_from_mapping(linreg_mapping()))
        with pytest.raises(ConfigError):
            run_iterative(config_from_mapping(landscape_mapping()))

    @pytest.mark.parametrize("mapping,runner", [
        (landscape_mapping(), run_landscape),
        (linreg_mapping(), run_iterative),
        (oned_mapping(), run_iterative),
    ])
    def test_thread_count_does_not_change_results(self, mapping, runner, split_blocks):
        config = config_from_mapping(mapping)
        serial = runner(config, threads=1)
        threaded = runner(config, threads=4)
        assert serial == threaded  # bit-identical floats, not just approx

    def test_threads_bound_the_workers(self, monkeypatch):
        # a stand-in pool records its size and runs each block inline: no thread starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(experiments, "MIN_BLOCK_NOISE", 1)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
        config = config_from_mapping(oned_mapping())  # 3 replications: 3 blocks
        assert run_iterative(config, threads=10 ** 6) == run_iterative(config)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        run_iterative(config, threads=10 ** 6)
        assert sizes == [3, 2]

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert experiments._usable_cpus() == 1
        assert experiments._blocks(200, 8, 800) == [range(1, 201)]
        monkeypatch.delattr(experiments.os, "sched_getaffinity")
        assert experiments._usable_cpus() == 8

    def test_blocks_follow_workers_and_work(self, monkeypatch):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        blocks = experiments._blocks
        # the bench workloads at 2 threads, one block each:
        # (replications, noise values per round)
        assert blocks(40, 2, 800) == [range(1, 41)]  # landscape
        assert blocks(10, 2, 5496) == [range(1, 11)]  # iterate_linreg
        assert blocks(5, 2, 50) == [range(1, 6)]  # gaussian1d_long
        assert blocks(30, 2, 16) == [range(1, 31)]  # selective_reject
        # the shipped configs
        assert blocks(200, 2, 800) == [range(1, 101), range(101, 201)]  # landscape
        assert blocks(200, 2, 200) == [range(1, 201)]  # gaussian1d_convergence
        # iterate_linear_growth: two workers, blocks cut to BLOCK_ELEMENTS
        assert [len(b) for b in blocks(200, 2, 5496)] == [47, 47, 47, 47, 12]
        # never more blocks than CPUs, unless a block would exceed BLOCK_ELEMENTS
        assert blocks(200, 64, 1000) == [range(1, 101), range(101, 201)]
        assert len(blocks(8, 1, experiments.BLOCK_ELEMENTS)) == 8

    # both statistics follow _mean_se's rule: one replication has no spread
    @pytest.mark.parametrize("of_means", [False, True], ids=["mean-of-logs", "log-of-means"])
    def test_one_replication_landscape_se_is_zero(self, of_means):
        raw = landscape_mapping(replications=1)
        raw["landscape"]["log_ratio_of_means"] = of_means
        rows = run_landscape(config_from_mapping(raw))
        assert [row["log_ratio_se"] for row in rows] == [0.0] * 4


class TestEstimateContraction:
    def test_exact_geometric_decay(self):
        rounds = np.arange(31)
        sq = 0.25 ** rounds
        assert estimate_contraction(rounds, sq) == pytest.approx(0.5, abs=1e-9)

    def test_noiseless_bound_sequence(self):
        rho, n, k_max = 0.9, 10 ** 9, 40
        schedule = np.full(k_max, n)
        sq = long_term_bounds(rho, 1.0, schedule)
        est = estimate_contraction(np.arange(k_max + 1), sq)
        assert abs(est - rho) / rho < 0.05

    def test_requires_enough_rounds(self):
        rounds = np.arange(16)
        with pytest.raises(InsufficientRoundsError):
            estimate_contraction(rounds, 0.5 ** rounds)  # only 6 after burn-in
        with pytest.raises(InsufficientRoundsError):
            estimate_contraction(np.arange(5), np.ones(6))

    def test_ignores_nonpositive_entries(self):
        rounds = np.arange(25)
        sq = 0.25 ** rounds.astype(float)
        sq[12] = 0.0  # dropped, still >= 10 usable points
        assert estimate_contraction(rounds, sq) == pytest.approx(0.5, rel=1e-3)


class TestTheorySummary:
    def test_landscape_summary(self):
        summary = theory_summary(config_from_mapping(landscape_mapping()))
        assert summary["experiment"] == KIND_LANDSCAPE
        assert summary["baseline_mse"] > 0
        assert len(summary["cells"]) == 4
        assert all(math.isfinite(c["theory_log_ratio"]) for c in summary["cells"])

    # sigma ** 2 raises OverflowError on a Python float; sigma * sigma is inf
    def test_oned_sigma_square_past_the_largest_double(self):
        config = config_from_mapping(oned_mapping(
            problem={"true_mean": 0.0, "sigma": 1e200, "n0": 20},
            interval={"lower": 2.0, "upper": 4e200}))
        assert theory_summary(config)["one_step_mse"] == math.inf

    # both MSEs carry sigma^2, which underflows to 0 at sigma = 1e-300: the
    # ratio is formed from the risks in units of sigma^2
    def test_landscape_ratio_is_free_of_sigma(self):
        def cells(sigma):
            problem = {"dimension": 3, "true_theta": [1.0, 1.0, 1.0], "sigma": sigma, "n0": 40}
            return theory_summary(config_from_mapping(landscape_mapping(problem=problem)))["cells"]

        s = spectral_design(experiments.design_matrix(config_from_mapping(landscape_mapping())))
        mu_sq_inv = s.singular_values ** -2.0
        # bands ~1e299 standard deviations wide: m1 = 0, m2 = 1, m3 = 0
        expected = 0.5 * math.log(np.sum(mu_sq_inv) / np.sum(1.0 / 60 + mu_sq_inv))
        live = [(tiny, small) for tiny, small in zip(cells(1e-300), cells(1e-100))
                if not math.isnan(tiny["one_step_mse"])]
        assert len(live) == 3
        for tiny, small in live:
            assert math.isfinite(tiny["theory_log_ratio"])
            assert tiny["theory_log_ratio"] == small["theory_log_ratio"]
            assert tiny["theory_log_ratio"] == pytest.approx(expected, rel=1e-12)

    def test_linreg_summary(self):
        summary = theory_summary(config_from_mapping(linreg_mapping()))
        assert summary["experiment"] == KIND_ITERATE_LINREG
        assert 0.0 < summary["rho"] < 1.0
        assert summary["initial_expected_sq_center"] == pytest.approx(
            summary["baseline_mse"] + 0.25)
        assert summary["final_round_bound"] > 0

    def test_one_dimensional_summary(self):
        summary = theory_summary(config_from_mapping(oned_mapping()))
        assert summary["experiment"] == KIND_ITERATE_1D
        assert summary["fixed_point"] == 0.0
        assert 0.0 < summary["rho"] < 1.0


class TestCli:
    def write(self, tmp_path, mapping, name="config.yaml"):
        path = tmp_path / name
        write_yaml(config_from_mapping(mapping), str(path))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, oned_mapping())
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "config OK: iterate_1d" in out

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
    def test_shipped_config_validates(self, path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", str(path)]) == 0
            assert main(["theory", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "experiment:" in out
        assert err == ""

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
    def test_shipped_outputs_are_pinned(self, path, tmp_path, capsys):
        theory, table = SHIPPED_DIGESTS[path.stem]
        assert main(["theory", "--config", str(path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == theory
        kind = yaml.safe_load(path.read_text())["experiment"]
        assert main([COMMAND_FOR_KIND[kind], "--config", str(path), "--reps", "3",
                     "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / f"{output_basename(kind)}.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == table

    @pytest.mark.parametrize("path", BENCH_WORKLOADS, ids=lambda path: path.stem)
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_benchmark_workload_outputs_are_pinned(self, path, threads, tmp_path):
        kind = yaml.safe_load(path.read_text())["experiment"]
        assert main([COMMAND_FOR_KIND[kind], "--config", str(path), "--threads", threads,
                     "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / f"{output_basename(kind)}.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == WORKLOAD_DIGESTS[path.stem]

    def test_validate_bounds_the_counts_drawn(self, tmp_path, capsys):
        # one round draws the start, however far the end; the last round
        # draws round(16777216.4) = 2^24 values; the rounds cap is inclusive
        one_round = oned_mapping(schedule={"kind": "linear", "start": 10,
                                           "end_or_ratio": 1.0e9, "rounds": 1})
        for mapping in (one_round,
                        oned_mapping(schedule={"kind": "linear", "start": 10,
                                               "end_or_ratio": 16777216.4, "rounds": 2}),
                        oned_mapping(replications=1, schedule={"kind": "fixed", "start": 10,
                                                               "rounds": 65536})):
            path = tmp_path / "config.yaml"
            path.write_text(yaml.safe_dump(mapping))
            assert main(["validate", "--config", str(path)]) == 0, capsys.readouterr().err
        path.write_text(yaml.safe_dump(one_round))
        assert main(["gaussian1d", "--config", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "gaussian1d.csv", newline="") as handle:
            assert [row["n_k"] for row in csv.DictReader(handle)] == ["0", "10"]

    def test_validate_rejects_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("experiment: landscape\nbogus: 1\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("make,message", [
        (lambda path: None, "cannot read config"),
        (lambda path: path.mkdir(), "cannot read config"),
        (lambda path: path.write_bytes(b"replications: \xff\xfe\n"),
         "codec can't decode byte 0xff"),
        (lambda path: path.write_text("a: [1, 2\n"), "cannot parse config"),
        (lambda path: path.write_text("- 1\n- 2\n"), "must be a mapping of keys to values"),
        (lambda path: path.write_text(""), "must be a mapping of keys to values"),
    ], ids=["missing", "directory", "not-utf-8", "unclosed-list", "top-level-list", "empty"])
    def test_unloadable_config_fails_validate(self, tmp_path, capsys, make, message):
        path = tmp_path / "config.yaml"
        make(path)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"config {str(path)!r}" in err and message in err

    def test_aliased_value_is_not_a_repeated_key(self, tmp_path, capsys):
        mapping = {key: value for key, value in landscape_mapping().items() if key != "landscape"}
        path = tmp_path / "alias.yaml"
        path.write_text(yaml.safe_dump(mapping) + "landscape:\n  delta_values: &d [0.5, 1.0]\n"
                        "  r_values: *d\n  n1: 60\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_seed_outside_key_space_fails_validate(self, tmp_path, capsys):
        path = tmp_path / "seed.yaml"
        path.write_text(yaml.safe_dump(oned_mapping(master_seed=2 ** 63)))
        assert main(["validate", "--config", str(path)]) == 2
        assert "master_seed must lie in" in capsys.readouterr().err
        path = self.write(tmp_path, oned_mapping())
        assert main(["validate", "--config", path, "--seed", str(2 ** 63)]) == 2
        assert "master_seed must lie in" in capsys.readouterr().err
        assert main(["validate", "--config", path, "--seed", str(2 ** 63 - 1)]) == 0

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
    def test_huge_broadcast_is_refused_in_little_memory(self, tmp_path):
        # a true_theta broadcast along 2^24 directions took 145 MB and, under
        # this limit, ended in a MemoryError (exit 1)
        import resource

        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(landscape_mapping(problem={
            "dimension": 2 ** 24, "true_theta": 1.0, "sigma": 1.0, "n0": 40})))
        limit = 100 * 2 ** 20
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        result = subprocess.run(
            [sys.executable, "-m", "verisynth.cli", "validate", "--config", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert result.returncode == 2, result.stderr
        assert "problem.dimension must be at most 4096" in result.stderr

    def test_runtime_failure_names_stream_key(self, tmp_path, capsys):
        # the verifier's interval carries no mass around the first estimate
        path = self.write(tmp_path, oned_mapping(interval={"lower": 100.0, "upper": 101.0}))
        assert main(["gaussian1d", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: replication 1, round 1, direction 1: acceptance probability" in err

    @pytest.mark.parametrize("mapping,field", BAD_VALUES)
    def test_bad_values_fail_validate(self, tmp_path, capsys, mapping, field):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["validate", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err
        assert main(["theory", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err
        # the same replication count again, given by --reps over a file that has 1
        path.write_text(yaml.safe_dump({**mapping, "replications": 1}))
        command = COMMAND_FOR_KIND[mapping["experiment"]]
        assert main([command, "--config", str(path), "--seed", "3",
                     "--reps", str(mapping["replications"]),
                     "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_collapsed_ball_fails_theory(self, tmp_path, capsys):
        # validate and the run are the BAD_VALUES case ball-collapsed
        path = tmp_path / "collapsed.yaml"
        path.write_text(yaml.safe_dump(linreg_mapping(problem=COLLAPSED_THETA)))
        assert main(["theory", "--config", str(path)]) == 2
        assert "the band collapses" in capsys.readouterr().err

    def test_vacuous_interval_bound_is_the_random_walk(self, tmp_path, capsys):
        # at sigma 1 the contraction rate of (-20, 20) rounds to exactly 1
        path = self.write(tmp_path, oned_mapping(
            problem={"true_mean": 0.0, "sigma": 1.0, "n0": 100},
            interval={"lower": -20.0, "upper": 20.0},
            schedule={"kind": "fixed", "start": 150, "rounds": 4},
        ))
        assert main(["theory", "--config", path]) == 0
        assert "rho: 1.0\n" in capsys.readouterr().out
        out = tmp_path / "results"
        assert main(["gaussian1d", "--config", path, "--out", str(out)]) == 0
        with open(out / "gaussian1d.csv", newline="") as handle:
            bounds = [float(row["theory_bound"]) for row in csv.DictReader(handle)]
        assert bounds == pytest.approx([1 / 100 + k / 150 for k in range(5)], rel=1e-12)

    def test_out_naming_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        path = self.write(tmp_path, oned_mapping())
        out = tmp_path / "taken"
        out.write_text("")
        monkeypatch.setattr("verisynth.cli.run_iterative", None)  # the run must not start
        assert main(["gaussian1d", "--config", path, "--out", str(out)]) == 2
        assert f"error: --out {str(out)!r}" in capsys.readouterr().err
        assert main(["gaussian1d", "--config", path, "--out", str(out / "sub")]) == 2
        assert "is not a directory" in capsys.readouterr().err

    def test_result_path_that_is_a_directory_fails_before_the_run(self, tmp_path, capsys,
                                                                  monkeypatch):
        path = self.write(tmp_path, oned_mapping())
        (tmp_path / "out" / "gaussian1d.csv").mkdir(parents=True)
        monkeypatch.setattr("verisynth.cli.run_iterative", None)  # the run must not start
        assert main(["gaussian1d", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and "gaussian1d.csv" in err

    def test_failed_write_after_the_run_exits_1(self, tmp_path, capsys, monkeypatch):
        def refuse(path, *args):
            raise PermissionError(f"[Errno 13] Permission denied: {path!r}")
        path = self.write(tmp_path, oned_mapping())
        monkeypatch.setattr("verisynth.cli.write_csv", refuse)
        assert main(["gaussian1d", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Permission denied" in err
        assert "Traceback" not in err

    def test_subcommand_kind_mismatch(self, tmp_path, capsys):
        path = self.write(tmp_path, landscape_mapping())
        assert main(["iterate", "--config", path, "--out", str(tmp_path)]) == 2
        assert "landscape" in capsys.readouterr().err

    def test_end_to_end_csv(self, tmp_path, capsys):
        path = self.write(tmp_path, oned_mapping())
        out = tmp_path / "results"
        assert main(["gaussian1d", "--config", path, "--out", str(out)]) == 0
        text = (out / "gaussian1d.csv").read_text()
        assert text.splitlines()[0] == ",".join(GAUSSIAN1D_COLUMNS)
        assert len(text.splitlines()) == 6

    def test_end_to_end_json_with_overrides(self, tmp_path):
        path = self.write(tmp_path, linreg_mapping())
        out = tmp_path / "results"
        code = main(["iterate", "--config", path, "--out", str(out),
                     "--format", "json", "--seed", "123", "--reps", "2"])
        assert code == 0
        doc = json.loads((out / "trajectory.json").read_text())
        assert doc["config"]["master_seed"] == 123
        assert doc["config"]["replications"] == 2
        assert all(r["n_reps"] == 2 for r in doc["records"])

    def test_landscape_end_to_end(self, tmp_path):
        path = self.write(tmp_path, landscape_mapping())
        out = tmp_path / "results"
        assert main(["landscape", "--config", path, "--out", str(out)]) == 0
        lines = (out / "landscape.csv").read_text().splitlines()
        assert lines[0] == ",".join(LANDSCAPE_COLUMNS)
        assert len(lines) == 5

    def test_theory_subcommand(self, tmp_path, capsys):
        path = self.write(tmp_path, linreg_mapping())
        assert main(["theory", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "rho:" in out and "baseline_mse:" in out
        assert "np.float64" not in out

    def test_theory_prints_plain_floats_all_kinds(self, tmp_path, capsys):
        # every summary value must render as a builtin scalar, not a numpy repr
        oned = oned_mapping(
            problem={"true_mean": 0.0, "sigma": 1.0, "n0": 100},
            schedule={"kind": "fixed", "start": 150, "rounds": 4},
        )
        for i, mapping in enumerate((landscape_mapping(), linreg_mapping(), oned)):
            path = self.write(tmp_path, mapping, name=f"cfg{i}.yaml")
            assert main(["theory", "--config", path]) == 0
            out = capsys.readouterr().out
            assert "np.float64" not in out and "np.int64" not in out

    @pytest.mark.parametrize("command", ["landscape", "iterate", "gaussian1d", "theory",
                                         "validate"])
    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--reps", "0"),
                                            ("--threads", "0"), ("--threads", "-3")])
    def test_bad_flag_exits_2_in_every_subcommand(self, tmp_path, capsys, monkeypatch,
                                                  command, flag, value):
        path = self.write(tmp_path, oned_mapping())
        monkeypatch.setattr("verisynth.cli.run_iterative", None)  # the run must not start
        assert main([command, "--config", path, flag, value, "--out", str(tmp_path)]) == 2
        bound = 0 if flag == "--seed" else 1
        assert capsys.readouterr() == ("", f"error: {flag} must be >= {bound}\n")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "verisynth" in capsys.readouterr().out

"""Experiment harness: schedules, stream derivation, configs, files, CLI."""
import csv
import json
import math
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
    InvalidBoundsError,
    KIND_ITERATE_1D,
    KIND_ITERATE_LINREG,
    KIND_LANDSCAPE,
    LANDSCAPE_COLUMNS,
    RegimeWarning,
    Schedule,
    SeedSpaceError,
    TRAJECTORY_COLUMNS,
    config_from_mapping,
    contraction_rate,
    derive_stream,
    estimate_contraction,
    load_config,
    long_term_bound,
    resolve_ball,
    run_iterative,
    run_landscape,
    theory_summary,
    write_config,
    write_csv,
    write_json,
)
from verisynth import experiments
from verisynth.cli import main
from verisynth.output import format_cell

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


#: configs that name a bad value, each with the field its error message names
BAD_VALUES = [
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
                 "last count", id="geometric-overflow"),
    pytest.param(linreg_mapping(schedule={"kind": "geometric", "start": 1,
                                          "end_or_ratio": 10.0, "rounds": 20}),
                 "last count", id="geometric-beyond-int64"),
    # a last count of 1e18 at p = 2: 5e17 noise values per direction in one round
    pytest.param(linreg_mapping(schedule={"kind": "geometric", "start": 1,
                                          "end_or_ratio": 10.0, "rounds": 19}),
                 "1000000000000000000 noise values", id="geometric-noise-per-round"),
    pytest.param(linreg_mapping(arms=[["direct"]]), "arms[0]", id="arms-nested-list"),
    pytest.param(linreg_mapping(arms=["direct", {"a": 1}]), "arms[1]", id="arms-nested-mapping"),
    pytest.param(landscape_mapping(replications=10 ** 12),
                 "1000000000000 replications", id="landscape-reps-huge"),
    # a scalar true_theta is broadcast only after the dimension is bounded
    pytest.param(landscape_mapping(problem={"dimension": 10 ** 30, "true_theta": 1.0,
                                            "sigma": 1.0, "n0": 40}),
                 "problem.dimension", id="dimension-huge"),
    # the real data alone: n0 normals per replication, an n0 x p design
    pytest.param(oned_mapping(problem={"true_mean": 0.0, "sigma": 1.0, "n0": 10 ** 10}),
                 "problem.n0", id="oned-real-data-huge"),
    pytest.param(landscape_mapping(problem={"dimension": 100000, "true_theta": 1.0,
                                            "sigma": 1.0, "n0": 100000}),
                 "problem.n0", id="landscape-design-huge"),
]

#: write_config's exact output: a writer that reorders keys still round-trips,
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

#: run_iterative's rows, each value repr'd, for two small configs with a REJECT
#: arm: selective_reject's problem (acceptance about 8e-4) and a 1-D interval
#: (1, 1.5) that accepts about 9% of the first round's candidates. A change of
#: chunking or of the stream layout that moves a kept REJECT draw changes them.
REJECT_ROWS = [
    pytest.param(linreg_mapping(
        master_seed=1105,
        problem={"dimension": 8, "true_theta": 1.0, "sigma": 1.0, "n0": 100},
        ball={"radius": 0.0, "delta": 0.5, "slack": 0.001},
        schedule={"kind": "fixed", "start": 2, "rounds": 5, "unit": "per_direction"},
        arms=["direct", "reject"],
    ), [
        "'direct' 0 0 0.07975101447264585 0.014748771616443399 0.39736808528489037 "
        "0.08407542267881916 0.3334611757727749 3.333332346810991e-07 3",
        "'direct' 1 2 0.24968234669944658 0.00027873811598062707 1.756689788181599e-06 "
        "5.103777430391048e-07 1.3333329757756163e-06 3.333332346810991e-07 3",
        "'direct' 2 2 0.24993097556107927 9.705306512799864e-05 1.2239976104426699e-06 "
        "3.134814017602879e-07 1.3333329387245446e-06 3.333332346810991e-07 3",
        "'direct' 3 2 0.25041007700044615 0.00035183012191696174 1.9964613499292703e-06 "
        "7.450989025836583e-07 1.3333329387245446e-06 3.333332346810991e-07 3",
        "'direct' 4 2 0.25037076204644726 9.693355205181498e-05 1.8181530439283945e-06 "
        "1.472403722478828e-07 1.3333329387245446e-06 3.333332346810991e-07 3",
        "'direct' 5 2 0.2501033297730926 0.0002671219108095264 1.296175688109587e-06 "
        "1.7933353722440107e-07 1.3333329387245446e-06 3.333332346810991e-07 3",
        "'reject' 0 0 0.07975101447264585 0.014748771616443399 0.39736808528489037 "
        "0.08407542267881916 0.3334611757727749 3.333332346810991e-07 3",
        "'reject' 1 2 0.24982925893732624 0.00032434984170968484 1.619093971922573e-06 "
        "5.808667227309365e-07 1.3333329757756163e-06 3.333332346810991e-07 3",
        "'reject' 2 2 0.24980081186227862 0.00022979313942223388 1.9163613538979852e-06 "
        "2.3440293956007902e-07 1.3333329387245446e-06 3.333332346810991e-07 3",
        "'reject' 3 2 0.24979477402109476 0.00014291588855764128 6.534513770595593e-07 "
        "1.801681818592583e-07 1.3333329387245446e-06 3.333332346810991e-07 3",
        "'reject' 4 2 0.24976876752646415 0.00018286311179823488 1.1497605934886451e-06 "
        "3.5403761963832403e-07 1.3333329387245446e-06 3.333332346810991e-07 3",
        "'reject' 5 2 0.24970747871001828 0.000107782072496809 1.705572564986383e-06 "
        "4.6100116226596537e-07 1.3333329387245446e-06 3.333332346810991e-07 3",
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


class TestSchedule:
    def test_fixed(self):
        assert Schedule("fixed", 50, 50, 5).counts().tolist() == [50] * 5

    def test_linear_endpoints(self):
        seq = Schedule("linear", 100, 5500, 60).counts()
        assert seq[0] == 100 and seq[-1] == 5500 and seq.size == 60
        assert np.all(np.diff(seq) >= 0)

    def test_linear_single_round(self):
        assert Schedule("linear", 7, 9, 1).counts().tolist() == [7]

    def test_geometric(self):
        assert Schedule("geometric", 10, 2.0, 4).counts().tolist() == [10, 20, 40, 80]

    def test_validation(self):
        with pytest.raises(Exception):
            Schedule("cubic", 10, 10, 5)
        with pytest.raises(Exception):
            Schedule("fixed", 0, 0, 5)
        with pytest.raises(Exception):
            Schedule("fixed", 10, 10, 0)
        with pytest.raises(Exception):
            Schedule("linear", 100, 50, 5)
        with pytest.raises(Exception):
            Schedule("geometric", 10, 0.5, 5)
        with pytest.raises(Exception):
            Schedule("fixed", 10, 10, 5, unit="per_batch")

    def test_last_count_must_fit_the_count_type(self):
        with pytest.raises(InvalidBoundsError, match="last count"):
            Schedule("geometric", 1, 1e300, 5)
        with pytest.raises(InvalidBoundsError, match="last count"):
            Schedule("geometric", 1, 10.0, 20)  # 1e19 >= 2^63
        with pytest.raises(InvalidBoundsError, match="last count"):
            Schedule("linear", 1, math.nan, 5)
        assert Schedule("geometric", 1, 10.0, 19).counts()[-1] == 10 ** 18

    def test_per_direction_split(self):
        sched = Schedule("linear", 100, 5500, 60, unit="total")
        per = sched.per_direction_counts(8)
        assert per[0] == 12 and per[-1] == 687  # floor division of totals
        assert np.all(per >= 1)
        direct = Schedule("fixed", 7, 7, 3, unit="per_direction")
        assert direct.per_direction_counts(8).tolist() == [7, 7, 7]
        with pytest.raises(Exception):
            sched.per_direction_counts(0)

    def test_small_totals_floor_at_one(self):
        sched = Schedule("fixed", 3, 3, 2, unit="total")
        assert sched.per_direction_counts(8).tolist() == [1, 1]

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
        assert seq.size == rounds
        assert np.all(seq >= 1)
        assert np.all(np.diff(seq) >= 0)
        per = sched.per_direction_counts(dimension)
        assert np.all(per >= 1)
        assert np.all(per <= seq)


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
        write_config(config, str(path))
        assert load_config(str(path)) == config

    @pytest.mark.parametrize("mapping,text", WRITTEN_YAML)
    def test_written_bytes(self, tmp_path, mapping, text):
        path = tmp_path / "config.yaml"
        write_config(config_from_mapping(mapping), str(path))
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
        write_config(config, str(path))
        assert load_config(str(path)) == config

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

    def test_overrides(self):
        config = config_from_mapping(linreg_mapping())
        changed = config.with_overrides(master_seed=99, replications=7)
        assert (changed.master_seed, changed.replications) == (99, 7)
        assert changed.with_overrides(master_seed=5, replications=3) == config

    def test_resolve_ball_delta_form(self):
        config = config_from_mapping(linreg_mapping())
        ball = resolve_ball(config)
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
            contraction_rate(resolve_ball(config), config.sigma))
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

    def test_semi_infinite_interval_rows_have_nan_bounds(self):
        raw = oned_mapping(interval={"lower": -math.inf, "upper": 1.0})
        rows = run_iterative(config_from_mapping(raw))
        assert all(math.isnan(r["theory_bound"]) for r in rows)
        assert all(math.isnan(r["dist_midpoint_mean"]) for r in rows)
        assert all(math.isfinite(r["mean_estimate_mean"]) for r in rows)

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
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        config = config_from_mapping(oned_mapping())  # 3 replications: 3 blocks
        assert run_iterative(config, threads=10 ** 6) == run_iterative(config)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        run_iterative(config, threads=10 ** 6)
        assert sizes == [3, 2]

    def test_blocks_follow_workers_and_work(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        blocks = experiments._blocks
        # the bench workloads at 2 threads: (replications, noise values per round)
        assert blocks(40, 2, 800) == [range(1, 21), range(21, 41)]  # landscape
        assert blocks(10, 2, 5496) == [range(1, 6), range(6, 11)]  # iterate_linreg
        assert blocks(5, 2, 50) == [range(1, 6)]  # gaussian1d_long
        assert blocks(30, 2, 16) == [range(1, 31)]  # selective_reject
        # never more blocks than CPUs, unless a block would exceed BLOCK_ELEMENTS
        assert blocks(200, 64, 1000) == [range(1, 101), range(101, 201)]
        assert len(blocks(8, 1, experiments.BLOCK_ELEMENTS)) == 8


class TestEstimateContraction:
    def test_exact_geometric_decay(self):
        rounds = np.arange(31)
        sq = 0.25 ** rounds
        assert estimate_contraction(rounds, sq) == pytest.approx(0.5, abs=1e-9)

    def test_noiseless_bound_sequence(self):
        rho, n, k_max = 0.9, 10 ** 9, 40
        schedule = np.full(k_max, n)
        sq = np.array([long_term_bound(rho, 1.0, schedule, k)
                       for k in range(k_max + 1)])
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

    def test_linreg_summary(self):
        summary = theory_summary(config_from_mapping(linreg_mapping()))
        assert summary["experiment"] == KIND_ITERATE_LINREG
        assert 0.0 < summary["rho"] < 1.0
        assert summary["initial_expected_sq_center"] == pytest.approx(
            summary["baseline_mse"] + 0.25)
        assert summary["final_round_bound"] > 0

    def test_one_dimensional_summary(self):
        with pytest.warns(RegimeWarning):  # n0=50 is below the accuracy regime
            summary = theory_summary(config_from_mapping(oned_mapping()))
        assert summary["experiment"] == KIND_ITERATE_1D
        assert summary["fixed_point"] == 0.0
        assert 0.0 < summary["rho"] < 1.0


class TestCli:
    def write(self, tmp_path, mapping, name="config.yaml"):
        path = tmp_path / name
        write_config(config_from_mapping(mapping), str(path))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, oned_mapping())
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "config OK: iterate_1d" in out

    # the divergence config's n1 = 50 lies outside the one-step expansion's regime
    @pytest.mark.filterwarnings("ignore::verisynth.RegimeWarning")
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
    def test_shipped_config_validates(self, path, capsys):
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["theory", "--config", str(path)]) == 0
        assert "experiment:" in capsys.readouterr().out

    def test_validate_rejects_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("experiment: landscape\nbogus: 1\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_outside_key_space_fails_validate(self, tmp_path, capsys):
        path = tmp_path / "seed.yaml"
        path.write_text(yaml.safe_dump(oned_mapping(master_seed=2 ** 63)))
        assert main(["validate", "--config", str(path)]) == 2
        assert "master_seed must lie in" in capsys.readouterr().err
        path = self.write(tmp_path, oned_mapping())
        assert main(["validate", "--config", path, "--seed", str(2 ** 63)]) == 2
        assert "master_seed must lie in" in capsys.readouterr().err
        assert main(["validate", "--config", path, "--seed", str(2 ** 63 - 1)]) == 0

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
        # the same replication count again, given by --reps over a file that has 1
        path.write_text(yaml.safe_dump({**mapping, "replications": 1}))
        command = COMMAND_FOR_KIND[mapping["experiment"]]
        assert main([command, "--config", str(path), "--seed", "3",
                     "--reps", str(mapping["replications"]),
                     "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "verisynth" in capsys.readouterr().out

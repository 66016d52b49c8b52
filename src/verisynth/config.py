"""Declarative experiment configs: YAML schema, strict validation, round-trip.

One config file describes one experiment. Top-level keys::

    experiment: landscape | iterate_linreg | iterate_1d
    replications: <int >= 1>
    master_seed: <int>
    problem: {...}       # always required
    ball: {...}          # iterate_linreg only
    interval: {...}      # iterate_1d only
    schedule: {...}      # iterate kinds only
    arms: [...]          # iterate kinds, optional
    landscape: {...}     # landscape only

Unknown keys anywhere are hard errors naming the full dotted path. The only
defaulted fields are ``problem.filter_mode`` (direct), the verifier slack
(``ball.slack`` / ``landscape.sigma_c``, defaulting to sqrt(2/pi)*sigma),
``schedule.unit`` (total), and ``landscape.log_ratio_of_means`` (false);
loading resolves them, so a written config always spells every value out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping

import yaml

from .errors import ConfigError
from .gaussian1d import FILTER_DIRECT
from .linreg import FILTER_MODES
from .schedules import KIND_FIXED, SCHEDULE_KINDS, SCHEDULE_UNITS, UNIT_TOTAL, Schedule
from .seeding import MAX_INDEX
from .verifier import default_slack

KIND_LANDSCAPE = "landscape"
KIND_ITERATE_LINREG = "iterate_linreg"
KIND_ITERATE_1D = "iterate_1d"
EXPERIMENT_KINDS = (KIND_LANDSCAPE, KIND_ITERATE_LINREG, KIND_ITERATE_1D)

#: most noise values one replication may draw in one round
MAX_ROUND_NOISE = 2 ** 24
#: most floats the per-replication results of one run may hold
MAX_RESULT_FLOATS = 2 ** 28


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment.

    Fields not applicable to ``kind`` are None. Vector-valued fields are
    tuples so configs compare and hash by value.
    """

    kind: str
    replications: int
    master_seed: int
    sigma: float
    n0: int
    filter_mode: str
    # linreg / landscape problems
    dimension: int | None = None
    true_theta: tuple[float, ...] | None = None
    # 1-D problem
    true_mean: float | None = None
    interval_lower: float | None = None
    interval_upper: float | None = None
    # verifier ball (iterate_linreg)
    ball_radius: float | None = None
    ball_delta: float | None = None
    ball_center: tuple[float, ...] | None = None
    slack: float | None = None
    # iterate kinds
    schedule: Schedule | None = None
    arms: tuple[str, ...] | None = None
    # landscape grid
    delta_values: tuple[float, ...] | None = None
    r_values: tuple[float, ...] | None = None
    sigma_c: float | None = None
    n1: int | None = None
    log_ratio_of_means: bool | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        _check(self.replications >= 1, "replications must be >= 1")
        _check(0 <= self.master_seed <= MAX_INDEX,
               f"master_seed must lie in [0, {MAX_INDEX}], got {self.master_seed}")
        _check(math.isfinite(self.sigma) and self.sigma > 0.0, "problem.sigma must be > 0")
        _check(self.n0 >= 1, "problem.n0 must be >= 1")
        _check(
            self.filter_mode in FILTER_MODES,
            f"problem.filter_mode must be one of {FILTER_MODES}",
        )
        if self.kind == KIND_ITERATE_1D:
            _check(self.true_mean is not None and math.isfinite(self.true_mean),
                   "problem.true_mean must be finite")
            _check(
                self.interval_lower is not None and self.interval_upper is not None,
                "interval.lower and interval.upper are required",
            )
            _check(
                self.interval_lower < self.interval_upper,
                "interval.lower must be < interval.upper",
            )
        else:
            _check(
                self.dimension is not None and self.dimension >= 1,
                "problem.dimension must be >= 1",
            )
            _check(
                self.true_theta is not None and len(self.true_theta) == self.dimension,
                "problem.true_theta must have length problem.dimension",
            )
            _check(_finite(self.true_theta), "problem.true_theta must be finite")
            _check(self.n0 >= self.dimension, "problem.n0 must be >= problem.dimension")
        if self.kind == KIND_ITERATE_LINREG:
            _check(
                self.ball_radius is not None and 0.0 <= self.ball_radius < math.inf,
                "ball.radius must be finite and >= 0",
            )
            has_delta = self.ball_delta is not None
            has_center = self.ball_center is not None
            _check(has_delta != has_center, "ball needs exactly one of delta / center")
            if has_delta:
                _check(0.0 <= self.ball_delta < math.inf, "ball.delta must be finite and >= 0")
            else:
                _check(
                    len(self.ball_center) == self.dimension,
                    "ball.center must have length problem.dimension",
                )
                _check(_finite(self.ball_center), "ball.center must be finite")
            _check(self.slack is not None and 0.0 <= self.slack < math.inf,
                   "ball.slack must be finite and >= 0")
            _check(self.ball_radius + self.slack > 0.0, "ball.radius + ball.slack must be > 0")
        if self.kind in (KIND_ITERATE_LINREG, KIND_ITERATE_1D):
            _check(self.schedule is not None, "schedule section is required")
            _check(self.arms is not None and len(self.arms) >= 1, "arms must be nonempty")
            _check(
                len(set(self.arms)) == len(self.arms), "arms must not repeat a filter mode"
            )
            for arm in self.arms:
                _check(arm in FILTER_MODES, f"unknown arm {arm!r}")
        if self.kind == KIND_ITERATE_1D:
            _check(
                len(self.arms) == 1 and self.arms[0] != "none" and self.filter_mode != "none",
                "arms: 1-D experiments run a single verified arm (direct or reject)",
            )
        if self.kind == KIND_LANDSCAPE:
            _check(
                self.filter_mode == FILTER_DIRECT,
                "landscape experiments support only filter_mode 'direct'",
            )
            _check(
                self.delta_values is not None and len(self.delta_values) > 0,
                "landscape.delta_values must be nonempty",
            )
            _check(
                self.r_values is not None and len(self.r_values) > 0,
                "landscape.r_values must be nonempty",
            )
            _check(
                all(0.0 <= d < math.inf for d in self.delta_values),
                "landscape.delta_values must be finite and >= 0",
            )
            _check(all(r > 0.0 for r in self.r_values), "landscape.r_values must be > 0")
            _check(self.sigma_c is not None and self.sigma_c >= 0.0, "sigma_c must be >= 0")
            _check(self.n1 is not None and self.n1 >= 1, "landscape.n1 must be >= 1")
        self._check_work()

    def _check_work(self) -> None:
        """Bound the noise one replication draws in one round and the result floats of a run."""
        if self.kind == KIND_LANDSCAPE:
            noise = self.dimension * self.n1
            floats = self.replications * (len(self.delta_values) * len(self.r_values) + 1)
        else:
            p = 1 if self.kind == KIND_ITERATE_1D else self.dimension
            last = math.ceil(self.schedule.last_count)
            noise = p * (max(1, last // p) if self.schedule.unit == UNIT_TOTAL else last)
            floats = self.replications * (self.schedule.rounds + 1)
            if self.kind == KIND_ITERATE_LINREG:
                floats *= 2 * len(self.arms)
        _check(noise <= MAX_ROUND_NOISE,
               f"one replication would draw {noise} noise values in one round, "
               f"above the limit of 2^24")
        _check(floats <= MAX_RESULT_FLOATS,
               f"{self.replications} replications would hold {floats} result floats, "
               f"above the limit of 2^28")

    def to_mapping(self) -> dict[str, Any]:
        """Plain nested mapping mirroring the file schema, fully resolved."""
        problem: dict[str, Any] = {"sigma": self.sigma, "n0": self.n0,
                                   "filter_mode": self.filter_mode}
        out: dict[str, Any] = {
            "experiment": self.kind,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "problem": problem,
        }
        if self.kind == KIND_ITERATE_1D:
            problem["true_mean"] = self.true_mean
            out["interval"] = {"lower": self.interval_lower, "upper": self.interval_upper}
        else:
            problem["dimension"] = self.dimension
            problem["true_theta"] = list(self.true_theta)
        if self.kind == KIND_ITERATE_LINREG:
            ball: dict[str, Any] = {"radius": self.ball_radius}
            if self.ball_delta is not None:
                ball["delta"] = self.ball_delta
            else:
                ball["center"] = list(self.ball_center)
            ball["slack"] = self.slack
            out["ball"] = ball
        if self.schedule is not None:
            out["schedule"] = {
                "kind": self.schedule.kind,
                "start": self.schedule.start,
                "end_or_ratio": self.schedule.end_or_ratio,
                "rounds": self.schedule.rounds,
                "unit": self.schedule.unit,
            }
        if self.arms is not None:
            out["arms"] = list(self.arms)
        if self.kind == KIND_LANDSCAPE:
            out["landscape"] = {
                "delta_values": list(self.delta_values),
                "r_values": list(self.r_values),
                "sigma_c": self.sigma_c,
                "n1": self.n1,
                "log_ratio_of_means": self.log_ratio_of_means,
            }
        return out

    def with_overrides(
        self, master_seed: int | None = None, replications: int | None = None
    ) -> "ExperimentConfig":
        """Copy with command-line seed/replication overrides applied."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        if master_seed is not None:
            values["master_seed"] = master_seed
        if replications is not None:
            values["replications"] = replications
        return ExperimentConfig(**values)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _finite(values: tuple[float, ...]) -> bool:
    return all(math.isfinite(v) for v in values)


def _section(raw: Mapping[str, Any], path: str, allowed: set[str], required: set[str]):
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path} must be a mapping of keys to values")
    for key in raw:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(f"unknown config key {where!r}")
    for key in sorted(required):
        if key not in raw:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"missing required config key {where!r}")


def _number(raw: Mapping[str, Any], path: str, key: str, default=None) -> float | None:
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {value!r}")
    return float(value)


def _integer(raw: Mapping[str, Any], path: str, key: str, default=None) -> int | None:
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key} must be an integer, got {value!r}")
    return value


def _vector(raw: Any, path: str, dimension: int | None = None) -> tuple[float, ...]:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if dimension is None:
            raise ConfigError(f"{path} must be a list of numbers")
        return (float(raw),) * dimension
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{path} must be a nonempty list of numbers")
    values = []
    for i, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}[{i}] must be a number, got {value!r}")
        values.append(float(value))
    return tuple(values)


def _parse_schedule(raw: Mapping[str, Any]) -> Schedule:
    _section(raw, "schedule", {"kind", "start", "end_or_ratio", "rounds", "unit"},
             {"kind", "start", "rounds"})
    kind = raw["kind"]
    if kind not in SCHEDULE_KINDS:
        raise ConfigError(f"schedule.kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    start = _integer(raw, "schedule", "start")
    rounds = _integer(raw, "schedule", "rounds")
    end_or_ratio = _number(raw, "schedule", "end_or_ratio")
    if kind == KIND_FIXED:
        if end_or_ratio is None:
            end_or_ratio = float(start)
        elif end_or_ratio != start:
            raise ConfigError("schedule.end_or_ratio of a fixed schedule must equal start")
    elif end_or_ratio is None:
        raise ConfigError(f"schedule.end_or_ratio is required for {kind} schedules")
    unit = raw.get("unit", UNIT_TOTAL)
    if unit not in SCHEDULE_UNITS:
        raise ConfigError(f"schedule.unit must be one of {SCHEDULE_UNITS}, got {unit!r}")
    try:
        return Schedule(kind, start, end_or_ratio, rounds, unit)
    except Exception as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def config_from_mapping(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a plain nested mapping."""
    _section(raw, "", {"experiment", "replications", "master_seed", "problem", "ball",
                       "interval", "schedule", "arms", "landscape"},
             {"experiment", "replications", "master_seed", "problem"})
    kind = raw["experiment"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}")

    for key, wanted in (("ball", (KIND_ITERATE_LINREG,)),
                        ("interval", (KIND_ITERATE_1D,)),
                        ("schedule", (KIND_ITERATE_LINREG, KIND_ITERATE_1D)),
                        ("arms", (KIND_ITERATE_LINREG, KIND_ITERATE_1D)),
                        ("landscape", (KIND_LANDSCAPE,))):
        if key in raw and kind not in wanted:
            raise ConfigError(f"config section {key!r} does not apply to {kind} experiments")

    problem = raw["problem"]
    if kind == KIND_ITERATE_1D:
        _section(problem, "problem", {"true_mean", "sigma", "n0", "filter_mode"},
                 {"true_mean", "sigma", "n0"})
    else:
        _section(problem, "problem",
                 {"dimension", "true_theta", "sigma", "n0", "filter_mode"},
                 {"dimension", "true_theta", "sigma", "n0"})
    sigma = _number(problem, "problem", "sigma")
    filter_mode = problem.get("filter_mode", FILTER_DIRECT)
    if filter_mode not in FILTER_MODES:
        raise ConfigError(f"problem.filter_mode must be one of {FILTER_MODES}, got {filter_mode!r}")

    values: dict[str, Any] = {
        "kind": kind,
        "replications": _integer(raw, "", "replications"),
        "master_seed": _integer(raw, "", "master_seed"),
        "sigma": sigma,
        "n0": _integer(problem, "problem", "n0"),
        "filter_mode": filter_mode,
    }
    if kind == KIND_ITERATE_1D:
        values["true_mean"] = _number(problem, "problem", "true_mean")
    else:
        dimension = _integer(problem, "problem", "dimension")
        values["dimension"] = dimension
        values["true_theta"] = _vector(problem["true_theta"], "problem.true_theta", dimension)

    if kind == KIND_ITERATE_LINREG:
        if "ball" not in raw:
            raise ConfigError("missing required config section 'ball'")
        ball = raw["ball"]
        _section(ball, "ball", {"radius", "delta", "center", "slack"}, {"radius"})
        if ("delta" in ball) == ("center" in ball):
            raise ConfigError("ball needs exactly one of 'delta' / 'center'")
        values["ball_radius"] = _number(ball, "ball", "radius")
        if "delta" in ball:
            values["ball_delta"] = _number(ball, "ball", "delta")
        else:
            values["ball_center"] = _vector(ball["center"], "ball.center",
                                            values.get("dimension"))
        values["slack"] = _number(ball, "ball", "slack", default_slack(sigma))
    if kind == KIND_ITERATE_1D:
        if "interval" not in raw:
            raise ConfigError("missing required config section 'interval'")
        interval = raw["interval"]
        _section(interval, "interval", {"lower", "upper"}, {"lower", "upper"})
        values["interval_lower"] = _number(interval, "interval", "lower")
        values["interval_upper"] = _number(interval, "interval", "upper")

    if kind in (KIND_ITERATE_LINREG, KIND_ITERATE_1D):
        if "schedule" not in raw:
            raise ConfigError("missing required config section 'schedule'")
        values["schedule"] = _parse_schedule(raw["schedule"])
        arms = raw.get("arms", [filter_mode])
        if not isinstance(arms, (list, tuple)):
            raise ConfigError("arms must be a list of filter modes")
        values["arms"] = tuple(arms)

    if kind == KIND_LANDSCAPE:
        if "landscape" not in raw:
            raise ConfigError("missing required config section 'landscape'")
        grid = raw["landscape"]
        _section(grid, "landscape",
                 {"delta_values", "r_values", "sigma_c", "n1", "log_ratio_of_means"},
                 {"delta_values", "r_values", "n1"})
        values["delta_values"] = _vector(grid["delta_values"], "landscape.delta_values")
        values["r_values"] = _vector(grid["r_values"], "landscape.r_values")
        values["sigma_c"] = _number(grid, "landscape", "sigma_c", default_slack(sigma))
        values["n1"] = _integer(grid, "landscape", "n1")
        flag = grid.get("log_ratio_of_means", False)
        if not isinstance(flag, bool):
            raise ConfigError(f"landscape.log_ratio_of_means must be true/false, got {flag!r}")
        values["log_ratio_of_means"] = flag

    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config {path!r} must be a mapping of keys to values")
    return config_from_mapping(raw)


def write_config(config: ExperimentConfig, path: str) -> None:
    """Write a config as YAML such that loading it back compares equal."""
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(config.to_mapping(), handle, sort_keys=False,
                       default_flow_style=None)


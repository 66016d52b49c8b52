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

``LAYOUT`` is the one place this layout lives: one row per ``ExperimentConfig``
field, in file order, with the field's dotted path, the kinds it applies to,
its reader and its default. The parser, the presence checks of
``ExperimentConfig`` and ``to_mapping`` each loop over it; value ranges are
checked in ``ExperimentConfig`` alone.

Unknown keys anywhere are hard errors naming the full dotted path. The only
defaulted fields are ``arms`` ([direct]), the verifier slack (``ball.slack`` /
``landscape.sigma_c``, defaulting to sqrt(2/pi)*sigma), ``schedule.unit``
(total), and ``landscape.log_ratio_of_means`` (false); loading resolves them,
so a written config always spells every value out.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterable, Mapping

import yaml

from .errors import ConfigError
from .kernel import FILTER_DIRECT, FILTER_MODES, FILTER_NONE
from .schedules import KIND_FIXED, SCHEDULE_KINDS, SCHEDULE_UNITS, UNIT_TOTAL, Schedule
from .seeding import MAX_INDEX
from .verifier import default_slack

KIND_LANDSCAPE = "landscape"
KIND_ITERATE_LINREG = "iterate_linreg"
KIND_ITERATE_1D = "iterate_1d"
EXPERIMENT_KINDS = (KIND_LANDSCAPE, KIND_ITERATE_LINREG, KIND_ITERATE_1D)

#: most values one replication may draw or hold in one round, the real data included
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
        _kind(self.kind, "experiment", {})
        for field, path, kinds, _, default in LAYOUT:
            value = getattr(self, field)
            if self.kind not in kinds:
                _check(value is None, f"{path} does not apply to {self.kind} experiments")
            elif default is not None:
                _check(value is not None, f"missing required config key {path!r}")
        _check(self.replications >= 1, "replications must be >= 1")
        _check(0 <= self.master_seed <= MAX_INDEX,
               f"master_seed must lie in [0, {MAX_INDEX}], got {self.master_seed}")
        _check(math.isfinite(self.sigma) and self.sigma > 0.0, "problem.sigma must be > 0")
        _check(self.n0 >= 1, "problem.n0 must be >= 1")
        if self.kind == KIND_ITERATE_1D:
            _check(math.isfinite(self.true_mean), "problem.true_mean must be finite")
            _check(self.interval_lower < self.interval_upper,
                   "interval.lower must be < interval.upper")
        else:
            _check(self.dimension >= 1, "problem.dimension must be >= 1")
            _check(len(self.true_theta) == self.dimension,
                   "problem.true_theta must have length problem.dimension")
            _check(_finite(self.true_theta), "problem.true_theta must be finite")
            _check(self.n0 >= self.dimension, "problem.n0 must be >= problem.dimension")
        if self.kind == KIND_ITERATE_LINREG:
            _check(0.0 <= self.ball_radius < math.inf, "ball.radius must be finite and >= 0")
            _check((self.ball_delta is None) != (self.ball_center is None),
                   "ball needs exactly one of 'delta' / 'center'")
            if self.ball_delta is not None:
                _check(0.0 <= self.ball_delta < math.inf, "ball.delta must be finite and >= 0")
            else:
                _check(len(self.ball_center) == self.dimension,
                       "ball.center must have length problem.dimension")
                _check(_finite(self.ball_center), "ball.center must be finite")
            _check(0.0 <= self.slack < math.inf, "ball.slack must be finite and >= 0")
            _check(self.ball_radius + self.slack > 0.0, "ball.radius + ball.slack must be > 0")
        if self.kind == KIND_LANDSCAPE:
            _check(len(self.delta_values) > 0, "landscape.delta_values must be nonempty")
            _check(len(self.r_values) > 0, "landscape.r_values must be nonempty")
            _check(all(0.0 <= d < math.inf for d in self.delta_values),
                   "landscape.delta_values must be finite and >= 0")
            _check(all(0.0 < r < math.inf for r in self.r_values),
                   "landscape.r_values must be finite and > 0")
            _check(0.0 <= self.sigma_c < math.inf, "landscape.sigma_c must be finite and >= 0")
            _check(self.n1 >= 1, "landscape.n1 must be >= 1")
        else:
            _check(len(self.arms) >= 1, "arms must be nonempty")
            _check(len(set(self.arms)) == len(self.arms), "arms must not repeat a filter mode")
            for arm in self.arms:
                _check(arm in FILTER_MODES, f"unknown arm {arm!r}")
            _check(self.kind == KIND_ITERATE_LINREG
                   or (len(self.arms) == 1 and self.arms[0] != FILTER_NONE),
                   "arms: 1-D experiments run a single verified arm (direct or reject)")
        self._check_work()

    def _check_work(self) -> None:
        """Bound the values one replication draws or holds in one round and a run's results."""
        p = 1 if self.kind == KIND_ITERATE_1D else self.dimension
        if self.kind == KIND_LANDSCAPE:
            noise = p * self.n1
            floats = self.replications * (len(self.delta_values) * len(self.r_values) + 1)
        else:
            last = math.ceil(self.schedule.last_count)
            noise = p * (max(1, last // p) if self.schedule.unit == UNIT_TOTAL else last)
            floats = self.replications * (self.schedule.rounds + 1)
            if self.kind == KIND_ITERATE_LINREG:
                floats *= 2 * len(self.arms)
        _check(self.n0 * p <= MAX_ROUND_NOISE,
               f"problem.n0 = {self.n0} gives one replication {self.n0 * p} real-data values, "
               f"above the limit of 2^24")
        _check(noise <= MAX_ROUND_NOISE,
               f"one replication would draw {noise} noise values in one round, "
               f"above the limit of 2^24")
        _check(floats <= MAX_RESULT_FLOATS,
               f"{self.replications} replications would hold {floats} result floats, "
               f"above the limit of 2^28")

    def to_mapping(self) -> dict[str, Any]:
        """Plain nested mapping mirroring the file schema, fully resolved."""
        out: dict[str, Any] = {}
        for field, path, *_ in LAYOUT:
            value = getattr(self, field)
            if value is not None:
                section, _, key = path.rpartition(".")
                node = out.setdefault(section, {}) if section else out
                node[key] = (asdict(value) if isinstance(value, Schedule)
                             else list(value) if isinstance(value, tuple) else value)
        return out

    def with_overrides(
        self, master_seed: int | None = None, replications: int | None = None
    ) -> "ExperimentConfig":
        """Copy with command-line seed/replication overrides applied."""
        given = {"master_seed": master_seed, "replications": replications}
        return replace(self, **{key: value for key, value in given.items() if value is not None})


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _finite(values: tuple[float, ...]) -> bool:
    return all(math.isfinite(v) for v in values)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _section(raw: Any, path: str, allowed: set[str], required: Iterable[str] = ()):
    _check(isinstance(raw, Mapping), f"{path} must be a mapping of keys to values")
    prefix = f"{path}." if path else ""
    for key in raw:
        _check(key in allowed, f"unknown config key {prefix + str(key)!r}")
    for key in sorted(required):
        _check(key in raw, f"missing required config key {prefix + key!r}")


# Readers take a raw value, its dotted path and the fields read before it.


def _kind(value: Any, path: str, values: Mapping[str, Any]) -> str:
    _check(value in EXPERIMENT_KINDS, f"{path} must be one of {EXPERIMENT_KINDS}, got {value!r}")
    return value


def _number(value: Any, path: str, values: Mapping[str, Any]) -> float:
    _check(_is_number(value), f"{path} must be a number, got {value!r}")
    return float(value)


def _integer(value: Any, path: str, values: Mapping[str, Any]) -> int:
    _check(isinstance(value, int) and not isinstance(value, bool),
           f"{path} must be an integer, got {value!r}")
    return value


def _flag(value: Any, path: str, values: Mapping[str, Any]) -> bool:
    _check(isinstance(value, bool), f"{path} must be true/false, got {value!r}")
    return value


def _vector(value: Any, path: str, values: Mapping[str, Any],
            dimension: int | None = None) -> tuple[float, ...]:
    if _is_number(value):
        _check(dimension is not None, f"{path} must be a list of numbers")
        _check(dimension <= MAX_ROUND_NOISE,
               f"problem.dimension must be at most 2^24, got {dimension}")
        return (float(value),) * dimension
    _check(isinstance(value, (list, tuple)) and len(value) > 0,
           f"{path} must be a nonempty list of numbers")
    for i, item in enumerate(value):
        _check(_is_number(item), f"{path}[{i}] must be a number, got {item!r}")
    return tuple(float(item) for item in value)


def _per_direction(value: Any, path: str, values: Mapping[str, Any]) -> tuple[float, ...]:
    """A vector along the problem's directions; a single number is broadcast."""
    return _vector(value, path, values, values["dimension"])


def _schedule(value: Any, path: str, values: Mapping[str, Any]) -> Schedule:
    _section(value, path, {"kind", "start", "end_or_ratio", "rounds", "unit"},
             {"kind", "start", "rounds"})
    kind = value["kind"]
    _check(kind in SCHEDULE_KINDS, f"{path}.kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    start = _integer(value["start"], f"{path}.start", values)
    rounds = _integer(value["rounds"], f"{path}.rounds", values)
    if "end_or_ratio" in value:
        end_or_ratio = _number(value["end_or_ratio"], f"{path}.end_or_ratio", values)
        _check(kind != KIND_FIXED or end_or_ratio == start,
               f"{path}.end_or_ratio of a fixed schedule must equal start")
    else:
        _check(kind == KIND_FIXED, f"{path}.end_or_ratio is required for {kind} schedules")
        end_or_ratio = float(start)
    unit = value.get("unit", UNIT_TOTAL)
    _check(unit in SCHEDULE_UNITS, f"{path}.unit must be one of {SCHEDULE_UNITS}, got {unit!r}")
    try:
        return Schedule(kind, start, end_or_ratio, rounds, unit)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _arms(value: Any, path: str, values: Mapping[str, Any]) -> tuple[str, ...]:
    _check(isinstance(value, (list, tuple)), f"{path} must be a list of filter modes")
    return tuple(value)


def _default_slack(values: Mapping[str, Any]) -> float:
    return default_slack(values["sigma"])


#: the default of a key that every config of the row's kinds must give
_REQUIRED = object()
_ALL = EXPERIMENT_KINDS
_LINEAR = (KIND_LANDSCAPE, KIND_ITERATE_LINREG)
_ITERATE = (KIND_ITERATE_LINREG, KIND_ITERATE_1D)
_LINREG = (KIND_ITERATE_LINREG,)
_ONE_D = (KIND_ITERATE_1D,)
_GRID = (KIND_LANDSCAPE,)

#: the file layout in file order, one row per ExperimentConfig field:
#: (field, dotted path, kinds it applies to, reader, default). A default of
#: None leaves the field unset; a callable default is computed from the
#: fields read before it.
LAYOUT = (
    ("kind", "experiment", _ALL, _kind, _REQUIRED),
    ("replications", "replications", _ALL, _integer, _REQUIRED),
    ("master_seed", "master_seed", _ALL, _integer, _REQUIRED),
    ("sigma", "problem.sigma", _ALL, _number, _REQUIRED),
    ("n0", "problem.n0", _ALL, _integer, _REQUIRED),
    ("true_mean", "problem.true_mean", _ONE_D, _number, _REQUIRED),
    ("dimension", "problem.dimension", _LINEAR, _integer, _REQUIRED),
    ("true_theta", "problem.true_theta", _LINEAR, _per_direction, _REQUIRED),
    ("interval_lower", "interval.lower", _ONE_D, _number, _REQUIRED),
    ("interval_upper", "interval.upper", _ONE_D, _number, _REQUIRED),
    ("ball_radius", "ball.radius", _LINREG, _number, _REQUIRED),
    ("ball_delta", "ball.delta", _LINREG, _number, None),
    ("ball_center", "ball.center", _LINREG, _per_direction, None),
    ("slack", "ball.slack", _LINREG, _number, _default_slack),
    ("schedule", "schedule", _ITERATE, _schedule, _REQUIRED),
    ("arms", "arms", _ITERATE, _arms, (FILTER_DIRECT,)),
    ("delta_values", "landscape.delta_values", _GRID, _vector, _REQUIRED),
    ("r_values", "landscape.r_values", _GRID, _vector, _REQUIRED),
    ("sigma_c", "landscape.sigma_c", _GRID, _number, _default_slack),
    ("n1", "landscape.n1", _GRID, _integer, _REQUIRED),
    ("log_ratio_of_means", "landscape.log_ratio_of_means", _GRID, _flag, False),
)


def config_from_mapping(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a plain nested mapping."""
    _section(raw, "", {path.partition(".")[0] for _, path, *_ in LAYOUT},
             {path.partition(".")[0] for _, path, kinds, *_ in LAYOUT if kinds == _ALL})
    kind = _kind(raw["experiment"], "experiment", {})
    rows = [row for row in LAYOUT if kind in row[2]]
    for key in raw:
        _check(any(path.partition(".")[0] == key for _, path, *_ in rows),
               f"config section {key!r} does not apply to {kind} experiments")
    values: dict[str, Any] = {}
    for field, path, _, reader, default in rows:
        section, _, key = path.rpartition(".")
        node = raw
        if section:
            _check(section in raw, f"missing required config section {section!r}")
            node = raw[section]
            _section(node, section,
                     {p.rpartition(".")[2] for _, p, *_ in rows if p.startswith(section + ".")})
        if key in node:
            values[field] = reader(node[key], path, values)
        else:
            # the top-level keys every kind needs are checked above, so a
            # required top-level key missing here is a kind's own section
            _check(default is not _REQUIRED,
                   f"missing required config {'key' if section else 'section'} {path!r}")
            values[field] = default(values) if callable(default) else default
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

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

Each ``ExperimentConfig`` field declares its own row of this layout, in file
order: the field's dotted path, the kinds it applies to, its reader, its
default and the bounds of its numbers or the options of its names. ``LAYOUT``
collects the rows from the fields; the parser, the per-key checks of
``ExperimentConfig`` and ``to_mapping`` each loop over it. Rules that relate keys are checked in
``ExperimentConfig`` after every key's own.

Unknown keys anywhere are hard errors naming the full dotted path, and so
are keys given twice in one mapping of a file. The only
defaulted fields are ``arms`` ([direct]), the verifier slack (``ball.slack`` /
``landscape.sigma_c``, defaulting to sqrt(2/pi)*sigma), ``schedule.unit``
(total), a fixed schedule's ``schedule.end_or_ratio`` (its start), and
``landscape.log_ratio_of_means`` (false); loading resolves them,
so a written config always spells every value out.
"""
from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping

import yaml

from .errors import ConfigError
from .schedules import (KIND_FIXED, KIND_GEOMETRIC, KIND_LINEAR, MAX_COUNT, SCHEDULE_KINDS,
                        SCHEDULE_UNITS, UNIT_TOTAL, Schedule)

KIND_LANDSCAPE = "landscape"
KIND_ITERATE_LINREG = "iterate_linreg"
KIND_ITERATE_1D = "iterate_1d"
EXPERIMENT_KINDS = (KIND_LANDSCAPE, KIND_ITERATE_LINREG, KIND_ITERATE_1D)

#: most values one replication may draw or hold in one round, the real data included
MAX_ROUND_NOISE = 2 ** 24
#: most floats the per-replication results of one run may hold
MAX_RESULT_FLOATS = 2 ** 28
#: most (delta, r) cells a landscape may hold: its theory keeps about 1 KB per cell
MAX_GRID_CELLS = 2 ** 20

# The names below are the numerical modules' own, kept here so that the CLI's
# help and reading and checking a config import neither numpy nor scipy.

#: fewest noise values a block of replications draws in one round to get a
#: worker of its own: each row's fill releases the GIL, and below this two
#: workers lose more passing it back and forth than they save
MIN_BLOCK_NOISE = 2 ** 16

#: how the verifier filters a round's candidates: draw from the truncation
#: itself, generate and reject, or not at all
FILTER_DIRECT = "direct"
FILTER_REJECT = "reject"
FILTER_NONE = "none"
FILTER_MODES = (FILTER_DIRECT, FILTER_REJECT, FILTER_NONE)

#: inclusive upper bound on each stream index (and on the master seed)
MAX_INDEX = 2 ** 63 - 1

#: largest magnitude a config may give a number. A replication holds at most
#: 2^24 real values and a run at most 2^28 replications, and a standard normal
#: stays below 14 in magnitude, so the real responses, their least-squares
#: sums, the mean of n0 draws and an interval's length and midpoint stay finite
MAX_SCALE = 1e299

#: narrowest standardized acceptance width a config may ask for. The moments
#: stay accurate below it (see truncnorm.NARROW_WIDTH); a band at the floor
#: accepts at most about 4e-4 of the candidates, some 2,500 per kept REJECT sample
MIN_STD_WIDTH = 1e-3


def default_slack(sigma: float) -> float:
    """Default verifier slack: the mean absolute Gaussian residual sqrt(2/pi)*sigma."""
    return math.sqrt(2.0 / math.pi) * sigma


# Readers take a raw value, its dotted path and the fields read before it.


def _kind(value: Any, path: str, values: Mapping[str, Any]) -> str:
    _check(value in EXPERIMENT_KINDS, f"{path} must be one of {EXPERIMENT_KINDS}, got {value!r}")
    return value


def _number(value: Any, path: str, values: Mapping[str, Any]) -> float:
    _check_number(value, path)
    return float(value)


def _integer(value: Any, path: str, values: Mapping[str, Any]) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    message = f"{path} must be an integer, got {value!r}"
    number = value
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            pass
    # a whole number written as a float (100.0) or as YAML 1.1's string (1e3)
    if isinstance(number, float) and number.is_integer() and abs(number) <= 2 ** 53:
        spelling = str(int(number))
        message += (_yaml_string_hint(value, spelling) if isinstance(value, str)
                    else f" (write {spelling})")
    raise ConfigError(message)


def _name(value: Any, path: str, values: Mapping[str, Any]) -> str:
    _check(isinstance(value, str), f"{path} must be a name, got {value!r}")
    return value


def _flag(value: Any, path: str, values: Mapping[str, Any]) -> bool:
    _check(isinstance(value, bool), f"{path} must be true/false, got {value!r}")
    return value


def _vector(value: Any, path: str, values: Mapping[str, Any],
            dimension: int | None = None) -> tuple[float, ...]:
    if _is_number(value):
        _check(dimension is not None, f"{path} must be a list of numbers")
        # n0 >= dimension and n0 * dimension <= 2^24 cap the dimension at 4096:
        # a broadcast past it is refused before it is built
        _check(dimension <= math.isqrt(MAX_ROUND_NOISE), f"problem.dimension must be at most "
               f"4096, got {dimension} (problem.n0 must be >= problem.dimension, and "
               f"problem.n0 x problem.dimension at most 2^24)")
        return (float(value),) * dimension
    _check(isinstance(value, (list, tuple)) and len(value) > 0,
           f"{path} must be a nonempty list of numbers")
    for i, item in enumerate(value):
        _check_number(item, f"{path}[{i}]")
    return tuple(float(item) for item in value)


def _per_direction(value: Any, path: str, values: Mapping[str, Any]) -> tuple[float, ...]:
    """A vector along the problem's directions; a single number is broadcast."""
    return _vector(value, path, values, values["dimension"])


def _arms(value: Any, path: str, values: Mapping[str, Any]) -> tuple[str, ...]:
    _check(isinstance(value, (list, tuple)), f"{path} must be a list of filter modes")
    return tuple(_name(arm, f"{path}[{i}]", values) for i, arm in enumerate(value))


def _default_slack(values: Mapping[str, Any]) -> float:
    return default_slack(values["sigma"])


def _default_end(values: Mapping[str, Any]) -> float | None:
    """A fixed schedule ends at its start; any other kind must give its end or ratio."""
    return float(values["schedule_start"]) if values["schedule_kind"] == KIND_FIXED else None


#: the default of a key that every config of the row's kinds must give
_REQUIRED = object()
_ALL = EXPERIMENT_KINDS
_LINEAR = (KIND_LANDSCAPE, KIND_ITERATE_LINREG)
_ITERATE = (KIND_ITERATE_LINREG, KIND_ITERATE_1D)
_LINREG = (KIND_ITERATE_LINREG,)
_ONE_D = (KIND_ITERATE_1D,)
_GRID = (KIND_LANDSCAPE,)


#: the conditions a bound may set: a closed or open lower end, an open upper end
_COMPARE = {">=": operator.ge, ">": operator.gt, "<": operator.lt}


def _key(path: str, kinds: tuple[str, ...], reader: Callable,
         bounds: tuple[str, ...] | None = None, default: Any = _REQUIRED):
    """A field holding its row of LAYOUT: (dotted path, kinds it applies to,
    reader, default, bounds). Unless ``bounds`` is None, a tuple value must be
    nonempty, each number finite and meet each of ``bounds``, such as ">= 0",
    and each name be one of ``bounds``, its options. A default of None leaves
    the field unset; a callable default is computed from the fields read before
    it. A key every kind must give is a required argument, any other field
    defaults to None."""
    unset = {} if kinds == _ALL and default is _REQUIRED else {"default": None}
    layout = (path, kinds, reader, default, bounds)
    return dataclasses.field(**unset, metadata={"layout": layout})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment, one field per config key.

    Fields not applicable to ``kind`` are None. Vector-valued fields are
    tuples so configs compare and hash by value.
    """

    kind: str = _key("experiment", _ALL, _kind)
    replications: int = _key("replications", _ALL, _integer, (">= 1",))
    master_seed: int = _key("master_seed", _ALL, _integer)
    sigma: float = _key("problem.sigma", _ALL, _number, ("> 0",))
    n0: int = _key("problem.n0", _ALL, _integer, (">= 1",))
    true_mean: float | None = _key("problem.true_mean", _ONE_D, _number, ())
    dimension: int | None = _key("problem.dimension", _LINEAR, _integer, (">= 1",))
    true_theta: tuple[float, ...] | None = _key("problem.true_theta", _LINEAR, _per_direction, ())
    interval_lower: float | None = _key("interval.lower", _ONE_D, _number)
    interval_upper: float | None = _key("interval.upper", _ONE_D, _number)
    ball_radius: float | None = _key("ball.radius", _LINREG, _number, (">= 0",))
    ball_delta: float | None = _key("ball.delta", _LINREG, _number, (">= 0",), None)
    ball_center: tuple[float, ...] | None = _key("ball.center", _LINREG, _per_direction, (), None)
    slack: float | None = _key("ball.slack", _LINREG, _number, (">= 0",), _default_slack)
    schedule_kind: str | None = _key("schedule.kind", _ITERATE, _name, SCHEDULE_KINDS)
    schedule_start: int | None = _key("schedule.start", _ITERATE, _integer, (">= 1",))
    schedule_end_or_ratio: float | None = _key("schedule.end_or_ratio", _ITERATE, _number, (),
                                               _default_end)
    # the k-round bounds cost O(rounds^2): 65,536 rounds take 3-4 s before a run or theory
    schedule_rounds: int | None = _key("schedule.rounds", _ITERATE, _integer, (">= 1", "< 65537"))
    schedule_unit: str | None = _key("schedule.unit", _ITERATE, _name, SCHEDULE_UNITS,
                                     UNIT_TOTAL)
    arms: tuple[str, ...] | None = _key("arms", _ITERATE, _arms, FILTER_MODES, (FILTER_DIRECT,))
    delta_values: tuple[float, ...] | None = _key("landscape.delta_values", _GRID, _vector,
                                                  (">= 0",))
    r_values: tuple[float, ...] | None = _key("landscape.r_values", _GRID, _vector, ("> 0",))
    sigma_c: float | None = _key("landscape.sigma_c", _GRID, _number, (">= 0",), _default_slack)
    n1: int | None = _key("landscape.n1", _GRID, _integer, (">= 1",))
    log_ratio_of_means: bool | None = _key("landscape.log_ratio_of_means", _GRID, _flag,
                                           default=False)

    def __post_init__(self):
        _kind(self.kind, "experiment", {})
        for field, path, kinds, _, default, bounds in LAYOUT:
            value = getattr(self, field)
            if self.kind not in kinds:
                _check(value is None, f"{path} does not apply to {self.kind} experiments")
            elif default is not None:
                _check(value is not None, f"missing required config key {path!r}")
            items = value if isinstance(value, tuple) else (value,)
            _check(bool(items) or bounds is None, f"{path} must be nonempty")
            # each distinct item once: a number broadcast along 4096 directions is one
            for item in dict.fromkeys(items):
                if isinstance(item, str):
                    _check(bounds is None or item in bounds,
                           f"{path} must be one of {bounds}, got {item!r}")
                elif _is_number(item):
                    _check(not MAX_SCALE < abs(item) < math.inf,
                           f"{path} must be at most {MAX_SCALE:g} in magnitude, got {item!r}")
                    if bounds is not None:
                        _check_bounds(item, path, bounds)
        _check(0 <= self.master_seed <= MAX_INDEX,
               f"master_seed must lie in [0, {MAX_INDEX}], got {self.master_seed}")
        if self.kind == KIND_ITERATE_1D:
            _check(self.interval_lower < self.interval_upper,
                   "interval.lower must be < interval.upper")
            # the band's finite ends are parameters: the reach needs no half-width
            _check_reach(max(abs(v) for v in (self.true_mean, self.interval_lower,
                                               self.interval_upper) if math.isfinite(v)),
                         self.sigma, "the largest of |problem.true_mean| and the finite "
                                     "interval ends")
            _check_width((self.interval_upper - self.true_mean) / self.sigma
                         - (self.interval_lower - self.true_mean) / self.sigma,
                         "(interval.upper - problem.true_mean) / problem.sigma"
                         " - (interval.lower - problem.true_mean) / problem.sigma")
        else:
            _check(len(self.true_theta) == self.dimension,
                   "problem.true_theta must have length problem.dimension")
            _check(self.n0 >= self.dimension, "problem.n0 must be >= problem.dimension")
        if self.kind == KIND_ITERATE_LINREG:
            _check((self.ball_delta is None) != (self.ball_center is None),
                   "ball needs exactly one of 'delta' / 'center'")
            _check(self.ball_center is None or len(self.ball_center) == self.dimension,
                   "ball.center must have length problem.dimension")
            _check(self.ball_radius + self.slack > 0.0, "ball.radius + ball.slack must be > 0")
            _check_width(2.0 * (self.ball_radius + self.slack) / self.sigma,
                         "2 (ball.radius + ball.slack) / problem.sigma")
            # the band sits at the parameters' scale, where doubles are this far apart
            scale = max(map(abs, (*self.true_theta, *(self.ball_center or ()))))
            scale += self.ball_delta or 0.0
            _check(self.ball_radius + self.slack > math.ulp(scale),
                   f"ball.radius + ball.slack is {self.ball_radius + self.slack:.3g}, not above "
                   f"the spacing of doubles {math.ulp(scale):.3g} at the scale {scale:.3g} of "
                   f"problem.true_theta and ball.delta / ball.center: the band collapses")
            _check_reach(scale + self.ball_radius + self.slack, self.sigma,
                         "the scale of problem.true_theta and ball.delta / ball.center"
                         " + ball.radius + ball.slack")
        if self.kind == KIND_LANDSCAPE:
            _check_reach(max(map(abs, self.true_theta)) + max(self.delta_values)
                         + max(self.r_values) + self.sigma_c, self.sigma,
                         "max |problem.true_theta| + max landscape.delta_values"
                         " + max landscape.r_values + landscape.sigma_c")
            _check_width(2.0 * (min(self.r_values) + self.sigma_c) / self.sigma,
                         "2 (min landscape.r_values + landscape.sigma_c) / problem.sigma")
        else:
            kind, start, end = self.schedule_kind, self.schedule_start, self.schedule_end_or_ratio
            _check(kind != KIND_FIXED or end == start,
                   "schedule.end_or_ratio of a fixed schedule must equal schedule.start")
            _check(kind != KIND_LINEAR or end >= start, "schedule.end_or_ratio of a linear "
                   f"schedule must be >= schedule.start, got {end!r}")
            _check(kind != KIND_GEOMETRIC or end >= 1.0,
                   f"schedule.end_or_ratio of a geometric schedule must be >= 1, got {end!r}")
            last = self.schedule.count(self.schedule_rounds - 1)
            _check(last < MAX_COUNT, f"schedule.start, schedule.end_or_ratio and schedule.rounds "
                   f"give a last count of {last:g}, not below 2^63")
            _check(len(set(self.arms)) == len(self.arms), "arms must not repeat a filter mode")
            _check(self.kind == KIND_ITERATE_LINREG
                   or (len(self.arms) == 1 and self.arms[0] != FILTER_NONE),
                   "arms: 1-D experiments run a single verified arm (direct or reject)")
        self._check_work()

    @property
    def schedule(self) -> Schedule | None:
        """The schedule of an iterate config; None for a landscape."""
        return None if self.schedule_kind is None else Schedule(
            self.schedule_kind, self.schedule_start, self.schedule_end_or_ratio,
            self.schedule_rounds, self.schedule_unit)

    def _check_work(self) -> None:
        """Bound the values one replication draws or holds in one round and a run's results."""
        p = 1 if self.kind == KIND_ITERATE_1D else self.dimension
        if self.kind == KIND_LANDSCAPE:
            cells = len(self.delta_values) * len(self.r_values)
            _check(cells <= MAX_GRID_CELLS, f"landscape.delta_values ({len(self.delta_values)}) x "
                   f"landscape.r_values ({len(self.r_values)}) give {cells} cells, above the "
                   f"limit of 2^20")
            noise = p * self.n1
            floats = self.replications * (cells + 1)
        else:
            noise = p * self.schedule.per_direction(self.schedule_rounds - 1, p)
            floats = self.replications * (self.schedule_rounds + 1)
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
                node[key] = list(value) if isinstance(value, tuple) else value
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


def _check_width(width: float, formula: str) -> None:
    _check(width >= MIN_STD_WIDTH, f"the standardized acceptance width {formula} is "
           f"{width:.3g}, below the floor of {MIN_STD_WIDTH}")


def _check_reach(reach: float, sigma: float, formula: str) -> None:
    """Refuse a sigma so small that the standardized bounds overflow: ``reach``
    is the parameters' scale plus the band's half-width."""
    _check(math.isfinite(reach / sigma),
           f"({formula}) / problem.sigma is {reach:.3g} / {sigma:.3g}, past the largest "
           f"double: problem.sigma is too small for the standardized bounds")


def _check_bounds(number: float, path: str, bounds: tuple[str, ...]) -> None:
    held = [_COMPARE[op](number, float(limit)) for op, limit in map(str.split, bounds)]
    # an int is finite; an upper end is named only where it is crossed
    rule = ["finite"] * isinstance(number, float) + [
        bound for bound, ok in zip(bounds, held) if not (ok and bound.startswith("<"))]
    _check(-math.inf < number < math.inf and all(held),
           f"{path} must be {' and '.join(rule)}, got {number!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _yaml_string_hint(value: str, spelling: str) -> str:
    """Why YAML 1.1 read a number written as ``value`` as a string, and ``spelling``."""
    reason = ("YAML 1.1 reads an exponent only after a dot and with a sign"
              if "e" in value.lower() else "YAML 1.1 reads it as a string")
    return f" ({reason}: write {spelling})"


def _check_number(value: Any, path: str) -> None:
    if _is_number(value):
        return
    message = f"{path} must be a number, got {value!r}"
    if isinstance(value, str):
        try:
            spelling = yaml.safe_dump(float(value)).splitlines()[0]
        except ValueError:
            pass
        else:
            message += _yaml_string_hint(value, spelling)
    raise ConfigError(message)


def _section(raw: Any, path: str, allowed: set[str], required: Iterable[str] = ()):
    _check(isinstance(raw, Mapping), f"{path or 'the config'} must be a mapping of keys to values")
    prefix = f"{path}." if path else ""
    for key in raw:
        _check(key in allowed, f"unknown config key {prefix + str(key)!r}")
    for key in sorted(required):
        _check(key in raw, f"missing required config key {prefix + key!r}")


#: the file layout in file order: (field, dotted path, kinds, reader, default, bounds)
LAYOUT = tuple((field.name, *field.metadata["layout"])
               for field in dataclasses.fields(ExperimentConfig))


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
    for field, path, _, reader, default, _ in rows:
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
    return ExperimentConfig(**values)


def _refuse_repeated_keys(node: yaml.Node, path: str, seen: set[int]) -> None:
    """Raise ConfigError on a mapping key given twice anywhere under ``node``."""
    if id(node) in seen:  # an alias of a node already checked
        return
    seen.add(id(node))
    if isinstance(node, yaml.MappingNode):
        keys = set()
        for key_node, value_node in node.value:
            key = path
            if isinstance(key_node, yaml.ScalarNode):
                key = f"{path}.{key_node.value}" if path else key_node.value
                _check(key not in keys, f"config key {key!r} is given twice, the second "
                       f"time on line {key_node.start_mark.line + 1}")
                keys.add(key)
            _refuse_repeated_keys(value_node, key, seen)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _refuse_repeated_keys(item, f"{path}[{i}]", seen)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, refusing a repeated mapping key where PyYAML keeps the last."""

    def construct_document(self, node):
        _refuse_repeated_keys(node, "", set())
        return super().construct_document(node)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.load(handle, Loader=_Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config {path!r} must be a mapping of keys to values")
    return config_from_mapping(raw)


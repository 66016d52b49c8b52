"""Per-round verified-sample schedules.

A schedule is a rule producing a non-decreasing integer sequence n_1..n_K with
every entry >= 1: constant, linearly interpolated between two endpoints, or
geometric. Counts may be expressed as totals per round (split evenly across the
p covariate directions, minimum 1 each) or directly per direction. The counts
are plain Python: one rule, the same on every CPU, for the runs and the config's
work limits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

KIND_FIXED = "fixed"
KIND_LINEAR = "linear"
KIND_GEOMETRIC = "geometric"
SCHEDULE_KINDS = (KIND_FIXED, KIND_LINEAR, KIND_GEOMETRIC)

UNIT_TOTAL = "total"
UNIT_PER_DIRECTION = "per_direction"
SCHEDULE_UNITS = (UNIT_TOTAL, UNIT_PER_DIRECTION)

#: every count must lie below this bound, the int64 limit of the array sizes it sets
MAX_COUNT = 2 ** 63


@dataclass(frozen=True)
class Schedule:
    """Rule for the verified-sample counts of each retraining round.

    ``kind`` is one of ``fixed`` (constant ``start``), ``linear`` (``start`` to
    ``end_or_ratio`` inclusive, rounded to nearest), or ``geometric`` (``start``
    times ``end_or_ratio``**k, rounded up). ``unit`` says whether counts are
    totals per round or already per direction. ``config.ExperimentConfig``
    checks the fields and builds the schedule of an iterate config.
    """

    kind: str
    start: int
    end_or_ratio: float
    rounds: int
    unit: str = UNIT_TOTAL

    def count(self, k: int) -> int | float:
        """Round k's count (k = 0..rounds - 1), in this schedule's own unit;
        inf where a geometric count overflows a double."""
        if self.kind == KIND_FIXED or self.rounds == 1:
            return self.start
        if self.kind == KIND_LINEAR:
            # numpy.linspace's arithmetic, its last point exactly the end
            if k == self.rounds - 1:
                return round(self.end_or_ratio)
            return round(self.start + k * ((self.end_or_ratio - self.start) / (self.rounds - 1)))
        try:  # libm's pow: numpy's differs in the last bit on some CPUs
            return math.ceil(self.start * math.pow(self.end_or_ratio, k))
        except OverflowError:
            return math.inf

    def per_direction(self, k: int, dimension: int) -> int | float:
        """Round k's count per direction of a ``dimension``-ball problem: a
        total is split evenly, max(1, total // dimension) per direction."""
        count = self.count(k)
        return count if self.unit == UNIT_PER_DIRECTION else max(1, count // dimension)

    def counts(self) -> tuple[int, ...]:
        """The length-``rounds`` sequence, in this schedule's own unit."""
        return tuple(self.count(k) for k in range(self.rounds))

    def per_direction_counts(self, dimension: int) -> tuple[int, ...]:
        """The sequence as per-direction counts for a ``dimension``-ball problem."""
        return tuple(self.per_direction(k, dimension) for k in range(self.rounds))

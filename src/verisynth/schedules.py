"""Per-round verified-sample schedules.

A schedule is a rule producing a non-decreasing integer sequence n_1..n_K with
every entry >= 1: constant, linearly interpolated between two endpoints, or
geometric. Counts may be expressed as totals per round (split evenly across the
p covariate directions, minimum 1 each) or directly per direction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundsError

KIND_FIXED = "fixed"
KIND_LINEAR = "linear"
KIND_GEOMETRIC = "geometric"
SCHEDULE_KINDS = (KIND_FIXED, KIND_LINEAR, KIND_GEOMETRIC)

UNIT_TOTAL = "total"
UNIT_PER_DIRECTION = "per_direction"
SCHEDULE_UNITS = (UNIT_TOTAL, UNIT_PER_DIRECTION)

#: every count must lie below this bound, the int64 limit of the count arrays
MAX_COUNT = 2 ** 63


@dataclass(frozen=True)
class Schedule:
    """Rule for the verified-sample counts of each retraining round.

    ``kind`` is one of ``fixed`` (constant ``start``), ``linear`` (``start`` to
    ``end_or_ratio`` inclusive, rounded to nearest), or ``geometric`` (``start``
    times ``end_or_ratio``**k, rounded up). ``unit`` says whether counts are
    totals per round or already per direction.
    """

    kind: str
    start: int
    end_or_ratio: float
    rounds: int
    unit: str = UNIT_TOTAL

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InvalidBoundsError(f"unknown schedule kind {self.kind!r}")
        if self.unit not in SCHEDULE_UNITS:
            raise InvalidBoundsError(f"unknown schedule unit {self.unit!r}")
        if self.rounds < 1:
            raise InvalidBoundsError(f"rounds must be >= 1, got {self.rounds}")
        if self.start < 1:
            raise InvalidBoundsError(f"start must be >= 1, got {self.start}")
        if self.kind == KIND_LINEAR and self.end_or_ratio < self.start:
            raise InvalidBoundsError(
                f"linear schedule must be non-decreasing: end {self.end_or_ratio} < start {self.start}"
            )
        if self.kind == KIND_GEOMETRIC and self.end_or_ratio < 1.0:
            raise InvalidBoundsError(
                f"geometric ratio must be >= 1, got {self.end_or_ratio}"
            )
        last = self.last_count
        if not last < MAX_COUNT:
            raise InvalidBoundsError(
                f"the last count of a {self.kind} schedule must be finite and below 2^63, "
                f"got {last}"
            )

    @property
    def last_count(self) -> float:
        """The last round's count before rounding, in this schedule's own unit.

        Counts never fall, so no round asks for more, up to that rounding.
        """
        if self.kind == KIND_GEOMETRIC:
            with np.errstate(over="ignore"):
                return self.start * np.power(float(self.end_or_ratio), self.rounds - 1)
        return self.start if self.kind == KIND_FIXED else self.end_or_ratio

    def counts(self) -> np.ndarray:
        """The raw length-``rounds`` sequence, in this schedule's own unit."""
        k = self.rounds
        if self.kind == KIND_FIXED:
            seq = np.full(k, self.start, dtype=int)
        elif self.kind == KIND_LINEAR:
            if k == 1:
                seq = np.array([self.start], dtype=int)
            else:
                seq = np.rint(np.linspace(self.start, self.end_or_ratio, k)).astype(int)
        else:
            seq = np.ceil(self.start * self.end_or_ratio ** np.arange(k)).astype(int)
        seq = np.maximum.accumulate(np.maximum(seq, 1))
        return seq

    def per_direction_counts(self, dimension: int) -> np.ndarray:
        """The sequence as per-direction counts for a ``dimension``-ball problem.

        Totals are split evenly: max(1, total // dimension) per direction.
        """
        if dimension < 1:
            raise InvalidBoundsError(f"dimension must be >= 1, got {dimension}")
        seq = self.counts()
        if self.unit == UNIT_PER_DIRECTION:
            return seq
        return np.maximum(seq // dimension, 1)

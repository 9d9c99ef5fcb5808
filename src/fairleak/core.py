"""Domain types, statistical fairness metrics, metric slicing and scoring.

Each metric's slice rule is written once, in ``slice_for_metric``, and a
metric's unfairness is the largest group rate gap over its nonempty slices.
Rates are compared as exact integer ratios (``fractions.Fraction``) so that
feasibility questions never depend on floating-point summation order.
Every array that a public record or function takes passes ``column``, the
one check of its shape, numbers and range.  A correction's result
types, ``CorrectionResult`` with its ``MoveCounts`` and ``SolverStats``, are
shared by the lattice solver and the brute-force oracle.

Empty groups follow one rule, in three parts:

- the guess corrector and the oracle require every group in every slice
  they constrain, so a slice of fewer than two entries is infeasible;
- ``_group_rate_gap``, and so every unfairness measured here, skips the
  groups absent from a slice;
- the prediction repair holds the groups fixed, and a slice of one group has
  gap zero, within any upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BadParameters, EmptySlice, EmptyVector, FairleakError, LengthMismatch
from .errors import NegativeConfidence, SchemaError


class FairnessMetric(str, Enum):
    """Closed enumeration of the supported statistical fairness metrics."""

    SP = "sp"
    PE = "pe"
    EO = "eo"
    EODDS = "eodds"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def column(
    values,
    name: str,
    dtype: type = np.int64,
    high: float | None = None,
    *,
    finite: bool = True,
    error: type[FairleakError] = SchemaError,
) -> np.ndarray:
    """The one check of every array a public record or function takes:
    ``values`` as a one-dimensional array of ``dtype``, int64 or float64,
    copied only to convert it.

    The values must be numbers; finite, unless ``finite`` is false; whole
    and within int64 where ``dtype`` is int64; and in [0, ``high``) where
    ``high`` is given.  A bad shape or conversion is a ``SchemaError``, a bad
    value an ``error``.  Integer input costs no pass beyond the range
    check's min and max, and only float input is checked for whole numbers.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "biuf":  # text, complex, or integers past int64
            arr = np.array(arr.tolist(), dtype=np.float64)
    except (TypeError, ValueError):
        raise SchemaError(f"{name} must hold numbers") from None
    if arr.ndim != 1:
        raise SchemaError(f"{name} must be one-dimensional")
    kind, integer = arr.dtype.kind, dtype is np.int64
    wide = integer and kind in "uf"
    if arr.size and (high is not None or wide or kind == "f" and finite):
        lo, hi = arr.min(), arr.max()  # NaN if any value is
        if kind == "f" and (finite or integer) and not (np.isfinite(lo) and np.isfinite(hi)):
            raise error(f"{name} must be finite")
        if high is not None and not (lo >= 0 and hi < high):
            bound = ("be non-negative" if high == math.inf
                     else "be 0 or 1" if high == 2 else f"lie in [0, {high})")
            raise error(f"{name} must {bound}")
        if wide and not (-(2**63) <= lo and hi < 2**63):
            raise error(f"{name} must hold 64-bit integers")
    out = arr.astype(dtype, copy=False)
    if integer and kind == "f" and not np.array_equal(out, arr):
        raise error(f"{name} must hold 64-bit integers")
    return out


def read_only_copy(arr: np.ndarray) -> np.ndarray:
    """A private copy that its holder hands out without a caller's writes."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FairnessSpec:
    """A fairness metric together with its unfairness tolerance.

    ``epsilon_lower``, when set, additionally requires the measured unfairness
    to be at least that value (exact-unfairness knowledge instead of a plain
    upper bound).
    """

    metric: FairnessMetric
    epsilon: float
    epsilon_lower: float | None = None

    def __post_init__(self) -> None:
        metric = FairnessMetric(self.metric)
        object.__setattr__(self, "metric", metric)
        if not 0.0 <= self.epsilon <= 1.0:
            raise BadParameters("epsilon must lie in [0, 1]")
        if self.epsilon_lower is not None and not 0.0 <= self.epsilon_lower <= self.epsilon:
            raise BadParameters("epsilon_lower must lie in [0, epsilon]")


@dataclass(frozen=True, eq=False)
class AttackInstance:
    """One correction problem: model predictions, labels, guess, confidences.

    ``truth`` is carried for scoring only; no correction operation reads it.
    ``cardinality`` bounds the guess values, while truth may hold values the
    guess never takes, which simply never match.
    """

    predictions: Sequence[int]
    labels: Sequence[int]
    guess: Sequence[int]
    confidence: Sequence[float]
    truth: Sequence[int] | None = None
    cardinality: int = 2

    def __post_init__(self) -> None:
        if self.cardinality < 2:
            raise BadParameters("cardinality must be at least 2")
        columns = dict(
            predictions=column(self.predictions, "predictions", high=2),
            labels=column(self.labels, "labels", high=2),
            guess=column(self.guess, "guess", high=self.cardinality),
            confidence=column(
                self.confidence, "confidence", np.float64, math.inf, error=NegativeConfidence
            ),
        )
        if self.truth is not None:
            columns["truth"] = column(self.truth, "truth", high=math.inf)
        if len({arr.size for arr in columns.values()}) > 1:
            raise LengthMismatch("instance vectors must share one length")
        for attr, value in columns.items():
            object.__setattr__(self, attr, read_only_copy(value))

    @property
    def n(self) -> int:
        return self.predictions.size


@dataclass(frozen=True)
class MoveCounts:
    """The four decision variables: guess flips per (direction x prediction)."""

    s01_pos: int
    s10_pos: int
    s01_neg: int
    s10_neg: int


@dataclass(frozen=True)
class SolverStats:
    """``nodes``: lattice columns scanned, or states the brute force enumerated."""

    nodes: int


@dataclass(frozen=True, eq=False)
class CorrectionResult:
    """A corrected sensitive vector with its cost and solve diagnostics."""

    corrected: np.ndarray
    objective: float
    moves: "MoveCounts | dict[tuple[int, int], int]"
    changed_indices: np.ndarray  # ascending int64 row indices, read-only
    stats: SolverStats


def slice_for_metric(metric: FairnessMetric, y: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Index set(s) a metric constrains: all, y=0, y=1, or the ordered pair.

    Empty sets are permitted; callers treat an empty slice as a no-op.
    """
    return _slices(FairnessMetric(metric), column(y, "labels", high=2))


def _slices(metric: FairnessMetric, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    if metric is FairnessMetric.SP:
        return (np.arange(labels.size),)
    if metric is FairnessMetric.PE:
        return (np.flatnonzero(labels == 0),)
    if metric is FairnessMetric.EO:
        return (np.flatnonzero(labels == 1),)
    return (np.flatnonzero(labels == 0), np.flatnonzero(labels == 1))


def _group_rate_gap(s: np.ndarray, yhat: np.ndarray) -> Fraction:
    """Largest |overall positive rate - group positive rate| on one slice.

    Groups absent from the slice contribute no term.
    """
    overall = Fraction(int(yhat.sum()), int(s.size))
    counts = np.bincount(s)
    positives = np.bincount(s[yhat == 1], minlength=counts.size)
    return max(
        (abs(overall - Fraction(pos, count))
         for count, pos in zip(counts.tolist(), positives.tolist()) if count),
        default=Fraction(0),
    )


def unfairness_exact(
    metric: FairnessMetric,
    s: Sequence[int],
    yhat: Sequence[int],
    y: Sequence[int] | None = None,
) -> Fraction:
    """Exact rational unfairness of predictions ``yhat`` w.r.t. groups ``s``:
    the largest group rate gap over the metric's nonempty slices.  EOdds is
    the conjunction of PE and EO, so one-sided labels leave it one slice."""
    metric = FairnessMetric(metric)
    s_arr = column(s, "sensitive", high=math.inf)
    yhat_arr = column(yhat, "predictions", high=2)
    if s_arr.size != yhat_arr.size:
        raise LengthMismatch("sensitive and prediction vectors differ in length")
    if y is not None:
        y = column(y, "labels", high=2)
    elif metric is FairnessMetric.SP:
        y = yhat_arr  # SP reads no labels, only their count
    else:
        raise SchemaError(f"{metric.value} requires the label vector")
    if y.size != yhat_arr.size:
        raise LengthMismatch("label vector differs in length")
    gaps = [_group_rate_gap(s_arr[idx], yhat_arr[idx])
            for idx in _slices(metric, y) if idx.size]
    if not gaps:
        raise EmptySlice("metric slice contains zero examples")
    return max(gaps)


def unfairness(
    metric: FairnessMetric,
    s: Sequence[int],
    yhat: Sequence[int],
    y: Sequence[int] | None = None,
) -> float:
    """Float-valued unfairness in [0, 1]; see :func:`unfairness_exact`."""
    return float(unfairness_exact(metric, s, yhat, y))


def reconstruction_accuracy(guess: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of positions where two sensitive vectors agree."""
    g = column(guess, "guess")
    t = column(truth, "truth")
    if g.size != t.size:
        raise LengthMismatch("guess and truth differ in length")
    if g.size == 0:
        raise EmptyVector("reconstruction accuracy needs at least one element")
    return float(np.count_nonzero(g == t) / g.size)

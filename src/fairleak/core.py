"""Domain types, statistical fairness metrics, metric slicing and scoring.

Each metric's slice rule is written once, in ``slice_for_metric``, and a
metric's unfairness is the largest group rate gap over its nonempty slices.
Rates are compared as exact integer ratios (``fractions.Fraction``) so that
feasibility questions never depend on floating-point summation order.
Out-of-range labels or groups are a ``SchemaError``.  A correction's result
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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BadParameters, EmptySlice, EmptyVector, LengthMismatch
from .errors import NegativeConfidence, SchemaError


class FairnessMetric(str, Enum):
    """Closed enumeration of the supported statistical fairness metrics."""

    SP = "sp"
    PE = "pe"
    EO = "eo"
    EODDS = "eodds"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def as_binary_array(values: Sequence[int], name: str = "vector") -> np.ndarray:
    """Validate and convert a 0/1 sequence to a read-only int64 array."""
    arr = np.asarray(values, dtype=np.int64).copy()
    if arr.ndim != 1:
        raise SchemaError(f"{name} must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise SchemaError(f"{name} must contain only 0 and 1")
    arr.setflags(write=False)
    return arr


def as_sensitive_array(
    values: Sequence[int], cardinality: int = 2, name: str = "sensitive"
) -> np.ndarray:
    """Validate a sensitive-value sequence against its declared cardinality."""
    if cardinality < 2:
        raise BadParameters("cardinality must be at least 2")
    arr = np.asarray(values, dtype=np.int64).copy()
    if arr.ndim != 1:
        raise SchemaError(f"{name} must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() >= cardinality):
        raise SchemaError(f"{name} values must lie in [0, {cardinality})")
    arr.setflags(write=False)
    return arr


def as_confidence_array(values: Sequence[float], name: str = "confidence") -> np.ndarray:
    """Validate a non-negative, finite confidence sequence."""
    arr = np.asarray(values, dtype=np.float64).copy()
    if arr.ndim != 1:
        raise SchemaError(f"{name} must be one-dimensional")
    if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0.0):
        raise NegativeConfidence(f"{name} must be finite and non-negative")
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
        predictions = as_binary_array(self.predictions, "predictions")
        labels = as_binary_array(self.labels, "labels")
        guess = as_sensitive_array(self.guess, self.cardinality, "guess")
        confidence = as_confidence_array(self.confidence)
        truth = None
        if self.truth is not None:
            values = np.asarray(self.truth, dtype=np.int64)
            span = max(self.cardinality, int(values.max(initial=0)) + 1)
            truth = as_sensitive_array(values, span, "truth")
        lengths = {predictions.size, labels.size, guess.size, confidence.size}
        if truth is not None:
            lengths.add(truth.size)
        if len(lengths) > 1:
            raise LengthMismatch("instance vectors must share one length")
        for attr, value in (
            ("predictions", predictions),
            ("labels", labels),
            ("guess", guess),
            ("confidence", confidence),
            ("truth", truth),
        ):
            object.__setattr__(self, attr, value)

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
    changed_indices: tuple[int, ...]
    stats: SolverStats


def slice_for_metric(metric: FairnessMetric, y: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Index set(s) a metric constrains: all, y=0, y=1, or the ordered pair.

    Empty sets are permitted; callers treat an empty slice as a no-op.
    """
    labels = as_binary_array(y, "labels")
    metric = FairnessMetric(metric)
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
    s_arr = np.asarray(s, dtype=np.int64)
    if s_arr.size and s_arr.min() < 0:
        raise SchemaError("sensitive values must be non-negative")
    yhat_arr = as_binary_array(yhat, "predictions")
    if s_arr.size != yhat_arr.size:
        raise LengthMismatch("sensitive and prediction vectors differ in length")
    if metric is FairnessMetric.SP:
        y = yhat_arr  # SP reads no labels, only their count
    elif y is None:
        raise SchemaError(f"{metric.value} requires the label vector")
    if as_binary_array(y, "labels").size != yhat_arr.size:
        raise LengthMismatch("label vector differs in length")
    gaps = [_group_rate_gap(s_arr[idx], yhat_arr[idx])
            for idx in slice_for_metric(metric, y) if idx.size]
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
    g = np.asarray(guess, dtype=np.int64)
    t = np.asarray(truth, dtype=np.int64)
    if g.size != t.size:
        raise LengthMismatch("guess and truth differ in length")
    if g.size == 0:
        raise EmptyVector("reconstruction accuracy needs at least one element")
    return float(np.count_nonzero(g == t) / g.size)

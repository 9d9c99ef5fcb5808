"""Fairness-information estimation when the constraint is not disclosed.

The adversary measures the target model's unfairness on his own attack set
for each candidate metric and adopts the metric with the smallest measured
value, with that value as the tolerance.  EOdds is the max of PE and EO, so
it can never be the strict minimum when those two are candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import FairnessMetric, FairnessSpec, unfairness
from .errors import BadParameters

#: Tie-break preference: metrics covering more examples first.
_PREFERENCE = {
    FairnessMetric.PE: 0,
    FairnessMetric.EO: 1,
    FairnessMetric.SP: 2,
    FairnessMetric.EODDS: 3,
}


@dataclass(frozen=True)
class EstimatedConstraint:
    """The adopted spec plus every candidate's measured unfairness."""

    spec: FairnessSpec
    per_metric_unfairness: dict[FairnessMetric, float]


def estimate_constraint(
    attack_sensitive: Sequence[int],
    attack_predictions: Sequence[int],
    attack_labels: Sequence[int],
    candidates: Iterable[FairnessMetric] = tuple(FairnessMetric),
) -> EstimatedConstraint:
    """Measure each candidate metric on the attack set and keep the tightest.

    Ties prefer PE, then EO, then SP (the metrics covering more examples win).
    """
    metrics = sorted({FairnessMetric(m) for m in candidates}, key=_PREFERENCE.__getitem__)
    if not metrics:
        raise BadParameters("candidates must be nonempty")
    measured = {
        metric: unfairness(metric, attack_sensitive, attack_predictions, attack_labels)
        for metric in metrics
    }
    best = min(metrics, key=lambda m: (measured[m], _PREFERENCE[m]))
    return EstimatedConstraint(
        spec=FairnessSpec(metric=best, epsilon=measured[best]),
        per_metric_unfairness=measured,
    )

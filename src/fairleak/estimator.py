"""Fairness-information estimation when the constraint is not disclosed.

The adversary measures the target model's unfairness on his own attack set
for each metric and adopts the metric with the smallest measured value, with
that value as the tolerance.  EOdds is the max of PE and EO, so it is never
the strict minimum.  A metric whose slice is empty, such as PE on an attack
set whose labels are all 1, cannot be measured and is left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import FairnessMetric, FairnessSpec, unfairness
from .errors import EmptySlice

#: Tie-break preference: metrics covering more examples first.
_PREFERENCE = (FairnessMetric.PE, FairnessMetric.EO, FairnessMetric.SP, FairnessMetric.EODDS)


@dataclass(frozen=True)
class EstimatedConstraint:
    """The adopted spec plus every metric's measured unfairness."""

    spec: FairnessSpec
    per_metric_unfairness: dict[FairnessMetric, float]


def estimate_constraint(
    attack_sensitive: Sequence[int],
    attack_predictions: Sequence[int],
    attack_labels: Sequence[int],
) -> EstimatedConstraint:
    """Measure every metric that has a nonempty slice on the attack set and
    keep the tightest; an empty attack set measures none, an ``EmptySlice``.

    Ties prefer PE, then EO, then SP (the metrics covering more examples win).
    """
    measured = {}
    for metric in _PREFERENCE:
        try:
            measured[metric] = unfairness(
                metric, attack_sensitive, attack_predictions, attack_labels
            )
        except EmptySlice:
            continue
    if not measured:
        raise EmptySlice("the attack set is empty: no metric can be measured")
    # min keeps the first of tied metrics
    best = min(measured, key=measured.__getitem__)
    return EstimatedConstraint(
        spec=FairnessSpec(metric=best, epsilon=measured[best]),
        per_metric_unfairness=measured,
    )

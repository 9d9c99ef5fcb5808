"""Fairness-information estimation when the constraint is not disclosed.

The adversary measures the target model's unfairness on his own attack set
for each metric and adopts the metric with the smallest measured value, with
that value as the tolerance.  EOdds is the max of PE and EO, so it is never
the strict minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import FairnessMetric, FairnessSpec, unfairness

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
    """Measure every metric on the attack set and keep the tightest.

    Ties prefer PE, then EO, then SP (the metrics covering more examples win).
    """
    measured = {
        metric: unfairness(metric, attack_sensitive, attack_predictions, attack_labels)
        for metric in _PREFERENCE
    }
    # min keeps the first of tied metrics
    best = min(measured, key=measured.__getitem__)
    return EstimatedConstraint(
        spec=FairnessSpec(metric=best, epsilon=measured[best]),
        per_metric_unfairness=measured,
    )

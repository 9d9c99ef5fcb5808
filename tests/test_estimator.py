import numpy as np
import pytest

from fairleak.core import FairnessMetric, FairnessSpec, unfairness
from fairleak.errors import EmptySlice
from fairleak.estimator import estimate_constraint

SP, PE, EO, EODDS = (
    FairnessMetric.SP,
    FairnessMetric.PE,
    FairnessMetric.EO,
    FairnessMetric.EODDS,
)


def _vectors_with_gaps(rng, n=400):
    s = rng.integers(0, 2, n)
    y = rng.integers(0, 2, n)
    yhat = rng.integers(0, 2, n)
    return s, yhat, y


class TestEstimateConstraint:
    def test_picks_minimum_metric(self, rng):
        # search for a case with a strict PE minimum, then check the argmin
        for _ in range(200):
            s, yhat, y = _vectors_with_gaps(rng)
            values = {m: unfairness(m, s, yhat, y) for m in FairnessMetric}
            best = min(values, key=values.get)
            ties = [m for m, v in values.items() if v == values[best]]
            if len(ties) > 1:
                continue
            est = estimate_constraint(s, yhat, y)
            assert est.per_metric_unfairness == values
            assert est.spec.metric == best
            assert est.spec.epsilon == values[best]
            return
        pytest.fail("no strict-minimum case found")

    def test_epsilon_equals_measured_unfairness(self, rng):
        s, yhat, y = _vectors_with_gaps(rng)
        est = estimate_constraint(s, yhat, y)
        assert est.spec.epsilon == unfairness(est.spec.metric, s, yhat, y)
        assert est.per_metric_unfairness[est.spec.metric] == est.spec.epsilon

    def test_all_zero_tie_prefers_pe(self):
        s = [1, 0, 1, 0]
        yhat = [1, 1, 1, 1]
        y = [0, 0, 1, 1]
        est = estimate_constraint(s, yhat, y)
        assert est.per_metric_unfairness[PE] == 0.0
        assert est.spec.metric == PE
        assert est.spec.epsilon == 0.0

    def test_eodds_never_beats_its_parts(self, rng):
        for _ in range(50):
            s, yhat, y = _vectors_with_gaps(rng)
            est = estimate_constraint(s, yhat, y)
            assert est.spec.metric != EODDS
            assert est.per_metric_unfairness[EODDS] == max(
                est.per_metric_unfairness[PE], est.per_metric_unfairness[EO]
            )

    def test_propagates_empty_slice(self):
        # an empty attack set leaves every metric an empty slice
        with pytest.raises(EmptySlice, match="^the attack set is empty: no metric can be measured$"):
            estimate_constraint([], [], [])

    def test_one_sided_labels_leave_out_the_unmeasurable_metric(self):
        # every label is 1: PE has no slice, and EOdds keeps EO's alone
        est = estimate_constraint([0, 0, 1, 1], [1, 0, 1, 1], [1, 1, 1, 1])
        assert est.per_metric_unfairness == {EO: 0.25, SP: 0.25, EODDS: 0.25}
        assert est.spec == FairnessSpec(EO, 0.25)
        # every label is 0: EO has no slice, and the tie goes to PE
        est = estimate_constraint([0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 0, 0])
        assert est.per_metric_unfairness == {PE: 0.25, SP: 0.25, EODDS: 0.25}
        assert est.spec == FairnessSpec(PE, 0.25)

    def test_true_constraint_recovered_when_tightest(self):
        # globally balanced rates but opposite per-slice biases, so SP is
        # strictly the smallest measured value
        s = np.array([1, 1, 0, 0, 1, 1, 0, 0])
        yhat = np.array([1, 1, 0, 0, 0, 0, 1, 1])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        values = {m: unfairness(m, s, yhat, y) for m in (SP, PE, EO)}
        assert values[SP] < min(values[PE], values[EO])
        est = estimate_constraint(s, yhat, y)
        assert est.spec.metric == SP

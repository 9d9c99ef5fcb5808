"""Randomized invariants of the correction solvers.

The brute-force general model is the correctness oracle throughout; the
heavyweight acceptance corpus lives in test_acceptance.py.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from conftest import meets_spec, random_instance
from fairleak.core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    slice_for_metric,
    unfairness_exact,
)
from fairleak.corrector import correct
from fairleak.errors import Infeasible
from fairleak.oracle import solve_general_bruteforce

METRICS = list(FairnessMetric)


def objective_or_none(solver, inst, spec):
    try:
        return solver(inst, spec)
    except Infeasible:
        return None


def exact_cost(result, confidence) -> Fraction:
    return sum(
        (Fraction(float(confidence[i])) for i in result.changed_indices.tolist()), Fraction(0)
    )


class TestOracleEquivalence:
    def test_objectives_match_bruteforce(self, rng):
        agreements = 0
        for trial in range(120):
            inst = random_instance(rng)
            metric = METRICS[trial % 4]
            eps = [0.0, 0.05, 0.1, 0.25][(trial // 4) % 4]
            spec = FairnessSpec(metric, eps)
            ours = objective_or_none(correct, inst, spec)
            brute = objective_or_none(solve_general_bruteforce, inst, spec)
            assert (ours is None) == (brute is None)
            if ours is None:
                continue
            agreements += 1
            assert exact_cost(ours, inst.confidence) == exact_cost(
                brute, inst.confidence
            )
            assert ours.objective == pytest.approx(brute.objective, abs=1e-9)
        assert agreements > 25

    @pytest.mark.parametrize(
        "eps, lower, least_agreements, least_binding",
        [(0.3, 0.1, 10, 0), (0.5, 0.3, 25, 8), (0.5, 0.5, 10, 2)],
        ids=["loose", "binding", "equal"],
    )
    def test_with_lower_bound(self, rng, eps, lower, least_agreements, least_binding):
        # binding: the lower bound makes the optimum dearer than upper-only;
        # equal: the gap must be exactly eps
        agreements = binding = 0
        for trial in range(60):
            inst = random_instance(rng)
            spec = FairnessSpec(METRICS[trial % 4], eps, epsilon_lower=lower)
            ours = objective_or_none(correct, inst, spec)
            brute = objective_or_none(solve_general_bruteforce, inst, spec)
            assert (ours is None) == (brute is None)
            if ours is not None:
                agreements += 1
                assert exact_cost(ours, inst.confidence) == exact_cost(
                    brute, inst.confidence
                )
                upper = correct(inst, dataclasses.replace(spec, epsilon_lower=None))
                binding += exact_cost(ours, inst.confidence) > exact_cost(upper, inst.confidence)
        assert agreements > least_agreements and binding >= least_binding


class TestFeasibility:
    def test_exact_rational_satisfaction(self, rng):
        checked = 0
        for trial in range(150):
            inst = random_instance(rng)
            metric = METRICS[trial % 4]
            spec = FairnessSpec(metric, float(rng.choice([0.0, 0.05, 0.1, 0.25])))
            result = objective_or_none(correct, inst, spec)
            if result is None:
                continue
            slices = slice_for_metric(metric, inst.labels)
            if not any(idx.size for idx in slices):
                continue
            checked += 1
            assert meets_spec(spec, result.corrected, inst.predictions, inst.labels)
        assert checked > 30


class TestMonotonicity:
    def test_objective_non_increasing_in_epsilon(self, rng):
        grid = np.linspace(0.0, 0.6, 25)
        for _ in range(25):
            inst = random_instance(rng)
            previous = np.inf
            for eps in grid:
                spec = FairnessSpec(FairnessMetric.SP, float(eps))
                result = objective_or_none(correct, inst, spec)
                value = np.inf if result is None else result.objective
                assert value <= previous + 1e-12
                previous = value


class TestScaleInvariance:
    def test_corrected_vector_unchanged_by_rescaling(self, rng):
        for trial in range(40):
            inst = random_instance(rng)
            metric = METRICS[trial % 4]
            spec = FairnessSpec(metric, 0.1)
            base = objective_or_none(correct, inst, spec)
            if base is None:
                continue
            for c in (0.5, 3.0, 100.0):
                scaled_inst = AttackInstance(
                    inst.predictions,
                    inst.labels,
                    inst.guess,
                    inst.confidence * c,
                    cardinality=2,
                )
                scaled = correct(scaled_inst, spec)
                assert scaled.corrected.tolist() == base.corrected.tolist()
                assert scaled.objective == pytest.approx(base.objective * c, rel=1e-9)


class TestSliceIsolation:
    def test_pe_never_touches_positive_labels(self, rng):
        self._check(rng, FairnessMetric.PE, untouched_label=1)

    def test_eo_never_touches_negative_labels(self, rng):
        self._check(rng, FairnessMetric.EO, untouched_label=0)

    def _check(self, rng, metric, untouched_label):
        solved = 0
        for _ in range(80):
            inst = random_instance(rng)
            result = objective_or_none(correct, inst, FairnessSpec(metric, 0.05))
            if result is None:
                continue
            solved += 1
            for i in result.changed_indices.tolist():
                assert inst.labels[i] != untouched_label
        assert solved > 10


class TestFlipCount:
    def test_changed_indices_match_move_totals(self, rng):
        for trial in range(60):
            inst = random_instance(rng)
            spec = FairnessSpec(METRICS[trial % 4], 0.1)
            result = objective_or_none(correct, inst, spec)
            if result is None:
                continue
            assert len(result.changed_indices) == sum(dataclasses.astuple(result.moves))
            assert inst.confidence[result.changed_indices].sum() == pytest.approx(
                result.objective, abs=1e-9
            )


class TestLowerBoundSemantics:
    def test_corrected_unfairness_reaches_lower_bound(self, rng):
        solved = 0
        for trial in range(80):
            inst = random_instance(rng)
            metric = METRICS[trial % 4]
            spec = FairnessSpec(metric, 0.6, epsilon_lower=0.25)
            result = objective_or_none(correct, inst, spec)
            if result is None:
                continue
            slices = slice_for_metric(metric, inst.labels)
            if not any(idx.size for idx in slices):
                continue
            solved += 1
            measured = unfairness_exact(
                metric, result.corrected, inst.predictions, inst.labels
            )
            assert Fraction(1, 4) <= measured <= Fraction(6, 10) + Fraction(1, 10**9)
        assert solved > 15

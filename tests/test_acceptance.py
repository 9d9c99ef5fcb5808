"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line with its measured numbers; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The full module is
heavier than the unit suites (a few minutes end to end).
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import meets_spec, random_instance
from fairleak.core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    slice_for_metric,
)
from fairleak.corrector import correct
from fairleak.errors import Infeasible
from fairleak.estimator import estimate_constraint
from fairleak.harness import (
    ExperimentConfig,
    fit_label_predictor,
    repair_predictions,
    run_experiment,
    split_dataset,
    synth_generate,
)
from fairleak.cli import main as cli_main
from fairleak.oracle import solve_general_bruteforce

METRICS = list(FairnessMetric)
EPS_GRID = (0.0, 0.05, 0.1, 0.25)
SP = FairnessMetric.SP

BENCH_N = 30_000
BENCH_SEEDS = 50


def _solve_both(inst, spec):
    try:
        ours = correct(inst, spec)
    except Infeasible:
        ours = None
    try:
        brute = solve_general_bruteforce(inst, spec)
    except Infeasible:
        brute = None
    return ours, brute


def _exact_cost(result, confidence) -> Fraction:
    return sum(
        (Fraction(float(confidence[i])) for i in result.changed_indices), Fraction(0)
    )


@pytest.fixture(scope="module")
def fuzz_corpus():
    """500 binary instances solved by both routes on every (metric, eps)."""
    rng = np.random.default_rng(7)
    corpus = []
    start = time.perf_counter()
    for _ in range(500):
        inst = random_instance(rng, max_n=14)
        cells = {}
        for metric in METRICS:
            for eps in EPS_GRID:
                spec = FairnessSpec(metric, eps)
                cells[(metric, eps)] = (spec, *_solve_both(inst, spec))
        corpus.append((inst, cells))
    return corpus, time.perf_counter() - start


@pytest.fixture(scope="module")
def trend_benchmark():
    """The default synthetic benchmark at the grid ends, 50 seeds."""
    start = time.perf_counter()
    rows = []
    for seed in range(BENCH_SEEDS):
        table = synth_generate(BENCH_N, seed=seed)
        config = ExperimentConfig(
            metric=SP, epsilon_grid=(0.0, 0.2), seeds=(seed,)
        )
        rows.extend(run_experiment(config, table).rows)
    return rows, time.perf_counter() - start


class TestCriterion1OracleEquivalence:
    def test_efficient_path_matches_bruteforce(self, fuzz_corpus):
        corpus, elapsed = fuzz_corpus
        cells = solved = 0
        for inst, results in corpus:
            for (metric, eps), (spec, ours, brute) in results.items():
                cells += 1
                assert (ours is None) == (brute is None), (
                    f"feasibility disagrees for {metric} eps={eps}"
                )
                if ours is None:
                    continue
                solved += 1
                assert _exact_cost(ours, inst.confidence) == _exact_cost(
                    brute, inst.confidence
                ), f"exact objective differs for {metric} eps={eps}"
                assert abs(ours.objective - brute.objective) <= 1e-9
        assert len(corpus) >= 500
        assert elapsed < 120.0
        print(
            f"\nACCEPTANCE 1 oracle-equivalence: PASS "
            f"({len(corpus)} instances, {cells} cells, {solved} solvable, "
            f"{elapsed:.1f}s < 120s)"
        )


class TestCriterion2Feasibility:
    def test_binary_corpus_satisfies_specs(self, fuzz_corpus):
        corpus, _ = fuzz_corpus
        checked = 0
        for inst, results in corpus:
            for (metric, eps), (spec, ours, _) in results.items():
                if ours is None:
                    continue
                if not any(idx.size for idx in slice_for_metric(metric, inst.labels)):
                    continue
                checked += 1
                assert meets_spec(spec, ours.corrected, inst.predictions, inst.labels)
        assert checked > 1000
        print(f"\nACCEPTANCE 2a feasibility (binary): PASS ({checked} results exact)")

    def test_multivalued_bruteforce_satisfies_specs(self):
        rng = np.random.default_rng(11)
        solved = 0
        cases = 0
        while cases < 100:
            n = int(rng.integers(6, 11))
            inst = random_instance(rng, n=n, cardinality=3)
            metric = METRICS[cases % 4]
            eps = (0.1, 0.25, 0.5)[cases % 3]
            spec = FairnessSpec(metric, eps)
            cases += 1
            try:
                result = solve_general_bruteforce(inst, spec)
            except Infeasible:
                continue
            if not any(idx.size for idx in slice_for_metric(metric, inst.labels)):
                continue
            solved += 1
            assert meets_spec(spec, result.corrected, inst.predictions, inst.labels)
        assert solved > 20
        print(
            f"\nACCEPTANCE 2b feasibility (K=3): PASS ({cases} cases, {solved} solvable)"
        )


class TestCriterion3MonotonicityAndInvariance:
    def test_suite(self):
        rng = np.random.default_rng(23)
        start = time.perf_counter()
        grid = np.linspace(0.0, 0.25, 25)

        for _ in range(30):
            inst = random_instance(rng)
            previous = np.inf
            for eps in grid:
                try:
                    value = correct(inst, FairnessSpec(SP, float(eps))).objective
                except Infeasible:
                    value = np.inf
                assert value <= previous + 1e-12
                previous = value

        scale_checked = isolation_checked = 0
        for trial in range(120):
            inst = random_instance(rng)
            metric = METRICS[trial % 4]
            spec = FairnessSpec(metric, 0.1)
            try:
                base = correct(inst, spec)
            except Infeasible:
                continue
            for c in (0.5, 3.0, 100.0):
                scaled = correct(
                    AttackInstance(
                        inst.predictions, inst.labels, inst.guess, inst.confidence * c
                    ),
                    spec,
                )
                assert scaled.corrected.tolist() == base.corrected.tolist()
                scale_checked += 1
            if metric is FairnessMetric.PE:
                assert all(inst.labels[i] == 0 for i in base.changed_indices)
                isolation_checked += 1
            if metric is FairnessMetric.EO:
                assert all(inst.labels[i] == 1 for i in base.changed_indices)
                isolation_checked += 1
            assert len(base.changed_indices) == sum(dataclasses.astuple(base.moves))

        elapsed = time.perf_counter() - start
        assert scale_checked > 60 and isolation_checked > 10
        assert elapsed < 60.0
        print(
            f"\nACCEPTANCE 3 monotonicity/invariance: PASS "
            f"({scale_checked} scalings, {isolation_checked} slice checks, "
            f"{elapsed:.1f}s < 60s)"
        )


class TestCriterion4TrendReproduction:
    def test_mean_improvement_at_tight_epsilon(self, trend_benchmark):
        rows, elapsed = trend_benchmark
        ok_rows = [r for r in rows if r.status == "ok"]
        tight = [r.improvement for r in ok_rows if r.epsilon == 0.0]
        loose = [r.improvement for r in ok_rows if r.epsilon == 0.2]
        assert len(tight) == BENCH_SEEDS and len(loose) == BENCH_SEEDS
        mean_tight = float(np.mean(tight))
        mean_loose = float(np.mean(loose))
        assert mean_tight >= 0.01
        assert mean_tight >= mean_loose
        assert elapsed < 600.0
        print(
            f"\nACCEPTANCE 4 trend reproduction: PASS "
            f"(mean improvement {mean_tight:+.4f} at eps=0 >= +0.01, "
            f"{mean_loose:+.4f} at eps=0.2, {elapsed:.1f}s < 600s)"
        )


class TestCriterion5Estimation:
    def test_eodds_never_selected(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(8, 200))
            s = rng.integers(0, 2, n)
            yhat = rng.integers(0, 2, n)
            y = rng.integers(0, 2, n)
            if not (0 in y and 1 in y):
                continue
            est = estimate_constraint(s, yhat, y)
            assert est.spec.metric != FairnessMetric.EODDS
        print("\nACCEPTANCE 5a estimation: PASS (EOdds never selected in 200 fuzzes)")

    def test_sp_recovery_and_improvement(self):
        recovered = conditioned = 0
        improvements = []
        for seed in range(BENCH_SEEDS):
            table = synth_generate(BENCH_N, seed=seed)
            train, test, attack = split_dataset(table, seed=seed)
            predictor = fit_label_predictor(train)
            yhat_raw, margins = predictor.raw_predictions(attack)
            counts = np.bincount(attack.sensitive)
            floor = 1.0 / counts[counts > 0].min()
            yh_attack = repair_predictions(
                yhat_raw, margins, attack.sensitive, attack.labels, FairnessSpec(SP, floor)
            )
            est = estimate_constraint(attack.sensitive, yh_attack, attack.labels)
            values = est.per_metric_unfairness
            if values[SP] <= min(values[FairnessMetric.PE], values[FairnessMetric.EO]):
                conditioned += 1
                if est.spec.metric is SP:
                    recovered += 1
            config = ExperimentConfig(
                metric=SP, estimate=True, epsilon_grid=(0.0,), seeds=(seed,)
            )
            (row,) = run_experiment(config, table).rows
            if row.status == "ok":
                improvements.append(row.improvement)
        assert conditioned > 0
        recovery = recovered / conditioned
        mean_improvement = float(np.mean(improvements))
        assert recovery >= 0.70
        assert mean_improvement > 0.0
        print(
            f"\nACCEPTANCE 5b estimation: PASS "
            f"(SP recovered {recovered}/{conditioned} = {recovery:.0%} >= 70%, "
            f"mean improvement {mean_improvement:+.4f} > 0)"
        )


class TestCriterion6Performance:
    @staticmethod
    def _biased_instance(n, seed=0):
        rng = np.random.default_rng(seed)
        yhat = rng.integers(0, 2, n)
        flip = rng.random(n) < 0.3
        guess = np.where(flip, 1 - yhat, yhat)
        return AttackInstance(yhat, rng.integers(0, 2, n), guess, rng.random(n))

    def test_large_instances_solve_fast(self):
        spec = FairnessSpec(SP, 0.01)
        inst = self._biased_instance(100_000)
        start = time.perf_counter()
        result = correct(inst, spec)
        big = time.perf_counter() - start
        assert big < 10.0

        inst = self._biased_instance(30_000, seed=1)
        start = time.perf_counter()
        result = correct(inst, spec)
        medium = time.perf_counter() - start
        assert medium < 2.0
        print(
            f"\nACCEPTANCE 6 performance: PASS "
            f"(N=100000 in {big:.2f}s < 10s, N=30000 in {medium:.2f}s < 2s)"
        )


class TestCriterion7Determinism:
    def test_attack_cli_is_byte_identical(self, tmp_path):
        from fairleak.harness import write_dataset_csv

        table = synth_generate(2_000, seed=9)
        data = tmp_path / "data.csv"
        write_dataset_csv(table, data)
        schema = data.with_name(data.name + ".schema.json")
        payloads = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.csv"
            code = cli_main(
                [
                    "attack",
                    "--data", str(data),
                    "--schema", str(schema),
                    "--mode", "aprime",
                    "--metric", "sp",
                    "--epsilon-grid", "0.0,0.05",
                    "--seeds", "0,1",
                    "--out", str(out),
                ]
            )
            assert code == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]
        print("\nACCEPTANCE 7 determinism: PASS (attack reports byte-identical)")

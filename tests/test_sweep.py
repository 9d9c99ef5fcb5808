"""Cross-check of the block-wise vectorised net-move sweep.

``scalar_sweep`` holds the column-at-a-time sweep the vectorised one
replaced, with independently derived windows.  Swapping it in through
monkeypatch gives reference results for ``correct`` and for the prediction
repair; the two engines must agree exactly, including the scanned-column
count reported as ``stats.nodes``.
"""

from fractions import Fraction

import numpy as np
import pytest

import scalar_sweep
from fairleak import corrector
from fairleak.adversary import DEFAULT_K_GRID, MIN_CONFIDENCE, shape_confidences
from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec, satisfies
from fairleak.corrector import _floor_affine, correct, correct_each
from fairleak.errors import Infeasible, LengthMismatch, NegativeConfidence
from fairleak.harness import predictor
from fairleak.harness.predictor import repair_predictions

METRICS = list(FairnessMetric)
EPSILONS = (0.0, 0.001, 0.01, 1 / 3, 0.2)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except Infeasible:
        return None


def _instance(rng, n, style):
    if style == "ties":
        conf = rng.integers(0, 4, n) / 2.0
    elif style == "identity":
        conf = np.ones(n)
    else:
        conf = rng.random(n)
    # a guess that leans on the predictions is unfair, so the sweep scans
    yhat = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
    guess = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
    guess = np.where(rng.random(n) < rng.uniform(0.0, 0.5), yhat, guess)
    return AttackInstance(yhat, rng.integers(0, 2, n), guess, conf)


def _assert_same_result(ours, ref):
    assert ours.objective == ref.objective
    assert ours.moves == ref.moves
    assert ours.changed_indices == ref.changed_indices
    assert ours.stats.nodes == ref.stats.nodes
    assert np.array_equal(ours.corrected, ref.corrected)


def _assert_same_correction(monkeypatch, inst, spec):
    ours = _outcome(correct, inst, spec)
    with monkeypatch.context() as patch:
        patch.setattr(corrector, "_solve_sp_form", scalar_sweep.solve_sp_form)
        ref = _outcome(correct, inst, spec)
    assert (ours is None) == (ref is None)
    if ours is None:
        return False
    _assert_same_result(ours, ref)
    return True


def _assert_same_each(monkeypatch, inst, spec, vectors):
    """``correct_each`` against the scalar sweep's ``correct`` on an
    instance carrying one vector at a time."""
    ours = _outcome(correct_each, inst, spec, vectors)
    with monkeypatch.context() as patch:
        patch.setattr(corrector, "_solve_sp_form", scalar_sweep.solve_sp_form)
        refs = [
            _outcome(correct, AttackInstance(inst.predictions, inst.labels, inst.guess, conf), spec)
            for conf in vectors
        ]
    if ours is None:
        assert all(ref is None for ref in refs)
        return False
    assert len(ours) == len(vectors)
    for result, ref in zip(ours, refs):
        assert ref is not None
        _assert_same_result(result, ref)
    return True


def _vectors(rng, n, style):
    if style == "orders":
        # orders unrelated to one another, so no vector's order helps the next
        base = rng.random(n)
        return [base, 1.0 - base, rng.permutation(base), rng.random(n), base[::-1].copy()]
    if style == "ties":
        return [rng.integers(0, 3, n) / 2.0 for _ in range(4)] + [np.ones(n)]
    # k-selection's vectors: scores near 0.5 fall to MIN_CONFIDENCE at k = 32
    raw = 0.5 + rng.integers(0, 40, n) / 80.0
    return [shape_confidences(raw, k) for k in DEFAULT_K_GRID]


def _assert_same_repair(monkeypatch, yhat, margins, sensitive, labels, spec):
    ours = _outcome(repair_predictions, yhat, margins, sensitive, labels, spec)
    with monkeypatch.context() as patch:
        patch.setattr(predictor, "_repair_slice", scalar_sweep.repair_slice_state)
        ref = _outcome(repair_predictions, yhat, margins, sensitive, labels, spec)
    assert (ours is None) == (ref is None)
    if ours is not None:
        assert np.array_equal(ours, ref)
    return ours is not None


class TestFloorAffine:
    def test_matches_python_ints(self, rng):
        u = np.arange(-300, 301)
        for _ in range(300):
            bits = int(rng.choice([4, 20, 60, 70, 130]))
            d = int(rng.integers(1, 2**20)) * 2 ** int(rng.integers(0, bits)) + 1
            a = int(rng.integers(-(2**40), 2**40)) * 2 ** int(rng.integers(0, bits))
            b = int(rng.integers(-(2**40), 2**40)) * 2 ** int(rng.integers(0, bits))
            got = _floor_affine(a, b, d, u, -50, 50)
            want = [min(max((a + b * k) // d, -50), 50) for k in u.tolist()]
            assert got.tolist() == want

    def test_rechecks_values_a_float_rounds_onto_an_integer(self):
        # (d - 5 + k) / d is exactly 1 at k = 5 and 1 - 1/d at k = 4, which
        # float64 rounds up to 1.0; only the exact recheck floors it to 0
        d = 2**61 + 1
        u = np.arange(0, 10)
        got = _floor_affine(d - 5, 1, d, u, -10, 10)
        assert got.tolist() == [(d - 5 + k) // d for k in range(10)]
        assert got[4] == 0 and got[5] == 1

    def test_quotients_beyond_int64_are_clipped_exactly(self):
        # n = 1000 with 300 positives at eps = 0.3: the group window divides
        # by 300 * den - num * 1000 = 200, so its quotients run past 2**62
        eps = Fraction(0.3)
        b = 300 * eps.denominator - eps.numerator * 1000
        assert b == 200
        scale = 1000 * eps.denominator
        u = np.arange(-300, 701)
        got = _floor_affine(300 * scale, scale, b, u, 0, 1000)
        want = [min(max((300 + k) * scale // b, 0), 1000) for k in range(-300, 701)]
        assert got.tolist() == want
        assert got[0] == 0 and got[1] == 1000


class TestCorrectionCrossCheck:
    @pytest.mark.parametrize("blocks", [(1, 4), None])
    def test_random_instances(self, monkeypatch, rng, blocks):
        if blocks:
            # tiny blocks put every block boundary and stop test to work
            monkeypatch.setattr(corrector, "_FIRST_BLOCK", blocks[0])
            monkeypatch.setattr(corrector, "_MAX_BLOCK", blocks[1])
        solved = 0
        for trial in range(240):
            n = int(rng.choice([2, 5, 12, 40, 300, 3000]))
            inst = _instance(rng, n, ("uniform", "ties", "identity")[trial % 3])
            spec = FairnessSpec(METRICS[trial % 4], EPSILONS[(trial // 4) % 5])
            solved += _assert_same_correction(monkeypatch, inst, spec)
        assert solved > 100

    def test_lower_bound(self, monkeypatch, rng):
        # exercises the two-interval carve-out and the EOdds carrier choice
        solved = 0
        for trial in range(160):
            n = int(rng.choice([4, 12, 60, 500, 3000]))
            inst = _instance(rng, n, ("uniform", "ties", "identity")[trial % 3])
            eps = EPSILONS[1 + (trial // 4) % 4]
            lower = (eps, eps / 2, 0.001, 1e-9)[(trial // 20) % 4]
            spec = FairnessSpec(METRICS[trial % 4], eps, min(lower, eps))
            solved += _assert_same_correction(monkeypatch, inst, spec)
        assert solved > 60

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_large_instances(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        for metric, eps, lower, style in (
            (FairnessMetric.SP, 0.001, None, "uniform"),
            (FairnessMetric.EODDS, 0.01, None, "ties"),
            (FairnessMetric.PE, 0.01, 0.005, "uniform"),
            (FairnessMetric.EODDS, 0.2, 0.19, "identity"),
        ):
            inst = _instance(rng, 100_000, style)
            _assert_same_correction(monkeypatch, inst, FairnessSpec(metric, eps, lower))

    def test_rates_that_land_on_integers(self, monkeypatch):
        # group sizes and positives in thirds make eps = 1/3 and eps = 0
        # windows fall exactly on integers
        rng = np.random.default_rng(3)
        for n in (9, 30, 300, 3000):
            for eps in (0.0, 1 / 3):
                for metric in METRICS:
                    guess = np.repeat([1, 0, 0], n // 3)
                    yhat = np.tile([1, 0, 0], n // 3)
                    conf = rng.integers(1, 3, n) / 2.0
                    inst = AttackInstance(yhat, rng.integers(0, 2, n), guess, conf)
                    lower = None if eps == 0 else 1 / 6
                    _assert_same_correction(
                        monkeypatch, inst, FairnessSpec(metric, eps, lower)
                    )

    def test_dyadic_bounds_met_with_equality(self, monkeypatch, rng):
        # dyadic tolerances are exact binary fractions, so gaps can equal
        # either bound exactly, and the lower bound can equal the overall
        # rate; this drives every strict-versus-inclusive window end
        solved = 0
        for trial in range(240):
            n = int(rng.choice([4, 8, 16, 64, 512]))
            inst = AttackInstance(
                np.repeat(rng.integers(0, 2, n // 4), 4),
                rng.integers(0, 2, n),
                np.tile(rng.integers(0, 2, 4), n // 4),
                np.ones(n) if trial % 2 else rng.integers(1, 3, n) / 2.0,
            )
            eps = (0.5, 0.25, 0.125)[trial % 3]
            lower = (None, eps, eps / 2, eps / 4)[(trial // 3) % 4]
            spec = FairnessSpec(METRICS[(trial // 12) % 4], eps, lower)
            solved += _assert_same_correction(monkeypatch, inst, spec)
        assert solved > 60

    def test_lower_bound_equal_to_the_overall_rate(self, monkeypatch):
        # group 1 holds no positive, so its gap is the overall rate 1/4, which
        # meets the lower bound exactly: the guess is already feasible
        inst = AttackInstance([1, 1, 0, 0, 0, 0, 0, 0], [0] * 8, [0] * 6 + [1, 1], [1.0] * 8)
        spec = FairnessSpec(FairnessMetric.SP, 0.25, 0.25)
        assert _assert_same_correction(monkeypatch, inst, spec)
        assert correct(inst, spec).objective == 0.0

    def test_cost_and_move_ties_break_on_the_column(self, monkeypatch, rng):
        # unit costs tie many cells on cost and move count alike
        for trial in range(300):
            n = int(rng.integers(4, 30))
            inst = _instance(rng, n, "identity")
            eps = (0.05, 0.1, 0.2)[trial % 3]
            lower = (None, eps / 2)[(trial // 3) % 2]
            _assert_same_correction(monkeypatch, inst, FairnessSpec(METRICS[trial % 4], eps, lower))

    def test_window_quotients_beyond_int64(self, monkeypatch):
        rng = np.random.default_rng(8)
        yhat = np.zeros(1000, dtype=np.int64)
        yhat[rng.choice(1000, 300, replace=False)] = 1
        guess = np.where(rng.random(1000) < 0.9, yhat, 1 - yhat)
        inst = AttackInstance(yhat, rng.integers(0, 2, 1000), guess, rng.random(1000))
        spec = FairnessSpec(FairnessMetric.SP, 0.3)
        assert _assert_same_correction(monkeypatch, inst, spec)
        ours = correct(inst, spec)
        assert ours.stats.nodes > 0
        assert satisfies(spec, ours.corrected, inst.predictions)


class TestCorrectEach:
    @pytest.mark.parametrize("style", ["orders", "ties", "shaped"])
    @pytest.mark.parametrize("blocks", [(1, 4), None])
    def test_random_instances(self, monkeypatch, rng, style, blocks):
        if blocks:
            # tiny blocks make the window memo grow over many blocks
            monkeypatch.setattr(corrector, "_FIRST_BLOCK", blocks[0])
            monkeypatch.setattr(corrector, "_MAX_BLOCK", blocks[1])
        solved = 0
        for trial in range(48):
            n = int(rng.choice([2, 7, 40, 300, 2000]))
            inst = _instance(rng, n, "uniform")
            eps = EPSILONS[(trial // 4) % 5]
            lower = (None, eps / 2, eps)[(trial // 8) % 3] if eps else None
            spec = FairnessSpec(METRICS[trial % 4], eps, lower)
            solved += _assert_same_each(monkeypatch, inst, spec, _vectors(rng, n, style))
        assert solved > 15

    def test_min_confidence_clamp_ties_what_k_one_orders(self, monkeypatch, rng):
        inst = _instance(rng, 3000, "uniform")
        vectors = _vectors(rng, 3000, "shaped")
        clamped = vectors[-1] == MIN_CONFIDENCE
        assert np.unique(vectors[0][clamped]).size > 1
        for metric in METRICS:
            assert _assert_same_each(monkeypatch, inst, FairnessSpec(metric, 0.01), vectors)

    def test_both_eodds_carriers(self, monkeypatch, rng):
        carriers = []
        real = corrector.carry_lower_bound

        def spy(solve, gap, lower):
            forced = {}

            def recording(i, bound):
                forced[i, bound is None] = solve(i, bound)
                return forced[i, bound is None]

            combo = real(recording, gap, lower)
            carriers.extend(i for i, sol in enumerate(combo) if forced.get((i, False)) is sol)
            return combo

        for trial in range(60):
            n = int(rng.integers(20, 300))
            inst = _instance(rng, n, "uniform")
            eps = (0.05, 0.1, 0.2)[trial % 3]
            spec = FairnessSpec(FairnessMetric.EODDS, eps, eps * rng.uniform(0.5, 1.0))
            vectors = _vectors(rng, n, ("orders", "ties", "shaped")[trial % 3])
            with monkeypatch.context() as patch:
                patch.setattr(corrector, "carry_lower_bound", spy)
                _outcome(correct_each, inst, spec, vectors)
            _assert_same_each(monkeypatch, inst, spec, vectors)
        assert {0, 1} <= set(carriers)

    def test_infeasible_raises_once(self, monkeypatch, rng):
        calls = []
        real = corrector._solve_sp_form

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(corrector, "_solve_sp_form", counting)
        # constant predictions leave every gap at zero, below any lower bound
        n = 50
        yhat = np.zeros(n, dtype=int)
        inst = AttackInstance(yhat, rng.integers(0, 2, n), rng.integers(0, 2, n), rng.random(n))
        vectors = _vectors(rng, n, "shaped")
        for metric in METRICS:
            spec = FairnessSpec(metric, 0.1, 0.05)
            assert not _assert_same_each(monkeypatch, inst, spec, vectors)
            solves = []
            for batch in (vectors[:1], vectors):
                calls.clear()
                with pytest.raises(Infeasible):
                    correct_each(inst, spec, batch)
                solves.append(len(calls))
            # the first vector's solves raise; no later vector is solved
            assert solves[0] == solves[1] > 0
        # groups of sizes 1 and 2 cannot both hold exactly a third positives
        odd = AttackInstance([1, 0, 0], [0, 0, 0], [1, 0, 0], [0.5, 0.5, 0.5])
        spec = FairnessSpec(FairnessMetric.SP, 0.0)
        assert not _assert_same_each(monkeypatch, odd, spec, [np.ones(3), np.arange(3.0)])

    def test_window_pieces_are_computed_once(self, monkeypatch, rng):
        inst = _instance(rng, 2000, "uniform")
        spec = FairnessSpec(FairnessMetric.SP, 0.001)
        windows = []
        real = corrector._floor_affine
        monkeypatch.setattr(
            corrector, "_floor_affine", lambda *args: windows.append(1) or real(*args)
        )
        (alone,) = correct_each(inst, spec, [inst.confidence])
        once = len(windows)
        assert alone.stats.nodes > 0
        repeated = correct_each(inst, spec, [inst.confidence] * 6)
        assert len(windows) == 2 * once
        for result in repeated:
            _assert_same_result(result, alone)

    def test_inputs(self, rng):
        inst = _instance(rng, 40, "uniform")
        spec = FairnessSpec(FairnessMetric.SP, 0.01)
        assert correct_each(inst, spec, []) == []
        other = AttackInstance(inst.predictions, inst.labels, inst.guess, rng.random(40))
        (mine,) = correct_each(other, spec, [inst.confidence])
        _assert_same_result(mine, correct(inst, spec))
        with pytest.raises(LengthMismatch):
            correct_each(inst, spec, [inst.confidence, np.ones(39)])
        with pytest.raises(NegativeConfidence):
            correct_each(inst, spec, [inst.confidence, np.full(40, np.nan)])


class TestRepairCrossCheck:
    @pytest.mark.parametrize("blocks", [(1, 4), None])
    def test_random_predictions(self, monkeypatch, rng, blocks):
        if blocks:
            monkeypatch.setattr(corrector, "_FIRST_BLOCK", blocks[0])
            monkeypatch.setattr(corrector, "_MAX_BLOCK", blocks[1])
        repaired = 0
        for trial in range(160):
            n = int(rng.choice([3, 20, 200, 3000]))
            yhat = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
            margins = rng.random(n) if trial % 2 else rng.integers(0, 3, n) / 4.0
            sensitive = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
            labels = rng.integers(0, 2, n)
            eps = EPSILONS[(trial // 4) % 5]
            lower = None if trial % 3 else eps / 2
            spec = FairnessSpec(METRICS[trial % 4], eps, lower)
            repaired += _assert_same_repair(
                monkeypatch, yhat, margins, sensitive, labels, spec
            )
        assert repaired > 60

    def test_dyadic_bounds_met_with_equality(self, monkeypatch, rng):
        repaired = 0
        for trial in range(240):
            n = int(rng.choice([4, 8, 16, 64, 512]))
            yhat = np.tile(rng.integers(0, 2, 4), n // 4)
            sensitive = np.repeat(rng.integers(0, 2, n // 4), 4)
            margins = np.ones(n) if trial % 2 else rng.integers(1, 3, n) / 2.0
            eps = (0.5, 0.25, 0.125)[trial % 3]
            lower = (None, eps, eps / 2, eps / 4)[(trial // 3) % 4]
            spec = FairnessSpec(METRICS[(trial // 12) % 4], eps, lower)
            repaired += _assert_same_repair(
                monkeypatch, yhat, margins, sensitive, rng.integers(0, 2, n), spec
            )
        assert repaired > 60

    def test_large_repair(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 100_000
        yhat = (rng.random(n) < 0.4).astype(np.int64)
        sensitive = (rng.random(n) < 0.3).astype(np.int64)
        yhat[sensitive == 1] = (rng.random(int(sensitive.sum())) < 0.6).astype(np.int64)
        margins = rng.random(n)
        labels = rng.integers(0, 2, n)
        for metric, eps, lower in (
            (FairnessMetric.SP, 0.01, None),
            (FairnessMetric.EODDS, 0.001, None),
            (FairnessMetric.EODDS, 0.01, 0.009),
            (FairnessMetric.EO, 1 / 3, 0.3),
        ):
            assert _assert_same_repair(
                monkeypatch, yhat, margins, sensitive, labels, FairnessSpec(metric, eps, lower)
            )

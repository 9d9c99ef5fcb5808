import numpy as np
import pytest

from conftest import solve_each
from fairleak import adversary
from fairleak.adversary import (
    DEFAULT_K_GRID,
    MODE_A,
    MODE_A_PRIME,
    AttackSet,
    guess_from_log_joint,
    normalize_scores,
    predict_guess,
    _k_scores,
    process_confidences,
    shape_confidences,
    train_baseline,
)
from fairleak.core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    reconstruction_accuracy,
)
from fairleak.corrector import _solve_rows, correct
from fairleak.errors import (
    DegenerateClasses,
    EmptyAttackSet,
    EmptyVector,
    Infeasible,
    MissingPredictions,
    SchemaError,
    SchemaMismatch,
    ScoreOutOfRange,
)
from fairleak.harness import NUMERIC, DatasetTable, FeatureColumn
from fairleak.harness.predictor import encode_features, fit_discretizer
from fairleak.nb import posterior


def _copying_fixture(n=10):
    """Sensitive equals feature f exactly."""
    rng = np.random.default_rng(3)
    f = rng.integers(0, 2, n)
    return AttackSet(
        features={"f": f, "noise": rng.integers(0, 3, n)},
        labels=rng.integers(0, 2, n),
        sensitive=f.copy(),
    )


def _independent_fixture(n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    return AttackSet(
        features={"f": rng.integers(0, 4, n), "g": rng.integers(0, 4, n)},
        labels=rng.integers(0, 2, n),
        sensitive=rng.integers(0, 2, n),
    )


class TestTrainBaseline:
    def test_perfectly_correlated_feature(self):
        aset = _copying_fixture()
        model = train_baseline(aset, MODE_A)
        result = predict_guess(model, aset.features, aset.labels)
        assert result.guess.tolist() == aset.sensitive.tolist()
        assert np.all(result.raw_scores > 0.5)

    def test_independent_features_give_chance_scores(self):
        aset = _independent_fixture()
        model = train_baseline(aset, MODE_A)
        result = predict_guess(model, aset.features, aset.labels)
        accuracy = np.mean(result.guess == aset.sensitive)
        assert abs(accuracy - 0.5) < 0.05
        assert np.mean(result.raw_scores) < 0.55

    def test_single_class_sensitive(self):
        aset = AttackSet(
            features={"f": np.array([0, 1])},
            labels=np.array([0, 1]),
            sensitive=np.array([1, 1]),
        )
        with pytest.raises(DegenerateClasses):
            train_baseline(aset, MODE_A)

    def test_empty_attack_set(self):
        aset = AttackSet(
            features={"f": np.array([], dtype=int)},
            labels=np.array([], dtype=int),
            sensitive=np.array([], dtype=int),
        )
        with pytest.raises(EmptyAttackSet):
            train_baseline(aset, MODE_A)

    def test_aprime_requires_predictions(self):
        aset = _copying_fixture()
        with pytest.raises(MissingPredictions):
            train_baseline(aset, MODE_A_PRIME)

    def test_mode_a_ignores_target_predictions(self):
        rng = np.random.default_rng(7)
        base = _independent_fixture(2000, seed=1)
        preds = rng.integers(0, 2, base.n)
        with_preds = AttackSet(
            features=base.features,
            labels=base.labels,
            sensitive=base.sensitive,
            target_predictions=preds,
        )
        shuffled = AttackSet(
            features=base.features,
            labels=base.labels,
            sensitive=base.sensitive,
            target_predictions=rng.permutation(preds),
        )
        g1 = predict_guess(train_baseline(with_preds, MODE_A), base.features, base.labels)
        g2 = predict_guess(train_baseline(shuffled, MODE_A), base.features, base.labels)
        assert g1.guess.tolist() == g2.guess.tolist()
        assert g1.raw_scores.tolist() == g2.raw_scores.tolist()

    def test_training_is_reproducible(self):
        aset = _independent_fixture(500, seed=9)
        a = predict_guess(train_baseline(aset, MODE_A), aset.features, aset.labels)
        b = predict_guess(train_baseline(aset, MODE_A), aset.features, aset.labels)
        assert a.guess.tolist() == b.guess.tolist()
        assert a.raw_scores.tolist() == b.raw_scores.tolist()


class TestPredictGuess:
    def test_schema_mismatch(self):
        aset = _copying_fixture()
        model = train_baseline(aset, MODE_A)
        with pytest.raises(SchemaMismatch):
            predict_guess(model, {"other": aset.features["f"]}, aset.labels)

    def test_aprime_needs_predictions_at_predict_time(self):
        aset = _copying_fixture()
        with_preds = AttackSet(
            features=aset.features,
            labels=aset.labels,
            sensitive=aset.sensitive,
            target_predictions=aset.labels.copy(),
        )
        model = train_baseline(with_preds, MODE_A_PRIME)
        with pytest.raises(SchemaMismatch):
            predict_guess(model, aset.features, aset.labels)

    def test_empty_feature_table(self):
        aset = _copying_fixture()
        model = train_baseline(aset, MODE_A)
        empty = {k: v[:0] for k, v in aset.features.items()}
        result = predict_guess(model, empty, aset.labels[:0])
        assert result.guess.size == 0


class TestConfidenceProcessing:
    def test_endpoints(self):
        # the lower endpoint maps to zero up to the deterministic tie clamp
        assert shape_confidences([0.5], 3.0)[0] == pytest.approx(0.0, abs=1e-9)
        assert shape_confidences([0.5], 3.0)[0] > 0.0
        assert shape_confidences([1.0], 3.0)[0] == 1.0

    def test_hand_value(self):
        assert shape_confidences([0.75], 2.0)[0] == pytest.approx(0.25)

    def test_out_of_range(self):
        with pytest.raises(ScoreOutOfRange):
            normalize_scores([0.4])
        with pytest.raises(ScoreOutOfRange):
            normalize_scores([1.2])
        with pytest.raises(ScoreOutOfRange):
            normalize_scores([0.75, np.nan, 0.5])

    def test_monotone_and_order_invariant_in_k(self, rng):
        raw = 0.5 + 0.5 * rng.random(50)
        order = np.argsort(shape_confidences(raw, 1.0), kind="stable")
        for k in (2.0, 8.0, 32.0):
            shaped = shape_confidences(raw, k)
            assert np.all(np.diff(shaped[order]) >= -1e-15)

    def test_k_selection_prefers_best_validation_accuracy(self):
        # one low-score wrong entry: any k corrects it, ties resolve to min k
        predictions = np.array([1, 1, 0, 0, 1, 0])
        labels = np.zeros(6, dtype=int)
        guess = np.array([1, 1, 1, 0, 0, 0])
        raw = np.array([0.95, 0.95, 0.55, 0.95, 0.95, 0.95])
        truth = np.array([1, 1, 0, 0, 0, 0])
        validation = AttackInstance(predictions, labels, guess, raw, truth=truth)
        spec = FairnessSpec(FairnessMetric.SP, 0.2)
        processed, k = process_confidences(raw, validation, spec)
        assert k == 1.0
        assert processed.shape == raw.shape

    @pytest.mark.parametrize("grid", [DEFAULT_K_GRID[::-1], DEFAULT_K_GRID])
    def test_ties_prefer_the_smallest_k_in_any_grid_order(self, monkeypatch, grid):
        monkeypatch.setattr(adversary, "DEFAULT_K_GRID", grid)
        # an already feasible guess: every k leaves it as it is
        raw = np.array([0.95, 0.6, 0.75, 0.9])
        guess, truth = [1, 1, 0, 0], [1, 0, 0, 0]
        validation = AttackInstance([1, 0, 1, 0], [0, 1, 0, 1], guess, raw, truth=truth)
        processed, k = process_confidences(raw, validation, FairnessSpec("sp", 1.0))
        assert k == 1.0
        assert np.array_equal(processed, shape_confidences(raw, 1.0))

    def test_batched_selection_matches_the_per_k_loop(self, rng):
        def per_k_loop(raw, validation, spec):
            # the selection as one correct() per exponent, the first of tied
            # k, the smallest in the ascending grid
            best_k, best_acc = None, -1.0
            for k in DEFAULT_K_GRID:
                candidate = AttackInstance(
                    validation.predictions,
                    validation.labels,
                    validation.guess,
                    shape_confidences(validation.confidence, k),
                    truth=validation.truth,
                )
                try:
                    result = correct(candidate, spec)
                except Infeasible:
                    continue
                acc = reconstruction_accuracy(result.corrected, validation.truth)
                if acc > best_acc:
                    best_acc, best_k = acc, k
            if best_k is None:
                best_k = min(DEFAULT_K_GRID)
            return shape_confidences(raw, best_k), float(best_k)

        chosen = set()
        for trial in range(120):
            n = int(rng.choice([3, 20, 200, 2000]))
            yhat = rng.integers(0, 2, n)
            truth = rng.integers(0, 2, n)
            guess = np.where(rng.random(n) < 0.7, truth, yhat)
            val_raw = 0.5 + rng.integers(0, 30, n) / 60.0
            validation = AttackInstance(yhat, rng.integers(0, 2, n), guess, val_raw, truth=truth)
            eps = (0.0, 0.005, 0.02, 0.1)[trial % 4]
            lower = (None, eps / 2)[(trial // 4) % 2] if eps else None
            spec = FairnessSpec(list(FairnessMetric)[(trial // 8) % 4], eps, lower)
            raw = 0.5 + rng.random(30) / 2
            want = per_k_loop(raw, validation, spec)
            got = process_confidences(raw, validation, spec)
            assert got[1] == want[1]
            assert np.array_equal(got[0], want[0])
            chosen.add(got[1])
        assert len(chosen) > 4

    def test_needs_truth(self):
        inst = AttackInstance([1, 0], [0, 0], [1, 0], [0.6, 0.7])
        with pytest.raises(SchemaError, match="^validation instance needs truth for scoring$"):
            process_confidences([0.6, 0.7], inst, FairnessSpec(FairnessMetric.SP, 0.5))


class TestScoresFromFlips:
    """k-selection scores each exponent from the rows its solved cells flip,
    with no correction built: the same float ``reconstruction_accuracy``
    gives the built correction, and so the same chosen k."""

    @staticmethod
    def _check(validation, spec):
        grid = DEFAULT_K_GRID
        shaped = [shape_confidences(validation.confidence, k) for k in grid]
        try:
            results = solve_each(validation, spec, shaped)
        except Infeasible:
            with pytest.raises(Infeasible):
                _k_scores(validation, spec)
            _, k = process_confidences(validation.confidence, validation, spec)
            assert k == min(grid)
            return None
        want = [reconstruction_accuracy(r.corrected, validation.truth) for r in results]
        got = _k_scores(validation, spec)
        assert [score.hex() for score in got] == [score.hex() for score in want]
        _, k = process_confidences(validation.confidence, validation, spec)
        assert k == min(k for k, score in zip(grid, want) if score == max(want))
        return want

    def test_tied_confidences(self):
        # six distinct scores over 40 rows: every cut of a cell may split a run
        rng = np.random.default_rng(5)
        n = 40
        yhat, truth = rng.integers(0, 2, n), rng.integers(0, 2, n)
        guess = np.where(rng.random(n) < 0.6, truth, 1 - truth)
        raw = 0.5 + rng.integers(0, 6, n) / 12
        validation = AttackInstance(yhat, rng.integers(0, 2, n), guess, raw, truth=truth)
        for metric in FairnessMetric:
            self._check(validation, FairnessSpec(metric, 0.02))

    def test_truth_the_guess_never_takes(self):
        # the cheapest rows to flip hold truth 2: flipping them gains no match
        yhat = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        guess = np.array([1, 1, 1, 1, 0, 0, 0, 1])
        truth = np.array([2, 2, 1, 1, 0, 0, 0, 2])
        raw = np.array([0.55, 0.6, 0.9, 0.95, 0.9, 0.95, 0.9, 0.5])
        validation = AttackInstance(yhat, np.zeros(8, dtype=int), guess, raw, truth=truth)
        spec = FairnessSpec(FairnessMetric.SP, 0.1)
        self._check(validation, spec)
        flipped = [np.flatnonzero(r.corrected != guess) for r in
                   solve_each(validation, spec, [shape_confidences(raw, k) for k in (1, 32)])]
        assert all(flips.size and np.any(truth[flips] == 2) for flips in flipped)

    def test_eodds_lower_bound_takes_the_carrier(self):
        # upper-only, both slices stay below the lower bound: one slice carries it
        yhat = [1, 1, 1, 1, 1, 1, 0, 1]
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        guess = [0, 0, 1, 0, 1, 1, 0, 0]
        raw = [0.55, 0.75, 0.75, 0.95, 0.8, 0.75, 0.75, 0.6]
        truth = [1, 0, 1, 0, 1, 0, 0, 1]
        validation = AttackInstance(yhat, labels, guess, raw, truth=truth)
        shaped = np.stack([shape_confidences(raw, k) for k in DEFAULT_K_GRID])
        upper = _solve_rows(validation, FairnessSpec("eodds", 0.75), shaped)
        assert all(max(cell.gap for cell in cells) < 0.5 for cells in upper)
        self._check(validation, FairnessSpec("eodds", 0.75, 0.5))

    def test_random_instances(self, rng):
        solved = 0
        for trial in range(80):
            n = int(rng.choice([2, 9, 60, 400]))
            yhat = rng.integers(0, 2, n)
            truth = rng.integers(0, 3, n)
            guess = np.where(rng.random(n) < 0.6, truth % 2, yhat)
            raw = 0.5 + rng.integers(0, 20, n) / 40
            validation = AttackInstance(yhat, rng.integers(0, 2, n), guess, raw, truth=truth)
            eps = (0.0, 0.01, 0.05, 0.2)[trial % 4]
            lower = eps / 2 if eps and trial % 8 >= 4 else None
            spec = FairnessSpec(list(FairnessMetric)[(trial // 8) % 4], eps, lower)
            solved += self._check(validation, spec) is not None
        assert solved > 40

    def test_infeasible_falls_back_to_the_smallest_k(self):
        # one row is one group: no correction exists under any exponent
        validation = AttackInstance([1], [0], [1], [0.8], truth=[0])
        spec = FairnessSpec(FairnessMetric.SP, 0.1)
        assert self._check(validation, spec) is None
        processed, k = process_confidences([0.9, 0.6], validation, spec)
        assert k == 1.0
        assert np.array_equal(processed, shape_confidences([0.9, 0.6], 1.0))

    def test_empty_validation_raises_as_the_accuracy_does(self):
        validation = AttackInstance([], [], [], [], truth=[])
        with pytest.raises(EmptyVector) as want:
            reconstruction_accuracy(validation.guess, validation.truth)
        for metric in FairnessMetric:
            with pytest.raises(EmptyVector) as got:
                process_confidences([0.7], validation, FairnessSpec(metric, 0.1))
            assert str(got.value) == str(want.value)


def _numeric_table(values):
    values = np.asarray(values, dtype=np.float64)
    bits = np.zeros(values.size, dtype=np.int64)
    return DatasetTable(
        np.arange(values.size), {"x": FeatureColumn(NUMERIC, values)}, bits, bits
    )


class TestDiscretizer:
    """The attack model's and the label predictor's numeric columns are
    binned at their nine decile edges."""

    def test_decile_binning(self):
        rng = np.random.default_rng(0)
        table = _numeric_table(rng.normal(size=5000))
        edges = fit_discretizer(table)
        want = np.quantile(table.features["x"].values, np.linspace(0.1, 0.9, 9))
        assert list(edges) == ["x"] and np.array_equal(edges["x"], want)
        codes = encode_features(table, edges, ["x"])["x"]
        assert codes.min() == 0 and codes.max() == 9
        counts = np.bincount(codes, minlength=10)
        assert counts.min() > 300

    def test_deterministic_on_new_data(self):
        edges = fit_discretizer(_numeric_table(np.arange(100.0)))
        out = encode_features(_numeric_table([-5.0, 50.0, 500.0]), edges, ["x"])["x"]
        assert out.tolist() == [0, 5, 9]


class TestNaiveBayes:
    def test_mismatched_feature_names_report_the_missing_columns(self):
        from fairleak.nb import fit_naive_bayes

        model = fit_naive_bayes(
            {"a": np.array([0, 1, 1]), "b": np.array([1, 0, 1])},
            np.array([0, 1, 1]),
        )
        with pytest.raises(SchemaMismatch, match=r"^missing feature columns: \['a'\]$"):
            model.predict_log_joint({"b": np.array([0]), "c": np.array([1])})

    def test_counts_match_the_scattered_add(self, rng):
        from fairleak.nb import fit_naive_bayes

        for n, span in ((8000, 12), (50, 4), (7, 40)):
            target = rng.integers(0, 2, n)
            codes = rng.integers(-1, span, n)
            model = fit_naive_bayes({"a": codes}, target)
            # the scattered add the counts replaced: numpy sends -1 to the
            # last column, the unseen bucket
            n_values = int(codes.max()) + 1
            counts = np.zeros((2, n_values + 1))
            np.add.at(counts, (target, codes), 1.0)
            denom = (np.bincount(target, minlength=2) + n_values)[:, None]
            want = np.log((counts + 1.0) / denom)
            assert np.array_equal(model.log_likelihood["a"], want)

    def test_negative_codes_fit_the_bucket_they_predict_from(self):
        from fairleak.nb import fit_naive_bayes

        model = fit_naive_bayes({"a": np.array([0, 1, -3, -1])}, np.array([0, 0, 1, 1]))
        table = model.log_likelihood["a"]
        # class 1 saw no code 0 or 1: both its negative codes are unseen ones
        assert table[1].tolist() == np.log(np.array([1, 1, 3]) / 4).tolist()
        # scores are class-major: one column per row
        scores = model.column_log_likelihood("a", np.array([-3, -1, 2, 0]))
        assert scores.T[:3].tolist() == [table[:, 2].tolist()] * 3

    # the model is two-class, but the posterior's softmax reads any class
    # count; numpy sums eight or more in a row pairwise, so up to seven
    @pytest.mark.parametrize("classes", range(1, 8))
    def test_posterior_is_the_row_reduction_bit_for_bit(self, rng, classes):
        scores = rng.normal(0.0, 30.0, (5000, classes))
        scores[rng.random(scores.shape) < 0.3] = -np.inf
        scores[0] = -np.inf  # a row with no finite score
        if classes > 1:
            # rows whose top two classes tie exactly, either way round
            rows = np.arange(1, 1000)
            top = scores[rows].argmax(axis=1)
            scores[rows, (top + rng.integers(1, classes, rows.size)) % classes] = scores[rows, top]
        # the axis-1 formula the class-major posterior replaced
        shift = scores.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            shifted = np.where(np.isfinite(shift), scores - shift, 0.0)
        weights = np.exp(shifted)
        want = weights / weights.sum(axis=1, keepdims=True)
        if classes > 1:
            top2 = np.sort(want[1:1000], axis=1)[:, -2:]
            assert (top2[:, 0] == top2[:, 1]).all()
        got = posterior(np.ascontiguousarray(scores.T)).T
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if classes != 2:
            return
        guess = guess_from_log_joint(np.ascontiguousarray(scores.T))
        assert guess.guess.tolist() == np.argmax(want, axis=1).tolist()
        chosen = want[np.arange(want.shape[0]), guess.guess]
        assert np.array_equal(guess.raw_scores.view(np.int64), chosen.view(np.int64))

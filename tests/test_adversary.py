import numpy as np
import pytest

from fairleak.adversary import (
    DEFAULT_K_GRID,
    MODE_A,
    MODE_A_PRIME,
    AttackSet,
    Discretizer,
    normalize_scores,
    predict_guess,
    process_confidences,
    shape_confidences,
    train_baseline,
)
from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec
from fairleak.errors import (
    DegenerateClasses,
    EmptyAttackSet,
    MissingPredictions,
    SchemaMismatch,
    ScoreOutOfRange,
)


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
        processed, k = process_confidences(raw, validation, spec, DEFAULT_K_GRID)
        assert k == 1.0
        assert processed.shape == raw.shape

    def test_needs_truth(self):
        inst = AttackInstance([1, 0], [0, 0], [1, 0], [0.6, 0.7])
        with pytest.raises(ValueError):
            process_confidences([0.6, 0.7], inst, FairnessSpec(FairnessMetric.SP, 0.5))


class TestDiscretizer:
    def test_decile_binning(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=5000)
        disc = Discretizer().fit({"x": values})
        codes = disc.transform_column("x", values)
        assert codes.min() == 0 and codes.max() == 9
        counts = np.bincount(codes, minlength=10)
        assert counts.min() > 300

    def test_deterministic_on_new_data(self):
        disc = Discretizer().fit({"x": np.arange(100.0)})
        out = disc.transform_column("x", np.array([-5.0, 50.0, 500.0]))
        assert out.tolist() == [0, 5, 9]


class TestNaiveBayes:
    def test_mismatched_feature_names_report_the_missing_columns(self):
        from fairleak.nb import fit_naive_bayes

        model = fit_naive_bayes(
            {"a": np.array([0, 1, 1]), "b": np.array([1, 0, 1])},
            np.array([0, 1, 1]),
            n_classes=2,
        )
        with pytest.raises(KeyError, match="missing feature columns"):
            model.predict_log_joint({"b": np.array([0]), "c": np.array([1])})

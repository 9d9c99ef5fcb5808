"""Every public entry point rejects its bad input with a typed error.

Each case names the ``FairleakError`` subclass and the exact message: the
command line exits 3 on a ``FairleakError`` with its message as the one
stderr line, and leaves any other exception, a program bug, to a traceback.
"""

import warnings

import numpy as np
import pytest

from fairleak.adversary import (
    AttackSet,
    label_log_joint,
    predict_guess,
    process_confidences,
    shape_confidences,
    train_baseline,
)
from fairleak.core import (
    AttackInstance,
    FairnessSpec,
    reconstruction_accuracy,
    unfairness,
    unfairness_exact,
)
from fairleak.corrector import RepairState, correct, repair_predictions
from fairleak.errors import (
    BadParameters,
    FairleakError,
    LengthMismatch,
    NegativeConfidence,
    SchemaError,
    SchemaMismatch,
    ScoreOutOfRange,
)
from fairleak.estimator import estimate_constraint
from fairleak.harness import (
    DatasetTable,
    ExperimentConfig,
    ExperimentReport,
    ExternalGuess,
    FeatureColumn,
    emit_report,
    synth_generate,
)
from fairleak.nb import fit_naive_bayes

UNSCORED = AttackInstance([1, 0], [0, 0], [1, 0], [0.6, 0.7])
SPEC = FairnessSpec("sp", 0.5)


def _fitted():
    return fit_naive_bayes({"a": np.array([0, 1])}, np.array([0, 1]))


def _model(mode="a"):
    attack_set = AttackSet({"a": [0, 1, 1, 0]}, [0, 1, 1, 0], [0, 1, 0, 1], [0, 1, 0, 1])
    return train_baseline(attack_set, mode)


def _repair_state():
    bits = np.array([0, 1])
    return RepairState(bits, np.array([0.5, 0.5]), bits, bits, "sp")


def _huge_costs():
    """Predictions, labels, guess and costs of about 1e300 each, whose sum,
    about 1e304, is finite; at 1e306 each it is not."""
    rng = np.random.default_rng(0)
    n = 20000
    y, yhat = rng.integers(0, 2, n), rng.integers(0, 2, n)
    guess = np.where(rng.random(n) < 0.7, yhat, 1 - yhat)
    return yhat, y, guess, (rng.random(n) + 0.01) * 1e300


_HUGE = _huge_costs()


CASES = {
    "epsilon": (lambda: FairnessSpec("sp", 1.5), BadParameters, "epsilon must lie in [0, 1]"),
    "repair tolerance": (
        lambda: _repair_state().solve([-0.1, 1.5]),
        BadParameters,
        "epsilon must lie in [0, 1]",
    ),
    "lower above epsilon": (
        lambda: FairnessSpec("sp", 0.1, 0.2),
        BadParameters,
        "epsilon_lower must lie in [0, epsilon]",
    ),
    "exponent": (lambda: shape_confidences([0.6], 0), BadParameters, "exponent k must be positive"),
    "no truth": (
        lambda: process_confidences([0.6, 0.7], UNSCORED, SPEC),
        SchemaError,
        "validation instance needs truth for scoring",
    ),
    "attack set lengths": (
        lambda: AttackSet({"a": [0, 1, 2]}, labels=[0, 1], sensitive=[0, 1]),
        LengthMismatch,
        "attack set columns differ in length",
    ),
    "adversary mode": (
        lambda: train_baseline(AttackSet({"a": [0, 1]}, [0, 1], [0, 1]), "b"),
        BadParameters,
        "unknown adversary mode: 'b'",
    ),
    "report format": (
        lambda: emit_report(ExperimentReport(rows=(), metadata={}), "report.txt", "txt"),
        BadParameters,
        "unknown report format: 'txt'",
    ),
    "no labels": (
        lambda: unfairness_exact("eo", [0, 1], [0, 1]),
        SchemaError,
        "eo requires the label vector",
    ),
    "label lengths": (
        lambda: unfairness_exact("eo", [0, 1], [0, 1], [0]),
        LengthMismatch,
        "label vector differs in length",
    ),
    "accuracy lengths": (
        lambda: reconstruction_accuracy([0, 1], [0]),
        LengthMismatch,
        "guess and truth differ in length",
    ),
    "guess file lengths": (
        lambda: ExternalGuess(ids=[0, 1], guess=[0], raw_scores=[0.5, 0.6]),
        LengthMismatch,
        "guess file columns differ in length",
    ),
    "dataset lengths": (
        lambda: DatasetTable(ids=[0, 1], features={}, sensitive=[0], labels=[0, 1]),
        LengthMismatch,
        "dataset columns differ in length",
    ),
    "experiment adversary mode": (
        lambda: ExperimentConfig(adversary_mode="b"),
        BadParameters,
        "unknown adversary mode: 'b'",
    ),
    "feature kind": (
        lambda: FeatureColumn("ordinal", [1.0]),
        SchemaError,
        "unknown feature kind: 'ordinal'",
    ),
    "negative group": (
        lambda: unfairness_exact("sp", [-1, 1], [0, 1]),
        SchemaError,
        "sensitive must be non-negative",
    ),
    "class prior": (
        lambda: fit_naive_bayes({"a": np.array([0])}, np.array([0]), class_prior="flat"),
        BadParameters,
        "unknown class prior: 'flat'",
    ),
    "missing column": (
        lambda: _fitted().predict_log_joint({"b": np.array([0])}),
        SchemaMismatch,
        "missing feature columns: ['a']",
    ),
    "2-D binary": (
        lambda: AttackInstance([[0, 1]], [0, 1], [0, 1], [0.5, 0.5]),
        SchemaError,
        "predictions must be one-dimensional",
    ),
    "2-D sensitive": (
        lambda: AttackSet({}, labels=[0, 1], sensitive=[[0, 1]]),
        SchemaError,
        "sensitive must be one-dimensional",
    ),
    "2-D confidence": (
        lambda: AttackInstance([0, 1], [0, 1], [0, 1], [[0.5, 0.5]]),
        SchemaError,
        "confidence must be one-dimensional",
    ),
    "2-D table column": (
        lambda: DatasetTable(ids=[[0, 1]], features={}, sensitive=[0, 1], labels=[0, 1]),
        SchemaError,
        "ids must be one-dimensional",
    ),
    "2-D table predictions": (
        lambda: DatasetTable([0, 1], {}, [0, 1], [0, 1], predictions=[[0], [1]]),
        SchemaError,
        "predictions must be one-dimensional",
    ),
    "2-D feature": (
        lambda: FeatureColumn("numeric", [[0.5, 1.5]]),
        SchemaError,
        "feature values must be one-dimensional",
    ),
    "2-D guess file column": (
        lambda: ExternalGuess(ids=[0, 1], guess=[0, 1], raw_scores=[[0.5, 0.6]]),
        SchemaError,
        "raw_scores must be one-dimensional",
    ),
    "NaN raw score": (
        lambda: shape_confidences([0.6, float("nan")], 1),
        ScoreOutOfRange,
        "raw scores must lie in [0.5, 1.0]",
    ),
    "cardinality": (
        lambda: AttackInstance([0], [0], [0], [0.5], cardinality=1),
        BadParameters,
        "cardinality must be at least 2",
    ),
    "negative seed": (
        lambda: synth_generate(100, seed=-1),
        BadParameters,
        "seed must be non-negative",
    ),
    "too many rows": (lambda: synth_generate(10**20), BadParameters, "n must be below 2**58"),
    "first row count refused": (
        lambda: synth_generate(2**58),
        BadParameters,
        "n must be below 2**58",
    ),
    # every array column goes through core.column: 1-D, numbers, finite,
    # whole where the column holds integers, and in its range
    "2-D attack set feature": (
        lambda: AttackSet({"a": np.array([[0, 1, 1, 0]])}, [0, 1, 1, 0], [0, 1, 0, 1]),
        SchemaError,
        "a must be one-dimensional",
    ),
    "2-D log joint feature": (
        lambda: label_log_joint(_model(), {"a": np.array([[0, 1]])}, [0, 1]),
        SchemaError,
        "a must be one-dimensional",
    ),
    "log joint lengths": (
        lambda: label_log_joint(_model(), {"a": [0, 1, 1]}, [0, 1]),
        LengthMismatch,
        "feature and label columns differ in length",
    ),
    "naive Bayes target": (
        lambda: fit_naive_bayes({"a": np.array([0, 1])}, np.array([0, 2])),
        SchemaError,
        "target must be 0 or 1",
    ),
    "2-D naive Bayes target": (
        lambda: fit_naive_bayes({"a": np.array([0, 1])}, np.array([[0, 1]])),
        SchemaError,
        "target must be one-dimensional",
    ),
    "naive Bayes lengths": (
        lambda: fit_naive_bayes({"a": np.array([0, 1, 1])}, np.array([0, 1])),
        LengthMismatch,
        "a and target differ in length",
    ),
    "NaN guess": (
        lambda: AttackInstance([0, 1], [0, 1], [0, float("nan")], [0.5, 0.5]),
        SchemaError,
        "guess must be finite",
    ),
    "NaN table sensitive": (
        lambda: DatasetTable([0, 1], {}, [0, float("nan")], [0, 1]),
        SchemaError,
        "sensitive must be finite",
    ),
    "NaN guess file id": (
        lambda: ExternalGuess(ids=[0, float("nan")], guess=[0, 1], raw_scores=[0.5, 0.6]),
        SchemaError,
        "ids must be finite",
    ),
    "NaN categorical feature": (
        lambda: FeatureColumn("categorical", [0, float("nan")]),
        SchemaError,
        "feature values must be finite",
    ),
    "NaN estimate sensitive": (
        lambda: estimate_constraint([0, float("nan")], [0, 1], [0, 1]),
        SchemaError,
        "sensitive must be finite",
    ),
    "prediction past int64": (
        lambda: AttackInstance([0, 2**70], [0, 1], [0, 1], [0.5, 0.5]),
        SchemaError,
        "predictions must be 0 or 1",
    ),
    "text confidence": (
        lambda: AttackInstance([0, 1], [0, 1], [0, 1], ["a", 0.5]),
        SchemaError,
        "confidence must hold numbers",
    ),
    "text table label": (
        lambda: DatasetTable([0, 1], {}, [0, 1], ["a", 1]),
        SchemaError,
        "labels must hold numbers",
    ),
    "text raw score": (
        lambda: shape_confidences(["a"], 2),
        SchemaError,
        "raw scores must hold numbers",
    ),
    "2-D unfairness groups": (
        lambda: unfairness("sp", [[0, 1], [1, 0]], [0, 1, 0, 1]),
        SchemaError,
        "sensitive must be one-dimensional",
    ),
    "2-D predicted feature": (
        lambda: predict_guess(_model(), {"a": np.array([[0, 1]])}, [0, 1]),
        SchemaError,
        "a must be one-dimensional",
    ),
    "predicted feature lengths": (
        lambda: predict_guess(_model(), {"a": [0, 1, 1]}, [0, 1]),
        LengthMismatch,
        "feature and label columns differ in length",
    ),
    "predicted prediction lengths": (
        lambda: predict_guess(_model("aprime"), {"a": [0, 1]}, [0, 1], [1]),
        LengthMismatch,
        "predictions and labels differ in length",
    ),
    "fractional guess": (
        lambda: AttackInstance([0, 1], [0, 1], [0.5, 1], [0.5, 0.5]),
        SchemaError,
        "guess must hold 64-bit integers",
    ),
    "fractional attack set label": (
        lambda: AttackSet({}, labels=[0.5, 1], sensitive=[0, 1]),
        SchemaError,
        "labels must hold 64-bit integers",
    ),
    "fractional unfairness groups": (
        lambda: unfairness("sp", [0, 2.5], [0, 1]),
        SchemaError,
        "sensitive must hold 64-bit integers",
    ),
    "fractional categorical feature": (
        lambda: FeatureColumn("categorical", [0.5, 1]),
        SchemaError,
        "feature values must hold 64-bit integers",
    ),
    "fractional table id": (
        lambda: DatasetTable([0, 1.5], {}, [0, 1], [0, 1]),
        SchemaError,
        "ids must hold 64-bit integers",
    ),
    "2-D accuracy": (
        lambda: reconstruction_accuracy([[0, 1]], [[0, 1]]),
        SchemaError,
        "guess must be one-dimensional",
    ),
    "NaN predicted feature": (
        lambda: predict_guess(_model(), {"a": [0, float("nan")]}, [0, 1]),
        SchemaError,
        "a must be finite",
    ),
    "NaN confidence": (
        lambda: AttackInstance([0, 1], [0, 1], [0, 1], [0.5, float("nan")]),
        NegativeConfidence,
        "confidence must be finite",
    ),
    "confidences past the float range": (
        lambda: AttackInstance(*_HUGE[:3], _HUGE[3] * 1e6),
        NegativeConfidence,
        "confidence must have a finite sum",
    ),
    "repair margins past the float range": (
        lambda: repair_predictions(_HUGE[0], _HUGE[3] * 1e6, *_HUGE[1:3], SPEC),
        SchemaError,
        "margins must have a finite sum",
    ),
    "repaired prediction of 2": (
        lambda: repair_predictions(
            np.array([0, 2]), np.array([0.5, 0.5]), np.array([0, 1]), np.array([0, 1]),
            FairnessSpec("sp", 0.1),
        ),
        SchemaError,
        "predictions must be 0 or 1",
    ),
    "NaN repair margin": (
        lambda: repair_predictions(
            np.array([0, 1]), np.array([0.5, np.nan]), np.array([0, 1]), np.array([0, 1]),
            FairnessSpec("sp", 0.1),
        ),
        SchemaError,
        "margins must be finite",
    ),
    "2-D repair groups": (
        lambda: repair_predictions(
            np.array([0, 1]), np.array([0.5, 0.5]), [[0, 1]], np.array([0, 1]),
            FairnessSpec("sp", 0.1),
        ),
        SchemaError,
        "sensitive must be one-dimensional",
    ),
    "NaN naive Bayes code": (
        lambda: _fitted().predict_log_joint({"a": np.array([0.0, np.nan])}),
        SchemaError,
        "a must be finite",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_its_typed_error(case, tmp_path, monkeypatch):
    call, error, message = CASES[case]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as caught:
        call()
    assert isinstance(caught.value, FairleakError)
    assert str(caught.value) == message
    # nothing was written on the way to the error
    assert list(tmp_path.iterdir()) == []


def test_costs_near_the_float_range_solve_without_warnings():
    # the column bound's penalty once grew with the costs and overflowed,
    # and inf * 0 gave NaN; it now stays finite at any finite cost sum
    yhat, labels, guess, costs = _HUGE
    spec = FairnessSpec("sp", 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = correct(AttackInstance(yhat, labels, guess, costs), spec)
        repaired = repair_predictions(yhat, costs, guess, labels, spec)
    # costs scaled by a power of two solve alike
    small = correct(AttackInstance(yhat, labels, guess, costs * 2.0**-990), spec)
    assert np.array_equal(huge.changed_indices, small.changed_indices)
    assert huge.stats.nodes == small.stats.nodes > 0
    assert huge.objective == small.objective * 2.0**990
    assert np.array_equal(repaired, repair_predictions(yhat, costs * 2.0**-990, guess, labels, spec))

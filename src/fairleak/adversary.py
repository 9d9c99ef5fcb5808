"""Baseline adversaries: attack-model training, guessing, confidence shaping.

The attack model is a class-balanced categorical naive Bayes over the
discretized features plus the labels (plus the target model's predictions in
prediction-aware mode).  Externally produced guesses enter through the
harness CSV interface, so any stronger attack model can be plugged in.

Confidence shaping raises normalised scores to a power k, chosen as the
exponent whose correction of a validation guess is most accurate.  All the
grid's exponents are solved in one ``corrector.correct_each`` batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AttackInstance,
    FairnessSpec,
    as_binary_array,
    as_sensitive_array,
    reconstruction_accuracy,
)
from .corrector import correct  # noqa: F401  (perfbench traces this name)
from .corrector import correct_each
from .errors import (
    DegenerateClasses,
    EmptyAttackSet,
    Infeasible,
    MissingPredictions,
    ScoreOutOfRange,
    SchemaMismatch,
)
from .nb import CategoricalNaiveBayes, fit_naive_bayes, posterior

MODE_A = "a"
MODE_A_PRIME = "aprime"

#: Exponents tried when shaping confidence scores.
DEFAULT_K_GRID = (1, 2, 4, 8, 16, 32)

#: Processed confidences of exactly zero are clamped here so that flipping a
#: zero-confidence entry still registers deterministically in the objective.
MIN_CONFIDENCE = 1e-12

_LABEL_COLUMN = "__label__"
_PREDICTION_COLUMN = "__prediction__"


@dataclass(frozen=True, eq=False)
class AttackSet:
    """The adversary's auxiliary data: features, labels, sensitive values."""

    features: dict[str, np.ndarray]
    labels: np.ndarray
    sensitive: np.ndarray
    target_predictions: np.ndarray | None = None
    cardinality: int = 2

    def __post_init__(self) -> None:
        labels = as_binary_array(self.labels, "labels")
        sensitive = as_sensitive_array(self.sensitive, self.cardinality, "sensitive")
        preds = self.target_predictions
        if preds is not None:
            preds = as_binary_array(preds, "target_predictions")
        features = {k: np.asarray(v, dtype=np.int64) for k, v in self.features.items()}
        lengths = {labels.size, sensitive.size} | {v.size for v in features.values()}
        if preds is not None:
            lengths.add(preds.size)
        if len(lengths) > 1:
            raise ValueError("attack set columns differ in length")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sensitive", sensitive)
        object.__setattr__(self, "target_predictions", preds)

    @property
    def n(self) -> int:
        return self.labels.size

    def subset(self, indices: np.ndarray) -> "AttackSet":
        return AttackSet(
            features={k: v[indices] for k, v in self.features.items()},
            labels=self.labels[indices],
            sensitive=self.sensitive[indices],
            target_predictions=(
                None
                if self.target_predictions is None
                else self.target_predictions[indices]
            ),
            cardinality=self.cardinality,
        )


@dataclass(frozen=True, eq=False)
class AttackModel:
    """Trained attack model; query it through :func:`predict_guess`.

    ``nb`` holds the feature and label columns.  Prediction-aware mode adds
    the target-prediction column as a model of its own, ``prediction_nb``,
    whose log-likelihood adds onto the log joint of the others.
    """

    nb: CategoricalNaiveBayes
    feature_names: tuple[str, ...]
    cardinality: int
    prediction_nb: CategoricalNaiveBayes | None = None

    @property
    def uses_predictions(self) -> bool:
        return self.prediction_nb is not None


@dataclass(frozen=True, eq=False)
class BaselineGuess:
    """A guess vector with the posterior probability of each guessed class."""

    guess: np.ndarray
    raw_scores: np.ndarray


class Discretizer:
    """Decile binning for numeric columns, fitted on the attack set.

    Categorical columns pass through unchanged.
    """

    def __init__(self) -> None:
        self.edges: dict[str, np.ndarray] = {}

    def fit(self, numeric: dict[str, np.ndarray]) -> "Discretizer":
        for name, values in numeric.items():
            qs = np.quantile(np.asarray(values, dtype=np.float64), np.linspace(0.1, 0.9, 9))
            self.edges[name] = qs
        return self

    def transform_column(self, name: str, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.edges[name], np.asarray(values, dtype=np.float64), side="right")


def train_baseline(attack_set: AttackSet, mode: str = MODE_A) -> AttackModel:
    """Train the attack model for mode ``a`` or ``aprime``.

    Class priors are uniform (class balancing) and Laplace smoothing is 1.
    """
    if mode not in (MODE_A, MODE_A_PRIME):
        raise ValueError(f"unknown adversary mode: {mode!r}")
    if attack_set.n == 0:
        raise EmptyAttackSet("attack set has no rows")
    observed = np.unique(attack_set.sensitive)
    if observed.size < 2:
        raise DegenerateClasses("sensitive column holds a single class")
    prediction_nb = None
    if mode == MODE_A_PRIME:
        if attack_set.target_predictions is None:
            raise MissingPredictions("mode aprime needs target predictions")
        prediction_nb = fit_prediction_column(
            attack_set.sensitive, attack_set.target_predictions, attack_set.cardinality
        )
    columns = dict(attack_set.features)
    columns[_LABEL_COLUMN] = attack_set.labels
    nb = fit_naive_bayes(
        columns,
        attack_set.sensitive,
        n_classes=attack_set.cardinality,
        alpha=1.0,
        class_prior="uniform",
    )
    return AttackModel(
        nb=nb,
        feature_names=tuple(attack_set.features),
        cardinality=attack_set.cardinality,
        prediction_nb=prediction_nb,
    )


def fit_prediction_column(
    sensitive: np.ndarray, predictions: np.ndarray, cardinality: int = 2
) -> CategoricalNaiveBayes:
    """The prediction-aware mode's target-prediction column, fitted alone on
    the attack rows' sensitive values, with the attack model's smoothing and
    uniform prior."""
    return fit_naive_bayes(
        {_PREDICTION_COLUMN: predictions},
        sensitive,
        n_classes=cardinality,
        alpha=1.0,
        class_prior="uniform",
    )


def prediction_log_likelihood(
    column: CategoricalNaiveBayes, predictions: Sequence[int]
) -> np.ndarray:
    """The (n, classes) term the target-prediction column adds to the log
    joint; it comes last, as in :func:`predict_guess`."""
    return column.column_log_likelihood(
        _PREDICTION_COLUMN, as_binary_array(predictions, "predictions")
    )


def label_log_joint(
    model: AttackModel, features: dict[str, np.ndarray], labels: Sequence[int]
) -> np.ndarray:
    """Per-row log joint of the feature and label columns: the whole of a
    mode ``a`` model, and all but the prediction column of a mode ``aprime``
    one."""
    if set(features) != set(model.feature_names):
        raise SchemaMismatch("feature columns differ from the training schema")
    columns = {k: np.asarray(v, dtype=np.int64) for k, v in features.items()}
    columns[_LABEL_COLUMN] = as_binary_array(labels, "labels")
    return model.nb.predict_log_joint(columns)


def guess_from_log_joint(scores: np.ndarray) -> BaselineGuess:
    """Per-row argmax class and its posterior probability as the raw score."""
    proba = posterior(scores)
    guess = np.argmax(proba, axis=1).astype(np.int64)
    raw = proba[np.arange(proba.shape[0]), guess]
    return BaselineGuess(guess=guess, raw_scores=raw)


def predict_guess(
    model: AttackModel,
    features: dict[str, np.ndarray],
    labels: Sequence[int],
    predictions: Sequence[int] | None = None,
) -> BaselineGuess:
    """Per-row argmax class and its posterior probability as the raw score."""
    scores = label_log_joint(model, features, labels)
    if model.uses_predictions:
        if predictions is None:
            raise SchemaMismatch("model was trained with target predictions")
        scores = scores + prediction_log_likelihood(model.prediction_nb, predictions)
    return guess_from_log_joint(scores)


def normalize_scores(raw_scores: Sequence[float]) -> np.ndarray:
    """Map raw binary-classifier scores from [0.5, 1.0] onto [0, 1]."""
    raw = np.asarray(raw_scores, dtype=np.float64)
    if raw.size and (raw.min() < 0.5 - 1e-9 or raw.max() > 1.0 + 1e-9):
        raise ScoreOutOfRange("raw scores must lie in [0.5, 1.0]")
    return np.clip((raw - 0.5) / 0.5, 0.0, 1.0)


def shape_confidences(raw_scores: Sequence[float], k: float) -> np.ndarray:
    """Normalize then exponentiate, widening the gaps between scores."""
    if k <= 0:
        raise ValueError("exponent k must be positive")
    processed = normalize_scores(raw_scores) ** k
    return np.maximum(processed, MIN_CONFIDENCE)


def process_confidences(
    raw_scores: Sequence[float],
    validation: AttackInstance,
    spec: FairnessSpec,
    k_grid: Sequence[float] = DEFAULT_K_GRID,
) -> tuple[np.ndarray, float]:
    """Pick the exponent that corrects the validation instance best.

    The validation instance carries raw scores in its confidence slot and
    must carry the true sensitive values.  Every exponent's correction is
    solved in one :func:`correct_each` batch.  Ties prefer the smallest k.
    """
    if validation.truth is None:
        raise ValueError("validation instance needs truth for scoring")
    if not k_grid:
        raise ValueError("k grid must be nonempty")
    shaped = [shape_confidences(validation.confidence, k) for k in k_grid]
    try:
        results = correct_each(validation, spec, shaped)
    except Infeasible:
        # correction is infeasible for every k (feasibility never depends on k)
        best_k = min(k_grid)
    else:
        scores = [reconstruction_accuracy(r.corrected, validation.truth) for r in results]
        best = max(scores)
        best_k = min(k for k, score in zip(k_grid, scores) if score == best)
    return shape_confidences(raw_scores, best_k), float(best_k)

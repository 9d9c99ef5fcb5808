"""Baseline adversaries: attack-model training, guessing, confidence shaping.

The attack model is a class-balanced categorical naive Bayes over the
discretized features plus the labels (plus the target model's predictions in
prediction-aware mode).  Externally produced guesses enter through the
harness CSV interface, so any stronger attack model can be plugged in.

Confidence shaping raises normalised scores to a power k, chosen as the
exponent in ``DEFAULT_K_GRID`` whose correction of a validation guess is
most accurate.  All the grid's exponents are solved in one solve of the
corrector: one search per metric slice, with one cost row per exponent.  No
correction is built: each exponent is scored from the rows its solved cells
flip, which lose a match with the truth where the guess held it and gain one
where the flipped guess does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AttackInstance, FairnessSpec, column, read_only_copy
from .corrector import correct  # noqa: F401  (perfbench traces this name)
from .corrector import _solve_rows
from .errors import (
    BadParameters,
    DegenerateClasses,
    EmptyAttackSet,
    EmptyVector,
    Infeasible,
    LengthMismatch,
    MissingPredictions,
    SchemaError,
    ScoreOutOfRange,
    SchemaMismatch,
)
from .nb import CategoricalNaiveBayes, best_class, fit_naive_bayes, posterior

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

    def __post_init__(self) -> None:
        columns = dict(
            labels=column(self.labels, "labels", high=2),
            sensitive=column(self.sensitive, "sensitive", high=2),
        )
        preds = self.target_predictions
        if preds is not None:
            columns["target_predictions"] = column(preds, "target_predictions", high=2)
        features = {k: column(v, k) for k, v in self.features.items()}
        if len({v.size for v in (*columns.values(), *features.values())}) > 1:
            raise LengthMismatch("attack set columns differ in length")
        for attr, value in columns.items():
            object.__setattr__(self, attr, read_only_copy(value))
        object.__setattr__(self, "features", features)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True, eq=False)
class AttackModel:
    """Trained attack model; query it through :func:`predict_guess`.

    ``nb`` holds the feature and label columns.  Prediction-aware mode adds
    the target-prediction column as a model of its own, ``prediction_nb``,
    whose log-likelihood adds onto the log joint of the others.
    """

    nb: CategoricalNaiveBayes
    prediction_nb: CategoricalNaiveBayes | None = None


@dataclass(frozen=True, eq=False)
class BaselineGuess:
    """A guess vector with the posterior probability of each guessed class."""

    guess: np.ndarray
    raw_scores: np.ndarray


def train_baseline(attack_set: AttackSet, mode: str = MODE_A) -> AttackModel:
    """Train the attack model for mode ``a`` or ``aprime``.

    Class priors are uniform (class balancing) and Laplace smoothing is 1.
    """
    if mode not in (MODE_A, MODE_A_PRIME):
        raise BadParameters(f"unknown adversary mode: {mode!r}")
    if attack_set.n == 0:
        raise EmptyAttackSet("attack set has no rows")
    if attack_set.sensitive.min() == attack_set.sensitive.max():
        raise DegenerateClasses("sensitive column holds a single class")
    prediction_nb = None
    if mode == MODE_A_PRIME:
        if attack_set.target_predictions is None:
            raise MissingPredictions("mode aprime needs target predictions")
        prediction_nb = fit_prediction_column(attack_set.sensitive, attack_set.target_predictions)
    columns = dict(attack_set.features)
    columns[_LABEL_COLUMN] = attack_set.labels
    nb = fit_naive_bayes(columns, attack_set.sensitive, class_prior="uniform")
    return AttackModel(nb=nb, prediction_nb=prediction_nb)


def fit_prediction_column(sensitive: np.ndarray, predictions: np.ndarray) -> CategoricalNaiveBayes:
    """The prediction-aware mode's target-prediction column, fitted alone on
    the attack rows' sensitive values, with the attack model's smoothing and
    uniform prior."""
    return fit_naive_bayes({_PREDICTION_COLUMN: predictions}, sensitive, class_prior="uniform")


def prediction_log_likelihood(
    fitted: CategoricalNaiveBayes, predictions: Sequence[int]
) -> np.ndarray:
    """The term the target-prediction column adds to the log joint; it comes
    last, as in :func:`predict_guess`."""
    return fitted.column_log_likelihood(
        _PREDICTION_COLUMN, column(predictions, "predictions", high=2)
    )


def label_log_joint(
    model: AttackModel, features: dict[str, np.ndarray], labels: Sequence[int]
) -> np.ndarray:
    """Per-row log joint of the feature and label columns: the whole of a
    mode ``a`` model, and all but the prediction column of a mode ``aprime``
    one."""
    if set(features) | {_LABEL_COLUMN} != model.nb.log_likelihood.keys():
        raise SchemaMismatch("feature columns differ from the training schema")
    labels = column(labels, "labels", high=2)
    # the model checks each feature column as it reads it
    if any(np.size(v) != labels.size for v in features.values()):
        raise LengthMismatch("feature and label columns differ in length")
    return model.nb.predict_log_joint({**features, _LABEL_COLUMN: labels})


def guess_from_log_joint(scores: np.ndarray) -> BaselineGuess:
    """Per-row argmax class and its posterior probability as the raw score."""
    guess, raw = best_class(posterior(scores))
    return BaselineGuess(guess=guess, raw_scores=raw)


def predict_guess(
    model: AttackModel,
    features: dict[str, np.ndarray],
    labels: Sequence[int],
    predictions: Sequence[int] | None = None,
) -> BaselineGuess:
    """Per-row argmax class and its posterior probability as the raw score."""
    scores = label_log_joint(model, features, labels)
    if model.prediction_nb is not None:
        if predictions is None:
            raise SchemaMismatch("model was trained with target predictions")
        term = prediction_log_likelihood(model.prediction_nb, predictions)
        if term.shape != scores.shape:
            raise LengthMismatch("predictions and labels differ in length")
        scores += term
    return guess_from_log_joint(scores)


def normalize_scores(raw_scores: Sequence[float]) -> np.ndarray:
    """Map raw binary-classifier scores from [0.5, 1.0] onto [0, 1]."""
    raw = column(raw_scores, "raw scores", np.float64, finite=False)
    # negated, so that a NaN, whose comparisons are all false, is out of range
    if raw.size and not (raw.min() >= 0.5 - 1e-9 and raw.max() <= 1.0 + 1e-9):
        raise ScoreOutOfRange("raw scores must lie in [0.5, 1.0]")
    return np.clip((raw - 0.5) / 0.5, 0.0, 1.0)


def shape_confidences(raw_scores: Sequence[float], k: float) -> np.ndarray:
    """Normalize then exponentiate, widening the gaps between scores."""
    if k <= 0:
        raise BadParameters("exponent k must be positive")
    return np.maximum(normalize_scores(raw_scores) ** k, MIN_CONFIDENCE)


def process_confidences(
    raw_scores: Sequence[float],
    validation: AttackInstance,
    spec: FairnessSpec,
) -> tuple[np.ndarray, float]:
    """Pick the exponent of ``DEFAULT_K_GRID`` that corrects the validation
    instance best.

    The validation instance carries raw scores in its confidence slot and
    must carry the true sensitive values.  Every exponent is scored from its
    flips in one solve (:func:`_k_scores`); ties prefer the smallest k.
    """
    if validation.truth is None:
        raise SchemaError("validation instance needs truth for scoring")
    try:
        scores = _k_scores(validation, spec)
    except Infeasible:
        # correction is infeasible for every k (feasibility never depends on k)
        best_k = min(DEFAULT_K_GRID)
    else:
        best = max(scores)
        best_k = min(k for k, score in zip(DEFAULT_K_GRID, scores) if score == best)
    return shape_confidences(raw_scores, best_k), float(best_k)


def _k_scores(validation: AttackInstance, spec: FairnessSpec) -> list[float]:
    """The :func:`reconstruction_accuracy` of each exponent's correction of
    the validation guess, read from the rows its solved cells flip."""
    normalized = normalize_scores(validation.confidence)
    # finite and non-negative by construction, so no row needs validating
    shaped = np.empty((len(DEFAULT_K_GRID), normalized.size))
    for row, k in zip(shaped, DEFAULT_K_GRID):
        np.maximum(normalized**k, MIN_CONFIDENCE, out=row)
    solved = _solve_rows(validation, spec, shaped)
    if not validation.n:
        raise EmptyVector("reconstruction accuracy needs at least one element")
    guess, truth = validation.guess, validation.truth
    # a flip gains a match or loses one; a truth of 2 matches neither guess
    base = np.count_nonzero(truth == guess)
    gain = (truth == 1 - guess) - (truth == guess).astype(np.int64)
    gained = [sum(int(gain.take(cell.changed).sum()) for cell in cells) for cells in solved]
    return [(base + g) / validation.n for g in gained]

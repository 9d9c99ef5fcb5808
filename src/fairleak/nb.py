"""Two-class categorical naive Bayes with Laplace smoothing.

Inputs are integer-coded categorical columns and a 0/1 target: the attack
model's binary sensitive attribute, or the label predictor's labels.  Codes
unseen at fit time fall into a reserved bucket whose likelihood is the bare
smoothing mass, so prediction is defined for any input.  Everything is
deterministic.

Log joints and probabilities are class-major, ``(2, n)``, and bit for bit
what the row-major formulas along axis 1 give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import column
from .errors import BadParameters, LengthMismatch, SchemaMismatch


@dataclass(frozen=True, eq=False)
class CategoricalNaiveBayes:
    """Fitted model; build with :func:`fit_naive_bayes`.  Its columns are the
    keys of ``log_likelihood``, in fitting order."""

    log_likelihood: dict[str, np.ndarray]  # name -> (2, n_values + 1)
    log_prior: np.ndarray

    def predict_log_joint(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        missing = self.log_likelihood.keys() - columns.keys()
        if missing:
            raise SchemaMismatch(f"missing feature columns: {sorted(missing)}")
        n = np.size(next(iter(columns.values()))) if columns else 0
        scores = np.repeat(self.log_prior[:, None], n, axis=1)
        for name in self.log_likelihood:
            term = self.column_log_likelihood(name, columns[name])
            if term.shape != scores.shape:
                raise LengthMismatch("feature columns differ in length")
            scores += term
        return scores

    def column_log_likelihood(self, name: str, codes: np.ndarray) -> np.ndarray:
        """One column's (2, n) term of the log joint.

        Every column is fitted on its own, so a model fitted on one column
        adds that column's term onto the log joint of the others.
        """
        table = self.log_likelihood[name]
        codes = column(codes, name)
        seen = table.shape[1] - 1
        codes = np.where((codes < 0) | (codes >= seen), seen, codes)
        return table.take(codes, axis=1)

    def predict_proba(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return posterior(self.predict_log_joint(columns))


def posterior(scores: np.ndarray) -> np.ndarray:
    """Class probabilities from class-major log joints.  An input row with no
    finite score gets equal probabilities."""
    shift = np.maximum.reduce(scores, axis=0)
    proba = np.zeros_like(scores)
    np.subtract(scores, shift, out=proba, where=np.isfinite(shift))
    np.exp(proba, out=proba)
    proba /= proba.sum(axis=0)
    return proba


def best_class(proba: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first most probable class, as ``argmax`` picks it, and its
    probability."""
    return (proba[1] > proba[0]).astype(np.int64), np.maximum(proba[0], proba[1])


def fit_naive_bayes(
    columns: dict[str, np.ndarray],
    target: np.ndarray,
    class_prior: str = "uniform",
) -> CategoricalNaiveBayes:
    """Fit the model with Laplace smoothing: one pseudo-count per class and
    seen code.

    ``class_prior="uniform"`` balances the classes regardless of their
    empirical frequency; ``"empirical"`` uses the observed frequencies.
    """
    target = column(target, "target", high=2)
    class_counts = np.bincount(target, minlength=2).astype(np.float64)
    if class_prior == "uniform":
        log_prior = np.full(2, -np.log(2))
    elif class_prior == "empirical":
        with np.errstate(divide="ignore"):
            log_prior = np.log(class_counts / max(target.size, 1))
    else:
        raise BadParameters(f"unknown class prior: {class_prior!r}")

    tables: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        codes = column(values, name)
        if codes.size != target.size:
            raise LengthMismatch(f"{name} and target differ in length")
        n_values = int(codes.max(initial=0)) + 1
        # a negative code is counted in the unseen bucket, where prediction puts it
        cells = target * (n_values + 1) + np.where(codes < 0, n_values, codes)
        counts = np.bincount(cells, minlength=2 * (n_values + 1)).reshape(2, -1)
        denom = (class_counts + n_values)[:, None]
        tables[name] = np.log((counts + 1.0) / denom)
    return CategoricalNaiveBayes(log_likelihood=tables, log_prior=log_prior)

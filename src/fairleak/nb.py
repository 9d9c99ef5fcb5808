"""Categorical naive Bayes with Laplace smoothing.

Inputs are integer-coded categorical columns.  Codes unseen at fit time fall
into a reserved bucket whose likelihood is the bare smoothing mass, so
prediction is defined for any input.  Everything is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, SchemaMismatch


@dataclass(frozen=True, eq=False)
class CategoricalNaiveBayes:
    """Fitted model; build with :func:`fit_naive_bayes`."""

    feature_names: tuple[str, ...]
    log_likelihood: dict[str, np.ndarray]  # name -> (n_classes, n_values + 1)
    log_prior: np.ndarray
    n_classes: int

    def predict_log_joint(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        missing = set(self.feature_names) - set(columns)
        if missing:
            raise SchemaMismatch(f"missing feature columns: {sorted(missing)}")
        n = next(iter(columns.values())).size if columns else 0
        scores = np.tile(self.log_prior, (n, 1))
        for name in self.feature_names:
            scores += self.column_log_likelihood(name, columns[name])
        return scores

    def column_log_likelihood(self, name: str, codes: np.ndarray) -> np.ndarray:
        """One column's (n, n_classes) term of the log joint.

        Every column is fitted on its own, so a model fitted on one column
        adds that column's term onto the log joint of the others.
        """
        table = self.log_likelihood[name]
        codes = np.asarray(codes, dtype=np.int64)
        seen = table.shape[1] - 1
        codes = np.where((codes < 0) | (codes >= seen), seen, codes)
        return table[:, codes].T

    def predict_proba(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        return posterior(self.predict_log_joint(columns))


def posterior(scores: np.ndarray) -> np.ndarray:
    """Class probabilities from per-row log joints.  A row with no finite
    score gets equal probabilities."""
    shift = _row_reduce(np.maximum, scores)[:, None]
    shifted = np.subtract(scores, shift, out=np.zeros_like(scores), where=np.isfinite(shift))
    weights = np.exp(shifted)
    return weights / _row_reduce(np.add, weights)[:, None]


def _row_reduce(ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(values, axis=1)``, bit for bit.  numpy reduces a row of
    fewer than eight entries in order, so such rows are reduced column by
    column instead, which avoids the cost of reducing a short axis."""
    if 0 < values.shape[1] < 8:
        return functools.reduce(ufunc, values.T)
    return ufunc.reduce(values, axis=1)


def fit_naive_bayes(
    columns: dict[str, np.ndarray],
    target: np.ndarray,
    n_classes: int,
    alpha: float = 1.0,
    class_prior: str = "uniform",
) -> CategoricalNaiveBayes:
    """Fit the model.

    ``class_prior="uniform"`` balances the classes regardless of their
    empirical frequency; ``"empirical"`` uses the observed frequencies.
    """
    target = np.asarray(target, dtype=np.int64)
    class_counts = np.bincount(target, minlength=n_classes).astype(np.float64)
    if class_prior == "uniform":
        log_prior = np.full(n_classes, -np.log(n_classes))
    elif class_prior == "empirical":
        with np.errstate(divide="ignore"):
            log_prior = np.log(class_counts / max(target.size, 1))
    else:
        raise BadParameters(f"unknown class prior: {class_prior!r}")

    tables: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        codes = np.asarray(values, dtype=np.int64)
        n_values = int(codes.max()) + 1 if codes.size else 1
        # a negative code is counted in the unseen bucket, where prediction puts it
        cells = target * (n_values + 1) + np.where(codes < 0, n_values, codes)
        counts = np.bincount(cells, minlength=n_classes * (n_values + 1)).reshape(n_classes, -1)
        denom = (class_counts + alpha * n_values)[:, None]
        tables[name] = np.log((counts + alpha) / denom)
    return CategoricalNaiveBayes(
        feature_names=tuple(columns),
        log_likelihood=tables,
        log_prior=log_prior,
        n_classes=n_classes,
    )

"""Simplified fair target model: the naive Bayes label predictor.

Numeric feature columns enter naive Bayes as decile codes 0-9, binned at
the nine decile edges ``fit_discretizer`` fits: on the training part for the
label predictor, on the attack part for the attack model.  The repair that
makes its predictions fair is ``corrector.RepairState``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import EmptyVector, SchemaError
from ..nb import CategoricalNaiveBayes, best_class, fit_naive_bayes
from .data import CATEGORICAL, DatasetTable


def fit_discretizer(table: DatasetTable) -> dict[str, np.ndarray]:
    """The nine decile edges of each numeric feature column."""
    return {
        name: np.quantile(col.values, np.linspace(0.1, 0.9, 9))
        for name, col in table.features.items()
        if col.kind != CATEGORICAL
    }


def encode_features(
    table: DatasetTable, edges: dict[str, np.ndarray], names: Iterable[str]
) -> dict[str, np.ndarray]:
    """The named feature columns in that order: the numeric ones, whose
    decile ``edges`` are given, binned, and the categorical ones as they are."""
    columns = {name: table.features[name].values for name in names}
    for name in columns.keys() & edges.keys():
        columns[name] = np.searchsorted(edges[name], columns[name], side="right")
    return columns


@dataclass(frozen=True, eq=False)
class LabelPredictor:
    """Naive Bayes label model with the decile edges fitted alongside it.
    The model's columns are the table's features, in training order."""

    nb: CategoricalNaiveBayes
    discretizer: dict[str, np.ndarray]  # numeric feature -> decile edges

    def raw_predictions(self, table: DatasetTable) -> tuple[np.ndarray, np.ndarray]:
        """Predicted labels and the posterior margin of each prediction."""
        proba = self.nb.predict_proba(
            encode_features(table, self.discretizer, self.nb.log_likelihood)
        )
        yhat, _ = best_class(proba)
        return yhat, np.abs(proba[1] - proba[0])


def fit_label_predictor(train: DatasetTable) -> LabelPredictor:
    if train.n == 0:
        raise EmptyVector("training table is empty")
    if not train.features:
        # a model of no columns could not tell how many rows it predicts
        raise SchemaError("the label predictor needs at least one feature column")
    disc = fit_discretizer(train)
    columns = encode_features(train, disc, train.features)
    nb = fit_naive_bayes(columns, train.labels, class_prior="empirical")
    return LabelPredictor(nb=nb, discretizer=disc)


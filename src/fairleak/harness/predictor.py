"""Simplified fair target model: naive Bayes labels plus an exact repair.

Numeric feature columns enter naive Bayes as decile codes 0-9, binned at
the nine decile edges ``fit_discretizer`` fits: on the training part for the
label predictor, on the attack part for the attack model.

The repair flips minimum-margin predictions, group by group, until the
requested rate constraint holds on the training data.  With fixed group
memberships the constraint depends only on the net number of prediction
flips inside each sensitive group, so the repair searches the guess
corrector's lattice type, ``corrector._Lattice``, with the two vectors
swapped: the predictions split by the groups, flip costs the margins.  Its
half-planes, with every other determinant band's, live in ``corrector``:
``corrector._repair_slice`` runs the corrector's search on one slice for a
whole tolerance list.

``RepairState`` holds what does not depend on the tolerance: the lattice of
each metric slice, read in place.  ``RepairState.solve`` repairs a whole
tolerance list with one search per slice, all tolerances sharing its blocks,
each judging the origin from the slice's counts (``corrector._group_gap``).
The repair enforces an upper bound alone, as fair training does; a lower
bound is the adversary's knowledge, used by the correction only.  An
upper-only repair always exists: predictions all 0 leave a slice no gap.
Each tolerance's cells are ``corrector._SolvedCell``s, whose flips
``RepairState.apply`` scatters into one copy of the predictions and whose
counts give ``RepairState.unfairness`` with no rescan of the predictions;
``repair_predictions`` is the one-tolerance form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ..core import FairnessMetric, FairnessSpec, column
from ..corrector import _flip_all, _group_gap, _metric_lattices, _repair_slice, _SolvedCell
from ..errors import BadParameters, EmptySlice, EmptyVector, LengthMismatch, SchemaError
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


class RepairState:
    """A table's tolerance-free repair inputs for one metric: its slices and
    the lattice of each.  Build it once; :meth:`solve` repairs a whole list
    of tolerances at once and :meth:`apply` builds one tolerance's repaired
    predictions."""

    def __init__(
        self,
        yhat: np.ndarray,
        margins: np.ndarray,
        sensitive: np.ndarray,
        labels: np.ndarray,
        metric: FairnessMetric,
    ) -> None:
        # checked, but kept in the caller's dtype, bool included, which the repair keeps
        self.yhat = np.asarray(yhat)
        checked = [column(yhat, "predictions", high=2), column(sensitive, "sensitive", high=2),
                   column(labels, "labels", high=2), column(margins, "margins", np.float64, np.inf)]
        if len({arr.size for arr in checked}) > 1:
            raise LengthMismatch("repair columns differ in length")
        _, sensitive, labels, margins = checked
        self.parts = _metric_lattices(
            FairnessMetric(metric), labels, self.yhat, sensitive, margins[None]
        )

    def solve(self, epsilons: Sequence[float]) -> list[list[_SolvedCell]]:
        """For each tolerance in ``epsilons``: the minimal repair that makes
        the metric hold within it, as one solved lattice cell per slice.
        Each slice's lattice is searched once for all tolerances."""
        if not all(0.0 <= epsilon <= 1.0 for epsilon in epsilons):
            raise BadParameters("epsilon must lie in [0, 1]")
        uppers = [Fraction(epsilon) for epsilon in epsilons]
        slices = [_repair_slice(part, uppers) for part in self.parts]
        return [[cells[t] for cells in slices] for t in range(len(uppers))]

    def apply(self, repair: list[_SolvedCell]) -> np.ndarray:
        """The predictions one result of :meth:`solve` repairs."""
        return _flip_all(self.yhat, [cell.changed for cell in repair])[0]

    def unfairness(self, repair: list[_SolvedCell]) -> Fraction:
        """``core.unfairness_exact`` of :meth:`apply`'s predictions, from the counts."""
        if not repair:
            raise EmptySlice("metric slice contains zero examples")
        return max(_group_gap(cell.lattice.counts, cell.u, cell.v, True) for cell in repair)


def repair_predictions(
    yhat: np.ndarray,
    margins: np.ndarray,
    sensitive: np.ndarray,
    labels: np.ndarray,
    spec: FairnessSpec,
) -> np.ndarray:
    """Minimally flip predictions so that ``spec`` holds, groups held fixed.
    The repair takes an upper bound only."""
    if spec.epsilon_lower is not None:
        raise BadParameters("the prediction repair takes no lower bound")
    state = RepairState(yhat, margins, sensitive, labels, spec.metric)
    return state.apply(state.solve([spec.epsilon])[0])

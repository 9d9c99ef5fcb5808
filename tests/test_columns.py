"""Every public record and function that takes arrays checks them with
``core.column``.

Each entry point gets valid columns, then one column at a time is broken in
each way below.  Whatever the mutation, the call returns or raises a
``FairleakError``; where the mutation breaks the column's rule, it raises.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairleak.adversary import AttackSet, label_log_joint, predict_guess, shape_confidences
from fairleak.adversary import train_baseline
from fairleak.core import AttackInstance, reconstruction_accuracy, slice_for_metric
from fairleak.core import unfairness, unfairness_exact
from fairleak.corrector import RepairState
from fairleak.errors import FairleakError
from fairleak.estimator import estimate_constraint
from fairleak.harness import DatasetTable, ExternalGuess, FeatureColumn
from fairleak.nb import fit_naive_bayes


@dataclass(frozen=True)
class Rule:
    """A column's rule: int64 or float64, finite or not, in [0, high)."""

    integer: bool = True
    high: float | None = None
    finite: bool = True
    distinct: bool = False  # valid columns are drawn without repeats


CODE = Rule()
ID = Rule(distinct=True)
BIT = Rule(high=2)
GROUP = Rule(high=math.inf)
REAL = Rule(integer=False)
WEIGHT = Rule(integer=False, high=math.inf)
RAW = Rule(integer=False, finite=False)

_VALUES = {
    CODE: st.integers(-3, 3),
    BIT: st.integers(0, 1),
    GROUP: st.integers(0, 3),
    REAL: st.floats(-2, 2),
    WEIGHT: st.floats(0, 2),
    RAW: st.floats(0.5, 1),
}

_MODEL = {
    mode: train_baseline(AttackSet({"a": [0, 1, 1]}, [0, 1, 0], [0, 1, 1], [1, 0, 1]), mode)
    for mode in ("a", "aprime")
}


@dataclass(frozen=True)
class Entry:
    columns: dict[str, Rule]
    call: Callable[[dict, str], object]  # the columns and a metric

    @property
    def compares_lengths(self) -> bool:
        return len(self.columns) > 1


ENTRIES = {
    "AttackInstance": Entry(
        dict(predictions=BIT, labels=BIT, guess=BIT, confidence=WEIGHT, truth=GROUP),
        lambda c, _: AttackInstance(**c),
    ),
    "AttackSet": Entry(
        dict(a=CODE, labels=BIT, sensitive=BIT, target_predictions=BIT),
        lambda c, _: AttackSet({"a": c["a"]}, c["labels"], c["sensitive"], c["target_predictions"]),
    ),
    "FeatureColumn categorical": Entry(
        dict(values=CODE), lambda c, _: FeatureColumn("categorical", c["values"])
    ),
    "FeatureColumn numeric": Entry(
        dict(values=REAL), lambda c, _: FeatureColumn("numeric", c["values"])
    ),
    "DatasetTable": Entry(
        dict(ids=ID, f=CODE, sensitive=BIT, labels=BIT, predictions=BIT),
        lambda c, _: DatasetTable(
            c["ids"], {"f": FeatureColumn("categorical", c["f"])},
            c["sensitive"], c["labels"], c["predictions"],
        ),
    ),
    "ExternalGuess": Entry(
        dict(ids=ID, guess=CODE, raw_scores=RAW), lambda c, _: ExternalGuess(**c)
    ),
    "fit_naive_bayes": Entry(
        dict(a=CODE, target=BIT), lambda c, _: fit_naive_bayes({"a": c["a"]}, c["target"])
    ),
    "label_log_joint": Entry(
        dict(a=CODE, labels=BIT),
        lambda c, _: label_log_joint(_MODEL["a"], {"a": c["a"]}, c["labels"]),
    ),
    "predict_guess": Entry(
        dict(a=CODE, labels=BIT, predictions=BIT),
        lambda c, _: predict_guess(_MODEL["aprime"], {"a": c["a"]}, c["labels"], c["predictions"]),
    ),
    "estimate_constraint": Entry(
        dict(s=GROUP, yhat=BIT, y=BIT), lambda c, _: estimate_constraint(c["s"], c["yhat"], c["y"])
    ),
    "unfairness": Entry(
        dict(s=GROUP, yhat=BIT, y=BIT), lambda c, m: unfairness(m, c["s"], c["yhat"], c["y"])
    ),
    "unfairness_exact": Entry(
        dict(s=GROUP, yhat=BIT, y=BIT),
        lambda c, m: unfairness_exact(m, c["s"], c["yhat"], c["y"]),
    ),
    # raw scores must also lie in [0.5, 1], a ScoreOutOfRange of their own
    "shape_confidences": Entry(
        dict(raw_scores=RAW), lambda c, _: shape_confidences(c["raw_scores"], 1)
    ),
    "slice_for_metric": Entry(dict(y=BIT), lambda c, m: slice_for_metric(m, c["y"])),
    "reconstruction_accuracy": Entry(
        dict(guess=CODE, truth=CODE), lambda c, _: reconstruction_accuracy(c["guess"], c["truth"])
    ),
    "RepairState": Entry(
        dict(yhat=BIT, margins=WEIGHT, sensitive=BIT, labels=BIT),
        lambda c, m: RepairState(c["yhat"], c["margins"], c["sensitive"], c["labels"], m),
    ),
    "column_log_likelihood": Entry(
        dict(a=CODE), lambda c, _: _MODEL["a"].nb.column_log_likelihood("a", c["a"])
    ),
    "predict_log_joint": Entry(
        dict(a=CODE, labels=CODE),
        lambda c, _: _MODEL["a"].nb.predict_log_joint({"a": c["a"], "__label__": c["labels"]}),
    ),
}


def _mutations(values: list, rule: Rule, at: int, compares_lengths: bool):
    """(mutated column, whether the rule rejects it), for each mutation."""

    def put(value):
        return values[:at] + [value] + values[at + 1:]

    in_range = rule.high not in (None, math.inf)
    yield [values], True  # 2-D
    yield values[0], True  # 0-d
    for value in (math.nan, math.inf, -math.inf):
        yield put(value), rule.finite or rule.integer
    yield put(-1), rule.high is not None
    yield put(0.5), rule.integer
    for value in (2**63, 2**70):
        yield put(value), rule.integer
    yield put(rule.high if in_range else 7), in_range  # the first code past the range
    yield values + values[:1], compares_lengths
    yield values[:-1], compares_lengths
    yield [], compares_lengths
    yield put("a"), True
    yield put(1j), True


@settings(max_examples=20, deadline=None)
@pytest.mark.parametrize("name", list(ENTRIES))
@given(data=st.data())
def test_every_column_is_checked(name, data):
    entry = ENTRIES[name]
    n = data.draw(st.integers(1, 5), "n")
    valid = {
        key: list(range(10, 10 + n)) if rule.distinct
        else data.draw(st.lists(_VALUES[rule], min_size=n, max_size=n), key)
        for key, rule in entry.columns.items()
    }
    at = data.draw(st.integers(0, n - 1), "at")
    metric = data.draw(st.sampled_from(["sp", "pe", "eo", "eodds"]), "metric")
    as_arrays = data.draw(st.booleans(), "as_arrays")
    for key, rule in entry.columns.items():
        for mutated, rejected in _mutations(valid[key], rule, at, entry.compares_lengths):
            columns = {**valid, key: mutated}
            if as_arrays:
                columns = {k: np.asarray(v) for k, v in columns.items()}
            try:
                entry.call(columns, metric)
            except FairleakError:
                continue
            assert not rejected, f"{name} accepted {key}={mutated!r}"

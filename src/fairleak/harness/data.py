"""Dataset tables, schema declarations, CSV ingestion and splitting.

A dataset CSV holds an id column, the feature columns, the sensitive column,
the label column and optionally the target model's prediction column; a JSON
schema sidecar names them and declares each feature categorical or numeric.
``split_dataset`` deals a seeded permutation of the rows into thirds: the
target model's training part, its test part and the attack part.  Each
column passes ``core.column``; a table adds the length and distinct-id checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import column
from ..errors import DuplicateId, LengthMismatch, SchemaError
from ._csv import code_cells, codes, float_cells, floats, int_cells, ints, read_columns
from ._csv import write_columns, write_text

CATEGORICAL = "categorical"
NUMERIC = "numeric"


def all_distinct(values: np.ndarray) -> bool:
    """Whether no value repeats, by a sort: numpy's hash-based unique is slower."""
    return bool(np.diff(np.sort(values)).all())


@dataclass(frozen=True, eq=False)
class FeatureColumn:
    """One feature column: integer codes or raw numeric values."""

    kind: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise SchemaError(f"unknown feature kind: {self.kind!r}")
        dtype = np.int64 if self.kind == CATEGORICAL else np.float64
        object.__setattr__(self, "values", column(self.values, "feature values", dtype))

    def take(self, indices: np.ndarray) -> "FeatureColumn":
        return FeatureColumn(self.kind, self.values[indices])


@dataclass(frozen=True, eq=False)
class DatasetTable:
    """A dataset with ids, features, a sensitive column and labels."""

    ids: np.ndarray
    features: dict[str, FeatureColumn]
    sensitive: np.ndarray
    labels: np.ndarray
    predictions: np.ndarray | None = None
    sensitive_cardinality: int = 2

    def __post_init__(self) -> None:
        columns = dict(
            ids=column(self.ids, "ids"),
            sensitive=column(self.sensitive, "sensitive", high=self.sensitive_cardinality),
            labels=column(self.labels, "labels", high=2),
        )
        if self.predictions is not None:
            columns["predictions"] = column(self.predictions, "predictions", high=2)
        sizes = {arr.size for arr in columns.values()}
        if len(sizes | {col.values.size for col in self.features.values()}) > 1:
            raise LengthMismatch("dataset columns differ in length")
        if not all_distinct(columns["ids"]):
            raise DuplicateId("dataset ids are not unique")
        for attr, value in columns.items():
            object.__setattr__(self, attr, value)

    @property
    def n(self) -> int:
        return self.ids.size

    def subset(self, indices: np.ndarray) -> "DatasetTable":
        indices = np.asarray(indices, dtype=np.int64)
        return DatasetTable(
            ids=self.ids[indices],
            features={k: col.take(indices) for k, col in self.features.items()},
            sensitive=self.sensitive[indices],
            labels=self.labels[indices],
            predictions=None if self.predictions is None else self.predictions[indices],
            sensitive_cardinality=self.sensitive_cardinality,
        )


@dataclass(frozen=True)
class DatasetSchema:
    """Column roles for a dataset CSV, normally read from a JSON sidecar."""

    features: dict[str, str]
    id_column: str = "id"
    sensitive_column: str = "s"
    label_column: str = "y"
    prediction_column: str | None = "yhat"
    sensitive_cardinality: int = 2

    def __post_init__(self) -> None:
        for name, kind in self.features.items():
            if kind not in (CATEGORICAL, NUMERIC):
                raise SchemaError(f"feature {name!r} has unknown kind {kind!r}")
        if self.sensitive_cardinality < 2:
            raise SchemaError("sensitive cardinality must be at least 2")

    @classmethod
    def from_json(cls, path: str | Path) -> "DatasetSchema":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read schema file {path}: {exc}") from exc
        try:
            return cls(
                features=dict(payload["features"]),
                id_column=payload.get("id", "id"),
                sensitive_column=payload.get("sensitive", "s"),
                label_column=payload.get("label", "y"),
                prediction_column=payload.get("prediction", "yhat"),
                sensitive_cardinality=int(payload.get("sensitive_cardinality", 2)),
            )
        except (KeyError, TypeError, ValueError, OverflowError, SchemaError) as exc:
            raise SchemaError(f"malformed schema file {path}: {exc}") from exc

    def to_json(self, path: str | Path) -> None:
        payload = {
            "id": self.id_column,
            "sensitive": self.sensitive_column,
            "label": self.label_column,
            "prediction": self.prediction_column,
            "sensitive_cardinality": self.sensitive_cardinality,
            "features": self.features,
        }
        write_text(path, json.dumps(payload, indent=2) + "\n", "schema")


def ingest_csv(path: str | Path, schema: DatasetSchema) -> DatasetTable:
    """Parse and validate a dataset CSV against its schema declaration.

    The file follows the shared CSV rules of :mod:`._csv`.  A categorical
    column's codes index its sorted distinct cells."""
    required = [schema.id_column, schema.sensitive_column, schema.label_column, *schema.features]
    columns = read_columns(path, required)
    ids = ints(columns[schema.id_column], schema.id_column)
    if not all_distinct(ids):
        _, first = np.unique(ids, return_index=True)
        row = int(np.setdiff1d(np.arange(ids.size), first)[0])
        raise DuplicateId(f"row {row + 2}: duplicate id {ids[row]}")
    sensitive = ints(columns[schema.sensitive_column], schema.sensitive_column)
    labels = ints(columns[schema.label_column], schema.label_column)
    pred = schema.prediction_column
    predictions = ints(columns[pred], pred) if pred is not None and pred in columns else None

    features: dict[str, FeatureColumn] = {}
    for name, kind in schema.features.items():
        if kind == NUMERIC:
            features[name] = FeatureColumn(NUMERIC, floats(columns[name], name))
        else:
            features[name] = FeatureColumn(CATEGORICAL, codes(columns[name], name))

    return DatasetTable(
        ids=ids,
        features=features,
        sensitive=sensitive,
        labels=labels,
        predictions=predictions,
        sensitive_cardinality=schema.sensitive_cardinality,
    )


def write_dataset_csv(table: DatasetTable, path: str | Path) -> DatasetSchema:
    """Write a dataset CSV plus its JSON schema sidecar (``<path>.schema.json``).

    Categorical features are written as their integer codes."""
    path = Path(path)
    header = ["id", *table.features, "s", "y"]
    cells = [int_cells(table.ids)]
    for col in table.features.values():
        cells.append((code_cells if col.kind == CATEGORICAL else float_cells)(col.values))
    cells += [code_cells(table.sensitive), code_cells(table.labels)]
    if table.predictions is not None:
        header.append("yhat")
        cells.append(code_cells(table.predictions))
    write_columns(path, header, cells, "dataset")
    schema = DatasetSchema(
        features={name: col.kind for name, col in table.features.items()},
        sensitive_cardinality=table.sensitive_cardinality,
        prediction_column="yhat" if table.predictions is not None else None,
    )
    schema.to_json(path.with_name(path.name + ".schema.json"))
    return schema


def split_dataset(
    table: DatasetTable, seed: int = 0
) -> tuple[DatasetTable, DatasetTable, DatasetTable]:
    """Disjoint, exhaustive, seed-deterministic (train, test, attack) split
    into thirds of a seeded permutation; the first ``n % 3`` parts get one
    row more."""
    perm = np.random.default_rng(seed).permutation(table.n)
    return tuple(table.subset(np.sort(part)) for part in np.array_split(perm, 3))

"""CSV interfaces for single correction instances and external guesses.

Instance files carry ``id,y,yhat,s_hat,confidence[,s_true]``; guess files
carry ``id,s_hat,confidence_raw``.  Both follow the shared CSV rules of
:mod:`._csv`, with ``.`` as the decimal separator; ids must be unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import AttackInstance, CorrectionResult, column
from ..errors import DuplicateId, LengthMismatch, SchemaError
from ._csv import code_cells, fast_columns, float_cells, floats, int_cells, ints, read_columns
from ._csv import write_columns
from .data import all_distinct

INSTANCE_COLUMNS = dict(id=np.int64, y=np.int64, yhat=np.int64, s_hat=np.int64, confidence=float)
GUESS_COLUMNS = dict(id=np.int64, s_hat=np.int64, confidence_raw=float)


def read_instance_csv(path: str | Path) -> tuple[np.ndarray, AttackInstance]:
    """Read one correction instance; returns (ids, instance)."""
    columns = fast_columns(path, INSTANCE_COLUMNS, {"s_true": np.int64})
    columns = columns or read_columns(path, INSTANCE_COLUMNS)
    ids = ints(columns["id"], "id")
    if not all_distinct(ids):
        raise DuplicateId("instance ids are not unique")
    truth = ints(columns["s_true"], "s_true") if "s_true" in columns else None
    guess = ints(columns["s_hat"], "s_hat")
    # the guess alone picks the solver; truth is only scored against it
    cardinality = max(2, int(guess.max(initial=0)) + 1)
    instance = AttackInstance(
        predictions=ints(columns["yhat"], "yhat"),
        labels=ints(columns["y"], "y"),
        guess=guess,
        confidence=floats(columns["confidence"], "confidence"),
        truth=truth,
        cardinality=cardinality,
    )
    return ids, instance


def write_correction_csv(
    path: str | Path, ids: np.ndarray, instance: AttackInstance, result: CorrectionResult
) -> Path:
    """Write the corrected vector next to the instance columns."""
    header = [*INSTANCE_COLUMNS, "s_corrected"]
    cells = [
        int_cells(ids),
        code_cells(instance.labels),
        code_cells(instance.predictions),
        code_cells(instance.guess),
        float_cells(instance.confidence),
        code_cells(result.corrected),
    ]
    if instance.truth is not None:
        header.append("s_true")
        cells.append(code_cells(instance.truth))
    return write_columns(path, header, cells, "corrected instance")


@dataclass(frozen=True, eq=False)
class ExternalGuess:
    """An externally produced guess, keyed by dataset id."""

    ids: np.ndarray
    guess: np.ndarray
    raw_scores: np.ndarray

    def __post_init__(self) -> None:
        ids = column(self.ids, "ids")
        guess = column(self.guess, "guess")
        raw = column(self.raw_scores, "raw_scores", np.float64, finite=False)
        if not ids.size == guess.size == raw.size:
            raise LengthMismatch("guess file columns differ in length")
        if not all_distinct(ids):
            raise DuplicateId("guess ids are not unique")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "guess", guess)
        object.__setattr__(self, "raw_scores", raw)

    def for_ids(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lookup = {int(i): pos for pos, i in enumerate(self.ids)}
        try:
            sel = np.asarray([lookup[int(i)] for i in wanted], dtype=np.int64)
        except KeyError as exc:
            raise SchemaError(f"guess file misses id {exc.args[0]}") from exc
        return self.guess[sel], self.raw_scores[sel]


def read_guess_csv(path: str | Path) -> ExternalGuess:
    """Read an externally produced guess with raw scores."""
    columns = fast_columns(path, GUESS_COLUMNS, {}) or read_columns(path, GUESS_COLUMNS)
    return ExternalGuess(
        ids=ints(columns["id"], "id"),
        guess=ints(columns["s_hat"], "s_hat"),
        raw_scores=floats(columns["confidence_raw"], "confidence_raw"),
    )


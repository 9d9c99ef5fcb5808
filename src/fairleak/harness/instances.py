"""CSV interfaces for single correction instances and external guesses.

Instance files carry ``id,y,yhat,s_hat,confidence[,s_true]``; guess files
carry ``id,s_hat,confidence_raw``.  UTF-8, header required, ``.`` decimal.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..adversary import BaselineGuess
from ..core import AttackInstance
from ..corrector import CorrectionResult
from ..errors import DuplicateId, IoError, ParseError, SchemaError
from .experiment import ExternalGuess

INSTANCE_COLUMNS = ("id", "y", "yhat", "s_hat", "confidence")
GUESS_COLUMNS = ("id", "s_hat", "confidence_raw")


def _read_rows(path: str | Path, required: tuple[str, ...]) -> tuple[list[dict], list[str]]:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"missing columns: {missing}")
        return list(reader), header


def _ints(rows: list[dict], column: str) -> np.ndarray:
    out = []
    for row_no, row in enumerate(rows, start=2):
        try:
            out.append(int(row[column]))
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"row {row_no}, column {column!r}: {row[column]!r} is not an integer"
            ) from exc
    return np.asarray(out, dtype=np.int64)


def _floats(rows: list[dict], column: str) -> np.ndarray:
    out = []
    for row_no, row in enumerate(rows, start=2):
        try:
            out.append(float(row[column]))
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"row {row_no}, column {column!r}: {row[column]!r} is not a number"
            ) from exc
    return np.asarray(out, dtype=np.float64)


def read_instance_csv(path: str | Path) -> tuple[np.ndarray, AttackInstance]:
    """Read one correction instance; returns (ids, instance)."""
    rows, header = _read_rows(path, INSTANCE_COLUMNS)
    ids = _ints(rows, "id")
    if np.unique(ids).size != ids.size:
        raise DuplicateId("instance ids are not unique")
    truth = _ints(rows, "s_true") if "s_true" in header else None
    guess = _ints(rows, "s_hat")
    # the guess alone picks the solver; truth is only scored against it
    cardinality = max(2, int(guess.max(initial=0)) + 1)
    instance = AttackInstance(
        predictions=_ints(rows, "yhat"),
        labels=_ints(rows, "y"),
        guess=guess,
        confidence=_floats(rows, "confidence"),
        truth=truth,
        cardinality=cardinality,
    )
    return ids, instance


def write_correction_csv(
    path: str | Path,
    ids: np.ndarray,
    instance: AttackInstance,
    result: CorrectionResult,
) -> Path:
    """Write the corrected vector next to the instance columns."""
    path = Path(path)
    header = list(INSTANCE_COLUMNS) + ["s_corrected"]
    if instance.truth is not None:
        header.append("s_true")
    lines = [",".join(header)]
    for i in range(instance.n):
        cells = [
            str(int(ids[i])),
            str(int(instance.labels[i])),
            str(int(instance.predictions[i])),
            str(int(instance.guess[i])),
            f"{float(instance.confidence[i]):.12g}",
            str(int(result.corrected[i])),
        ]
        if instance.truth is not None:
            cells.append(str(int(instance.truth[i])))
        lines.append(",".join(cells))
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write corrected instance to {path}: {exc}") from exc
    return path


def read_guess_csv(path: str | Path) -> ExternalGuess:
    """Read an externally produced guess with raw scores."""
    rows, _ = _read_rows(path, GUESS_COLUMNS)
    ids = _ints(rows, "id")
    if np.unique(ids).size != ids.size:
        raise DuplicateId("guess ids are not unique")
    return ExternalGuess(
        ids=ids,
        guess=_ints(rows, "s_hat"),
        raw_scores=_floats(rows, "confidence_raw"),
    )


def write_guess_csv(path: str | Path, ids: np.ndarray, guess: BaselineGuess) -> Path:
    """Export a baseline guess in the external-guess format."""
    path = Path(path)
    lines = [",".join(GUESS_COLUMNS)]
    for i in range(guess.guess.size):
        lines.append(
            f"{int(ids[i])},{int(guess.guess[i])},{float(guess.raw_scores[i]):.12g}"
        )
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write guess file to {path}: {exc}") from exc
    return path

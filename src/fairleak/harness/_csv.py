"""The CSV column reader and writer behind every fairleak file kind.

Files are UTF-8, a leading byte-order mark skipped, with a header row; any
other encoding, or a field over ``csv``'s size limit, is a ``ParseError`` that
names the file.  Blank lines are skipped, so row numbers count records, the
header being row 1.  Columns and cells beyond those asked for are ignored; a
short row leaves ``None`` in its missing cells, which every converter rejects.

Instance and guess files are read in one ``np.loadtxt`` call unless they hold
a quote, NUL, ``\\x1c``-``\\x1f``, non-ASCII text, a line that may hold a field
over that limit, no rows or a cell it rejects.
Those, other files and every error take the per-column path: one C-level
pass of ``int`` or ``float`` per column, and a walk cell by cell of a column
that fails, to name its first bad cell.  Id and float columns are written
cell by cell, code columns once per code.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import IoError, ParseError, SchemaError


def read_columns(path: str | Path, required: Iterable[str]) -> dict[str, tuple]:
    """Each header column's raw cells by name; a repeated name means its last column."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise SchemaError(f"missing columns: {missing}")
            rows = list(filter(None, reader))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc
        except csv.Error as exc:  # a field over the size limit
            raise ParseError(f"{path}, line {reader.line_num}: {exc}") from exc
    if rows and min(map(len, rows)) < len(header):
        rows = [row + [None] * (len(header) - len(row)) for row in rows]
    columns = list(zip(*rows)) or [()] * len(header)
    return {name: columns[i] for i, name in enumerate(header)}


def fast_columns(path: str | Path, kinds: dict, optional: dict) -> dict[str, np.ndarray] | None:
    """The ``kinds`` columns, and the header's ``optional`` ones, in one ``np.loadtxt`` call;
    None where ``read_columns`` with ``ints`` and ``floats`` might read the file otherwise."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        # csv.reader splits a line with no quote or NUL at every comma, and refuses a
        # field over its size limit, which spans an aligned block of half the limit;
        # loadtxt reads some non-ASCII letters as digits and \x1c-\x1f as spaces
        half = csv.field_size_limit() // 2
        clean = text.isascii() and not any(c in text for c in '"\0\x1c\x1d\x1e\x1f')
        clean &= all(text.find("\n", k, k + half) >= 0 for k in range(0, len(text) - half, half))
        where = {name: i for i, name in enumerate(text.partition("\n")[0].split(","))}
        kinds = {**kinds, **{name: kind for name, kind in optional.items() if name in where}}
        if not (clean and kinds.keys() <= where.keys()):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # such as an empty body's
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=1,
                               usecols=[where[n] for n in kinds], dtype=list(kinds.items()),
                               encoding="utf-8-sig")
    except (OSError, ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    return {name: table[name].copy() for name in kinds}


def _convert(cells: Sequence, column: str, kind: Callable, what: str) -> list:
    try:
        return list(map(kind, cells))
    except (TypeError, ValueError):
        for row, raw in enumerate(cells, start=2):
            try:
                kind(raw)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"row {row}, column {column!r}: {raw!r} is not {what}") from exc
        raise


def ints(cells: Sequence, column: str) -> np.ndarray:
    try:
        # numpy calls int() on each str cell, as _convert does
        return np.array(cells, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        values = _convert(cells, column, int, "an integer")
    i = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
    raise ParseError(f"row {i + 2}, column {column!r}: {cells[i]!r} is out of range")


def floats(cells: Sequence, column: str) -> np.ndarray:
    if isinstance(cells, np.ndarray):  # read by fast_columns; ints copies such a column
        return cells
    return np.array(_convert(cells, column, float, "a number"), dtype=np.float64)


def codes(cells: Sequence, column: str) -> np.ndarray:
    """A text column as codes into its sorted distinct cells."""
    if None in cells:
        raise ParseError(f"row {cells.index(None) + 2}, column {column!r}: the cell is missing")
    index = {c: i for i, c in enumerate(sorted(set(cells)))}
    return np.array(list(map(index.__getitem__, cells)), dtype=np.int64)


def int_cells(values) -> list[str]:
    # whole columns through tolist(): indexing numpy scalars per cell is slow
    return list(map(str, np.asarray(values, dtype=np.int64).tolist()))


def code_cells(values) -> list[str]:
    """Cells of a code column (labels, predictions, groups, categories)."""
    distinct, inverse = np.unique(np.asarray(values, dtype=np.int64), return_inverse=True)
    return np.array(int_cells(distinct), dtype=object)[inverse].tolist()


def float_cells(values) -> list[str]:
    return [f"{v:.12g}" for v in np.asarray(values, dtype=np.float64).tolist()]


def write_text(path: str | Path, text: str, what: str) -> Path:
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc
    return path


def write_columns(path: str | Path, header: Sequence[str], cells: Sequence, what: str) -> Path:
    """Write equal-length columns of formatted cells under their header."""
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True))]
    return write_text(path, "\n".join(lines) + "\n", what)

import csv
import dataclasses
import math
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import meets_spec
from fairleak.adversary import (
    MODE_A,
    MODE_A_PRIME,
    AttackSet,
    predict_guess,
    train_baseline,
)
from fairleak.core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    slice_for_metric,
    unfairness,
    unfairness_exact,
)
from fairleak.corrector import RepairState, correct, repair_predictions
from fairleak.errors import (
    BadParameters,
    DegenerateClasses,
    DuplicateId,
    EmptySlice,
    EmptyVector,
    Infeasible,
    ParseError,
    SchemaError,
    UnsupportedCardinality,
)
from fairleak.harness import (
    DatasetSchema,
    DatasetTable,
    ExperimentConfig,
    ExternalGuess,
    FeatureColumn,
    emit_report,
    fit_label_predictor,
    ingest_csv,
    read_guess_csv,
    read_instance_csv,
    run_experiment,
    split_dataset,
    synth_generate,
    write_correction_csv,
    write_dataset_csv,
)
from fairleak.harness import CATEGORICAL, NUMERIC, _csv, experiment, instances, predictor
from fairleak.harness.data import all_distinct
from fairleak.harness.experiment import _train_attack_model
from fairleak.harness.predictor import encode_features, fit_discretizer
from fairleak.nb import fit_naive_bayes
from test_cli import _GUESS, _INSTANCE, _POOL, _file

SP = FairnessMetric.SP


def _schema():
    return DatasetSchema(features={"f0": "categorical", "x": "numeric"})


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestCsv:
    def test_round_trip(self, tmp_path):
        path = _write(tmp_path, "id,f0,x,s,y\n1,a,0.5,0,1\n2,b,1.5,1,0\n3,a,2.5,0,1\n")
        table = ingest_csv(path, _schema())
        assert table.n == 3
        # codes index the sorted distinct cells
        assert table.features["f0"].values.tolist() == [0, 1, 0]
        assert table.features["x"].values.tolist() == [0.5, 1.5, 2.5]
        assert table.predictions is None

    def test_missing_sensitive_column(self, tmp_path):
        path = _write(tmp_path, "id,f0,x,y\n1,a,0.5,1\n")
        with pytest.raises(SchemaError):
            ingest_csv(path, _schema())

    def test_duplicate_id(self, tmp_path):
        path = _write(tmp_path, "id,f0,x,s,y\n1,a,0.5,0,1\n1,b,1.5,1,0\n")
        with pytest.raises(DuplicateId):
            ingest_csv(path, _schema())

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = _write(tmp_path, "id,f0,x,s,y\n1,a,zap,0,1\n")
        with pytest.raises(ParseError, match="row 2.*'x'"):
            ingest_csv(path, _schema())

    def test_prediction_column_picked_up(self, tmp_path):
        path = _write(tmp_path, "id,f0,x,s,y,yhat\n1,a,0.5,0,1,1\n2,b,0.5,1,0,0\n")
        table = ingest_csv(path, _schema())
        assert table.predictions.tolist() == [1, 0]

    def test_sensitive_cardinality_enforced(self, tmp_path):
        path = _write(tmp_path, "id,f0,x,s,y\n1,a,0.5,5,1\n")
        with pytest.raises(SchemaError):
            ingest_csv(path, _schema())

    def test_schema_cardinality_beyond_float_range(self, tmp_path):
        path = _write(tmp_path, '{"features": {}, "sensitive_cardinality": 1e400}', "s.json")
        with pytest.raises(SchemaError, match="malformed schema file"):
            DatasetSchema.from_json(path)

    def test_non_finite_numeric_feature(self, tmp_path):
        path = _write(tmp_path, "id,f0,x,s,y\n1,a,0.5,0,1\n2,b,inf,1,0\n")
        with pytest.raises(SchemaError, match="^feature values must be finite$"):
            ingest_csv(path, _schema())

    def test_dataset_csv_round_trip(self, tmp_path):
        table = synth_generate(40, seed=3)
        path = tmp_path / "synth.csv"
        schema = write_dataset_csv(table, path)
        again = ingest_csv(path, schema)
        assert again.n == table.n
        assert again.sensitive.tolist() == table.sensitive.tolist()
        assert again.labels.tolist() == table.labels.tolist()


# One valid two-row file of each kind, with the reader that takes it; the
# shared CSV rules hold for all three.
_FILES = {
    "dataset": ("id,f0,x,s,y", ["1,a,0.5,0,1", "2,b,1.5,1,0"]),
    "instance": ("id,y,yhat,s_hat,confidence", ["1,0,1,1,0.5", "2,1,0,0,0.25"]),
    "guess": ("id,s_hat,confidence_raw", ["1,1,0.5", "2,0,0.75"]),
}
_READERS = {
    "dataset": lambda path: ingest_csv(path, _schema()),
    "instance": read_instance_csv,
    "guess": read_guess_csv,
}
_KINDS = pytest.mark.parametrize("kind", list(_FILES))


def _read(tmp_path, kind, lines, prefix=""):
    path = _write(tmp_path, prefix + "\n".join(lines) + "\n", f"{kind}.csv")
    return _READERS[kind](path)


def _ids(parsed):
    ids = parsed[0] if isinstance(parsed, tuple) else parsed.ids
    return ids.tolist()


class TestCsvRules:
    @_KINDS
    def test_blank_lines_are_skipped_and_rows_count_records(self, tmp_path, kind):
        header, rows = _FILES[kind]
        assert _ids(_read(tmp_path, kind, [header, "", rows[0], "", "", rows[1], ""])) == [1, 2]
        with pytest.raises(ParseError, match=r"^row 3, column 'id': 'zap' is not an integer$"):
            _read(tmp_path, kind, [header, "", rows[0], "", "zap" + rows[1][1:]])

    @_KINDS
    def test_extra_cells_and_columns_are_ignored(self, tmp_path, kind):
        header, rows = _FILES[kind]
        lines = [header + ",note", rows[0] + ",hello", rows[1] + ",x,y,z"]
        assert _ids(_read(tmp_path, kind, lines)) == [1, 2]

    @_KINDS
    def test_quoted_cells_and_padded_numbers_are_read(self, tmp_path, kind):
        header, rows = _FILES[kind]
        quoted = ",".join(f'"{cell}"' for cell in rows[0].split(","))
        padded = ",".join(f" {cell} " for cell in rows[1].split(","))
        plain = _read(tmp_path, kind, [header, *rows])
        parsed = _read(tmp_path, kind, [header, quoted, padded])
        assert _ids(parsed) == [1, 2]
        if kind == "dataset":
            # categories are raw text: the padding is kept, and " b " sorts first
            assert parsed.features["f0"].values.tolist() == [1, 0]
            assert parsed.features["x"].values.tolist() == [0.5, 1.5]
        elif kind == "instance":
            assert parsed[1].confidence.tolist() == plain[1].confidence.tolist()
            assert parsed[1].guess.tolist() == plain[1].guess.tolist()
        else:
            assert parsed.raw_scores.tolist() == plain.raw_scores.tolist()

    @_KINDS
    def test_duplicate_ids(self, tmp_path, kind):
        header, rows = _FILES[kind]
        message = {
            "dataset": "^row 3: duplicate id 1$",
            "instance": "^instance ids are not unique$",
            "guess": "^guess ids are not unique$",
        }[kind]
        with pytest.raises(DuplicateId, match=message):
            _read(tmp_path, kind, [header, rows[0], "1" + rows[1][1:]])

    @_KINDS
    def test_missing_column_and_empty_file(self, tmp_path, kind):
        header, rows = _FILES[kind]
        with pytest.raises(SchemaError, match=r"^missing columns: \['id'\]$"):
            _read(tmp_path, kind, ["ident" + header[2:], *rows])
        path = _write(tmp_path, "", "empty.csv")
        with pytest.raises(SchemaError, match="^missing columns: "):
            _READERS[kind](path)

    @_KINDS
    def test_leading_byte_order_mark_is_accepted(self, tmp_path, kind):
        header, rows = _FILES[kind]
        assert _ids(_read(tmp_path, kind, [header, *rows], prefix="\ufeff")) == [1, 2]

    @_KINDS
    def test_integer_beyond_int64_is_a_parse_error(self, tmp_path, kind):
        header, rows = _FILES[kind]
        big = "99999999999999999999"
        with pytest.raises(ParseError, match=rf"^row 3, column 'id': '{big}' is out of range"):
            _read(tmp_path, kind, [header, rows[0], big + rows[1][1:]])

    @_KINDS
    def test_short_row_is_a_parse_error(self, tmp_path, kind):
        header, rows = _FILES[kind]
        last = header.split(",")[-1]
        short = rows[1].rsplit(",", 1)[0]
        what = "an integer" if kind == "dataset" else "a number"
        with pytest.raises(ParseError, match=rf"^row 3, column '{last}': None is not {what}$"):
            _read(tmp_path, kind, [header, rows[0], short])

    def test_short_row_missing_a_categorical_cell(self, tmp_path):
        with pytest.raises(ParseError, match=r"^row 3, column 'f0': the cell is missing$"):
            _read(tmp_path, "dataset", ["id,x,s,y,f0", "1,0.5,0,1,a", "2,1.5,1,0"])

    @_KINDS
    def test_non_utf8_file_is_a_parse_error_naming_it(self, tmp_path, kind):
        header, rows = _FILES[kind]
        path = tmp_path / f"{kind}.csv"
        text = "\n".join([header, *rows]) + "\n"
        path.write_bytes(text.encode().replace(b"1", b"\xe9", 1))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))} is not UTF-8 text"):
            _READERS[kind](path)

    @pytest.mark.parametrize(
        "column, value, message",
        [("y", "2", "labels must be 0 or 1"), ("s_hat", "-1", "guess must be 0 or 1")],
        ids=["y", "s_hat"],
    )
    def test_out_of_range_instance_value_is_a_schema_error(
        self, tmp_path, column, value, message
    ):
        header, rows = _FILES["instance"]
        cells = rows[1].split(",")
        cells[header.split(",").index(column)] = value
        with pytest.raises(SchemaError, match=f"^{message}$"):
            _read(tmp_path, "instance", [header, rows[0], ",".join(cells)])



def _per_cell_columns(path, required):
    """The CSV reader as it padded every row to the header's width."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"missing columns: {missing}")
        rows = [row + [None] * (len(header) - len(row)) for row in reader if row]
    columns = list(zip(*rows)) or [()] * len(header)
    return {name: columns[i] for i, name in enumerate(header)}


def _per_cell_convert(cells, column, kind, what):
    values = []
    for row, raw in enumerate(cells, start=2):
        try:
            values.append(kind(raw))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"row {row}, column {column!r}: {raw!r} is not {what}") from exc
    return values


def _per_cell_ints(cells, column):
    values = _per_cell_convert(cells, column, int, "an integer")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise ParseError(f"row {i + 2}, column {column!r}: {cells[i]!r} is out of range") from None


def _per_cell_floats(cells, column):
    return np.array(_per_cell_convert(cells, column, float, "a number"), dtype=np.float64)


def _per_cell_codes(cells, column):
    if None in cells:
        raise ParseError(f"row {cells.index(None) + 2}, column {column!r}: the cell is missing")
    index = {c: i for i, c in enumerate(sorted(set(cells)))}
    return np.array([index[c] for c in cells], dtype=np.int64)


_CONVERTERS = [
    (_csv.ints, _per_cell_ints),
    (_csv.floats, _per_cell_floats),
    (_csv.codes, _per_cell_codes),
]


def _outcome(convert, cells):
    """What a converter makes of a column: its values bit for bit, or the
    text of the ParseError it raises."""
    try:
        got = convert(cells, "c")
    except ParseError as exc:
        return "error", str(exc)
    return got.dtype.str, got.shape, got.tobytes()


class TestColumnConverters:
    """Whole-column conversion gives the per-cell loop's values and errors."""

    CELLS = [*_POOL, None, " 1", "+1", "1_0", "\u0661", "1_0.5", "0x10", "infinity"]
    BIG = "99999999999999999999"

    @pytest.mark.parametrize("convert, reference", _CONVERTERS, ids=["ints", "floats", "codes"])
    def test_every_cell_in_every_position(self, convert, reference):
        for cell in self.CELLS:
            # alone, after and before good cells, and on either side of an
            # integer out of range, which ints reports only if no cell is bad
            for cells in ((cell,), ("0", cell), (cell, "1"), ("1", cell, self.BIG), (self.BIG, cell)):
                assert _outcome(convert, cells) == _outcome(reference, cells), cells

    @pytest.mark.parametrize("convert, reference", _CONVERTERS, ids=["ints", "floats", "codes"])
    def test_columns_drawn_from_the_pool(self, convert, reference, rng):
        good = ["0", "1", "2", "-1", " 1", "+1", "1_0", "\u0661"]
        for _ in range(200):
            cells = tuple(rng.choice(good, int(rng.integers(0, 6))).tolist())
            if rng.random() < 0.5:
                spot = int(rng.integers(0, len(cells) + 1))
                cells = (*cells[:spot], self.CELLS[rng.integers(len(self.CELLS))], *cells[spot:])
            assert _outcome(convert, cells) == _outcome(reference, cells), cells

    def test_empty_column(self):
        for convert, reference in _CONVERTERS:
            assert _outcome(convert, ()) == _outcome(reference, ())

    def test_code_cells_format_each_code_once(self, rng):
        for values in (
            rng.integers(0, 2, 500),
            rng.integers(-3, 40, 500),
            np.array([2**63 - 1, -(2**63), 0, 2**63 - 1]),
            np.array([True, False, True]),
            np.zeros(0, dtype=np.int64),
        ):
            cells = _csv.code_cells(values)
            assert cells == _csv.int_cells(values)
            assert all(type(c) is str for c in cells)


class TestCsvFraming:
    """A file's framing reads as the per-cell reader reads it."""

    @staticmethod
    def _framed(tmp_path, header, rows, rng):
        """``rows`` under ``header`` with a byte-order mark, CRLF endings,
        quoted cells, blank lines and extra trailing cells."""
        lines = []
        for row in rows:
            cells = [f'"{c}"' if rng.random() < 0.3 else c for c in row]
            cells += ["extra"] * int(rng.integers(0, 3) == 0)
            lines.append(",".join(cells))
            lines += [""] * int(rng.integers(0, 4) == 0)
        path = tmp_path / "framed.csv"
        path.write_bytes(("\ufeff" + "\r\n".join([header, *lines]) + "\r\n").encode("utf-8"))
        return path

    def _rows(self, rng, n, kinds):
        """n rows of cells: ids, 0/1 codes, floats or text, per kind."""
        ids = rng.permutation(3 * n)[:n]
        make = {
            "id": lambda i: str(ids[i]),
            "bit": lambda i: str(rng.integers(0, 2)),
            "float": lambda i: repr(float(rng.random())),
            "text": lambda i: str(rng.choice(["a", "b", "c d"])),
        }
        return [[make[kind](i) for kind in kinds] for i in range(n)]

    def test_instance_file(self, tmp_path, rng):
        # the second y column is the one read
        header = "id,y,yhat,s_hat,confidence,s_true,y"
        kinds = ["id", "bit", "bit", "bit", "float", "bit", "bit"]
        path = self._framed(tmp_path, header, self._rows(rng, 300, kinds), rng)
        columns = _csv.read_columns(path, ())
        assert columns == _per_cell_columns(path, ())
        ids, inst = read_instance_csv(path)
        assert ids.tobytes() == _per_cell_ints(columns["id"], "id").tobytes()
        for got, name in (
            (inst.labels, "y"), (inst.predictions, "yhat"), (inst.guess, "s_hat"),
            (inst.truth, "s_true"),
        ):
            assert got.tobytes() == _per_cell_ints(columns[name], name).tobytes()
        want = _per_cell_floats(columns["confidence"], "confidence")
        assert inst.confidence.tobytes() == want.tobytes()

    def test_dataset_file(self, tmp_path, rng):
        header = "id,f0,x,s,y,f0"
        kinds = ["id", "text", "float", "bit", "bit", "text"]
        path = self._framed(tmp_path, header, self._rows(rng, 300, kinds), rng)
        columns = _csv.read_columns(path, ())
        assert columns == _per_cell_columns(path, ())
        table = ingest_csv(path, _schema())
        codes = _per_cell_codes(columns["f0"], "f0")
        assert table.features["f0"].values.tobytes() == codes.tobytes()
        assert table.features["x"].values.tobytes() == _per_cell_floats(columns["x"], "x").tobytes()
        assert table.labels.tobytes() == _per_cell_ints(columns["y"], "y").tobytes()

    def test_short_rows_are_padded_as_before(self, tmp_path, rng):
        rows = self._rows(rng, 40, ["id", "bit", "bit", "bit", "float"])
        for r in (0, 17, 39):
            del rows[r][int(rng.integers(0, 5)):]
        path = self._framed(tmp_path, "id,y,yhat,s_hat,confidence", rows, rng)
        assert _csv.read_columns(path, ()) == _per_cell_columns(path, ())


def _read_outcome(read, path):
    """What a reader makes of a file: each array's dtype and bytes, or the
    type and text of what it raises."""
    try:
        got = read(path)
    except Exception as exc:  # the two paths must fail alike
        return type(exc).__name__, str(exc)
    if isinstance(got, tuple):
        ids, inst = got
        arrays = [ids, inst.labels, inst.predictions, inst.guess, inst.confidence, inst.truth]
        arrays.append(np.array(inst.cardinality))
    else:
        arrays = [got.ids, got.guess, got.raw_scores]
    return [None if a is None else (a.dtype.str, a.tobytes()) for a in arrays]


def _fast_columns_agree(path, kinds, optional):
    """fast_columns declines the file, or reads each column as read_columns
    with ints and floats do; whether it read the file."""
    fast = _csv.fast_columns(path, kinds, optional)
    if fast is None:
        return False
    columns = _csv.read_columns(path, kinds)
    assert fast.keys() == kinds.keys() | (optional.keys() & columns.keys())
    for name, got in fast.items():
        kind = {**kinds, **optional}[name]
        convert = _csv.floats if np.dtype(kind) == np.float64 else _csv.ints
        want = convert(columns[name], name)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
    return True


def _both_paths_agree(path):
    """Both readers give the same outcome with and without the one-call path;
    whether that path read the file as an instance or as a guess file."""
    read = []
    for reader, kinds, optional in (
        (read_instance_csv, instances.INSTANCE_COLUMNS, {"s_true": np.int64}),
        (read_guess_csv, instances.GUESS_COLUMNS, {}),
    ):
        fast = _read_outcome(reader, path)
        with mock.patch.object(instances, "fast_columns", lambda *args: None):
            assert fast == _read_outcome(reader, path), path.read_bytes()
        read.append(_fast_columns_agree(path, kinds, optional))
    return any(read)


def _instance_rows(rng, n):
    """n rows of id,y,yhat,s_hat,confidence,s_true cells."""
    bits = rng.integers(0, 2, (n, 4)).astype(str).tolist()
    return [[str(i), *b[:3], repr(float(rng.random())), b[3]] for i, b in enumerate(bits)]


# cells of every kind the one-call path might read otherwise than int() and
# float(): signed zero and NaN, under- and overflow, long mantissas, padding,
# signs, underscores, non-ASCII digits, int64's ends and the numbers past them
_EDGE_FLOATS = [
    "-0.0", "-0", "-nan", "nan", "NaN", "1e-400", "1e999", "-inf", "Infinity",
    "0.1000000000000000055511151231257827021181583404541015625", "0.30000000000000004",
    "1.7976931348623157e308", "5e-324", "1234567890123456789012345678901234567890.5",
]
_EDGE_CELLS = [
    *_EDGE_FLOATS, " 1 ", "+1", "+0.5", "\xa01\xa0", "　1　", "\t0.5", "1_0", "1_0.5", "١",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "1.0", "1e3", "0x10", "", " ", ".5", "5.", "1,0", "#1",
    "\u01fe", "1\u04fe",  # letters that np.loadtxt reads as digits
]


class TestFastColumns:
    """The one-call reader declines a file or reads it as the per-column path does."""

    @staticmethod
    def _column_file(tmp_path, cells, column):
        """An instance file whose ``column`` holds ``cells``; a None cell cuts
        its row short there."""
        rows = _instance_rows(np.random.default_rng(len(cells)), len(cells))
        at = ["id", "y", "yhat", "s_hat", "confidence", "s_true"].index(column)
        for row, cell in zip(rows, cells):
            if cell is None:
                del row[at:]
            else:
                row[at] = cell
        lines = ["id,y,yhat,s_hat,confidence,s_true", *map(",".join, rows)]
        return _write(tmp_path, "\n".join(lines) + "\n", "column.csv")

    def test_converter_cases_through_both_paths(self, tmp_path, rng):
        cases = [
            cells
            for cell in TestColumnConverters.CELLS
            for cells in ((cell,), ("0", cell), (cell, "1"), ("1", cell, TestColumnConverters.BIG),
                          (TestColumnConverters.BIG, cell))
        ]
        good = ["0", "1", "2", "-1", " 1", "+1", "1_0", "١"]
        for _ in range(40):
            cells = tuple(rng.choice(good, int(rng.integers(1, 6))).tolist())
            spot = int(rng.integers(0, len(cells) + 1))
            cases.append((*cells[:spot], rng.choice(TestColumnConverters.CELLS), *cells[spot:]))
        for cells in cases:
            for column in ("id", "confidence"):
                _both_paths_agree(self._column_file(tmp_path, cells, column))

    def test_edge_cells_and_every_padding_character(self, tmp_path):
        space = [chr(c) for c in range(0x3001) if chr(c).isspace()]
        cells = [*_EDGE_CELLS, *(f"{c}1{c}" for c in [*space, "\u200b", "\ufeff", "\x00", "\x7f"])]
        read = {
            column: {
                cell for cell in cells
                if _both_paths_agree(self._column_file(tmp_path, ("0", cell), column))
            }
            for column in ("id", "confidence")
        }
        # ASCII spaces pad a cell alike on both paths; other spaces decline
        padded = {f"{c}1{c}" for c in " \t\x0b\x0c"}
        ends = {"9223372036854775807", "-9223372036854775808"}
        assert read["id"] == {"-0", "+1", *padded, *ends}
        assert read["confidence"] >= {*_EDGE_FLOATS, "+1", "+0.5", "\t0.5", *padded}

    def test_framed_and_plain_twins(self, tmp_path, rng):
        framing = TestCsvFraming()
        kinds = ["id", "bit", "bit", "bit", "float", "bit", "bit"]
        rows = framing._rows(rng, 50, kinds)
        header = "id,y,yhat,s_hat,confidence,y,s_true"
        framed = framing._framed(tmp_path, header, rows, rng)
        assert not _both_paths_agree(framed)
        plain = _write(tmp_path, "\n".join([header, *map(",".join, rows)]) + "\n", "plain.csv")
        assert _both_paths_agree(plain)
        # both paths end a line at \r\n and at \r alone
        for end in (b"\r\n", b"\r"):
            twin = tmp_path / "twin.csv"
            twin.write_bytes(plain.read_bytes().replace(b"\n", end))
            assert _both_paths_agree(twin)

    def test_seeded_plain_files(self, tmp_path, rng):
        headers = [
            "id,y,yhat,s_hat,confidence,s_true", "s_true,confidence,s_hat,yhat,y,id,note",
            "id,y,yhat,s_hat,confidence", "id,y,y,yhat,s_hat,confidence,s_hat",
            "id,s_hat,confidence_raw", "confidence_raw,id,s_hat,s_hat", "id,y,s_hat,confidence",
            'id,y,yhat,s_hat,confidence,"s_true"',
        ]
        read = 0
        for _ in range(200):
            header = headers[int(rng.integers(len(headers)))]
            width = header.count(",") + 1
            rows = [row[:width] for row in _instance_rows(rng, int(rng.integers(0, 8)))]
            for row in rows:
                row += ["0.5"] * (width - len(row))
                if rng.random() < 0.1:
                    row[int(rng.integers(width))] = str(rng.choice(_EDGE_CELLS))
                if rng.random() < 0.05:
                    del row[int(rng.integers(width)):]
                if rng.random() < 0.05:
                    row.append("extra")
            lines = [header, *map(",".join, rows)]
            if lines[1:] and rng.random() < 0.1:
                lines.insert(int(rng.integers(1, len(lines))), str(rng.choice(["", " ", "\t"])))
            read += _both_paths_agree(_write(tmp_path, "\n".join(lines) + "\n", "seeded.csv"))
        assert read >= 50  # about a third of the files

    def test_header_only_file_reads_as_before_without_a_warning(self, tmp_path):
        for text in ("id,y,yhat,s_hat,confidence\n", "id,y,yhat,s_hat,confidence\n\n\n"):
            path = _write(tmp_path, text, "header.csv")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert not _both_paths_agree(path)
                ids, inst = read_instance_csv(path)
            assert not caught
            assert ids.size == inst.n == 0 and inst.truth is None

    def test_short_row_in_an_ignored_column_reads_as_before(self, tmp_path):
        text = "id,y,yhat,s_hat,confidence,note\n1,0,1,1,0.5,a\n2,1,0,0,0.25\n"
        assert _both_paths_agree(_write(tmp_path, text, "short.csv"))

    def test_duplicate_ids_come_before_a_bad_cell(self, tmp_path):
        text = "id,y,yhat,s_hat,confidence\n1,0,1,1,0.5\n1,x,0,0,0.25\n"
        path = _write(tmp_path, text, "duplicate.csv")
        with pytest.raises(DuplicateId, match="^instance ids are not unique$"):
            read_instance_csv(path)
        assert not _both_paths_agree(path)


    def test_oversized_field_is_declined_and_named(self, tmp_path):
        # csv.reader refuses a field over its size limit, even in a column no
        # reader asks for, so the one-call path must not read the file either
        for cell in ("1" * 200_000, "b" * 200_000):
            text = f"id,y,yhat,s_hat,confidence,note\n1,0,1,1,0.5,a\n2,1,0,0,0.25,{cell}\n"
            path = _write(tmp_path, text, "long.csv")
            assert not _both_paths_agree(path)
            with pytest.raises(ParseError, match=r"long\.csv, line 3: field larger than"):
                read_instance_csv(path)
        # the same cell in the id column of a guess file
        path = _write(tmp_path, f"id,s_hat,confidence_raw\n{'1' * 200_000},1,0.5\n", "long.csv")
        with pytest.raises(ParseError, match=r"long\.csv, line 2: field larger than"):
            read_guess_csv(path)


@settings(max_examples=80, deadline=None)
@given(instance=_file(_INSTANCE), guess=_file(_GUESS))
def test_fuzzed_files_read_alike_on_both_paths(instance, guess):
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in (("instance.csv", instance), ("guess.csv", guess)):
            path = Path(tmp) / name
            path.write_bytes(payload)
            _both_paths_agree(path)


class TestDistinctIds:
    """Ids are checked by a sort, with every site's error as before."""

    def test_all_distinct_matches_unique(self, rng):
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        cases = [[], [5], [bottom, top], [top, bottom, top], [0, -1, 1, 0], [bottom, bottom]]
        cases += [rng.integers(-50, 50, rng.integers(0, 60)) for _ in range(200)]
        for values in cases:
            values = np.array(values, dtype=np.int64)
            assert all_distinct(values) == (np.unique(values).size == values.size), values

    def test_every_site_raises_its_error(self, tmp_path):
        ids, bits = [3, 1, 3], [0, 1, 0]
        with pytest.raises(DuplicateId, match="^dataset ids are not unique$"):
            DatasetTable(ids=ids, features={}, sensitive=bits, labels=bits)
        with pytest.raises(DuplicateId, match="^guess ids are not unique$"):
            ExternalGuess(ids=ids, guess=bits, raw_scores=[0.5] * 3)
        # the dataset reader names the first repeat's row
        path = _write(tmp_path, "id,f0,x,s,y\n3,a,0.5,0,1\n1,b,1.5,1,0\n3,a,2.5,1,1\n")
        with pytest.raises(DuplicateId, match="^row 4: duplicate id 3$"):
            ingest_csv(path, _schema())
        text = "id,y,yhat,s_hat,confidence\n3,0,1,1,0.5\n1,1,0,0,0.5\n3,0,0,1,0.5\n"
        with pytest.raises(DuplicateId, match="^instance ids are not unique$"):
            read_instance_csv(_write(tmp_path, text, "instance.csv"))
        one_class = AttackSet(features={"f": np.array(bits)}, labels=bits, sensitive=[1, 1, 1])
        with pytest.raises(DegenerateClasses, match="^sensitive column holds a single class$"):
            train_baseline(one_class, MODE_A)
        # distinct ids pass every check
        DatasetTable(ids=[3, 1, 2], features={}, sensitive=bits, labels=bits)
        ExternalGuess(ids=[3, 1, 2], guess=bits, raw_scores=[0.5] * 3)


class TestSplitDataset:
    def test_exact_thirds(self):
        table = synth_generate(12, seed=0).subset(np.arange(9))
        train, test, attack = split_dataset(table, seed=1)
        assert (train.n, test.n, attack.n) == (3, 3, 3)
        all_ids = np.concatenate([train.ids, test.ids, attack.ids])
        assert sorted(all_ids.tolist()) == table.ids.tolist()

    def test_determinism(self):
        table = synth_generate(50, seed=0)
        a = split_dataset(table, seed=7)
        b = split_dataset(table, seed=7)
        for x, y in zip(a, b):
            assert x.ids.tolist() == y.ids.tolist()

    def test_largest_remainder(self):
        # the first n % 3 parts get one row more
        table = synth_generate(12, seed=0)
        for n, sizes in ((10, (4, 3, 3)), (9, (3, 3, 3)), (11, (4, 4, 3))):
            parts = split_dataset(table.subset(np.arange(n)), seed=3)
            assert tuple(part.n for part in parts) == sizes


class TestSynthGenerate:
    def test_determinism(self):
        a = synth_generate(200, seed=5)
        b = synth_generate(200, seed=5)
        assert a.sensitive.tolist() == b.sensitive.tolist()
        assert a.labels.tolist() == b.labels.tolist()
        for name in a.features:
            assert a.features[name].values.tolist() == b.features[name].values.tolist()

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            synth_generate(5)
        with pytest.raises(BadParameters):
            synth_generate(100, rho=1.5)
        with pytest.raises(BadParameters):
            synth_generate(100, beta=-0.1)

    def test_beta_zero_raw_predictor_is_fair(self):
        table = synth_generate(10_000, seed=2, rho=0.6, beta=0.0)
        predictor = fit_label_predictor(table)
        yhat, _ = predictor.raw_predictions(table)
        assert unfairness(SP, table.sensitive, yhat) < 0.03

    def test_rho_zero_gives_chance_level_attack(self):
        from fairleak.adversary import MODE_A, AttackSet, predict_guess, train_baseline
        from fairleak.core import reconstruction_accuracy

        table = synth_generate(10_000, seed=4, rho=0.0)
        train, _, attack = split_dataset(table, seed=4)
        feats = {k: c.values for k, c in attack.features.items()}
        model = train_baseline(
            AttackSet(feats, attack.labels, attack.sensitive), MODE_A
        )
        guess = predict_guess(
            model, {k: c.values for k, c in train.features.items()}, train.labels
        )
        accuracy = reconstruction_accuracy(guess.guess, train.sensitive)
        assert abs(accuracy - 0.5) < 0.03


class TestMakeFairPredictions:
    """The simulated fair target: raw label predictions, then the repair."""

    def _biased_table(self, n=240, seed=1):
        return synth_generate(n, seed=seed, rho=0.8, beta=1.0)

    @staticmethod
    def _fair(t, spec):
        return repair_predictions(
            *fit_label_predictor(t).raw_predictions(t), t.sensitive, t.labels, spec
        )

    def test_epsilon_one_keeps_raw_predictions(self):
        table = self._biased_table()
        predictor = fit_label_predictor(table)
        raw, _ = predictor.raw_predictions(table)
        fair = self._fair(table, FairnessSpec(SP, 1.0))
        assert fair.tolist() == raw.tolist()

    def test_constant_labels_give_constant_predictions(self):
        table = self._biased_table()
        constant = DatasetTable(
            ids=table.ids,
            features=table.features,
            sensitive=table.sensitive,
            labels=np.ones(table.n, dtype=int),
            sensitive_cardinality=2,
        )
        fair = self._fair(constant, FairnessSpec(SP, 0.3))
        assert len(set(fair.tolist())) == 1
        assert meets_spec(FairnessSpec(SP, 0.0), constant.sensitive, fair)

    def test_biased_fixture_repaired_to_exact_parity(self):
        # equal group sizes make exact statistical parity attainable
        table = self._biased_table(n=240, seed=3)
        counts = np.bincount(table.sensitive)
        take = min(counts)
        keep = np.concatenate(
            [np.flatnonzero(table.sensitive == g)[:take] for g in (0, 1)]
        )
        balanced = table.subset(np.sort(keep))
        spec = FairnessSpec(SP, 0.0)
        fair = self._fair(balanced, spec)
        assert meets_spec(spec, balanced.sensitive, fair, balanced.labels)

    def test_eodds_repair(self):
        table = self._biased_table(n=300, seed=5)
        spec = FairnessSpec(FairnessMetric.EODDS, 0.05)
        fair = self._fair(table, spec)
        assert meets_spec(spec, table.sensitive, fair, table.labels)

    def test_repair_touches_something_on_biased_data(self):
        table = self._biased_table()
        predictor = fit_label_predictor(table)
        raw, _ = predictor.raw_predictions(table)
        fair = self._fair(table, FairnessSpec(SP, 0.02))
        assert unfairness(SP, table.sensitive, raw) > 0.02
        assert fair.tolist() != raw.tolist()


class TestRepairState:
    """One state, built once per table, serves every tolerance."""

    TOLERANCES = (0.3, 0.0, 0.001, 0.01, 0.05, 0.2)

    def _raw(self, seed, beta=1.0):
        table = synth_generate(3000, seed=seed, rho=0.8, beta=beta)
        yhat, margins = fit_label_predictor(table).raw_predictions(table)
        return table, yhat, margins

    @pytest.mark.parametrize("metric", list(FairnessMetric))
    def test_reuse_matches_one_shot_repair(self, metric):
        for seed, beta in ((1, 1.0), (2, 1.0), (3, 0.1)):
            table, yhat, margins = self._raw(seed, beta)
            state = RepairState(yhat, margins, table.sensitive, table.labels, metric)
            for eps in self.TOLERANCES:
                reused = state.apply(state.solve([eps])[0])
                one_shot = repair_predictions(
                    yhat, margins, table.sensitive, table.labels, FairnessSpec(metric, eps)
                )
                assert np.array_equal(reused, one_shot)

    def test_one_group_slice_cannot_carry_a_lower_bound(self):
        # slice y=0 holds group 1 alone, so its gap is zero; slice y=1 has
        # groups of ten with 6 and 3 positives, a gap of 3/20 = 0.15
        sensitive = np.array([1] * 5 + [1] * 10 + [0] * 10)
        labels = np.array([0] * 5 + [1] * 20)
        yhat = np.array([1, 0, 1, 0, 0] + [1] * 6 + [0] * 4 + [1] * 3 + [0] * 7)
        margins = np.linspace(0.1, 0.9, 25)
        assert unfairness_exact(FairnessMetric.EODDS, sensitive, yhat, labels) == Fraction(3, 20)
        for eps in (0.3, 0.1):
            spec = FairnessSpec(FairnessMetric.EODDS, eps)
            fair = repair_predictions(yhat, margins, sensitive, labels, spec)
            assert meets_spec(spec, sensitive, fair, labels)
            # the one-group slice is left as it is
            assert np.array_equal(fair[:5], yhat[:5])
        # a table of one group is within any bound as it is
        one = np.zeros(25, dtype=np.int64)
        state = RepairState(yhat, margins, one, labels, SP)
        assert all(np.array_equal(state.apply(r), yhat) for r in state.solve([0.0, 0.1]))
        # fair training enforces an upper bound only
        with pytest.raises(BadParameters, match="no lower bound"):
            repair_predictions(yhat, margins, sensitive, labels, FairnessSpec(SP, 0.3, 0.1))

    @pytest.mark.parametrize("metric", list(FairnessMetric))
    def test_upper_only_repair_always_succeeds(self, rng, metric):
        """Flipping every prediction of a slice to 0 leaves it no gap, so an
        upper-only repair exists for every table: it never raises, and its
        predictions meet the bound exactly, one-group slices included."""
        for trial in range(300):
            n = int(rng.integers(1, 41))
            # whole tables, and single slices, of one group
            sensitive = (rng.random(n) < rng.choice([0.0, 0.1, 0.5, 1.0])).astype(np.int64)
            labels = np.where(rng.random(n) < 0.3, sensitive, rng.integers(0, 2, n))
            yhat = (rng.random(n) < rng.uniform(0.0, 1.0, 2)[sensitive]).astype(np.int64)
            margins = rng.random(n) if trial % 2 else rng.integers(0, 3, n) / 4.0
            for eps in (0.0, 0.1):
                fair = repair_predictions(
                    yhat, margins, sensitive, labels, FairnessSpec(metric, eps)
                )
                if any(idx.size for idx in slice_for_metric(metric, labels)):
                    assert unfairness_exact(metric, sensitive, fair, labels) <= Fraction(eps)
                else:
                    assert np.array_equal(fair, yhat)

    def test_boolean_predictions_repair_like_their_codes(self):
        table, yhat, margins = self._raw(1)
        for metric in FairnessMetric:
            spec = FairnessSpec(metric, 0.01)
            codes = repair_predictions(yhat, margins, table.sensitive, table.labels, spec)
            flags = repair_predictions(yhat == 1, margins, table.sensitive, table.labels, spec)
            assert flags.dtype == bool and np.array_equal(flags, codes)
            assert np.count_nonzero(codes != yhat) > 0


class TestEncodeFeatures:
    """One encoder serves the label predictor and the attack model."""

    @staticmethod
    def _mixed_table(seed):
        table = synth_generate(500, seed=seed)
        rng = np.random.default_rng(seed)
        features = dict(table.features)
        features["x"] = FeatureColumn(NUMERIC, rng.normal(size=table.n))
        features["f9"] = features.pop("f0")
        features["w"] = FeatureColumn(NUMERIC, rng.exponential(size=table.n))
        return dataclasses.replace(table, features=features)

    def test_bins_numeric_and_passes_categorical_in_the_given_order(self):
        table = self._mixed_table(2)
        disc = fit_discretizer(table)
        names = list(table.features)[::-1]
        encoded = encode_features(table, disc, names)
        assert list(encoded) == names
        for name in names:
            col = table.features[name]
            if col.kind == CATEGORICAL:
                want = col.values
            else:
                edges = np.quantile(col.values, np.linspace(0.1, 0.9, 9))
                want = np.searchsorted(edges, col.values, side="right")
                assert np.unique(want).size == 10
            assert np.array_equal(encoded[name], want)

    def test_label_predictor_encodes_in_training_order(self):
        table = self._mixed_table(3)
        model = fit_label_predictor(table)
        assert tuple(model.nb.log_likelihood) == tuple(table.features)
        shuffled = dataclasses.replace(table, features=dict(reversed(table.features.items())))
        for got, want in zip(model.raw_predictions(shuffled), model.raw_predictions(table)):
            assert got.tobytes() == want.tobytes()

    def test_raw_predictions_are_the_row_major_argmax_and_margin(self):
        # code 0 is as likely under either label, and the labels are
        # balanced: its rows tie, and the first label must win
        tied = DatasetTable(
            ids=np.arange(4),
            features={"a": FeatureColumn(CATEGORICAL, np.array([0, 0, 1, 2]))},
            sensitive=np.array([0, 1, 0, 1]),
            labels=np.array([0, 1, 0, 1]),
        )
        for table in (tied, self._mixed_table(4)):
            model = fit_label_predictor(table)
            yhat, margins = model.raw_predictions(table)
            proba = model.nb.predict_proba(
                encode_features(table, model.discretizer, table.features)
            ).T
            assert yhat.dtype == np.int64
            assert np.array_equal(yhat, np.argmax(proba, axis=1))
            want = np.abs(proba[:, 1] - proba[:, 0])
            assert np.array_equal(margins.view(np.int64), want.view(np.int64))
        yhat, margins = fit_label_predictor(tied).raw_predictions(tied)
        assert yhat.tolist() == [0, 0, 0, 1]
        assert margins[0] == margins[1] == 0.0


class TestHoistedAttackModel:
    """A seed's attack model, trained once, gives each cell the guesses the
    per-cell model of that cell gives."""

    @pytest.mark.parametrize("mode", [MODE_A, MODE_A_PRIME])
    def test_matches_a_model_trained_per_cell(self, rng, mode):
        table = synth_generate(3000, seed=4)
        train, _, attack = split_dataset(table, 4)
        hoisted = _train_attack_model(mode, 4, train, attack)
        disc = {
            name: np.quantile(col.values, np.linspace(0.1, 0.9, 9))
            for name, col in attack.features.items()
            if col.kind != CATEGORICAL
        }
        feats_attack = encode_features(attack, disc, attack.features)
        feats_train = encode_features(train, disc, train.features)
        val = hoisted.val_idx
        for _ in range(4):
            yh_train = rng.integers(0, 2, train.n)
            yh_attack = rng.integers(0, 2, attack.n)
            fit_idx = hoisted.fit_idx
            fit = AttackSet(
                features={k: v[fit_idx] for k, v in feats_attack.items()},
                labels=attack.labels[fit_idx],
                sensitive=attack.sensitive[fit_idx],
                target_predictions=yh_attack[fit_idx],
            )
            model = train_baseline(fit, mode)
            aprime = mode == MODE_A_PRIME
            want = (
                predict_guess(model, feats_train, train.labels, yh_train if aprime else None),
                predict_guess(
                    model,
                    {k: v[val] for k, v in feats_attack.items()},
                    attack.labels[val],
                    yh_attack[val] if aprime else None,
                ),
            )
            got = hoisted.guesses(yh_train, yh_attack)
            for mine, ref in zip(got, want):
                assert np.array_equal(mine.guess, ref.guess)
                assert np.array_equal(mine.raw_scores, ref.raw_scores)
            if aprime:
                # one naive Bayes fitted on every column at once, the
                # prediction column last, gives the same probabilities
                joint = fit_naive_bayes(
                    {**fit.features, "y": fit.labels, "yhat": fit.target_predictions},
                    fit.sensitive,
                    class_prior="uniform",
                )
                proba = joint.predict_proba(
                    {**feats_train, "y": train.labels, "yhat": yh_train}
                ).T  # row-major, one row per table row
                assert np.array_equal(got[0].guess, proba.argmax(axis=1))
                assert np.array_equal(
                    got[0].raw_scores, proba[np.arange(train.n), got[0].guess]
                )


class TestRunExperiment:
    def test_epsilon_one_is_noop_correction(self):
        table = synth_generate(600, seed=0)
        config = ExperimentConfig(epsilon_grid=(1.0,), seeds=(0,))
        report = run_experiment(config, table)
        (row,) = report.rows
        assert row.status == "ok"
        assert row.corrected_accuracy == row.baseline_accuracy
        assert row.flips == 0

    def test_truth_as_guess_external_adversary(self):
        table = synth_generate(300, seed=1)
        external = ExternalGuess(
            ids=table.ids,
            guess=table.sensitive,
            raw_scores=np.ones(table.n),
        )
        config = ExperimentConfig(
            epsilon_grid=(0.1,),
            seeds=(0,),
            adversary_mode="external",
            external_guess=external,
        )
        report = run_experiment(config, table)
        (row,) = report.rows
        assert row.status == "ok"
        assert row.baseline_accuracy == 1.0
        assert row.corrected_accuracy == 1.0
        assert row.improvement == 0.0
        assert row.flips == 0

    def test_nan_raw_score_is_out_of_range_in_every_cell(self):
        table = synth_generate(60, seed=1)
        raw_scores = np.full(table.n, 0.75)
        raw_scores[::2] = np.nan  # every training part holds some
        external = ExternalGuess(ids=table.ids, guess=table.sensitive, raw_scores=raw_scores)
        config = ExperimentConfig(
            epsilon_grid=(0.0, 0.1), seeds=(0, 1), adversary_mode="external",
            external_guess=external,
        )
        statuses = {row.status for row in run_experiment(config, table).rows}
        assert statuses == {"ScoreOutOfRange"}

    def test_per_cell_error_isolation(self):
        table = synth_generate(300, seed=2)
        bad_guess = ExternalGuess(
            ids=np.array([10_000]), guess=np.array([0]), raw_scores=np.array([0.9])
        )
        config = ExperimentConfig(
            epsilon_grid=(0.0, 1.0),
            seeds=(0,),
            adversary_mode="external",
            external_guess=bad_guess,
        )
        report = run_experiment(config, table)
        assert len(report.rows) == 2
        assert all(row.status == "SchemaError" for row in report.rows)

    def test_failing_seed_stage_fails_every_cell(self, monkeypatch):
        table = synth_generate(300, seed=2)
        one_group = DatasetTable(
            ids=table.ids,
            features=table.features,
            sensitive=np.zeros(table.n, dtype=np.int64),
            labels=table.labels,
            sensitive_cardinality=2,
        )
        for mode in (MODE_A, MODE_A_PRIME):
            config = ExperimentConfig(epsilon_grid=(0.0, 0.1), seeds=(0, 1), adversary_mode=mode)
            report = run_experiment(config, one_group)
            assert len(report.rows) == 4
            assert all(row.status == "DegenerateClasses" for row in report.rows)

        # a cell whose repair fails records that failure, not the seed's
        forced = []
        solve, apply = RepairState.solve, RepairState.apply

        def solving(self, epsilons):
            repairs = solve(self, epsilons)
            forced.extend(r for epsilon, r in zip(epsilons, repairs) if epsilon == 0.1)
            return repairs

        def applying(self, repair):
            if any(repair is r for r in forced):
                raise Infeasible("forced")
            return apply(self, repair)

        monkeypatch.setattr(RepairState, "solve", solving)
        monkeypatch.setattr(RepairState, "apply", applying)
        config = ExperimentConfig(epsilon_grid=(0.0, 0.1), seeds=(0, 1))
        statuses = [row.status for row in run_experiment(config, one_group).rows]
        assert statuses == ["DegenerateClasses", "Infeasible"] * 2

    def test_target_unfairness_is_that_of_the_repaired_predictions(self, monkeypatch):
        # rows read it from the repair's lattice counts; unfairness() rescans
        # the predictions that each cell repaired
        applied = []
        apply = RepairState.apply

        def applying(state, repair):
            applied.append(apply(state, repair))
            return applied[-1]

        monkeypatch.setattr(RepairState, "apply", applying)
        table = synth_generate(300, seed=3)
        # every y = 1 row in group 1: EO's slice, and one of EOdds', has one group
        one_group = dataclasses.replace(
            table, sensitive=np.where(table.labels == 1, 1, table.sensitive)
        )
        # no y = 0 row: PE has no slice at all
        positive = dataclasses.replace(table, labels=np.ones(table.n, dtype=np.int64))
        values, statuses = [], []
        for data in (table, one_group, positive):
            for metric in FairnessMetric:
                config = ExperimentConfig(
                    metric=metric, epsilon_grid=(0.0, 0.01, 0.05, 0.2), seeds=(0, 1),
                    adversary_mode=MODE_A,
                )
                applied.clear()
                rows = run_experiment(config, data).rows
                assert len(applied) == 3 * len(rows)
                for row, repaired in zip(rows, zip(*[iter(applied)] * 3)):
                    parts = split_dataset(data, row.seed)
                    try:
                        want = [
                            round(unfairness(metric, part.sensitive, yhat, part.labels), 6)
                            for part, yhat in zip(parts[:2], repaired)
                        ]
                    except EmptySlice:
                        want = None
                    statuses.append((data is positive and metric is FairnessMetric.PE, row.status))
                    got = [row.target_train_unfairness, row.target_test_unfairness]
                    assert got == (want or [None, None]), (metric, row)
                    values += want or []
        assert set(statuses) == {(False, "ok"), (True, "EmptySlice")}
        assert values.count(0.0) > 20 and len(set(values)) > 20

    def test_failing_seed_preparation_spares_the_other_seeds(self, monkeypatch):
        fits = []
        original = experiment.fit_label_predictor

        def fit(train):
            fits.append(train.n)
            if len(fits) == 2:
                raise SchemaError("forced")
            return original(train)

        monkeypatch.setattr(experiment, "fit_label_predictor", fit)
        config = ExperimentConfig(epsilon_grid=(0.05, 0.1), seeds=(0, 1, 2))
        report = run_experiment(config, synth_generate(300, seed=2))
        assert [(row.seed, row.status) for row in report.rows] == [
            (0, "ok"), (0, "ok"), (1, "SchemaError"), (1, "SchemaError"), (2, "ok"), (2, "ok")
        ]

    def test_table_without_training_rows_is_rejected_before_the_sweep(self):
        table = synth_generate(300, seed=2).subset(np.arange(0))
        config = ExperimentConfig(epsilon_grid=(0.1,))
        with pytest.raises(EmptyVector, match="training part empty"):
            run_experiment(config, table)
        with pytest.raises(EmptyVector, match="training table is empty"):
            fit_label_predictor(table.subset(np.arange(0)))

    @pytest.mark.parametrize("kind", [NUMERIC, CATEGORICAL])
    def test_tables_of_one_or_two_rows_are_rejected_before_the_sweep(self, kind):
        # the thirds of a 1- or 2-row table leave the test or the attack part
        # empty, where the discretizer or the target's accuracy would fail
        for n, part in ((1, "test"), (2, "attack")):
            table = DatasetTable(
                ids=np.arange(n),
                features={"x": FeatureColumn(kind, np.arange(n))},
                sensitive=np.arange(n) % 2,
                labels=np.zeros(n, dtype=np.int64),
            )
            for mode in ("a", "aprime"):
                config = ExperimentConfig(epsilon_grid=(0.1,), adversary_mode=mode)
                with pytest.raises(EmptyVector) as caught:
                    run_experiment(config, table)
                assert str(caught.value) == f"a table of {n} rows leaves the {part} part empty"

    def test_attack_part_of_two_rows_leaves_no_validation_rows(self):
        # the attack third at seed 0 is rows 0 and 1, one of each class: the
        # attack model trains on both, and k-selection has nothing to score
        bits = np.array([0, 1, 0, 1, 0, 1])
        table = DatasetTable(
            ids=np.arange(6),
            features={"x": FeatureColumn(CATEGORICAL, bits)},
            sensitive=np.array([0, 1, 1, 0, 0, 1]),
            labels=np.array([0, 1, 0, 1, 1, 0]),
        )
        for mode in (MODE_A, MODE_A_PRIME):
            config = ExperimentConfig(epsilon_grid=(0.1, 0.5), seeds=(0,), adversary_mode=mode)
            rows = run_experiment(config, table).rows
            assert [row.status for row in rows] == ["EmptyVector"] * 2
        external = ExternalGuess(ids=range(6), guess=bits, raw_scores=[0.7] * 6)
        config = ExperimentConfig(
            epsilon_grid=(0.1, 0.5), seeds=(0,), adversary_mode="external",
            external_guess=external,
        )
        assert [row.status for row in run_experiment(config, table).rows] == ["ok"] * 2

    def test_external_guess_ids_are_unique(self):
        # a repeated id would silently map every row to its last guess
        with pytest.raises(DuplicateId, match="^guess ids are not unique$"):
            ExternalGuess(ids=[4, 4], guess=[0, 1], raw_scores=[0.6, 0.7])

    def test_dataset_without_features_is_a_schema_error(self):
        table = synth_generate(90, seed=0)
        bare = DatasetTable(ids=table.ids, features={}, sensitive=table.sensitive,
                            labels=table.labels)
        with pytest.raises(SchemaError, match="at least one feature column"):
            run_experiment(ExperimentConfig(epsilon_grid=(0.1,), adversary_mode="a"), bare)

    def test_multivalued_dataset_rejected_before_the_sweep(self):
        table = synth_generate(300, seed=2)
        sensitive = table.sensitive.copy()
        sensitive[:40] = 2
        k3 = DatasetTable(
            ids=table.ids,
            features=table.features,
            sensitive=sensitive,
            labels=table.labels,
            sensitive_cardinality=3,
        )
        config = ExperimentConfig(epsilon_grid=(0.1,), seeds=(0,))
        with pytest.raises(UnsupportedCardinality, match="binary sensitive"):
            run_experiment(config, k3)

    def test_external_guess_outside_binary_rejected(self):
        table = synth_generate(300, seed=2)
        guess = table.sensitive.copy()
        guess[0] = 2
        external = ExternalGuess(ids=table.ids, guess=guess, raw_scores=np.ones(table.n))
        config = ExperimentConfig(
            epsilon_grid=(0.1,), seeds=(0,), adversary_mode="external", external_guess=external
        )
        with pytest.raises(UnsupportedCardinality):
            run_experiment(config, table)

    def test_correction_never_reads_truth(self, rng):
        n = 60
        inst_args = dict(
            predictions=rng.integers(0, 2, n),
            labels=rng.integers(0, 2, n),
            guess=rng.integers(0, 2, n),
            confidence=rng.random(n),
        )
        spec = FairnessSpec(SP, 0.05)
        a = correct(AttackInstance(**inst_args, truth=rng.integers(0, 2, n)), spec)
        b = correct(AttackInstance(**inst_args, truth=rng.integers(0, 2, n)), spec)
        assert a.corrected.tolist() == b.corrected.tolist()
        assert a.objective == b.objective

    def test_estimation_mode_records_constraint(self):
        table = synth_generate(900, seed=3)
        config = ExperimentConfig(epsilon_grid=(0.0,), seeds=(0,), estimate=True)
        report = run_experiment(config, table)
        (row,) = report.rows
        assert row.status == "ok"
        assert row.estimated
        assert row.estimated_metric in {"sp", "pe", "eo"}
        assert row.estimated_epsilon is not None

    def test_oracle_check_gap_is_tiny(self):
        table = synth_generate(400, seed=4)
        config = ExperimentConfig(epsilon_grid=(0.1,), seeds=(0,), oracle_check=True)
        report = run_experiment(config, table)
        (row,) = report.rows
        assert row.status == "ok"
        assert row.oracle_gap is None or row.oracle_gap <= 1e-9

    def test_config_validation(self):
        with pytest.raises(BadParameters):
            ExperimentConfig(epsilon_grid=())
        with pytest.raises(BadParameters):
            ExperimentConfig(epsilon_grid=(2.0,))
        with pytest.raises(BadParameters):
            ExperimentConfig(seeds=())
        with pytest.raises(BadParameters):
            ExperimentConfig(adversary_mode="external")
        guess = ExternalGuess(ids=[0], guess=[1], raw_scores=[0.9])
        with pytest.raises(BadParameters, match="external mode"):
            ExperimentConfig(adversary_mode="aprime", external_guess=guess)

    @pytest.mark.parametrize("lower", [-0.01, math.nan])
    def test_epsilon_lower_validation(self, lower):
        # each used to abort the sweep with a bare ValueError
        with pytest.raises(BadParameters, match="epsilon_lower"):
            ExperimentConfig(epsilon_grid=(0.05, 0.1), epsilon_lower=lower)

    def test_estimate_rejects_a_lower_bound(self):
        # the estimated constraint has no lower bound to apply it to
        grid = (0.01, 0.1)
        with pytest.raises(BadParameters, match="estimate"):
            ExperimentConfig(epsilon_grid=grid, estimate=True, epsilon_lower=0.004)
        ExperimentConfig(epsilon_grid=grid, estimate=True)
        ExperimentConfig(epsilon_grid=grid, epsilon_lower=0.004)

    def test_negative_seeds_are_rejected(self):
        with pytest.raises(BadParameters, match="seeds"):
            ExperimentConfig(seeds=(0, -1))

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_benchmark_needs_a_seed(self, n_seeds):
        from fairleak.harness import run_benchmark

        # an empty report without config metadata used to come back
        with pytest.raises(BadParameters, match="seed"):
            run_benchmark(n=300, n_seeds=n_seeds, epsilon_grid=(0.2,))


def _per_cell_correction_csv(path, ids, instance, result):
    """The instance writer as it indexed one numpy scalar per cell."""
    header = ["id", "y", "yhat", "s_hat", "confidence", "s_corrected"]
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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestInstanceWriters:
    @staticmethod
    def _check_correction_csv(tmp_path, rng, ids, truth):
        n = ids.size
        # awkward floats: tiny, huge exponents, exact ties, 1e-12 clamps, zero
        conf = rng.random(n) ** rng.integers(1, 40, n)
        conf[:5] = [0.0, 1e-12, 1.0, 1 / 3, 123456.789012345]
        inst = AttackInstance(
            rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n), conf, truth=truth
        )
        result = correct(inst, FairnessSpec(SP, 0.01))
        write_correction_csv(tmp_path / "new.csv", ids, inst, result)
        _per_cell_correction_csv(tmp_path / "old.csv", ids, inst, result)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_correction_csv_matches_the_per_cell_writer(self, tmp_path, rng, with_truth):
        n = 3000
        ids = rng.permutation(10 * n)[:n] - n
        self._check_correction_csv(tmp_path, rng, ids, rng.integers(0, 3, n) if with_truth else None)

    @pytest.mark.parametrize("truth_span", [None, 12])
    def test_dense_ids_and_truth_beyond_the_guess_cardinality(self, tmp_path, rng, truth_span):
        # ids 0..n-1, and truth naming groups the binary guess never does
        n = 3000
        truth = None if truth_span is None else rng.integers(0, truth_span, n)
        self._check_correction_csv(tmp_path, rng, np.arange(n), truth)


class TestReports:
    def test_empty_sweep_emits_header_only(self, tmp_path):
        from fairleak.harness import ExperimentReport, REPORT_COLUMNS

        report = ExperimentReport(rows=(), metadata={})
        path = emit_report(report, tmp_path / "empty.csv", "csv")
        assert path.read_text().strip() == ",".join(REPORT_COLUMNS)

    def test_two_runs_are_byte_identical(self, tmp_path):
        table = synth_generate(300, seed=6)
        config = ExperimentConfig(epsilon_grid=(0.0, 0.1), seeds=(0,))
        paths = []
        for tag in ("a", "b"):
            report = run_experiment(config, table)
            paths.append(emit_report(report, tmp_path / f"run_{tag}.csv", "csv"))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_improvement_trend_small_scale(self):
        from fairleak.harness import run_benchmark

        report = run_benchmark(n=3000, n_seeds=4, epsilon_grid=(0.0, 0.2))
        rows = [r for r in report.rows if r.status == "ok"]
        assert rows
        tight = np.mean([r.improvement for r in rows if r.epsilon == 0.0])
        loose = np.mean([r.improvement for r in rows if r.epsilon == 0.2])
        assert tight >= loose

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairleak
from fairleak.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, _cmd_estimate, build_parser, main
from fairleak.errors import MissingPredictions
from fairleak.harness import DEFAULT_EPSILON_GRID, synth_generate, write_dataset_csv


@pytest.fixture
def instance_csv(tmp_path):
    path = tmp_path / "instance.csv"
    path.write_text(
        "id,y,yhat,s_hat,confidence,s_true\n"
        "0,0,1,1,0.1,0\n"
        "1,0,1,1,1.0,1\n"
        "2,0,0,0,1.0,0\n"
        "3,0,0,0,0.2,1\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def dataset(tmp_path):
    table = synth_generate(400, seed=0)
    path = tmp_path / "ds.csv"
    write_dataset_csv(table, path)
    return path, path.with_name(path.name + ".schema.json")


class TestCorrectCommand:
    def test_success_writes_output_and_report(self, instance_csv, tmp_path):
        out = tmp_path / "corrected.csv"
        report = tmp_path / "solve.json"
        code = main(
            [
                "correct",
                "--input", str(instance_csv),
                "--metric", "sp",
                "--epsilon", "0.1",
                "--out", str(out),
                "--report", str(report),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,y,yhat,s_hat,confidence,s_corrected,s_true"
        assert len(lines) == 5
        payload = json.loads(report.read_text())
        assert payload["objective"] == pytest.approx(0.3)
        assert set(payload) == {
            "objective",
            "flips",
            "moves",
            "solver_nodes",
            "baseline_accuracy",
            "corrected_accuracy",
        }
        assert "baseline_accuracy" in payload

    def test_tied_eodds_instance_flips_the_lowest_rows(self, tmp_path):
        # every confidence equal: each slice flips one of two tied rows in
        # each prediction group, and takes its lowest rows
        path = tmp_path / "eodds-tied.csv"
        path.write_text(
            "id,y,yhat,s_hat,confidence,s_true\n"
            "0,0,1,1,0.5,0\n1,0,1,1,0.5,1\n2,0,0,0,0.5,0\n3,0,0,0,0.5,1\n"
            "4,1,1,1,0.5,0\n5,1,1,1,0.5,1\n6,1,0,0,0.5,0\n7,1,0,0,0.5,1\n",
            encoding="utf-8",
        )
        out, report = tmp_path / "eodds-tied-corrected.csv", tmp_path / "eodds-tied-solve.json"
        code = main(["correct", "--input", str(path), "--metric", "eodds", "--epsilon", "0.1",
                     "--out", str(out), "--report", str(report)])
        assert code == EXIT_OK
        with out.open(newline="", encoding="utf-8") as handle:
            corrected = "".join(row["s_corrected"] for row in csv.DictReader(handle))
        payload = json.loads(report.read_text())
        assert corrected == "01100110" and payload["flips"] == 4
        assert math.isclose(payload["objective"], 2.0)

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("id,y,yhat,s_hat,confidence\n0,0,1,1,1.0\n", encoding="utf-8")
        code = main(
            [
                "correct",
                "--input", str(path),
                "--metric", "sp",
                "--epsilon", "0.0",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err.splitlines()
        assert "fairleak: infeasible: both groups must be nonempty, impossible with n < 2" in err

    @pytest.mark.parametrize(
        "rows, code, line",
        [
            (
                "0,0,1,1,0.5\n",
                EXIT_INFEASIBLE,
                "fairleak: infeasible: both groups must be nonempty, impossible with n < 2",
            ),
            (
                "0,0,1,1,0.5\n1,x,1,1,0.5\n",
                EXIT_INPUT,
                "fairleak: error: row 3, column 'y': 'x' is not an integer",
            ),
        ],
        ids=["infeasible", "input-error"],
    )
    def test_failure_is_one_stderr_line(self, tmp_path, rows, code, line):
        # at the default log level, as a console user runs it
        path = tmp_path / "instance.csv"
        path.write_text("id,y,yhat,s_hat,confidence\n" + rows, encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if key != "FAIRLEAK_LOG"}
        env["PYTHONPATH"] = str(Path(fairleak.__file__).parents[1])
        done = subprocess.run(
            [
                sys.executable, "-m", "fairleak.cli", "correct",
                "--input", str(path),
                "--metric", "sp",
                "--epsilon", "0.1",
                "--out", str(tmp_path / "out.csv"),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == code
        assert done.stderr == line + "\n"

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(
            [
                "correct",
                "--input", str(tmp_path / "nope.csv"),
                "--metric", "sp",
                "--epsilon", "0.1",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == EXIT_INPUT

    def test_bad_flag_is_input_error(self, instance_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "correct",
                    "--input", str(instance_csv),
                    "--metric", "zap",
                    "--epsilon", "0.1",
                    "--out", str(tmp_path / "out.csv"),
                ]
            )
        assert exc.value.code == EXIT_INPUT

    def test_multivalued_instance_uses_general_model(self, tmp_path):
        path = tmp_path / "k3.csv"
        path.write_text(
            "id,y,yhat,s_hat,confidence\n"
            "0,0,1,0,1.0\n1,0,0,1,1.0\n2,0,1,2,1.0\n3,0,0,0,1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        code = main(
            [
                "correct",
                "--input", str(path),
                "--metric", "sp",
                "--epsilon", "1.0",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK

    def test_truth_values_beyond_the_guess_keep_the_binary_solver(self, tmp_path):
        # a binary guess whose truth column holds one 2: the guess alone sets
        # the cardinality, so the efficient solver runs instead of a 3**40
        # brute force
        rows = ["id,y,yhat,s_hat,confidence,s_true"]
        for i in range(40):
            truth = 2 if i == 7 else i % 2
            rows.append(f"{i},{i % 3 % 2},{int(i < 16)},{int(i < 20)},{0.5 + i / 100},{truth}")
        path = tmp_path / "binary_guess.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        report = tmp_path / "solve.json"
        code = main(
            [
                "correct",
                "--input", str(path),
                "--metric", "sp",
                "--epsilon", "0.1",
                "--out", str(tmp_path / "out.csv"),
                "--report", str(report),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["flips"] > 0
        assert set(payload["moves"]) == {"s01_pos", "s10_pos", "s01_neg", "s10_neg"}
        assert payload["baseline_accuracy"] < 1.0

    def test_report_of_a_header_only_instance_with_truth(self, tmp_path, capsys):
        # no row to score: the report leaves out both accuracies
        path = tmp_path / "empty.csv"
        path.write_text("id,y,yhat,s_hat,confidence,s_true\n", encoding="utf-8")
        out, report = tmp_path / "out.csv", tmp_path / "solve.json"
        code = main(
            [
                "correct",
                "--input", str(path),
                "--metric", "sp",
                "--epsilon", "0.1",
                "--out", str(out),
                "--report", str(report),
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert out.read_text() == "id,y,yhat,s_hat,confidence,s_corrected,s_true\n"
        payload = json.loads(report.read_text())
        assert set(payload) == {"objective", "flips", "moves", "solver_nodes"}
        assert payload["flips"] == 0 and payload["objective"] == 0.0


class TestEstimateCommand:
    def test_prints_constraint(self, tmp_path, capsys):
        table = synth_generate(300, seed=1)
        # attach predictions so the estimator has something to measure
        from fairleak.harness import DatasetTable

        with_preds = DatasetTable(
            ids=table.ids,
            features=table.features,
            sensitive=table.sensitive,
            labels=table.labels,
            predictions=table.labels.copy(),
            sensitive_cardinality=2,
        )
        path = tmp_path / "attack.csv"
        write_dataset_csv(with_preds, path)
        code = main(
            [
                "estimate",
                "--attack-set", str(path),
                "--schema", str(path.with_name(path.name + ".schema.json")),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] in {"sp", "pe", "eo"}
        assert set(payload["per_metric_unfairness"]) == {"sp", "pe", "eo", "eodds"}

    def test_one_sided_attack_set_leaves_out_pe(self, tmp_path, capsys):
        # every label is 1: PE has no slice, SP and EO are measurable
        path = tmp_path / "attack.csv"
        path.write_text("id,f0,s,y,yhat\n0,a,0,1,1\n1,b,0,1,0\n2,a,1,1,1\n3,b,1,1,1\n")
        schema = tmp_path / "attack.schema.json"
        schema.write_text('{"features": {"f0": "categorical"}}\n')
        code = main(["estimate", "--attack-set", str(path), "--schema", str(schema)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "metric": "eo",
            "epsilon": 0.25,
            "per_metric_unfairness": {"eo": 0.25, "sp": 0.25, "eodds": 0.25},
        }

    def test_missing_predictions_is_input_error(self, dataset):
        data, schema = dataset
        code = main(["estimate", "--attack-set", str(data), "--schema", str(schema)])
        assert code == EXIT_INPUT

    def test_missing_predictions_is_a_typed_error(self, dataset, capsys):
        data, schema = dataset
        argv = ["estimate", "--attack-set", str(data), "--schema", str(schema)]
        with pytest.raises(MissingPredictions):
            _cmd_estimate(build_parser().parse_args(argv))
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "fairleak: error: attack set needs the target model's prediction column\n"
        )


class TestAttackCommand:
    def test_runs_and_is_deterministic(self, dataset, tmp_path):
        data, schema = dataset
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"report_{tag}.csv"
            code = main(
                [
                    "attack",
                    "--data", str(data),
                    "--schema", str(schema),
                    "--mode", "aprime",
                    "--metric", "sp",
                    "--epsilon-grid", "0.0,0.1",
                    "--seeds", "0,1",
                    "--out", str(out),
                ]
            )
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        header = outputs[0].decode().splitlines()[0]
        assert header.startswith("seed,epsilon,metric,status")

    def test_external_mode_requires_guess_file(self, dataset, tmp_path):
        data, schema = dataset
        code = main(
            [
                "attack",
                "--data", str(data),
                "--schema", str(schema),
                "--mode", "external",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_INPUT

    def test_guess_file_needs_external_mode(self, dataset, tmp_path):
        data, schema = dataset
        guess = tmp_path / "guess.csv"
        guess.write_text("id,s_hat,confidence_raw\n0,1,0.9\n", encoding="utf-8")
        code = main(
            [
                "attack",
                "--data", str(data),
                "--schema", str(schema),
                "--guess-file", str(guess),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_INPUT
        assert not (tmp_path / "r.csv").exists()

    def test_estimate_rejects_a_lower_bound(self, dataset, tmp_path):
        # the estimated constraint has no lower bound to apply it to
        data, schema = dataset
        code = main(
            [
                "attack",
                "--data", str(data),
                "--schema", str(schema),
                "--estimate",
                "--epsilon-grid", "0.01,0.1",
                "--epsilon-lower", "0.004",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_INPUT
        assert not (tmp_path / "r.csv").exists()


class TestSynthAndBench:
    def test_synth_writes_schema_sidecar(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(["synth", "--n", "50", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()
        assert out.with_name(out.name + ".schema.json").exists()

    def test_synth_bad_parameters(self, tmp_path):
        code = main(["synth", "--n", "5", "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_INPUT

    def test_bench_small(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--n", "300",
                "--seeds", "2",
                "--epsilon-grid", "0.0,0.2",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 4
        assert payload["metadata"]["benchmark"]["n"] == 300

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_bench_needs_a_seed(self, tmp_path, seeds):
        out = tmp_path / "bench.json"
        code = main(["bench", "--n", "300", "--seeds", seeds, "--out", str(out)])
        assert code == EXIT_INPUT
        assert not out.exists()


# Small valid files of each kind: a dataset with a categorical and a numeric
# feature and its schema, a guess for the same ids, and a correction instance.
_SCHEMA = {"features": {"f0": "categorical", "x": "numeric"}}
_DATASET = [["id", "x", "s", "y", "yhat", "f0"]] + [
    [str(i), f"{i / 4}", str(i * 7 % 3 % 2), str(i % 3 % 2), str(int(i < 6)), "ab"[i % 2]]
    for i in range(12)
]
_GUESS = [["id", "s_hat", "confidence_raw"]] + [
    [str(i), str(i * 5 % 3 % 2), f"{0.5 + i / 24}"] for i in range(12)
]
_INSTANCE = [["id", "y", "yhat", "s_hat", "confidence", "s_true"]] + [
    [str(i), str(i % 2), str(int(i < 3)), str(int(i < 4)), f"{i / 5}", str(i % 3 % 2)]
    for i in range(6)
]


def _csv_bytes(rows):
    return ("\n".join(map(",".join, rows)) + "\n").encode()


def _command_reading(kind, path, tmp_path):
    """The command that reads ``path`` of this kind, plus its other inputs."""
    data = tmp_path / "data.csv"
    data.write_bytes(_csv_bytes(_DATASET))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(_SCHEMA), encoding="utf-8")
    out = str(tmp_path / "out.csv")
    if kind == "instance":
        return ["correct", "--input", str(path), "--metric", "sp", "--epsilon", "0.2", "--out", out]
    if kind == "guess":
        return ["attack", "--data", str(data), "--schema", str(schema), "--mode", "external",
                "--guess-file", str(path), "--epsilon-grid", "0.1", "--out", out]
    return ["estimate", "--attack-set", str(path), "--schema", str(schema)]


_FILES = {"instance": _INSTANCE, "guess": _GUESS, "dataset": _DATASET}


@pytest.mark.parametrize("kind", list(_FILES))
@pytest.mark.parametrize("defect", ["overflow", "short"])
def test_bad_cell_of_every_file_kind_is_an_input_error(tmp_path, capsys, kind, defect):
    rows = [list(row) for row in _FILES[kind]]
    if defect == "overflow":
        rows[2][0] = "99999999999999999999"
        message = "row 3, column 'id': '99999999999999999999' is out of range"
    else:
        # the row loses its last cell; the dataset's is its categorical one
        rows[2].pop()
        message = f"row 3, column {rows[0][-1]!r}: "
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(_csv_bytes(rows))
    assert main(_command_reading(kind, path, tmp_path)) == EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", list(_FILES))
@pytest.mark.parametrize("column", ["id", "ignored"])
def test_oversized_cell_is_one_input_error_line(tmp_path, capsys, kind, column):
    # csv.reader's field size limit is 131,072 characters
    rows = [[*row, "note"] for row in _FILES[kind]]
    rows[2][0 if column == "id" else -1] = "1" * 200_000
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(_csv_bytes(rows))
    capsys.readouterr()
    assert main(_command_reading(kind, path, tmp_path)) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"fairleak: error: {path}, line 3: field larger than field limit (131072)\n"
    )


@pytest.mark.parametrize("defect", ["label", "prediction", "cardinality", "kind"])
def test_bad_dataset_or_schema_is_an_input_error(tmp_path, capsys, defect):
    rows = [list(row) for row in _DATASET]
    schema = dict(_SCHEMA)
    # a schema that fails its own checks names the file, as a missing key does
    malformed = f"malformed schema file {tmp_path / 'schema.json'}: "
    if defect == "label":
        rows[3][3], message = "2", "labels must be 0 or 1"
    elif defect == "prediction":
        rows[3][4], message = "2", "predictions must be 0 or 1"
    elif defect == "cardinality":
        schema["sensitive_cardinality"] = 1
        message = malformed + "sensitive cardinality must be at least 2"
    else:
        schema["features"] = {**schema["features"], "f0": "ordinal"}
        message = malformed + "feature 'f0' has unknown kind 'ordinal'"
    data = tmp_path / "data.csv"
    data.write_bytes(_csv_bytes(rows))
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    argv = ["attack", "--data", str(data), "--schema", str(tmp_path / "schema.json"),
            "--epsilon-grid", "0.1", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"fairleak: error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("feature", ["x", "f0"])
@pytest.mark.parametrize("n, part", [(1, "test"), (2, "attack")])
def test_table_of_one_or_two_rows_is_one_input_error_line(tmp_path, capsys, feature, n, part):
    # one numeric or one categorical feature, and the first n rows of the
    # small dataset: a part of the split into thirds is empty
    columns = [0, 2, 3, _DATASET[0].index(feature)]
    rows = [[row[c] for c in columns] for row in _DATASET[: n + 1]]
    data = tmp_path / "data.csv"
    data.write_bytes(_csv_bytes(rows))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"features": {feature: _SCHEMA["features"][feature]}}))
    argv = ["attack", "--data", str(data), "--schema", str(schema),
            "--epsilon-grid", "0.1", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"fairleak: error: a table of {n} rows leaves the {part} part empty\n"
    )
    assert not (tmp_path / "out.csv").exists()


def test_out_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "synth.csv"
    assert main(["synth", "--n", "20", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"fairleak: error: cannot write dataset to {out}: "
        f"[Errno 2] No such file or directory: '{out}'\n"
    )


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--epsilon-grid", "0.1,x", "epsilon grid must be comma-separated numbers"),
        ("--seeds", "0,x", "seeds must be comma-separated integers"),
    ],
)
def test_bad_list_flag_is_an_input_error(tmp_path, capsys, flag, value, message):
    argv = ["attack", "--data", "data.csv", "--schema", "schema.json", flag, value,
            "--out", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"fairleak attack: error: argument {flag}: {message}"


def test_default_epsilon_grid_names_the_default_grid(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["bench", "--n", "60", "--seeds", "1", "--epsilon-grid", "default", "--out", str(out)]
    assert main(argv) == EXIT_OK
    grid = json.loads(out.read_text())["metadata"]["epsilon_grid"]
    assert grid == list(DEFAULT_EPSILON_GRID) and len(grid) == 25


_POOL = [
    "0", "1", "2", "-1", "", " 1", "1.5", "0.5", "0.75", "nan", "inf", "-inf", "1e999",
    "99999999999999999999", "-99999999999999999999", "zap", "a", "b", "\"1\"", "0,1",
]
# each past some column's range: a 0/1 column, a group count of 3, the raw
# scores' [0.5, 1], the non-negative columns, and int64 for the ids
_PAST_RANGE = ["2", "3", "-1", "-0.5", "9223372036854775808"]


@st.composite
def _malformed(draw, rows):
    """A CSV file as bytes: ``rows`` with a few cells replaced, some by a value
    past their column's range, rows cut short, extended or dropped, or ids
    repeated; then maybe a byte-order mark, bytes that are not UTF-8, or no
    content at all."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        edit = draw(st.sampled_from(
            ["cell", "cell", "code", "code", "cut", "extend", "repeat_id", "drop_row"]
        ))
        if edit in ("cell", "code") and row:
            pool = _POOL if edit == "cell" else _PAST_RANGE
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(pool))
        elif edit == "cut" and row:
            del row[draw(st.integers(0, len(row) - 1)):]
        elif edit == "extend":
            row.append(draw(st.sampled_from(_POOL)))
        elif edit == "repeat_id" and r > 1 and row and rows[1]:
            row[0] = rows[1][0]
        elif edit == "drop_row" and r > 0:
            del rows[r]
    data = _csv_bytes(rows)
    framing = draw(st.sampled_from(["plain", "plain", "plain", "bom", "latin", "empty"]))
    if framing == "bom":
        data = b"\xef\xbb\xbf" + data
    elif framing == "latin":
        data = data.replace(b"1", b"\xe9", 1)
    elif framing == "empty":
        data = b""
    return data


def _file(rows):
    """A valid file half the time, so that the defects of the others show."""
    return st.one_of(st.just(_csv_bytes(rows)), _malformed(rows))


_SCHEMAS = st.one_of(st.just(json.dumps(_SCHEMA)), st.sampled_from([
    json.dumps({"features": {"f0": "categorical", "x": "numeric"}, "sensitive_cardinality": 3}),
    json.dumps({"features": {"f0": "numeric", "x": "categorical"}}),
    json.dumps({"features": {"f0": "ordinal"}}),
    json.dumps({"features": {}, "prediction": None}),
    json.dumps({"features": {"f0": "categorical"}, "sensitive_cardinality": "two"}),
    json.dumps({"features": {"f0": "categorical"}, "sensitive_cardinality": 1}),
    '{"features": {"f0": "categorical"}, "sensitive_cardinality": 1e400}',
    json.dumps({"id": "x", "features": {"f0": "categorical"}}),
    json.dumps(["features"]),
    '{"features": ',
]))
_EPSILONS = st.sampled_from(["0.2", "0.05", "0", "1", "-0.1", "nan", "inf"])


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["correct", "attack", "estimate"]),
    instance=_file(_INSTANCE),
    dataset=_file(_DATASET),
    guess=_file(_GUESS),
    schema=_SCHEMAS,
    metric=st.sampled_from(["sp", "pe", "eo", "eodds"]),
    epsilon=_EPSILONS,
    lower=st.sampled_from([None, None, "0", "0.01", "nan"]),
    mode=st.sampled_from(["a", "aprime", "external"]),
)
def test_malformed_inputs_exit_cleanly(
    command, instance, dataset, guess, schema, metric, epsilon, lower, mode
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, payload in [("instance.csv", instance), ("data.csv", dataset),
                              ("guess.csv", guess), ("schema.json", schema.encode())]:
            (tmp / name).write_bytes(payload)
        out = str(tmp / "out.csv")
        if command == "correct":
            argv = ["correct", "--input", str(tmp / "instance.csv"), "--metric", metric,
                    "--epsilon", epsilon, "--out", out, "--report", str(tmp / "r.json")]
        elif command == "attack":
            argv = ["attack", "--data", str(tmp / "data.csv"), "--schema", str(tmp / "schema.json"),
                    "--mode", mode, "--metric", metric, "--epsilon-grid", epsilon, "--out", out]
            if mode == "external":
                argv += ["--guess-file", str(tmp / "guess.csv")]
        else:
            argv = ["estimate", "--attack-set", str(tmp / "data.csv"),
                    "--schema", str(tmp / "schema.json")]
        if lower is not None and command != "estimate":
            argv += ["--epsilon-lower", lower]
        # an escaping exception fails the test on its own
        assert main(argv) in {EXIT_OK, EXIT_INFEASIBLE, EXIT_INPUT}

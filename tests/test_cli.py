import json

import pytest

from fairleak.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main
from fairleak.harness import synth_generate, write_dataset_csv


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

    def test_infeasible_exit_code(self, tmp_path):
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

    def test_missing_predictions_is_input_error(self, dataset):
        data, schema = dataset
        code = main(["estimate", "--attack-set", str(data), "--schema", str(schema)])
        assert code == EXIT_INPUT


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

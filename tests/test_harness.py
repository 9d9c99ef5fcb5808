import math

import numpy as np
import pytest

from fairleak.adversary import (
    MODE_A,
    MODE_A_PRIME,
    AttackSet,
    BaselineGuess,
    Discretizer,
    predict_guess,
    train_baseline,
)
from fairleak.core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    satisfies,
    unfairness,
)
from fairleak.corrector import correct
from fairleak.errors import (
    BadFractions,
    BadParameters,
    DuplicateId,
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
    emit_report,
    fit_label_predictor,
    ingest_csv,
    largest_remainder_sizes,
    load_report_json,
    make_fair_predictions,
    run_experiment,
    split_dataset,
    synth_generate,
    write_correction_csv,
    write_dataset_csv,
    write_guess_csv,
)
from fairleak.harness import CATEGORICAL, predictor
from fairleak.harness.experiment import _attack_features, _train_attack_model
from fairleak.harness.predictor import RepairState, repair_predictions
from fairleak.nb import fit_naive_bayes

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
        assert table.features["f0"].categories == ("a", "b")
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

    def test_dataset_csv_round_trip(self, tmp_path):
        table = synth_generate(40, seed=3)
        path = tmp_path / "synth.csv"
        schema = write_dataset_csv(table, path)
        again = ingest_csv(path, schema)
        assert again.n == table.n
        assert again.sensitive.tolist() == table.sensitive.tolist()
        assert again.labels.tolist() == table.labels.tolist()


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
        assert largest_remainder_sizes(10, (1 / 3, 1 / 3, 1 / 3)) == (4, 3, 3)
        assert largest_remainder_sizes(9, (1 / 3, 1 / 3, 1 / 3)) == (3, 3, 3)
        assert largest_remainder_sizes(11, (1 / 3, 1 / 3, 1 / 3)) == (4, 4, 3)

    def test_bad_fractions(self):
        table = synth_generate(12, seed=0)
        with pytest.raises(BadFractions):
            split_dataset(table, fractions=(0.5, 0.5, 0.5))
        with pytest.raises(BadFractions):
            split_dataset(table, fractions=(0.5, 0.5, -0.0))


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
    def _biased_table(self, n=240, seed=1):
        return synth_generate(n, seed=seed, rho=0.8, beta=1.0)

    def test_epsilon_one_keeps_raw_predictions(self):
        table = self._biased_table()
        predictor = fit_label_predictor(table)
        raw, _ = predictor.raw_predictions(table)
        fair = make_fair_predictions(table, FairnessSpec(SP, 1.0))
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
        fair = make_fair_predictions(constant, FairnessSpec(SP, 0.3))
        assert len(set(fair.tolist())) == 1
        assert satisfies(FairnessSpec(SP, 0.0), constant.sensitive, fair)

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
        fair = make_fair_predictions(balanced, spec)
        assert satisfies(spec, balanced.sensitive, fair, balanced.labels)

    def test_eodds_repair(self):
        table = self._biased_table(n=300, seed=5)
        spec = FairnessSpec(FairnessMetric.EODDS, 0.05)
        fair = make_fair_predictions(table, spec)
        assert satisfies(spec, table.sensitive, fair, table.labels)

    def test_repair_touches_something_on_biased_data(self):
        table = self._biased_table()
        predictor = fit_label_predictor(table)
        raw, _ = predictor.raw_predictions(table)
        fair = make_fair_predictions(table, FairnessSpec(SP, 0.02))
        assert unfairness(SP, table.sensitive, raw) > 0.02
        assert fair.tolist() != raw.tolist()


class TestRepairState:
    """One state, built once per table, serves every tolerance."""

    # (eps, lower): a lower bound at or near eps is generically missed by the
    # upper-only repair, so the EOdds carrier re-solves a slice with it
    TOLERANCES = (
        (0.3, 0.25),
        (0.0, None),
        (0.001, 0.001),
        (0.01, 0.0099),
        (0.05, 0.025),
        (0.2, 0.19),
        (0.01, None),
    )

    def _raw(self, seed, beta=1.0):
        table = synth_generate(3000, seed=seed, rho=0.8, beta=beta)
        yhat, margins = fit_label_predictor(table).raw_predictions(table)
        return table, yhat, margins

    @staticmethod
    def _outcome(repair, spec):
        try:
            return repair(spec)
        except Infeasible:
            return None

    @pytest.mark.parametrize("metric", list(FairnessMetric))
    @pytest.mark.parametrize("with_lower", [False, True])
    def test_reuse_matches_one_shot_repair(self, monkeypatch, metric, with_lower):
        carried = []
        original = predictor._repair_slice

        def spy(part, epsilon, lower):
            solved = original(part, epsilon, lower)
            carried.append(lower is not None)
            return solved

        monkeypatch.setattr(predictor, "_repair_slice", spy)
        for seed, beta in ((1, 1.0), (2, 1.0), (3, 0.1)):
            table, yhat, margins = self._raw(seed, beta)
            state = RepairState(yhat, margins, table.sensitive, table.labels, metric)
            for eps, lower in self.TOLERANCES:
                spec = FairnessSpec(metric, eps, lower if with_lower else None)
                reused = self._outcome(
                    lambda s: state.repair(s.epsilon, s.epsilon_lower), spec
                )
                one_shot = self._outcome(
                    lambda s: repair_predictions(
                        yhat, margins, table.sensitive, table.labels, s
                    ),
                    spec,
                )
                assert (reused is None) == (one_shot is None)
                if reused is not None:
                    assert np.array_equal(reused, one_shot)
        if with_lower and metric is FairnessMetric.EODDS:
            # the carrier solved a slice with the lower bound attached
            assert any(carried)


class TestHoistedAttackModel:
    """A seed's attack model, trained once, gives each cell the guesses the
    per-cell model of that cell gives."""

    @pytest.mark.parametrize("mode", [MODE_A, MODE_A_PRIME])
    def test_matches_a_model_trained_per_cell(self, rng, mode):
        table = synth_generate(3000, seed=4)
        train, _, attack = split_dataset(table, (1 / 3, 1 / 3, 1 / 3), 4)
        hoisted = _train_attack_model(mode, 4, train, attack)
        disc = Discretizer().fit(
            {
                name: col.values
                for name, col in attack.features.items()
                if col.kind != CATEGORICAL
            }
        )
        feats_attack = _attack_features(attack, disc)
        feats_train = _attack_features(train, disc)
        val = hoisted.val_idx
        for _ in range(4):
            yh_train = rng.integers(0, 2, train.n)
            yh_attack = rng.integers(0, 2, attack.n)
            full = AttackSet(
                features=feats_attack,
                labels=attack.labels,
                sensitive=attack.sensitive,
                target_predictions=yh_attack,
            )
            model = train_baseline(full.subset(hoisted.fit_idx), mode)
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
                fit = full.subset(hoisted.fit_idx)
                joint = fit_naive_bayes(
                    {**fit.features, "y": fit.labels, "yhat": fit.target_predictions},
                    fit.sensitive,
                    n_classes=2,
                    alpha=1.0,
                    class_prior="uniform",
                )
                proba = joint.predict_proba(
                    {**feats_train, "y": train.labels, "yhat": yh_train}
                )
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
        original = RepairState.repair

        def repair(self, epsilon, epsilon_lower=None):
            if epsilon == 0.1:
                raise Infeasible("forced")
            return original(self, epsilon, epsilon_lower)

        monkeypatch.setattr(RepairState, "repair", repair)
        config = ExperimentConfig(epsilon_grid=(0.0, 0.1), seeds=(0, 1))
        statuses = [row.status for row in run_experiment(config, one_group).rows]
        assert statuses == ["DegenerateClasses", "Infeasible"] * 2

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

    @pytest.mark.parametrize("k_grid", [(), (0,), (-1,), (math.nan,), (math.inf,), (1.0, 0.0)])
    def test_k_grid_validation(self, k_grid):
        # each used to abort the sweep with a bare ValueError, or (nan)
        # to turn every cell into a NegativeConfidence row
        with pytest.raises(BadParameters, match="k grid"):
            ExperimentConfig(k_grid=k_grid)


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


def _per_cell_guess_csv(path, ids, guess):
    lines = ["id,s_hat,confidence_raw"]
    for i in range(guess.guess.size):
        lines.append(f"{int(ids[i])},{int(guess.guess[i])},{float(guess.raw_scores[i]):.12g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestInstanceWriters:
    @pytest.mark.parametrize("with_truth", [True, False])
    def test_correction_csv_matches_the_per_cell_writer(self, tmp_path, rng, with_truth):
        n = 3000
        # awkward floats: tiny, huge exponents, exact ties, 1e-12 clamps, zero
        conf = rng.random(n) ** rng.integers(1, 40, n)
        conf[:5] = [0.0, 1e-12, 1.0, 1 / 3, 123456.789012345]
        inst = AttackInstance(
            rng.integers(0, 2, n),
            rng.integers(0, 2, n),
            rng.integers(0, 2, n),
            conf,
            truth=rng.integers(0, 3, n) if with_truth else None,
        )
        ids = rng.permutation(10 * n)[:n] - n
        result = correct(inst, FairnessSpec(SP, 0.01))
        write_correction_csv(tmp_path / "new.csv", ids, inst, result)
        _per_cell_correction_csv(tmp_path / "old.csv", ids, inst, result)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_guess_csv_matches_the_per_cell_writer(self, tmp_path, rng):
        n = 3000
        raw = 0.5 + rng.random(n) ** rng.integers(1, 40, n) / 2
        guess = BaselineGuess(guess=rng.integers(0, 2, n), raw_scores=raw)
        ids = rng.permutation(10 * n)[:n]
        write_guess_csv(tmp_path / "new.csv", ids, guess)
        _per_cell_guess_csv(tmp_path / "old.csv", ids, guess)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestReports:
    def test_empty_sweep_emits_header_only(self, tmp_path):
        from fairleak.harness import ExperimentReport, REPORT_COLUMNS

        report = ExperimentReport(rows=(), metadata={})
        path = emit_report(report, tmp_path / "empty.csv", "csv")
        assert path.read_text().strip() == ",".join(REPORT_COLUMNS)

    def test_json_round_trip(self, tmp_path):
        table = synth_generate(300, seed=5)
        config = ExperimentConfig(epsilon_grid=(0.05, 1.0), seeds=(0, 1))
        report = run_experiment(config, table)
        path = emit_report(report, tmp_path / "report.json", "json")
        assert load_report_json(path) == report

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

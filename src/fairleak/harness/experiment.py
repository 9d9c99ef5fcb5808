"""Experiment orchestration: seeds x epsilon sweeps over the attack pipeline.

Only the repaired target predictions depend on the tolerance, so a sweep
does the rest once per seed.  Per seed: split the dataset, fit the label
predictor, build a repair state for each part (its metric slices, group
tallies and sorted margin prefix sums), and build the adversary.  That is
the external guess with its shaped confidences, or the attack model: the
fit/validation split, the discretised features and the naive-Bayes tables
of the feature and label columns, with their log joints on the training and
validation rows, which in mode ``a`` already give the guesses.  Per
(seed, epsilon) cell: repair the three parts' predictions, score the target
model, optionally estimate the constraint, in mode ``aprime`` fit the
prediction column and add its term to the log joints, choose the confidence
exponent, correct and score.

Cell failures are recorded in their row instead of aborting the sweep.  A
per-seed stage that fails is recorded in every cell, raised at the step of
the cell that uses it.  Reports are fully deterministic for a fixed
(config, data): rows carry no wall-clock fields and every random draw is
seeded.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..adversary import (
    DEFAULT_K_GRID,
    MODE_A,
    MODE_A_PRIME,
    AttackSet,
    BaselineGuess,
    Discretizer,
    fit_prediction_column,
    guess_from_log_joint,
    label_log_joint,
    predict_guess,
    prediction_log_likelihood,
    process_confidences,
    shape_confidences,
    train_baseline,
)
from ..core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    reconstruction_accuracy,
    unfairness,
)
from ..corrector import correct, solve_general_bruteforce
from ..errors import (
    BadParameters,
    FairleakError,
    Infeasible,
    IoError,
    SchemaError,
    UnsupportedCardinality,
)
from ..estimator import estimate_constraint
from .data import CATEGORICAL, DatasetTable, split_dataset
from .predictor import RepairState, fit_label_predictor
from .predictor import repair_predictions  # noqa: F401  (perfbench traces this name)

MODE_EXTERNAL = "external"

#: 25 tolerances, 0 plus a geometric ramp to 0.20.
DEFAULT_EPSILON_GRID = (0.0,) + tuple(
    round(float(x), 6) for x in np.geomspace(0.001, 0.2, 24)
)

_ORACLE_SLICE = 12


@dataclass(frozen=True, eq=False)
class ExternalGuess:
    """An externally produced guess, keyed by dataset id."""

    ids: np.ndarray
    guess: np.ndarray
    raw_scores: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        guess = np.asarray(self.guess, dtype=np.int64)
        raw = np.asarray(self.raw_scores, dtype=np.float64)
        if not ids.size == guess.size == raw.size:
            raise SchemaError("guess file columns differ in length")
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


@dataclass(frozen=True)
class ExperimentConfig:
    metric: FairnessMetric = FairnessMetric.SP
    estimate: bool = False
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID
    epsilon_lower: float | None = None
    seeds: tuple[int, ...] = (0,)
    adversary_mode: str = MODE_A_PRIME
    split_fractions: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    oracle_check: bool = False
    external_guess: ExternalGuess | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", FairnessMetric(self.metric))
        if not self.epsilon_grid:
            raise BadParameters("epsilon grid must be nonempty")
        if any(not 0.0 <= e <= 1.0 for e in self.epsilon_grid):
            raise BadParameters("epsilon grid values must lie in [0, 1]")
        if self.epsilon_lower is not None and self.epsilon_lower > min(self.epsilon_grid):
            raise BadParameters("epsilon_lower exceeds the smallest grid tolerance")
        if not self.seeds:
            raise BadParameters("need at least one seed")
        if not self.k_grid:
            raise BadParameters("k grid must be nonempty")
        if not all(math.isfinite(k) and k > 0 for k in self.k_grid):
            raise BadParameters("k grid exponents must be finite and positive")
        if self.adversary_mode not in (MODE_A, MODE_A_PRIME, MODE_EXTERNAL):
            raise BadParameters(f"unknown adversary mode: {self.adversary_mode!r}")
        if self.adversary_mode == MODE_EXTERNAL and self.external_guess is None:
            raise BadParameters("external mode needs a guess file")
        if self.adversary_mode != MODE_EXTERNAL and self.external_guess is not None:
            raise BadParameters("a guess file is only read in external mode")


@dataclass(frozen=True)
class ReportRow:
    seed: int
    epsilon: float
    metric: str
    status: str
    baseline_accuracy: float | None = None
    corrected_accuracy: float | None = None
    improvement: float | None = None
    objective: float | None = None
    flips: int | None = None
    chosen_k: float | None = None
    solver_nodes: int | None = None
    proven_optimal: bool | None = None
    estimated: bool = False
    estimated_metric: str | None = None
    estimated_epsilon: float | None = None
    target_train_accuracy: float | None = None
    target_test_accuracy: float | None = None
    target_train_unfairness: float | None = None
    target_test_unfairness: float | None = None
    oracle_gap: float | None = None


REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(ReportRow))


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    metadata: dict


def _r6(value: float | None) -> float | None:
    return None if value is None else round(float(value), 6)


def _min_group_floor(sensitive: np.ndarray) -> float:
    counts = np.bincount(sensitive, minlength=2)
    present = counts[counts > 0]
    if present.size == 0:
        return 1.0
    return 1.0 / int(present.min())


def _attack_features(
    table: DatasetTable, disc: Discretizer
) -> dict[str, np.ndarray]:
    columns = {}
    for name, col in table.features.items():
        if col.kind == CATEGORICAL:
            columns[name] = col.values
        else:
            columns[name] = disc.transform_column(name, col.values)
    return columns


@dataclass(frozen=True, eq=False)
class _AttackModel:
    """A seed's attack model, trained without the target-prediction column,
    with the validation rows that k-selection corrects.

    In mode ``a`` the guesses on the training and validation rows are final
    (``fixed``).  In mode ``aprime`` ``joints`` holds their log joints, and
    each cell fits the prediction column on the fit rows' repaired
    predictions and adds its term last, as ``predict_guess`` does.
    """

    fit_idx: np.ndarray
    val_idx: np.ndarray
    fit_sensitive: np.ndarray
    val_floor: float
    fixed: tuple[BaselineGuess, BaselineGuess] | None
    joints: tuple[np.ndarray, np.ndarray] | None

    def guesses(
        self, yh_train: np.ndarray, yh_attack: np.ndarray
    ) -> tuple[BaselineGuess, BaselineGuess]:
        if self.fixed is not None:
            return self.fixed
        column = fit_prediction_column(self.fit_sensitive, yh_attack[self.fit_idx])
        train_joint, val_joint = self.joints
        return (
            guess_from_log_joint(train_joint + prediction_log_likelihood(column, yh_train)),
            guess_from_log_joint(
                val_joint + prediction_log_likelihood(column, yh_attack[self.val_idx])
            ),
        )


def _train_attack_model(
    mode: str, seed: int, train: DatasetTable, attack: DatasetTable
) -> _AttackModel:
    numeric = {
        name: col.values
        for name, col in attack.features.items()
        if col.kind != CATEGORICAL
    }
    disc = Discretizer().fit(numeric)
    feats_attack = _attack_features(attack, disc)
    rng = np.random.default_rng([seed, 11])
    perm = rng.permutation(attack.n)
    n_fit = int(round(attack.n * 0.8))
    fit_idx = np.sort(perm[:n_fit])
    val_idx = np.sort(perm[n_fit:])
    fit_set = AttackSet(
        features={k: v[fit_idx] for k, v in feats_attack.items()},
        labels=attack.labels[fit_idx],
        sensitive=attack.sensitive[fit_idx],
        cardinality=attack.sensitive_cardinality,
    )
    model = train_baseline(fit_set, MODE_A)
    rows = (
        (_attack_features(train, disc), train.labels),
        ({k: v[val_idx] for k, v in feats_attack.items()}, attack.labels[val_idx]),
    )
    fixed = joints = None
    if mode == MODE_A:
        fixed = tuple(predict_guess(model, feats, labels) for feats, labels in rows)
    else:
        joints = tuple(label_log_joint(model, feats, labels) for feats, labels in rows)
    return _AttackModel(
        fit_idx,
        val_idx,
        fit_set.sensitive,
        _min_group_floor(attack.sensitive[val_idx]),
        fixed,
        joints,
    )


@dataclass(frozen=True, eq=False)
class _Seed:
    """What a seed's cells share: everything that does not depend on the
    tolerance.  ``adversary`` is the external guess with its shaped
    confidences, or the attack model, or the FairleakError that building it
    raised; each cell raises that error at the step that needs the
    adversary."""

    parts: tuple[DatasetTable, DatasetTable, DatasetTable]
    repairs: tuple[RepairState, ...]
    floors: tuple[float, ...]  # one-count tolerance floor of each part
    adversary: tuple[np.ndarray, np.ndarray] | _AttackModel | FairleakError


def _prepare_seed(config: ExperimentConfig, table: DatasetTable, seed: int) -> _Seed:
    parts = split_dataset(table, config.split_fractions, seed)
    train, test, attack = parts
    predictor = fit_label_predictor(train)
    repairs = tuple(
        RepairState(*predictor.raw_predictions(part), part.sensitive, part.labels, config.metric)
        for part in parts
    )
    floors = tuple(_min_group_floor(part.sensitive) for part in parts)
    adversary: tuple[np.ndarray, np.ndarray] | _AttackModel | FairleakError
    try:
        if config.adversary_mode == MODE_EXTERNAL:
            guess, raw_scores = config.external_guess.for_ids(train.ids)
            adversary = (guess, shape_confidences(raw_scores, 1.0))
        else:
            adversary = _train_attack_model(config.adversary_mode, seed, train, attack)
    except FairleakError as exc:
        adversary = exc
    return _Seed(parts, repairs, floors, adversary)


def _run_cell(config: ExperimentConfig, seed: int, epsilon: float, state: _Seed) -> ReportRow:
    train, test, attack = state.parts
    metric = config.metric

    # fair training only ever enforces the upper bound; the lower bound
    # is adversary-side knowledge used by the correction alone
    yh_train, yh_test, yh_attack = [
        repair.repair(max(epsilon, floor))
        for repair, floor in zip(state.repairs, state.floors)
    ]

    target_stats = dict(
        target_train_accuracy=_r6(float(np.mean(yh_train == train.labels))),
        target_test_accuracy=_r6(float(np.mean(yh_test == test.labels))),
        target_train_unfairness=_r6(
            unfairness(metric, train.sensitive, yh_train, train.labels)
        ),
        target_test_unfairness=_r6(
            unfairness(metric, test.sensitive, yh_test, test.labels)
        ),
    )

    if config.estimate:
        estimated = estimate_constraint(
            attack.sensitive, yh_attack, attack.labels, tuple(FairnessMetric)
        )
        spec_used = estimated.spec
        est_fields = dict(
            estimated=True,
            estimated_metric=spec_used.metric.value,
            estimated_epsilon=_r6(spec_used.epsilon),
        )
    else:
        spec_used = FairnessSpec(metric, epsilon, config.epsilon_lower)
        est_fields = dict(estimated=False)

    # exact-zero parity is generically unattainable on integer counts, so the
    # pipeline floors the corrected tolerance at one-count resolution
    corr_spec = FairnessSpec(
        spec_used.metric,
        max(spec_used.epsilon, state.floors[0]),
        spec_used.epsilon_lower,
    )

    adversary = state.adversary
    if isinstance(adversary, FairleakError):
        raise adversary
    if isinstance(adversary, tuple):
        guess, processed = adversary
        chosen_k = 1.0
    else:
        baseline, val_guess = adversary.guesses(yh_train, yh_attack)
        guess = baseline.guess
        val_idx = adversary.val_idx
        val_spec = FairnessSpec(
            spec_used.metric,
            max(spec_used.epsilon, adversary.val_floor),
            spec_used.epsilon_lower,
        )
        val_instance = AttackInstance(
            predictions=yh_attack[val_idx],
            labels=attack.labels[val_idx],
            guess=val_guess.guess,
            confidence=val_guess.raw_scores,
            truth=attack.sensitive[val_idx],
        )
        processed, chosen_k = process_confidences(
            baseline.raw_scores, val_instance, val_spec, config.k_grid
        )

    instance = AttackInstance(
        predictions=yh_train,
        labels=train.labels,
        guess=guess,
        confidence=processed,
        truth=train.sensitive,
    )
    result = correct(instance, corr_spec)
    baseline_accuracy = reconstruction_accuracy(guess, train.sensitive)
    corrected_accuracy = reconstruction_accuracy(result.corrected, train.sensitive)

    oracle_gap = None
    if config.oracle_check:
        oracle_gap = _oracle_gap(instance, corr_spec, seed)

    return ReportRow(
        seed=seed,
        epsilon=_r6(epsilon),
        metric=metric.value,
        status="ok",
        baseline_accuracy=_r6(baseline_accuracy),
        corrected_accuracy=_r6(corrected_accuracy),
        improvement=_r6(corrected_accuracy - baseline_accuracy),
        objective=_r6(result.objective),
        flips=len(result.changed_indices),
        chosen_k=chosen_k,
        solver_nodes=result.stats.nodes,
        proven_optimal=result.stats.proven_optimal,
        oracle_gap=_r6(oracle_gap),
        **est_fields,
        **target_stats,
    )


def _oracle_gap(
    instance: AttackInstance, spec: FairnessSpec, seed: int
) -> float | None:
    """Objective gap between the efficient path and brute force on a small
    subsample; None when both routes agree the subsample is infeasible."""
    rng = np.random.default_rng([seed, 13])
    take = min(_ORACLE_SLICE, instance.n)
    sel = np.sort(rng.choice(instance.n, size=take, replace=False))
    mini = AttackInstance(
        predictions=instance.predictions[sel],
        labels=instance.labels[sel],
        guess=instance.guess[sel],
        confidence=instance.confidence[sel],
    )
    try:
        efficient = correct(mini, spec).objective
    except Infeasible:
        efficient = None
    try:
        brute = solve_general_bruteforce(mini, spec).objective
    except Infeasible:
        brute = None
    if efficient is None and brute is None:
        return None
    if efficient is None or brute is None:
        raise FairleakError("efficient path and brute force disagree on feasibility")
    return abs(efficient - brute)


def run_experiment(config: ExperimentConfig, table: DatasetTable) -> ExperimentReport:
    """Run the full sweep and collect one row per (seed, epsilon)."""
    if table.sensitive_cardinality > 2:
        raise UnsupportedCardinality(
            "the attack pipeline handles binary sensitive attributes; the dataset "
            f"declares {table.sensitive_cardinality} values"
        )
    external = config.external_guess
    if external is not None and not np.isin(external.guess, (0, 1)).all():
        raise UnsupportedCardinality("external guess values must be 0 or 1")
    rows: list[ReportRow] = []
    for seed in config.seeds:
        state = _prepare_seed(config, table, seed)
        for epsilon in config.epsilon_grid:
            try:
                rows.append(_run_cell(config, seed, epsilon, state))
            except FairleakError as exc:
                rows.append(
                    ReportRow(
                        seed=seed,
                        epsilon=_r6(epsilon),
                        metric=config.metric.value,
                        status=type(exc).__name__,
                        estimated=config.estimate,
                    )
                )
    metadata = {
        "metric": config.metric.value,
        "estimate": config.estimate,
        "epsilon_grid": [float(e) for e in config.epsilon_grid],
        "epsilon_grid_note": "geometric approximation of a non-linear ramp from 0 to 0.2",
        "epsilon_lower": config.epsilon_lower,
        "seeds": [int(s) for s in config.seeds],
        "adversary_mode": config.adversary_mode,
        "split_fractions": [float(f) for f in config.split_fractions],
        "k_grid": [float(k) for k in config.k_grid],
        "oracle_check": config.oracle_check,
        "dataset_rows": int(table.n),
    }
    return ExperimentReport(rows=tuple(rows), metadata=metadata)


def run_benchmark(
    n: int = 30_000,
    n_seeds: int = 50,
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID,
    metric: FairnessMetric = FairnessMetric.SP,
    estimate: bool = False,
    oracle_check: bool = False,
    adversary_mode: str = MODE_A_PRIME,
    rho: float = 0.6,
    beta: float = 0.5,
) -> ExperimentReport:
    """The default synthetic benchmark: one fresh table per seed.

    Seed ``s`` both generates table ``s`` and drives the pipeline split, so
    the runs are independent end to end.
    """
    from .synth import synth_generate

    rows: list[ReportRow] = []
    metadata: dict = {}
    for seed in range(n_seeds):
        table = synth_generate(n, seed=seed, rho=rho, beta=beta)
        config = ExperimentConfig(
            metric=metric,
            estimate=estimate,
            epsilon_grid=tuple(epsilon_grid),
            seeds=(seed,),
            adversary_mode=adversary_mode,
            oracle_check=oracle_check,
        )
        report = run_experiment(config, table)
        rows.extend(report.rows)
        metadata = report.metadata
    metadata = dict(metadata)
    metadata.update(
        {"seeds": list(range(n_seeds)), "benchmark": {"n": n, "rho": rho, "beta": beta}}
    )
    return ExperimentReport(rows=tuple(rows), metadata=metadata)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_report(report: ExperimentReport, path: str | Path, fmt: str = "csv") -> Path:
    """Write the report with a deterministic layout; returns the path."""
    path = Path(path)
    try:
        if fmt == "csv":
            lines = [",".join(REPORT_COLUMNS)]
            for row in report.rows:
                lines.append(
                    ",".join(_format_cell(getattr(row, c)) for c in REPORT_COLUMNS)
                )
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        elif fmt == "json":
            payload = {
                "metadata": report.metadata,
                "rows": [dataclasses.asdict(row) for row in report.rows],
            }
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        else:
            raise ValueError(f"unknown report format: {fmt!r}")
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc
    return path


def load_report_json(path: str | Path) -> ExperimentReport:
    """Read back a JSON report emitted by :func:`emit_report`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise IoError(f"cannot read report from {path}: {exc}") from exc
    rows = tuple(ReportRow(**row) for row in payload["rows"])
    return ExperimentReport(rows=rows, metadata=payload["metadata"])

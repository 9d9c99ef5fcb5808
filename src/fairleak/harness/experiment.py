"""Experiment orchestration: seeds x epsilon sweeps over the attack pipeline.

Only the repaired target predictions depend on the tolerance, so a sweep
does the rest once per seed.  Per seed: split the dataset into thirds, fit
the label predictor, repair each part for the whole grid (one lattice search
per metric slice, keeping each tolerance's lattice cell), and build the
adversary.  That is the external guess with its shaped confidences, or the
attack model: the fit/validation split, the discretised features and the
naive-Bayes tables of the feature and label columns, with their log joints
on the training and validation rows, which in mode ``a`` already give the
guesses.  Per (seed, epsilon) cell: apply the three parts' repair cells,
score the target model, optionally estimate the constraint, in mode
``aprime`` fit the prediction column and add its term to the log joints,
choose the confidence exponent from ``DEFAULT_K_GRID``, correct and score.

Cell failures are recorded in their row instead of aborting the sweep.  A
per-seed stage that fails is recorded in every cell of its seed: the
adversary's error at the step of the cell that uses it, any other at once.
Defects that do not depend on the seed, such as a table too small to train
on, are rejected before the first seed.  Reports are fully deterministic for
a fixed (config, data): rows carry no wall-clock fields and every random
draw is seeded.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from ..adversary import (
    DEFAULT_K_GRID,
    MODE_A,
    MODE_A_PRIME,
    AttackSet,
    BaselineGuess,
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
    unfairness,  # noqa: F401  (perfbench traces this name)
)
from ..corrector import RepairState, correct
from ..corrector import repair_predictions  # noqa: F401  (perfbench traces this name)
from ..errors import (
    BadParameters,
    EmptyVector,
    FairleakError,
    Infeasible,
    SchemaError,
    UnsupportedCardinality,
)
from ..estimator import estimate_constraint
from ..oracle import solve_general_bruteforce
from ._csv import write_columns, write_text
from .data import DatasetTable, split_dataset
from .instances import ExternalGuess
from .predictor import encode_features, fit_discretizer, fit_label_predictor

MODE_EXTERNAL = "external"

#: 25 tolerances, 0 plus a geometric ramp to 0.20.
DEFAULT_EPSILON_GRID = (0.0,) + tuple(
    round(float(x), 6) for x in np.geomspace(0.001, 0.2, 24)
)

_ORACLE_SLICE = 12


@dataclass(frozen=True)
class ExperimentConfig:
    metric: FairnessMetric = FairnessMetric.SP
    estimate: bool = False
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID
    epsilon_lower: float | None = None
    seeds: tuple[int, ...] = (0,)
    adversary_mode: str = MODE_A_PRIME
    oracle_check: bool = False
    external_guess: ExternalGuess | None = None
    # the confidence exponents k-selection tries; not a setting
    k_grid: ClassVar[tuple[float, ...]] = DEFAULT_K_GRID

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", FairnessMetric(self.metric))
        if not self.epsilon_grid:
            raise BadParameters("epsilon grid must be nonempty")
        if any(not 0.0 <= e <= 1.0 for e in self.epsilon_grid):
            raise BadParameters("epsilon grid values must lie in [0, 1]")
        if self.epsilon_lower is not None and not (
            0.0 <= self.epsilon_lower <= min(self.epsilon_grid)
        ):
            raise BadParameters("epsilon_lower must lie in [0, smallest grid tolerance]")
        if self.estimate and self.epsilon_lower is not None:
            raise BadParameters("epsilon_lower cannot apply to an estimated constraint")
        if not self.seeds:
            raise BadParameters("need at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise BadParameters("seeds must be non-negative")
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


def _floored(spec: FairnessSpec, floor: float) -> FairnessSpec:
    """``spec`` with its tolerance raised to at least ``floor``."""
    return dataclasses.replace(spec, epsilon=max(spec.epsilon, floor))


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
        column = fit_prediction_column(self.fit_sensitive, yh_attack.take(self.fit_idx))
        train_joint, val_joint = self.joints
        return (
            guess_from_log_joint(train_joint + prediction_log_likelihood(column, yh_train)),
            guess_from_log_joint(
                val_joint + prediction_log_likelihood(column, yh_attack.take(self.val_idx))
            ),
        )


def _train_attack_model(
    mode: str, seed: int, train: DatasetTable, attack: DatasetTable
) -> _AttackModel:
    disc = fit_discretizer(attack)
    feats_attack = encode_features(attack, disc, attack.features)
    rng = np.random.default_rng([seed, 11])
    perm = rng.permutation(attack.n)
    n_fit = int(round(attack.n * 0.8))
    fit_idx = np.sort(perm[:n_fit])
    val_idx = np.sort(perm[n_fit:])
    fit_set = AttackSet(
        features={k: v[fit_idx] for k, v in feats_attack.items()},
        labels=attack.labels[fit_idx],
        sensitive=attack.sensitive[fit_idx],
    )
    model = train_baseline(fit_set, MODE_A)
    rows = (
        (encode_features(train, disc, train.features), train.labels),
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
    # per part, per grid tolerance: RepairState.solve's cells
    repaired: tuple[list, ...]
    floors: tuple[float, ...]  # one-count tolerance floor of each part
    adversary: tuple[np.ndarray, np.ndarray] | _AttackModel | FairleakError


def _prepare_seed(config: ExperimentConfig, table: DatasetTable, seed: int) -> _Seed:
    parts = split_dataset(table, seed)
    train, test, attack = parts
    predictor = fit_label_predictor(train)
    repairs = tuple(
        RepairState(*predictor.raw_predictions(part), part.sensitive, part.labels, config.metric)
        for part in parts
    )
    floors = tuple(_min_group_floor(part.sensitive) for part in parts)
    repaired = tuple(
        repair.solve([max(epsilon, floor) for epsilon in config.epsilon_grid])
        for repair, floor in zip(repairs, floors)
    )
    adversary: tuple[np.ndarray, np.ndarray] | _AttackModel | FairleakError
    try:
        if config.adversary_mode == MODE_EXTERNAL:
            guess, raw_scores = config.external_guess.for_ids(train.ids)
            adversary = (guess, shape_confidences(raw_scores, 1.0))
        else:
            adversary = _train_attack_model(config.adversary_mode, seed, train, attack)
    except FairleakError as exc:
        adversary = exc
    return _Seed(parts, repairs, repaired, floors, adversary)


def _run_cell(config: ExperimentConfig, seed: int, index: int, state: _Seed) -> ReportRow:
    """The report row of the grid's ``index``-th tolerance on a prepared seed."""
    train, test, attack = state.parts
    metric = config.metric
    epsilon = config.epsilon_grid[index]

    yh_train, yh_test, yh_attack = [
        repair.apply(repaired[index]) for repair, repaired in zip(state.repairs, state.repaired)
    ]

    target_stats = dict(
        target_train_accuracy=_r6(float(np.mean(yh_train == train.labels))),
        target_test_accuracy=_r6(float(np.mean(yh_test == test.labels))),
        target_train_unfairness=_r6(state.repairs[0].unfairness(state.repaired[0][index])),
        target_test_unfairness=_r6(state.repairs[1].unfairness(state.repaired[1][index])),
    )

    if config.estimate:
        estimated = estimate_constraint(attack.sensitive, yh_attack, attack.labels)
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
    corr_spec = _floored(spec_used, state.floors[0])

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
        val_spec = _floored(spec_used, adversary.val_floor)
        val_instance = AttackInstance(
            predictions=yh_attack[val_idx],
            labels=attack.labels[val_idx],
            guess=val_guess.guess,
            confidence=val_guess.raw_scores,
            truth=attack.sensitive[val_idx],
        )
        processed, chosen_k = process_confidences(baseline.raw_scores, val_instance, val_spec)

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
    if table.n < 3:
        part = ("training", "test", "attack")[table.n]
        raise EmptyVector(f"a table of {table.n} rows leaves the {part} part empty")
    if not table.features:
        raise SchemaError("the label predictor needs at least one feature column")
    rows: list[ReportRow] = []
    for seed in config.seeds:
        try:
            state: _Seed | FairleakError = _prepare_seed(config, table, seed)
        except FairleakError as exc:
            state = exc
        for index, epsilon in enumerate(config.epsilon_grid):
            try:
                if isinstance(state, FairleakError):
                    raise state
                rows.append(_run_cell(config, seed, index, state))
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
        "split_fractions": [1 / 3] * 3,
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
    rho: float = 0.6,
    beta: float = 0.5,
) -> ExperimentReport:
    """The default synthetic benchmark: one fresh table per seed.

    Seed ``s`` both generates table ``s`` and drives the pipeline split, so
    the runs are independent end to end.
    """
    from .synth import synth_generate

    if n_seeds < 1:
        raise BadParameters("need at least one seed")
    rows: list[ReportRow] = []
    metadata: dict = {}
    for seed in range(n_seeds):
        table = synth_generate(n, seed=seed, rho=rho, beta=beta)
        config = ExperimentConfig(
            metric=metric,
            estimate=estimate,
            epsilon_grid=tuple(epsilon_grid),
            seeds=(seed,),
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
    if fmt == "csv":
        cells = [[_format_cell(getattr(row, c)) for row in report.rows] for c in REPORT_COLUMNS]
        return write_columns(path, REPORT_COLUMNS, cells, "report")
    if fmt != "json":
        raise BadParameters(f"unknown report format: {fmt!r}")
    payload = {"metadata": report.metadata, "rows": list(map(dataclasses.asdict, report.rows))}
    return write_text(path, json.dumps(payload, indent=2) + "\n", "report")


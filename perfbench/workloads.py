"""The benchmark's workloads: inputs made in set-up, one pass of operations,
and the check of every operation's output.

A pass runs each operation of a workload once, in a fixed order, over inputs
made in set-up from the workload seed.  The layer entry points are called
through this module's globals so that a traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from fairleak import core
from fairleak.adversary import (
    MODE_A_PRIME,
    AttackSet,
    predict_guess,
    shape_confidences,
    train_baseline,
)
from fairleak.cli import main as cli_main
from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec
from fairleak.corrector import correct
from fairleak.harness import (
    ExperimentConfig,
    fit_label_predictor,
    repair_predictions,
    run_experiment,
    synth_generate,
)

SP = FairnessMetric.SP
EODDS = FairnessMetric.EODDS

SWEEP = "sweep-sp-aprime"
WORKLOADS = (SWEEP, "correct-large", "correct-file")

#: Correction instances: the simulated target model is repaired to SP at this
#: tolerance, and the adversary's scores are shaped with this exponent.
TARGET_EPSILON = 0.01
CONFIDENCE_K = 4


@dataclass(frozen=True)
class Scale:
    """Input sizes and counts; FULL is the benchmark, TINY the smoke test."""

    sweep_rows: int = 30_000
    sweep_tables: int = 3
    # (n_train, tolerances): eps = 0.2 leaves the baseline feasible, which the
    # 1e5 instance covers; the 1e6 instance gets one scanning tolerance, so
    # that each pass stays short and every request gets many samples
    correct_requests: tuple[tuple[int, tuple[float, ...]], ...] = (
        (100_000, (0.001, 0.01, 0.2)),
        (1_000_000, (0.01,)),
    )
    attack_rows: int = 100_000
    metrics: tuple[FairnessMetric, ...] = (SP, EODDS)
    # requests of about 60 ms, short enough to get many samples
    file_rows: int = 10_000
    file_epsilons: tuple[float, ...] = (0.01, 0.2)
    # set-up runs at least this many times and for at least this long, so a
    # quick set-up's median rests on many samples
    setups: int = 3
    setup_seconds: float = 1.0


FULL = Scale()
TINY = Scale(
    sweep_rows=3_000,
    sweep_tables=1,
    correct_requests=((3_000, (0.01,)),),
    attack_rows=2_000,
    metrics=(SP,),
    file_rows=3_000,
    file_epsilons=(0.01,),
    setups=1,
    setup_seconds=0.0,
)


@dataclass
class Outcome:
    """What the check of one operation found."""

    error: str | None = None
    improvement: float = 0.0  # summed accuracy gain of the corrected guesses
    cells: int = 0  # corrected guesses the gain is summed over
    fingerprint: object = None  # compared against the recorded reference


@dataclass(frozen=True)
class Op:
    key: str  # reference key; names every input the output depends on
    group: str  # latency percentiles are reported per group
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def group_name(rows: int) -> str:
    exponent = round(math.log10(rows))
    return f"n1e{exponent}" if rows == 10**exponent else f"n{rows}"


# -- sweeps ---------------------------------------------------------------


def sweep_fingerprint(rows) -> str:
    fields = [
        [r.status, r.objective, r.baseline_accuracy, r.corrected_accuracy, r.chosen_k]
        for r in rows
    ]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def check_sweep(config: ExperimentConfig, report) -> Outcome:
    rows = report.rows
    if len(rows) != len(config.epsilon_grid):
        return Outcome(f"{len(rows)} rows for {len(config.epsilon_grid)} tolerances")
    for row in rows:
        if row.status != "ok":
            return Outcome(f"cell eps={row.epsilon} ended {row.status}")
        if row.chosen_k not in config.k_grid:
            return Outcome(f"cell eps={row.epsilon} chose k={row.chosen_k}")
        if row.objective < 0 or row.flips < 0:
            return Outcome(f"cell eps={row.epsilon} has a negative objective or flips")
        gain = row.corrected_accuracy - row.baseline_accuracy
        if abs(row.improvement - gain) > 2e-6:
            return Outcome(f"cell eps={row.epsilon} misreports its improvement")
    return Outcome(
        improvement=sum(row.improvement for row in rows),
        cells=len(rows),
        fingerprint=sweep_fingerprint(rows),
    )


def sweep_setup(seed: int, scale: Scale) -> list[Op]:
    """The paper's default bench, SP with mode aprime, the default tolerance
    and k grids: one fresh table per operation, whose seed also drives the
    split."""
    ops = []
    for j in range(scale.sweep_tables):
        table_seed = 1000 * seed + j
        table = synth_generate(scale.sweep_rows, seed=table_seed)
        config = ExperimentConfig(metric=SP, adversary_mode=MODE_A_PRIME, seeds=(table_seed,))
        ops.append(
            Op(
                key=f"{SWEEP}/{scale.sweep_rows}/{table_seed}",
                group="sweep",
                run=lambda config=config, table=table: run_experiment(config, table),
                check=lambda report, config=config: check_sweep(config, report),
            )
        )
    return ops


# -- correction requests --------------------------------------------------


def build_instance(rows: int, seed: int, scale: Scale) -> AttackInstance:
    """An aprime guess with shaped confidences on a fresh training table."""
    train = synth_generate(rows, seed=1000 * seed + 501)
    attack = synth_generate(scale.attack_rows, seed=1000 * seed + 500)
    target = fit_label_predictor(train)
    target_spec = FairnessSpec(SP, TARGET_EPSILON)
    fair = []
    for table in (train, attack):
        yhat, margins = target.raw_predictions(table)
        fair.append(
            repair_predictions(yhat, margins, table.sensitive, table.labels, target_spec)
        )
    attack_set = AttackSet(
        features={name: col.values for name, col in attack.features.items()},
        labels=attack.labels,
        sensitive=attack.sensitive,
        target_predictions=fair[1],
    )
    model = train_baseline(attack_set, MODE_A_PRIME)
    guess = predict_guess(
        model,
        {name: col.values for name, col in train.features.items()},
        train.labels,
        fair[0],
    )
    return AttackInstance(
        predictions=fair[0],
        labels=train.labels,
        guess=guess.guess,
        confidence=shape_confidences(guess.raw_scores, CONFIDENCE_K),
        truth=train.sensitive,
    )


def check_correction(
    instance: AttackInstance, spec: FairnessSpec, corrected: np.ndarray, objective: float
) -> Outcome:
    """Exact feasibility, and an objective equal to the flipped confidences."""
    changed = np.flatnonzero(corrected != instance.guess)
    gap = core.unfairness_exact(
        spec.metric, corrected, instance.predictions, instance.labels
    )
    if gap > Fraction(spec.epsilon):
        return Outcome(f"unfairness {float(gap):.6g} exceeds {spec.epsilon}")
    cost = math.fsum(instance.confidence[changed])
    if not math.isclose(objective, cost, rel_tol=1e-9, abs_tol=1e-12):
        return Outcome(f"objective {objective!r} but the flips cost {cost!r}")
    gain = core.reconstruction_accuracy(
        corrected, instance.truth
    ) - core.reconstruction_accuracy(instance.guess, instance.truth)
    return Outcome(improvement=gain, cells=1, fingerprint=objective)


def check_result(instance: AttackInstance, spec: FairnessSpec, result) -> Outcome:
    corrected = np.asarray(result.corrected)
    changed = tuple(np.flatnonzero(corrected != instance.guess).tolist())
    if changed != tuple(result.changed_indices):
        return Outcome("changed_indices disagree with the corrected vector")
    return check_correction(instance, spec, corrected, result.objective)


def correct_large_setup(seed: int, scale: Scale) -> list[Op]:
    ops = []
    for rows, epsilons in scale.correct_requests:
        instance = build_instance(rows, seed, scale)
        for metric in scale.metrics:
            for epsilon in epsilons:
                spec = FairnessSpec(metric, epsilon)
                ops.append(
                    Op(
                        key=f"correct/{rows}/{seed}/{metric.value}/{epsilon}",
                        group=group_name(rows),
                        run=lambda i=instance, s=spec: correct(i, s),
                        check=lambda r, i=instance, s=spec: check_result(i, s, r),
                    )
                )
    return ops


def write_instance_csv(path: Path, instance: AttackInstance) -> None:
    """The `fairleak correct` input format; repr keeps every float exact."""
    lines = ["id,y,yhat,s_hat,confidence,s_true"]
    columns = zip(
        instance.labels.tolist(),
        instance.predictions.tolist(),
        instance.guess.tolist(),
        instance.confidence.tolist(),
        instance.truth.tolist(),
    )
    for i, (y, yhat, guess, conf, truth) in enumerate(columns):
        lines.append(f"{i},{y},{yhat},{guess},{conf!r},{truth}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_request(
    instance: AttackInstance, spec: FairnessSpec, out: Path, report: Path, code: int
) -> Outcome:
    if code != 0:
        return Outcome(f"fairleak correct exited with code {code}")
    # the next request must write its own files, so these are removed once read
    try:
        # columns: id,y,yhat,s_hat,confidence,s_corrected,s_true
        corrected = np.loadtxt(
            out, delimiter=",", skiprows=1, usecols=5, dtype=np.int64, ndmin=1
        )
        payload = json.loads(report.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
    if corrected.shape != instance.guess.shape:
        return Outcome(f"{corrected.size} corrected rows for {instance.n} input rows")
    if payload["flips"] != int(np.count_nonzero(corrected != instance.guess)):
        return Outcome("the report's flip count disagrees with the corrected file")
    return check_correction(instance, spec, corrected, payload["objective"])


def correct_file_setup(seed: int, scale: Scale, workdir: Path) -> list[Op]:
    ops = []
    rows = scale.file_rows
    instance = build_instance(rows, seed, scale)
    source = workdir / "instance.csv"
    out = workdir / "corrected.csv"
    report = workdir / "report.json"
    write_instance_csv(source, instance)
    for metric in scale.metrics:
        for epsilon in scale.file_epsilons:
            spec = FairnessSpec(metric, epsilon)
            argv = [
                "correct", "--input", str(source), "--metric", metric.value,
                "--epsilon", repr(epsilon), "--out", str(out), "--report", str(report),
            ]
            ops.append(
                Op(
                    key=f"correct/{rows}/{seed}/{metric.value}/{epsilon}",
                    group=group_name(rows),
                    run=lambda argv=argv: cli_main(argv),
                    check=lambda code, s=spec: check_request(instance, s, out, report, code),
                )
            )
    return ops


def setup(workload: str, seed: int, scale: Scale, workdir: Path) -> list[Op]:
    """Make the workload's inputs from its seed: one pass of operations."""
    if workload == SWEEP:
        return sweep_setup(seed, scale)
    if workload == "correct-large":
        return correct_large_setup(seed, scale)
    return correct_file_setup(seed, scale, workdir)

"""Command-line interface.

Subcommands: ``correct``, ``estimate``, ``attack``, ``synth``, ``bench``.
Exit codes: 0 on success, 2 when a correction is infeasible, 3 on input
errors; a failure is written to stderr once, as one ``fairleak:`` line.
``FAIRLEAK_LOG`` in {error, info, debug} sets the log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

from .core import FairnessMetric, FairnessSpec, MoveCounts, reconstruction_accuracy
from .corrector import correct
from .errors import FairleakError, Infeasible, MissingPredictions
from .estimator import estimate_constraint
from .harness import (
    DEFAULT_EPSILON_GRID,
    DatasetSchema,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    ingest_csv,
    read_guess_csv,
    read_instance_csv,
    run_benchmark,
    run_experiment,
    synth_generate,
    write_correction_csv,
    write_dataset_csv,
)
from .harness._csv import write_text
from .oracle import solve_general_bruteforce

log = logging.getLogger("fairleak")

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the input-error code instead of 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _metric(value: str) -> FairnessMetric:
    try:
        return FairnessMetric(value.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not one of sp, pe, eo, eodds"
        ) from None


def _epsilon_grid(value: str) -> tuple[float, ...]:
    if value == "default":
        return DEFAULT_EPSILON_GRID
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("epsilon grid must be comma-separated numbers") from None


def _seed_list(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("seeds must be comma-separated integers") from None


@functools.cache  # parsing leaves the parser as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="fairleak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correct", help="correct one instance CSV")
    p.add_argument("--input", required=True, help="instance CSV (id,y,yhat,s_hat,confidence[,s_true])")
    p.add_argument("--metric", type=_metric, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--epsilon-lower", type=float, default=None)
    p.add_argument("--out", required=True, help="corrected CSV path")
    p.add_argument("--report", default=None, help="optional JSON solve report")

    p = sub.add_parser("estimate", help="estimate the hidden fairness constraint")
    p.add_argument("--attack-set", required=True, help="dataset CSV with a prediction column")
    p.add_argument("--schema", required=True, help="schema JSON sidecar")

    p = sub.add_parser("attack", help="run the attack pipeline on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--mode", choices=["a", "aprime", "external"], default="aprime")
    p.add_argument("--guess-file", default=None, help="external guess CSV (id,s_hat,confidence_raw)")
    p.add_argument("--epsilon-grid", type=_epsilon_grid, default=DEFAULT_EPSILON_GRID)
    p.add_argument("--metric", type=_metric, default=FairnessMetric.SP)
    p.add_argument("--estimate", action="store_true")
    p.add_argument("--epsilon-lower", type=float, default=None)
    p.add_argument("--seeds", type=_seed_list, default=(0,))
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=0.6)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="run the default synthetic benchmark")
    p.add_argument("--n", type=int, default=30_000)
    p.add_argument("--seeds", type=int, default=50, help="number of seeds (0..seeds-1)")
    p.add_argument("--oracle-check", action="store_true")
    p.add_argument("--metric", type=_metric, default=FairnessMetric.SP)
    p.add_argument("--estimate", action="store_true")
    p.add_argument("--epsilon-grid", type=_epsilon_grid, default=DEFAULT_EPSILON_GRID)
    p.add_argument("--rho", type=float, default=0.6)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default=None)
    return parser


def _cmd_correct(args: argparse.Namespace) -> int:
    ids, instance = read_instance_csv(args.input)
    spec = FairnessSpec(args.metric, args.epsilon, args.epsilon_lower)
    if instance.cardinality == 2:
        result = correct(instance, spec)
    else:
        result = solve_general_bruteforce(instance, spec)
    write_correction_csv(args.out, ids, instance, result)
    log.info("corrected %d of %d entries, objective %.6g",
             len(result.changed_indices), instance.n, result.objective)
    if args.report:
        moves = result.moves
        payload = {
            "objective": result.objective,
            "flips": len(result.changed_indices),
            "moves": dataclasses.asdict(moves)
            if isinstance(moves, MoveCounts)
            else {f"{a}->{b}": c for (a, b), c in sorted(moves.items())},
            "solver_nodes": result.stats.nodes,
        }
        # an empty instance has no accuracy to report
        if instance.truth is not None and instance.n:
            payload["baseline_accuracy"] = reconstruction_accuracy(
                instance.guess, instance.truth
            )
            payload["corrected_accuracy"] = reconstruction_accuracy(
                result.corrected, instance.truth
            )
        write_text(args.report, json.dumps(payload, indent=2) + "\n", "solve report")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    schema = DatasetSchema.from_json(args.schema)
    table = ingest_csv(args.attack_set, schema)
    if table.predictions is None:
        raise MissingPredictions("attack set needs the target model's prediction column")
    estimated = estimate_constraint(table.sensitive, table.predictions, table.labels)
    payload = {
        "metric": estimated.spec.metric.value,
        "epsilon": estimated.spec.epsilon,
        "per_metric_unfairness": {
            m.value: v for m, v in estimated.per_metric_unfairness.items()
        },
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _emit(report: ExperimentReport, args: argparse.Namespace) -> int:
    fmt = args.format or ("json" if str(args.out).endswith(".json") else "csv")
    emit_report(report, args.out, fmt)
    log.info("wrote %d rows to %s", len(report.rows), args.out)
    return EXIT_OK


def _cmd_attack(args: argparse.Namespace) -> int:
    schema = DatasetSchema.from_json(args.schema)
    table = ingest_csv(args.data, schema)
    external = read_guess_csv(args.guess_file) if args.guess_file else None
    config = ExperimentConfig(
        metric=args.metric,
        estimate=args.estimate,
        epsilon_grid=args.epsilon_grid,
        epsilon_lower=args.epsilon_lower,
        seeds=args.seeds,
        adversary_mode=args.mode,
        oracle_check=args.oracle_check,
        external_guess=external,
    )
    report = run_experiment(config, table)
    return _emit(report, args)


def _cmd_synth(args: argparse.Namespace) -> int:
    table = synth_generate(args.n, seed=args.seed, rho=args.rho, beta=args.beta)
    write_dataset_csv(table, args.out)
    log.info("wrote %d rows to %s", table.n, args.out)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    report = run_benchmark(
        n=args.n,
        n_seeds=args.seeds,
        epsilon_grid=args.epsilon_grid,
        metric=args.metric,
        estimate=args.estimate,
        oracle_check=args.oracle_check,
        rho=args.rho,
        beta=args.beta,
    )
    return _emit(report, args)


_COMMANDS = {
    "correct": _cmd_correct,
    "estimate": _cmd_estimate,
    "attack": _cmd_attack,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
}


def _configure_logging() -> None:
    level = os.environ.get("FAIRLEAK_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR), format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Infeasible as exc:
        print(f"fairleak: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FairleakError, OSError) as exc:
        print(f"fairleak: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Build the reports that ``test_digests.py`` pins, and record their digests.

The outputs are the JSON reports of the default benchmark at a small size for
every metric, the JSON reports of ``run_experiment`` in each adversary mode
(with and without an estimated constraint, with a lower bound, with the
oracle check, and on a table with numeric features), and the corrected CSV
and solve report that ``fairleak correct`` writes for each instance of CI's
console-script step.  A change that moves a digest re-records the table and
says which digest moved and why.  Re-record from the repository root with::

    PYTHONPATH=src python tests/record_digests.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from fairleak.cli import EXIT_OK
from fairleak.cli import main as cli_main
from fairleak.core import FairnessMetric
from fairleak.harness import (
    NUMERIC,
    DatasetTable,
    ExperimentConfig,
    ExternalGuess,
    FeatureColumn,
    emit_report,
    run_benchmark,
    run_experiment,
    synth_generate,
)

TABLE = Path(__file__).with_name("digests.json")

GRID = (0.0, 0.01, 0.05, 0.2)

# (name, file bytes, metric, epsilon, epsilon_lower): CI's `fairleak correct` runs
INSTANCES = (
    (
        "instance",
        b"id,y,yhat,s_hat,confidence,s_true\n0,0,1,1,0.1,0\n1,0,1,1,1.0,1\n"
        b"2,0,0,0,1.0,0\n3,0,0,0,0.2,1\n",
        "sp", "0.1", None,
    ),
    (
        "twin",
        b'\xef\xbb\xbfid,y,yhat,s_hat,confidence,s_true\r\n"0",0,1,1,0.1,0\r\n'
        b'1,"0",1,1,1.0,1\r\n2,0,0,0,"1.0",0\r\n3,0,0,0,0.2,"1"\r\n',
        "sp", "0.1", None,
    ),
    (
        "tied",
        b"id,y,yhat,s_hat,confidence,s_true\n0,0,1,1,0.5,0\n1,0,1,1,0.5,1\n"
        b"2,0,0,0,0.5,0\n3,0,0,0,0.5,1\n",
        "sp", "0.1", None,
    ),
    (
        "carrier",
        b"id,y,yhat,s_hat,confidence,s_true\n0,0,1,0,0.1,0\n1,0,1,0,0.5,0\n"
        b"2,0,1,1,0.5,1\n3,0,1,0,0.9,0\n4,1,1,1,0.6,1\n5,1,1,1,0.5,1\n"
        b"6,1,0,0,0.5,0\n7,1,1,0,0.2,0\n",
        "eodds", "0.75", "0.5",
    ),
    (
        "positive",
        b"id,y,yhat,s_hat,confidence,s_true\n0,1,1,1,0.3,1\n1,1,0,0,0.4,0\n"
        b"2,1,1,0,0.5,1\n3,1,0,1,0.6,0\n",
        "pe", "0.0", None,
    ),
    (
        "lower",
        b"id,y,yhat,s_hat,confidence\n0,0,1,1,0.8\n1,0,0,1,0.6\n2,0,0,0,0.1\n"
        b"3,0,0,0,0.4\n4,0,0,0,0.7\n5,0,1,0,0.2\n",
        "sp", "0.5", "0.25",
    ),
    (
        "three",
        b"id,y,yhat,s_hat,confidence\n0,0,0,0,0.5\n1,0,1,1,0.2\n2,0,1,2,0.3\n"
        b"3,0,0,2,0.8\n4,0,0,0,0.6\n5,0,0,2,0.4\n6,0,0,2,0.1\n",
        "sp", "0.3", None,
    ),
)


def _external_guess(table: DatasetTable) -> ExternalGuess:
    """A guess that is right on about 70 % of rows, with raw scores in [0.5, 1]."""
    rng = np.random.default_rng(5)
    wrong = rng.random(table.n) < 0.3
    return ExternalGuess(table.ids, table.sensitive ^ wrong, 0.5 + 0.5 * rng.random(table.n))


def _numeric_table() -> DatasetTable:
    """Two categorical and two numeric features: the numeric ones take the
    decile binning, which no synthetic table reaches."""
    base = synth_generate(3000, seed=1)
    rng = np.random.default_rng(7)
    features = {name: base.features[name] for name in ("f0", "f2")}
    features["x0"] = FeatureColumn(NUMERIC, base.labels + rng.normal(size=base.n))
    features["x1"] = FeatureColumn(NUMERIC, 0.5 * base.sensitive + rng.normal(size=base.n))
    return DatasetTable(base.ids, features, base.sensitive, base.labels)


def _experiments() -> dict:
    table = synth_generate(3000)
    external = _external_guess(table)
    runs = {}
    for mode in ("a", "aprime", "external"):
        for estimate in (False, True):
            runs[f"attack-{mode}{'-estimate' if estimate else ''}"] = (
                ExperimentConfig(
                    epsilon_grid=GRID,
                    seeds=(0, 1),
                    estimate=estimate,
                    adversary_mode=mode,
                    external_guess=external if mode == "external" else None,
                ),
                table,
            )
    runs["attack-eodds-lower"] = (
        ExperimentConfig(
            metric=FairnessMetric.EODDS,
            epsilon_grid=(0.05, 0.2),
            epsilon_lower=0.01,
            seeds=(0, 1),
        ),
        table,
    )
    # SP whose upper-only solves miss the lower bound on some cells, so that
    # the solves carrying it run, and on some cells find nothing
    runs["attack-sp-lower"] = (
        ExperimentConfig(epsilon_grid=(0.01, 0.03), epsilon_lower=0.01, seeds=(0, 1)), table
    )
    runs["attack-oracle-check"] = (
        ExperimentConfig(epsilon_grid=GRID, seeds=(0,), oracle_check=True), table
    )
    runs["attack-numeric"] = (ExperimentConfig(epsilon_grid=GRID, seeds=(0, 1)), _numeric_table())
    return runs


def outputs(workdir: Path) -> dict[str, bytes]:
    """Each pinned output's name and bytes; files are written under ``workdir``."""
    out: dict[str, bytes] = {}
    for metric in FairnessMetric:
        path = workdir / f"bench-{metric.value}.json"
        emit_report(run_benchmark(n=3000, n_seeds=2, metric=metric), path, "json")
        out[path.name] = path.read_bytes()
    for name, (config, table) in _experiments().items():
        path = workdir / f"{name}.json"
        emit_report(run_experiment(config, table), path, "json")
        out[path.name] = path.read_bytes()
    for name, content, metric, epsilon, lower in INSTANCES:
        source = workdir / f"{name}.csv"
        source.write_bytes(content)
        corrected = workdir / f"{name}-corrected.csv"
        report = workdir / f"{name}-solve.json"
        argv = ["correct", "--input", str(source), "--metric", metric, "--epsilon", epsilon]
        if lower is not None:
            argv += ["--epsilon-lower", lower]
        code = cli_main(argv + ["--out", str(corrected), "--report", str(report)])
        if code != EXIT_OK:
            raise RuntimeError(f"fairleak correct on {source.name} exited {code}")
        out[corrected.name] = corrected.read_bytes()
        out[report.name] = report.read_bytes()
    return out


def digests(workdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs(workdir).items()}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        table = {**versions(), "digests": digests(Path(workdir))}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table['digests'])} digests in {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    main()

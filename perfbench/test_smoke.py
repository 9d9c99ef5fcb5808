"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs one operation per pass, untraced and traced.  The metric
names must match BENCHMARK.json, and a deliberately perturbed output must be
counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from workloads import TINY, WORKLOADS


@pytest.fixture(autouse=True)
def _results_in_tmp(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_match_the_declaration(workload, trace):
    result = run.run(workload, seed=0, seconds=0, trace=trace, scale=TINY)
    assert result["failures"] == []
    # a traced run checks its untraced pass as well as the traced one
    assert result["attempted"] == (2 if trace else 1)
    assert set(result["metrics"]) == set(run.declared_metrics(trace))
    assert all(math.isfinite(value) for value in result["metrics"].values())


def _perturb_sweep(original):
    def perturbed(config, table):
        report = original(config, table)
        row = dataclasses.replace(report.rows[0], improvement=report.rows[0].improvement + 0.01)
        return dataclasses.replace(report, rows=(row,) + report.rows[1:])

    return perturbed


def _perturb_correction(original):
    def perturbed(instance, spec):
        result = original(instance, spec)
        corrected = np.array(result.corrected)
        extra = int(np.flatnonzero(corrected == instance.guess)[0])
        corrected[extra] = 1 - corrected[extra]
        changed = tuple(sorted(result.changed_indices + (extra,)))
        return dataclasses.replace(result, corrected=corrected, changed_indices=changed)

    return perturbed


def _perturb_exit_code(original):
    def perturbed(argv):
        original(argv)
        return 2

    return perturbed


@pytest.mark.parametrize(
    "workload, attribute, perturb",
    [
        ("sweep-sp-aprime", "run_experiment", _perturb_sweep),
        ("correct-large", "correct", _perturb_correction),
        ("correct-file", "cli_main", _perturb_exit_code),
    ],
)
def test_a_perturbed_output_counts_as_failed(monkeypatch, workload, attribute, perturb):
    monkeypatch.setattr(workloads, attribute, perturb(getattr(workloads, attribute)))
    result = run.run(workload, seed=0, seconds=0, trace=False, scale=TINY)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["failed_ratio"] == 1.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "correct-large",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

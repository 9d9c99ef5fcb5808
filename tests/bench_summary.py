"""Write ``BENCH_<tag>.json``: the deterministic bench summary of one checkout.

The summary holds the wall time of the default synthetic benchmark, timed
``correct()`` requests on perfbench's instances with what each one scanned,
the sweep's minor page faults per pass, and the environment.  No report is
written and no file under ``perfbench/`` is touched.  Run it from the
repository root, on a quiet host::

    PYTHONPATH=src python tests/bench_summary.py --tag 5e968c5

``--scale tiny`` runs every part at perfbench's smoke-test sizes.  The
per-stage breakdown is ``null`` until the library records stage spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import FULL, TINY, Scale, build_instance, sweep_setup  # noqa: E402

from fairleak import corrector  # noqa: E402
from fairleak.core import FairnessMetric, FairnessSpec  # noqa: E402
from fairleak.errors import Infeasible  # noqa: E402
from fairleak.harness import run_benchmark  # noqa: E402

#: (epsilon, epsilon_lower) of every request: the scanning and the feasible
#: tolerance at every size; then the slow paths, tolerance 0, an equality
#: bound and a thin one, at the two largest sizes
TOLERANCES = ((0.01, None), (0.2, None))
SLOW_PATHS = ((0.0, None), (0.15, 0.15), (0.15, 0.1455))


def _sizes(scale: Scale) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The instance sizes of every request, and those of the slow paths."""
    if scale == FULL:
        return (30_000, 100_000, 1_000_000), (100_000, 1_000_000)
    rows = tuple(rows for rows, _ in scale.correct_requests)
    return rows, rows


def _timed(call, repeats: int) -> tuple[float, object]:
    """The median wall time of ``call`` in seconds, and its last outcome."""
    times, outcome = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            outcome = call()
        except Infeasible as error:
            outcome = error
        times.append(time.perf_counter() - start)
    return statistics.median(times), outcome


def _request(instance, metric: FairnessMetric, epsilon: float, lower, repeats: int) -> dict:
    """One ``correct()`` request: its median time, its outcome, the columns no
    dearer than the optimum (``stats.nodes``) and the window products, columns
    times bounds, that the search computed."""
    spec = FairnessSpec(metric, epsilon, lower)
    windows = []
    rows_within = corrector._rows_within

    def spy(u, planes, lo, hi):
        windows.append(u.size * len(planes[0][1]))
        return rows_within(u, planes, lo, hi)

    corrector._rows_within = spy
    try:
        _timed(lambda: corrector.correct(instance, spec), 1)  # warm-up, the one call counted
        counted = sum(windows)
    finally:
        corrector._rows_within = rows_within
    seconds, outcome = _timed(lambda: corrector.correct(instance, spec), repeats)
    if isinstance(outcome, Infeasible):
        result, nodes = "Infeasible", None
    else:
        result, nodes = "origin" if not outcome.changed_indices.size else "ok", outcome.stats.nodes
    return {
        "rows": instance.n, "metric": metric.value, "epsilon": epsilon, "epsilon_lower": lower,
        "result": result, "correct_ms": round(seconds * 1e3, 3), "nodes": nodes, "windows": counted,
    }


def _minor_faults(scale: Scale, passes: int) -> float:
    """Minor page faults per pass of perfbench's sweep workload, after a warm-up pass."""
    ops = sweep_setup(0, scale)
    for op in ops:
        op.run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(passes):
        for op in ops:
            op.run()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / passes


def _commit() -> str:
    """HEAD's hash, marked when the working tree differs from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + (" with uncommitted changes" if dirty else "")


def summary(scale: Scale) -> dict:
    """Every field of the summary at ``scale``."""
    full = scale == FULL
    n, seeds, runs = (30_000, 50, 3) if full else (scale.sweep_rows, scale.sweep_tables, 1)
    bench = [_timed(lambda: run_benchmark(n=n, n_seeds=seeds), 1)[0] for _ in range(runs)]
    sizes, slow_sizes = _sizes(scale)
    requests = []
    for rows in sizes:
        instance = build_instance(rows, 0, scale)
        repeats = 7 if rows >= 1_000_000 else 15
        for metric in (FairnessMetric.SP, FairnessMetric.EODDS):
            for epsilon, lower in TOLERANCES + (SLOW_PATHS if rows in slow_sizes else ()):
                requests.append(_request(instance, metric, epsilon, lower, repeats))
    return {
        "scale": "full" if full else "tiny",
        "default_bench": {"rows": n, "seeds": seeds, "runs": runs,
                          "median_s": round(statistics.median(bench), 4)},
        "correct": requests,
        "sweep_minor_faults_per_pass": _minor_faults(scale, 3 if full else 1),
        "stages": None,
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
        },
    }


def main(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the file BENCH_<tag>.json")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write into")
    args = parser.parse_args(argv)
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(summary(FULL if args.scale == "full" else TINY), indent=1) + "\n")
    return path


if __name__ == "__main__":
    print(main())

"""Run one fairleak benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-sp-aprime --seed 0 --seconds 24 --trace 0

Run it from anywhere inside a checkout; it imports fairleak from the
checkout's ``src`` directory.  The inputs are made in set-up from ``--seed``.
The operations then run in turn, over and over, until ``--seconds`` of wall
time have passed and each has run at least once.  Every output is checked
outside the timed region.  ``--trace 0`` measures the end-to-end metrics on
the untouched program.  ``--trace 1`` runs one untraced pass, then wraps each
layer's entry points and reports per-layer metrics for a traced set-up plus
one pass.  Every time is calibrated to the host's speed (see ``Clock``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment, raw and calibrated timings and any failures, goes to
``.bench_build/perfbench/results/``; a traced run also writes its spans to
``.bench_build/perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCES = Path(__file__).resolve().parent / "references"
BENCHMARK = ROOT / "BENCHMARK.json"

if not (SRC / "fairleak" / "__init__.py").is_file():
    sys.exit(f"perfbench: the fairleak sources are missing from {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import FULL, WORKLOADS, Op, Outcome, Scale  # noqa: E402

#: Every reported time is scaled as if one calibration loop took this long,
#: about the loop's fastest time on the host of the baseline.
CALIBRATION_REFERENCE_S = 0.0055
#: After each timed piece of work, calibration loops run for at least this
#: share of its time, and at least twice.
CALIBRATION_SHARE = 0.2
_CALIBRATION_RNG = np.random.default_rng(0)
_CALIBRATION_COLUMN = _CALIBRATION_RNG.random(600_000)
_CALIBRATION_KEYS = _CALIBRATION_RNG.random(20_000)


def _step(a: int, b: int, c: int) -> tuple[int, int]:
    if a > b:
        return a - c, b
    return b + c, a


def calibration_loop() -> float:
    """Fixed work that does not touch fairleak, mixed like the program's.

    A little over half of its time, on a quiet host, is small-integer
    arithmetic through function calls, like the solver's column scan; the
    rest is numpy work on a column of the size of the larger instances.
    Contention slows the two kinds of work unequally, and so it does the
    program's operations.  The loop's time shows how fast the shared host
    runs this process at the moment.
    """
    lo, hi = 0, 1 << 40
    for i in range(25_000):
        lo, hi = _step(hi * 3 + i, lo * 7, i)
        lo %= 1 << 40
        hi %= 1 << 40
    total = np.cumsum(_CALIBRATION_COLUMN)[-1]
    above = np.count_nonzero(_CALIBRATION_COLUMN > 0.5)
    first = np.argsort(_CALIBRATION_KEYS)[0]
    return lo + total + above + first


class Clock:
    """Host speed, from calibration loops run between timed pieces of work.

    Other tenants of a shared host slow this process by up to 1.7x, in spells
    that change every fraction of a second and drift over minutes; process CPU
    time slows as much as wall time.  The calibration loops run beside the
    program, so they are slowed alike.  Each piece of work is followed by a
    block of loops whose length grows with the work's, so a block averages
    the host's speed over a span like the work's.  Dividing by the median
    block cancels most of the host's drift.  A change to fairleak moves the
    program's times and leaves the loops alone.
    """

    def __init__(self) -> None:
        self.blocks: list[float] = []  # mean loop time of each block
        self.loops = 0

    def calibrate(self, elapsed: float) -> None:
        spent = 0.0
        runs = 0
        while runs < 2 or spent < CALIBRATION_SHARE * elapsed:
            start = time.perf_counter()
            calibration_loop()
            spent += time.perf_counter() - start
            runs += 1
        self.blocks.append(spent / runs)
        self.loops += runs

    @property
    def loop_s(self) -> float:
        return statistics.median(self.blocks)

    @property
    def factor(self) -> float:
        """Measured seconds times this are seconds at the reference speed."""
        return CALIBRATION_REFERENCE_S / self.loop_s


@dataclass
class Sample:
    index: int  # position of the operation in the pass
    seconds: float
    outcome: Outcome


def load_references() -> dict:
    refs: dict = {}
    for path in sorted(REFERENCES.glob("*.json")):
        refs.update(json.loads(path.read_text(encoding="utf-8")))
    return refs


def matches(expected, found) -> bool:
    if isinstance(expected, float) and isinstance(found, float):
        return math.isclose(expected, found, rel_tol=1e-9, abs_tol=1e-12)
    return expected == found


def run_op(op: Op, refs: dict, clock: Clock | None) -> tuple[float, Outcome]:
    """Time one operation, then check its output and calibrate, untimed."""
    gc.collect()
    start = time.perf_counter()
    try:
        output, error = op.run(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if clock is not None:
        clock.calibrate(elapsed)
    if error is None:
        try:
            outcome = op.check(output)
        except Exception as exc:  # an unreadable output fails its check
            outcome = Outcome(f"check raised {type(exc).__name__}: {exc}")
    else:
        outcome = Outcome(error)
    expected = refs.get(op.key)
    if outcome.error is None and expected is not None:
        if not matches(expected, outcome.fingerprint):
            outcome.error = f"got {outcome.fingerprint!r}, reference {expected!r}"
    return elapsed, outcome


def measure(
    ops: list[Op],
    seconds: float,
    refs: dict,
    clock: Clock | None = None,
    tracer=None,
    whole_passes: bool = False,
) -> list[Sample]:
    """Run the operations in turn until ``seconds`` of wall time have passed
    and each has run once; with ``whole_passes``, finish the last pass."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while (
        len(samples) < len(ops)
        or time.perf_counter() - start < seconds
        or (whole_passes and len(samples) % len(ops))
    ):
        index = len(samples) % len(ops)
        if tracer is not None:
            tracer.op = str(len(samples))
        elapsed, outcome = run_op(ops[index], refs, clock)
        samples.append(Sample(index, elapsed, outcome))
    return samples


def timed_setup(workload: str, seed: int, scale: Scale, workdir: Path, clock: Clock | None):
    gc.collect()
    start = time.perf_counter()
    ops = workloads.setup(workload, seed, scale, workdir)
    elapsed = time.perf_counter() - start
    if clock is not None:
        clock.calibrate(elapsed)
    return ops, elapsed


def quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """The checkout's commit, or None when it is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def op_medians(samples: list[Sample]) -> dict[int, float]:
    """Each operation's median time, in measured seconds."""
    times: dict[int, list[float]] = {}
    for sample in samples:
        times.setdefault(sample.index, []).append(sample.seconds)
    return {index: statistics.median(values) for index, values in times.items()}


def timings(setup_times: list[float], samples: list[Sample]) -> dict[str, float]:
    """The timed end-to-end metrics, in measured seconds and milliseconds."""
    medians = op_medians(samples).values()
    return {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": 1000 * statistics.median(medians),
        "pass_s": sum(medians),
    }


def mean_improvement(ops: list[Op], samples: list[Sample]) -> float:
    """Mean accuracy gain of the corrected guesses over the first pass's ok
    outputs; every pass repeats the same operations."""
    outcomes = [s.outcome for s in samples[: len(ops)]]
    cells = sum(o.cells for o in outcomes)
    return sum(o.improvement for o in outcomes) / cells if cells else 0.0


def group_latencies(ops: list[Op], samples: list[Sample], factor: float) -> dict:
    """Per group, calibrated: p50 and p90 over every sample."""
    groups: dict[str, list[float]] = {}
    for sample in samples:
        groups.setdefault(ops[sample.index].group, []).append(factor * sample.seconds)
    return {
        group: {
            "samples": len(values),
            "ms_p50": 1000 * statistics.median(values),
            "ms_p90": 1000 * quantile(values, 90),
        }
        for group, values in groups.items()
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """Run one workload; returns the full result and writes it to OUT."""
    refs = load_references()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            plain_clock = Clock()
            ops, plain_setup = timed_setup(workload, seed, scale, workdir, plain_clock)
            plain = measure(ops, 0, refs, plain_clock)
            ops = None
            tracer = tracing.Tracer()
            clock = Clock()
            tracer.install()
            try:
                ops, traced_setup = timed_setup(workload, seed, scale, workdir, clock)
                tracer.phase = "measure"
                samples = measure(ops, seconds, refs, clock, tracer, whole_passes=True)
            finally:
                tracer.uninstall()
            passes = len(samples) // len(ops)
            traced_pass = sum(s.seconds for s in samples) / passes
            plain_pass = sum(s.seconds for s in plain)
            overhead = (traced_setup + traced_pass) * clock.factor - (
                plain_setup + plain_pass
            ) * plain_clock.factor
            metrics = tracing.per_layer_metrics(tracer, passes, overhead, clock.factor)
            tracer.write(OUT / "spans" / f"{workload}-seed{seed}.jsonl")
            checked = plain + samples
            extra = {
                "spans": len(tracer.spans),
                "raw": {
                    "untraced_setup_s": plain_setup,
                    "untraced_pass_s": plain_pass,
                    "traced_setup_s": traced_setup,
                    "traced_pass_s": traced_pass,
                },
                "calibration": {
                    "reference_ms": 1000 * CALIBRATION_REFERENCE_S,
                    "untraced_loop_ms_p50": 1000 * plain_clock.loop_s,
                    "loop_ms_p50": 1000 * clock.loop_s,
                },
            }
        else:
            setup_clock = Clock()
            setup_times = []
            while len(setup_times) < scale.setups or sum(setup_times) < scale.setup_seconds:
                ops = None
                ops, elapsed = timed_setup(workload, seed, scale, workdir, setup_clock)
                setup_times.append(elapsed)
            clock = Clock()
            samples = measure(ops, seconds, refs, clock)
            raw = timings(setup_times, samples)
            metrics = {
                "setup_s": raw["setup_s"] * setup_clock.factor,
                "op_ms_p50": raw["op_ms_p50"] * clock.factor,
                "pass_s": raw["pass_s"] * clock.factor,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            passes = len(samples) / len(ops)
            checked = samples
            extra = {
                "raw": raw,
                "calibration": {
                    "reference_ms": 1000 * CALIBRATION_REFERENCE_S,
                    "setup_loop_ms_p50": 1000 * setup_clock.loop_s,
                    "setup_loops": setup_clock.loops,
                    "loop_ms_p50": 1000 * clock.loop_s,
                    "loops": clock.loops,
                },
                "setup_s_samples": setup_times,
                "groups": group_latencies(ops, samples, clock.factor),
                "op_s_p50": {
                    ops[index].key: clock.factor * median
                    for index, median in sorted(op_medians(samples).items())
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [
        {"key": ops[s.index].key, "error": s.outcome.error} for s in checked if s.outcome.error
    ]
    result = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "passes": passes,
        "attempted": len(checked),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(checked),
        "checked_against_reference": sum(1 for s in checked if ops[s.index].key in refs),
        "mean_improvement": mean_improvement(ops, checked),
        "metrics": metrics,
        **extra,
        "failures": failures[:20],
    }
    path = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = declared_metrics(bool(args.trace))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(result["metrics"]) != set(units):
        sys.exit(f"perfbench: metrics {sorted(result['metrics'])} differ from {BENCHMARK}")
    for failure in result["failures"]:
        print(f"perfbench: {failure['key']}: {failure['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

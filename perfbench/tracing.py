"""In-memory span recorder that times fairleak's layers from outside.

The traced run replaces each layer entry point under the names its callers
use (module attributes, plus two methods on their classes) with a wrapper
that records a span.  No program file changes, and an untraced run executes
the original functions untouched.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from fairleak import adversary, cli
from fairleak.errors import Infeasible
from fairleak.harness import experiment
from fairleak.harness.predictor import LabelPredictor
from fairleak.nb import CategoricalNaiveBayes

import workloads

K_SELECT = "adversary.k_select"
CORRECT = "corrector.correct"

# (owner, attribute, span name): each caller-side name of a layer entry point.
# `correct` is wrapped where process_confidences calls it as well, so the
# k-selection solves can be told apart from the final one.
LAYER_ENTRY_POINTS = (
    (workloads, "synth_generate", "harness.synth"),
    (workloads, "run_experiment", "harness.experiment"),
    (workloads, "fit_label_predictor", "harness.predictor.fit"),
    (workloads, "repair_predictions", "harness.predictor.repair"),
    (workloads, "train_baseline", "adversary.train"),
    (workloads, "predict_guess", "adversary.predict"),
    (workloads, "correct", CORRECT),
    (workloads, "cli_main", "cli"),
    (experiment, "split_dataset", "harness.split"),
    (experiment, "fit_label_predictor", "harness.predictor.fit"),
    (experiment, "repair_predictions", "harness.predictor.repair"),
    (experiment, "train_baseline", "adversary.train"),
    (experiment, "predict_guess", "adversary.predict"),
    (experiment, "process_confidences", K_SELECT),
    (experiment, "correct", CORRECT),
    (experiment, "unfairness", "core.unfairness"),
    (adversary, "correct", CORRECT),
    (cli, "correct", CORRECT),
    (cli, "read_instance_csv", "harness.instances.read"),
    (cli, "write_correction_csv", "harness.instances.write"),
    (LabelPredictor, "raw_predictions", "harness.predictor.raw"),
    (CategoricalNaiveBayes, "predict_proba", "nb.predict"),
)


class Tracer:
    """Records spans (name, start, end, parent, operation id) in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "setup"
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "phase": self.phase,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Infeasible:
                span["infeasible"] = 1
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if name == CORRECT:
                span["columns"] = result.stats.nodes
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in LAYER_ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, span in enumerate(self.spans):
                handle.write(json.dumps({"id": span_id, **span}) + "\n")

    def layer_totals(self, phase: str) -> tuple[dict[str, float], Counter]:
        """Self time and calls per layer over the spans of one phase.

        Self time is a span's duration minus that of its direct children,
        which run one after another inside it.  Solves are keyed by parent:
        inside k-selection or not.
        """
        children = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        seconds: dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        for span_id, span in enumerate(self.spans):
            if span["phase"] != phase:
                continue
            name = span["name"]
            if name == CORRECT:
                parent = span["parent"]
                under_k = parent is not None and self.spans[parent]["name"] == K_SELECT
                name = f"{CORRECT}.{'k_select' if under_k else 'final'}"
                counts["corrector.columns"] += span.get("columns", 0)
                counts["corrector.infeasible_calls"] += span.get("infeasible", 0)
            seconds[name] += span["end"] - span["start"] - children[span_id]
            counts[name] += 1
        return seconds, counts


def per_layer_metrics(
    tracer: Tracer, passes: int, overhead_s: float, factor: float
) -> dict[str, float]:
    """Per-layer values for one traced set-up plus one pass of operations.

    Set-up spans count once; operation spans are averaged over the traced
    passes, which repeat identical work, so counts stay exact.  Span times
    are multiplied by ``factor``, the host-speed calibration.
    """
    setup_s, setup_n = tracer.layer_totals("setup")
    measure_s, measure_n = tracer.layer_totals("measure")

    def seconds(name: str) -> float:
        return factor * (setup_s.get(name, 0.0) + measure_s.get(name, 0.0) / passes)

    def count(name: str) -> float:
        return setup_n.get(name, 0) + measure_n.get(name, 0) / passes

    correct_s = seconds(f"{CORRECT}.k_select") + seconds(f"{CORRECT}.final")
    calls = count(f"{CORRECT}.k_select") + count(f"{CORRECT}.final")
    columns = count("corrector.columns")
    return {
        "harness.synth_s": seconds("harness.synth"),
        "harness.split_s": seconds("harness.split"),
        "harness.experiment.self_s": seconds("harness.experiment"),
        "harness.predictor.fit_s": seconds("harness.predictor.fit"),
        "harness.predictor.raw_s": seconds("harness.predictor.raw"),
        "harness.predictor.repair_s": seconds("harness.predictor.repair"),
        "harness.predictor.repair_calls": count("harness.predictor.repair"),
        "harness.instances.read_s": seconds("harness.instances.read"),
        "harness.instances.write_s": seconds("harness.instances.write"),
        "adversary.train_s": seconds("adversary.train"),
        "adversary.train_calls": count("adversary.train"),
        "adversary.predict_s": seconds("adversary.predict"),
        "adversary.k_select_s": seconds(K_SELECT),
        "adversary.k_select_solves": count(f"{CORRECT}.k_select"),
        "nb.predict_s": seconds("nb.predict"),
        "corrector.correct_s.k_select": seconds(f"{CORRECT}.k_select"),
        "corrector.correct_s.final": seconds(f"{CORRECT}.final"),
        "corrector.correct_calls.k_select": count(f"{CORRECT}.k_select"),
        "corrector.correct_calls.final": count(f"{CORRECT}.final"),
        "corrector.columns": columns,
        "corrector.columns_per_call": columns / calls if calls else 0.0,
        "corrector.us_per_column": 1e6 * correct_s / columns if columns else 0.0,
        "corrector.infeasible_calls": count("corrector.infeasible_calls"),
        "core.unfairness_s": seconds("core.unfairness"),
        "cli.self_s": seconds("cli"),
        "trace.overhead_s": overhead_s,
    }

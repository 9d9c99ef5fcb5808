"""A lattice sorts each cell only as far as a solve reads it.

A cell's frontier K moves on demand.  These tests read prefix sums across
one and several moves against one sort of the whole cell, check the line
the search's lower bound reads past K, check that a feasible origin sorts
nothing, and cross-check every solve over partially sorted cells against
the same solve over cells sorted whole.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import bench_summary
from conftest import whole_sums
from fairleak import corrector
from fairleak.adversary import MIN_CONFIDENCE
from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec
from fairleak.corrector import (
    RepairState,
    _column_bound,
    _floor_affine,
    _metric_lattices,
    _repair_planes,
    _sp_planes,
    _solve_rows,
    correct,
)
from fairleak.errors import Infeasible

METRICS = list(FairnessMetric)


def _costs(rng, rows, n):
    """Cost rows with ties, signed zeros and ``MIN_CONFIDENCE`` floors."""
    pool = np.array([0.0, -0.0, MIN_CONFIDENCE, 0.125, 0.5, 1.0])
    styles = (
        lambda: rng.random(n),
        lambda: rng.choice(pool, n),
        lambda: np.maximum(rng.random(n) ** 40, MIN_CONFIDENCE),
        lambda: np.round(rng.random(n), 1),
    )
    return np.stack([styles[int(rng.integers(len(styles)))]() for _ in range(rows)])


def _lattice(rng, n, rows=1):
    x, z = rng.integers(0, 2, n), rng.random(n) < rng.uniform(0.2, 0.8)
    (part,) = _metric_lattices(FairnessMetric.SP, np.zeros(n, dtype=int), x, z, _costs(rng, rows, n))
    return part


class TestSums:
    def test_reads_across_extensions_match_one_cumsum(self, rng):
        for trial in range(200):
            part = _lattice(rng, int(rng.choice([3, 40, 600])), 1 + trial % 3)
            for at, size in enumerate(part.counts):
                values, totals = part.cells[at]
                want = np.sort(values, axis=1)
                sums = np.concatenate((np.zeros((len(want), 1)), np.cumsum(want, axis=1)), axis=1)
                # one move, or several, some past the cell's end
                for stop in np.sort(rng.integers(0, size + 3, int(rng.integers(1, 5)))):
                    before = part.sorted[at]
                    part.sums(at, int(stop))
                    k = part.sorted[at]
                    # a first move goes straight to the read, short of half the
                    # cell; one from half the cell on, or any later one, to its end
                    if stop <= before:
                        assert k == before
                    else:
                        assert k == (size if before or 2 * stop >= size else stop)
                    # np.sort does not order -0.0 against 0.0, so only the
                    # sign of a zero sum may differ; adding 0.0 clears it
                    assert (totals[:, : k + 1] + 0.0).tobytes() == (sums[:, : k + 1] + 0.0).tobytes()
                    assert np.array_equal(values[:, :k], want[:, :k])
                    if 0 < k < size:  # the K-th least cost, below every unsorted one
                        assert np.array_equal(values[:, k], want[:, k])
                        assert (values[:, k:] >= values[:, k : k + 1]).all()

    def test_whole_read_sorts_each_cell(self, rng):
        part = _lattice(rng, 500, 2)
        for (values, totals), got in zip(part.cells, whole_sums(part)):
            assert np.shares_memory(got, totals) and np.array_equal(got, totals)
            assert np.array_equal(values, np.sort(values, axis=1))
        assert part.sorted == list(part.counts)

    def test_count_moves_the_frontier_once_past_the_cost(self, rng):
        for _ in range(200):
            part = _lattice(rng, int(rng.choice([5, 60, 800])))
            for at, size in enumerate(part.counts):
                sums = np.concatenate(([0.0], np.cumsum(np.sort(part.cells[at][0][0]))))
                part.sums(at, int(rng.integers(0, size + 1)))
                cost, k = float(rng.uniform(0, sums[-1] + 0.5)), part.sorted[at]
                assert part.count(at, 0, cost) == np.searchsorted(sums, cost, side="right")
                if 0 < k < size and sums[k + 1] > cost:  # S(K) + v_K is S(K + 1): no move
                    assert part.sorted[at] == k


def _line(part, at, r):
    """What LB reads of cell ``at``'s prefix sums under cost row ``r`` at
    every index: S(j) through K, then S(K) + (j - K) * v_K."""
    values, totals = part.cells[at]
    k, size = part.sorted[at], part.counts[at]
    least = values[r, k] if 0 < k < size else 0.0
    j = np.arange(size + 1)
    return totals[r, np.minimum(j, k)] + np.maximum(j - k, 0) * least


class TestBoundPastTheFrontier:
    def test_line_is_below_every_prefix_sum_and_convex(self, rng):
        for _ in range(300):
            part = _lattice(rng, int(rng.choice([4, 50, 700])))
            for at, size in enumerate(part.counts):
                exact = np.concatenate(([0.0], np.cumsum(np.sort(part.cells[at][0][0]))))
                part.sums(at, int(rng.integers(0, size + 1)))
                line = _line(part, at, 0)
                assert (line <= exact + 1e-12 * exact).all()
                assert (np.diff(line, 2) >= -1e-12 * max(exact[-1], 1.0)).all()

    def test_column_bound_is_below_the_whole_bound_and_convex(self, rng):
        for trial in range(60):
            part = _lattice(rng, int(rng.choice([60, 400, 2000])))
            c01, c11, c00, c10 = part.counts
            n, n1 = sum(part.counts), c11 + c10
            planes = _sp_planes(part.counts, Fraction([0.0, 0.01, 0.1][trial % 3]))
            planes += [(-1, [n1 - 1], 1), (1, [n - 1 - n1], -1)]
            for at, size in enumerate(part.counts):
                part.sums(at, int(rng.integers(0, size + 1)))
            u, b = np.arange(-c11, c01 + 1)[None], np.zeros(1, dtype=np.int64)
            bound, _, unit = _column_bound(part, planes, b, b)
            partial = bound(u, b)[0][0] * unit[0]
            whole_sums(part)
            bound, _, unit = _column_bound(part, planes, b, b)
            whole = bound(u, b)[0][0] * unit[0]
            assert (partial <= whole * (1 + 1e-12) + 1e-300).all()
            scale = abs(partial[:-2]) + abs(partial[1:-1]) + abs(partial[2:]) + 1.0
            assert (np.diff(partial, 2) >= -1e-12 * scale).all()


class TestNothingRead:
    def test_feasible_origin_moves_no_frontier(self, monkeypatch, rng):
        moves = []
        sums = corrector._Lattice.sums

        def spy(part, at, stop):
            before = part.sorted[at]
            out = sums(part, at, stop)
            moves.append(part.sorted[at] - before)
            return out

        monkeypatch.setattr(corrector._Lattice, "sums", spy)
        built, lattices = [], corrector._metric_lattices

        def gather(*args):
            found = lattices(*args)
            built.extend(found)
            return found

        monkeypatch.setattr(corrector, "_metric_lattices", gather)
        n = 20_000
        yhat, labels = rng.integers(0, 2, n), rng.integers(0, 2, n)
        inst = AttackInstance(yhat, labels, rng.integers(0, 2, n), rng.random(n))
        for metric in METRICS:
            result = correct(inst, FairnessSpec(metric, 1.0))
            assert result.changed_indices.size == 0 and result.stats.nodes == 0
            # nothing flips: the result holds the instance's own read-only guess
            assert result.corrected is inst.guess
        state = RepairState(yhat, rng.random(n), rng.integers(0, 2, n), labels, FairnessMetric.SP)
        state.solve([1.0])
        assert not any(moves)
        # nor were the costs ever gathered by code
        assert len(built) == 6 and not any("cells" in vars(part) for part in built)


def _whole(monkeypatch):
    """Every lattice sorts its cells whole as it is built."""
    build = corrector._metric_lattices

    def whole(*args):
        lattices = build(*args)
        for part in lattices:
            whole_sums(part)
        return lattices

    monkeypatch.setattr(corrector, "_metric_lattices", whole)


def _outcome(solve):
    try:
        return solve()
    except Infeasible as error:
        return str(error)


def _correction(inst, spec):
    result = correct(inst, spec)
    return (result.changed_indices.tolist(), result.corrected.tolist(), result.objective,
            result.moves, result.stats.nodes)


def _cells(inst, spec, confs):
    solved = _solve_rows(inst, spec, confs)
    return [[(c.r, c.u, c.v, c.columns, c.objective, corrector._flipped_rows([c]).tolist())
             for c in cells] for cells in solved]


def _repairs(yhat, margins, groups, labels, metric, epsilons):
    state = RepairState(yhat, margins, groups, labels, metric)
    return [([(c.u, c.v, c.columns, c.objective) for c in cells], state.apply(cells).tolist())
            for cells in state.solve(epsilons)]


class TestFrontierAgainstWholeSort:
    """Every answer over partially sorted cells is the one over cells sorted
    whole: corrections, infeasibilities, k-selection's solves of six cost
    rows and the prediction repair."""

    @pytest.mark.parametrize("small", [0, corrector._SMALL])
    def test_solves_answer_alike(self, monkeypatch, rng, small):
        monkeypatch.setattr(corrector, "_SMALL", small)
        for trial in range(60):
            n = int(rng.choice([12, 60, 400, 3000]))
            yhat = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
            guess = np.where(rng.random(n) < rng.uniform(0, 0.6), yhat, rng.integers(0, 2, n))
            labels = rng.integers(0, 2, n)
            confs = _costs(rng, 6, n)
            inst = AttackInstance(yhat, labels, guess, confs[0])
            eps = [0.0, 0.001, 0.01, 0.05, 0.2][trial % 5]
            lower = [None, eps / 2, eps][trial // 5 % 3] or None
            spec = FairnessSpec(METRICS[trial % 4], eps, lower)
            groups = rng.integers(0, 2, n).astype(bool if trial % 2 else int)
            margins = confs[1]
            runs = (
                lambda: _correction(inst, spec),
                lambda: _cells(inst, spec, confs[: (1, 6)[trial % 2]]),
                lambda: _repairs(yhat.astype(groups.dtype), margins, groups, labels, spec.metric,
                                 [0.0, 0.01, eps, 0.3]),
            )
            ours = [_outcome(run) for run in runs]
            with monkeypatch.context() as patch:
                _whole(patch)
                assert [_outcome(run) for run in runs] == ours


class TestFloatScreens:
    """``_floor_affine`` screens a fractional part in float64 and rechecks
    only entries near an integer; for |u| < 1e8 that matches exact integer
    floors on the real planes of both solvers."""

    SPAN = 10**8

    def _columns(self, rng, q, c, k):
        """Random columns, and those whose quotient is a whole number."""
        u = rng.integers(-self.SPAN + 1, self.SPAN, 3000).tolist()
        g = math.gcd(k, q)
        if k and c % g == 0:
            step = abs(q) // g
            hit = (-c // g) * pow(k // g, -1, step) % step if step > 1 else 0
            for m in range(-3, 4):
                u += [w for w in (hit + m * step - 1, hit + m * step, hit + m * step + 1)
                      if abs(w) < self.SPAN]
        return np.array(u, dtype=np.int64)

    @pytest.mark.parametrize("epsilon", [0.01, 0.001, 0.05])
    def test_floors_are_exact(self, rng, epsilon):
        bound = Fraction(epsilon)
        for counts in ((120704, 245821, 394954, 238521), (11648, 24404, 39921, 24027),
                       tuple(int(x) for x in rng.integers(1, 10**6, 4))):
            planes = _sp_planes(counts, bound) + _repair_planes(counts, [bound, Fraction(0.3)])
            for q, offsets, k in planes:
                d = abs(q) or 1  # _rows_within floors (c + k*u) / |q| for every q
                for c in offsets:
                    u = self._columns(rng, d, c, k)
                    lo, hi = -(2**61), 2**61
                    (got,) = _floor_affine([c], k, d, u, lo, hi)
                    assert got.tolist() == [min(max((c + k * w) // d, lo), hi) for w in u.tolist()]


def test_bench_summary_writes_every_field(tmp_path):
    path = bench_summary.main(["--tag", "smoke", "--scale", "tiny", "--out", str(tmp_path)])
    assert path == tmp_path / "BENCH_smoke.json"
    summary = json.loads(path.read_text())
    assert set(summary) == {"scale", "default_bench", "correct",
                            "sweep_minor_faults_per_pass", "stages", "environment"}
    assert summary["stages"] is None
    assert set(summary["environment"]) == {"python", "numpy", "nproc", "commit"}
    assert summary["default_bench"]["median_s"] > 0
    assert summary["sweep_minor_faults_per_pass"] >= 0
    requests = summary["correct"]
    keys = {"rows", "metric", "epsilon", "epsilon_lower", "result", "correct_ms", "nodes", "windows"}
    assert requests and all(set(request) == keys for request in requests)
    assert {(r["metric"], r["epsilon"], r["epsilon_lower"]) for r in requests} >= {
        ("sp", 0.01, None), ("eodds", 0.2, None), ("sp", 0.0, None), ("eodds", 0.15, 0.15),
        ("sp", 0.15, 0.1455)}
    assert all(r["result"] in {"ok", "origin", "Infeasible"} for r in requests)
    assert all(isinstance(r["windows"], int) and r["windows"] >= 0 for r in requests)

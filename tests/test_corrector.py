import ast
import dataclasses
import inspect
import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import meets_spec, solve_each
from fairleak import corrector, oracle
from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec
from fairleak.adversary import MIN_CONFIDENCE
from fairleak.corrector import MoveCounts, _Lattice, correct
from fairleak.harness.predictor import repair_predictions
from fairleak.oracle import _signature_classes, solve_general_bruteforce
from fairleak.errors import (
    BadParameters,
    BudgetExceeded,
    Infeasible,
    LengthMismatch,
    NegativeConfidence,
    UnsupportedCardinality,
)

SP, PE, EO, EODDS = (
    FairnessMetric.SP,
    FairnessMetric.PE,
    FairnessMetric.EO,
    FairnessMetric.EODDS,
)


def _lattice(x, z, costs, idx=None):
    """The lattice of ``x`` split by ``z`` over the entries ``idx``, every
    entry when it is None."""
    x = np.asarray(x, dtype=np.int64)
    return _Lattice(
        x,
        np.asarray(z, dtype=np.int64),
        np.atleast_2d(np.asarray(costs, dtype=np.float64)),
        idx,
    )


def _rows(lattice):
    """The lattice's slice as indices into ``x``."""
    return np.arange(lattice.x.size) if lattice.idx is None else lattice.idx


def _totals(lattice):
    """Each cell's prefix sums, one row per cost row: the up and down flips of
    the column, then of the row."""
    return [totals for _, totals, _ in lattice.cells]


def _ends(lattice):
    """The lowest and highest column, then row, from the prefix sums' lengths:
    a side's up flips are its zeros, its down flips its ones."""
    up1, down1, up0, down0 = (totals.shape[1] - 1 for totals in _totals(lattice))
    return -down1, up1, -down0, up0


def _sizes(lattice):
    """Cell sizes in the order (x=1, z=1), (x=0, z=1), (x=1, z=0), (x=0, z=0),
    on which the counts and the prefix sums agree."""
    c01, c11, c00, c10 = lattice.counts
    assert [totals.shape[1] - 1 for totals in _totals(lattice)] == [c01, c11, c00, c10]
    return c11, c01, c10, c00


def _stable_orders(lattice, r):
    """Each cell's indices into ``x`` in the stable order of cost row ``r``:
    the up and down flips of the column, then of the row."""
    idx = _rows(lattice)
    x, z, cost = lattice.x[idx], lattice.z[idx], lattice.costs[r][idx]
    cells = [np.flatnonzero((x == xv) & (z == zv)) for zv in (1, 0) for xv in (0, 1)]
    return [idx[cell[np.argsort(cost[cell], kind="stable")]] for cell in cells]


def _stable_flip(lattice, r, u, v, orders=None):
    """``_Lattice.flip`` by a stable argsort: the first |k| entries of each
    cell's stable order."""
    up1, down1, up0, down0 = orders or _stable_orders(lattice, r)
    return np.concatenate(
        [(up if k > 0 else down)[: abs(k)] for k, up, down in ((u, up1, down1), (v, up0, down0))]
    )


def _flipped(lattice, changed):
    """The full ``x`` with the entries ``changed`` flipped, which must be
    distinct entries of the lattice's slice."""
    assert changed.dtype == np.int64
    flipped = np.array(lattice.x)
    flipped[changed] = 1 - flipped[changed]
    # an entry named twice flips back, and one outside the slice is missed
    idx = _rows(lattice)
    assert np.count_nonzero(flipped.take(idx) != lattice.x.take(idx)) == changed.size
    assert np.count_nonzero(flipped != lattice.x) == changed.size
    return flipped


def _apply(lattice, r, u, v):
    """The full ``x`` with cell (u, v) applied under cost row ``r``."""
    return _flipped(lattice, lattice.flip(r, u, v))


def _draw(rng, style, n):
    """Costs in one of five tie styles."""
    if style == 0:
        return rng.random(n)
    if style == 1:
        return np.round(rng.random(n), 2)
    if style == 2:
        return rng.choice([0.0, -0.0, MIN_CONFIDENCE, 0.25, 1.0], n)
    if style == 3:
        # shaped scores: a high power clamps many entries to the floor
        return np.maximum(rng.random(n) ** 40, MIN_CONFIDENCE)
    # posterior-like: about 50 distinct values, shaped as k-selection does
    return rng.choice(rng.uniform(0.5, 1.0, 50), n) ** 4


def _tie_moves(sorted_costs):
    """Move counts that take one entry of a tie run, all but one, all of
    it, and one entry past it, for every run of equal sorted costs."""
    bounds = np.flatnonzero(np.diff(sorted_costs, prepend=np.nan, append=np.nan) != 0)
    runs = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b - a > 1]
    return sorted({k for a, b in runs for k in (a + 1, b - 1, b, b + 1)})


class TestSortedGroup:
    """Cells sorted by value alone give the stable order's prefix sums, and
    ``flip`` picks the stable order's first entries."""

    @staticmethod
    def _check(costs, x, z, rng=None, idx=None):
        """Prefix sums under every row, and ``flip`` at every move of each
        side; a side of more than 201 moves takes its ends, the moves at and
        next to each tie run's ends (``_tie_moves``) and 40 random moves."""
        lattice = _lattice(x, z, costs, idx)
        u_lo, u_hi, v_lo, v_hi = _ends(lattice)
        for r, cost in enumerate(lattice.costs):
            orders = _stable_orders(lattice, r)
            for totals, order in zip(_totals(lattice), orders):
                want = np.concatenate(([0.0], np.cumsum(cost[order])))
                # np.sort does not order -0.0 against 0.0, so only the sign
                # of a zero total may differ; adding 0.0 clears that sign
                assert (totals[r] + 0.0).tobytes() == (want + 0.0).tobytes()
            moves = []
            for lo, hi, up, down in ((u_lo, u_hi, *orders[:2]), (v_lo, v_hi, *orders[2:])):
                ks = np.arange(lo, hi + 1)
                if ks.size > 201:
                    ties = _tie_moves(cost[up]) + [-k for k in _tie_moves(cost[down])]
                    ends = [lo, lo + 1, -1, 0, 1, hi - 1, hi]
                    sample = rng.integers(lo, hi + 1, 40).tolist()
                    ks = np.unique(np.clip(ends + ties + sample, lo, hi))
                moves.append(ks.tolist())
            # one flip checks a column move and a row move together
            for u, v in itertools.zip_longest(*moves, fillvalue=0):
                want = _flipped(lattice, _stable_flip(lattice, r, u, v, orders))
                assert np.array_equal(_apply(lattice, r, u, v), want)

    def test_matches_the_stable_argsort(self, rng):
        for trial in range(600):
            n = int(rng.choice([2, 7, 50, 400, 5000]))
            style = trial % 5
            first = _draw(rng, style, n)
            costs = np.stack((first, first**2, _draw(rng, style, n)))
            z = rng.random(n) < rng.uniform(0.2, 1.0)
            # odd trials take a metric slice of the entries, read in place
            idx = np.flatnonzero(rng.random(n) < 0.6) if trial % 2 else None
            self._check(costs, rng.integers(0, 2, n), z, rng, idx)

    def test_large_cells_flip_at_every_move(self, rng):
        # one fixed large trial per tie style, every move of both sides
        for style in range(5):
            n = 2000
            first = _draw(rng, style, n)
            costs = np.stack((first, first**2, _draw(rng, style, n)))
            lattice = _lattice(rng.integers(0, 2, n), rng.random(n) < 0.5, costs)
            u_lo, u_hi, v_lo, v_hi = _ends(lattice)
            for r in range(3):
                orders = _stable_orders(lattice, r)
                for u in range(u_lo, u_hi + 1):
                    want = _flipped(lattice, _stable_flip(lattice, r, u, 0, orders))
                    assert np.array_equal(_apply(lattice, r, u, 0), want)
                for v in range(v_lo, v_hi + 1):
                    want = _flipped(lattice, _stable_flip(lattice, r, 0, v, orders))
                    assert np.array_equal(_apply(lattice, r, 0, v), want)

    def test_signed_zeros_tie_in_index_order(self):
        conf = np.array([0.0, -0.0, 0.5, -0.0, 0.0, 0.0, -0.0])
        ones = np.ones(conf.size, dtype=int)
        self._check(conf[None], ones, ones)
        lattice = _lattice(ones, ones, conf)
        changed = [np.flatnonzero(_apply(lattice, 0, -k, 0) != 1).tolist() for k in range(1, 8)]
        order = [0, 1, 3, 4, 5, 6, 2]
        assert changed == [sorted(order[:k]) for k in range(1, 8)]

    def test_cut_inside_and_between_tie_runs(self):
        # sorted costs 0.1, 0.3, 0.3, 0.3, 0.7: cuts 2 and 3 fall inside the
        # run of 0.3, which flip settles by index; cuts 1 and 4 fall between
        # distinct costs, which it takes in one pass
        conf = np.array([0.3, 0.7, 0.3, 0.1, 0.3])
        ones = np.ones(conf.size, dtype=int)
        lattice = _lattice(ones, ones, conf)
        values = lattice.cells[1][0][0]
        want = {1: [3], 2: [0, 3], 3: [0, 2, 3], 4: [0, 2, 3, 4]}
        for k, inside in ((1, False), (2, True), (3, True), (4, False)):
            assert bool(values[k] == values[k - 1]) is inside
            changed = lattice.flip(0, -k, 0)
            assert changed.tolist() == want[k]
            assert sorted(changed) == sorted(_stable_flip(lattice, 0, -k, 0))

    def test_empty_and_single(self):
        for conf in (np.zeros(0), np.array([0.3])):
            self._check(conf[None], np.ones(conf.size, dtype=int), np.ones(conf.size, dtype=int))
        for z in ([0, 0], [0, 1]):
            self._check(np.array([[0.3, 0.3]]), [1, 0], z)


class TestTallyGroups:
    """A lattice's four cells hold the (x, z) groups."""

    def test_hand_count(self):
        assert _sizes(_lattice([1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1])) == (1, 1, 1, 1)

    def test_empty(self):
        assert _sizes(_lattice([], [], np.zeros((1, 0)))) == (0, 0, 0, 0)

    def test_single_group(self):
        assert _sizes(_lattice([1, 1], [1, 1], [1, 1])) == (2, 0, 0, 0)

    def test_length_mismatch(self):
        # lengths are checked where the vectors enter, before any lattice
        with pytest.raises(LengthMismatch):
            AttackInstance([1, 0], [0, 0], [1], [1.0])


class TestBuildCostArrays:
    """A lattice's cells hold prefix sums of their ascending costs."""

    def test_sort_and_cumulate(self):
        lattice = _lattice([1, 1, 1], [1, 1, 1], [0.9, 0.2, 0.5])
        _, down1, _, _ = _totals(lattice)
        assert down1[0].tolist() == pytest.approx([0.0, 0.2, 0.7, 1.6])
        changed = [np.flatnonzero(_apply(lattice, 0, -k, 0) == 0).tolist() for k in (1, 2, 3)]
        assert changed == [[1], [1, 2], [0, 1, 2]]

    def test_empty_group(self):
        _, _, up0, _ = _totals(_lattice([1], [1], [0.3]))
        assert up0.tolist() == [[0.0]]

    def test_uniform_weights_count_moves(self):
        up1, _, _, _ = _totals(_lattice([0, 0], [1, 1], [1.0, 1.0]))
        assert up1.tolist() == [[0.0, 1.0, 2.0]]

    def test_negative_confidence(self):
        # the instance checks its confidences, so no solve reads a negative one
        with pytest.raises(NegativeConfidence):
            AttackInstance([1], [0], [1], [-0.5])

    def test_increments_non_decreasing(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 30))
            lattice = _lattice(rng.integers(0, 2, n), rng.integers(0, 2, n), rng.random((3, n)))
            for totals in _totals(lattice):
                for arr in totals:
                    assert arr[0] == 0.0
                    steps = np.diff(arr)
                    assert np.all(np.diff(steps) >= -1e-12)

    def test_rows_sort_independently(self):
        lattice = _lattice([1, 1, 1], [1, 1, 1], [[0.9, 0.2, 0.5], [0.1, 0.3, 0.2]])
        changed = [
            [np.flatnonzero(_apply(lattice, r, -k, 0) == 0).tolist() for k in (1, 2, 3)]
            for r in (0, 1)
        ]
        assert changed == [[[1], [1, 2], [0, 1, 2]], [[0], [0, 2], [0, 1, 2]]]
        assert _totals(lattice)[1][1].tolist() == pytest.approx([0.0, 0.1, 0.3, 0.6])
        # a subset of the rows, in order, is searched as it is among all rows
        (alone,) = corrector._solve_sp_form(lattice, [1], Fraction(1), None)
        both = corrector._solve_sp_form(lattice, [0, 1], Fraction(1), None)
        assert [(cell.r, cell.u, cell.v) for cell in both] == [(0, -1, 0), (1, -1, 0)]
        assert (alone.r, alone.u, alone.v, alone.columns) == (1, -1, 0, both[1].columns)
        assert alone.objective == both[1].objective == pytest.approx(0.1)


class TestSolveEfficient:
    """The SP form through ``correct``."""

    @staticmethod
    def _correct(guess, yhat, conf, epsilon):
        inst = AttackInstance(yhat, np.zeros(len(yhat), dtype=int), guess, conf)
        return correct(inst, FairnessSpec(SP, epsilon))

    def test_unit_costs(self):
        res = self._correct([1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1], 0.1)
        assert res.moves == MoveCounts(s01_pos=0, s10_pos=1, s01_neg=1, s10_neg=0)
        assert res.objective == pytest.approx(2.0)

    def test_loose_tolerance_is_noop(self):
        res = self._correct([1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1], 0.5)
        assert res.moves == MoveCounts(0, 0, 0, 0)
        assert res.objective == 0.0

    def test_weighted_costs(self):
        res = self._correct([1, 1, 0, 0], [1, 1, 0, 0], [0.1, 1, 1, 0.2], 0.1)
        assert res.moves == MoveCounts(0, 1, 1, 0)
        assert res.objective == pytest.approx(0.3)

    def test_single_example_infeasible(self):
        with pytest.raises(Infeasible):
            self._correct([1], [1], [1.0], 0.0)


class TestApplyMoves:
    """``_Lattice.flip`` flips the cheapest members of each cell."""

    def test_all_zero_is_identity(self):
        corrected = _apply(_lattice([1, 0, 1], [1, 1, 0], [0.5, 0.5, 0.5]), 0, 0, 0)
        assert corrected.tolist() == [1, 0, 1]

    def test_flips_cheapest_members(self):
        lattice = _lattice([1, 1, 0, 0], [1, 1, 0, 0], [0.1, 1, 1, 0.2])
        assert _apply(lattice, 0, -1, 1).tolist() == [0, 1, 0, 1]

    def test_tie_breaks_on_lowest_index(self):
        x = [0, 0, 1, 0, 0, 1]
        lattice = _lattice(x, x, [9, 9, 1.0, 9, 9, 1.0])
        assert _apply(lattice, 0, -1, 0).tolist() == [0, 0, 0, 0, 0, 1]
        x = [1, 0, 1, 0, 0, 1]
        lattice = _lattice(x, x, [1, 9, 1, 9, 9, 1])
        assert _apply(lattice, 0, -2, 0).tolist() == [0, 0, 0, 0, 0, 1]

    def test_flipped_cost_matches_objective(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 20))
            x = rng.integers(0, 2, n)
            costs = rng.random((2, n))
            lattice = _lattice(x, rng.integers(0, 2, n), costs)
            r = int(rng.integers(0, 2))
            u_lo, u_hi, v_lo, v_hi = _ends(lattice)
            u = int(rng.integers(u_lo, u_hi + 1))
            v = int(rng.integers(v_lo, v_hi + 1))
            changed = np.flatnonzero(_apply(lattice, r, u, v) != x)
            assert changed.size == abs(u) + abs(v)
            assert costs[r, changed].sum() == pytest.approx(lattice.cost(r, u, v), abs=1e-9)


class TestTiedTraffic:
    """The paper's traffic: naive-Bayes posteriors take few distinct values,
    so most entries of each cell sit in a tie run."""

    def test_batches_match_the_stable_flip(self, rng, monkeypatch):
        n = 5000
        yhat = rng.integers(0, 2, n)
        guess = np.where(rng.random(n) < 0.6, yhat, 1 - yhat)
        # at most 50 distinct scores, shaped by the exponents k-selection tries
        scores = rng.choice(rng.uniform(0.0, 1.0, 50), n)
        vectors = [np.maximum(scores**k, MIN_CONFIDENCE) for k in (1, 2, 3, 4, 6, 8)]
        inst = AttackInstance(yhat, rng.integers(0, 2, n), guess, vectors[0])
        for metric in (SP, PE, EO, EODDS):
            # the guess's gaps are 0.10-0.12: a lower bound of 0.15 must raise them
            for spec in (FairnessSpec(metric, 0.01), FairnessSpec(metric, 0.2, epsilon_lower=0.15)):
                got = solve_each(inst, spec, vectors)
                with monkeypatch.context() as patch:
                    patch.setattr(_Lattice, "flip", _stable_flip)
                    want = solve_each(inst, spec, vectors)
                assert len(got) == len(want) == len(vectors)
                for ours, ref in zip(got, want):
                    assert np.array_equal(ours.corrected, ref.corrected)
                    assert ours.objective == ref.objective
                    assert ours.moves == ref.moves
                    assert np.array_equal(ours.changed_indices, ref.changed_indices)
                    assert ours.stats.nodes == ref.stats.nodes


class TestCorrect:
    def test_loose_spec_returns_guess(self):
        inst = AttackInstance([1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [1, 1, 1, 1])
        res = correct(inst, FairnessSpec(SP, 1.0))
        assert res.corrected.tolist() == [1, 1, 0, 0]
        assert res.objective == 0.0

    def test_pe_with_all_positive_labels_is_identity(self):
        inst = AttackInstance([1, 1, 0, 0], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1])
        res = correct(inst, FairnessSpec(PE, 0.0))
        assert res.corrected.tolist() == [1, 1, 0, 0]
        assert res.moves == MoveCounts(0, 0, 0, 0)

    def test_eodds_on_all_negative_matches_sp(self):
        inst = AttackInstance(
            [1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [0.1, 1, 1, 0.2]
        )
        eodds = correct(inst, FairnessSpec(EODDS, 0.1))
        sp = correct(inst, FairnessSpec(SP, 0.1))
        brute = solve_general_bruteforce(inst, FairnessSpec(SP, 0.1))
        assert eodds.objective == pytest.approx(sp.objective)
        assert sp.objective == pytest.approx(brute.objective)
        assert eodds.corrected.tolist() == sp.corrected.tolist()

    def test_result_satisfies_spec(self, rng):
        solved = 0
        for _ in range(60):
            n = int(rng.integers(4, 16))
            inst = AttackInstance(
                rng.integers(0, 2, n),
                rng.integers(0, 2, n),
                rng.integers(0, 2, n),
                rng.random(n),
            )
            spec = FairnessSpec(EODDS, 0.25)
            try:
                res = correct(inst, spec)
            except Infeasible:
                continue
            solved += 1
            assert meets_spec(spec, res.corrected, inst.predictions, inst.labels)
        assert solved > 10

    def test_flip_count_identity(self):
        inst = AttackInstance(
            [1, 1, 0, 0, 1, 0], [0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0], [0.5] * 6
        )
        res = correct(inst, FairnessSpec(SP, 0.0))
        assert len(res.changed_indices) == sum(dataclasses.astuple(res.moves))

    def test_multivalued_guess_rejected(self):
        inst = AttackInstance([1, 0, 1], [0, 0, 0], [0, 1, 2], [1, 1, 1], cardinality=3)
        with pytest.raises(UnsupportedCardinality, match="binary guesses"):
            correct(inst, FairnessSpec(SP, 0.5))
        with pytest.raises(UnsupportedCardinality, match="binary guesses"):
            solve_each(inst, FairnessSpec(SP, 0.5), [[1, 1, 1], [0.5, 1, 2]])

    def test_epsilon_lower_forces_unfairness(self):
        # a perfectly balanced guess must become measurably unfair
        inst = AttackInstance(
            [1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 0, 0], [1.0, 1.0, 1.0, 1.0]
        )
        spec = FairnessSpec(SP, 1.0, epsilon_lower=0.4)
        res = correct(inst, spec)
        assert meets_spec(spec, res.corrected, inst.predictions, inst.labels)
        assert res.objective > 0


class TestChangedIndices:
    """``changed_indices`` is the ascending union of the slices' flips: the
    entries where ``corrected`` differs from the guess, each once."""

    @staticmethod
    def _check(inst, result):
        changed = result.changed_indices
        assert changed.dtype == np.int64 and not changed.flags.writeable
        assert changed.tolist() == sorted(set(changed.tolist()))
        assert np.array_equal(changed, np.flatnonzero(result.corrected != inst.guess))

    def test_random_instances(self, rng):
        solved = 0
        for trial in range(24):
            n = int(rng.choice([3, 40, 500, 4000]))
            yhat = rng.integers(0, 2, n)
            guess = np.where(rng.random(n) < 0.6, yhat, 1 - yhat)
            vectors = [rng.random(n), rng.integers(0, 3, n) / 2.0, np.ones(n)]
            inst = AttackInstance(yhat, rng.integers(0, 2, n), guess, vectors[0])
            for metric in (SP, PE, EO, EODDS):
                for lower in (None, 0.02):
                    spec = FairnessSpec(metric, 0.05, lower)
                    try:
                        results = [correct(inst, spec), *solve_each(inst, spec, vectors)]
                    except Infeasible:
                        continue
                    solved += 1
                    for result in results:
                        self._check(inst, result)
        assert solved > 100

    def test_metric_without_a_nonempty_slice(self):
        # PE reads the y = 0 rows and EO the y = 1 rows: none is left to flip
        for metric, label in ((PE, 1), (EO, 0)):
            inst = AttackInstance([1, 0, 1, 0], [label] * 4, [1, 1, 0, 0], [0.3, 0.4, 0.5, 0.6])
            for lower in (None, 0.1):
                spec = FairnessSpec(metric, 0.0 if lower is None else 0.2, lower)
                for result in (correct(inst, spec), *solve_each(inst, spec, [[1] * 4, [2] * 4])):
                    self._check(inst, result)
                    assert result.changed_indices.tolist() == []
                    assert result.corrected.tolist() == [1, 1, 0, 0]

    def test_sp_on_an_empty_instance(self):
        # SP's slice of every row is read without an index array, and an
        # empty one is skipped like any empty slice
        inst = AttackInstance([], [], [], [])
        for lower in (None, 0.1):
            spec = FairnessSpec(SP, 0.2, lower)
            for result in (correct(inst, spec), *solve_each(inst, spec, [[], []])):
                self._check(inst, result)
                assert result.changed_indices.tolist() == [] and result.objective == 0.0


class TestInPlace:
    """The lattice reads the instance's own arrays, and the result is one
    copy of the guess with the flips scattered in."""

    def test_peak_memory_per_row(self):
        n = 200_000
        rng = np.random.default_rng(0)
        yhat = rng.integers(0, 2, n)
        guess = np.where(rng.random(n) < 0.6, yhat, 1 - yhat)
        inst = AttackInstance(yhat, rng.integers(0, 2, n), guess, rng.random(n))
        spec = FairnessSpec(SP, 0.01)
        tracemalloc.start()
        try:
            result = correct(inst, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.nodes > 0
        # copies of the slice's guess, predictions and confidences, and of
        # each solved slice, peak at 68 bytes a row; in place it is 46, and
        # 38 once SP's slice of every row carries no index array
        assert peak / n < 42


class TestInfeasibleMessages:
    """Each way a lattice solve fails names its failed condition."""

    def test_one_row_has_one_group(self):
        message = r"^both groups must be nonempty, impossible with n < 2$"
        with pytest.raises(Infeasible, match=message):
            correct(AttackInstance([1], [0], [1], [1.0]), FairnessSpec(SP, 0.5))

    def test_no_cell_within_the_bounds(self):
        # constant predictions leave every gap at zero, below any lower bound
        inst = AttackInstance([0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [1.0] * 4)
        message = r"^no move assignment satisfies the rate constraints$"
        with pytest.raises(Infeasible, match=message):
            correct(inst, FairnessSpec(SP, 0.5, 0.1))

    def test_no_eodds_carrier(self):
        # both slices solve upper-only at gap zero, and neither can carry the
        # lower bound: the predictions are constant within each label slice
        labels = np.array([0, 0, 1, 1])
        spec = FairnessSpec(EODDS, 0.5, 0.1)
        message = r"^no slice can reach the required lower unfairness bound$"
        with pytest.raises(Infeasible, match=message):
            correct(AttackInstance(labels, labels, [0, 1, 0, 1], [1.0] * 4), spec)
        # the prediction repair, an upper-only fair training, takes no lower bound
        with pytest.raises(BadParameters, match=r"^the prediction repair takes no lower bound$"):
            repair_predictions(np.array([0, 1, 0, 1]), np.ones(4), labels, labels, spec)


class TestBruteForce:
    def test_matches_efficient_on_spec_example(self):
        inst = AttackInstance([1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1])
        res = solve_general_bruteforce(inst, FairnessSpec(SP, 0.1))
        assert res.objective == pytest.approx(2.0)

    def test_three_valued_already_fair(self):
        inst = AttackInstance([1, 0, 1], [0, 0, 0], [0, 1, 2], [1, 1, 1], cardinality=3)
        res = solve_general_bruteforce(inst, FairnessSpec(SP, 0.7))
        assert res.objective == 0.0
        assert res.corrected.tolist() == [0, 1, 2]
        assert res.moves == {}

    def test_loose_tolerance_with_all_groups_present(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            guess = np.concatenate([[0, 1, 2], rng.integers(0, 3, n - 3)])
            inst = AttackInstance(
                rng.integers(0, 2, n),
                rng.integers(0, 2, n),
                guess,
                rng.random(n),
                cardinality=3,
            )
            res = solve_general_bruteforce(inst, FairnessSpec(SP, 1.0))
            assert res.objective == 0.0

    def test_three_valued_must_populate_missing_group(self):
        inst = AttackInstance(
            [1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1], cardinality=3
        )
        res = solve_general_bruteforce(inst, FairnessSpec(SP, 1.0))
        assert set(res.corrected.tolist()) == {0, 1, 2}
        assert res.objective > 0
        assert sum(res.moves.values()) == len(res.changed_indices)

    def test_budget_exceeded(self):
        n = 25
        inst = AttackInstance(
            np.zeros(n, dtype=int),
            np.zeros(n, dtype=int),
            np.zeros(n, dtype=int),
            np.ones(n),
        )
        with pytest.raises(BudgetExceeded):
            solve_general_bruteforce(inst, FairnessSpec(SP, 0.5))

    def test_enumeration_at_the_budget_keeps_one_byte_a_digit(self):
        # 20 rows, 2**20 states: int64 digit matrices alone would take 336 MiB,
        # where int8 digits take 20 MiB and the float cost matrix 168 MiB
        yhat = np.array([0, 1] * 10)
        inst = AttackInstance(yhat, np.zeros(20, dtype=int), yhat, np.linspace(0.05, 1.0, 20))
        spec = FairnessSpec(SP, 0.1)
        tracemalloc.start()
        try:
            result = solve_general_bruteforce(inst, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.nodes == 2**20
        assert np.array_equal(result.changed_indices, correct(inst, spec).changed_indices)
        assert result.objective == pytest.approx(1.8)
        assert peak < 256 * 2**20

    def test_signature_classes_match_the_row_sort(self, rng):
        # small radices take the int64 keys, large ones the row-wise sort
        for high in (1, 3, 40, 2**20, 2**40):
            for _ in range(20):
                rows, cols = int(rng.integers(0, 300)), int(rng.integers(1, 8))
                signature = rng.integers(0, high, (rows, cols))
                uniq, inverse = _signature_classes(signature)
                want_uniq, want_inverse = np.unique(signature, axis=0, return_inverse=True)
                assert np.array_equal(uniq, want_uniq)
                assert np.array_equal(inverse.ravel(), want_inverse.ravel())

    def test_many_groups_take_the_row_sort(self):
        # 17 groups over 4 entries with 2 positives: the count columns have
        # radix 5 and the positive columns radix 3, and 15**17 > 2**63;
        # no assignment populates every group
        inst = AttackInstance([1, 1, 0, 0], [0, 0, 0, 0], [0, 1, 2, 3], [1, 1, 1, 1], cardinality=17)
        with pytest.raises(Infeasible):
            solve_general_bruteforce(inst, FairnessSpec(SP, 1.0))

    def test_infeasible_single_example(self):
        inst = AttackInstance([1], [0], [1], [1.0])
        with pytest.raises(Infeasible):
            solve_general_bruteforce(inst, FairnessSpec(SP, 0.0))

    def test_oracle_imports_only_core_and_errors(self):
        # the oracle checks the lattice solver, so it must not share its code
        allowed = set(sys.stdlib_module_names) | {"numpy"}
        for node in ast.walk(ast.parse(inspect.getsource(oracle))):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1 and node.module in ("core", "errors"), node.module
            elif isinstance(node, ast.ImportFrom):
                assert node.module.split(".")[0] in allowed, node.module
            elif isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] in allowed for alias in node.names)

    def test_corrector_holds_no_bruteforce(self):
        for name in ("solve_general_bruteforce", "_class_feasible", "_signature_classes",
                     "_enumeration_positions", "DEFAULT_BRUTEFORCE_BUDGET"):
            assert not hasattr(corrector, name), name

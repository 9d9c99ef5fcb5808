"""Cross-check of the block-wise vectorised net-move sweep.

``scalar_sweep`` holds the column-at-a-time sweep the vectorised one
replaced, with independently derived windows.  Swapping it in through
monkeypatch gives reference results for ``correct`` and for the prediction
repair; the two engines must agree exactly, including the scanned-column
count reported as ``stats.nodes``.
"""

from fractions import Fraction

import numpy as np
import pytest

import scalar_sweep
from conftest import meets_spec, solve_each, whole_sums
from fairleak import corrector
from fairleak.adversary import DEFAULT_K_GRID, MIN_CONFIDENCE, shape_confidences
from fairleak.core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    slice_for_metric,
    unfairness_exact,
)
from fairleak.corrector import RepairState, _floor_affine, correct, repair_predictions
from fairleak.errors import Infeasible

METRICS = list(FairnessMetric)
SP = FairnessMetric.SP
EPSILONS = (0.0, 0.001, 0.01, 1 / 3, 0.2)
#: (_SMALL, _MAX_BLOCK): tiny blocks through the column bound, the defaults,
#: where small lattices take every column in one block, and every lattice
#: through the bound in default blocks
BLOCKS = [(0, 4), None, (0, 1 << 15)]


def _set_blocks(monkeypatch, blocks):
    monkeypatch.setattr(corrector, "_SMALL", blocks[0])
    monkeypatch.setattr(corrector, "_MAX_BLOCK", blocks[1])


def _outcome(solve, *args):
    try:
        return solve(*args)
    except Infeasible:
        return None


def _instance(rng, n, style):
    if style == "ties":
        conf = rng.integers(0, 4, n) / 2.0
    elif style == "identity":
        conf = np.ones(n)
    else:
        conf = rng.random(n)
    # a guess that leans on the predictions is unfair, so the sweep scans
    yhat = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
    guess = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
    guess = np.where(rng.random(n) < rng.uniform(0.0, 0.5), yhat, guess)
    return AttackInstance(yhat, rng.integers(0, 2, n), guess, conf)


def _assert_same_result(ours, ref):
    assert ours.objective == ref.objective
    assert ours.moves == ref.moves
    assert np.array_equal(ours.changed_indices, ref.changed_indices)
    assert ours.stats.nodes == ref.stats.nodes
    assert np.array_equal(ours.corrected, ref.corrected)


def _assert_same_correction(monkeypatch, inst, spec):
    ours = _outcome(correct, inst, spec)
    with monkeypatch.context() as patch:
        patch.setattr(corrector, "_solve_sp_form", scalar_sweep.solve_sp_form)
        ref = _outcome(correct, inst, spec)
    assert (ours is None) == (ref is None)
    if ours is None:
        return False
    _assert_same_result(ours, ref)
    return True


def _assert_same_each(monkeypatch, inst, spec, vectors):
    """The batched solve against the scalar sweep's ``correct`` on an
    instance carrying one vector at a time."""
    ours = _outcome(solve_each, inst, spec, vectors)
    with monkeypatch.context() as patch:
        patch.setattr(corrector, "_solve_sp_form", scalar_sweep.solve_sp_form)
        refs = [
            _outcome(correct, AttackInstance(inst.predictions, inst.labels, inst.guess, conf), spec)
            for conf in vectors
        ]
    if ours is None:
        assert all(ref is None for ref in refs)
        return False
    assert len(ours) == len(vectors)
    for result, ref in zip(ours, refs):
        assert ref is not None
        _assert_same_result(result, ref)
    return True


def _vectors(rng, n, style):
    if style == "orders":
        # orders unrelated to one another, so no vector's order helps the next
        base = rng.random(n)
        return [base, 1.0 - base, rng.permutation(base), rng.random(n), base[::-1].copy()]
    if style == "ties":
        return [rng.integers(0, 3, n) / 2.0 for _ in range(4)] + [np.ones(n)]
    # k-selection's vectors: scores near 0.5 fall to MIN_CONFIDENCE at k = 32
    raw = 0.5 + rng.integers(0, 40, n) / 80.0
    return [shape_confidences(raw, k) for k in DEFAULT_K_GRID]


def _cheap_sides(rng, guess):
    """Two vectors: one finds its cheapest columns among the up flips, the
    other among the down flips, so that their cuts differ most."""
    return [np.where(guess == side, 1e-3, 1.0) * rng.random(guess.size) for side in (0, 1)]


def _logged_solves(patch):
    """Spy on the corrector's slice solves: one [lattice, vectors, bound,
    cells] entry per solve, in call order, ``cells`` left None where the
    solve raises."""
    log = []
    solve = corrector._solve_sp_form

    def spy_solve(lattice, rows, epsilon, lower):
        log.append([lattice, list(rows), lower, None])
        log[-1][3] = solve(lattice, rows, epsilon, lower)
        return log[-1][3]

    patch.setattr(corrector, "_solve_sp_form", spy_solve)
    return log


def _spy_searches(monkeypatch, spy):
    """Put ``spy`` in place of the net-move search, for the corrector and
    the prediction repair alike."""
    monkeypatch.setattr(corrector, "_search_net_moves", spy)


def _spied_blocks(monkeypatch):
    """Spy on the net-move searches: one list per search, in call order, of
    each block whose windows it computes, as (its cost rows times bounds,
    its columns)."""
    searches = []
    search, rows_within = corrector._search_net_moves, corrector._rows_within

    def spy(lattice, rows, planes, group):
        def recording(u, planes, lo, hi):
            searches[-1].append((len(rows) * len(planes[0][1]), u.tolist()))
            return rows_within(u, planes, lo, hi)

        searches.append([])
        with monkeypatch.context() as patch:
            patch.setattr(corrector, "_rows_within", recording)
            return search(lattice, rows, planes, group)

    _spy_searches(monkeypatch, spy)
    return searches


def _eodds_solves(monkeypatch, inst, spec, vectors):
    """The batched solve on an EOdds ``spec`` with a lower bound: its results
    (None when infeasible), its slices' lattices, and its upper-only and
    carrier solves, each as (slice, vectors, cells).  Both lists of solves
    are empty below two slices, where no carrier is chosen."""
    with monkeypatch.context() as patch:
        log = _logged_solves(patch)
        results = _outcome(solve_each, inst, spec, vectors)
    lattices = []
    for lattice, *_ in log:
        if lattice not in lattices:
            lattices.append(lattice)
    if len(lattices) < 2:
        return results, lattices, [], []
    solves = [(lattices.index(lattice), rows, bound, cells) for lattice, rows, bound, cells in log]
    upper = [(i, rows, cells) for i, rows, bound, cells in solves if bound is None]
    carried = [(i, rows, cells) for i, rows, bound, cells in solves if bound is not None]
    return results, lattices, upper, carried


def _assert_same_repair(monkeypatch, yhat, margins, sensitive, labels, spec):
    ours = repair_predictions(yhat, margins, sensitive, labels, spec)
    with monkeypatch.context() as patch:
        patch.setattr(RepairState, "solve", scalar_sweep.solve_repair_state)
        ref = repair_predictions(yhat, margins, sensitive, labels, spec)
    assert np.array_equal(ours, ref)
    return bool(np.any(ours != yhat))


class TestFloorAffine:
    def test_matches_python_ints(self, rng):
        u = np.arange(-300, 301)

        def draw(bits):
            return int(rng.integers(-(2**40), 2**40)) * 2 ** int(rng.integers(0, bits))

        for _ in range(300):
            bits = int(rng.choice([4, 20, 60, 70, 130]))
            d = int(rng.integers(1, 2**20)) * 2 ** int(rng.integers(0, bits)) + 1
            offsets = [draw(bits), draw(bits), draw(int(rng.choice([4, 130])))]
            b = draw(bits)
            want = [[min(max((a + b * k) // d, -50), 50) for k in u.tolist()] for a in offsets]
            assert _floor_affine([offsets[0]], b, d, u, -50, 50).tolist() == [want[0]]
            # a sequence of offsets gives one row each
            assert _floor_affine(offsets, b, d, u, -50, 50).tolist() == want

    def test_rechecks_values_a_float_rounds_onto_an_integer(self):
        # (d - 5 + k) / d is exactly 1 at k = 5 and 1 - 1/d at k = 4, which
        # float64 rounds up to 1.0; only the exact recheck floors it to 0
        d = 2**61 + 1
        u = np.arange(0, 10)
        (got,) = _floor_affine([d - 5], 1, d, u, -10, 10)
        assert got.tolist() == [(d - 5 + k) // d for k in range(10)]
        assert got[4] == 0 and got[5] == 1
        # the same near-integers in other rows; the last offset's quotient
        # -2**62 leaves int64 arithmetic for Python ints
        offsets = [d - 3, 2 * d - 7, d - 5 - 2**62 * d]
        lo, hi = -(2**63) + 1, 2**62
        got = _floor_affine(offsets, 1, d, u, lo, hi)
        want = [[(a + k) // d for k in range(10)] for a in offsets]
        assert got.tolist() == want
        assert want[0][2:4] == [0, 1] and want[1][6:8] == [1, 2]
        assert want[2][4:6] == [-(2**62), 1 - 2**62]

    def test_quotients_beyond_int64_are_clipped_exactly(self):
        # n = 1000 with 300 positives at eps = 0.3: the group window divides
        # by 300 * den - num * 1000 = 200, so its quotients run past 2**62
        eps = Fraction(0.3)
        b = 300 * eps.denominator - eps.numerator * 1000
        assert b == 200
        scale = 1000 * eps.denominator
        u = np.arange(-300, 701)
        (got,) = _floor_affine([300 * scale], scale, b, u, 0, 1000)
        want = [min(max((300 + k) * scale // b, 0), 1000) for k in range(-300, 701)]
        assert got.tolist() == want
        assert got[0] == 0 and got[1] == 1000


class TestCorrectionCrossCheck:
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_random_instances(self, monkeypatch, rng, blocks):
        if blocks:
            # tiny blocks put every block boundary and stop test to work
            _set_blocks(monkeypatch, blocks)
        solved = 0
        for trial in range(240):
            n = int(rng.choice([2, 5, 12, 40, 300, 3000]))
            inst = _instance(rng, n, ("uniform", "ties", "identity")[trial % 3])
            spec = FairnessSpec(METRICS[trial % 4], EPSILONS[(trial // 4) % 5])
            solved += _assert_same_correction(monkeypatch, inst, spec)
        assert solved > 100

    def test_lower_bound(self, monkeypatch, rng):
        # exercises the lower bound's four pieces and the carrier rule
        solved = 0
        for trial in range(160):
            n = int(rng.choice([4, 12, 60, 500, 3000]))
            inst = _instance(rng, n, ("uniform", "ties", "identity")[trial % 3])
            eps = EPSILONS[1 + (trial // 4) % 4]
            lower = (eps, eps / 2, 0.001, 1e-9)[(trial // 20) % 4]
            spec = FairnessSpec(METRICS[trial % 4], eps, min(lower, eps))
            solved += _assert_same_correction(monkeypatch, inst, spec)
        assert solved > 60

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_large_instances(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        for metric, eps, lower, style in (
            (FairnessMetric.SP, 0.001, None, "uniform"),
            (FairnessMetric.EODDS, 0.01, None, "ties"),
            (FairnessMetric.PE, 0.01, 0.005, "uniform"),
            (FairnessMetric.EODDS, 0.2, 0.19, "identity"),
        ):
            inst = _instance(rng, 100_000, style)
            _assert_same_correction(monkeypatch, inst, FairnessSpec(metric, eps, lower))

    def test_rates_that_land_on_integers(self, monkeypatch):
        # group sizes and positives in thirds make eps = 1/3 and eps = 0
        # windows fall exactly on integers
        rng = np.random.default_rng(3)
        for n in (9, 30, 300, 3000):
            for eps in (0.0, 1 / 3):
                for metric in METRICS:
                    guess = np.repeat([1, 0, 0], n // 3)
                    yhat = np.tile([1, 0, 0], n // 3)
                    conf = rng.integers(1, 3, n) / 2.0
                    inst = AttackInstance(yhat, rng.integers(0, 2, n), guess, conf)
                    lower = None if eps == 0 else 1 / 6
                    _assert_same_correction(
                        monkeypatch, inst, FairnessSpec(metric, eps, lower)
                    )

    def test_dyadic_bounds_met_with_equality(self, monkeypatch, rng):
        # dyadic tolerances are exact binary fractions, so gaps can equal
        # either bound exactly, and the lower bound can equal the overall
        # rate; this drives every strict-versus-inclusive window end
        solved = 0
        for trial in range(240):
            n = int(rng.choice([4, 8, 16, 64, 512]))
            inst = AttackInstance(
                np.repeat(rng.integers(0, 2, n // 4), 4),
                rng.integers(0, 2, n),
                np.tile(rng.integers(0, 2, 4), n // 4),
                np.ones(n) if trial % 2 else rng.integers(1, 3, n) / 2.0,
            )
            eps = (0.5, 0.25, 0.125)[trial % 3]
            lower = (None, eps, eps / 2, eps / 4)[(trial // 3) % 4]
            spec = FairnessSpec(METRICS[(trial // 12) % 4], eps, lower)
            solved += _assert_same_correction(monkeypatch, inst, spec)
        assert solved > 60

    def test_lower_bound_equal_to_the_overall_rate(self, monkeypatch):
        # group 1 holds no positive, so its gap is the overall rate 1/4, which
        # meets the lower bound exactly: the guess is already feasible
        inst = AttackInstance([1, 1, 0, 0, 0, 0, 0, 0], [0] * 8, [0] * 6 + [1, 1], [1.0] * 8)
        spec = FairnessSpec(FairnessMetric.SP, 0.25, 0.25)
        assert _assert_same_correction(monkeypatch, inst, spec)
        assert correct(inst, spec).objective == 0.0

    def test_cost_and_move_ties_break_on_the_column(self, monkeypatch, rng):
        # unit costs tie many cells on cost and move count alike
        for trial in range(300):
            n = int(rng.integers(4, 30))
            inst = _instance(rng, n, "identity")
            eps = (0.05, 0.1, 0.2)[trial % 3]
            lower = (None, eps / 2)[(trial // 3) % 2]
            _assert_same_correction(monkeypatch, inst, FairnessSpec(METRICS[trial % 4], eps, lower))

    def test_window_quotients_beyond_int64(self, monkeypatch):
        rng = np.random.default_rng(8)
        yhat = np.zeros(1000, dtype=np.int64)
        yhat[rng.choice(1000, 300, replace=False)] = 1
        guess = np.where(rng.random(1000) < 0.9, yhat, 1 - yhat)
        inst = AttackInstance(yhat, rng.integers(0, 2, 1000), guess, rng.random(1000))
        spec = FairnessSpec(FairnessMetric.SP, 0.3)
        assert _assert_same_correction(monkeypatch, inst, spec)
        ours = correct(inst, spec)
        assert ours.stats.nodes > 0
        assert meets_spec(spec, ours.corrected, inst.predictions)


class TestColumnBound:
    """The search takes only the columns its convex bound LB cannot rule
    out, and finds the cells the scalar reference finds."""

    def test_best_cell_within_the_margin_of_its_bound(self, monkeypatch, rng):
        # the cheapest cell often costs exactly LB at its column, where the
        # band's cheapest row is a whole number; LB raised by a quarter of
        # the rounding margin must still leave that cell found
        monkeypatch.setattr(corrector, "_SMALL", 0)
        bound_at, search = corrector._column_bound, corrector._search_net_moves
        gaps = []  # each solved cell's cost above LB at its column

        def spy(part, rows, planes, group):
            found = search(part, rows, planes, group)
            whole_sums(part)  # LB read from the whole cells, as exact as it gets
            for g, cells in enumerate(found):
                members = [b for b, of in enumerate(group) if of == g]
                # a group with a bound whose offsets are all non-negative holds (0, 0), unsearched
                free = any(all(c[b] >= 0 for _, c, _ in planes) for b in members)
                for r, cell in enumerate(cells):
                    if cell is not None and not free:
                        # LB of the member bound whose window holds the cell
                        b = next(b for b in members
                                 if all(q * cell.v <= c[b] + k * cell.u for q, c, k in planes))
                        bound, _, unit = bound_at(part, planes, np.array([b]), np.array([rows[r]]))
                        # LB comes in units of unit, a power of two, so this is exact
                        lb = bound(np.array([[cell.u]]), np.array([0]))[0][0, 0] * unit[0]
                        gaps.append(cell.objective - lb)
            return found

        def raised(part, planes, b, r):
            bound, top, unit = bound_at(part, planes, b, r)
            lift = 1 + (sum(part.counts) + 2**20) * 2.0**-46

            def lifted(u, p):
                value, cell = bound(u, p)
                return value * lift, cell

            return lifted, top, unit

        _spy_searches(monkeypatch, spy)
        monkeypatch.setattr(corrector, "_column_bound", raised)
        solved = 0
        for trial in range(120):
            n = int(rng.choice([12, 60, 500, 3000]))
            inst = _instance(rng, n, ("uniform", "ties", "identity")[trial % 3])
            eps = EPSILONS[(trial // 3) % 5]
            lower = (None, eps / 2)[(trial // 15) % 2] if eps else None
            spec = FairnessSpec(METRICS[trial % 4], eps, lower)
            solved += _assert_same_correction(monkeypatch, inst, spec)
        assert solved > 60
        assert min(gaps) >= -1e-12
        assert sum(gap == 0 for gap in gaps) > 30

    @pytest.mark.parametrize("metric", [FairnessMetric.SP, FairnessMetric.EODDS])
    def test_large_instance_takes_few_columns(self, monkeypatch, metric):
        rng = np.random.default_rng(11)
        inst = _instance(rng, 100_000, "uniform")
        spec = FairnessSpec(metric, 0.01)
        nodes = correct(inst, spec).stats.nodes
        searches = _spied_blocks(monkeypatch)
        # the stats count the scalar sweep's columns, which are many more
        assert _assert_same_correction(monkeypatch, inst, spec)
        columns = [len(block) for blocks in searches for _, block in blocks]
        assert sum(columns) <= 300 and nodes > 10_000


class TestCorrectEach:
    """The corrector's batched solve, each vector's cells built into a
    result: the one ``correct`` gives on the instance carrying the vector."""

    @pytest.mark.parametrize("style", ["orders", "ties", "shaped"])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_random_instances(self, monkeypatch, rng, style, blocks):
        if blocks:
            # tiny blocks spread each round's columns over many blocks
            _set_blocks(monkeypatch, blocks)
        solved = 0
        for trial in range(48):
            n = int(rng.choice([2, 7, 40, 300, 2000]))
            inst = _instance(rng, n, "uniform")
            eps = EPSILONS[(trial // 4) % 5]
            lower = (None, eps / 2, eps)[(trial // 8) % 3] if eps else None
            spec = FairnessSpec(METRICS[trial % 4], eps, lower)
            solved += _assert_same_each(monkeypatch, inst, spec, _vectors(rng, n, style))
        assert solved > 15

    def test_min_confidence_clamp_ties_what_k_one_orders(self, monkeypatch, rng):
        inst = _instance(rng, 3000, "uniform")
        vectors = _vectors(rng, 3000, "shaped")
        clamped = vectors[-1] == MIN_CONFIDENCE
        assert np.unique(vectors[0][clamped]).size > 1
        for metric in METRICS:
            assert _assert_same_each(monkeypatch, inst, FairnessSpec(metric, 0.01), vectors)

    def test_both_eodds_carriers(self, monkeypatch, rng):
        """Either slice can carry the corrector's EOdds lower bound: the cell
        its carrier solve found is then the result's flips in that slice."""
        corrected = set()
        for trial in range(60):
            n = int(rng.integers(20, 300))
            inst = _instance(rng, n, "uniform")
            eps = (0.05, 0.1, 0.2)[trial % 3]
            spec = FairnessSpec(FairnessMetric.EODDS, eps, eps * rng.uniform(0.5, 1.0))
            vectors = _vectors(rng, n, ("orders", "ties", "shaped")[trial % 3])
            results, lattices, _, carried = _eodds_solves(monkeypatch, inst, spec, vectors)
            for i, rows, cells in carried if results else ():
                for r, cell in zip(rows, cells or ()):
                    assert (cell.lattice, cell.r) == (lattices[i], r)
                    # slice i holds the rows of label i
                    kept = np.intersect1d(results[r].changed_indices, np.flatnonzero(inst.labels == i))
                    if np.array_equal(kept, corrector._flipped_rows([cell])):
                        corrected.add(i)
            _assert_same_each(monkeypatch, inst, spec, vectors)
        assert {0, 1} <= corrected

    def test_carrier_ties_go_to_the_first_slice(self):
        # two mirrored slices at gap zero: one flip in either carries the
        # bound at the same cost, and the y = 0 slice is the one that does
        inst = AttackInstance([1, 1, 0, 0] * 2, [0] * 4 + [1] * 4, [1, 0, 1, 0] * 2, [1.0] * 8)
        spec = FairnessSpec(FairnessMetric.EODDS, 1.0, 0.5)
        results = solve_each(inst, spec, [inst.confidence, np.full(8, 0.5)])
        assert [result.changed_indices.tolist() for result in results] == [[0], [0]]

    def test_infeasible_raises_once(self, monkeypatch, rng):
        calls = []
        real = corrector._solve_sp_form

        def counting(lattice, rows, epsilon, lower):
            calls.append(len(rows))
            return real(lattice, rows, epsilon, lower)

        monkeypatch.setattr(corrector, "_solve_sp_form", counting)
        # constant predictions leave every gap at zero, below any lower bound
        n = 50
        yhat = np.zeros(n, dtype=int)
        inst = AttackInstance(yhat, rng.integers(0, 2, n), rng.integers(0, 2, n), rng.random(n))
        vectors = _vectors(rng, n, "shaped")
        for metric in METRICS:
            spec = FairnessSpec(metric, 0.1, 0.05)
            assert not _assert_same_each(monkeypatch, inst, spec, vectors)
            solves = []
            for batch in (vectors[:1], vectors):
                calls.clear()
                with pytest.raises(Infeasible):
                    solve_each(inst, spec, batch)
                solves.append(len(calls))
                # each slice is solved once, for every vector of the batch
                assert set(calls) == {len(batch)}
            # the batch raises where its first vector alone does
            assert solves[0] == solves[1] > 0
        # groups of sizes 1 and 2 cannot both hold exactly a third positives
        odd = AttackInstance([1, 0, 0], [0, 0, 0], [1, 0, 0], [0.5, 0.5, 0.5])
        spec = FairnessSpec(FairnessMetric.SP, 0.0)
        assert not _assert_same_each(monkeypatch, odd, spec, [np.ones(3), np.arange(3.0)])

    def test_window_pieces_are_computed_once(self, monkeypatch, rng):
        inst = _instance(rng, 2000, "uniform")
        spec = FairnessSpec(FairnessMetric.SP, 0.001)
        # every search through the column bound, so that one vector and six
        # take the same path
        monkeypatch.setattr(corrector, "_SMALL", 0)
        windows = []
        real = corrector._floor_affine
        monkeypatch.setattr(
            corrector, "_floor_affine", lambda *args: windows.append(1) or real(*args)
        )
        (alone,) = solve_each(inst, spec, [inst.confidence])
        once = len(windows)
        assert alone.stats.nodes > 0
        repeated = solve_each(inst, spec, [inst.confidence] * 6)
        assert len(windows) == 2 * once
        for result in repeated:
            _assert_same_result(result, alone)

        # vectors that order the columns each their own way: no column's
        # window is computed twice in a search, the batch takes no more
        # columns than its vectors alone together, fewer than the columns no
        # dearer than the best cell, which the stats count; and in blocks
        # that hold a whole round, no more blocks than its slowest vector
        searches = _spied_blocks(monkeypatch)
        for block in (64, 1024, 1 << 15):
            monkeypatch.setattr(corrector, "_MAX_BLOCK", block)
            vectors = _vectors(rng, 2000, "orders")[:3] + _cheap_sides(rng, inst.guess)
            searches.clear()
            results = solve_each(inst, spec, vectors)
            for vector in vectors:
                solve_each(inst, spec, [vector])
            (batch, *each) = [[columns for _, columns in blocks] for blocks in searches]
            columns = sum(batch, [])
            assert len(set(columns)) == len(columns)
            if block == 1 << 15:
                assert len(batch) <= max(len(blocks) for blocks in each)
            assert len(columns) <= sum(len(sum(blocks, [])) for blocks in each)
            assert len(columns) < min(result.stats.nodes for result in results)
            assert _assert_same_each(monkeypatch, inst, spec, vectors)

    def test_batch_windows_stay_within_one_block(self, monkeypatch, rng):
        # six vectors share each block's windows and costs, so that vectors
        # times columns stay within _MAX_BLOCK
        monkeypatch.setattr(corrector, "_MAX_BLOCK", 32)
        searches = _spied_blocks(monkeypatch)
        n = 3000
        # a guess that mostly copies the predictions takes many columns to
        # correct
        yhat = rng.integers(0, 2, n)
        guess = np.where(rng.random(n) < 0.8, yhat, 1 - yhat)
        inst = AttackInstance(yhat, rng.integers(0, 2, n), guess, rng.random(n))
        vectors = _cheap_sides(rng, guess) + _vectors(rng, n, "orders")[:3]
        vectors.append(_vectors(rng, n, "shaped")[-1])
        for metric in METRICS:
            searches.clear()
            assert _assert_same_each(monkeypatch, inst, FairnessSpec(metric, 0.001), vectors)
            sizes = [n * len(columns) for blocks in searches for n, columns in blocks]
            assert max(sizes) <= 32 and len(sizes) > 5

    def test_carrier_searches_only_the_lanes_that_miss_the_bound(self, monkeypatch, rng):
        """The corrector re-solves with the lower bound, once per slice,
        exactly the vectors whose upper-only gaps miss it; some batches mix
        both kinds."""
        mixed = []
        for trial in range(60):
            n = int(rng.integers(50, 400))
            inst = _instance(rng, n, "uniform")
            eps = (0.05, 0.1, 0.2)[trial % 3]
            spec = FairnessSpec(FairnessMetric.EODDS, eps, 0.9 * eps)
            vectors = _vectors(rng, n, ("orders", "ties", "shaped")[trial % 3])
            _, lattices, upper, carried = _eodds_solves(monkeypatch, inst, spec, vectors)
            if len(lattices) == 2:
                # vectors that solved both slices upper-only
                solved = [] if any(cells is None for *_, cells in upper) else range(len(vectors))

                def gap(i, r):
                    cell, idx = upper[i][2][r], np.flatnonzero(inst.labels == i)
                    guess = np.array(inst.guess)
                    changed = corrector._flipped_rows([cell])
                    guess[changed] = 1 - guess[changed]
                    return unfairness_exact(SP, guess[idx], inst.predictions[idx])

                assert [i for i, *_ in upper] == [0, 1]
                lower = Fraction(spec.epsilon_lower)
                missed = [r for r in solved if max(gap(0, r), gap(1, r)) < lower]
                assert [(i, rows) for i, rows, _ in carried] == (
                    [(0, missed), (1, missed)] if missed else []
                )
                mixed.append(0 < len(missed) < len(solved))
            _assert_same_each(monkeypatch, inst, spec, vectors)
        assert sum(mixed) > 2

    def test_inputs(self, rng):
        # the solve reads the vectors it is given, not the instance's own
        inst = _instance(rng, 40, "uniform")
        spec = FairnessSpec(FairnessMetric.SP, 0.01)
        other = AttackInstance(inst.predictions, inst.labels, inst.guess, rng.random(40))
        (mine,) = solve_each(other, spec, [inst.confidence])
        _assert_same_result(mine, correct(inst, spec))


class TestRepairCrossCheck:
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_random_predictions(self, monkeypatch, rng, blocks):
        if blocks:
            _set_blocks(monkeypatch, blocks)
        flipped = 0
        for trial in range(160):
            n = int(rng.choice([3, 20, 200, 3000]))
            yhat = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
            margins = rng.random(n) if trial % 2 else rng.integers(0, 3, n) / 4.0
            sensitive = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
            labels = rng.integers(0, 2, n)
            spec = FairnessSpec(METRICS[trial % 4], EPSILONS[(trial // 4) % 5])
            flipped += _assert_same_repair(monkeypatch, yhat, margins, sensitive, labels, spec)
        assert flipped > 60

    def test_dyadic_bounds_met_with_equality(self, monkeypatch, rng):
        flipped = 0
        for trial in range(240):
            n = int(rng.choice([4, 8, 16, 64, 512]))
            yhat = np.tile(rng.integers(0, 2, 4), n // 4)
            sensitive = np.repeat(rng.integers(0, 2, n // 4), 4)
            margins = np.ones(n) if trial % 2 else rng.integers(1, 3, n) / 2.0
            spec = FairnessSpec(METRICS[(trial // 12) % 4], (0.5, 0.25, 0.125)[trial % 3])
            flipped += _assert_same_repair(
                monkeypatch, yhat, margins, sensitive, rng.integers(0, 2, n), spec
            )
        assert flipped > 5

    def test_large_repair(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 100_000
        yhat = (rng.random(n) < 0.4).astype(np.int64)
        sensitive = (rng.random(n) < 0.3).astype(np.int64)
        yhat[sensitive == 1] = (rng.random(int(sensitive.sum())) < 0.6).astype(np.int64)
        margins = rng.random(n)
        labels = rng.integers(0, 2, n)
        for metric, eps in (
            (FairnessMetric.SP, 0.01),
            (FairnessMetric.EODDS, 0.001),
            (FairnessMetric.EODDS, 0.01),
            (FairnessMetric.EO, 1 / 3),
        ):
            _assert_same_repair(
                monkeypatch, yhat, margins, sensitive, labels, FairnessSpec(metric, eps)
            )


def _scalar_repair(yhat, margins, sensitive, labels, metric, epsilon):
    """One tolerance's repair by the scalar reference, slice by slice."""
    repaired = np.array(yhat)
    for idx in slice_for_metric(metric, labels):
        if idx.size:
            repaired[idx] = scalar_sweep.repair_slice(yhat, margins, sensitive, idx, epsilon).yhat
    return repaired


class TestBatchedRepair:
    """``RepairState.solve`` searches each slice once for a whole grid; each
    tolerance must come out as the scalar reference repairs it alone."""

    # zero, one, repeats and no order
    GRIDS = ((0.0, 0.2, 0.05, 0.2, 1.0, 0.001, 1 / 3, 0.05), (1.0, 0.05, 0.0, 0.05))

    @staticmethod
    def _inputs(rng, n, trial):
        sensitive = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
        rates = rng.uniform(0.1, 0.9, 2)[sensitive]
        yhat = (rng.random(n) < rates).astype(np.int64)
        margins = rng.random(n) if trial % 2 else rng.integers(0, 3, n) / 4.0
        return yhat, margins, sensitive, rng.integers(0, 2, n)

    @staticmethod
    def _check(yhat, margins, sensitive, labels, metric, grid):
        """Compare a batch with the reference, tolerance by tolerance."""
        state = RepairState(yhat, margins, sensitive, labels, metric)
        batch = state.solve(grid)
        assert len(batch) == len(grid)
        for epsilon, repair in zip(grid, batch):
            ref = _scalar_repair(yhat, margins, sensitive, labels, metric, Fraction(epsilon))
            assert np.array_equal(state.apply(repair), ref)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_each_tolerance_matches_the_scalar_reference(self, monkeypatch, rng, blocks):
        if blocks:
            _set_blocks(monkeypatch, blocks)
        for trial in range(64):
            n = int(rng.choice([3, 20, 200, 2000]))
            inputs = self._inputs(rng, n, trial)
            self._check(*inputs, METRICS[trial % 4], self.GRIDS[(trial // 4) % 2])

    def test_batch_windows_stay_within_one_block(self, monkeypatch, rng):
        # a block is cut short while many tolerances remain, so that no
        # window array holds more than _MAX_BLOCK bounds times columns
        monkeypatch.setattr(corrector, "_MAX_BLOCK", 64)
        searches = _spied_blocks(monkeypatch)
        n = 3000
        yhat, margins, sensitive, labels = self._inputs(rng, n, 1)
        grid = [0.0] + list(np.geomspace(0.001, 0.2, 24))
        state = RepairState(yhat, margins, sensitive, labels, FairnessMetric.SP)
        batch = state.solve(grid)
        sizes = [n * len(columns) for blocks in searches for n, columns in blocks]
        assert max(sizes) <= 64 and len(sizes) > 10
        for epsilon, repair in zip(grid, batch):
            alone = state.apply(state.solve([epsilon])[0])
            assert np.array_equal(state.apply(repair), alone)

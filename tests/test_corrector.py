import numpy as np
import pytest

from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec, satisfies
from fairleak.adversary import MIN_CONFIDENCE
from fairleak.corrector import (
    MoveCounts,
    _Lattice,
    _sorted_groups,
    correct,
    correct_each,
    solve_general_bruteforce,
)
from fairleak.errors import (
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


def _lattice(x, z, costs):
    return _Lattice(
        np.asarray(x, dtype=np.int64),
        np.asarray(z, dtype=np.int64),
        np.atleast_2d(np.asarray(costs, dtype=np.float64)),
    )


def _sizes(lattice):
    """Cell sizes in the order (x=1, z=1), (x=0, z=1), (x=1, z=0), (x=0, z=0)."""
    col, row = lattice.sides([0])
    return (col.neg.size - 1, col.pos.size - 1, row.neg.size - 1, row.pos.size - 1)


class TestSortedGroup:
    """The default argsort plus the tie-run fix must give the stable order."""

    @staticmethod
    def _stable(conf, mask):
        idx = np.flatnonzero(mask)
        order = idx[np.argsort(conf[idx], kind="stable")]
        return np.concatenate(([0.0], np.cumsum(conf[order]))), order

    def _check(self, conf, mask):
        totals, order = _sorted_groups(conf[None], mask)
        want_totals, want_order = self._stable(conf, mask)
        assert order[0].tolist() == want_order.tolist()
        assert totals[0].tobytes() == want_totals.tobytes()

    def test_matches_the_stable_argsort(self, rng):
        for trial in range(600):
            n = int(rng.choice([2, 7, 50, 400, 5000]))
            style = trial % 4
            if style == 0:
                conf = rng.random(n)
            elif style == 1:
                conf = np.round(rng.random(n), 2)
            elif style == 2:
                conf = rng.choice([0.0, -0.0, MIN_CONFIDENCE, 0.25, 1.0], n)
            else:
                # shaped scores: a high power clamps many entries to the floor
                conf = np.maximum(rng.random(n) ** 40, MIN_CONFIDENCE)
            self._check(conf, rng.random(n) < rng.uniform(0.2, 1.0))

    def test_signed_zeros_tie_in_index_order(self):
        conf = np.array([0.0, -0.0, 0.5, -0.0, 0.0, 0.0, -0.0])
        self._check(conf, np.ones(conf.size, dtype=bool))
        _, order = _sorted_groups(conf[None], np.ones(conf.size, dtype=bool))
        assert order[0].tolist() == [0, 1, 3, 4, 5, 6, 2]

    def test_empty_and_single(self):
        for conf in (np.zeros(0), np.array([0.3])):
            self._check(conf, np.ones(conf.size, dtype=bool))
        self._check(np.array([0.3, 0.3]), np.array([False, False]))
        self._check(np.array([0.3, 0.3]), np.array([False, True]))


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
    """A lattice's sides are prefix sums of each cell's ascending costs."""

    def test_sort_and_cumulate(self):
        lattice = _lattice([1, 1, 1], [1, 1, 1], [0.9, 0.2, 0.5])
        col, _ = lattice.sides([0])
        assert col.neg[0].tolist() == pytest.approx([0.0, 0.2, 0.7, 1.6])
        _, down = lattice.cells[1]
        assert down[0].tolist() == [1, 2, 0]

    def test_empty_group(self):
        _, row = _lattice([1], [1], [0.3]).sides([0])
        assert row.pos.tolist() == [[0.0]]

    def test_uniform_weights_count_moves(self):
        col, _ = _lattice([0, 0], [1, 1], [1.0, 1.0]).sides([0])
        assert col.pos.tolist() == [[0.0, 1.0, 2.0]]

    def test_negative_confidence(self):
        inst = AttackInstance([1], [0], [1], [1.0])
        with pytest.raises(NegativeConfidence):
            correct_each(inst, FairnessSpec(SP, 0.1), [[-0.5]])

    def test_increments_non_decreasing(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 30))
            lattice = _lattice(rng.integers(0, 2, n), rng.integers(0, 2, n), rng.random((3, n)))
            for side in lattice.sides([0, 1, 2]):
                for r in range(3):
                    for arr in (side.pos[r], side.neg[r]):
                        assert arr[0] == 0.0
                        steps = np.diff(arr)
                        assert np.all(np.diff(steps) >= -1e-12)

    def test_rows_sort_independently(self):
        lattice = _lattice([1, 1, 1], [1, 1, 1], [[0.9, 0.2, 0.5], [0.1, 0.3, 0.2]])
        assert lattice.cells[1][1].tolist() == [[1, 2, 0], [0, 2, 1]]
        assert lattice.sides([0, 1])[0].neg[1].tolist() == pytest.approx([0.0, 0.1, 0.3, 0.6])
        # a subset of the rows, in order
        (neg,) = lattice.sides([1])[0].neg
        assert neg.tolist() == pytest.approx([0.0, 0.1, 0.3, 0.6])


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
        corrected = _lattice([1, 0, 1], [1, 1, 0], [0.5, 0.5, 0.5]).flip(0, 0, 0)
        assert corrected.tolist() == [1, 0, 1]

    def test_flips_cheapest_members(self):
        lattice = _lattice([1, 1, 0, 0], [1, 1, 0, 0], [0.1, 1, 1, 0.2])
        assert lattice.flip(0, -1, 1).tolist() == [0, 1, 0, 1]

    def test_tie_breaks_on_lowest_index(self):
        x = [0, 0, 1, 0, 0, 1]
        lattice = _lattice(x, x, [9, 9, 1.0, 9, 9, 1.0])
        assert lattice.flip(0, -1, 0).tolist() == [0, 0, 0, 0, 0, 1]
        x = [1, 0, 1, 0, 0, 1]
        lattice = _lattice(x, x, [1, 9, 1, 9, 9, 1])
        assert lattice.flip(0, -2, 0).tolist() == [0, 0, 0, 0, 0, 1]

    def test_flipped_cost_matches_objective(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 20))
            x = rng.integers(0, 2, n)
            costs = rng.random((2, n))
            lattice = _lattice(x, rng.integers(0, 2, n), costs)
            r = int(rng.integers(0, 2))
            col, row = lattice.sides([0, 1])
            u = int(rng.integers(col.lo, col.hi + 1))
            v = int(rng.integers(row.lo, row.hi + 1))
            changed = np.flatnonzero(lattice.flip(r, u, v) != x)
            assert changed.size == abs(u) + abs(v)
            assert costs[r, changed].sum() == pytest.approx(col.at(r, u) + row.at(r, v), abs=1e-9)


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
            assert satisfies(spec, res.corrected, inst.predictions, inst.labels)
        assert solved > 10

    def test_flip_count_identity(self):
        inst = AttackInstance(
            [1, 1, 0, 0, 1, 0], [0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0], [0.5] * 6
        )
        res = correct(inst, FairnessSpec(SP, 0.0))
        assert len(res.changed_indices) == res.moves.total

    def test_multivalued_guess_rejected(self):
        inst = AttackInstance([1, 0, 1], [0, 0, 0], [0, 1, 2], [1, 1, 1], cardinality=3)
        with pytest.raises(UnsupportedCardinality, match="binary guesses"):
            correct(inst, FairnessSpec(SP, 0.5))
        with pytest.raises(UnsupportedCardinality, match="binary guesses"):
            correct_each(inst, FairnessSpec(SP, 0.5), [[1, 1, 1], [0.5, 1, 2]])

    def test_epsilon_lower_forces_unfairness(self):
        # a perfectly balanced guess must become measurably unfair
        inst = AttackInstance(
            [1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 0, 0], [1.0, 1.0, 1.0, 1.0]
        )
        spec = FairnessSpec(SP, 1.0, epsilon_lower=0.4)
        res = correct(inst, spec)
        assert satisfies(spec, res.corrected, inst.predictions, inst.labels)
        assert res.objective > 0


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
            solve_general_bruteforce(inst, FairnessSpec(SP, 0.5), budget=2**20)

    def test_infeasible_single_example(self):
        inst = AttackInstance([1], [0], [1], [1.0])
        with pytest.raises(Infeasible):
            solve_general_bruteforce(inst, FairnessSpec(SP, 0.0))

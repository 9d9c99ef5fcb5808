import numpy as np
import pytest

from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec, satisfies
from fairleak.adversary import MIN_CONFIDENCE
from fairleak.corrector import (
    GroupTallies,
    _sorted_group,
    MoveCounts,
    apply_moves,
    build_cost_arrays,
    correct,
    move_cost,
    solve_efficient,
    solve_general_bruteforce,
    tally_groups,
)
from fairleak.errors import (
    BudgetExceeded,
    Infeasible,
    InvalidTallies,
    LengthMismatch,
    MoveOutOfBounds,
    NegativeConfidence,
)

SP, PE, EO, EODDS = (
    FairnessMetric.SP,
    FairnessMetric.PE,
    FairnessMetric.EO,
    FairnessMetric.EODDS,
)


class TestSortedGroup:
    """The default argsort plus the tie-run fix must give the stable order."""

    @staticmethod
    def _stable(conf, mask):
        idx = np.flatnonzero(mask)
        order = idx[np.argsort(conf[idx], kind="stable")]
        return np.concatenate(([0.0], np.cumsum(conf[order]))), order

    def _check(self, conf, mask):
        totals, order = _sorted_group(conf, mask)
        want_totals, want_order = self._stable(conf, mask)
        assert order.tolist() == want_order.tolist()
        assert totals.tobytes() == want_totals.tobytes()

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
        _, order = _sorted_group(conf, np.ones(conf.size, dtype=bool))
        assert order.tolist() == [0, 1, 3, 4, 5, 6, 2]

    def test_empty_and_single(self):
        for conf in (np.zeros(0), np.array([0.3])):
            self._check(conf, np.ones(conf.size, dtype=bool))
        self._check(np.array([0.3, 0.3]), np.array([False, False]))
        self._check(np.array([0.3, 0.3]), np.array([False, True]))


class TestTallyGroups:
    def test_hand_count(self):
        assert tally_groups([1, 1, 0, 0], [1, 0, 1, 0]) == GroupTallies(1, 1, 1, 1)

    def test_empty(self):
        assert tally_groups([], []) == GroupTallies(0, 0, 0, 0)

    def test_single_group(self):
        assert tally_groups([1, 1], [1, 1]) == GroupTallies(2, 0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            tally_groups([1], [1, 0])


class TestBuildCostArrays:
    def test_sort_and_cumulate(self):
        costs = build_cost_arrays([1, 1, 1], [1, 1, 1], [0.9, 0.2, 0.5])
        assert costs.t1_pos.tolist() == pytest.approx([0.0, 0.2, 0.7, 1.6])
        assert costs.order_1_pos.tolist() == [1, 2, 0]

    def test_empty_group(self):
        costs = build_cost_arrays([1], [1], [0.3])
        assert costs.t0_neg.tolist() == [0.0]

    def test_uniform_weights_count_moves(self):
        costs = build_cost_arrays([0, 0], [1, 1], [1.0, 1.0])
        assert costs.t0_pos.tolist() == [0.0, 1.0, 2.0]

    def test_negative_confidence(self):
        with pytest.raises(NegativeConfidence):
            build_cost_arrays([1], [1], [-0.5])

    def test_increments_non_decreasing(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 30))
            costs = build_cost_arrays(
                rng.integers(0, 2, n), rng.integers(0, 2, n), rng.random(n)
            )
            for arr in (costs.t1_pos, costs.t0_pos, costs.t1_neg, costs.t0_neg):
                steps = np.diff(arr)
                assert np.all(np.diff(steps) >= -1e-12)


class TestSolveEfficient:
    def _setup(self, guess, yhat, conf):
        tallies = tally_groups(guess, yhat)
        costs = build_cost_arrays(guess, yhat, conf)
        return tallies, costs

    def test_unit_costs(self):
        tallies, costs = self._setup([1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1])
        moves = solve_efficient(tallies, costs, 2, 4, FairnessSpec(SP, 0.1))
        assert moves == MoveCounts(s01_pos=0, s10_pos=1, s01_neg=1, s10_neg=0)
        assert move_cost(costs, moves) == pytest.approx(2.0)

    def test_loose_tolerance_is_noop(self):
        tallies, costs = self._setup([1, 1, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1])
        moves = solve_efficient(tallies, costs, 2, 4, FairnessSpec(SP, 0.5))
        assert moves == MoveCounts(0, 0, 0, 0)

    def test_weighted_costs(self):
        tallies, costs = self._setup([1, 1, 0, 0], [1, 1, 0, 0], [0.1, 1, 1, 0.2])
        moves = solve_efficient(tallies, costs, 2, 4, FairnessSpec(SP, 0.1))
        assert moves == MoveCounts(0, 1, 1, 0)
        assert move_cost(costs, moves) == pytest.approx(0.3)

    def test_single_example_infeasible(self):
        tallies, costs = self._setup([1], [1], [1.0])
        with pytest.raises(Infeasible):
            solve_efficient(tallies, costs, 1, 1, FairnessSpec(SP, 0.0))

    def test_rejects_non_sp_spec(self):
        tallies, costs = self._setup([1, 0], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError):
            solve_efficient(tallies, costs, 1, 2, FairnessSpec(PE, 0.1))

    def test_inconsistent_tallies(self):
        tallies, costs = self._setup([1, 0], [1, 0], [1.0, 1.0])
        with pytest.raises(InvalidTallies):
            solve_efficient(tallies, costs, 1, 3, FairnessSpec(SP, 0.1))
        with pytest.raises(InvalidTallies):
            solve_efficient(GroupTallies(2, 0, 0, 0), costs, 2, 2, FairnessSpec(SP, 0.1))


class TestApplyMoves:
    def test_all_zero_is_identity(self):
        corrected, changed = apply_moves(
            [1, 0, 1], [1, 1, 0], [0.5, 0.5, 0.5], MoveCounts(0, 0, 0, 0)
        )
        assert corrected.tolist() == [1, 0, 1]
        assert changed == ()

    def test_flips_cheapest_members(self):
        corrected, changed = apply_moves(
            [1, 1, 0, 0], [1, 1, 0, 0], [0.1, 1, 1, 0.2], MoveCounts(0, 1, 1, 0)
        )
        assert corrected.tolist() == [0, 1, 0, 1]
        assert changed == (0, 3)

    def test_tie_breaks_on_lowest_index(self):
        guess = [0, 0, 1, 0, 0, 1]
        yhat = [0, 0, 1, 0, 0, 1]
        conf = [9, 9, 1.0, 9, 9, 1.0]
        corrected, changed = apply_moves(guess, yhat, conf, MoveCounts(0, 1, 0, 0))
        assert changed == (2,)
        corrected, changed = apply_moves(
            [1, 0, 1, 0, 0, 1], [1, 0, 1, 0, 0, 1], [1, 9, 1, 9, 9, 1], MoveCounts(0, 2, 0, 0)
        )
        assert changed == (0, 2)

    def test_out_of_bounds(self):
        with pytest.raises(MoveOutOfBounds):
            apply_moves([1], [1], [1.0], MoveCounts(0, 2, 0, 0))

    def test_flipped_cost_matches_objective(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 20))
            guess = rng.integers(0, 2, n)
            yhat = rng.integers(0, 2, n)
            conf = rng.random(n)
            tallies = tally_groups(guess, yhat)
            costs = build_cost_arrays(guess, yhat, conf)
            moves = MoveCounts(
                int(rng.integers(0, tallies.n0_pos + 1)),
                int(rng.integers(0, tallies.n1_pos + 1)),
                int(rng.integers(0, tallies.n0_neg + 1)),
                int(rng.integers(0, tallies.n1_neg + 1)),
            )
            corrected, changed = apply_moves(guess, yhat, conf, moves)
            assert len(changed) == moves.total
            assert conf[list(changed)].sum() == pytest.approx(
                move_cost(costs, moves), abs=1e-9
            )


class TestCorrect:
    def test_loose_spec_returns_guess(self):
        inst = AttackInstance([1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [1, 1, 1, 1])
        res = correct(inst, FairnessSpec(SP, 1.0))
        assert res.corrected.tolist() == [1, 1, 0, 0]
        assert res.objective == 0.0
        assert res.stats.proven_optimal

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
        with pytest.raises(ValueError):
            correct(inst, FairnessSpec(SP, 0.5))

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

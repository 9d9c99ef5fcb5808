"""Exact solvers for minimum confidence-weighted guess correction.

Two routes are provided.  ``correct`` runs the efficient path: the group-rate
constraint only depends on the *net* number of guess flips among positively
and among negatively predicted examples, so the search collapses onto a 2-D
integer lattice whose per-axis costs are prefix sums of ascending-sorted
confidences.  ``search_net_moves`` sweeps that lattice in numpy, taking
columns cheapest first in blocks of doubling size.  For a whole block at
once, the feasible rows of each column form at most two integer intervals,
and the cheapest row of each is the one nearest zero.  Every interval end is
an exact floor((A + u*B)/D), computed by ``_floor_affine`` without rounding
error.  The sweep stops once a block's cheapest column costs more than the
best cell found, which proves optimality.  The prediction repair of the
simulated fair target rides the same sweep.

``solve_general_bruteforce`` enumerates every assignment on the active slice
and is the correctness oracle as well as the only multi-valued solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

import numpy as np

from .core import (
    AttackInstance,
    FairnessMetric,
    FairnessSpec,
    as_binary_array,
    as_confidence_array,
    slice_for_metric,
    unfairness_exact,
)
from .errors import (
    BudgetExceeded,
    Infeasible,
    InvalidTallies,
    LengthMismatch,
    MoveOutOfBounds,
)

DEFAULT_BRUTEFORCE_BUDGET = 2**20
_Solution = TypeVar("_Solution")


@dataclass(frozen=True)
class GroupTallies:
    """Cardinalities of the four (guess value x prediction) example groups."""

    n1_pos: int
    n0_pos: int
    n1_neg: int
    n0_neg: int

    @property
    def n(self) -> int:
        return self.n1_pos + self.n0_pos + self.n1_neg + self.n0_neg

    @property
    def total_positive(self) -> int:
        return self.n1_pos + self.n0_pos


@dataclass(frozen=True, eq=False)
class CostArrays:
    """Sorted-and-cumulated confidence costs per move group.

    ``t_X[i]`` is the minimum cost of flipping ``i`` members of group ``X``;
    each array starts at 0 and its increments are non-decreasing.  The
    ``order_X`` companions hold the original indices sorted by ascending
    confidence with ascending index as tie-breaker.
    """

    t1_pos: np.ndarray
    t0_pos: np.ndarray
    t1_neg: np.ndarray
    t0_neg: np.ndarray
    order_1_pos: np.ndarray
    order_0_pos: np.ndarray
    order_1_neg: np.ndarray
    order_0_neg: np.ndarray


@dataclass(frozen=True)
class MoveCounts:
    """The four decision variables: guess flips per (direction x prediction)."""

    s01_pos: int
    s10_pos: int
    s01_neg: int
    s10_neg: int

    @property
    def total(self) -> int:
        return self.s01_pos + self.s10_pos + self.s01_neg + self.s10_neg

    def __add__(self, other: "MoveCounts") -> "MoveCounts":
        return MoveCounts(
            self.s01_pos + other.s01_pos,
            self.s10_pos + other.s10_pos,
            self.s01_neg + other.s01_neg,
            self.s10_neg + other.s10_neg,
        )


@dataclass(frozen=True)
class SolverStats:
    nodes: int
    wall_time: float
    proven_optimal: bool


@dataclass(frozen=True, eq=False)
class CorrectionResult:
    """A corrected sensitive vector with its cost and solve diagnostics."""

    corrected: np.ndarray
    objective: float
    moves: "MoveCounts | dict[tuple[int, int], int]"
    changed_indices: tuple[int, ...]
    stats: SolverStats


def tally_groups(guess: Sequence[int], yhat: Sequence[int]) -> GroupTallies:
    """Count the four (guess value x prediction) groups."""
    g = as_binary_array(guess, "guess")
    yh = as_binary_array(yhat, "predictions")
    if g.size != yh.size:
        raise LengthMismatch("guess and predictions differ in length")
    gb = g.astype(bool)
    yb = yh.astype(bool)
    return GroupTallies(
        n1_pos=int(np.count_nonzero(gb & yb)),
        n0_pos=int(np.count_nonzero(~gb & yb)),
        n1_neg=int(np.count_nonzero(gb & ~yb)),
        n0_neg=int(np.count_nonzero(~gb & ~yb)),
    )


def _sorted_group(conf: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of the masked confidences in ascending order, and that
    order as indices, ties broken by ascending index.

    The default (unstable, vectorised) argsort leaves each run of equal
    values contiguous; one int64 sort of run * m + position over the tied
    entries then puts every run in index order, which is the stable order.
    """
    idx = np.flatnonzero(mask)
    values = conf[idx]
    order = np.argsort(values)
    ranked = values[order]
    same = ranked[1:] == ranked[:-1]
    if same.any():
        tied = np.zeros(ranked.size, dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        run = np.cumsum(~np.concatenate(([False], same)))
        order[tied] = np.sort(run[tied] * ranked.size + order[tied]) % ranked.size
        ranked = values[order]
    return np.concatenate(([0.0], np.cumsum(ranked))), idx[order]


def build_cost_arrays(
    guess: Sequence[int], yhat: Sequence[int], confidence: Sequence[float]
) -> CostArrays:
    """Prefix sums of each group's ascending-sorted confidences."""
    g = as_binary_array(guess, "guess")
    yh = as_binary_array(yhat, "predictions")
    p = as_confidence_array(confidence)
    if not g.size == yh.size == p.size:
        raise LengthMismatch("guess, predictions and confidence differ in length")
    gb = g.astype(bool)
    yb = yh.astype(bool)
    t1p, o1p = _sorted_group(p, gb & yb)
    t0p, o0p = _sorted_group(p, ~gb & yb)
    t1n, o1n = _sorted_group(p, gb & ~yb)
    t0n, o0n = _sorted_group(p, ~gb & ~yb)
    return CostArrays(t1p, t0p, t1n, t0n, o1p, o0p, o1n, o0n)


def move_cost(costs: CostArrays, moves: MoveCounts) -> float:
    """Objective value of a move assignment under the given cost arrays."""
    try:
        return float(
            costs.t0_pos[moves.s01_pos]
            + costs.t1_pos[moves.s10_pos]
            + costs.t0_neg[moves.s01_neg]
            + costs.t1_neg[moves.s10_neg]
        )
    except IndexError as exc:
        raise MoveOutOfBounds("move count exceeds its group size") from exc


#: Columns in the sweep's first block; each later block doubles, up to the cap.
_FIRST_BLOCK = 512
_MAX_BLOCK = 1 << 15
#: Float screen of a fractional part: bound on its rounding error for any
#: |u| below 1e8, so only values this close to an integer are rechecked.
_NEAR = 1e-7


def _floor_affine(a: int, b: int, d: int, u: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Exact ``clip(floor((a + b*u) / d), lo, hi)`` for an int64 array ``u``
    and Python ints ``a``, ``b`` and ``d > 0`` of any size.

    The integer quotients of a/d and b/d are split off.  The remainder
    (ra + rb*u)/d is computed in int64 when it fits; otherwise it is screened
    in float64 and only entries within ``_NEAR`` of an integer are rechecked
    with Python ints (``Fraction(0.01)`` alone has a 2**59 denominator).
    """
    qa, ra = divmod(a, d)
    qb, rb = divmod(b, d)
    g = math.gcd(rb, d)
    ra, rb, d = ra // g, rb // g, d // g
    span = int(np.abs(u).max(initial=0)) + 1
    if d * span < 2**62:
        whole = (ra + rb * u) // d
    else:
        frac = ra / d + u * (rb / d)
        whole = np.floor(frac).astype(np.int64)
        near = np.flatnonzero(np.abs(frac - np.rint(frac)) < _NEAR)
        if near.size:
            whole[near] = (u[near].astype(object) * rb + ra) // d
    if abs(qa) + abs(qb) * span < 2**62:
        return np.minimum(np.maximum(qa + qb * u + whole, lo), hi)
    return np.clip(u.astype(object) * qb + qa + whole, lo, hi).astype(np.int64)


@dataclass(frozen=True, eq=False)
class _SideCosts:
    """V-shaped cost of a signed move count, held as two prefix arrays."""

    pos: np.ndarray
    neg: np.ndarray

    @property
    def lo(self) -> int:
        return -(self.neg.size - 1)

    @property
    def hi(self) -> int:
        return self.pos.size - 1


#: window(u, num, den, strict) -> (lo, hi): for each column u, the rows v at
#: which every group gap is at most num/den (strictly below it when
#: ``strict``); a column whose lo exceeds its hi has no such row.
WindowFn = Callable[[np.ndarray, int, int, bool], tuple[np.ndarray, np.ndarray]]


def search_net_moves(
    col: _SideCosts,
    row: _SideCosts,
    window: WindowFn,
    epsilon: Fraction,
    lower: Fraction | None,
) -> tuple[tuple[int, int] | None, int]:
    """Cheapest (column, row) cell whose gaps are within ``epsilon`` and, when
    ``lower`` is positive, not all strictly below it; with the number of
    columns scanned.

    A feasible (0, 0) returns at once with no column scanned.  Otherwise
    columns are taken cheapest first in blocks of doubling size, and the scan
    stops once a block's cheapest column costs more than the best cell so
    far.  Row costs are V-shaped with minimum zero, so each feasible interval
    offers its row nearest zero.  Ties on cost break on fewest total moves,
    then on the (column, row) pair, keeping the result deterministic and
    invariant under positive rescaling of all costs.  The count is that of
    the columns no dearer than the best cell, which a one-column-at-a-time
    best-first scan visits.
    """
    en, ed = epsilon.numerator, epsilon.denominator
    carve = lower is not None and lower > 0

    def pieces(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = window(u, en, ed, False)
        lo = np.maximum(lo, row.lo)
        hi = np.minimum(hi, row.hi)
        if not carve:
            return lo, hi
        # the lower bound carves out the rows where every gap is below it
        ilo, ihi = window(u, lower.numerator, lower.denominator, True)
        hollow = ilo <= ihi
        below = np.where(hollow, np.minimum(hi, ilo - 1), hi)
        above = np.where(hollow, np.maximum(lo, ihi + 1), hi + 1)
        return np.concatenate((lo, above)), np.concatenate((below, hi))

    lo, hi = pieces(np.zeros(1, dtype=np.int64))
    if np.any((lo <= 0) & (0 <= hi)):
        return (0, 0), 0

    pos, neg = col.pos, col.neg
    best: tuple[float, int, int, int] | None = None
    i, j, size = 0, 1, _FIRST_BLOCK
    while i < pos.size or j < neg.size:
        head = np.concatenate((pos[i : i + size], neg[j : j + size]))
        if best is not None and head.min() > best[0]:
            break
        take = min(size, head.size)
        cut = np.partition(head, take - 1)[take - 1]
        i_next = int(np.searchsorted(pos, cut, side="right"))
        j_next = int(np.searchsorted(neg, cut, side="right"))
        u = np.concatenate((np.arange(i, i_next), -np.arange(j, j_next)))
        cu = np.concatenate((pos[i:i_next], neg[j:j_next]))
        i, j, size = i_next, j_next, min(2 * size, _MAX_BLOCK)

        lo, hi = pieces(u)
        ok = np.flatnonzero(lo <= hi)
        if not ok.size:
            continue
        ok_u = np.tile(u, lo.size // u.size)[ok]
        v = np.minimum(np.maximum(lo[ok], 0), hi[ok])
        cost = np.tile(cu, lo.size // u.size)[ok] + np.where(
            v >= 0, row.pos[np.maximum(v, 0)], row.neg[np.maximum(-v, 0)]
        )
        tied = np.flatnonzero(cost == cost.min())
        ok_u, v = ok_u[tied], v[tied]
        moves = np.abs(ok_u) + np.abs(v)
        first = np.lexsort((v, ok_u, moves))[0]
        key = (float(cost[tied[0]]), int(moves[first]), int(ok_u[first]), int(v[first]))
        if best is None or key < best:
            best = key
    if best is None:
        return None, pos.size + neg.size - 1
    scanned = np.searchsorted(pos, best[0], side="right") + np.searchsorted(
        neg, best[0], side="right"
    )
    return (best[2], best[3]), int(scanned) - 1


def _check_inputs(
    tallies: GroupTallies, costs: CostArrays, total_positive: int, n: int
) -> None:
    if min(tallies.n1_pos, tallies.n0_pos, tallies.n1_neg, tallies.n0_neg) < 0:
        raise InvalidTallies("negative group cardinality")
    if tallies.n != n:
        raise InvalidTallies("tallies do not sum to n")
    if tallies.total_positive != total_positive:
        raise InvalidTallies("tallies disagree with the positive total")
    for arr, size in (
        (costs.t1_pos, tallies.n1_pos),
        (costs.t0_pos, tallies.n0_pos),
        (costs.t1_neg, tallies.n1_neg),
        (costs.t0_neg, tallies.n0_neg),
    ):
        if arr.size != size + 1:
            raise InvalidTallies("cost array length does not match its group")


def _solve_sp_form(
    tallies: GroupTallies,
    costs: CostArrays,
    total_positive: int,
    n: int,
    epsilon: Fraction,
    lower: Fraction | None,
) -> tuple[MoveCounts, int]:
    if n < 2:
        raise Infeasible("both groups must be nonempty, impossible with n < 2")
    n1 = tallies.n1_pos + tallies.n1_neg

    def window(u: np.ndarray, num: int, den: int, strict: bool) -> tuple[np.ndarray, np.ndarray]:
        # Column u leaves group g with p_g positives, t_g = p_g * n * den;
        # row v sets the group-1 size m = n1 + u + v.  The group-1 gap is
        # within num/den iff m*a >= t_1 and m*b <= t_1 (strict inside the
        # carve-out); group 0 is the same with n - m and t_0.
        s = int(strict)
        a = total_positive * den + num * n
        b = total_positive * den - num * n
        scale = n * den
        lo = np.ones_like(u)
        hi = np.full_like(u, n - 1)
        empty = np.zeros(u.shape, dtype=bool)
        for base, sign in ((tallies.n1_pos, 1), (tallies.n0_pos, -1)):
            p = base + sign * u
            if a > 0:
                least = _floor_affine(base * scale + a - 1 + s, sign * scale, a, u, 0, n)
            else:
                # a == 0 only when upper-bounding at zero with no positives
                least = np.ones_like(u)
                empty |= p > 0
            if b > 0:
                most = _floor_affine(base * scale - s, sign * scale, b, u, 0, n)
            else:
                most = np.full_like(u, n)
                if b == 0 and strict:
                    empty |= p == 0
            if sign > 0:
                lo = np.maximum(lo, least)
                hi = np.minimum(hi, most)
            else:
                lo = np.maximum(lo, n - most)
                hi = np.minimum(hi, n - least)
        hi = np.where(empty, lo - 1, hi)
        return lo - n1 - u, hi - n1 - u

    col = _SideCosts(pos=costs.t0_pos, neg=costs.t1_pos)
    row = _SideCosts(pos=costs.t0_neg, neg=costs.t1_neg)
    state, columns = search_net_moves(col, row, window, epsilon, lower)
    if state is None:
        raise Infeasible("no move assignment satisfies the rate constraints")
    u, v = state
    return MoveCounts(max(u, 0), max(-u, 0), max(v, 0), max(-v, 0)), columns


def solve_efficient(
    tallies: GroupTallies,
    costs: CostArrays,
    total_positive: int,
    n: int,
    spec: FairnessSpec,
) -> MoveCounts:
    """Provably optimal move counts for the SP-form constraint.

    Callers handle other metrics by reducing them to this form on the
    appropriate label slice.
    """
    if FairnessMetric(spec.metric) is not FairnessMetric.SP:
        raise ValueError("solve_efficient expects the SP-form constraint")
    _check_inputs(tallies, costs, total_positive, n)
    lower = Fraction(spec.epsilon_lower) if spec.epsilon_lower else None
    moves, _ = _solve_sp_form(tallies, costs, total_positive, n, Fraction(spec.epsilon), lower)
    return moves


def _flip_cheapest(
    guess: np.ndarray, costs: CostArrays, moves: MoveCounts
) -> tuple[np.ndarray, np.ndarray]:
    """Flip the first members of each group's cost order; returns the
    corrected vector and the sorted flipped indices."""
    corrected = np.array(guess)
    changed = []
    for order, count, value in (
        (costs.order_1_pos, moves.s10_pos, 0),
        (costs.order_0_pos, moves.s01_pos, 1),
        (costs.order_1_neg, moves.s10_neg, 0),
        (costs.order_0_neg, moves.s01_neg, 1),
    ):
        if count < 0 or count > order.size:
            raise MoveOutOfBounds("move count exceeds its group size")
        corrected[order[:count]] = value
        changed.append(order[:count])
    return corrected, np.sort(np.concatenate(changed))


def apply_moves(
    guess: Sequence[int],
    yhat: Sequence[int],
    confidence: Sequence[float],
    moves: MoveCounts,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Flip the cheapest members of each move group.

    Ties break on the lowest original index, so the flipped cost equals the
    solver objective exactly.
    """
    costs = build_cost_arrays(guess, yhat, confidence)
    corrected, changed = _flip_cheapest(as_binary_array(guess, "guess"), costs, moves)
    return corrected, tuple(changed.tolist())


@dataclass(frozen=True, eq=False)
class _SliceSolution:
    moves: MoveCounts
    corrected_slice: np.ndarray
    changed: np.ndarray
    objective: float
    columns: int


def _solve_slice(
    guess: np.ndarray,
    yhat: np.ndarray,
    conf: np.ndarray,
    idx: np.ndarray,
    epsilon: Fraction,
    lower: Fraction | None,
) -> _SliceSolution:
    sub_g = guess[idx]
    # each group is sorted once, here; the flips below reuse its order
    costs = build_cost_arrays(sub_g, yhat[idx], conf[idx])
    tallies = GroupTallies(
        costs.order_1_pos.size,
        costs.order_0_pos.size,
        costs.order_1_neg.size,
        costs.order_0_neg.size,
    )
    moves, columns = _solve_sp_form(
        tallies, costs, tallies.total_positive, tallies.n, epsilon, lower
    )
    corrected_slice, changed_local = _flip_cheapest(sub_g, costs, moves)
    return _SliceSolution(
        moves, corrected_slice, idx[changed_local], move_cost(costs, moves), columns
    )


def correct(instance: AttackInstance, spec: FairnessSpec) -> CorrectionResult:
    """Correct a binary guess to satisfy ``spec`` at minimum weighted cost.

    SP solves on the full set; PE and EO solve the SP form on their label
    slice and leave the complement untouched; EOdds corrects both disjoint
    slices.  Empty slices are no-ops.
    """
    start = time.perf_counter()
    if instance.cardinality != 2:
        raise ValueError("correct() handles binary guesses; use the general model")
    metric = FairnessMetric(spec.metric)
    guess = instance.guess
    yhat = instance.predictions
    conf = instance.confidence
    epsilon = Fraction(spec.epsilon)
    lower = Fraction(spec.epsilon_lower) if spec.epsilon_lower else None
    slices = [idx for idx in slice_for_metric(metric, instance.labels) if idx.size]

    solutions: list[_SliceSolution | None]
    if metric is FairnessMetric.EODDS and lower is not None and len(slices) == 2:
        solutions = carry_lower_bound(
            lambda i, bound: _solve_slice(guess, yhat, conf, slices[i], epsilon, bound),
            lambda i, sol: unfairness_exact(
                FairnessMetric.SP, sol.corrected_slice, yhat[slices[i]]
            ),
            lower,
        )
    else:
        # for single-slice metrics the lower bound applies to the slice gap
        solutions = [_solve_slice(guess, yhat, conf, idx, epsilon, lower) for idx in slices]

    corrected = np.array(guess)
    moves = MoveCounts(0, 0, 0, 0)
    objective = 0.0
    changed: list[np.ndarray] = []
    columns = 0
    for idx, sol in zip(slices, solutions):
        corrected[idx] = sol.corrected_slice
        moves = moves + sol.moves
        objective += sol.objective
        columns += sol.columns
        if sol.changed.size:
            changed.append(sol.changed)
    changed_indices = tuple(np.sort(np.concatenate(changed)).tolist()) if changed else ()
    stats = SolverStats(
        nodes=columns, wall_time=time.perf_counter() - start, proven_optimal=True
    )
    corrected.setflags(write=False)
    return CorrectionResult(corrected, objective, moves, changed_indices, stats)


def carry_lower_bound(
    solve: Callable[[int, Fraction | None], _Solution],
    gap: Callable[[int, _Solution], Fraction],
    lower: Fraction,
) -> list[_Solution]:
    """EOdds with a lower bound couples its two slices: the larger slice gap
    must reach the bound, so at most one slice has to carry it.

    ``solve(i, bound)`` solves slice i, with the lower bound when ``bound``
    is set; ``gap(i, solution)`` measures the slice's gap.  Both slices are
    solved upper-only, and only if the bound is missed is each re-solved
    with the bound attached, keeping the cheaper combination.
    """
    base = [solve(i, None) for i in (0, 1)]
    if max(gap(i, sol) for i, sol in enumerate(base)) >= lower:
        return base
    candidates = []
    for carrier in (0, 1):
        try:
            forced = solve(carrier, lower)
        except Infeasible:
            continue
        combo = [forced if i == carrier else base[i] for i in (0, 1)]
        candidates.append((sum(sol.objective for sol in combo), carrier, combo))
    if not candidates:
        raise Infeasible("no slice can reach the required lower unfairness bound")
    return min(candidates, key=lambda item: item[:2])[2]


def _enumeration_positions(
    metric: FairnessMetric, labels: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Positions the general model enumerates, plus the constrained slices
    expressed locally to those positions."""
    n = labels.size
    if metric is FairnessMetric.SP:
        return np.arange(n), [np.arange(n)]
    if metric is FairnessMetric.PE:
        idx = np.flatnonzero(labels == 0)
        return idx, [np.arange(idx.size)]
    if metric is FairnessMetric.EO:
        idx = np.flatnonzero(labels == 1)
        return idx, [np.arange(idx.size)]
    idx = np.arange(n)
    local = [np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)]
    return idx, [sl for sl in local if sl.size]


def _class_feasible(
    row: Sequence[int],
    slice_meta: list[tuple[int, int]],
    k: int,
    epsilon: Fraction,
    lower: Fraction | None,
) -> bool:
    """Exact feasibility of one (counts, positives) signature.

    ``row`` holds 2k interleaved entries per slice; ``slice_meta`` carries
    (slice size, slice positive total)."""
    worst = Fraction(0)
    offset = 0
    for size, pos_total in slice_meta:
        overall = Fraction(pos_total, size)
        for g in range(k):
            count = int(row[offset + 2 * g])
            pos = int(row[offset + 2 * g + 1])
            if count == 0:
                return False
            gap = abs(overall - Fraction(pos, count))
            if gap > epsilon:
                return False
            if gap > worst:
                worst = gap
        offset += 2 * k
    if lower is not None and lower > 0 and worst < lower:
        return False
    return True


def solve_general_bruteforce(
    instance: AttackInstance,
    spec: FairnessSpec,
    cardinality: int | None = None,
    budget: int = DEFAULT_BRUTEFORCE_BUDGET,
) -> CorrectionResult:
    """Exhaustive minimum-cost correction over the active slice.

    Serves as the correctness oracle for the efficient path and as the only
    solver for multi-valued sensitive attributes.
    """
    start = time.perf_counter()
    k = instance.cardinality if cardinality is None else cardinality
    if k < 2:
        raise ValueError("cardinality must be at least 2")
    if instance.guess.size and int(instance.guess.max()) >= k:
        raise ValueError("guess values exceed the requested cardinality")
    metric = FairnessMetric(spec.metric)
    guess = instance.guess
    yhat = instance.predictions
    conf = instance.confidence
    enum_idx, local_slices = _enumeration_positions(metric, instance.labels)
    m = int(enum_idx.size)

    if m == 0:
        corrected = np.array(guess)
        corrected.setflags(write=False)
        moves = MoveCounts(0, 0, 0, 0) if k == 2 else {}
        stats = SolverStats(0, time.perf_counter() - start, True)
        return CorrectionResult(corrected, 0.0, moves, (), stats)

    states = k**m
    if states > budget:
        raise BudgetExceeded(f"{k}**{m} states exceed the budget of {budget}")

    digits = ((np.arange(states)[:, None] // k ** np.arange(m)) % k).astype(np.int8)
    sub_guess = guess[enum_idx].astype(np.int8)
    sub_conf = conf[enum_idx]
    cost = ((digits != sub_guess) * sub_conf).sum(axis=1)

    sub_yhat = yhat[enum_idx]
    stats_cols: list[np.ndarray] = []
    slice_meta: list[tuple[int, int]] = []
    for sl in local_slices:
        pos_mask = sub_yhat[sl] == 1
        slice_meta.append((int(sl.size), int(np.count_nonzero(pos_mask))))
        block = digits[:, sl]
        for g in range(k):
            eq = block == g
            stats_cols.append(eq.sum(axis=1))
            stats_cols.append(eq[:, pos_mask].sum(axis=1))
    signature = np.stack(stats_cols, axis=1)
    uniq, inverse = np.unique(signature, axis=0, return_inverse=True)

    epsilon = Fraction(spec.epsilon)
    lower = Fraction(spec.epsilon_lower) if spec.epsilon_lower else None
    uniq_ok = np.array(
        [_class_feasible(row, slice_meta, k, epsilon, lower) for row in uniq.tolist()],
        dtype=bool,
    )
    feasible = uniq_ok[inverse]
    if not feasible.any():
        raise Infeasible("exhaustive search found no feasible assignment")

    cand = np.flatnonzero(feasible)
    best = int(cand[np.argmin(cost[cand])])
    assignment = digits[best].astype(np.int64)

    corrected = np.array(guess)
    corrected[enum_idx] = assignment
    corrected.setflags(write=False)
    changed_mask = assignment != guess[enum_idx]
    changed_indices = tuple(int(i) for i in enum_idx[changed_mask])

    moves: MoveCounts | dict[tuple[int, int], int]
    if k == 2:
        pos = sub_yhat == 1
        old = guess[enum_idx]
        moves = MoveCounts(
            s01_pos=int(np.count_nonzero((old == 0) & (assignment == 1) & pos)),
            s10_pos=int(np.count_nonzero((old == 1) & (assignment == 0) & pos)),
            s01_neg=int(np.count_nonzero((old == 0) & (assignment == 1) & ~pos)),
            s10_neg=int(np.count_nonzero((old == 1) & (assignment == 0) & ~pos)),
        )
    else:
        moves = {}
        old = guess[enum_idx]
        for a, b in zip(old[changed_mask].tolist(), assignment[changed_mask].tolist()):
            moves[(a, b)] = moves.get((a, b), 0) + 1

    stats = SolverStats(states, time.perf_counter() - start, True)
    return CorrectionResult(
        corrected, float(cost[best]), moves, changed_indices, stats
    )

"""Brute-force correction: the oracle for the lattice solver, and the only
solver for a sensitive attribute of more than two values.

``solve_general_bruteforce`` enumerates every assignment of the guess at the
rows the metric constrains, keeps those whose group rates meet the spec
exactly, and returns the cheapest.  It reads the metric's slices from
``core.slice_for_metric`` and shares no code with ``corrector``, so that
agreement between the two is evidence that the lattice search is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    AttackInstance,
    CorrectionResult,
    FairnessSpec,
    MoveCounts,
    SolverStats,
    read_only_copy,
    slice_for_metric,
)
from .errors import BudgetExceeded, Infeasible

#: Most assignments one enumeration may hold.
_BUDGET = 2**20


def _class_feasible(
    row: Sequence[int],
    slice_meta: list[tuple[int, int]],
    k: int,
    epsilon: Fraction,
    lower: Fraction | None,
) -> bool:
    """Exact feasibility of one (counts, positives) signature, under the
    empty-group rule of ``core``.

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


def _signature_classes(signature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(signature, axis=0, return_inverse=True)`` of a non-negative
    integer matrix, sorting one mixed-radix key per row (first column most
    significant) unless the radix product overflows the index type."""
    radix = signature.max(axis=0, initial=0) + 1
    try:
        keys = np.ravel_multi_index(signature.T, radix)
    except ValueError:
        return np.unique(signature, axis=0, return_inverse=True)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return signature[first], inverse


def solve_general_bruteforce(instance: AttackInstance, spec: FairnessSpec) -> CorrectionResult:
    """Exhaustive minimum-cost correction over the metric's nonempty slices.

    The enumerated positions are the union of the slices, ascending; rows
    outside every slice keep their guess.  Ties on cost go to the first
    assignment in enumeration order.
    """
    k = instance.cardinality
    guess = instance.guess
    yhat = instance.predictions
    conf = instance.confidence
    slices = [idx for idx in slice_for_metric(spec.metric, instance.labels) if idx.size]

    if not slices:
        corrected = np.array(guess)
        corrected.setflags(write=False)
        moves = MoveCounts(0, 0, 0, 0) if k == 2 else {}
        none = read_only_copy(np.zeros(0, dtype=np.int64))
        return CorrectionResult(corrected, 0.0, moves, none, SolverStats(0))

    enum_idx = np.unique(np.concatenate(slices))
    local_slices = [enum_idx.searchsorted(idx) for idx in slices]
    m = int(enum_idx.size)
    states = k**m
    if states > _BUDGET:
        raise BudgetExceeded(f"{k}**{m} states exceed the budget of {_BUDGET}")

    # digit j of state s is s // k**j % k, built one int8 column at a time
    digits = np.empty((states, m), dtype=np.int8)
    rest = np.arange(states)
    for j in range(m):
        rest, digits[:, j] = np.divmod(rest, k)
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
    uniq, inverse = _signature_classes(np.stack(stats_cols, axis=1))

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
    old = guess[enum_idx]
    changed_mask = assignment != old
    changed_indices = read_only_copy(enum_idx[changed_mask])

    moves: MoveCounts | dict[tuple[int, int], int]
    if k == 2:
        pos = sub_yhat == 1
        moves = MoveCounts(
            s01_pos=int(np.count_nonzero((old == 0) & (assignment == 1) & pos)),
            s10_pos=int(np.count_nonzero((old == 1) & (assignment == 0) & pos)),
            s01_neg=int(np.count_nonzero((old == 0) & (assignment == 1) & ~pos)),
            s10_neg=int(np.count_nonzero((old == 1) & (assignment == 0) & ~pos)),
        )
    else:
        moves = dict(Counter(zip(old[changed_mask].tolist(), assignment[changed_mask].tolist())))

    return CorrectionResult(
        corrected, float(cost[best]), moves, changed_indices, SolverStats(states)
    )

"""Exact solver for minimum confidence-weighted guess correction.

``correct`` runs the efficient path: the group-rate constraint depends only on
the *net* number of guess flips among positively and among negatively
predicted examples, so the search collapses onto a 2-D integer lattice whose
per-axis costs are prefix sums of ascending-sorted confidences.  ``_Lattice``
holds that lattice for any 0/1 vector split by another, read in place at a
metric slice's rows: here the guess split by the predictions, and in the
simulated fair target's prediction repair the predictions split by the
groups.  A flip names the rows it changes, and ``_flip_all`` scatters every
slice's flips into one copy of the vector.  ``search_net_moves`` sweeps it in
numpy, taking columns cheapest first in blocks of doubling size; the feasible
rows of each column form at most two integer intervals, and the cheapest row
of each is the one nearest zero.  The sweep stops once a block's cheapest
column costs more than the best cell found, which proves optimality.  It
answers a list of upper bounds under a list of cost rows at once: windows
never depend on the costs, so each block's windows serve every pair, and each
pair keeps its own stop test.

Both solvers bound one parity gap.  With c[x][z] the lattice's 2x2 table of
counts and z_k the entries where z = k, a group of m entries has rate gap
|D| / (n*m), where D = c00*c11 - c01*c10, and cell (u, v) moves D to
D + u*z0 - v*z1.  ``_group_gap`` reads one cell's gap from the four counts in
exact integers: each solver judges the origin by it, with no window, and it
gives the EOdds carrier its slices' gaps and the sweep its fair target's
unfairness.  A gap bound is a band of the determinant: a few half-planes in v
per column, whose exact integer ends ``_rows_within`` finds for a whole block.
``_solve_sp_form``'s guess groups move with the cell; the repair's groups are
fixed, so ``_repair_slice`` bounds group g's gap |D| / (n * z_g) by two
half-planes of the smaller group, for a whole grid of upper bounds at once.

``_solve_rows`` solves one instance under several confidence vectors in
one search per slice with one cost row per vector, and only it decides which
slice carries an EOdds lower bound.  Each solver hands ``search_net_moves`` a
slice's lattice and the cost rows to read, and gets one ``_SolvedCell`` per
bound and row: a lattice cell under one cost row, priced by
``_Lattice.cost`` and flipped by ``_Lattice.flip``, in one pass where no
cost tie straddles its cut.  ``correct`` is its one-vector case, and builds
its result from the cells with ``_result``; k-selection solves every
exponent at once and scores their flips without building results.  The
brute-force oracle this solver is checked against, and the only solver for
more than two groups, is ``fairleak.oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    AttackInstance,
    CorrectionResult,
    FairnessMetric,
    FairnessSpec,
    MoveCounts,
    SolverStats,
    slice_for_metric,
)
from .errors import Infeasible, UnsupportedCardinality


def _sorted_sums(costs: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``costs``: its entries at ``idx`` in ascending order,
    and their prefix sums.  Ties may sit in any order, as neither the values
    nor their sums depend on it."""
    # take() is numpy's fast gather; 2-D fancy indexing is several times slower
    values = costs.take(idx, axis=1)
    values.sort(axis=1)
    totals = np.zeros((costs.shape[0], idx.size + 1))
    np.cumsum(values, axis=1, out=totals[:, 1:])
    return values, totals


#: Columns in the sweep's first block; each later block doubles, up to the cap.
_FIRST_BLOCK = 512
_MAX_BLOCK = 1 << 15
#: Float screen of a fractional part: bound on its rounding error for any
#: |u| below 1e8, so only values this close to an integer are rechecked.
_NEAR = 1e-7


def _floor_affine(
    a: Sequence[int], b: int, d: int, u: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Exact ``clip(floor((a[r] + b*u) / d), lo, hi)``, one row per offset
    a[r], for an int64 array ``u`` and Python ints of any size, ``d > 0``:
    where a half-plane of the determinant band crosses each column.

    The integer quotients of a/d and b/d are split off.  The remainder
    (ra + rb*u)/d is computed in int64 when it fits; otherwise it is screened
    in float64 and only entries within ``_NEAR`` of an integer are rechecked
    with Python ints (``Fraction(0.01)`` alone has a 2**59 denominator).
    """
    qb, rb = divmod(b, d)
    g = math.gcd(rb, d)
    qa, ra = zip(*(divmod(int(offset), d) for offset in a))
    ra, rb, d = [r // g for r in ra], rb // g, d // g
    span = int(np.abs(u).max(initial=0)) + 1
    if d * span < 2**62:
        whole = (np.array(ra)[:, None] + rb * u) // d
    else:
        frac = np.array([r / d for r in ra])[:, None] + u * (rb / d)
        whole = np.floor(frac).astype(np.int64)
        near = np.flatnonzero(np.abs(frac - np.rint(frac)) < _NEAR)
        if near.size:
            row, at = np.divmod(near, u.size)
            whole.put(near, (u[at].astype(object) * rb + np.array(ra, object)[row]) // d)
    if max(map(abs, qa)) + abs(qb) * span < 2**62:
        return np.minimum(np.maximum(np.array(qa)[:, None] + qb * u + whole, lo), hi)
    out = np.clip(u.astype(object) * qb + np.array(qa, object)[:, None] + whole, lo, hi)
    return out.astype(np.int64)


def _rows_within(
    u: np.ndarray, planes: Sequence[tuple[int, Sequence[int], int]], strict: bool, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ends, indexed (bound row r, column), of the rows v in [lo, hi] of each
    column u with q*v <= c[r] + k*u for every plane (q, c, k), strictly when
    ``strict``; a column with no such row has its ends crossed.  All terms are
    integers, so a strict plane is the plain one with c - 1.  q > 0 caps the
    rows at a floor, q < 0 raises them to a ceiling, q = 0 masks columns."""
    low, high = (np.full((len(planes[0][1]), u.size), end) for end in (lo, hi))
    for q, c, k in planes:
        offsets = [ci - strict for ci in c]
        if q > 0:
            high = np.minimum(high, _floor_affine(offsets, k, q, u, lo - 1, hi + 1))
        elif q < 0:
            # q*v <= c + k*u iff v >= -floor((c + k*u) / -q)
            low = np.maximum(low, -_floor_affine(offsets, k, -q, u, -hi - 1, 1 - lo))
        else:
            # clip(c + k*u, -1, 0) is -1 exactly where the plane fails
            high = np.where(_floor_affine(offsets, k, 1, u, -1, 0) < 0, lo - 1, high)
    return low, high


class _Lattice:
    """The net-move lattice of 0/1 vectors ``x`` split by ``z``, read in place
    at their ascending entries ``idx`` (every entry when it is None), with one
    cost row per row of ``costs``.

    Column u flips |u| entries of ``x`` where z = 1, zeros to one when u > 0
    and ones to zero when u < 0; row v does the same where z = 0.  Its cells
    c[x][z], and their sizes ``counts``, come as c01, c11, c00, c10: the
    column's up and down flips, then the row's.  A cell keeps its indices
    into ``x`` and its sorted costs with their prefix sums; a flip of k
    entries takes its k cheapest, ties on the lowest index.
    """

    def __init__(
        self, x: np.ndarray, z: np.ndarray, costs: np.ndarray, idx: np.ndarray | None
    ) -> None:
        self.x, self.z, self.costs, self.idx = x, z, costs, idx
        whole = idx is None
        xb, zb = ((a if whole else a.take(idx)).astype(bool) for a in (x, z))
        cells = [np.flatnonzero(m) for m in (~xb & zb, xb & zb, ~xb & ~zb, xb & ~zb)]
        cells = cells if whole else [idx.take(cell) for cell in cells]
        self.counts = tuple(cell.size for cell in cells)
        # (values, totals, indices) of the up and down flips of the column, then the row
        self.cells = [(*_sorted_sums(costs, cell), cell) for cell in cells]

    def cost(self, r: int, u: int, v: int) -> float:
        """The cost of cell (u, v) under cost row ``r``: its column's prefix
        sum plus its row's."""
        up1, down1, up0, down0 = (totals[r] for _, totals, _ in self.cells)
        column = float((up1 if u >= 0 else down1)[abs(u)])
        return column + float((up0 if v >= 0 else down0)[abs(v)])

    def flip(self, r: int, u: int, v: int) -> np.ndarray:
        """The indices into ``x`` of the entries cell (u, v) flips under cost
        row ``r``: the column's, then the row's, each ascending."""
        picks = []
        for k, up, down in ((u, *self.cells[:2]), (v, *self.cells[2:])):
            values, _, idx = up if k > 0 else down
            k = abs(k)
            if 0 < k < idx.size:
                cost, kth = self.costs[r].take(idx), values[r, k - 1]
                if values[r, k] > kth:
                    # no tie straddles the cut: the k entries up to the k-th cost
                    idx = idx[cost <= kth]
                else:
                    # every entry below the k-th smallest cost, then the first ties
                    chosen = cost < kth
                    chosen[np.flatnonzero(cost == kth)[: k - np.count_nonzero(chosen)]] = True
                    idx = idx[chosen]
            picks.append(idx[:k])
        return np.concatenate(picks)


def _group_gap(counts: Sequence[int], u: int, v: int, fixed: bool) -> Fraction:
    """A slice's exact gap after cell (u, v), its cells holding ``counts`` entries:
    |D + u*z0 - v*z1| / (n*m), m the smaller group of ``z`` when ``fixed``, else of
    the flipped ``x``; 0 for a one-group slice."""
    c01, c11, c00, c10 = counts
    z1, z0 = c01 + c11, c00 + c10
    size = z1 if fixed else c11 + c10 + u + v
    m = min(size, z0 + z1 - size)
    det = c00 * c11 - c01 * c10 + u * z0 - v * z1
    return Fraction(abs(det), (z0 + z1) * m) if m else Fraction(0)


def _metric_lattices(
    metric: FairnessMetric, labels: np.ndarray, x: np.ndarray, z: np.ndarray, costs: np.ndarray
) -> list[_Lattice]:
    """The lattice of each nonempty slice of ``metric``; SP's slice is every
    row, read with no index array."""
    if metric is FairnessMetric.SP:
        return [_Lattice(x, z, costs, None)] if x.size else []
    return [_Lattice(x, z, costs, idx) for idx in slice_for_metric(metric, labels) if idx.size]


def _flip_all(x: np.ndarray, flips: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """A copy of the 0/1 vector ``x`` with the disjoint index arrays ``flips``
    flipped, and their union, ascending."""
    changed = np.sort(np.concatenate([np.zeros(0, dtype=np.int64), *flips]))
    flipped = np.array(x)
    flipped[changed] = x.take(changed) == 0
    return flipped, changed


@dataclass(frozen=True, eq=False)
class _SolvedCell:
    """One slice's solution, for either solver: cell (u, v) of the slice's
    lattice under cost row ``r``, found after scanning ``columns`` columns."""

    lattice: _Lattice
    r: int
    u: int
    v: int
    columns: int

    @property
    def changed(self) -> np.ndarray:
        return self.lattice.flip(self.r, self.u, self.v)

    @property
    def objective(self) -> float:
        return self.lattice.cost(self.r, self.u, self.v)

    @property
    def gap(self) -> Fraction:
        """The slice's SP gap, ``x`` split by ``z``, once the cell's flips apply."""
        return _group_gap(self.lattice.counts, self.u, self.v, False)


#: window(u, nums, den, strict) -> (lo, hi): for each bound nums[r]/den, one
#: row each, and each column u, the rows v at which every group gap is at
#: most the bound (strictly below it when ``strict``); a column whose lo
#: exceeds its hi has no such row.  Both windows narrow ``_rows_within(...,
#: -c10, c00)``, so no lo is below -c10 and no hi above c00, the lattice's rows.
WindowFn = Callable[[np.ndarray, Sequence[int], int, bool], tuple[np.ndarray, np.ndarray]]


def search_net_moves(
    part: _Lattice,
    rows: Sequence[int],
    window: WindowFn,
    bounds: Sequence[Fraction],
    lower: Fraction | None,
    origin: Sequence[bool],
) -> list[list[_SolvedCell | None]]:
    """For each upper bound in ``bounds`` and each cost row ``rows`` names,
    ascending: the cheapest cell of ``part`` whose gaps are within the bound
    and, when ``lower`` is positive, not all strictly below ``lower``, as a
    ``_SolvedCell`` counting the columns scanned, or None if there is none.
    Results are indexed [bound][position in ``rows``].

    ``origin[b]`` says whether (0, 0) is feasible under bound b, as the caller
    reads it from the counts; such a bound gets it with no window.  Otherwise
    columns are taken cheapest first in blocks of doubling size, and a (bound,
    cost row) pair leaves the scan once the cheapest column left costs more
    than its best cell so far.  Each cost row orders the columns its own way,
    so a block is the union of each row's cut of its cheapest columns, cut
    short so that the bounds left times the cost rows times the columns stay
    within ``_MAX_BLOCK``.  Row costs are V-shaped with minimum zero, so each
    feasible interval offers its row nearest zero.  Ties on cost break on
    fewest total moves, then on the (column, row) pair, keeping the result
    deterministic and invariant under positive rescaling of all costs.  The
    count is that of the columns no dearer than the best cell, which a
    one-column-at-a-time best-first scan visits; so neither result depends on
    where blocks end.

    Windows never depend on the costs: each block's windows, and each
    piece's row nearest zero, are computed once for every cost row.  The
    bounds are passed to ``window`` over one common denominator, and the
    carve-out window of ``lower`` is computed once per block for all of
    them.
    """
    den = math.lcm(*(bound.denominator for bound in bounds))
    nums = [bound.numerator * (den // bound.denominator) for bound in bounds]
    carve = lower is not None and lower > 0

    # prefix sums of the column's up and down flips, then of the row's
    pick = slice(None) if len(rows) == len(part.costs) else list(rows)
    pos, neg, row_pos, row_neg = (totals[pick] for _, totals, _ in part.cells)
    best: list[list[tuple[float, int, int, int] | None]] = [[None] * len(rows) for _ in nums]
    live = [(b, r) for b, free in enumerate(origin) if not free for r in range(len(rows))]
    i, j, size = 0, 1, _FIRST_BLOCK
    while live and (i < pos.shape[1] or j < neg.shape[1]):
        head = np.concatenate((pos[:, i : i + size], neg[:, j : j + size]), axis=1)
        cheapest = head.min(axis=1).tolist()
        live = [(b, r) for b, r in live if best[b][r] is None or cheapest[r] <= best[b][r][0]]
        if not live:
            break
        bs, rs = sorted({b for b, _ in live}), sorted({r for _, r in live})
        budget = max(1, _MAX_BLOCK // (len(bs) * len(rows)))
        take = min(size, budget, head.shape[1])
        # each row in the scan cuts at its take-th cheapest column, ties included
        cut = np.partition(head, take - 1, axis=1)[:, take - 1]
        ends = [max(int(a[r].searchsorted(cut[r], "right")) for r in rs) for a in (pos, neg)]
        i_next = min(max(i, ends[0]), i + budget)
        j_next = min(max(j, ends[1]), j + budget - (i_next - i))
        u = np.concatenate((np.arange(i, i_next), -np.arange(j, j_next)))
        cu = np.concatenate((pos[:, i:i_next], neg[:, j:j_next]), axis=1)
        lo, hi = window(u, [nums[b] for b in bs], den, False)
        if carve:
            # the lower bound carves out the rows where every gap is below it,
            # leaving two pieces per column, indexed (bound, piece, column)
            ilo, ihi = window(u, [lower.numerator], lower.denominator, True)
            hollow = ilo <= ihi
            lo, hi = (np.stack((lo, np.where(hollow, np.maximum(lo, ihi + 1), hi + 1)), axis=1),
                      np.stack((np.where(hollow, np.minimum(hi, ilo - 1), hi), hi), axis=1))
        i, j, size = i_next, j_next, min(2 * size, _MAX_BLOCK)

        ok = np.flatnonzero(lo <= hi)
        if not ok.size:
            continue
        # "wrap" takes each entry's position modulo u.size, back to its column
        ok_u = u.take(ok, mode="wrap")
        v = np.minimum(np.maximum(lo.ravel().take(ok), 0), hi.ravel().take(ok))
        cost = cu.take(ok, axis=1, mode="wrap") + np.where(
            v >= 0, row_pos.take(np.maximum(v, 0), axis=1), row_neg.take(np.maximum(-v, 0), axis=1)
        )
        # ok runs bound by bound: edges delimit each bound's entries
        edges = np.searchsorted(ok, np.arange(0, lo.size + 1, lo.size // len(bs))).tolist()
        for b, start, end in zip(bs, edges, edges[1:]):
            if start == end:
                continue
            least = cost[:, start:end].min(axis=1).tolist()
            for r in rs:
                if best[b][r] is not None and least[r] > best[b][r][0]:
                    continue
                tied = start + np.flatnonzero(cost[r, start:end] == least[r])
                tied_u, tied_v = ok_u[tied], v[tied]
                moves = np.abs(tied_u) + np.abs(tied_v)
                m = np.lexsort((tied_v, tied_u, moves))[0]
                key = (least[r], int(moves[m]), int(tied_u[m]), int(tied_v[m]))
                if best[b][r] is None or key < best[b][r]:
                    best[b][r] = key

    def result(b: int, r: int) -> _SolvedCell | None:
        key = best[b][r]
        if origin[b]:
            return _SolvedCell(part, rows[r], 0, 0, 0)
        if key is None:
            return None
        scanned = sum(int(np.searchsorted(side[r], key[0], side="right")) for side in (pos, neg))
        return _SolvedCell(part, rows[r], key[2], key[3], scanned - 1)

    return [[result(b, r) for r in range(len(rows))] for b in range(len(nums))]


def _solve_sp_form(
    part: _Lattice, rows: Sequence[int], epsilon: Fraction, lower: Fraction | None
) -> list[_SolvedCell]:
    """The cheapest correction of one slice's lattice, its guess split by its
    predictions, under each cost row of ``rows``; raises Infeasible for all
    rows alike.  Both groups must be present, as the empty-group rule in
    ``core`` says."""
    # z1 positive predictions, z0 negative ones, n1 guess ones
    counts = c01, c11, c00, c10 = part.counts  # c[guess][prediction]
    z1, z0 = c01 + c11, c00 + c10
    n, n1 = z0 + z1, c11 + c10
    if n < 2:
        raise Infeasible("both groups must be nonempty, impossible with n < 2")
    det = c00 * c11 - c01 * c10

    def window(
        u: np.ndarray, nums: Sequence[int], den: int, strict: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        # Cell (u, v) has D = det + u*z0 - v*z1 and guess-1 group size
        # m = n1 + u + v in [1, n - 1]; its gaps are within num/den iff
        # s*den*D <= t*m and s*den*D <= t*(n - m) for both signs s, t = num*n.
        (num,) = nums
        t = num * n
        planes = [(-s * den * z1 - g * t, [t * size - s * den * det], g * t - s * den * z0)
                  for size, g in ((n1, 1), (n - n1, -1)) for s in (1, -1)]
        lo, hi = _rows_within(u, planes, strict, -c10, c00)
        return np.maximum(lo, 1 - n1 - u), np.minimum(hi, n - 1 - n1 - u)

    # the window's verdict: both groups present, the gap within both bounds
    origin = 0 < n1 < n and (lower or 0) <= _group_gap(counts, 0, 0, False) <= epsilon
    (cells,) = search_net_moves(part, rows, window, [epsilon], lower, [origin])
    # which cells are feasible never depends on the costs
    if cells[0] is None:
        raise Infeasible("no move assignment satisfies the rate constraints")
    return cells


def _repair_slice(part: _Lattice, epsilons: Sequence[Fraction]) -> list[_SolvedCell]:
    """The cheapest repair of one slice's lattice, its predictions split by
    its groups, under each upper bound of ``epsilons``, the margins its one
    cost row."""
    c01, c11, c00, c10 = part.counts  # c[prediction][group]
    z1, z0 = c01 + c11, c00 + c10
    if not z1 or not z0:
        # a one-group slice: the empty-group rule in ``core``
        return [_SolvedCell(part, 0, 0, 0, 0)] * len(epsilons)
    det = c00 * c11 - c01 * c10

    def window(
        u: np.ndarray, nums: Sequence[int], den: int, strict: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Net group-0 flips v keeping both gaps within each nums[r]/den
        (strictly below it when ``strict``), for net group-1 flips u: the
        smaller group binds, s*den*D <= num*n*min(z0, z1) for both signs s."""
        reach = [num * (z0 + z1) * min(z0, z1) for num in nums]
        planes = [(-s * den * z1, [r - s * den * det for r in reach], -s * den * z0)
                  for s in (1, -1)]
        return _rows_within(u, planes, strict, -c10, c00)

    gap = _group_gap(part.counts, 0, 0, True)
    found = search_net_moves(part, [0], window, epsilons, None, [gap <= e for e in epsilons])
    return [cell for (cell,) in found]


def correct(instance: AttackInstance, spec: FairnessSpec) -> CorrectionResult:
    """Correct a binary guess to satisfy ``spec`` at minimum weighted cost.

    SP solves on the full set; PE and EO solve the SP form on their label
    slice and leave the complement untouched; EOdds corrects both disjoint
    slices.  Empty slices are no-ops.
    """
    return _result(instance.guess, _solve_rows(instance, spec, instance.confidence[None])[0])


def _solve_rows(
    instance: AttackInstance, spec: FairnessSpec, confs: np.ndarray
) -> list[list[_SolvedCell]]:
    """The guess of ``instance`` solved under each row of ``confs``, which
    must be finite and non-negative, in place of its own confidences: each
    vector's solved cells, one per nonempty slice of the metric.

    A single slice carries the lower bound itself.  EOdds with a lower bound
    couples its two slices: the larger slice gap must reach the bound, so at
    most one slice has to carry it.  Both slices are solved upper-only, and
    only the vectors that miss the bound are re-solved with the bound
    attached to each slice in turn, each keeping its cheaper combination,
    ties to slice 0.  Which cells are feasible never depends on the costs,
    so every solve below succeeds or raises for all of its vectors alike.
    """
    if instance.cardinality != 2:
        raise UnsupportedCardinality("correct() handles binary guesses; use the general model")
    metric = FairnessMetric(spec.metric)
    guess = instance.guess
    epsilon = Fraction(spec.epsilon)
    lower = Fraction(spec.epsilon_lower) if spec.epsilon_lower else None
    lattices = _metric_lattices(metric, instance.labels, guess, instance.predictions, confs)
    coupled = metric is FairnessMetric.EODDS and lower is not None and len(lattices) > 1

    vectors = list(range(confs.shape[0]))
    bound = None if coupled else lower
    slices = [_solve_sp_form(part, vectors, epsilon, bound) for part in lattices]
    solved = [[cells[t] for cells in slices] for t in vectors]
    missed = [t for t in vectors if coupled and max(cell.gap for cell in solved[t]) < lower]
    if missed:
        best: dict[int, tuple[float, list[_SolvedCell]]] = {}
        for carrier in (0, 1):
            try:
                forced = _solve_sp_form(lattices[carrier], missed, epsilon, lower)
            except Infeasible:
                continue
            for t, cell in zip(missed, forced):
                combo = [cell if i == carrier else sol for i, sol in enumerate(solved[t])]
                cost = sum(sol.objective for sol in combo)
                if t not in best or cost < best[t][0]:
                    best[t] = cost, combo
        if not best:
            raise Infeasible("no slice can reach the required lower unfairness bound")
        for t, (_, combo) in best.items():
            solved[t] = combo

    return solved


def _result(guess: np.ndarray, cells: Sequence[_SolvedCell]) -> CorrectionResult:
    """The correction of ``guess`` that the solved cells of its slices make."""
    corrected, changed = _flip_all(guess, [cell.changed for cell in cells])
    corrected.setflags(write=False)
    moves = MoveCounts(
        sum(max(cell.u, 0) for cell in cells),
        sum(max(-cell.u, 0) for cell in cells),
        sum(max(cell.v, 0) for cell in cells),
        sum(max(-cell.v, 0) for cell in cells),
    )
    return CorrectionResult(
        corrected,
        sum((cell.objective for cell in cells), 0.0),
        moves,
        tuple(changed.tolist()),
        SolverStats(sum(cell.columns for cell in cells)),
    )

"""Exact solver for minimum confidence-weighted guess correction.

``correct`` runs the efficient path: the group-rate constraint depends only on
the *net* number of guess flips among positively and among negatively
predicted examples, so the search collapses onto a 2-D integer lattice whose
per-axis costs are prefix sums of ascending-sorted confidences.  ``_Lattice``
holds that lattice for any 0/1 vector split by another, read in place at a
metric slice's rows: here the guess split by the predictions, and in the
simulated fair target's prediction repair the predictions split by the
groups.  A flip names the rows it changes, and ``_flip_all`` scatters every
slice's flips into one copy of the vector.  ``search_net_moves`` searches it
in numpy from the half-planes the solvers hand it: costs are convex, so the
cheapest row of the continuous band bounds each column's cells by a convex
function, and the search takes columns outward from its minimum until it
exceeds the best cell found, which proves optimality.  The feasible rows of
a column form at most two intervals, each cheapest at its row nearest zero.
It answers a list of upper bounds under a list of cost rows at once: windows
never depend on the costs, so each block's windows serve every pair.

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


#: Columns, times bounds and cost rows, that one block of exact windows takes at most.
_MAX_BLOCK = 1 << 15
#: Float screen of a fractional part: bound on its rounding error for any
#: |u| below 1e8, so only values this close to an integer are rechecked.
_NEAR = 1e-7
#: Points per pair in each round that brackets the column bound's minimum,
#: until the bracket fits in half as many; and columns times bounds times
#: cost rows up to which one block of every column costs less than that.
_GRID = 128
_SMALL = 1 << 13


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
    if d == 1:  # d divided b, so the remainder is ra/d, below 1
        whole = 0
    elif d * span < 2**62:
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


#: A half-plane q*v <= c[b] + k*u of the cells (u, v), one offset c[b] per
#: bound b of the search it is handed to.
Plane = tuple[int, Sequence[int], int]


def _sp_planes(counts: Sequence[int], bound: Fraction) -> list[Plane]:
    """Where both guess groups of a slice whose cells hold ``counts`` entries
    have gap within ``bound``: cell (u, v) has guess-1 group size
    m = n1 + u + v, and its gaps are within num/den iff s*den*D <= t*m and
    s*den*D <= t*(n - m) for both signs s, t = num*n."""
    c01, c11, c00, c10 = counts  # c[guess][prediction]
    z1, z0, n1 = c01 + c11, c00 + c10, c11 + c10
    n, det = z0 + z1, c00 * c11 - c01 * c10
    den, t = bound.denominator, bound.numerator * n
    return [(-s * den * z1 - g * t, [t * size - s * den * det], g * t - s * den * z0)
            for size, g in ((n1, 1), (n - n1, -1)) for s in (1, -1)]


def _repair_planes(counts: Sequence[int], bounds: Sequence[Fraction]) -> list[Plane]:
    """Where both fixed groups of a slice whose cells hold ``counts`` entries
    have gap within each of ``bounds``, over one common denominator: the
    smaller group binds, s*den*D <= num*n*min(z0, z1) for both signs s."""
    c01, c11, c00, c10 = counts  # c[prediction][group]
    z1, z0, det = c01 + c11, c00 + c10, c00 * c11 - c01 * c10
    den = math.lcm(*(bound.denominator for bound in bounds))
    reach = [b.numerator * (den // b.denominator) * (z0 + z1) * min(z0, z1) for b in bounds]
    return [(-s * den * z1, [r - s * den * det for r in reach], -s * den * z0) for s in (1, -1)]


def _column_bound(
    sums: Sequence[np.ndarray], planes: Sequence[Plane], ulo: int, uhi: int,
    b: np.ndarray, r: np.ndarray,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``bound(u, p)``: for pairs ``p`` of bound b[p] and cost row r[p], LB at
    columns ``u``, indexed (pair, point), and the cost of the cell at LB's row
    rounded away from zero.  LB(u) is column u's cost plus the row sums of
    ``sums``, interpolated, at max(lo, 0) and max(-hi, 0) for the continuous
    band's ends lo and hi: convex, and no more than any cell of the column.
    Lines are anchored where they cross v = 0, so that float64 does not
    cancel; planes near vertical or masking columns alone are left out."""
    lines = [(q, c, k) for q, c, k in planes if q and abs(k) <= abs(q) << 20]
    shape = len(lines), len(planes[0][1])
    anchor = [[min(max(-ci // k if k else 0, ulo), uhi) for ci in c] for q, c, k in lines]
    at = np.array([[(ci + k * a) / q for ci, a in zip(c, us)]
                   for (q, c, k), us in zip(lines, anchor)]).reshape(shape)[:, b, None]
    anchors = np.array(anchor, dtype=np.int64).reshape(shape)[:, b, None]
    slope = np.array([k / q for q, _, k in lines])[:, None, None]
    upper = np.array([q > 0 for q, _, _ in lines], dtype=bool)
    # each pair's row offset into each flattened sum
    offsets = np.array([r * totals.shape[1] for totals in sums])[:, :, None]
    flat = [(totals.ravel(), totals.shape[1] - 1) for totals in sums]

    def bound(u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        line = at[:, p] + slope * (u - anchors[:, p])
        moves = (np.maximum(u, 0), -np.minimum(u, 0),
                 line[~upper].max(axis=0, initial=0.0), -line[upper].min(axis=0, initial=0.0))
        value = cell = 0.0
        for x, row, (totals, end) in zip(moves, offsets[:, p], flat):
            # past the last row the last step goes on, which keeps LB convex
            k = np.minimum(x, max(end - 1, 0)).astype(np.int64)
            a, z = totals.take(row + k), totals.take(row + np.minimum(k + 1, end))
            value, cell = value + a + (x - k) * (z - a), cell + np.where(x == k, a, z)
        return value, cell

    return bound


def search_net_moves(
    part: _Lattice,
    rows: Sequence[int],
    planes: Sequence[Plane],
    carve: Sequence[Plane],
    origin: Sequence[bool],
) -> list[list[_SolvedCell | None]]:
    """For each bound b of ``planes`` and each cost row ``rows`` names,
    ascending: the cheapest cell of ``part`` inside every plane at its
    offset c[b] and, where ``carve`` holds planes, outside the rows strictly
    inside all of them, as a ``_SolvedCell`` counting the columns no dearer
    than it, or None if there is none.  Results are indexed [bound][position
    in ``rows``].

    ``origin[b]`` says whether (0, 0) is feasible under bound b, as the
    caller reads it from the counts; such a bound gets it with no window.  A
    small lattice takes every column in one block.  Otherwise each (bound,
    cost row) pair brackets the minimum of its ``_column_bound`` in rounds of
    ``_GRID`` points, reads the bound across the bracket and at doubling
    steps beyond, and on each side takes the columns short of the first
    point above its threshold: the cost of the cell at the minimum, then its
    best cell's.  It is done once its best cell costs no more than that; else
    the threshold rises to that cost, or with no cell yet to infinity.
    The bound is convex, so no column past a stop holds a cell as cheap; the
    threshold's margin, relative and growing with n, covers float rounding
    in the bound and in locating its minimum.  The columns no pair took
    before get exact windows in blocks of at most ``_MAX_BLOCK`` columns
    times bounds times cost rows.

    Row costs are V-shaped with minimum zero, so each piece of a column's
    rows, two where ``carve`` cuts them, offers its row nearest zero.  Ties
    on cost break on fewest total moves, then on the (column, row) pair,
    keeping the result deterministic and invariant under positive rescaling
    of all costs.  The count is that of the columns no dearer than the best
    cell, which a one-column-at-a-time best-first scan visits; so neither
    result depends on which columns were taken.
    """
    c00, c10 = part.counts[2:]
    pick = slice(None) if len(rows) == len(part.costs) else list(rows)
    sums = pos, neg, row_pos, row_neg = [totals[pick] for _, totals, _ in part.cells]
    ulo, uhi = 1 - neg.shape[1], pos.shape[1] - 1
    best: list[list[tuple[float, int, int, int] | None]] = [[None] * len(rows) for _ in origin]

    def scan(u: np.ndarray, bs: list[int]) -> None:
        lo, hi = _rows_within(u, [(q, [c[b] for b in bs], k) for q, c, k in planes], False, -c10, c00)
        if carve:
            # the pieces each side of the carved rows, indexed (bound, piece, column)
            ilo, ihi = _rows_within(u, carve, True, -c10, c00)
            hollow = ilo <= ihi
            lo, hi = (np.stack((lo, np.where(hollow, np.maximum(lo, ihi + 1), hi + 1)), axis=1),
                      np.stack((np.where(hollow, np.minimum(hi, ilo - 1), hi), hi), axis=1))
        ok = np.flatnonzero(lo <= hi)
        # "wrap" takes each entry's position modulo u.size, back to its column
        ok_u = u.take(ok, mode="wrap")
        v = np.minimum(np.maximum(lo.ravel().take(ok), 0), hi.ravel().take(ok))
        cost = sum(np.where(k >= 0, up.take(np.maximum(k, 0), axis=1), down.take(np.maximum(-k, 0), axis=1))
                   for up, down, k in ((pos, neg, ok_u), (row_pos, row_neg, v)))
        # ok runs bound by bound: edges delimit each bound's entries
        edges = np.searchsorted(ok, np.arange(0, lo.size + 1, lo.size // len(bs))).tolist()
        for b, start, end in zip(bs, edges, edges[1:]):
            if start == end:
                continue
            least = cost[:, start:end].min(axis=1).tolist()
            for r, key in enumerate(best[b]):
                if key is not None and least[r] > key[0]:
                    continue
                tied = start + np.flatnonzero(cost[r, start:end] == least[r])
                tied_u, tied_v = ok_u[tied], v[tied]
                moves = np.abs(tied_u) + np.abs(tied_v)
                m = np.lexsort((tied_v, tied_u, moves))[0]
                new = (least[r], int(moves[m]), int(tied_u[m]), int(tied_v[m]))
                if key is None or new < key:
                    best[b][r] = new

    pairs = [(b, r) for b, free in enumerate(origin) if not free for r in range(len(rows))]
    bs = sorted({b for b, _ in pairs})
    if pairs and (uhi - ulo + 1) * len(bs) * len(rows) <= min(_SMALL, _MAX_BLOCK):
        scan(np.arange(ulo, uhi + 1), bs)
    elif pairs:
        bi, ri = (np.array(side) for side in zip(*pairs))
        bound = _column_bound(sums, planes, ulo, uhi, bi, ri)
        todo = np.arange(len(pairs))
        lo, hi = np.full(todo.size, ulo), np.full(todo.size, uhi)
        while (hi - lo).max() > _GRID:
            grid = lo[:, None] + np.arange(_GRID) * (hi - lo)[:, None] // (_GRID - 1)
            least = bound(grid, todo)[0].argmin(axis=1)
            lo, hi = (grid[todo, np.clip(least + d, 0, _GRID - 1)] for d in (-1, 1))
        far = 2 ** np.arange(_GRID.bit_length() - 1, (uhi - ulo).bit_length() + 1)
        steps = np.concatenate((-far[::-1], np.arange(-_GRID // 2, _GRID // 2 + 1), far))
        start, threshold = (lo + hi) // 2, None
        margin = (sum(part.counts) + 2**20) * 2.0**-44
        seen = np.zeros(uhi - ulo + 1, dtype=bool)
        while todo.size:
            ends = np.clip(start[todo, None] + steps, ulo, uhi)
            value, cell = bound(ends, todo)
            if threshold is None:
                # LB's least point in the bracket
                least = value[:, far.size : far.size + _GRID + 1].argmin(axis=1) + far.size
                start, threshold = ends[todo, least], cell[todo, least]
            s, t = start[todo, None], threshold[todo, None]
            # the cell's cost holds the row step that a float error in the band's ends moves LB by
            over = value > t + margin * (value + cell + t)
            right = np.where(over & (ends > s), ends, uhi + 1).min(axis=1)
            left = np.where(over & (ends < s), ends, ulo - 1).max(axis=1)
            need = np.zeros_like(seen)
            for a, z in zip(left + 1 - ulo, right - ulo):
                need[a:z] = True
            cols = np.flatnonzero(need & ~seen)
            seen[cols] = True
            bs = sorted(set(bi[todo].tolist()))
            budget = max(1, _MAX_BLOCK // (len(bs) * len(rows)))
            for i in range(0, cols.size, budget):
                scan(cols[i : i + budget] + ulo, bs)
            keep = []
            # a pair is done once its best cell is within the threshold, or it took every column
            for p, stopped in zip(todo.tolist(), over.any(axis=1).tolist()):
                key = best[bi[p]][ri[p]]
                if stopped and (key is None or key[0] > threshold[p]):
                    threshold[p] = math.inf if key is None else key[0]
                    keep.append(p)
            todo = np.array(keep, dtype=np.int64)

    def result(b: int, r: int) -> _SolvedCell | None:
        key = best[b][r]
        if origin[b]:
            return _SolvedCell(part, rows[r], 0, 0, 0)
        if key is None:
            return None
        scanned = sum(int(np.searchsorted(side[r], key[0], side="right")) for side in (pos, neg))
        return _SolvedCell(part, rows[r], key[2], key[3], scanned - 1)

    return [[result(b, r) for r in range(len(rows))] for b in range(len(origin))]


def _solve_sp_form(
    part: _Lattice, rows: Sequence[int], epsilon: Fraction, lower: Fraction | None
) -> list[_SolvedCell]:
    """The cheapest correction of one slice's lattice, its guess split by its
    predictions, under each cost row of ``rows``; raises Infeasible for all
    rows alike.  Both groups must be present, as the empty-group rule in
    ``core`` says."""
    counts = c01, c11, c00, c10 = part.counts  # c[guess][prediction]
    n, n1 = sum(counts), c11 + c10
    if n < 2:
        raise Infeasible("both groups must be nonempty, impossible with n < 2")
    # both guess groups nonempty: 1 <= n1 + u + v <= n - 1
    groups: list[Plane] = [(-1, [n1 - 1], 1), (1, [n - 1 - n1], -1)]
    carve = _sp_planes(counts, lower) if lower else []
    # the planes' verdict: both groups present, the gap within both bounds
    origin = 0 < n1 < n and (lower or 0) <= _group_gap(counts, 0, 0, False) <= epsilon
    (cells,) = search_net_moves(part, rows, _sp_planes(counts, epsilon) + groups, carve, [origin])
    # which cells are feasible never depends on the costs
    if cells[0] is None:
        raise Infeasible("no move assignment satisfies the rate constraints")
    return cells


def _repair_slice(part: _Lattice, epsilons: Sequence[Fraction]) -> list[_SolvedCell]:
    """The cheapest repair of one slice's lattice, its predictions split by
    its groups, under each upper bound of ``epsilons``, the margins its one
    cost row."""
    c01, c11, c00, c10 = part.counts  # c[prediction][group]
    if not c01 + c11 or not c00 + c10:
        # a one-group slice: the empty-group rule in ``core``
        return [_SolvedCell(part, 0, 0, 0, 0)] * len(epsilons)
    gap = _group_gap(part.counts, 0, 0, True)
    planes = _repair_planes(part.counts, epsilons)
    found = search_net_moves(part, [0], planes, [], [gap <= e for e in epsilons])
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
    changed.setflags(write=False)
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
        changed,
        SolverStats(sum(cell.columns for cell in cells)),
    )

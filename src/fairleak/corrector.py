"""Exact solver for minimum confidence-weighted guess correction.

``correct`` runs the efficient path: the group-rate constraint depends only on
the *net* number of guess flips among positively and among negatively
predicted examples, so the search collapses onto a 2-D integer lattice whose
per-axis costs are prefix sums of ascending-sorted confidences.  ``_Lattice``
holds that lattice for any 0/1 vector x split by another, z, over one metric
slice: here the guess split by the predictions, and in the simulated fair
target's prediction repair the predictions split by the groups.  A row's
cell code, 2*x + z plus 4*y where label y slices the rows, gathers its cost
into its cell, and ``_flipped_rows`` reads the codes for the rows one
vector's solved cells flip.  A cell sorts its costs only as far as a solve
reads their prefix sums, which it selects with one partition, so a feasible
origin sorts nothing.  ``_search_net_moves`` searches it
in numpy from the half-planes the solvers hand it: costs are convex, so the
cheapest row of the continuous band bounds each column's cells by a convex
function, and the search takes columns outward from its minimum until it
exceeds the best cell found, which proves optimality.  The feasible rows of
a column form one interval, cheapest at its row nearest zero.  It answers
groups of bounds, one offset per half-plane each, under cost rows at once:
windows never depend on the costs, so each block's windows serve every pair.

Both solvers bound one parity gap.  With c[x][z] the lattice's 2x2 table of
counts and z_k the entries where z = k, a group of m entries has rate gap
|D| / (n*m), where D = c00*c11 - c01*c10, and cell (u, v) moves D to
D + u*z0 - v*z1.  ``_group_gap`` reads one cell's gap from the four counts in
exact integers: it gives the lower-bound carrier its slices' gaps and the
sweep its fair target's unfairness.  A gap bound is a band of the
determinant: a few half-planes in v per column, whose exact integer ends
``_rows_within`` finds for a whole block.  ``_solve_sp_form``'s guess groups
move with the cell; a gap at or above a lower bound lies past one of its
band's four planes, so the bound is one group of four pieces sharing a best
cell and a stop.  The repair's groups are fixed, so ``_repair_planes``
bounds group g's gap |D| / (n * z_g) by two half-planes of the smaller group.

``_solve_rows`` solves one instance under several confidence vectors in
one search per slice with one cost row per vector, and only it decides which
slice carries a lower bound.  Each solver hands ``_search_net_moves`` a
slice's lattice and the cost rows to read, and gets one ``_SolvedCell`` per
bound and row: a lattice cell under one cost row, priced by
``_Lattice.cost``.  ``correct`` is its one-vector case, and builds
its result from the cells with ``_result``; k-selection solves every
exponent at once and scores their flips without building results.  The
brute-force oracle this solver is checked against, and the only solver for
more than two groups, is ``fairleak.oracle``.

``RepairState`` is the prediction repair: ``RepairState.solve`` searches
each slice once for a whole tolerance list, under upper bounds alone, as
fair training sets them, so a repair always exists (predictions all 0 leave
no gap); ``repair_predictions`` is its one-tolerance form.
"""

from __future__ import annotations

import functools
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
    _SLICE_LABELS,
    column,
)
from .errors import BadParameters, EmptySlice, Infeasible, LengthMismatch, UnsupportedCardinality


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
    u: np.ndarray, planes: Sequence[Plane], lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ends, indexed (bound row r, column), of the rows v in [lo, hi] of each
    column u with q*v <= c[r] + k*u for every plane (q, c, k); a column with
    no such row has its ends crossed.  q > 0 caps the rows at a floor, q < 0
    raises them to a ceiling, q = 0 masks columns."""
    low, high = (np.full((len(planes[0][1]), u.size), end) for end in (lo, hi))
    for q, c, k in planes:
        # each distinct offset is floored once, as a lower bound's pieces share most
        index: dict[int, int] = {}
        at = [index.setdefault(ci, len(index)) for ci in c]
        at = at if len(index) > 1 else slice(None)  # one row broadcasts over the bounds
        if q > 0:
            high = np.minimum(high, _floor_affine(list(index), k, q, u, lo - 1, hi + 1)[at])
        elif q < 0:
            # q*v <= c + k*u iff v >= -floor((c + k*u) / -q)
            low = np.maximum(low, -_floor_affine(list(index), k, -q, u, -hi - 1, 1 - lo)[at])
        else:
            # clip(c + k*u, -1, 0) is -1 exactly where the plane fails
            high = np.where(_floor_affine(list(index), k, 1, u, -1, 0)[at] < 0, lo - 1, high)
    return low, high


class _Lattice:
    """The net-move lattice of the rows whose cell code, 2*x + z plus 4*y where
    a label y slices the rows, lies in base..base+3, with one cost row per
    row of ``costs``; ``counts[c]`` rows hold code c, whose costs the first
    read gathers, ``by_code()[c]``.

    Column u flips |u| rows of x where z = 1, zeros to one when u > 0 and
    ones to zero when u < 0; row v does the same where z = 0.  Its cells
    c[x][z], their ``codes`` and their sizes ``counts`` come as c01, c11,
    c00, c10: the column's up and down flips, then the row's.  Cell i holds
    its K = ``sorted[i]`` least costs first, ascending, then the K-th least
    once K > 0, and their prefix sums S(0) = 0 to S(K) in ``totals[i]``;
    ``sums`` moves K, and ``count`` only to the cell's end.
    """

    def __init__(self, code: np.ndarray, costs: np.ndarray, counts: Sequence[int],
                 by_code: Callable[[], Sequence[np.ndarray]], base: int) -> None:
        self.code, self.costs, self.by_code = code, costs, by_code
        self.codes = (base + 1, base + 3, base, base + 2)
        self.counts = tuple(int(counts[c]) for c in self.codes)
        self.totals = [np.zeros((len(costs), m + 1)) for m in self.counts]
        self.sorted = [0] * 4

    @functools.cached_property
    def cells(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(values, totals) of the up and down flips of the column, then the row."""
        return [(self.by_code()[c], totals) for c, totals in zip(self.codes, self.totals)]

    def sums(self, at: int, stop: int) -> np.ndarray:
        """Cell ``at``'s prefix sums, exact through S(stop) at least.  The first
        read past K = 0 partitions the costs at ``stop``, short of half of them,
        and a later one sorts the rest whole; the sorted block sums on from
        S(K), bit for bit one ``cumsum`` of the sorted cell, as S(0) seeds none."""
        k, size = self.sorted[at], self.counts[at]
        if stop > k:
            stop = size if k or 2 * stop >= size else stop
            values, totals = self.cells[at]
            if stop < size:
                values[:, k:].partition(stop - k, axis=1)
            values[:, k:stop].sort(axis=1)
            block = np.hstack((totals[:, k : k + 1], values[:, k:stop])) if k else values[:, :stop]
            np.cumsum(block, axis=1, out=totals[:, max(k, 1) : stop + 1])
            self.sorted[at] = stop
        return self.totals[at]

    def count(self, at: int, r: int, cost: float) -> int:
        """How many of cell ``at``'s prefix sums under cost row ``r`` are at
        most ``cost``; the cell sorts whole first if S(K) + v_K is, v_K the K-th
        least cost past K > 0 and 0 at K = 0: no later sum is less."""
        (values, totals), k, size = self.cells[at], self.sorted[at], self.counts[at]
        if k < size and totals[r, k] + (values[r, k] if k else 0.0) <= cost:
            self.sums(at, size)
        return int(np.searchsorted(totals[r, : self.sorted[at] + 1], cost, side="right"))

    def cost(self, r: int, u: int, v: int) -> float:
        """The cost of cell (u, v) under cost row ``r``: its column's prefix
        sum plus its row's."""
        column = float(self.sums(0 if u >= 0 else 1, abs(u))[r, abs(u)])
        return column + float(self.sums(2 if v >= 0 else 3, abs(v))[r, abs(v)])


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
    """The lattice of each nonempty slice of ``metric``, over one cell code per
    row, 2*x + z plus 4*y where label y slices the rows: one stable sort of
    the codes, a radix sort, partitions every cost row by code once a solve
    first reads a cost, so a feasible origin gathers none."""
    code = x.astype(np.uint8) << 1 | z.astype(np.uint8)
    ys = _SLICE_LABELS[metric]
    if ys is not None:
        code |= labels.astype(np.uint8) << 2
    counts = [np.count_nonzero(code == c) for c in range(7)]
    counts.append(code.size - sum(counts))
    by_code = functools.cache(lambda: np.split(costs.take(np.argsort(code, kind="stable"), axis=1),
                                               np.cumsum(counts[:7]), axis=1))
    lattices = [_Lattice(code, costs, counts, by_code, 4 * y) for y in ys or (0,)]
    return [part for part in lattices if sum(part.counts)]


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
    def objective(self) -> float:
        return self.lattice.cost(self.r, self.u, self.v)

    @property
    def gap(self) -> Fraction:
        """The slice's SP gap, ``x`` split by ``z``, once the cell's flips apply."""
        return _group_gap(self.lattice.counts, self.u, self.v, False)


def _flipped_rows(cells: Sequence[_SolvedCell]) -> np.ndarray:
    """The ascending rows that one vector's solved cells, of one solve, flip.
    A cell flipping k rows takes those of its code costing less than its
    k-th least cost, then the first rows costing that: all costing at most
    it where no tie straddles the cut.  Each flipped cell reads the codes
    and costs once into one mask of every row, a straddling tie once more."""
    flipped = None
    for cell in cells:
        part = cell.lattice
        code, cost = part.code, part.costs[cell.r]
        for k, at in ((cell.u, 0 if cell.u > 0 else 1), (cell.v, 2 if cell.v > 0 else 3)):
            if not k:
                continue
            part.sums(at, abs(k))
            values, k = part.cells[at][0][cell.r], abs(k)
            kth, mine = values[k - 1], code == part.codes[at]
            straddles = k < values.size and values[k] == kth
            rows = mine & (cost < kth if straddles else cost <= kth)
            if straddles:
                rows[np.flatnonzero(mine & (cost == kth))[: k - np.count_nonzero(rows)]] = True
            flipped = rows if flipped is None else flipped | rows
    return np.zeros(0, dtype=np.int64) if flipped is None else np.flatnonzero(flipped)


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


def _nearest(sides: Sequence[tuple[int, int]], lo: int, hi: int) -> int:
    """The w in [lo, hi] nearest 0 with q*w <= c for every (q, c) with q != 0,
    or the end of that window nearest 0 if it holds none."""
    hi = min([hi] + [c // q for q, c in sides if q > 0])
    return min(max([0, lo] + [-(c // -q) for q, c in sides if q < 0]), hi)


def _column_bound(
    part: _Lattice, planes: Sequence[Plane], b: np.ndarray, r: np.ndarray
) -> tuple[Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """``bound(u, p)``, for pairs ``p`` of bound b[p] and cost row r[p] of
    ``part``: LB at columns ``u``, indexed (pair, point), and the cost of the
    cell at LB's row rounded away from zero, both in units of unit[p]; top[p],
    the pair's dearest cell's cost, beyond float rounding; and unit[p], the
    least power of two at least 1 and top[p], in which no LB overflows.
    LB(u) is column u's cost plus the row sums, interpolated, at max(lo, 0)
    and max(-hi, 0) for the continuous band's ends lo and hi, plus
    top * 2**20 + unit per row that the band lies empty beyond float error:
    convex, and no more than any cell of the column.  Past a cell's frontier
    K, S(j) reads S(K) + (j - K) * v_K, v_K the K-th least cost (0 at K = 0):
    below S(j), and convex.  Lines are anchored where they cross v = 0, so
    that float64 does not cancel; planes near vertical or masking columns
    alone are left out."""
    ulo, uhi = -part.counts[1], part.counts[0]
    lines = [(q, c, k) for q, c, k in planes if q and abs(k) <= abs(q) << 20]
    shape = len(lines), len(planes[0][1])
    anchor = [[min(max(-ci // k if k else 0, ulo), uhi) for ci in c] for q, c, k in lines]
    cross = np.array([[(ci + k * a) / q for ci, a in zip(c, us)]
                      for (q, c, k), us in zip(lines, anchor)]).reshape(shape)[:, b, None]
    anchors = np.array(anchor, dtype=np.int64).reshape(shape)[:, b, None]
    slope = np.array([k / q for q, _, k in lines])[:, None, None]
    upper = np.array([q > 0 for q, _, _ in lines], dtype=bool)
    vlo, vhi = -part.counts[3], part.counts[2]
    cost = [values.sum(axis=1) for values, _ in part.cells]
    top = (np.maximum(*cost[:2]) + np.maximum(*cost[2:]))[r]
    unit = np.ldexp(1.0, np.maximum(np.frexp(top)[1], 0))
    weight = (top / unit * 2.0**20 + 1)[:, None]
    # each pair's row offset into each cell's flattened sums; each cell's frontier K and v_K
    offsets = [r[:, None] * (m + 1) for m in part.counts]
    flat, known = [totals.ravel() for totals in part.totals], list(part.sorted)
    least = [values[r, k, None] if 0 < k < m else np.zeros((len(r), 1))
             for (values, _), k, m in zip(part.cells, known, part.counts)]

    def read(at: int, i: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Cell ``at``'s prefix sums at ``i``, past K its line, in units of unit[p]."""
        row, k, sums = offsets[at][p], known[at], flat[at]
        return (sums.take(row + np.minimum(i, k)) + np.maximum(i - k, 0) * least[at][p]) / unit[p, None]

    def bound(u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        line = cross[:, p] + slope * (u - anchors[:, p])
        lo, hi = line[~upper].max(axis=0, initial=-np.inf), line[upper].min(axis=0, initial=np.inf)
        moves = (np.maximum(u, 0), -np.minimum(u, 0), np.maximum(lo, 0.0), np.maximum(-hi, 0.0))
        # the ends are within 1 of exact for |u| < 1e8: a band empty by more holds no cell
        value = weight[p] * np.maximum(np.maximum(lo, vlo) - np.minimum(hi, vhi) - 1, 0)
        cell = 0.0
        for at, (x, end) in enumerate(zip(moves, part.counts)):
            # past the last row the last step goes on, which keeps LB convex
            k = np.minimum(x, max(end - 1, 0)).astype(np.int64)
            a, z = (read(at, i, p) for i in (k, np.minimum(k + 1, end)))
            value, cell = value + a + (x - k) * (z - a), cell + np.where(x == k, a, z)
        return value, cell

    return bound, top, unit


def _search_net_moves(
    part: _Lattice, rows: Sequence[int], planes: Sequence[Plane], group: Sequence[int]
) -> list[list[_SolvedCell | None]]:
    """For each group g of the bounds b of ``planes``, those with group[b] = g,
    and each cost row ``rows`` names, ascending: the cheapest cell of ``part``
    inside every plane at the offset c[b] of some member b, as a
    ``_SolvedCell`` counting the columns no dearer than it, or None if there is
    none.  Results are indexed [group][position in ``rows``].

    (0, 0) lies inside bound b exactly when every offset c[b] is non-negative;
    its group gets it with no window, and a lattice no bound reads sorts
    nothing.  One of at most ``_SMALL`` columns per cost row sorts its cells
    whole, and a small one takes every column in one block.  Otherwise the
    frontiers first take each window's cell nearest 0 in column 0 and in row 0,
    and each (bound, cost row) pair brackets the minimum of its
    ``_column_bound`` in rounds of ``_GRID`` points, reads the bound across the
    bracket and at doubling steps beyond, and on each side takes the columns
    short of the first point above its threshold: the cost of the cell at the
    minimum, then the best cell's, which a group's members share.  It is done
    once that cell costs no more; else the threshold rises to its cost, or with
    no cell yet to the dearest cell's.  The bound is convex, so no column past
    a stop holds a cell as cheap; the threshold's margin, relative and growing
    with n, covers float rounding in the bound and in locating its minimum.
    The columns no pair took before get exact windows in blocks of at most
    ``_MAX_BLOCK`` columns times bounds times cost rows.

    Row costs are V-shaped with minimum zero, so a column's rows inside a
    bound, one interval, offer their row nearest zero.  Ties on cost break
    on fewest total moves, then on the (column, row) pair, keeping the
    result deterministic and invariant under positive rescaling of all
    costs.  The count is that of the columns no dearer than the best
    cell, which a one-column-at-a-time best-first scan visits; so neither
    result depends on which columns were taken.
    """
    c01, c11, c00, c10 = part.counts
    ulo, uhi = -c11, c01
    pick = slice(None) if len(rows) == len(part.costs) else list(rows)
    free = {g for b, g in enumerate(group) if all(c[b] >= 0 for _, c, _ in planes)}
    best: list[list[tuple[float, int, int, int] | None]] = [[None] * len(rows) for _ in range(max(group) + 1)]

    def scan(u: np.ndarray, bs: list[int]) -> None:
        lo, hi = _rows_within(u, [(q, [c[b] for b in bs], k) for q, c, k in planes], -c10, c00)
        ok = np.flatnonzero(lo <= hi)
        # "wrap" takes each entry's position modulo u.size, back to its column
        ok_u = u.take(ok, mode="wrap")
        v = np.minimum(np.maximum(lo.ravel().take(ok), 0), hi.ravel().take(ok))
        # u ascends, so its ends are the columns read
        for at, k in ((0, u[-1]), (1, -u[0]), (2, v.max(initial=0)), (3, -v.min(initial=0))):
            part.sums(at, int(k))
        pos, neg, row_pos, row_neg = (totals[pick] for totals in part.totals)
        cost = sum(np.where(k >= 0, up.take(np.maximum(k, 0), axis=1), down.take(np.maximum(-k, 0), axis=1))
                   for up, down, k in ((pos, neg, ok_u), (row_pos, row_neg, v)))
        # ok runs bound by bound: edges delimit each bound's entries
        edges = np.searchsorted(ok, np.arange(0, lo.size + 1, lo.size // len(bs))).tolist()
        for b, start, end in zip(bs, edges, edges[1:]):
            if start == end:
                continue
            least = cost[:, start:end].min(axis=1).tolist()
            for r, key in enumerate(best[group[b]]):
                if key is not None and least[r] > key[0]:
                    continue
                tied = start + np.flatnonzero(cost[r, start:end] == least[r])
                tied_u, tied_v = ok_u[tied], v[tied]
                moves = np.abs(tied_u) + np.abs(tied_v)
                m = np.lexsort((tied_v, tied_u, moves))[0]
                new = (least[r], int(moves[m]), int(tied_u[m]), int(tied_v[m]))
                if key is None or new < key:
                    best[group[b]][r] = new

    pairs = [(b, r) for b, g in enumerate(group) if g not in free for r in range(len(rows))]
    bs = sorted({b for b, _ in pairs})
    if pairs and (uhi - ulo + 1) * len(rows) <= _SMALL:
        for at, size in enumerate(part.counts):  # so few columns that bracketing costs more
            part.sums(at, size)
    if pairs and (uhi - ulo + 1) * len(bs) * len(rows) <= min(_SMALL, _MAX_BLOCK):
        scan(np.arange(ulo, uhi + 1), bs)
    elif pairs:
        bi, ri = (np.array(side) for side in zip(*pairs))
        # the frontiers first take each bound's cells nearest 0 in column 0 and in row 0, where
        # q*v <= c + k*u reads q*v <= c and -k*u <= c: a band's cheapest cells lie between its two
        for at, lo, hi, axis in ((2, -c10, c00, 0), (0, ulo, uhi, 1)):
            near = [_nearest([(-k if axis else q, c[b]) for q, c, k in planes], lo, hi) for b in bs]
            part.sums(at, max(near))
            part.sums(at + 1, -min(near))
        bound, top, unit = _column_bound(part, planes, bi, np.array(rows)[ri])
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
            # done when the best cell is within the threshold, or it is top, or no column is left
            for p, stopped in zip(todo.tolist(), over.any(axis=1).tolist()):
                key = best[group[bi[p]]][ri[p]]
                rise = (top[p] if key is None else key[0]) / unit[p]  # in the bound's units
                if stopped and rise > threshold[p]:
                    threshold[p] = rise
                    keep.append(p)
            todo = np.array(keep, dtype=np.int64)

    def result(g: int, r: int) -> _SolvedCell | None:
        key = best[g][r]
        if g in free:
            return _SolvedCell(part, rows[r], 0, 0, 0)
        if key is None:
            return None
        scanned = part.count(0, rows[r], key[0]) + part.count(1, rows[r], key[0])
        return _SolvedCell(part, rows[r], key[2], key[3], scanned - 1)

    return [[result(g, r) for r in range(len(rows))] for g in range(len(best))]


def _solve_sp_form(
    part: _Lattice, rows: Sequence[int], epsilon: Fraction, lower: Fraction | None
) -> list[_SolvedCell]:
    """The cheapest correction of one slice's lattice, its guess split by its
    predictions, under each cost row of ``rows``; raises Infeasible for all rows
    alike.  Both groups must be present (``core``'s empty-group rule), and a
    lower bound is one group of four pieces sharing a best cell and a stop."""
    counts = c01, c11, c00, c10 = part.counts  # c[guess][prediction]
    n, n1 = sum(counts), c11 + c10
    if n < 2:
        raise Infeasible("both groups must be nonempty, impossible with n < 2")
    # both guess groups nonempty: 1 <= n1 + u + v <= n - 1
    planes = _sp_planes(counts, epsilon) + [(-1, [n1 - 1], 1), (1, [n - 1 - n1], -1)]
    if lower:
        # a gap at or above ``lower`` fails one of the four planes that hold below it
        # strictly: piece i reverses plane i and moves the others past every cell
        planes = [(q, c * 4, k) for q, c, k in planes] + [
            (-q, [-c[0] if j == i else (abs(q) + abs(k)) * n for j in range(4)], -k)
            for i, (q, c, k) in enumerate(_sp_planes(counts, lower))]
    (cells,) = _search_net_moves(part, rows, planes, [0] * len(planes[0][1]))
    if cells[0] is None:  # which cells are feasible never depends on the costs
        raise Infeasible("no move assignment satisfies the rate constraints")
    return cells


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

    The largest slice gap must reach a lower bound, so one slice carries it.
    Every slice is solved upper-only, and only the vectors that miss the
    bound are re-solved with each slice carrying it in turn, keeping the
    cheapest combination, ties to slice 0.  Which cells are feasible never
    depends on the costs, so every solve below succeeds or raises for all of
    its vectors alike; a lone slice that cannot carry the bound raises as
    its solve does.
    """
    if instance.cardinality != 2:
        raise UnsupportedCardinality("correct() handles binary guesses; use the general model")
    metric = FairnessMetric(spec.metric)
    epsilon = Fraction(spec.epsilon)
    lower = Fraction(spec.epsilon_lower) if spec.epsilon_lower else None
    lattices = _metric_lattices(metric, instance.labels, instance.guess, instance.predictions, confs)
    vectors = list(range(confs.shape[0]))
    slices = [_solve_sp_form(part, vectors, epsilon, None) for part in lattices]
    solved = [[cells[t] for cells in slices] for t in vectors]
    missed = [t for t in vectors if lower and lattices and max(c.gap for c in solved[t]) < lower]
    cost = dict.fromkeys(missed, math.inf)
    for carrier, part in enumerate(lattices if missed else []):
        try:
            forced = _solve_sp_form(part, missed, epsilon, lower)
        except Infeasible:
            if len(lattices) == 1:
                raise
            continue
        for t, cell in zip(missed, forced):
            combo = [cell if i == carrier else cells[t] for i, cells in enumerate(slices)]
            total = sum(sol.objective for sol in combo)
            if total < cost[t]:
                cost[t], solved[t] = total, combo
    if math.inf in cost.values():
        raise Infeasible("no slice can reach the required lower unfairness bound")
    return solved


def _result(guess: np.ndarray, cells: Sequence[_SolvedCell]) -> CorrectionResult:
    """The correction of ``guess``, a read-only vector handed back as it is
    when nothing flips, that the solved cells of its slices make."""
    changed, corrected = _flipped_rows(cells), guess
    if changed.size:
        corrected = np.array(guess)
        corrected[changed] = guess.take(changed) == 0
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


class RepairState:
    """A table's tolerance-free repair inputs for one metric: its slices and
    the lattice of each.  Build it once; :meth:`solve` repairs a whole list
    of tolerances at once and :meth:`apply` builds one tolerance's repaired
    predictions."""

    def __init__(
        self,
        yhat: np.ndarray,
        margins: np.ndarray,
        sensitive: np.ndarray,
        labels: np.ndarray,
        metric: FairnessMetric,
    ) -> None:
        # checked, but kept in the caller's dtype, bool included, which the repair keeps
        self.yhat = np.asarray(yhat)
        checked = [column(yhat, "predictions", high=2), column(sensitive, "sensitive", high=2),
                   column(labels, "labels", high=2), column(margins, "margins", np.float64, np.inf)]
        if len({arr.size for arr in checked}) > 1:
            raise LengthMismatch("repair columns differ in length")
        yhat, sensitive, labels, margins = checked
        self.parts = _metric_lattices(FairnessMetric(metric), labels, yhat, sensitive, margins[None])

    def solve(self, epsilons: Sequence[float]) -> list[list[_SolvedCell]]:
        """For each tolerance in ``epsilons``: the minimal repair that makes
        the metric hold within it, as one solved lattice cell per slice.
        Each slice's lattice is searched once for all tolerances."""
        if not all(0.0 <= epsilon <= 1.0 for epsilon in epsilons):
            raise BadParameters("epsilon must lie in [0, 1]")
        uppers = [Fraction(epsilon) for epsilon in epsilons]
        found = [_search_net_moves(p, [0], _repair_planes(p.counts, uppers), range(len(uppers)))
                 for p in self.parts]
        return [[cells[t][0] for cells in found] for t in range(len(uppers))]

    def apply(self, repair: list[_SolvedCell]) -> np.ndarray:
        """The predictions one result of :meth:`solve` repairs."""
        changed, repaired = _flipped_rows(repair), np.array(self.yhat)
        repaired[changed] = self.yhat.take(changed) == 0
        return repaired

    def unfairness(self, repair: list[_SolvedCell]) -> Fraction:
        """``core.unfairness_exact`` of :meth:`apply`'s predictions, from the counts."""
        if not repair:
            raise EmptySlice("metric slice contains zero examples")
        return max(_group_gap(cell.lattice.counts, cell.u, cell.v, True) for cell in repair)


def repair_predictions(
    yhat: np.ndarray,
    margins: np.ndarray,
    sensitive: np.ndarray,
    labels: np.ndarray,
    spec: FairnessSpec,
) -> np.ndarray:
    """Minimally flip predictions so that ``spec`` holds, groups held fixed.
    The repair takes an upper bound only."""
    if spec.epsilon_lower is not None:
        raise BadParameters("the prediction repair takes no lower bound")
    state = RepairState(yhat, margins, sensitive, labels, spec.metric)
    return state.apply(state.solve([spec.epsilon])[0])

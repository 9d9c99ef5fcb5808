"""Reference implementation: the column-at-a-time net-move sweep.

This is the scalar engine the package shipped before the block-wise
vectorised sweep, kept verbatim as the cross-check reference.  Every window
is derived independently of the package: the corrector's in terms of the
group-1 size, the repair's by tightening one linear constraint at a time.
``solve_sp_form`` has the signature of ``fairleak.corrector._solve_sp_form``
and ``repair_slice_state`` that of ``fairleak.harness.predictor._repair_slice``
(``repair_slice`` on one prepared slice), so a test can swap them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from fairleak.corrector import CostArrays, GroupTallies, MoveCounts
from fairleak.errors import Infeasible
from fairleak.harness.predictor import _RepairSlice


@dataclass(frozen=True, eq=False)
class SideCosts:
    """V-shaped cost of a signed move count, held as two prefix arrays."""

    pos: np.ndarray
    neg: np.ndarray

    @property
    def lo(self) -> int:
        return -(self.neg.size - 1)

    @property
    def hi(self) -> int:
        return self.pos.size - 1

    def cost(self, v: int) -> float:
        return float(self.pos[v]) if v >= 0 else float(self.neg[-v])

    def ascending(self) -> Iterator[tuple[int, float]]:
        """Yield (value, cost) over the full signed domain, cheapest first."""
        i, j = 0, 1
        while i < self.pos.size or j < self.neg.size:
            if j >= self.neg.size or (i < self.pos.size and self.pos[i] <= self.neg[j]):
                yield i, float(self.pos[i])
                i += 1
            else:
                yield -j, float(self.neg[j])
                j += 1


IntervalFn = Callable[[int], tuple[tuple[int, int], ...]]


def sweep_net_moves(
    col: SideCosts, row: SideCosts, feasible_rows: IntervalFn
) -> tuple[tuple[int, int], int] | tuple[None, int]:
    """Best-first scan over net-move columns, one column at a time.

    Ties on cost break on fewest total moves, then on the (column, row) pair.
    """
    best_key: tuple[float, int, int, int] | None = None
    columns = 0
    for u, cu in col.ascending():
        if best_key is not None and cu > best_key[0]:
            break
        columns += 1
        for lo, hi in feasible_rows(u):
            lo = max(lo, row.lo)
            hi = min(hi, row.hi)
            if lo > hi:
                continue
            v = min(max(lo, 0), hi)
            key = (cu + row.cost(v), abs(u) + abs(v), u, v)
            if best_key is None or key < best_key:
                best_key = key
    if best_key is None:
        return None, columns
    return (best_key[2], best_key[3]), columns


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _sp_g1_window(p1, p0, n, pos_total, num, den):
    a = pos_total * den + num * n
    b = pos_total * den - num * n
    lo, hi = 1, n - 1
    t1 = p1 * n * den
    t0 = p0 * n * den
    if a > 0:
        lo = max(lo, _ceil_div(t1, a))
        hi = min(hi, n - _ceil_div(t0, a))
    elif t1 > 0 or t0 > 0:
        return None
    if b > 0:
        hi = min(hi, t1 // b)
        lo = max(lo, n - t0 // b)
    if lo > hi:
        return None
    return lo, hi


def _sp_g1_strict_inside(p1, p0, n, pos_total, num, den):
    a = pos_total * den + num * n
    b = pos_total * den - num * n
    t1 = p1 * n * den
    t0 = p0 * n * den
    lo = max(1, t1 // a + 1)
    hi = min(n - 1, n - (t0 // a + 1))
    if b > 0:
        hi = min(hi, _ceil_div(t1, b) - 1)
        lo = max(lo, n - (_ceil_div(t0, b) - 1))
    elif b == 0 and (t1 == 0 or t0 == 0):
        return None
    if lo > hi:
        return None
    return lo, hi


def _carve(lo, hi, inside):
    if inside is None:
        return ((lo, hi),)
    ilo, ihi = inside
    pieces = []
    if lo <= min(hi, ilo - 1):
        pieces.append((lo, min(hi, ilo - 1)))
    if max(lo, ihi + 1) <= hi:
        pieces.append((max(lo, ihi + 1), hi))
    return tuple(pieces)


def solve_sp_form(
    tallies: GroupTallies,
    costs: CostArrays,
    total_positive: int,
    n: int,
    epsilon: Fraction,
    lower: Fraction | None,
    memo: object = None,
) -> tuple[MoveCounts, int]:
    # ``memo`` carries the package sweep's window pieces; this sweep keeps none
    if n < 2:
        raise Infeasible("both groups must be nonempty, impossible with n < 2")
    n1 = tallies.n1_pos + tallies.n1_neg
    en, ed = epsilon.numerator, epsilon.denominator
    if lower is not None and lower > 0:
        ln, ld = lower.numerator, lower.denominator
    else:
        ln = ld = 0

    def feasible_rows(u):
        p1 = tallies.n1_pos + u
        p0 = tallies.n0_pos - u
        window = _sp_g1_window(p1, p0, n, total_positive, en, ed)
        if window is None:
            return ()
        vlo = window[0] - n1 - u
        vhi = window[1] - n1 - u
        if ld == 0:
            return ((vlo, vhi),)
        inside = _sp_g1_strict_inside(p1, p0, n, total_positive, ln, ld)
        if inside is not None:
            inside = (inside[0] - n1 - u, inside[1] - n1 - u)
        return _carve(vlo, vhi, inside)

    col = SideCosts(pos=costs.t0_pos, neg=costs.t1_pos)
    row = SideCosts(pos=costs.t0_neg, neg=costs.t1_neg)
    if any(lo <= 0 <= hi for lo, hi in feasible_rows(0)):
        return MoveCounts(0, 0, 0, 0), 0
    state, columns = sweep_net_moves(col, row, feasible_rows)
    if state is None:
        raise Infeasible("no move assignment satisfies the rate constraints")
    u, v = state
    return MoveCounts(max(u, 0), max(-u, 0), max(v, 0), max(-v, 0)), columns


def _tighten(a, b, lo, hi, strict=False):
    """Tighten [lo, hi] with the constraint a*v + b >= 0 (> 0 when strict)."""
    if a > 0:
        lo = max(lo, (-b) // a + 1 if strict else -(b // a))
    elif a < 0:
        hi = min(hi, -((-b) // (-a)) - 1 if strict else (-b) // a)
    elif (b < 0) or (strict and b == 0):
        return 1, 0
    return lo, hi


def _prefix(margins, idx):
    order = idx[np.argsort(margins[idx], kind="stable")]
    return np.concatenate(([0.0], np.cumsum(margins[order]))), order


def repair_slice(
    yhat: np.ndarray,
    margins: np.ndarray,
    sensitive: np.ndarray,
    idx: np.ndarray,
    epsilon: Fraction,
    lower: Fraction | None,
) -> _RepairSlice:
    sub_y = yhat[idx]
    sub_s = sensitive[idx]
    n = idx.size
    n1 = int(np.count_nonzero(sub_s == 1))
    n0 = n - n1
    if n1 == 0 or n0 == 0:
        return _RepairSlice(sub_y.copy(), np.zeros(0, dtype=np.int64), 0.0)
    pos1 = int(np.count_nonzero(sub_y[sub_s == 1]))
    pos0 = int(np.count_nonzero(sub_y[sub_s == 0]))
    tot = pos1 + pos0
    en, ed = epsilon.numerator, epsilon.denominator
    if lower is not None and lower > 0:
        ln, ld = lower.numerator, lower.denominator
    else:
        ln = ld = 0

    local = np.arange(n)
    up1, up1_order = _prefix(margins[idx], local[(sub_s == 1) & (sub_y == 0)])
    down1, down1_order = _prefix(margins[idx], local[(sub_s == 1) & (sub_y == 1)])
    up0, up0_order = _prefix(margins[idx], local[(sub_s == 0) & (sub_y == 0)])
    down0, down0_order = _prefix(margins[idx], local[(sub_s == 0) & (sub_y == 1)])

    def window(u, num, den, strict):
        t = tot + u
        p1 = pos1 + u
        lo, hi = -pos0, n0 - pos0
        c1 = (t * n1 - p1 * n) * den
        lo, hi = _tighten(n1 * den, num * n * n1 + c1, lo, hi, strict)
        lo, hi = _tighten(-n1 * den, num * n * n1 - c1, lo, hi, strict)
        c0 = (t * n0 - pos0 * n) * den
        slope = (n0 - n) * den
        lo, hi = _tighten(slope, num * n * n0 + c0, lo, hi, strict)
        lo, hi = _tighten(-slope, num * n * n0 - c0, lo, hi, strict)
        return lo, hi

    def feasible_rows(u):
        lo, hi = window(u, en, ed, strict=False)
        if lo > hi:
            return ()
        if ld == 0:
            return ((lo, hi),)
        ilo, ihi = window(u, ln, ld, strict=True)
        return _carve(lo, hi, None if ilo > ihi else (ilo, ihi))

    if any(lo <= 0 <= hi for lo, hi in feasible_rows(0)):
        return _RepairSlice(sub_y.copy(), np.zeros(0, dtype=np.int64), 0.0)

    col = SideCosts(pos=up1, neg=down1)
    row = SideCosts(pos=up0, neg=down0)
    state, _ = sweep_net_moves(col, row, feasible_rows)
    if state is None:
        raise Infeasible("no prediction repair satisfies the constraint")
    k1, k0 = state
    repaired = sub_y.copy()
    flips = []
    for k, order_up, order_down in ((k1, up1_order, down1_order), (k0, up0_order, down0_order)):
        if k > 0:
            sel = order_up[:k]
            repaired[sel] = 1
        elif k < 0:
            sel = order_down[:-k]
            repaired[sel] = 0
        else:
            continue
        flips.append(sel)
    flipped = np.sort(np.concatenate(flips)) if flips else np.zeros(0, dtype=np.int64)
    cost = float(margins[idx][flipped].sum()) if flipped.size else 0.0
    return _RepairSlice(repaired, flipped, cost)


def repair_slice_state(part, epsilon: Fraction, lower: Fraction | None) -> _RepairSlice:
    """``repair_slice`` on a slice the package prepared: only its raw
    predictions, margins and groups are read, never its sorted costs."""
    local = np.arange(part.yhat.size)
    return repair_slice(part.yhat, part.margins, part.sensitive, local, epsilon, lower)

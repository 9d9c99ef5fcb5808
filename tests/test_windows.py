"""Every net-move half-plane against the definition of the gap it bounds.

Both solvers hand ``search_net_moves`` half-planes of the cells (u, v): for
each bound, the cells whose gaps are within it, and for a lower bound, the
cells whose gaps are all strictly below it.  ``_rows_within`` turns them
into each column's rows.  For every column of small lattices, every bound
and both strictnesses, the plane builders ``_sp_planes`` and
``_repair_planes`` must hold exactly the rows whose cell meets the bound by
``core.unfairness_exact``, the corrector's only where both guess groups are
nonempty.  A spy also captures each search the solvers make and checks its
planes at the solver's own bounds the same way.  The solvers judge the
origin from the lattice's counts, with no window; the spy checks each
verdict against the planes at column 0 and against the same definition.
"""

from fractions import Fraction

import numpy as np

from fairleak import corrector
from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec, unfairness_exact
from fairleak.corrector import _repair_planes, _rows_within, _sp_planes, correct
from fairleak.errors import Infeasible
from fairleak.harness.predictor import RepairState

SP = FairnessMetric.SP


def _cell(part, u, v):
    """The lattice's two vectors after cell (u, v), rebuilt from its cells'
    indices: x the flipped vector, z the one that splits it."""
    zeros1, ones1, zeros0, ones0 = (idx.size for *_, idx in part.cells)
    z1, z0 = zeros1 + ones1, zeros0 + ones0
    # column u turns u zeros into ones where z = 1 (ones into zeros when
    # negative), row v the same where z = 0; which entries move is immaterial
    x = [1] * (ones1 + u) + [0] * (z1 - ones1 - u) + [1] * (ones0 + v) + [0] * (z0 - ones0 - v)
    return np.array(x), np.array([1] * z1 + [0] * z0)


def _corrector_gap(part, u, v):
    # the guess x is the group vector, the predictions z the outcome
    x, z = _cell(part, u, v)
    return unfairness_exact(SP, x, z) if 0 < x.sum() < x.size else None


def _repair_gap(part, u, v):
    # the predictions x are the outcome, the groups z fixed
    x, z = _cell(part, u, v)
    return unfairness_exact(SP, z, x)


def _ends(part):
    """The lattice's lowest and highest column, then row, from the sizes of
    its cells: a column's up flips are its zeros, its down flips its ones."""
    zeros1, ones1, zeros0, ones0 = (idx.size for *_, idx in part.cells)
    return -ones1, zeros1, -ones0, zeros0


def _groups(part):
    """The corrector's half-planes where both guess groups are nonempty:
    1 <= n1 + u + v <= n - 1."""
    c01, c11, c00, c10 = part.counts
    n, n1 = sum(part.counts), c11 + c10
    return [(-1, [n1 - 1], 1), (1, [n - 1 - n1], -1)]


def _window(part, planes, strict, us, groups=()):
    """Each column's rows inside ``planes``, strictly when ``strict``, and
    inside ``groups`` either way."""
    _, _, v_lo, v_hi = _ends(part)
    lo, hi = _rows_within(us, planes, strict, v_lo, v_hi)
    if groups:
        glo, ghi = _rows_within(us, list(groups), False, v_lo, v_hi)
        lo, hi = np.maximum(lo, glo), np.minimum(hi, ghi)
    return lo, hi


def _check_planes(part, planes_for, gap, batch, groups=()):
    """Compare the planes ``planes_for(bounds)`` builds with ``gap`` on every
    cell of the lattice; when ``batch``, also build all bounds at once over
    one denominator."""
    u_lo, u_hi, v_lo, v_hi = _ends(part)
    us = np.arange(u_lo, u_hi + 1)
    vs = range(v_lo, v_hi + 1)
    gaps = {(u, v): gap(part, u, v) for u in us.tolist() for v in vs}
    n = u_hi - u_lo + v_hi - v_lo
    z1 = u_hi - u_lo
    # every gap a cell reaches puts a bound exactly on a window end; z1/n is
    # the overall rate, where the corrector's planes lose their slope in v
    bounds = sorted(
        {g for g in gaps.values() if g is not None}
        | {Fraction(0), Fraction(z1, n), Fraction(1, 3), Fraction(0.01), Fraction(1)}
    )
    for strict in (False, True):
        for bound in bounds:
            _check_window(part, gaps, us, [bound], planes_for([bound]), strict, groups)
        if batch:
            _check_window(part, gaps, us, bounds, planes_for(bounds), strict, groups)


def _check_window(part, gaps, us, bounds, planes, strict, groups=()):
    """The rows ``planes`` hold at each column, one list per bound, against
    the cells whose gap meets that bound."""
    _, _, v_lo, v_hi = _ends(part)
    lo, hi = _window(part, planes, strict, us, groups)
    assert lo.shape == hi.shape == (len(bounds), us.size)
    for r, bound in enumerate(bounds):
        for k, u in enumerate(us.tolist()):
            want = [
                v
                for v in range(v_lo, v_hi + 1)
                if gaps[u, v] is not None and (gaps[u, v] < bound if strict else gaps[u, v] <= bound)
            ]
            got = list(range(max(int(lo[r, k]), v_lo), min(int(hi[r, k]), v_hi) + 1))
            assert got == want, (u, bound, strict)


def _check_search(part, gap, planes, carve, origin, bounds, lower):
    """The planes a search was handed, at the solver's own ``bounds`` and
    ``lower``, against ``gap``; and the caller's verdict on cell (0, 0)
    under each bound against the planes at column 0, carve-out included,
    and against ``gap``.  Returns the verdicts."""
    u_lo, u_hi, v_lo, v_hi = _ends(part)
    us = np.arange(u_lo, u_hi + 1)
    gaps = {(u, v): gap(part, u, v) for u in us.tolist() for v in range(v_lo, v_hi + 1)}
    _check_window(part, gaps, us, bounds, planes, False)
    if carve:
        # the carved rows: every gap strictly below the lower bound
        groups = _groups(part) if gap is _corrector_gap else ()
        _check_window(part, gaps, us, [lower], carve, True, groups)
    lo, hi = _window(part, planes, False, np.zeros(1, dtype=np.int64))
    inside = (np.maximum(lo, v_lo) <= 0) & (0 <= np.minimum(hi, v_hi))
    if carve:
        ilo, ihi = _window(part, carve, True, np.zeros(1, dtype=np.int64))
        inside &= ~((ilo <= 0) & (0 <= ihi))
    assert list(origin) == inside[:, 0].tolist()
    at = gap(part, 0, 0)
    assert list(origin) == [
        at is not None and bound >= at and not (lower is not None and at < lower)
        for bound in bounds
    ]
    return list(origin)


def _captured(monkeypatch, run):
    """The arguments (lattice, planes, carve, origin) of every search ``run``
    makes through ``corrector.search_net_moves``."""
    seen = []
    real = corrector.search_net_moves

    def spy(part, rows, planes, carve, origin):
        seen.append((part, planes, carve, origin))
        return real(part, rows, planes, carve, origin)

    with monkeypatch.context() as patch:
        patch.setattr(corrector, "search_net_moves", spy)
        try:
            run()
        except Infeasible:
            pass
    return seen


def _guess_cases(rng):
    """(predictions, guess) pairs: random ones and the edge cases."""
    for n in range(2, 13):
        for _ in range(6):
            yield rng.integers(0, 2, n), rng.integers(0, 2, n)
        # guess groups of one member
        one = np.zeros(n, dtype=np.int64)
        one[rng.integers(n)] = 1
        yield rng.integers(0, 2, n), one
        yield rng.integers(0, 2, n), 1 - one
        # no positive prediction, and only positive ones
        yield np.zeros(n, dtype=np.int64), rng.integers(0, 2, n)
        yield np.ones(n, dtype=np.int64), rng.integers(0, 2, n)
        # one guess group: n1 = 0 and n1 = n
        yield rng.integers(0, 2, n), np.zeros(n, dtype=np.int64)
        yield rng.integers(0, 2, n), np.ones(n, dtype=np.int64)


def _group_cases(rng):
    """(predictions, groups) pairs: random ones and the edge cases."""
    for n in range(2, 13):
        for _ in range(6):
            yield rng.integers(0, 2, n), rng.integers(0, 2, n)
        # sensitive groups of one member
        one = np.zeros(n, dtype=np.int64)
        one[rng.integers(n)] = 1
        yield rng.integers(0, 2, n), one
        yield rng.integers(0, 2, n), 1 - one
        yield np.zeros(n, dtype=np.int64), one
        yield np.ones(n, dtype=np.int64), rng.integers(0, 2, n)


class TestWindowsMatchTheDefinition:
    def test_corrector(self, monkeypatch, rng):
        searched = carved = 0
        verdicts = []
        for yhat, guess in _guess_cases(rng):
            n = yhat.size
            inst = AttackInstance(yhat, rng.integers(0, 2, n), guess, rng.random(n))
            for metric, eps, lower in (
                (SP, 0.0, None),
                (FairnessMetric.EODDS, 0.1, None),
                (SP, 0.3, 0.1),
                (FairnessMetric.EODDS, 0.5, 0.2),
            ):
                spec = FairnessSpec(metric, eps, lower)
                for part, planes, carve, origin in _captured(
                    monkeypatch, lambda: correct(inst, spec)
                ):
                    _check_planes(
                        part, lambda bounds: _sp_planes(part.counts, *bounds), _corrector_gap,
                        batch=False, groups=_groups(part),
                    )
                    # a search carries the lower bound, or none: the EOdds carrier
                    low = Fraction(lower) if carve else None
                    verdicts += _check_search(
                        part, _corrector_gap, planes, carve, origin, [Fraction(eps)], low
                    )
                    searched += 1
                    carved += bool(carve)
        assert searched > 300 and carved > 100
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

    def test_repair(self, monkeypatch, rng):
        searched = 0
        verdicts = []
        # one search per slice answers the whole grid, each tolerance with its
        # own verdict on the origin
        grid = [0.0, 0.05, 0.2, 1 / 3, 1.0]
        for yhat, sensitive in _group_cases(rng):
            n = yhat.size
            labels = rng.integers(0, 2, n)
            for metric in (SP, FairnessMetric.EODDS):
                state = RepairState(yhat, rng.random(n), sensitive, labels, metric)
                for part, planes, carve, origin in _captured(
                    monkeypatch, lambda: state.solve(grid)
                ):
                    _check_planes(
                        part, lambda bounds: _repair_planes(part.counts, bounds), _repair_gap,
                        batch=True,
                    )
                    assert carve == []
                    bounds = [Fraction(epsilon) for epsilon in grid]
                    verdicts += _check_search(part, _repair_gap, planes, carve, origin, bounds, None)
                    searched += 1
        assert searched > 150
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

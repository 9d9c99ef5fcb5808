"""Every net-move window against the definition of the gap it bounds.

Both solvers hand ``search_net_moves`` a window function: for a block of
columns u and a list of bounds, the rows v whose cell keeps the group gaps
within each bound, or strictly below it.  A spy captures each window the
solvers build on small lattices, and for every column, every bound and both
strictnesses, the window must hold exactly the rows whose cell meets the
bound by ``core.unfairness_exact``, and for the corrector also leaves both
guess groups nonempty.  The solvers judge the origin from the lattice's
counts, with no window; the spy checks each verdict against the window at
column 0 and against the same definition.
"""

import math
from fractions import Fraction

import numpy as np

from fairleak import corrector
from fairleak.core import AttackInstance, FairnessMetric, FairnessSpec, unfairness_exact
from fairleak.corrector import correct
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


def _check_windows(part, window, gap, batch):
    """Compare ``window`` with ``gap`` on every cell of the lattice; when
    ``batch``, also pass all bounds at once over one denominator."""
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

    def want(u, bound, strict):
        return [
            v
            for v in vs
            if gaps[u, v] is not None and (gaps[u, v] < bound if strict else gaps[u, v] <= bound)
        ]

    def got(lo, hi):
        return list(range(max(int(lo), v_lo), min(int(hi), v_hi) + 1))

    den = math.lcm(*(bound.denominator for bound in bounds))
    nums = [bound.numerator * (den // bound.denominator) for bound in bounds]
    for strict in (False, True):
        for bound in bounds:
            lo, hi = window(us, [bound.numerator], bound.denominator, strict)
            assert lo.shape == hi.shape == (1, us.size)
            for k, u in enumerate(us.tolist()):
                assert got(lo[0, k], hi[0, k]) == want(u, bound, strict), (u, bound, strict)
        if batch:
            lo, hi = window(us, nums, den, strict)
            assert lo.shape == hi.shape == (len(bounds), us.size)
            for r, bound in enumerate(bounds):
                for k, u in enumerate(us.tolist()):
                    assert got(lo[r, k], hi[r, k]) == want(u, bound, strict)


def _check_origin(part, window, gap, bounds, lower, origin):
    """Compare the caller's verdict on cell (0, 0) under each bound with the
    window's at column 0, carve-out included, and with ``gap``; return it."""
    _, _, v_lo, v_hi = _ends(part)
    den = math.lcm(*(bound.denominator for bound in bounds))
    nums = [bound.numerator * (den // bound.denominator) for bound in bounds]
    lo, hi = window(np.zeros(1, dtype=np.int64), nums, den, False)
    inside = (np.maximum(lo, v_lo) <= 0) & (0 <= np.minimum(hi, v_hi))
    if lower is not None and lower > 0:
        ilo, ihi = window(np.zeros(1, dtype=np.int64), [lower.numerator], lower.denominator, True)
        inside &= ~((ilo <= 0) & (0 <= ihi))
    assert list(origin) == inside[:, 0].tolist()
    at = gap(part, 0, 0)
    assert list(origin) == [
        at is not None and bound >= at and not (lower is not None and at < lower)
        for bound in bounds
    ]
    return list(origin)


def _captured(monkeypatch, run):
    """The arguments (lattice, window, bounds, lower, origin) of every search
    ``run`` makes through ``corrector.search_net_moves``."""
    seen = []
    real = corrector.search_net_moves

    def spy(part, rows, window, bounds, lower, origin):
        seen.append((part, window, bounds, lower, origin))
        return real(part, rows, window, bounds, lower, origin)

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
                for part, window, bounds, low, origin in _captured(
                    monkeypatch, lambda: correct(inst, spec)
                ):
                    _check_windows(part, window, _corrector_gap, batch=False)
                    verdicts += _check_origin(part, window, _corrector_gap, bounds, low, origin)
                    searched += 1
                    carved += low is not None
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
                for part, window, bounds, lower, origin in _captured(
                    monkeypatch, lambda: state.solve(grid)
                ):
                    _check_windows(part, window, _repair_gap, batch=True)
                    verdicts += _check_origin(part, window, _repair_gap, bounds, lower, origin)
                    searched += 1
        assert searched > 150
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

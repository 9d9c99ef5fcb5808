"""Cross-check of the net-move search's bound groups.

A lower bound reaches ``_solve_sp_form`` as four convex pieces, which the
search answers as one group: the pieces share each cost row's best cell and
the threshold that stops them.  The reference searches each piece as a group
of its own and keeps each row's least cell over the pieces by the search's
key (objective, moves, column, row).  Both must give the same cells, the
same infeasibility, and the group no more window products than its pieces.
"""

from fractions import Fraction

import numpy as np
import pytest

from fairleak import corrector
from fairleak.adversary import DEFAULT_K_GRID, shape_confidences
from fairleak.core import FairnessMetric
from fairleak.corrector import _metric_lattices, _solve_sp_form
from fairleak.errors import Infeasible


def _pieces_alone(search):
    """``search`` with each bound a group of its own, then each group's least
    cell per cost row over its members' cells."""

    def reference(part, rows, planes, group):
        alone = search(part, rows, planes, range(len(group)))
        found = []
        for g in range(max(group) + 1):
            pieces = [alone[b] for b, of in enumerate(group) if of == g and alone[b][0] is not None]
            found.append([min(cells, key=lambda c: (c.objective, abs(c.u) + abs(c.v), c.u, c.v))
                          for cells in zip(*pieces)] if pieces else [None] * len(rows))
        return found

    return reference


def _costs(rng, n, rows, style):
    """Tied costs, or k-selection's shaped ones, whose least scores tie at
    the confidence floor."""
    if style == "tied":
        return np.stack([rng.integers(0, 3, n) / 2.0 for _ in range(rows - 1)] + [np.ones(n)])
    raw = 0.5 + rng.integers(0, 40, n) / 80.0
    return np.stack([shape_confidences(raw, k) for k in DEFAULT_K_GRID[-rows:]])


def _solves(monkeypatch, args, epsilon, lower, search):
    """Every slice's ``_solve_sp_form`` through ``search`` on fresh lattices:
    each as its cells' (r, u, v, columns) or its error's message, and the
    window products, columns times bounds, computed."""
    windows, rows_within = [], corrector._rows_within

    def spy(u, planes, lo, hi):
        windows.append(u.size * len(planes[0][1]))
        return rows_within(u, planes, lo, hi)

    outcomes = []
    with monkeypatch.context() as patch:
        patch.setattr(corrector, "_search_net_moves", search)
        patch.setattr(corrector, "_rows_within", spy)
        for part in _metric_lattices(*args):
            try:
                cells = _solve_sp_form(part, range(len(part.costs)), epsilon, lower)
                outcomes.append([(c.r, c.u, c.v, c.columns) for c in cells])
            except Infeasible as error:
                outcomes.append(str(error))
    return outcomes, sum(windows)


@pytest.mark.parametrize("small", [0, corrector._SMALL])
def test_groups_answer_as_their_pieces_alone(monkeypatch, rng, small):
    monkeypatch.setattr(corrector, "_SMALL", small)
    search = corrector._search_net_moves
    reference = _pieces_alone(search)
    solved = infeasible = fewer = 0
    for trial in range(240):
        n = int(rng.choice([4, 12, 60, 400, 3000, 20000]))
        yhat = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
        guess = np.where(rng.random(n) < rng.uniform(0, 0.6), yhat, rng.integers(0, 2, n))
        costs = _costs(rng, n, (1, 6)[trial % 2], ("tied", "shaped")[trial // 2 % 2])
        args = (list(FairnessMetric)[trial // 4 % 4], rng.integers(0, 2, n), guess, yhat, costs)
        epsilon = (0.01, 0.05, 0.15, 0.3)[trial // 16 % 4]
        lower = epsilon * (0.5, 0.97, 1.0)[trial % 3]
        epsilon, lower = Fraction(epsilon), Fraction(lower)
        grouped, windows = _solves(monkeypatch, args, epsilon, lower, search)
        alone, alone_windows = _solves(monkeypatch, args, epsilon, lower, reference)
        assert grouped == alone
        assert windows <= alone_windows
        fewer += windows < alone_windows
        solved += sum(isinstance(cells, list) for cells in grouped)
        infeasible += sum(isinstance(cells, str) for cells in grouped)
    assert solved > 20 and infeasible > 20 and fewer > 5

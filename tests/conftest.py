from fractions import Fraction

import numpy as np
import pytest

from fairleak.core import AttackInstance, CorrectionResult, FairnessSpec, unfairness_exact
from fairleak.corrector import _result, _solve_rows


def meets_spec(spec: FairnessSpec, s, yhat, y=None) -> bool:
    """Whether groups ``s`` meet ``spec`` exactly: the unfairness of ``yhat``
    is at most epsilon and, when the spec sets one, at least epsilon_lower."""
    value = unfairness_exact(spec.metric, s, yhat, y)
    if spec.epsilon_lower is not None and value < Fraction(spec.epsilon_lower):
        return False
    return value <= Fraction(spec.epsilon)


def solve_each(instance: AttackInstance, spec: FairnessSpec, vectors) -> list[CorrectionResult]:
    """The corrector's one batched solve of ``instance`` under each confidence
    vector, each built into the result ``correct`` gives on the instance
    carrying that vector."""
    confs = np.array(vectors, dtype=np.float64).reshape(len(vectors), instance.n)
    return [_result(instance.guess, cells) for cells in _solve_rows(instance, spec, confs)]


def whole_sums(part) -> list[np.ndarray]:
    """A lattice's four cells' prefix sums over each whole cell, one row per
    cost row: the up and down flips of the column, then of the row.  The
    read moves every frontier to its cell's end, so each cell's values come
    sorted too."""
    return [part.sums(at, size) for at, size in enumerate(part.counts)]


def random_instance(
    rng: np.random.Generator,
    n: int | None = None,
    cardinality: int = 2,
    confidence_style: str | None = None,
    max_n: int = 14,
) -> AttackInstance:
    """A random instance; confidence styles rotate through uniform reals,
    the identity vector and coarse ties."""
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    style = confidence_style or rng.choice(["uniform", "identity", "ties"])
    if style == "identity":
        conf = np.ones(n)
    elif style == "ties":
        conf = rng.integers(0, 4, n) / 2.0
    else:
        conf = rng.random(n)
    return AttackInstance(
        predictions=rng.integers(0, 2, n),
        labels=rng.integers(0, 2, n),
        guess=rng.integers(0, cardinality, n),
        confidence=conf,
        truth=rng.integers(0, cardinality, n),
        cardinality=cardinality,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

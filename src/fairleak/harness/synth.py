"""Synthetic benchmark generator.

The sensitive bit is drawn first; two features are then drawn from
class-conditional distributions whose separation is set by ``rho`` (0 makes
them identical, 1 makes them disjoint), so a categorical naive Bayes attack
model is well specified and its confidence scores are calibrated.  Labels
follow two other features plus a bias term attached to the sensitive-linked
features and scaled by ``beta``; the bias therefore vanishes both when
``beta`` is 0 and when ``rho`` is 0, keeping the two knobs independent.
The remaining features are noise.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadParameters
from .data import CATEGORICAL, DatasetTable, FeatureColumn

N_FEATURES = 6
FEATURE_CARDINALITY = 4
_LABEL_BASE = 0.15
_LABEL_SIGNAL = 0.60
_LABEL_BIAS = 0.30
_TILT = np.array([0.0, 0.0, 0.5, 0.5])


def _sample_tilted(rng: np.random.Generator, s: np.ndarray, rho: float) -> np.ndarray:
    """Draw one feature column from the class-conditional distributions."""
    uniform = np.full(FEATURE_CARDINALITY, 1.0 / FEATURE_CARDINALITY)
    p_high = (1.0 - rho) * uniform + rho * _TILT
    p_low = (1.0 - rho) * uniform + rho * _TILT[::-1]
    cdf_high = np.cumsum(p_high)
    cdf_low = np.cumsum(p_low)
    draws = rng.random(s.size)
    high = np.searchsorted(cdf_high, draws, side="right")
    low = np.searchsorted(cdf_low, draws, side="right")
    return np.where(s == 1, high, low).astype(np.int64)


def synth_generate(
    n: int, seed: int = 0, rho: float = 0.6, beta: float = 0.5
) -> DatasetTable:
    """Generate a deterministic synthetic dataset of ``n`` rows."""
    if n < 10:
        raise BadParameters("n must be at least 10")
    if n >= 2**58:
        # numpy refuses an (n, 4) int64 draw past 2**63 bytes
        raise BadParameters("n must be below 2**58")
    if seed < 0:
        raise BadParameters("seed must be non-negative")
    if not 0.0 <= rho <= 1.0:
        raise BadParameters("rho must lie in [0, 1]")
    if not 0.0 <= beta <= 1.0:
        raise BadParameters("beta must lie in [0, 1]")
    rng = np.random.default_rng(seed)

    sensitive = rng.integers(0, 2, size=n)
    f0 = _sample_tilted(rng, sensitive, rho)
    f1 = _sample_tilted(rng, sensitive, rho)
    rest = rng.integers(0, FEATURE_CARDINALITY, size=(n, N_FEATURES - 2))
    f2, f3, f4 = rest[:, 0], rest[:, 1], rest[:, 2]

    p_label = np.clip(
        _LABEL_BASE
        + _LABEL_SIGNAL * (f2 + f3 + f4) / (3 * (FEATURE_CARDINALITY - 1))
        + _LABEL_BIAS * beta * (f0 + f1 - (FEATURE_CARDINALITY - 1)) / (FEATURE_CARDINALITY - 1),
        0.02,
        0.98,
    )
    labels = (rng.random(n) < p_label).astype(np.int64)

    values = [f0, f1] + [rest[:, j] for j in range(N_FEATURES - 2)]
    features = {
        f"f{j}": FeatureColumn(CATEGORICAL, col) for j, col in enumerate(values)
    }
    return DatasetTable(
        ids=np.arange(n, dtype=np.int64),
        features=features,
        sensitive=sensitive,
        labels=labels,
        predictions=None,
        sensitive_cardinality=2,
    )

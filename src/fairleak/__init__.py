"""Correct a sensitive-attribute reconstruction to match a model's released
statistical-fairness guarantee, and benchmark the surrounding attack pipeline.
"""

from . import errors, harness
from .adversary import (
    DEFAULT_K_GRID,
    MODE_A,
    MODE_A_PRIME,
    AttackModel,
    AttackSet,
    BaselineGuess,
    predict_guess,
    process_confidences,
    shape_confidences,
    train_baseline,
)
from .core import (
    AttackInstance,
    CorrectionResult,
    FairnessMetric,
    FairnessSpec,
    MoveCounts,
    SolverStats,
    reconstruction_accuracy,
    slice_for_metric,
    unfairness,
    unfairness_exact,
)
from .corrector import correct
from .estimator import EstimatedConstraint, estimate_constraint
from .oracle import solve_general_bruteforce

__version__ = "0.1.0"

__all__ = [
    "AttackInstance",
    "AttackModel",
    "AttackSet",
    "BaselineGuess",
    "CorrectionResult",
    "DEFAULT_K_GRID",
    "EstimatedConstraint",
    "FairnessMetric",
    "FairnessSpec",
    "MODE_A",
    "MODE_A_PRIME",
    "MoveCounts",
    "SolverStats",
    "correct",
    "errors",
    "estimate_constraint",
    "harness",
    "predict_guess",
    "process_confidences",
    "reconstruction_accuracy",
    "shape_confidences",
    "slice_for_metric",
    "solve_general_bruteforce",
    "train_baseline",
    "unfairness",
    "unfairness_exact",
]

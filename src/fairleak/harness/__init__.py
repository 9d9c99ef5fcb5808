"""End-to-end pipeline: data handling, synthetic benchmark, experiments."""

from ..corrector import repair_predictions
from .data import (
    CATEGORICAL,
    NUMERIC,
    DatasetSchema,
    DatasetTable,
    FeatureColumn,
    ingest_csv,
    split_dataset,
    write_dataset_csv,
)
from .experiment import (
    DEFAULT_EPSILON_GRID,
    MODE_EXTERNAL,
    ExperimentConfig,
    ExperimentReport,
    REPORT_COLUMNS,
    ReportRow,
    emit_report,
    run_benchmark,
    run_experiment,
)
from .instances import ExternalGuess, read_guess_csv, read_instance_csv, write_correction_csv
from .predictor import LabelPredictor, fit_label_predictor
from .synth import synth_generate

__all__ = [
    "CATEGORICAL",
    "NUMERIC",
    "DEFAULT_EPSILON_GRID",
    "MODE_EXTERNAL",
    "DatasetSchema",
    "DatasetTable",
    "ExperimentConfig",
    "ExperimentReport",
    "ExternalGuess",
    "FeatureColumn",
    "LabelPredictor",
    "REPORT_COLUMNS",
    "ReportRow",
    "emit_report",
    "fit_label_predictor",
    "ingest_csv",
    "read_guess_csv",
    "read_instance_csv",
    "repair_predictions",
    "run_benchmark",
    "run_experiment",
    "split_dataset",
    "synth_generate",
    "write_correction_csv",
    "write_dataset_csv",
]

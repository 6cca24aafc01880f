"""Penalized GEE for clustered binary outcomes.

Fits marginal logistic models by penalized (or plain) generalized
estimating equations, evaluates fourteen sandwich covariance estimators
with small-sample corrections, reports the leverage-overcorrection
diagnostic, generates correlated binary data, and runs Monte Carlo
scenario grids for type I error / power / SE-calibration studies.
"""

from .data import (
    EstimatorId,
    LEVERAGE_IDS,
    LongitudinalDataset,
    POOLING_IDS,
    WorkingModel,
    read_csv,
    write_csv,
)
from .core import (
    FitKernel,
    assemble_kernel,
    firth_penalty,
    gee_score,
)
from .fitting import FitOptions, PgeeFit, estimate_alpha, estimate_phi, fit, fit_block
from .variance import (
    OvercorrectionDiagnostic,
    VarianceEstimate,
    WaldResult,
    estimate_all,
    estimate_variance,
    overcorrection_diagnostic,
    wald_test,
)
from .datagen import (
    Scenario,
    calibrate_intercept,
    generate_dataset,
)
from .harness import (
    EstimatorCell,
    ScenarioResult,
    ScenarioSpec,
    aggregate,
    parse_config,
    results_csv,
    run_block,
    run_grid,
    run_replication,
    run_scenario,
    summary_json,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "EstimatorCell",
    "EstimatorId",
    "FitKernel",
    "FitOptions",
    "LEVERAGE_IDS",
    "LongitudinalDataset",
    "OvercorrectionDiagnostic",
    "POOLING_IDS",
    "PgeeFit",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "VarianceEstimate",
    "WaldResult",
    "WorkingModel",
    "aggregate",
    "assemble_kernel",
    "calibrate_intercept",
    "errors",
    "estimate_all",
    "estimate_alpha",
    "estimate_phi",
    "estimate_variance",
    "firth_penalty",
    "fit",
    "fit_block",
    "gee_score",
    "generate_dataset",
    "overcorrection_diagnostic",
    "parse_config",
    "read_csv",
    "results_csv",
    "run_block",
    "run_grid",
    "run_replication",
    "run_scenario",
    "summary_json",
    "wald_test",
    "write_csv",
]

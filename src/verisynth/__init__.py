"""Verified synthetic retraining for Gaussian mean estimation and linear regression.

A simulation library and CLI for studying model collapse and its avoidance
when a model is iteratively retrained on its own synthetic outputs, with a
verifier accepting only samples consistent with a knowledge region around the
true parameter. Provides numerically stable truncated-normal moments and
samplers, the verifier geometry, the exact 1-D and block-design regression
retraining dynamics, closed-form risk predictions and contraction bounds, and
a deterministic Monte Carlo experiment harness.
"""
from ._version import __version__
from .config import (
    KIND_ITERATE_1D,
    KIND_ITERATE_LINREG,
    KIND_LANDSCAPE,
    ExperimentConfig,
    config_from_mapping,
    load_config,
    write_config,
)
from .errors import (
    ConfigError,
    DegenerateIntervalError,
    DimensionMismatchError,
    InsufficientRoundsError,
    InvalidBoundsError,
    MaxAttemptsError,
    NonUnitDirectionError,
    QuadratureError,
    RankDeficientError,
    SeedSpaceError,
    VerisynthError,
)
from .experiments import (
    estimate_contraction,
    run_iterative,
    run_landscape,
    theory_summary,
)
from .gaussian1d import hitting_time, initial_mean, retrain_step
from .kernel import FILTER_REJECT
from .linreg import (
    Dataset,
    LinRegConfig,
    SpectralDesign,
    ols_fit,
    retrain_round,
    spectral_design,
)
from .output import (
    GAUSSIAN1D_COLUMNS,
    LANDSCAPE_COLUMNS,
    TRAJECTORY_COLUMNS,
    output_basename,
    write_csv,
    write_json,
)
from .schedules import Schedule
from .seeding import derive_stream
from .theory import (
    RegimeWarning,
    baseline_mse,
    contraction_rate,
    long_term_bounds,
    one_step_mse_prediction_1d,
    one_step_prediction,
    retraining_map,
    retraining_map_slope,
)
from .truncnorm import (
    Bounds,
    acceptance_probability,
    quadrature_moments,
    sample_truncated,
    std_moments,
)
from .verifier import (
    Interval1D,
    KnowledgeBall,
    default_slack,
    direction_bounds,
    interval_bounds_1d,
)

__all__ = [
    "__version__",
    # errors
    "VerisynthError", "InvalidBoundsError", "DegenerateIntervalError",
    "QuadratureError", "DimensionMismatchError", "NonUnitDirectionError",
    "RankDeficientError", "MaxAttemptsError", "InsufficientRoundsError",
    "SeedSpaceError", "ConfigError",
    # truncated-normal core
    "Bounds", "std_moments", "quadrature_moments",
    "sample_truncated", "acceptance_probability",
    # verifier geometry
    "KnowledgeBall", "Interval1D",
    "direction_bounds", "interval_bounds_1d", "default_slack",
    # closed-form theory
    "RegimeWarning", "baseline_mse", "one_step_prediction", "one_step_mse_prediction_1d",
    "retraining_map", "retraining_map_slope", "contraction_rate", "long_term_bounds",
    # 1-D dynamics
    "initial_mean", "retrain_step", "hitting_time",
    # linear regression dynamics
    "FILTER_REJECT", "Dataset", "SpectralDesign", "LinRegConfig",
    "ols_fit", "spectral_design", "retrain_round",
    # harness
    "Schedule", "derive_stream", "ExperimentConfig", "load_config",
    "write_config", "config_from_mapping",
    "KIND_LANDSCAPE", "KIND_ITERATE_LINREG", "KIND_ITERATE_1D",
    "run_landscape", "run_iterative", "estimate_contraction", "theory_summary",
    "write_csv", "write_json",
    "LANDSCAPE_COLUMNS", "TRAJECTORY_COLUMNS", "GAUSSIAN1D_COLUMNS",
    "output_basename",
]

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
    bias_direction,
    design_matrix,
    estimate_contraction,
    resolve_ball,
    run_iterative,
    run_landscape,
    theory_summary,
)
from .gaussian1d import (
    Gaussian1DConfig,
    RegimeWarning,
    Trajectory1D,
    hitting_time,
    initial_mean,
    one_step_mse_prediction_1d,
    retrain_step,
    retraining_map,
    retraining_map_slope,
    run_iterations,
)
from .linreg import (
    FILTER_DIRECT,
    FILTER_MODES,
    FILTER_NONE,
    FILTER_REJECT,
    Dataset,
    LinRegConfig,
    RetrainState,
    SpectralDesign,
    baseline_mse,
    ols_fit,
    one_step_prediction,
    retrain_round,
    spectral_design,
)
from .output import (
    GAUSSIAN1D_COLUMNS,
    LANDSCAPE_COLUMNS,
    TRAJECTORY_COLUMNS,
    columns_for,
    output_basename,
    write_csv,
    write_json,
)
from .schedules import Schedule
from .seeding import derive_stream
from .truncnorm import (
    Bounds,
    Moments,
    acceptance_probability,
    quadrature_moments,
    sample_truncated,
    std_moments,
)
from .verifier import (
    Interval1D,
    KnowledgeBall,
    contraction_rate,
    default_slack,
    direction_bounds,
    interval_bounds_1d,
    long_term_bound,
    verify_point,
)

__all__ = [
    "__version__",
    # errors
    "VerisynthError", "InvalidBoundsError", "DegenerateIntervalError",
    "QuadratureError", "DimensionMismatchError", "NonUnitDirectionError",
    "RankDeficientError", "MaxAttemptsError", "InsufficientRoundsError",
    "SeedSpaceError", "ConfigError",
    # truncated-normal core
    "Bounds", "Moments", "std_moments", "quadrature_moments",
    "sample_truncated", "acceptance_probability",
    # verifier geometry
    "KnowledgeBall", "Interval1D", "verify_point",
    "direction_bounds", "interval_bounds_1d", "contraction_rate", "long_term_bound",
    "default_slack",
    # 1-D dynamics
    "Gaussian1DConfig", "Trajectory1D", "RegimeWarning", "initial_mean",
    "retrain_step", "run_iterations", "one_step_mse_prediction_1d",
    "retraining_map", "retraining_map_slope", "hitting_time",
    # linear regression dynamics
    "FILTER_DIRECT", "FILTER_REJECT", "FILTER_NONE", "FILTER_MODES",
    "Dataset", "SpectralDesign", "RetrainState", "LinRegConfig",
    "ols_fit", "spectral_design", "retrain_round", "one_step_prediction",
    "baseline_mse",
    # harness
    "Schedule", "derive_stream", "ExperimentConfig", "load_config",
    "write_config", "config_from_mapping",
    "KIND_LANDSCAPE", "KIND_ITERATE_LINREG", "KIND_ITERATE_1D",
    "run_landscape", "run_iterative", "estimate_contraction", "theory_summary",
    "design_matrix", "bias_direction", "resolve_ball",
    "write_csv", "write_json",
    "LANDSCAPE_COLUMNS", "TRAJECTORY_COLUMNS", "GAUSSIAN1D_COLUMNS",
    "columns_for", "output_basename",
]

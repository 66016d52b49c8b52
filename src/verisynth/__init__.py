"""Verified synthetic retraining for Gaussian mean estimation and linear regression.

A simulation library and CLI for studying model collapse and its avoidance
when a model is iteratively retrained on its own synthetic outputs, with a
verifier accepting only samples consistent with a knowledge region around the
true parameter. Provides numerically stable truncated-normal moments and
samplers, the verifier geometry, the exact 1-D and block-design regression
retraining dynamics, closed-form risk predictions and contraction bounds, and
a deterministic Monte Carlo experiment harness.
"""
import importlib

from ._version import __version__

#: the home module of every exported name, in ``__all__`` order. A name is
#: imported on first use (PEP 562), so that ``import verisynth`` and the
#: CLI's config checks load neither numpy nor scipy
_HOMES = {
    # errors
    **dict.fromkeys((
        "VerisynthError", "InvalidBoundsError", "DegenerateIntervalError",
        "QuadratureError", "DimensionMismatchError", "RankDeficientError",
        "MaxAttemptsError", "InsufficientRoundsError", "SeedSpaceError", "ConfigError"), "errors"),
    # truncated-normal core
    **dict.fromkeys((
        "Bounds", "std_moments", "quadrature_moments",
        "sample_truncated", "acceptance_probability"), "truncnorm"),
    # verifier geometry
    **dict.fromkeys((
        "KnowledgeBall", "Interval1D", "direction_bounds", "interval_bounds_1d"), "verifier"),
    "default_slack": "config",
    # closed-form theory
    **dict.fromkeys((
        "baseline_mse", "one_step_prediction", "retraining_map", "retraining_map_slope",
        "contraction_rate", "long_term_bounds"), "theory"),
    # 1-D dynamics
    **dict.fromkeys(("initial_mean", "retrain_step", "hitting_time"), "gaussian1d"),
    # linear regression dynamics
    "FILTER_REJECT": "config",
    **dict.fromkeys((
        "SpectralDesign", "ols_fit", "spectral_design", "retrain_round"),
        "linreg"),
    # harness
    "Schedule": "schedules",
    "derive_stream": "seeding",
    **dict.fromkeys((
        "ExperimentConfig", "load_config", "config_from_mapping",
        "KIND_LANDSCAPE", "KIND_ITERATE_LINREG", "KIND_ITERATE_1D"), "config"),
    **dict.fromkeys((
        "run_landscape", "run_iterative", "estimate_contraction", "theory_summary"),
        "experiments"),
    **dict.fromkeys((
        "write_csv", "write_json",
        "LANDSCAPE_COLUMNS", "TRAJECTORY_COLUMNS", "GAUSSIAN1D_COLUMNS",
        "output_basename"), "output"),
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

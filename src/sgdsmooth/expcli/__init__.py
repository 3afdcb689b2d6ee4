from .cluster import cluster_count, cluster_labels
from .config import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    KernelSpec,
    ObjectiveSpec,
    StageSpec,
    TheoremSpec,
)
from .pipeline import (
    CalibrationResult,
    EnsembleReport,
    EnsembleResult,
    Figure3Report,
    calibrate_noise,
    default_window_candidates,
    ensemble,
    figure3,
    run_lockstep_ensemble,
    smoothing_curve,
    summarize_ensemble,
)
from .svg import emit_svg_histogram, svg_histogram_string

__all__ = [
    "CalibrationResult",
    "ConfigError",
    "EnsembleReport",
    "EnsembleResult",
    "ExperimentConfig",
    "Figure3Report",
    "GridSpec",
    "KernelSpec",
    "ObjectiveSpec",
    "StageSpec",
    "TheoremSpec",
    "calibrate_noise",
    "cluster_count",
    "cluster_labels",
    "default_window_candidates",
    "emit_svg_histogram",
    "ensemble",
    "figure3",
    "run_lockstep_ensemble",
    "smoothing_curve",
    "summarize_ensemble",
    "svg_histogram_string",
]

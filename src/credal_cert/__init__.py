"""Risk certificates under distribution shift.

Kernel two-sample shift estimates with concentration and permutation
calibration, PAC-style target-risk bounds with a shift penalty, credal
risk-imprecision intervals with adaptation decisions, RKHS loss-norm
estimation, anchor distortion diagnostics, and an adaptive conformal
coverage level, plus closed-form Gaussian oracles for validation.
"""

from ._version import __version__
from .conformal import CoveragePolicy, adaptive_alpha, coverage_increment
from .credal import (
    CredalSpec,
    RadiusSource,
    RiskInterval,
    Verdict,
    decide_adaptation,
    finite_sample_bound,
    risk_interval,
)
from .errors import (
    DegenerateBandwidthError,
    InputError,
    NumericalError,
    ParseError,
    SingularityError,
    SingularSystemError,
)
from .geometry import (
    ClassDistortionSummary,
    DistortionReport,
    geodesic_distortion,
    rare_class_report,
)
from .io import (
    CertifyConfig,
    certificate_text,
    file_digest,
    load_config,
    parse_feature_rows,
    read_features,
    read_labels,
    read_losses,
    record_text,
)
from .kernels import (
    KernelSource,
    KernelSpec,
    gram_matrix,
    median_heuristic,
)
from .mmd import (
    CalibrationResult,
    MmdEstimate,
    concentration_width,
    mmd2_unbiased,
    mmd_upper_confidence,
    permutation_calibrate,
)
from .oracles import (
    KernelExpansion,
    ShiftScenario,
    analytic_mixture_mmd2,
    analytic_mmd2,
    brute_force_mmd2,
    expansion_norm,
    expansion_value,
    kernel_cross_expectation,
    sample_scenario,
    true_target_risk,
)
from .pac_bayes import PosteriorComplexity, complexity_term, kl_diag_gaussians
from .pipeline import SourceState, certificate_body, prepare_source
from .rkhs_norm import NormEstimate, estimate_rkhs_norm
from .simulate import (
    CheckRow,
    ConcentrationExperiment,
    CoverageExperiment,
    GeometryExperiment,
    UnbiasednessExperiment,
    format_report,
    load_experiment,
)

__all__ = [
    "__version__",
    "CalibrationResult",
    "CertifyConfig",
    "CheckRow",
    "ClassDistortionSummary",
    "ConcentrationExperiment",
    "CoveragePolicy",
    "CoverageExperiment",
    "CredalSpec",
    "DegenerateBandwidthError",
    "DistortionReport",
    "GeometryExperiment",
    "InputError",
    "KernelExpansion",
    "KernelSource",
    "KernelSpec",
    "MmdEstimate",
    "NormEstimate",
    "NumericalError",
    "ParseError",
    "PosteriorComplexity",
    "RadiusSource",
    "RiskInterval",
    "ShiftScenario",
    "SingularityError",
    "SingularSystemError",
    "SourceState",
    "UnbiasednessExperiment",
    "Verdict",
    "adaptive_alpha",
    "analytic_mixture_mmd2",
    "analytic_mmd2",
    "brute_force_mmd2",
    "certificate_body",
    "certificate_text",
    "complexity_term",
    "concentration_width",
    "coverage_increment",
    "decide_adaptation",
    "estimate_rkhs_norm",
    "expansion_norm",
    "expansion_value",
    "file_digest",
    "finite_sample_bound",
    "format_report",
    "geodesic_distortion",
    "gram_matrix",
    "kernel_cross_expectation",
    "kl_diag_gaussians",
    "load_config",
    "load_experiment",
    "median_heuristic",
    "mmd2_unbiased",
    "mmd_upper_confidence",
    "parse_feature_rows",
    "permutation_calibrate",
    "prepare_source",
    "rare_class_report",
    "read_features",
    "read_labels",
    "read_losses",
    "record_text",
    "risk_interval",
    "sample_scenario",
    "true_target_risk",
]

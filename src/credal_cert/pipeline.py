"""Certificate assembly shared by the certify and monitor commands.

The certificate is a flat key-value record. Its arithmetic structure
(upper = empirical + complexity + shift, width = 2*complexity + 2*shift)
holds bitwise for the serialized numbers unless --clamp-risk rewrites the
risk fields for display.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import CoveragePolicy, adaptive_alpha, coverage_increment
from .credal import (
    CredalSpec,
    RadiusSource,
    decide_adaptation,
    finite_sample_bound,
    risk_interval,
)
from .errors import InputError
from .io import CertifyConfig
from .kernels import KernelSpec, gram_matrix, median_heuristic
from .mmd import (
    concentration_width,
    mmd2_unbiased_from_source_sum,
    permutation_calibrate,
)
from .pac_bayes import PosteriorComplexity
from .rkhs_norm import NormEstimate, fit_rkhs_norm
from .validation import as_features, as_vector


@dataclass(frozen=True)
class SourceState:
    """Source-side quantities precomputed once and reused per target batch.

    gram_sum is the sum of the source self-Gram under kernel, so each
    certificate builds only the target self-block and the cross block; a
    monitor session computes the source block once. Only the float is kept,
    never the m x m matrix.
    """

    features: np.ndarray
    kernel: KernelSpec
    gram_sum: float
    emp_risk: float
    l_h: float
    l_h_source: str
    norm: NormEstimate | None


def resolve_kernel(gamma: float | None, X, Y=None) -> KernelSpec:
    """The fixed bandwidth gamma, or the median heuristic over X and Y if None."""
    if gamma is None:
        return median_heuristic(X, Y)
    return KernelSpec(gamma=gamma)


def prepare_source(
    cfg: CertifyConfig,
    source_features,
    source_losses,
    target_for_bandwidth=None,
) -> SourceState:
    """Resolve bandwidth, empirical risk, and the loss norm from the source.

    target_for_bandwidth joins the median-heuristic pool when given (the
    certify path); monitor resolves the bandwidth from the source alone so
    the kernel stays fixed across batches. The source self-Gram is built
    once, here: it feeds both the ridge norm fit and gram_sum.
    """
    Xs = as_features(source_features, "source features")
    losses = as_vector(source_losses, "source losses")
    if losses.shape[0] != Xs.shape[0]:
        raise InputError(
            f"source losses count {losses.shape[0]} does not match source "
            f"feature rows {Xs.shape[0]}"
        )
    kernel = resolve_kernel(cfg.gamma, Xs, target_for_bandwidth)
    emp_risk = float(np.mean(losses))
    K = gram_matrix(Xs, None, kernel)
    gram_sum = float(np.sum(K))
    if cfg.l_h is None:
        norm = fit_rkhs_norm(K, losses, cfg.ridge_lambda)
        l_h = norm.l_h
        l_h_source = "estimated"
    else:
        norm = None
        l_h = cfg.l_h
        l_h_source = "user"
    return SourceState(
        features=Xs,
        kernel=kernel,
        gram_sum=gram_sum,
        emp_risk=emp_risk,
        l_h=l_h,
        l_h_source=l_h_source,
        norm=norm,
    )


def certificate_body(
    state: SourceState,
    target_features,
    cfg: CertifyConfig,
    seed: int,
    clamp_risk: bool = False,
) -> dict:
    """Assemble the certificate record for one target sample.

    The CLI appends the input digests and tool_version after these fields.
    """
    Xt = as_features(target_features, "target features")
    est = mmd2_unbiased_from_source_sum(
        state.features, Xt, state.kernel, state.gram_sum
    )
    mmd_width = concentration_width(est.m, est.n, cfg.delta / 2.0)
    complexity = PosteriorComplexity(
        kl=cfg.kl, n_labeled=cfg.n_labeled, delta=cfg.delta
    )
    bound = finite_sample_bound(state.emp_risk, complexity, state.l_h, est)

    calibration = None
    if cfg.calibrate:
        calibration = permutation_calibrate(
            state.features,
            Xt,
            state.kernel,
            num_permutations=cfg.num_permutations,
            alpha=cfg.alpha,
            seed=seed,
        )
        epsilon = calibration.epsilon_alpha
        radius_source = RadiusSource.PERMUTATION_CALIBRATED
    elif cfg.epsilon is not None:
        epsilon = cfg.epsilon
        radius_source = RadiusSource.USER_FIXED
    else:
        epsilon = bound.epsilon
        radius_source = RadiusSource.UPPER_CONFIDENCE

    interval = risk_interval(
        state.emp_risk,
        complexity,
        state.l_h,
        CredalSpec(epsilon=epsilon, radius_source=radius_source),
    )

    cert: dict = {
        "gamma": state.kernel.gamma,
        "gamma_source": state.kernel.source.value,
        "m": est.m,
        "n": est.n,
        "mmd2": est.mmd2,
        "mmd": est.mmd,
        "mmd_width": mmd_width,
        "empirical_risk": state.emp_risk,
        "kl": cfg.kl,
        "n_labeled": cfg.n_labeled,
        "delta": cfg.delta,
        "l_h": state.l_h,
        "l_h_source": state.l_h_source,
    }
    if state.norm is not None:
        cert["ridge_lambda"] = state.norm.ridge_lambda
        cert["residual_rms"] = state.norm.residual_rms
    cert.update(
        {
            "complexity_term": bound.complexity_term,
            "shift_penalty": bound.shift_penalty,
            "upper_risk": bound.upper,
            "lower_risk": bound.lower,
            "bound_kind": "finite_sample",
            "epsilon": epsilon,
            "epsilon_source": radius_source.value,
        }
    )
    if calibration is not None:
        cert["calibration_p_value"] = calibration.p_value
        cert["calibration_alpha"] = calibration.alpha
        cert["calibration_num_permutations"] = calibration.num_permutations
        cert["calibration_seed"] = calibration.seed
    cert.update(
        {
            "interval_lower": interval.lower,
            "interval_upper": interval.upper,
            "interval_width": interval.width,
        }
    )
    if cfg.r_max is not None:
        cert["r_max"] = cfg.r_max
        cert["verdict"] = decide_adaptation(interval, cfg.r_max).value
    if cfg.alpha0 is not None:
        policy = CoveragePolicy(
            alpha0=cfg.alpha0,
            emp_risk=state.emp_risk,
            kl=cfg.kl,
            n_labeled=cfg.n_labeled,
            l_h=state.l_h,
        )
        cert["alpha0"] = cfg.alpha0
        cert["coverage_increment"] = coverage_increment(policy, epsilon)
        cert["adaptive_alpha"] = adaptive_alpha(policy, epsilon)
    if clamp_risk:
        for key in (
            "empirical_risk",
            "upper_risk",
            "lower_risk",
            "interval_lower",
            "interval_upper",
        ):
            cert[key] = min(1.0, max(0.0, cert[key]))
    return cert

"""PAC-Bayesian complexity ingredients of the risk bounds.

The KL divergence of a diagonal-Gaussian posterior from its prior and the
complexity term sqrt((kl + ln(2 sqrt(n) / delta)) / (2n)). The three-term
decomposition empirical risk + complexity + shift penalty is assembled in
credal.risk_interval, which both the credal interval and the finite-sample
bound use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .validation import (
    as_vector,
    check_count,
    check_nonnegative,
    check_probability,
)


@dataclass(frozen=True)
class PosteriorComplexity:
    """Ingredients of the PAC complexity penalty.

    kl is KL(posterior || prior) in nats; n_labeled the labeled source
    sample count; delta the total failure probability.
    """

    kl: float
    n_labeled: int
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kl", check_nonnegative(self.kl, "kl"))
        object.__setattr__(
            self, "n_labeled", check_count(self.n_labeled, "n_labeled")
        )
        object.__setattr__(
            self, "delta", check_probability(self.delta, "delta")
        )


def kl_diag_gaussians(mu_p, var_p, mu_q, var_q) -> float:
    """KL divergence KL(P || Q) between diagonal Gaussians.

    P = N(mu_p, diag(var_p)) is the posterior, Q = N(mu_q, diag(var_q)) the
    prior. Closed form, summed per coordinate:

        [ ln(var_q / var_p) + (var_p + (mu_p - mu_q)^2) / var_q - 1 ] / 2

    Returns a nonnegative float (clamped against rounding).
    """
    mp = as_vector(mu_p, "mu_p")
    vp = as_vector(var_p, "var_p")
    mq = as_vector(mu_q, "mu_q")
    vq = as_vector(var_q, "var_q")
    if not (mp.shape == vp.shape == mq.shape == vq.shape):
        raise InputError("kl_diag_gaussians: parameter vectors must share one length")
    if np.any(vp <= 0.0) or np.any(vq <= 0.0):
        raise InputError("kl_diag_gaussians: variances must be strictly positive")
    terms = np.log(vq / vp) + (vp + (mp - mq) ** 2) / vq - 1.0
    return max(0.0, 0.5 * float(np.sum(terms)))


def complexity_term(c: PosteriorComplexity) -> float:
    """sqrt((kl + ln(2 sqrt(n_labeled) / delta)) / (2 n_labeled))."""
    n = c.n_labeled
    return math.sqrt((c.kl + math.log(2.0 * math.sqrt(n) / c.delta)) / (2.0 * n))

"""PAC-Bayesian risk bounds with an MMD shift penalty.

Every bound decomposes as empirical risk + complexity term + shift penalty;
the decomposition is stored explicitly in BoundReport so downstream
consumers (and tests) can verify the arithmetic identity on the reported
numbers. Risks are not clamped to [0, 1]: the raw bound value is the honest
certificate, and display clamping is left to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError
from .mmd import MmdEstimate, concentration_width
from .validation import (
    as_vector,
    check_count,
    check_finite,
    check_nonnegative,
    check_probability,
)


class BoundKind(str, Enum):
    POPULATION = "population"
    FINITE_SAMPLE = "finite_sample"


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


@dataclass(frozen=True)
class BoundReport:
    """Three-term risk bound: upper = empirical + complexity + shift.

    lower_risk uses the symmetric convention empirical - complexity - shift
    for both kinds, so every report carries a full two-sided decomposition.
    """

    empirical_risk: float
    complexity_term: float
    shift_penalty: float
    upper_risk: float
    lower_risk: float
    kind: BoundKind


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


def finite_sample_bound(
    emp_risk: float,
    c: PosteriorComplexity,
    l_h: float,
    est: MmdEstimate,
) -> BoundReport:
    """Fully empirical bound: estimated MMD plus its concentration width.

    upper = emp_risk + sqrt((kl + ln(4 sqrt(n)/delta)) / (2n))
          + l_h * (est.mmd + concentration_width(est.m, est.n, delta / 2)).

    Requires delta in (0, 1/2); the labeled count n = c.n_labeled is
    independent of the MMD sample counts est.m, est.n.
    """
    emp = check_finite(emp_risk, "emp_risk")
    l_h = check_nonnegative(l_h, "l_h")
    if not c.delta < 0.5:
        raise InputError(
            f"finite-sample bound requires delta in (0, 1/2), got {c.delta}"
        )
    n = c.n_labeled
    ct = math.sqrt((c.kl + math.log(4.0 * math.sqrt(n) / c.delta)) / (2.0 * n))
    width = concentration_width(est.m, est.n, c.delta / 2.0)
    sp = l_h * (est.mmd + width)
    return BoundReport(
        empirical_risk=emp,
        complexity_term=ct,
        shift_penalty=sp,
        upper_risk=emp + ct + sp,
        lower_risk=(emp - ct) - sp,
        kind=BoundKind.FINITE_SAMPLE,
    )

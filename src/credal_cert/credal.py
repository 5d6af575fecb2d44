"""Credal sets of distributions within an MMD ball around the source.

A radius epsilon defines the set of distributions whose MMD to the source
is at most epsilon. Risks over that set form an interval

    empirical risk -/+ complexity term -/+ l_h * epsilon,

whose width, 2 * complexity + 2 * l_h * epsilon, is constructed literally
from that expression so the identity holds bitwise. risk_interval is the
only code that assembles this decomposition: the fully empirical
finite-sample bound is the interval at the estimate's upper confidence
radius. Risks are not clamped to [0, 1]: the raw bound value is the honest
certificate, and display clamping is left to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InputError
from .mmd import MmdEstimate, mmd_upper_confidence
from .pac_bayes import PosteriorComplexity, complexity_term
from .validation import check_finite, check_nonnegative


class RadiusSource(str, Enum):
    USER_FIXED = "user_fixed"
    PERMUTATION_CALIBRATED = "permutation_calibrated"
    UPPER_CONFIDENCE = "upper_confidence"


class Verdict(str, Enum):
    NO_ADAPTATION_NEEDED = "NoAdaptationNeeded"
    ADAPTATION_WARRANTED = "AdaptationWarranted"
    ADAPTATION_FUTILE = "AdaptationFutile"


@dataclass(frozen=True)
class CredalSpec:
    """MMD-ball radius and how it was chosen."""

    epsilon: float
    radius_source: RadiusSource = RadiusSource.USER_FIXED

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "epsilon", check_nonnegative(self.epsilon, "epsilon")
        )
        object.__setattr__(
            self, "radius_source", RadiusSource(self.radius_source)
        )


@dataclass(frozen=True)
class RiskInterval:
    """Risk-imprecision interval over the credal set, with its two terms.

    upper = (empirical + complexity_term) + shift_penalty, lower mirrors it
    downward, and width = 2 * complexity_term + 2 * shift_penalty, where
    shift_penalty = l_h * epsilon.
    """

    complexity_term: float
    shift_penalty: float
    lower: float
    upper: float
    width: float
    epsilon: float


def risk_interval(
    emp_risk: float,
    c: PosteriorComplexity,
    l_h: float,
    spec: CredalSpec,
) -> RiskInterval:
    """Two-sided risk interval over the epsilon-ball.

    upper = emp + complexity + l_h * epsilon, lower mirrors it downward, and
    width = 2 * complexity + 2 * l_h * epsilon by construction.
    """
    emp = check_finite(emp_risk, "emp_risk")
    l_h = check_nonnegative(l_h, "l_h")
    ct = complexity_term(c)
    sp = l_h * spec.epsilon
    return RiskInterval(
        complexity_term=ct,
        shift_penalty=sp,
        lower=(emp - ct) - sp,
        upper=emp + ct + sp,
        width=2.0 * ct + 2.0 * sp,
        epsilon=spec.epsilon,
    )


def finite_sample_bound(
    emp_risk: float,
    c: PosteriorComplexity,
    l_h: float,
    est: MmdEstimate,
) -> RiskInterval:
    """Fully empirical bound: the risk interval at the upper confidence radius.

    c.delta is split in half between the complexity term and the MMD
    concentration width, so the radius is
    epsilon = est.mmd + concentration_width(est.m, est.n, delta / 2) and

        upper = emp_risk + sqrt((kl + ln(4 sqrt(n) / delta)) / (2n))
              + l_h * epsilon.

    Requires delta in (0, 1/2); the labeled count n = c.n_labeled is
    independent of the MMD sample counts est.m, est.n.
    """
    if not c.delta < 0.5:
        raise InputError(
            f"finite-sample bound requires delta in (0, 1/2), got {c.delta}"
        )
    half = c.delta / 2.0
    return risk_interval(
        emp_risk,
        PosteriorComplexity(kl=c.kl, n_labeled=c.n_labeled, delta=half),
        l_h,
        CredalSpec(epsilon=mmd_upper_confidence(est, half)),
    )


def decide_adaptation(interval: RiskInterval, r_max: float) -> Verdict:
    """Adaptation verdict from the risk interval against a risk tolerance.

    upper <= r_max: NoAdaptationNeeded (certificate meets tolerance, even
    exactly). lower > r_max: AdaptationFutile (tolerance unreachable within
    the ball). Otherwise the interval straddles r_max: AdaptationWarranted.
    """
    r_max = check_finite(r_max, "r_max")
    if interval.upper <= r_max:
        return Verdict.NO_ADAPTATION_NEEDED
    if interval.lower > r_max:
        return Verdict.ADAPTATION_FUTILE
    return Verdict.ADAPTATION_WARRANTED

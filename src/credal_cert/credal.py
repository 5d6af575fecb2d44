"""Credal sets of distributions within an MMD ball around the source.

A radius epsilon defines the set of distributions whose MMD to the source
is at most epsilon. Risks over that set form an interval whose width,
2 * complexity + 2 * l_h * epsilon, is constructed literally from that
expression so the identity holds bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .pac_bayes import (
    BoundKind,
    BoundReport,
    PosteriorComplexity,
    complexity_term,
)
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
    """Risk-imprecision interval over the credal set."""

    lower: float
    upper: float
    width: float
    epsilon: float
    components: BoundReport


@dataclass(frozen=True)
class AdaptationDecision:
    verdict: Verdict
    r_max: float
    interval: RiskInterval


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
    upper = emp + ct + sp
    lower = (emp - ct) - sp
    report = BoundReport(
        empirical_risk=emp,
        complexity_term=ct,
        shift_penalty=sp,
        upper_risk=upper,
        lower_risk=lower,
        kind=BoundKind.POPULATION,
    )
    return RiskInterval(
        lower=lower,
        upper=upper,
        width=2.0 * ct + 2.0 * sp,
        epsilon=spec.epsilon,
        components=report,
    )


def decide_adaptation(interval: RiskInterval, r_max: float) -> AdaptationDecision:
    """Adaptation verdict from the risk interval against a risk tolerance.

    upper <= r_max: NoAdaptationNeeded (certificate meets tolerance, even
    exactly). lower > r_max: AdaptationFutile (tolerance unreachable within
    the ball). Otherwise the interval straddles r_max: AdaptationWarranted.
    """
    r_max = check_finite(r_max, "r_max")
    if interval.upper <= r_max:
        verdict = Verdict.NO_ADAPTATION_NEEDED
    elif interval.lower > r_max:
        verdict = Verdict.ADAPTATION_FUTILE
    else:
        verdict = Verdict.ADAPTATION_WARRANTED
    return AdaptationDecision(verdict=verdict, r_max=r_max, interval=interval)

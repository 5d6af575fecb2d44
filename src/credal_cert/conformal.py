"""Credal-width-adaptive conformal coverage level.

Maps a credal radius epsilon to a miscoverage increment g(epsilon) in
[0, 1 - alpha0] and an adaptive level alpha0 + g(epsilon). Note g(0) equals
min(1 - alpha0, max(0, emp_risk)), not zero: the increment is computed as
printed, including its empirical-risk floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularityError
from .validation import (
    check_count,
    check_finite,
    check_nonnegative,
    check_probability,
)


@dataclass(frozen=True)
class CoveragePolicy:
    """Base miscoverage alpha0 plus the bound ingredients g() consumes."""

    alpha0: float
    emp_risk: float
    kl: float
    n_labeled: int
    l_h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha0", check_probability(self.alpha0, "alpha0"))
        object.__setattr__(
            self, "emp_risk", check_finite(self.emp_risk, "emp_risk")
        )
        object.__setattr__(self, "kl", check_nonnegative(self.kl, "kl"))
        object.__setattr__(
            self, "n_labeled", check_count(self.n_labeled, "n_labeled")
        )
        object.__setattr__(self, "l_h", check_nonnegative(self.l_h, "l_h"))


def coverage_increment(policy: CoveragePolicy, epsilon: float) -> float:
    """Miscoverage increment g(epsilon) in [0, 1 - alpha0]:

        min{ 1 - alpha0,
             (emp_risk + l_h * eps / sqrt(kl / (2 n_labeled))) / (1 + l_h * eps) }

    clamped below at 0. Requires kl > 0; kl = 0 makes the scale factor
    divide by zero and raises SingularityError rather than inventing a
    limit.
    """
    epsilon = check_nonnegative(epsilon, "epsilon")
    if policy.kl <= 0.0:
        raise SingularityError(
            "coverage increment is undefined at kl = 0 "
            "(the scale factor divides by sqrt(kl / 2n))"
        )
    scale = math.sqrt(policy.kl / (2.0 * policy.n_labeled))
    inner = (policy.emp_risk + policy.l_h * epsilon / scale) / (
        1.0 + policy.l_h * epsilon
    )
    return max(0.0, min(1.0 - policy.alpha0, inner))


def adaptive_alpha(policy: CoveragePolicy, epsilon: float) -> float:
    """Adaptive miscoverage level alpha0 + g(epsilon), capped at 1."""
    return min(1.0, policy.alpha0 + coverage_increment(policy, epsilon))

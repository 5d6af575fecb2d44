"""Credal-width-adaptive conformal coverage level."""

from __future__ import annotations

import math

import numpy as np
import pytest

from credal_cert import (
    CoveragePolicy,
    InputError,
    SingularityError,
    adaptive_alpha,
    coverage_increment,
)

POLICY = CoveragePolicy(alpha0=0.1, emp_risk=0.1, kl=2.0, n_labeled=100, l_h=1.0)


def test_capped_example_is_exact():
    # the uncapped ratio is about 1.75, far above the cap 1 - alpha0
    assert coverage_increment(POLICY, 0.2) == 0.9
    assert adaptive_alpha(POLICY, 0.2) == 1.0


def test_uncapped_value_matches_formula():
    eps = 0.01
    scale = math.sqrt(POLICY.kl / (2.0 * POLICY.n_labeled))
    expected = (POLICY.emp_risk + POLICY.l_h * eps / scale) / (
        1.0 + POLICY.l_h * eps
    )
    assert coverage_increment(POLICY, eps) == expected
    assert adaptive_alpha(POLICY, eps) == min(1.0, POLICY.alpha0 + expected)


def test_zero_radius_floors_at_empirical_risk():
    policy = CoveragePolicy(alpha0=0.2, emp_risk=0.3, kl=1.0, n_labeled=50, l_h=1.0)
    assert coverage_increment(policy, 0.0) == 0.3


def test_negative_empirical_risk_clamps_to_zero():
    policy = CoveragePolicy(alpha0=0.2, emp_risk=-0.5, kl=1.0, n_labeled=50, l_h=1.0)
    assert coverage_increment(policy, 0.0) == 0.0


def test_zero_kl_is_a_singularity():
    policy = CoveragePolicy(alpha0=0.1, emp_risk=0.1, kl=0.0, n_labeled=100, l_h=1.0)
    with pytest.raises(SingularityError):
        coverage_increment(policy, 0.1)


def test_increment_nondecreasing_on_radius_grid():
    grid = np.linspace(0.0, 1.0, 101)
    values = [coverage_increment(POLICY, float(e)) for e in grid]
    for a, b in zip(values, values[1:]):
        assert b >= a
    assert all(0.0 <= v <= 1.0 - POLICY.alpha0 for v in values)


def test_adaptive_alpha_bounded_by_one():
    grid = np.linspace(0.0, 5.0, 51)
    for e in grid:
        level = adaptive_alpha(POLICY, float(e))
        assert POLICY.alpha0 <= level <= 1.0


def test_policy_validation():
    with pytest.raises(InputError):
        CoveragePolicy(alpha0=0.0, emp_risk=0.1, kl=1.0, n_labeled=10, l_h=1.0)
    with pytest.raises(InputError):
        CoveragePolicy(alpha0=1.0, emp_risk=0.1, kl=1.0, n_labeled=10, l_h=1.0)
    with pytest.raises(InputError):
        CoveragePolicy(alpha0=0.1, emp_risk=float("inf"), kl=1.0, n_labeled=10, l_h=1.0)
    with pytest.raises(InputError):
        CoveragePolicy(alpha0=0.1, emp_risk=0.1, kl=-1.0, n_labeled=10, l_h=1.0)
    with pytest.raises(InputError):
        CoveragePolicy(alpha0=0.1, emp_risk=0.1, kl=1.0, n_labeled=0, l_h=1.0)
    with pytest.raises(InputError):
        CoveragePolicy(alpha0=0.1, emp_risk=0.1, kl=1.0, n_labeled=10, l_h=-0.5)
    with pytest.raises(InputError):
        coverage_increment(POLICY, -0.1)

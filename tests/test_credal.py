"""Credal-ball risk intervals and adaptation decisions."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from credal_cert import (
    CredalSpec,
    InputError,
    PosteriorComplexity,
    RadiusSource,
    Verdict,
    decide_adaptation,
    risk_interval,
)
from conftest import within_ulps

WORST_CASE = 0.47308183826022854  # emp 0.1, kl 0, n 100, delta 0.05, l_h 2, eps 0.1
IV_UPPER = 0.5230818382602286  # emp 0.3, same complexity, l_h 1, eps 0.05
IV_LOWER = 0.07691816173977147
IV_WIDTH = 0.4461636765204571

C_FROZEN = PosteriorComplexity(kl=0.0, n_labeled=100, delta=0.05)


def draws(draw):
    emp = draw(st.floats(0.0, 1.0))
    c = PosteriorComplexity(
        kl=draw(st.floats(0.0, 50.0)),
        n_labeled=draw(st.integers(1, 100_000)),
        delta=draw(st.floats(0.01, 0.49)),
    )
    l_h = draw(st.floats(0.0, 10.0))
    eps = draw(st.floats(0.0, 2.0))
    return emp, c, l_h, CredalSpec(epsilon=eps)


def test_worst_case_frozen_value():
    iv = risk_interval(0.1, C_FROZEN, 2.0, CredalSpec(epsilon=0.1))
    assert iv.upper == WORST_CASE


def test_interval_frozen_example():
    iv = risk_interval(0.3, C_FROZEN, 1.0, CredalSpec(epsilon=0.05))
    assert iv.upper == IV_UPPER
    assert iv.lower == IV_LOWER
    assert iv.width == IV_WIDTH
    assert iv.epsilon == 0.05


@given(st.data())
def test_width_identity_is_bitwise(data):
    emp, c, l_h, spec = draws(data.draw)
    iv = risk_interval(emp, c, l_h, spec)
    ct = iv.complexity_term
    sp = iv.shift_penalty
    assert iv.width == 2.0 * ct + 2.0 * sp
    assert iv.width == 2.0 * (ct + sp)
    assert sp == l_h * spec.epsilon


@given(st.data())
def test_width_matches_endpoint_gap_to_a_few_ulps(data):
    emp, c, l_h, spec = draws(data.draw)
    iv = risk_interval(emp, c, l_h, spec)
    # endpoint subtraction cancels at the scale of the endpoints, not the
    # width, so the tolerance is ulps of the larger endpoint magnitude
    scale = max(abs(iv.upper), abs(iv.lower), 1.0)
    assert abs((iv.upper - iv.lower) - iv.width) <= 4.0 * math.ulp(scale)


@given(st.data())
def test_interval_endpoints_match_component_bound(data):
    emp, c, l_h, spec = draws(data.draw)
    iv = risk_interval(emp, c, l_h, spec)
    assert iv.lower == (emp - iv.complexity_term) - iv.shift_penalty
    assert iv.upper == (emp + iv.complexity_term) + iv.shift_penalty
    assert iv.lower <= iv.upper


@given(st.data())
def test_worst_case_dominates_population_bound_inside_ball(data):
    # the upper risk is monotone in the radius: a ball's worst case covers
    # the population bound at any MMD inside it
    emp, c, l_h, spec = draws(data.draw)
    mmd = data.draw(st.floats(0.0, 1.0)) * spec.epsilon
    inside = risk_interval(emp, c, l_h, CredalSpec(epsilon=mmd))
    assert risk_interval(emp, c, l_h, spec).upper >= inside.upper


def test_decision_boundary_conventions():
    iv = risk_interval(0.3, C_FROZEN, 1.0, CredalSpec(epsilon=0.05))
    assert decide_adaptation(iv, iv.upper) is Verdict.NO_ADAPTATION_NEEDED
    assert decide_adaptation(iv, iv.upper + 0.1) is Verdict.NO_ADAPTATION_NEEDED
    mid = 0.5 * (iv.lower + iv.upper)
    assert decide_adaptation(iv, mid) is Verdict.ADAPTATION_WARRANTED
    assert decide_adaptation(iv, iv.lower) is Verdict.ADAPTATION_WARRANTED
    below = iv.lower - 0.01
    assert decide_adaptation(iv, below) is Verdict.ADAPTATION_FUTILE


def test_decision_rejects_non_finite_threshold():
    iv = risk_interval(0.2, C_FROZEN, 1.0, CredalSpec(epsilon=0.1))
    with pytest.raises(InputError):
        decide_adaptation(iv, float("nan"))


def test_spec_validation():
    with pytest.raises(InputError):
        CredalSpec(epsilon=-0.1)
    spec = CredalSpec(epsilon=0.2, radius_source="permutation_calibrated")
    assert spec.radius_source is RadiusSource.PERMUTATION_CALIBRATED

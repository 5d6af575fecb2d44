"""Risk bounds: complexity term, population and finite-sample variants.

The population bound is risk_interval at a radius epsilon equal to the
(trusted) MMD; the finite-sample bound is risk_interval at the estimate's
upper confidence radius with delta halved.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, strategies as st

from credal_cert import (
    CredalSpec,
    InputError,
    MmdEstimate,
    PosteriorComplexity,
    complexity_term,
    concentration_width,
    finite_sample_bound,
    kl_diag_gaussians,
    risk_interval,
)

CT_0_100_05 = 0.17308183826022852
CT_10_100_05 = 0.28276725895255256
CT_FS_0_100_05 = 0.18281974356819242
POP_UPPER = 0.37308183826022856  # emp 0.1, kl 0, n 100, delta 0.05, sp 0.1
POP_LOWER = -0.17308183826022852
FS_UPPER = 0.6921526515084845  # emp 0.1, l_h 1, mmd 0.2, m = n = 200
FS_LOWER = -0.49215265150848453
PAC_LOWER_HALF = 0.3269181617397715
KL_UNIT_SHIFT = 0.5
KL_VARIANCE_FOUR = 0.8068528194400546


def draws(draw):
    emp = draw(st.floats(0.0, 1.0))
    c = PosteriorComplexity(
        kl=draw(st.floats(0.0, 50.0)),
        n_labeled=draw(st.integers(1, 100_000)),
        delta=draw(st.floats(0.01, 0.49)),
    )
    l_h = draw(st.floats(0.0, 10.0))
    mmd = draw(st.floats(0.0, 2.0))
    return emp, c, l_h, mmd


def test_complexity_term_frozen_values():
    assert complexity_term(PosteriorComplexity(0.0, 100, 0.05)) == CT_0_100_05
    assert complexity_term(PosteriorComplexity(10.0, 100, 0.05)) == CT_10_100_05


def population_report(emp, c, l_h, mmd):
    return risk_interval(emp, c, l_h, CredalSpec(epsilon=mmd))


def test_population_bound_frozen_example():
    c = PosteriorComplexity(kl=0.0, n_labeled=100, delta=0.05)
    report = population_report(0.1, c, 2.0, 0.05)
    assert report.upper == POP_UPPER
    assert report.lower == POP_LOWER
    assert report.shift_penalty == 0.1


def test_pac_lower_bound_frozen_value():
    # at zero radius the lower end is the complexity-only bound emp - ct
    c = PosteriorComplexity(kl=0.0, n_labeled=100, delta=0.05)
    assert population_report(0.5, c, 1.0, 0.0).lower == PAC_LOWER_HALF


@given(st.data())
def test_population_identity_is_exact(data):
    emp, c, l_h, mmd = draws(data.draw)
    r = population_report(emp, c, l_h, mmd)
    assert r.upper == (emp + r.complexity_term) + r.shift_penalty
    assert r.lower == (emp - r.complexity_term) - r.shift_penalty
    assert r.lower <= r.upper
    assert r.shift_penalty == l_h * mmd


@given(st.data())
def test_upper_risk_monotone(data):
    emp, c, l_h, mmd = draws(data.draw)
    base = population_report(emp, c, l_h, mmd).upper
    bigger_kl = PosteriorComplexity(c.kl + 1.0, c.n_labeled, c.delta)
    assert population_report(emp, bigger_kl, l_h, mmd).upper >= base
    smaller_delta = PosteriorComplexity(c.kl, c.n_labeled, c.delta / 2.0)
    assert population_report(emp, smaller_delta, l_h, mmd).upper >= base
    assert population_report(emp, c, l_h + 0.5, mmd).upper >= base
    assert population_report(emp, c, l_h, mmd + 0.25).upper >= base
    assert population_report(emp + 0.1, c, l_h, mmd).upper >= base


def test_zero_shift_recovers_complexity_only_bound():
    c = PosteriorComplexity(kl=1.0, n_labeled=50, delta=0.1)
    report = population_report(0.3, c, 5.0, 0.0)
    assert report.shift_penalty == 0.0
    assert report.upper == 0.3 + complexity_term(c)
    assert report.lower == 0.3 - complexity_term(c)


def test_zero_norm_ignores_shift():
    c = PosteriorComplexity(kl=1.0, n_labeled=50, delta=0.1)
    assert population_report(0.3, c, 0.0, 1.5).shift_penalty == 0.0


def test_finite_sample_bound_frozen_example():
    c = PosteriorComplexity(kl=0.0, n_labeled=100, delta=0.05)
    est = MmdEstimate(mmd2=0.04, mmd=0.2, m=200, n=200)
    report = finite_sample_bound(0.1, c, 1.0, est)
    assert report.complexity_term == CT_FS_0_100_05
    assert report.upper == FS_UPPER
    assert report.lower == FS_LOWER


@given(st.data())
def test_finite_sample_penalty_includes_width(data):
    emp, c, l_h, _ = draws(data.draw)
    m = data.draw(st.integers(2, 500))
    n = data.draw(st.integers(2, 500))
    mmd = data.draw(st.floats(0.0, 2.0))
    est = MmdEstimate(mmd2=mmd * mmd, mmd=mmd, m=m, n=n)
    r = finite_sample_bound(emp, c, l_h, est)
    width = concentration_width(m, n, c.delta / 2.0)
    assert r.shift_penalty == l_h * (mmd + width)
    assert r.upper == (emp + r.complexity_term) + r.shift_penalty


@given(
    emp=st.floats(-10.0, 10.0),
    kl=st.floats(0.0, 1e6),
    n_labeled=st.integers(1, 10**9),
    # halving is exact down to 2**-1021, so 2 sqrt(n) / (delta / 2) rounds
    # the same real number as 4 sqrt(n) / delta
    delta=st.floats(2.0**-1021, 0.5, exclude_max=True),
    l_h=st.floats(0.0, 100.0),
    mmd=st.floats(0.0, 2.0),
    m=st.integers(1, 10**9),
    n=st.integers(1, 10**9),
)
@example(emp=0.1, kl=0.0, n_labeled=10**9, delta=2.0**-1021, l_h=1.0, mmd=0.2, m=1, n=1)
@example(emp=0.1, kl=3.0, n_labeled=10**9, delta=1e-300, l_h=2.0, mmd=0.0, m=7, n=10**9)
def test_finite_sample_bound_matches_written_out_formula(
    emp, kl, n_labeled, delta, l_h, mmd, m, n
):
    c = PosteriorComplexity(kl=kl, n_labeled=n_labeled, delta=delta)
    est = MmdEstimate(mmd2=mmd * mmd, mmd=mmd, m=m, n=n)
    r = finite_sample_bound(emp, c, l_h, est)
    ct = math.sqrt(
        (kl + math.log(4.0 * math.sqrt(n_labeled) / delta)) / (2.0 * n_labeled)
    )
    sp = l_h * (mmd + concentration_width(m, n, delta / 2.0))
    assert r.complexity_term == ct
    assert r.shift_penalty == sp
    assert r.upper == emp + ct + sp
    assert r.lower == (emp - ct) - sp


def test_finite_sample_bound_dominates_population_at_same_mmd():
    c = PosteriorComplexity(kl=2.0, n_labeled=150, delta=0.1)
    est = MmdEstimate(mmd2=0.04, mmd=0.2, m=100, n=100)
    fs = finite_sample_bound(0.2, c, 1.5, est)
    pop = population_report(0.2, c, 1.5, 0.2)
    assert fs.upper > pop.upper


def test_finite_sample_bound_requires_small_delta():
    c = PosteriorComplexity(kl=0.0, n_labeled=100, delta=0.6)
    est = MmdEstimate(mmd2=0.0, mmd=0.0, m=10, n=10)
    # population form accepts delta in (0, 1)
    assert population_report(0.1, c, 1.0, 0.0).upper > 0.0
    with pytest.raises(InputError):
        finite_sample_bound(0.1, c, 1.0, est)


def test_complexity_inputs_validated():
    with pytest.raises(InputError):
        PosteriorComplexity(kl=-0.1, n_labeled=100, delta=0.05)
    with pytest.raises(InputError):
        PosteriorComplexity(kl=0.0, n_labeled=0, delta=0.05)
    with pytest.raises(InputError):
        PosteriorComplexity(kl=0.0, n_labeled=100, delta=0.0)
    with pytest.raises(InputError):
        PosteriorComplexity(kl=0.0, n_labeled=100, delta=1.0)
    with pytest.raises(InputError):
        population_report(float("nan"), PosteriorComplexity(0.0, 10, 0.1), 1.0, 0.0)
    with pytest.raises(InputError):
        population_report(0.1, PosteriorComplexity(0.0, 10, 0.1), -1.0, 0.0)
    with pytest.raises(InputError):
        population_report(0.1, PosteriorComplexity(0.0, 10, 0.1), 1.0, -0.5)


def test_kl_frozen_values():
    assert kl_diag_gaussians([1.0], [1.0], [0.0], [1.0]) == KL_UNIT_SHIFT
    assert kl_diag_gaussians([0.0], [4.0], [0.0], [1.0]) == KL_VARIANCE_FOUR


def test_kl_zero_for_identical_gaussians():
    assert kl_diag_gaussians([0.3, -1.0], [2.0, 0.5], [0.3, -1.0], [2.0, 0.5]) == 0.0


def test_kl_additive_over_dimensions():
    joint = kl_diag_gaussians([1.0, 0.0], [1.0, 4.0], [0.0, 0.0], [1.0, 1.0])
    split = kl_diag_gaussians([1.0], [1.0], [0.0], [1.0]) + kl_diag_gaussians(
        [0.0], [4.0], [0.0], [1.0]
    )
    assert math.isclose(joint, split, rel_tol=1e-15)


def test_kl_validation():
    with pytest.raises(InputError):
        kl_diag_gaussians([0.0], [0.0], [0.0], [1.0])
    with pytest.raises(InputError):
        kl_diag_gaussians([0.0, 1.0], [1.0], [0.0], [1.0])

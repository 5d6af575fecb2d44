"""Synthetic-Gaussian oracle: closed forms, reference estimator, MC risk."""

from __future__ import annotations

import math

import numpy as np
import pytest

from credal_cert import (
    InputError,
    KernelExpansion,
    KernelSpec,
    ShiftScenario,
    analytic_mixture_mmd2,
    analytic_mmd2,
    brute_force_mmd2,
    expansion_norm,
    expansion_value,
    gram_matrix,
    kernel_cross_expectation,
    mmd2_unbiased,
    sample_scenario,
    true_target_risk,
)

TWO_POINT_MMD2 = 1.2642411176571153


def scenario(offset=0.5, d=2, gamma=0.5, seed=0, var_s=1.0, var_t=1.0):
    mean_t = np.zeros(d)
    mean_t[0] = offset
    return ShiftScenario(
        d=d,
        mean_s=np.zeros(d),
        mean_t=mean_t,
        var_s=var_s,
        var_t=var_t,
        gamma=gamma,
        seed=seed,
    )


def test_cross_expectation_near_deterministic_limit():
    # vanishing variances collapse to point masses at distance 1
    tiny = 1e-300
    e_same = kernel_cross_expectation([0.0], tiny, [0.0], tiny, 1.0)
    e_cross = kernel_cross_expectation([0.0], tiny, [1.0], tiny, 1.0)
    assert e_same + e_same - 2.0 * e_cross == TWO_POINT_MMD2


def test_cross_expectation_symmetric_in_arguments():
    a = kernel_cross_expectation([0.3, 0.0], 1.5, [0.0, -1.0], 0.5, 0.7)
    b = kernel_cross_expectation([0.0, -1.0], 0.5, [0.3, 0.0], 1.5, 0.7)
    assert a == b
    assert 0.0 < a < 1.0


def test_cross_expectation_validation():
    with pytest.raises(InputError):
        kernel_cross_expectation([0.0], 0.0, [1.0], 1.0, 1.0)
    with pytest.raises(InputError):
        kernel_cross_expectation([0.0], 1.0, [1.0, 2.0], 1.0, 1.0)
    with pytest.raises(InputError):
        kernel_cross_expectation([0.0], 1.0, [1.0], 1.0, 0.0)


def test_analytic_mmd2_zero_for_identical_parameters():
    s = scenario(offset=0.0)
    assert analytic_mmd2(s) == 0.0


def test_analytic_mmd2_monotone_in_offset():
    values = [analytic_mmd2(scenario(offset=o)) for o in (0.0, 0.3, 0.8, 1.5, 3.0)]
    for a, b in zip(values, values[1:]):
        assert b > a


def test_analytic_mmd2_detects_variance_shift():
    assert analytic_mmd2(scenario(offset=0.0, var_t=4.0)) > 0.0


def test_estimator_mean_tracks_analytic_value():
    s = scenario(offset=0.6, gamma=0.5, d=2)
    k = s.kernel_spec()
    trials, m = 200, 60
    values = np.empty(trials)
    for t in range(trials):
        Xs, Xt = sample_scenario(s.with_seed(500 + t), m, m)
        values[t] = mmd2_unbiased(Xs, Xt, k).mmd2
    se = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean() - analytic_mmd2(s)) <= 4.0 * se


def test_sampling_is_deterministic_in_seed():
    s = scenario(seed=42)
    Xs1, Xt1 = sample_scenario(s, 7, 9)
    Xs2, Xt2 = sample_scenario(s, 7, 9)
    assert np.array_equal(Xs1, Xs2) and np.array_equal(Xt1, Xt2)
    assert Xs1.shape == (7, 2) and Xt1.shape == (9, 2)
    Xs3, _ = sample_scenario(s.with_seed(43), 7, 9)
    assert not np.array_equal(Xs1, Xs3)


def test_brute_force_policy_limit():
    Xs = np.zeros((150, 1))
    Xt = np.zeros((51, 1))
    with pytest.raises(InputError):
        brute_force_mmd2(Xs, Xt, KernelSpec(gamma=1.0))


def test_brute_force_unbiased_needs_two_per_side():
    with pytest.raises(InputError):
        brute_force_mmd2([[0.0]], [[1.0], [2.0]], KernelSpec(gamma=1.0))


def test_expansion_value_matches_gram_product():
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((6, 2))
    weights = rng.standard_normal(6)
    expansion = KernelExpansion(centers=centers, weights=weights)
    X = rng.standard_normal((9, 2))
    k = KernelSpec(gamma=0.8)
    expected = gram_matrix(X, centers, k) @ weights
    assert np.array_equal(expansion_value(expansion, X, k), expected)


def test_expansion_norm_single_center():
    expansion = KernelExpansion(centers=[[0.0, 0.0]], weights=[0.5])
    assert expansion_norm(expansion, KernelSpec(gamma=1.0)) == 0.5


def test_expansion_validation():
    with pytest.raises(InputError):
        KernelExpansion(centers=[[0.0], [1.0]], weights=[1.0])


def test_true_target_risk_matches_closed_form():
    s = scenario(offset=0.5, gamma=0.5, d=2, seed=3)
    center = np.array([0.25, 0.0])
    expansion = KernelExpansion(centers=[center], weights=[1.0])
    mean, se = true_target_risk(s, expansion, mc_samples=100_000, seed=9)
    # E_target k(c, x) in closed form via a vanishing-variance first argument
    expected = kernel_cross_expectation(center, 1e-300, s.mean_t, s.var_t, s.gamma)
    assert se < 1e-2
    assert abs(mean - expected) <= 4.0 * se


def test_true_target_risk_requires_enough_samples():
    s = scenario()
    expansion = KernelExpansion(centers=[[0.0, 0.0]], weights=[1.0])
    with pytest.raises(InputError):
        true_target_risk(s, expansion, mc_samples=100, seed=0)
    with pytest.raises(InputError):
        true_target_risk(s, KernelExpansion(centers=[[0.0]], weights=[1.0]), 10_000, 0)


def test_mixture_single_component_reduces_to_plain_mmd():
    s = scenario(offset=0.7, gamma=0.6)
    mix = analytic_mixture_mmd2(
        s.mean_s, s.var_s, [s.mean_t], [s.var_t], [1.0], s.gamma
    )
    assert mix == analytic_mmd2(s)


def test_mixture_mmd_is_convex_in_the_metric():
    rng = np.random.default_rng(1)
    for _ in range(10):
        mean_p = rng.standard_normal(2)
        m1 = mean_p + 0.3 * rng.standard_normal(2)
        m2 = mean_p + 0.3 * rng.standard_normal(2)
        v1, v2 = rng.uniform(0.5, 2.0, 2)
        gamma = 0.5
        d1 = math.sqrt(
            analytic_mixture_mmd2(mean_p, 1.0, [m1], [v1], [1.0], gamma)
        )
        d2 = math.sqrt(
            analytic_mixture_mmd2(mean_p, 1.0, [m2], [v2], [1.0], gamma)
        )
        for lam in (0.25, 0.5, 0.75):
            mix = analytic_mixture_mmd2(
                mean_p, 1.0, [m1, m2], [v1, v2], [lam, 1.0 - lam], gamma
            )
            assert math.sqrt(mix) <= lam * d1 + (1.0 - lam) * d2 + 1e-12


def test_mixture_weight_validation():
    with pytest.raises(InputError):
        analytic_mixture_mmd2([0.0], 1.0, [[1.0]], [1.0], [0.5], 1.0)
    with pytest.raises(InputError):
        analytic_mixture_mmd2([0.0], 1.0, [[1.0]], [1.0], [-1.0, 2.0], 1.0)


def test_scenario_validation():
    with pytest.raises(InputError):
        ShiftScenario(
            d=2, mean_s=[0.0], mean_t=[0.0, 0.0], var_s=1.0, var_t=1.0,
            gamma=1.0, seed=0,
        )
    with pytest.raises(InputError):
        scenario(var_s=0.0)
    with pytest.raises(InputError):
        scenario(gamma=-1.0)

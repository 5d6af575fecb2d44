"""Synthetic Gaussian shift scenarios with analytically known MMD, plus a
brute-force reference estimator.

Everything here exists to check the fast paths against independent ground
truth: closed-form MMD between isotropic Gaussians, a naive triple-loop
estimator that shares no code with the Gram-based one, and an explicit
kernel expansion whose RKHS norm and target risk are known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .kernels import KernelSpec, gram_matrix
from .validation import (
    as_features,
    as_vector,
    check_count,
    check_positive,
    check_same_dim,
)

__all__ = [
    "ShiftScenario",
    "KernelExpansion",
    "sample_scenario",
    "kernel_cross_expectation",
    "analytic_mmd2",
    "analytic_mixture_mmd2",
    "brute_force_mmd2",
    "expansion_value",
    "expansion_norm",
    "true_target_risk",
]


@dataclass(frozen=True)
class ShiftScenario:
    """Isotropic Gaussian source/target pair: N(mean_s, var_s I) vs
    N(mean_t, var_t I), with an RBF bandwidth and a sampling seed."""

    d: int
    mean_s: np.ndarray
    mean_t: np.ndarray
    var_s: float
    var_t: float
    gamma: float
    seed: int

    def __post_init__(self) -> None:
        d = check_count(self.d, "d")
        object.__setattr__(self, "d", d)
        ms = as_vector(self.mean_s, "mean_s")
        mt = as_vector(self.mean_t, "mean_t")
        if ms.shape[0] != d or mt.shape[0] != d:
            raise InputError(
                f"mean vectors must have length d={d}, "
                f"got {ms.shape[0]} and {mt.shape[0]}"
            )
        object.__setattr__(self, "mean_s", ms)
        object.__setattr__(self, "mean_t", mt)
        object.__setattr__(self, "var_s", check_positive(self.var_s, "var_s"))
        object.__setattr__(self, "var_t", check_positive(self.var_t, "var_t"))
        object.__setattr__(self, "gamma", check_positive(self.gamma, "gamma"))
        object.__setattr__(self, "seed", int(self.seed))

    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(gamma=self.gamma)

    def with_seed(self, seed: int) -> "ShiftScenario":
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class KernelExpansion:
    """Explicit RKHS element L(x) = sum_j weights[j] * k(centers[j], x)."""

    centers: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        centers = as_features(self.centers, "centers")
        weights = as_vector(self.weights, "weights")
        if weights.shape[0] != centers.shape[0]:
            raise InputError(
                f"weights length {weights.shape[0]} does not match center "
                f"count {centers.shape[0]}"
            )
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)


def sample_scenario(s: ShiftScenario, m: int, n: int):
    """Draw (Xs, Xt) with m source and n target rows; deterministic in seed."""
    m = check_count(m, "m")
    n = check_count(n, "n")
    rng = np.random.default_rng(s.seed)
    Xs = s.mean_s + math.sqrt(s.var_s) * rng.standard_normal((m, s.d))
    Xt = s.mean_t + math.sqrt(s.var_t) * rng.standard_normal((n, s.d))
    return Xs, Xt


def kernel_cross_expectation(
    mu1, var1: float, mu2, var2: float, gamma: float
) -> float:
    """E k(x, y) for x ~ N(mu1, var1 I), y ~ N(mu2, var2 I), RBF kernel.

    Closed form: with c = 1 + 2 gamma (var1 + var2),
        E k = c^(-d/2) * exp(-gamma ||mu1 - mu2||^2 / c).
    (x - y is Gaussian with mean mu1 - mu2 and covariance (var1 + var2) I;
    the RBF integrates against it in closed form.)
    """
    m1 = as_vector(mu1, "mu1")
    m2 = as_vector(mu2, "mu2")
    if m1.shape[0] != m2.shape[0]:
        raise InputError("mean vectors must share one length")
    var1 = check_positive(var1, "var1")
    var2 = check_positive(var2, "var2")
    gamma = check_positive(gamma, "gamma")
    d = m1.shape[0]
    c = 1.0 + 2.0 * gamma * (var1 + var2)
    sq = float(np.sum((m1 - m2) ** 2))
    return c ** (-d / 2.0) * math.exp(-gamma * sq / c)


def analytic_mmd2(s: ShiftScenario) -> float:
    """Population squared MMD of the scenario, from the closed form.

    E_ss k + E_tt k - 2 E_st k; zero exactly when source and target
    parameters coincide.
    """
    e_ss = kernel_cross_expectation(s.mean_s, s.var_s, s.mean_s, s.var_s, s.gamma)
    e_tt = kernel_cross_expectation(s.mean_t, s.var_t, s.mean_t, s.var_t, s.gamma)
    e_st = kernel_cross_expectation(s.mean_s, s.var_s, s.mean_t, s.var_t, s.gamma)
    return max(0.0, e_ss + e_tt - 2.0 * e_st)


def analytic_mixture_mmd2(
    mean_p,
    var_p: float,
    component_means,
    component_vars,
    weights,
    gamma: float,
) -> float:
    """Squared MMD between N(mean_p, var_p I) and a Gaussian mixture.

    The mixture has components N(component_means[i], component_vars[i] I)
    with the given weights (nonnegative, summing to 1). Expands bilinearly
    in the component cross-expectations, so the value is exact.
    """
    mp = as_vector(mean_p, "mean_p")
    means = as_features(component_means, "component_means")
    vars_ = as_vector(component_vars, "component_vars")
    w = as_vector(weights, "weights")
    if not (means.shape[0] == vars_.shape[0] == w.shape[0]):
        raise InputError("mixture component arrays must share one length")
    if means.shape[1] != mp.shape[0]:
        raise InputError("component means must match mean_p dimension")
    if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-9:
        raise InputError("weights must be nonnegative and sum to 1")
    e_pp = kernel_cross_expectation(mp, var_p, mp, var_p, gamma)
    e_pq = 0.0
    for i in range(w.shape[0]):
        e_pq += w[i] * kernel_cross_expectation(
            mp, var_p, means[i], vars_[i], gamma
        )
    e_qq = 0.0
    for i in range(w.shape[0]):
        for j in range(w.shape[0]):
            e_qq += (
                w[i]
                * w[j]
                * kernel_cross_expectation(
                    means[i], vars_[i], means[j], vars_[j], gamma
                )
            )
    return max(0.0, e_pp + e_qq - 2.0 * e_pq)


def brute_force_mmd2(Xs, Xt, k: KernelSpec) -> float:
    """Naive reference U-statistic: explicit Python loops, no Gram matrix.

    Deliberately shares no code with the vectorized estimator so agreement
    between the two is meaningful. Needs m, n >= 2; limited to m + n <= 200
    by policy.
    """
    Xsa = as_features(Xs, "Xs")
    Xta = as_features(Xt, "Xt")
    check_same_dim(Xsa, Xta, "Xs", "Xt")
    m, n = Xsa.shape[0], Xta.shape[0]
    if m + n > 200:
        raise InputError(
            f"brute-force reference is limited to m + n <= 200, got {m + n}"
        )
    if m < 2 or n < 2:
        raise InputError("unbiased estimator needs at least two samples per side")
    gamma = k.gamma
    rows_s = Xsa.tolist()
    rows_t = Xta.tolist()

    def kval(a: list, b: list) -> float:
        acc = 0.0
        for av, bv in zip(a, b):
            diff = av - bv
            acc += diff * diff
        return math.exp(-gamma * acc)

    s_st = 0.0
    for a in rows_s:
        for b in rows_t:
            s_st += kval(a, b)

    s_ss = 0.0
    for i in range(m):
        for j in range(m):
            if i != j:
                s_ss += kval(rows_s[i], rows_s[j])
    s_tt = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                s_tt += kval(rows_t[i], rows_t[j])
    return s_ss / (m * (m - 1)) + s_tt / (n * (n - 1)) - 2.0 * s_st / (m * n)


def expansion_value(expansion: KernelExpansion, X, k: KernelSpec) -> np.ndarray:
    """Evaluate L at each row of X: gram(X, centers) @ weights."""
    Xa = as_features(X, "X")
    return gram_matrix(Xa, expansion.centers, k) @ expansion.weights


def expansion_norm(expansion: KernelExpansion, k: KernelSpec) -> float:
    """Exact RKHS norm sqrt(weights' K_zz weights) of the expansion."""
    K = gram_matrix(expansion.centers, None, k)
    norm2 = float(expansion.weights @ (K @ expansion.weights))
    return math.sqrt(max(norm2, 0.0))


def true_target_risk(
    s: ShiftScenario,
    expansion: KernelExpansion,
    mc_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo target risk of the expansion loss, with standard error.

    Draws mc_samples points from the scenario's target distribution and
    averages L over them. Returns (mean, standard error).
    """
    mc_samples = check_count(mc_samples, "mc_samples", minimum=10_000)
    if expansion.centers.shape[1] != s.d:
        raise InputError(
            f"expansion centers have dimension {expansion.centers.shape[1]}, "
            f"scenario has d={s.d}"
        )
    spec = s.kernel_spec()
    rng = np.random.default_rng(int(seed))
    sd = math.sqrt(s.var_t)
    total = 0.0
    total_sq = 0.0
    remaining = mc_samples
    while remaining > 0:
        block = min(remaining, 100_000)
        draws = s.mean_t + sd * rng.standard_normal((block, s.d))
        vals = expansion_value(expansion, draws, spec)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        remaining -= block
    mean = total / mc_samples
    var = max(0.0, (total_sq - mc_samples * mean * mean) / (mc_samples - 1))
    return mean, math.sqrt(var / mc_samples)

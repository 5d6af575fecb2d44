"""Kernel ridge estimation of the loss-function RKHS norm."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from credal_cert import (
    InputError,
    KernelExpansion,
    KernelSpec,
    SingularSystemError,
    estimate_rkhs_norm,
    expansion_norm,
    expansion_value,
    gram_matrix,
)
from credal_cert.rkhs_norm import _BLOCK, _factor, _solve, fit_rkhs_norm

K = KernelSpec(gamma=0.5)


def test_zero_losses_give_zero_norm():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((15, 2))
    result = estimate_rkhs_norm(X, np.zeros(15), K)
    assert result.l_h == 0.0
    assert result.residual_rms == 0.0
    assert result.n_fit == 15


def test_single_point_matches_closed_form():
    lam = 1e-9
    result = estimate_rkhs_norm([[0.0]], [1.0], K, ridge_lambda=lam)
    # K = [[1]]: alpha = 1/(1+lam), norm = |alpha|
    assert result.l_h == pytest.approx(1.0 / (1.0 + lam), rel=1e-12)


def test_in_span_losses_recover_exact_norm():
    rng = np.random.default_rng(1)
    centers = rng.standard_normal((40, 3))
    weights = 0.2 * rng.standard_normal(40)
    expansion = KernelExpansion(centers=centers, weights=weights)
    losses = expansion_value(expansion, centers, K)
    result = estimate_rkhs_norm(centers, losses, K, ridge_lambda=1e-8)
    exact = expansion_norm(expansion, K)
    assert abs(result.l_h - exact) / exact < 0.02
    assert result.residual_rms < 1e-6


def test_larger_ridge_shrinks_the_norm():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 2))
    y = np.sin(X[:, 0])
    norms = [
        estimate_rkhs_norm(X, y, K, ridge_lambda=lam).l_h
        for lam in (1e-8, 1e-4, 1e-2, 1.0)
    ]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12


def test_halving_losses_halves_the_norm_exactly():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 2))
    y = rng.uniform(0.0, 1.0, 20)
    full = estimate_rkhs_norm(X, y, K, ridge_lambda=1e-6)
    half = estimate_rkhs_norm(X, 0.5 * y, K, ridge_lambda=1e-6)
    assert half.l_h == 0.5 * full.l_h
    assert half.residual_rms == 0.5 * full.residual_rms


def test_general_scaling_is_equivariant():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 2))
    y = rng.uniform(0.0, 1.0, 20)
    full = estimate_rkhs_norm(X, y, K, ridge_lambda=1e-6)
    scaled = estimate_rkhs_norm(X, 0.3 * y, K, ridge_lambda=1e-6)
    assert scaled.l_h == pytest.approx(0.3 * full.l_h, rel=1e-12)


def test_default_ridge_is_trace_scaled():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 2))
    result = estimate_rkhs_norm(X, rng.uniform(0.0, 1.0, 12), K)
    # unit diagonal: trace(K)/n = 1, so the default lambda is exactly 1e-6
    assert result.ridge_lambda == 1e-6


def test_duplicated_rows_raise_singular_system():
    X = np.tile(np.array([[1.0, 2.0]]), (30, 1))
    y = np.linspace(0.0, 1.0, 30)
    with pytest.raises(SingularSystemError):
        estimate_rkhs_norm(X, y, K, ridge_lambda=1e-16)


def test_validation():
    with pytest.raises(InputError):
        estimate_rkhs_norm([[0.0], [1.0]], [0.5], K)
    with pytest.raises(InputError):
        estimate_rkhs_norm([[0.0]], [0.5], K, ridge_lambda=0.0)
    with pytest.raises(InputError):
        estimate_rkhs_norm([[0.0]], [0.5], K, ridge_lambda=-1e-6)


@pytest.mark.parametrize("n", [40, 300])
def test_fit_matches_out_of_place_ridge_system_bitwise(n):
    # the fit adds lambda on the diagonal of its one copy of K; the
    # reference builds K + lambda * I apart and runs the same factorization,
    # solve and refinement step on it
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 10))
    y = rng.random(n)
    gram = gram_matrix(X, None, KernelSpec(gamma=0.05))
    lam = 1e-6 * float(np.trace(gram)) / n
    system = gram + lam * np.eye(n)
    _factor(system)
    alpha = _solve(system, y)
    alpha += _solve(system, y - (gram @ alpha + lam * alpha))
    fitted = gram @ alpha
    result = fit_rkhs_norm(gram, y)
    assert result.ridge_lambda == lam
    assert result.l_h == math.sqrt(max(float(alpha @ fitted), 0.0))
    assert result.residual_rms == math.sqrt(float(np.mean((fitted - y) ** 2)))


@pytest.mark.parametrize("d", [3, 10, 128])
@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300, 777, 2000])
def test_fit_agrees_with_lapack_cholesky(n, d):
    # uniform losses are noise to the kernel, the hardest case for the fit;
    # gamma is about the median heuristic's for standard normal rows
    rng = np.random.default_rng([n, d])
    X = rng.standard_normal((n, d))
    y = rng.random(n)
    gram = gram_matrix(X, None, KernelSpec(gamma=0.25 / d))
    result = fit_rkhs_norm(gram, y)
    system = gram + result.ridge_lambda * np.eye(n)
    alpha = cho_solve(cho_factor(system, lower=True), y)
    fitted = gram @ alpha
    l_h = math.sqrt(max(float(alpha @ fitted), 0.0))
    residual_rms = math.sqrt(float(np.mean((fitted - y) ** 2)))
    assert result.residual_rms == pytest.approx(residual_rms, rel=1e-8, abs=0.0)
    # at (2000, 3), the worst conditioned case, neither solve meets 1e-8:
    # against a solution refined in long double, scipy's l_h is off by up to
    # 1.7e-8 and the blocked fit's by 2.6e-8, and the two read 4.3e-8 apart
    rel = 1e-7 if (n, d) == (2000, 3) else 1e-8
    assert result.l_h == pytest.approx(l_h, rel=rel, abs=0.0)


@pytest.mark.parametrize("row", [0, 3 * _BLOCK - 2])
def test_indefinite_kernel_raises_singular_system(row):
    # a symmetric K with eigenvalues 3 and -1 in one 2 x 2 block, met in
    # the first diagonal block or in the last of three
    gram = np.eye(3 * _BLOCK)
    gram[row : row + 2, row : row + 2] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(SingularSystemError, match="not positive definite"):
        fit_rkhs_norm(gram, np.ones(3 * _BLOCK))


def test_ill_conditioned_kernel_raises_singular_system():
    # positive definite, but the last pivot is 1e-17 against 1: the factor
    # succeeds and its diagonal fails the conditioning check
    n = 2 * _BLOCK + 3
    gram = np.eye(n)
    gram[-1, -1] = 0.0
    with pytest.raises(SingularSystemError, match="conditioning"):
        fit_rkhs_norm(gram, np.ones(n), ridge_lambda=1e-17)

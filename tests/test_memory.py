"""Peak traced memory of the kernel layer and the ridge fit.

Peaks are in multiples of one n x n float64 matrix. A Gram matrix and the
pooled median are finished in the buffer of their one product, taken on
operands zero-padded to a multiple of 8 rows, with only cache-sized
scratch beside it; the ridge fit copies K once. N is a multiple of 8, so
the padded buffer is exactly n x n here. Permutation calibration keeps only
the upper row panels of the pooled Gram.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from credal_cert import KernelSpec, gram_matrix, median_heuristic
from credal_cert.mmd import _PANEL_ROWS, permutation_calibrate
from credal_cert.rkhs_norm import fit_rkhs_norm

N = 1000
MATRIX_BYTES = N * N * 8


def _peak_matrices(fn, matrix_bytes=MATRIX_BYTES) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / matrix_bytes


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(0)
    return rng.standard_normal((N, 10)), rng.standard_normal((N, 10))


def test_self_gram_peak(samples):
    X, _ = samples
    assert _peak_matrices(lambda: gram_matrix(X, None, KernelSpec(gamma=0.05))) <= 1.25


def test_cross_gram_peak(samples):
    X, Y = samples
    assert _peak_matrices(lambda: gram_matrix(X, Y, KernelSpec(gamma=0.05))) <= 1.25


def test_ridge_fit_peak_beyond_gram(samples):
    X, _ = samples
    K = gram_matrix(X, None, KernelSpec(gamma=0.05))
    losses = np.random.default_rng(1).random(N)
    assert _peak_matrices(lambda: fit_rkhs_norm(K, losses)) <= 1.25


def test_pooled_median_heuristic_peak(samples):
    X, Y = samples
    pooled_bytes = (2 * N) ** 2 * 8
    assert _peak_matrices(lambda: median_heuristic(X, Y), pooled_bytes) <= 1.25


def test_tied_pooled_median_heuristic_peak():
    # 0/1 features: distances are small integers, so the pairs tied with
    # the median, all kept for the final partition, are a large share
    rng = np.random.default_rng(2)
    X, Y = (rng.integers(0, 2, (N, 10)).astype(float) for _ in range(2))
    pooled_bytes = (2 * N) ** 2 * 8
    assert _peak_matrices(lambda: median_heuristic(X, Y), pooled_bytes) <= 1.25


def test_permutation_calibration_peak():
    # 4000 pooled rows span four panels, about 5/8 of the pooled Gram
    rng = np.random.default_rng(3)
    Xs, Xt = rng.standard_normal((2000, 10)), rng.standard_normal((2000, 10))
    assert 4000 > 3 * _PANEL_ROWS
    pooled_bytes = 4000**2 * 8
    peak = _peak_matrices(
        lambda: permutation_calibrate(Xs, Xt, KernelSpec(gamma=0.05)), pooled_bytes
    )
    assert peak <= 0.75

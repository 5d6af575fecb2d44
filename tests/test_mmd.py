"""MMD estimators, concentration width, and permutation calibration."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import credal_cert
from credal_cert import (
    InputError,
    KernelSpec,
    MmdEstimate,
    brute_force_mmd2,
    concentration_width,
    median_heuristic,
    mmd2_unbiased,
    mmd_upper_confidence,
    permutation_calibrate,
)
from credal_cert import mmd
from credal_cert.kernels import gram_matrix
from credal_cert.mmd import _exact_sum, _u_statistic

TWO_POINT_MMD2 = 1.2642411176571153  # 2 - 2/e at unit distance, gamma 1
WIDTH_200_200_05 = 0.19206455826398416
WIDTH_50_100_10 = 0.34616367652045704
WIDTH_8_8_20 = 0.7587135646925732
UCB_03_200_05 = 0.49206455826398415

SPEC = KernelSpec(gamma=1.0)


def _pair(draw, min_rows=2, max_rows=10, max_cols=3):
    cols = draw(st.integers(1, max_cols))
    elements = st.floats(-3.0, 3.0, allow_nan=False)
    Xs = draw(
        hnp.arrays(
            np.float64, (draw(st.integers(min_rows, max_rows)), cols), elements=elements
        )
    )
    Xt = draw(
        hnp.arrays(
            np.float64, (draw(st.integers(min_rows, max_rows)), cols), elements=elements
        )
    )
    return Xs, Xt


def test_two_point_unbiased_value():
    est = mmd2_unbiased([[0.0], [0.0]], [[1.0], [1.0]], SPEC)
    assert est.mmd2 == TWO_POINT_MMD2
    assert est.mmd == math.sqrt(TWO_POINT_MMD2)
    assert (est.m, est.n) == (2, 2)


@given(st.data())
def test_unbiased_matches_brute_force(data):
    Xs, Xt = _pair(data.draw)
    est = mmd2_unbiased(Xs, Xt, SPEC)
    ref = brute_force_mmd2(Xs, Xt, SPEC)
    assert abs(est.mmd2 - ref) <= 1e-12


@given(st.data())
def test_swap_symmetry_is_exact(data):
    Xs, Xt = _pair(data.draw)
    assert mmd2_unbiased(Xs, Xt, SPEC).mmd2 == mmd2_unbiased(Xt, Xs, SPEC).mmd2


def test_identical_sample_unbiased_is_nonpositive():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 2))
    est = mmd2_unbiased(X, X, SPEC)
    assert est.mmd2 <= 0.0
    assert est.mmd == 0.0


@given(st.data())
def test_mmd_is_clamped_square_root(data):
    Xs, Xt = _pair(data.draw)
    est = mmd2_unbiased(Xs, Xt, SPEC)
    assert est.mmd == math.sqrt(max(est.mmd2, 0.0))


def test_width_frozen_values():
    assert concentration_width(200, 200, 0.05) == WIDTH_200_200_05
    assert concentration_width(50, 100, 0.1) == WIDTH_50_100_10
    assert concentration_width(8, 8, 0.2) == WIDTH_8_8_20


def test_width_depends_on_smaller_sample_only():
    assert concentration_width(50, 100, 0.1) == concentration_width(50, 50, 0.1)
    assert concentration_width(100, 50, 0.1) == concentration_width(50, 100, 0.1)


def test_width_monotone_in_alpha_and_count():
    assert concentration_width(50, 50, 0.05) > concentration_width(50, 50, 0.2)
    assert concentration_width(200, 200, 0.1) < concentration_width(50, 50, 0.1)


def test_width_validation():
    with pytest.raises(InputError):
        concentration_width(0, 10, 0.1)
    with pytest.raises(InputError):
        concentration_width(10, 10, 0.0)
    with pytest.raises(InputError):
        concentration_width(10, 10, 1.0)


def test_upper_confidence_frozen_value():
    est = MmdEstimate(mmd2=0.09, mmd=0.3, m=200, n=200)
    assert mmd_upper_confidence(est, 0.05) == UCB_03_200_05


@given(st.data())
def test_upper_confidence_adds_width(data):
    Xs, Xt = _pair(data.draw)
    est = mmd2_unbiased(Xs, Xt, SPEC)
    alpha = data.draw(st.floats(0.01, 0.5))
    expected = est.mmd + concentration_width(est.m, est.n, alpha)
    assert mmd_upper_confidence(est, alpha) == expected


def test_unbiased_needs_two_rows_per_side():
    with pytest.raises(InputError):
        mmd2_unbiased([[0.0]], [[1.0], [2.0]], SPEC)
    with pytest.raises(InputError):
        mmd2_unbiased([[0.0], [1.0]], [[1.0]], SPEC)


def test_estimators_reject_dimension_mismatch():
    with pytest.raises(InputError):
        mmd2_unbiased(np.zeros((3, 2)), np.zeros((3, 3)), SPEC)


def test_calibration_is_deterministic_and_thread_invariant():
    rng = np.random.default_rng(3)
    Xs = rng.standard_normal((30, 2))
    Xt = 0.3 + rng.standard_normal((25, 2))
    kwargs = dict(num_permutations=200, alpha=0.1, seed=11)
    r1 = permutation_calibrate(Xs, Xt, SPEC, **kwargs)
    r2 = permutation_calibrate(Xs, Xt, SPEC, **kwargs)
    r4 = permutation_calibrate(Xs, Xt, SPEC, threads=4, **kwargs)
    assert (r1.epsilon_alpha, r1.p_value) == (r2.epsilon_alpha, r2.p_value)
    assert (r1.epsilon_alpha, r1.p_value) == (r4.epsilon_alpha, r4.p_value)
    assert r1.num_permutations == 200
    assert r1.alpha == 0.1
    assert r1.seed == 11


@pytest.mark.parametrize("panel_rows", [mmd._PANEL_ROWS, 256])
def test_calibration_thread_invariant_at_benchmark_shape(panel_rows, monkeypatch):
    # The bits of a panel product depend on the column count of z, so every
    # thread count must form the same 256-permutation batches; an even split
    # of 1000 permutations over two threads changed this radius in its low
    # bits. 1000 pooled rows are one panel by default and four of 256 rows.
    monkeypatch.setattr(mmd, "_PANEL_ROWS", panel_rows)
    rng = np.random.default_rng(np.random.SeedSequence([11, 500]))
    Xs = rng.standard_normal((500, 10))
    Xt = 0.25 + rng.standard_normal((500, 10))
    spec = median_heuristic(Xs, Xt)
    results = {
        permutation_calibrate(Xs, Xt, spec, seed=2, threads=threads)
        for threads in (1, 2, 3, 5)
    }
    assert len(results) == 1


def test_calibration_pvalue_has_add_one_form():
    rng = np.random.default_rng(4)
    Xs = rng.standard_normal((20, 2))
    Xt = rng.standard_normal((20, 2))
    result = permutation_calibrate(Xs, Xt, SPEC, num_permutations=149, seed=0)
    count = result.p_value * 150.0
    assert abs(count - round(count)) < 1e-9
    assert 1.0 / 150.0 <= result.p_value <= 1.0
    assert result.epsilon_alpha >= 0.0


def test_calibration_rejects_large_shift():
    rng = np.random.default_rng(5)
    Xs = rng.standard_normal((60, 2))
    Xt = np.array([2.5, 0.0]) + rng.standard_normal((60, 2))
    result = permutation_calibrate(Xs, Xt, SPEC, num_permutations=200, seed=0)
    assert result.p_value <= 0.01
    est = mmd2_unbiased(Xs, Xt, SPEC)
    assert est.mmd > result.epsilon_alpha


def test_calibration_pvalues_near_uniform_under_null():
    # KS distance between 200 null p-values and the uniform law
    trials = 200
    rng = np.random.default_rng(6)
    pvals = []
    for t in range(trials):
        Xs = rng.standard_normal((40, 1))
        Xt = rng.standard_normal((40, 1))
        result = permutation_calibrate(
            Xs, Xt, SPEC, num_permutations=199, seed=1000 + t
        )
        pvals.append(result.p_value)
    p = np.sort(np.array(pvals))
    grid_hi = np.arange(1, trials + 1) / trials
    grid_lo = np.arange(0, trials) / trials
    ks = max(np.max(np.abs(p - grid_hi)), np.max(np.abs(p - grid_lo)))
    assert ks < 0.1


def test_calibration_validation():
    rng = np.random.default_rng(7)
    Xs = rng.standard_normal((10, 1))
    Xt = rng.standard_normal((10, 1))
    with pytest.raises(InputError):
        permutation_calibrate(Xs, Xt, SPEC, num_permutations=0)
    with pytest.raises(InputError):
        permutation_calibrate(Xs, Xt, SPEC, alpha=1.0)
    with pytest.raises(InputError):
        permutation_calibrate(Xs, Xt, SPEC, seed=-1)
    with pytest.raises(InputError):
        permutation_calibrate(Xs, Xt, SPEC, threads=0)


# ------------------------------------------------- panels of the pooled Gram


def _indicators(m: int, n: int, num_permutations: int, seed: int) -> np.ndarray:
    """The observed split, then each permutation's source rows, as 0/1 columns."""
    N = m + n
    z = np.zeros((N, num_permutations + 1))
    z[:m, 0] = 1.0
    children = np.random.SeedSequence(seed).spawn(num_permutations)
    for j, child in enumerate(children, start=1):
        rng = np.random.Generator(np.random.PCG64(child))
        z[rng.permutation(N)[:m], j] = 1.0
    return z


@pytest.mark.parametrize("panel_rows", [16, 24])
@pytest.mark.parametrize("m, n", [(5, 5), (8, 8), (10, 7), (25, 15), (30, 40)])
def test_panels_match_the_dense_pooled_gram(panel_rows, m, n, monkeypatch):
    # 1 to 5 panels, the last one ragged where panel_rows does not divide N
    monkeypatch.setattr(mmd, "_PANEL_ROWS", panel_rows)
    rng = np.random.default_rng(m * 100 + n)
    Xs, Xt = rng.standard_normal((m, 3)), 0.3 + rng.standard_normal((n, 3))
    spec = KernelSpec(gamma=0.5)
    pooled = np.vstack([Xs, Xt])
    z = _indicators(m, n, 150, seed=3)
    K = gram_matrix(pooled, None, spec)
    s_ss = np.einsum("ij,ij->j", z, K @ z)
    s_sall = np.sum(K, axis=1) @ z
    dense = _u_statistic(m, n, s_ss, np.sum(K) - 2.0 * s_sall + s_ss, s_sall - s_ss)

    panels, row_sums, total = mmd._pooled_panels(pooled, spec)
    assert len(panels) == -(-(m + n) // panel_rows)
    stats = mmd._permutation_stats(panels, row_sums, total, m, n, z)
    # a statistic near zero is a difference of terms near its largest
    # siblings, so its error is relative to their scale, not to itself
    scale = float(np.max(np.abs(dense)))
    np.testing.assert_allclose(stats, dense, rtol=1e-12, atol=1e-12 * scale)

    alpha = 0.1
    result = permutation_calibrate(
        Xs, Xt, spec, num_permutations=150, alpha=alpha, seed=3
    )
    q = float(np.quantile(dense[1:], 1.0 - alpha, method="higher"))
    assert result.epsilon_alpha == pytest.approx(math.sqrt(max(q, 0.0)), rel=1e-12)
    expected_p = (1.0 + np.sum(dense[1:] >= dense[0])) / 151.0
    assert result.p_value == pytest.approx(expected_p, abs=1.5 / 151.0)


def test_one_panel_keeps_the_dense_bits():
    # 70 pooled rows fit one panel, whose arithmetic is the dense matrix's:
    # the values the full pooled Gram gave, pinned
    rng = np.random.default_rng(70)
    Xs = rng.standard_normal((40, 3))
    Xt = 0.3 + rng.standard_normal((30, 3))
    result = permutation_calibrate(
        Xs, Xt, KernelSpec(gamma=0.5), num_permutations=300, alpha=0.1, seed=5
    )
    assert (result.epsilon_alpha, result.p_value) == (
        0.13673987619480948,
        0.2857142857142857,
    )


_CALIBRATION_REPRS = """
import numpy as np
from credal_cert import median_heuristic, permutation_calibrate

for m, n, d in ((2000, 2000, 10), (777, 333, 7), (600, 500, 10)):
    rng = np.random.default_rng(np.random.SeedSequence([0, m, n, d]))
    Xs, Xt = rng.standard_normal((m, d)), 0.25 + rng.standard_normal((n, d))
    print(repr(permutation_calibrate(Xs, Xt, median_heuristic(Xs, Xt))))
"""


def test_calibration_does_not_depend_on_blas_threads():
    src = str(Path(credal_cert.__file__).resolve().parent.parent)
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])

    def reprs(**threads):
        proc = subprocess.run(
            [sys.executable, "-c", _CALIBRATION_REPRS],
            env=dict(env, **threads),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert reprs(OPENBLAS_NUM_THREADS="1") == reprs()


# ------------------------------------------------------------ exact cross sum

# the edges of the exact three-part split and of the float64 range in [0, 1]
SPLIT_MIN = 2.0**-30
EDGE_VALUES = [
    0.0,
    1.0,
    5e-324,
    math.nextafter(1.0, 0.0),
    SPLIT_MIN,
    math.nextafter(SPLIT_MIN, 0.0),
    math.nextafter(SPLIT_MIN, 1.0),
    2.0**-29,
    2.0**-56,
]
UNIT_ELEMENTS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))


def _fsum_bits(a: np.ndarray) -> str:
    return math.fsum(a.ravel().tolist()).hex()


@given(hnp.arrays(np.float64, st.integers(0, 400), elements=UNIT_ELEMENTS))
def test_exact_sum_equals_fsum_bitwise(a):
    assert _exact_sum(a).hex() == _fsum_bits(a)


@given(
    hnp.arrays(
        np.float64,
        st.integers(0, 400),
        elements=st.floats(SPLIT_MIN, 2.0**-29, exclude_max=True),
    )
)
def test_exact_sum_equals_fsum_in_the_lowest_split_binade(a):
    # no entry here has a high part, so every low bit counts in the total
    assert _exact_sum(a).hex() == _fsum_bits(a)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
        elements=UNIT_ELEMENTS,
    ),
    st.integers(0, 2**32 - 1),
)
def test_exact_sum_transpose_and_permutation_invariant(K, seed):
    expected = _fsum_bits(K)
    assert _exact_sum(K).hex() == expected
    assert _exact_sum(K.T).hex() == expected
    shuffled = np.random.default_rng(seed).permutation(K.ravel())
    assert _exact_sum(shuffled).hex() == expected


def _edge_array(size: int, low_binade: bool) -> np.ndarray:
    rng = np.random.default_rng(size)
    if low_binade:
        # entries in the binade of the split minimum, and no large edge
        # value: the low bits reach 2**-82 and the total stays near 2**-14,
        # so an inexact partial sum shows in the rounded total
        a = SPLIT_MIN * (1.0 + rng.random(size))
        edges = [v for v in EDGE_VALUES if v <= 2.0**-29]
    else:
        # kernel-like magnitudes spread over many binades
        a = np.exp(-rng.exponential(4.0, size))
        edges = EDGE_VALUES
    a[rng.integers(0, size, 64)] = rng.choice(edges, 64)
    return a


@pytest.mark.parametrize("low_binade", [False, True])
@pytest.mark.parametrize("size", [65535, 65536, 65537, 3 * 2**16 + 1])
def test_exact_sum_chunk_edges(size, low_binade):
    a = _edge_array(size, low_binade)
    expected = _fsum_bits(a)
    assert _exact_sum(a).hex() == expected
    assert _exact_sum(a[::-1]).hex() == expected
    assert _exact_sum(np.random.default_rng(0).permutation(a)).hex() == expected
    assert _exact_sum(a.reshape(1, -1).T).hex() == expected

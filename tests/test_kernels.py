"""Gram matrix and bandwidth properties of the RBF kernel."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import credal_cert
from credal_cert import (
    DegenerateBandwidthError,
    InputError,
    KernelSource,
    KernelSpec,
    gram_matrix,
    median_heuristic,
)
from credal_cert import kernels
from credal_cert.kernels import _zero_padded

# frozen closed-form values
EXP_NEG_ONE = 0.36787944117144233
EXP_NEG_QUARTER = 0.7788007830714049


def _sample(draw, max_rows=12, max_cols=4, min_rows=1):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(1, max_cols))
    return draw(
        hnp.arrays(
            np.float64,
            (rows, cols),
            elements=st.floats(-3.0, 3.0, allow_nan=False),
        )
    )


def test_unit_distance_unit_gamma():
    G = gram_matrix([[0.0]], [[1.0]], KernelSpec(gamma=1.0))
    assert G.shape == (1, 1)
    assert G[0, 0] == EXP_NEG_ONE


def test_two_dims_gamma_eighth():
    # squared distance 2, gamma 1/8: exponent is exactly -0.25
    G = gram_matrix([[0.0, 0.0]], [[1.0, 1.0]], KernelSpec(gamma=0.125))
    assert G[0, 0] == EXP_NEG_QUARTER


def test_coincident_points_give_one():
    G = gram_matrix([[0.7, -1.1]], [[0.7, -1.1]], KernelSpec(gamma=2.0))
    assert G[0, 0] == 1.0


@given(st.data())
def test_self_gram_unit_diagonal_and_exact_symmetry(data):
    X = _sample(data.draw, max_rows=10)
    G = gram_matrix(X, None, KernelSpec(gamma=0.7))
    assert np.array_equal(np.diag(G), np.ones(X.shape[0]))
    assert np.array_equal(G, G.T)


@given(st.data())
def test_cross_gram_transpose_matches_swapped_arguments(data):
    X = _sample(data.draw, max_rows=8)
    Y = data.draw(
        hnp.arrays(
            np.float64,
            (data.draw(st.integers(1, 8)), X.shape[1]),
            elements=st.floats(-3.0, 3.0, allow_nan=False),
        )
    )
    spec = KernelSpec(gamma=0.9)
    G = gram_matrix(X, Y, spec)
    assert G.shape == (X.shape[0], Y.shape[0])
    np.testing.assert_allclose(G, gram_matrix(Y, X, spec).T, rtol=1e-13, atol=0)


@given(st.data())
def test_entries_positive_and_at_most_one(data):
    X = _sample(data.draw)
    Y = data.draw(
        hnp.arrays(
            np.float64,
            (data.draw(st.integers(1, 10)), X.shape[1]),
            elements=st.floats(-3.0, 3.0, allow_nan=False),
        )
    )
    G = gram_matrix(X, Y, KernelSpec(gamma=data.draw(st.floats(1e-3, 2.0))))
    assert np.all(G > 0.0)
    assert np.all(G <= 1.0)


def test_self_gram_positive_semidefinite():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 6))
        X = rng.standard_normal((n, d))
        G = gram_matrix(X, None, KernelSpec(gamma=0.5))
        assert np.linalg.eigvalsh(G).min() >= -1e-8


def test_doubling_gamma_squares_entries():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((9, 3))
    Y = rng.standard_normal((7, 3))
    G1 = gram_matrix(X, Y, KernelSpec(gamma=0.6))
    G2 = gram_matrix(X, Y, KernelSpec(gamma=1.2))
    np.testing.assert_allclose(G2, G1**2, rtol=1e-12, atol=0)


def test_median_heuristic_three_points():
    # pairwise squared distances {1, 1, 4}, median 1
    spec = median_heuristic(np.array([[0.0], [1.0], [2.0]]))
    assert spec.gamma == 0.5
    assert spec.source is KernelSource.MEDIAN_HEURISTIC


def test_median_heuristic_single_pair():
    spec = median_heuristic(np.array([[0.0], [2.0]]))
    assert spec.gamma == 0.125


def test_median_heuristic_pools_both_samples():
    # pooled {0, 2} across the two samples: only the cross pair counts
    spec = median_heuristic(np.array([[0.0]]), np.array([[2.0]]))
    assert spec.gamma == 0.125


def test_median_heuristic_identical_points_degenerate():
    X = np.zeros((5, 2))
    with pytest.raises(DegenerateBandwidthError):
        median_heuristic(X)


def test_median_heuristic_needs_two_rows():
    with pytest.raises(InputError):
        median_heuristic(np.array([[1.0]]))


def test_spec_rejects_nonpositive_gamma():
    with pytest.raises(InputError):
        KernelSpec(gamma=0.0)
    with pytest.raises(InputError):
        KernelSpec(gamma=-1.0)
    with pytest.raises(InputError):
        KernelSpec(gamma=float("nan"))


def test_gram_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        gram_matrix(np.zeros((3, 2)), np.zeros((3, 3)), KernelSpec(gamma=1.0))


def test_gram_rejects_non_finite_entries():
    X = np.array([[0.0], [np.inf]])
    with pytest.raises(InputError):
        gram_matrix(X, None, KernelSpec(gamma=1.0))


def test_rbf_kernel_rejects_mismatched_vectors():
    with pytest.raises(InputError):
        gram_matrix([[0.0]], [[0.0, 1.0]], KernelSpec(gamma=1.0))


# ------------------------------------------ bitwise pins of the padded product


def _reference_sq_dists(X, Y):
    # one gemm on both operands zero-padded to a multiple of 8 rows, then
    # max((a + b) - 2g, 0) in that order
    g = _zero_padded(X) @ _zero_padded(Y).T.copy()
    a = np.einsum("ij,ij->i", X, X)
    b = np.einsum("ij,ij->i", Y, Y)
    d2 = a[:, None] + b[None, :] - 2.0 * g[: X.shape[0], : Y.shape[0]]
    return np.maximum(d2, 0.0)


def _reference_self_gram(X, gamma):
    # the out-of-place formula with the diagonal pinned to 1.0
    G = np.exp(-gamma * _reference_sq_dists(X, X))
    np.fill_diagonal(G, 1.0)
    return G


# Rows are finished in blocks of 2**15 // n_cols, n_cols being the padded
# width: 256 rows fill two blocks exactly; 255 (128 + 127), 257 (124 + 124
# + 9), 600 (11 x 54 + 6), 181 (178 + 3) and 182 (178 + 4) end ragged.
@pytest.mark.parametrize("n", [255, 256, 257, 600, 1, 2, 181, 182])
def test_self_gram_matches_out_of_place_formula_bitwise(n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 10))
    gamma = 0.05
    reference = _reference_self_gram(X, gamma)
    # None and an equal but distinct copy both give the self-Gram
    for Y in (None, X.copy()):
        G = gram_matrix(X, Y, KernelSpec(gamma=gamma))
        assert np.array_equal(G, reference)
        assert np.array_equal(G, G.T)
        assert np.array_equal(np.diag(G), np.ones(n))


def test_cross_gram_matches_out_of_place_formula_bitwise():
    gamma = 0.05
    for n_x, n_y in [(600, 50), (50, 600), (2000, 50), (777, 333)]:
        rng = np.random.default_rng(n_x)
        X = rng.standard_normal((n_x, 10))
        Y = 0.25 + rng.standard_normal((n_y, 10))
        G = gram_matrix(X, Y, KernelSpec(gamma=gamma))
        assert np.array_equal(G, np.exp(-gamma * _reference_sq_dists(X, Y)))


@pytest.mark.parametrize(
    "n_x, n_y",
    [
        (257, None),
        (258, None),
        (200, 57),
        (200, 58),
        (3, None),
        (181, None),
        (182, None),
    ],
)
def test_median_heuristic_matches_triu_indices_median(n_x, n_y):
    # 257 and 200 + 57 pooled rows give an even pair count, 258 an odd one;
    # 181 pooled rows fill one row block exactly, 182 and more leave a ragged one
    rng = np.random.default_rng(n_x)
    X = rng.standard_normal((n_x, 10))
    Y = None if n_y is None else rng.standard_normal((n_y, 10))
    pooled = X if Y is None else np.vstack([X, Y])
    n = pooled.shape[0]
    med = np.median(_reference_sq_dists(pooled, pooled)[np.triu_indices(n, 1)])
    assert median_heuristic(X, Y).gamma == 1.0 / (2.0 * med)


# ------------------------------------- the median selected through a bracket


def _reference_median(pooled):
    n = pooled.shape[0]
    return np.median(_reference_sq_dists(pooled, pooled)[np.triu_indices(n, 1)])


def _two_clusters(rng, n):
    # n = s * s rows split (s * s + s) / 2 + (s * s - s) / 2: exactly half
    # the pairs lie within a cluster, so the two middle distances are the
    # largest within-cluster one and the smallest across the gap
    s = math.isqrt(n)
    p = (n + s) // 2
    return np.vstack(
        [rng.standard_normal((p, 3)), 100.0 + rng.standard_normal((n - p, 3))]
    )


POOLED_KINDS = {
    "normal": lambda rng, n: rng.standard_normal((n, 10)),
    "rounded": lambda rng, n: np.round(rng.standard_normal((n, 10)), 1),
    "binary": lambda rng, n: rng.integers(0, 2, (n, 10)).astype(float),
    "clusters": _two_clusters,
    "cauchy": lambda rng, n: rng.standard_cauchy((n, 4)),
}


@pytest.mark.parametrize("kind", sorted(POOLED_KINDS))
@pytest.mark.parametrize("n", [800, 900, 1202])
def test_median_heuristic_bitwise_above_sampling_threshold(kind, n):
    # 900 rows split into 465 + 435 for the clusters; 1202 rows give an odd
    # pair count, 800 and 900 an even one
    pooled = POOLED_KINDS[kind](np.random.default_rng([n, len(kind)]), n)
    med = _reference_median(pooled)
    assert median_heuristic(pooled).gamma == 1.0 / (2.0 * med)
    # pooled across two samples at an uneven split
    assert median_heuristic(pooled[:301], pooled[301:]).gamma == 1.0 / (2.0 * med)


def test_two_clusters_put_the_median_in_the_gap():
    pooled = _two_clusters(np.random.default_rng(0), 900)
    d = np.sort(_reference_sq_dists(pooled, pooled)[np.triu_indices(900, 1)])
    half = d.size // 2
    assert d[half - 1] < 100.0 < 10_000.0 < d[half]


@pytest.mark.parametrize("kind", sorted(POOLED_KINDS))
@pytest.mark.parametrize("side", ["above", "below"])
def test_select_median_recovers_from_a_missed_bracket(kind, side, monkeypatch):
    pooled = POOLED_KINDS[kind](np.random.default_rng(len(kind)), 801)
    med = _reference_median(pooled)
    lo, hi = (2.0 * med + 1.0, 3.0 * med + 1.0) if side == "above" else (0.0, med / 2)
    passes = []
    count_and_keep = kernels._count_and_keep

    def counting(*args):
        passes.append(count_and_keep(*args))
        return passes[-1]

    monkeypatch.setattr(kernels, "_count_and_keep", counting)
    a = kernels._row_sqnorms(pooled)
    d2 = kernels._doubled_inner_products(pooled, pooled)
    assert kernels._select_median(pooled, a, d2, lo, hi) == med
    # the first pass misses, the second opens the missed side
    assert len(passes) == 2
    (below, kept), (below2, kept2) = passes
    half = 801 * 800 // 4
    if side == "above":
        assert below > half and below2 == 0
    else:
        assert below + kept <= half and below2 + kept2 == 2 * half


_OVERFLOW = """
import sys
import numpy as np
from credal_cert import InputError, median_heuristic

rng = np.random.default_rng(0)
if sys.argv[1] == "nan":
    # inf - inf in the products: NaN distances, on the sampled path
    X, Y = (1e160 * rng.standard_normal((300, 3)) for _ in range(2))
elif sys.argv[1] == "inf":
    # squared norms overflow, inner products do not: every distance is inf
    X, Y = 1e200 * np.eye(400), None
else:
    # one far row among ordinary ones: its distances alone overflow
    X, Y = np.vstack([rng.standard_normal((500, 3)), [[1e200, 0.0, 0.0]]]), None
try:
    median_heuristic(X, Y)
except InputError as exc:
    print(exc)
"""


@pytest.mark.parametrize("case", ["nan", "inf", "one-row"])
def test_median_heuristic_rejects_overflowing_distances(case):
    # a subprocess, so that a selection that never ends fails the test
    proc = subprocess.run(
        [sys.executable, "-c", _OVERFLOW, case],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overflow" in proc.stdout
    assert proc.stderr == ""


# ------------------------------ entries depend only on their pair of rows
#
# These pin a property of the BLAS build: one gemm on operands padded to 8
# rows rounds each inner product the same way wherever its pair sits. A
# build that breaks it fails here rather than in the certificates' bytes.

DIMS = [1, 3, 7, 10, 33, 128, 300]
# (m, n) splits of a pooled sample: row counts on a multiple of 8 and one
# off either side of one, and the 777 + 333 split of the odd digest shape
SPLITS = [
    (1, 2),
    (2, 7),
    (7, 8),
    (8, 9),
    (9, 63),
    (63, 65),
    (65, 181),
    (181, 182),
    (182, 1),
    (777, 333),
]


def _split_sample(d, m, n):
    rng = np.random.default_rng([d, m, n])
    return rng.standard_normal((m, d)), 0.25 + rng.standard_normal((n, d))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m, n", SPLITS)
def test_pooled_gram_blocks_are_the_separate_grams(d, m, n):
    Xs, Xt = _split_sample(d, m, n)
    spec = KernelSpec(gamma=0.5 / d)
    K = gram_matrix(np.vstack([Xs, Xt]), None, spec)
    assert np.array_equal(K[:m, :m], gram_matrix(Xs, None, spec))
    assert np.array_equal(K[m:, m:], gram_matrix(Xt, None, spec))
    assert np.array_equal(K[:m, m:], gram_matrix(Xs, Xt, spec))
    assert np.array_equal(gram_matrix(Xt, Xs, spec), gram_matrix(Xs, Xt, spec).T)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m, n", SPLITS)
def test_permuted_rows_permute_the_gram(d, m, n):
    Xs, Xt = _split_sample(d, m, n)
    pooled = np.vstack([Xs, Xt])
    spec = KernelSpec(gamma=0.5 / d)
    perm = np.random.default_rng(m + n).permutation(m + n)
    K = gram_matrix(pooled, None, spec)
    assert np.array_equal(gram_matrix(pooled[perm], None, spec), K[np.ix_(perm, perm)])
    assert np.array_equal(K, K.T)
    assert np.array_equal(np.diag(K), np.ones(m + n))
    rows = perm[perm < m]
    cross = gram_matrix(Xs, Xt, spec)
    assert np.array_equal(gram_matrix(Xs[rows], Xt, spec), cross[rows])


_THREAD_DIGEST = """
import hashlib
import numpy as np
from credal_cert import KernelSpec, gram_matrix, median_heuristic

digest = hashlib.sha256()
for d in (7, 10, 128):
    rng = np.random.default_rng(d)
    X = rng.standard_normal((300, d))
    Xs, Xt = rng.standard_normal((777, d)), 0.25 + rng.standard_normal((333, d))
    spec = KernelSpec(gamma=0.5 / d)
    for K in (
        gram_matrix(X, None, spec),
        gram_matrix(np.vstack([Xs, Xt]), None, spec),
        gram_matrix(Xs, Xt, spec),
    ):
        digest.update(K.tobytes())
    digest.update(repr(median_heuristic(X).gamma).encode())
    digest.update(repr(median_heuristic(Xs, Xt).gamma).encode())
print(digest.hexdigest())
"""


def test_kernel_bits_do_not_depend_on_blas_threads():
    src = str(Path(credal_cert.__file__).resolve().parent.parent)
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])

    def digest(**threads):
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_DIGEST],
            env=dict(env, **threads),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert digest(OPENBLAS_NUM_THREADS="1") == digest()

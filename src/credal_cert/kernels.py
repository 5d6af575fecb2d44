"""RBF kernel evaluation, Gram matrices, and bandwidth selection.

All kernels here are Gaussian RBF, k(x, y) = exp(-gamma * ||x - y||^2),
so every kernel value lies in (0, 1]. Squared distances are computed with
the expansion ||x||^2 + ||y||^2 - 2<x, y>, clamped at zero so cancellation
can never produce a negative distance.

Every inner product comes from one path: a single gemm on both operands
zero-padded to a multiple of _PAD rows, finished in its own buffer. Self,
cross and pooled Gram matrices and the median heuristic therefore share
bits: an entry depends only on its pair of rows, not on their positions,
the call's shape or the BLAS thread count. The same path rejects features
whose squared distances overflow float64, with an InputError, checking
only rows whose squared norm is large enough to overflow one.

The median heuristic selects the exact median of the pooled distances
without partitioning all of them: a fixed sample of pairs brackets it, one
pass over the product counts the pairs below the bracket and moves those
inside it to the front of the same buffer, and only those are partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateBandwidthError, InputError
from .validation import as_features, check_positive, check_same_dim


class KernelSource(str, Enum):
    """Provenance of a bandwidth: user-supplied or data-derived."""

    FIXED = "fixed"
    MEDIAN_HEURISTIC = "median_heuristic"


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth gamma of the RBF kernel plus where it came from."""

    gamma: float
    source: KernelSource = KernelSource.FIXED

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", check_positive(self.gamma, "gamma"))
        object.__setattr__(self, "source", KernelSource(self.source))


def _row_sqnorms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


# Entries per row block when a kernel matrix is finished: about 256 KB of
# float64, so each block's scratch stays in cache.
_BLOCK_ENTRIES = 1 << 15


def _row_blocks(n_rows: int, n_cols: int):
    """(r0, r1) bounds of consecutive row blocks of about _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // n_cols)
    for r0 in range(0, n_rows, step):
        yield r0, min(r0 + step, n_rows)


def _sq_dists_block(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances from one block g of doubled inner products 2<x, y>.

    Computes max((a + b) - g, 0) in a new scratch block, in the order of the
    unblocked formula, so the bits do not depend on the blocking. g may be
    wider than b; its columns past b.size are padding and unused.
    """
    t = a[:, None] + b[None, :]
    t -= g[:, : b.size]
    np.maximum(t, 0.0, out=t)
    return t


# Both operands of every kernel product are zero-padded to a multiple of
# _PAD rows. On the OpenBLAS build this package is tested with (0.3.31,
# SkylakeX kernels), a gemm on such operands rounds each inner product the
# same way wherever its pair of rows sits and at any thread count, because
# whole 8-row panels keep every product off the micro-kernel's edge paths.
# Padding to 2 or 4 rows, or padding one operand only, does not. This is a
# property of the BLAS build, not of this code: tests/test_kernels.py pins
# it, so a build that breaks it fails there.
_PAD = 8


def _zero_padded(X: np.ndarray) -> np.ndarray:
    """X with zero rows appended up to a multiple of _PAD rows; X if aligned."""
    n = X.shape[0]
    if n % _PAD == 0:
        return X
    Xp = np.zeros((n + -n % _PAD, X.shape[1]))
    Xp[:n] = X
    return Xp


def _doubled_inner_products(X: np.ndarray, Y: np.ndarray, out=None) -> np.ndarray:
    """2<x, y> for every pair of rows of X and Y, zero-padded to _PAD rows.

    One gemm, the only n_x * n_y allocation of a kernel call. Doubling Y is
    exact (barring overflow and subnormal products), so each entry is twice
    the undoubled product bit for bit and no pass over the result doubles
    it. The right operand is a fresh C-ordered copy, so numpy never takes
    its syrk path for an array times its own transpose. out, if given, is a
    C-contiguous buffer with room for the padded product, which fills its
    leading entries.
    """
    Xp, Yp = _zero_padded(X), _zero_padded(Y)
    if out is not None:
        shape = (Xp.shape[0], Yp.shape[0])
        out = out.reshape(-1)[: shape[0] * shape[1]].reshape(shape)
    return np.matmul(Xp, (2.0 * Yp).T.copy(), out=out)


# Squared norms above this may overflow a pooled squared distance: a
# distance is at most 2 (a_i + b_j) up to rounding, so rows at or below it
# can overflow nothing.
_LARGE_SQNORM = np.finfo(np.float64).max / 16


def overflow_error() -> InputError:
    """The InputError for features whose squared distances overflow."""
    return InputError(
        "squared distances between the feature rows overflow float64; "
        "rescale the features"
    )


def _checked_product(X, Y, same: bool, out=None) -> np.ndarray:
    """_doubled_inner_products(X, Y, out), or InputError if a distance overflows.

    same says that X and Y are one sample, whose diagonal is not checked.
    Only rows with a squared norm above _LARGE_SQNORM can overflow a
    distance. An operand whose whole sum of squares stays below it has none,
    which one dot product shows; otherwise such rows are finished and
    checked, under an errstate entered for them alone.
    """
    if np.vdot(X, X) <= _LARGE_SQNORM and (same or np.vdot(Y, Y) <= _LARGE_SQNORM):
        return _doubled_inner_products(X, Y, out)
    a, b = _row_sqnorms(X), _row_sqnorms(Y)
    finite = True
    with np.errstate(over="ignore", invalid="ignore"):
        G = _doubled_inner_products(X, Y, out)
        for i in np.flatnonzero(a > _LARGE_SQNORM):
            d2 = (a[i] + b) - G[i, : b.size]
            if same:
                d2[i] = 0.0
            finite &= bool(np.isfinite(d2).all())
        # a self product is symmetric bitwise, so its rows cover its columns
        for j in [] if same else np.flatnonzero(b > _LARGE_SQNORM):
            finite &= bool(np.isfinite((a + b[j]) - G[: a.size, j]).all())
    if not finite:
        raise overflow_error()
    return G


def padded_entries(n_x: int, n_y: int) -> int:
    """Entries of the buffer gram_matrix builds an n_x x n_y matrix in."""
    return (n_x + -n_x % _PAD) * (n_y + -n_y % _PAD)


def gram_matrix(X, Y, spec: KernelSpec, out=None) -> np.ndarray:
    """Kernel matrix with entry (i, j) = exp(-gamma * ||X[i] - Y[j]||^2).

    Parameters
    ----------
    X : array-like, shape (n_x, d)
    Y : array-like, shape (n_y, d) or None
        Pass None (or the same data as X) for the self-Gram, whose diagonal
        is pinned to exactly 1.0.
    spec : KernelSpec
    out : float64 ndarray, optional
        A C-contiguous buffer of at least padded_entries(n_x, n_y) entries
        to build the matrix in; the result is then a view of its leading
        n_x * n_y entries. Several matrices can so share one allocation.

    Returns
    -------
    ndarray, shape (n_x, n_y)
        Entries in (0, 1]. Entry (i, j) depends only on the rows X[i] and
        Y[j], not on where they sit in X and Y, so a self-Gram is bitwise
        symmetric and a block of a pooled Gram is bitwise the Gram of its
        rows. The matrix lives in the buffer of one padded product, finished
        in place by cache-sized row blocks, so the call peaks at little more
        than the result's size.

    Raises
    ------
    InputError
        If a squared distance between rows of X and Y overflows float64.
    """
    Xa = as_features(X, "X")
    if Y is None:
        Ya = Xa
    else:
        Ya = as_features(Y, "Y")
        check_same_dim(Xa, Ya, "X", "Y")
    n_x, n_y = Xa.shape[0], Ya.shape[0]
    same = Y is None or np.array_equal(Xa, Ya)
    G = _checked_product(Xa, Ya, same, out)
    a, b = _row_sqnorms(Xa), _row_sqnorms(Ya)
    # each block's unpadded place starts at or before its padded one, so
    # finished rows never overwrite rows that are still to be read
    flat = G.reshape(-1)
    for r0, r1 in _row_blocks(n_x, G.shape[1]):
        t = _sq_dists_block(G[r0:r1], a[r0:r1], b)
        t *= -spec.gamma
        np.exp(t, out=flat[r0 * n_y : r1 * n_y].reshape(r1 - r0, n_y))
    K = flat[: n_x * n_y].reshape(n_x, n_y)
    if same:
        np.fill_diagonal(K, 1.0)
    return K


# Pairs drawn to bracket the median once the pooled pairs outnumber them 4
# to 1, below which a sample costs about what it saves. The bracket's
# half-width in sample ranks is five standard deviations, sqrt(S) / 2 each,
# of the rank of the sample median: it holds about 5 / sqrt(S), some 4%, of
# the pairs and misses the median with odds of about 1e-6 per side.
_SAMPLE_PAIRS = 1 << 14
_SAMPLE_CHUNK = 1 << 10
_BRACKET_RANKS = 5 * math.isqrt(_SAMPLE_PAIRS) // 2


def _select_median(pooled, a, d2, lo, hi) -> float:
    """Exact median of the distances of distinct pooled pairs.

    d2 is the pooled product of _doubled_inner_products and a the row
    squared norms. [lo, hi] is a guess expected to hold the two middle
    order statistics; it affects only the work done. The buffer of d2 is
    overwritten.
    """
    n = a.size
    n_pairs = n * (n - 1) // 2
    # the two middle ranks, equal when the count is odd
    k1, k2 = (n_pairs - 1) // 2, n_pairs // 2
    while True:
        below, kept = _count_and_keep(d2, a, lo, hi)
        if below <= k1 and k2 < below + kept:
            break
        # A miss opens the missed side, and the pass runs again on the
        # product recomputed into the same buffer. An opened side cannot
        # miss, and an unopened one keeps its count, so one repeat is the
        # most there is (all distances are finite).
        if k1 < below:
            lo = -np.inf
        if k2 >= below + kept:
            hi = np.inf
        _doubled_inner_products(pooled, pooled, out=d2)
    candidates = d2.reshape(-1)[:kept]
    candidates.partition([k1 - below, k2 - below])
    # the mean of one or two middle values, as np.median takes it
    return float(np.mean(candidates[k1 - below : k2 - below + 1]))


def _count_and_keep(d2, a, lo, hi) -> tuple[int, int]:
    """Count the pooled distances below lo; move those in [lo, hi] to the front.

    Goes over the strict upper triangle of the distances finished from d2
    by the row blocks of gram_matrix. Returns (count below lo, count kept);
    the kept distances fill the start of d2's buffer. Pairs up to row i
    fit before position (i + 1) * n, so no block is overwritten unread.
    """
    n = a.size
    flat = d2.reshape(-1)
    below = kept = 0
    lower = None
    # an open bracket keeps every pair: copy the rows past the diagonal as
    # they are, with no mask to build and compress
    keep_all = lo == -np.inf and hi == np.inf
    for r0, r1 in _row_blocks(n, n):
        t = _sq_dists_block(d2[r0:r1, r0:n], a[r0:r1], a[r0:])
        r = r1 - r0
        if keep_all:
            for i in range(r):
                row = t[i, i + 1 :]
                flat[kept : kept + row.size] = row
                kept += row.size
            continue
        if lower is None:
            lower = np.tri(r, dtype=bool)  # the first block is the tallest
        # the block's diagonal and the pairs below it: NaN compares false
        t[:, :r][lower[:r, :r]] = np.nan
        low = t < lo
        keep = t <= hi
        keep ^= low  # lo <= hi, so low lies within t <= hi
        below += np.count_nonzero(low)
        k = np.count_nonzero(keep)
        np.compress(keep.ravel(), t.ravel(), out=flat[kept : kept + k])
        kept += k
    return below, kept


def median_heuristic(X, Y=None) -> KernelSpec:
    """Bandwidth from the median pairwise squared distance of the pooled sample.

    gamma = 1 / (2 * median ||x - y||^2) over distinct pooled pairs, bitwise
    what np.median gives over the strict upper triangle of the pooled
    distances. The median is selected exactly without partitioning every
    pair: a fixed sample of pairs brackets it, one pass over the pooled
    product counts the pairs below the bracket and keeps those inside it,
    and only the kept pairs are partitioned (Floyd and Rivest, "Expected
    time bounds for selection", CACM 1975). A bracket that misses the median
    is opened on the missed side and the pass repeated, so the result never
    depends on the sample.

    Parameters
    ----------
    X : array-like, shape (n_x, d)
    Y : array-like, shape (n_y, d), optional
        Second sample pooled with X before taking the median.

    Returns
    -------
    KernelSpec with source recorded as the median heuristic.

    Raises
    ------
    InputError
        If fewer than two rows are pooled, or if a pooled squared distance
        overflows float64.
    DegenerateBandwidthError
        If the median distance is zero (all points coincide pairwise).
    """
    Xa = as_features(X, "X")
    if Y is not None:
        Ya = as_features(Y, "Y")
        check_same_dim(Xa, Ya, "X", "Y")
        pooled = np.vstack([Xa, Ya])
    else:
        pooled = Xa
    n = pooled.shape[0]
    if n < 2:
        raise InputError("median heuristic needs at least two pooled samples")
    # the pooled Gram's own distances, finished inside its product buffer
    d2 = _checked_product(pooled, pooled, True)
    a = _row_sqnorms(pooled)
    lo, hi = -np.inf, np.inf
    if n * (n - 1) // 2 > 4 * _SAMPLE_PAIRS:
        # a fixed draw of pairs i != j, finished as the pass finishes them;
        # drawn in chunks so that no index array outgrows a small heap block
        rng = np.random.default_rng(0)
        s = np.empty(_SAMPLE_PAIRS)
        for c in range(0, _SAMPLE_PAIRS, _SAMPLE_CHUNK):
            i = rng.integers(0, n, _SAMPLE_CHUNK)
            j = rng.integers(0, n - 1, _SAMPLE_CHUNK)
            j += j >= i
            s[c : c + _SAMPLE_CHUNK] = (a[i] + a[j]) - d2[i, j]
        np.maximum(s, 0.0, out=s)
        half = _SAMPLE_PAIRS // 2
        ranks = [half - _BRACKET_RANKS, half + _BRACKET_RANKS]
        s.partition(ranks)
        lo, hi = float(s[ranks[0]]), float(s[ranks[1]])
    med = _select_median(pooled, a, d2, lo, hi)
    if med <= 0.0:
        raise DegenerateBandwidthError(
            "median pairwise distance is zero; cannot infer a bandwidth"
        )
    return KernelSpec(gamma=1.0 / (2.0 * med), source=KernelSource.MEDIAN_HEURISTIC)

"""RBF kernel evaluation, Gram matrices, and bandwidth selection.

All kernels here are Gaussian RBF, k(x, y) = exp(-gamma * ||x - y||^2),
so every kernel value lies in (0, 1]. Squared distances are computed with
the expansion ||x||^2 + ||y||^2 - 2<x, y>, clamped at zero so cancellation
can never produce a negative distance.
"""

from __future__ import annotations

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
    """Squared distances of one block of inner products g, in a new scratch block.

    Computes max((a + b) - 2g, 0) in that order, the order of the unblocked
    formula, so the bits do not depend on the blocking. g is doubled in place.
    """
    g *= 2.0
    t = a[:, None] + b[None, :]
    t -= g
    np.maximum(t, 0.0, out=t)
    return t


def gram_matrix(X, Y, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix with entry (i, j) = exp(-gamma * ||X[i] - Y[j]||^2).

    Parameters
    ----------
    X : array-like, shape (n_x, d)
    Y : array-like, shape (n_y, d) or None
        Pass None (or the same data as X) for the self-Gram; that path
        mirrors the upper triangle and pins the diagonal to exactly 1.0,
        so the result is bitwise symmetric with a unit diagonal.
    spec : KernelSpec

    Returns
    -------
    ndarray, shape (n_x, n_y)
        Entries in (0, 1]. The matrix is the buffer of X @ Y.T, finished in
        place by cache-sized row blocks, so the call peaks at little more
        than the result's size.
    """
    Xa = as_features(X, "X")
    if Y is None:
        same = True
        Ya = Xa
    else:
        Ya = as_features(Y, "Y")
        check_same_dim(Xa, Ya, "X", "Y")
        same = Ya is Xa or (Ya.shape == Xa.shape and np.array_equal(Xa, Ya))
    # the only n_x * n_y allocation; the kernel is finished inside it
    K = Xa @ Ya.T
    a = _row_sqnorms(Xa)
    n_x, n_y = K.shape
    if not same:
        b = _row_sqnorms(Ya)
        for r0, r1 in _row_blocks(n_x, n_y):
            g = K[r0:r1]
            t = _sq_dists_block(g, a[r0:r1], b)
            t *= -spec.gamma
            np.exp(t, out=g)
        return K
    for r0, r1 in _row_blocks(n_x, n_y):
        # finish the upper part only and mirror the rest from finished rows,
        # so K == K.T holds bitwise, not just approximately
        g = K[r0:r1, r0:]
        t = _sq_dists_block(g, a[r0:r1], a[r0:])
        upper = np.triu(t[:, : r1 - r0], 1)
        t[:, : r1 - r0] = upper + upper.T
        t *= -spec.gamma
        np.exp(t, out=g)
        K[r0:r1, :r0] = K[:r0, r0:r1].T
    return K


def median_heuristic(X, Y=None) -> KernelSpec:
    """Bandwidth from the median pairwise squared distance of the pooled sample.

    gamma = 1 / (2 * median ||x - y||^2) over distinct pooled pairs.

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
    # the only n * n allocation; the distances are finished inside it
    d2 = pooled @ pooled.T
    a = _row_sqnorms(pooled)
    # the distinct pairs, row by row, moved to the front of the same buffer:
    # the strict upper triangle in np.triu_indices order. Row i's pairs end
    # before position (i + 1) * n, so no later block is overwritten unread.
    flat = d2.reshape(-1)
    pos = 0
    for r0, r1 in _row_blocks(n, n):
        t = _sq_dists_block(d2[r0:r1, r0:], a[r0:r1], a[r0:])
        for i in range(r1 - r0):
            row = t[i, i + 1 :]
            flat[pos : pos + row.size] = row
            pos += row.size
    med = float(np.median(flat[:pos], overwrite_input=True))
    if med <= 0.0:
        raise DegenerateBandwidthError(
            "median pairwise distance is zero; cannot infer a bandwidth"
        )
    return KernelSpec(gamma=1.0 / (2.0 * med), source=KernelSource.MEDIAN_HEURISTIC)

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


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # (a + b) - 2G in that order, with two n_x * n_y buffers at most
    G = X @ Y.T
    G *= 2.0
    d2 = _row_sqnorms(X)[:, None] + _row_sqnorms(Y)[None, :]
    d2 -= G
    np.maximum(d2, 0.0, out=d2)
    return d2


_MIRROR_ROWS = 256


def _mirror_upper(d2: np.ndarray) -> None:
    """Overwrite the diagonal with 0 and the lower triangle with the upper.

    In place, one block of rows at a time; the result is bitwise
    triu(d2, 1) + triu(d2, 1).T.
    """
    n = d2.shape[0]
    for r0 in range(0, n, _MIRROR_ROWS):
        r1 = min(r0 + _MIRROR_ROWS, n)
        d2[r0:r1, :r0] = d2[:r0, r0:r1].T
        upper = np.triu(d2[r0:r1, r0:r1], 1)
        d2[r0:r1, r0:r1] = upper + upper.T


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
        Entries in (0, 1]. The matrix is built in place in the squared
        distance buffer, so the call peaks at about twice the result's size.
    """
    Xa = as_features(X, "X")
    if Y is None:
        same = True
        Ya = Xa
    else:
        Ya = as_features(Y, "Y")
        check_same_dim(Xa, Ya, "X", "Y")
        same = Ya is Xa or (Ya.shape == Xa.shape and np.array_equal(Xa, Ya))
    d2 = _sq_dists(Xa, Ya)
    if same:
        # mirror one triangle so K == K.T holds bitwise, not just approximately
        _mirror_upper(d2)
    d2 *= -spec.gamma
    np.exp(d2, out=d2)
    return d2


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
    d2 = _sq_dists(pooled, pooled)
    # the distinct pairs, row by row: the strict upper triangle in
    # np.triu_indices order, without its two index arrays
    vals = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        row = d2[i, i + 1 :]
        vals[pos : pos + row.size] = row
        pos += row.size
    med = float(np.median(vals, overwrite_input=True))
    if med <= 0.0:
        raise DegenerateBandwidthError(
            "median pairwise distance is zero; cannot infer a bandwidth"
        )
    return KernelSpec(gamma=1.0 / (2.0 * med), source=KernelSource.MEDIAN_HEURISTIC)

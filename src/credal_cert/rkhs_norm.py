"""RKHS loss-norm estimation via kernel ridge regression.

Fits (K + lambda I) alpha = losses and reports l_h = sqrt(alpha' K alpha),
the RKHS norm of the fitted interpolant. residual_rms measures fit quality:
a large residual suggests the loss function is poorly represented in the
kernel's RKHS and l_h should not be trusted as its norm.

The system is solved by a blocked Cholesky factorization in the one copy
of K that the fit makes, on numpy's LAPACK and BLAS alone, so the package
runs in one BLAS runtime with one thread pool. Block columns are finished
left to right: one matmul subtracts everything the finished columns
contribute to the next block column, ``np.linalg.cholesky`` factors its
diagonal block, whose factor is replaced by its inverse, and the panel below
is multiplied by that inverse's transpose. The triangular solves reuse the inverses, one
gemv pair per block, and one step of iterative refinement against K +
lambda I brings the solution back to the accuracy of substitution (on the
accuracy of the explicit inverse, see Du Croz & Higham, IMA J. Numer. Anal.
12, 1992).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import InputError, SingularSystemError
from .kernels import KernelSpec, gram_matrix
from .validation import as_features, as_vector, check_positive

# Rows per block of the factorization. Smaller blocks cost more Python
# steps, larger ones more work in LAPACK's unblocked calls on each diagonal
# block; the fit at n = 2000, d = 10 took ~58 ms at 64 and 96 rows, ~65 ms
# at 128 and ~68 ms at 192 (2 vCPUs, numpy's OpenBLAS 0.3.31)
_BLOCK = 64


@dataclass(frozen=True)
class NormEstimate:
    n_fit: int
    l_h: float
    ridge_lambda: float
    residual_rms: float


def estimate_rkhs_norm(
    X,
    losses,
    k: KernelSpec,
    ridge_lambda: float | None = None,
) -> NormEstimate:
    """Estimate the RKHS norm of the loss function from point evaluations.

    Builds the self-Gram of X and fits it with fit_rkhs_norm.

    Parameters
    ----------
    X : array-like, shape (n, d)
        Points at which the loss was observed.
    losses : array-like, shape (n,)
        Loss values at those points.
    k : KernelSpec
    ridge_lambda : float, optional
        Ridge regularizer; defaults to 1e-6 * trace(K) / n. Larger values
        shrink the fitted norm.

    Returns
    -------
    NormEstimate

    Raises
    ------
    SingularSystemError
        If the regularized system is singular or conditioned beyond float64
        resolution.
    """
    K = gram_matrix(as_features(X, "X"), None, k)
    return fit_rkhs_norm(K, losses, ridge_lambda)


def fit_rkhs_norm(
    K: np.ndarray,
    losses,
    ridge_lambda: float | None = None,
) -> NormEstimate:
    """Kernel ridge fit on a precomputed self-Gram K of the loss points.

    K must be gram_matrix(X, None, k); the result is then
    estimate_rkhs_norm(X, losses, k, ridge_lambda) bit for bit. Callers that
    also need the source Gram for something else build it once and pass it
    here.
    """
    y = as_vector(losses, "losses")
    n = K.shape[0]
    if y.shape[0] != n:
        raise InputError(
            f"losses length {y.shape[0]} does not match sample count {n}"
        )
    if ridge_lambda is None:
        ridge_lambda = 1e-6 * float(np.trace(K)) / n
    ridge_lambda = check_positive(ridge_lambda, "ridge_lambda")

    # K + lambda * I in one copy, which the factorization then overwrites
    system = K.copy()
    system.flat[:: n + 1] += ridge_lambda
    try:
        diag = _factor(system)
    except LinAlgError as exc:
        raise SingularSystemError(
            f"kernel system is not positive definite at lambda={ridge_lambda}"
        ) from exc
    if (diag.min() / diag.max()) ** 2 < np.finfo(np.float64).eps:
        raise SingularSystemError(
            "kernel system conditioning exceeds float64 resolution; "
            "increase ridge_lambda"
        )
    alpha = _solve(system, y)
    # one step of refinement against K + lambda I recovers the accuracy that
    # multiplying by explicit block inverses gives up against substitution
    alpha += _solve(system, y - (K @ alpha + ridge_lambda * alpha))
    fitted = K @ alpha
    norm2 = float(alpha @ fitted)
    residual = fitted - y
    return NormEstimate(
        n_fit=n,
        l_h=math.sqrt(max(norm2, 0.0)),
        ridge_lambda=ridge_lambda,
        residual_rms=math.sqrt(float(np.mean(residual**2))),
    )


def _factor(A: np.ndarray) -> np.ndarray:
    """Factor the symmetric positive definite A = L L' in place, by blocks.

    Reads only the lower triangle of A. On return the blocks below the
    diagonal hold those of L and each diagonal block holds the inverse of
    L's diagonal block there (lower triangular, zeros above its diagonal);
    the blocks above the diagonal are left as they were. Returns the
    diagonal of L. Raises LinAlgError when a diagonal block is found not
    positive definite.
    """
    n = A.shape[0]
    diag = np.empty(n)
    # one scratch for every update and panel product: each is at most
    # (n - _BLOCK) x _BLOCK, and a view of its leading entries is contiguous
    scratch = np.empty(max(n - _BLOCK, 0) * _BLOCK)
    for j0, j1 in _blocks(n):
        if j0:
            # the whole update from the finished columns, in one matmul
            rows = A[j0:, :j0]
            out = _view(scratch, n - j0, j1 - j0)
            A[j0:, j0:j1] -= np.matmul(rows, rows[: j1 - j0].T, out=out)
        factor = np.linalg.cholesky(A[j0:j1, j0:j1])
        diag[j0:j1] = np.diagonal(factor)
        inverse = np.tril(np.linalg.inv(factor))
        A[j0:j1, j0:j1] = inverse
        if j1 < n:
            panel = A[j1:, j0:j1]
            out = _view(scratch, n - j1, _BLOCK)
            panel[...] = np.matmul(panel, inverse.T, out=out)
    return diag


def _solve(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with L L' x = y, for A as _factor leaves it."""
    n = A.shape[0]
    x = y.copy()
    for k0, k1 in _blocks(n):
        x[k0:k1] = A[k0:k1, k0:k1] @ (x[k0:k1] - A[k0:k1, :k0] @ x[:k0])
    for k0, k1 in reversed(_blocks(n)):
        x[k0:k1] = A[k0:k1, k0:k1].T @ (x[k0:k1] - A[k1:, k0:k1].T @ x[k1:])
    return x


def _blocks(n: int) -> list[tuple[int, int]]:
    """(first, end) row pairs of the factorization's blocks, in order."""
    return [(k0, min(k0 + _BLOCK, n)) for k0 in range(0, n, _BLOCK)]


def _view(scratch: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous (rows, cols) view of scratch's leading entries."""
    return scratch[: rows * cols].reshape(rows, cols)

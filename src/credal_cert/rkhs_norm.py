"""RKHS loss-norm estimation via kernel ridge regression.

Fits (K + lambda I) alpha = losses and reports l_h = sqrt(alpha' K alpha),
the RKHS norm of the fitted interpolant. residual_rms measures fit quality:
a large residual suggests the loss function is poorly represented in the
kernel's RKHS and l_h should not be trusted as its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import InputError, SingularSystemError
from .kernels import KernelSpec, gram_matrix
from .validation import as_features, as_vector, check_positive


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

    # K + lambda * I in one Fortran-order copy, which LAPACK then factors in
    # place instead of copying it again
    system = np.array(K, order="F")
    system.flat[:: n + 1] += ridge_lambda
    try:
        factor = cho_factor(system, lower=True, overwrite_a=True)
    except LinAlgError as exc:
        raise SingularSystemError(
            f"kernel system is not positive definite at lambda={ridge_lambda}"
        ) from exc
    diag = np.abs(np.diag(factor[0]))
    if (diag.min() / diag.max()) ** 2 < np.finfo(np.float64).eps:
        raise SingularSystemError(
            "kernel system conditioning exceeds float64 resolution; "
            "increase ridge_lambda"
        )
    alpha = cho_solve(factor, y)
    fitted = K @ alpha
    norm2 = float(alpha @ fitted)
    residual = fitted - y
    return NormEstimate(
        n_fit=n,
        l_h=math.sqrt(max(norm2, 0.0)),
        ridge_lambda=ridge_lambda,
        residual_rms=math.sqrt(float(np.mean(residual**2))),
    )

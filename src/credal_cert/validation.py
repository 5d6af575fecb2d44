"""Input coercion helpers. All public entry points funnel array arguments
through these so error messages stay uniform."""

from __future__ import annotations

import numpy as np

from .errors import InputError


def as_features(x, name: str = "features") -> np.ndarray:
    """Coerce to a finite float64 matrix of shape (n_samples, n_dims)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"{name}: expected a 2-d sample matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name}: empty sample matrix with shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name}: contains non-finite values")
    return np.ascontiguousarray(arr)


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 vector."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"{name}: expected a 1-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise InputError(f"{name}: empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name}: contains non-finite values")
    return np.ascontiguousarray(arr)


def check_same_dim(a: np.ndarray, b: np.ndarray, name_a: str, name_b: str) -> None:
    if a.shape[1] != b.shape[1]:
        raise InputError(
            f"{name_a} and {name_b} disagree on dimension: "
            f"{a.shape[1]} vs {b.shape[1]}"
        )


def validated_pair(Xs, Xt, min_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Two sample matrices Xs, Xt of one dimension, each of min_count rows or more."""
    Xsa = as_features(Xs, "Xs")
    Xta = as_features(Xt, "Xt")
    check_same_dim(Xsa, Xta, "Xs", "Xt")
    if Xsa.shape[0] < min_count or Xta.shape[0] < min_count:
        raise InputError(
            f"need at least {min_count} samples per side, "
            f"got m={Xsa.shape[0]}, n={Xta.shape[0]}"
        )
    return Xsa, Xta


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InputError(f"{name}: must be a number, got {value!r}") from None


def check_probability(value: float, name: str) -> float:
    value = _as_float(value, name)
    if not np.isfinite(value) or not 0.0 < value < 1.0:
        raise InputError(f"{name}: must lie in (0, 1.0), got {value!r}")
    return value


def check_finite(value: float, name: str) -> float:
    value = _as_float(value, name)
    if not np.isfinite(value):
        raise InputError(f"{name}: must be finite, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    value = _as_float(value, name)
    if not np.isfinite(value) or value < 0.0:
        raise InputError(f"{name}: must be finite and >= 0, got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    value = _as_float(value, name)
    if not np.isfinite(value) or value <= 0.0:
        raise InputError(f"{name}: must be finite and > 0, got {value!r}")
    return value


def check_count(value: int, name: str, minimum: int = 1) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{name}: must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"{name}: must be >= {minimum}, got {value}")
    return int(value)

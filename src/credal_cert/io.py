"""File ingestion and configuration parsing for the CLI.

Feature files are comma-separated, one sample per row, with an optional
single header row (auto-detected: a first row that does not parse as
numbers). Loss files are the same format restricted to one column. Configs
are JSON objects with a fixed key set; unknown keys are rejected by name so
typos fail loud. All parse failures name the file and line.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError, ParseError
from .pac_bayes import kl_diag_gaussians

CONFIG_KEYS = {
    "gamma",
    "delta",
    "kl",
    "n_labeled",
    "l_h",
    "lambda",
    "c_w",
    "r_max",
    "alpha0",
    "epsilon",
    "num_permutations",
    "alpha",
    "seed",
}


@dataclass(frozen=True)
class CertifyConfig:
    """Validated certification parameters.

    gamma is None when the bandwidth comes from the median heuristic; l_h is
    None when the loss norm is to be estimated from the source losses;
    epsilon is None when the radius is calibrated (calibrate=True) or
    defaulted to the upper confidence limit (calibrate=False).
    """

    gamma: float | None
    delta: float
    kl: float
    n_labeled: int
    l_h: float | None
    ridge_lambda: float | None
    c_w: float
    r_max: float | None
    alpha0: float | None
    epsilon: float | None
    calibrate: bool
    num_permutations: int
    alpha: float
    seed: int | None


def file_digest(path: str | Path) -> str:
    """Hex SHA-256 of the file's raw bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_float_row(line: str) -> list[float] | None:
    try:
        return [float(token.strip()) for token in line.split(",")]
    except ValueError:
        return None


def parse_feature_rows(
    lines: list[tuple[int, str]],
    origin: str,
    max_columns: int | None = None,
) -> np.ndarray:
    """Parse CSV lines into a float matrix; origin labels error messages."""
    rows: list[list[float]] = []
    width: int | None = None
    first_data = True
    for lineno, raw in lines:
        line = raw.strip()
        if line == "":
            raise ParseError(f"{origin}: line {lineno}: empty row")
        values = _parse_float_row(line)
        if values is None:
            if first_data:
                first_data = False
                continue  # non-numeric first row is a header
            raise ParseError(
                f"{origin}: line {lineno}: could not parse row as numbers: {line!r}"
            )
        first_data = False
        if width is None:
            width = len(values)
            if max_columns is not None and width > max_columns:
                raise ParseError(
                    f"{origin}: line {lineno}: expected at most "
                    f"{max_columns} column(s), got {width}"
                )
        elif len(values) != width:
            raise ParseError(
                f"{origin}: line {lineno}: expected {width} columns, "
                f"got {len(values)}"
            )
        if not all(map(math.isfinite, values)):
            col = next(c for c, v in enumerate(values, 1) if not math.isfinite(v))
            raise ParseError(
                f"{origin}: line {lineno}: non-finite value in column {col}"
            )
        rows.append(values)
    if not rows:
        raise ParseError(f"{origin}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _numbered_lines(path: str | Path) -> list[tuple[int, str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    lines = text.split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()
    return list(enumerate(lines, start=1))


def read_features(path: str | Path) -> np.ndarray:
    """Read a feature matrix from a CSV file."""
    return parse_feature_rows(_numbered_lines(path), str(path))


def read_losses(path: str | Path) -> np.ndarray:
    """Read a single-column loss vector from a CSV file."""
    matrix = parse_feature_rows(_numbered_lines(path), str(path), max_columns=1)
    return matrix[:, 0]


def read_labels(path: str | Path) -> list[str]:
    """Read one label per line (no header; labels are opaque strings)."""
    labels = []
    for lineno, raw in _numbered_lines(path):
        label = raw.strip()
        if label == "":
            raise ParseError(f"{path}: line {lineno}: empty label")
        labels.append(label)
    if not labels:
        raise ParseError(f"{path}: no labels")
    return labels


def _as_number(value, key: str, origin: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{origin}: key {key!r} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise InputError(f"{origin}: key {key!r} must be finite")
    return value


def _as_count(value, key: str, origin: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{origin}: key {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"{origin}: key {key!r} must be >= {minimum}, got {value}")
    return value


def _load_json_object(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object at the top level")
    return payload


def _kl_from_file(path: Path) -> float:
    payload = _load_json_object(path)
    unknown = sorted(set(payload) - {"posterior", "prior"})
    if unknown:
        raise InputError(f"{path}: unknown keys: {', '.join(unknown)}")
    params = []
    for section in ("posterior", "prior"):
        if section not in payload:
            raise InputError(f"{path}: missing section {section!r}")
        block = payload[section]
        if not isinstance(block, dict) or set(block) != {"mean", "var"}:
            raise InputError(
                f"{path}: section {section!r} must be an object with keys "
                "'mean' and 'var'"
            )
        params.append((block["mean"], block["var"]))
    (post_mean, post_var), (prior_mean, prior_var) = params
    try:
        return kl_diag_gaussians(post_mean, post_var, prior_mean, prior_var)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> CertifyConfig:
    """Load and validate a certification config (JSON)."""
    path = Path(path)
    payload = _load_json_object(path)
    origin = str(path)
    unknown = sorted(set(payload) - CONFIG_KEYS)
    if unknown:
        raise InputError(f"{origin}: unknown keys: {', '.join(unknown)}")
    missing = sorted(
        k for k in ("gamma", "delta", "kl", "n_labeled", "l_h") if k not in payload
    )
    if missing:
        raise InputError(f"{origin}: missing required keys: {', '.join(missing)}")

    raw_gamma = payload["gamma"]
    if raw_gamma == "median":
        gamma = None
    else:
        gamma = _as_number(raw_gamma, "gamma", origin)
        if gamma <= 0.0:
            raise InputError(f"{origin}: key 'gamma' must be > 0 or \"median\"")

    delta = _as_number(payload["delta"], "delta", origin)
    if not 0.0 < delta < 0.5:
        raise InputError(
            f"{origin}: key 'delta' must lie in (0, 1/2) for the finite-sample "
            f"certificate, got {delta}"
        )

    raw_kl = payload["kl"]
    if isinstance(raw_kl, str):
        kl = _kl_from_file((path.parent / raw_kl).resolve())
    else:
        kl = _as_number(raw_kl, "kl", origin)
        if kl < 0.0:
            raise InputError(f"{origin}: key 'kl' must be >= 0")

    n_labeled = _as_count(payload["n_labeled"], "n_labeled", origin)

    raw_l_h = payload["l_h"]
    if raw_l_h == "estimate":
        l_h = None
    else:
        l_h = _as_number(raw_l_h, "l_h", origin)
        if l_h < 0.0:
            raise InputError(f"{origin}: key 'l_h' must be >= 0 or \"estimate\"")

    ridge_lambda = None
    if "lambda" in payload:
        if l_h is not None:
            raise InputError(
                f"{origin}: key 'lambda' is only valid with \"l_h\": \"estimate\""
            )
        ridge_lambda = _as_number(payload["lambda"], "lambda", origin)
        if ridge_lambda <= 0.0:
            raise InputError(f"{origin}: key 'lambda' must be > 0")

    c_w = _as_number(payload.get("c_w", 1.0), "c_w", origin)
    if c_w < 0.0:
        raise InputError(f"{origin}: key 'c_w' must be >= 0")

    r_max = None
    if "r_max" in payload:
        r_max = _as_number(payload["r_max"], "r_max", origin)

    alpha0 = None
    if "alpha0" in payload:
        alpha0 = _as_number(payload["alpha0"], "alpha0", origin)
        if not 0.0 < alpha0 < 1.0:
            raise InputError(f"{origin}: key 'alpha0' must lie in (0, 1)")

    calibrate = False
    epsilon = None
    if "epsilon" in payload:
        raw_eps = payload["epsilon"]
        if raw_eps == "calibrate":
            calibrate = True
        else:
            epsilon = _as_number(raw_eps, "epsilon", origin)
            if epsilon < 0.0:
                raise InputError(
                    f"{origin}: key 'epsilon' must be >= 0 or \"calibrate\""
                )

    if not calibrate:
        for key in ("num_permutations", "alpha", "seed"):
            if key in payload:
                raise InputError(
                    f"{origin}: key {key!r} is only valid with "
                    f"\"epsilon\": \"calibrate\""
                )

    num_permutations = 1000
    if "num_permutations" in payload:
        num_permutations = _as_count(
            payload["num_permutations"], "num_permutations", origin, minimum=100
        )
    alpha = 0.05
    if "alpha" in payload:
        alpha = _as_number(payload["alpha"], "alpha", origin)
        if not 0.0 < alpha < 1.0:
            raise InputError(f"{origin}: key 'alpha' must lie in (0, 1)")
    seed = None
    if "seed" in payload:
        if (
            isinstance(payload["seed"], bool)
            or not isinstance(payload["seed"], int)
            or payload["seed"] < 0
        ):
            raise InputError(f"{origin}: key 'seed' must be a nonnegative integer")
        seed = payload["seed"]

    return CertifyConfig(
        gamma=gamma,
        delta=delta,
        kl=kl,
        n_labeled=n_labeled,
        l_h=l_h,
        ridge_lambda=ridge_lambda,
        c_w=c_w,
        r_max=r_max,
        alpha0=alpha0,
        epsilon=epsilon,
        calibrate=calibrate,
        num_permutations=num_permutations,
        alpha=alpha,
        seed=seed,
    )


def _strict_json(cert: dict, **kwargs) -> str:
    """json.dumps without NaN or Infinity, which strict JSON cannot hold."""
    try:
        return json.dumps(cert, allow_nan=False, **kwargs) + "\n"
    except ValueError:
        raise NumericalError(
            "a computed value is not finite; the output would not be valid JSON"
        ) from None


def certificate_text(cert: dict) -> str:
    """Pretty JSON for a single certificate (full-precision floats).

    Raises NumericalError if a value is NaN or infinite.
    """
    return _strict_json(cert, indent=2)


def record_text(cert: dict) -> str:
    """One-line JSON for a streaming record.

    Raises NumericalError if a value is NaN or infinite.
    """
    return _strict_json(cert, separators=(",", ":"))

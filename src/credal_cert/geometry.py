"""Geodesic distortion diagnostics around anchor points.

For an anchor f and samples Xs, Xt, the mean kernel-metric distance gap
linearizes locally to sqrt(2 gamma) * |E_s||f - y|| - E_t||f - y|||, which
the shift bounds by sqrt(2 gamma) * C_W * MMD up to a remainder quadratic
in the local radius eps_bar. The report carries both sides, the slack, and
eps_bar so callers can apply their own remainder tolerance.

The bound side does not depend on the anchor, so the MMD is computed once
per call and shared by every anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import KernelSpec, overflow_error
from .mmd import mmd2_unbiased
from .validation import as_features, check_nonnegative, validated_pair


@dataclass(frozen=True)
class DistortionReport:
    anchor_index: int
    lhs_estimate: float
    rhs_bound: float
    slack: float
    epsilon_bar: float


@dataclass(frozen=True)
class ClassDistortionSummary:
    class_label: str
    sample_count: int
    mean_distortion: float
    max_distortion: float


def _validated_samples(anchors_a: np.ndarray, Xs, Xt, c_w: float):
    Xsa, Xta = validated_pair(Xs, Xt, min_count=1)
    if Xsa.shape[1] != anchors_a.shape[1]:
        raise InputError(
            f"anchor dimension {anchors_a.shape[1]} does not match sample "
            f"dimension {Xsa.shape[1]}"
        )
    return Xsa, Xta, check_nonnegative(c_w, "c_w")


def _anchor_sides(anchors_a, Xsa, Xta, scale: float) -> list[tuple[float, float]]:
    """(lhs_estimate, epsilon_bar) for each anchor row, in row order.

    Raises InputError, as the kernel path does, when a distance between an
    anchor and a sample row overflows float64.
    """
    sides = []
    with np.errstate(over="ignore", invalid="ignore"):
        for a in anchors_a:
            dist_s = np.linalg.norm(Xsa - a, axis=1)
            dist_t = np.linalg.norm(Xta - a, axis=1)
            lhs = scale * abs(float(np.mean(dist_s)) - float(np.mean(dist_t)))
            sides.append((lhs, max(float(np.max(dist_s)), float(np.max(dist_t)))))
    if not all(math.isfinite(eps_bar) for _, eps_bar in sides):
        raise overflow_error()
    return sides


def geodesic_distortion(
    anchors,
    Xs,
    Xt,
    k: KernelSpec,
    c_w: float = 1.0,
) -> list[DistortionReport]:
    """Distortion diagnostic at each anchor row, in row order.

    anchors has shape (n_anchors, d); report i has anchor_index i.
    lhs_estimate = sqrt(2 gamma) * |mean dist to Xs - mean dist to Xt|,
    rhs_bound = sqrt(2 gamma) * c_w * unbiased MMD (negative squared
    estimates clamp to zero), epsilon_bar = the largest anchor distance
    among all rows used, slack = rhs - lhs. The MMD is computed once and
    every anchor shares the same rhs_bound. The linearization is trustworthy
    only when epsilon_bar is small; it is reported, not enforced.
    """
    anchors_a = as_features(anchors, "anchors")
    Xsa, Xta, c_w = _validated_samples(anchors_a, Xs, Xt, c_w)
    scale = math.sqrt(2.0 * k.gamma)
    rhs = scale * c_w * mmd2_unbiased(Xsa, Xta, k).mmd
    sides = _anchor_sides(anchors_a, Xsa, Xta, scale)
    return [
        DistortionReport(
            anchor_index=i,
            lhs_estimate=lhs,
            rhs_bound=rhs,
            slack=rhs - lhs,
            epsilon_bar=eps_bar,
        )
        for i, (lhs, eps_bar) in enumerate(sides)
    ]


def rare_class_report(
    anchors,
    labels,
    Xs,
    Xt,
    k: KernelSpec,
    c_w: float = 1.0,
) -> list[ClassDistortionSummary]:
    """Per-class distortion summary, rare classes first.

    Groups the anchors by label and reports, per class, the mean and max of
    the lhs_estimate that geodesic_distortion reports for its anchors, sorted
    by ascending sample count. No MMD is computed: the bound side does not
    depend on the anchor.
    """
    anchors_a = as_features(anchors, "anchors")
    label_list = [str(v) for v in np.asarray(labels).ravel()]
    if len(label_list) != anchors_a.shape[0]:
        raise InputError(
            f"labels length {len(label_list)} does not match anchor count "
            f"{anchors_a.shape[0]}"
        )
    Xsa, Xta, _ = _validated_samples(anchors_a, Xs, Xt, c_w)
    scale = math.sqrt(2.0 * k.gamma)
    lhs = np.array([lhs for lhs, _ in _anchor_sides(anchors_a, Xsa, Xta, scale)])
    groups: dict[str, list[int]] = {}
    for i, label in enumerate(label_list):
        groups.setdefault(label, []).append(i)
    summaries = [
        ClassDistortionSummary(
            class_label=label,
            sample_count=len(idx),
            mean_distortion=float(np.mean(lhs[idx])),
            max_distortion=float(np.max(lhs[idx])),
        )
        for label, idx in groups.items()
    ]
    summaries.sort(key=lambda s: (s.sample_count, s.class_label))
    return summaries

"""Geodesic distortion diagnostics and per-class summaries."""

from __future__ import annotations

import math

import numpy as np
import pytest

from credal_cert import (
    InputError,
    KernelSpec,
    geodesic_distortion,
    mmd2_unbiased,
    rare_class_report,
)

LHS_TENTH_GAP_UNIT_GAMMA = 0.14142135623730953  # sqrt(2) * |0.1 - 0.2|

K1 = KernelSpec(gamma=1.0)


def test_expected_feature_distance_frozen_value():
    # gamma 1/2 makes the scale sqrt(2 gamma) exactly 1, and a target at the
    # anchor contributes distance 0, so lhs is the mean source distance
    [report] = geodesic_distortion(
        [[0.0]], [[3.0], [4.0]], [[0.0], [0.0]], KernelSpec(gamma=0.5)
    )
    assert report.lhs_estimate == 3.5


def test_expected_feature_distance_zero_at_anchor():
    at_anchor = [[1.0, 2.0], [1.0, 2.0]]
    [report] = geodesic_distortion([[1.0, 2.0]], at_anchor, at_anchor, K1)
    assert report.lhs_estimate == 0.0
    assert report.epsilon_bar == 0.0


def test_expected_feature_distance_dimension_mismatch():
    with pytest.raises(InputError):
        geodesic_distortion([[0.0, 1.0]], [[3.0], [4.0]], [[3.0], [4.0]], K1)


def test_distortion_frozen_example():
    Xs = [[0.1], [0.1]]
    Xt = [[0.2], [0.2]]
    [report] = geodesic_distortion([[0.0]], Xs, Xt, K1)
    assert report.anchor_index == 0
    assert report.lhs_estimate == LHS_TENTH_GAP_UNIT_GAMMA
    assert report.epsilon_bar == 0.2
    est = mmd2_unbiased(Xs, Xt, K1)
    assert report.rhs_bound == math.sqrt(2.0) * 1.0 * est.mmd
    assert report.slack == report.rhs_bound - report.lhs_estimate


def test_distortion_quadrupled_gamma_doubles_lhs_exactly():
    rng = np.random.default_rng(0)
    Xs = rng.standard_normal((10, 2))
    Xt = 0.3 + rng.standard_normal((12, 2))
    anchor = np.zeros((1, 2))
    [base] = geodesic_distortion(anchor, Xs, Xt, KernelSpec(gamma=0.7))
    [quad] = geodesic_distortion(anchor, Xs, Xt, KernelSpec(gamma=2.8))
    assert quad.lhs_estimate == 2.0 * base.lhs_estimate


def test_distortion_doubled_gamma_scales_lhs_by_sqrt_two():
    rng = np.random.default_rng(1)
    Xs = rng.standard_normal((10, 2))
    Xt = 0.3 + rng.standard_normal((12, 2))
    anchor = np.zeros((1, 2))
    [base] = geodesic_distortion(anchor, Xs, Xt, KernelSpec(gamma=0.7))
    [doubled] = geodesic_distortion(anchor, Xs, Xt, KernelSpec(gamma=1.4))
    assert doubled.lhs_estimate == pytest.approx(
        math.sqrt(2.0) * base.lhs_estimate, rel=1e-14
    )


def test_distortion_row_permutation_invariance():
    rng = np.random.default_rng(2)
    Xs = rng.standard_normal((15, 3))
    Xt = 0.2 + rng.standard_normal((11, 3))
    anchor = rng.standard_normal((1, 3))
    [base] = geodesic_distortion(anchor, Xs, Xt, K1)
    [shuffled] = geodesic_distortion(
        anchor, Xs[rng.permutation(15)], Xt[rng.permutation(11)], K1
    )
    assert shuffled.lhs_estimate == pytest.approx(base.lhs_estimate, rel=1e-12)
    assert shuffled.rhs_bound == pytest.approx(base.rhs_bound, rel=1e-12)


def test_distortion_zero_weight_constant_gives_zero_rhs():
    rng = np.random.default_rng(3)
    Xs = rng.standard_normal((8, 2))
    Xt = rng.standard_normal((9, 2))
    [report] = geodesic_distortion(np.zeros((1, 2)), Xs, Xt, K1, c_w=0.0)
    assert report.rhs_bound == 0.0
    assert report.slack == -report.lhs_estimate


def test_distortion_validation():
    Xs = np.zeros((3, 2))
    Xt = np.zeros((3, 2))
    with pytest.raises(InputError):
        geodesic_distortion([[0.0]], Xs, Xt, K1)
    with pytest.raises(InputError):
        geodesic_distortion([[0.0, 0.0]], Xs, np.zeros((3, 3)), K1)
    with pytest.raises(InputError):
        geodesic_distortion([[0.0, 0.0]], Xs, Xt, K1, c_w=-1.0)
    with pytest.raises(InputError):
        geodesic_distortion([0.0, 0.0], Xs, Xt, K1)


def test_distortion_rows_match_single_anchor_calls_bitwise():
    rng = np.random.default_rng(7)
    Xs = rng.standard_normal((25, 3))
    Xt = 0.3 + rng.standard_normal((20, 3))
    anchors = rng.standard_normal((5, 3))
    reports = geodesic_distortion(anchors, Xs, Xt, K1, c_w=1.5)
    assert [r.anchor_index for r in reports] == [0, 1, 2, 3, 4]
    assert len({r.rhs_bound for r in reports}) == 1
    for i, report in enumerate(reports):
        [single] = geodesic_distortion(anchors[i : i + 1], Xs, Xt, K1, c_w=1.5)
        assert (
            single.lhs_estimate,
            single.rhs_bound,
            single.slack,
            single.epsilon_bar,
        ) == (
            report.lhs_estimate,
            report.rhs_bound,
            report.slack,
            report.epsilon_bar,
        )


def test_rare_class_report_sorts_rare_first():
    rng = np.random.default_rng(4)
    Xs = rng.standard_normal((20, 2))
    Xt = 0.4 + rng.standard_normal((20, 2))
    anchors = rng.standard_normal((3, 2))
    labels = ["common", "common", "rare"]
    summaries = rare_class_report(anchors, labels, Xs, Xt, K1)
    assert [s.class_label for s in summaries] == ["rare", "common"]
    assert [s.sample_count for s in summaries] == [1, 2]
    per_anchor = [r.lhs_estimate for r in geodesic_distortion(anchors, Xs, Xt, K1)]
    assert summaries[0].mean_distortion == pytest.approx(per_anchor[2], rel=1e-12)
    assert summaries[0].max_distortion == pytest.approx(per_anchor[2], rel=1e-12)
    assert summaries[1].mean_distortion == pytest.approx(
        np.mean(per_anchor[:2]), rel=1e-12
    )
    assert summaries[1].max_distortion == pytest.approx(
        np.max(per_anchor[:2]), rel=1e-12
    )


@pytest.mark.parametrize(
    "m, n, d, num_anchors",
    [(40, 30, 1, 12), (300, 200, 3, 9), (150, 90, 10, 8), (70, 120, 128, 6)],
)
def test_rare_class_summaries_equal_anchor_report_bitwise(m, n, d, num_anchors):
    rng = np.random.default_rng(1000 + d)
    Xs = rng.standard_normal((m, d))
    Xt = 0.3 + 1.1 * rng.standard_normal((n, d))
    anchors = rng.standard_normal((num_anchors, d))
    labels = [("a", "b", "c")[int(v)] for v in rng.integers(0, 3, num_anchors)]
    k = KernelSpec(gamma=0.37 / d)
    lhs = [r.lhs_estimate for r in geodesic_distortion(anchors, Xs, Xt, k)]
    summaries = rare_class_report(anchors, labels, Xs, Xt, k)
    assert sum(s.sample_count for s in summaries) == num_anchors
    for s in summaries:
        values = [v for v, label in zip(lhs, labels) if label == s.class_label]
        assert s.mean_distortion == float(np.mean(values))
        assert s.max_distortion == float(np.max(values))


def test_rare_class_ties_break_by_label():
    rng = np.random.default_rng(5)
    Xs = rng.standard_normal((10, 2))
    Xt = rng.standard_normal((10, 2))
    anchors = rng.standard_normal((2, 2))
    summaries = rare_class_report(anchors, ["b", "a"], Xs, Xt, K1)
    assert [s.class_label for s in summaries] == ["a", "b"]


def test_rare_class_label_count_mismatch():
    rng = np.random.default_rng(6)
    with pytest.raises(InputError):
        rare_class_report(
            rng.standard_normal((3, 2)),
            ["a", "b"],
            rng.standard_normal((5, 2)),
            rng.standard_normal((5, 2)),
            K1,
        )


def test_overflowing_anchor_distances_raise_input_error():
    # the samples are ordinary, so only the anchor distances can overflow;
    # under all="raise" a stray floating-point warning would fail too
    rng = np.random.default_rng(0)
    Xs, Xt = rng.standard_normal((40, 3)), rng.standard_normal((30, 3))
    anchors = 1e200 * rng.standard_normal((5, 3))
    k = KernelSpec(gamma=0.5)
    with np.errstate(all="raise"):
        with pytest.raises(InputError, match="overflow"):
            geodesic_distortion(anchors, Xs, Xt, k)
        with pytest.raises(InputError, match="overflow"):
            rare_class_report(anchors, list("aabbc"), Xs, Xt, k)
    # an anchor whose squared distances come close to the float64 maximum,
    # but stay below it, passes
    [report] = geodesic_distortion([[1.2e154, 0.0, 0.0]], Xs, Xt, k)
    assert math.isfinite(report.lhs_estimate)

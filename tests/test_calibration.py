"""Shift estimation, class weighting, and pseudo-label re-ranking."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from shiftlab import (
    LabelShiftState,
    PseudoLabels,
    calibrate,
    estimate_target_distribution,
    shift_metric,
    source_distribution,
    weighting_matrix,
)


def pseudo(labels, confidences) -> PseudoLabels:
    labels = np.asarray(labels, dtype=np.int64)
    confidences = np.asarray(confidences, dtype=np.float64)
    return PseudoLabels(labels, confidences, labels, confidences)


class TestSourceDistribution:
    def test_smoothed_counts(self):
        dist = source_distribution([0, 0, 0, 1], num_classes=3)
        np.testing.assert_allclose(dist, [3.5 / 5.5, 1.5 / 5.5, 0.5 / 5.5], rtol=1e-12)

    def test_second_oracle(self):
        dist = source_distribution([0, 0, 1, 1, 1, 2], num_classes=3)
        np.testing.assert_allclose(dist, [1.0 / 3.0, 0.4666666666666667, 0.2], rtol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        dist = source_distribution(rng.integers(0, 7, 100), num_classes=7)
        assert dist.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(dist > 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            source_distribution([], num_classes=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            source_distribution([0, 3], num_classes=3)


class TestEstimateTargetDistribution:
    def test_strictly_above_threshold(self):
        # confidence exactly at the cut is excluded
        p = pseudo([0, 1, 1], [0.6, 0.5, 0.4])
        dist = estimate_target_distribution(p, threshold=0.5, num_classes=2)
        np.testing.assert_allclose(dist, [0.75, 0.25], rtol=1e-12)

    def test_fallback_when_none_confident(self, caplog):
        p = pseudo([0, 1], [0.3, 0.3])
        with caplog.at_level(logging.WARNING):
            dist = estimate_target_distribution(p, threshold=0.9, num_classes=2)
        np.testing.assert_allclose(dist, [0.5, 0.5], rtol=1e-12)
        assert "no pseudo-label above confidence" in caplog.text

    def test_threshold_range(self):
        p = pseudo([0], [0.9])
        with pytest.raises(ValueError):
            estimate_target_distribution(p, threshold=1.0, num_classes=2)
        with pytest.raises(ValueError):
            estimate_target_distribution(p, threshold=-0.1, num_classes=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_target_distribution([], threshold=0.5, num_classes=2)


class TestShiftMetric:
    def test_ratio(self):
        m = shift_metric(np.array([0.5, 0.25, 0.25]), np.array([0.25, 0.25, 0.5]))
        np.testing.assert_allclose(m, [0.5, 1.0, 2.0], rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            shift_metric(np.ones(3) / 3, np.ones(2) / 2)

    def test_zero_source_rejected(self):
        with pytest.raises(ValueError):
            shift_metric(np.array([1.0, 0.0]), np.array([0.5, 0.5]))


class TestWeightingMatrix:
    def test_oracle_values(self):
        w = weighting_matrix(np.array([1.0, 4.0, 0.5, 2.0]), offset=1.5)
        np.testing.assert_allclose(
            w,
            [
                0.5353664577906854,
                0.6114953980695789,
                0.5017388534160124,
                0.5736850437183043,
            ],
            rtol=1e-12,
        )

    def test_open_bounds(self):
        # 1/(offset+1) < W < 1/offset over a wide log-uniform metric range
        rng = np.random.default_rng(17)
        metric = 10.0 ** rng.uniform(-3, 3, 1000)
        w = weighting_matrix(metric, offset=1.5)
        assert np.all(w > 0.4)
        assert np.all(w < 1.0 / 1.5)

    def test_strictly_increasing(self):
        metric = np.sort(10.0 ** np.random.default_rng(3).uniform(-3, 3, 1000))
        w = weighting_matrix(metric, offset=1.5)
        assert np.all(np.diff(w) > 0.0)

    def test_nonpositive_metric_rejected(self):
        with pytest.raises(ValueError):
            weighting_matrix(np.array([1.0, 0.0]), offset=1.5)

    def test_nonpositive_offset_rejected(self):
        with pytest.raises(ValueError):
            weighting_matrix(np.array([1.0]), offset=0.0)


class TestCalibrate:
    def test_reranks_but_keeps_raw_probability(self):
        w = weighting_matrix(np.array([0.5, 2.0]), offset=1.5)
        out = calibrate(np.array([[0.52, 0.48]]), w)
        assert len(out) == 1
        assert out.raw_label[0] == 0
        assert out.raw_confidence[0] == 0.52
        assert out.calibrated_label[0] == 1
        assert out.calibrated_confidence[0] == 0.48
        assert out.calibrated[0]

    def test_uniform_weights_no_op(self):
        rng = np.random.default_rng(23)
        raw = rng.uniform(size=(10000, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        out = calibrate(probs, np.full(4, 0.37))
        assert np.all(out.calibrated_label == out.raw_label)
        assert np.all(out.calibrated_confidence == out.raw_confidence)

    def test_tie_takes_lowest_index(self):
        out = calibrate(np.array([[0.5, 0.5]]), np.ones(2))
        assert out.raw_label[0] == 0
        assert out.calibrated_label[0] == 0

    def test_calibrated_confidence_never_exceeds_raw(self):
        rng = np.random.default_rng(29)
        raw = rng.uniform(size=(500, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        w = weighting_matrix(10.0 ** rng.uniform(-2, 2, 5), offset=1.5)
        out = calibrate(probs, w)
        assert np.all(out.calibrated_confidence <= out.raw_confidence)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            calibrate(np.ones((2, 3)) / 3, np.ones(2))
        with pytest.raises(ValueError):
            calibrate(np.ones(3) / 3, np.ones(3))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        raw = rng.uniform(size=(200, 6))
        probs = raw / raw.sum(axis=1, keepdims=True)
        w = weighting_matrix(10.0 ** rng.uniform(-1, 1, 6), offset=1.5)
        out = calibrate(probs, w)
        for i in range(len(out)):
            best, best_v = 0, -np.inf
            for k in range(6):
                v = probs[i, k] * w[k]
                if v > best_v:
                    best, best_v = k, v
            assert out.calibrated_label[i] == best
            assert out.calibrated_confidence[i] == probs[i, best]


class TestLabelShiftState:
    def test_estimate_pipeline(self):
        state = LabelShiftState.estimate(
            source_labels=[0, 0, 0, 1],
            pseudo=pseudo([0, 1, 1], [0.6, 0.9, 0.8]),
            threshold=0.5,
            num_classes=2,
            offset=1.5,
        )
        np.testing.assert_allclose(state.source_dist, [3.5 / 5, 1.5 / 5], rtol=1e-12)
        np.testing.assert_allclose(state.target_dist_est, [1.5 / 4, 2.5 / 4], rtol=1e-12)
        np.testing.assert_allclose(
            state.metric, state.target_dist_est / state.source_dist, rtol=1e-12
        )
        np.testing.assert_allclose(
            state.class_weights, weighting_matrix(state.metric, 1.5), rtol=1e-12
        )

    def test_head_class_weight_rises_under_reversal(self):
        # source head 0, target head 1: class 1 must get the larger weight
        state = LabelShiftState.estimate(
            source_labels=[0] * 90 + [1] * 10,
            pseudo=pseudo([0] * 10 + [1] * 90, [0.9] * 100),
            threshold=0.5,
            num_classes=2,
            offset=1.5,
        )
        assert state.class_weights[1] > state.class_weights[0]

    def test_to_dict_json_round_trip(self):
        state = LabelShiftState.estimate(
            source_labels=[0, 1, 1, 2],
            pseudo=pseudo([0, 1, 2], [0.8, 0.7, 0.9]),
            threshold=0.5,
            num_classes=3,
            offset=1.5,
        )
        blob = json.loads(json.dumps(state.to_dict()))
        np.testing.assert_array_equal(blob["class_weights"], state.class_weights)
        assert blob["offset"] == 1.5

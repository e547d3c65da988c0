"""Per-class scoring, pseudo-label audits, and the evaluator's label access."""

from __future__ import annotations

import numpy as np
import pytest

from shiftlab import (
    EVALUATOR_ACCESS,
    PseudoLabels,
    ShiftSpec,
    generate,
    make_audit_fn,
    per_class_accuracies,
    per_class_mean_accuracy,
    pseudo_label_audit,
    true_distribution,
)


class TestPerClassAccuracy:
    def test_recall_per_class(self):
        true = [0, 0, 1, 1, 1, 1, 1]
        pred = [0, 1, 1, 1, 1, 1, 0]
        recalls = per_class_accuracies(pred, true, num_classes=2)
        assert recalls == [0.5, 0.8]

    def test_mean_is_unweighted(self):
        # head class dominated by samples, not by the metric
        true = [0, 0, 1, 1, 1, 1, 1]
        pred = [0, 1, 1, 1, 1, 1, 0]
        assert per_class_mean_accuracy(pred, true, num_classes=2) == pytest.approx(0.65)

    def test_absent_class_is_none_and_excluded(self):
        true = [0, 0, 2]
        pred = [0, 0, 2]
        recalls = per_class_accuracies(pred, true, num_classes=3)
        assert recalls == [1.0, None, 1.0]
        assert per_class_mean_accuracy(pred, true, num_classes=3) == 1.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        true = rng.integers(0, 4, 200)
        pred = rng.integers(0, 4, 200)
        perm = np.array([2, 0, 3, 1])
        plain = per_class_mean_accuracy(pred, true, 4)
        permuted = per_class_mean_accuracy(perm[pred], perm[true], 4)
        assert plain == pytest.approx(permuted, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            per_class_accuracies([], [], 2)
        with pytest.raises(ValueError):
            per_class_accuracies([0, 1], [0], 2)
        with pytest.raises(ValueError):
            per_class_accuracies([0, 2], [0, 1], 2)


def pseudo_labels(rows) -> PseudoLabels:
    """PseudoLabels from (raw, raw_conf, calibrated, calibrated_conf) rows."""
    raw, raw_conf, cal, cal_conf = (np.array(col) for col in zip(*rows))
    return PseudoLabels(raw, raw_conf, cal, cal_conf)


class TestPseudoLabelAudit:
    def audit_fixture(self):
        truth = [0, 1, 2, 0, 1, 2]
        pseudo = pseudo_labels([
            (0, 0.9, 0, 0.9),
            (1, 0.9, 1, 0.9),
            (0, 0.5, 2, 0.4),  # flip, calibration fixes it
            (0, 0.5, 1, 0.4),  # flip, calibration breaks it
            (2, 0.9, 2, 0.9),
            (2, 0.9, 2, 0.9),
        ])
        return pseudo, truth

    def test_subset_scores_cover_flips_only(self):
        pseudo, truth = self.audit_fixture()
        rec = pseudo_label_audit(pseudo, truth)
        assert rec.subset_acc_raw == 0.5
        assert rec.subset_acc_calibrated == 0.5
        assert rec.calibrated_fraction == pytest.approx(1 / 3)

    def test_overall_scores(self):
        pseudo, truth = self.audit_fixture()
        rec = pseudo_label_audit(pseudo, truth)
        assert rec.pseudo_acc_raw == pytest.approx(4 / 6)
        assert rec.pseudo_acc_calibrated == pytest.approx(4 / 6)

    def test_no_flips_leaves_subsets_none(self):
        pseudo = pseudo_labels([(0, 0.9, 0, 0.9), (1, 0.8, 1, 0.8)])
        rec = pseudo_label_audit(pseudo, [0, 0])
        assert rec.subset_acc_raw is None
        assert rec.subset_acc_calibrated is None
        assert rec.calibrated_fraction == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pseudo_label_audit(pseudo_labels([(0, 0.9, 0, 0.9)]), [0, 1])


class TestEvaluatorAccess:
    def test_true_distribution_reads_hidden_labels(self, tiny_pair):
        _, tgt = tiny_pair
        dist = true_distribution(tgt)
        assert dist.shape == (3,)
        assert dist.sum() == pytest.approx(1.0)
        # target order reverses the source imbalance: class 2 is the head
        assert dist[2] == dist.max()

    def test_audit_fn_matches_direct_computation(self, tiny_pair):
        _, tgt = tiny_pair
        truth = tgt.labels_for_eval(EVALUATOR_ACCESS)
        rng = np.random.default_rng(7)
        raw = rng.integers(0, 3, len(truth))
        conf = np.full(len(raw), 0.9)
        pseudo = PseudoLabels(raw, conf, raw, conf)
        out = make_audit_fn(tgt)(pseudo)
        assert out["pseudo_acc_raw"] == pytest.approx((raw == truth).mean())
        assert out["pseudo_acc_calibrated"] == out["pseudo_acc_raw"]
        assert out["subset_acc_raw"] is None
        assert out["target_per_class_acc"] == pytest.approx(
            per_class_mean_accuracy(raw, truth, 3)
        )

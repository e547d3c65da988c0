"""Per-class scoring, pseudo-label audits, and the evaluator's label access."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import shiftlab
from shiftlab import (
    EVALUATOR_ACCESS,
    LabelShiftState,
    PseudoLabels,
    RunReport,
    ShiftSpec,
    TrainConfig,
    calibrate,
    classify,
    features,
    generate,
    init_model,
    make_audit_fn,
    per_class_accuracies,
    per_class_mean_accuracy,
    pseudo_label_audit,
    run,
    score_target,
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

    def test_no_predictions_is_named(self):
        # an empty array's min() raises a ValueError of its own, which names no cause
        with pytest.raises(ValueError, match="no predictions"):
            per_class_accuracies([], [], 2)

    def test_one_prediction_is_scored(self):
        assert per_class_accuracies([1], [1], 2) == [None, 1.0]

    def test_true_label_equal_to_the_class_count_is_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            per_class_accuracies([0, 1], [0, 2], 2)


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
        assert rec["subset_acc_raw"] == 0.5
        assert rec["subset_acc_calibrated"] == 0.5

    def test_overall_scores(self):
        pseudo, truth = self.audit_fixture()
        rec = pseudo_label_audit(pseudo, truth)
        assert rec["pseudo_acc_raw"] == pytest.approx(4 / 6)
        assert rec["pseudo_acc_calibrated"] == pytest.approx(4 / 6)
        assert set(rec) == {"pseudo_acc_raw", "pseudo_acc_calibrated",
                            "subset_acc_raw", "subset_acc_calibrated"}

    def test_no_flips_leaves_subsets_none(self):
        pseudo = pseudo_labels([(0, 0.9, 0, 0.9), (1, 0.8, 1, 0.8)])
        rec = pseudo_label_audit(pseudo, [0, 0])
        assert rec["subset_acc_raw"] is None
        assert rec["subset_acc_calibrated"] is None

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


class TestScoreTarget:
    def test_matches_direct_computation(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        state = init_model(tiny_model_cfg, seed=5)
        probs = classify(state, features(state, tgt.features)).values
        preds = np.argmax(probs, axis=1)
        truth = tgt.labels_for_eval(EVALUATOR_ACCESS)
        shift = LabelShiftState.estimate(src.labels, calibrate(probs, np.ones(3)), 0.5, 3, 1.5)
        true_dist = np.bincount(truth, minlength=3) / truth.size

        scores = score_target(state, tgt, shift)
        assert set(scores) < {f.name for f in dataclasses.fields(RunReport)}
        assert scores["final_per_class_acc"] == per_class_accuracies(preds, truth, 3)
        assert scores["final_per_class_mean_acc"] == per_class_mean_accuracy(preds, truth, 3)
        assert scores["true_target_dist"] == true_dist.tolist()
        assert scores["true_head_class"] == 2
        assert scores["dist_l1_error"] == float(np.abs(shift.target_dist_est - true_dist).sum())
        assert scores["est_head_class"] == int(np.argmax(shift.target_dist_est))

    def test_given_predictions_are_scored_without_a_pass(self, tiny_pair, tiny_model_cfg,
                                                         monkeypatch):
        _, tgt = tiny_pair
        state = init_model(tiny_model_cfg, seed=5)
        want = score_target(state, tgt)
        preds = np.argmax(classify(state, features(state, tgt.features)).values, axis=1)

        def no_pass(*args):
            raise AssertionError("score_target predicted again")

        monkeypatch.setattr(shiftlab.metrics, "predict", no_pass)
        assert score_target(state, tgt, predictions=preds) == want

    def test_no_estimate_leaves_its_fields_none(self, tiny_pair, tiny_model_cfg):
        _, tgt = tiny_pair
        scores = score_target(init_model(tiny_model_cfg, seed=5), tgt)
        assert scores["dist_l1_error"] is None
        assert scores["est_head_class"] is None


def test_only_metrics_reads_hidden_labels():
    # data.py defines labels_for_eval and __init__.py re-exports the token
    exempt = {"metrics.py", "data.py", "__init__.py"}
    reads = re.compile(r"\bEVALUATOR_ACCESS\b|\.labels_for_eval\(")
    readers = sorted(
        path.name for path in Path(shiftlab.__file__).parent.glob("*.py")
        if path.name not in exempt and reads.search(path.read_text(encoding="utf-8"))
    )
    assert readers == []


def _refuse(*args, **kwargs):
    raise AssertionError("training touched the target's hidden labels")


class _Untouchable:
    """Stands in for hidden labels: reading an attribute raises, and so does
    every protocol (length, iteration, indexing, arithmetic, comparison,
    array conversion) that bypasses attribute lookup."""

    __getattribute__ = _refuse


for _name in ("__len__", "__iter__", "__getitem__", "__contains__", "__array__", "__bool__",
              "__index__", "__int__", "__float__", "__hash__", "__eq__", "__ne__", "__lt__",
              "__le__", "__gt__", "__ge__", "__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__matmul__", "__rmatmul__"):
    setattr(_Untouchable, _name, _refuse)


def test_training_never_reads_hidden_labels():
    spec = ShiftSpec(num_classes=3, feature_dim=4, max_class_size=40, imbalance_factor=5.0,
                     target_order=[2, 1, 0], rotation_angle=np.pi / 6, seed=7)
    source, target = generate(spec)
    target._labels = _Untouchable()
    target.labels_for_eval = _refuse
    with pytest.raises(AssertionError):
        len(target._labels)
    _, records, _ = run(source, target, TrainConfig(epochs=4, pretrain_epochs=1, seed=3),
                        audit_fn=None)
    assert len(records) == 4
    for record in records:
        for name in ("pseudo_acc_raw", "pseudo_acc_calibrated", "subset_acc_raw",
                     "subset_acc_calibrated", "target_per_class_acc"):
            assert getattr(record, name) is None

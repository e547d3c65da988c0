"""Evaluation metrics, the pseudo-label audit, and final target scoring.

This module owns the only ``LabelAccess`` token in the package, so hidden
target labels can be read here and nowhere else. The trainer receives an
audit callback built by ``make_audit_fn`` and stays label-blind; run
reports and ``shiftlab eval`` score a trained model with ``score_target``.
"""
from __future__ import annotations

import numpy as np

from .calibration import LabelShiftState, PseudoLabels
from .data import DomainDataset, LabelAccess
from .networks import ModelState, predict

__all__ = [
    "EVALUATOR_ACCESS",
    "per_class_accuracies",
    "per_class_mean_accuracy",
    "pseudo_label_audit",
    "make_audit_fn",
    "true_distribution",
    "score_target",
]

EVALUATOR_ACCESS = LabelAccess()


def _validate(predictions, true_labels, num_classes) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.size == 0:
        raise ValueError("no predictions to score")
    if pred.shape != true.shape:
        raise ValueError(f"prediction/label length mismatch: {pred.shape} vs {true.shape}")
    if true.min() < 0 or true.max() >= num_classes or pred.min() < 0 or pred.max() >= num_classes:
        raise ValueError(f"labels out of range [0, {num_classes})")
    return pred, true


def per_class_accuracies(predictions, true_labels, num_classes: int) -> list[float | None]:
    """Recall per class; None for classes with no true sample."""
    pred, true = _validate(predictions, true_labels, num_classes)
    out: list[float | None] = []
    for k in range(num_classes):
        mask = true == k
        if not mask.any():
            out.append(None)
        else:
            out.append(float((pred[mask] == k).mean()))
    return out


def per_class_mean_accuracy(predictions, true_labels, num_classes: int) -> float:
    """Unweighted mean of per-class recalls over classes present in truth."""
    recalls = [r for r in per_class_accuracies(predictions, true_labels, num_classes) if r is not None]
    return float(np.mean(recalls))


def pseudo_label_audit(pseudo: PseudoLabels, true_target_labels) -> dict:
    """Score raw and calibrated pseudo-labels; subset fields cover flips only.

    Returns four ``EpochRecord`` fields, keyed by their names.
    """
    true = np.asarray(true_target_labels, dtype=np.int64)
    if len(pseudo) != true.shape[0]:
        raise ValueError(f"{len(pseudo)} pseudo-labels for {true.shape[0]} true labels")
    raw, cal, flipped = pseudo.raw_label, pseudo.calibrated_label, pseudo.calibrated
    subset_raw = subset_cal = None
    if flipped.any():
        subset_raw = float((raw[flipped] == true[flipped]).mean())
        subset_cal = float((cal[flipped] == true[flipped]).mean())
    return {
        "pseudo_acc_raw": float((raw == true).mean()),
        "pseudo_acc_calibrated": float((cal == true).mean()),
        "subset_acc_raw": subset_raw,
        "subset_acc_calibrated": subset_cal,
    }


def true_distribution(ds: DomainDataset) -> np.ndarray:
    """Unsmoothed empirical label distribution; evaluator-only."""
    labels = ds.labels_for_eval(EVALUATOR_ACCESS)
    return np.bincount(labels, minlength=ds.num_classes) / labels.size


def make_audit_fn(target: DomainDataset):
    """Per-epoch audit callback for the trainer.

    Closes over the hidden labels here, in the evaluation layer, and hands
    the trainer only a function from pseudo-labels to summary numbers.
    """
    truth = target.labels_for_eval(EVALUATOR_ACCESS)
    num_classes = target.num_classes

    def audit(pseudo: PseudoLabels) -> dict:
        return {
            **pseudo_label_audit(pseudo, truth),
            "target_per_class_acc": per_class_mean_accuracy(pseudo.raw_label, truth, num_classes),
        }

    return audit


def score_target(state: ModelState, target: DomainDataset,
                 shift_state: LabelShiftState | None = None, predictions=None) -> dict:
    """Score a trained model's argmax predictions on the hidden target labels.

    Returns the target fields of ``RunReport``, keyed by their names. The
    estimate's ``dist_l1_error`` and ``est_head_class`` are None without
    a label-shift estimate. ``predictions``, when given, must be those
    argmax predictions, already computed from ``state`` on every target
    row, such as the raw pseudo-labels of training's last epoch; then no
    pass over the target is made.
    """
    preds = predictions
    if preds is None:
        preds = np.argmax(predict(state, target.features), axis=1)
    truth = target.labels_for_eval(EVALUATOR_ACCESS)
    true_dist = true_distribution(target)
    est = None if shift_state is None else np.asarray(shift_state.target_dist_est)
    return {
        "final_per_class_acc": per_class_accuracies(preds, truth, target.num_classes),
        "final_per_class_mean_acc": per_class_mean_accuracy(preds, truth, target.num_classes),
        "true_target_dist": true_dist.tolist(),
        "dist_l1_error": None if est is None else float(np.abs(est - true_dist).sum()),
        "est_head_class": None if est is None else int(np.argmax(est)),
        "true_head_class": int(np.argmax(true_dist)),
    }

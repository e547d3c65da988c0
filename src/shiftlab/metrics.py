"""Evaluation metrics and the pseudo-label audit.

This module owns the only ``LabelAccess`` token in the package, so hidden
target labels can be read here and nowhere else. The trainer receives an
audit callback built by ``make_audit_fn`` and stays label-blind.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import PseudoLabels
from .data import DomainDataset, LabelAccess

__all__ = [
    "EVALUATOR_ACCESS",
    "AuditRecord",
    "per_class_accuracies",
    "per_class_mean_accuracy",
    "pseudo_label_audit",
    "make_audit_fn",
    "true_distribution",
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


@dataclass(frozen=True)
class AuditRecord:
    """Pseudo-label quality against hidden truth, overall and on flips."""

    pseudo_acc_raw: float
    pseudo_acc_calibrated: float
    subset_acc_raw: float | None
    subset_acc_calibrated: float | None
    calibrated_fraction: float


def pseudo_label_audit(pseudo: PseudoLabels, true_target_labels) -> AuditRecord:
    """Score raw and calibrated pseudo-labels; subset fields cover flips only."""
    true = np.asarray(true_target_labels, dtype=np.int64)
    if len(pseudo) != true.shape[0]:
        raise ValueError(f"{len(pseudo)} pseudo-labels for {true.shape[0]} true labels")
    raw, cal, flipped = pseudo.raw_label, pseudo.calibrated_label, pseudo.calibrated
    subset_raw = subset_cal = None
    if flipped.any():
        subset_raw = float((raw[flipped] == true[flipped]).mean())
        subset_cal = float((cal[flipped] == true[flipped]).mean())
    return AuditRecord(
        pseudo_acc_raw=float((raw == true).mean()),
        pseudo_acc_calibrated=float((cal == true).mean()),
        subset_acc_raw=subset_raw,
        subset_acc_calibrated=subset_cal,
        calibrated_fraction=float(flipped.mean()),
    )


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
        rec = pseudo_label_audit(pseudo, truth)
        return {
            "pseudo_acc_raw": rec.pseudo_acc_raw,
            "pseudo_acc_calibrated": rec.pseudo_acc_calibrated,
            "subset_acc_raw": rec.subset_acc_raw,
            "subset_acc_calibrated": rec.subset_acc_calibrated,
            "target_per_class_acc": per_class_mean_accuracy(pseudo.raw_label, truth, num_classes),
        }

    return audit

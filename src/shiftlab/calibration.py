"""Label-shift calibration of pseudo-labels.

The target label distribution is estimated by counting confident
pseudo-labels. The per-class ratio of estimated target to source
frequency yields a shift metric; squashing it through
1/(offset + exp(-sqrt(metric))) gives a bounded class weight vector that
re-ranks predicted probabilities before the argmax. Calibration changes
labels only, never gradients: the calibrated confidence reads the
original, unweighted probability at the calibrated class.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SMOOTHING",
    "PseudoLabels",
    "LabelShiftState",
    "source_distribution",
    "estimate_target_distribution",
    "shift_metric",
    "weighting_matrix",
    "calibrate",
]

log = logging.getLogger(__name__)

# Additive smoothing applied to both empirical label distributions, so the
# ratio in shift_metric never divides by zero.
SMOOTHING = 0.5


@dataclass(frozen=True)
class PseudoLabels:
    """Every target sample's prediction before and after calibration.

    One array per field, row i describing sample i; ``calibrated`` marks
    the rows whose label calibration changed.
    """

    raw_label: np.ndarray
    raw_confidence: np.ndarray
    calibrated_label: np.ndarray
    calibrated_confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.raw_label)

    @property
    def calibrated(self) -> np.ndarray:
        return self.raw_label != self.calibrated_label


def source_distribution(labels, num_classes: int) -> np.ndarray:
    """Smoothed empirical class frequencies of the source labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot estimate a distribution from zero labels")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels out of range [0, {num_classes})")
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    counts += SMOOTHING
    return counts / counts.sum()


def estimate_target_distribution(
    pseudo: PseudoLabels, threshold: float, num_classes: int
) -> np.ndarray:
    """Smoothed frequencies of raw pseudo-labels above the confidence cut.

    If no sample clears the threshold the estimate falls back to all
    samples, with a logged warning, rather than failing the run.
    """
    if len(pseudo) == 0:
        raise ValueError("cannot estimate a distribution from zero pseudo-labels")
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    confident = pseudo.raw_confidence > threshold
    if not confident.any():
        log.warning(
            "no pseudo-label above confidence %.3g; estimating from all %d samples",
            threshold,
            len(pseudo),
        )
        confident[:] = True
    counts = np.bincount(pseudo.raw_label[confident], minlength=num_classes).astype(np.float64)
    if counts.size > num_classes:
        raise ValueError(f"pseudo-label out of range [0, {num_classes})")
    counts += SMOOTHING
    return counts / counts.sum()


def shift_metric(source_dist: np.ndarray, target_dist: np.ndarray) -> np.ndarray:
    """Entrywise ratio of target to source class frequency; 1 = no shift."""
    source_dist = np.asarray(source_dist, dtype=np.float64)
    target_dist = np.asarray(target_dist, dtype=np.float64)
    if source_dist.shape != target_dist.shape:
        raise ValueError(f"distribution shapes differ: {source_dist.shape} vs {target_dist.shape}")
    if np.any(source_dist <= 0.0):
        raise ValueError("source distribution must be entrywise positive")
    return target_dist / source_dist


def weighting_matrix(metric: np.ndarray, offset: float) -> np.ndarray:
    """Entrywise 1/(offset + exp(-sqrt(metric))).

    Strictly increasing in the metric and bounded in the open interval
    (1/(offset+1), 1/offset), so calibration can only nudge, never drown,
    the model's probabilities.
    """
    metric = np.asarray(metric, dtype=np.float64)
    if np.any(metric <= 0.0):
        raise ValueError("shift metric must be entrywise positive")
    if offset <= 0.0:
        raise ValueError(f"offset must be > 0, got {offset}")
    return 1.0 / (offset + np.exp(-np.sqrt(metric)))


def calibrate(probs: np.ndarray, class_weights: np.ndarray) -> PseudoLabels:
    """Re-rank each probability row by the class weights.

    The calibrated label is argmax(probs * class_weights); its confidence
    is probs at that class, unweighted. Ties resolve to the lowest class
    index. The raw label and confidence are kept alongside.
    """
    probs = np.asarray(probs, dtype=np.float64)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != class_weights.shape[0]:
        raise ValueError(
            f"probs {probs.shape} incompatible with {class_weights.shape[0]} class weights"
        )
    raw = np.argmax(probs, axis=1)
    adjusted = np.argmax(probs * class_weights, axis=1)
    rows = np.arange(probs.shape[0])
    return PseudoLabels(raw, probs[rows, raw], adjusted, probs[rows, adjusted])


@dataclass(frozen=True)
class LabelShiftState:
    """Frozen calibration state estimated at the stage boundary."""

    source_dist: np.ndarray
    target_dist_est: np.ndarray
    metric: np.ndarray
    class_weights: np.ndarray
    offset: float

    @classmethod
    def estimate(
        cls,
        source_labels,
        pseudo: PseudoLabels,
        threshold: float,
        num_classes: int,
        offset: float,
    ) -> "LabelShiftState":
        source_dist = source_distribution(source_labels, num_classes)
        target_dist = estimate_target_distribution(pseudo, threshold, num_classes)
        metric = shift_metric(source_dist, target_dist)
        return cls(source_dist, target_dist, metric, weighting_matrix(metric, offset), offset)

    def to_dict(self) -> dict:
        return {
            "source_dist": self.source_dist.tolist(),
            "target_dist_est": self.target_dist_est.tolist(),
            "metric": self.metric.tolist(),
            "class_weights": self.class_weights.tolist(),
            "offset": self.offset,
        }

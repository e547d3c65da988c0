"""The four training losses.

Classification loss on labeled source samples; a domain-confusion loss
driven by the discriminator; a contrastive centroid alignment loss that
pulls same-class centroids of the two domains together while pushing
cross-class pairs apart; and a pairwise discriminative alignment loss
doing the same at the sample level. The two alignment losses consume
pseudo-labels and per-sample confidence weights on the target side.

Ratio losses use means rather than sums in numerator and denominator so
batch size and class count do not rescale them, and every ratio
denominator carries an epsilon of 1e-8.
"""
from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tape,
    Tensor,
    binary_cross_entropy,
    ema_matmul,
    label_ratio,
    nll,
    pairwise_distances,
    ratio,
)

__all__ = [
    "PROB_FLOOR",
    "RATIO_EPS",
    "WeightedBatch",
    "CentroidBank",
    "cross_entropy",
    "domain_adversarial_loss",
    "update_centroids",
    "centroid_alignment_loss",
    "discriminative_alignment_loss",
]

log = logging.getLogger(__name__)

# Probabilities are floored at this before any log.
PROB_FLOOR = 1e-12
# Added to every ratio denominator.
RATIO_EPS = 1e-8


@dataclass
class WeightedBatch:
    """Features with labels and per-sample confidence weights.

    Labels are true classes for source batches and pseudo-labels for
    target batches. Weights are plain numbers, never differentiated.
    """

    features: Tensor
    labels: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.weights.shape != (n,):
            raise ShapeError(
                f"batch of {n} features with labels {self.labels.shape}, "
                f"weights {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("batch weights must be finite")
        if self.weights.size and (self.weights.min() < 0.0 or self.weights.max() > 1.0):
            raise ValueError("batch weights must lie in [0, 1]")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("batch labels must be non-negative")


def cross_entropy(tape: Tape | None, probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the given label per row."""
    return nll(tape, probs, labels, PROB_FLOOR)


def domain_adversarial_loss(tape: Tape | None, d_src: Tensor, d_tgt: Tensor) -> Tensor:
    """Binary cross-entropy with source labeled 0 and target labeled 1.

    Minimizing this trains the discriminator; the gradient reversal inside
    the discriminator path makes the extractor ascend it, so one descent
    direction realizes the adversarial game.
    """
    for name, t in (("d_src", d_src), ("d_tgt", d_tgt)):
        if t.shape[1] != 1:
            raise ShapeError(f"{name} must be n x 1, got {t.shape}")
        if np.any(t.values <= 0.0) or np.any(t.values >= 1.0):
            raise ValueError(f"{name}: discriminator outputs must lie strictly in (0, 1)")
    return binary_cross_entropy(tape, d_src, d_tgt, PROB_FLOOR)


_DOMAINS = ("source", "target")


class CentroidBank:
    """Per-domain, per-class weighted moving-average feature centroids.

    Each domain holds one C x d array of centroids and a boolean ``seen``
    mask of the classes it has been given; rows of unseen classes are
    zero and never enter a loss. Stored centroids are constants for
    gradient purposes; only the current batch's contribution, recorded as
    a tensor expression during ``update_centroids``, is differentiated.
    Expressions are tagged with a weak reference to the tape that built
    them, so a stale expression from an earlier step is never reused and
    the bank does not keep a finished step's graph alive.
    """

    def __init__(self, num_classes: int, ema_coeff: float = 0.7) -> None:
        if not 0.0 < ema_coeff <= 1.0:
            raise ValueError(f"ema_coeff must be in (0, 1], got {ema_coeff}")
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        self.num_classes = num_classes
        self.ema_coeff = ema_coeff
        self.seen = {d: np.zeros(num_classes, dtype=bool) for d in _DOMAINS}
        self._values: dict[str, np.ndarray] = {}
        self._exprs: dict[str, tuple[weakref.ref | None, Tensor]] = {}

    def initialized(self, domain: str, klass: int) -> bool:
        return bool(self.seen[domain][klass])

    def value(self, domain: str, klass: int) -> np.ndarray:
        if not self.initialized(domain, klass):
            raise KeyError((domain, klass))
        return self._values[domain][klass]

    def eligible_classes(self) -> list[int]:
        """Classes with both source and target centroids initialized."""
        return np.flatnonzero(self.seen["source"] & self.seen["target"]).tolist()

    def _term(self, tape: Tape | None, domain: str) -> Tensor:
        """Centroids as a graph node: this step's expression, else a constant."""
        entry = self._exprs.get(domain)
        if entry is not None:
            ref, expr = entry
            if ref is None if tape is None else ref is not None and ref() is tape:
                return expr
        return Tensor(self._values[domain])


def update_centroids(
    tape: Tape | None, bank: CentroidBank, batch: WeightedBatch, domain: str
) -> None:
    """Fold one batch into the bank's centroids for ``domain``.

    Batch centroid of class k is the weight-normalized mean of its
    features; it is mixed into the stored centroid with the bank's EMA
    coefficient, or adopted outright the first time the class appears.
    Classes absent from the batch (or present only with zero weight) are
    untouched.
    """
    if domain not in _DOMAINS:
        raise ValueError(f"domain must be source|target, got {domain!r}")
    if batch.labels.size and batch.labels.max() >= bank.num_classes:
        raise ValueError(
            f"label {int(batch.labels.max())} out of range for {bank.num_classes} classes"
        )
    theta = bank.ema_coeff
    # C x n: row k holds the weights of the batch's class-k samples, else 0
    weights = (batch.labels == np.arange(bank.num_classes)[:, None]) * batch.weights
    totals = weights.sum(axis=1)
    present = totals > 0.0
    coeff = weights / np.where(present, totals, 1.0)[:, None]
    seen = bank.seen[domain]
    old = bank._values.get(domain)
    if old is None:
        old = np.zeros((bank.num_classes, batch.features.shape[1]))
    # seen and present: (1 - theta) new + theta old; new: adopt; absent: keep
    mix = np.where(seen, 1.0 - theta, 1.0) * present
    keep = np.where(present, theta * seen, 1.0)
    expr = ema_matmul(tape, coeff, batch.features, mix, keep[:, None] * old)
    bank._values[domain] = expr.values
    bank._exprs[domain] = (None if tape is None else weakref.ref(tape), expr)
    bank.seen[domain] = seen | present


def centroid_alignment_loss(tape: Tape | None, bank: CentroidBank) -> Tensor:
    """Contrastive ratio over domain centroid pairs.

    Numerator: mean distance between source and target centroids of the
    same class. Denominator: mean over ordered cross-class pairs (i, k),
    i != k, of the distance from source centroid i to target centroid k.
    Only classes eligible in both domains take part. With a single
    eligible class there are no cross pairs and the plain numerator is
    returned; with none, the loss is 0 and carries no gradient.
    """
    eligible = bank.seen["source"] & bank.seen["target"]
    n_eligible = int(eligible.sum())
    if n_eligible == 0:
        log.warning("centroid alignment skipped: no class has centroids in both domains")
        return Tensor([[0.0]])
    pairs = eligible[:, None] & eligible[None, :]
    same = pairs & np.eye(bank.num_classes, dtype=bool)
    dists = pairwise_distances(tape, bank._term(tape, "source"), bank._term(tape, "target"))
    if n_eligible < 2:
        return ratio(tape, dists, same / n_eligible, np.zeros(same.shape), 1.0)
    cross = pairs & ~same
    return ratio(tape, dists, same / n_eligible, cross / int(cross.sum()), RATIO_EPS)


def discriminative_alignment_loss(
    tape: Tape | None,
    batch_src: WeightedBatch,
    batch_tgt: WeightedBatch,
    diagnostics: dict | None = None,
) -> Tensor:
    """Sample-level contrastive ratio across the two batches.

    Every source-target pair contributes sqrt(w_s * w_t) times the feature
    distance; pairs with matching labels form the numerator mean, the rest
    the denominator mean. ``label_ratio`` forms both from per-class sums,
    so no pair weight grid is built. If either kind of pair is missing the
    batch contributes nothing (returned loss 0, counted in ``diagnostics``).
    """
    if batch_src.labels.size == 0 or batch_tgt.labels.size == 0:
        raise ValueError("discriminative alignment needs non-empty batches")
    src_labels, tgt_labels = batch_src.labels, batch_tgt.labels
    classes = max(src_labels.max(), tgt_labels.max()) + 1
    n_same = int(
        np.bincount(src_labels, minlength=classes) @ np.bincount(tgt_labels, minlength=classes)
    )
    if n_same == 0 or n_same == src_labels.size * tgt_labels.size:
        if diagnostics is not None:
            key = "no_same_label_pairs" if n_same == 0 else "no_diff_label_pairs"
            diagnostics[key] = diagnostics.get(key, 0) + 1
        return Tensor([[0.0]])
    dists = pairwise_distances(tape, batch_src.features, batch_tgt.features)
    return label_ratio(
        tape, dists, src_labels, tgt_labels,
        np.sqrt(batch_src.weights), np.sqrt(batch_tgt.weights), RATIO_EPS,
    )

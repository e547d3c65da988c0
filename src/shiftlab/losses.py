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
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    LabelPairs,
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
        n = self.features.values.shape[0]
        w = self.weights
        if self.labels.shape != (n,) or w.shape != (n,):
            raise ShapeError(
                f"batch of {n} features with labels {self.labels.shape}, weights {w.shape}"
            )
        # NaN and +-inf fail 0 <= w <= 1 too, so one test covers finiteness and range
        if not np.logical_and.reduce((0.0 <= w) & (w <= 1.0)):
            finite = np.logical_and.reduce(np.isfinite(w))
            raise ValueError(
                "batch weights must lie in [0, 1]" if finite else "batch weights must be finite"
            )
        if np.logical_or.reduce(self.labels < 0):
            raise ValueError("batch labels must be non-negative")


def cross_entropy(tape: Tape | None, probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the given label per row."""
    return nll(tape, probs, labels, PROB_FLOOR)


def domain_adversarial_loss(tape: Tape | None, d: Tensor, n_src: int) -> Tensor:
    """Binary cross-entropy of the discriminator's n x 1 output ``d`` on a stacked
    batch: its first ``n_src`` rows, the source, labeled 0, and the rest 1.

    Minimizing this trains the discriminator; the gradient reversal inside
    the discriminator path makes the extractor ascend it, so one descent
    direction realizes the adversarial game. A split point outside
    ``0 < n_src < n`` raises ``ShapeError``.
    """
    v = d.values
    if v.shape[1] != 1:
        raise ShapeError(f"d must be n x 1, got {v.shape}")
    # a NaN fails both comparisons and passes, to reach the non-finite-loss check
    if np.logical_or.reduce((v <= 0.0) | (v >= 1.0), axis=None):
        raise ValueError("discriminator outputs must lie strictly in (0, 1)")
    return binary_cross_entropy(tape, d, n_src, PROB_FLOOR)


_DOMAINS = ("source", "target")


class CentroidBank:
    """Per-domain, per-class weighted moving-average feature centroids.

    ``centroids[domain]`` is the C x d tensor the last ``update_centroids``
    made for the domain, and ``seen[domain]`` the boolean mask of the
    classes it has been given; rows of unseen classes are zero and never
    enter a loss. Only the batch folded in on the current tape is
    differentiated: on any other tape, or none, the tensor has no backward
    rule, so the stored history is a constant for gradient purposes.

    The bank also keeps the centroid loss's pair weights for the last set
    of eligible classes it was given, so the loss builds them only when
    that set changes.
    """

    def __init__(self, num_classes: int, ema_coeff: float = 0.7) -> None:
        if not 0.0 < ema_coeff <= 1.0:
            raise ValueError(f"ema_coeff must be in (0, 1], got {ema_coeff}")
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        self.num_classes = num_classes
        self.ema_coeff = ema_coeff
        self.seen = {d: np.zeros(num_classes, dtype=bool) for d in _DOMAINS}
        self.centroids: dict[str, Tensor] = {}
        self._eligible_key: bytes | None = None  # eligible-class mask of ``_pair_weights``
        self._pair_weights: tuple | None = None

    def eligible_classes(self) -> list[int]:
        """Classes with both source and target centroids initialized."""
        return np.flatnonzero(self.seen["source"] & self.seen["target"]).tolist()


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
    labels, weights = batch.labels, batch.weights
    if np.logical_or.reduce(labels >= bank.num_classes):
        raise ValueError(
            f"label {int(np.max(labels))} out of range for {bank.num_classes} classes"
        )
    theta = bank.ema_coeff
    # C x n: row k holds the weights of the batch's class-k samples and 0 * w
    # elsewhere, the entries of (labels == k) * weights, without that one-hot
    coeff = np.zeros((bank.num_classes, 1)) * weights
    coeff[labels, np.arange(labels.size)] = weights
    totals = np.add.reduce(coeff, axis=1)
    present = totals > 0.0
    # weights lie in [0, 1], so an absent class's total is 0: its row is divided by 1
    coeff /= (totals + ~present)[:, None]
    seen = bank.seen[domain]
    old = bank.centroids.get(domain)
    d = batch.features.values.shape[1]
    old = np.zeros((bank.num_classes, d)) if old is None else old.values
    # seen and present: (1 - theta) new + theta old; new: adopt; absent: keep
    mix = (1.0 - theta * seen) * present
    keep = theta * (seen & present) + ~present
    bank.centroids[domain] = ema_matmul(tape, coeff, batch.features, mix, keep[:, None] * old)
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
    key = eligible.tobytes()
    if key != bank._eligible_key:
        bank._eligible_key, bank._pair_weights = key, _centroid_pair_weights(eligible)
    if bank._pair_weights is None:
        log.warning("centroid alignment skipped: no class has centroids in both domains")
        return Tensor([[0.0]])
    dists = pairwise_distances(tape, bank.centroids["source"], bank.centroids["target"])
    return ratio(tape, dists, *bank._pair_weights)


def _centroid_pair_weights(eligible: np.ndarray) -> tuple | None:
    """``ratio``'s weight grids and epsilon for the centroid loss; None if no class is eligible."""
    n_eligible = int(eligible.sum())
    if n_eligible == 0:
        return None
    pairs = eligible[:, None] & eligible[None, :]
    same = pairs & np.eye(eligible.size, dtype=bool)
    if n_eligible < 2:
        return same / n_eligible, np.zeros(same.shape), 1.0
    cross = pairs & ~same
    return same / n_eligible, cross / int(cross.sum()), RATIO_EPS


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
    pairs = LabelPairs(batch_src.labels, batch_tgt.labels)
    if pairs.n_same == 0 or pairs.n_diff == 0:
        if diagnostics is not None:
            key = "no_same_label_pairs" if pairs.n_same == 0 else "no_diff_label_pairs"
            diagnostics[key] = diagnostics.get(key, 0) + 1
        return Tensor([[0.0]])
    return label_ratio(tape, batch_src.features, batch_tgt.features, pairs,
                       np.sqrt(batch_src.weights), np.sqrt(batch_tgt.weights), RATIO_EPS)

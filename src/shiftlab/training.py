"""Two-stage training loop.

Stage 1 pre-trains with raw argmax pseudo-labels on the target side.
At the stage boundary the target label distribution is estimated from
confident pseudo-labels and the calibration weights are frozen; stage 2
then trains with calibrated pseudo-labels and their confidences. One
SGD step per batch updates extractor, classifier, and discriminator
jointly, with the gradient reversal supplying the adversarial sign.

The loop is strictly sequential and fully deterministic given the config
seed: sampler, shuffling, and initialization draw from separate streams
spawned from it. The trainer never reads target labels; per-epoch
accuracy fields are filled by an evaluator-supplied audit callback.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Pool, Tape, sgd_step, split_rows, weighted_sum
from .calibration import LabelShiftState, PseudoLabels, calibrate
from .data import MAX_SIZE, BalancedSampler, DomainDataset, finite
from .losses import (
    CentroidBank,
    WeightedBatch,
    centroid_alignment_loss,
    cross_entropy,
    discriminative_alignment_loss,
    domain_adversarial_loss,
    update_centroids,
)
from .networks import (
    ModelConfig,
    ModelState,
    classify,
    discriminate,
    features,
    init_model,
    predict,
)

__all__ = [
    "ConfigError",
    "NumericError",
    "TrainConfig",
    "EpochRecord",
    "LOSS_FIELDS",
    "lr_schedule",
    "train_step",
    "run",
]

log = logging.getLogger(__name__)

# The per-step losses of ``train_step``, averaged per epoch into ``EpochRecord``.
LOSS_FIELDS = ("loss_class", "loss_adversarial", "loss_centroid", "loss_pairwise")


class ConfigError(ValueError):
    """A training or experiment configuration value is invalid."""


class NumericError(RuntimeError):
    """Training produced a non-finite loss or classifier confidence."""


@dataclass
class TrainConfig:
    """Hyperparameters of the full method.

    The three loss weights scale the centroid alignment, pairwise
    alignment, and domain adversarial terms on top of the classification
    loss. ``calibration_offset`` is the additive constant in the
    calibration weight formula; ``confidence_threshold`` filters the
    pseudo-labels used for distribution estimation. Every float field must
    be finite, and ``epochs``, ``pretrain_epochs`` and ``batch_size`` at
    most ``data.MAX_SIZE``. ``lr_alpha`` and ``lr_beta`` must keep
    ``lr_schedule``'s ``(1 + lr_alpha) ** lr_beta`` within the float range.
    """

    centroid_loss_weight: float = 3.0
    pairwise_loss_weight: float = 0.6
    adversarial_loss_weight: float = 1.0
    calibration_offset: float = 1.5
    epochs: int = 20
    pretrain_epochs: int = 3
    batch_size: int = 50
    lr0: float = 0.005
    momentum: float = 0.9
    lr_alpha: float = 10.0
    lr_beta: float = 0.75
    confidence_threshold: float = 0.5
    centroid_ema: float = 0.7
    seed: int = 100
    grl_schedule: bool = False
    lsc_enabled: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not finite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for name in ("epochs", "pretrain_epochs", "batch_size"):
            value = getattr(self, name)
            if value > MAX_SIZE:
                raise ConfigError(f"{name} must be at most {MAX_SIZE}, got {value}")
        for name in ("centroid_loss_weight", "pairwise_loss_weight", "adversarial_loss_weight"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.calibration_offset <= 0.0:
            raise ConfigError(f"calibration_offset must be > 0, got {self.calibration_offset}")
        if not 0 < self.pretrain_epochs < self.epochs:
            raise ConfigError(
                f"need 0 < pretrain_epochs < epochs, got {self.pretrain_epochs} / {self.epochs}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0.0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.lr_alpha < 0.0 or self.lr_beta < 0.0:
            raise ConfigError("lr_alpha and lr_beta must be >= 0")
        try:  # the schedule's largest denominator, reached at the last step
            (1.0 + self.lr_alpha) ** self.lr_beta
        except OverflowError:
            raise ConfigError(
                "the schedule's (1 + lr_alpha) ** lr_beta must be finite, got lr_alpha "
                f"{self.lr_alpha} and lr_beta {self.lr_beta}"
            ) from None
        if not 0.0 <= self.confidence_threshold < 1.0:
            raise ConfigError(
                f"confidence_threshold must be in [0, 1), got {self.confidence_threshold}"
            )
        if not 0.0 < self.centroid_ema <= 1.0:
            raise ConfigError(f"centroid_ema must be in (0, 1], got {self.centroid_ema}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class EpochRecord:
    """Per-epoch training telemetry.

    Loss fields are means over the epoch's steps. ``lr`` is the learning
    rate applied on the epoch's first step. Accuracy fields are None when
    no evaluator audit was attached; subset accuracies are None whenever
    no sample was calibrated that epoch.
    """

    epoch: int
    lr: float
    loss_class: float
    loss_adversarial: float
    loss_centroid: float
    loss_pairwise: float
    calibrated_fraction: float
    pseudo_acc_raw: float | None = None
    pseudo_acc_calibrated: float | None = None
    subset_acc_raw: float | None = None
    subset_acc_calibrated: float | None = None
    target_per_class_acc: float | None = None

    def to_dict(self) -> dict:
        # every field is a number or None, so nothing needs asdict's deep copy
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def lr_schedule(lr0: float, progress: float, alpha: float, beta: float) -> float:
    """Annealed learning rate lr0 / (1 + alpha * progress) ** beta."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return lr0 / (1.0 + alpha * progress) ** beta


def _grl_coeff(cfg: TrainConfig, progress: float) -> float:
    if not cfg.grl_schedule:
        return 1.0
    return 2.0 / (1.0 + math.exp(-10.0 * progress)) - 1.0


def _raise_if_diverged(**confidences: np.ndarray) -> None:
    """Raise ``NumericError`` naming the first non-finite confidence of any domain's batch."""
    for domain, conf in confidences.items():
        bad = np.flatnonzero(~np.isfinite(conf))
        if bad.size:
            raise NumericError(f"non-finite {domain} confidence {conf[bad[0]]} at batch row "
                               f"{bad[0]}: the step's forward pass diverged")


def train_step(
    state: ModelState,
    bank: CentroidBank,
    class_weights: np.ndarray,
    cfg: TrainConfig,
    src_features: np.ndarray,
    src_labels: np.ndarray,
    tgt_features: np.ndarray,
    lr: float,
    grl_coeff: float = 1.0,
    diagnostics: dict | None = None,
) -> dict[str, float]:
    """One joint SGD step; returns the step's individual loss values.

    Target pseudo-labels are ``calibrate(probs, class_weights)``; all-ones
    weights give the raw argmax. Losses with zero weight are skipped
    entirely (reported as 0.0), so a run with all weights zero performs
    exactly the source-only update. Otherwise the source and target
    batches pass through the extractor, and the discriminator, stacked:
    the networks treat rows independently, so that is one call each, and
    only the features are split into the two batches. Called inside ``with pool:``, the step, SGD included, reuses the
    pool's arrays; the bits are the same without one. A non-finite total
    loss raises ``NumericError``, and so do non-finite classifier
    confidences, before any alignment loss reads them.
    """
    lam = cfg.centroid_loss_weight
    mu = cfg.pairwise_loss_weight
    gam = cfg.adversarial_loss_weight
    n_src = src_features.shape[0]

    tape = Tape()
    if lam > 0.0 or mu > 0.0 or gam > 0.0:
        f_all = features(state, np.concatenate([src_features, tgt_features]), tape)
        f_src, f_tgt = split_rows(tape, f_all, n_src)
    else:
        f_src = features(state, src_features, tape)
    p_src = classify(state, f_src, tape)
    loss_class = cross_entropy(tape, p_src, src_labels)
    terms, weights = [loss_class], [1.0]
    out = dict.fromkeys(LOSS_FIELDS, 0.0)
    out["loss_class"] = loss_class.item()

    if lam > 0.0 or mu > 0.0:
        src_conf = np.maximum.reduce(p_src.values, axis=1)
        # the pseudo-labels are targets, not a gradient path: no tape
        pseudo = calibrate(classify(state, f_tgt).values, class_weights)
        try:
            src_wb = WeightedBatch(f_src, src_labels, src_conf)
            tgt_wb = WeightedBatch(f_tgt, pseudo.calibrated_label, pseudo.calibrated_confidence)
        except ValueError:
            _raise_if_diverged(source=src_conf, target=pseudo.calibrated_confidence)
            raise

    if lam > 0.0:
        update_centroids(tape, bank, src_wb, "source")
        update_centroids(tape, bank, tgt_wb, "target")
        loss_centroid = centroid_alignment_loss(tape, bank)
        out["loss_centroid"] = loss_centroid.item()
        terms.append(loss_centroid)
        weights.append(lam)
    if mu > 0.0:
        loss_pair = discriminative_alignment_loss(tape, src_wb, tgt_wb, diagnostics)
        out["loss_pairwise"] = loss_pair.item()
        terms.append(loss_pair)
        weights.append(mu)
    if gam > 0.0:
        loss_adv = domain_adversarial_loss(tape, discriminate(state, f_all, grl_coeff, tape), n_src)
        out["loss_adversarial"] = loss_adv.item()
        terms.append(loss_adv)
        weights.append(gam)

    total = weighted_sum(tape, terms, weights) if len(terms) > 1 else terms[0]
    if not np.isfinite(total.values[0, 0]):
        raise NumericError(
            f"non-finite total loss {total.values[0, 0]} (components {out}); "
            f"batch sizes src={n_src}, tgt={tgt_features.shape[0]}"
        )
    tape.backward(total)
    sgd_step(state.parameters(), lr, cfg.momentum, state.velocity)
    return out


def _epoch_record(epoch, lr, sums, steps, pseudo: PseudoLabels, audit_fn) -> EpochRecord:
    return EpochRecord(
        epoch=epoch,
        lr=lr,
        **{key: sums[key] / steps for key in LOSS_FIELDS},
        calibrated_fraction=float(pseudo.calibrated.mean()),
        **(audit_fn(pseudo) if audit_fn is not None else {}),
    )


def _check_datasets(source: DomainDataset, target: DomainDataset) -> None:
    if source.feature_dim != target.feature_dim:
        raise ConfigError(
            f"feature dims differ: source {source.feature_dim}, target {target.feature_dim}"
        )
    if source.num_classes != target.num_classes:
        raise ConfigError(
            f"class counts differ: source {source.num_classes}, target {target.num_classes}"
        )


def _seed_streams(seed: int) -> tuple[int, int, int]:
    init_s, sampler_s, shuffle_s = np.random.SeedSequence(seed).generate_state(3)
    return int(init_s), int(sampler_s), int(shuffle_s)


def run(
    source: DomainDataset,
    target: DomainDataset,
    cfg: TrainConfig,
    model_cfg: ModelConfig | None = None,
    audit_fn=None,
) -> tuple[ModelState, list[EpochRecord], LabelShiftState | None]:
    """Train the full (or ablated) method; see the module docstring.

    ``audit_fn``, when given, is called once per epoch with the target
    ``PseudoLabels`` and returns the accuracy fields of the EpochRecord;
    it is the only place target labels are consulted, and it is supplied
    by the evaluation layer, never constructed here. Nothing is written;
    ``experiments.run_single`` persists a run.
    """
    _check_datasets(source, target)
    if model_cfg is None:
        model_cfg = ModelConfig(input_dim=source.feature_dim, num_classes=source.num_classes)
    init_seed, sampler_seed, shuffle_seed = _seed_streams(cfg.seed)
    state = init_model(model_cfg, init_seed)
    sampler = BalancedSampler(source, sampler_seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    src_labels_all = source.labels
    n_tgt = len(target)
    steps_per_epoch = math.ceil(n_tgt / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    bank = CentroidBank(source.num_classes, cfg.centroid_ema)
    pool = Pool()
    shift_state: LabelShiftState | None = None
    class_weights = np.ones(source.num_classes)
    diagnostics: dict = {}
    records: list[EpochRecord] = []
    completed = 0
    # read once: an audit_fn that edits cfg cannot move the stage boundary
    pretrain_epochs = cfg.pretrain_epochs

    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n_tgt)
        sums = dict.fromkeys(LOSS_FIELDS, 0.0)
        epoch_lr = None
        for start in range(0, n_tgt, cfg.batch_size):
            tgt_idx = perm[start:start + cfg.batch_size]
            src_idx = sampler.draw(tgt_idx.size)
            progress = completed / total_steps
            lr = lr_schedule(cfg.lr0, progress, cfg.lr_alpha, cfg.lr_beta)
            if epoch_lr is None:
                epoch_lr = lr
            with pool:
                step = train_step(
                    state, bank, class_weights, cfg,
                    source.features[src_idx], src_labels_all[src_idx],
                    target.features[tgt_idx],
                    lr, _grl_coeff(cfg, progress), diagnostics,
                )
            for key, val in step.items():
                sums[key] += val
            completed += 1

        pseudo = calibrate(predict(state, target.features, pool), class_weights)
        records.append(_epoch_record(epoch, epoch_lr, sums, steps_per_epoch, pseudo, audit_fn))

        if cfg.lsc_enabled and epoch == pretrain_epochs:
            shift_state = LabelShiftState.estimate(
                src_labels_all, pseudo, cfg.confidence_threshold,
                source.num_classes, cfg.calibration_offset,
            )
            class_weights = shift_state.class_weights

    if diagnostics:
        log.info("alignment loss diagnostics: %s", diagnostics)
    return state, records, shift_state

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
import os
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tape, Tensor, add_n, affine, sgd_step
from .calibration import LabelShiftState, PseudoLabels, calibrate
from .data import BalancedSampler, DomainDataset
from .losses import (
    CentroidBank,
    WeightedBatch,
    centroid_alignment_loss,
    cross_entropy,
    discriminative_alignment_loss,
    domain_adversarial_loss,
    update_centroids,
)
from .networks import ModelConfig, ModelState, classify, discriminate, features, init_model, save_checkpoint

__all__ = [
    "ConfigError",
    "NumericError",
    "TrainConfig",
    "EpochRecord",
    "lr_schedule",
    "train_step",
    "run",
    "run_source_only",
]

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A training or experiment configuration value is invalid."""


class NumericError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    """Hyperparameters of the full method.

    The three loss weights scale the centroid alignment, pairwise
    alignment, and domain adversarial terms on top of the classification
    loss. ``calibration_offset`` is the additive constant in the
    calibration weight formula; ``confidence_threshold`` filters the
    pseudo-labels used for distribution estimation.
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
    reestimate_period: int = 0
    lsc_enabled: bool = True

    def __post_init__(self) -> None:
        if min(self.centroid_loss_weight, self.pairwise_loss_weight,
               self.adversarial_loss_weight) < 0.0:
            raise ConfigError("loss weights must be >= 0")
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
        if not 0.0 <= self.confidence_threshold < 1.0:
            raise ConfigError(
                f"confidence_threshold must be in [0, 1), got {self.confidence_threshold}"
            )
        if not 0.0 < self.centroid_ema <= 1.0:
            raise ConfigError(f"centroid_ema must be in (0, 1], got {self.centroid_ema}")
        if self.reestimate_period < 0:
            raise ConfigError("reestimate_period must be >= 0")
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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict) -> "EpochRecord":
        return cls(**doc)


def lr_schedule(lr0: float, progress: float, alpha: float, beta: float) -> float:
    """Annealed learning rate lr0 / (1 + alpha * progress) ** beta."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return lr0 / (1.0 + alpha * progress) ** beta


def _grl_coeff(cfg: TrainConfig, progress: float) -> float:
    if not cfg.grl_schedule:
        return 1.0
    return 2.0 / (1.0 + math.exp(-10.0 * progress)) - 1.0


def _target_pseudo(
    probs: np.ndarray, shift_state: LabelShiftState | None
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-appropriate pseudo-labels and confidence weights per row."""
    if shift_state is None:
        labels = np.argmax(probs, axis=1)
        return labels, probs[np.arange(probs.shape[0]), labels]
    pseudo = calibrate(probs, shift_state.class_weights)
    return pseudo.calibrated_label, pseudo.calibrated_confidence


def train_step(
    state: ModelState,
    bank: CentroidBank,
    shift_state: LabelShiftState | None,
    cfg: TrainConfig,
    src_features: np.ndarray,
    src_labels: np.ndarray,
    tgt_features: np.ndarray,
    lr: float,
    grl_coeff: float = 1.0,
    diagnostics: dict | None = None,
) -> dict[str, float]:
    """One joint SGD step; returns the step's individual loss values.

    Losses with zero weight are skipped entirely (reported as 0.0), so a
    run with all weights zero performs exactly the source-only update.
    """
    lam = cfg.centroid_loss_weight
    mu = cfg.pairwise_loss_weight
    gam = cfg.adversarial_loss_weight

    tape = Tape()
    f_src = features(state, src_features, tape)
    p_src = classify(state, f_src, tape)
    loss_class = cross_entropy(tape, p_src, src_labels)
    terms = [loss_class]
    out = {
        "loss_class": loss_class.item(),
        "loss_adversarial": 0.0,
        "loss_centroid": 0.0,
        "loss_pairwise": 0.0,
    }

    f_tgt = None
    if lam > 0.0 or mu > 0.0 or gam > 0.0:
        f_tgt = features(state, tgt_features, tape)

    src_wb = tgt_wb = None
    if lam > 0.0 or mu > 0.0:
        src_conf = p_src.values.max(axis=1)
        p_tgt = classify(state, f_tgt, tape)
        tgt_labels, tgt_conf = _target_pseudo(p_tgt.values, shift_state)
        src_wb = WeightedBatch(f_src, src_labels, src_conf)
        tgt_wb = WeightedBatch(f_tgt, tgt_labels, tgt_conf)

    if lam > 0.0:
        update_centroids(tape, bank, src_wb, "source")
        update_centroids(tape, bank, tgt_wb, "target")
        loss_centroid = centroid_alignment_loss(tape, bank)
        out["loss_centroid"] = loss_centroid.item()
        terms.append(affine(tape, loss_centroid, lam))
    if mu > 0.0:
        loss_pair = discriminative_alignment_loss(tape, src_wb, tgt_wb, diagnostics)
        out["loss_pairwise"] = loss_pair.item()
        terms.append(affine(tape, loss_pair, mu))
    if gam > 0.0:
        d_src = discriminate(state, f_src, grl_coeff, tape)
        d_tgt = discriminate(state, f_tgt, grl_coeff, tape)
        loss_adv = domain_adversarial_loss(tape, d_src, d_tgt)
        out["loss_adversarial"] = loss_adv.item()
        terms.append(affine(tape, loss_adv, gam))

    total = add_n(tape, terms) if len(terms) > 1 else terms[0]
    if not np.isfinite(total.values[0, 0]):
        raise NumericError(
            f"non-finite total loss {total.values[0, 0]} (components {out}); "
            f"batch sizes src={src_features.shape[0]}, tgt={tgt_features.shape[0]}"
        )
    tape.backward(total)
    sgd_step(state.parameters(), lr, cfg.momentum, state.velocity)
    return out


def _inference_pseudo(
    state: ModelState, target: DomainDataset, shift_state: LabelShiftState | None
) -> PseudoLabels:
    """Full-target inference pass; uniform weights before calibration exists."""
    probs = classify(state, features(state, target.features)).values
    if shift_state is None:
        weights = np.ones(target.num_classes)
    else:
        weights = shift_state.class_weights
    return calibrate(probs, weights)


def _epoch_record(epoch, lr, sums, steps, pseudo: PseudoLabels, audit_fn) -> EpochRecord:
    rec = EpochRecord(
        epoch=epoch,
        lr=lr,
        loss_class=sums["loss_class"] / steps,
        loss_adversarial=sums["loss_adversarial"] / steps,
        loss_centroid=sums["loss_centroid"] / steps,
        loss_pairwise=sums["loss_pairwise"] / steps,
        calibrated_fraction=float(pseudo.calibrated.mean()),
    )
    if audit_fn is not None:
        audit = audit_fn(pseudo)
        rec.pseudo_acc_raw = audit.get("pseudo_acc_raw")
        rec.pseudo_acc_calibrated = audit.get("pseudo_acc_calibrated")
        rec.subset_acc_raw = audit.get("subset_acc_raw")
        rec.subset_acc_calibrated = audit.get("subset_acc_calibrated")
        rec.target_per_class_acc = audit.get("target_per_class_acc")
    return rec


def _write_outputs(out_dir, state, records, shift_state) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "epoch_records.jsonl")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
    save_checkpoint(state, os.path.join(out_dir, "checkpoint.json"))
    if shift_state is not None:
        with open(os.path.join(out_dir, "label_shift.json"), "w", encoding="utf-8") as fh:
            json.dump(shift_state.to_dict(), fh, indent=2)


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
    out_dir=None,
) -> tuple[ModelState, list[EpochRecord], LabelShiftState | None]:
    """Train the full (or ablated) method; see the module docstring.

    ``audit_fn``, when given, is called once per epoch with the target
    ``PseudoLabels`` and returns the accuracy fields of the EpochRecord;
    it is the only place target labels are consulted, and it is supplied
    by the evaluation layer, never constructed here.
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
    shift_state: LabelShiftState | None = None
    diagnostics: dict = {}
    records: list[EpochRecord] = []
    completed = 0

    for epoch in range(1, cfg.epochs + 1):
        if epoch <= cfg.pretrain_epochs:
            assert shift_state is None, "calibration state must not exist before estimation"
        perm = shuffle_rng.permutation(n_tgt)
        sums = {"loss_class": 0.0, "loss_adversarial": 0.0,
                "loss_centroid": 0.0, "loss_pairwise": 0.0}
        epoch_lr = None
        for start in range(0, n_tgt, cfg.batch_size):
            tgt_idx = perm[start:start + cfg.batch_size]
            src_idx = sampler.draw(tgt_idx.size)
            progress = completed / total_steps
            lr = lr_schedule(cfg.lr0, progress, cfg.lr_alpha, cfg.lr_beta)
            if epoch_lr is None:
                epoch_lr = lr
            step = train_step(
                state, bank, shift_state, cfg,
                source.features[src_idx], src_labels_all[src_idx],
                target.features[tgt_idx],
                lr, _grl_coeff(cfg, progress), diagnostics,
            )
            for key, val in step.items():
                sums[key] += val
            completed += 1

        pseudo = _inference_pseudo(state, target, shift_state)
        records.append(_epoch_record(epoch, epoch_lr, sums, steps_per_epoch, pseudo, audit_fn))

        boundary = epoch == cfg.pretrain_epochs
        periodic = (
            shift_state is not None
            and cfg.reestimate_period > 0
            and epoch < cfg.epochs
            and (epoch - cfg.pretrain_epochs) % cfg.reestimate_period == 0
        )
        if cfg.lsc_enabled and (boundary or periodic):
            shift_state = LabelShiftState.estimate(
                src_labels_all, pseudo, cfg.confidence_threshold,
                source.num_classes, cfg.calibration_offset,
            )

    if diagnostics:
        log.info("alignment loss diagnostics: %s", diagnostics)
    if out_dir is not None:
        _write_outputs(out_dir, state, records, shift_state)
    return state, records, shift_state


def run_source_only(
    source: DomainDataset,
    target: DomainDataset,
    cfg: TrainConfig,
    model_cfg: ModelConfig | None = None,
    audit_fn=None,
    out_dir=None,
) -> tuple[ModelState, list[EpochRecord], None]:
    """Plain classifier training, written as its own minimal loop.

    Kept deliberately separate from ``run`` so it can serve as an
    independent baseline: ``run`` with all loss weights at zero must
    reproduce this runner's parameters bit for bit.
    """
    _check_datasets(source, target)
    if model_cfg is None:
        model_cfg = ModelConfig(input_dim=source.feature_dim, num_classes=source.num_classes)
    init_seed, sampler_seed, shuffle_seed = _seed_streams(cfg.seed)
    state = init_model(model_cfg, init_seed)
    sampler = BalancedSampler(source, sampler_seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    n_tgt = len(target)
    steps_per_epoch = math.ceil(n_tgt / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    records: list[EpochRecord] = []
    completed = 0
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n_tgt)
        loss_sum = 0.0
        epoch_lr = None
        for start in range(0, n_tgt, cfg.batch_size):
            size = perm[start:start + cfg.batch_size].size
            src_idx = sampler.draw(size)
            lr = lr_schedule(cfg.lr0, completed / total_steps, cfg.lr_alpha, cfg.lr_beta)
            if epoch_lr is None:
                epoch_lr = lr
            tape = Tape()
            probs = classify(state, features(state, source.features[src_idx], tape), tape)
            loss = cross_entropy(tape, probs, source.labels[src_idx])
            if not np.isfinite(loss.values[0, 0]):
                raise NumericError(f"non-finite classification loss at epoch {epoch}")
            loss_sum += loss.item()
            tape.backward(loss)
            sgd_step(state.parameters(), lr, cfg.momentum, state.velocity)
            completed += 1
        pseudo = _inference_pseudo(state, target, None)
        sums = {"loss_class": loss_sum, "loss_adversarial": 0.0,
                "loss_centroid": 0.0, "loss_pairwise": 0.0}
        records.append(_epoch_record(epoch, epoch_lr, sums, steps_per_epoch, pseudo, audit_fn))
    if out_dir is not None:
        _write_outputs(out_dir, state, records, None)
    return state, records, None

"""Shared fixtures and finite-difference helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from shiftlab import DomainDataset, ModelConfig, ShiftSpec, generate
from shiftlab.autodiff import (
    Tensor,
    add,
    affine,
    clamp_min,
    div,
    log,
    matmul,
    mean_all,
    ratio,
    scale_by,
    sum_all,
)


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # floor keeps all-zero gradients from dividing rounding dust by itself
    denom = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric)) / denom)


def away_from_kinks(rng: np.random.Generator, shape, margin: float = 1e-2) -> np.ndarray:
    """Draw values bounded away from zero so relu kinks cannot corrupt FD checks."""
    x = rng.uniform(margin, 1.0, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return x * sign


# The op chains each fused node replaced, kept as oracles: the fused node
# must give the same values and gradients, bit for bit.


def unfused_ratio(tape, x, w_num, w_den, eps):
    numerator = sum_all(tape, scale_by(tape, x, w_num))
    denominator = sum_all(tape, scale_by(tape, x, w_den))
    return div(tape, numerator, affine(tape, denominator, 1.0, eps))


def unfused_binary_cross_entropy(tape, p_neg, p_pos, floor):
    neg = mean_all(tape, log(tape, clamp_min(tape, affine(tape, p_neg, -1.0, 1.0), floor)))
    pos = mean_all(tape, log(tape, clamp_min(tape, p_pos, floor)))
    return affine(tape, add(tape, neg, pos), -1.0)


def unfused_ema_matmul(tape, coeff, x, mix, base):
    contrib = matmul(tape, Tensor(coeff), x)
    scaled = scale_by(tape, contrib, np.broadcast_to(mix[:, None], contrib.shape))
    return add(tape, scaled, Tensor(base))


def grid_label_ratio(tape, dists, src_labels, tgt_labels, src_weights, tgt_weights, eps):
    """``label_ratio`` as the pairwise loss built it before, with pair weights
    sqrt(w_s w_t): ``ratio`` with two n x m weight grids."""
    same = src_labels[:, None] == tgt_labels[None, :]
    n_same = int(same.sum())
    n_diff = same.size - n_same
    pair_w = np.sqrt(np.outer(src_weights, tgt_weights))
    return ratio(tape, dists, pair_w * same / n_same, pair_w * ~same / n_diff, eps)


@pytest.fixture(scope="session")
def tiny_pair() -> tuple[DomainDataset, DomainDataset]:
    """Small two-domain dataset for fast trainer tests: C=3, d=4."""
    spec = ShiftSpec(
        num_classes=3,
        feature_dim=4,
        max_class_size=40,
        imbalance_factor=5.0,
        target_order=[2, 1, 0],
        rotation_angle=np.pi / 6,
        seed=7,
    )
    return generate(spec)


@pytest.fixture(scope="session")
def tiny_model_cfg() -> ModelConfig:
    return ModelConfig(
        input_dim=4,
        num_classes=3,
        hidden_dims=[16],
        bottleneck_dim=6,
        discriminator_hidden_dims=[8],
    )

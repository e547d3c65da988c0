"""Shared fixtures and finite-difference helpers for the test suite."""

from __future__ import annotations

import json
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from shiftlab import (
    DomainDataset,
    ExperimentConfig,
    ModelConfig,
    ShiftSpec,
    WeightedBatch,
    calibrate,
    centroid_alignment_loss,
    classify,
    cross_entropy,
    discriminate,
    discriminative_alignment_loss,
    features,
    generate,
    parse_config,
    update_centroids,
)
from shiftlab import autodiff
from shiftlab.autodiff import (
    Tape,
    Tensor,
    add,
    add_bias,
    affine,
    clamp_min,
    div,
    log,
    matmul,
    mean_all,
    pairwise_distances,
    ratio,
    relu,
    scale_by,
    sgd_step,
    split_rows,
    sum_all,
    weighted_sum,
)
from shiftlab.losses import PROB_FLOOR


# README's quickstart config: the standard benchmark.
STANDARD_JSON = pathlib.Path(__file__).parent / "data" / "standard.json"


def standard_config() -> ExperimentConfig:
    return parse_config(json.loads(STANDARD_JSON.read_text(encoding="utf-8")))


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


def allocation_peak(fn, *args, **kwargs) -> int:
    """Bytes by which tracemalloc's peak rises above its level when ``fn`` starts.

    NumPy reports its array buffers to tracemalloc, so the figure counts the
    arrays a call allocates as well as its Python objects, and it does not
    depend on timing or on how the allocator hands memory back.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def call_count(fn, *args, **kwargs) -> int:
    """Python and C function calls made by ``fn(*args, **kwargs)``, ``fn``'s own included.

    Counts the ``call`` and ``c_call`` events that ``sys.setprofile`` reports:
    one per Python function or generator entered and one per builtin
    function or method called. Operators and ufunc calls such as
    ``np.add(a, b)`` run in C without such an event, so they add nothing.
    """
    count = 0

    def profile(frame, event, arg) -> None:
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return count - 1  # the sys.setprofile call that ends the count


def entered_code(fn, *args, **kwargs) -> set:
    """The code object of each Python function that ``fn(*args, **kwargs)`` enters.

    It reads the ``call`` events that ``call_count`` counts.
    """
    entered = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return entered


def retained_grad(tape, t) -> list:
    """A list that receives a copy of ``t``'s gradient (or None) during ``tape.backward``.

    Call it right after the op that made ``t``. Backward runs the rules
    newest first, so the copy is taken after every op that read ``t`` has
    added its share, and before ``t``'s own rule may consume the array.
    """
    kept = []
    tape.record(lambda: kept.append(None if t._grad is None else t._grad.copy()))
    return kept


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


def unfused_binary_cross_entropy(tape, p, n_neg, floor):
    return binary_cross_entropy_of_halves(tape, *split_rows(tape, p, n_neg), floor)


def binary_cross_entropy_of_halves(tape, p_neg, p_pos, floor):
    """The chain of ``unfused_binary_cross_entropy`` over its two halves."""
    neg = mean_all(tape, log(tape, clamp_min(tape, affine(tape, p_neg, -1.0, 1.0), floor)))
    pos = mean_all(tape, log(tape, clamp_min(tape, p_pos, floor)))
    return affine(tape, add(tape, neg, pos), -1.0)


def unfused_ema_matmul(tape, coeff, x, mix, base):
    contrib = matmul(tape, Tensor(coeff), x)
    scaled = scale_by(tape, contrib, np.broadcast_to(mix[:, None], contrib.shape))
    return add(tape, scaled, Tensor(base))


def table_label_ratio(tape, dists, pairs, src_scale, tgt_scale, eps):
    """``label_ratio`` as it was before it took the features: one node over a
    distance table ``dists``, whose n x m gradient it sends back whole."""
    s, t = np.asarray(src_scale, dtype=np.float64), np.asarray(tgt_scale, dtype=np.float64)
    n, m = dists.values.shape
    n_same, n_diff = pairs.n_same, pairs.n_diff
    src_weight = pairs.src * s[:, None]
    by_class = dists.values @ (pairs.tgt * t[:, None])
    same_sum = np.vdot(src_weight, by_class)
    cross_sum = np.vdot(s[:, None] - src_weight, by_class)
    den = cross_sum / n_diff + eps
    q = same_sum / n_same / den
    out = Tensor([[q]])
    if tape is not None:

        def backward():
            g = out._grad
            if g is not None:
                c = g[0, 0]
                per_class = np.where(pairs.tgt.T, c / (den * n_same), -(c * q / (den * n_diff)))
                per_class *= t
                grad = np.matmul(src_weight, per_class, out=autodiff._empty((n, m)))
                autodiff._accumulate(dists, grad)

        tape.record(backward)
    return out


def two_op_label_ratio(tape, a, b, pairs, src_scale, tgt_scale, eps):
    """``label_ratio`` as two nodes: ``pairwise_distances``, then ``table_label_ratio``.

    The fused op must give the same values and gradients, bit for bit.
    """
    return table_label_ratio(tape, pairwise_distances(tape, a, b), pairs, src_scale,
                             tgt_scale, eps)


def chained_mlp(tape, x, layers):
    """``mlp`` as the chain it fuses: ``relu(add_bias(matmul(...)))`` per hidden
    layer, then ``add_bias(matmul(...))``. A plain array input becomes a
    ``Tensor`` whose gradient nothing reads."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    for w, b in layers[:-1]:
        x = relu(tape, add_bias(tape, matmul(tape, x, w), b))
    w, b = layers[-1]
    return add_bias(tape, matmul(tape, x, w), b)


def grid_label_ratio(tape, dists, src_labels, tgt_labels, src_weights, tgt_weights, eps):
    """``label_ratio`` as the pairwise loss built it before, with pair weights
    sqrt(w_s w_t): ``ratio`` with two n x m weight grids."""
    same = src_labels[:, None] == tgt_labels[None, :]
    n_same = int(same.sum())
    n_diff = same.size - n_same
    pair_w = np.sqrt(np.outer(src_weights, tgt_weights))
    return ratio(tape, dists, pair_w * same / n_same, pair_w * ~same / n_diff, eps)


def two_pass_train_step(state, bank, class_weights, cfg, src_features, src_labels,
                        tgt_features, lr, grl_coeff=1.0, diagnostics=None):
    """``training.train_step`` as it was before the stacked pass, kept as an oracle.

    The source and target batches each take their own extractor and
    discriminator pass. The stacked step must match it to rounding: it
    sums the weight gradients over both batches in one product.
    """
    lam = cfg.centroid_loss_weight
    mu = cfg.pairwise_loss_weight
    gam = cfg.adversarial_loss_weight

    tape = Tape()
    f_src = features(state, src_features, tape)
    p_src = classify(state, f_src, tape)
    loss_class = cross_entropy(tape, p_src, src_labels)
    terms, weights = [loss_class], [1.0]
    out = dict.fromkeys(("loss_class", "loss_adversarial", "loss_centroid", "loss_pairwise"), 0.0)
    out["loss_class"] = loss_class.item()

    f_tgt = None
    if lam > 0.0 or mu > 0.0 or gam > 0.0:
        f_tgt = features(state, tgt_features, tape)

    src_wb = tgt_wb = None
    if lam > 0.0 or mu > 0.0:
        src_conf = p_src.values.max(axis=1)
        pseudo = calibrate(classify(state, f_tgt).values, class_weights)
        src_wb = WeightedBatch(f_src, src_labels, src_conf)
        tgt_wb = WeightedBatch(f_tgt, pseudo.calibrated_label, pseudo.calibrated_confidence)

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
        d_src = discriminate(state, f_src, grl_coeff, tape)
        d_tgt = discriminate(state, f_tgt, grl_coeff, tape)
        # the stacked step's loss over the two halves of its one column
        loss_adv = binary_cross_entropy_of_halves(tape, d_src, d_tgt, PROB_FLOOR)
        out["loss_adversarial"] = loss_adv.item()
        terms.append(loss_adv)
        weights.append(gam)

    total = weighted_sum(tape, terms, weights) if len(terms) > 1 else terms[0]
    tape.backward(total)
    sgd_step(state.parameters(), lr, cfg.momentum, state.velocity)
    return out


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

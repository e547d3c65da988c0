"""The three small networks: feature extractor, classifier, discriminator.

The extractor is an MLP ending in a linear bottleneck (no final relu, so
features can occupy all orthants). The classifier is a single linear
layer plus softmax. The discriminator sees features through a gradient
reversal and emits a probability-of-target via a logistic output.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from ._jsonio import compact_json, write_text
from .autodiff import (
    ShapeError,
    Tape,
    Tensor,
    grad_reverse,
    init_velocity,
    linear,
    relu,
    sigmoid,
    softmax,
)

__all__ = ["ModelConfig", "ModelState", "init_model", "features", "classify",
           "discriminate", "save_checkpoint", "load_checkpoint"]


@dataclass
class ModelConfig:
    input_dim: int
    num_classes: int
    hidden_dims: list[int] = field(default_factory=lambda: [64, 64])
    bottleneck_dim: int = 16
    discriminator_hidden_dims: list[int] = field(default_factory=lambda: [32])

    def __post_init__(self) -> None:
        for name in ("hidden_dims", "discriminator_hidden_dims"):
            widths = getattr(self, name)
            if not all(isinstance(h, numbers.Integral) and not isinstance(h, bool) for h in widths):
                raise ValueError(f"{name} entries must be integers, got {list(widths)}")
            setattr(self, name, [int(h) for h in widths])
        dims = [self.input_dim, self.num_classes, self.bottleneck_dim]
        dims += self.hidden_dims + self.discriminator_hidden_dims
        if any(d <= 0 for d in dims):
            raise ValueError(f"all dimensions must be positive: {self}")
        if self.bottleneck_dim < 2:
            raise ValueError(f"bottleneck_dim must be >= 2, got {self.bottleneck_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")


@dataclass
class ModelState:
    """All trainable parameters plus optimizer velocity slots.

    ``layers`` maps each network, in ``_layer_dims`` order, to its
    (weight, bias) pairs; the classifier is a one-layer list.
    """

    config: ModelConfig
    layers: dict[str, list[tuple[Tensor, Tensor]]]
    init_seed: int
    velocity: list[np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        self.velocity = init_velocity(self.parameters())

    def parameters(self) -> list[Tensor]:
        return [t for net in self.layers.values() for pair in net for t in pair]


def _init_layer(rng: np.random.Generator, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    weight = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    bias = Tensor(np.zeros((1, fan_out)))
    return weight, bias


def _layer_dims(cfg: ModelConfig) -> dict[str, list[tuple[int, int]]]:
    """(fan_in, fan_out) of every layer of each network, in parameter order."""
    ext_dims = [cfg.input_dim] + cfg.hidden_dims + [cfg.bottleneck_dim]
    dis_dims = [cfg.bottleneck_dim] + cfg.discriminator_hidden_dims + [1]
    return {
        "extractor": list(zip(ext_dims, ext_dims[1:])),
        "classifier": [(cfg.bottleneck_dim, cfg.num_classes)],
        "discriminator": list(zip(dis_dims, dis_dims[1:])),
    }


def init_model(cfg: ModelConfig, seed: int) -> ModelState:
    """Uniform fan-scaled weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    layers = {
        net: [_init_layer(rng, a, b) for a, b in dims]
        for net, dims in _layer_dims(cfg).items()
    }
    return ModelState(cfg, layers, seed)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _mlp(layers: list[tuple[Tensor, Tensor]], h: Tensor, tape: Tape | None) -> Tensor:
    """Affine layers with a relu between each pair; the last output stays linear."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = linear(tape, h, w, b)
        if i != last:
            h = relu(tape, h)
    return h


def features(state: ModelState, x, tape: Tape | None = None) -> Tensor:
    """Extractor forward: affine+relu stacks, final affine to the bottleneck."""
    h = _as_tensor(x)
    if h.shape[1] != state.config.input_dim:
        raise ShapeError(
            f"input has {h.shape[1]} columns, model expects {state.config.input_dim}"
        )
    return _mlp(state.layers["extractor"], h, tape)


def classify(state: ModelState, feats: Tensor, tape: Tape | None = None) -> Tensor:
    """Linear layer then row-wise softmax; rows sum to 1."""
    return softmax(tape, _mlp(state.layers["classifier"], feats, tape))


def discriminate(
    state: ModelState, feats: Tensor, grl_coeff: float, tape: Tape | None = None
) -> Tensor:
    """Probability-of-target per sample, with reversed gradients into feats."""
    h = grad_reverse(tape, feats, grl_coeff)
    return sigmoid(tape, _mlp(state.layers["discriminator"], h, tape))


def save_checkpoint(state: ModelState, path) -> None:
    """JSON checkpoint; float repr round-trips bit-exact.

    The file is ``json.dumps`` of the document, written one weight row at a
    time and moved into place only when complete.
    """
    doc = {"config": asdict(state.config), "init_seed": state.init_seed}
    for net, pairs in state.layers.items():
        doc[net] = [{"weight": w.values.tolist(), "bias": b.values.tolist()} for w, b in pairs]
    write_text(path, compact_json(doc))


def load_checkpoint(path) -> ModelState:
    """Restore a checkpoint; every layer's shapes must match its config."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = ModelConfig(**doc["config"])

    layers = {}
    for net, dims in _layer_dims(cfg).items():
        entries = doc[net]
        if len(entries) != len(dims):
            raise ValueError(
                f"checkpoint {net} has {len(entries)} layers, config expects {len(dims)}"
            )
        layers[net] = []
        for i, (entry, (fan_in, fan_out)) in enumerate(zip(entries, dims)):
            name = net if len(dims) == 1 else f"{net} layer {i}"
            w, b = Tensor(entry["weight"]), Tensor(entry["bias"])
            for key, t, expected in (("weight", w, (fan_in, fan_out)), ("bias", b, (1, fan_out))):
                if t.shape != expected:
                    raise ValueError(
                        f"checkpoint {name} {key} has shape {t.shape}, config expects {expected}"
                    )
            layers[net].append((w, b))

    return ModelState(cfg, layers, int(doc["init_seed"]))

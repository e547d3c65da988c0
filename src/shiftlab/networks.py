"""The three small networks: feature extractor, classifier, discriminator.

The extractor is an MLP ending in a linear bottleneck (no final relu, so
features can occupy all orthants). The classifier is a single linear
layer plus softmax. The discriminator sees features through a gradient
reversal and emits a probability-of-target via a logistic output.
Each network's dense layers are one ``autodiff.mlp`` node on a tape.
``predict`` runs the extractor and classifier over many rows in blocks.
"""
from __future__ import annotations

import json
import numbers
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from ._jsonio import build, fits, write_file
from .autodiff import (
    Pool,
    ShapeError,
    Tape,
    Tensor,
    Velocity,
    _row_blocks,
    as_matrix,
    grad_reverse,
    mlp,
    sigmoid,
    softmax,
)
from .data import MAX_SIZE

__all__ = ["ModelConfig", "ModelState", "CheckpointError", "init_model", "features",
           "classify", "discriminate", "predict", "save_checkpoint", "load_checkpoint"]

# Rows per block of ``predict``.
PREDICT_ROWS = 128


class CheckpointError(ValueError):
    """A checkpoint file cannot be read, or its arrays do not fit its config."""


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
        for name in ("input_dim", "num_classes", "bottleneck_dim", "hidden_dims",
                     "discriminator_hidden_dims"):
            value = getattr(self, name)
            if any(d > MAX_SIZE for d in (value if isinstance(value, list) else [value])):
                raise ValueError(f"{name} must be at most {MAX_SIZE}, got {value}")
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
    ``provenance`` is what ``load_checkpoint`` found stored with the
    weights about the data they were trained on, if anything.
    """

    config: ModelConfig
    layers: dict[str, list[tuple[Tensor, Tensor]]]
    init_seed: int
    provenance: dict | None = None
    velocity: Velocity = field(init=False)

    def __post_init__(self) -> None:
        self.velocity = Velocity(self.parameters())

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


def features(state: ModelState, x, tape: Tape | None = None) -> Tensor:
    """Extractor forward: affine+relu stacks, final affine to the bottleneck.

    ``x`` is converted by ``as_matrix`` and is a constant: no gradient is
    computed for it.
    """
    h = as_matrix(x)
    if h.shape[1] != state.config.input_dim:
        raise ShapeError(
            f"input has {h.shape[1]} columns, model expects {state.config.input_dim}"
        )
    return mlp(tape, h, state.layers["extractor"])


def classify(state: ModelState, feats: Tensor, tape: Tape | None = None) -> Tensor:
    """Linear layer then row-wise softmax; rows sum to 1."""
    return softmax(tape, mlp(tape, feats, state.layers["classifier"]))


def discriminate(
    state: ModelState, feats: Tensor, grl_coeff: float, tape: Tape | None = None
) -> Tensor:
    """Probability-of-target per sample, with reversed gradients into feats."""
    h = grad_reverse(tape, feats, grl_coeff)
    return sigmoid(tape, mlp(tape, h, state.layers["discriminator"]))


def predict(state: ModelState, x, pool: Pool | None = None) -> np.ndarray:
    """Class probabilities of every row of ``x``: ``classify(features(x)).values``.

    The rows go through in blocks of ``PREDICT_ROWS``, each inside
    ``with pool:`` (a new ``Pool`` if none is given), so the layers'
    arrays are reused from block to block and, with the caller's pool,
    from call to call. The returned array is new. The same bits come out
    as from one pass: a block's products give each row the same sums,
    and a lone last row joins the block before it.
    """
    x = as_matrix(x)
    n = x.shape[0]
    probs = np.empty((n, state.config.num_classes))
    if pool is None:
        pool = Pool()
    for lo, hi in _row_blocks(n, PREDICT_ROWS):
        with pool:
            probs[lo:hi] = classify(state, features(state, x[lo:hi])).values
    return probs


def save_checkpoint(state: ModelState, path, provenance: dict | None = None) -> None:
    """Write an uncompressed ``.npz``, all or nothing; it round-trips bit-exact.

    It holds one array per parameter, named like ``extractor.0.weight``, and
    a 0-d string ``meta``: the JSON of the config, init seed and ``provenance``.
    """
    meta = {"config": asdict(state.config), "init_seed": state.init_seed, "provenance": provenance}
    arrays = {f"{net}.{i}.{key}": t.values for net, pairs in state.layers.items()
              for i, pair in enumerate(pairs) for key, t in zip(("weight", "bias"), pair)}
    write_file(path, lambda fh: np.savez(fh, meta=np.array(json.dumps(meta)), **arrays))


def load_checkpoint(path) -> ModelState:
    """Restore a checkpoint; every layer's shapes must match its config.

    Nothing is unpickled. A path that is no readable checkpoint ``.npz``, such
    as a JSON checkpoint of earlier versions, raises ``CheckpointError``; so
    does an array that is not of finite floats or that belongs to no layer,
    a ``meta`` that is not an object of ``config``, ``init_seed`` and
    ``provenance``, a config that a config file's ``model`` section could
    not hold (a float or bool where an int belongs, an unknown or missing
    key), an ``init_seed`` that is not a non-negative int, and a
    ``provenance`` that is not an object with a string ``features_sha256``
    and an object ``data`` (each may be null). Each message names the
    file, and the array or field if any.
    """
    try:
        # np.load leaves a file it opened itself open when it cannot parse it
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        meta = json.loads(str(arrays.pop("meta")))
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path} is not a readable checkpoint .npz ({exc!r}); JSON "
                              "checkpoints of earlier versions no longer load") from exc
    if not (isinstance(meta, dict) and {"config", "init_seed"} <= meta.keys()
            and meta.keys() <= {"config", "init_seed", "provenance"}):
        raise CheckpointError(f"{path}: meta must be an object of config, init_seed and "
                              f"provenance, got {meta!r}")
    cfg = build(ModelConfig, meta["config"], f"{path}: meta config", CheckpointError)
    init_seed = meta["init_seed"]
    if not (fits(init_seed, int) and init_seed >= 0):
        raise CheckpointError(f"{path}: meta init_seed must be a non-negative int, "
                              f"got {init_seed!r}")
    provenance = meta.get("provenance")
    if not (provenance is None or isinstance(provenance, dict)
            and isinstance(provenance.get("features_sha256"), (str, type(None)))
            and isinstance(provenance.get("data"), (dict, type(None)))):
        raise CheckpointError(f"{path}: provenance must be an object with a string "
                              f"features_sha256 and an object data, got {provenance!r}")

    layers = {}
    for net, dims in _layer_dims(cfg).items():
        n = len({name.split(".")[1] for name in arrays if name.startswith(net + ".")})
        if n != len(dims):
            raise CheckpointError(f"{path}: {net} has {n} layers, config expects {len(dims)}")
        layers[net] = []
        for i, (fan_in, fan_out) in enumerate(dims):
            name = net if len(dims) == 1 else f"{net} layer {i}"
            pair = []
            for key, expected in (("weight", (fan_in, fan_out)), ("bias", (1, fan_out))):
                array = arrays.get(f"{net}.{i}.{key}")
                shape = getattr(array, "shape", None)
                if shape != expected:
                    raise CheckpointError(
                        f"{path}: {name} {key} has shape {shape}, config expects {expected}"
                    )
                if array.dtype.kind != "f":
                    raise CheckpointError(f"{path}: {name} {key} has dtype {array.dtype}, "
                                          "expected floats")
                if not np.isfinite(array).all():
                    raise CheckpointError(f"{path}: {name} {key} holds a non-finite value")
                pair.append(Tensor(array))
            layers[net].append(tuple(pair))
    layer_arrays = {f"{net}.{i}.{key}" for net, dims in _layer_dims(cfg).items()
                    for i in range(len(dims)) for key in ("weight", "bias")}
    stray = sorted(set(arrays) - layer_arrays)
    if stray:
        raise CheckpointError(f"{path}: array {stray[0]!r} belongs to no layer")
    return ModelState(cfg, layers, init_seed, provenance)

"""Synthetic two-domain classification datasets with controllable shift.

Each class is a Gaussian blob whose mean sits on a circle in the first two
feature coordinates. The target domain applies a rotation plus translation
to those means (covariate shift) and draws class counts under its own head
/ tail ordering (label shift). Class counts interpolate geometrically from
the largest class down, so the max/min ratio equals the requested
imbalance factor by construction.

Target labels are written to disk but gated behind a capability object:
training code can only reach them through ``labels_for_eval`` with a
``LabelAccess`` instance, which only the evaluation layer holds.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonio import settle, write_text

__all__ = [
    "ParameterError",
    "DatasetFormatError",
    "HiddenLabelError",
    "LabelAccess",
    "DomainDataset",
    "ShiftSpec",
    "class_sizes",
    "generate",
    "features_digest",
    "save_dataset",
    "BalancedSampler",
]

# The largest count or dimension a config may give, so that no size
# overflows an int64 cast or a NumPy shape.
MAX_SIZE = 2**31 - 1
# The largest feature_dim: a spec holds one translation entry per feature,
# so this keeps building one from a config within half a MiB.
MAX_FEATURE_DIM = 2**16
# The largest norm a drawn feature row may reach: its square, and the square
# of a distance between two rows, then stay below 1e201, far inside the
# float range.
MAX_FEATURE_NORM = 1e100


class ParameterError(ValueError):
    """A dataset or sampler parameter is out of its valid range."""


class DatasetFormatError(ValueError):
    """A dataset has no samples or a label outside ``[0, num_classes)``."""


class HiddenLabelError(RuntimeError):
    """Direct access to labels that are reserved for the evaluator."""


class LabelAccess:
    """Capability token granting read access to hidden labels.

    Constructed by the evaluation layer only; training code never holds
    one, which makes "the trainer never sees target labels" a structural
    property of the call graph.
    """

    __slots__ = ()


class DomainDataset:
    """Feature matrix plus integer labels for one domain.

    The target domain's labels are hidden: its ``labels`` property raises
    and they are only reachable via ``labels_for_eval``.
    """

    def __init__(
        self,
        domain_tag: str,
        features: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
    ) -> None:
        if domain_tag not in ("source", "target"):
            raise ParameterError(f"domain_tag must be source|target, got {domain_tag!r}")
        feats = np.asarray(features, dtype=np.float64)
        labs = np.asarray(labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ParameterError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ParameterError(
                f"labels shape {labs.shape} does not match {feats.shape[0]} samples"
            )
        if num_classes < 2:
            raise ParameterError(f"need at least 2 classes, got {num_classes}")
        if labs.size == 0:
            raise DatasetFormatError("empty dataset: no sample rows")
        if labs.min() < 0 or labs.max() >= num_classes:
            raise DatasetFormatError(
                f"label out of range [0, {num_classes}): found {int(labs.min())}..{int(labs.max())}"
            )
        self.domain_tag = domain_tag
        self.features = feats
        self.num_classes = int(num_classes)
        self.hidden = domain_tag == "target"
        self._labels = labs

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def labels(self) -> np.ndarray:
        if self.hidden:
            raise HiddenLabelError(
                f"labels of the {self.domain_tag} domain are hidden; "
                "use labels_for_eval with evaluator access"
            )
        return self._labels

    def labels_for_eval(self, access: LabelAccess) -> np.ndarray:
        """Return labels regardless of hiding; requires a LabelAccess token."""
        if not isinstance(access, LabelAccess):
            raise HiddenLabelError("labels_for_eval requires a LabelAccess token")
        return self._labels


@dataclass
class ShiftSpec:
    """Recipe for one two-domain dataset pair.

    ``source_order`` / ``target_order`` are permutations of class indices:
    entry r names the class holding size rank r (rank 0 = largest).
    ``rotation_angle`` is in radians and acts on the first two feature
    coordinates of the target class means; ``translation`` is added to
    every target mean, and a scalar stands for that value in every
    coordinate. Every float must be finite, each count and dimension at
    most ``MAX_SIZE``, and ``feature_dim`` at most ``MAX_FEATURE_DIM``.
    ``noise_sigma`` and ``translation`` must keep every drawn row within
    ``MAX_FEATURE_NORM`` of the origin.
    """

    num_classes: int = 5
    feature_dim: int = 10
    max_class_size: int = 300
    imbalance_factor: float = 10.0
    source_order: list[int] | None = None
    target_order: list[int] | None = None
    rotation_angle: float = 0.0
    translation: list[float] | float = 0.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        settle(self, ParameterError)
        for name in ("num_classes", "feature_dim", "max_class_size"):
            value = getattr(self, name)
            if value > MAX_SIZE:
                raise ParameterError(f"{name} must be at most {MAX_SIZE}, got {value}")
        if self.feature_dim > MAX_FEATURE_DIM:
            raise ParameterError(
                f"feature_dim must be at most {MAX_FEATURE_DIM}, got {self.feature_dim}"
            )
        if self.num_classes < 2:
            raise ParameterError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.feature_dim < 2:
            raise ParameterError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if self.max_class_size < self.num_classes:
            raise ParameterError(
                f"max_class_size {self.max_class_size} < num_classes {self.num_classes}"
            )
        if self.imbalance_factor < 1.0:
            raise ParameterError(f"imbalance_factor must be >= 1, got {self.imbalance_factor}")
        if self.noise_sigma <= 0.0:
            raise ParameterError(f"noise_sigma must be > 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        self.source_order = self._check_order(self.source_order, "source_order")
        self.target_order = self._check_order(self.target_order, "target_order")
        translation = self.translation
        if not isinstance(translation, list):
            translation = [translation] * self.feature_dim
        if len(translation) != self.feature_dim:
            raise ParameterError(
                f"translation length {len(translation)} != feature_dim {self.feature_dim}"
            )
        self.translation = [float(t) for t in translation]
        # bound the norm of any row generate can draw, without drawing one: a
        # coordinate of a class mean is at most 4 sigma + |t_j| in size (rotation
        # keeps the radius), and NumPy's normal generator never strays more than
        # 13 sigma from the mean, so 18 sigma covers both
        shift = max(abs(t) for t in self.translation)
        reach = math.sqrt(self.feature_dim) * (shift + 18.0 * self.noise_sigma)
        if reach > MAX_FEATURE_NORM:
            name = "noise_sigma" if 18.0 * self.noise_sigma >= shift else "translation"
            raise ParameterError(
                f"{name} puts drawn features up to {reach:.3g} from the origin: "
                "sqrt(feature_dim) * (max |translation| + 18 * noise_sigma) must be "
                f"at most {MAX_FEATURE_NORM:g}"
            )

    def _check_order(self, order: list[int] | None, name: str) -> list[int]:
        if order is None:
            return list(range(self.num_classes))
        if sorted(order) != list(range(self.num_classes)):
            raise ParameterError(
                f"{name} must be a permutation of 0..{self.num_classes - 1}, got {order}"
            )
        return order


def class_sizes(spec: ShiftSpec) -> np.ndarray:
    """Per-rank class sizes: rank r gets round(n_max * IF^(-r/(C-1))).

    Ties round up; every size is at least 1. Rank 0 is the largest class.
    """
    c = spec.num_classes
    exponents = -np.arange(c) / (c - 1)
    raw = spec.max_class_size * spec.imbalance_factor**exponents
    sizes = np.floor(raw + 0.5).astype(np.int64)  # round half up
    return np.maximum(sizes, 1)


def _class_means(spec: ShiftSpec) -> np.ndarray:
    radius = 4.0 * spec.noise_sigma
    means = np.zeros((spec.num_classes, spec.feature_dim))
    angles = 2.0 * math.pi * np.arange(spec.num_classes) / spec.num_classes
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def _target_means(spec: ShiftSpec, means: np.ndarray) -> np.ndarray:
    cos_a = math.cos(spec.rotation_angle)
    sin_a = math.sin(spec.rotation_angle)
    shifted = means.copy()
    shifted[:, 0] = cos_a * means[:, 0] - sin_a * means[:, 1]
    shifted[:, 1] = sin_a * means[:, 0] + cos_a * means[:, 1]
    return shifted + np.asarray(spec.translation)


def _draw_domain(
    rng: np.random.Generator,
    means: np.ndarray,
    sizes_by_class: np.ndarray,
    sigma: float,
) -> tuple[np.ndarray, np.ndarray]:
    feats = []
    labels = []
    for k in range(means.shape[0]):
        n_k = int(sizes_by_class[k])
        feats.append(means[k] + sigma * rng.standard_normal((n_k, means.shape[1])))
        labels.append(np.full(n_k, k, dtype=np.int64))
    return np.concatenate(feats), np.concatenate(labels)


def generate(spec: ShiftSpec) -> tuple[DomainDataset, DomainDataset]:
    """Draw the source and target datasets described by ``spec``.

    Pure function of the spec: the same spec yields bit-identical arrays.
    Target labels come out hidden.
    """
    sizes = class_sizes(spec)
    src_sizes = np.empty(spec.num_classes, dtype=np.int64)
    tgt_sizes = np.empty(spec.num_classes, dtype=np.int64)
    for rank, klass in enumerate(spec.source_order):
        src_sizes[klass] = sizes[rank]
    for rank, klass in enumerate(spec.target_order):
        tgt_sizes[klass] = sizes[rank]

    means = _class_means(spec)
    rng = np.random.default_rng(spec.seed)
    src_x, src_y = _draw_domain(rng, means, src_sizes, spec.noise_sigma)
    tgt_x, tgt_y = _draw_domain(rng, _target_means(spec, means), tgt_sizes, spec.noise_sigma)
    source = DomainDataset("source", src_x, src_y, spec.num_classes)
    target = DomainDataset("target", tgt_x, tgt_y, spec.num_classes)
    return source, target


def features_digest(source: DomainDataset, target: DomainDataset) -> str:
    """sha256 hex digest of the source and then the target features, shapes included."""
    digest = hashlib.sha256()
    for ds in (source, target):
        digest.update(repr(ds.features.shape).encode("ascii"))
        digest.update(ds.features.tobytes())
    return digest.hexdigest()


def save_dataset(ds: DomainDataset, path) -> None:
    """Write one dataset as CSV with 17-significant-digit reals, target labels included."""
    def lines():
        yield ",".join(["domain", "label"] + [f"f{j}" for j in range(ds.feature_dim)]) + "\n"
        for label, x in zip(ds._labels, ds.features):
            yield ",".join([ds.domain_tag, str(int(label))] + [format(v, ".17g") for v in x]) + "\n"

    write_text(path, lines())


class BalancedSampler:
    """Class-balanced with-replacement sampler over a labeled dataset.

    Every batch slot picks a class uniformly, then a sample uniformly
    within that class, so head and tail classes are drawn equally often.
    """

    def __init__(self, ds: DomainDataset, seed: int) -> None:
        labels = ds.labels  # raises on hidden datasets by design
        sizes = np.bincount(labels, minlength=ds.num_classes)
        if not sizes.all():
            raise ParameterError(f"class {int(np.argmin(sizes))} has no samples to draw from")
        # sample indices grouped by class, ascending within each class
        self._order = np.argsort(labels, kind="stable")
        self._starts = np.cumsum(sizes) - sizes
        self._sizes = sizes
        self._rng = np.random.default_rng(seed)
        self.num_classes = ds.num_classes

    def draw(self, batch_size: int) -> np.ndarray:
        if batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
        classes = self._rng.integers(0, self.num_classes, size=batch_size)
        picks = self._rng.integers(0, self._sizes[classes])
        return self._order[self._starts[classes] + picks]

"""The public surface: what the modules export, and what README documents."""

from __future__ import annotations

import dataclasses
import importlib
import pathlib
import pkgutil

import shiftlab
from shiftlab import AblationMask, ExperimentConfig, ModelConfig, ShiftSpec, TrainConfig, autodiff
from shiftlab import networks, training

from conftest import entered_code

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# The ops a training step records, and the types and helpers around them.
AUTODIFF_EXPORTS = {
    "ShapeError", "TapeError", "Tensor", "Tape", "Pool", "Velocity", "LabelPairs",
    "as_matrix", "sgd_step",
    "mlp", "ema_matmul", "weighted_sum", "relu", "sigmoid", "softmax", "ratio",
    "label_ratio", "split_rows", "nll", "binary_cross_entropy", "pairwise_distances",
    "grad_reverse",
}

# The unfused chain ops: no training path calls them, and the fused ops are
# tested against them. benchmarks/tracer.py wraps each by name from its fixed
# OPS tuple, so they must stay attributes of the module until the tracer takes
# op names from the tape instead.
CHAIN_OPS = (
    "matmul", "add_bias", "add", "sub", "mul", "div", "add_n", "affine", "scale_by", "log",
    "clamp_min", "sum_all", "mean_all", "gather_rows", "euclidean_distance",
)


def test_autodiff_exports_the_step_ops_and_their_types():
    assert len(autodiff.__all__) == len(set(autodiff.__all__)) == 22
    assert set(autodiff.__all__) == AUTODIFF_EXPORTS


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"shiftlab.{info.name}")
               for info in pkgutil.iter_modules(shiftlab.__path__)]
    assert autodiff in modules
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_public_module_declares_its_exports():
    # without __all__, a star import would also take the module's own imports
    for info in pkgutil.iter_modules(shiftlab.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"shiftlab.{info.name}")
            assert isinstance(getattr(module, "__all__", None), list), module.__name__


def test_chain_ops_stay_defined_but_unexported():
    for name in CHAIN_OPS:
        assert callable(getattr(autodiff, name)), name
        assert name not in autodiff.__all__


def test_training_and_prediction_enter_no_chain_op(tiny_pair, tiny_model_cfg):
    # the autodiff docstring's claim: no training path calls the chain ops. A
    # run takes full-method steps in both stages and a predict pass per epoch.
    source, target = tiny_pair
    cfg = TrainConfig(epochs=3, pretrain_epochs=1, batch_size=16)
    entered = entered_code(training.run, source, target, cfg, tiny_model_cfg)
    assert {training.train_step.__code__, networks.predict.__code__} <= entered
    chain = {getattr(autodiff, name).__code__: name for name in CHAIN_OPS}
    assert [chain[code] for code in entered if code in chain] == []


def _schema_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Config schema\n")
    return text[start:text.index("\n## ", start + 1)]


def test_readme_schema_names_every_config_field():
    section = _schema_section()
    for cls in (ExperimentConfig, ShiftSpec, ModelConfig, TrainConfig, AblationMask):
        for f in dataclasses.fields(cls):
            assert f"`{f.name}`" in section, f"{cls.__name__}.{f.name}"
    assert "SHIFTLAB_OUTPUT_ROOT" not in section

"""All-or-nothing artifact writes, and the one rule every config and report field meets."""

from __future__ import annotations

import dataclasses
import errno
import json
import math
import os

import numpy as np
import pytest

from shiftlab._jsonio import finite, write_file, write_json, write_text
from shiftlab.data import ParameterError, ShiftSpec
from shiftlab.experiments import AblationMask, ExperimentConfig, RunReport
from shiftlab.networks import ModelConfig
from shiftlab.training import ConfigError, EpochRecord, TrainConfig


class Unserialisable:
    pass


def test_writes_indented_json(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": [1, 2.5], "b": None})
    assert path.read_text(encoding="utf-8") == json.dumps({"a": [1, 2.5], "b": None}, indent=2)
    assert os.listdir(tmp_path) == ["doc.json"]


def test_replaces_existing_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("old", encoding="utf-8")
    write_text(path, ["[1", "]"])
    assert path.read_text(encoding="utf-8") == "[1]"


def test_serialisation_failure_keeps_old_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"old": true}', encoding="utf-8")

    def pieces():
        # the first piece is in the temporary file before the encoder meets the bad value
        yield json.dumps({"first": [[1.0] * 100] * 3})
        yield json.dumps({"bad": [[Unserialisable()]]})

    with pytest.raises(TypeError):
        write_text(path, pieces())
    assert path.read_text(encoding="utf-8") == '{"old": true}'
    assert os.listdir(tmp_path) == ["doc.json"]


def test_binary_write(tmp_path):
    path = tmp_path / "blob.bin"
    write_file(path, lambda fh: fh.write(b"\x00\r\n\xff"))
    assert path.read_bytes() == b"\x00\r\n\xff"
    assert os.listdir(tmp_path) == ["blob.bin"]


def test_failed_replace_removes_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text('{"old": true}', encoding="utf-8")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_json(path, {"new": True})
    assert path.read_text(encoding="utf-8") == '{"old": true}'
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_write_removes_temporary_file(tmp_path, monkeypatch):
    # a write that dies part-way: the temporary file exists and holds a prefix
    path = tmp_path / "doc.json"
    path.write_text('{"old": true}', encoding="utf-8")
    real_open = open

    class Truncating:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk full")

    monkeypatch.setattr("builtins.open", lambda *a, **k: Truncating(real_open(*a, **k)))
    with pytest.raises(OSError, match="disk full"):
        write_json(path, {"new": list(range(50))})
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == '{"old": true}'
    assert os.listdir(tmp_path) == ["doc.json"]


def test_temporary_file_sits_beside_any_path_like_target(tmp_path, monkeypatch):
    # a path-like object whose str() is not its path: the temporary name is
    # built from os.fspath, so it is written beside the target, not in the
    # working directory
    out = tmp_path / "out"
    out.mkdir()

    class Target:
        def __fspath__(self):
            return str(out / "blob.bin")

    monkeypatch.chdir(tmp_path)
    dirs = []

    def write(fh):
        dirs.append(os.path.dirname(fh.name))
        fh.write(b"new")

    write_file(Target(), write)
    assert dirs == [str(out)]
    assert (out / "blob.bin").read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["out"] and os.listdir(out) == ["blob.bin"]


def test_an_errno_without_a_file_name_is_given_the_path(tmp_path):
    # a real fh.write that hits ENOSPC raises an OSError that names no file
    def full(fh):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with pytest.raises(OSError) as caught:
        write_file(tmp_path / "doc.json", full)
    assert caught.value.filename == str(tmp_path / "doc.json")
    assert str(tmp_path / "doc.json") in str(caught.value)


@pytest.mark.parametrize("value, expected", [
    (1e308, True), (-(2**63), True), (0, True), (math.nan, False), (-math.inf, False),
    (10**400, False),
])
def test_finite_is_a_bool(value, expected):
    # an int beyond the float range overflows math.isfinite, and is not finite
    assert finite(value) is expected


# Every config and report dataclass, built from NumPy scalars, NumPy arrays
# (a 0-d one included) and tuples wherever a field takes a number or a list.
NUMPY_BUILT = {
    "ShiftSpec": lambda: ShiftSpec(
        num_classes=np.int64(3), feature_dim=np.int32(4), max_class_size=np.uint16(40),
        imbalance_factor=np.float32(5.0), source_order=np.array([0, 1, 2]),
        target_order=(2, np.int64(1), 0), rotation_angle=np.array(0.5),
        translation=(np.float64(0.5), 0, 0.0, np.int8(1)), noise_sigma=np.float16(1.0),
        seed=np.uint8(7)),
    "ModelConfig": lambda: ModelConfig(
        np.int64(4), np.int64(3), hidden_dims=np.array([16, 8]), bottleneck_dim=np.int16(6),
        discriminator_hidden_dims=(np.int64(8),)),
    "TrainConfig": lambda: TrainConfig(
        lr0=np.float32(0.01), epochs=np.int64(4), pretrain_epochs=np.int8(2),
        batch_size=np.array(16), seed=np.int64(7), grl_schedule=np.bool_(True)),
    "AblationMask": lambda: AblationMask(np.bool_(True), np.bool_(False), True, np.bool_(False)),
    "ExperimentConfig": lambda: ExperimentConfig(
        data=NUMPY_BUILT["ShiftSpec"](), seeds=np.array([3, 4]),
        model=NUMPY_BUILT["ModelConfig"]()),
    "EpochRecord": lambda: EpochRecord(
        np.int64(1), np.float64(0.01), np.float32(1.5), 0, 0.0, 0.0, np.float64(0.5),
        pseudo_acc_raw=np.array(0.75)),
    "RunReport": lambda: RunReport(
        name="n", seed=np.int64(7), wall_clock_sec=np.float64(0.1),
        records=[NUMPY_BUILT["EpochRecord"]().to_dict()],
        final_per_class_acc=(np.float64(0.5), None), final_per_class_mean_acc=np.float32(0.75),
        label_shift=None, true_target_dist=np.array([0.25, 0.75]), dist_l1_error=None,
        est_head_class=np.int64(1), true_head_class=np.intp(1)),
}


def plain_leaves(value) -> list:
    """Every leaf of a JSON-like value that is not a Python bool, int, float, str or None."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in plain_leaves(item)]
    return [] if type(value) in (bool, int, float, str, type(None)) else [value]


@pytest.mark.parametrize("name", list(NUMPY_BUILT))
def test_numpy_values_and_tuples_become_json(name):
    doc = dataclasses.asdict(NUMPY_BUILT[name]())
    assert plain_leaves(doc) == []
    assert json.loads(json.dumps(doc)) == doc


def test_numpy_values_keep_their_value():
    spec = NUMPY_BUILT["ShiftSpec"]()
    assert (spec.source_order, spec.target_order) == ([0, 1, 2], [2, 1, 0])
    assert spec.translation == [0.5, 0.0, 0.0, 1.0]
    assert NUMPY_BUILT["ModelConfig"]().hidden_dims == [16, 8]
    assert NUMPY_BUILT["ExperimentConfig"]().seeds == [3, 4]
    assert NUMPY_BUILT["RunReport"]().final_per_class_acc == [0.5, None]


RECORD = dict(epoch=1, lr=0.01, loss_class=1.0, loss_adversarial=0.0, loss_centroid=0.0,
              loss_pairwise=0.0, calibrated_fraction=0.5)
REPORT = dict(name="n", seed=7, wall_clock_sec=0.1, records=[], final_per_class_acc=[0.5],
              final_per_class_mean_acc=0.5, label_shift=None, true_target_dist=[1.0],
              dist_l1_error=None, est_head_class=None, true_head_class=0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ShiftSpec(seed=1.5), ParameterError, "seed must be int, got 1.5"),
    (lambda: ShiftSpec(target_order=[2, 1, 0.0]), ParameterError, "target_order must be"),
    (lambda: ShiftSpec(rotation_angle=math.inf), ParameterError,
     "rotation_angle must be finite, got inf"),
    (lambda: ModelConfig(10.0, 5), ValueError, "input_dim must be int, got 10.0"),
    (lambda: TrainConfig(batch_size=50.0), ConfigError, "batch_size must be int, got 50.0"),
    (lambda: TrainConfig(lsc_enabled="False"), ConfigError, "lsc_enabled must be bool"),
    (lambda: AblationMask(domain_adversarial=1), ConfigError,
     "domain_adversarial must be bool, got 1"),
    (lambda: ExperimentConfig(name=3), ConfigError, "name must be str, got 3"),
    (lambda: ExperimentConfig(data={}), ConfigError, "data must be ShiftSpec, got {}"),
    (lambda: ExperimentConfig(seeds=[1, 10**400]), ConfigError, "seeds must be finite"),
    (lambda: EpochRecord(**dict(RECORD, epoch=True)), ConfigError, "epoch must be int"),
    (lambda: EpochRecord(**dict(RECORD, loss_class=math.nan)), ConfigError,
     "loss_class must be finite, got nan"),
    (lambda: RunReport(**dict(REPORT, records={})), ConfigError, "records must be list[dict]"),
    (lambda: RunReport(**dict(REPORT, final_per_class_acc=["0.5"])), ConfigError,
     "final_per_class_acc must be list[float | None]"),
])
def test_a_wrong_type_fails_at_construction_naming_the_field(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert message in str(caught.value)

"""Model init, forward passes, and checkpoint round-trips."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from shiftlab import (
    CheckpointError,
    ModelConfig,
    ModelState,
    ShapeError,
    Tape,
    Tensor,
    classify,
    discriminate,
    features,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from shiftlab.data import MAX_SIZE


def small_cfg() -> ModelConfig:
    return ModelConfig(
        input_dim=4,
        num_classes=3,
        hidden_dims=[8, 8],
        bottleneck_dim=5,
        discriminator_hidden_dims=[6],
    )


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig(input_dim=10, num_classes=5)
        assert cfg.hidden_dims == [64, 64]
        assert cfg.bottleneck_dim == 16
        assert cfg.discriminator_hidden_dims == [32]

    def test_bottleneck_minimum(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, num_classes=3, bottleneck_dim=1)

    def test_rejects_nonpositive_hidden(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, num_classes=3, hidden_dims=[8, 0])

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, num_classes=1)

    @pytest.mark.parametrize("hidden, disc", [
        ([16.7], [8]),  # used to train as [16]
        ([True, 16], [8]),  # used to train as [1, 16]
        ([16], [8.9]),  # used to train as [8]
    ])
    def test_rejects_non_integer_widths(self, hidden, disc):
        with pytest.raises(ValueError, match="must be integers"):
            ModelConfig(4, 3, hidden, 6, disc)

    @pytest.mark.parametrize("field", ["input_dim", "num_classes", "hidden_dims",
                                       "bottleneck_dim", "discriminator_hidden_dims"])
    def test_rejects_oversized_dimension(self, field):
        kwargs = dict(input_dim=4, num_classes=3, hidden_dims=[8], bottleneck_dim=6,
                      discriminator_hidden_dims=[8])
        kwargs[field] = [MAX_SIZE + 1] if field.endswith("dims") else MAX_SIZE + 1
        with pytest.raises(ValueError, match=f"{field} must be at most {MAX_SIZE}"):
            ModelConfig(**kwargs)
        kwargs[field] = [MAX_SIZE] if field.endswith("dims") else MAX_SIZE
        ModelConfig(**kwargs)

    def test_accepts_numpy_integer_widths(self):
        cfg = ModelConfig(4, 3, list(np.array([16, 8])), 6, [np.int32(8)])
        assert cfg.hidden_dims == [16, 8] and cfg.discriminator_hidden_dims == [8]
        assert all(type(h) is int for h in cfg.hidden_dims + cfg.discriminator_hidden_dims)


class TestInitModel:
    def test_deterministic(self):
        a = init_model(small_cfg(), seed=33)
        b = init_model(small_cfg(), seed=33)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)

    def test_seed_changes_weights(self):
        a = init_model(small_cfg(), seed=33)
        b = init_model(small_cfg(), seed=34)
        assert not np.array_equal(a.parameters()[0].values, b.parameters()[0].values)

    def test_parameter_count(self):
        # extractor 3 layers + classifier + discriminator 2 layers, (W, b) each
        state = init_model(small_cfg(), seed=0)
        assert len(state.parameters()) == 12
        assert len(state.velocity) == 12

    def test_hand_built_state_gets_zero_velocity_in_parameter_order(self):
        def pair(fan_in, fan_out):
            return Tensor(np.ones((fan_in, fan_out))), Tensor(np.ones((1, fan_out)))

        layers = {
            "extractor": [pair(4, 8), pair(8, 5)],
            "classifier": [pair(5, 3)],
            "discriminator": [pair(5, 1)],
        }
        state = ModelState(small_cfg(), layers, init_seed=7)
        shapes = [(4, 8), (1, 8), (8, 5), (1, 5), (5, 3), (1, 3), (5, 1), (1, 1)]
        assert [v.shape for v in state.velocity] == shapes
        assert all(np.all(v == 0.0) for v in state.velocity)
        expected = [t for net in ("extractor", "classifier", "discriminator")
                    for w, b in layers[net] for t in (w, b)]
        assert [id(p) for p in state.parameters()] == [id(t) for t in expected]

    def test_biases_start_zero(self):
        state = init_model(small_cfg(), seed=0)
        _, b0 = state.layers["extractor"][0]
        assert np.all(b0.values == 0.0)


class TestForward:
    def test_feature_shape(self):
        state = init_model(small_cfg(), seed=1)
        out = features(state, np.zeros((7, 4)))
        assert out.values.shape == (7, 5)

    def test_wrong_input_dim(self):
        state = init_model(small_cfg(), seed=1)
        with pytest.raises(ShapeError):
            features(state, np.zeros((7, 3)))

    def test_array_input_is_converted_like_a_tensor(self):
        state = init_model(small_cfg(), seed=1)
        row = [0.5, -1, 2, 3]
        expected = features(state, np.array([[0.5, -1.0, 2.0, 3.0]])).values
        for x in (row, np.array(row, dtype=np.float32), np.array(row)):
            np.testing.assert_array_equal(features(state, x).values, expected)
        with pytest.raises(ShapeError):
            features(state, np.zeros((2, 1, 4)))

    def test_classify_rows_normalized(self):
        state = init_model(small_cfg(), seed=1)
        rng = np.random.default_rng(0)
        probs = classify(state, features(state, rng.standard_normal((6, 4))))
        np.testing.assert_allclose(probs.values.sum(axis=1), np.ones(6), rtol=1e-12)
        assert probs.values.shape == (6, 3)

    def test_discriminate_open_interval(self):
        state = init_model(small_cfg(), seed=1)
        rng = np.random.default_rng(0)
        d = discriminate(state, features(state, rng.standard_normal((6, 4))), 1.0)
        assert d.values.shape == (6, 1)
        assert np.all(d.values > 0.0) and np.all(d.values < 1.0)

    def test_discriminate_reverses_gradient_sign(self):
        # same loss, coeff 0 vs 1: extractor grads flip direction
        from shiftlab.autodiff import sum_all

        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        grads = []
        for coeff in (0.0, 1.0):
            state = init_model(small_cfg(), seed=1)
            tape = Tape()
            feats = features(state, x, tape)
            d = discriminate(state, feats, coeff, tape)
            tape.backward(sum_all(tape, d))
            grads.append(state.layers["extractor"][0][0].grad.copy())
        assert np.all(grads[0] == 0.0)  # coeff 0 blocks the path entirely
        assert np.any(grads[1] != 0.0)


def _rewrite(path, edit) -> None:
    """Apply ``edit`` to the checkpoint's arrays, as a dict, and save them back."""
    with np.load(path) as npz:
        arrays = dict(npz)
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


UNPICKLED = []


def _unpickle_marker():
    UNPICKLED.append(True)
    return 0.0


class Unpicklable:
    def __reduce__(self):
        return _unpickle_marker, ()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        state = init_model(small_cfg(), seed=42)
        # take a few arbitrary updates so weights are not fresh-init
        for p in state.parameters():
            p.values += 1.0 / 3.0
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.config == state.config
        assert back.init_seed == 42 and back.provenance is None
        for pa, pb in zip(state.parameters(), back.parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)
        assert os.listdir(tmp_path) == ["ckpt.npz"]

    def test_layout_is_named_arrays_and_a_meta_string(self, tmp_path):
        state = init_model(small_cfg(), seed=42)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path, provenance={"features_sha256": "ab"})
        with np.load(path, allow_pickle=False) as npz:
            names = set(npz.files)
            meta = npz["meta"]
            weight = npz["discriminator.1.weight"]
        nets = {"extractor": 3, "classifier": 1, "discriminator": 2}
        assert names == {"meta"} | {
            f"{net}.{i}.{key}" for net, n in nets.items() for i in range(n)
            for key in ("weight", "bias")
        }
        assert meta.shape == () and meta.dtype.kind == "U"
        assert json.loads(str(meta)) == {
            "config": dataclasses.asdict(state.config), "init_seed": 42,
            "provenance": {"features_sha256": "ab"},
        }
        np.testing.assert_array_equal(weight, state.layers["discriminator"][1][0].values)
        assert load_checkpoint(path).provenance == {"features_sha256": "ab"}

    def test_velocity_resets_to_zero(self, tmp_path):
        # optimizer state is not part of the checkpoint; reloads start cold
        state = init_model(small_cfg(), seed=42)
        state.velocity[0] += 3.0
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert np.all(back.velocity[0] == 0.0)
        assert len(back.velocity) == len(state.velocity)

    def test_corrupt_shapes_rejected(self, tmp_path):
        state = init_model(small_cfg(), seed=42)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        _rewrite(path, lambda a: a.update({"extractor.0.weight": np.array([[1.0, 2.0]])}))
        with pytest.raises(CheckpointError, match="extractor layer 0 weight has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "net, index, key, value, named",
        [
            ("classifier", 0, "weight", [[1.0, 2.0, 3.0]], "classifier weight"),
            ("classifier", 0, "bias", [[0.0, 0.0]], "classifier bias"),
            ("discriminator", 0, "weight", [[1.0], [2.0]], "discriminator layer 0 weight"),
            ("discriminator", 1, "bias", [[0.0, 0.0]], "discriminator layer 1 bias"),
        ],
    )
    def test_tampered_head_rejected_at_load(self, tmp_path, net, index, key, value, named):
        state = init_model(small_cfg(), seed=42)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        _rewrite(path, lambda a: a.update({f"{net}.{index}.{key}": np.array(value)}))
        with pytest.raises(ValueError, match=named):
            load_checkpoint(path)

    def test_missing_layer_rejected(self, tmp_path):
        state = init_model(small_cfg(), seed=42)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)

        def drop(arrays):
            del arrays["discriminator.1.weight"], arrays["discriminator.1.bias"]

        _rewrite(path, drop)
        with pytest.raises(ValueError, match="discriminator has 1 layers"):
            load_checkpoint(path)

    def test_missing_bias_rejected(self, tmp_path):
        state = init_model(small_cfg(), seed=42)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        _rewrite(path, lambda a: a.pop("classifier.0.bias"))
        with pytest.raises(CheckpointError, match="classifier bias has shape None"):
            load_checkpoint(path)

    def test_object_array_refused_without_unpickling(self, tmp_path):
        state = init_model(small_cfg(), seed=42)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        bomb = np.empty((1, 3), dtype=object)
        bomb[0, 0] = Unpicklable()
        _rewrite(path, lambda a: a.update({"classifier.0.bias": bomb}))
        UNPICKLED.clear()
        with pytest.raises(CheckpointError, match="not a readable checkpoint .npz"):
            load_checkpoint(path)
        assert UNPICKLED == []

    @pytest.mark.parametrize("content", [
        b'{"config": {"input_dim": 4}, "init_seed": 42}',
        b"not a checkpoint",
        b"",
    ], ids=["json", "text", "empty"])
    def test_non_npz_file_refused(self, tmp_path, content):
        path = tmp_path / "checkpoint.json"
        path.write_bytes(content)
        with pytest.raises(CheckpointError, match="JSON checkpoints of earlier versions"):
            load_checkpoint(path)

    def test_truncated_file_refused(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(init_model(small_cfg(), seed=42), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="not a readable checkpoint .npz"):
            load_checkpoint(path)

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        old = init_model(small_cfg(), seed=42)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(old, path)
        before = path.read_bytes()

        def dies_part_way(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", dies_part_way)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(init_model(small_cfg(), seed=43), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        for pa, pb in zip(old.parameters(), load_checkpoint(path).parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)

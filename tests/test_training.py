"""Two-stage trainer: schedules, config validation, determinism, ablation parity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from shiftlab import (
    LabelShiftState,
    ModelConfig,
    TrainConfig,
    load_checkpoint,
    make_audit_fn,
    run,
    run_source_only,
)
from shiftlab.training import (
    ConfigError,
    NumericError,
    _grl_coeff,
    _target_pseudo,
    lr_schedule,
)


class TestLrSchedule:
    def test_starts_at_lr0(self):
        assert lr_schedule(0.005, 0.0, 10.0, 0.75) == 0.005

    def test_end_of_run_value(self):
        assert lr_schedule(0.005, 1.0, 10.0, 0.75) == pytest.approx(
            0.0008278001303808509, rel=1e-12
        )
        assert lr_schedule(1.0, 1.0, 10.0, 0.75) == pytest.approx(
            0.16556002607617018, rel=1e-12
        )

    def test_monotone_decreasing(self):
        grid = [lr_schedule(0.005, p, 10.0, 0.75) for p in np.linspace(0, 1, 50)]
        assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_progress_range(self):
        with pytest.raises(ValueError):
            lr_schedule(0.005, 1.5, 10.0, 0.75)
        with pytest.raises(ValueError):
            lr_schedule(0.005, -0.1, 10.0, 0.75)


class TestGrlCoeff:
    def test_disabled_is_constant_one(self):
        cfg = TrainConfig(grl_schedule=False)
        assert _grl_coeff(cfg, 0.0) == 1.0
        assert _grl_coeff(cfg, 0.5) == 1.0
        assert _grl_coeff(cfg, 1.0) == 1.0

    def test_enabled_ramps_from_zero(self):
        cfg = TrainConfig(grl_schedule=True)
        assert _grl_coeff(cfg, 0.0) == 0.0
        assert _grl_coeff(cfg, 1.0) == pytest.approx(2.0 / (1.0 + np.exp(-10.0)) - 1.0)
        grid = [_grl_coeff(cfg, p) for p in np.linspace(0, 1, 20)]
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.centroid_loss_weight == 3.0
        assert cfg.pairwise_loss_weight == 0.6
        assert cfg.adversarial_loss_weight == 1.0
        assert cfg.calibration_offset == 1.5
        assert (cfg.epochs, cfg.pretrain_epochs, cfg.batch_size) == (20, 3, 50)
        assert (cfg.lr0, cfg.momentum) == (0.005, 0.9)
        assert (cfg.lr_alpha, cfg.lr_beta) == (10.0, 0.75)
        assert cfg.confidence_threshold == 0.5
        assert cfg.centroid_ema == 0.7
        assert cfg.seed == 100
        assert cfg.grl_schedule is False
        assert cfg.lsc_enabled is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"centroid_loss_weight": -1.0},
            {"pairwise_loss_weight": -0.1},
            {"adversarial_loss_weight": -2.0},
            {"calibration_offset": 0.0},
            {"epochs": 3, "pretrain_epochs": 3},
            {"pretrain_epochs": 0},
            {"batch_size": 0},
            {"lr0": 0.0},
            {"momentum": 1.0},
            {"lr_alpha": -1.0},
            {"confidence_threshold": 1.0},
            {"centroid_ema": 0.0},
            {"reestimate_period": -1},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestTargetPseudo:
    def test_no_state_uses_argmax(self):
        probs = np.array([[0.2, 0.8], [0.9, 0.1]])
        labels, conf = _target_pseudo(probs, None)
        np.testing.assert_array_equal(labels, [1, 0])
        np.testing.assert_allclose(conf, [0.8, 0.9])

    def flip_state(self) -> LabelShiftState:
        # source head 0, target head 1: weights favor class 1
        from shiftlab import PseudoLabels

        labels = np.array([1] * 9 + [0])
        conf = np.full(10, 0.9)
        pseudo = PseudoLabels(labels, conf, labels, conf)
        return LabelShiftState.estimate([0] * 9 + [1], pseudo, 0.5, 2, 1.5)

    def test_state_flips_near_ties(self):
        state = self.flip_state()
        probs = np.array([[0.52, 0.48]])
        labels, conf = _target_pseudo(probs, state)
        assert labels[0] == 1
        assert conf[0] == 0.48


def quick_cfg(**kwargs) -> TrainConfig:
    base = dict(epochs=4, pretrain_epochs=2, batch_size=16, seed=100)
    base.update(kwargs)
    return TrainConfig(**base)


class TestRun:
    def test_deterministic_given_seed(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        outs = [run(src, tgt, quick_cfg(), tiny_model_cfg) for _ in range(2)]
        for pa, pb in zip(outs[0][0].parameters(), outs[1][0].parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)
        assert [r.to_dict() for r in outs[0][1]] == [r.to_dict() for r in outs[1][1]]

    def test_seed_changes_trajectory(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        a, _, _ = run(src, tgt, quick_cfg(seed=100), tiny_model_cfg)
        b, _, _ = run(src, tgt, quick_cfg(seed=101), tiny_model_cfg)
        assert any(
            not np.array_equal(pa.values, pb.values)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_zero_weights_match_source_only_exactly(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        cfg = quick_cfg(
            centroid_loss_weight=0.0,
            pairwise_loss_weight=0.0,
            adversarial_loss_weight=0.0,
        )
        ablated, _, _ = run(src, tgt, cfg, tiny_model_cfg)
        baseline, _, _ = run_source_only(src, tgt, cfg, tiny_model_cfg)
        for pa, pb in zip(ablated.parameters(), baseline.parameters()):
            np.testing.assert_array_equal(pa.values, pb.values)

    def test_record_count_and_stage_boundary(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        _, records, shift = run(src, tgt, quick_cfg(), tiny_model_cfg)
        assert [r.epoch for r in records] == [1, 2, 3, 4]
        assert shift is not None
        # stage 1 sees uniform class weights: nothing can flip
        assert records[0].calibrated_fraction == 0.0
        assert records[1].calibrated_fraction == 0.0

    def test_lsc_disabled_never_estimates(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        _, records, shift = run(src, tgt, quick_cfg(lsc_enabled=False), tiny_model_cfg)
        assert shift is None
        assert all(r.calibrated_fraction == 0.0 for r in records)

    def test_first_epoch_lr_is_lr0(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        _, records, _ = run(src, tgt, quick_cfg(), tiny_model_cfg)
        assert records[0].lr == 0.005
        assert records[-1].lr < records[0].lr

    def test_audit_fields_populated(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        _, records, _ = run(src, tgt, quick_cfg(), tiny_model_cfg, audit_fn=make_audit_fn(tgt))
        for r in records:
            assert r.pseudo_acc_raw is not None
            assert 0.0 <= r.pseudo_acc_raw <= 1.0
            assert r.target_per_class_acc is not None

    def test_no_audit_leaves_fields_none(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        _, records, _ = run(src, tgt, quick_cfg(), tiny_model_cfg)
        assert all(r.pseudo_acc_raw is None for r in records)

    def test_output_files(self, tiny_pair, tiny_model_cfg, tmp_path):
        src, tgt = tiny_pair
        out = tmp_path / "run"
        run(src, tgt, quick_cfg(), tiny_model_cfg, out_dir=out)
        lines = (out / "epoch_records.jsonl").read_text().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["epoch"] == 1
        ckpt = load_checkpoint(out / "checkpoint.json")
        assert ckpt.config == tiny_model_cfg
        shift = json.loads((out / "label_shift.json").read_text())
        assert len(shift["class_weights"]) == 3

    def test_epoch_records_byte_identical(self, tiny_pair, tiny_model_cfg, tmp_path):
        src, tgt = tiny_pair
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(src, tgt, quick_cfg(), tiny_model_cfg, out_dir=out)
            blobs.append((out / "epoch_records.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_mismatched_datasets_rejected(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        from shiftlab import ShiftSpec, generate

        other_src, _ = generate(
            ShiftSpec(num_classes=3, feature_dim=6, max_class_size=30, seed=1)
        )
        with pytest.raises(ConfigError):
            run(other_src, tgt, quick_cfg())

    def test_divergence_raises_numeric_error(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError):
                run(src, tgt, quick_cfg(lr0=1e9), tiny_model_cfg)

    def test_reestimate_period_smoke(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        _, records, shift = run(
            src, tgt, quick_cfg(epochs=5, reestimate_period=1), tiny_model_cfg
        )
        assert shift is not None
        assert len(records) == 5

    def test_single_step_descends(self, tiny_pair, tiny_model_cfg):
        # with all extras off, one small-lr step lowers the batch's own loss
        from shiftlab import Tape, classify, cross_entropy, features, init_model
        from shiftlab.losses import CentroidBank
        from shiftlab.training import train_step

        src, _ = tiny_pair
        state = init_model(tiny_model_cfg, seed=5)
        cfg = quick_cfg(
            centroid_loss_weight=0.0,
            pairwise_loss_weight=0.0,
            adversarial_loss_weight=0.0,
            lr0=0.01,
        )
        x, y = src.features[:16], src.labels[:16]

        def loss_now() -> float:
            return cross_entropy(None, classify(state, features(state, x)), y).item()

        before = loss_now()
        bank = CentroidBank(3, cfg.centroid_ema)
        train_step(state, bank, None, cfg, x, y, x, lr=0.01)
        assert loss_now() < before


class TestRunSourceOnly:
    def test_never_produces_shift_state(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        _, records, shift = run_source_only(src, tgt, quick_cfg(), tiny_model_cfg)
        assert shift is None
        assert len(records) == 4
        assert all(r.loss_adversarial == 0.0 for r in records)
        assert all(r.loss_centroid == 0.0 for r in records)

    def test_learns_the_source_task(self, tiny_pair, tiny_model_cfg):
        from shiftlab import classify, features

        src, tgt = tiny_pair
        cfg = quick_cfg(epochs=10, pretrain_epochs=2)
        state, _, _ = run_source_only(src, tgt, cfg, tiny_model_cfg)
        probs = classify(state, features(state, src.features)).values
        acc = (np.argmax(probs, axis=1) == src.labels).mean()
        assert acc > 0.8

"""Two-stage trainer: schedules, config validation, determinism, ablation parity."""

from __future__ import annotations

import ast
import ctypes
import json
import logging
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from shiftlab import (
    BalancedSampler,
    CentroidBank,
    DomainDataset,
    ModelConfig,
    PseudoLabels,
    Tape,
    TrainConfig,
    calibrate,
    classify,
    cross_entropy,
    features,
    features_digest,
    init_model,
    load_checkpoint,
    make_audit_fn,
    run,
    run_single,
)
from shiftlab.autodiff import Tensor, sgd_step
from shiftlab import training
from shiftlab.training import (
    LOSS_FIELDS,
    ConfigError,
    EpochRecord,
    NumericError,
    _check_datasets,
    _epoch_record,
    _grl_coeff,
    _seed_streams,
    lr_schedule,
    train_step,
)
from conftest import STANDARD_JSON, relative_error, two_pass_train_step


def run_source_only(
    source: DomainDataset,
    target: DomainDataset,
    cfg: TrainConfig,
    model_cfg: ModelConfig | None = None,
) -> tuple:
    """Plain classifier training, written as its own minimal loop.

    An oracle kept apart from ``run``: ``run`` with all loss weights at
    zero must reproduce this loop's parameters bit for bit.
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
        probs = classify(state, features(state, target.features)).values
        pseudo = calibrate(probs, np.ones(target.num_classes))
        sums = {"loss_class": loss_sum, "loss_adversarial": 0.0,
                "loss_centroid": 0.0, "loss_pairwise": 0.0}
        records.append(_epoch_record(epoch, epoch_lr, sums, steps_per_epoch, pseudo, None))
    return state, records, None


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
            {"lr_beta": -0.5},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("offset", [0.5, 0.01])
    def test_accepts_a_calibration_offset_below_one(self, offset):
        # the check admits any positive offset, not only those above 1
        assert TrainConfig(calibration_offset=offset).calibration_offset == offset

    def test_seed_zero_is_valid(self):
        # the check refuses negative seeds only
        assert TrainConfig(seed=0).seed == 0


def quick_cfg(**kwargs) -> TrainConfig:
    base = dict(epochs=4, pretrain_epochs=2, batch_size=16, seed=100)
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainStep:
    @pytest.mark.parametrize(
        "loss_weights,nodes",
        [((3.0, 0.6, 1.0), 16), ((0.0, 0.0, 0.0), 4)],
        ids=["full", "source_only"],
    )
    def test_tape_nodes_per_step(self, tiny_pair, monkeypatch, loss_weights, nodes):
        # the default ModelConfig has the standard benchmark's depth: two
        # hidden extractor layers and one hidden discriminator layer
        # backward empties the tape, so count the nodes as they are recorded
        tapes = []

        class RecordedTape(Tape):
            def __init__(self):
                super().__init__()
                self.recorded = 0
                tapes.append(self)

            def record(self, rule):
                self.recorded += 1
                super().record(rule)

        monkeypatch.setattr(training, "Tape", RecordedTape)
        src, tgt = tiny_pair
        state = init_model(ModelConfig(input_dim=4, num_classes=3), 0)
        bank = CentroidBank(3)
        lam, mu, gam = loss_weights
        cfg = quick_cfg(centroid_loss_weight=lam, pairwise_loss_weight=mu,
                        adversarial_loss_weight=gam)
        idx = np.arange(0, len(src), 5)
        diagnostics = {}
        train_step(state, bank, np.ones(3), cfg, src.features[idx], src.labels[idx],
                   tgt.features[:30], 0.01, 1.0, diagnostics)
        # every loss took its full path: a centroid ratio, no skipped pairwise batch
        assert len(bank.eligible_classes()) == (3 if lam else 0)
        assert diagnostics == {}
        assert [t.recorded for t in tapes] == [nodes]

    @pytest.mark.parametrize("loss_weights", [
        (3.0, 0.6, 1.0), (0.0, 0.0, 1.0), (3.0, 0.6, 0.0), (0.0, 0.6, 0.0), (1.0, 0.0, 2.0),
    ])
    def test_matches_the_two_pass_oracle(self, tiny_pair, tiny_model_cfg, loss_weights):
        # stacking reorders the weight-gradient sums, so agreement is to rounding
        src, tgt = tiny_pair
        lam, mu, gam = loss_weights
        cfg = quick_cfg(centroid_loss_weight=lam, pairwise_loss_weight=mu,
                        adversarial_loss_weight=gam)
        rng = np.random.default_rng(int(10 * lam + 100 * mu + 1000 * gam))
        states = [init_model(tiny_model_cfg, 3) for _ in range(2)]
        banks = [CentroidBank(3) for _ in range(2)]
        class_weights = rng.uniform(0.5, 1.5, size=3)
        for draw in range(4):
            # unequal batch sizes, so a mixed-up split would show
            src_idx = rng.integers(0, len(src), size=12)
            tgt_idx = rng.integers(0, len(tgt), size=int(rng.integers(5, 20)))
            args = (class_weights, cfg, src.features[src_idx], src.labels[src_idx],
                    tgt.features[tgt_idx], 0.02, 0.7)
            got = train_step(states[0], banks[0], *args)
            want = two_pass_train_step(states[1], banks[1], *args)
            for key in LOSS_FIELDS:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), (draw, key)
            for a, b in zip(states[0].parameters() + states[0].velocity,
                            states[1].parameters() + states[1].velocity):
                a = a.values if isinstance(a, Tensor) else a
                b = b.values if isinstance(b, Tensor) else b
                assert relative_error(a, b) <= 1e-12, draw
        # the velocity holds this step's gradient: a network the losses skip has none
        assert np.any(states[0].velocity[-1] != 0.0) == (gam > 0.0)

    @pytest.mark.parametrize("lam, mu", [(3.0, 0.0), (0.0, 0.6)], ids=["centroid", "pairwise"])
    def test_non_finite_target_confidence_stops_the_step(self, tiny_pair, tiny_model_cfg,
                                                         lam, mu):
        # the source batch stays finite, so no loss value shows the NaN; the
        # step stops where the target confidences first hold it, and names it
        src, tgt = tiny_pair
        state = init_model(tiny_model_cfg, 0)
        before = [t.values.copy() for t in state.parameters()]
        cfg = quick_cfg(centroid_loss_weight=lam, pairwise_loss_weight=mu,
                        adversarial_loss_weight=0.0)
        tgt_x = tgt.features[:8].copy()
        tgt_x[3] = np.nan
        with pytest.raises(NumericError, match="non-finite target confidence nan at batch row 3"):
            train_step(state, CentroidBank(3), np.ones(3), cfg, src.features[:8],
                       src.labels[:8], tgt_x, 0.01)
        assert all(np.array_equal(t.values, b) for t, b in zip(state.parameters(), before))

    def test_a_batch_error_with_finite_confidences_propagates(self, tiny_pair, tiny_model_cfg,
                                                              monkeypatch):
        # only non-finite confidences turn a refused batch into a NumericError
        def refuse(*args):
            raise ValueError("batch refused")

        monkeypatch.setattr(training, "WeightedBatch", refuse)
        src, tgt = tiny_pair
        with pytest.raises(ValueError, match="batch refused"):
            train_step(init_model(tiny_model_cfg, 0), CentroidBank(3), np.ones(3), quick_cfg(),
                       src.features[:8], src.labels[:8], tgt.features[:8], 0.01)


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
        # run writes nothing; run_single persists what it returns
        src, tgt = tiny_pair
        out = tmp_path / "run"
        run_single(src, tgt, quick_cfg(), tiny_model_cfg, "t", str(out))
        lines = (out / "epoch_records.jsonl").read_text().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["epoch"] == 1
        ckpt = load_checkpoint(out / "checkpoint.npz")
        assert ckpt.config == tiny_model_cfg
        # no ShiftSpec was given, so only the data digest is recorded
        assert ckpt.provenance == {"data": None, "features_sha256": features_digest(src, tgt)}
        shift = json.loads((out / "report.json").read_text())["label_shift"]
        assert len(shift["class_weights"]) == 3

    def test_epoch_records_byte_identical(self, tiny_pair, tiny_model_cfg, tmp_path):
        src, tgt = tiny_pair
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_single(src, tgt, quick_cfg(), tiny_model_cfg, name, str(out))
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

    def test_stage_boundary_is_read_once(self, tiny_pair, tiny_model_cfg):
        # The estimate is made after epoch 1. An audit that then moves cfg's
        # stage boundary past epoch 3 neither returns the run to pre-training
        # nor makes a second estimate at epoch 4.
        src, tgt = tiny_pair
        cfg = quick_cfg(epochs=5, pretrain_epochs=1)

        def move_boundary(pseudo):
            audited.append(pseudo)
            if len(audited) == 2:
                cfg.pretrain_epochs = 4
            return {}

        audited = []
        _, moved, moved_shift = run(src, tgt, cfg, tiny_model_cfg, audit_fn=move_boundary)
        _, fixed, fixed_shift = run(src, tgt, quick_cfg(epochs=5, pretrain_epochs=1), tiny_model_cfg)
        assert len(audited) == 5 and moved == fixed
        assert np.array_equal(moved_shift.class_weights, fixed_shift.class_weights)

    def test_single_step_descends(self, tiny_pair, tiny_model_cfg):
        # with all extras off, one small-lr step lowers the batch's own loss
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
        train_step(state, bank, np.ones(3), cfg, x, y, x, lr=0.01)
        assert loss_now() < before

    def test_skipped_pairwise_batches_are_logged_once_per_run(self, tiny_pair, tiny_model_cfg,
                                                              caplog):
        # a one-row batch never holds both kinds of label pair, so every
        # step skips its pairwise loss, and each skip is counted
        src, tgt = tiny_pair
        caplog.set_level(logging.INFO, logger="shiftlab.training")
        run(src, tgt, quick_cfg(epochs=2, pretrain_epochs=1, batch_size=1), tiny_model_cfg)
        [line] = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("alignment loss diagnostics: ")]
        counts = ast.literal_eval(line.split(": ", 1)[1])
        assert set(counts) <= {"no_same_label_pairs", "no_diff_label_pairs"}
        assert sum(counts.values()) == 2 * len(tgt)


class FakeMallopt:
    """A C ``mallopt`` that records its arguments."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def heap_helper(monkeypatch):
    """``_keep_freed_arrays`` as in a new process with no malloc variable set."""
    for name in training._HEAP_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    training._keep_freed_arrays.cache_clear()
    yield training._keep_freed_arrays
    training._keep_freed_arrays.cache_clear()


class TestKeepFreedArrays:
    def test_asks_for_both_thresholds_once_per_process(self, heap_helper, monkeypatch,
                                                       tiny_pair, tiny_model_cfg):
        lib = types.SimpleNamespace(mallopt=FakeMallopt())
        monkeypatch.setattr(training, "_c_library", lambda: lib)
        src, tgt = tiny_pair
        for _ in range(2):
            run(src, tgt, quick_cfg(epochs=2, pretrain_epochs=1), tiny_model_cfg)
        # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
        assert lib.mallopt.calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
        assert lib.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert heap_helper() is True

    @pytest.mark.parametrize("name", ["GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_",
                                      "MALLOC_TRIM_THRESHOLD_"])
    def test_skipped_when_the_environment_tunes_malloc(self, heap_helper, monkeypatch, name):
        lib = types.SimpleNamespace(mallopt=FakeMallopt())
        monkeypatch.setattr(training, "_c_library", lambda: lib)
        monkeypatch.setenv(name, "0")
        assert heap_helper() is False and heap_helper() is False
        assert lib.mallopt.calls == []

    @pytest.mark.parametrize("lib", [object(), None], ids=["no_mallopt", "no_library"])
    def test_a_c_library_without_mallopt_makes_it_a_no_op(self, heap_helper, monkeypatch, lib,
                                                          tiny_pair, tiny_model_cfg):
        monkeypatch.setattr(training, "_c_library", lambda: lib)
        src, tgt = tiny_pair
        _, records, _ = run(src, tgt, quick_cfg(epochs=2, pretrain_epochs=1), tiny_model_cfg)
        assert len(records) == 2 and heap_helper() is False

    def test_train_writes_the_same_records_with_malloc_tuned_by_the_environment(self,
                                                                                tmp_path):
        # the process's own tuning, or none, changes where arrays live, not their values
        code = ("import sys; from shiftlab import training; from shiftlab.cli import main; "
                "code = main(); print(training._keep_freed_arrays()); sys.exit(code)")
        argv = ["train", "--config", str(STANDARD_JSON), "--seed", "100",
                "--set", "data.max_class_size=60", "--set", "train.epochs=3",
                "--set", "train.pretrain_epochs=1"]
        base = {k: v for k, v in os.environ.items() if k not in training._HEAP_VARIABLES}
        base.update(PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
        records, asked = [], []
        for name, extra in [("plain", {}), ("tuned", {"MALLOC_TRIM_THRESHOLD_": "0"})]:
            out = tmp_path / name
            done = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                                  env=dict(base, **extra), capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            asked.append(done.stdout.splitlines()[-1])
            records.append((out / "runs" / "seed100" / "epoch_records.jsonl").read_bytes())
        has_mallopt = getattr(training._c_library(), "mallopt", None) is not None
        assert asked == [str(has_mallopt), "False"]
        assert records[0] == records[1] and records[0].count(b"\n") == 3


class TestEpochRecord:
    SUMS = {"loss_class": 2.0, "loss_adversarial": 0.0, "loss_centroid": 1.0,
            "loss_pairwise": 0.5}

    def flips_two_of_six(self) -> PseudoLabels:
        raw = np.array([0, 1, 0, 0, 2, 2])
        cal = np.array([0, 1, 2, 1, 2, 2])
        conf = np.full(6, 0.9)
        return PseudoLabels(raw, conf, cal, conf)

    def test_calibrated_fraction_counts_flips(self):
        rec = _epoch_record(4, 0.01, self.SUMS, 2, self.flips_two_of_six(), None)
        assert rec.calibrated_fraction == pytest.approx(1 / 3)
        assert (rec.loss_class, rec.loss_centroid, rec.loss_pairwise) == (1.0, 0.5, 0.25)
        assert rec.pseudo_acc_raw is None

    def test_misspelt_audit_key_raises(self):
        with pytest.raises(TypeError):
            _epoch_record(1, 0.01, self.SUMS, 2, self.flips_two_of_six(),
                          lambda p: {"pseudo_acc_rwa": 0.5})


class TestRunSourceOnly:
    def test_never_produces_shift_state(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        _, records, shift = run_source_only(src, tgt, quick_cfg(), tiny_model_cfg)
        assert shift is None
        assert len(records) == 4
        assert all(r.loss_adversarial == 0.0 for r in records)
        assert all(r.loss_centroid == 0.0 for r in records)

    def test_learns_the_source_task(self, tiny_pair, tiny_model_cfg):
        src, tgt = tiny_pair
        cfg = quick_cfg(epochs=10, pretrain_epochs=2)
        state, _, _ = run_source_only(src, tgt, cfg, tiny_model_cfg)
        probs = classify(state, features(state, src.features)).values
        acc = (np.argmax(probs, axis=1) == src.labels).mean()
        assert acc > 0.8

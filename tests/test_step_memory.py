"""A training step's memory and calls: allocation peaks, stale allocations, nothing kept past a step, call budget."""

from __future__ import annotations

import dataclasses
import inspect
import sys
import threading
import weakref

import numpy as np
import pytest

from shiftlab import (
    CentroidBank,
    Tape,
    TrainConfig,
    classify,
    features,
    generate,
    init_model,
    predict,
    train_step,
)
from shiftlab import networks, training

from conftest import allocation_peak, call_count, stale_allocations, standard_config

KIB = 1024
# the README standard benchmark: its data, model and (full-method) step
STD = standard_config()
# (centroid, pairwise, adversarial) loss weights: the full method, source
# only, and each loss on its own or in pairs
LOSS_WEIGHTS = [(3.0, 0.6, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (3.0, 0.6, 0.0), (0.0, 0.6, 0.0)]


@pytest.fixture(scope="module")
def std_pair():
    return generate(STD.data)


def std_cfg(lam=3.0, mu=0.6, gam=1.0) -> TrainConfig:
    return dataclasses.replace(STD.train, centroid_loss_weight=lam, pairwise_loss_weight=mu,
                               adversarial_loss_weight=gam)


def epoch_batches(rng, src, tgt, batch=50):
    """One epoch's (source, target) index batches: the target in batches, the last one short."""
    perm = rng.permutation(len(tgt))
    for start in range(0, len(tgt), batch):
        tgt_idx = perm[start:start + batch]
        yield rng.integers(0, len(src), tgt_idx.size), tgt_idx


def step(state, bank, cfg, src, tgt, src_idx, tgt_idx, lr=0.004):
    return train_step(state, bank, np.ones(5), cfg, src.features[src_idx],
                      src.labels[src_idx], tgt.features[tgt_idx], lr, 0.5, {})


def wide_batches(rng, src, tgt, steps):
    """``steps`` (source, target) index batches of 400 rows, full_wide's batch."""
    for _ in range(steps):
        tgt_idx, src_idx = rng.permutation(len(tgt))[:400], rng.integers(0, len(src), 400)
        yield src_idx, tgt_idx


class TestPredict:
    @pytest.mark.parametrize("rows", [1, networks.PREDICT_ROWS - 1, networks.PREDICT_ROWS,
                                      networks.PREDICT_ROWS + 1, 647, 3235])
    def test_bit_identical_to_one_pass(self, rows):
        rng = np.random.default_rng(rows)
        state = init_model(STD.model, 4)
        x = rng.standard_normal((rows, 10)) * 2.0
        want = classify(state, features(state, x)).values
        got = predict(state, x)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("rows", [networks.PREDICT_ROWS - 1, networks.PREDICT_ROWS + 1, 647])
    def test_bit_identical_with_stale_allocations(self, rows, monkeypatch):
        x = np.random.default_rng(rows).standard_normal((rows, 10)) * 2.0
        state = init_model(STD.model, 4)
        want = predict(state, x)
        stale_allocations(monkeypatch)
        assert np.array_equal(predict(state, x), want)

    def test_wrong_width_rejected(self):
        state = init_model(STD.model, 4)
        with pytest.raises(ValueError):
            predict(state, np.ones((3, 9)))

    def test_allocation_budget(self, std_pair):
        # one pass over 647 rows allocated about 1,376 KiB before it went in
        # blocks; in blocks of 128 rows it peaks at about 348 KiB
        state = init_model(STD.model, 4)
        x = std_pair[1].features
        assert x.shape == (647, 10)
        predict(state, x)
        assert allocation_peak(predict, state, x) <= 512 * KIB


class TestStep:
    @pytest.mark.parametrize("loss_weights", LOSS_WEIGHTS)
    def test_bit_identical_with_stale_allocations(self, std_pair, loss_weights, monkeypatch):
        # the epoch's last 4 steps, the last of 47 rows, on two copies of one
        # model: one with fresh allocations, one with NaN-filled ones
        src, tgt = std_pair
        cfg = std_cfg(*loss_weights)
        states = [init_model(STD.model, 5) for _ in range(2)]
        banks = [CentroidBank(5) for _ in range(2)]
        batches = list(epoch_batches(np.random.default_rng(6), src, tgt))[-4:]
        want = [step(states[1], banks[1], cfg, src, tgt, *batch) for batch in batches]
        stale_allocations(monkeypatch)
        assert [step(states[0], banks[0], cfg, src, tgt, *batch) for batch in batches] == want
        for a, b in zip(states[0].parameters(), states[1].parameters()):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(states[0].velocity, states[1].velocity):
            assert np.array_equal(a, b)
        for domain in ("source", "target"):
            assert np.array_equal(banks[0].seen[domain], banks[1].seen[domain])
            if loss_weights[0]:
                assert np.array_equal(banks[0].centroids[domain].values,
                                      banks[1].centroids[domain].values)

    def test_losses_are_floats_and_sgd_leaves_no_gradient(self, std_pair):
        src, tgt = std_pair
        state, bank = init_model(STD.model, 5), CentroidBank(5)
        rng = np.random.default_rng(8)
        for src_idx, tgt_idx in list(epoch_batches(rng, src, tgt))[:3]:
            losses = step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx)
        assert all(type(v) is float for v in losses.values())
        assert all(p._grad is None for p in state.parameters())

    def test_the_finished_tape_is_freed(self, std_pair, monkeypatch):
        # the bank used to hold the last step's tape, and through it every array of the step
        src, tgt = std_pair
        tapes = []

        class RecordedTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(training, "Tape", RecordedTape)
        state, bank = init_model(STD.model, 5), CentroidBank(5)
        src_idx, tgt_idx = next(epoch_batches(np.random.default_rng(9), src, tgt))
        step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx)
        assert len(tapes) == 1 and tapes[0]() is None
        assert bank.eligible_classes()

    def test_allocation_budget(self, std_pair):
        # rules that reuse the gradient they consume, and mlp dropping each
        # activation once its layer is done, keep a warm full-method step at
        # the standard shapes at about 557 KiB
        peak = allocation_peak(step, *warm_step_args(std_pair, std_cfg()))
        assert peak <= 700 * KIB, f"{peak / KIB:.1f} KiB"


def warm_step_args(std_pair, cfg):
    """``step``'s arguments for the 6th step of an epoch, the first 5 taken."""
    src, tgt = std_pair
    state, bank = init_model(STD.model, 5), CentroidBank(5)
    batches = list(epoch_batches(np.random.default_rng(10), src, tgt))
    for src_idx, tgt_idx in batches[:5]:
        step(state, bank, cfg, src, tgt, src_idx, tgt_idx)
    return (state, bank, cfg, src, tgt) + batches[5]


def test_warm_step_starts_no_thread(std_pair):
    # neither at the standard batch nor at full_wide's batch 400, whose
    # extractor makes the largest weight gradient of any benchmark step
    threads = threading.active_count()
    step(*warm_step_args(std_pair, std_cfg()))
    assert threading.active_count() == threads
    src, tgt = std_pair
    state, bank = init_model(STD.model, 5), CentroidBank(5)
    for src_idx, tgt_idx in wide_batches(np.random.default_rng(13), src, tgt, 6):
        step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx)
        assert threading.active_count() == threads


class TestCallBudget:
    def test_call_count_counts_python_and_c_calls(self):
        def leaf():
            return None

        def three_calls(items):
            leaf()  # a Python call
            len(items)  # a C call
            return items + items  # an operator: no call

        previous = sys.getprofile()
        assert call_count(three_calls, [1]) == 3  # three_calls' own call included
        assert call_count(len, [1]) == 1
        assert call_count(np.add, 1.0, 2.0) == 0  # a ufunc runs without a call event
        assert sys.getprofile() is previous

    def test_full_step_call_budget(self, std_pair):
        # a standard step's time goes mostly to Python-level calls, not
        # arithmetic, so a rise in calls is a slowdown; a warm full-method
        # step makes 341
        calls = call_count(step, *warm_step_args(std_pair, std_cfg()))
        assert calls <= 450, f"a warm full-method step made {calls} calls"

    def test_every_op_records_one_zero_argument_rule_run_once(self, std_pair, monkeypatch):
        # benchmarks/tracer.py wraps Tape.record(self, rule) and calls rule()
        rules, runs = [], []

        class RecordingTape(Tape):
            def record(self, rule):
                assert inspect.signature(rule).parameters == {}
                i = len(rules)
                rules.append(rule)

                def counted():
                    runs.append(i)
                    rule()

                super().record(counted)

        args = warm_step_args(std_pair, std_cfg())
        monkeypatch.setattr(training, "Tape", RecordingTape)
        step(*args)
        assert len(rules) == 16
        assert runs == list(range(15, -1, -1))


def test_wide_step_holds_one_table_and_one_gradient_buffer_per_network(std_pair):
    # label_ratio turns the n x m distance table into its gradient in row
    # blocks, and mlp drops each activation once its layer is done, so
    # neither a second table nor a fourth 800 x 128 array is held: a warm
    # step at full_wide's batch 400 peaks at about 3,756 KiB
    src, tgt = std_pair
    state, bank = init_model(STD.model, 5), CentroidBank(5)
    batches = list(wide_batches(np.random.default_rng(12), src, tgt, 5))
    for src_idx, tgt_idx in batches[:4]:
        step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx)
    peak = allocation_peak(step, state, bank, std_cfg(), src, tgt, *batches[4])
    assert peak <= 3800 * KIB, f"{peak / KIB:.1f} KiB"

"""The buffer pool: reuse, bit-identical pooled ops and steps, no escapes, allocation budgets."""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import sys
import threading
import weakref

import numpy as np
import pytest

from shiftlab import (
    CentroidBank,
    Pool,
    Tape,
    TrainConfig,
    classify,
    features,
    generate,
    init_model,
    predict,
    train_step,
)
from shiftlab import autodiff, networks, training
from shiftlab.autodiff import Tensor, linear, mul, relu, sum_all

from conftest import allocation_peak, call_count, standard_config

KIB = 1024
# the README standard benchmark: its data, model and (full-method) step
STD = standard_config()
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


def step(state, bank, cfg, src, tgt, src_idx, tgt_idx, pool=None, lr=0.004):
    with pool if pool is not None else contextlib.nullcontext():
        return train_step(state, bank, np.ones(5), cfg, src.features[src_idx],
                          src.labels[src_idx], tgt.features[tgt_idx], lr, 0.5, {})


def pooled(pool: Pool, arr: np.ndarray) -> bool:
    return any(np.shares_memory(arr, buf) for buf in pool)


class TestPool:
    def test_arrays_are_handed_out_again_after_the_outermost_block(self):
        pool = Pool()
        with pool:
            a = pool.take((3, 4))
            with pool:
                b = pool.take((3, 4))
            # the inner block ending hands nothing back
            assert pool.take((3, 4)) is not a and not np.shares_memory(a, b)
        with pool:
            assert pool.take((3, 4)) is a
        assert len(pool) == 3

    def test_a_larger_request_grows_the_buffer_and_a_smaller_one_reuses_it(self):
        pool = Pool()
        with pool:
            small = pool.take((2, 3))
        with pool:
            big = pool.take((5, 3))
        with pool:
            again = pool.take((4, 3), np.dtype(bool))
        assert len(pool) == 1
        assert again.dtype == bool and again.shape == (4, 3)
        assert not np.shares_memory(small, big) and np.shares_memory(big, again)

    def test_ops_use_the_pool_only_inside_its_block(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.standard_normal((6, 3)), Tensor(rng.standard_normal((3, 4))), Tensor(
            rng.standard_normal((1, 4)))
        pool = Pool()
        with pool:
            inside = linear(Tape(), x, w, b)
        outside = linear(None, x, w, b)
        assert pooled(pool, inside.values) and not pooled(pool, outside.values)
        assert np.array_equal(inside.values, outside.values)

    def test_relu_in_place_matches_out_of_place(self):
        rng = np.random.default_rng(1)
        values, weights = rng.standard_normal((5, 4)), Tensor(rng.standard_normal((5, 4)))
        results = []
        for in_place in (False, True):
            x = Tensor(values)
            tape = Tape()
            out = relu(tape, x, in_place=in_place)
            assert (out.values is x.values) == in_place
            tape.backward(sum_all(tape, mul(tape, out, weights)))
            results.append((out.values, x.grad))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


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
        pool = Pool()
        predict(state, x[::-1], pool)  # a warm pool holding other values
        assert np.array_equal(predict(state, x, pool), want)

    def test_result_is_not_a_pool_array(self):
        state = init_model(STD.model, 4)
        pool = Pool()
        probs = predict(state, np.ones((300, 10)), pool)
        assert len(pool) > 0 and not pooled(pool, probs)

    def test_wrong_width_rejected(self):
        state = init_model(STD.model, 4)
        with pytest.raises(ValueError):
            predict(state, np.ones((3, 9)))

    def test_allocation_budget(self, std_pair):
        # one pass over 647 rows allocated about 1,376 KiB before it went in blocks
        state = init_model(STD.model, 4)
        x = std_pair[1].features
        assert x.shape == (647, 10)
        predict(state, x)
        assert allocation_peak(predict, state, x) <= 512 * KIB


class TestPooledStep:
    @pytest.mark.parametrize("loss_weights", LOSS_WEIGHTS)
    def test_bit_identical_to_an_unpooled_step(self, std_pair, loss_weights):
        src, tgt = std_pair
        cfg = std_cfg(*loss_weights)
        states = [init_model(STD.model, 5) for _ in range(2)]
        banks = [CentroidBank(5) for _ in range(2)]
        pool = Pool()
        rng = np.random.default_rng(6)
        for src_idx, tgt_idx in list(epoch_batches(rng, src, tgt))[-4:]:
            got = step(states[0], banks[0], cfg, src, tgt, src_idx, tgt_idx, pool)
            want = step(states[1], banks[1], cfg, src, tgt, src_idx, tgt_idx)
            assert got == want
        for a, b in zip(states[0].parameters(), states[1].parameters()):
            assert np.array_equal(a.values, b.values)
        for a, b in zip(states[0].velocity, states[1].velocity):
            assert np.array_equal(a, b)
        for domain in ("source", "target"):
            assert np.array_equal(banks[0].seen[domain], banks[1].seen[domain])
            if loss_weights[0]:
                assert np.array_equal(banks[0].centroids[domain].values,
                                      banks[1].centroids[domain].values)

    def test_pool_size_is_constant_once_warm(self, std_pair):
        src, tgt = std_pair
        state, bank, pool = init_model(STD.model, 5), CentroidBank(5), Pool()
        rng = np.random.default_rng(7)
        sizes = []
        for epoch in range(3):
            # 13 steps, the last of 47 rows, then the epoch's target pass, as in training.run
            for src_idx, tgt_idx in epoch_batches(rng, src, tgt):
                step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx, pool)
                sizes.append(len(pool))
            predict(state, tgt.features, pool)
            sizes.append(len(pool))
        warm = sizes[len(sizes) // 3:]
        assert len(warm) >= 20 and set(warm) == {sizes[-1]}

    def test_nothing_that_outlives_the_step_is_a_pool_array(self, std_pair):
        src, tgt = std_pair
        state, bank, pool = init_model(STD.model, 5), CentroidBank(5), Pool()
        rng = np.random.default_rng(8)
        for src_idx, tgt_idx in list(epoch_batches(rng, src, tgt))[:3]:
            losses = step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx, pool)
        assert all(type(v) is float for v in losses.values())
        kept = [p.values for p in state.parameters()] + list(state.velocity)
        for domain in ("source", "target"):
            centroids = bank.centroids[domain]
            kept += [centroids.values] + ([] if centroids._grad is None else [centroids._grad])
        assert len(pool) > 0
        assert not any(pooled(pool, arr) for arr in kept)
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
        step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx, Pool())
        assert len(tapes) == 1 and tapes[0]() is None
        assert bank.eligible_classes()

    def test_allocation_budget(self, std_pair):
        # a full-method step at the standard shapes allocated about 1,340 KiB unpooled
        src, tgt = std_pair
        state, bank, pool = init_model(STD.model, 5), CentroidBank(5), Pool()
        batches = list(epoch_batches(np.random.default_rng(10), src, tgt))
        for src_idx, tgt_idx in batches[:5]:
            step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx, pool)
        src_idx, tgt_idx = batches[5]
        peak = allocation_peak(step, state, bank, std_cfg(), src, tgt, src_idx, tgt_idx, pool)
        assert peak <= 384 * KIB


def warm_step_args(std_pair, cfg):
    """``step``'s arguments for the 6th step of an epoch, the first 5 taken."""
    src, tgt = std_pair
    state, bank, pool = init_model(STD.model, 5), CentroidBank(5), Pool()
    batches = list(epoch_batches(np.random.default_rng(10), src, tgt))
    for src_idx, tgt_idx in batches[:5]:
        step(state, bank, cfg, src, tgt, src_idx, tgt_idx, pool)
    return (state, bank, cfg, src, tgt) + batches[5] + (pool,)


def test_warm_step_starts_no_thread(std_pair, monkeypatch):
    # no weight gradient of the standard step is large enough for the worker
    monkeypatch.setattr(autodiff, "_worker", None)
    threads = threading.active_count()
    step(*warm_step_args(std_pair, std_cfg()))
    assert autodiff._worker is None and threading.active_count() == threads


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
        # a warm full-method step made 787 Python and C calls, as counted here, before
        # the ops read each shape once and dropped their wrapper closures and NumPy's
        # Python-level reductions, and the losses stopped rebuilding what a step does
        # not change; it makes 395 now
        assert call_count(step, *warm_step_args(std_pair, std_cfg())) <= 450

    def test_full_step_pool_footprint(self, std_pair):
        # a warm full-method step held 31 buffers and 938 KiB while relu's and
        # pairwise_distances' rules each took a fresh array for the gradient they
        # read; they overwrite that gradient now, and the step holds 26 and 693 KiB
        pool = warm_step_args(std_pair, std_cfg())[-1]
        assert len(pool) <= 26
        assert sum(buf.nbytes for buf in pool) <= 700 * KIB

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
        assert len(rules) == 23
        assert runs == list(range(22, -1, -1))


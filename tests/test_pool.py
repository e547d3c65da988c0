"""The buffer pool: reuse, bit-identical pooled ops and steps, no escapes, allocation budgets."""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import itertools
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
from shiftlab import networks, training
from shiftlab.autodiff import Tensor, mlp

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
        # the tests keep buffer ids, not buffers: a reference to a buffer makes it look held
        pool = Pool()
        with pool:
            a = pool.take((3, 4))
            with pool:
                b = pool.take((3, 4))
            # the inner block ending hands nothing back
            c = pool.take((3, 4))
            assert not any(np.shares_memory(x, y) for x, y in ((a, b), (a, c), (b, c)))
            buffers = [id(x.base) for x in (a, b, c)]  # every pool array's base is its buffer
            del a, b, c
        assert len(pool) == 3
        with pool:
            assert [id(pool.take((3, 4)).base) for _ in range(3)] == buffers
        assert len(pool) == 3

    def test_a_larger_request_grows_the_buffer_and_a_smaller_one_reuses_it(self):
        pool = Pool()
        with pool:
            small = id(pool.take((2, 3)).base)
        assert [buf.nbytes for buf in pool] == [2 * 3 * 8]
        with pool:
            big = id(pool.take((5, 3)).base)
        assert [buf.nbytes for buf in pool] == [5 * 3 * 8] and big != small
        with pool:
            again = pool.take((4, 3))
            assert again.dtype == np.float64 and again.shape == (4, 3) and id(again.base) == big
        assert [buf.nbytes for buf in pool] == [5 * 3 * 8]

    def test_a_later_position_shares_a_buffer_nothing_views(self):
        pool = Pool()
        for _ in range(2):
            with pool:
                a = pool.take((4, 3))
                buffer = id(a.base)  # every pool array's base is its buffer
                del a
                b = pool.take((2, 3))  # a is gone: b may use its buffer
                c = pool.take((4, 3))  # b is held: c may not
            assert id(b.base) == buffer and id(c.base) != buffer
            del b, c
        assert len(pool) == 2

    @pytest.mark.parametrize("held", ["array", "slice", "transpose"])
    def test_a_warm_take_skips_a_buffer_still_viewed(self, held):
        pool = Pool()
        with pool:
            pool.take((4, 3))
            pool.take((4, 3))  # learns to share the first position's buffer
        assert len(pool) == 1
        with pool:
            a = pool.take((4, 3))
            kept = {"array": a, "slice": a[1:], "transpose": a.T}[held]
            del a
            b = pool.take((4, 3))
            assert not np.shares_memory(kept, b)
        assert len(pool) == 2
        del kept, b
        with pool:  # the second position keeps its own buffer
            a = pool.take((4, 3))
            assert not np.shares_memory(a, pool.take((4, 3)))

    def test_growing_a_shared_buffer_moves_every_position_off_the_old_one(self):
        pool = Pool()
        for middle in (2, 4):  # three positions learn one buffer, then the middle grows it
            with pool:
                for rows in (2, middle, 2):
                    pool.take((rows, 3))
        assert len(pool) == 1
        with pool:
            a = pool.take((2, 3))
            kept = a[1:]  # a slice shows only on its buffer's count
            del a
            pool.take((4, 3))
            assert not np.shares_memory(kept, pool.take((2, 3)))

    def test_a_take_never_shares_memory_with_a_held_array(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        keeps = ["drop", "array", "slice", "transpose", "release"]

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(blocks=st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=6),
                                          min_size=1, max_size=4),
                          seed=st.integers(0, 2**32 - 1))
        def check(blocks, seed):
            # each block's shapes three times over, so positions share, grow
            # and re-check, holding a drawn selection of the arrays, some of
            # them across blocks
            choose = np.random.default_rng(seed).integers
            pool = Pool()
            held, values = [], itertools.count(1)
            for block in [rows for rows in blocks for _ in range(3)]:
                with pool:
                    for n in block:
                        arr = pool.take((n, 3))
                        assert not any(np.shares_memory(arr, h) for h, _ in held)
                        value = next(values)
                        arr[...] = value
                        what = keeps[choose(len(keeps))]
                        if what == "release" and held:
                            del held[choose(len(held))]
                        elif what in ("array", "slice", "transpose"):
                            view = {"array": arr, "slice": arr[n // 2:], "transpose": arr.T}
                            held.append((view[what], value))
                        del arr
                assert all((h == value).all() for h, value in held)

        check()

    def test_ops_use_the_pool_only_inside_its_block(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.standard_normal((6, 3)), Tensor(rng.standard_normal((3, 4))), Tensor(
            rng.standard_normal((1, 4)))
        pool = Pool()
        with pool:
            inside = mlp(Tape(), x, [(w, b)])
        outside = mlp(None, x, [(w, b)])
        assert pooled(pool, inside.values) and not pooled(pool, outside.values)
        assert np.array_equal(inside.values, outside.values)


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


def test_warm_step_starts_no_thread(std_pair):
    # neither at the standard batch nor at full_wide's batch 400, whose
    # extractor makes the largest weight gradient of any benchmark step
    threads = threading.active_count()
    step(*warm_step_args(std_pair, std_cfg()))
    assert threading.active_count() == threads
    src, tgt = std_pair
    state, bank, pool = init_model(STD.model, 5), CentroidBank(5), Pool()
    rng = np.random.default_rng(13)
    for _ in range(6):  # the first five warm the pool
        tgt_idx, src_idx = rng.permutation(len(tgt))[:400], rng.integers(0, len(src), 400)
        step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx, pool)
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
        # arithmetic, so a rise in calls is a slowdown
        calls = call_count(step, *warm_step_args(std_pair, std_cfg()))
        assert calls <= 450, f"a warm full-method step made {calls} calls"

    def test_full_step_pool_footprint(self, std_pair):
        # rules that reuse the gradient they consume, and positions that share
        # a buffer nothing views, keep a standard step's scratch small
        pool = warm_step_args(std_pair, std_cfg())[-1]
        buffers, kib = len(pool), sum(buf.nbytes for buf in pool) / KIB
        assert buffers <= 26 and kib <= 700, f"{buffers} buffers, {kib:.1f} KiB"

    def test_wide_step_pool_footprint(self, std_pair):
        # at full_wide's batch 400 later positions write into the arrays
        # backward has freed; the bits stay those of unpooled steps
        src, tgt = std_pair
        states = [init_model(STD.model, 5) for _ in range(2)]
        banks = [CentroidBank(5) for _ in range(2)]
        pool = Pool()
        rng = np.random.default_rng(11)
        for _ in range(6):
            tgt_idx, src_idx = rng.permutation(len(tgt))[:400], rng.integers(0, len(src), 400)
            got = step(states[0], banks[0], std_cfg(), src, tgt, src_idx, tgt_idx, pool)
            assert got == step(states[1], banks[1], std_cfg(), src, tgt, src_idx, tgt_idx)
        kib = sum(buf.nbytes for buf in pool) / KIB
        assert kib <= 5000, f"{len(pool)} buffers, {kib:.1f} KiB"
        for a, b in zip(states[0].parameters(), states[1].parameters()):
            assert np.array_equal(a.values, b.values)

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
    # neither a second table nor a fourth 800 x 128 array is held
    src, tgt = std_pair
    state, bank, pool = init_model(STD.model, 5), CentroidBank(5), Pool()
    rng = np.random.default_rng(12)
    for _ in range(4):
        tgt_idx, src_idx = rng.permutation(len(tgt))[:400], rng.integers(0, len(src), 400)
        step(state, bank, std_cfg(), src, tgt, src_idx, tgt_idx, pool)
    kib = sum(buf.nbytes for buf in pool) / KIB
    assert kib <= 3800, f"{len(pool)} buffers, {kib:.1f} KiB"

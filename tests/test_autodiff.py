"""Reverse-mode tape: op semantics, gradients against finite differences."""

from __future__ import annotations

import gc
import inspect
import os
import subprocess
import sys
import textwrap
import threading
import time
import weakref

import numpy as np
import pytest

from shiftlab import autodiff
from shiftlab.autodiff import (
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    add_bias,
    add_n,
    affine,
    binary_cross_entropy,
    clamp_min,
    div,
    ema_matmul,
    euclidean_distance,
    gather_rows,
    grad_reverse,
    Velocity,
    LabelPairs,
    label_ratio,
    log,
    matmul,
    mean_all,
    mlp,
    mul,
    nll,
    pairwise_distances,
    ratio,
    relu,
    scale_by,
    sgd_step,
    sigmoid,
    softmax,
    split_rows,
    sub,
    sum_all,
    weighted_sum,
)
from conftest import (
    away_from_kinks,
    central_difference,
    chained_mlp,
    grid_label_ratio,
    relative_error,
    retained_grad,
    stale_allocations,
    table_label_ratio,
    two_op_label_ratio,
    unfused_binary_cross_entropy,
    unfused_ema_matmul,
    unfused_ratio,
)

# Frozen oracle: softmax([1,2,3]) evaluated at 40-digit precision.
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]


class TestTensorBasics:
    def test_scalar_becomes_1x1(self):
        t = Tensor(3.0)
        assert t.shape == (1, 1)
        assert t.item() == 3.0

    def test_vector_becomes_row(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (1, 3)

    def test_values_are_copied(self):
        src = np.ones((2, 2))
        t = Tensor(src)
        src[0, 0] = 99.0
        assert t.values[0, 0] == 1.0

    def test_grad_starts_zero(self):
        t = Tensor(np.ones((2, 3)))
        assert np.all(t.grad == 0.0)
        t.grad += 1.0
        t.zero_grad()
        assert np.all(t.grad == 0.0)

    def test_grad_reads_zeros_of_the_tensor_shape(self):
        t = Tensor(np.ones((2, 3)))
        assert t.grad.shape == (2, 3)
        assert t.grad.dtype == np.float64
        assert not t.grad.any()

    def test_grad_read_then_written_keeps_the_write(self):
        t = Tensor(np.ones((1, 2)))
        t.grad[0, 1] = 5.0
        np.testing.assert_array_equal(t.grad, [[0.0, 5.0]])

    def test_zero_grad_clears_a_backward_gradient(self):
        tape = Tape()
        x = Tensor([[1.0, 2.0]])
        tape.backward(sum_all(tape, mul(tape, x, x)))
        np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])
        x.zero_grad()
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])

    def test_grad_setter_checks_shape(self):
        t = Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            t.grad = np.ones((3, 2))

    def test_grad_setter_copies(self):
        # a rule may overwrite its output's gradient, so it must not be the caller's array
        given = np.ones((2, 3))
        t = Tensor(np.ones((2, 3)))
        t.grad = given
        t.grad += 1.0
        assert (given == 1.0).all() and (t.grad == 2.0).all()

    def test_op_outputs_own_fresh_arrays(self):
        x = Tensor([[1.0, -2.0]])
        y = grad_reverse(None, x, 1.0)
        y.values[0, 0] = 7.0
        assert x.values[0, 0] == 1.0


class TestTapeMechanics:
    def test_backward_requires_scalar(self):
        tape = Tape()
        x = Tensor(np.ones((2, 2)))
        y = relu(tape, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_backward_requires_nonempty_tape(self):
        tape = Tape()
        with pytest.raises(TapeError):
            tape.backward(Tensor(1.0))

    def test_second_backward_raises(self):
        tape = Tape()
        x = Tensor([[1.0, -2.0]])
        loss = sum_all(tape, relu(tape, x))
        tape.backward(loss)
        assert len(tape._rules) == 0
        with pytest.raises(TapeError):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])

    def test_backward_frees_what_only_the_tape_held(self):
        # each rule is dropped once it has run, so an op output the caller
        # no longer holds is freed before backward ends, while the tape is held
        rng = np.random.default_rng(3)
        tape = Tape()
        freed = []
        # recorded first, so run last: after every rule of the ops below
        tape.record(lambda: freed.append([ref() is None for ref in refs]))
        x = Tensor(rng.standard_normal((4, 3)))
        w, b = Tensor(rng.standard_normal((3, 2))), Tensor(rng.standard_normal((1, 2)))
        h = mlp(tape, x, [(w, b)])
        r = relu(tape, h)
        refs = [weakref.ref(h.values), weakref.ref(r.values)]
        loss = sum_all(tape, r)
        del h, r
        assert not any(ref() is None for ref in refs)
        tape.backward(loss)
        assert freed == [[True, True]]
        assert w._grad is not None and x._grad is not None

    def test_gradient_accumulates_on_reuse(self):
        # x used twice: d(x+x)/dx = 2
        tape = Tape()
        x = Tensor(2.0)
        y = add(tape, x, x)
        tape.backward(y)
        assert x.grad[0, 0] == pytest.approx(2.0)

    def test_tensor_feeding_two_ops_gets_the_summed_gradient(self):
        # d/dx [sum(3x) + sum(x*x)] = 3 + 2x
        tape = Tape()
        x = Tensor([[1.0, -2.0]])
        s = add(tape, sum_all(tape, affine(tape, x, 3.0)), sum_all(tape, mul(tape, x, x)))
        tape.backward(s)
        np.testing.assert_array_equal(x.grad, [[5.0, -1.0]])

    def test_output_outside_the_loss_sends_no_gradient(self):
        # the matmul is recorded but does not reach the loss: x gets only the loss's part
        tape = Tape()
        x = Tensor([[1.0, 2.0]])
        w = Tensor([[1.0], [1.0]])
        matmul(tape, x, w)
        tape.backward(sum_all(tape, x))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0]])
        assert not w.grad.any()

    def test_no_tape_records_nothing(self):
        x = Tensor(2.0)
        y = mul(None, x, x)
        assert y.item() == 4.0
        assert np.all(x.grad == 0.0)


class TestReluSign:
    def test_gradient_follows_the_input_sign(self):
        # the rule reads the sign from the output: max(x, 0) > 0 exactly where x > 0
        values = np.array([[np.nan, -0.0, 0.0, -1.0, 2.0, np.inf, -np.inf, 1e-300]])
        upstream = np.array([[3.0, 3.0, 3.0, 3.0, 3.0, np.inf, np.nan, -2.0]])
        x = Tensor(values)
        tape = Tape()
        out = relu(tape, x)
        tape.backward(sum_all(tape, mul(tape, out, Tensor(upstream))))
        want = upstream * (values > 0.0)
        assert np.array_equal(x.grad, want, equal_nan=True)


class TestOpValues:
    def test_softmax_oracle_row(self):
        out = softmax(None, Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.values[0], SOFTMAX_123, rtol=1e-15)

    def test_softmax_shift_invariance(self):
        # max subtraction keeps huge logits finite
        out = softmax(None, Tensor([1000.0, 1001.0, 1002.0]))
        np.testing.assert_allclose(out.values[0], SOFTMAX_123, rtol=1e-12)
        assert np.isfinite(out.values).all()

    def test_softmax_needs_two_columns(self):
        with pytest.raises(ShapeError):
            softmax(None, Tensor(np.ones((3, 1))))

    def test_sigmoid_open_interval(self):
        out = sigmoid(None, Tensor([[-1e4, 0.0, 1e4]]))
        assert np.all(out.values > 0.0)
        assert np.all(out.values < 1.0)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log(None, Tensor([[0.0]]))

    def test_clamp_min_floors(self):
        out = clamp_min(None, Tensor([[1e-20, 0.5]]), 1e-12)
        assert out.values[0, 0] == 1e-12
        assert out.values[0, 1] == 0.5

    def test_gather_rows_out_of_range(self):
        with pytest.raises(IndexError):
            gather_rows(None, Tensor(np.ones((2, 3))), np.array([0, 3]))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(None, Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_n_empty_rejected(self):
        with pytest.raises(ValueError):
            add_n(None, [])

    def test_euclidean_distance_value(self):
        d = euclidean_distance(None, Tensor([[3.0, 0.0]]), Tensor([[0.0, 4.0]]))
        assert d.item() == pytest.approx(5.0)

    def test_pairwise_distances_table(self):
        a = Tensor([[0.0, 0.0], [1.0, 0.0]])
        b = Tensor([[0.0, 3.0]])
        d = pairwise_distances(None, a, b)
        assert d.values.shape == (2, 1)
        assert d.values[0, 0] == pytest.approx(3.0)
        assert d.values[1, 0] == pytest.approx(np.sqrt(10.0))

    def test_grad_reverse_identity_forward(self):
        x = Tensor([[1.0, -2.0]])
        y = grad_reverse(None, x, 1.0)
        np.testing.assert_array_equal(y.values, x.values)

    def test_grad_reverse_rejects_negative_coeff(self):
        with pytest.raises(ValueError):
            grad_reverse(None, Tensor([[1.0]]), -0.5)


class TestGradReverseBackward:
    def test_sign_flip(self):
        tape = Tape()
        x = Tensor([[2.0]])
        y = grad_reverse(tape, x, 1.0)
        s = sum_all(tape, mul(tape, y, y))
        tape.backward(s)
        # d(y^2)/dy = 4 at y=2; reversal negates it on the way to x
        assert x.grad[0, 0] == pytest.approx(-4.0)

    def test_coeff_scales(self):
        tape = Tape()
        x = Tensor([[2.0]])
        y = grad_reverse(tape, x, 0.25)
        s = sum_all(tape, mul(tape, y, y))
        tape.backward(s)
        assert x.grad[0, 0] == pytest.approx(-1.0)


def _fd_check(build, params, h=1e-5, tol=1e-4):
    """build() -> (tape, scalar Tensor). Checks every param grad against FD."""
    tape, out = build()
    tape.backward(out)
    for p in params:
        analytic = p.grad.copy()
        numeric = central_difference(lambda: build()[1].item(), p.values, h)
        assert relative_error(analytic, numeric) < tol


class TestOpGradients:
    """Each op composed into a scalar and checked against central differences."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matmul_add_bias_chain(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)))
        b = Tensor(rng.standard_normal((1, 2)))

        def build():
            tape = Tape()
            out = mean_all(tape, add_bias(tape, matmul(tape, x, w), b))
            return tape, out

        _fd_check(build, [x, w, b])

    @pytest.mark.parametrize("seed", range(20))
    def test_relu_chain(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(away_from_kinks(rng, (4, 3)))

        def build():
            tape = Tape()
            return tape, sum_all(tape, relu(tape, x))

        _fd_check(build, [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_log_chain(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = Tensor(rng.standard_normal((3, 5)))

        def build():
            tape = Tape()
            p = softmax(tape, x)
            return tape, mean_all(tape, log(tape, clamp_min(tape, p, 1e-12)))

        _fd_check(build, [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_sigmoid_chain(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = Tensor(rng.standard_normal((4, 1)) * 2.0)

        def build():
            tape = Tape()
            return tape, sum_all(tape, sigmoid(tape, x))

        _fd_check(build, [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_div_both_sides(self, seed):
        rng = np.random.default_rng(400 + seed)
        a = Tensor(rng.uniform(0.5, 2.0, (2, 2)))
        b = Tensor(rng.uniform(0.5, 2.0, (2, 2)))

        def build():
            tape = Tape()
            return tape, sum_all(tape, div(tape, a, b))

        _fd_check(build, [a, b])

    @pytest.mark.parametrize("seed", range(10))
    def test_distance_ops(self, seed):
        rng = np.random.default_rng(500 + seed)
        a = Tensor(rng.standard_normal((1, 4)))
        b = Tensor(rng.standard_normal((1, 4)))
        c = Tensor(rng.standard_normal((3, 4)))
        d = Tensor(rng.standard_normal((2, 4)))

        def build():
            tape = Tape()
            s1 = euclidean_distance(tape, a, b)
            s2 = mean_all(tape, pairwise_distances(tape, c, d))
            return tape, add(tape, s1, s2)

        _fd_check(build, [a, b, c, d])

    @pytest.mark.parametrize("seed", range(10))
    def test_gather_affine_scale(self, seed):
        # gather_rows picks one column entry per row (cross-entropy shape)
        rng = np.random.default_rng(600 + seed)
        x = Tensor(rng.standard_normal((4, 3)))
        idx = rng.integers(0, 3, size=4)
        factor = rng.uniform(0.5, 1.5, (4, 1))

        def build():
            tape = Tape()
            g = gather_rows(tape, x, idx)
            out = scale_by(tape, affine(tape, g, 2.0, 0.5), factor)
            return tape, mean_all(tape, out)

        _fd_check(build, [x])

    def test_sub_mul_add_n(self):
        rng = np.random.default_rng(700)
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((2, 3)))
        c = Tensor(rng.standard_normal((2, 3)))

        def build():
            tape = Tape()
            out = add_n(tape, [mul(tape, a, b), sub(tape, a, c), c])
            return tape, sum_all(tape, out)

        _fd_check(build, [a, b, c])

    def test_zero_distance_pair_has_zero_grad(self):
        # coincident points: distance kink, subgradient 0 chosen
        tape = Tape()
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[1.0, 2.0]])
        d = euclidean_distance(tape, a, b)
        tape.backward(d)
        assert np.all(a.grad == 0.0)
        assert np.all(b.grad == 0.0)

    def test_nan_distance_adds_no_gradient(self):
        # the rule skips unless dist > 0, which NaN fails like 0 does
        tape = Tape()
        a = Tensor([[np.nan, 2.0]])
        b = Tensor([[1.0, 2.0]])
        d = euclidean_distance(tape, a, b)
        tape.backward(d)
        assert np.isnan(d.item())
        assert np.all(a.grad == 0.0)
        assert np.all(b.grad == 0.0)


class TestGradientsDoNotAlias:
    """Ops that pass one upstream gradient to several inputs must copy it."""

    def _backward(self, build):
        tape = Tape()
        out = build(tape)
        tape.backward(sum_all(tape, scale_by(tape, out, np.full(out.shape, 2.0))))
        return out

    def test_add(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))
        out = self._backward(lambda tape: add(tape, a, b))
        a.grad += 100.0
        np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))
        assert out._grad is None

    def test_sub(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))
        out = self._backward(lambda tape: sub(tape, a, b))
        a.grad += 100.0
        np.testing.assert_array_equal(b.grad, np.full((2, 3), -2.0))
        assert out._grad is None

    def test_add_n(self):
        ts = [Tensor(np.ones((2, 3))) for _ in range(3)]
        self._backward(lambda tape: add_n(tape, ts))
        ts[0].grad += 100.0
        ts[1].grad -= 50.0
        np.testing.assert_array_equal(ts[2].grad, np.full((2, 3), 2.0))

    def test_add_bias(self):
        x, b = Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3)))
        out = self._backward(lambda tape: add_bias(tape, x, b))
        x.grad += 100.0
        assert out._grad is None
        np.testing.assert_array_equal(b.grad, np.full((1, 3), 4.0))

    def test_add_of_one_tensor_with_itself(self):
        a = Tensor(np.ones((2, 3)))
        out = self._backward(lambda tape: add(tape, a, a))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))
        assert out._grad is None


# Fixed operands for the ops below that take more than x and ``other``:
# positive, so a divisor, a log input and a ratio's denominator stay clear of 0.
FIXED = np.random.default_rng(2099).uniform(0.5, 1.5, (5, 5))


def _fixed(rows, cols, row0=0):
    return Tensor(FIXED[row0:row0 + rows, :cols])


# Every op that records a rule, each applied to a 4 x 3 x (and some also to
# the 5 x 3 ``other``); its output has at most 4 rows and 5 columns. Every
# rule consumes its output's gradient. An op that needs an operand of
# another shape takes it from FIXED, and one that needs positive inputs
# takes them through ``affine``, ``softmax`` or ``sigmoid``.
CONSUMERS = {
    "relu": lambda tape, x, other: relu(tape, x),
    "sigmoid": lambda tape, x, other: sigmoid(tape, x),
    "softmax": lambda tape, x, other: softmax(tape, x),
    "grad_reverse": lambda tape, x, other: grad_reverse(tape, x, 0.7),
    "pairwise_distances": lambda tape, x, other: pairwise_distances(tape, x, other),
    "matmul": lambda tape, x, other: matmul(tape, x, _fixed(3, 4)),
    "add_bias": lambda tape, x, other: add_bias(tape, x, _fixed(1, 3)),
    "mlp": lambda tape, x, other: mlp(
        tape, x, [(_fixed(3, 5), Tensor(-FIXED[:1])), (_fixed(5, 2), _fixed(1, 2, 1))]),
    "ema_matmul": lambda tape, x, other: ema_matmul(
        tape, FIXED[:2, :4], x, FIXED[2, :2], FIXED[3:5, :3]),
    "add": lambda tape, x, other: add(tape, x, _fixed(4, 3)),
    "sub": lambda tape, x, other: sub(tape, x, _fixed(4, 3)),
    "mul": lambda tape, x, other: mul(tape, x, _fixed(4, 3)),
    "div": lambda tape, x, other: div(tape, x, _fixed(4, 3)),
    "add_n": lambda tape, x, other: add_n(tape, [x, _fixed(4, 3), x]),
    "weighted_sum": lambda tape, x, other: weighted_sum(tape, [x, _fixed(4, 3)], [0.5, -2.0]),
    "affine": lambda tape, x, other: affine(tape, x, -1.5, 0.25),
    "scale_by": lambda tape, x, other: scale_by(tape, x, FIXED[:4, :3]),
    "log": lambda tape, x, other: log(tape, affine(tape, x, 1.0, 1.5)),
    "clamp_min": lambda tape, x, other: clamp_min(tape, x, 0.0),
    "sum_all": lambda tape, x, other: sum_all(tape, x),
    "mean_all": lambda tape, x, other: mean_all(tape, x),
    "ratio": lambda tape, x, other: ratio(
        tape, affine(tape, x, 1.0, 1.5), FIXED[:4, :3], FIXED[1:5, :3], 0.5),
    "label_ratio": lambda tape, x, other: label_ratio(
        tape, x, other, LabelPairs([0, 1, 0, 1], [0, 1, 1, 0, 0]), FIXED[0, :4],
        FIXED[1], 0.5),
    "gather_rows": lambda tape, x, other: gather_rows(tape, x, [0, 2, 1, 0]),
    "split_rows": lambda tape, x, other: sub(tape, *split_rows(tape, x, 2)),
    "nll": lambda tape, x, other: nll(tape, softmax(tape, x), [0, 2, 1, 0], 1e-3),
    "binary_cross_entropy": lambda tape, x, other: binary_cross_entropy(
        tape, sigmoid(tape, x), 1, 1e-3),
    "euclidean_distance": lambda tape, x, other: euclidean_distance(tape, x, _fixed(4, 3)),
}


def _recording(init, made):
    """``init`` that also appends each tensor it builds to ``made``."""

    def recording_init(self, values):
        init(self, values)
        made.append(self)

    return recording_init


class TestConsumedGradients:
    """Rules that take their output's gradient, overwrite it and hand it on to an input."""

    def test_the_table_holds_every_op_that_records_a_rule(self):
        ops = {name for name, fn in vars(autodiff).items()
               if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
               and not name.startswith("_")
               and next(iter(inspect.signature(fn).parameters), None) == "tape"}
        assert ops == set(CONSUMERS)

    @pytest.mark.parametrize("op", sorted(CONSUMERS))
    def test_every_rule_is_recorded_by_node(self, op, monkeypatch):
        # one recording path, with no exception
        callers = []
        record = Tape.record

        def recording(self, rule):
            callers.append(sys._getframe(1).f_code)
            record(self, rule)

        monkeypatch.setattr(Tape, "record", recording)
        rng = np.random.default_rng(2160)
        CONSUMERS[op](Tape(), Tensor(away_from_kinks(rng, (4, 3))),
                      Tensor(rng.standard_normal((5, 3))))
        assert callers and all(code is autodiff._node.__code__ for code in callers)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("op", sorted(CONSUMERS))
    def test_an_output_read_by_two_ops_passes_the_gradient_check(self, op, seed):
        # both readers add into the output's gradient before the op's rule consumes it
        rng = np.random.default_rng([2100, seed])
        x = Tensor(away_from_kinks(rng, (4, 3)))
        other = Tensor(rng.standard_normal((5, 3)))
        weights = rng.standard_normal((4, 5))

        def build():
            tape = Tape()
            out = CONSUMERS[op](tape, x, other)
            rows, cols = out.values.shape
            first = sum_all(tape, scale_by(tape, out, weights[:rows, :cols]))
            second = sum_all(tape, mul(tape, out, out))
            return tape, add(tape, first, second)

        tape, loss = build()
        tape.backward(loss)
        # grad_reverse is the identity forward, so its true gradient is -coeff times FD's
        for p, scale in [(x, -0.7 if op == "grad_reverse" else 1.0)] + (
                [(other, 1.0)] if op == "pairwise_distances" else []):
            numeric = central_difference(lambda: build()[1].item(), p.values)
            assert relative_error(p.grad, scale * numeric) < 1e-4

    @pytest.mark.parametrize("op", sorted(CONSUMERS))
    def test_outputs_hold_no_gradient_and_no_two_gradients_share_memory(self, op, monkeypatch):
        made = []  # every tensor built from here on: leaves and op outputs
        for cls in (Tensor, autodiff._Output):
            monkeypatch.setattr(cls, "__init__", _recording(cls.__init__, made))
        rng = np.random.default_rng(2150)
        x = Tensor(away_from_kinks(rng, (4, 3)))
        other = Tensor(rng.standard_normal((5, 3)))
        tape = Tape()
        out = CONSUMERS[op](tape, x, other)
        tape.backward(add(tape, sum_all(tape, out), sum_all(tape, mul(tape, out, out))))
        monkeypatch.undo()
        outputs = [t for t in made if type(t) is autodiff._Output]
        assert out in outputs and all(t._grad is None for t in outputs)
        grads = [t._grad for t in made if type(t) is Tensor and t._grad is not None]
        assert x._grad is not None
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, h) for h in grads[i + 1:])

    def test_pairwise_distances_exact_path_read_by_two_ops(self):
        # a coincident pair sends the gradient through the explicit-difference path
        rng = np.random.default_rng(2200)
        a = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(np.concatenate([a.values[:1] + 1e-3, rng.standard_normal((2, 3))]))
        weights = rng.standard_normal((4, 3))

        def build():
            tape = Tape()
            d = pairwise_distances(tape, a, b)
            return tape, add(tape, sum_all(tape, scale_by(tape, d, weights)),
                             sum_all(tape, mul(tape, d, d)))

        _fd_check(build, [a, b], h=1e-7)

    def test_op_outputs_hold_no_gradient_after_backward(self):
        rng = np.random.default_rng(2300)
        x = Tensor(rng.standard_normal((6, 4)))  # a leaf input
        params = [Tensor(rng.standard_normal(shape)) for shape in ((4, 5), (1, 5), (5, 3), (1, 3))]
        other = Tensor(rng.standard_normal((2, 3)))
        tape = Tape()
        hidden = relu(tape, mlp(tape, x, [tuple(params[:2])]))
        feats = mlp(tape, hidden, [tuple(params[2:])])
        reversed_ = grad_reverse(tape, feats, 0.5)
        outputs = [hidden, reversed_, sigmoid(tape, reversed_), softmax(tape, feats),
                   pairwise_distances(tape, feats, other)]
        loss = add_n(tape, [sum_all(tape, t) for t in outputs[2:]])
        tape.backward(loss)
        assert all(t._grad is None for t in outputs)
        assert all(t._grad is not None and t.grad.any() for t in params + [x, other])


def _linear_pair(rng, n=50, d_in=10, d_out=128):
    """Leaves and a fixed downstream weighting at the benchmark's first layer."""
    x = rng.standard_normal((n, d_in))
    w = rng.standard_normal((d_in, d_out))
    b = rng.standard_normal((1, d_out))
    r = rng.standard_normal((n, d_out))
    return x, w, b, r


class TestLinear:
    """``mlp`` with one layer: x @ w + b."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_matmul_add_bias(self, seed):
        xv, wv, bv, r = _linear_pair(np.random.default_rng(800 + seed))
        results = []
        for fused in (True, False):
            x, w, b = Tensor(xv), Tensor(wv), Tensor(bv)
            tape = Tape()
            if fused:
                out = mlp(tape, x, [(w, b)])
            else:
                out = add_bias(tape, matmul(tape, x, w), b)
            tape.backward(sum_all(tape, scale_by(tape, relu(tape, out), r)))
            results.append((out.values, x.grad, w.grad, b.grad))
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert (got == want).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(900 + seed)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)))
        b = Tensor(rng.standard_normal((1, 2)))
        r = rng.standard_normal((3, 2))

        def build():
            tape = Tape()
            return tape, sum_all(tape, scale_by(tape, mlp(tape, x, [(w, b)]), r))

        _fd_check(build, [x, w, b])

    @pytest.mark.parametrize("seed", range(3))
    def test_array_input_is_a_constant(self, seed):
        xv, wv, bv, r = _linear_pair(np.random.default_rng(850 + seed))
        before = xv.copy()
        results = []
        for x in (xv, Tensor(xv)):
            w, b = Tensor(wv), Tensor(bv)
            tape = Tape()
            out = mlp(tape, x, [(w, b)])
            tape.backward(sum_all(tape, scale_by(tape, relu(tape, out), r)))
            results.append((out.values, w.grad, b.grad))
        for got, want in zip(*results):
            assert (got == want).all()
        assert (xv == before).all()

    def test_array_input_must_be_2d(self):
        with pytest.raises(ShapeError):
            mlp(None, np.ones(3), [(Tensor(np.ones((3, 4))), Tensor(np.ones((1, 4))))])

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mlp(None, Tensor(np.ones((2, 3))), [(Tensor(np.ones((2, 4))), Tensor(np.ones((1, 4))))])

    def test_bias_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mlp(None, Tensor(np.ones((2, 3))), [(Tensor(np.ones((3, 4))), Tensor(np.ones((1, 3))))])


# 800 x 128 @ 128 x 128, the batch-400 step's middle layer: the largest
# weight gradient a benchmark step computes, 13.1M multiply-adds
BIG = (800, 128, 128)


def _big_linear_grads(xv, wv, bv, r):
    """(x, w, b) gradients of sum(relu(mlp(x, [(w, b)])) * r)."""
    x, w, b = Tensor(xv), Tensor(wv), Tensor(bv)
    tape = Tape()
    tape.backward(sum_all(tape, scale_by(tape, relu(tape, mlp(tape, x, [(w, b)])), r)))
    return [t.grad.copy() for t in (x, w, b)]


class TestLargeProducts:
    """mlp's rule at the batch-400 step's shapes, every product on the calling thread."""

    @pytest.mark.parametrize("stale", [False, True])
    def test_gradients_equal_the_direct_products_bit_for_bit(self, stale, monkeypatch):
        xv, wv, bv, r = _linear_pair(np.random.default_rng(40), *BIG)
        if stale:
            stale_allocations(monkeypatch)
        got = _big_linear_grads(xv, wv, bv, r)
        g = r * (xv @ wv + bv > 0.0)
        assert (got[0] == g @ wv.T).all()
        assert (got[1] == xv.T @ g).all()
        assert (got[2] == g.sum(axis=0, keepdims=True)).all()
        for again, first in zip(_big_linear_grads(xv, wv, bv, r), got):
            assert (again == first).all()

    def test_a_weight_used_twice_accumulates_in_rule_order(self):
        rng = np.random.default_rng(41)
        n, d_in, d_out = BIG
        xs = [rng.standard_normal((rows, d_in)) for rows in (n, 10, n)]
        rs = [rng.standard_normal((rows, d_out)) for rows in (n, 10, n)]
        wv = rng.standard_normal((d_in, d_out))
        w, b = Tensor(wv), Tensor(np.zeros((1, d_out)))
        tape = Tape()
        terms = [sum_all(tape, scale_by(tape, mlp(tape, x, [(w, b)]), r))
                 for x, r in zip(xs, rs)]
        tape.backward(weighted_sum(tape, terms, [1.0, 1.0, 1.0]))
        # rules run newest first: the third use's product, the second's, the first's
        first, second, third = (x.T @ r for x, r in zip(xs, rs))
        assert (w.grad == third + second + first).all()
        # another order of the same sums gives other bits, so the test can tell
        assert not (w.grad == third + first + second).all()

    @pytest.mark.parametrize("reader", ["nll", "gather_rows"])
    def test_a_gathered_share_adds_to_the_product(self, reader):
        rng = np.random.default_rng(47)
        xv, wv, _, r = _linear_pair(rng, *BIG)
        labels = rng.integers(0, BIG[2], BIG[1])

        def picked(tape, w):
            if reader == "nll":
                return nll(tape, w, labels, 1e-12)
            return sum_all(tape, gather_rows(tape, w, labels))

        alone = Tensor(np.abs(wv))
        tape = Tape()
        tape.backward(picked(tape, alone))
        w = Tensor(np.abs(wv))
        tape = Tape()
        first = picked(tape, w)
        # recorded last, mlp's rule runs first: w adopts its product, then
        # the gathered share is added into it
        h = mlp(tape, xv, [(w, Tensor(np.zeros((1, BIG[2]))))])
        out = sum_all(tape, scale_by(tape, h, r))
        tape.backward(weighted_sum(tape, [first, out], [1.0, 1.0]))
        assert (w.grad == xv.T @ r + alone.grad).all()

    def test_a_raising_rule_keeps_the_shares_added_before_it(self):
        rng = np.random.default_rng(42)
        xv, wv, bv, r = _linear_pair(rng, *BIG)
        x, w, b = Tensor(xv), Tensor(wv), Tensor(bv)
        tape = Tape()

        def fail():
            raise RuntimeError("a rule failed")

        tape.record(fail)  # runs last, after mlp's rule added its shares
        loss = sum_all(tape, scale_by(tape, mlp(tape, x, [(w, b)]), r))
        with pytest.raises(RuntimeError, match="a rule failed"):
            tape.backward(loss)
        assert (w._grad == xv.T @ r).all()
        assert (b._grad == r.sum(axis=0, keepdims=True)).all()
        assert (x._grad == r @ wv.T).all()

    @pytest.fixture
    def failing_product(self, monkeypatch):
        """fail_after(n): the BIG[1] x BIG[2] arrays mlp's rule asks for after
        the first n raise; returns the list of those asked for."""
        empty, asked = autodiff._empty, []

        def fail_after(n):
            def take(shape):
                if shape == (BIG[1], BIG[2]):
                    asked.append(shape)
                    if len(asked) > n:
                        raise MemoryError("no room for a product")
                return empty(shape)

            monkeypatch.setattr(autodiff, "_empty", take)
            return asked

        return fail_after

    def test_a_failed_product_raises_from_the_rule_that_started_it(self, failing_product):
        asked = failing_product(0)
        rng = np.random.default_rng(48)
        xv, wv, bv, r = _linear_pair(rng, *BIG)
        w1, w2, b = Tensor(wv), Tensor(wv), Tensor(bv)
        later = []
        tape = Tape()
        tape.record(lambda: later.append(True))  # runs last
        h = mlp(tape, mlp(tape, xv, [(w1, b)]), [(w2, b)])  # w2's rule runs, and fails, first
        with pytest.raises(MemoryError, match="no room for a product"):
            tape.backward(sum_all(tape, scale_by(tape, h, r)))
        # w2's rule raised before it added any share: w1's rule and the one
        # recorded before it never ran, and neither weight nor the bias got a gradient
        assert len(asked) == 1 and later == []
        assert b._grad is None
        assert w1._grad is None and w2._grad is None

    def test_a_failed_lower_product_adds_no_share_of_the_layers_above(self, failing_product):
        # a two-layer rule: the top layer's weight product succeeds, the
        # bottom layer's fails
        asked = failing_product(1)
        rng = np.random.default_rng(50)
        xv, w1v, b1v, r = _linear_pair(rng, *BIG)
        w2v = rng.standard_normal((BIG[2], BIG[2]))
        x, w1, b1 = Tensor(xv), Tensor(w1v), Tensor(b1v)
        w2, b2 = Tensor(w2v), Tensor(np.zeros((1, BIG[2])))
        tape = Tape()
        h = mlp(tape, x, [(w1, b1), (w2, b2)])
        with pytest.raises(MemoryError, match="no room for a product"):
            tape.backward(sum_all(tape, scale_by(tape, h, r)))
        assert len(asked) == 2
        # the rule computes every share before it adds any
        assert b1._grad is None and b2._grad is None
        assert w1._grad is None and w2._grad is None and x._grad is None

    def test_a_share_that_cannot_be_added_stops_the_rest(self):
        rng = np.random.default_rng(49)
        xv, wv, bv, r = _linear_pair(rng, *BIG)
        x, w, b = Tensor(xv), Tensor(wv), Tensor(bv)
        b._grad = np.zeros((1, BIG[2] + 1))  # the rule's bias share cannot add to it
        tape = Tape()
        loss = sum_all(tape, scale_by(tape, mlp(tape, x, [(w, b)]), r))
        with pytest.raises(ValueError):
            tape.backward(loss)
        # every share was computed before any was added: the weight's went in,
        # then the bias's raised, so the input's never did
        assert (w._grad == xv.T @ r).all() and x._grad is None

    def test_backward_leaves_no_reference_cycle(self):
        rng = np.random.default_rng(43)
        xv, wv, bv, r = _linear_pair(rng, *BIG)
        gc.disable()
        try:
            x, w, b = Tensor(xv), Tensor(wv), Tensor(bv)
            tape = Tape()
            tape.backward(sum_all(tape, scale_by(tape, mlp(tape, x, [(w, b)]), r)))
            refs = [weakref.ref(tape), weakref.ref(x.values)]
            del tape, x
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_backward_starts_no_thread(self):
        threads = threading.active_count()
        _big_linear_grads(*_linear_pair(np.random.default_rng(44), *BIG))
        assert threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_the_parents_gradients(self):
        rng = np.random.default_rng(45)
        args = _linear_pair(rng, *BIG)
        expected = _big_linear_grads(*args)
        pid = os.fork()
        if pid == 0:  # the child: the same bits
            code = 1
            try:
                got = _big_linear_grads(*args)
                code = 0 if all((a == b).all() for a, b in zip(got, expected)) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's backward did not finish within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_exits_through_the_interpreter(self):
        # a child forked after a backward runs its own backward, starts no
        # thread, and its interpreter exits without waiting on anything
        code = textwrap.dedent("""
            import os, signal, sys, threading
            import numpy as np
            from shiftlab import autodiff as ad

            def weight_grad():
                w = ad.Tensor(np.ones((128, 128)))
                tape = ad.Tape()
                h = ad.mlp(tape, np.ones((800, 128)), [(w, ad.Tensor(np.zeros((1, 128))))])
                tape.backward(ad.sum_all(tape, h))
                return w.grad

            want = weight_grad()
            if os.fork() == 0:
                signal.alarm(30)  # a child that hangs ends itself
                ok = (weight_grad() == want).all() and threading.active_count() == 1
                sys.exit(0 if ok else 3)
            sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_threads_with_their_own_tapes_get_the_single_thread_gradients(self):
        # three callers, more than a 2-core machine has cores, each with its own tape
        rng = np.random.default_rng(46)
        cases = [_linear_pair(rng, *BIG) for _ in range(3)]
        want = [_big_linear_grads(*case) for case in cases]
        errors = []

        def caller(i):
            try:
                for _ in range(4):
                    for got, expected in zip(_big_linear_grads(*cases[i]), want[i]):
                        assert (got == expected).all()
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []

    def test_importing_starts_no_thread(self):
        code = ("import sys, threading, shiftlab.cli; print(threading.active_count(), "
                "sorted({'queue', 'concurrent.futures'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "1 []"


def _mlp_layers(rng, widths):
    return [(Tensor(rng.standard_normal((d_in, d_out)) / np.sqrt(d_in)),
             Tensor(rng.standard_normal((1, d_out))))
            for d_in, d_out in zip(widths, widths[1:])]


def _mlp_grads(op, xv, layers, r, constant):
    """``op``'s output and the gradients of sum(op(x, layers) * r): x's if it is
    a Tensor, then each weight's and bias's."""
    x = xv if constant else Tensor(xv)
    for w, b in layers:
        w.zero_grad()
        b.zero_grad()
    tape = Tape()
    out = op(tape, x, layers)
    tape.backward(sum_all(tape, scale_by(tape, out, r)))
    grads = [t.grad.copy() for pair in layers for t in pair]
    return [out.values.copy()] + ([] if constant else [x.grad.copy()]) + grads


class TestMlp:
    @pytest.mark.parametrize("stale", [False, True])
    @pytest.mark.parametrize("constant", [True, False], ids=["array", "tensor"])
    @pytest.mark.parametrize("widths", [(10, 8), (10, 128, 8), (8, 32, 16, 1)])
    def test_bit_identical_to_the_linear_relu_chain(self, widths, constant, stale, monkeypatch):
        if stale:
            stale_allocations(monkeypatch)
        rng = np.random.default_rng([2500, len(widths)])
        xv = rng.standard_normal((100, widths[0]))
        layers = _mlp_layers(rng, widths)
        r = rng.standard_normal((100, widths[-1]))
        fused = _mlp_grads(mlp, xv, layers, r, constant)
        chained = _mlp_grads(chained_mlp, xv, layers, r, constant)
        assert len(fused) == len(chained) == 2 * len(layers) + 1 + (not constant)
        for got, want in zip(fused, chained):
            assert got.shape == want.shape and (got == want).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(2600 + seed)
        x = Tensor(away_from_kinks(rng, (3, 4)))
        layers = _mlp_layers(rng, (4, 5, 3, 2))
        r = rng.standard_normal((3, 2))

        def build():
            tape = Tape()
            return tape, sum_all(tape, scale_by(tape, mlp(tape, x, layers), r))

        _fd_check(build, [x] + [t for pair in layers for t in pair])

    def test_records_one_node(self):
        rng = np.random.default_rng(2700)
        tape = Tape()
        mlp(tape, rng.standard_normal((3, 4)), _mlp_layers(rng, (4, 5, 5, 2)))
        assert len(tape._rules) == 1

    def test_shapes_must_fit(self):
        rng = np.random.default_rng(2800)
        layers = _mlp_layers(rng, (4, 5, 2))
        with pytest.raises(ShapeError, match="layer 1's inner dimensions"):
            mlp(None, np.ones((3, 4)), [layers[0], layers[0]])
        with pytest.raises(ShapeError, match="layer 0's bias"):
            mlp(None, np.ones((3, 4)), [(layers[0][0], layers[1][1])])
        with pytest.raises(ShapeError, match="at least one layer"):
            mlp(None, np.ones((3, 4)), [])

    @pytest.mark.parametrize("stale", [False, True])
    def test_no_activation_is_overwritten_while_a_product_reads_it(self, stale, monkeypatch):
        # the batch-400 extractor: its middle layer's weight gradient reads the
        # first hidden activation after the rule has made that layer's input
        # gradient, which relu's mask then overwrites in place
        if stale:
            stale_allocations(monkeypatch)
        rng = np.random.default_rng(2900)
        xv = rng.standard_normal((800, 10))
        layers = _mlp_layers(rng, (10, 128, 128, 8))
        r = rng.standard_normal((800, 8))
        fused = _mlp_grads(mlp, xv, layers, r, True)
        for got, want in zip(fused, _mlp_grads(chained_mlp, xv, layers, r, True)):
            assert (got == want).all()


class TestSplitRows:
    def test_values_are_the_two_halves(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        top, bottom = split_rows(None, x, 1)
        assert (top.values == x.values[:1]).all() and (bottom.values == x.values[1:]).all()
        assert np.shares_memory(top.values, x.values)
        assert np.shares_memory(bottom.values, x.values)

    def test_gradient_is_the_concatenation(self):
        x = Tensor(np.ones((5, 2)))
        rng = np.random.default_rng(0)
        g_top, g_bottom = rng.standard_normal((2, 2)), rng.standard_normal((3, 2))
        tape = Tape()
        top, bottom = split_rows(tape, x, 2)
        loss = add(tape, sum_all(tape, scale_by(tape, top, g_top)),
                   sum_all(tape, scale_by(tape, bottom, g_bottom)))
        tape.backward(loss)
        assert (x.grad == np.concatenate([g_top, g_bottom])).all()

    @pytest.mark.parametrize("used", ["top", "bottom"])
    def test_a_half_without_gradient_sends_zeros(self, used):
        x = Tensor(np.ones((5, 2)))
        g = np.random.default_rng(1).standard_normal((5, 2))
        tape = Tape()
        halves = dict(zip(("top", "bottom"), split_rows(tape, x, 2)))
        rows = slice(None, 2) if used == "top" else slice(2, None)
        tape.backward(sum_all(tape, scale_by(tape, halves[used], g[rows])))
        expected = np.zeros_like(g)
        expected[rows] = g[rows]
        assert (x.grad == expected).all()

    def test_no_gradient_at_all_sends_nothing(self):
        x, other = Tensor(np.ones((3, 2))), Tensor(np.ones((1, 1)))
        tape = Tape()
        split_rows(tape, x, 1)
        tape.backward(sum_all(tape, other))
        assert x._grad is None

    def test_gradient_adds_to_other_uses(self):
        x = Tensor(np.ones((3, 2)))
        tape = Tape()
        top, _ = split_rows(tape, x, 1)
        tape.backward(add(tape, sum_all(tape, top), sum_all(tape, x)))
        assert (x.grad == np.array([[2.0, 2.0], [1.0, 1.0], [1.0, 1.0]])).all()

    def test_no_tape_records_nothing(self):
        tape = Tape()
        x = Tensor(np.ones((3, 2)))
        split_rows(None, x, 1)
        assert len(tape._rules) == 0
        assert x._grad is None

    def test_records_one_node_per_half(self):
        tape = Tape()
        split_rows(tape, Tensor(np.ones((3, 2))), 1)
        assert len(tape._rules) == 2

    @pytest.mark.parametrize("n", [0, 4])
    def test_empty_half(self, n):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        tape = Tape()
        top, bottom = split_rows(tape, x, n)
        assert top.shape == (n, 2) and bottom.shape == (4 - n, 2)
        full = top if n else bottom
        tape.backward(sum_all(tape, scale_by(tape, full, x.values)))
        assert (x.grad == x.values).all()

    @pytest.mark.parametrize("n", [-1, 5])
    def test_split_point_out_of_range(self, n):
        with pytest.raises(ShapeError):
            split_rows(None, Tensor(np.ones((4, 2))), n)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(1100 + seed)
        x = Tensor(rng.standard_normal((5, 3)))
        n = int(rng.integers(0, 6))
        r_top, r_bottom = rng.standard_normal((n, 3)), rng.standard_normal((5 - n, 3))

        def build():
            tape = Tape()
            top, bottom = split_rows(tape, x, n)
            # a nonlinear function of each half, so the check sees both
            return tape, add(tape, sum_all(tape, scale_by(tape, sigmoid(tape, top), r_top)),
                             sum_all(tape, scale_by(tape, relu(tape, bottom), r_bottom)))

        _fd_check(build, [x])


def _unfused_nll(tape, probs, labels, floor):
    picked = gather_rows(tape, probs, labels)
    return affine(tape, mean_all(tape, log(tape, clamp_min(tape, picked, floor))), -1.0)


class TestNll:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_the_unfused_chain(self, seed):
        rng = np.random.default_rng(1000 + seed)
        logits_v = rng.standard_normal((50, 5)) * 3.0
        labels = rng.integers(0, 5, size=50)
        results = []
        for op in (nll, _unfused_nll):
            logits = Tensor(logits_v)
            tape = Tape()
            probs = softmax(tape, logits)
            probs_grad = retained_grad(tape, probs)  # softmax's rule consumes it
            probs.values[0, labels[0]] = 1e-20  # one row where the floor binds
            loss = op(tape, probs, labels, 1e-12)
            tape.backward(affine(tape, loss, 0.6))
            results.append((loss.values, probs_grad[0], logits.grad))
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert (got == want).all()
        assert results[0][1][0, labels[0]] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(1100 + seed)
        x = Tensor(rng.standard_normal((4, 3)))
        labels = rng.integers(0, 3, size=4)

        def build():
            tape = Tape()
            return tape, nll(tape, softmax(tape, x), labels, 1e-12)

        _fd_check(build, [x])

    def test_value(self):
        loss = nll(None, Tensor([[0.5, 0.5], [0.25, 0.75]]), np.array([0, 1]), 1e-12)
        assert loss.item() == pytest.approx(-(np.log(0.5) + np.log(0.75)) / 2.0)

    def test_floor_binds(self):
        loss = nll(None, Tensor([[0.0, 1.0]]), np.array([0]), 1e-12)
        assert loss.item() == pytest.approx(-np.log(1e-12))

    def test_one_label_per_row(self):
        with pytest.raises(ShapeError):
            nll(None, Tensor(np.full((3, 2), 0.5)), np.array([0, 1]), 1e-12)
        with pytest.raises(ShapeError):
            nll(None, Tensor(np.full((2, 2), 0.5)), np.array([[0], [1]]), 1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            nll(None, Tensor(np.full((2, 2), 0.5)), np.array([0, 2]), 1e-12)
        with pytest.raises(IndexError):
            nll(None, Tensor(np.full((2, 2), 0.5)), np.array([-1, 0]), 1e-12)

    def test_nonpositive_floor_rejected_on_zero_probability(self):
        with pytest.raises(ValueError):
            nll(None, Tensor([[0.0, 1.0]]), np.array([0]), 0.0)


def _assert_bit_identical(results):
    """``results`` holds the fused and the unfused tuple of arrays."""
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert (got == want).all()


class TestRatio:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [5, 50, 400])
    def test_bit_identical_to_the_unfused_chain(self, n, seed):
        # an n x n distance table weighted as discriminative_alignment_loss does;
        # a reordered rounding step shows in about half the draws, so take four
        rng = np.random.default_rng([1200 + n, seed])
        av, bv = rng.standard_normal((n, 8)), rng.standard_normal((n, 8))
        same = rng.integers(0, 5, n)[:, None] == rng.integers(0, 5, n)[None, :]
        pair_w = np.sqrt(np.outer(rng.uniform(size=n), rng.uniform(size=n)))
        w_num, w_den = pair_w * same / same.sum(), pair_w * ~same / (~same).sum()
        results = []
        for op in (ratio, unfused_ratio):
            a, b = Tensor(av), Tensor(bv)
            tape = Tape()
            loss = op(tape, pairwise_distances(tape, a, b), w_num, w_den, 1e-8)
            tape.backward(affine(tape, loss, 0.6))
            results.append((loss.values, a.grad, b.grad))
        _assert_bit_identical(results)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(1300 + seed)
        x = Tensor(rng.uniform(0.5, 2.0, (3, 4)))
        w_num, w_den = rng.uniform(size=(3, 4)), rng.uniform(size=(3, 4))

        def build():
            tape = Tape()
            return tape, ratio(tape, x, w_num, w_den, 1e-8)

        _fd_check(build, [x])

    def test_value(self):
        out = ratio(None, Tensor([[1.0, 2.0], [3.0, 4.0]]), np.eye(2), 1.0 - np.eye(2), 0.0)
        assert out.item() == (1.0 + 4.0) / (2.0 + 3.0)

    def test_weight_shapes_must_match(self):
        with pytest.raises(ShapeError):
            ratio(None, Tensor(np.ones((2, 3))), np.ones((2, 3)), np.ones((3, 2)), 1e-8)


def _fused(tape, a, b, ys, yt, ws, wt):
    return label_ratio(tape, a, b, LabelPairs(ys, yt), np.sqrt(ws), np.sqrt(wt), 1e-8)


def _two_op(tape, a, b, ys, yt, ws, wt):
    return two_op_label_ratio(tape, a, b, LabelPairs(ys, yt), np.sqrt(ws), np.sqrt(wt), 1e-8)


def _grid(tape, a, b, ys, yt, ws, wt):
    return grid_label_ratio(tape, pairwise_distances(tape, a, b), ys, yt, ws, wt, 1e-8)


def _label_ratio_results(op, av, bv, ys, yt, ws, wt):
    """Value and both feature gradients of 0.6 times ``op``'s loss."""
    a, b = Tensor(av), Tensor(bv)
    tape = Tape()
    loss = op(tape, a, b, ys, yt, ws, wt)
    tape.backward(affine(tape, loss, 0.6))
    return loss.values, a.grad, b.grad


def _label_ratio_and_oracle(av, bv, ys, yt, ws, wt):
    """``_label_ratio_results`` of ``label_ratio``, then of the weight-grid oracle."""
    return [_label_ratio_results(op, av, bv, ys, yt, ws, wt) for op in (_fused, _grid)]


def _assert_bit_identical_to_two_ops(av, bv, ys, yt, ws, wt):
    results = [_label_ratio_results(op, av, bv, ys, yt, ws, wt) for op in (_fused, _two_op)]
    for got, want in zip(*results):
        assert got.shape == want.shape and np.array_equal(got, want)


def _assert_close_to_oracle(results, rtol=1e-12):
    """Each array within ``rtol`` of the oracle's, relative to its largest entry."""
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestLabelRatio:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [50, 400])
    def test_matches_the_weight_grid_oracle(self, n, seed):
        rng = np.random.default_rng([1500 + n, seed])
        results = _label_ratio_and_oracle(
            rng.standard_normal((n, 8)), rng.standard_normal((n, 8)),
            rng.integers(0, 5, n), rng.integers(0, 5, n),
            rng.uniform(size=n), rng.uniform(size=n),
        )
        _assert_close_to_oracle(results)

    @pytest.mark.parametrize("case", ["plain", "coincident", "zero_weights"])
    @pytest.mark.parametrize("n, m", [(1, 3), (2, 5), (50, 50), (65, 40), (66, 70), (129, 30),
                                      (400, 400)])
    def test_bit_identical_to_the_two_op_form(self, n, m, case):
        # the gradient grid goes in blocks of _GRID_ROWS rows, a lone last row
        # with the block before; coincident rows take the explicit-difference path
        rng = np.random.default_rng([2400, n, m])
        av, bv = rng.standard_normal((n, 8)), rng.standard_normal((m, 8))
        ys, yt = rng.integers(0, 5, n), rng.integers(0, 5, m)
        ys[0], yt[:2] = 0, [0, 1]  # both kinds of pair
        ws, wt = rng.uniform(size=n), rng.uniform(size=m)
        if case == "coincident":
            for i in range(0, n, 5):  # exact and near copies, in every row block
                bv[(3 * i) % m] = av[i] + (1e-9 if i % 2 else 0.0)
        elif case == "zero_weights":
            ws[::3] = 0.0
            wt[1::4] = 0.0
        near = autodiff._distances("test", Tensor(av), Tensor(bv))[1][2]
        assert (near is not None) == (case == "coincident")
        _assert_bit_identical_to_two_ops(av, bv, ys, yt, ws, wt)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(1600 + seed)
        a, b = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((5, 3)))
        ys, yt = np.array([0, 1, 2, 0]), np.array([2, 0, 1, 1, 3])
        s, t = rng.uniform(size=4), rng.uniform(size=5)

        def build():
            tape = Tape()
            return tape, label_ratio(tape, a, b, LabelPairs(ys, yt), s, t, 1e-8)

        _fd_check(build, [a, b])

    def test_value(self):
        # one feature: the distance table is [[1, 2, 4], [9, 8, 6]]
        a, b = Tensor([[0.0], [10.0]]), Tensor([[1.0], [2.0], [4.0]])
        out = label_ratio(None, a, b, LabelPairs(np.array([0, 1]), np.array([0, 1, 1])),
                          np.array([1.0, 0.5]), np.array([1.0, 2.0, 1.0]), 0.0)
        same = (1.0 + 0.5 * 2.0 * 8.0 + 0.5 * 6.0) / 3
        cross = (2.0 * 2.0 + 4.0 + 0.5 * 9.0) / 3
        assert out.item() == pytest.approx(same / cross, rel=1e-14)

    def test_zero_weights(self):
        rng = np.random.default_rng(1700)
        ws, wt = rng.uniform(size=30), rng.uniform(size=40)
        ws[::3] = 0.0
        wt[:10] = 0.0
        av, bv = rng.standard_normal((30, 8)), rng.standard_normal((40, 8))
        ys, yt = rng.integers(0, 4, 30), rng.integers(0, 4, 40)
        results = _label_ratio_and_oracle(av, bv, ys, yt, ws, wt)
        _assert_close_to_oracle(results)
        grad_a, grad_b = results[0][1], results[0][2]
        assert np.all(grad_a[::3] == 0.0)
        assert np.all(grad_b[:10] == 0.0)
        # all weight zero on one side: value 0 and no gradient
        value, grad_a, grad_b = _label_ratio_and_oracle(av, bv, ys, yt, ws, 0.0 * wt)[0]
        assert value[0, 0] == 0.0
        assert np.all(grad_a == 0.0) and np.all(grad_b == 0.0)
        _assert_bit_identical_to_two_ops(av, bv, ys, yt, ws, 0.0 * wt)

    def test_class_present_on_one_side_only(self):
        rng = np.random.default_rng(1800)
        ys = np.array([0, 1, 4, 4, 2, 0, 1, 4])  # 4 only in the source
        yt = np.array([3, 0, 1, 3, 2, 2, 0])  # 3 only in the target
        results = _label_ratio_and_oracle(
            rng.standard_normal((8, 8)), rng.standard_normal((7, 8)), ys, yt,
            rng.uniform(size=8), rng.uniform(size=7),
        )
        _assert_close_to_oracle(results)

    @pytest.mark.parametrize("n, m", [(400, 400), (2, 1)])
    def test_fewest_different_label_pairs(self, n, m):
        # one target row (one source row at 2x1) carries the odd label: 400
        # different-label pairs of 160000, the fewest a 400x400 table can
        # hold, and exactly one pair at 2x1; beta / alpha is then largest
        rng = np.random.default_rng(1900 + n)
        ys, yt = np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64)
        (yt if m > 1 else ys)[-1] = 1
        av, bv = rng.standard_normal((n, 8)), rng.standard_normal((m, 8))
        ws, wt = rng.uniform(size=n), rng.uniform(size=m)
        _assert_close_to_oracle(_label_ratio_and_oracle(av, bv, ys, yt, ws, wt))
        # every entry of the gradient grid within a few roundings of the oracle's;
        # the table form's grid is the fused op's, which matches it bit for bit
        grids = []
        for op in (table_label_ratio, grid_label_ratio):
            x = Tensor(pairwise_distances(None, Tensor(av), Tensor(bv)).values)
            tape = Tape()
            if op is table_label_ratio:
                loss = op(tape, x, LabelPairs(ys, yt), np.sqrt(ws), np.sqrt(wt), 1e-8)
            else:
                loss = op(tape, x, ys, yt, ws, wt, 1e-8)
            tape.backward(loss)
            grids.append(x.grad)
        np.testing.assert_allclose(grids[0], grids[1], rtol=1e-14, atol=0.0)

    def test_label_pairs_count_the_pairs(self):
        ys, yt = np.array([0, 2, 2, 1]), np.array([2, 0, 3])
        pairs = LabelPairs(ys, yt)
        same = ys[:, None] == yt
        assert (pairs.n_same, pairs.n_diff) == (int(same.sum()), int((~same).sum()))
        assert pairs.src.shape == (4, 4) and pairs.tgt.shape == (3, 4)
        assert np.array_equal(pairs.src @ pairs.tgt.T, same)

    def test_label_pairs_need_1d_labels(self):
        with pytest.raises(ShapeError):
            LabelPairs(np.zeros((2, 1), dtype=np.int64), np.zeros(2, dtype=np.int64))

    def test_needs_both_kinds_of_pair(self):
        x = Tensor(np.ones((2, 2)))
        for yt in ([0, 0], [1, 1]):
            pairs = LabelPairs(np.array([0, 0]), np.array(yt))
            with pytest.raises(ValueError, match="same- and different-label"):
                label_ratio(None, x, x, pairs, np.ones(2), np.ones(2), 1e-8)

    def test_rejects_negative_labels(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match="negative"):
            label_ratio(None, x, x, LabelPairs(np.array([0, -1]), np.array([0, 1])),
                        np.ones(2), np.ones(2), 1e-8)

    @pytest.mark.parametrize("ys, yt, s, t", [
        ([0, 1, 0], [0, 1], [1.0, 1.0], [1.0, 1.0]),  # one label too many
        ([0, 1], [0, 1], [1.0, 1.0, 1.0], [1.0, 1.0]),  # one scale too many
        ([0, 1], [0], [1.0, 1.0], [1.0, 1.0]),  # a target label missing
    ])
    def test_shapes_must_fit(self, ys, yt, s, t):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            label_ratio(None, x, x, LabelPairs(np.array(ys), np.array(yt)),
                        np.array(s), np.array(t), 1e-8)

    def test_feature_dims_must_match(self):
        pairs = LabelPairs(np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ShapeError, match="label_ratio: feature dims differ"):
            label_ratio(None, Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))), pairs,
                        np.ones(2), np.ones(2), 1e-8)


def test_label_ratio_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 30),
        m=st.integers(1, 30),
        classes=st.integers(1, 6),
        zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        coincident=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, m, classes, zero_fraction, coincident, seed):
        rng = np.random.default_rng(seed)
        ys, yt = rng.integers(0, classes, n), rng.integers(0, classes, m)
        ws, wt = rng.uniform(size=n), rng.uniform(size=m)
        ws[rng.uniform(size=n) < zero_fraction] = 0.0
        av, bv = rng.standard_normal((n, 4)), rng.standard_normal((m, 4))
        if coincident:
            bv[rng.integers(0, m, n)] = av
        same = ys[:, None] == yt
        if same.all() or not same.any():
            with pytest.raises(ValueError):
                label_ratio(None, Tensor(av), Tensor(bv), LabelPairs(ys, yt), ws, wt, 1e-8)
            return
        _assert_bit_identical_to_two_ops(av, bv, ys, yt, ws, wt)
        results = _label_ratio_and_oracle(av, bv, ys, yt, ws, wt)
        if np.any(ws > 0.0):
            _assert_close_to_oracle(results)
        else:
            for got in results[0]:
                assert np.all(got == 0.0)

    check()


class TestBinaryCrossEntropy:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_the_unfused_chain(self, seed):
        # unequal halves, so a mixed-up split would show
        rng = np.random.default_rng(1400 + seed)
        logits_v = rng.standard_normal((80, 1)) * 3.0
        results = []
        for op in (binary_cross_entropy, unfused_binary_cross_entropy):
            logits = Tensor(logits_v)
            tape = Tape()
            d = sigmoid(tape, logits)
            kept = retained_grad(tape, d)  # sigmoid's rule consumes its output's gradient
            d.values[0, 0] = 1.0  # the floor binds once on each side
            d.values[50, 0] = 0.0
            loss = op(tape, d, 50, 1e-12)
            tape.backward(affine(tape, loss, 0.7))
            results.append((loss.values, kept[0], logits.grad))
        _assert_bit_identical(results)
        assert results[0][1][0, 0] == 0.0 and results[0][1][50, 0] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(1500 + seed)
        p = Tensor(rng.uniform(0.1, 0.9, (7, 1)))

        def build():
            tape = Tape()
            return tape, binary_cross_entropy(tape, p, 4, 1e-12)

        _fd_check(build, [p])

    def test_value(self):
        loss = binary_cross_entropy(None, Tensor([[0.3], [0.8]]), 1, 1e-12)
        assert loss.item() == pytest.approx(-(np.log(0.7) + np.log(0.8)), rel=1e-15)

    def test_floored_probabilities_must_be_positive(self):
        with pytest.raises(ValueError):
            binary_cross_entropy(None, Tensor([[0.5], [0.0]]), 1, 0.0)
        with pytest.raises(ValueError):
            binary_cross_entropy(None, Tensor([[1.0], [0.5]]), 1, 0.0)


def _ema_operands(rng, classes, n, d):
    """Class-normalised sample weights, a mix of EMA/adopt/keep rows, old centroids."""
    labels = np.arange(n) % classes
    weights = (labels == np.arange(classes)[:, None]) * rng.uniform(size=n)
    coeff = weights / weights.sum(axis=1, keepdims=True)
    mix = rng.choice([0.0, 0.3, 1.0], size=classes)
    return coeff, mix, rng.standard_normal((classes, d))


class TestEmaMatmul:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_the_unfused_chain(self, seed):
        rng = np.random.default_rng(1600 + seed)
        coeff, mix, base = _ema_operands(rng, 5, 50, 8)
        xv, r = rng.standard_normal((50, 8)), rng.standard_normal((5, 8))
        results = []
        for op in (ema_matmul, unfused_ema_matmul):
            x = Tensor(xv)
            tape = Tape()
            out = op(tape, coeff, x, mix, base)
            tape.backward(sum_all(tape, scale_by(tape, out, r)))
            results.append((out.values, x.grad))
        _assert_bit_identical(results)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(1700 + seed)
        coeff, mix, base = _ema_operands(rng, 3, 6, 2)
        x = Tensor(rng.standard_normal((6, 2)))
        r = rng.standard_normal((3, 2))

        def build():
            tape = Tape()
            return tape, sum_all(tape, scale_by(tape, ema_matmul(tape, coeff, x, mix, base), r))

        _fd_check(build, [x])

    def test_shapes_must_fit(self):
        x = Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            ema_matmul(None, np.ones((3, 5)), x, np.ones(3), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            ema_matmul(None, np.ones((3, 4)), x, np.ones(2), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            ema_matmul(None, np.ones((3, 4)), x, np.ones(3), np.ones((3, 3)))


class TestWeightedSum:
    def test_bit_identical_to_add_n_of_affine(self):
        rng = np.random.default_rng(1800)
        values, weights = rng.standard_normal((4, 2, 3)), [1.0, 3.0, 0.6, 1.0]
        results = []
        for fused in (True, False):
            leaves = [Tensor(v) for v in values]
            tape = Tape()
            if fused:
                out = weighted_sum(tape, leaves, weights)
            else:
                out = add_n(tape, [affine(tape, t, w) for t, w in zip(leaves, weights)])
            tape.backward(sum_all(tape, out))
            results.append((out.values, *(t.grad for t in leaves)))
        _assert_bit_identical(results)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1900)
        leaves = [Tensor(rng.standard_normal((2, 3))) for _ in range(3)]
        r = rng.standard_normal((2, 3))

        def build():
            tape = Tape()
            return tape, sum_all(tape, scale_by(tape, weighted_sum(tape, leaves, [1.0, 3.0, 0.6]), r))

        _fd_check(build, leaves)

    def test_bad_operands(self):
        a, b = Tensor(np.ones((1, 1))), Tensor(np.ones((1, 2)))
        with pytest.raises(ShapeError):
            weighted_sum(None, [], [])
        with pytest.raises(ShapeError):
            weighted_sum(None, [a, a], [1.0])
        with pytest.raises(ShapeError):
            weighted_sum(None, [a, b], [1.0, 1.0])


class TestNanPropagates:
    """The floors keep a NaN, so it reaches the trainer's non-finite-loss check."""

    def test_relu(self):
        out = relu(None, Tensor([[np.nan, -1.0, 2.0]]))
        assert np.isnan(out.values[0, 0])
        assert out.values[0, 1:].tolist() == [0.0, 2.0]

    def test_clamp_min(self):
        out = clamp_min(None, Tensor([[np.nan, 0.0, 2.0]]), 0.5)
        assert np.isnan(out.values[0, 0])
        assert out.values[0, 1:].tolist() == [0.5, 2.0]

    def test_nll(self):
        assert np.isnan(nll(None, Tensor([[np.nan, 0.5], [0.5, 0.5]]), np.array([0, 1]), 1e-12).item())

    def test_binary_cross_entropy(self):
        for p in ([[np.nan], [0.5]], [[0.5], [np.nan]]):
            assert np.isnan(binary_cross_entropy(None, Tensor(p), 1, 1e-12).item())


def _explicit_pairwise(av, bv, g):
    """The former op, kept as the oracle: distances and the input gradients
    under upstream gradient ``g``, from the full n x m x d row differences."""
    diff = av[:, None, :] - bv[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    safe = np.where(dist > 0.0, dist, 1.0)
    scaled = (g * (dist > 0.0) / safe)[:, :, None] * diff
    return dist, scaled.sum(axis=1), -scaled.sum(axis=0)


def _pairwise_with_grads(av, bv, g):
    a, b = Tensor(av), Tensor(bv)
    tape = Tape()
    dist = pairwise_distances(tape, a, b)
    tape.backward(sum_all(tape, scale_by(tape, dist, g)))
    return dist.values, a.grad, b.grad


# The op documents a relative error below about 2e-11 for d <= 16.
PAIRWISE_RTOL = 1e-10


def _assert_matches_explicit(av, bv, g):
    """Distances within a relative PAIRWISE_RTOL (so exact zeros stay exact);
    each gradient entry sums unit vectors weighted by g, so its error is
    bounded by PAIRWISE_RTOL times the row's or column's sum of |g|."""
    got = _pairwise_with_grads(av, bv, g)
    want = _explicit_pairwise(av, bv, g)
    np.testing.assert_allclose(got[0], want[0], rtol=PAIRWISE_RTOL, atol=0.0)
    weight_a = np.abs(g).sum(axis=1, keepdims=True)
    weight_b = np.abs(g).sum(axis=0)[:, None]
    assert np.all(np.abs(got[1] - want[1]) <= PAIRWISE_RTOL * weight_a)
    assert np.all(np.abs(got[2] - want[2]) <= PAIRWISE_RTOL * weight_b)


class TestPairwiseDistances:
    @pytest.mark.parametrize("n, m", [(5, 5), (50, 50), (400, 400)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_explicit_differences_at_benchmark_shapes(self, n, m, seed):
        rng = np.random.default_rng(1200 + seed)
        av = rng.standard_normal((n, 8)) * 2.0 + 0.5
        bv = rng.standard_normal((m, 8)) * 2.0 - 0.5
        _assert_matches_explicit(av, bv, rng.standard_normal((n, m)))

    def test_coincident_rows_give_exact_zeros(self):
        rng = np.random.default_rng(1300)
        av = 1e3 + rng.standard_normal((4, 8))
        bv = np.vstack([av[2], rng.standard_normal(8), av[0]])
        coincident = np.zeros((4, 3))
        coincident[2, 0] = coincident[0, 2] = 1.0
        dist, grad_a, grad_b = _pairwise_with_grads(av, bv, coincident)
        assert dist[2, 0] == 0.0 and dist[0, 2] == 0.0
        assert np.all(dist[coincident == 0.0] > 0.0)
        assert np.all(grad_a == 0.0)
        assert np.all(grad_b == 0.0)
        _assert_matches_explicit(av, bv, rng.standard_normal((4, 3)))

    def test_nearby_rows_at_a_large_offset_keep_their_digits(self):
        rng = np.random.default_rng(1400)
        av = 1e3 + rng.standard_normal((6, 8))
        step = rng.standard_normal((6, 8))
        bv = av + 1e-6 * step / np.linalg.norm(step, axis=1, keepdims=True)
        dist = pairwise_distances(None, Tensor(av), Tensor(bv)).values
        assert np.all(np.abs(np.diag(dist) - 1e-6) < 1e-9)
        _assert_matches_explicit(av, bv, rng.standard_normal((6, 6)))

    def test_empty_side_gives_an_empty_table(self):
        assert pairwise_distances(None, Tensor(np.ones((3, 2))), Tensor(np.ones((0, 2)))).shape == (3, 0)
        assert pairwise_distances(None, Tensor(np.ones((0, 2))), Tensor(np.ones((3, 2)))).shape == (0, 3)

    def test_feature_dims_must_agree(self):
        with pytest.raises(ShapeError):
            pairwise_distances(None, Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


def test_pairwise_distances_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        n=st.integers(1, 30),
        m=st.integers(1, 30),
        d=st.integers(1, 16),
        offset=st.floats(-1e4, 1e4),
        spread=st.sampled_from([1e-6, 1e-3, 1.0, 1e2]),
        duplicates=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, m, d, offset, spread, duplicates, seed):
        rng = np.random.default_rng(seed)
        av = offset + spread * rng.standard_normal((n, d))
        bv = offset + spread * rng.standard_normal((m, d))
        for _ in range(duplicates):
            bv[rng.integers(m)] = av[rng.integers(n)]
        _assert_matches_explicit(av, bv, rng.standard_normal((n, m)))

    check()


class TestSgdStep:
    def test_parameter_without_gradient_takes_the_momentum_step(self):
        # v <- 0.9 v + 0; p <- p - lr v, exactly as with an explicit zero gradient
        p = Tensor([[1.0, -2.0]])
        v0 = np.array([[0.3, -0.7]])
        vel = Velocity([p])
        vel[0][...] = v0
        sgd_step([p], 0.05, 0.9, vel)
        v_old = v0 * 0.9
        v_old += np.zeros((1, 2))
        p_old = np.array([[1.0, -2.0]])
        p_old -= 0.05 * v_old
        assert (vel[0] == v_old).all()
        assert (p.values == p_old).all()

    def test_two_step_momentum_oracle(self):
        # lr=0.1, momentum=0.9, constant unit gradient:
        # v1=1, p1=-0.1; v2=1.9, p2=-0.29
        p = Tensor(0.0)
        vel = Velocity([p])
        p.grad += 1.0
        sgd_step([p], 0.1, 0.9, vel)
        assert p.item() == pytest.approx(-0.1)
        p.grad += 1.0
        sgd_step([p], 0.1, 0.9, vel)
        assert p.item() == pytest.approx(-0.29)

    def test_grads_cleared_after_step(self):
        p = Tensor(1.0)
        vel = Velocity([p])
        p.grad += 2.0
        sgd_step([p], 0.01, 0.9, vel)
        assert np.all(p.grad == 0.0)

    def test_velocity_slots_update_like_separate_arrays(self):
        # the slots share one flat array; each must follow its own parameter's update
        rng = np.random.default_rng(3)
        shapes = [(3, 4), (1, 4), (4, 2), (1, 2)]
        params = [Tensor(rng.standard_normal(shape)) for shape in shapes]
        vel = Velocity(params)
        assert isinstance(vel, Velocity) and [v.shape for v in vel] == shapes
        want_p = [p.values.copy() for p in params]
        want_v = [np.zeros(shape) for shape in shapes]
        for k in range(3):
            for i, p in enumerate(params):
                if (i + k) % 3:  # some parameters get no gradient on some steps
                    p.grad = rng.standard_normal(p.shape)
                    want_v[i] = want_v[i] * 0.9 + p.grad
                else:
                    want_v[i] = want_v[i] * 0.9
                want_p[i] = want_p[i] - 0.03 * want_v[i]
            sgd_step(params, 0.03, 0.9, vel)
        for p, v, wp, wv in zip(params, vel, want_p, want_v):
            assert np.array_equal(v, wv) and np.array_equal(p.values, wp)

    def test_plain_list_velocity_rejected(self):
        p = Tensor(1.0)
        with pytest.raises(TypeError):
            sgd_step([p], 0.1, 0.9, [np.zeros((1, 1))])

    def test_velocity_length_mismatch(self):
        p = Tensor(1.0)
        with pytest.raises(ValueError):
            sgd_step([p], 0.1, 0.9, [np.zeros((1, 1)), np.zeros((1, 1))])

"""Reverse-mode automatic differentiation on dense float64 arrays.

Forward evaluation is eager: every operation computes its result
immediately and, when a tape is supplied, records a closure that knows how
to push gradients back to its inputs. Calling ``Tape.backward`` on a
scalar output replays the closures in reverse order. Gradients accumulate
so tensors reused in several places receive the sum of all contributions.

The backward-rule contract: an op given a tape makes exactly one
``Tape.record(rule)`` call, and ``rule`` takes no arguments. When run, it
reads the gradient of its own output (``out._grad``), does nothing if that
is still None, and otherwise adds each input's share into that input.
``Tape.backward`` calls every rule once, newest first. A rule holds its
op's operands and output, never the tape, so a step's arrays are freed
when its tape is dropped, without waiting for the garbage collector.

One share may be deferred: ``linear``'s weight gradient x.T @ g, when it
takes at least ``_OFFLOAD_MACS`` (about 4M) multiply-adds and the weight
is a leaf. Inside ``Tape.backward`` that product runs on one worker
thread, into the array the rule took, while the caller goes on with the
bias and x gradients and the rules after it. Until then the leaf's
gradient is a stand-in that any later contribution waits for, so the
additions keep rule order. ``Tape.backward`` waits for every deferred
product before it returns or raises, and the leaf then holds the result.
The product is the same single call on the same operands, so the bits are
those of the synchronous rule. The thread is started on first use, at
most one per process and none with fewer than 2 usable CPUs; a forked
child starts its own. At the benchmark's shapes only the batch-400
extractor's middle layer (13.1M) qualifies; the standard step starts no
thread.

A rule consumes its output's gradient, as PyTorch frees a non-leaf
tensor's: by the time it runs, every op that read the output has added
its share, and nothing reads that array again. So ``relu``, ``sigmoid``,
``softmax``, ``grad_reverse`` and ``pairwise_distances`` overwrite it in
place, hand it on to their input where the shapes agree, and leave their
output holding no gradient; the other ops leave theirs in place. Only a
leaf, a parameter or any other tensor built with ``Tensor(...)``, keeps
a gradient to be read after backward. The array is private to its
tensor: ``_accumulate`` adopts only an array nothing else holds and
copies a shared one, and the ``grad`` setter copies what it is given.

At the training step's shapes the arithmetic is cheap and the cost is in
Python-level calls, so the ops read shapes from ``.values.shape`` rather
than ``Tensor.shape`` and reduce with ``np.add.reduce`` and its like
rather than the array methods, whose Python wrappers cost more calls.
``tests/test_pool.py`` bounds the calls of a full training step.

Only the user boundary pays for a full ``Tensor``: the public constructor
copies its input, while op outputs own the array their op just computed.
Gradient buffers are allocated on the first accumulation, usually by
adopting the array the backward rule computed; a rule whose output got no
gradient does nothing. ``Tensor.grad`` reads as zeros until then.

Only the operations the training method needs are provided, and all
tensors are 2-D. There is no broadcasting beyond what the individual
operations document. ``linear`` also takes a plain array as a constant
input, and ``split_rows`` cuts one tensor into two row blocks, so one
pass over stacked batches can feed per-batch losses.

A chain of ops that the training step builds many times is also offered
as one fused op, which records one node: ``linear``, ``nll``,
``ema_matmul``, ``ratio``, ``binary_cross_entropy`` and
``weighted_sum``. Each names the chain it replaces and applies the same
scalar operations in the same order, so values and gradients match the
chain bit for bit. ``label_ratio`` is ``ratio`` with label-pair weight
grids, computed from per-class sums instead: its sums are reordered, so
it matches ``ratio`` to rounding rather than bit for bit. The floors in
``relu``, ``clamp_min`` and the fused ops use ``np.maximum``, so a NaN
input gives a NaN output rather than the floor value.

``__all__`` holds the ops a training step records and the types and
helpers around them. The chain ops (``matmul``, ``add_bias``, ``add``, ``sub``, ``mul``,
``div``, ``add_n``, ``affine``, ``scale_by``, ``log``, ``clamp_min``,
``sum_all``, ``mean_all``, ``gather_rows`` and ``euclidean_distance``)
are not exported and no training path calls them. They are kept for two
reasons only: the fused ops are tested against them, and the benchmark's
tracer wraps them by name.

Inside ``with pool:`` for a ``Pool``, the ops whose arrays scale with the
batch (``linear`` forward and backward, ``relu``'s output and mask,
``split_rows``' backward, the n x m distances of ``pairwise_distances``
and the n x m gradient of ``label_ratio``) write into the pool's arrays
instead of allocating; the arithmetic and its bits are the same. Those
arrays are handed out again once the outermost ``with`` block ends, so
nothing made inside one may be kept past it. Outside any, every op
allocates. A warm full training step at the benchmark's shapes holds 26
pool buffers: 693 KiB at batch 50 and 6,693 KiB at batch 400.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading

import numpy as np

__all__ = [
    "ShapeError",
    "TapeError",
    "Tensor",
    "Tape",
    "Pool",
    "as_matrix",
    "linear",
    "ema_matmul",
    "weighted_sum",
    "relu",
    "sigmoid",
    "softmax",
    "ratio",
    "LabelPairs",
    "label_ratio",
    "split_rows",
    "nll",
    "binary_cross_entropy",
    "pairwise_distances",
    "grad_reverse",
    "Velocity",
    "sgd_step",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class TapeError(RuntimeError):
    """Backward was requested on a tape that recorded nothing."""


def as_matrix(values) -> np.ndarray:
    """``values`` as a 2-D float64 array, copied only if it is not one already.

    A scalar becomes 1 x 1 and a 1-D array a single row.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got array of shape {arr.shape}")
    return arr


class Tensor:
    """A 2-D float64 array paired with a lazily allocated gradient.

    Input is converted by ``as_matrix``. The public constructor copies
    its input, so a tensor never aliases caller-owned memory. Op outputs
    are built by a subclass whose constructor skips the copy: each owns
    the array its op just computed.

    The gradient buffer is allocated on the first accumulation into it.
    Until then ``grad`` reads as zeros of the tensor's shape (and keeps
    that buffer), so ``t.grad += 1.0`` works on a fresh tensor. Setting
    ``grad`` stores a copy. ``zero_grad`` drops the buffer; an array read
    from ``grad`` before that keeps its values. An op output's gradient
    may be consumed by backward (see the module docstring).
    """

    __slots__ = ("values", "_grad")

    def __init__(self, values) -> None:
        self.values = as_matrix(np.array(values, dtype=np.float64))
        self._grad = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray:
        g = self._grad
        if g is None:
            self._grad = g = np.zeros_like(self.values)
        elif g.__class__ is _Deferred:
            self._grad = g = g.settle()
        return g

    @grad.setter
    def grad(self, value) -> None:
        arr = np.array(value, dtype=np.float64)
        if arr.shape != self.values.shape:
            raise ShapeError(f"grad of shape {arr.shape} for a tensor of shape {self.shape}")
        self._grad = arr

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got shape {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


_FLOAT = np.dtype(np.float64)
_BOOL = np.dtype(bool)


class Pool:
    """Scratch arrays that one step after another writes into.

    ``with pool:`` makes the pool the active one for the ops (see the
    module docstring). The i-th array taken inside the block reuses the
    i-th buffer, grown when too small, so a loop whose steps take the same
    sequence of shapes, or smaller ones, allocates only in its first step.
    A taken array's contents are garbage until the op writes it, and it is
    handed out again once the outermost ``with pool:`` block ends: a value
    that outlives the block must not be a pool array. ``len(pool)`` counts
    the buffers held and iterating yields them.
    """

    def __init__(self) -> None:
        self._buffers: list[np.ndarray] = []  # flat bytes, one per position
        self._views: list[np.ndarray] = []  # the array last handed out at each position
        self._taken = 0
        self._tokens: list[contextvars.Token] = []

    def __enter__(self) -> Pool:
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.reset(self._tokens.pop())
        if not self._tokens:
            self._taken = 0

    def __len__(self) -> int:
        return len(self._buffers)

    def __iter__(self):
        return iter(self._buffers)

    def take(self, shape: tuple[int, ...], dtype: np.dtype = _FLOAT) -> np.ndarray:
        """An uninitialised array nothing else has taken since the block began."""
        i = self._taken
        self._taken = i + 1
        try:
            view = self._views[i]
        except IndexError:  # a position no block has reached before
            self._buffers.append(np.empty(0, np.uint8))
            self._views.append(None)
        else:
            if view.shape == shape and view.dtype is dtype:
                return view
        nbytes = math.prod(shape) * dtype.itemsize
        if self._buffers[i].size < nbytes:
            self._buffers[i] = np.empty(nbytes, np.uint8)
        view = self._buffers[i][:nbytes].view(dtype).reshape(shape)
        self._views[i] = view
        return view


_ACTIVE: contextvars.ContextVar[Pool | None] = contextvars.ContextVar("pool", default=None)


def _empty(shape: tuple[int, ...], dtype: np.dtype = _FLOAT) -> np.ndarray:
    """An uninitialised array: from the active pool, else newly allocated."""
    pool = _ACTIVE.get()
    return np.empty(shape, dtype) if pool is None else pool.take(shape, dtype)


class _Output(Tensor):
    """An op output that owns ``values`` (2-D float64): no copy, no gradient yet.

    A ``Tensor`` in every respect but its constructor, which skips the
    public one's copy.
    """

    __slots__ = ()

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self._grad = None


def _accumulate(t: Tensor, g: np.ndarray, shared: bool = False) -> None:
    """Add ``g`` into ``t``'s gradient.

    On the first write the buffer adopts ``g``, which must then be a fresh
    array nothing else holds; ``shared=True`` copies it instead.
    """
    if t._grad is None:
        t._grad = g.copy() if shared else g
    else:
        t._grad += g


# A weight gradient x.T @ g of at least this many multiply-adds is handed
# to the worker thread (see ``linear``). The standard step's largest is
# 1.6M (128 x 100 x 128) and the batch-400 step's 13.1M (128 x 800 x 128).
# Below a few million the worker's wait for the interpreter lock, held by
# the rules that run meanwhile, costs more than the overlap saves.
_OFFLOAD_MACS = 1 << 22


class _Deferred:
    """A product ``a @ b`` that the worker thread writes into ``out``.

    It stands in a leaf's ``_grad`` until settled; ``prior`` is the
    gradient the leaf held before it. ``settle`` waits for the product and
    returns ``prior + out``, added in place as ``_accumulate`` would, or
    ``out`` alone. ``_accumulate``'s ``t._grad += g`` settles it first, so
    a later contribution is added after the pending one.
    """

    __slots__ = ("a", "b", "out", "prior", "done", "error")

    def __init__(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        self.a, self.b, self.out = a, b, out
        self.prior = self.error = None
        self.done = threading.Lock()  # held until the worker is done
        self.done.acquire()

    def run(self) -> None:
        """Compute the product; called on the worker thread."""
        np.matmul(self.a, self.b, out=self.out)

    def wait(self) -> None:
        """Block until the worker is done with this product."""
        self.done.acquire()
        self.done.release()

    def settle(self) -> np.ndarray:
        self.wait()
        if self.error is not None:
            raise self.error
        if self.prior is None:
            return self.out
        self.prior += self.out
        return self.prior

    def __iadd__(self, g: np.ndarray) -> np.ndarray:
        grad = self.settle()
        grad += g
        return grad


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


class _Worker:
    """One daemon thread that runs the ``_Deferred`` products it is handed, in order."""

    def __init__(self) -> None:
        import queue

        self._jobs = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="shiftlab-backward", daemon=True).start()

    def submit(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> _Deferred:
        job = _Deferred(a, b, out)
        self._jobs.put(job)
        return job

    def _serve(self) -> None:
        while True:
            job = self._jobs.get()
            try:
                job.run()
            except BaseException as exc:  # raised by ``settle`` on the waiting thread
                job.error = exc
            done = job.done
            del job  # an idle worker keeps no array of a finished backward alive
            done.release()


# This process's worker: None until a product is first offloaded, False
# when fewer than 2 CPUs are usable and products stay on the caller. The
# lock keeps two threads' first offloads from starting two workers.
_worker: _Worker | bool | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """In a forked child: the parent's thread is not there, so start anew."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)

# The (leaf, product) pairs of the running ``Tape.backward``, which waits
# for them; None outside one, where every product runs on the caller.
_DEFERRED: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "deferred", default=None)


def _offload(leaf: Tensor, a: np.ndarray, b: np.ndarray) -> _Deferred | None:
    """Start ``a @ b`` on the worker, as part of ``leaf``'s gradient, if one can run."""
    global _worker
    deferred = _DEFERRED.get()
    if deferred is None:
        return None
    if _worker is None:
        with _worker_lock:
            if _worker is None:
                _worker = _Worker() if _usable_cpus() >= 2 else False
    if _worker is False:
        return None
    job = _worker.submit(a, b, _empty(leaf.values.shape))
    deferred.append((leaf, job))
    return job


class Tape:
    """Ordered record of backward rules for one forward pass."""

    def __init__(self) -> None:
        self._rules: list = []

    def record(self, rule) -> None:
        """Append ``rule``, a zero-argument callable (see the module docstring)."""
        self._rules.append(rule)

    def __len__(self) -> int:
        return len(self._rules)

    def backward(self, output: Tensor) -> None:
        """Seed ``output`` with gradient 1 and replay all rules in reverse.

        Every product a rule handed to the worker thread has finished, and
        is in its leaf's gradient, when this returns or raises.
        """
        if not self._rules:
            raise TapeError("backward on an empty tape: no operations were recorded")
        if output.values.shape != (1, 1):
            raise ShapeError(
                f"backward seed must be a 1x1 scalar, got shape {output.values.shape}"
            )
        _accumulate(output, np.array([[1.0]]))
        deferred: list = []
        token = _DEFERRED.set(deferred)
        try:
            for rule in reversed(self._rules):
                rule()
        finally:
            _DEFERRED.reset(token)
            for _, job in deferred:
                job.wait()
            for leaf, job in deferred:
                if leaf._grad is job:
                    leaf._grad = job.settle()


def matmul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.values.shape} @ {b.values.shape}"
        )
    out = _Output(a.values @ b.values)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(a, g @ b.values.T)
                _accumulate(b, a.values.T @ g)

        tape.record(backward)
    return out


def add_bias(tape: Tape | None, x: Tensor, bias: Tensor) -> Tensor:
    """Add a 1 x m bias row to every row of an n x m tensor."""
    if bias.values.shape != (1, x.values.shape[1]):
        raise ShapeError(
            f"add_bias: bias {bias.values.shape} does not fit rows of {x.values.shape}"
        )
    out = _Output(x.values + bias.values)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(x, g, shared=True)
                _accumulate(bias, np.add.reduce(g, axis=0, keepdims=True))

        tape.record(backward)
    return out


def linear(tape: Tape | None, x: Tensor | np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer x @ w + b in one node; b is a 1 x m bias row.

    Same values and gradients, bit for bit, as
    ``add_bias(matmul(x, w), b)``. ``x`` may also be a plain 2-D float64
    array: a constant, such as an input batch, for which no gradient is
    computed. Backward reads it again, so it must not change meanwhile.

    Inside ``Tape.backward``, when ``w`` is a leaf and x.T @ g takes at
    least ``_OFFLOAD_MACS`` multiply-adds, that product runs on the worker
    thread while the rule computes the bias and x gradients; backward waits
    for it before it returns. It is the same single product on the same
    operands, so the bits do not change.
    """
    constant = not isinstance(x, Tensor)
    xv = x if constant else x.values
    x_shape, w_shape = xv.shape, w.values.shape
    if xv.ndim != 2 or x_shape[1] != w_shape[0]:
        raise ShapeError(f"linear: inner dimensions differ, {x_shape} @ {w_shape}")
    if b.values.shape != (1, w_shape[1]):
        raise ShapeError(f"linear: bias {b.values.shape} does not fit {w_shape[1]} outputs")
    h = np.matmul(xv, w.values, out=_empty((x_shape[0], w_shape[1])))
    h += b.values
    out = _Output(h)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is None:
                return
            job = None
            if xv.size * w_shape[1] >= _OFFLOAD_MACS and not isinstance(w, _Output):
                job = _offload(w, xv.T, g)
            _accumulate(b, np.add.reduce(g, axis=0, keepdims=True))
            if not constant:
                _accumulate(x, np.matmul(g, w.values.T, out=_empty(x_shape)))
            if job is None:
                _accumulate(w, np.matmul(xv.T, g, out=_empty(w_shape)))
            else:  # in rule order: after this rule's own contributions
                job.prior, w._grad = w._grad, job

        tape.record(backward)
    return out


def ema_matmul(
    tape: Tape | None, coeff: np.ndarray, x: Tensor, mix: np.ndarray, base: np.ndarray
) -> Tensor:
    """mix[:, None] * (coeff @ x) + base in one node; coeff, mix and base are constants.

    Same values, and the same gradient into x, bit for bit, as
    ``add(scale_by(matmul(Tensor(coeff), x), mix[:, None] broadcast), Tensor(base))``,
    without copying the constants or computing coeff's gradient.
    """
    coeff = np.asarray(coeff, dtype=np.float64)
    x_shape = x.values.shape
    if coeff.ndim != 2 or coeff.shape[1] != x_shape[0]:
        raise ShapeError(f"ema_matmul: coeff {coeff.shape} does not fit rows of {x_shape}")
    mix = np.asarray(mix, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    if mix.shape != (coeff.shape[0],) or base.shape != (coeff.shape[0], x_shape[1]):
        raise ShapeError(
            f"ema_matmul: mix {mix.shape} and base {base.shape} "
            f"do not fit a {coeff.shape[0]} x {x_shape[1]} result"
        )
    col = mix[:, None]
    h = coeff @ x.values
    h *= col
    h += base
    out = _Output(h)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(x, coeff.T @ (g * col))

        tape.record(backward)
    return out


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shapes differ, {a.values.shape} vs {b.values.shape}")


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    out = _Output(a.values + b.values)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(a, g, shared=True)
                _accumulate(b, g, shared=True)

        tape.record(backward)
    return out


def sub(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)
    out = _Output(a.values - b.values)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(a, g, shared=True)
                _accumulate(b, np.negative(g))

        tape.record(backward)
    return out


def mul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    _require_same_shape("mul", a, b)
    out = _Output(a.values * b.values)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(a, g * b.values)
                _accumulate(b, g * a.values)

        tape.record(backward)
    return out


def div(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient a / b of two same-shape tensors."""
    _require_same_shape("div", a, b)
    out = _Output(a.values / b.values)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(a, g / b.values)
                _accumulate(b, -(g * out.values / b.values))

        tape.record(backward)
    return out


def add_n(tape: Tape | None, tensors: list[Tensor]) -> Tensor:
    """Sum a non-empty list of same-shape tensors."""
    if not tensors:
        raise ShapeError("add_n: empty tensor list")
    first = tensors[0]
    for t in tensors[1:]:
        _require_same_shape("add_n", first, t)
    out = _Output(sum(t.values for t in tensors))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                for t in tensors:
                    _accumulate(t, g, shared=True)

        tape.record(backward)
    return out


def weighted_sum(tape: Tape | None, tensors: list[Tensor], weights: list[float]) -> Tensor:
    """Sum of weights[i] * tensors[i] over a non-empty list of same-shape tensors.

    Same values and gradients as ``add_n`` over ``affine(t, w)`` of each
    pair, in one node.
    """
    if not tensors:
        raise ShapeError("weighted_sum: empty tensor list")
    if len(weights) != len(tensors):
        raise ShapeError(f"weighted_sum: {len(tensors)} tensors but {len(weights)} weights")
    shape = tensors[0].values.shape
    total = 0  # the start value of ``sum``, which ``add_n`` uses
    for t, w in zip(tensors, weights):
        if t.values.shape != shape:
            raise ShapeError(f"weighted_sum: shapes differ, {shape} vs {t.values.shape}")
        total = total + w * t.values
    out = _Output(total)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                for t, w in zip(tensors, weights):
                    _accumulate(t, w * g)

        tape.record(backward)
    return out


def affine(tape: Tape | None, x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """scale * x + shift with scalar constants."""
    out = _Output(scale * x.values + shift)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(x, scale * g)

        tape.record(backward)
    return out


def scale_by(tape: Tape | None, x: Tensor, factor: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant array; no gradient into factor."""
    fac = np.asarray(factor, dtype=np.float64)
    if fac.shape != x.values.shape:
        raise ShapeError(f"scale_by: factor {fac.shape} vs tensor {x.values.shape}")
    out = _Output(x.values * fac)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(x, g * fac)

        tape.record(backward)
    return out


def relu(tape: Tape | None, x: Tensor, in_place: bool = False) -> Tensor:
    """max(x, 0) elementwise; a NaN entry stays NaN.

    The subgradient at exactly 0 is taken as 0. ``in_place=True``
    overwrites ``x``'s values with the result, for an input nothing reads
    again; ``x`` still gets its gradient, which needs only the sign mask.
    Off the tape no mask is kept.
    """
    v = x.values
    if tape is None:
        return _Output(np.maximum(v, 0.0, out=v if in_place else _empty(v.shape)))
    mask = np.greater(v, 0.0, out=_empty(v.shape, _BOOL))
    out = _Output(np.maximum(v, 0.0, out=v if in_place else _empty(v.shape)))

    def backward() -> None:
        g = out._grad
        if g is not None:
            out._grad = None
            _accumulate(x, np.multiply(g, mask, out=g))

    tape.record(backward)
    return out


# The floor and ceiling that ``sigmoid`` clips its output to.
_ABOVE_ZERO = np.nextafter(0.0, 1.0)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def sigmoid(tape: Tape | None, x: Tensor) -> Tensor:
    """Logistic function, computed without overflow for any finite input.

    With e = exp(-|x|), which never overflows, it is 1 / (1 + e) where
    x >= 0 and e / (1 + e) below. The output is nudged into the open
    interval (0, 1) so downstream probability guards never see an exact 0
    or 1 from float rounding.
    """
    v = x.values
    e = np.exp(-np.abs(v))
    # e <= 1, so the numerator is 1 where v >= 0 and e elsewhere; NaN stays NaN
    s = np.maximum(e, v >= 0.0)
    s /= 1.0 + e
    np.minimum(np.maximum(s, _ABOVE_ZERO, out=s), _BELOW_ONE, out=s)
    out = _Output(s)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                out._grad = None
                np.multiply(g, s, out=g)
                g *= 1.0 - s
                _accumulate(x, g)

        tape.record(backward)
    return out


def log(tape: Tape | None, x: Tensor) -> Tensor:
    if np.any(x.values <= 0.0):
        raise ValueError("log: all entries must be positive")
    out = _Output(np.log(x.values))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(x, g / x.values)

        tape.record(backward)
    return out


def clamp_min(tape: Tape | None, x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise; gradient is zero where the clamp binds.

    A NaN entry stays NaN.
    """
    mask = x.values > floor
    out = _Output(np.maximum(x.values, floor))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(x, g * mask)

        tape.record(backward)
    return out


def softmax(tape: Tape | None, logits: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for overflow safety."""
    v = logits.values
    if v.shape[1] < 2:
        raise ShapeError(f"softmax: need at least 2 columns, got {v.shape}")
    e = np.subtract(v, np.maximum.reduce(v, axis=1, keepdims=True))
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    out = _Output(e)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                out._grad = None
                np.subtract(g, np.add.reduce(g * e, axis=1, keepdims=True), out=g)
                g *= e
                _accumulate(logits, g)

        tape.record(backward)
    return out


def sum_all(tape: Tape | None, x: Tensor) -> Tensor:
    out = _Output(np.array([[np.add.reduce(x.values, axis=None)]]))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(x, np.full(x.values.shape, g[0, 0]))

        tape.record(backward)
    return out


def mean_all(tape: Tape | None, x: Tensor) -> Tensor:
    n = x.values.size
    out = _Output(np.array([[np.add.reduce(x.values, axis=None) / n]]))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                _accumulate(x, np.full(x.values.shape, g[0, 0] / n))

        tape.record(backward)
    return out


def ratio(
    tape: Tape | None, x: Tensor, w_num: np.ndarray, w_den: np.ndarray, eps: float
) -> Tensor:
    """sum(x * w_num) / (sum(x * w_den) + eps) with constant weight arrays.

    One node with the same scalar operations, in the same order, as
    ``div(sum_all(scale_by(x, w_num)), affine(sum_all(scale_by(x, w_den)), 1.0, eps))``;
    no gradient flows into the weights.
    """
    w_num = np.asarray(w_num, dtype=np.float64)
    w_den = np.asarray(w_den, dtype=np.float64)
    v = x.values
    if w_num.shape != v.shape or w_den.shape != v.shape:
        raise ShapeError(f"ratio: weights {w_num.shape}, {w_den.shape} vs tensor {v.shape}")
    den = np.add.reduce(v * w_den, axis=None) + eps
    q = np.add.reduce(v * w_num, axis=None) / den
    out = _Output(np.array([[q]]))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                c = g[0, 0]
                grad = -(c * q / den) * w_den
                grad += (c / den) * w_num
                _accumulate(x, grad)

        tape.record(backward)
    return out


class LabelPairs:
    """Which entries of an n x m table pair equal labels, for ``label_ratio``.

    Built from n source and m target labels, non-negative integers.
    ``src`` and ``tgt`` are their n x C and m x C boolean one-hot tables,
    C being the largest label plus one, and ``n_same`` and ``n_diff``
    count the pairs (i, j) whose labels are equal and differ. The counts
    come from per-class counts, so no n x m array is made.
    """

    __slots__ = ("src", "tgt", "n_same", "n_diff")

    def __init__(self, src_labels, tgt_labels) -> None:
        y = np.asarray(src_labels)
        z = np.asarray(tgt_labels)
        if y.ndim != 1 or z.ndim != 1:
            raise ShapeError(f"LabelPairs: labels must be 1-D, got {y.shape} and {z.shape}")
        # bincount rejects negative labels
        src_counts = np.bincount(y)
        tgt_counts = np.bincount(z, minlength=src_counts.size)
        self.n_same = int(src_counts @ tgt_counts[:src_counts.size])
        self.n_diff = y.size * z.size - self.n_same
        classes = np.arange(tgt_counts.size)
        self.src = y[:, None] == classes
        self.tgt = z[:, None] == classes


def label_ratio(
    tape: Tape | None,
    dists: Tensor,
    pairs: LabelPairs,
    src_scale: np.ndarray,
    tgt_scale: np.ndarray,
    eps: float,
) -> Tensor:
    """Mean scaled entry over same-label pairs over that over different-label pairs.

    With D = ``dists`` (n x m), labels y and z of its rows and columns
    (given as ``pairs``) and scales s and t, the value is

        [sum_ij D_ij s_i t_j [y_i = z_j] / n_same]
        / ([sum_ij D_ij s_i t_j [y_i != z_j] / n_diff] + eps),

    n_same and n_diff counting the pairs of each kind. That is ``ratio``
    with the weight grids s t^T [same] / n_same and s t^T [diff] / n_diff,
    but no n x m array is made apart from the gradient. The forward takes
    one product D @ B, B the m x C one-hot of z scaled by t: row i's
    own-label column is its same-label sum and its other columns add up to
    its cross-label sum, so neither is a difference. The gradient grid
    s_i t_j (alpha [y_i = z_j] - beta [y_i != z_j]) is the rank-C product
    (s one-hot(y)) @ R^T with R_jc = t_j (alpha if z_j = c else -beta), where
    alpha = g / (den n_same), beta = g q / (den n_diff), g is the upstream
    gradient, q the value and den its denominator. Each entry has one
    nonzero term, so no digits cancel even when beta >> alpha, as they
    would in the rank-(C+1) form (alpha + beta) [y_i = z_j] - beta.
    Both kinds of pair must occur.
    """
    s = np.asarray(src_scale, dtype=np.float64)
    t = np.asarray(tgt_scale, dtype=np.float64)
    n, m = dists.values.shape
    if pairs.src.shape[0] != n or s.shape != (n,) or pairs.tgt.shape[0] != m or t.shape != (m,):
        raise ShapeError(
            f"label_ratio: table {dists.values.shape} with {pairs.src.shape[0]} source "
            f"labels, scales {s.shape} and {pairs.tgt.shape[0]} target labels, scales {t.shape}"
        )
    n_same, n_diff = pairs.n_same, pairs.n_diff
    if n_same == 0 or n_diff == 0:
        raise ValueError(
            f"label_ratio: needs same- and different-label pairs, got {n_same} and {n_diff}"
        )
    src_weight = pairs.src * s[:, None]  # n x C: s_i in column y_i
    by_class = dists.values @ (pairs.tgt * t[:, None])  # n x C
    same_sum = np.vdot(src_weight, by_class)
    # s_i - s_i is exactly 0: these weights pick row i's other columns
    cross_sum = np.vdot(s[:, None] - src_weight, by_class)
    den = cross_sum / n_diff + eps
    q = same_sum / n_same / den
    out = _Output(np.array([[q]]))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                c = g[0, 0]
                per_class = np.where(pairs.tgt.T, c / (den * n_same), -(c * q / (den * n_diff)))
                per_class *= t  # C x m: R^T
                _accumulate(dists, np.matmul(src_weight, per_class, out=_empty((n, m))))

        tape.record(backward)
    return out


def _row_indices(op: str, x: Tensor, indices) -> np.ndarray:
    """One in-range column index per row of ``x``."""
    idx = np.asarray(indices)
    rows, cols = x.values.shape
    if idx.ndim != 1 or idx.shape[0] != rows:
        raise ShapeError(f"{op}: need one index per row of {x.values.shape}, got {idx.shape}")
    # one reduction: some index is out of range exactly when min < 0 or max >= cols
    if np.logical_or.reduce((idx < 0) | (idx >= cols)):
        raise IndexError(f"{op}: index out of range for {cols} columns")
    return idx


def gather_rows(tape: Tape | None, x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one column per row: out[i, 0] = x[i, indices[i]]."""
    idx = _row_indices("gather_rows", x, indices)
    rows = np.arange(x.values.shape[0])
    out = _Output(x.values[rows, idx].reshape(-1, 1))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                np.add.at(x.grad, (rows, idx), g[:, 0])

        tape.record(backward)
    return out


def split_rows(tape: Tape | None, x: Tensor, n: int) -> tuple[Tensor, Tensor]:
    """Rows ``[:n]`` and rows ``[n:]`` of ``x`` as two tensors, in one node.

    Both are views of ``x``'s values. Backward writes the two halves'
    gradients into one array for ``x``, with zeros for a half that got
    none; if neither got any, nothing is sent back.
    """
    shape = x.values.shape
    if not 0 <= n <= shape[0]:
        raise ShapeError(f"split_rows: cannot split {shape[0]} rows at row {n}")
    top, bottom = _Output(x.values[:n]), _Output(x.values[n:])
    if tape is not None:

        def backward() -> None:
            g_top, g_bottom = top._grad, bottom._grad
            if g_top is not None or g_bottom is not None:
                grad = _empty(shape)
                grad[:n] = 0.0 if g_top is None else g_top
                grad[n:] = 0.0 if g_bottom is None else g_bottom
                _accumulate(x, grad)

        tape.record(backward)
    return top, bottom


def nll(tape: Tape | None, probs: Tensor, labels: np.ndarray, floor: float) -> Tensor:
    """Mean negative log of each row's labelled probability, floored at ``floor``.

    One node with the same scalar operations, in the same order, as
    ``affine(mean_all(log(clamp_min(gather_rows(probs, labels), floor))), -1.0)``;
    no gradient flows where the floor binds, and a NaN probability gives a
    NaN loss.
    """
    idx = _row_indices("nll", probs, labels)
    rows = np.arange(idx.size)
    picked = probs.values[rows, idx][:, None]
    mask = picked > floor
    clamped = np.maximum(picked, floor)
    # a positive floor leaves nothing to test: NaN fails any comparison
    if floor <= 0.0 and np.any(clamped <= 0.0):
        raise ValueError("nll: floored probabilities must be positive")
    n = clamped.size
    mean = np.add.reduce(np.log(clamped), axis=None) / n
    out = _Output(np.array([[-1.0 * mean + 0.0]]))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                per_row = -1.0 * g[0, 0] / n / clamped
                per_row *= mask
                grad = probs._grad
                if grad is None:
                    probs._grad = grad = np.zeros(probs.values.shape)
                elif grad.__class__ is _Deferred:
                    probs._grad = grad = grad.settle()
                grad[rows, idx] += per_row[:, 0]

        tape.record(backward)
    return out


def binary_cross_entropy(
    tape: Tape | None, p_neg: Tensor, p_pos: Tensor, floor: float
) -> Tensor:
    """-(mean log(1 - p_neg) + mean log(p_pos)), each probability floored at ``floor``.

    One node with the same scalar operations, in the same order, as
    ``affine(add(mean_all(log(clamp_min(affine(p_neg, -1.0, 1.0), floor))),
    mean_all(log(clamp_min(p_pos, floor)))), -1.0)``; no gradient flows
    where the floor binds, and a NaN probability gives a NaN loss.
    """
    neg = -1.0 * p_neg.values + 1.0
    neg_mask = neg > floor
    neg = np.maximum(neg, floor)
    pos_mask = p_pos.values > floor
    pos = np.maximum(p_pos.values, floor)
    if floor <= 0.0 and (np.any(neg <= 0.0) or np.any(pos <= 0.0)):
        raise ValueError("binary_cross_entropy: floored probabilities must be positive")
    terms = (np.add.reduce(np.log(neg), axis=None) / neg.size
             + np.add.reduce(np.log(pos), axis=None) / pos.size)
    out = _Output(np.array([[-1.0 * terms + 0.0]]))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                c = -1.0 * g[0, 0]
                _accumulate(p_pos, c / pos.size / pos * pos_mask)
                _accumulate(p_neg, -1.0 * (c / neg.size / neg * neg_mask))

        tape.record(backward)
    return out


def euclidean_distance(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Unsquared Euclidean distance between two same-shape tensors.

    At zero distance the gradient is taken as zero (the subgradient at the
    kink), so coincident points are safe.
    """
    _require_same_shape("euclidean_distance", a, b)
    diff = a.values - b.values
    dist = float(np.sqrt(np.add.reduce(diff * diff, axis=None)))
    out = _Output(np.array([[dist]]))
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None and dist > 0.0:
                step = g[0, 0] * (diff / dist)
                _accumulate(a, step)
                _accumulate(b, -step)

        tape.record(backward)
    return out


# A pair whose squared distance the Gram form gives as at most this
# fraction of |a_i|^2 + |b_j|^2 is recomputed from its explicit row
# difference. The Gram form's absolute error is about
# (2d + 3) * u * (|a_i|^2 + |b_j|^2), with u = 2**-53 the unit roundoff:
# d products in each dot product, two more additions. Above the cut a
# squared distance so keeps a relative error below (2d + 3) * u / _GRAM_RTOL
# and its square root half that: 1e-11 at d = 8, 2e-11 at d = 16.
_GRAM_RTOL = 1e-4


def pairwise_distances(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """All unsquared Euclidean distances between rows of a and rows of b.

    Both inputs are shifted by b's column mean, which changes no distance
    and keeps the norms small. A pair's squared distance is then
    |a_i|^2 + |b_j|^2 - 2 a_i . b_j, from one (n x d)@(d x m) product for
    all pairs; no n x m x d array is made. Where that is at most
    ``_GRAM_RTOL`` times |a_i|^2 + |b_j|^2, so that cancellation could eat
    its digits, the distance and its gradient come from the explicit
    difference a_i - b_j of the unshifted rows instead. Every distance so
    has a relative error below about 2e-11 for d <= 16, and coincident rows
    give exactly 0. Zero-distance pairs get zero gradient.
    """
    av, bv = a.values, b.values
    (n, d), (m, d_b) = av.shape, bv.shape
    if d != d_b:
        raise ShapeError(f"pairwise_distances: feature dims differ, {av.shape} vs {bv.shape}")
    shift = np.add.reduce(bv, axis=0) / m if m else 0.0
    ac = av - shift
    bc = bv - shift
    a2 = np.add.reduce(ac * ac, axis=1)
    b2 = np.add.reduce(bc * bc, axis=1)
    dist = np.matmul(ac, (-2.0 * bc).T, out=_empty((n, m)))
    dist += a2[:, None]
    dist += b2
    # No pair can pass the cut unless the smallest squared distance passes
    # it against the largest norms; that one test clears almost every call.
    exact = None
    if np.minimum.reduce(dist, axis=None, initial=np.inf) <= _GRAM_RTOL * (
        np.maximum.reduce(a2, initial=0.0) + np.maximum.reduce(b2, initial=0.0)
    ):
        rows, cols = np.nonzero(dist <= _GRAM_RTOL * (a2[:, None] + b2))
        diff = av[rows] - bv[cols]
        exact = np.sqrt(np.add.reduce(diff * diff, axis=1))
        dist[rows, cols] = 0.0
    np.sqrt(dist, out=dist)
    if exact is not None:
        dist[rows, cols] = exact
    out = _Output(dist)
    if tape is not None:

        def backward() -> None:
            w = out._grad
            if w is None:
                return
            out._grad = None
            if exact is not None:
                scaled = np.divide(w[rows, cols], exact, out=np.zeros_like(exact),
                                   where=exact > 0.0)
                positive = dist > 0.0
                w[~positive] = 0.0
                np.divide(w, dist, out=w, where=positive)
                w[rows, cols] = 0.0
            else:
                np.divide(w, dist, out=w)
            grad_a = ac * np.add.reduce(w, axis=1)[:, None]
            grad_a -= w @ bc
            grad_b = bc * np.add.reduce(w, axis=0)[:, None]
            grad_b -= w.T @ ac
            if exact is not None:
                step = scaled[:, None] * diff
                np.add.at(grad_a, rows, step)
                np.subtract.at(grad_b, cols, step)
            _accumulate(a, grad_a)
            _accumulate(b, grad_b)

        tape.record(backward)
    return out


def grad_reverse(tape: Tape | None, x: Tensor, coeff: float) -> Tensor:
    """Identity forward; backward multiplies the gradient by -coeff."""
    if coeff < 0.0:
        raise ValueError(f"grad_reverse: coeff must be >= 0, got {coeff}")
    out = _Output(x.values.copy())
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                out._grad = None
                _accumulate(x, np.multiply(-coeff, g, out=g))

        tape.record(backward)
    return out


class Velocity(list):
    """SGD momentum slots, one zero array shaped like each parameter.

    The slots are in-order views of one flat array, and ``sgd_step`` forms
    lr * v in another, so it decays every slot, and scales every slot by
    the learning rate, with one NumPy call each. Change a slot in place
    only: a slot put in its place would no longer be part of ``flat``.
    """

    def __init__(self, params: list[Tensor]) -> None:
        shapes = [p.values.shape for p in params]
        bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
        self.flat = np.zeros(bounds[-1])
        self.scaled = np.empty_like(self.flat)
        cuts = list(zip(bounds, bounds[1:], shapes))
        super().__init__(self.flat[a:b].reshape(shape) for a, b, shape in cuts)
        self.scaled_slots = [self.scaled[a:b].reshape(shape) for a, b, shape in cuts]


def sgd_step(
    params: list[Tensor],
    lr: float,
    momentum: float,
    velocity: Velocity,
) -> None:
    """One in-place SGD update with classical momentum.

    v <- momentum * v + grad; param <- param - lr * v. A parameter that
    received no gradient adds nothing to v. Gradients are cleared
    afterwards so the next forward pass starts fresh. ``velocity`` is a
    ``Velocity(params)``: the decay and the lr * v products take one
    whole-array call each, and lr * v lands in its preallocated array.
    """
    if len(params) != len(velocity):
        raise ValueError(
            f"sgd_step: {len(params)} params but {len(velocity)} velocity slots"
        )
    if not isinstance(velocity, Velocity):
        raise TypeError(f"sgd_step: velocity must be a Velocity, got {type(velocity)}")
    velocity.flat *= momentum
    for p, v in zip(params, velocity):
        if p._grad is not None:
            v += p._grad
        p._grad = None
    np.multiply(velocity.flat, lr, out=velocity.scaled)
    for p, step in zip(params, velocity.scaled_slots):
        p.values -= step

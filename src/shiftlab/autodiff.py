"""Reverse-mode automatic differentiation on dense float64 arrays.

Forward evaluation is eager: every operation computes its result
immediately and, when a tape is supplied, records a closure that knows how
to push gradients back to its inputs. Calling ``Tape.backward`` on a
scalar output replays the closures in reverse order. Gradients accumulate
so tensors reused in several places receive the sum of all contributions.

The backward-rule contract, with no exception: every op output made on a
tape gets one rule, which ``_node`` builds and records; no other code
calls ``Tape.record(rule)``. ``rule`` takes no arguments. When run, it
takes the gradient of its own output off that output, which then holds
none, does nothing if there was none, and otherwise computes every
input's share before it adds any into that input. This is how PyTorch
frees a non-leaf tensor's gradient: by the time a rule runs, every op
that read the output has added its share, and nothing reads that array
again. So a rule may overwrite it in place and hand it on to an input
where the shapes agree, as ``relu``, ``sigmoid``, ``softmax``,
``grad_reverse`` and ``pairwise_distances`` do. ``split_rows`` makes two
outputs, so it records two rules, one per row view. An op frees or
reuses the arrays it keeps for backward inside its node: ``mlp`` drops
each hidden activation once its layer is done, freeing its buffer, and
``label_ratio`` divides its gradient grid, in row blocks, into its
distance table. Only a leaf, a parameter or any other tensor built with
``Tensor(...)``, keeps a gradient to be read after backward. The array
is private to its tensor: ``_accumulate`` adopts only an array no other
tensor holds, and an op that hands its gradient to more than one input
copies it for the others; the ``grad`` setter copies what it is given.
``Tape.backward`` calls every rule once, newest first, and drops each as
soon as it has run, as PyTorch frees the tensors it saved for backward.
A rule holds its op's operands and output, never the tape, so an array
that only rules held is freed once backward is done with it, without
waiting for the garbage collector and while the tape is still held. The
tape is then empty: a second ``backward`` raises ``TapeError``.

At the training step's shapes the arithmetic is cheap and the cost is in
Python-level calls, so the ops read shapes from ``.values.shape`` rather
than ``Tensor.shape`` and reduce with ``np.add.reduce`` and its like
rather than the array methods, whose Python wrappers cost more calls.
``tests/test_step_memory.py`` bounds the calls of a full training step.

Only the operations the training method needs are provided, and all
tensors are 2-D. There is no broadcasting beyond what the individual
operations document. ``mlp`` also takes a plain array as a constant
input, and ``split_rows`` cuts one tensor into two row views, so one
pass over stacked batches can feed per-batch losses;
``binary_cross_entropy`` reads such a stacked column whole.

A chain of ops that the training step builds many times is also offered
as one fused op, which records one node: ``mlp`` (a network's dense
layers with ``relu`` between them), ``nll``, ``ema_matmul``, ``ratio``,
``binary_cross_entropy`` and ``weighted_sum``. Each names the chain it
replaces and applies the same scalar operations in the same order, so
values and gradients match the chain bit for bit. ``label_ratio`` is
``ratio`` with label-pair weight grids over ``pairwise_distances``,
computed from per-class sums instead: its sums are reordered, so it
matches that chain to rounding rather than bit for bit, and it matches
``pairwise_distances`` feeding a table-taking ``label_ratio`` bit for
bit. No training step records ``relu`` on its own: ``mlp`` applies it
inside its node. It stays public as the activation of the chain ``mlp``
is tested against. The floors in ``relu``, ``mlp``, ``clamp_min`` and
the fused ops use ``np.maximum``, so a NaN input gives a NaN output
rather than the floor value.

``__all__`` holds the ops a training step records and the types and
helpers around them. The chain ops (``matmul``, ``add_bias``, ``add``, ``sub``, ``mul``,
``div``, ``add_n``, ``affine``, ``scale_by``, ``log``, ``clamp_min``,
``sum_all``, ``mean_all``, ``gather_rows`` and ``euclidean_distance``)
are not exported and no training path calls them. They are kept for two
reasons only: the fused ops are tested against them, and the benchmark's
tracer wraps them by name.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ShapeError",
    "TapeError",
    "Tensor",
    "Tape",
    "as_matrix",
    "mlp",
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
    """Backward was requested on a tape that holds no rule: none was recorded,
    or backward has already run."""


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
    from ``grad`` before that keeps its values. Backward consumes an op
    output's gradient (see the module docstring).
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


# The uninitialised float64 arrays that ops write into come from here, so a
# test can patch it to make an allocation fail.
_empty = np.empty


class _Output(Tensor):
    """An op output that owns ``values`` (2-D float64): no copy, no gradient yet.

    A ``Tensor`` in every respect but its constructor, which skips the
    public one's copy.
    """

    __slots__ = ()

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self._grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t``'s gradient. The first write adopts ``g``, so no other
    tensor may hold it: it is a fresh array or one a rule took from its output."""
    grad = t._grad
    if grad is None:
        t._grad = g
    else:
        grad += g


class Tape:
    """Ordered record of backward rules for one forward pass."""

    def __init__(self) -> None:
        self._rules: list = []

    def record(self, rule) -> None:
        """Append ``rule``, a zero-argument callable (see the module docstring)."""
        self._rules.append(rule)

    def backward(self, output: Tensor) -> None:
        """Seed ``output`` with gradient 1 and replay all rules in reverse.

        Each rule is dropped as soon as it has run, so the arrays only it
        held, its op's operands and output, are freed once backward is done
        with them, and the tape is left empty: a second call raises
        ``TapeError``.
        """
        rules = self._rules
        if not rules:
            raise TapeError("backward on an empty tape: no operations were recorded, "
                            "or backward already ran")
        if output.values.shape != (1, 1):
            raise ShapeError(
                f"backward seed must be a 1x1 scalar, got shape {output.values.shape}"
            )
        self._rules = []
        _accumulate(output, np.array([[1.0]]))
        for i in range(len(rules) - 1, -1, -1):
            rule = rules[i]
            rules[i] = None
            rule()


def _node(tape: Tape | None, values: np.ndarray, inputs, shares) -> Tensor:
    """An op output owning ``values``; on a tape, the rule that adds its shares.

    The rule takes the output's gradient g off the output, which then
    holds none, and ``shares(g)`` returns one array per tensor of
    ``inputs``, in order, or None for an input that gets nothing. An
    input adopts its share or adds it into the gradient it has, so each
    share is a fresh array or g itself, which ``shares`` may have
    overwritten; an op that hands g to more than one input copies it
    for the others.
    """
    out = _Output(values)
    if tape is not None:

        def backward() -> None:
            g = out._grad
            if g is not None:
                out._grad = None
                for t, share in zip(inputs, shares(g)):
                    if share is not None:
                        _accumulate(t, share)

        tape.record(backward)
    return out


def matmul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.values.shape} @ {b.values.shape}"
        )
    return _node(tape, a.values @ b.values, (a, b),
                 lambda g: (g @ b.values.T, a.values.T @ g))


def add_bias(tape: Tape | None, x: Tensor, bias: Tensor) -> Tensor:
    """Add a 1 x m bias row to every row of an n x m tensor."""
    if bias.values.shape != (1, x.values.shape[1]):
        raise ShapeError(
            f"add_bias: bias {bias.values.shape} does not fit rows of {x.values.shape}"
        )
    return _node(tape, x.values + bias.values, (x, bias),
                 lambda g: (g, np.add.reduce(g, axis=0, keepdims=True)))


def mlp(
    tape: Tape | None, x: Tensor | np.ndarray, layers: list[tuple[Tensor, Tensor]]
) -> Tensor:
    """Dense layers h @ w + b with ``relu`` between each pair, in one node.

    ``layers`` is a non-empty list of (w, b) pairs, b a 1 x m bias row;
    the last layer's output stays linear. Same values and gradients, bit
    for bit, as the chain ``relu(add_bias(matmul(...)))`` per hidden layer
    and ``add_bias(matmul(...))`` for the last. ``x`` may also be a plain
    2-D float64 array: a constant, such as an input batch, for which no
    gradient is computed. Backward reads it again, so it must not change
    meanwhile.

    Each hidden activation overwrites its layer's affine output and is
    held for backward. From the last layer down, the rule computes each
    layer's bias and weight shares, and g @ w.T into a new array: x's
    share at the first layer, and at a hidden layer the layer below's g
    once masked in place by the sign of h. The rule then drops h, freeing
    its buffer.
    """
    constant = not isinstance(x, Tensor)
    h = x if constant else x.values
    if h.ndim != 2:
        raise ShapeError(f"mlp: input must be 2-D, got shape {h.shape}")
    if not layers:
        raise ShapeError("mlp: needs at least one layer")
    rows, last = h.shape[0], len(layers) - 1
    inputs = []  # each layer's input: x, then the hidden activations
    params = []  # each layer's w and b, in order
    for k, (w, b) in enumerate(layers):
        w_shape = w.values.shape
        if h.shape[1] != w_shape[0]:
            raise ShapeError(f"mlp: layer {k}'s inner dimensions differ, {h.shape} @ {w_shape}")
        if b.values.shape != (1, w_shape[1]):
            raise ShapeError(
                f"mlp: layer {k}'s bias {b.values.shape} does not fit {w_shape[1]} outputs")
        inputs.append(h)
        params += w, b
        h = np.matmul(h, w.values, out=_empty((rows, w_shape[1])))
        h += b.values
        if k < last:
            np.maximum(h, 0.0, out=h)

    def shares(g):
        grads = [None] * len(params)
        for k in range(last, -1, -1):
            w = params[2 * k]
            hv, w_shape = inputs[k], w.values.shape
            grads[2 * k + 1] = np.add.reduce(g, axis=0, keepdims=True)
            if k or not constant:
                gx = np.matmul(g, w.values.T, out=_empty(hv.shape))
            grads[2 * k] = np.matmul(hv.T, g, out=_empty(w_shape))
            if k:
                # relu's rule: hv > 0 exactly where its affine input was
                g = np.multiply(gx, hv > 0.0, out=gx)
            del inputs[k]
        return grads if constant else [*grads, gx]

    return _node(tape, h, params if constant else [*params, x], shares)


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
    return _node(tape, h, (x,), lambda g: (coeff.T @ (g * col),))


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op}: shapes differ, {a.values.shape} vs {b.values.shape}")


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    return _node(tape, a.values + b.values, (a, b), lambda g: (g, g.copy()))


def sub(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)
    return _node(tape, a.values - b.values, (a, b), lambda g: (g, np.negative(g)))


def mul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    _require_same_shape("mul", a, b)
    return _node(tape, a.values * b.values, (a, b), lambda g: (g * b.values, g * a.values))


def div(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient a / b of two same-shape tensors."""
    _require_same_shape("div", a, b)
    q = a.values / b.values
    return _node(tape, q, (a, b), lambda g: (g / b.values, -(g * q / b.values)))


def add_n(tape: Tape | None, tensors: list[Tensor]) -> Tensor:
    """Sum a non-empty list of same-shape tensors."""
    if not tensors:
        raise ShapeError("add_n: empty tensor list")
    first = tensors[0]
    for t in tensors[1:]:
        _require_same_shape("add_n", first, t)
    return _node(tape, sum(t.values for t in tensors), tensors,
                 lambda g: [g, *[g.copy() for _ in tensors[1:]]])


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
    return _node(tape, total, tensors, lambda g: [w * g for w in weights])


def affine(tape: Tape | None, x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """scale * x + shift with scalar constants."""
    return _node(tape, scale * x.values + shift, (x,), lambda g: (scale * g,))


def scale_by(tape: Tape | None, x: Tensor, factor: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant array; no gradient into factor."""
    fac = np.asarray(factor, dtype=np.float64)
    if fac.shape != x.values.shape:
        raise ShapeError(f"scale_by: factor {fac.shape} vs tensor {x.values.shape}")
    return _node(tape, x.values * fac, (x,), lambda g: (g * fac,))


def relu(tape: Tape | None, x: Tensor) -> Tensor:
    """max(x, 0) elementwise; a NaN entry stays NaN.

    The subgradient at exactly 0 is taken as 0. The rule reads the sign
    from the output: max(x, 0) > 0 exactly where x > 0, NaN and -0.0
    included, so no mask lives until backward.
    """
    v = x.values
    h = np.maximum(v, 0.0, out=_empty(v.shape))
    return _node(tape, h, (x,), lambda g: (np.multiply(g, h > 0.0, out=g),))


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

    def shares(g):
        np.multiply(g, s, out=g)
        g *= 1.0 - s
        return (g,)

    return _node(tape, s, (x,), shares)


def log(tape: Tape | None, x: Tensor) -> Tensor:
    if np.any(x.values <= 0.0):
        raise ValueError("log: all entries must be positive")
    return _node(tape, np.log(x.values), (x,), lambda g: (g / x.values,))


def clamp_min(tape: Tape | None, x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise; gradient is zero where the clamp binds.

    A NaN entry stays NaN.
    """
    mask = x.values > floor
    return _node(tape, np.maximum(x.values, floor), (x,), lambda g: (g * mask,))


def softmax(tape: Tape | None, logits: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for overflow safety."""
    v = logits.values
    if v.shape[1] < 2:
        raise ShapeError(f"softmax: need at least 2 columns, got {v.shape}")
    e = np.subtract(v, np.maximum.reduce(v, axis=1, keepdims=True))
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)

    def shares(g):
        np.subtract(g, np.add.reduce(g * e, axis=1, keepdims=True), out=g)
        g *= e
        return (g,)

    return _node(tape, e, (logits,), shares)


def sum_all(tape: Tape | None, x: Tensor) -> Tensor:
    return _node(tape, np.array([[np.add.reduce(x.values, axis=None)]]), (x,),
                 lambda g: (np.full(x.values.shape, g[0, 0]),))


def mean_all(tape: Tape | None, x: Tensor) -> Tensor:
    n = x.values.size
    return _node(tape, np.array([[np.add.reduce(x.values, axis=None) / n]]), (x,),
                 lambda g: (np.full(x.values.shape, g[0, 0] / n),))


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

    def shares(g):
        c = g[0, 0]
        grad = -(c * q / den) * w_den
        grad += (c / den) * w_num
        return (grad,)

    return _node(tape, np.array([[q]]), (x,), shares)


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


def _row_blocks(n: int, size: int):
    """The (lo, hi) bounds of n rows in blocks of ``size``. A lone last row joins
    the block before it: NumPy takes a one-row product through a matrix-vector
    kernel, which rounds differently."""
    starts = range(0, n - 1 if n > 1 else n, size)
    return zip(starts, [*starts[1:], n])


# Rows per block of ``label_ratio``'s gradient grid.
_GRID_ROWS = 64


def label_ratio(
    tape: Tape | None,
    a: Tensor,
    b: Tensor,
    pairs: LabelPairs,
    src_scale: np.ndarray,
    tgt_scale: np.ndarray,
    eps: float,
) -> Tensor:
    """Mean scaled distance over same-label pairs over that over different-label pairs.

    With D = ``pairwise_distances(a, b)`` (n x m), labels y and z of the
    rows of a and b (given as ``pairs``) and scales s and t, the value is

        [sum_ij D_ij s_i t_j [y_i = z_j] / n_same]
        / ([sum_ij D_ij s_i t_j [y_i != z_j] / n_diff] + eps),

    n_same and n_diff counting the pairs of each kind. That is ``ratio``
    over ``pairwise_distances`` with the weight grids s t^T [same] / n_same
    and s t^T [diff] / n_diff, in one node whose one n x m array is D. The
    forward takes one product D @ B, B the m x C one-hot of z scaled by
    t: row i's own-label column is its same-label sum and its other
    columns add up to its cross-label sum, so neither is a difference.
    The gradient grid s_i t_j (alpha [y_i = z_j] - beta [y_i != z_j]) is
    the rank-C product (s one-hot(y)) @ R^T with R_jc = t_j (alpha if
    z_j = c else -beta), where alpha = g / (den n_same),
    beta = g q / (den n_diff), g is the upstream gradient, q the value and
    den its denominator. Each entry has one nonzero term, so no digits
    cancel even when beta >> alpha, as they would in the rank-(C+1) form
    (alpha + beta) [y_i = z_j] - beta. Backward forms the grid in blocks
    of ``_GRID_ROWS`` rows and divides each into D's rows in place, so D
    becomes the grid over D that ``pairwise_distances``' rule would form,
    and the same code finishes both gradients: the values and gradients
    are those of ``pairwise_distances`` feeding the table-taking form of
    this op, bit for bit. Both kinds of pair must occur.
    """
    s = np.asarray(src_scale, dtype=np.float64)
    t = np.asarray(tgt_scale, dtype=np.float64)
    n, m = a.values.shape[0], b.values.shape[0]
    if pairs.src.shape[0] != n or s.shape != (n,) or pairs.tgt.shape[0] != m or t.shape != (m,):
        raise ShapeError(
            f"label_ratio: {n} x {m} pairs with {pairs.src.shape[0]} source labels, scales "
            f"{s.shape} and {pairs.tgt.shape[0]} target labels, scales {t.shape}"
        )
    n_same, n_diff = pairs.n_same, pairs.n_diff
    if n_same == 0 or n_diff == 0:
        raise ValueError(
            f"label_ratio: needs same- and different-label pairs, got {n_same} and {n_diff}"
        )
    dist, saved = _distances("label_ratio", a, b)
    src_weight = pairs.src * s[:, None]  # n x C: s_i in column y_i
    by_class = dist @ (pairs.tgt * t[:, None])  # n x C
    same_sum = np.vdot(src_weight, by_class)
    # s_i - s_i is exactly 0: these weights pick row i's other columns
    cross_sum = np.vdot(s[:, None] - src_weight, by_class)
    den = cross_sum / n_diff + eps
    q = same_sum / n_same / den

    def shares(g):
        c = g[0, 0]
        per_class = np.where(pairs.tgt.T, c / (den * n_same), -(c * q / (den * n_diff)))
        per_class *= t  # C x m: R^T
        grid = _empty((min(n, _GRID_ROWS + 1), m))
        for lo, hi in _row_blocks(n, _GRID_ROWS):
            block = np.matmul(src_weight[lo:hi], per_class, out=grid[:hi - lo])
            _over_distances(block, dist[lo:hi], dist[lo:hi], saved[2], lo)
        return _distance_shares(dist, saved)

    return _node(tape, np.array([[q]]), (a, b), shares)


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

    def shares(g):
        grad = np.zeros(x.values.shape)
        grad[rows, idx] = g[:, 0]
        return (grad,)

    return _node(tape, x.values[rows, idx].reshape(-1, 1), (x,), shares)


def split_rows(tape: Tape | None, x: Tensor, n: int) -> tuple[Tensor, Tensor]:
    """Rows ``[:n]`` and rows ``[n:]`` of ``x`` as two tensors, one node each.

    Both are views of ``x``'s values. Each view's share is an array of
    ``x``'s shape: the view's gradient in its own rows, zeros in the others.
    """
    rows = x.values.shape[0]
    if not 0 <= n <= rows:
        raise ShapeError(f"split_rows: cannot split {rows} rows at row {n}")

    def view(lo, hi):
        def shares(g):
            grad = _empty(x.values.shape)
            grad[lo:hi] = g
            grad[:lo] = grad[hi:] = 0.0
            return (grad,)

        return _node(tape, x.values[lo:hi], (x,), shares)

    return view(0, n), view(n, rows)


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

    def shares(g):
        per_row = -1.0 * g[0, 0] / n / clamped
        per_row *= mask
        grad = np.zeros(probs.values.shape)
        grad[rows, idx] = per_row[:, 0]
        return (grad,)

    return _node(tape, np.array([[-1.0 * mean + 0.0]]), (probs,), shares)


def binary_cross_entropy(tape: Tape | None, p: Tensor, n_neg: int, floor: float) -> Tensor:
    """-(mean log(1 - p[:n_neg]) + mean log(p[n_neg:])), each probability floored at ``floor``.

    ``p`` is one column of probabilities whose first ``n_neg`` rows are
    labelled 0 and the rest 1, with ``0 < n_neg < rows``. One node with
    the same scalar operations, in the same order, as the chain over the
    ``split_rows(p, n_neg)`` halves p_neg and p_pos,
    ``affine(add(mean_all(log(clamp_min(affine(p_neg, -1.0, 1.0), floor))),
    mean_all(log(clamp_min(p_pos, floor)))), -1.0)``; no gradient flows
    where the floor binds, and a NaN probability gives a NaN loss.
    """
    v = p.values
    if not 0 < n_neg < v.shape[0]:
        raise ShapeError(f"binary_cross_entropy: cannot split {v.shape[0]} rows at row {n_neg}")
    neg = -1.0 * v[:n_neg] + 1.0
    neg_mask = neg > floor
    neg = np.maximum(neg, floor)
    pos_mask = v[n_neg:] > floor
    pos = np.maximum(v[n_neg:], floor)
    if floor <= 0.0 and (np.any(neg <= 0.0) or np.any(pos <= 0.0)):
        raise ValueError("binary_cross_entropy: floored probabilities must be positive")
    terms = (np.add.reduce(np.log(neg), axis=None) / neg.size
             + np.add.reduce(np.log(pos), axis=None) / pos.size)

    def shares(g):
        c = -1.0 * g[0, 0]
        return (np.concatenate([-1.0 * (c / neg.size / neg * neg_mask),
                                c / pos.size / pos * pos_mask]),)

    return _node(tape, np.array([[-1.0 * terms + 0.0]]), (p,), shares)


def euclidean_distance(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Unsquared Euclidean distance between two same-shape tensors.

    At zero distance the gradient is taken as zero (the subgradient at the
    kink), so coincident points are safe.
    """
    _require_same_shape("euclidean_distance", a, b)
    diff = a.values - b.values
    dist = float(np.sqrt(np.add.reduce(diff * diff, axis=None)))

    def shares(g):
        if not dist > 0.0:  # NaN included: no share
            return None, None
        step = g[0, 0] * (diff / dist)
        return step, -step

    return _node(tape, np.array([[dist]]), (a, b), shares)


# A pair whose squared distance the Gram form gives as at most this
# fraction of |a_i|^2 + |b_j|^2 is recomputed from its explicit row
# difference. The Gram form's absolute error is about
# (2d + 3) * u * (|a_i|^2 + |b_j|^2), with u = 2**-53 the unit roundoff:
# d products in each dot product, two more additions. Above the cut a
# squared distance so keeps a relative error below (2d + 3) * u / _GRAM_RTOL
# and its square root half that: 1e-11 at d = 8, 2e-11 at d = 16.
_GRAM_RTOL = 1e-4


def _distances(op: str, a: Tensor, b: Tensor) -> tuple[np.ndarray, tuple]:
    """The n x m table of ``pairwise_distances(a, b)`` and what its backward needs.

    That is (ac, bc, near): the shifted rows, and None or the
    near-coincident pairs' (rows, cols, diff, exact, scaled), rows
    ascending, ``scaled`` zeros for ``_over_distances`` to fill.
    """
    av, bv = a.values, b.values
    (n, d), (m, d_b) = av.shape, bv.shape
    if d != d_b:
        raise ShapeError(f"{op}: feature dims differ, {av.shape} vs {bv.shape}")
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
    near = None
    if np.minimum.reduce(dist, axis=None, initial=np.inf) <= _GRAM_RTOL * (
        np.maximum.reduce(a2, initial=0.0) + np.maximum.reduce(b2, initial=0.0)
    ):
        rows, cols = np.nonzero(dist <= _GRAM_RTOL * (a2[:, None] + b2))
        diff = av[rows] - bv[cols]
        exact = np.sqrt(np.add.reduce(diff * diff, axis=1))
        dist[rows, cols] = 0.0
        near = rows, cols, diff, exact, np.zeros_like(exact)
    np.sqrt(dist, out=dist)
    if near is not None:
        dist[rows, cols] = exact
    return dist, (ac, bc, near)


def _over_distances(w: np.ndarray, dist: np.ndarray, out: np.ndarray, near,
                    lo: int = 0) -> None:
    """Write w / dist into ``out``, which may be ``w`` or ``dist``, for rows lo.. of a table.

    ``w`` is the gradient of those rows of ``_distances``' table ``dist``.
    Zero-distance pairs get 0, and so do the near-coincident pairs, whose
    w / exact goes into their entries of ``scaled`` (0 where exact is 0).
    """
    if near is None:
        np.divide(w, dist, out=out)
        return
    rows, cols, _, exact, scaled = near
    k0, k1 = np.searchsorted(rows, (lo, lo + w.shape[0]))
    r, c = rows[k0:k1] - lo, cols[k0:k1]
    np.divide(w[r, c], exact[k0:k1], out=scaled[k0:k1], where=exact[k0:k1] > 0.0)
    positive = dist > 0.0
    np.divide(w, dist, out=out, where=positive)
    out[~positive] = 0.0
    out[r, c] = 0.0


def _distance_shares(w_over: np.ndarray, saved: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The gradients into a and b of a distance table, given ``_over_distances``' table."""
    ac, bc, near = saved
    grad_a = ac * np.add.reduce(w_over, axis=1)[:, None]
    grad_a -= w_over @ bc
    grad_b = bc * np.add.reduce(w_over, axis=0)[:, None]
    grad_b -= w_over.T @ ac
    if near is not None:
        rows, cols, diff, _, scaled = near
        step = scaled[:, None] * diff
        np.add.at(grad_a, rows, step)
        np.subtract.at(grad_b, cols, step)
    return grad_a, grad_b


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
    dist, saved = _distances("pairwise_distances", a, b)

    def shares(w):
        _over_distances(w, dist, w, saved[2])
        return _distance_shares(w, saved)

    return _node(tape, dist, (a, b), shares)


def grad_reverse(tape: Tape | None, x: Tensor, coeff: float) -> Tensor:
    """Identity forward; backward multiplies the gradient by -coeff."""
    if coeff < 0.0:
        raise ValueError(f"grad_reverse: coeff must be >= 0, got {coeff}")
    return _node(tape, x.values.copy(), (x,), lambda g: (np.multiply(-coeff, g, out=g),))


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

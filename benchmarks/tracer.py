"""Span tracer that wraps shiftlab's public functions from the outside.

``install(tracer)`` rebinds every wrapped function in every loaded
``shiftlab`` module namespace (callers import names directly, so the
defining module is not enough) and patches a few class attributes. It
returns a ``Patches`` object whose ``restore()`` puts every original back.
Nothing inside ``src/`` is edited.

Spans nest: a span's self time is its duration minus the time covered by
the spans opened inside it. Per span name the tracer keeps the call count,
the inclusive time and the self time; for ``training.step`` it also keeps
every duration, for percentiles.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

# The 20 differentiable ops of shiftlab.autodiff.__all__.
OPS = (
    "matmul", "add_bias", "add", "sub", "mul", "div", "add_n", "affine",
    "scale_by", "relu", "sigmoid", "log", "clamp_min", "softmax", "sum_all",
    "mean_all", "gather_rows", "euclidean_distance", "pairwise_distances",
    "grad_reverse",
)

SAMPLED = ("training.step",)


class Tracer:
    """Aggregates nested spans by name; ``clock`` returns seconds."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self._stack: list[list[float]] = []  # child time covered, per open span
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.counters: Counter = Counter()
        self.current_op: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        covered = [0.0]
        self._stack.append(covered)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += elapsed
            st[2] += elapsed - covered[0]
            if name in self.samples:
                self.samples[name].append(elapsed)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]


class Patches:
    """Records (owner, attribute, original) and undoes them in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> int:
        """Replace ``original`` wherever a shiftlab module binds it."""
        hits = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "shiftlab" or name.startswith("shiftlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{getattr(original, '__qualname__', original)} is bound nowhere")
        return hits

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _span(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _op(tracer: Tracer, op: str, fn):
    name = f"autodiff.{op}"

    def wrapper(*args, **kwargs):
        tracer.current_op = op
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> Patches:
    """Wrap shiftlab's layer boundaries so calls report to ``tracer``."""
    patches = Patches()
    try:
        _install(tracer, patches)
    except BaseException:
        patches.restore()
        raise
    return patches


def _install(tracer: Tracer, patches: Patches) -> None:
    from shiftlab import autodiff, calibration, cli, data, experiments, losses, metrics
    from shiftlab import networks, training

    counters = tracer.counters

    for op in OPS:
        patches.rebind(getattr(autodiff, op), _op(tracer, op, getattr(autodiff, op)))
    patches.rebind(autodiff.sgd_step, _span(tracer, "autodiff.sgd", autodiff.sgd_step))

    tensor_init = autodiff.Tensor.__init__

    def counted_init(self, values):
        counters["tensors"] += 1
        tensor_init(self, values)

    patches.set(autodiff.Tensor, "__init__", counted_init)

    tape_record = autodiff.Tape.record

    def traced_record(self, rule):
        counters["tape_nodes"] += 1
        name = f"autodiff.{tracer.current_op}.bwd"
        tape_record(self, lambda: tracer.call(name, rule))

    patches.set(autodiff.Tape, "record", traced_record)
    patches.set(autodiff.Tape, "backward", _span(tracer, "autodiff.backward",
                                                 autodiff.Tape.backward))

    features = networks.features

    def traced_features(state, x, tape=None):
        name = "networks.features_infer" if tape is None else "networks.features_train"
        return tracer.call(name, features, state, x, tape)

    patches.rebind(features, traced_features)
    for fn, name in (
        (networks.classify, "networks.classify"),
        (networks.discriminate, "networks.discriminate"),
        (networks.save_checkpoint, "networks.save_checkpoint"),
        (losses.cross_entropy, "losses.cross_entropy"),
        (losses.domain_adversarial_loss, "losses.adversarial"),
        (losses.update_centroids, "losses.update_centroids"),
        (data.generate, "data.generate"),
        (calibration.calibrate, "calibration.calibrate"),
        (training.train_step, "training.step"),
        (training.run, "training.loop"),
        (experiments.run_single, "experiments.run_single"),
        (experiments.run_experiment, "experiments.driver"),
        (cli.main, "cli.main"),
    ):
        patches.rebind(fn, _span(tracer, name, fn))

    centroid = losses.centroid_alignment_loss

    def traced_centroid(tape, bank):
        counters["centroid_eligible"] += len(bank.eligible_classes())
        return tracer.call("losses.centroid", centroid, tape, bank)

    patches.rebind(centroid, traced_centroid)

    pairwise = losses.discriminative_alignment_loss

    def traced_pairwise(tape, batch_src, batch_tgt, diagnostics=None):
        before = sum(diagnostics.values()) if diagnostics is not None else 0
        try:
            return tracer.call("losses.pairwise", pairwise, tape, batch_src, batch_tgt,
                               diagnostics)
        finally:
            if diagnostics is not None:
                counters["pairwise_skipped"] += sum(diagnostics.values()) - before

    patches.rebind(pairwise, traced_pairwise)

    patches.set(data.BalancedSampler, "draw",
                _span(tracer, "data.sampler", data.BalancedSampler.draw))

    estimate = calibration.LabelShiftState.estimate.__func__
    patches.set(calibration.LabelShiftState, "estimate",
                classmethod(_span(tracer, "calibration.estimate", estimate)))

    make_audit_fn = metrics.make_audit_fn

    def traced_make_audit_fn(target):
        return _span(tracer, "metrics.audit", make_audit_fn(target))

    patches.rebind(make_audit_fn, traced_make_audit_fn)


def _metric(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


# Every per-layer metric a traced run reports, in BENCHMARK.json order. The
# ``*_ms`` times are per training call and include the layer's children,
# except the ``*_self_ms`` ones; ``fwd_us``/``bwd_us`` are means per call.
PER_LAYER = (
    [
        _metric("autodiff.backward_ms", "ms"),
        _metric("autodiff.sgd_ms", "ms"),
        _metric("autodiff.tape_nodes_per_step", "count"),
        _metric("autodiff.tensors_per_step", "count"),
    ]
    + [
        _metric(f"autodiff.{op}.{field}", unit)
        for op in OPS
        for field, unit in (("calls", "count"), ("fwd_us", "us"), ("bwd_us", "us"))
    ]
    + [
        _metric("networks.features_train_ms", "ms"),
        _metric("networks.features_infer_ms", "ms"),
        _metric("networks.classify_ms", "ms"),
        _metric("networks.discriminate_ms", "ms"),
        _metric("networks.save_checkpoint_ms", "ms"),
        _metric("losses.update_centroids_ms", "ms"),
        _metric("losses.centroid_ms", "ms"),
        _metric("losses.centroid_eligible_mean", "count", "higher"),
        _metric("losses.pairwise_ms", "ms"),
        _metric("losses.pairwise_skipped", "count"),
        _metric("losses.cross_entropy_ms", "ms"),
        _metric("losses.adversarial_ms", "ms"),
        _metric("data.sampler_ms", "ms"),
        _metric("data.sampler_calls", "count"),
        _metric("data.generate_ms", "ms"),
        _metric("calibration.calibrate_ms", "ms"),
        _metric("calibration.calibrate_calls", "count"),
        _metric("calibration.estimate_ms", "ms"),
        _metric("calibration.calibrated_fraction", "ratio", "higher"),
        _metric("metrics.audit_ms", "ms"),
        _metric("training.step_ms_p50", "ms"),
        _metric("training.step_ms_p95", "ms"),
        _metric("training.loop_self_ms", "ms"),
        _metric("experiments.run_single_self_ms", "ms"),
        _metric("experiments.driver_self_ms", "ms"),
        _metric("cli.main_self_ms", "ms"),
        _metric("trace.run_s", "s"),
        _metric("trace.untraced_run_s", "s"),
        _metric("trace.overhead_frac", "ratio"),
    ]
)

# Counts that must repeat exactly from one traced call to the next.
EXACT = tuple(
    m["name"] for m in PER_LAYER
    if m["unit"] == "count" or m["name"] == "calibration.calibrated_fraction"
)

_INCLUSIVE_MS = {
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.sgd_ms": "autodiff.sgd",
    "networks.features_train_ms": "networks.features_train",
    "networks.features_infer_ms": "networks.features_infer",
    "networks.classify_ms": "networks.classify",
    "networks.discriminate_ms": "networks.discriminate",
    "networks.save_checkpoint_ms": "networks.save_checkpoint",
    "losses.update_centroids_ms": "losses.update_centroids",
    "losses.centroid_ms": "losses.centroid",
    "losses.pairwise_ms": "losses.pairwise",
    "losses.cross_entropy_ms": "losses.cross_entropy",
    "losses.adversarial_ms": "losses.adversarial",
    "data.sampler_ms": "data.sampler",
    "data.generate_ms": "data.generate",
    "calibration.calibrate_ms": "calibration.calibrate",
    "calibration.estimate_ms": "calibration.estimate",
    "metrics.audit_ms": "metrics.audit",
}
_SELF_MS = {
    "training.loop_self_ms": "training.loop",
    "experiments.run_single_self_ms": "experiments.run_single",
    "experiments.driver_self_ms": "experiments.driver",
    "cli.main_self_ms": "cli.main",
}


def layer_metrics(tracer: Tracer, steps: int, calibrated_fraction: float | None) -> dict:
    """Per-layer metrics of one traced training call of ``steps`` SGD steps.

    The step percentiles and the ``trace.*`` metrics need several calls;
    run.py adds them.
    """
    out = {
        "autodiff.tape_nodes_per_step": tracer.counters["tape_nodes"] / steps,
        "autodiff.tensors_per_step": tracer.counters["tensors"] / steps,
    }
    for op in OPS:
        calls = tracer.calls(f"autodiff.{op}")
        runs = tracer.calls(f"autodiff.{op}.bwd")
        out[f"autodiff.{op}.calls"] = calls
        fwd_s = tracer.inclusive_s(f"autodiff.{op}")
        bwd_s = tracer.inclusive_s(f"autodiff.{op}.bwd")
        out[f"autodiff.{op}.fwd_us"] = fwd_s / calls * 1e6 if calls else 0.0
        out[f"autodiff.{op}.bwd_us"] = bwd_s / runs * 1e6 if runs else 0.0
    for metric, span in _INCLUSIVE_MS.items():
        out[metric] = tracer.inclusive_s(span) * 1e3
    for metric, span in _SELF_MS.items():
        out[metric] = tracer.self_s(span) * 1e3
    centroid_calls = tracer.calls("losses.centroid")
    out["losses.centroid_eligible_mean"] = (
        tracer.counters["centroid_eligible"] / centroid_calls if centroid_calls else 0.0
    )
    out["losses.pairwise_skipped"] = tracer.counters["pairwise_skipped"]
    out["data.sampler_calls"] = tracer.calls("data.sampler")
    out["calibration.calibrate_calls"] = tracer.calls("calibration.calibrate")
    out["calibration.calibrated_fraction"] = calibrated_fraction
    return out

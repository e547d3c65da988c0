"""Tests of the benchmark's span tracer and its patching of shiftlab.

Run from the repository root: python3 -m pytest benchmarks/tests -q
"""
from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "src")]

import shiftlab.cli  # noqa: E402  (install() patches the CLI too)
import tracer as tr  # noqa: E402
from worker import train_once  # noqa: E402
from workloads import make_config, sgd_steps  # noqa: E402


class FakeClock:
    """A clock that moves only when a test advances ``now``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_child_coverage():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    def middle():
        clock.now += 1.0
        tracer.call("leaf", leaf, 2.0)
        clock.now += 0.5
        tracer.call("leaf", leaf, 3.0)

    def outer():
        clock.now += 4.0
        tracer.call("middle", middle)

    tracer.call("outer", outer)

    assert tracer.calls("leaf") == 2
    assert tracer.inclusive_s("leaf") == 5.0
    assert tracer.self_s("leaf") == 5.0
    assert tracer.inclusive_s("middle") == 6.5
    assert tracer.self_s("middle") == 1.5
    assert tracer.inclusive_s("outer") == 10.5
    assert tracer.self_s("outer") == 4.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        clock.now += 2.0
        with pytest.raises(ValueError):
            tracer.call("boom", boom)

    tracer.call("outer", outer)
    assert tracer.calls("boom") == 1
    assert tracer.self_s("outer") == 2.0


def _bindings() -> dict:
    """Every attribute of every shiftlab module and class the tracer touches."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "shiftlab" or name.startswith("shiftlab."))]
    owners += [shiftlab.Tensor, shiftlab.Tape, shiftlab.BalancedSampler, shiftlab.LabelShiftState]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


def test_every_wrapped_function_is_restored():
    before = _bindings()
    patches = tr.install(tr.Tracer())
    during = _bindings()
    patches.restore()
    after = _bindings()

    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) > 40
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_failed_install_restores_what_it_patched(monkeypatch):
    before = _bindings()
    real_rebind = tr.Patches.rebind

    def rebind(self, original, replacement):
        if original is shiftlab.cli.main:
            raise LookupError("simulated")
        return real_rebind(self, original, replacement)

    monkeypatch.setattr(tr.Patches, "rebind", rebind)
    with pytest.raises(LookupError):
        tr.install(tr.Tracer())
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def _tiny_config(tmp_path) -> tuple[str, int]:
    doc = make_config("full_std", 3)
    doc["data"]["max_class_size"] = 40
    doc["train"].update(epochs=4, batch_size=20)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return str(path), sgd_steps(doc)


def test_traced_counts_repeat_and_cover_every_layer_metric(tmp_path):
    config, steps = _tiny_config(tmp_path)
    tracer = tr.Tracer()
    runs = []
    for _ in range(2):
        tracer.reset()
        patches = tr.install(tracer)
        try:
            call = train_once(config, str(tmp_path / "out"))
        finally:
            patches.restore()
        assert call["rc"] == 0
        runs.append(tr.layer_metrics(tracer, steps, call["calibrated_fraction"]))

    added_by_run = {m["name"] for m in tr.PER_LAYER
                    if m["name"].startswith(("trace.", "training.step_ms"))}
    assert set(runs[0]) == {m["name"] for m in tr.PER_LAYER} - added_by_run
    for name in tr.EXACT:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["autodiff.pairwise_distances.calls"] > 0
    assert runs[0]["networks.features_train_ms"] > 0.0

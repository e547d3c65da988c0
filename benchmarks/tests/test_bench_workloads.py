"""Tests of the benchmark's workload configs, checks and BENCHMARK.json.

Run from the repository root: python3 -m pytest benchmarks/tests -q
"""
from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "src")]

import run  # noqa: E402
from shiftlab import parse_config  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, anchor_config, load_reference, make_config, sgd_steps  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_configs_are_deterministic_in_the_seed(workload):
    assert make_config(workload, 7) == make_config(workload, 7)
    a, b = make_config(workload, 7), make_config(workload, 8)
    assert a["data"].pop("seed") == 7 and b["data"].pop("seed") == 8
    assert a.pop("seeds") == [7] and b.pop("seeds") == [8]
    assert a == b
    parse_config(make_config(workload, 7))  # shiftlab accepts it


def test_anchor_is_the_readme_standard_benchmark_at_seed_100():
    doc = anchor_config("full_std")
    assert doc["data"]["seed"] == 9 and doc["seeds"] == [100]
    assert doc["data"]["max_class_size"] == 300 and doc["data"]["imbalance_factor"] == 10
    assert doc["model"]["hidden_dims"] == [128, 128] and doc["train"] == {"grl_schedule": True}


def test_workload_sizes():
    assert sgd_steps(make_config("full_std", 1)) == 260
    assert sgd_steps(make_config("source_only_std", 1)) == 260
    assert sgd_steps(make_config("full_wide", 1)) == 3 * 9


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert doc["per_layer"] == PER_LAYER
    assert {m["name"] for m in doc["end_to_end"]} == {"run_s", "steps_per_s", "setup_s",
                                                      "peak_rss_mb"}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_reference_covers_every_workload_and_the_readme_accuracy():
    ref = load_reference()
    assert set(ref["workloads"]) == set(WORKLOADS)
    assert ref["workloads"]["full_std"]["anchor"]["target_acc"] == 0.699228994670443


def _call(**overrides) -> dict:
    call = {"rc": 0, "finite": True, "target_acc": 0.70}
    call.update(overrides)
    return call


def test_judge_counts_each_failure_kind():
    expected = {"target_acc": 0.70}
    assert run.judge(_call(), expected, 0.5, 0.03) is None
    assert "exited 2" in run.judge(_call(rc=2), expected, 0.5, 0.03)
    assert "non-finite" in run.judge(_call(finite=False), expected, 0.5, 0.03)
    assert "differs" in run.judge(_call(target_acc=0.66), expected, 0.5, 0.03)
    assert run.judge(_call(target_acc=0.55), None, 0.5, 0.03) is None
    assert "floor" in run.judge(_call(target_acc=0.45), None, 0.5, 0.03)
    assert "floor" in run.judge(_call(target_acc=float("nan")), None, 0.5, 0.03)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "full_std", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_a_uniformly_slower_machine_leaves_reference_speed_times_unchanged():
    fast = {"seconds": 1.2, "probe_s": 0.06}
    slow = {"seconds": 1.2 * 1.6, "probe_s": 0.06 * 1.6}
    assert run.at_reference_speed(fast) == pytest.approx(run.at_reference_speed(slow))
    assert run.at_reference_speed({"seconds": 1.0, "probe_s": run.PROBE_REF_S}) == 1.0

"""shiftlab benchmark: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload full_std --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports shiftlab from ./src. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
split (see benchmarks/README.md). Every child process runs with one BLAS
thread. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it record
the environment and the correctness checks.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import EXACT, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, anchor_config, load_reference, make_config  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 170.0
# Median speed-probe time on the reference machine (2-vCPU Intel Xeon VM)
# when the benchmark was defined; times are reported at that speed.
PROBE_REF_S = 0.0162
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def source_identity(root: str) -> dict:
    """The git commit when ``root`` is a git work tree, and a digest of src/shiftlab."""
    commit = None
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), "r", encoding="utf-8") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "shiftlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def _child(cmd: list[str], env: dict, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {timeout:.0f} s: {cmd[2:4]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {cmd[2:4]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def judge(call: dict, expected: dict | None, floor: float, tolerance: float) -> str | None:
    """Why one training call failed, or None when it passed."""
    if call["rc"] != 0:
        return f"shiftlab train exited {call['rc']}"
    if not call["finite"]:
        return "non-finite loss in epoch_records.jsonl"
    acc = call["target_acc"]
    if expected is not None and abs(acc - expected["target_acc"]) > tolerance:
        return f"target_acc {acc} differs from reference {expected['target_acc']} by > {tolerance}"
    if expected is None and not acc >= floor:
        return f"target_acc {acc} is below the reference floor {floor}"
    return None


def at_reference_speed(call: dict) -> float:
    """A call's wall time rescaled by the speed probe timed just before it."""
    return call["seconds"] * PROBE_REF_S / call["probe_s"]


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values over the traced calls, and any count that did not repeat."""
    values, unstable = {}, []
    for metric in (m["name"] for m in PER_LAYER):
        if metric.startswith(("trace.", "training.step_ms")):
            continue
        seen = [c["layers"][metric] for c in traced]
        if metric in EXACT:
            if len(set(seen)) != 1:
                unstable.append(f"{metric}: {seen}")
            values[metric] = seen[0]
        else:
            values[metric] = statistics.median(seen)
    steps = [s * 1e3 for c in traced for s in c["step_s"]]
    values["training.step_ms_p50"] = statistics.median(steps)
    values["training.step_ms_p95"] = statistics.quantiles(steps, n=20)[18]
    traced_s = statistics.median(at_reference_speed(c) for c in traced)
    untraced_s = statistics.median(at_reference_speed(c) for c in untraced)
    values["trace.run_s"] = traced_s
    values["trace.untraced_run_s"] = untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return values, unstable


def bench(args, root: str) -> tuple[dict, dict, dict, dict]:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_ENV)
    # Imports read cached bytecode after the first set-up sample, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        anchor_path = os.path.join(work, "anchor.json")
        config_path = os.path.join(work, "config.json")
        for path, doc in ((anchor_path, anchor_config(args.workload)),
                          (config_path, make_config(args.workload, args.seed))):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

        setup_s = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                out = _child([sys.executable, WORKER, "setup", "--config", config_path],
                             env, deadline)
                setup_s.append(json.loads(out.splitlines()[-1])["setup_s"])

        result_path = os.path.join(work, "result.json")
        _child([sys.executable, WORKER, "train", "--anchor", anchor_path,
                "--config", config_path, "--work", work, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--result", result_path], env, deadline)
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it, or it was never created

    reference = load_reference()
    ref = reference["workloads"][args.workload]
    tolerance = reference["acc_tolerance"]
    seed_ref = ref["seeds"].get(str(args.seed))
    seed_calls = result["untraced"] + result["traced"]

    labelled = [("anchor", result["anchor"], ref["anchor"])]
    labelled += [(f"call {i}", c, seed_ref) for i, c in enumerate(seed_calls)]
    failures = []
    for label, call, expected in labelled:
        call["failure"] = judge(call, expected, ref["acc_floor"], tolerance)
        deterministic = label == "anchor" or call["digest"] == seed_calls[0]["digest"]
        if call["failure"] is None and not deterministic:
            call["failure"] = "epoch_records.jsonl differs from the run's first call"
        if call["failure"]:
            failures.append(f"{label}: {call['failure']}")
    failed = len(failures)
    good_untraced = [c for c in result["untraced"] if not c["failure"]]
    good_traced = [c for c in result["traced"] if not c["failure"]]
    if not good_untraced or (args.trace and not good_traced):
        raise BenchError(f"no training call succeeded: {failures[:3]}")

    check = {
        "anchor": {
            "target_acc": result["anchor"]["target_acc"],
            "reference_acc": ref["anchor"]["target_acc"],
            "trace_matches_reference": result["anchor"]["digest"] == ref["anchor"]["digest"],
        },
        "seed": {
            "target_acc": seed_calls[0]["target_acc"],
            "reference_acc": seed_ref["target_acc"] if seed_ref else None,
            "acc_floor": None if seed_ref else ref["acc_floor"],
            "trace_matches_reference": (seed_calls[0]["digest"] == seed_ref["digest"]
                                        if seed_ref else None),
        },
        "failures": failures,
    }
    steps = result["steps"]
    probe_s = [c["probe_s"] for c in good_untraced]
    timings = {"call_s": [c["seconds"] for c in good_untraced], "probe_s": probe_s,
               "setup_s": setup_s}
    if args.trace:
        metrics, unstable = layer_metrics(good_traced, good_untraced)
        if unstable:
            failures.append("traced counts differ between traced calls: " + "; ".join(unstable))
        units = {m["name"]: m["unit"] for m in PER_LAYER}
    else:
        scaled = [at_reference_speed(c) for c in good_untraced]
        metrics = {
            "run_s": statistics.median(scaled),
            "steps_per_s": statistics.median(steps / s for s in scaled),
            "setup_s": statistics.median(setup_s) * PROBE_REF_S / statistics.median(probe_s),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"run_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

    env_doc = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        sgd_steps=steps, run_samples=len(good_untraced), traced_samples=len(result["traced"]),
        setup_samples=len(setup_s), **source_identity(root), **result["env"],
    )
    summary = {
        "correct": not failures,
        "attempted": 1 + len(seed_calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return env_doc, check, timings, summary


def _terminate(signum, frame):
    # Exit through the normal unwinding, so subprocess.run kills and reaps the child.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shiftlab", "cli.py")):
        print("benchmark: no shiftlab source at ./src/shiftlab; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        env_doc, check, timings, summary = bench(args, root)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env_doc))
    print("check " + json.dumps(check))
    print("timings " + json.dumps(timings))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

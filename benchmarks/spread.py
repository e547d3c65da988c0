"""Run the benchmark on many seeds and summarise each metric's spread.

    python3 benchmarks/spread.py --seeds 1-10 [--workloads full_std,full_wide]
                                 [--seconds 20] [--trace 0] [--out FILE]

Run from the repository root. Runs are sequential. For every workload and
metric it prints the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json. ``--out`` also writes every
run's result line and its env, check and timings lines as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1]) for line in lines[:-1]}
    return {"seed": seed, "result": json.loads(lines[-1]), **tagged}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None, "values": values}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range LO-HI")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds, args.trace) for seed in _seeds(args.seeds)]
        summary = summarise(runs)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        bad = [r["seed"] for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
        print(f"{workload}: {len(runs)} runs, not correct on seeds {bad}" if bad
              else f"{workload}: {len(runs)} runs, all correct")
        for name, s in summary.items():
            if args.trace and name not in ("trace.run_s", "trace.overhead_frac"):
                continue
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {spread}  bound {bounds.get(name, '-')}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

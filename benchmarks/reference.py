"""Record the reference answers the benchmark checks every run against.

    python3 benchmarks/reference.py [--seeds 0-127]

Run from the repository root at the commit whose behaviour is the
reference. For every workload it trains the anchor config and each listed
seed once, with one BLAS thread, and writes benchmarks/reference.json:
the per-class mean target accuracy and the sha256 of epoch_records.jsonl
for each, plus an accuracy floor for seeds outside the table (the lowest
accuracy seen, minus ``FLOOR_MARGIN``).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads BLAS
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from worker import environment, train_once  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, anchor_config, make_config  # noqa: E402

# A reference seed passes while its accuracy stays this close to the table.
ACC_TOLERANCE = 0.03
FLOOR_MARGIN = 0.1


def reference_for(workload: str, seeds: list[int], work: str) -> dict:
    def answer(doc: dict) -> dict:
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        call = train_once(path, os.path.join(work, "out"))
        if call["rc"] != 0 or not call["finite"]:
            raise RuntimeError(f"{workload} {doc['data']['seed']}/{doc['seeds']}: {call}")
        return {"target_acc": call["target_acc"], "digest": call["digest"]}

    table = {str(seed): answer(make_config(workload, seed)) for seed in seeds}
    lowest = min(entry["target_acc"] for entry in table.values())
    return {
        "anchor": answer(anchor_config(workload)),
        "acc_floor": round(lowest - FLOOR_MARGIN, 3),
        "seeds": table,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-127", help="inclusive range LO-HI")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    logging.disable(logging.CRITICAL)
    work = os.path.join(os.getcwd(), ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(work)
    try:
        doc = {
            "acc_tolerance": ACC_TOLERANCE,
            "env": environment(),
            "workloads": {w: reference_for(w, list(range(lo, hi + 1)), work) for w in WORKLOADS},
        }
    finally:
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

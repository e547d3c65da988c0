"""Child process of the benchmark; ``run.py`` starts a fresh one per sample.

    python3 benchmarks/worker.py setup --config CFG
        Time importing shiftlab, parsing CFG, ``generate`` and ``init_model``;
        print {"setup_s": ...}.

    python3 benchmarks/worker.py train --anchor CFG --config CFG --work DIR
                                       --seconds S --trace 0|1 --result FILE
        Train once on the anchor config (the dropped warm-up), then call
        ``shiftlab.cli.main(["train", ...])`` on CFG until S seconds have
        passed, timing the speed probe before every call. With --trace 1,
        untraced and traced calls alternate. Write the facts about every
        call to FILE; run.py judges them.

Only the standard library is imported before the set-up timer starts.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

MIN_CALLS = 3
MIN_TRACED_CALLS = 2
# About 15 ms. The machine's speed holds over a tenth of a second and wanders
# between calls seconds apart; probes of 8 ms and 80 ms tracked it equally
# well, so a short probe leaves more of the run for training calls.
PROBE_REPS = 30
LOSS_FIELDS = ("loss_class", "loss_adversarial", "loss_centroid", "loss_pairwise")


def make_probe():
    """A timer of fixed NumPy work shaped like one small training step.

    It runs no shiftlab code, so its time measures how fast the machine is
    running at that moment; run.py divides each measured time by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 10))
    w1, w2, w3 = (rng.standard_normal(shape) for shape in ((10, 128), (128, 128), (128, 8)))

    def probe() -> float:
        start = time.perf_counter()
        for _ in range(PROBE_REPS):
            h1 = x @ w1
            a1 = np.where(h1 > 0, h1, 0.0)
            h2 = a1 @ w2
            a2 = np.where(h2 > 0, h2, 0.0)
            f = a2 @ w3
            diff = f[:, None, :] - f[None, :, :]
            np.sqrt((diff * diff).sum(axis=2))
            g2 = (np.ones_like(f) @ w3.T) * (h2 > 0)
            g1 = (g2 @ w2.T) * (h1 > 0)
            x.T @ g1, a1.T @ g2
            [np.zeros_like(w1) for _ in range(5)]
        return time.perf_counter() - start

    return probe


def setup(config_path: str) -> dict:
    start = time.perf_counter()
    import shiftlab

    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = shiftlab.parse_config(json.load(fh))
    shiftlab.generate(cfg.data)
    shiftlab.init_model(cfg.model, cfg.seeds[0])
    return {"setup_s": time.perf_counter() - start}


def train_once(config_path: str, out_dir: str) -> dict:
    """One ``shiftlab train`` call through the CLI, timed, plus what it wrote."""
    from shiftlab import cli

    with open(config_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        rc = cli.main(["train", "--config", config_path, "--out", out_dir])
    seconds = time.perf_counter() - start

    call = {"rc": rc, "seconds": seconds, "target_acc": None, "digest": None,
            "finite": False, "calibrated_fraction": None}
    if rc == 0:
        call["target_acc"] = json.loads(printed.getvalue().splitlines()[-1])["mean_accuracy"]
        path = os.path.join(out_dir, "runs", f"seed{doc['seeds'][0]}", "epoch_records.jsonl")
        with open(path, "rb") as fh:
            raw = fh.read()
        records = [json.loads(line) for line in raw.splitlines()]
        call["digest"] = hashlib.sha256(raw).hexdigest()
        call["finite"] = all(math.isfinite(r[k]) for r in records for k in LOSS_FIELDS)
        call["calibrated_fraction"] = records[-1]["calibrated_fraction"] if records else None
    shutil.rmtree(out_dir, ignore_errors=True)
    return call


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # NumPy without mode="dicts"
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def train(args) -> dict:
    import tracer as tr
    from workloads import sgd_steps

    with open(args.config, "r", encoding="utf-8") as fh:
        steps = sgd_steps(json.load(fh))
    out_dir = os.path.join(args.work, "out")
    result = {"steps": steps, "anchor": train_once(args.anchor, out_dir),
              "untraced": [], "traced": []}

    probe = make_probe()
    probe()
    tracer = tr.Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        probe_s = probe()
        result["untraced"].append(dict(train_once(args.config, out_dir), probe_s=probe_s))
        if args.trace:
            tracer.reset()
            probe_s = probe()
            patches = tr.install(tracer)
            try:
                call = dict(train_once(args.config, out_dir), probe_s=probe_s)
            finally:
                patches.restore()
            call["layers"] = tr.layer_metrics(tracer, steps, call["calibrated_fraction"])
            call["step_s"] = tracer.samples["training.step"]
            result["traced"].append(call)
        enough = len(result["untraced"]) >= MIN_CALLS and (
            not args.trace or len(result["traced"]) >= MIN_TRACED_CALLS)
        if enough and time.perf_counter() >= deadline:
            break

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = parser.add_subparsers(dest="mode", required=True)
    st = modes.add_parser("setup")
    st.add_argument("--config", required=True)
    tn = modes.add_parser("train")
    tn.add_argument("--anchor", required=True)
    tn.add_argument("--config", required=True)
    tn.add_argument("--work", required=True)
    tn.add_argument("--seconds", type=float, required=True)
    tn.add_argument("--trace", type=int, choices=(0, 1), required=True)
    tn.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        print(json.dumps(setup(args.config)))
        return 0
    result = train(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

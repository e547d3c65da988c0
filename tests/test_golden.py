"""Golden traces: three runs' epoch records stay as committed.

Each case is README's standard config, ``data/standard.json``, with a few
``--set`` overrides and one training seed:

- ``standard``: the config as it is, at seed 100, against
  ``data/golden_epoch_records.jsonl``.
- ``source_only``: every ablation flag off, seed 100, against
  ``data/golden_source_only.jsonl``. Its step skips the discriminator,
  both alignment losses and ``split_rows``.
- ``full_wide``: the benchmark's ``full_wide`` workload at data seed 2
  and seed 5, batch 400 for 3 epochs, against
  ``data/golden_full_wide.jsonl``. Only this case runs ``label_ratio``'s
  backward in more than one block. Its bits depend on the BLAS thread
  count.

Every case trains through ``shiftlab train`` in a subprocess with every
BLAS thread variable set to 1, so no trace depends on the thread count
of the process that runs the test.

Rerunning a case must reproduce its trace: every field exactly, except
the four loss means, which may differ from the golden values by a
relative ``LOSS_RTOL``. A refactor that reorders a floating-point sum
(a matrix product in place of a loop of vector products, say) moves their
last bits and nothing else.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import STANDARD_JSON

HERE = pathlib.Path(__file__).parent
LOSS_FIELDS = ("loss_class", "loss_adversarial", "loss_centroid", "loss_pairwise")
LOSS_RTOL = 1e-9
ABLATION_FLAGS = ("domain_adversarial", "centroid_alignment", "discriminative_alignment",
                  "label_shift_calibration")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# case -> (overrides of data/standard.json, training seed, golden trace)
CASES = {
    "standard": ([], 100, "golden_epoch_records.jsonl"),
    "source_only": ([f"ablation.{flag}=false" for flag in ABLATION_FLAGS], 100,
                    "golden_source_only.jsonl"),
    "full_wide": (["data.max_class_size=1500", "data.seed=2", "train.batch_size=400",
                   "train.epochs=3", "train.pretrain_epochs=1"], 5,
                  "golden_full_wide.jsonl"),
}


def test_standard_config_is_the_readme_quickstart():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"cat > benchmark\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    assert json.loads(block) == json.loads(STANDARD_JSON.read_text(encoding="utf-8"))


def _records_at_one_blas_thread(overrides: list[str], seed: int, out: pathlib.Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               **{name: "1" for name in BLAS_THREADS})
    argv = ["train", "--config", str(STANDARD_JSON), "--seed", str(seed), "--out", str(out),
            *(f"--set={setting}" for setting in overrides)]
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from shiftlab.cli import main; sys.exit(main())",
         *argv], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    trace = out / "runs" / f"seed{seed}" / "epoch_records.jsonl"
    return [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("case", list(CASES))
def test_run_matches_golden_trace(case, tmp_path):
    overrides, seed, golden_name = CASES[case]
    got = _records_at_one_blas_thread(overrides, seed, tmp_path / "run")
    golden_text = (HERE / "data" / golden_name).read_text(encoding="utf-8")
    golden = [json.loads(line) for line in golden_text.splitlines()]

    assert len(got) == len(golden)
    for rec, ref in zip(got, golden):
        assert rec.keys() == ref.keys()
        for key, value in ref.items():
            if key in LOSS_FIELDS:
                np.testing.assert_allclose(rec[key], value, rtol=LOSS_RTOL, atol=0.0,
                                           err_msg=f"epoch {ref['epoch']} {key}")
            else:
                assert rec[key] == value, f"epoch {ref['epoch']} {key}"

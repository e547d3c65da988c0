"""Golden trace: the standard benchmark's epoch records stay as committed.

``data/golden_epoch_records.jsonl`` is ``epoch_records.jsonl`` of the
README standard config, ``data/standard.json``, at training seed 100.
Rerunning that config must reproduce it: every field exactly, except the
four loss means, which may differ from the golden values by a relative
``LOSS_RTOL``. A refactor that reorders a floating-point sum
(a matrix product in place of a loop of vector products, say) moves their
last bits and nothing else.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re

import numpy as np

from shiftlab import generate, make_audit_fn, run

from conftest import STANDARD_JSON, standard_config

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "data" / "golden_epoch_records.jsonl"
LOSS_FIELDS = ("loss_class", "loss_adversarial", "loss_centroid", "loss_pairwise")
LOSS_RTOL = 1e-9


def test_standard_config_is_the_readme_quickstart():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"cat > benchmark\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    assert json.loads(block) == json.loads(STANDARD_JSON.read_text(encoding="utf-8"))


def test_standard_benchmark_matches_golden_trace():
    cfg = standard_config()
    src, tgt = generate(cfg.data)
    _, records, _ = run(
        src, tgt, dataclasses.replace(cfg.train, seed=100), cfg.model,
        audit_fn=make_audit_fn(tgt),
    )
    golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    got = [r.to_dict() for r in records]

    assert len(got) == len(golden)
    for rec, ref in zip(got, golden):
        assert rec.keys() == ref.keys()
        for key, value in ref.items():
            if key in LOSS_FIELDS:
                np.testing.assert_allclose(rec[key], value, rtol=LOSS_RTOL, atol=0.0,
                                           err_msg=f"epoch {ref['epoch']} {key}")
            else:
                assert rec[key] == value, f"epoch {ref['epoch']} {key}"

"""Golden trace: the standard benchmark's epoch records stay as committed.

``data/golden_epoch_records.jsonl`` is ``epoch_records.jsonl`` of the
README standard config with ``grl_schedule`` on, data seed 9 and training
seed 100. Rerunning that config must reproduce it: every field exactly,
except the four loss means, which may differ from the golden values by a
relative ``LOSS_RTOL``. A refactor that reorders a floating-point sum
(a matrix product in place of a loop of vector products, say) moves their
last bits and nothing else.
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np

from shiftlab import ModelConfig, ShiftSpec, TrainConfig, generate, make_audit_fn, run

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_epoch_records.jsonl"
LOSS_FIELDS = ("loss_class", "loss_adversarial", "loss_centroid", "loss_pairwise")
LOSS_RTOL = 1e-9


def test_standard_benchmark_matches_golden_trace():
    spec = ShiftSpec(
        num_classes=5,
        feature_dim=10,
        max_class_size=300,
        imbalance_factor=10,
        target_order=[4, 3, 2, 1, 0],
        rotation_angle=math.pi / 6,
        seed=9,
    )
    model_cfg = ModelConfig(
        input_dim=10,
        num_classes=5,
        hidden_dims=[128, 128],
        bottleneck_dim=8,
        discriminator_hidden_dims=[32],
    )
    src, tgt = generate(spec)
    _, records, _ = run(
        src, tgt, TrainConfig(seed=100, grl_schedule=True), model_cfg,
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

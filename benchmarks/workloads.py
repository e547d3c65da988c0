"""Workload definitions and the configs the benchmark feeds to ``shiftlab train``.

Every workload is the README standard benchmark with a few fields changed.
The workload seed is written into ``data.seed`` and ``seeds``, so one seed
fixes the drawn data, the initialisation, the sampler and the shuffles.

Each run also trains once on the *anchor* config: the README config with
data seed 9 and training seed 100. Its accuracy and trace digest are known
at the commit that defined the benchmark, whatever seed the run was given,
so every run checks the program against one fixed answer.
"""
from __future__ import annotations

import copy
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

ANCHOR_DATA_SEED = 9
ANCHOR_SEED = 100

_STD_DATA = {
    "num_classes": 5,
    "feature_dim": 10,
    "max_class_size": 300,
    "imbalance_factor": 10,
    "target_order": [4, 3, 2, 1, 0],
    "rotation_angle": math.pi / 6,
}
_STD_MODEL = {
    "input_dim": 10,
    "num_classes": 5,
    "hidden_dims": [128, 128],
    "bottleneck_dim": 8,
    "discriminator_hidden_dims": [32],
}
_ALL_OFF = {
    "domain_adversarial": False,
    "centroid_alignment": False,
    "discriminative_alignment": False,
    "label_shift_calibration": False,
}

# name -> (why, overrides of the standard config's data / train / ablation)
WORKLOADS = {
    "full_std": (
        "the paper's unit of work: full method on the standard benchmark, "
        "260 small steps bound by tape and allocation overhead",
        {"data": {}, "train": {"grl_schedule": True}, "ablation": {}},
    ),
    "source_only_std": (
        "same data with every adaptation component off: bypasses the "
        "discriminator, both alignment losses, the centroid bank and calibration",
        {"data": {}, "train": {"grl_schedule": True}, "ablation": _ALL_OFF},
    ),
    "full_wide": (
        "full method on a 5x larger draw with batch 400: arithmetic-bound, "
        "dominated by the n x m x d pairwise-distance intermediate",
        {
            "data": {"max_class_size": 1500},
            "train": {"grl_schedule": True, "batch_size": 400, "epochs": 3,
                      "pretrain_epochs": 1},
            "ablation": {},
        },
    ),
}


def make_config(workload: str, seed: int, data_seed: int | None = None) -> dict:
    """The ``shiftlab train`` config document for one workload and seed.

    ``data_seed`` defaults to ``seed``; the anchor config passes 9.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    overrides = WORKLOADS[workload][1]
    data = dict(copy.deepcopy(_STD_DATA), **overrides["data"])
    data["seed"] = seed if data_seed is None else data_seed
    return {
        "name": workload,
        "data": data,
        "model": copy.deepcopy(_STD_MODEL),
        "train": dict(overrides["train"]),
        "ablation": dict(overrides["ablation"]),
        "seeds": [seed],
    }


def anchor_config(workload: str) -> dict:
    return make_config(workload, ANCHOR_SEED, data_seed=ANCHOR_DATA_SEED)


def sgd_steps(config: dict) -> int:
    """SGD steps one training run of ``config`` takes: epochs x target batches."""
    from shiftlab.data import ShiftSpec, class_sizes
    from shiftlab.training import TrainConfig

    n_target = int(class_sizes(ShiftSpec(**config["data"])).sum())
    train = TrainConfig(**config["train"])
    return train.epochs * math.ceil(n_target / train.batch_size)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)

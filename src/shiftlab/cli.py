"""Command-line surface.

Subcommands: gen-data, train, eval, sweep-if, ablate, report. All take a
JSON config plus repeatable --set key=value overrides with dotted paths.
Exit codes: 0 success, 1 config error, 2 runtime or numeric failure,
3 refused overwrite of an existing output directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from ._jsonio import write_json
from .data import (
    DatasetFormatError,
    ParameterError,
    ShiftSpec,
    features_digest,
    generate,
    save_dataset,
)
from .experiments import (
    OutputExistsError,
    apply_overrides,
    claim_output_dir,
    parse_config,
    read_json,
    regenerate_reports,
    run_experiment,
    sweep_if,
    ablate,
)
from .metrics import score_target
from .networks import CheckpointError, load_checkpoint
from .training import ConfigError

__all__ = ["main"]

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are config errors (exit 1), not runtime failures.
    def error(self, message: str):
        raise ConfigError(message)


# Flags for the subcommands that train or write; each takes only those it uses.
_FLAGS = {
    "--seed": dict(type=int, help="replace the seed list with this single seed"),
    "--out": dict(help="override the config's output directory"),
    "--force": dict(action="store_true", help="write into a non-empty output dir"),
}


def _add_common(sub: argparse.ArgumentParser, *flags: str) -> None:
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dotted path (repeatable)",
    )
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shiftlab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    _add_common(commands.add_parser("gen-data", help="generate and save a dataset pair"),
                "--out", "--force")
    _add_common(commands.add_parser("train", help="train every configured seed"), *_FLAGS)

    ev = commands.add_parser("eval", help="evaluate a checkpoint on the configured target data")
    _add_common(ev)
    ev.add_argument("--checkpoint", required=True, help="checkpoint.npz written by train")

    sw = commands.add_parser("sweep-if", help="sweep the imbalance factor")
    _add_common(sw, *_FLAGS)
    sw.add_argument(
        "--if-values",
        default="1,5,10,20",
        help="comma-separated imbalance factors (default 1,5,10,20)",
    )

    _add_common(commands.add_parser("ablate", help="run the component ablation ladder"), *_FLAGS)

    rp = commands.add_parser("report", help="rebuild aggregate outputs from run reports")
    rp.add_argument("--dir", required=True,
                    help="output directory of train, ablate or sweep-if, or one grid cell")
    return parser


def _load_config(args) -> "ExperimentConfig":
    doc = read_json(args.config) if args.config else {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: the config root must be an object, "
                          f"got {type(doc).__name__}")
    apply_overrides(doc, args.overrides)
    if getattr(args, "seed", None) is not None:
        doc["seeds"] = [args.seed]
        doc.setdefault("train", {})["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        doc["output_dir"] = args.out
    return parse_config(doc)


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out_dir = claim_output_dir(cfg.output_dir, args.force)
    source, target = generate(cfg.data)
    save_dataset(source, os.path.join(out_dir, "source.csv"))
    save_dataset(target, os.path.join(out_dir, "target.csv"))
    write_json(os.path.join(out_dir, "spec.json"), dataclasses.asdict(cfg.data))
    print(f"wrote {len(source)} source and {len(target)} target samples to {out_dir}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    reports = run_experiment(cfg, force=args.force)
    accs = [r.final_per_class_mean_acc for r in reports]
    print(json.dumps({"name": cfg.name, "seeds": cfg.seeds, "per_seed_accuracy": accs,
                      "mean_accuracy": float(np.mean(accs))}))
    return 0


def _check_provenance(path: str, provenance: dict | None, data: ShiftSpec, digest: str) -> None:
    """Refuse data other than the checkpoint's; warn if it does not say."""
    recorded = (provenance or {}).get("features_sha256")
    if recorded is None:
        log.warning("%s does not record its training data; scoring it unchecked", path)
    elif recorded != digest:
        trained = provenance.get("data") or {}
        given = json.loads(json.dumps(dataclasses.asdict(data)))
        changed = [f"{k} {trained[k]!r} -> {v!r}" for k, v in given.items()
                   if k in trained and trained[k] != v]
        raise ConfigError(
            f"{path} was trained on other data than this config generates"
            + (f" (data.{', data.'.join(changed)})" if changed else "")
        )


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    state = load_checkpoint(args.checkpoint)
    model, data = state.config, cfg.data
    if (model.input_dim, model.num_classes) != (data.feature_dim, data.num_classes):
        raise ConfigError(
            f"{args.checkpoint} takes {model.input_dim} features and {model.num_classes} "
            f"classes, but the config's data has {data.feature_dim} and {data.num_classes}"
        )
    source, target = generate(data)
    _check_provenance(args.checkpoint, state.provenance, data, features_digest(source, target))
    scores = score_target(state, target)
    print(json.dumps({"per_class_mean_accuracy": scores["final_per_class_mean_acc"],
                      "per_class_accuracy": scores["final_per_class_acc"],
                      "samples": len(target)}))
    return 0


def _cmd_sweep_if(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.if_values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--if-values: {exc}") from exc
    print(json.dumps(sweep_if(cfg, values, force=args.force)))
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    results = ablate(cfg, force=args.force)
    print(json.dumps({rung: agg["mean_accuracy"] for rung, agg in results.items()}))
    return 0


def _cmd_report(args) -> int:
    print(json.dumps(regenerate_reports(args.dir)))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep-if": _cmd_sweep_if,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, DatasetFormatError, CheckpointError) as exc:
        log.error("%s", exc)
        return 1
    except OutputExistsError as exc:
        log.error("%s", exc)
        return 3
    except Exception as exc:  # runtime / numeric failures
        log.error("%s: %s", type(exc).__name__, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

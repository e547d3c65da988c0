"""Experiment orchestration: configs, runs, sweeps, ablations, reports.

One ExperimentConfig describes a dataset recipe, model and training
hyperparameters, an ablation mask over the four method components, and a
list of training seeds. Drivers here expand that into trainer runs,
collect per-run reports, and write aggregates, CSV summaries, and
plot-data JSON. Aggregation is a pure function of the persisted per-run
reports, so everything under an output directory can be rebuilt offline.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
import numbers
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from ._jsonio import write_json, write_text
from .data import DomainDataset, ShiftSpec, features_digest, generate
from .metrics import make_audit_fn, score_target
from .networks import ModelConfig, save_checkpoint
from .training import ConfigError, EpochRecord, TrainConfig, run

__all__ = [
    "OutputExistsError",
    "AblationMask",
    "ExperimentConfig",
    "RunReport",
    "parse_config",
    "apply_overrides",
    "effective_train_config",
    "run_single",
    "run_experiment",
    "ablate",
    "sweep_if",
    "regenerate_reports",
]

log = logging.getLogger(__name__)

# The cumulative ablation ladder; see AblationMask.rung.
LADDER = [
    "source_only",
    "adversarial",
    "adversarial_centroid",
    "adversarial_centroid_pairwise",
    "full",
]

SWEEP_METHODS = {
    "full": "full",
    "no_calibration": "adversarial_centroid_pairwise",
    "source_only": "source_only",
}


class OutputExistsError(RuntimeError):
    """Refused to write into an existing, non-empty output directory."""


@dataclass
class AblationMask:
    domain_adversarial: bool = True
    centroid_alignment: bool = True
    discriminative_alignment: bool = True
    label_shift_calibration: bool = True

    @classmethod
    def rung(cls, name: str) -> "AblationMask":
        """The mask of ``LADDER`` rung k: the first k fields enabled, the rest off."""
        if name not in LADDER:
            raise ConfigError(f"unknown ladder rung {name!r}; expected one of {LADDER}")
        return cls(*(i < LADDER.index(name) for i in range(len(dataclasses.fields(cls)))))


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    data: ShiftSpec = field(default_factory=ShiftSpec)
    model: ModelConfig | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    ablation: AblationMask = field(default_factory=AblationMask)
    seeds: list[int] = field(default_factory=list)
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if "\0" in str(self.output_dir):
            raise ConfigError(f"output_dir must not hold a NUL byte, got {self.output_dir!r}")
        if not self.seeds:
            self.seeds = [self.train.seed]
        if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) and s >= 0
                   for s in self.seeds):
            raise ConfigError(f"seeds must be non-negative integers, got {self.seeds!r}")
        self.seeds = [int(s) for s in self.seeds]
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")
        if self.model is not None:
            for dim, data_dim in (("input_dim", "feature_dim"), ("num_classes", "num_classes")):
                got, want = getattr(self.model, dim), getattr(self.data, data_dim)
                if got != want:
                    raise ConfigError(f"model.{dim} is {got} but data.{data_dim} is {want}")


def _fits(value, kind) -> bool:
    """Whether a JSON value fits a declared type; bools are no numbers, floats no ints."""
    if kind is bool:
        return isinstance(value, bool)
    if kind in (int, float):
        return isinstance(value, (int, kind)) and not isinstance(value, bool)
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    return any(_fits(value, arg) for arg in args) if args else isinstance(value, kind)


def _build(cls, doc, where: str):
    """``cls(**doc)`` for a JSON object whose keys and values fit ``cls``'s fields."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(declared)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        if not _fits(value, hints[key]):
            raise ConfigError(f"{where}.{key} must be {declared[key]}, got {value!r}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_SECTIONS = {"data": ShiftSpec, "model": ModelConfig, "train": TrainConfig,
             "ablation": AblationMask}


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON document; unknown keys rejected.

    A null ``model``, like a missing one, sizes the model from the data.
    """
    if isinstance(doc, dict):
        doc = {key: value if key not in _SECTIONS or value is None
               else _build(_SECTIONS[key], value, key) for key, value in doc.items()}
    return _build(ExperimentConfig, doc, "config root")


def apply_overrides(doc: dict, settings: list[str]) -> dict:
    """Apply --set key=value pairs (dotted paths) onto the raw config dict.

    Values parse as JSON when possible, otherwise as strings, so
    train.lr0=0.01, ablation.label_shift_calibration=false, and
    name=sweep3 all work.
    """
    for setting in settings:
        key, sep, raw = setting.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {setting!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return doc


def effective_train_config(train: TrainConfig, mask: AblationMask) -> TrainConfig:
    """Switch off what the mask disables; what it enables keeps its own setting."""
    cfg = dataclasses.replace(
        train,
        adversarial_loss_weight=train.adversarial_loss_weight if mask.domain_adversarial else 0.0,
        centroid_loss_weight=train.centroid_loss_weight if mask.centroid_alignment else 0.0,
        pairwise_loss_weight=train.pairwise_loss_weight if mask.discriminative_alignment else 0.0,
        lsc_enabled=train.lsc_enabled and mask.label_shift_calibration,
    )
    if cfg.lsc_enabled and cfg.centroid_loss_weight == 0.0 and cfg.pairwise_loss_weight == 0.0:
        log.warning(
            "calibration is enabled but no loss consumes pseudo-labels; "
            "it will be recorded yet cannot influence training"
        )
    return cfg


def claim_output_dir(path: str, force: bool) -> str:
    """Create (or adopt) an output directory, refusing non-empty ones."""
    if os.path.exists(path):
        if not os.path.isdir(path):
            raise OutputExistsError(f"output path {path} exists and is not a directory")
        if os.listdir(path) and not force:
            raise OutputExistsError(
                f"output directory {path} already has contents; pass --force to overwrite"
            )
    os.makedirs(path, exist_ok=True)
    return path


def read_json(path, lines: bool = False):
    """The JSON document in ``path``, or with ``lines`` the list of its lines' documents.

    A file that cannot be read or parsed raises ``ConfigError`` naming it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh] if lines else json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


@dataclass
class RunReport:
    """Everything measured about one training run."""

    name: str
    seed: int
    wall_clock_sec: float
    records: list[dict]
    final_per_class_acc: list[float | None]
    final_per_class_mean_acc: float
    label_shift: dict | None
    true_target_dist: list[float]
    dist_l1_error: float | None
    est_head_class: int | None
    true_head_class: int

    def to_dict(self) -> dict:
        """``report.json``: every field but ``records``, which ``epoch_records.jsonl`` holds."""
        return {k: v for k, v in vars(self).items() if k != "records"}

    @classmethod
    def load(cls, run_dir: str) -> "RunReport":
        """The report that ``run_single`` returned for ``run_dir``; unknown keys are ignored."""
        path = os.path.join(run_dir, "report.json")
        doc = read_json(path)
        if isinstance(doc, dict):
            doc = {f.name: doc[f.name] for f in dataclasses.fields(cls) if f.name in doc}
            records_path = os.path.join(run_dir, "epoch_records.jsonl")
            doc["records"] = [_build(EpochRecord, rec, f"{records_path} line {i}").to_dict()
                              for i, rec in enumerate(read_json(records_path, lines=True), 1)]
        return _build(cls, doc, path)


def _write_outputs(out_dir, state, records, provenance) -> None:
    """Write a run's epoch records and checkpoint."""
    os.makedirs(out_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "epoch_records.jsonl"),
               (rec.to_json() + "\n" for rec in records))
    save_checkpoint(state, os.path.join(out_dir, "checkpoint.npz"), provenance=provenance)


def run_single(
    source: DomainDataset,
    target: DomainDataset,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig | None,
    name: str,
    out_dir: str,
    spec: ShiftSpec | None = None,
) -> RunReport:
    """One trainer run plus evaluation, reported and persisted into ``out_dir``.

    ``wall_clock_sec`` times the training alone. The final scores come
    from the last epoch's target pass, which ``run`` makes after the last
    step and hands to the audit callback, so no further pass is made. A
    run directory holds the two files of ``_write_outputs`` and then
    ``report.json``. The checkpoint's provenance records ``spec``, the
    ``ShiftSpec`` the data was generated from (None if not given), and
    ``features_digest`` of the data, so ``shiftlab eval`` can refuse
    other data.
    """
    audit = make_audit_fn(target)
    last = []  # the pseudo-labels of the latest epoch

    def audit_fn(pseudo):
        last[:] = [pseudo]
        return audit(pseudo)

    started = time.perf_counter()
    state, records, shift_state = run(source, target, train_cfg, model_cfg, audit_fn=audit_fn)
    report = RunReport(
        name=name,
        seed=train_cfg.seed,
        wall_clock_sec=time.perf_counter() - started,
        records=[r.to_dict() for r in records],
        label_shift=None if shift_state is None else shift_state.to_dict(),
        **score_target(state, target, shift_state, predictions=last[0].raw_label),
    )
    provenance = {"data": None if spec is None else dataclasses.asdict(spec),
                  "features_sha256": features_digest(source, target)}
    _write_outputs(out_dir, state, records, provenance)
    write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    return report


def _config_echo(cfg: ExperimentConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    model = doc.pop("model")
    if model is not None:
        doc["model"] = model  # last, where config.json has always had it
    return doc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [header] + [[_fmt(v) for v in row] for row in rows]
    write_text(path, (",".join(line) + "\n" for line in lines))


def _mean_series(per_run: list[list[float | None]]) -> list[float | None]:
    """Pointwise mean over runs, skipping None entries."""
    out: list[float | None] = []
    for values in zip(*per_run):
        present = [v for v in values if v is not None]
        out.append(float(np.mean(present)) if present else None)
    return out


def aggregate_reports(name: str, reports: list[RunReport]) -> dict:
    accs = [r.final_per_class_mean_acc for r in reports]
    l1s = [r.dist_l1_error for r in reports if r.dist_l1_error is not None]
    return {
        "name": name,
        "seeds": [r.seed for r in reports],
        "per_seed_accuracy": accs,
        "mean_accuracy": float(np.mean(accs)),
        "stddev_accuracy": float(np.std(accs)),
        "per_seed_dist_l1_error": [r.dist_l1_error for r in reports],
        "mean_dist_l1_error": float(np.mean(l1s)) if l1s else None,
    }


def _series(report: RunReport, key: str) -> list:
    return [rec[key] for rec in report.records]


def _write_plotdata(out_dir: str, reports: list[RunReport]) -> None:
    plot_dir = os.path.join(out_dir, "plotdata")
    os.makedirs(plot_dir, exist_ok=True)
    epochs = list(range(1, len(reports[0].records) + 1))
    fraction = [_series(r, "calibrated_fraction") for r in reports]
    raw = [_series(r, "subset_acc_raw") for r in reports]
    cal = [_series(r, "subset_acc_calibrated") for r in reports]
    seeds = [str(r.seed) for r in reports]
    write_json(
        os.path.join(plot_dir, "calibrated_fraction.json"),
        {"epochs": epochs, "per_seed": dict(zip(seeds, fraction)), "mean": _mean_series(fraction)},
    )
    write_json(
        os.path.join(plot_dir, "calibrated_subset_accuracy.json"),
        {
            "epochs": epochs,
            "subset_acc_raw": _mean_series(raw),
            "subset_acc_calibrated": _mean_series(cal),
            "per_seed_raw": dict(zip(seeds, raw)),
            "per_seed_calibrated": dict(zip(seeds, cal)),
        },
    )
    shifted = [r for r in reports if r.label_shift is not None]
    if shifted:
        first = shifted[0]
        write_json(
            os.path.join(plot_dir, "distribution_estimate.json"),
            {
                "classes": list(range(len(first.true_target_dist))),
                "source_dist": first.label_shift["source_dist"],
                "estimated_target_dist_per_seed": {
                    str(r.seed): r.label_shift["target_dist_est"] for r in shifted
                },
                "true_target_dist": first.true_target_dist,
            },
        )


def _summarize(out_dir: str, name: str, reports: list[RunReport]) -> dict:
    aggregate = aggregate_reports(name, reports)
    write_json(os.path.join(out_dir, "aggregate.json"), aggregate)
    rows = [
        [name, r.seed, r.final_per_class_mean_acc, r.dist_l1_error, r.wall_clock_sec]
        for r in reports
    ]
    rows.append([name, "mean", aggregate["mean_accuracy"], aggregate["mean_dist_l1_error"], None])
    rows.append([name, "stddev", aggregate["stddev_accuracy"], None, None])
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["name", "seed", "per_class_mean_accuracy", "dist_l1_error", "wall_clock_sec"],
        rows,
    )
    _write_plotdata(out_dir, reports)
    return aggregate


def _run_dir(out_dir: str, seed: int) -> str:
    return os.path.join(out_dir, "runs", f"seed{seed}")


def _run_cell(cell: ExperimentConfig, force: bool,
              datasets: dict) -> tuple[list[RunReport], dict]:
    """Run every seed of one experiment into its ``output_dir``; return reports and aggregate.

    ``datasets`` holds the data of each ``ShiftSpec`` drawn so far, keyed by
    the spec's JSON. A manifest marks which seeds completed, so a failed run
    leaves the finished ones usable. Failures still propagate after the
    manifest is updated.
    """
    out_dir = claim_output_dir(cell.output_dir, force)
    write_json(os.path.join(out_dir, "config.json"), _config_echo(cell))
    manifest = {"name": cell.name, "seeds": cell.seeds, "completed": [], "failed": []}
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(manifest_path, manifest)

    key = json.dumps(dataclasses.asdict(cell.data))
    if key not in datasets:
        datasets[key] = generate(cell.data)
    source, target = datasets[key]
    train_cfg = effective_train_config(cell.train, cell.ablation)
    reports: list[RunReport] = []
    for seed in cell.seeds:
        seeded = dataclasses.replace(train_cfg, seed=seed)
        run_dir = _run_dir(out_dir, seed)
        os.makedirs(run_dir, exist_ok=True)
        try:
            reports.append(
                run_single(source, target, seeded, cell.model, cell.name, run_dir, cell.data)
            )
        except Exception as exc:
            manifest["failed"].append({"seed": seed, "error": str(exc)})
            write_json(manifest_path, manifest)
            raise
        manifest["completed"].append(seed)
        write_json(manifest_path, manifest)
    return reports, _summarize(out_dir, cell.name, reports)


def _set_state(grid: tuple[str, dict] | None, index: int, state: str) -> None:
    if grid is not None:
        path, manifest = grid
        manifest["cells"][index]["state"] = state
        write_json(path, manifest)


def _run_cells(cells: list[ExperimentConfig], force: bool,
               grid: tuple[str, dict] | None = None) -> list[tuple[list[RunReport], dict]]:
    """Run each cell in order through ``_run_cell``, drawing each distinct dataset once.

    ``grid`` is the path and document of a grid root's manifest, whose i-th
    cell's ``state`` follows cell i. The first failing cell stops the rest.
    """
    datasets: dict[str, tuple[DomainDataset, DomainDataset]] = {}
    results = []
    for i, cell in enumerate(cells):
        _set_state(grid, i, "running")
        try:
            results.append(_run_cell(cell, force, datasets))
        except Exception:
            _set_state(grid, i, "failed")
            raise
        _set_state(grid, i, "completed")
    return results


def run_experiment(cfg: ExperimentConfig, force: bool = False) -> list[RunReport]:
    """Run every seed of one experiment and write all artifacts into its output root."""
    [(reports, _)] = _run_cells([cfg], force)
    return reports


@dataclass
class GridCell:
    """One sub-experiment of a grid, as its root's manifest lists it.

    ``state`` goes from ``not_run`` to ``running`` and then to
    ``completed`` or ``failed``.
    """

    subdir: str
    name: str
    rung: str
    state: str = "not_run"


def _write_ladder(out_dir: str, manifest: dict, aggregates: list[dict]) -> dict[str, dict]:
    """The ladder's ``summary.csv`` and ``aggregate.json``: each rung's aggregate."""
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["component_set", "mean_accuracy", "stddev_accuracy"],
        [[agg["name"], agg["mean_accuracy"], agg["stddev_accuracy"]] for agg in aggregates],
    )
    results = {cell["rung"]: agg for cell, agg in zip(manifest["cells"], aggregates)}
    write_json(os.path.join(out_dir, "aggregate.json"), results)
    return results


def _write_sweep(out_dir: str, manifest: dict, aggregates: list[dict]) -> dict:
    """The sweep's ``summary.csv``, ``plotdata/if_sweep.json`` and ``aggregate.json``.

    Each holds the mean accuracy of every method at every imbalance factor.
    """
    if_values, methods = manifest["if_values"], list(SWEEP_METHODS)
    accs = iter(agg["mean_accuracy"] for agg in aggregates)
    table = {f"{v:g}": {m: next(accs) for m in methods} for v in if_values}
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["imbalance_factor"] + methods,
        [[key] + [row[m] for m in methods] for key, row in table.items()],
    )
    plot_dir = os.path.join(out_dir, "plotdata")
    os.makedirs(plot_dir, exist_ok=True)
    write_json(
        os.path.join(plot_dir, "if_sweep.json"),
        {
            "if_values": if_values,
            "methods": {m: [table[f"{v:g}"][m] for v in if_values] for m in methods},
        },
    )
    write_json(os.path.join(out_dir, "aggregate.json"), table)
    return table


_GRID_WRITERS = {"ablate": _write_ladder, "sweep-if": _write_sweep}


def _run_grid(cfg: ExperimentConfig, command: str, cells: list[tuple[str, str, str, ShiftSpec]],
              force: bool, **extra) -> dict:
    """Run the sub-experiment of each ``(subdir, name, rung, data)`` cell, in order.

    Refuses repeated sub-directories before creating anything. The root's
    manifest lists the command, the cells with their states, and ``extra``;
    the first failing cell stops the grid. Then the command's writer builds
    the root's files from the cells' aggregates, and its result is returned.
    """
    subdirs = [subdir for subdir, _, _, _ in cells]
    repeated = sorted({s for s in subdirs if subdirs.count(s) > 1})
    if repeated:
        raise ConfigError(f"sub-experiments would share directories: {repeated}")
    out_dir = claim_output_dir(cfg.output_dir, force)
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = {"command": command,
                "cells": [dataclasses.asdict(GridCell(s, n, r)) for s, n, r, _ in cells],
                **extra}
    write_json(manifest_path, manifest)
    subs = [
        dataclasses.replace(cfg, name=name, data=data, ablation=AblationMask.rung(rung),
                            output_dir=os.path.join(out_dir, subdir))
        for subdir, name, rung, data in cells
    ]
    results = _run_cells(subs, force, (manifest_path, manifest))
    return _GRID_WRITERS[command](out_dir, manifest, [agg for _, agg in results])


def ablate(cfg: ExperimentConfig, force: bool = False) -> dict[str, dict]:
    """Run the cumulative component ladder and tabulate mean accuracies."""
    return _run_grid(cfg, "ablate", [(r, r, r, cfg.data) for r in LADDER], force)


def sweep_if(cfg: ExperimentConfig, if_values: list[float], force: bool = False) -> dict:
    """Run full / no-calibration / source-only at each imbalance factor."""
    if not if_values or not all(math.isfinite(v) and v >= 1 for v in if_values):
        raise ConfigError(f"imbalance factors must all be finite and >= 1, got {if_values}")
    if_values = [float(v) for v in if_values]
    cells = [
        (os.path.join(f"if{v:g}", method), f"{method}_if{v:g}", rung,
         dataclasses.replace(cfg.data, imbalance_factor=v))
        for v in if_values
        for method, rung in SWEEP_METHODS.items()
    ]
    return _run_grid(cfg, "sweep-if", cells, force, if_values=if_values)


def regenerate_reports(out_dir: str) -> dict:
    """Rebuild aggregate, summary, and plot data from persisted run reports.

    An experiment's reports are read in the order of its manifest's
    ``completed`` list, which is the order the seeds ran in. A grid's
    manifest names its cells: each is rebuilt so, and then the grid's own
    files by the writer its driver uses. Returns the root's aggregate.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = read_json(manifest_path)
    if not (isinstance(manifest, dict) and "cells" in manifest):
        return _resummarize(out_dir)
    subdirs = _finished_cells(manifest_path, manifest)
    aggregates = [_resummarize(os.path.join(out_dir, subdir)) for subdir in subdirs]
    return _GRID_WRITERS[manifest["command"]](out_dir, manifest, aggregates)


def _resummarize(out_dir: str) -> dict:
    """Rebuild one experiment's aggregate, summary and plot data from its run reports."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = read_json(manifest_path)
    completed = manifest.get("completed") if isinstance(manifest, dict) else None
    if not isinstance(completed, list) or not completed:
        raise ConfigError(f"{manifest_path} lists no completed runs")
    reports = [RunReport.load(_run_dir(out_dir, seed)) for seed in completed]
    return _summarize(out_dir, reports[0].name, reports)


def _finished_cells(path: str, manifest: dict) -> list[str]:
    """The sub-directories of a grid manifest's cells, if it is well formed and all completed."""
    command, cells = manifest.get("command"), manifest["cells"]
    if command not in _GRID_WRITERS or not isinstance(cells, list) or not cells:
        raise ConfigError(f"{path} names no known grid command and cells")
    cells = [_build(GridCell, cell, f"{path} cell {i}") for i, cell in enumerate(cells, 1)]
    if command == "sweep-if":
        if_values = manifest.get("if_values")
        if not (_fits(if_values, list[float])
                and len(cells) == len(if_values) * len(SWEEP_METHODS)):
            raise ConfigError(f"{path}: if_values {if_values!r} do not match its "
                              f"{len(cells)} cells")
    unfinished = [cell.subdir for cell in cells if cell.state != "completed"]
    if unfinished:
        raise ConfigError(f"{path}: cells {unfinished} did not complete")
    return [cell.subdir for cell in cells]

"""Experiment drivers: config parsing, output layout, sweeps, and reports."""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import pathlib
import shutil

import numpy as np
import pytest

from shiftlab import (
    AblationMask,
    ExperimentConfig,
    ModelConfig,
    OutputExistsError,
    RunReport,
    ShiftSpec,
    TrainConfig,
    ablate,
    features_digest,
    generate,
    init_model,
    load_checkpoint,
    parse_config,
    run_experiment,
    run_single,
    score_target,
    sweep_if,
)
from shiftlab.experiments import (
    LADDER,
    SWEEP_METHODS,
    _fmt,
    _write_outputs,
    apply_overrides,
    claim_output_dir,
    effective_train_config,
    regenerate_reports,
)
from shiftlab._jsonio import finite
from shiftlab.data import MAX_FEATURE_DIM, MAX_SIZE, class_sizes
from shiftlab.training import ConfigError, EpochRecord, lr_schedule


# The values each config field is set to in turn, before drawn numbers.
EDGES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**30, -(10**30), 10**400,
         2**31 - 1, 2**31, 0, 1, -1, 0.5, True, False, "1", "NaN", None, [1]]


def each_field_builds_or_names_itself(cls, section: str | None, base: dict, holds,
                                     names=None, edges=(), drawn=None) -> None:
    """Set each field of ``cls``, or each of ``names``, one at a time in the
    ``section`` document ``base`` (the root document if ``section`` is None),
    to each of ``EDGES`` and ``edges`` and then to 50 values drawn from
    ``drawn``, floats and integers by default. Each document must build,
    with ``holds(built_section, name, value)`` passing, or raise the
    ``ConfigError`` that names the field."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = names or [f.name for f in dataclasses.fields(cls)]

    def check(name, value):
        doc = dict(base, **{name: value})
        try:
            cfg = parse_config(doc if section is None else {section: doc})
        except ConfigError as exc:
            assert name in str(exc)
            return
        holds(cfg if section is None else getattr(cfg, section), name, value)

    for name in names:
        for value in EDGES + list(edges):
            check(name, value)

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(value=st.one_of(st.floats(), st.integers()) if drawn is None else drawn)
    def check_every_field(value):
        for name in names:
            check(name, value)

    check_every_field()


def micro_doc(out_dir: str, seeds=None) -> dict:
    return {
        "name": "micro",
        "data": {
            "num_classes": 3,
            "feature_dim": 4,
            "max_class_size": 40,
            "imbalance_factor": 5,
            "target_order": [2, 1, 0],
            "rotation_angle": 0.5235987755982988,
            "seed": 7,
        },
        "model": {
            "input_dim": 4,
            "num_classes": 3,
            "hidden_dims": [16],
            "bottleneck_dim": 6,
            "discriminator_hidden_dims": [8],
        },
        "train": {"epochs": 4, "pretrain_epochs": 2, "batch_size": 16},
        "seeds": seeds or [100],
        "output_dir": out_dir,
    }


class TestParseConfig:
    def test_empty_doc_gives_defaults(self):
        cfg = parse_config({})
        assert cfg.name == "experiment"
        assert cfg.model is None
        assert cfg.seeds == [cfg.train.seed]
        assert cfg.ablation == AblationMask()

    def test_full_doc(self, tmp_path):
        cfg = parse_config(micro_doc(str(tmp_path), seeds=[1, 2]))
        assert cfg.data.num_classes == 3
        assert cfg.model.hidden_dims == [16]
        assert cfg.train.epochs == 4
        assert cfg.seeds == [1, 2]

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match=r"unknown keys in config root: \['nam'\]"):
            parse_config({"nam": "typo"})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match=r"unknown keys in train: \['learning_rate'\]"):
            parse_config({"train": {"learning_rate": 0.1}})

    def test_invalid_nested_value(self):
        with pytest.raises(ConfigError):
            parse_config({"train": {"momentum": 2.0}})

    def test_seeds_must_be_int_list(self):
        with pytest.raises(ConfigError):
            parse_config({"seeds": "100"})
        with pytest.raises(ConfigError):
            parse_config({"seeds": [1.5]})

    def test_numpy_seeds_are_stored_as_int(self):
        # config.json must be able to hold them
        cfg = ExperimentConfig(seeds=[np.int64(3), np.uint8(4)])
        assert [type(s) for s in cfg.seeds] == [int, int]
        assert json.loads(json.dumps(dataclasses.asdict(cfg)))["seeds"] == [3, 4]

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])

    @pytest.mark.parametrize("doc", [
        {"data": 5},
        {"train": None},
        {"ablation": [1]},
        {"model": "small"},
        {"name": ["x"]},
        {"name": 3},
        {"output_dir": None},
        {"seeds": None},
    ], ids=repr)
    def test_every_section_and_root_value_is_type_checked(self, doc):
        with pytest.raises(ConfigError, match=next(iter(doc))):
            parse_config(doc)

    def test_null_model_sizes_the_model_from_the_data(self):
        assert parse_config({"model": None}).model is None

    @pytest.mark.parametrize("with_model", [True, False], ids=["model", "no_model"])
    def test_config_json_parses_back_to_the_config(self, tmp_path, with_model):
        # config.json's keys follow ExperimentConfig's fields, model last;
        # without a model block it reads "model": null
        doc = micro_doc(str(tmp_path / "out"))
        doc["train"].update(epochs=2, pretrain_epochs=1)
        if not with_model:
            del doc["model"]
        cfg = parse_config(doc)
        run_experiment(cfg)
        echo = json.loads((tmp_path / "out" / "config.json").read_text(encoding="utf-8"))
        assert list(echo) == ["name", "data", "train", "ablation", "seeds", "output_dir", "model"]
        assert (echo["model"] is None) is not with_model
        assert parse_config(echo) == cfg

    def test_every_train_field_builds_or_names_itself(self):
        # one train field set to an edge value: the document builds into a config
        # with finite floats, bounded sizes and a schedule that stays in the float
        # range, or is refused naming that field
        def holds(train, name, value):
            assert getattr(train, name) == value
            for f in dataclasses.fields(TrainConfig):
                if f.type == "float":
                    assert math.isfinite(getattr(train, f.name))
            assert max(train.epochs, train.batch_size) <= 2**31 - 1
            assert math.isfinite(lr_schedule(train.lr0, 1.0, train.lr_alpha, train.lr_beta))

        each_field_builds_or_names_itself(TrainConfig, "train", {}, holds)

    def test_every_data_field_builds_or_names_itself(self):
        # likewise for the data section; the class sizes are computed, but no data drawn
        def holds(spec, name, value):
            for field in ("imbalance_factor", "rotation_angle", "noise_sigma"):
                assert math.isfinite(getattr(spec, field))
            assert max(spec.num_classes, spec.max_class_size) <= MAX_SIZE
            assert spec.feature_dim <= MAX_FEATURE_DIM
            assert len(spec.translation) == spec.feature_dim
            assert all(type(t) is float and math.isfinite(t) for t in spec.translation)
            for order in (spec.source_order, spec.target_order):
                assert sorted(order) == list(range(spec.num_classes))
            sizes = class_sizes(spec)
            assert sizes[0] == spec.max_class_size and sizes.min() >= 1

        each_field_builds_or_names_itself(ShiftSpec, "data", {}, holds)

    def test_every_model_field_builds_or_names_itself(self):
        # likewise for the model section, which names the two sizes it must share
        def holds(model, name, value):
            dims = [model.input_dim, model.num_classes, model.bottleneck_dim]
            dims += model.hidden_dims + model.discriminator_hidden_dims
            assert all(type(d) is int and 1 <= d <= MAX_SIZE for d in dims)

        base = {"input_dim": 10, "num_classes": 5}
        each_field_builds_or_names_itself(ModelConfig, "model", base, holds)

    def test_every_root_field_builds_or_names_itself(self):
        # likewise for the root's own fields, with seed lists and strings besides:
        # the seeds build as distinct non-negative ints, train.seed if none
        # are given, and the output directory is not empty and holds no NUL byte
        st = pytest.importorskip("hypothesis").strategies

        def holds(cfg, name, value):
            if name == "seeds":
                assert cfg.seeds == (value or [cfg.train.seed])
                assert all(type(s) is int and s >= 0 for s in cfg.seeds)
                assert len(set(cfg.seeds)) == len(cfg.seeds)
            else:
                assert getattr(cfg, name) == value and type(value) is str
            assert cfg.output_dir and "\0" not in cfg.output_dir

        edges = ["", "x", "a\0b", "\0", [], [0], [0, 1], [1, 1], [-1], [True], [False],
                 [1.0], ["1"], [None], [[1]], [2**63], {}, {"seeds": [1]}]
        entry = st.one_of(st.integers(-3, 3), st.booleans(), st.floats(), st.text(), st.none())
        drawn = st.one_of(st.text(), st.lists(entry, max_size=4), st.integers(), st.floats())
        each_field_builds_or_names_itself(None, None, {}, holds,
                                          ["name", "seeds", "output_dir"], edges, drawn)


class TestApplyOverrides:
    def test_dotted_paths_and_json_values(self):
        doc: dict = {}
        apply_overrides(
            doc,
            ["train.lr0=0.01", "ablation.label_shift_calibration=false", "name=sweep3"],
        )
        assert doc == {
            "train": {"lr0": 0.01},
            "ablation": {"label_shift_calibration": False},
            "name": "sweep3",
        }

    def test_string_fallback(self):
        doc: dict = {}
        apply_overrides(doc, ["output_dir=out/run one"])
        assert doc["output_dir"] == "out/run one"

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["train.lr0"])

    def test_crossing_scalar(self):
        with pytest.raises(ConfigError):
            apply_overrides({"train": 3}, ["train.lr0=0.1"])


class TestEffectiveTrainConfig:
    def test_full_mask_is_identity(self):
        cfg = TrainConfig()
        out = effective_train_config(cfg, AblationMask())
        assert out == cfg

    def test_disabled_components_zeroed(self):
        cfg = TrainConfig()
        mask = AblationMask(
            domain_adversarial=False,
            centroid_alignment=True,
            discriminative_alignment=False,
            label_shift_calibration=False,
        )
        out = effective_train_config(cfg, mask)
        assert out.adversarial_loss_weight == 0.0
        assert out.centroid_loss_weight == cfg.centroid_loss_weight
        assert out.pairwise_loss_weight == 0.0
        assert out.lsc_enabled is False

    def test_disabled_calibration_setting_is_kept(self):
        # the mask enables calibration, the train setting turns it off
        out = effective_train_config(TrainConfig(lsc_enabled=False), AblationMask())
        assert out.lsc_enabled is False

    def test_unconsumed_calibration_warns(self, caplog):
        mask = AblationMask(
            domain_adversarial=True,
            centroid_alignment=False,
            discriminative_alignment=False,
            label_shift_calibration=True,
        )
        with caplog.at_level(logging.WARNING):
            out = effective_train_config(TrainConfig(), mask)
        assert out.lsc_enabled is True
        assert "cannot influence training" in caplog.text

    def test_rung(self):
        mask = AblationMask.rung("adversarial_centroid")
        assert mask.domain_adversarial and mask.centroid_alignment
        assert not mask.discriminative_alignment
        assert not mask.label_shift_calibration
        assert AblationMask.rung("full") == AblationMask()
        # each rung enables one more component than the last
        counts = [sum(dataclasses.astuple(AblationMask.rung(r))) for r in LADDER]
        assert counts == list(range(len(LADDER)))

    def test_sweep_methods_are_rungs(self):
        no_cal = AblationMask.rung(SWEEP_METHODS["no_calibration"])
        assert no_cal == AblationMask(label_shift_calibration=False)

    def test_unknown_rung_rejected(self):
        with pytest.raises(ConfigError, match="unknown ladder rung"):
            AblationMask.rung("no_calibration")


class TestOutputDirs:
    def test_refuses_nonempty_without_force(self, tmp_path):
        out = tmp_path / "exp"
        out.mkdir()
        (out / "old.txt").write_text("x")
        with pytest.raises(OutputExistsError):
            claim_output_dir(str(out), force=False)
        assert claim_output_dir(str(out), force=True) == str(out)

    def test_refuses_file_path(self, tmp_path):
        f = tmp_path / "file"
        f.write_text("x")
        with pytest.raises(OutputExistsError):
            claim_output_dir(str(f), force=True)

    def test_empty_dir_adopted(self, tmp_path):
        out = tmp_path / "fresh"
        out.mkdir()
        assert claim_output_dir(str(out), force=False) == str(out)


@pytest.fixture(scope="module")
def micro_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "micro"
    cfg = parse_config(micro_doc(str(out), seeds=[100, 101]))
    reports = run_experiment(cfg)
    return cfg, reports, str(out)


class TestRunExperiment:
    def test_report_fields(self, micro_experiment):
        _, reports, _ = micro_experiment
        assert [r.seed for r in reports] == [100, 101]
        for r in reports:
            assert r.name == "micro"
            assert 0.0 <= r.final_per_class_mean_acc <= 1.0
            assert len(r.final_per_class_acc) == 3
            assert len(r.records) == 4
            assert r.label_shift is not None
            assert r.dist_l1_error is not None
            assert r.true_head_class == 2
            assert r.wall_clock_sec > 0.0

    def test_manifest_and_artifacts(self, micro_experiment):
        cfg, _, out = micro_experiment
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["completed"] == [100, 101]
        assert manifest["failed"] == []
        config_echo = json.loads(pathlib.Path(out, "config.json").read_text())
        assert config_echo["train"]["epochs"] == 4
        for seed in (100, 101):
            run_dir = os.path.join(out, "runs", f"seed{seed}")
            for name in ("report.json", "checkpoint.npz", "epoch_records.jsonl"):
                assert os.path.isfile(os.path.join(run_dir, name)), name
            # the checkpoint names the data it was trained on
            provenance = load_checkpoint(os.path.join(run_dir, "checkpoint.npz")).provenance
            assert provenance == {"data": json.loads(json.dumps(dataclasses.asdict(cfg.data))),
                                  "features_sha256": features_digest(*generate(cfg.data))}

    def test_aggregate_and_csv(self, micro_experiment):
        _, reports, out = micro_experiment
        agg = json.loads(pathlib.Path(out, "aggregate.json").read_text())
        accs = [r.final_per_class_mean_acc for r in reports]
        assert agg["per_seed_accuracy"] == pytest.approx(accs)
        assert agg["mean_accuracy"] == pytest.approx(float(np.mean(accs)))
        lines = pathlib.Path(out, "summary.csv").read_text().splitlines()
        assert lines[0] == "name,seed,per_class_mean_accuracy,dist_l1_error,wall_clock_sec"
        assert len(lines) == 1 + len(reports) + 2  # runs + mean + stddev rows
        assert lines[1].startswith("micro,100,")

    def test_plotdata_files(self, micro_experiment):
        _, reports, out = micro_experiment
        plot = os.path.join(out, "plotdata")
        frac = json.loads(pathlib.Path(plot, "calibrated_fraction.json").read_text())
        assert frac["epochs"] == [1, 2, 3, 4]
        assert set(frac["per_seed"]) == {"100", "101"}
        dist = json.loads(pathlib.Path(plot, "distribution_estimate.json").read_text())
        assert dist["true_target_dist"] == reports[0].true_target_dist
        assert os.path.isfile(os.path.join(plot, "calibrated_subset_accuracy.json"))

    def test_plotdata_means_are_pointwise_over_seeds(self, micro_experiment):
        # the subset accuracies are None in an epoch whose subset is empty
        _, _, out = micro_experiment
        plot = pathlib.Path(out, "plotdata")
        frac = json.loads((plot / "calibrated_fraction.json").read_text())
        subset = json.loads((plot / "calibrated_subset_accuracy.json").read_text())
        for mean, per_seed in ((frac["mean"], frac["per_seed"]),
                               (subset["subset_acc_raw"], subset["per_seed_raw"])):
            assert len(mean) == 4
            for epoch, value in enumerate(mean):
                present = [series[epoch] for series in per_seed.values()
                           if series[epoch] is not None]
                assert value == (float(np.mean(present)) if present else None)

    def test_refuses_rerun_without_force(self, micro_experiment):
        cfg, _, _ = micro_experiment
        with pytest.raises(OutputExistsError):
            run_experiment(cfg)

    def test_report_round_trip(self, micro_experiment):
        _, reports, out = micro_experiment
        for report in reports:
            assert RunReport.load(os.path.join(out, "runs", f"seed{report.seed}")) == report

    def test_run_directory_stores_each_fact_once(self, micro_experiment):
        _, reports, out = micro_experiment
        fields = [f.name for f in dataclasses.fields(RunReport)]
        for report in reports:
            run_dir = os.path.join(out, "runs", f"seed{report.seed}")
            assert sorted(os.listdir(run_dir)) == [
                "checkpoint.npz", "epoch_records.jsonl", "report.json"]
            doc = json.loads(pathlib.Path(run_dir, "report.json").read_text())
            assert list(doc) == [name for name in fields if name != "records"]
            assert report.label_shift is not None
            assert doc["label_shift"] == report.label_shift
            lines = pathlib.Path(run_dir, "epoch_records.jsonl").read_text().splitlines()
            assert [json.loads(line) for line in lines] == report.records

    def test_last_audit_scores_the_final_model(self, micro_experiment):
        # the trainer's per-epoch audit and score_target agree on the last epoch
        _, reports, _ = micro_experiment
        for report in reports:
            assert report.records[-1]["target_per_class_acc"] == report.final_per_class_mean_acc

    def test_final_scores_match_a_pass_of_the_checkpoint(self, micro_experiment):
        # run_single scores the last epoch's target pass instead of making another
        cfg, reports, out = micro_experiment
        _, target = generate(cfg.data)
        for report in reports:
            state = load_checkpoint(os.path.join(out, "runs", f"seed{report.seed}",
                                                 "checkpoint.npz"))
            scores = score_target(state, target)
            assert scores["final_per_class_acc"] == report.final_per_class_acc
            assert scores["final_per_class_mean_acc"] == report.final_per_class_mean_acc

    def test_regenerate_matches_original(self, micro_experiment, tmp_path):
        _, _, out = micro_experiment
        original = json.loads(pathlib.Path(out, "aggregate.json").read_text())
        rebuilt = regenerate_reports(out)
        assert rebuilt == original

    def test_regenerate_reads_reports_with_the_dropped_series(self, micro_experiment, tmp_path):
        # report.json once also held four per-epoch series copied from its records
        _, _, out = micro_experiment
        copy = tmp_path / "old"
        shutil.copytree(out, copy)
        for seed in (100, 101):
            path = copy / "runs" / f"seed{seed}" / "report.json"
            doc = json.loads(path.read_text())
            records = [json.loads(line) for line in
                       (path.parent / "epoch_records.jsonl").read_text().splitlines()]
            doc["false_pseudo_rate"] = [1.0 - r["pseudo_acc_raw"] for r in records]
            for key in ("calibrated_fraction", "subset_acc_raw", "subset_acc_calibrated"):
                doc[key] = [r[key] for r in records]
            path.write_text(json.dumps(doc))
        shutil.rmtree(copy / "plotdata")
        original = json.loads(pathlib.Path(out, "aggregate.json").read_text())
        assert regenerate_reports(str(copy)) == original
        for name in os.listdir(os.path.join(out, "plotdata")):
            with open(os.path.join(out, "plotdata", name), "rb") as fh:
                assert (copy / "plotdata" / name).read_bytes() == fh.read(), name

    def test_regenerate_reads_the_earlier_layout(self, micro_experiment, tmp_path):
        # report.json once also held the records, and label_shift.json the estimate
        _, reports, out = micro_experiment
        copy = tmp_path / "old"
        shutil.copytree(out, copy)
        for report in reports:
            run_dir = copy / "runs" / f"seed{report.seed}"
            doc = dataclasses.asdict(report)
            (run_dir / "report.json").write_text(json.dumps(doc, indent=2))
            (run_dir / "label_shift.json").write_text(json.dumps(report.label_shift, indent=2))
        os.remove(copy / "aggregate.json")
        shutil.rmtree(copy / "plotdata")
        regenerate_reports(str(copy))
        names = ["aggregate.json"] + [os.path.join("plotdata", name)
                                      for name in os.listdir(os.path.join(out, "plotdata"))]
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                assert (copy / name).read_bytes() == fh.read(), name

    def test_regenerate_needs_runs(self, tmp_path):
        with pytest.raises(ConfigError):
            regenerate_reports(str(tmp_path))


MISSING = object()  # a mutation that deletes the key


def numbers_in(value):
    """Every number in a JSON value, bools excluded."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for item in value for n in numbers_in(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


class TestRunReportLoad:
    def test_every_mutated_run_loads_or_names_its_file(self, micro_experiment, tmp_path):
        # In the manner of each_field_builds_or_names_itself: each field of
        # report.json and of one epoch record is set in turn to each of
        # EDGES and a few more values and deleted, an extra key is added,
        # then drawn values are set and each file is cut short at a drawn
        # offset. Every mutated run loads, finite and with one accuracy per
        # class, or raises the ConfigError that names its file; a
        # non-finite number also names its field.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        _, _, out = micro_experiment
        source = pathlib.Path(out, "runs", "seed100")
        report = json.loads((source / "report.json").read_text())
        records = [json.loads(line) for line in
                   (source / "epoch_records.jsonl").read_text().splitlines()]
        # one run directory per mutated file, the other file intact in it
        run_dirs = {}
        for name in ("report.json", "epoch_records.jsonl"):
            run_dirs[name] = shutil.copytree(source, tmp_path / name)

        def check(name, text, named, field=None, value=None):
            (run_dirs[name] / name).write_text(text)
            try:
                loaded = RunReport.load(str(run_dirs[name]))
            except ConfigError as exc:
                assert named in str(exc)
                numbers = numbers_in(value)
                if field is not None and not all(map(finite, numbers)):
                    assert field in str(exc)
                return
            assert all(map(finite, numbers_in([loaded.to_dict(), loaded.records])))
            assert len(loaded.final_per_class_acc) == len(loaded.true_target_dist)

        def lines(recs):
            return "".join(json.dumps(rec) + "\n" for rec in recs)

        def mutated(doc, field, value):
            doc = dict(doc)
            if value is MISSING:
                del doc[field]
            else:
                doc[field] = value
            return doc

        def check_field(field, value):
            if field in report:
                check("report.json", json.dumps(mutated(report, field, value)), "report.json",
                      field, value)
            if field in records[1]:
                recs = records[:1] + [mutated(records[1], field, value)] + records[2:]
                check("epoch_records.jsonl", lines(recs), "epoch_records.jsonl line 2",
                      field, value)

        fields = list(report) + list(records[1])
        for field in fields:
            for value in EDGES + [MISSING, [], [math.nan], {"nested": math.inf}]:
                check_field(field, value)
        check("report.json", json.dumps(dict(report, extra=math.nan)), "report.json")
        check("epoch_records.jsonl", lines([dict(records[0], extra=1.0)] + records[1:]),
              "epoch_records.jsonl line 1")

        @hypothesis.settings(max_examples=50, deadline=None)
        @hypothesis.given(
            field=st.sampled_from(fields),
            value=st.one_of(st.floats(), st.integers(), st.text(max_size=5), st.none(),
                            st.lists(st.floats(), max_size=6)),
            cut=st.floats(0.0, 1.0, exclude_max=True),
        )
        def check_drawn(field, value, cut):
            check_field(field, value)
            for name, text in (("report.json", json.dumps(report)),
                               ("epoch_records.jsonl", lines(records))):
                check(name, text[:int(cut * len(text))], name)

        check_drawn()


class TestRunSingle:
    def test_source_only_report_has_no_shift(self, tiny_pair, tiny_model_cfg, tmp_path):
        src, tgt = tiny_pair
        cfg = TrainConfig(
            epochs=4,
            pretrain_epochs=2,
            batch_size=16,
            centroid_loss_weight=0.0,
            pairwise_loss_weight=0.0,
            adversarial_loss_weight=0.0,
            lsc_enabled=False,
        )
        report = run_single(src, tgt, cfg, tiny_model_cfg, "baseline", str(tmp_path / "r"))
        assert report.label_shift is None
        assert report.dist_l1_error is None
        assert report.est_head_class is None
        assert os.path.isfile(tmp_path / "r" / "report.json")

    @pytest.mark.parametrize("train_kwargs, numpy_model", [
        ({"seed": np.int64(7)}, False),
        ({}, True),
    ], ids=["numpy_seed", "numpy_input_dim"])
    def test_numpy_config_values_reach_every_artifact(self, tiny_pair, tiny_model_cfg, tmp_path,
                                                      train_kwargs, numpy_model):
        # each used to train, then fail writing report.json or checkpoint.npz
        src, tgt = tiny_pair
        cfg = TrainConfig(epochs=3, pretrain_epochs=1, batch_size=16, **train_kwargs)
        model = (dataclasses.replace(tiny_model_cfg, input_dim=np.int64(4)) if numpy_model
                 else tiny_model_cfg)
        run_single(src, tgt, cfg, model, "numpy", str(tmp_path / "r"))
        assert sorted(os.listdir(tmp_path / "r")) == ["checkpoint.npz", "epoch_records.jsonl",
                                                      "report.json"]
        loaded = RunReport.load(str(tmp_path / "r"))
        assert loaded.seed == cfg.seed and type(loaded.seed) is int


class TestWriteOutputs:
    def test_failed_rewrite_keeps_old_records(self, tiny_model_cfg, tmp_path):
        class Unwritable:
            def to_json(self):
                raise RuntimeError("cannot encode")

        state = init_model(tiny_model_cfg, seed=5)
        records = [EpochRecord(epoch, 0.01, 1.0, 0.0, 0.0, 0.0, 0.0) for epoch in (1, 2)]
        _write_outputs(tmp_path, state, records, None)
        path = tmp_path / "epoch_records.jsonl"
        before = path.read_bytes()
        assert before.count(b"\n") == 2
        # the first record is already in the temporary file when the second fails
        with pytest.raises(RuntimeError, match="cannot encode"):
            _write_outputs(tmp_path, state, [records[0], Unwritable()], None)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["checkpoint.npz", "epoch_records.jsonl"]


class TestCsvFormatting:
    def test_six_significant_digits(self):
        assert _fmt(0.123456789) == "0.123457"
        assert _fmt(1234567.0) == "1.23457e+06"
        assert _fmt(None) == ""
        assert _fmt("mean") == "mean"
        assert _fmt(7) == "7"


class TestAblate:
    def test_ladder_runs_all_rungs(self, tmp_path):
        doc = micro_doc(str(tmp_path / "ladder"))
        doc["train"]["epochs"] = 3
        doc["train"]["pretrain_epochs"] = 1
        results = ablate(parse_config(doc))
        assert list(results) == [
            "source_only",
            "adversarial",
            "adversarial_centroid",
            "adversarial_centroid_pairwise",
            "full",
        ]
        for agg in results.values():
            assert 0.0 <= agg["mean_accuracy"] <= 1.0
        lines = (tmp_path / "ladder" / "summary.csv").read_text().splitlines()
        assert lines[0] == "component_set,mean_accuracy,stddev_accuracy"
        assert len(lines) == 6


class TestSweepIf:
    def test_sweep_table_and_plotdata(self, tmp_path):
        doc = micro_doc(str(tmp_path / "sweep"))
        doc["train"]["epochs"] = 3
        doc["train"]["pretrain_epochs"] = 1
        table = sweep_if(parse_config(doc), [1, 5])
        assert set(table) == {"1", "5"}
        assert set(table["1"]) == {"full", "no_calibration", "source_only"}
        plot = json.loads((tmp_path / "sweep" / "plotdata" / "if_sweep.json").read_text())
        assert plot["if_values"] == [1.0, 5.0]
        assert len(plot["methods"]["full"]) == 2

    def test_rejects_bad_factors(self, tmp_path):
        cfg = parse_config(micro_doc(str(tmp_path / "bad")))
        with pytest.raises(ConfigError):
            sweep_if(cfg, [])
        with pytest.raises(ConfigError):
            sweep_if(cfg, [0.5])

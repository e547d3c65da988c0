"""Command-line behavior: subcommands, overrides, and exit codes."""

from __future__ import annotations

import errno
import io
import json
import os
import pathlib
import shutil

import numpy as np
import pytest

from shiftlab import ModelConfig, _jsonio, experiments, generate, init_model, save_checkpoint
from shiftlab.cli import main

from conftest import allocation_peak

MICRO = {
    "name": "cli",
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
    "train": {"epochs": 3, "pretrain_epochs": 1, "batch_size": 16},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MICRO))
    return str(path)


class TestGenData:
    def test_writes_csvs(self, config_file, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["gen-data", "--config", config_file, "--out", str(out)])
        assert code == 0
        assert (out / "source.csv").exists()
        assert (out / "target.csv").exists()
        spec = json.loads((out / "spec.json").read_text())
        assert spec["num_classes"] == 3
        assert "source and" in capsys.readouterr().out

    def test_existing_dir_exit_3(self, config_file, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", config_file, "--out", str(out)]) == 0
        assert main(["gen-data", "--config", config_file, "--out", str(out)]) == 3
        assert main(["gen-data", "--config", config_file, "--out", str(out), "--force"]) == 0

    def test_empty_out_exit_1(self, config_file, tmp_path, monkeypatch, caplog):
        # it was ignored, and the data went into the config's output_dir
        monkeypatch.chdir(tmp_path)
        assert main(["gen-data", "--config", config_file, "--out", ""]) == 1
        assert "output_dir must not be empty" in caplog.text
        assert os.listdir(tmp_path) == ["config.json"]

    def test_seed_flag_exit_1(self, config_file, tmp_path):
        # --seed picks training seeds, which gen-data does not use
        out = tmp_path / "data"
        assert main(["gen-data", "--config", config_file, "--out", str(out), "--seed", "3"]) == 1
        assert not out.exists()


class TestTrain:
    def test_train_and_eval_round_trip(self, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", config_file, "--out", str(out), "--seed", "100"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["name"] == "cli"
        assert summary["seeds"] == [100]
        assert 0.0 <= summary["mean_accuracy"] <= 1.0

        ckpt = out / "runs" / "seed100" / "checkpoint.npz"
        code = main(["eval", "--config", config_file, "--checkpoint", str(ckpt)])
        assert code == 0
        scored = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert scored["per_class_mean_accuracy"] == pytest.approx(
            summary["mean_accuracy"], abs=1e-9
        )

    def test_set_overrides_reach_trainer(self, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--config",
                config_file,
                "--out",
                str(out),
                "--set",
                "train.epochs=4",
                "--set",
                "train.pretrain_epochs=2",
            ]
        )
        assert code == 0
        records = (out / "runs" / "seed100" / "epoch_records.jsonl").read_text().splitlines()
        assert len(records) == 4

    def test_unknown_config_key_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trian": {}}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_invalid_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    # the data settings are allowed, but the features they draw make the
    # model's outputs overflow; they exited 2 with "batch weights must be finite"
    @pytest.mark.parametrize("setting, named", [
        ("train.lr0=1e9", "non-finite total loss"),
        ("data.translation=1e20", "non-finite source confidence nan"),
        ("data.noise_sigma=1e30", "non-finite source confidence nan"),
    ])
    def test_numeric_divergence_exit_2(self, config_file, tmp_path, caplog, setting, named):
        with np.errstate(all="ignore"):
            code = main(
                [
                    "train",
                    "--config",
                    config_file,
                    "--out",
                    str(tmp_path / "o"),
                    "--set",
                    setting,
                ]
            )
        assert code == 2
        assert f"NumericError: {named}" in caplog.text

    def test_missing_config_file_exit_1(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("flag", [[], ["--seed", "3"], ["--set", "name=x"]])
    @pytest.mark.parametrize("content", ["[1, 2]", "directory"])
    def test_unreadable_config_exit_1(self, tmp_path, caplog, content, flag):
        config = tmp_path / "config.json"
        if content == "directory":
            config.mkdir()
        else:
            config.write_text(content)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)] + flag) == 1
        assert str(config) in caplog.text
        assert not out.exists()

    # 10**400 is finite as an integer, but raised OverflowError (exit 2) as a float
    @pytest.mark.parametrize("value", ["NaN", "Infinity", pytest.param(f"{10**400}", id="1e400")])
    @pytest.mark.parametrize("field", ["imbalance_factor", "rotation_angle", "translation",
                                       "noise_sigma"])
    def test_non_finite_data_parameter_exit_1(self, config_file, tmp_path, field, value):
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out),
                "--set", f"data.{field}={value}"]
        assert main(args) == 1
        assert not out.exists()

    def test_repeated_seeds_exit_1(self, config_file, tmp_path):
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out), "--set", "seeds=[100,100]"]
        assert main(args) == 1
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["[-1]", "[true,2]", "[100,false]"])
    def test_bad_seeds_exit_1(self, config_file, tmp_path, seeds):
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out), "--set", f"seeds={seeds}"]
        assert main(args) == 1
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["model.input_dim=5", "model.num_classes=4"])
    def test_model_disagreeing_with_data_exit_1(self, config_file, tmp_path, setting):
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out), "--set", setting]
        assert main(args) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            "ablation.label_shift_calibration=False",
            "train.grl_schedule=False",
            "data.target_order=[2.9,1,0.2]",
            "train.epochs=2.5",
            "model.bottleneck_dim=6.5",
            "data.max_class_size=40.5",
            "train.lr0=true",
            "data.rotation_angle=abc",
            "data=5",
            "name=[1]",
        ],
    )
    def test_mistyped_value_exit_1(self, config_file, tmp_path, setting):
        # a bool field takes only true/false, an int field only integers,
        # a float field only numbers
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out), "--set", setting]
        assert main(args) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            f"data.max_class_size={10**30}",
            f"data.max_class_size={2**31}",
            f"data.feature_dim={10**30}",
            f"model.hidden_dims=[{10**30}]",
            f"model.bottleneck_dim={10**30}",
            f"train.epochs={10**30}",
            f"train.pretrain_epochs={10**30}",
            f"train.batch_size={10**30}",
        ],
    )
    def test_oversized_value_exit_1(self, config_file, tmp_path, caplog, setting):
        # a size above 2**31 - 1 is rejected, naming its field, before any array exists
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out), "--set", setting]
        codes = []
        assert allocation_peak(lambda: codes.append(main(args))) < 256 * 1024
        assert codes == [1] and not out.exists()
        field = setting.split("=")[0].split(".")[1]
        assert f"{field} must be at most 2147483647" in caplog.text

    @pytest.mark.parametrize(
        "setting",
        [
            "train.lr0=NaN",
            "train.calibration_offset=Infinity",
            "train.lr_beta=Infinity",
            "train.momentum=-Infinity",
            "train.centroid_loss_weight=NaN",
            f"train.confidence_threshold={10**400}",
            "train.lr_beta=400",
            "train.lr_beta=1e308",
        ],
    )
    def test_non_finite_value_exit_1(self, config_file, tmp_path, caplog, setting):
        # JSON reads NaN and Infinity; a float field must be finite, and lr_beta
        # must keep the schedule finite: 400 and 1e308 overflowed in lr_schedule
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out), "--set", setting]
        assert main(args) == 1 and not out.exists()
        field = setting.split("=")[0].split(".")[1]
        assert f"{field} must be finite" in caplog.text

    def test_largest_size_as_feature_dim_exit_1(self, config_file, tmp_path, caplog):
        # a scalar translation was expanded to 2**31 - 1 entries (MemoryError, exit 2)
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out),
                "--set", f"data.feature_dim={2**31 - 1}"]
        codes = []
        assert allocation_peak(lambda: codes.append(main(args))) < 256 * 1024
        assert codes == [1] and not out.exists()
        assert "feature_dim must be at most 65536" in caplog.text

    @pytest.mark.parametrize("setting", ["data.noise_sigma=1e308", "data.noise_sigma=1e200",
                                         "data.translation=1e308"])
    def test_features_beyond_the_norm_bound_exit_1(self, config_file, tmp_path, caplog,
                                                   setting):
        # the first exited 2 with "batch weights must be finite", the others with
        # a NumericError on a NaN loss
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out), "--set", setting]
        assert main(args) == 1 and not out.exists()
        field = setting.split("=")[0].split(".")[1]
        assert f"{field} puts drawn features up to" in caplog.text

    def test_nul_byte_in_output_dir_exit_1(self, config_file, tmp_path, monkeypatch, caplog):
        # it exited 2 with "ValueError: embedded null byte"
        monkeypatch.chdir(tmp_path)
        args = ["train", "--config", config_file, "--set", 'output_dir="a\\u0000b"']
        assert main(args) == 1
        assert "output_dir must not hold a NUL byte" in caplog.text
        assert os.listdir(tmp_path) == ["config.json"]

    def test_empty_output_dir_exit_1(self, config_file, tmp_path, monkeypatch, caplog):
        # it exited 2 with "FileNotFoundError: ''"
        monkeypatch.chdir(tmp_path)
        args = ["train", "--config", config_file, "--set", 'output_dir=""']
        assert main(args) == 1
        assert "output_dir must not be empty" in caplog.text
        assert os.listdir(tmp_path) == ["config.json"]


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """The config file of a MICRO run and the checkpoint ``train`` wrote for it."""
    root = tmp_path_factory.mktemp("trained")
    config = root / "config.json"
    config.write_text(json.dumps(MICRO))
    assert main(["train", "--config", str(config), "--out", str(root / "run")]) == 0
    return str(config), str(root / "run" / "runs" / "seed100" / "checkpoint.npz")


class TestEval:
    def test_missing_checkpoint_exit_1(self, config_file, tmp_path):
        code = main(
            ["eval", "--config", config_file, "--checkpoint", str(tmp_path / "none.npz")]
        )
        assert code == 1

    @pytest.mark.parametrize("data", [
        {"feature_dim": 10},
        {"num_classes": 4, "target_order": [3, 2, 1, 0]},
    ], ids=["features", "classes"])
    def test_checkpoint_for_other_dimensions_exit_1(self, tmp_path, caplog, data):
        # without a model section the config accepts any data dimensions
        doc = {key: value for key, value in MICRO.items() if key != "model"}
        doc["data"] = dict(MICRO["data"], **data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        ckpt = str(tmp_path / "checkpoint.npz")
        save_checkpoint(init_model(ModelConfig(4, 3), 0), ckpt)
        assert main(["eval", "--config", str(config), "--checkpoint", ckpt]) == 1
        assert "takes 4 features and 3 classes" in caplog.text

    # each edit of a readable checkpoint's arrays or provenance, and the message
    # naming it; before they were refused, the string weights and the
    # provenance edits exited 2, and the complex and NaN weights and the
    # arrays of no layer were scored
    EDITS = {
        "string_weight": ("classifier weight has dtype <U", lambda a, meta: a.update(
            {"classifier.0.weight": a["classifier.0.weight"].astype(str)})),
        "complex_weight": ("classifier weight has dtype complex128", lambda a, meta: a.update(
            {"classifier.0.weight": a["classifier.0.weight"] + 1j})),
        "nan_weight": ("extractor layer 0 bias holds a non-finite value", lambda a, meta: a.update(
            {"extractor.0.bias": a["extractor.0.bias"] + np.nan})),
        "provenance_list": ("provenance must be an object", lambda a, meta: meta.update(
            provenance=[meta["provenance"]])),
        "numeric_digest": ("provenance must be an object", lambda a, meta: meta["provenance"].update(
            features_sha256=5)),
        "data_list": ("provenance must be an object", lambda a, meta: meta["provenance"].update(
            data=[7])),
        "extra_array": ("array 'junk' belongs to no layer", lambda a, meta: a.update(
            junk=np.zeros(3))),
        "extra_layer_array": ("array 'classifier.0.extra' belongs to no layer",
                              lambda a, meta: a.update({"classifier.0.extra": np.zeros((1, 3))})),
    }

    @pytest.mark.parametrize(
        "content", ["old_json", "truncated", "not_a_file_format", "directory", *EDITS])
    def test_unreadable_checkpoint_exit_1(self, trained_checkpoint, tmp_path, caplog, capsys,
                                          content):
        config, trained = trained_checkpoint
        ckpt = tmp_path / "checkpoint.npz"
        blob = pathlib.Path(trained).read_bytes()
        if content == "directory":
            ckpt.mkdir()
        elif content in self.EDITS:
            with np.load(trained) as npz:
                arrays = dict(npz)
            meta = json.loads(str(arrays["meta"]))
            self.EDITS[content][1](arrays, meta)
            arrays["meta"] = np.array(json.dumps(meta))
            with open(ckpt, "wb") as fh:
                np.savez(fh, **arrays)
        else:
            ckpt.write_bytes({
                "old_json": b'{"config": {"input_dim": 4, "num_classes": 3}, "init_seed": 1}',
                "truncated": blob[: len(blob) // 2],
                "not_a_file_format": b"\x00\x01 garbage",
            }[content])
        assert main(["eval", "--config", config, "--checkpoint", str(ckpt)]) == 1
        assert str(ckpt) in caplog.text
        hint = "JSON checkpoints of earlier versions no longer load"
        assert (hint in caplog.text) == (content not in ("directory", *self.EDITS))
        if content in self.EDITS:
            assert self.EDITS[content][0] in caplog.text
        assert capsys.readouterr().out == ""

    def test_same_data_exit_0(self, trained_checkpoint, caplog):
        config, ckpt = trained_checkpoint
        assert main(["eval", "--config", config, "--checkpoint", ckpt]) == 0
        assert "WARNING" not in caplog.text

    def test_other_data_exit_1(self, trained_checkpoint, caplog, capsys):
        config, ckpt = trained_checkpoint
        assert main(["eval", "--config", config, "--checkpoint", ckpt,
                     "--set", "data.seed=8"]) == 1
        assert "trained on other data than this config generates (data.seed 7 -> 8)" in caplog.text
        assert capsys.readouterr().out == ""

    def test_hand_saved_checkpoint_is_scored_with_a_warning(self, config_file, tmp_path, caplog,
                                                           capsys):
        ckpt = str(tmp_path / "checkpoint.npz")
        save_checkpoint(init_model(ModelConfig(**MICRO["model"]), 0), ckpt)
        assert main(["eval", "--config", config_file, "--checkpoint", ckpt]) == 0
        assert "does not record its training data" in caplog.text
        assert "per_class_mean_accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--out", "o"], ["--force"], ["--seed", "3"]])
    def test_output_flags_exit_1(self, config_file, tmp_path, flag):
        # eval writes nothing and scores one checkpoint, so these would do nothing
        ckpt = str(tmp_path / "checkpoint.npz")
        save_checkpoint(init_model(ModelConfig(**MICRO["model"]), 0), ckpt)
        args = ["eval", "--config", config_file, "--checkpoint", ckpt]
        assert main(args) == 0
        assert main(args + flag) == 1


class TestReport:
    def test_rebuild_after_train(self, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        capsys.readouterr()
        original = json.loads((out / "aggregate.json").read_text())
        os.remove(out / "aggregate.json")
        assert main(["report", "--dir", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == original
        assert json.loads((out / "aggregate.json").read_text()) == original

    def test_rebuild_keeps_the_seed_order(self, config_file, tmp_path, capsys):
        # "seed10" sorts before "seed5" as a name; the rebuild keeps the run order
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--set", "seeds=[5,10]"]) == 0
        names = ["aggregate.json", "summary.csv"]
        names += [os.path.join("plotdata", name) for name in os.listdir(out / "plotdata")]
        assert len(names) == 5
        original = {name: (out / name).read_bytes() for name in names}
        assert json.loads(original["aggregate.json"])["seeds"] == [5, 10]
        assert main(["report", "--dir", str(out)]) == 0
        for name in names:
            assert (out / name).read_bytes() == original[name], name

    def test_empty_dir_exit_1(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("fault, named", [
        ("corrupt_manifest", ["manifest.json"]),
        ("manifest_list", ["manifest.json"]),
        ("report_lacks_seed", ["report.json", "'seed'"]),
        ("report_mistyped_field", ["report.json", "final_per_class_mean_acc"]),
        ("corrupt_report", ["report.json"]),
        ("no_epoch_records", ["epoch_records.jsonl"]),
        ("record_lacks_field", ["epoch_records.jsonl line 2", "calibrated_fraction"]),
        ("report_nan_mean", ["report.json", "final_per_class_mean_acc"]),
        ("report_no_per_class", ["report.json", "final_per_class_acc"]),
        ("record_infinite_loss", ["epoch_records.jsonl line 1", "loss_class"]),
    ])
    def test_unreadable_run_files_exit_1(self, trained_checkpoint, tmp_path, caplog, fault,
                                         named):
        out = tmp_path / "run"
        shutil.copytree(pathlib.Path(trained_checkpoint[1]).parents[2], out)
        os.remove(out / "aggregate.json")
        run_dir = out / "runs" / "seed100"
        if fault == "corrupt_manifest":
            (out / "manifest.json").write_text('{"completed": [100')
        elif fault == "manifest_list":
            (out / "manifest.json").write_text("[100]")
        elif fault.startswith("report_"):
            doc = json.loads((run_dir / "report.json").read_text())
            if fault == "report_lacks_seed":
                del doc["seed"]
            elif fault == "report_nan_mean":
                doc["final_per_class_mean_acc"] = float("nan")
            elif fault == "report_no_per_class":
                doc["final_per_class_acc"] = []
            else:
                doc["final_per_class_mean_acc"] = "high"
            (run_dir / "report.json").write_text(json.dumps(doc))
        elif fault == "corrupt_report":
            (run_dir / "report.json").write_bytes(b"\xff\xfe")
        elif fault == "no_epoch_records":
            os.remove(run_dir / "epoch_records.jsonl")
        else:
            path = run_dir / "epoch_records.jsonl"
            records = [json.loads(line) for line in path.read_text().splitlines()]
            if fault == "record_infinite_loss":
                records[0]["loss_class"] = float("inf")
            else:
                del records[1]["calibrated_fraction"]
            path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert main(["report", "--dir", str(out)]) == 1
        assert all(name in caplog.text for name in named)
        assert not (out / "aggregate.json").exists()


class TestSweepAndAblate:
    def test_sweep_if_cli(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            ["sweep-if", "--config", config_file, "--out", str(out), "--if-values", "1,5"]
        )
        assert code == 0
        table = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(table) == {"1", "5"}

    def test_bad_if_values_exit_1(self, config_file, tmp_path):
        code = main(
            ["sweep-if", "--config", config_file, "--out", str(tmp_path / "s"), "--if-values", "abc"]
        )
        assert code == 1

    @pytest.mark.parametrize("if_values", ["nan", "inf", "5,nan"])
    def test_non_finite_if_values_exit_1(self, config_file, tmp_path, if_values):
        out = tmp_path / "sweep"
        args = ["sweep-if", "--config", config_file, "--out", str(out), "--if-values", if_values]
        assert main(args) == 1
        assert not out.exists()

    @pytest.mark.parametrize("if_values", ["5,5", "1.0000001,1.0000002"])
    def test_if_values_sharing_a_directory_exit_1(self, config_file, tmp_path, if_values):
        # both values of the second pair format as "if1"
        out = tmp_path / "sweep"
        for force in ([], ["--force"]):
            args = ["sweep-if", "--config", config_file, "--out", str(out), "--if-values", if_values]
            assert main(args + force) == 1
            assert not out.exists()

    def test_ablate_cli(self, config_file, tmp_path, capsys):
        out = tmp_path / "ladder"
        code = main(["ablate", "--config", config_file, "--out", str(out)])
        assert code == 0
        table = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert list(table) == [
            "source_only",
            "adversarial",
            "adversarial_centroid",
            "adversarial_centroid_pairwise",
            "full",
        ]


@pytest.fixture(scope="module")
def finished_ladder(tmp_path_factory):
    """The output directory of a finished MICRO ``ablate``; copy it before editing."""
    root = tmp_path_factory.mktemp("finished")
    config = root / "config.json"
    config.write_text(json.dumps(MICRO))
    assert main(["ablate", "--config", str(config), "--out", str(root / "ladder")]) == 0
    return root / "ladder"


def files_under(root: pathlib.Path, skip: pathlib.Path | None = None) -> dict:
    """Every file below ``root`` but those below ``skip``, with its bytes."""
    return {path: path.read_bytes() for path in root.rglob("*")
            if path.is_file() and (skip is None or skip not in path.parents)}


class TestGridReport:
    """report --dir rebuilds a whole grid: every cell, then the root."""

    @pytest.mark.parametrize("command, cells, draws", [
        (["ablate"], 5, 1),
        (["sweep-if", "--if-values", "1,5"], 6, 2),
    ], ids=["ablate", "sweep-if"])
    def test_rebuilds_every_summary(self, config_file, tmp_path, monkeypatch, capsys, command,
                                    cells, draws):
        specs = []

        def counted_generate(spec):
            specs.append(spec)
            return generate(spec)

        monkeypatch.setattr(experiments, "generate", counted_generate)
        out = tmp_path / "grid"
        assert main([*command, "--config", config_file, "--out", str(out)]) == 0
        assert len(specs) == draws  # the data of each distinct ShiftSpec is drawn once
        capsys.readouterr()

        built = sorted(path for path in out.rglob("*") if path.is_file() and (
            path.name in ("summary.csv", "aggregate.json") or path.parent.name == "plotdata"))
        names = [path.name for path in built]
        assert names.count("summary.csv") == names.count("aggregate.json") == cells + 1
        assert names.count("calibrated_fraction.json") == cells
        original = {path: path.read_bytes() for path in built}
        for path in built:
            path.unlink()
        for plot_dir in list(out.rglob("plotdata")):
            plot_dir.rmdir()
        assert main(["report", "--dir", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == json.loads(original[out / "aggregate.json"])
        for path, data in original.items():
            assert path.read_bytes() == data, path
        assert len(specs) == draws  # rebuilding trains and draws nothing

    @pytest.mark.parametrize("manifest, named", [
        ({"command": "train", "cells": []}, "no known grid command"),
        ({"command": "ablate", "cells": [{"subdir": "full"}]}, "needs a completed state"),
        ({"command": "ablate", "cells": [{"subdir": 1, "name": "full", "rung": "full"}]},
         "did not complete"),
        ({"command": "ablate",
          "cells": [{"subdir": ".", "name": "a", "rung": "full", "state": "completed"}]},
         "each of the 5 cells"),
        ({"command": "sweep-if", "if_values": ["1"],
          "cells": [{"subdir": "a", "name": "a", "rung": "full", "state": "completed"}]},
         "if_values"),
        ({"command": "ablate",
          "cells": [{"subdir": "a", "name": "a", "rung": "full", "state": "running"}]},
         "did not complete"),
    ])
    def test_malformed_grid_manifest_exit_1(self, tmp_path, caplog, manifest, named):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", "--dir", str(tmp_path)]) == 1
        assert "manifest.json" in caplog.text and named in caplog.text
        assert sorted(os.listdir(tmp_path)) == ["manifest.json"]

    @pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
    def test_cell_paths_in_the_manifest_are_not_followed(self, finished_ladder, tmp_path,
                                                          absolute):
        # the cells' sub-directories come from the command alone; a manifest
        # naming another experiment's directory once had report --dir rewrite it
        out, victim = tmp_path / "ladder", tmp_path / "victim"
        shutil.copytree(finished_ladder, out)
        shutil.copytree(out / "full", victim)
        (victim / "summary.csv").write_text("edited by hand\n")
        before = files_under(victim)
        manifest = json.loads((out / "manifest.json").read_text())
        for cell in manifest["cells"]:
            cell["subdir"] = str(victim) if absolute else os.path.join("..", "victim")
        (out / "manifest.json").write_text(json.dumps(manifest))
        rebuilt = out / "aggregate.json"
        original = rebuilt.read_bytes()
        rebuilt.unlink()
        assert main(["report", "--dir", str(out)]) == 0
        assert files_under(victim) == before
        assert rebuilt.read_bytes() == original

    def test_mutated_manifests_exit_0_or_name_a_manifest(self, finished_ladder, tmp_path,
                                                         caplog):
        # one edit of the root manifest or of one cell's: each run exits 0, or
        # exits 1 naming a manifest.json, and writes nothing outside the root
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        out, victim = tmp_path / "ladder", tmp_path / "victim"
        shutil.copytree(finished_ladder, out)
        shutil.copytree(out / "full", victim)
        outside = files_under(tmp_path, skip=out)
        manifests = {path: path.read_bytes() for path in out.rglob("manifest.json")}
        drop = object()
        leaves = st.one_of(
            st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(), st.text(max_size=4),
            st.sampled_from([100, 5, "completed", "ablate", "sweep-if", "", ".", "..",
                             "../victim", str(victim), "/", "seed100", "../runs/seed100"]))

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(
            key=st.sampled_from(["command", "if_values", "cells", "subdir", "state", "completed"]),
            value=st.one_of(st.just(drop), leaves, st.lists(leaves, max_size=6)),
            cell=st.integers(0, len(experiments.LADDER) - 1),
        )
        def check(key, value, cell):
            # a rebuild rewrites the same bytes, so only the manifests are restored
            for path, data in manifests.items():
                path.write_bytes(data)
            path = out / (experiments.LADDER[cell] if key == "completed" else "") / "manifest.json"
            doc = json.loads(path.read_text())
            if key == "if_values":
                doc["command"] = "sweep-if"
            edited = doc["cells"][cell] if key in ("subdir", "state") else doc
            if value is drop:
                edited.pop(key, None)
            else:
                edited[key] = value
            path.write_text(json.dumps(doc))
            caplog.clear()
            code = main(["report", "--dir", str(out)])
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert code in (0, 1), errors
            assert code == 0 or "manifest.json" in errors[0], errors
            assert files_under(tmp_path, skip=out) == outside

        check()


class TestFailurePath:
    """A diverging seed is marked in its manifest and stops the driver."""

    DIVERGE = ["--set", "train.lr0=1e9"]

    def test_train_marks_the_failed_seed(self, config_file, tmp_path):
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = main(["train", "--config", config_file, "--out", str(out), *self.DIVERGE])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["completed"] == []
        assert [entry["seed"] for entry in manifest["failed"]] == [100]
        assert manifest["failed"][0]["error"]
        assert not (out / "summary.csv").exists()

    def test_ablate_stops_at_the_first_failing_rung(self, config_file, tmp_path):
        # the source-only micro run stays finite even at this rate; the
        # discriminator's outputs go NaN, and the floors pass the NaN on to
        # the loss, so the adversarial rung is the first to fail
        out = tmp_path / "ladder"
        with np.errstate(all="ignore"):
            code = main(["ablate", "--config", config_file, "--out", str(out), *self.DIVERGE])
        assert code == 2
        # no later rung directory, and no top-level summary.csv or aggregate.json
        assert sorted(os.listdir(out)) == ["adversarial", "manifest.json", "source_only"]
        assert json.loads((out / "source_only" / "manifest.json").read_text())["completed"] == [100]
        manifest = json.loads((out / "adversarial" / "manifest.json").read_text())
        assert manifest["completed"] == []
        assert [entry["seed"] for entry in manifest["failed"]] == [100]
        assert not (out / "adversarial" / "summary.csv").exists()
        root = json.loads((out / "manifest.json").read_text())
        assert root["command"] == "ablate"
        assert [(cell["subdir"], cell["state"]) for cell in root["cells"]] == [
            ("source_only", "completed"),
            ("adversarial", "failed"),
            ("adversarial_centroid", "not_run"),
            ("adversarial_centroid_pairwise", "not_run"),
            ("full", "not_run"),
        ]
        # an unfinished grid has no top-level results to rebuild
        assert main(["report", "--dir", str(out)]) == 1
        assert not (out / "summary.csv").exists()


    def test_a_completed_mark_that_cannot_be_written_marks_the_cell_failed(
            self, config_file, tmp_path, monkeypatch, caplog):
        # the write that marks the first rung completed fails once, partway
        # through; the grid stops there, and the manifest says so
        out = tmp_path / "ladder"
        root_manifest = str(out / "manifest.json")
        write_file, failed = _jsonio.write_file, []

        def fail_the_completed_mark(path, write):
            if os.fspath(path) == root_manifest and not failed:
                whole = io.BytesIO()
                write(whole)
                if json.loads(whole.getvalue())["cells"][0]["state"] == "completed":
                    failed.append(path)

                    def partial(fh):
                        fh.write(whole.getvalue()[:10])
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

                    return write_file(path, partial)
            return write_file(path, write)

        monkeypatch.setattr(_jsonio, "write_file", fail_the_completed_mark)
        assert main(["ablate", "--config", config_file, "--out", str(out)]) == 2
        assert len(failed) == 1
        root = json.loads((out / "manifest.json").read_text())
        assert [cell["state"] for cell in root["cells"]] == ["failed"] + ["not_run"] * 4
        assert not list(out.rglob("*.tmp"))
        caplog.clear()
        assert main(["report", "--dir", str(out)]) == 1
        assert "manifest.json" in caplog.text


class TestParserBasics:
    def test_no_command_exit_1(self):
        assert main([]) == 1

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1

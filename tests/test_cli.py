"""CLI contract: subcommands, exit codes, flag overrides, persisted configs."""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from antitransfer import checkpoint as ck
from antitransfer import training
from antitransfer.cli import _COMMANDS, _resolve_config, build_parser, main
from antitransfer.config import DataConfig, ExperimentConfig
from antitransfer.data import (MANIFEST_NAMES, read_manifest, write_manifest,
                               write_sample)
from antitransfer.synth import SynthSpec
from antitransfer.training import TrainConfig


def write_config(tmp_path, out_name="run", strategy="scratch", checkpoints=(),
                 label_field="target", data_dir=None):
    if data_dir is None:
        data = DataConfig(kind="synth",
                          synth=SynthSpec(samples_per_split=(24, 8, 8),
                                          image_size=(16, 17), seed=5))
    else:
        data = DataConfig(kind="manifest_dir", path=str(data_dir))
    cfg = ExperimentConfig(
        train=TrainConfig(strategy=strategy, seed=3, max_epochs=2,
                          arch_preset="vgg-tiny", label_field=label_field,
                          pretrained_checkpoints=tuple(map(str, checkpoints))),
        data=data,
        output_dir=str(tmp_path / out_name))
    path = tmp_path / "config.json"
    cfg.save(path)
    return path


class TestTrainCommand:
    def test_scratch_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "run"
        for name in ("config.json", "metrics.csv", "summary.json", "model.atck"):
            assert (out / name).exists(), name
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["train"]["strategy"] == "scratch"
        assert echoed["train"]["lr"] == 0.0005      # defaults are persisted

    def test_rerun_same_config_gives_identical_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        first = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert main(["train", "--config", str(cfg)]) == 0
        second = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert first["test_accuracy"] == second["test_accuracy"]
        assert first["best_epoch"] == second["best_epoch"]

    def test_at_strategy_with_flags(self, tmp_path, orth_checkpoint,
                                    tiny_data_dir):
        cfg = write_config(tmp_path, data_dir=tiny_data_dir)
        code = main(["train", "--config", str(cfg), "--strategy", "at",
                     "--checkpoint", str(orth_checkpoint),
                     "--at-layer", "2", "--beta", "1.0",
                     "--aggregation", "gram"])
        assert code == 0
        echoed = json.loads((tmp_path / "run" / "config.json").read_text())
        assert echoed["train"]["strategy"] == "at"
        assert echoed["train"]["at"]["layers"] == [2]

    def test_negative_beta_rejected(self, tmp_path, orth_checkpoint,
                                    tiny_data_dir, capsys):
        cfg = write_config(tmp_path, data_dir=tiny_data_dir)
        for beta in ("-1", "nan"):
            code = main(["train", "--config", str(cfg), "--strategy", "at",
                         "--checkpoint", str(orth_checkpoint), "--beta", beta])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
            assert "beta" in err and "at_inverse" in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_malformed_config_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "train": {},\n')
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert ":3:" in err or ":2:" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"nope": 1}, "data": {
            "kind": "synth", "synth": {}}, "output_dir": "x"}))
        missing = tmp_path / "missing.json"
        for cfg in (path, missing):
            for command in (["train"], ["sweep", "--layers", "1"]):
                assert main(command + ["--config", str(cfg)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error:") and str(cfg) in err

    def test_integer_dtype_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["dtype"] = "int8"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "dtype" in err and "'int8'" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_split_policy_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["split_policy"] = "bogus"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "split_policy" in err and "'bogus'" in err
        assert not (tmp_path / "run").exists()

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, tiny_data_dir):
        cfg = write_config(tmp_path, data_dir=tiny_data_dir)
        code = main(["train", "--config", str(cfg), "--strategy", "at",
                     "--checkpoint", str(tmp_path / "missing.atck")])
        assert code == 3

    def test_loss_turning_non_finite_mid_training_exits_3(self, tmp_path,
                                                          tiny_data_dir,
                                                          capsys):
        """A finite sample large enough to overflow the convs sits in the
        second batch, where the per-layer finite checks are off: the
        per-batch loss check stops the run."""
        cfg_path = write_config(tmp_path, data_dir=tmp_path / "data")
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["normalize_inputs"] = False
        cfg_path.write_text(json.dumps(cfg))
        seed, batch = cfg["train"]["seed"], cfg["train"]["batch_size"]
        (tmp_path / "data").mkdir()
        for split, name in MANIFEST_NAMES.items():
            rows = [replace(r, path=str(tiny_data_dir / r.path))
                    for r in read_manifest(tiny_data_dir / name)]
            if split == "train":
                # the first sample of the second batch of epoch 0
                i = np.random.default_rng([seed, 1]).permutation(len(rows))[batch]
                write_sample(tmp_path / "huge.atck",
                             np.full((16, 17), 3e38, dtype=np.float32))
                rows[i] = replace(rows[i], path=str(tmp_path / "huge.atck"))
            write_manifest(tmp_path / "data" / name, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("training failure: non-finite loss at epoch 0, "
                              f"samples {batch}..{2 * batch}")

    def test_overrides_are_checked_once_in_combination(self, tmp_path):
        """at -> dual-at with two checkpoints is valid only as a whole."""
        cfg = write_config(tmp_path, strategy="at", checkpoints=("a.atck",))
        args = build_parser().parse_args(
            ["train", "--config", str(cfg), "--strategy", "dual-at",
             "--checkpoint", "a.atck", "--checkpoint", "b.atck"])
        train = _resolve_config(args, with_at_flags=True).train
        assert train.strategy == "dual_at"
        assert train.pretrained_checkpoints == ("a.atck", "b.atck")

    def test_at_without_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--strategy", "at"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "checkpoint" in err

    def test_at_layer_zero_exits_2(self, tmp_path, orth_checkpoint, capsys):
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,))
        assert main(["train", "--config", str(cfg), "--at-layer", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at layers" in err

    def test_at_layer_beyond_the_network_exits_2(self, tmp_path, orth_checkpoint,
                                                 tiny_data_dir, capsys):
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        assert main(["train", "--config", str(cfg), "--at-layer", "9"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1..4" in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_val_label_missing_from_train_exits_2(self, tmp_path,
                                                  unseen_label_dir, capsys):
        cfg = write_config(tmp_path, data_dir=unseen_label_dir)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'unseen'" in err

    def test_dual_at_runs_both_stages(self, tmp_path, orth_checkpoint,
                                      tiny_data_dir):
        cfg = write_config(tmp_path, data_dir=tiny_data_dir)
        code = main(["train", "--config", str(cfg), "--strategy", "dual-at",
                     "--checkpoint", str(orth_checkpoint),
                     "--checkpoint", str(orth_checkpoint), "--at-layer", "1"])
        assert code == 0
        assert (tmp_path / "run" / "intermediate" / "model.atck").exists()
        assert (tmp_path / "run" / "final_init.atck").exists()


class TestStrategyTable:
    @pytest.mark.parametrize("name", list(training.STRATEGIES))
    def test_every_strategy_trains_and_records_itself(self, name, tmp_path,
                                                      orth_checkpoint,
                                                      tiny_data_dir):
        """--strategy spells each row of the table with hyphens; one epoch
        of it writes a summary and a checkpoint that name it."""
        cfg_path = write_config(tmp_path, data_dir=tiny_data_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["max_epochs"] = 1
        cfg_path.write_text(json.dumps(cfg))
        n = training.STRATEGIES[name].checkpoints or 0
        argv = ["train", "--config", str(cfg_path),
                "--strategy", name.replace("_", "-"),
                *["--checkpoint", str(orth_checkpoint)] * n]
        resolved = _resolve_config(build_parser().parse_args(argv), True)
        assert resolved.train.strategy == name
        assert main(argv) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["strategy"] == name
        assert ck.load(tmp_path / "run" / "model.atck").provenance["strategy"] \
            == name


class TestLabelField:
    @pytest.mark.parametrize("command", ["train", "pretrain"])
    @pytest.mark.parametrize("label, message", [
        ("bogus", "unknown label field 'bogus'"),
        ("orth2", "dataset has no complete orth2 labels")])
    def test_label_the_data_cannot_give_exits_2(self, tmp_path, capsys,
                                                command, label, message):
        """The synth data has one orth column; neither label can train."""
        cfg_path = write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["label_field"] = label
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "run" / "model.atck").exists()


class TestPretrainCommand:
    def test_pretrain_writes_checkpoint(self, tmp_path, orth_data_dir):
        cfg = write_config(tmp_path, label_field="orth1", data_dir=orth_data_dir)
        assert main(["pretrain", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "model.atck").exists()
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_rerun_identical_summary(self, tmp_path, orth_data_dir):
        cfg = write_config(tmp_path, label_field="orth1", data_dir=orth_data_dir)
        main(["pretrain", "--config", str(cfg)])
        first = (tmp_path / "run" / "summary.json").read_text()
        main(["pretrain", "--config", str(cfg)])
        assert (tmp_path / "run" / "summary.json").read_text() == first


class TestSweepCommand:
    def test_layer_sweep_emits_rows(self, tmp_path, orth_checkpoint,
                                    tiny_data_dir, capsys):
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        assert main(["sweep", "--config", str(cfg), "--layers", "1..2"]) == 0
        lines = (tmp_path / "run" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3   # header + 2 layers
        assert "best" in lines[0]

    def test_beta_sweep_includes_value_one(self, tmp_path, orth_checkpoint,
                                           tiny_data_dir):
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        assert main(["sweep", "--config", str(cfg), "--betas", "0.5,1"]) == 0
        body = (tmp_path / "run" / "sweep.csv").read_text()
        assert "\n1.0," in body

    def test_empty_grid_exits_2(self, tmp_path, orth_checkpoint, tiny_data_dir):
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        assert main(["sweep", "--config", str(cfg), "--layers", ""]) == 2

    def test_malformed_grid_exits_2_naming_the_flag(self, tmp_path,
                                                    orth_checkpoint,
                                                    tiny_data_dir, capsys):
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        for flag, grid in (("--layers", "a..b"), ("--layers", "1,x"),
                           ("--betas", "x"), ("--betas", "0.5,1..2"),
                           ("--betas", "-1"), ("--betas", "0.5,nan"),
                           ("--betas", "inf")):
            assert main(["sweep", "--config", str(cfg), flag, grid]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and flag in err
            assert err.count("\n") == 1
        assert not (tmp_path / "run" / "sweep.csv").exists()
        assert not list((tmp_path / "run").glob("beta_*"))

    def test_repeated_grid_value_exits_2_before_training(
            self, tmp_path, orth_checkpoint, tiny_data_dir, capsys):
        """`--betas 1,1.0` and `--layers 2,2` would give two points one run
        directory, which two workers of `--jobs 2` write at once."""
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        for flag, grid, value in (("--betas", "1,1.0", "beta 1.0"),
                                  ("--layers", "2,2", "layer 2")):
            assert main(["sweep", "--config", str(cfg), flag, grid,
                         "--jobs", "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
            assert flag in err and f"{value} is given twice" in err
        assert not list((tmp_path / "run").glob("*_*"))

    def test_select_by_is_an_unknown_flag(self, tmp_path, orth_checkpoint,
                                          tiny_data_dir, capsys):
        """Validation cross-entropy is the one selection rule."""
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--config", str(cfg), "--layers", "1..2",
                  "--select-by", "val_loss"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --select-by" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_layer_grid_checked_before_training(self, tmp_path, orth_checkpoint,
                                                tiny_data_dir, capsys):
        """A grid point outside the network's convs exits 2 naming 1..K,
        and no point of the grid trains."""
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        for grid in ("0..1", "3..9"):
            assert main(["sweep", "--config", str(cfg), "--layers", grid]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "1..4" in err
        assert not list((tmp_path / "run").glob("layer_*"))

    def test_zero_epochs_exits_2_before_training(self, tmp_path,
                                                 orth_checkpoint,
                                                 tiny_data_dir, capsys):
        cfg_path = write_config(tmp_path, strategy="at",
                                checkpoints=(orth_checkpoint,),
                                data_dir=tiny_data_dir)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["max_epochs"] = 0
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path), "--betas", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "max_epochs" in err
        assert not list(tmp_path.rglob("metrics.csv"))

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2_before_training(self, jobs, tmp_path,
                                                    orth_checkpoint,
                                                    tiny_data_dir, capsys):
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        assert main(["sweep", "--config", str(cfg), "--layers", "1",
                     "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "--jobs" in err
        assert not (tmp_path / "run").exists()

    def test_needs_exactly_one_grid(self, tmp_path, orth_checkpoint,
                                    tiny_data_dir):
        cfg = write_config(tmp_path, strategy="at",
                           checkpoints=(orth_checkpoint,),
                           data_dir=tiny_data_dir)
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert main(["sweep", "--config", str(cfg), "--layers", "1..2",
                     "--betas", "1"]) == 2

    def test_parallel_jobs_match_sequential(self, tmp_path, orth_checkpoint,
                                            tiny_data_dir):
        # a manifest_dir source, then a synth source that each sweep
        # generates into its own output directory
        for data_dir in (tiny_data_dir, None):
            cfg = write_config(tmp_path, strategy="at",
                               checkpoints=(orth_checkpoint,),
                               data_dir=data_dir)
            name = "synth" if data_dir is None else "manifest"
            seq, par = tmp_path / f"{name}_seq", tmp_path / f"{name}_par"
            assert main(["sweep", "--config", str(cfg), "--layers", "1..2",
                         "--out", str(seq)]) == 0
            assert main(["sweep", "--config", str(cfg), "--layers", "1..2",
                         "--jobs", "2", "--out", str(par)]) == 0
            assert ((seq / "sweep.csv").read_bytes()
                    == (par / "sweep.csv").read_bytes())


class TestGradcheckCommand:
    def test_fresh_checkout_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "[FAIL]" not in out
        assert "max relative error" in out

    def test_injected_sign_flip_fails(self, capsys, flipped_at_gradient):
        assert main(["gradcheck"]) == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestGradcamCommand:
    def test_end_to_end_pgms(self, tmp_path, orth_checkpoint, tiny_data_dir):
        rows = read_manifest(tiny_data_dir / "test_manifest.csv")
        sample = tiny_data_dir / rows[0].path
        out = tmp_path / "cam"
        code = main(["gradcam", "--checkpoint", str(orth_checkpoint),
                     "--input", str(sample), "--layer", "1", "--class", "0",
                     "--out", str(out), "--csv"])
        assert code == 0
        assert out.with_suffix(".spec.pgm").exists()
        assert out.with_suffix(".heat.pgm").exists()
        assert out.with_suffix(".overlay.pgm").exists()
        assert out.with_suffix(".heat.csv").exists()

    def test_bad_layer_is_runtime_error(self, tmp_path, orth_checkpoint,
                                        tiny_data_dir):
        rows = read_manifest(tiny_data_dir / "test_manifest.csv")
        sample = tiny_data_dir / rows[0].path
        code = main(["gradcam", "--checkpoint", str(orth_checkpoint),
                     "--input", str(sample), "--layer", "9", "--class", "0",
                     "--out", str(tmp_path / "cam")])
        assert code == 3


    def test_checkpoint_with_list_meta_exits_3(self, tmp_path, tiny_data_dir,
                                               capsys):
        bad = tmp_path / "list_meta.atck"
        ck.write_container(bad, [1, 2], {})
        rows = read_manifest(tiny_data_dir / "test_manifest.csv")
        code = main(["gradcam", "--checkpoint", str(bad),
                     "--input", str(tiny_data_dir / rows[0].path),
                     "--layer", "1", "--class", "0",
                     "--out", str(tmp_path / "cam")])
        assert code == 3
        assert capsys.readouterr().err.count("\n") == 1


class TestEstimateMemoryCommand:
    def test_human_readable(self, capsys):
        code = main(["estimate-memory", "--arch", "vgg16", "--batch", "1",
                     "--at-layer", "1", "--input-size", "126x129"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1,040,256" in out          # batch * 64 * 126 * 129
        assert "4,096" in out              # 64^2

    def test_json_output(self, capsys):
        code = main(["estimate-memory", "--arch", "vgg16", "--batch", "13",
                     "--at-layer", "1", "--at-layer", "13",
                     "--input-size", "126x129", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_layer"]["1"]["gram_elems"] == 13 * 64 * 64
        assert payload["per_layer"]["13"]["feature_elems"] == 13 * 512 * 7 * 8

    def test_classes_is_an_unknown_flag(self, capsys):
        """The estimate counts only the conv stack, which the class count
        does not change."""
        with pytest.raises(SystemExit) as exited:
            main(["estimate-memory", "--arch", "vgg16", "--at-layer", "1",
                  "--classes", "4"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --classes" in capsys.readouterr().err

    def test_bad_input_size_exits_2(self):
        assert main(["estimate-memory", "--arch", "vgg16", "--batch", "1",
                     "--at-layer", "1", "--input-size", "banana"]) == 2

    def test_collapsing_input_size_exits_2(self):
        assert main(["estimate-memory", "--arch", "vgg16", "--at-layer", "13",
                     "--input-size", "16x16"]) == 2

    @pytest.mark.parametrize("flags", [["--at-layer", "14"],
                                       ["--at-layer", "1", "--batch", "-4"],
                                       ["--at-layer", "1", "--batch", "0"],
                                       ["--at-layer", "1",
                                        "--bytes-per-number", "0"]],
                             ids=["layer 14", "batch -4", "batch 0",
                                  "bytes-per-number 0"])
    def test_out_of_range_layer_exits_2(self, flags, capsys):
        assert main(["estimate-memory", "--arch", "vgg16",
                     "--input-size", "126x129", *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error:") and err.count("\n") == 1
        assert out == ""


def test_python_dash_m_runs_from_a_checkout():
    """`PYTHONPATH=src python -m antitransfer ...`, as README documents it,
    runs a command from the repository root without an install."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "antitransfer", "estimate-memory",
         "--arch", "vgg-tiny", "--at-layer", "1", "--json"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["per_layer"]["1"]["gram_elems"] == 16 * 16


# Run in a fresh interpreter: this test process has scipy loaded already
# (tests/test_audio.py uses it as the resampler's oracle).
NO_SCIPY_AT_RUN_TIME = """
import json, sys
import numpy as np
import antitransfer, antitransfer.cli
from antitransfer import audio, training
from antitransfer.data import load_split_dir
from antitransfer.losses import ATConfig
from antitransfer.training import TrainConfig

data_dir, orth_checkpoint, out_dir = sys.argv[1:]
code = antitransfer.cli.main(["estimate-memory", "--arch", "vgg-tiny",
                              "--at-layer", "1", "--json"])
cfg = TrainConfig(strategy="at", pretrained_checkpoints=(orth_checkpoint,),
                  at=ATConfig(layers=(1,)), seed=3, max_epochs=1,
                  arch_preset="vgg-tiny")
epochs = len(training.train(cfg, load_split_dir(data_dir), out_dir).metrics)
tone = np.sin(np.arange(22050) * 0.05)
rate = audio.resample(audio.AudioClip(tone, 22050)).sample_rate
shapes = [s.values.shape
          for s in audio.preprocess_clip(audio.AudioClip(tone, 44100))]
print(json.dumps({"code": code, "epochs": epochs, "rate": rate,
                  "shapes": shapes,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_no_scipy_module_loads_at_run_time(tiny_data_dir, orth_checkpoint,
                                           tmp_path):
    """Importing the package and the CLI, a command, a 1-epoch anti-transfer
    training, a resample and a clip's preprocessing load no scipy module:
    the package runs on numpy alone."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_AT_RUN_TIME,
         str(tiny_data_dir), str(orth_checkpoint), str(tmp_path / "run")],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["code"], result["epochs"], result["rate"]) == (0, 1, 16000)
    assert result["shapes"] == [[126, 129]]
    assert result["scipy"] == []


def test_the_package_imports_only_stdlib_numpy_and_itself():
    """Every import in `src/antitransfer` names a standard-library module,
    numpy or the package, and pyproject's runtime dependencies are numpy
    alone: scipy stays a test-only dependency."""
    root = Path(__file__).resolve().parents[1]
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted((root / "src" / "antitransfer").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
    pyproject = (root / "pyproject.toml").read_text()
    deps = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)[1]
    assert [re.split(r"[<>=!~ ]", d)[0]
            for d in re.findall(r'"([^"]+)"', deps)] == ["numpy"]


def test_every_readme_command_parses():
    """Each `antitransfer ...` line of README's bash blocks, its backslash
    continuations joined, parses with the CLI's parser, so a flag the docs
    show cannot be gone or renamed; together they show every command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["antitransfer"]:
                commands.append(words[1:])
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README: antitransfer {' '.join(words)} does not parse")
    assert {words[0] for words in commands} == set(_COMMANDS)

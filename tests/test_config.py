"""Experiment config documents: lossless round trips, strict key checking,
line-numbered diagnostics."""

import json

import pytest

from antitransfer.config import (ConfigError, DataConfig, ExperimentConfig,
                                 prepare_data)
from antitransfer.synth import SynthSpec
from antitransfer.training import TrainConfig


def make_config(out="runs/exp"):
    return ExperimentConfig(
        train=TrainConfig(strategy="scratch", seed=3, max_epochs=2,
                          arch_preset="vgg-tiny"),
        data=DataConfig(kind="synth",
                        synth=SynthSpec(samples_per_split=(20, 8, 8),
                                        image_size=(16, 17), seed=5)),
        output_dir=out)


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        cfg = make_config()
        assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_file_round_trip(self, tmp_path):
        cfg = make_config()
        path = tmp_path / "config.json"
        cfg.save(path)
        assert ExperimentConfig.load(path).to_dict() == cfg.to_dict()


class TestStrictness:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        d = make_config().to_dict()
        d["experiment_name"] = "x"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="experiment_name"):
            ExperimentConfig.load(path)

    def test_unknown_train_key_rejected(self, tmp_path):
        d = make_config().to_dict()
        d["train"]["learning_rate"] = 0.1   # the real key is lr
        path = tmp_path / "c.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="learning_rate"):
            ExperimentConfig.load(path)

    def test_malformed_synth_section_is_config_error(self, tmp_path):
        for bad in ({"samples_per_split": 5}, {"image_size": [4, 4]}):
            d = make_config().to_dict()
            d["data"]["synth"].update(bad)
            path = tmp_path / "c.json"
            path.write_text(json.dumps(d))
            with pytest.raises(ConfigError, match="data.synth"):
                ExperimentConfig.load(path)

    def test_unknown_at_key_rejected(self, tmp_path):
        d = make_config().to_dict()
        d["train"]["at"]["betas"] = [1]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="betas"):
            ExperimentConfig.load(path)

    def test_unknown_synth_key_rejected(self, tmp_path):
        d = make_config().to_dict()
        d["data"]["synth"]["n_classes"] = 4
        path = tmp_path / "c.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="n_classes"):
            ExperimentConfig.load(path)

    @pytest.mark.parametrize("layers", [[], [0], [2, -1]])
    def test_at_layers_numbered_from_one(self, tmp_path, layers):
        d = make_config().to_dict()
        d["train"]["at"] = {"layers": layers}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="at layers"):
            ExperimentConfig.load(path)

    def test_partial_at_section_takes_defaults(self):
        d = make_config().to_dict()
        d["train"]["at"] = {"beta": 0.5}
        at = ExperimentConfig.from_dict(d).train.at
        assert at.layers == (1,) and at.beta == 0.5 and at.aggregation == "gram"

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "train": {},\n  "data": oops\n}\n')
        with pytest.raises(ConfigError, match=r":3:"):
            ExperimentConfig.load(path)

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"train": {}}')
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)

    def test_data_kind_validation(self):
        with pytest.raises(ConfigError):
            DataConfig(kind="bogus")
        with pytest.raises(ConfigError):
            DataConfig(kind="manifest")      # needs a path
        with pytest.raises(ConfigError):
            DataConfig(kind="synth")         # needs a spec


class TestPrepareData:
    def test_synth_source(self, tmp_path):
        cfg = make_config()
        data = prepare_data(cfg, tmp_path)
        assert set(data) == {"train", "val", "test"}
        assert len(data["train"]) == 20
        assert (tmp_path / "synth_data" / "train_manifest.csv").exists()

    def test_label_missing_from_train_is_config_error(self, tmp_path,
                                                      unseen_label_dir):
        cfg = make_config(str(tmp_path / "run"))
        cfg.data = DataConfig(kind="manifest_dir", path=str(unseen_label_dir))
        with pytest.raises(ConfigError, match="'unseen'"):
            prepare_data(cfg, tmp_path / "run")

    def test_manifest_dir_source(self, tmp_path, tiny_data_dir):
        cfg = ExperimentConfig(train=TrainConfig(),
                               data=DataConfig(kind="manifest_dir",
                                               path=str(tiny_data_dir)),
                               output_dir=str(tmp_path / "out"))
        data = prepare_data(cfg, tmp_path)
        assert len(data["train"]) == 60

    def test_single_manifest_source_splits_identically_across_calls(
            self, tmp_path, tiny_data_dir):
        cfg = ExperimentConfig(train=TrainConfig(seed=9),
                               data=DataConfig(kind="manifest",
                                               path=str(tiny_data_dir
                                                        / "train_manifest.csv")),
                               output_dir=str(tmp_path / "out"))
        a = prepare_data(cfg, tmp_path / "a")
        b = prepare_data(cfg, tmp_path / "b")
        for split in ("train", "val", "test"):
            assert (a[split].target_ids == b[split].target_ids).all()
            assert (a[split].x == b[split].x).all()

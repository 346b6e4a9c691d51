"""Experiment configuration documents: a JSON file that fully describes one
run (training settings, data source, output directory), rejects unknown keys,
and round-trips losslessly. The fully-resolved document, defaults included,
is echoed into every run directory so results can be replayed bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from .checkpoint import write_json
from .data import Dataset, load_split_dir, split_manifest
from .losses import ATConfig
from .synth import SynthSpec, generate
from .training import TrainConfig


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


def _reject_unknown(d: dict, allowed, context: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)} "
                          f"(allowed: {sorted(allowed)})")


_TRAIN_KEYS = set(TrainConfig.__dataclass_fields__)
_AT_KEYS = set(ATConfig.__dataclass_fields__)
_SYNTH_KEYS = set(SynthSpec.__dataclass_fields__)
_DATA_KINDS = ("synth", "manifest", "manifest_dir")


@dataclass
class DataConfig:
    kind: str
    path: Optional[str] = None       # manifest / manifest_dir
    synth: Optional[SynthSpec] = None

    def __post_init__(self):
        if self.kind not in _DATA_KINDS:
            raise ConfigError(f"data.kind must be one of {_DATA_KINDS}")
        if self.kind == "synth":
            if self.synth is None:
                raise ConfigError("data.kind 'synth' requires a data.synth section")
        elif not self.path:
            raise ConfigError(f"data.kind {self.kind!r} requires data.path")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.path is not None:
            d["path"] = self.path
        if self.synth is not None:
            d["synth"] = self.synth.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "DataConfig":
        _reject_unknown(d, {"kind", "path", "synth"}, "data")
        synth = None
        if "synth" in d:
            _reject_unknown(d["synth"], _SYNTH_KEYS, "data.synth")
            try:
                synth = SynthSpec(**d["synth"])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"data.synth: {e}") from e
        return DataConfig(kind=d.get("kind", ""), path=d.get("path"), synth=synth)


@dataclass
class ExperimentConfig:
    train: TrainConfig
    data: DataConfig
    output_dir: str

    def to_dict(self) -> dict:
        return {"train": self.train.to_dict(), "data": self.data.to_dict(),
                "output_dir": self.output_dir}

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        _reject_unknown(d, {"train", "data", "output_dir"}, "config")
        if "data" not in d or "output_dir" not in d:
            raise ConfigError("config needs 'data' and 'output_dir' sections")
        tdict = dict(d.get("train", {}))
        _reject_unknown(tdict, _TRAIN_KEYS, "train")
        if "at" in tdict:
            _reject_unknown(tdict["at"], _AT_KEYS, "train.at")
        try:
            train = TrainConfig(**tdict)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"train: {e}") from e
        return ExperimentConfig(train=train,
                                data=DataConfig.from_dict(d["data"]),
                                output_dir=str(d["output_dir"]))

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except FileNotFoundError as e:
            raise ConfigError(f"{path}: no such config file") from e
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        try:
            return ExperimentConfig.from_dict(raw)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}") from e


def prepare_data(cfg: ExperimentConfig, work_dir) -> Dict[str, Dataset]:
    """Materialize the configured data source into train/val/test datasets.
    Data that cannot make a dataset (a malformed manifest, a val/test label
    the train split lacks, an unusable split) is reported as a ConfigError."""
    work_dir = Path(work_dir)
    try:
        if cfg.data.kind == "synth":
            data_dir = generate(cfg.data.synth, work_dir / "synth_data")
        elif cfg.data.kind == "manifest_dir":
            data_dir = cfg.data.path
        else:
            # single manifest: split it per policy into the run directory
            paths = split_manifest(cfg.data.path, cfg.train.split_policy,
                                   cfg.train.seed, work_dir / "splits",
                                   cfg.train.split_fractions)
            data_dir = paths["train"].parent
        return load_split_dir(data_dir)
    except ValueError as e:
        raise ConfigError(str(e)) from e

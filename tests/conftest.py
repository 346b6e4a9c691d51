"""Shared fixtures: a small synthetic dataset and an orthogonal-task
checkpoint, generated once per session."""

from dataclasses import replace

import importlib

import pytest

from antitransfer import training
from antitransfer.data import (MANIFEST_NAMES, load_split_dir, read_manifest,
                               write_manifest)
from antitransfer.synth import SynthSpec, generate
from antitransfer.training import TrainConfig

TINY_SPEC = SynthSpec(n_target_classes=4, n_orth_classes=4,
                      samples_per_split=(60, 20, 40),
                      train_correlation=0.9, test_correlation=0.0,
                      image_size=(16, 17), noise_sigma=0.1, seed=42)


@pytest.fixture(scope="session")
def tiny_data_dir(tmp_path_factory):
    return generate(TINY_SPEC, tmp_path_factory.mktemp("tinydata"))


@pytest.fixture(scope="session")
def orth_data_dir(tmp_path_factory):
    spec = replace(TINY_SPEC, train_correlation=0.0, seed=1042)
    return generate(spec, tmp_path_factory.mktemp("orthdata"))


@pytest.fixture(scope="session")
def orth_checkpoint(orth_data_dir, tmp_path_factory):
    cfg = TrainConfig(strategy="scratch", label_field="orth1",
                      task_name="orth-texture", seed=7, max_epochs=3,
                      arch_preset="vgg-tiny")
    result = training.train(cfg, load_split_dir(orth_data_dir),
                            tmp_path_factory.mktemp("orthmodel"))
    return result.checkpoint_path


@pytest.fixture
def unseen_label_dir(tiny_data_dir, tmp_path):
    """tiny_data_dir's splits, except that one val sample carries the target
    label "unseen", which no train sample has."""
    out = tmp_path / "unseen_label_data"
    out.mkdir()
    for split, name in MANIFEST_NAMES.items():
        rows = [replace(r, path=str(tiny_data_dir / r.path))
                for r in read_manifest(tiny_data_dir / name)]
        if split == "val":
            rows[0] = replace(rows[0], target_label="unseen")
        write_manifest(out / name, rows)
    return out


@pytest.fixture
def flipped_at_gradient(monkeypatch):
    """Negates the anti-transfer gradient that gradcheck's per-op checks
    test and that the trainer's objective (and so the whole-objective
    checks) injects; every one of those checks must then fail."""
    # the package exports a function named gradcheck, so fetch the module
    gradcheck = importlib.import_module("antitransfer.gradcheck")
    for module, name in ((gradcheck, "at_loss_and_grad"), (training, "_at_term")):
        at_term = getattr(module, name)

        def ascending(*args, at_term=at_term):
            val, grad = at_term(*args)
            return val, -grad

        monkeypatch.setattr(module, name, ascending)

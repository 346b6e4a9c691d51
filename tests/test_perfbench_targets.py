"""The benchmark's span tracer (perfbench/spans.py) wraps functions and
methods of the package by name, and skips a name that no longer exists. This
guard makes a deleted or renamed target fail here instead of silently
zeroing a per-layer metric. The tracer also attributes a training step's
time by the spans that `training.train` opens directly, so a step loop that
moves under another traced function must fail here too."""

import importlib.util
import math
from pathlib import Path

from antitransfer import layers, network, training
from antitransfer.data import load_split_dir
from antitransfer.losses import ATConfig
from antitransfer.network import preset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists():
    originals = (layers.Conv2D.forward, network.Network.backward,
                 training._at_term)
    tracer = _load_spans().Tracer(preset("vgg-tiny", (32, 37), 4))
    tracer.install()
    try:
        assert tracer.missing_targets == []
    finally:
        tracer.uninstall()
    assert (layers.Conv2D.forward, network.Network.backward,
            training._at_term) == originals


def test_every_training_step_is_attributed_to_train(tiny_data_dir,
                                                    orth_checkpoint, tmp_path):
    data = load_split_dir(tiny_data_dir)
    cfg = training.TrainConfig(strategy="at",
                               pretrained_checkpoints=(str(orth_checkpoint),),
                               at=ATConfig(layers=(2,)), max_epochs=2,
                               patience=2)
    tracer = _load_spans().Tracer(preset("vgg-tiny", (16, 17), 4))
    tracer.install()
    try:
        with tracer.span("bench.rep"):
            training.train(cfg, data, tmp_path / "run")
    finally:
        tracer.uninstall()
    m = {k: v["value"] for k, v in tracer.per_layer_metrics(0, 1).items()}
    steps = math.ceil(len(data["train"]) / cfg.batch_size) * cfg.max_epochs
    assert m["training.steps"] == m["optim.adam_steps"] == steps
    assert m["training.step_glue_ms"] > 0

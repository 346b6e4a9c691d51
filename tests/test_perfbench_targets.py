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


def test_the_at_term_is_traced_once_per_batch_and_layer(tiny_data_dir,
                                                        orth_checkpoint,
                                                        tmp_path, monkeypatch):
    """perfbench's per-layer anti-transfer figures read the spans of
    `training._at_term`, which must open once per batch and anti-transfer
    layer in training and once per layer in each validation, which scores
    the whole split over several blocks, and of `training.aggregate`,
    which only the extractor precompute may call, once per block of it:
    the trained network aggregates inside its blocks through
    `losses.aggregate_with_pullback`. The tracer keeps one span stack for
    every thread, so the blocks run on the calling thread alone."""
    data = load_split_dir(tiny_data_dir)
    at = ATConfig(layers=(1, 2))
    cfg = training.TrainConfig(strategy="at",
                               pretrained_checkpoints=(str(orth_checkpoint),),
                               at=at, max_epochs=2, patience=2)
    arch = preset("vgg-tiny", data["train"].x.shape[2:], 4)
    net = network.build(arch, dtype=cfg.dtype)
    monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 5 * net._sample_bytes)
    monkeypatch.setattr(layers, "_workers", lambda: 1)
    block = net.sample_block
    assert math.ceil(len(data["val"]) / block) >= 2
    tracer = _load_spans().Tracer(arch)
    tracer.install()
    try:
        with tracer.span("bench.rep"):
            training.train(cfg, data, tmp_path / "run")
    finally:
        tracer.uninstall()
    m = {k: v["value"] for k, v in tracer.per_layer_metrics(0, 1).items()}
    train_batches = math.ceil(len(data["train"]) / cfg.batch_size)
    assert m["losses.at_term_calls"] == (
        (train_batches + 1) * cfg.max_epochs * len(at.layers))
    spans = tracer.spans
    aggregates = [s for s in spans if s[0] == "losses.extractor_aggregate"]
    precompute_blocks = sum(math.ceil(len(data[split]) / block)
                            for split in ("train", "val"))
    assert len(aggregates) == precompute_blocks * len(at.layers)
    assert all(spans[s[3]][0] == "training.extractor_precompute"
               for s in aggregates)

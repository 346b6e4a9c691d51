"""The benchmark's span tracer (perfbench/spans.py) wraps functions and
methods of the package by name, and skips a name that no longer exists. This
guard makes a deleted or renamed target fail here instead of silently
zeroing a per-layer metric."""

import importlib.util
from pathlib import Path

from antitransfer import layers, network, training
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

"""Spans recorded from outside the program.

`Tracer.install()` replaces the functions and methods the workloads reach
with wrappers that record one span per call: name, start, end, parent and a
value (a count, a byte total or a FLOP total, depending on the span). Each
wrapper is installed where the caller looks the name up: `training` binds
`aggregate`, `cross_entropy_and_grad` and `_at_term` in its own namespace,
and `network` binds `check_finite`, so those are wrapped in the caller's
module. A name that no longer exists is skipped and its span is reported as
missing rather than breaking the run. `uninstall()` restores the originals.

Spans stay in memory; `write()` saves them once the run is over. The
benchmark opens a root span per phase ("bench.setup" around each set-up,
"bench.rep" around each measured repetition); spans outside a root are
ignored by `per_layer_metrics`.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

from antitransfer import (audio, checkpoint, data, layers, network, optim,
                          synth, training)
from antitransfer.network import conv_feature_shapes

PHASES = ("bench.setup", "bench.rep")
# What `training.train` calls directly once per step; the time between them
# is the step loop's own: batch gather and the param/grad dict rebuild.
STEP_SPANS = {"network.forward", "losses.cross_entropy", "losses.at_term",
              "network.backward", "optim.adam_step"}


def _one(args, kwargs, result):
    return 1


def _train_flag(args, kwargs, result):
    # Network.forward(self, x, train=False, ...): counts train-mode passes
    return int(bool(args[2] if len(args) > 2 else kwargs.get("train", False)))


def _path_bytes(args, kwargs, result):
    # checkpoint.save(net, path, ...)
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _samples_loaded(args, kwargs, result):
    return sum(len(ds) for ds in result.values())


def _synth_samples(args, kwargs, result):
    return sum(args[0].samples_per_split)


def _epochs_run(args, kwargs, result):
    return len(result.metrics)


class Tracer:
    """Span recorder for one workload architecture.

    `arch` is the architecture the workload trains or evaluates; its conv
    output shapes (`conv_feature_shapes`) give the FLOPs of each conv call.
    """

    def __init__(self, arch):
        self.spans: List[list] = []   # [name, start_ns, end_ns, parent, value]
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self.missing_targets: List[str] = []
        self.span_names = set()   # every name a wrapper can record
        self._conv_flops = _conv_flops_per_sample(arch)

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: int, value) -> None:
        self._stack.pop()
        self.spans[idx][2] = end
        self.spans[idx][4] = value

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, time.perf_counter_ns(), 1)

    def _wrap(self, owner, attr: str, name, value: Callable = _one) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        `name` is a string or a function of the call's positional arguments;
        `value(args, kwargs, result)` gives the span's value after a call
        that returned, and a call that raised records 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing_targets.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(name, str):
            self.span_names.add(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(args))
            returned = False
            result = None
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._close(idx, end,
                              value(args, kwargs, result) if returned else 0)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        conv_flops = self._conv_flops

        def conv_name(direction):
            self.span_names.update(f"layers.{kind}.{direction}"
                                   for kind in ("conv1", "conv"))

            def name(args):
                kind = "conv1" if args[0].in_channels == 1 else "conv"
                return f"layers.{kind}.{direction}"
            return name

        def conv_value(direction):
            mult = 1 if direction == "fwd" else 2  # backward: dW and dX
            return lambda args, kwargs, result: (
                mult * conv_flops.get(args[0].name, 0) * result.shape[0])

        w = self._wrap
        for direction, method in (("fwd", "forward"), ("bwd", "backward")):
            w(layers.Conv2D, method, conv_name(direction), conv_value(direction))
            w(layers.MaxPool2D, method, f"layers.maxpool.{direction}")
            w(layers.Dense, method, f"layers.dense.{direction}")
            for cls in (layers.ReLU, layers.Dropout, layers.Flatten):
                w(cls, method, f"layers.pointwise.{direction}")
        w(network.Network, "forward", "network.forward", _train_flag)
        w(network.Network, "backward", "network.backward")
        w(network, "check_finite", "network.check_finite")
        w(training, "_at_term", "losses.at_term")
        w(training, "cross_entropy_and_grad", "losses.cross_entropy")
        w(training, "aggregate", "losses.extractor_aggregate")
        w(optim.Adam, "step", "optim.adam_step")
        w(training, "train", "training.train", _epochs_run)
        w(training, "_precompute_extractor_aggs", "training.extractor_precompute")
        w(training, "_eval_losses", "training.eval")
        w(training, "evaluate", "training.eval")
        w(checkpoint, "save", "checkpoint.save", _path_bytes)
        w(checkpoint, "load", "checkpoint.load")
        w(data, "load_split_dir", "data.load_split_dir", _samples_loaded)
        w(synth, "generate", "synth.generate", _synth_samples)
        w(audio, "read_wav", "audio.read_wav")
        w(audio, "preprocess_clip", "audio.preprocess_clip")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Save every span as [name, start_ns, end_ns, parent_index, value]."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "value"],
                       "spans": self.spans}, f, separators=(",", ":"))

    def per_layer_metrics(self, setups: int, reps: int) -> Dict[str, dict]:
        """Per-layer figures for one workload iteration: the spans under
        "bench.setup" divided by `setups` plus those under "bench.rep"
        divided by `reps`. Times are in ms; a layer with no calls reads 0."""
        per = {phase: max(n, 1) for phase, n in zip(PHASES, (setups, reps))}
        # phase -> name -> [ns, ns covered by direct children, value, calls]
        acc = {phase: defaultdict(lambda: [0, 0, 0, 0]) for phase in PHASES}
        root: List[str] = []
        # The step loop of an epoch runs from its first step span to the end
        # of its last Adam step; the next other call of `train` (validation)
        # ends it. train span index -> [start, end, ns in step spans up to
        # the last Adam step, ns in step spans so far]
        loops: Dict[int, List[int]] = {}
        glue = dict.fromkeys(PHASES, 0)

        def end_loop(train_idx):
            start, end, covered, _ = loops.pop(train_idx, (0, 0, 0, 0))
            glue[root[train_idx]] += end - start - covered

        for name, start, end, parent, val in self.spans:
            r = name if parent < 0 else root[parent]
            root.append(r)
            if r not in per or name in PHASES:
                continue
            a = acc[r][name]
            a[0] += end - start
            a[2] += val
            a[3] += 1
            pname = self.spans[parent][0]
            if pname not in PHASES:
                acc[r][pname][1] += end - start
            if pname == "training.train":
                if name not in STEP_SPANS:
                    end_loop(parent)
                    continue
                loop = loops.setdefault(parent, [start, start, 0, 0])
                loop[3] += end - start
                if name == "optim.adam_step":
                    loop[1], loop[2] = end, loop[3]
        for train_idx in list(loops):
            end_loop(train_idx)

        def per_iteration(name, field):
            return sum(acc[p][name][field] / per[p] for p in PHASES)

        def ms(name):
            return per_iteration(name, 0) / 1e6

        def self_ms(name):
            return ms(name) - per_iteration(name, 1) / 1e6

        def value(name):
            return per_iteration(name, 2)

        def calls(name):
            return per_iteration(name, 3)

        m = {}

        def put(name, v, unit):
            m[name] = {"value": v, "unit": unit}

        for kind in ("maxpool", "conv1", "dense", "pointwise"):
            for d in ("fwd", "bwd"):
                put(f"layers.{kind}.{d}_ms", ms(f"layers.{kind}.{d}"), "ms")
        conv_ms = 0.0
        for d in ("fwd", "bwd"):
            v = ms(f"layers.conv1.{d}") + ms(f"layers.conv.{d}")
            conv_ms += v
            put(f"layers.conv.{d}_ms", v, "ms")
        gflop = sum(value(f"layers.{k}.{d}") for k in ("conv1", "conv")
                    for d in ("fwd", "bwd")) / 1e9
        put("layers.conv.gflop", gflop, "GFLOP_computed")
        put("layers.conv.gflops", gflop / (conv_ms / 1e3) if conv_ms else 0.0,
            "GFLOP/s")
        put("network.fwd_self_ms", self_ms("network.forward"), "ms")
        put("network.bwd_self_ms", self_ms("network.backward"), "ms")
        put("network.finite_check_ms", ms("network.check_finite"), "ms")
        put("network.finite_check_calls", calls("network.check_finite"), "count")
        put("losses.at_term_ms", ms("losses.at_term"), "ms")
        put("losses.at_term_calls", calls("losses.at_term"), "count")
        put("losses.cross_entropy_ms", ms("losses.cross_entropy"), "ms")
        put("losses.extractor_aggregate_ms", ms("losses.extractor_aggregate"), "ms")
        put("optim.adam_step_ms", ms("optim.adam_step"), "ms")
        put("optim.adam_steps", calls("optim.adam_step"), "count")
        put("training.step_glue_ms",
            sum(glue[p] / per[p] for p in PHASES) / 1e6, "ms")
        put("training.extractor_precompute_ms",
            ms("training.extractor_precompute"), "ms")
        put("training.eval_ms", ms("training.eval"), "ms")
        put("training.steps", value("network.forward"), "count")
        put("training.epochs", value("training.train"), "count")
        put("checkpoint.save_ms", ms("checkpoint.save"), "ms")
        put("checkpoint.load_ms", ms("checkpoint.load"), "ms")
        put("checkpoint.bytes", value("checkpoint.save"), "bytes")
        put("data.load_split_dir_ms", ms("data.load_split_dir"), "ms")
        put("data.samples_loaded", value("data.load_split_dir"), "count")
        put("synth.generate_ms", ms("synth.generate"), "ms")
        put("synth.samples", value("synth.generate"), "count")
        put("audio.read_wav_ms", ms("audio.read_wav"), "ms")
        put("audio.preprocess_clip_ms", ms("audio.preprocess_clip"), "ms")
        put("audio.clips", calls("audio.read_wav"), "count")
        return m

    def missing_spans(self) -> List[str]:
        """Span names that received no call."""
        seen = {s[0] for s in self.spans}
        return sorted(self.span_names - seen)


def _conv_flops_per_sample(arch) -> Dict[str, int]:
    """Multiply-adds x 2 of one sample's forward pass through each conv."""
    flops = {}
    c_in = arch.input_shape[0]
    convs = [s for s in arch.layers if s.kind == "conv2d"]
    for i, (spec, (c, h, w)) in enumerate(zip(convs, conv_feature_shapes(arch)), 1):
        flops[f"conv{i}"] = 2 * c * h * w * c_in * spec.kernel * spec.kernel
        c_in = c
    return flops

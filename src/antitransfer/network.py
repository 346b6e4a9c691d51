"""Network container: ordered layers, conv tap points, presets and fingerprints.

Conv layers are numbered 1..K in network order. A "tap" at conv k yields the
post-activation feature map of that conv (output of the ReLU that immediately
follows it). Backward accepts extra gradients to inject at tap points, which
is how the anti-transfer loss reaches into the trained network, and can also
report the gradient flowing through a tap (used by Grad-CAM).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .layers import (Layer, LayerSpec, ShapeError, check_finite, conv2d,
                     dense, dropout, flatten, make_layer, maxpool2d,
                     output_hw, relu)


@dataclass
class ArchConfig:
    """Ordered layer specs plus the input/output geometry they assume;
    `ArchConfig(**d)` reads `to_dict()` back."""

    layers: List[LayerSpec]
    input_shape: Tuple[int, int, int]  # (channels, height, width)
    n_classes: int
    name: str = "custom"

    def __post_init__(self):
        self.layers = [s if isinstance(s, LayerSpec) else LayerSpec(**s)
                       for s in self.layers]
        self.input_shape = tuple(self.input_shape)
        if len(self.input_shape) != 3:
            raise ValueError("input_shape must be (channels, height, width)")
        d = [s for s in self.layers if s.kind == "dense"]
        if not d or d[-1].units != self.n_classes:
            raise ValueError("last dense layer must have n_classes units")

    @property
    def conv_count(self) -> int:
        return sum(1 for s in self.layers if s.kind == "conv2d")

    def to_dict(self) -> dict:
        return {"name": self.name,
                "input_shape": list(self.input_shape),
                "n_classes": self.n_classes,
                "layers": [s.to_dict() for s in self.layers]}

    def conv_fingerprints(self) -> List[str]:
        """Stable hash of the structural stack up to (and including) each conv.

        Two networks can exchange conv weights up to depth k iff their k-th
        fingerprints agree. Input channel count matters, spatial size and
        dropout probability do not.
        """
        prints = []
        prefix = [{"in_channels": self.input_shape[0]}]
        for spec in self.layers:
            prefix.append({k: v for k, v in spec.to_dict().items() if k != "p"})
            if spec.kind == "conv2d":
                blob = json.dumps(prefix, sort_keys=True).encode()
                prints.append(hashlib.sha256(blob).hexdigest()[:16])
        return prints


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _vgg_block(channels: int, convs: int) -> List[LayerSpec]:
    specs: List[LayerSpec] = []
    for _ in range(convs):
        specs += [conv2d(channels), relu()]
    specs.append(maxpool2d())
    return specs


def vgg16(input_hw: Tuple[int, int], n_classes: int, in_channels: int = 1,
          dropout_p: float = 0.5) -> ArchConfig:
    """Full 13-conv VGG16 stack (64x2, 128x2, 256x3, 512x3, 512x3) on a
    single-channel input, with the classic 4096-unit head."""
    specs: List[LayerSpec] = []
    for ch, n in ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3)):
        specs += _vgg_block(ch, n)
    specs += [flatten(),
              dense(4096), relu(), dropout(dropout_p),
              dense(4096), relu(), dropout(dropout_p),
              dense(n_classes)]
    return ArchConfig(layers=specs, input_shape=(in_channels, *input_hw),
                      n_classes=n_classes, name="vgg16")


def vgg_small(input_hw: Tuple[int, int], n_classes: int, in_channels: int = 1,
              dropout_p: float = 0.5) -> ArchConfig:
    """8-conv reduction (32x2, 64x2, 128x2, 256x2) for mid-size experiments."""
    specs: List[LayerSpec] = []
    for ch in (32, 64, 128, 256):
        specs += _vgg_block(ch, 2)
    specs += [flatten(), dense(256), relu(), dropout(dropout_p), dense(n_classes)]
    return ArchConfig(layers=specs, input_shape=(in_channels, *input_hw),
                      n_classes=n_classes, name="vgg-small")


def vgg_tiny(input_hw: Tuple[int, int], n_classes: int, in_channels: int = 1,
             dropout_p: float = 0.5) -> ArchConfig:
    """4-conv desk-scale preset (16/32/64/64 channels, pool after each conv)."""
    specs: List[LayerSpec] = []
    for ch in (16, 32, 64, 64):
        specs += _vgg_block(ch, 1)
    specs += [flatten(), dense(64), relu(), dropout(dropout_p), dense(n_classes)]
    return ArchConfig(layers=specs, input_shape=(in_channels, *input_hw),
                      n_classes=n_classes, name="vgg-tiny")


PRESETS = {"vgg16": vgg16, "vgg-small": vgg_small, "vgg-tiny": vgg_tiny}


def preset(name: str, input_hw: Tuple[int, int], n_classes: int, **kw) -> ArchConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name](input_hw, n_classes, **kw)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

# Layers whose forward returns a new array that only the next layer sees: a
# ReLU right after one overwrites it. (A conv's output is a tap only when no
# ReLU follows; dropout at eval and flatten pass on their own input.)
_FRESH_OUTPUT = ("conv2d", "maxpool2d", "dense")


class Network:
    """A built network: layer objects with weights, plus tap bookkeeping.

    `params` and `grads`, built once, map each weight's checkpoint name
    ("conv1.weight", ...) to the layer's own weight and gradient arrays;
    whatever reads or writes weights goes through them, in place."""

    def __init__(self, arch: ArchConfig, seed: int = 0, dtype=np.float64):
        self.arch = arch
        self.dtype = np.dtype(dtype)
        # per-layer NaN/Inf scans; trainers may disable them on the hot path
        # and rely on the per-batch loss check instead
        self.finite_checks = True
        rng = np.random.default_rng([int(seed), 0x1A17])
        self.layers: List[Layer] = []
        shapes = _propagate_shapes(arch)
        conv_i = 0
        dense_i = 0
        for pos, spec in enumerate(arch.layers):
            c_in, h_in, w_in = shapes[pos]
            if spec.kind == "conv2d":
                conv_i += 1
                name = f"conv{conv_i}"
            elif spec.kind == "dense":
                dense_i += 1
                name = f"dense{dense_i}"
            else:
                name = f"{spec.kind}{pos}"
            feats = c_in if h_in is None else c_in * h_in * w_in
            owns = pos > 0 and arch.layers[pos - 1].kind in _FRESH_OUTPUT
            self.layers.append(make_layer(spec, c_in, feats, rng, self.dtype,
                                          name, owns_input=owns))
        # conv index k (1-based) -> position of its post-activation output
        self.tap_positions: Dict[int, int] = {}
        k = 0
        for pos, spec in enumerate(arch.layers):
            if spec.kind == "conv2d":
                k += 1
                tap = pos
                if pos + 1 < len(arch.layers) and arch.layers[pos + 1].kind == "relu":
                    tap = pos + 1
                self.tap_positions[k] = tap
        self.params: Dict[str, np.ndarray] = {
            n: layer.params()[p] for layer, p, n in self._weights()}
        self.grads: Dict[str, np.ndarray] = {
            n: layer.grads()[p] for layer, p, n in self._weights()}

    # -- weights ------------------------------------------------------------

    def _weights(self) -> List[Tuple[Layer, str, str]]:
        """(layer, its name for the weight, checkpoint name) per weight."""
        return [(layer, p, f"{layer.name}.{p}")
                for layer in self.layers for p in layer.params()]

    def trainable_params(self) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """The entries of `params` and `grads` that belong to trainable layers."""
        names = [n for layer, _, n in self._weights() if layer.trainable]
        return ({n: self.params[n] for n in names},
                {n: self.grads[n] for n in names})

    def load_params(self, tensors: Dict[str, np.ndarray]) -> None:
        """Copy each named tensor into the weight of that name, in place and
        cast to the network's dtype. Raises ShapeError, before copying
        anything, on a name the network lacks or a shape that differs."""
        for name, arr in tensors.items():
            cur = self.params.get(name)
            if cur is None:
                raise ShapeError(f"{name}: no such weight")
            if cur.shape != arr.shape:
                raise ShapeError(f"{name}: shape {arr.shape} != {cur.shape}")
        for name, arr in tensors.items():
            np.copyto(self.params[name], arr)

    def conv_layers(self) -> List:
        return [l for l in self.layers if l.name.startswith("conv")]

    def weight_hash(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.params[name]).tobytes())
        return h.hexdigest()

    def freeze_convs(self, up_to: int) -> None:
        """Mark conv layers 1..up_to (and nothing else) non-trainable."""
        convs = self.conv_layers()
        if not (0 <= up_to <= len(convs)):
            raise ValueError(f"freeze_up_to {up_to} outside 0..{len(convs)}")
        for i, layer in enumerate(convs, start=1):
            layer.trainable = i > up_to

    # -- execution ----------------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None,
                taps: Iterable[int] = (),
                record: bool = True) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Run the network; returns (class scores, feature map per tapped conv).
        With `record` false the layers keep nothing for a backward, which
        then raises RuntimeError; the outputs are the same."""
        return self._run(x, train, rng, taps, record, last_tap_only=False)

    def tap_features(self, x: np.ndarray, taps: Iterable[int]) -> Dict[int, np.ndarray]:
        """Eval-mode feature map per tapped conv, from a forward that does not
        record. Stops after the deepest tap, since no later layer changes
        them; the maps equal forward's."""
        return self._run(x, False, None, taps, False, last_tap_only=True)[1]

    def _run(self, x, train, rng, taps, record: bool, last_tap_only: bool):
        taps = sorted(set(taps))
        for k in taps:
            if k not in self.tap_positions:
                raise ValueError(f"tap index {k} is not a conv layer (1..{self.arch.conv_count})")
        expect = self.arch.input_shape
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ShapeError(f"input shape {x.shape} does not match {('N',) + expect}")
        x = np.ascontiguousarray(x, dtype=self.dtype)
        check_finite(x, "network input")
        tap_at = {self.tap_positions[k]: k for k in taps}
        stop = max(tap_at, default=-1) + 1 if last_tap_only else len(self.layers)
        tapped: Dict[int, np.ndarray] = {}
        out = x
        for pos, layer in enumerate(self.layers[:stop]):
            out = layer.forward(out, train, rng, record)
            if self.finite_checks:
                check_finite(out, f"activations after {layer.name or type(layer).__name__}")
            if pos in tap_at:
                tapped[tap_at[pos]] = out
        return out, tapped

    def backward(self, dout: np.ndarray,
                 tap_grad_in: Optional[Dict[int, np.ndarray]] = None,
                 tap_grad_out: Iterable[int] = ()) -> Dict[int, np.ndarray]:
        """Reverse sweep from the output gradient.

        tap_grad_in:  extra dL/d(feature map) added at tap points on the way
                      down (anti-transfer injection).
        tap_grad_out: tap indices whose accumulated gradient should be
                      captured and returned (Grad-CAM); the sweep then ends
                      at the lowest of them.
        Parameter gradients of the trainable layers the sweep passes through
        land in `grads`, in place: all of them unless tap_grad_out is given.
        Neither `dout` nor a captured gradient is written to: a layer that
        would overwrite one gets a copy.
        """
        inject = {self.tap_positions[k]: g for k, g in (tap_grad_in or {}).items()}
        want = {self.tap_positions[k]: k for k in tap_grad_out}
        captured: Dict[int, np.ndarray] = {}
        # the lowest layer whose backward must run: the one above the lowest
        # requested tap, or else the lowest trainable layer with weights
        needed = ([pos + 1 for pos in want] if want else
                  [pos for pos, layer in enumerate(self.layers)
                   if layer.params() and layer.trainable])
        stop = min(needed) if needed else len(self.layers)
        g = dout
        held = [dout]   # arrays the caller keeps
        for pos in range(len(self.layers) - 1, -1, -1):
            if pos in inject:
                g = g + inject[pos]
            if pos in want:
                captured[want[pos]] = g
                held.append(g)
            if pos < stop:
                break
            layer = self.layers[pos]
            if layer.inplace and any(np.may_share_memory(g, a) for a in held):
                g = g.copy()
            g = layer.backward(g)
            if self.finite_checks:
                check_finite(g, f"gradient through {layer.name or type(layer).__name__}")
        return captured


def _propagate_shapes(arch: ArchConfig) -> List[Tuple]:
    """Shape entering each layer, then the network's output shape; entries
    are (channels, h, w), or (features, None, None) from flatten on. Raises
    ShapeError when a conv or pool output is smaller than 1x1."""
    c, h, w = arch.input_shape
    feats = None
    shapes = [(c, h, w)]
    for spec in arch.layers:
        if spec.kind in ("conv2d", "maxpool2d"):
            h, w = output_hw(spec, h, w)
            if spec.kind == "conv2d":
                c = spec.channels
        elif spec.kind == "flatten":
            feats = c * h * w
        elif spec.kind == "dense":
            if feats is None:
                raise ShapeError("dense layer before flatten")
            feats = spec.units
        shapes.append((c, h, w) if feats is None else (feats, None, None))
    return shapes


def conv_feature_shapes(arch: ArchConfig) -> List[Tuple[int, int, int]]:
    """(channels, h, w) of each conv layer's output, indexed 1..K as list[0..]."""
    shapes = _propagate_shapes(arch)
    return [shapes[pos + 1] for pos, spec in enumerate(arch.layers)
            if spec.kind == "conv2d"]


def build(arch: ArchConfig, seed: int = 0, dtype=np.float64) -> Network:
    """Deterministically initialize a network for the given architecture."""
    return Network(arch, seed=seed, dtype=dtype)

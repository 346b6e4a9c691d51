"""Network container: ordered layers, conv tap points, presets and fingerprints.

Conv layers are numbered 1..K in network order. A "tap" at conv k yields the
post-activation feature map of that conv (output of the ReLU that immediately
follows it). A forward can return a tap's map, or a per-sample reduction of
it that each block of samples takes while its rows are in cache (the
anti-transfer aggregation, `losses.aggregate_with_pullback`). Backward adds
extra gradients at tap points, given for the map or for its reduction, which
each block then pulls back through its own rows: that is how the
anti-transfer loss reaches into the trained network. A pullback that reads
the map again (the Gram's) gets the block's map, kept since the forward or,
at a conv cheap to re-run (`_rebuilds_map`), rebuilt by the backward from
the conv's recorded input. It can also report the gradient flowing through
a tap (used by Grad-CAM).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .layers import (Layer, LayerSpec, NonFiniteError, ShapeError,
                     _map_blocks, check_finite, conv2d, dense, dropout,
                     flatten, make_layer, maxpool2d, output_hw, relu)


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


def vgg16(input_hw: Tuple[int, int], n_classes: int) -> ArchConfig:
    """Full 13-conv VGG16 stack (64x2, 128x2, 256x3, 512x3, 512x3) on a
    single-channel input, with the classic 4096-unit head."""
    specs: List[LayerSpec] = []
    for ch, n in ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3)):
        specs += _vgg_block(ch, n)
    specs += [flatten(),
              dense(4096), relu(), dropout(),
              dense(4096), relu(), dropout(),
              dense(n_classes)]
    return ArchConfig(layers=specs, input_shape=(1, *input_hw),
                      n_classes=n_classes, name="vgg16")


def vgg_tiny(input_hw: Tuple[int, int], n_classes: int) -> ArchConfig:
    """4-conv desk-scale preset (16/32/64/64 channels, pool after each conv)."""
    specs: List[LayerSpec] = []
    for ch in (16, 32, 64, 64):
        specs += _vgg_block(ch, 1)
    specs += [flatten(), dense(64), relu(), dropout(), dense(n_classes)]
    return ArchConfig(layers=specs, input_shape=(1, *input_hw),
                      n_classes=n_classes, name="vgg-tiny")


PRESETS = {"vgg16": vgg16, "vgg-tiny": vgg_tiny}


def preset(name: str, input_hw: Tuple[int, int], n_classes: int) -> ArchConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name](input_hw, n_classes)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

# Layers whose forward returns a new array that only the next layer sees: a
# ReLU right after one overwrites it. (A conv's output is a tap only when no
# ReLU follows; dropout at eval and flatten pass on their own input.)
# Training still needs the in-place ReLU, and `backward`'s aliasing guard
# with it: without the two, perfbench's paper-at (2-vCPU VM, 1 BLAS thread,
# medians of 5 alternating 30 s pairs) fell from 56.6 to 53.2 samples/s and
# its epoch rose from 0.617 to 0.648 s (worse in 5 of 5 pairs each).
# Evaluation does not need them: its blocks of samples keep its maps small.
_FRESH_OUTPUT = ("conv2d", "maxpool2d", "dense")

# Layers that map finite inputs to finite outputs, forward and backward: a
# finite check after one could never be the first to fail, so none runs
# there. A pool's backward is not among them: np.add.at sums the gradients of
# overlapping windows, which can overflow.
_FINITE_FORWARD = ("relu", "maxpool2d", "flatten")
_FINITE_BACKWARD = ("relu", "flatten")

# Every pass runs over blocks of whole samples whose largest activation takes
# about this many bytes (or one sample; `Network.sample_block`): every
# forward runs each such block through the whole stack, and a backward runs
# it back down, so that a block's maps stay in cache instead of going
# through DRAM. 2 MB is the private L2 of one core of the VM measured below.
# A pass spread over several CPUs gives each thread whole blocks of this
# size. Whatever mixes samples runs over the whole batch, so the outputs
# depend neither on the number of CPUs nor on this constant.
# Measured when the conv stack alone ran in such blocks: `training.evaluate`
# of vgg-tiny, float32, 1 BLAS thread, 2-vCPU VM
# (medians of two interleaved runs of 15 and 30 calls), whole batch against
# 1 / 2 / 4 / 8 / 16 MB blocks:
# - 64x126x129: 457 and 342 ms against 218-230 / 209-221 / 218-225 /
#   235 / 263-303 ms; the tracemalloc peak was 84.2 MB against 4.3 / 5.1 /
#   7.2 / 12.4 MB;
# - 13x126x129: 53.1 against 45.4 / 42.9 / 45.0 / 46.8 / 52.5 ms;
# - 64x32x37: 18.5-20.0 ms at every size.
# A 13x126x129 training step with the anti-transfer tap at conv 1 (same VM,
# one process, alternating 60 steps each) took 124.9 ms depth first, against
# 156.3 ms when each conv and pool pass ran its own call over these blocks.
_STACK_BLOCK_BYTES = 2 << 20

# The kinds of layer the stack holds: every layer from the input up to the
# first of another kind (flatten, in the presets) is one of these, and runs
# over blocks of samples; the layers from there on run over the whole batch.
_STACK_KINDS = ("conv2d", "relu", "maxpool2d")


def _rebuilds_map(in_channels: int, spec: LayerSpec) -> bool:
    """Whether a reduced tap at this conv, whose pullback reads the map
    again, rebuilds the map in the backward instead of keeping it from the
    forward: when a re-run of the conv spends no more multiply-adds per map
    element, in_channels * k * k, than the out channels that the Gram and
    its pullback each spend. vgg-tiny rebuilds at conv 1 (9 <= 16) and
    keeps its map at convs 2-4 (144 > 32, 288 > 64, 576 > 64); vgg16
    rebuilds at conv 1 alone.
    Measured on the 13x126x129 float32 vgg-tiny step with the Gram term at
    conv 1 (2-vCPU VM, 2 threads, 1 BLAS thread): tracemalloc's peak of
    `batch_objective` and the backward fell from 38.86 to 26.2-28.5 MB (to
    21.5-23.4 MB once the backward also let go of each block's layer
    copies), and a step took about 6 % longer (99.5 against 105.7 ms,
    medians of 4 alternating rounds of 30 steps) for its extra conv 1
    forward per block of 2 samples."""
    return in_channels * spec.kernel * spec.kernel <= spec.channels


class Network:
    """A built network: layer objects with weights, plus tap bookkeeping.

    `params` and `grads`, built once, map each weight's checkpoint name
    ("conv1.weight", ...) to the layer's own weight and gradient arrays;
    whatever reads or writes weights goes through them, in place.

    The stack, every conv, ReLU and max-pool layer from the input up to
    the first layer of another kind (flatten, in the presets), runs over
    blocks of `sample_block` whole samples, spread over every CPU
    (`layers._map_blocks`): a forward runs each block through the whole
    stack in one `_map_blocks` call, and `backward` runs each block back
    down it in one more, so a block's maps stay in cache from layer to
    layer. Each block writes its samples' rows of the whole-batch arrays a
    caller reads: the tapped maps, the stack's output and the captured tap
    gradients. A reduced tap (`forward`'s `reduce`) has no whole-batch map:
    each block reduces its own rows of it, the calling thread concatenates
    the reductions, and in `backward` each block adds the pullback of its
    rows of the reduction's gradient at the tap. Everything after the stack
    (the dense head and dropout), the caller's loss and optimizer, and the
    sum of the conv gradient terms, which the blocks return per sample and
    the calling thread adds in sample order (`Conv2D.add_grads`), run on the
    calling thread over the whole batch, so no byte depends on the blocks
    or the CPUs. A batch of at most one block (vgg-tiny's batch of 13 at
    32x37 is one) runs on the calling thread alone, on the layers
    themselves. Over several blocks, a recording forward gives each block
    its own copies of the stack's layers (`Layer.block_copy`), which keep
    that block's recording for one backward; the layers themselves then
    hold no recording of it. That backward lets go of each copy once the
    copy's backward has run, keeping only a conv's gradient terms, so a
    second backward raises RuntimeError. A block's pullbacks serve one
    backward too, which drops each once it is used.

    A reduction whose pullback reads the map (the Gram's: its `reads_map`
    is true) is handed the block's map in the backward. At a conv cheap to
    re-run (`_rebuilds_map`: vgg-tiny's and vgg16's conv 1) no block keeps
    that map, nor the tap ReLU's mask, from the forward: the backward
    re-runs the conv on the input it recorded for its own weight gradient
    (`Conv2D.rerun`, the same GEMMs and so the same bytes) and the tap
    ReLU on that, which records its mask then. At any other conv each block
    keeps its map until its backward reaches the tap.

    Passes that do not record (evaluation, validation, the extractor
    precompute) are blocked the same way, and keep no pullback. A sample's
    conv, ReLU and pool maps do not depend on the batch it is in, so they
    keep their bytes; the dense head's logits can change in their last bits
    with the number of rows, as the BLAS takes another GEMM path for a few.

    Forwards that do not record may run concurrently on one network, as
    their blocks do: they only read the weights and write nothing to the
    layers but the cleared caches. A recording forward, and the backward
    after it, must run alone."""

    def __init__(self, arch: ArchConfig, seed: int = 0, dtype=np.float64):
        self.arch = arch
        self.dtype = np.dtype(dtype)
        # per-layer NaN/Inf scans; trainers may disable them on the hot path
        # and rely on the per-batch loss check instead
        self.finite_checks = True
        rng = np.random.default_rng([int(seed), 0x1A17])
        self.layers: List[Layer] = []
        shapes = self._shapes = _propagate_shapes(arch)
        # the largest per-sample activation, which sizes `sample_block`
        self._sample_bytes = self.dtype.itemsize * max(
            c * h * w for c, h, w in shapes if h is not None)
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
        # the stack: layers 0.._stack-1, which run over blocks of samples
        self._stack = next((pos for pos, spec in enumerate(arch.layers)
                            if spec.kind not in _STACK_KINDS), len(arch.layers))
        # (samples per block, each block's layer copies) of the last
        # recording forward, when it ran over several blocks
        self._blocks = None
        # position -> (pullback, the map it reads or None) of its reduction
        # in the last recording forward, one per block; and the positions
        # whose maps the backward rebuilds instead (`_rebuilds_map`)
        self._pullbacks: Dict[int, list] = {}
        self._rebuilt: set = set()
        # the positions whose output (forward) or input gradient (backward)
        # a finite check scans
        self._checked_forward = {pos for pos, spec in enumerate(arch.layers)
                                 if spec.kind not in _FINITE_FORWARD}
        self._checked_backward = {pos for pos, spec in enumerate(arch.layers)
                                  if spec.kind not in _FINITE_BACKWARD}
        # conv index k (1-based) -> position of its post-activation output,
        # and that position -> the conv's
        self.tap_positions: Dict[int, int] = {}
        self._tap_conv: Dict[int, int] = {}
        k = 0
        for pos, spec in enumerate(arch.layers):
            if spec.kind == "conv2d":
                k += 1
                tap = pos
                if pos + 1 < len(arch.layers) and arch.layers[pos + 1].kind == "relu":
                    tap = pos + 1
                self.tap_positions[k] = tap
                self._tap_conv[tap] = pos
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

    @property
    def sample_block(self) -> int:
        """Samples per block of a pass: as many as keep the largest
        per-sample activation within `_STACK_BLOCK_BYTES`, and at least
        one."""
        return max(1, _STACK_BLOCK_BYTES // self._sample_bytes)

    def forward(self, x: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None,
                taps: Iterable[int] = (),
                record: bool = True,
                reduce: Optional[Mapping[int, Callable]] = None
                ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Run the network; returns (class scores, feature map per tapped
        conv, and reduction per reduced one).

        `reduce` maps conv indices, none of them in `taps` and each in the
        stack that runs over blocks of samples, to a function of a block of
        samples' feature map that returns the block's per-sample
        reduction and the pullback, `pullback(grad, fmap)`, from a gradient
        of that reduction to one of the map (`losses.aggregate_with_pullback`).
        A function whose pullback reads `fmap`, the block's map, says so
        with a true `reads_map` attribute; any other pullback gets None. No
        whole-batch map is built for a reduced conv: its reduction is the
        concatenation of its blocks', and a recording forward keeps each
        block's pullback for `backward`'s `reduced_grad_in`.
        With `record` false the layers keep nothing for a backward, which
        then raises RuntimeError; the outputs are the same."""
        return self._run(x, train, rng, taps, record, last_tap_only=False,
                         reduce=reduce or {})

    def tap_features(self, x: np.ndarray, taps: Iterable[int] = (),
                     reduce: Optional[Mapping[int, Callable]] = None
                     ) -> Dict[int, np.ndarray]:
        """Eval-mode map per tapped conv and reduction per reduced one
        (`forward`'s), from a forward that does not record. Stops after the
        deepest of them, since no later layer changes them."""
        return self._run(x, False, None, taps, False, last_tap_only=True,
                         reduce=reduce or {})[1]

    def _run(self, x, train, rng, taps, record: bool, last_tap_only: bool,
             reduce: Mapping[int, Callable]):
        """The forward behind `forward` and `tap_features`: the stack over
        blocks of samples (`_stack_forward`), then each later layer, and its
        finite check, over the whole batch. A non-finite map names the
        lowest layer any sample fails at. Only the layers that can turn
        finite inputs non-finite are checked."""
        taps = sorted(set(taps))
        for k in (*taps, *reduce):
            if k not in self.tap_positions:
                raise ValueError(f"tap index {k} is not a conv layer (1..{self.arch.conv_count})")
        both = sorted(set(taps) & set(reduce))
        if both:
            raise ValueError(f"conv {both[0]} is both tapped and reduced")
        past = sorted(k for k in reduce if self.tap_positions[k] >= self._stack)
        if past:
            raise ValueError(f"conv {past[0]} lies past the stack of blocks; "
                             "only the stack's convs can be reduced")
        expect = self.arch.input_shape
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ShapeError(f"input shape {x.shape} does not match {('N',) + expect}")
        if len(x) == 0:
            raise ShapeError(f"input shape {x.shape} holds no sample")
        x = np.ascontiguousarray(x, dtype=self.dtype)
        check_finite(x, "network input")
        tap_at = {self.tap_positions[k]: k for k in taps}
        reduce_at = {self.tap_positions[k]: fn for k, fn in reduce.items()}
        stop = (max([*tap_at, *reduce_at], default=-1) + 1 if last_tap_only
                else len(self.layers))
        top = min(self._stack, stop)
        self._blocks = None
        self._pullbacks, self._rebuilt = {}, set()
        keep = {pos for pos in tap_at if pos < top}
        if stop > top:   # the stack's output, only when layers follow it
            keep.add(top - 1)
        kept, reduced = self._stack_forward(x, train, rng, record, top, keep,
                                            reduce_at)
        out = kept.get(top - 1, x)
        tapped = {tap_at[pos]: kept[pos] for pos in tap_at if pos < top}
        tapped.update((k, reduced[self.tap_positions[k]]) for k in reduce)
        for pos in range(top, stop):
            layer = self.layers[pos]
            out = layer.forward(out, train, rng, record)
            if self.finite_checks and pos in self._checked_forward:
                check_finite(out, f"activations after {layer.name or type(layer).__name__}")
            if pos in tap_at:
                tapped[tap_at[pos]] = out
        return out, tapped

    def _stack_forward(self, x, train, rng, record, top, keep, reduce
                       ) -> Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]:
        """Layers 0..top-1, each block of `sample_block` samples through all
        of them in turn, in one `_map_blocks` call; returns the whole-batch
        output of each position in `keep`, which the blocks write, and the
        reduction of each position in `reduce` by its function, which each
        block takes of its own rows and the calling thread concatenates. A
        recording forward keeps each block's pullbacks in `_pullbacks`; any
        other drops them in the block, and with them what they hold. A
        pullback that reads the map (the reduction's `reads_map`) is kept
        with the block's map, unless the conv is cheap to re-run
        (`_rebuilds_map`): then the block keeps neither the map nor the tap
        ReLU's mask, whose layer runs without recording, and `backward`
        rebuilds both.

        One block runs on the layers themselves, and its maps are the
        batch's. Over several, a recording forward gives each block its own
        copies of the layers (`Layer.block_copy`), which keep its recording
        for `backward`; a forward that does not record runs every block on
        the layers themselves, which only clear their caches."""
        if top == 0:
            return {}, {}
        n, block = len(x), self.sample_block
        whole = n <= block
        reads = {pos for pos, fn in reduce.items()
                 if record and getattr(fn, "reads_map", False)}
        rebuilt = {pos for pos in reads if _rebuilds_map(
            self._shapes[self._tap_conv[pos]][0],
            self.arch.layers[self._tap_conv[pos]])}
        hold = reads - rebuilt
        # the tap ReLUs of rebuilt maps, which record no mask
        quiet = {pos for pos in rebuilt if pos != self._tap_conv[pos]}
        kept = {} if whole else {
            pos: np.empty((n, *self._shapes[pos + 1]), dtype=self.dtype)
            for pos in keep}

        def run(rows):
            """The block's layers, reductions and pullbacks, and the
            position and error of the first finite check it fails."""
            layers = self.layers[:top]
            if record and not whole:
                layers = [layer.block_copy() for layer in layers]
            reductions, pullbacks = {}, {}
            out = x[rows]
            for pos, layer in enumerate(layers):
                out = layer.forward(out, train, rng, record and pos not in quiet)
                if self.finite_checks and pos in self._checked_forward:
                    try:
                        check_finite(out, "activations after "
                                     f"{layer.name or type(layer).__name__}")
                    except NonFiniteError as err:
                        return layers, reductions, pullbacks, (pos, err)
                if pos in keep:
                    if whole:
                        kept[pos] = out
                    else:
                        kept[pos][rows] = out
                if pos in reduce:
                    reductions[pos], pullback = reduce[pos](out)
                    if record:
                        pullbacks[pos] = (pullback, out if pos in hold else None)
            return layers, reductions, pullbacks, None

        blocks = _map_blocks(run, n, block)
        failed = [f for *_, f in blocks if f is not None]
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        if record:
            if not whole:
                self._blocks = (block, [layers for layers, *_ in blocks])
            for pos in reduce:
                self._pullbacks[pos] = [pb[pos] for _, _, pb, _ in blocks]
            self._rebuilt = rebuilt
        return kept, {pos: np.concatenate([r[pos] for _, r, _, _ in blocks])
                      for pos in reduce}

    def backward(self, dout: np.ndarray,
                 tap_grad_out: Iterable[int] = (),
                 reduced_grad_in: Optional[Dict[int, np.ndarray]] = None
                 ) -> Dict[int, np.ndarray]:
        """Reverse sweep from the output gradient.

        reduced_grad_in: extra dL/d(reduction) per conv the last recording
                      forward reduced; each block adds the pullback of its
                      rows at the tap (anti-transfer injection).
        tap_grad_out: tap indices whose accumulated gradient should be
                      captured and returned (Grad-CAM); the sweep then ends
                      at the lowest of them.
        Parameter gradients of the trainable layers the sweep passes through
        land in `grads`, in place: all of them unless tap_grad_out is given.
        Neither `dout` nor a captured gradient is written to: a layer that
        would overwrite one gets a copy.

        The layers after the stack run over the whole batch; the stack runs
        over the blocks of the forward, each block down through all of its
        layers, in one `_map_blocks` call. Each block writes its samples'
        rows of the captured gradients, and the calling thread adds the conv
        gradient terms of the blocks in sample order (`Conv2D.add_grads`).
        """
        # a forward's pullbacks serve one backward, which drops each block's
        # once used, and with it what it holds and the block's map; those of
        # a reduction with no gradient go at once
        pullbacks, self._pullbacks = self._pullbacks, {}
        rebuilt, self._rebuilt = self._rebuilt, set()
        reduced = {}
        for k, g in (reduced_grad_in or {}).items():
            pos = self.tap_positions[k]
            if pos not in pullbacks:
                raise RuntimeError(f"conv {k}: no reduction left from a "
                                   "recording forward")
            reduced[pos] = g
        pullbacks = {pos: pullbacks[pos] for pos in reduced}
        want = {self.tap_positions[k]: k for k in tap_grad_out}
        captured: Dict[int, np.ndarray] = {}
        # the lowest layer whose backward must run: the one above the lowest
        # requested tap, or else the lowest trainable layer with weights
        needed = ([pos + 1 for pos in want] if want else
                  [pos for pos, layer in enumerate(self.layers)
                   if layer.params() and layer.trainable])
        stop = min(needed) if needed else len(self.layers)
        held = [dout]   # arrays the caller keeps
        # position -> each block's gradient terms of a trainable conv, when
        # the blocks ran on copies of the layers
        terms: Dict[int, list] = {}

        def sweep(g, positions, layers, rows, capture, index):
            """Capture and run each layer's backward, from the highest of
            `positions` down to `stop`, pulling a reduction's gradient back
            through the `index`-th of its pullbacks and adding it; returns
            the gradient below, and the position and error of the first
            finite check that fails. A rebuilt map is the conv's output
            again (`Conv2D.rerun`), through the tap ReLU, which records the
            mask its forward did not."""
            for pos in positions:
                fmap = None
                if pos in rebuilt:
                    conv = self._tap_conv[pos]
                    fmap = layers[conv].rerun()
                    if pos != conv:
                        fmap = layers[pos].forward(fmap, False, None)
                if pos in reduced:
                    pullback, kept = pullbacks[pos][index]
                    pullbacks[pos][index] = None
                    extra = pullback(reduced[pos][rows],
                                     kept if fmap is None else fmap)
                    del pullback, kept, fmap   # frees the block's map
                    # in place, unless the caller holds g, and let go before
                    # the layers below run: one array of the block's map
                    # size less at a time, per thread
                    if any(np.may_share_memory(g, a) for a in held):
                        g = g + extra
                    else:
                        g += extra
                    del extra
                if pos in want:
                    capture(want[pos], rows, g)
                if pos < stop:
                    break
                layer = layers[pos]
                if layer is None:
                    raise RuntimeError("backward without a recording forward: "
                                       "the last one's blocks were spent")
                if layer.inplace and any(np.may_share_memory(g, a) for a in held):
                    g = g.copy()
                g = layer.backward(g)
                if layers is not self.layers:
                    # a block's copy, whose recording nothing reads again:
                    # keep a conv's gradient terms and let go of the rest
                    if pos in terms:
                        terms[pos][index] = layer.terms
                    layers[pos] = None
                if self.finite_checks and pos in self._checked_backward:
                    try:
                        check_finite(g, "gradient through "
                                     f"{layer.name or type(layer).__name__}")
                    except NonFiniteError as err:
                        return g, (pos, err)
            return g, None

        def keep(k, rows, g):
            captured[k] = g
            held.append(g)

        top = self._stack
        g, failed = sweep(dout, range(len(self.layers) - 1, top - 1, -1),
                          self.layers, slice(None), keep, None)
        if failed:
            raise failed[1]
        if top == 0 or stop > top:
            return captured
        # the blocks of the recording forward: several, on copies of the
        # layers, or one, on the layers themselves
        block, copies = self._blocks or (len(g), None)
        if copies is not None:
            terms.update((pos, [None] * len(copies)) for pos in range(stop, top)
                         if self.layers[pos].params() and self.layers[pos].trainable)
            for pos, k in want.items():
                if pos < top:
                    captured[k] = np.empty((len(g), *self._shapes[pos + 1]),
                                           dtype=g.dtype)

        def put(k, rows, g_rows):
            captured[k][rows] = g_rows

        def run(rows):
            if copies is None:
                layers, capture = self.layers, keep
            else:
                layers, capture = copies[rows.start // block], put
            return sweep(g[rows], range(top - 1, -1, -1), layers, rows,
                         capture, rows.start // block)[1]

        failed = [f for f in _map_blocks(run, len(g), block) if f is not None]
        if failed:
            raise max(failed, key=lambda f: f[0])[1]
        for pos, blocks in terms.items():
            self.layers[pos].add_grads(blocks)
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

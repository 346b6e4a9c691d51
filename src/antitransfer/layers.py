"""Dense-tensor layer kernels with explicit forward and backward passes.

A forward that records (the default) caches whatever the layer's backward
needs (inputs, masks, argmax positions); one that does not record computes
only the output and clears the cache, so a backward after it raises
RuntimeError. A layer with weights allocates its gradient buffers once;
backward overwrites them in place (it does not accumulate), and a frozen
layer leaves them untouched.

A layer never writes into its argument, with one exception: a ReLU built
with `inplace=True` writes its output into the array it is given and its
input gradient into the incoming gradient. `Network` builds those only
after a conv, pool or dense layer, whose fresh output nothing else holds,
and hands them in backward only gradients it made itself: never the
caller's output gradient, nor one it has captured for the caller.
`ReLU()` itself leaves its arguments untouched.

Every layer runs over the batch it is given, on the calling thread. A
`Network` spreads a pass over blocks of whole samples on every CPU
(`_map_blocks`). A recording pass over several blocks runs each block on its
own copies of the conv, ReLU and max-pool layers (`Layer.block_copy`), which
share the weights but keep their own recordings, and whose convs keep their
gradient terms for `Conv2D.add_grads`; a pass of one block, and every pass
that does not record, runs on the layers themselves.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from typing import Optional, Tuple, Union

import numpy as np


class ShapeError(ValueError):
    """Tensor shape does not match what the operation requires."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared where only finite values are allowed."""


def check_finite(x: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite values in {where}")


# ---------------------------------------------------------------------------
# Passes over blocks of samples
# ---------------------------------------------------------------------------

# A pass over a batch (a network's forward or backward through its conv
# stack; `Network` is the one caller) runs over blocks of whole samples,
# spread over every CPU the process may run on. The caller picks the
# blocks, so they do not depend on how many CPUs there are; each block
# writes only its own samples' slices and keeps its own temporaries, and
# results come back in block order, so neither do the outputs.

def _workers() -> int:
    """Threads a pass over blocks runs on: one per CPU in the affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _map_blocks(fn, n: int, block: int) -> list:
    """[fn(rows) for each slice `rows` of `block` consecutive samples of n],
    in block order: one pass of a `Network` over its blocks.

    The calling thread runs the first contiguous share of the blocks, and a
    pool thread per further worker (`_workers`) the next share each; numpy
    releases the GIL in the matmuls, ufuncs and copies that take most of a
    block's time. The pool is joined before the call returns. A share stops
    at its first failing block, and the error of the lowest failing share is
    raised: that of the first failing block in block order. What the later
    shares return or raise is not needed and is dropped."""
    blocks = [slice(a, a + block) for a in range(0, n, block)]
    workers = min(_workers(), len(blocks))

    def run(share):
        return [fn(rows) for rows in share]

    if workers <= 1:
        return run(blocks)
    cuts = [len(blocks) * i // workers for i in range(workers + 1)]
    shares = [blocks[a:b] for a, b in zip(cuts, cuts[1:])]
    with ThreadPoolExecutor(workers - 1, thread_name_prefix="block") as pool:
        rest = [pool.submit(run, share) for share in shares[1:]]
        results = run(shares[0])
        for future in rest:
            results += future.result()
    return results


# ---------------------------------------------------------------------------
# Layer specifications
# ---------------------------------------------------------------------------

LAYER_KINDS = ("conv2d", "maxpool2d", "dense", "relu", "dropout", "flatten")
# MaxPool2D keeps the argmax tap index i*k + j in int8, so k*k - 1 <= 127
MAX_POOL_KERNEL = 11


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer; carries only kind-specific
    params. The constructor checks them; `LayerSpec(**d)` reads `to_dict()`
    back."""

    kind: str
    channels: Optional[int] = None
    kernel: Optional[int] = None
    stride: Optional[int] = None
    padding: Union[str, int, None] = None  # 'same' or explicit per-side pad
    ceil_mode: bool = False
    units: Optional[int] = None
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv2d":
            if not self.channels or self.channels < 1:
                raise ValueError("conv2d needs channels >= 1")
            if not self.kernel or self.kernel < 1:
                raise ValueError("conv2d kernel extent must be >= 1")
            if not self.stride or self.stride < 1:
                raise ValueError("conv2d stride must be >= 1")
            if self.padding == "same" and self.kernel % 2 == 0:
                raise ValueError("'same' padding requires an odd kernel")
        elif self.kind == "maxpool2d":
            if not self.kernel or self.kernel < 1 or not self.stride or self.stride < 1:
                raise ValueError("maxpool2d needs kernel >= 1 and stride >= 1")
            if self.kernel > MAX_POOL_KERNEL:
                raise ValueError(f"maxpool2d kernel {self.kernel} exceeds the "
                                 f"limit of {MAX_POOL_KERNEL}")
        elif self.kind == "dense":
            if not self.units or self.units < 1:
                raise ValueError("dense needs units >= 1")
        elif self.kind == "dropout":
            if self.p is None or not (0.0 <= self.p < 1.0):
                raise ValueError("dropout probability must be in [0, 1)")

    def to_dict(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if self.kind != "maxpool2d":
            d.pop("ceil_mode", None)
        return d

    @property
    def pad(self) -> int:
        """Per-side zero padding of a conv2d: (kernel - 1) // 2 for 'same'."""
        if self.padding == "same":
            return (self.kernel - 1) // 2
        return int(self.padding or 0)


def conv2d(channels: int, kernel: int = 3, stride: int = 1,
           padding: Union[str, int] = "same") -> LayerSpec:
    return LayerSpec(kind="conv2d", channels=channels, kernel=kernel,
                     stride=stride, padding=padding)


def maxpool2d(kernel: int = 3, stride: int = 2, ceil_mode: bool = True) -> LayerSpec:
    return LayerSpec(kind="maxpool2d", kernel=kernel, stride=stride,
                     ceil_mode=ceil_mode)


def dense(units: int) -> LayerSpec:
    return LayerSpec(kind="dense", units=units)


def relu() -> LayerSpec:
    return LayerSpec(kind="relu")


def dropout(p: float = 0.5) -> LayerSpec:
    return LayerSpec(kind="dropout", p=p)


def flatten() -> LayerSpec:
    return LayerSpec(kind="flatten")


def output_hw(spec: LayerSpec, h: int, w: int) -> Tuple[int, int]:
    """Output extent of a conv2d or maxpool2d spec on an h x w input.

    Ceil-mode pooling keeps a last window that overhangs the right/bottom
    edge, provided it starts inside the input. Raises ShapeError when the
    output would be smaller than 1x1.
    """
    k, s = spec.kernel, spec.stride
    if spec.kind == "conv2d":
        p = spec.pad
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    elif spec.ceil_mode:
        # windows that fit when the edge is rounded up, but no more than the
        # (n - 1) // s + 1 windows that start inside the input
        oh, ow = (min(-(-(n - k) // s), (n - 1) // s) + 1 for n in (h, w))
    else:
        oh, ow = (h - k) // s + 1, (w - k) // s + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"{spec.kind} (kernel {k}, stride {s}) on a {h}x{w} "
                         f"input collapses to {oh}x{ow}")
    return oh, ow


# ---------------------------------------------------------------------------
# Layer implementations
# ---------------------------------------------------------------------------


class Layer:
    """Base class. A layer with weights holds them in W and b and their
    gradients in gW and gb; `params` and `grads` name them."""

    trainable = True
    name = ""
    inplace = False   # whether forward and backward overwrite their argument

    def params(self) -> dict:
        return {"weight": self.W, "bias": self.b} if hasattr(self, "W") else {}

    def grads(self) -> dict:
        return {"weight": self.gW, "bias": self.gb} if hasattr(self, "W") else {}

    def forward(self, x: np.ndarray, train: bool, rng: Optional[np.random.Generator],
                record: bool = True) -> np.ndarray:
        """The layer's output; with `record` false no backward may follow."""
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def block_copy(self) -> "Layer":
        """A copy for one block of samples of a `Network` pass: it shares
        this layer's weights and gradient buffers but keeps its own
        recording, so that blocks can run at the same time."""
        return copy.copy(self)


# Within a block of a pass, conv forward and backward run over inner blocks
# of whole samples whose column buffer and output take about this many bytes
# (or one sample), so their buffers stay in cache and never grow with the
# batch. On 64 float32 spectrograms at 126x129 (2-vCPU VM, 1 BLAS thread)
# vgg-tiny's four convs took 174 ms per forward in 1 MB blocks, 158-176 ms
# from 256 KB to 4 MB, against 361 ms for one GEMM per kernel tap; at
# 13x32x37, 3.8 ms against 6.0. Their four backwards at batch 13 (medians of
# 31 and 151 calls, interleaved in one process, same VM) took, in 256 KB /
# 512 KB / 1 / 2 / 4 MB blocks, 64.1 / 63.4 / 63.4 / 63.3 / 65.3 ms at
# 126x129 and 8.25 / 7.23 / 7.00 / 7.04 / 7.06 ms at 32x37, against 100.5 and
# 8.11 ms for two GEMMs per kernel tap over the whole batch. In 1 MB blocks
# every conv was faster than that except, in some runs, conv 3 or 4 at 32x37
# (8x9 and 4x4 maps), by 2-4 %.
_CONV_BLOCK_BYTES = 1 << 20


class Conv2D(Layer):
    """2-D convolution, NCHW layout, square kernel, zero padding.

    Forward is im2col (Chellapilla et al. 2006) over inner blocks of samples
    (`_CONV_BLOCK_BYTES`): k*k strided copies fill a (samples, in channels x
    taps, positions) column buffer, one matmul with the (out, in x taps)
    weights turns it into the inner block's output, and the bias is added
    last. numpy runs that matmul as one GEMM per sample, all of the same
    shape, so a sample's output does not depend on the batch it is in.

    Backward (col2im) runs over the same inner blocks. A trainable conv
    refills the forward's column buffer from the padded input it kept, and
    one GEMM per sample of the output gradient with the columns gives that
    sample's weight gradient term; each sample's bias gradient term is the
    sum of its output gradient's planes. `add_grads` adds the terms in
    sample order, so a `Network` that runs its blocks of samples on several
    threads gets the bytes of one backward over the whole batch: its block
    copies keep their terms (`block_copy`), and a conv's own backward adds
    its terms at once. One GEMM per sample of the transposed weights with
    the output gradient then gives the column gradient, in the same buffer,
    and k*k strided adds in tap order fold it back into the padded input
    gradient, so a sample's input gradient does not depend on its batch. A
    frozen conv skips the columns and the gradient terms.

    For those adds to run over whole planes, the output gradient is laid out
    on rows of the padded input's width wp: window (r, q) sits at position
    r * wp + q, and tap (i, j) of every window is then one run of the flat
    padded plane, from i * wp + j in steps of the stride. Positions with q at
    or past the output width are no window; their output gradient is zero,
    and so is what they add while the weights are finite. They cost (k - 1)
    columns per row of the column-gradient GEMM at stride 1, and about s
    times its work at stride s.
    """

    # set on a block copy, whose backward leaves its gradient terms in
    # `terms` for `add_grads` instead of adding them into gW and gb
    keeps_terms = False
    terms = None

    def __init__(self, spec: LayerSpec, in_channels: int, rng: np.random.Generator,
                 dtype=np.float64, name: str = "conv"):
        self.spec = spec
        self.name = name
        self.in_channels = in_channels
        self.out_channels = spec.channels
        self.kernel = spec.kernel
        self.stride = spec.stride
        self.pad = spec.pad
        # Kaiming-uniform, fan-in mode (gain sqrt(2) for the ReLU that follows)
        fan_in = in_channels * spec.kernel * spec.kernel
        bound = np.sqrt(6.0 / fan_in)
        self.W = rng.uniform(-bound, bound,
                             size=(spec.channels, in_channels, spec.kernel, spec.kernel)
                             ).astype(dtype)
        self.b = np.zeros(spec.channels, dtype=dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._xp = None

    def block_copy(self) -> "Conv2D":
        twin = copy.copy(self)
        twin.keeps_terms = True
        return twin

    def _block(self, oh, ow, itemsize):
        """Samples per block: their columns and output fill _CONV_BLOCK_BYTES."""
        rows = self.in_channels * self.kernel * self.kernel
        per_sample = (rows + self.out_channels) * oh * ow * itemsize
        return max(1, _CONV_BLOCK_BYTES // per_sample)

    def _fill_columns(self, cols, xp):
        """im2col: cols[:, :, i, j] is tap (i, j) of every window of the
        padded input xp, for cols of shape (samples, c, k, k, oh, ow)."""
        s, oh, ow = self.stride, cols.shape[4], cols.shape[5]
        for i in range(self.kernel):
            for j in range(self.kernel):
                cols[:, :, i, j] = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]

    def forward(self, x, train, rng, record=True):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        oh, ow = output_hw(self.spec, h, w)
        p, k, oc = self.pad, self.kernel, self.out_channels
        rows = c * k * k
        inner = self._block(oh, ow, x.itemsize)
        weights = self.W.reshape(oc, rows)
        out = np.empty((n, oc, oh * ow), dtype=x.dtype)
        # Each inner block is copied into a zero-padded buffer just before its
        # columns are filled. A recording forward keeps the whole padded
        # input for backward; one that does not reuses one inner block's
        # buffer, whose zero border is written once per call.
        # That buffer pays for itself: with an np.pad per block instead,
        # perfbench's audio-infer (64 spectrograms at 126x129, 2-vCPU VM, 1
        # BLAS thread, medians of 5 alternating 30 s pairs) fell from 187.1
        # to 174.6 samples/s and its evaluate rose from 0.246 to 0.271 s
        # (worse in 4 of 5 pairs each).
        padded = None
        if p:
            padded = np.zeros((n if record else min(inner, n), c,
                               h + 2 * p, w + 2 * p), dtype=x.dtype)
        cols = np.empty((min(inner, n), c, k, k, oh, ow), dtype=x.dtype)
        for a in range(0, n, inner):
            b = min(inner, n - a)
            xb, ob = x[a:a + b], out[a:a + b]
            if padded is not None:
                at = a if record else 0
                padded[at:at + b, :, p:p + h, p:p + w] = xb
                xb = padded[at:at + b]
            cb = cols[:b]
            self._fill_columns(cb, xb)
            # (oc, c * k * k) x (c * k * k, oh * ow) for each sample
            np.matmul(weights, cb.reshape(b, rows, -1), out=ob)
            ob += self.b[:, None]
        self._xp = (x if padded is None else padded) if record else None
        return out.reshape(n, oc, oh, ow)

    def rerun(self) -> np.ndarray:
        """The output of the last recording forward again, from the input
        it recorded, which stays recorded: a forward that does not record,
        on a copy. Its GEMMs have the first one's shapes, so it has its
        bytes."""
        xp = self._xp
        if xp is None:
            raise RuntimeError(f"{self.name}: rerun without a recording forward")
        p = self.pad
        x = xp[:, :, p:xp.shape[2] - p, p:xp.shape[3] - p] if p else xp
        return self.block_copy().forward(x, False, None, record=False)

    def backward(self, dout):
        xp = self._xp
        if xp is None:
            raise RuntimeError(f"{self.name}: backward without a recording forward")
        n, c, hp, wp = xp.shape
        oh, ow = dout.shape[2], dout.shape[3]
        s, p, k, oc = self.stride, self.pad, self.kernel, self.out_channels
        rows = c * k * k
        inner = self._block(oh, ow, xp.itemsize)
        wide = (oh - 1) * wp + ow   # positions up to the last window's
        weights_t = self.W.reshape(oc, rows).T
        d = dout.reshape(n, oc, oh * ow)
        dxp = np.zeros_like(xp)
        planes = dxp.reshape(n, c, hp * wp)
        trainable = self.trainable
        nb = min(inner, n)
        # the inner block's output gradient on rows of width wp, zero past ow
        d_wide = np.zeros((nb, oc, oh, wp), dtype=xp.dtype)
        # one buffer holds the inner block's columns, then its column gradient
        buf = np.empty(nb * rows * wide, dtype=xp.dtype)
        cols = buf[:nb * rows * oh * ow].reshape(nb, c, k, k, oh, ow)
        dcols = buf.reshape(nb, c, k, k, wide)
        weight_terms = []
        for a in range(0, n, inner):
            b = min(inner, n - a)
            if trainable:
                self._fill_columns(cols[:b], xp[a:a + b])
                # (c * k * k, oh * ow) x (oh * ow, oc) for each sample: the
                # transposed weight gradient, which OpenBLAS computes faster
                # than d x cols.T (one 16x63x64 sample into 32 channels: 0.50
                # against 0.92 ms)
                weight_terms.append(np.matmul(cols[:b].reshape(b, rows, -1),
                                              d[a:a + b].transpose(0, 2, 1)))
            d_wide[:b, :, :, :ow] = dout[a:a + b]
            # (c * k * k, oc) x (oc, wide) for each sample
            np.matmul(weights_t, d_wide[:b].reshape(b, oc, -1)[:, :, :wide],
                      out=dcols[:b].reshape(b, rows, wide))
            pb = planes[a:a + b]
            for i in range(k):
                for j in range(k):
                    at = i * wp + j
                    pb[:, :, at:at + s * (wide - 1) + 1:s] += dcols[:b, :, i, j]
        if trainable:
            # With one output channel numpy sums a batch's (n, 1, h, w) output
            # gradient as one pairwise run, which no sum of per-sample sums
            # reproduces, so the term is the gradient itself. With more, the
            # per-sample plane sums added in sample order are the bytes of
            # dout.sum(axis=(0, 2, 3)) (numpy 2.4, float32 and float64).
            terms = (weight_terms, dout if oc == 1 else dout.sum(axis=(2, 3)))
            if self.keeps_terms:
                self.terms = terms
            else:
                self.add_grads([terms])
        return dxp[:, :, p:hp - p, p:wp - p] if p else dxp

    def add_grads(self, blocks) -> None:
        """Write gW and gb from the gradient terms of consecutive blocks of
        a batch's samples, each a backward's (weight terms, bias terms),
        added in sample order."""
        rows, oc = self.in_channels * self.kernel * self.kernel, self.out_channels
        bias = np.concatenate([b for _, b in blocks])
        gw_t = np.zeros((rows, oc), dtype=bias.dtype)
        for weight_terms, _ in blocks:
            for stack in weight_terms:
                for g in stack:
                    gw_t += g
        self.gW[...] = gw_t.T.reshape(self.gW.shape)
        bias.sum(axis=(0, 2, 3) if oc == 1 else 0, out=self.gb)


def _fold_argmax(taps, acc, hit, arg, index):
    """Fold taps[1:] into acc, which holds taps[0], with np.maximum as an
    eval forward does, and return the array that ends up holding the maxima
    (acc or a second buffer). Wherever tap t is the first strictly greater
    than the running max, arg becomes index(t), whose values grow with t;
    `hit` is a bool buffer of acc's shape.

    A tap may be short along one axis (a ceil-mode edge), where acc keeps
    its value. Each maximum goes into the other buffer, so that new > old,
    which is tap > old, compares two contiguous arrays instead of reading
    the strided tap again. Since a later index beats any kept so far,
    arg = where(hit, index, arg) is max(arg, hit * index): two int8 passes,
    several times faster than a masked copy.
    """
    spare = np.empty_like(acc)
    for t, tap in enumerate(taps[1:], 1):
        part = tuple(slice(0, m) for m in tap.shape)
        np.maximum(tap, acc[part], out=spare[part])
        if tap.shape != acc.shape:
            rest = tuple(slice(m, None) if m < full else slice(None)
                         for m, full in zip(tap.shape, acc.shape))
            spare[rest] = acc[rest]
        np.greater(spare, acc, out=hit)
        won = hit.view(np.int8)[part]
        np.multiply(won, index(t), out=won)
        np.maximum(arg[part], won, out=arg[part])
        acc, spare = spare, acc
    return acc


class MaxPool2D(Layer):
    """Max pooling. A ceil-mode window that overhangs the right/bottom edge
    takes the max of its taps inside the input. Ties go to the first tap in
    row-major window order, which is the tap backward routes the gradient to.

    A NaN makes its window's output NaN, but the strict comparisons that
    pick the tap never choose a NaN or anything compared after it: the
    gradient goes to the first maximal tap of the rows above the window's
    first row holding a NaN or, when that is the top row, to the first
    maximal tap left of its first NaN (the top-left tap if that is the NaN).

    Every sample's output, argmax and input gradient are computed from that
    sample alone, so no byte depends on the batch it is in; the fold buffers
    and `np.add.at` indices take the size of the batch a call is given,
    which in a `Network` pass is one block of samples.
    """

    def __init__(self, spec: LayerSpec, name: str = "maxpool"):
        self.spec = spec
        self.name = name
        self.kernel = spec.kernel
        self.stride = spec.stride
        self._arg = None

    def forward(self, x, train, rng, record=True):
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh, ow = output_hw(self.spec, h, w)
        # each tap's rows and columns over all windows; numpy clips a slice at
        # the input's edge, so a tap past it covers fewer windows
        rows = [slice(i, i + s * (oh - 1) + 1, s) for i in range(k)]
        cols = [slice(j, j + s * (ow - 1) + 1, s) for j in range(k)]
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
        self._arg = None
        # Separable max: over the column taps into buf, then over the row
        # taps of buf. np.maximum(tap, acc) keeps acc on a tie, so every
        # window gets the value of its first maximal tap in row-major order,
        # signed zeros included.
        buf = x[:, :, :, cols[0]].copy()
        if not record:
            for col in cols[1:]:
                tap = x[:, :, :, col]
                acc = buf[:, :, :, :tap.shape[3]]
                np.maximum(tap, acc, out=acc)
            np.copyto(out, buf[:, :, rows[0]])
            for row in rows[1:]:
                tap = buf[:, :, row]
                acc = out[:, :, :tap.shape[2]]
                np.maximum(tap, acc, out=acc)
            return out
        # The same maxima with their argmax, which only backward reads:
        # colarg takes the first maximal column tap j of each row of buf,
        # then arg the first maximal row tap i of each window, whose tap is
        # i*k + j.
        colarg = np.zeros(buf.shape, dtype=np.int8)
        hit = np.empty(buf.shape, dtype=bool)
        buf = _fold_argmax([x[:, :, :, col] for col in cols], buf, hit,
                           colarg, lambda j: j)
        np.copyto(out, buf[:, :, rows[0]])
        arg = colarg[:, :, rows[0]].copy()
        res = _fold_argmax([buf[:, :, row] for row in rows], out,
                           np.empty(out.shape, dtype=bool), arg,
                           lambda i: colarg[:, :, rows[i]] + np.int8(i * k))
        if res is not out:
            np.copyto(out, res)
        self._arg, self._in_shape = arg, x.shape
        return out

    def backward(self, dout):
        if self._arg is None:
            raise RuntimeError(f"{self.name}: backward without a recording forward")
        n, c, h, w = self._in_shape
        k, s = self.kernel, self.stride
        oh, ow = dout.shape[2], dout.shape[3]
        # flat input index of each window's max tap: the tap's offset in its
        # window, plus the window's origin, plus its (sample, channel) plane
        offset = (w * np.arange(k)[:, None] + np.arange(k)).ravel()
        origin = s * (w * np.arange(oh)[:, None] + np.arange(ow))
        idx = offset.take(self._arg)
        idx += origin
        idx += h * w * np.arange(n * c).reshape(n, c, 1, 1)
        dx = np.zeros((n, c, h, w), dtype=dout.dtype)
        # np.add.at adds in index order. Overlapping windows may route to the
        # same cell; in reverse row-major window order a cell gets them in
        # increasing tap order, as a loop over the taps would add them.
        np.add.at(dx.reshape(-1), idx.ravel()[::-1], dout.ravel()[::-1])
        return dx


class Dense(Layer):
    def __init__(self, spec: LayerSpec, in_features: int, rng: np.random.Generator,
                 dtype=np.float64, name: str = "dense"):
        self.spec = spec
        self.name = name
        self.in_features = in_features
        self.units = spec.units
        bound = np.sqrt(6.0 / in_features)
        self.W = rng.uniform(-bound, bound, size=(in_features, spec.units)).astype(dtype)
        self.b = np.zeros(spec.units, dtype=dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def forward(self, x, train, rng, record=True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"{self.name}: expected (N, {self.in_features}), got {x.shape}")
        self._x = x if record else None
        return x @ self.W + self.b

    def backward(self, dout):
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward without a recording forward")
        if self.trainable:
            np.matmul(self._x.T, dout, out=self.gW)
            dout.sum(axis=0, out=self.gb)
        return dout @ self.W.T


class ReLU(Layer):
    """max(-0.0, x): a negative input, -inf included, gives -0.0, a zero
    keeps its sign and a NaN stays NaN. np.maximum returns its second
    argument when the two compare equal, as x86's maxps does, so x's own
    zero wins the tie (tests pin these bytes). Backward passes the gradient
    where x > 0. With `inplace` the result overwrites the argument, in both
    directions."""

    _mask = None

    def __init__(self, inplace: bool = False):
        self.inplace = inplace

    def forward(self, x, train, rng, record=True):
        self._mask = x > 0 if record else None
        return np.maximum(-0.0, x, out=x if self.inplace else None)

    def backward(self, dout):
        if self._mask is None:
            raise RuntimeError("relu: backward without a recording forward")
        return np.multiply(dout, self._mask, out=dout if self.inplace else None)


class Dropout(Layer):
    """Inverted dropout: scales at train time so eval is the identity."""

    def __init__(self, spec: LayerSpec, name: str = "dropout"):
        self.spec = spec
        self.name = name
        self.p = spec.p
        self._mask = None

    def forward(self, x, train, rng, record=True):
        if not train or self.p == 0.0:
            mask, out = 1.0, x   # every unit kept, at scale 1
        else:
            if rng is None:
                raise RuntimeError("dropout in train mode needs an RNG")
            keep = 1.0 - self.p
            mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
            out = x * mask
        self._mask = mask if record else None
        return out

    def backward(self, dout):
        if self._mask is None:
            raise RuntimeError(f"{self.name}: backward without a recording forward")
        return dout * self._mask


class Flatten(Layer):
    _shape = None

    def forward(self, x, train, rng, record=True):
        self._shape = x.shape if record else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        if self._shape is None:
            raise RuntimeError("flatten: backward without a recording forward")
        return dout.reshape(self._shape)


def make_layer(spec: LayerSpec, in_channels: int, in_features: int,
               rng: np.random.Generator, dtype, name: str,
               owns_input: bool = False) -> Layer:
    """Instantiate the layer object for a spec given the incoming geometry.
    `owns_input` says the layer's input is an array only it will see, which
    a ReLU then overwrites."""
    if spec.kind == "conv2d":
        return Conv2D(spec, in_channels, rng, dtype=dtype, name=name)
    if spec.kind == "maxpool2d":
        return MaxPool2D(spec, name=name)
    if spec.kind == "dense":
        return Dense(spec, in_features, rng, dtype=dtype, name=name)
    if spec.kind == "relu":
        return ReLU(inplace=owns_input)
    if spec.kind == "dropout":
        return Dropout(spec, name=name)
    if spec.kind == "flatten":
        return Flatten()
    raise ValueError(f"unknown layer kind {spec.kind!r}")

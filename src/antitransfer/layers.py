"""Dense-tensor layer kernels with explicit forward and backward passes.

Every layer caches whatever its backward pass needs (inputs, masks, argmax
positions) during forward. A layer with weights allocates its gradient
buffers once; backward overwrites them in place (it does not accumulate),
and a frozen layer leaves them untouched.
"""

from __future__ import annotations

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

    def params(self) -> dict:
        return {"weight": self.W, "bias": self.b} if hasattr(self, "W") else {}

    def grads(self) -> dict:
        return {"weight": self.gW, "bias": self.gb} if hasattr(self, "W") else {}

    def forward(self, x: np.ndarray, train: bool, rng: Optional[np.random.Generator]) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Conv2D(Layer):
    """2-D convolution, NCHW layout, square kernel, zero padding.

    Forward/backward are computed as kernel-position GEMMs (one tensordot per
    kernel tap), which avoids materializing im2col buffers.
    """

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

    def forward(self, x, train, rng):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} input channels, got {c}")
        oh, ow = output_hw(self.spec, h, w)
        p = self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        self._xp = xp
        self._in_shape = x.shape
        self._out_hw = (oh, ow)
        s = self.stride
        out = np.empty((n, self.out_channels, oh, ow), dtype=x.dtype)
        out[:] = self.b[None, :, None, None]
        for i in range(self.kernel):
            for j in range(self.kernel):
                patch = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
                # (oc, ic) x (n, ic, oh, ow) -> (oc, n, oh, ow)
                out += np.tensordot(self.W[:, :, i, j], patch, axes=([1], [1])
                                    ).transpose(1, 0, 2, 3)
        return out

    def backward(self, dout):
        xp = self._xp
        if xp is None:
            raise RuntimeError(f"{self.name}: backward without matching forward")
        n, c, h, w = self._in_shape
        oh, ow = self._out_hw
        s, p, k = self.stride, self.pad, self.kernel
        dxp = np.zeros_like(xp)
        if self.trainable:
            dout.sum(axis=(0, 2, 3), out=self.gb)
        for i in range(k):
            for j in range(k):
                patch = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
                if self.trainable:
                    self.gW[:, :, i, j] = np.tensordot(dout, patch, axes=([0, 2, 3], [0, 2, 3]))
                # (ic, oc) x (n, oc, oh, ow) -> (ic, n, oh, ow)
                dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += np.tensordot(
                    self.W[:, :, i, j], dout, axes=([0], [1])).transpose(1, 0, 2, 3)
        return dxp[:, :, p:p + h, p:p + w] if p else dxp


# Max-pool forward runs over blocks of samples of at most this many input
# bytes, so its temporaries stay a few MB. On 64 spectrograms at 126x129
# (66 MB, 2-vCPU VM, 1 BLAS thread) one block took 175 ms per call and 8 MB
# blocks 93 ms, with 2.4x fewer page faults.
_POOL_BLOCK_BYTES = 8 << 20


class MaxPool2D(Layer):
    """Max pooling. A ceil-mode window that overhangs the right/bottom edge
    takes the max of its taps inside the input. Ties go to the first tap in
    row-major window order, which is the tap backward routes the gradient to.
    """

    def __init__(self, spec: LayerSpec, name: str = "maxpool"):
        self.spec = spec
        self.name = name
        self.kernel = spec.kernel
        self.stride = spec.stride

    def forward(self, x, train, rng):
        n, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh, ow = output_hw(self.spec, h, w)
        # each tap's rows and columns over all windows; numpy clips a slice at
        # the input's edge, so a tap past it covers fewer windows
        rows = [slice(i, i + s * (oh - 1) + 1, s) for i in range(k)]
        cols = [slice(j, j + s * (ow - 1) + 1, s) for j in range(k)]
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
        arg = np.zeros((n, c, oh, ow), dtype=np.int8)  # i*k+j of the max tap
        block = max(1, _POOL_BLOCK_BYTES // max(c * h * w * x.itemsize, 1))
        for b in range(0, n, block):
            self._pool(x[b:b + block], rows, cols, out[b:b + block], arg[b:b + block])
        self._arg = arg
        self._in_shape = x.shape
        return out

    def _pool(self, x, rows, cols, out, arg):
        # Separable max: over the column taps, then over the row taps.
        # np.maximum(tap, acc) keeps acc on a tie, so every window gets the
        # value of its first maximal tap in row-major order, signed zeros
        # included.
        buf = x[:, :, :, cols[0]].copy()
        for col in cols[1:]:
            tap = x[:, :, :, col]
            acc = buf[:, :, :, :tap.shape[3]]
            np.maximum(tap, acc, out=acc)
        np.copyto(out, buf[:, :, rows[0]])
        for row in rows[1:]:
            tap = buf[:, :, row]
            acc = out[:, :, :tap.shape[2]]
            np.maximum(tap, acc, out=acc)
        # Walk the taps from last to first: the first tap equal to the max
        # writes last. arg = where(hit, t, arg) is done as arg += hit*(t-arg),
        # which is several times faster than a masked copy.
        k = self.kernel
        hit = np.empty(out.shape, dtype=bool)
        step = np.empty(out.shape, dtype=np.int8)
        for t in range(k * k - 1, -1, -1):
            patch = x[:, :, rows[t // k], cols[t % k]]
            a, b = patch.shape[2], patch.shape[3]
            hit_t, step_t, arg_t = (m[:, :, :a, :b] for m in (hit, step, arg))
            np.equal(patch, out[:, :, :a, :b], out=hit_t)
            np.subtract(t, arg_t, out=step_t)
            step_t *= hit_t
            arg_t += step_t

    def backward(self, dout):
        n, c, h, w = self._in_shape
        k, s = self.kernel, self.stride
        oh, ow = dout.shape[2], dout.shape[3]
        # room for every tap of every window: a ceil-mode window overhangs
        # the input, floor mode can leave its last rows/columns uncovered
        hp, wp = max((oh - 1) * s + k, h), max((ow - 1) * s + k, w)
        dxp = np.zeros((n, c, hp, wp), dtype=dout.dtype)
        for i in range(k):
            for j in range(k):
                # overlapping windows may route to the same cell, hence +=
                dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += dout * (self._arg == i * k + j)
        return dxp[:, :, :h, :w]


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

    def forward(self, x, train, rng):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"{self.name}: expected (N, {self.in_features}), got {x.shape}")
        self._x = x
        return x @ self.W + self.b

    def backward(self, dout):
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward without matching forward")
        if self.trainable:
            np.matmul(self._x.T, dout, out=self.gW)
            dout.sum(axis=0, out=self.gb)
        return dout @ self.W.T


class ReLU(Layer):
    def forward(self, x, train, rng):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


class Dropout(Layer):
    """Inverted dropout: scales at train time so eval is the identity."""

    def __init__(self, spec: LayerSpec, name: str = "dropout"):
        self.spec = spec
        self.name = name
        self.p = spec.p
        self._mask = None

    def forward(self, x, train, rng):
        if not train or self.p == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise RuntimeError("dropout in train mode needs an RNG")
        keep = 1.0 - self.p
        self._mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


class Flatten(Layer):
    def forward(self, x, train, rng):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


def make_layer(spec: LayerSpec, in_channels: int, in_features: int,
               rng: np.random.Generator, dtype, name: str) -> Layer:
    """Instantiate the layer object for a spec given the incoming geometry."""
    if spec.kind == "conv2d":
        return Conv2D(spec, in_channels, rng, dtype=dtype, name=name)
    if spec.kind == "maxpool2d":
        return MaxPool2D(spec, name=name)
    if spec.kind == "dense":
        return Dense(spec, in_features, rng, dtype=dtype, name=name)
    if spec.kind == "relu":
        return ReLU()
    if spec.kind == "dropout":
        return Dropout(spec, name=name)
    if spec.kind == "flatten":
        return Flatten()
    raise ValueError(f"unknown layer kind {spec.kind!r}")

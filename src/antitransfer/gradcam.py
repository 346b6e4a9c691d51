"""Grad-CAM localization maps over trained networks, rendered as PGM images.

The map at conv layer l for class c weighs each channel of the layer's
post-activation feature map by the spatial average of d(logit_c)/d(channel),
sums, rectifies, upsamples to the input geometry and max-normalizes. The
class score is the pre-softmax logit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .checkpoint import atomic_open
from .layers import ShapeError
from .network import Network


@dataclass
class Heatmap:
    values: np.ndarray   # (frames, bins), in [0, 1]; all-zero allowed
    class_index: int
    layer: int


def bilinear_resize(img: np.ndarray, out_hw: Tuple[int, int]) -> np.ndarray:
    """Half-pixel-centered bilinear resize with edge replication."""
    h, w = img.shape
    oh, ow = out_hw
    if (h, w) == (oh, ow):
        return img.astype(np.float64).copy()
    ys = np.clip((np.arange(oh) + 0.5) * h / oh - 0.5, 0, h - 1)
    xs = np.clip((np.arange(ow) + 0.5) * w / ow - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    ty = (ys - y0)[:, None]
    tx = (xs - x0)[None, :]
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    img = img.astype(np.float64)
    return ((1 - ty) * (1 - tx) * img[np.ix_(y0, x0)]
            + (1 - ty) * tx * img[np.ix_(y0, x1)]
            + ty * (1 - tx) * img[np.ix_(y1, x0)]
            + ty * tx * img[np.ix_(y1, x1)])


def nearest_resize(img: np.ndarray, out_hw: Tuple[int, int]) -> np.ndarray:
    h, w = img.shape
    oh, ow = out_hw
    ys = np.minimum(((np.arange(oh) + 0.5) * h / oh).astype(int), h - 1)
    xs = np.minimum(((np.arange(ow) + 0.5) * w / ow).astype(int), w - 1)
    return img.astype(np.float64)[np.ix_(ys, xs)]


def gradcam(net: Network, x: np.ndarray, class_index: int, conv_layer: int,
            upsample: str = "bilinear") -> Heatmap:
    """Class-discriminative localization map for one input.

    x may be (frames, bins), (1, frames, bins) or (1, 1, frames, bins).
    """
    x = np.asarray(x, dtype=np.float64)
    while x.ndim < 4:
        x = x[None]
    if x.shape[0] != 1:
        raise ShapeError("gradcam expects a single input")
    n_classes = net.arch.n_classes
    if not (0 <= class_index < n_classes):
        raise ValueError(f"class index {class_index} outside [0, {n_classes})")
    logits, tapped = net.forward(x, taps=(conv_layer,))
    fmap = tapped[conv_layer][0]              # (c, h, w)
    dlogits = np.zeros_like(logits)
    dlogits[0, class_index] = 1.0
    grads = net.backward(dlogits, tap_grad_out=(conv_layer,))
    dmap = grads[conv_layer][0]               # (c, h, w)
    alpha = dmap.mean(axis=(1, 2))
    cam = np.maximum((alpha[:, None, None] * fmap).sum(axis=0), 0.0)
    resize = bilinear_resize if upsample == "bilinear" else nearest_resize
    cam = np.maximum(resize(cam, x.shape[2:]), 0.0)
    peak = cam.max()
    if peak > 0:
        cam = cam / peak
    return Heatmap(values=cam, class_index=class_index, layer=conv_layer)


# ---------------------------------------------------------------------------
# PGM rendering
# ---------------------------------------------------------------------------

def write_pgm(path, values01: np.ndarray) -> None:
    """Binary PGM (P5), 8-bit, from values in [0, 1]."""
    v = np.clip(np.asarray(values01, dtype=np.float64), 0.0, 1.0)
    data = np.rint(v * 255.0).astype(np.uint8)
    h, w = data.shape
    with atomic_open(path) as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM back to values in [0, 1]. A malformed file
    raises ValueError."""
    buf = Path(path).read_bytes()
    if not buf.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(buf[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if not 0 < maxval < 256:
        raise ValueError(f"{path}: maxval {maxval} outside 1..255")
    data = np.frombuffer(buf[pos:pos + w * h], dtype=np.uint8)
    if data.size != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    if data.max(initial=0) > maxval:
        raise ValueError(f"{path}: pixel value above maxval {maxval}")
    return data.reshape(h, w).astype(np.float64) / maxval


def _to_unit(spectrogram: np.ndarray) -> np.ndarray:
    s = np.asarray(spectrogram, dtype=np.float64)
    lo, hi = s.min(), s.max()
    return (s - lo) / (hi - lo) if hi > lo else np.zeros_like(s)


def render(heatmap: Heatmap, spectrogram: np.ndarray, out_prefix,
           dump_csv: bool = False) -> Dict[str, Path]:
    """Write spectrogram, heatmap and overlay PGMs (plus an optional CSV of
    raw heatmap values).

    The overlay keeps the plain spectrogram rendering wherever the heatmap is
    zero and pushes activated pixels into the upper intensity band (128..255),
    so a zero heatmap reproduces the spectrogram image exactly.
    """
    spec = np.asarray(spectrogram, dtype=np.float64)
    if spec.shape != heatmap.values.shape:
        raise ShapeError(f"heatmap {heatmap.values.shape} does not match "
                         f"spectrogram {spec.shape}")
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    spec_u = _to_unit(spec)
    spec8 = np.rint(spec_u * 255.0).astype(np.uint8)
    heat8 = np.rint(np.clip(heatmap.values, 0, 1) * 255.0).astype(np.uint8)
    band = np.rint(128.0 + np.clip(heatmap.values, 0, 1) * 127.0).astype(np.uint8)
    overlay8 = np.where(heatmap.values > 0, np.maximum(spec8, band), spec8)
    paths = {"spectrogram": out_prefix.with_suffix(".spec.pgm"),
             "heatmap": out_prefix.with_suffix(".heat.pgm"),
             "overlay": out_prefix.with_suffix(".overlay.pgm")}
    write_pgm(paths["spectrogram"], spec8 / 255.0)
    write_pgm(paths["heatmap"], heat8 / 255.0)
    write_pgm(paths["overlay"], overlay8 / 255.0)
    if dump_csv:
        csv_path = out_prefix.with_suffix(".heat.csv")
        with atomic_open(csv_path, "w") as f:
            np.savetxt(f, heatmap.values, delimiter=",", fmt="%.8g")
        paths["csv"] = csv_path
    return paths

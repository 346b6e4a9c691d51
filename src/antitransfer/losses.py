"""Anti-transfer loss: channel aggregation, the squared-cosine similarity,
the cross-entropy, and the training-time memory estimator. The two terms are
combined into the training objective by `training.batch_objective`.

The anti-transfer term of one conv layer compares the layer's feature map in
the network being trained against the same layer of a frozen network that was
pre-trained on an orthogonal task. Feature maps are aggregated per sample
(channel-wise Gram matrix by default, or the channel mean or max), compared by
squared cosine, averaged over the batch and scaled by beta.
The term's sign is an argument: +1 penalizes similarity (anti-transfer),
-1 encourages it (the `at_inverse` strategy). Gradients flow into the
trained network only; the pre-trained side is a constant.

The term has two pieces, which `at_loss_and_grad` composes:
`aggregate_with_pullback` takes a map's per-sample aggregates and the
pullback from their gradient to the map's, and `at_term` takes the batch's
value and its gradient with respect to the aggregates. A training step runs
the first inside the network's blocks of samples, while a block's map is in
cache, and the second once per batch (`training.batch_objective`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .layers import ShapeError
from .network import ArchConfig, conv_feature_shapes

AGGREGATIONS = ("gram", "mean", "max")
# the aggregations whose pullback reads the feature map again
# (`aggregate_with_pullback`)
MAP_PULLBACKS = ("gram",)

DEGENERATE_NORM = 1e-12  # below this a Gram/aggregate is treated as all-zero


@dataclass(frozen=True)
class ATConfig:
    """Which conv layers get the anti-transfer term, and how it is computed."""

    layers: Tuple[int, ...] = (1,)
    beta: float = 1.0
    aggregation: str = "gram"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(int(k) for k in self.layers))
        if not self.layers or min(self.layers) < 1:
            raise ValueError("at layers must name at least one conv layer, "
                             f"numbered from 1; got {list(self.layers)}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be a finite number >= 0, got {self.beta} "
                             "(the at_inverse strategy flips the sign)")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def gram(feature: np.ndarray) -> np.ndarray:
    """Per-sample channel Gram matrix: G[i, j] = <vec(F_i), vec(F_j)>.

    feature is (batch, channels, x, y); result is (batch, channels, channels),
    reducing (c, x, y) to (c, c).
    """
    if feature.ndim != 4:
        raise ShapeError(f"expected (batch, c, x, y), got {feature.shape}")
    b, c, x, y = feature.shape
    if c < 1:
        raise ShapeError("feature map needs at least one channel")
    if x * y == 0:
        raise ShapeError("feature map has empty spatial extent")
    flat = feature.reshape(b, c, x * y)
    return flat @ flat.transpose(0, 2, 1)


def aggregate(feature: np.ndarray, kind: str) -> np.ndarray:
    """Per-sample channel reduction of a (batch, c, x, y) map.

    gram returns (batch, c, c) channel Gram matrices; mean and max reduce
    pixel-wise over channels to a (batch, x, y) map.
    """
    if feature.ndim != 4:
        raise ShapeError(f"expected (batch, c, x, y), got {feature.shape}")
    if kind == "mean":
        return feature.mean(axis=1)
    if kind == "max":
        return feature.max(axis=1)
    if kind == "gram":
        return gram(feature)
    raise ValueError(f"unknown aggregation {kind!r}")


def aggregate_with_pullback(feature: np.ndarray, kind: str):
    """Returns (aggregate(feature, kind), pullback) where pullback(grad,
    fmap) maps dL/d(aggregated) back to dL/d(feature), in the feature's
    dtype. Each sample's rows depend on that sample alone, so a map can be
    aggregated and pulled back in blocks of samples with the bytes of one
    call. The gram pullback holds nothing: it reads `fmap`, the feature
    map's bytes handed to it again (`MAP_PULLBACKS`), which a `Network`
    either kept since the forward or rebuilds in the backward. The max
    pullback holds the map's channel argmax (one index per pixel, taken
    here) and the mean pullback nothing; neither reads `fmap`, which may
    be None."""
    out = aggregate(feature, kind)
    b, c, x, y = feature.shape
    dtype = feature.dtype
    if kind == "gram":
        def pullback(dg, fmap):
            m = dg + dg.transpose(0, 2, 1)
            return (m @ fmap.reshape(b, c, x * y)).reshape(b, c, x, y).astype(
                dtype, copy=False)
    elif kind == "mean":
        def pullback(da, fmap):
            return np.repeat(da[:, None] / c, c, axis=1).astype(dtype,
                                                                copy=False)
    else:  # max
        idx = feature.argmax(axis=1)[:, None]

        def pullback(da, fmap):
            df = np.zeros((b, c, x, y), dtype=dtype)
            np.put_along_axis(df, idx, da[:, None], axis=1)
            return df
    return out, pullback


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------

def similarity(v: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row squared cosine of (batch, m) arrays, and its gradient w.r.t. v.

    Each value is in [0, 1]. A row whose norm is below 1e-12 is treated as
    maximally dissimilar (0, zero gradient) rather than dividing by ~0.
    """
    if v.shape != w.shape:
        raise ShapeError(f"shape mismatch {v.shape} vs {w.shape}")
    nv = np.linalg.norm(v, axis=1)
    nw = np.linalg.norm(w, axis=1)
    ok = (nv >= DEGENERATE_NORM) & (nw >= DEGENERATE_NORM)
    nv_safe = np.where(ok, nv, 1.0)
    nw_safe = np.where(ok, nw, 1.0)
    dot = np.einsum("bm,bm->b", v, w)
    cos = np.where(ok, dot / (nv_safe * nw_safe), 0.0)
    sim = cos * cos
    dv = 2.0 * cos[:, None] * (w / (nv_safe * nw_safe)[:, None]
                               - cos[:, None] * v / (nv_safe ** 2)[:, None])
    dv *= ok[:, None]
    return sim, dv


# ---------------------------------------------------------------------------
# Anti-transfer loss
# ---------------------------------------------------------------------------

def at_term(agg_trained: Optional[np.ndarray], agg_pretrained: np.ndarray,
            config: ATConfig, sign: float = 1.0, with_grad: bool = True
            ) -> Tuple[float, Optional[np.ndarray]]:
    """Single-layer anti-transfer term of a batch, from its per-sample
    aggregates, and its gradient w.r.t. the trained aggregates.

    agg_pretrained is aggregate(pretrained_map, config.aggregation): the
    frozen side is a constant of the run, so callers aggregate it once. The
    trained aggregates are compared with it by squared cosine, averaged over
    the batch and scaled by sign * beta: sign +1 penalizes similarity, -1
    encourages it. No gradient exists for the pretrained side.
    beta == 0 short-circuits to (0.0, None) before either aggregate is read
    (agg_trained may then be None), so a zero-weight run is arithmetically
    identical to not having the term at all. With `with_grad` false the
    gradient is None and not computed; the value is the same.
    """
    if config.beta == 0.0:
        return 0.0, None
    if agg_trained.shape != agg_pretrained.shape:
        raise ShapeError(
            f"aggregated maps disagree: {agg_trained.shape} vs "
            f"{agg_pretrained.shape} (architectures are incompatible at this "
            "layer)")
    b = agg_trained.shape[0]
    sims, dv = similarity(agg_trained.reshape(b, -1),
                          agg_pretrained.reshape(b, -1))
    loss = sign * config.beta * float(np.mean(sims))
    if not with_grad:
        return loss, None
    return loss, (sign * config.beta / b) * dv.reshape(agg_trained.shape)


def at_loss_and_grad(trained: np.ndarray, agg_pretrained: np.ndarray,
                     config: ATConfig, sign: float = 1.0, with_grad: bool = True
                     ) -> Tuple[float, Optional[np.ndarray]]:
    """Single-layer anti-transfer term and its gradient w.r.t. the trained
    map: `at_term` of the map's `aggregate_with_pullback`, and the pullback
    of its gradient. Arguments and results are those of `at_term`, with the
    trained map in place of its aggregates; the gradient has the map's
    shape and dtype. The trainer runs the same two pieces, the aggregation
    and pullback in the network's blocks of samples."""
    agg_t, pullback = aggregate_with_pullback(trained, config.aggregation)
    loss, dagg = at_term(agg_t, agg_pretrained, config, sign, with_grad)
    return loss, None if dagg is None else pullback(dagg, trained)


# ---------------------------------------------------------------------------
# Classification objective
# ---------------------------------------------------------------------------

def cross_entropy_and_grad(scores: np.ndarray, labels: np.ndarray
                           ) -> Tuple[float, np.ndarray]:
    """Batch-mean softmax cross-entropy from raw class scores."""
    if scores.ndim != 2:
        raise ShapeError(f"scores must be (batch, classes), got {scores.shape}")
    n = scores.shape[1]
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != scores.shape[0]:
        raise ShapeError("labels must be one id per row of scores")
    if np.any(labels < 0) or np.any(labels >= n):
        raise ValueError(f"label out of range [0, {n})")
    b = scores.shape[0]
    z = scores - scores.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    logp = z[np.arange(b), labels] - logsum
    loss = float(-logp.mean())
    probs = np.exp(z - logsum[:, None])
    grad = probs
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return loss, grad.astype(scores.dtype)


# ---------------------------------------------------------------------------
# Memory estimator
# ---------------------------------------------------------------------------

@dataclass
class MemoryEstimate:
    """Exact byte arithmetic for the extra training-time memory an
    anti-transfer extractor costs: extractor weights plus, for each chosen
    layer, two Gram matrices and two feature maps."""

    extractor_bytes: int
    per_layer: Dict[int, Dict[str, int]]  # k -> {gram_elems, feature_elems}
    bytes_per_number: int

    def layer_bytes(self, k: int) -> int:
        """Layer k's two Gram matrices and two feature maps."""
        d = self.per_layer[k]
        return 2 * (d["gram_elems"] + d["feature_elems"]) * self.bytes_per_number

    @property
    def total_bytes(self) -> int:
        return self.extractor_bytes + sum(map(self.layer_bytes, self.per_layer))

    def to_dict(self) -> dict:
        return {"extractor_bytes": self.extractor_bytes,
                "per_layer": {str(k): dict(v) for k, v in self.per_layer.items()},
                "bytes_per_number": self.bytes_per_number,
                "total_bytes": self.total_bytes,
                "total_megabytes": self.total_bytes / 2 ** 20}


def estimate_memory(arch: ArchConfig, batch_size: int, at_layers: Sequence[int],
                    bytes_per_number: int = 4) -> MemoryEstimate:
    """Extra memory for anti-transfer training with this extractor.

    extractor_bytes counts the conv-stack parameters; each selected layer adds
    2 * (batch * channels^2 + batch * channels * x * y) numbers (Gram matrix
    and feature map, for both the trained and the pre-trained network).
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if bytes_per_number < 1:
        raise ValueError(f"bytes per number must be >= 1, got {bytes_per_number}")
    shapes = conv_feature_shapes(arch)
    for k in at_layers:
        if not (1 <= k <= len(shapes)):
            raise ValueError(f"at layer {k} outside 1..{len(shapes)}")
    e_t = 0
    in_ch = arch.input_shape[0]
    for spec in arch.layers:
        if spec.kind == "conv2d":
            e_t += spec.channels * in_ch * spec.kernel * spec.kernel + spec.channels
            in_ch = spec.channels
    per_layer = {}
    for k in sorted(set(int(k) for k in at_layers)):
        c, x, y = shapes[k - 1]
        per_layer[k] = {"gram_elems": batch_size * c * c,
                        "feature_elems": batch_size * c * x * y}
    return MemoryEstimate(extractor_bytes=e_t * bytes_per_number,
                          per_layer=per_layer,
                          bytes_per_number=bytes_per_number)

"""ATCK container: versioned, named-tensor serialization for checkpoints and
dataset tensors.

Layout (little-endian throughout):

    magic 'ATCK' | version u32 | meta_len u32 | meta JSON (utf-8)
    | tensor_count u32
    | per tensor: name_len u32 | name utf-8 | dtype tag u8 | rank u8
                  | extents u64 * rank | raw values

dtype tags: 1 = float32, 2 = float64. Meta JSON is written with sorted keys
and compact separators, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .network import ArchConfig, Network, build

MAGIC = b"ATCK"
FORMAT_VERSION = 1
# The dtypes a network trains and is saved in, in tag order. float16 goes
# non-finite in the first batch; integer types cannot train.
DTYPES = ("float32", "float64")
_DTYPE_TAGS = {np.dtype(name): tag for tag, name in enumerate(DTYPES, 1)}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


class CheckpointError(Exception):
    """Base class for container problems."""


class CorruptFileError(CheckpointError):
    """File is truncated, has a bad magic, or fails internal validation."""


class VersionMismatchError(CheckpointError):
    """Container was written by an incompatible format version."""


class FingerprintMismatchError(CheckpointError):
    """Conv-stack fingerprints disagree where compatibility is required."""


@contextmanager
def atomic_open(path, mode: str = "wb"):
    """Write to a temporary file beside `path` that replaces it when the
    block ends, or is removed if the block or the replace raises: `path` is
    never left half-written. Text is written as given, without newline
    translation (what `csv` expects)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    """Write `payload` as indented JSON with sorted keys, atomically."""
    with atomic_open(path, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_container(path, meta: dict, tensors: Dict[str, np.ndarray]) -> None:
    """Write an ATCK container atomically (see `atomic_open`)."""
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    with atomic_open(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(meta_blob)))
        f.write(meta_blob)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name])
            if arr.dtype not in _DTYPE_TAGS:
                arr = arr.astype(np.float64)
            blob = name.encode()
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<BB", _DTYPE_TAGS[arr.dtype], arr.ndim))
            for extent in arr.shape:
                f.write(struct.pack("<Q", extent))
            f.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def _take(buf: bytes, offset: int, count: int) -> Tuple[bytes, int]:
    if offset + count > len(buf):
        raise CorruptFileError("container is truncated")
    return buf[offset:offset + count], offset + count


def read_container(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """(meta, name -> tensor) of an ATCK container. A malformed container
    raises a CheckpointError."""
    buf = Path(path).read_bytes()
    chunk, off = _take(buf, 0, 4)
    if chunk != MAGIC:
        raise CorruptFileError(f"{path}: not an ATCK container")
    chunk, off = _take(buf, off, 4)
    version = struct.unpack("<I", chunk)[0]
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}")
    chunk, off = _take(buf, off, 4)
    meta_len = struct.unpack("<I", chunk)[0]
    chunk, off = _take(buf, off, meta_len)
    try:
        meta = json.loads(chunk.decode())
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON
        raise CorruptFileError(f"{path}: bad meta JSON: {e}") from e
    chunk, off = _take(buf, off, 4)
    count = struct.unpack("<I", chunk)[0]
    tensors: Dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            chunk, off = _take(buf, off, 4)
            name_len = struct.unpack("<I", chunk)[0]
            chunk, off = _take(buf, off, name_len)
            name = chunk.decode()
            chunk, off = _take(buf, off, 2)
            tag, rank = struct.unpack("<BB", chunk)
            if tag not in _TAG_DTYPES:
                raise CorruptFileError(f"{path}: unknown dtype tag {tag}")
            shape = []
            for _ in range(rank):
                chunk, off = _take(buf, off, 8)
                shape.append(struct.unpack("<Q", chunk)[0])
            dtype = _TAG_DTYPES[tag].newbyteorder("<")
            chunk, off = _take(buf, off, math.prod(shape) * dtype.itemsize)
            tensors[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).astype(
                _TAG_DTYPES[tag])
    except ValueError as e:  # a name that is not UTF-8, an absurd empty shape
        raise CorruptFileError(f"{path}: bad tensor entry: {e}") from e
    if off != len(buf):
        raise CorruptFileError(f"{path}: {len(buf) - off} trailing bytes")
    return meta, tensors


# ---------------------------------------------------------------------------
# Network checkpoints
# ---------------------------------------------------------------------------

def save(net: Network, path, provenance: Optional[dict] = None) -> None:
    """Write a network checkpoint: architecture, provenance, fingerprints and
    every named weight tensor at its native precision."""
    meta = {"kind": "checkpoint",
            "arch": net.arch.to_dict(),
            "dtype": net.dtype.name,
            "conv_fingerprints": net.arch.conv_fingerprints(),
            "provenance": provenance or {}}
    write_container(path, meta, net.params)


def load(path) -> Network:
    """Rebuild a network from a checkpoint; verifies stored fingerprints and
    tensor names and shapes against the stored architecture. Any problem
    with the file raises a CheckpointError."""
    meta, tensors = read_container(path)
    if not isinstance(meta, dict) or meta.get("kind") != "checkpoint":
        raise CorruptFileError(f"{path}: container is not a checkpoint")
    dtype = meta.get("dtype", "float64")
    if dtype not in DTYPES:
        raise CorruptFileError(f"{path}: unsupported dtype {dtype!r}")
    try:
        arch = ArchConfig(**meta["arch"])
        if meta.get("conv_fingerprints") != arch.conv_fingerprints():
            raise FingerprintMismatchError(f"{path}: stored conv fingerprints "
                                           "do not match the stored architecture")
        net = build(arch, seed=0, dtype=dtype)
        if set(net.params) != set(tensors):
            raise ValueError("tensor names do not match the architecture")
        net.load_params(tensors)
        net.provenance = dict(meta.get("provenance", {}))
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptFileError(f"{path}: bad checkpoint: {e!r}") from e
    return net


def check_conv_compatible(a: ArchConfig, b: ArchConfig, up_to: int,
                          context: str = "") -> None:
    """Raise unless the two conv stacks agree on layers 1..up_to."""
    fa = a.conv_fingerprints()
    fb = b.conv_fingerprints()
    if up_to > len(fa) or up_to > len(fb) or fa[:up_to] != fb[:up_to]:
        raise FingerprintMismatchError(
            f"{context or 'networks'}: conv stacks differ within layers 1..{up_to}")


def init_from(target: Network, source: Network,
              freeze_up_to: Optional[int] = None) -> Network:
    """Copy every conv layer's weights from source into target (the classifier
    head keeps its fresh initialization) and optionally freeze the prefix.

    freeze_up_to = k marks conv layers 1..k non-trainable; None leaves all
    layers trainable (plain weight-initialization transfer).
    """
    k = target.arch.conv_count
    check_conv_compatible(target.arch, source.arch, k, context="init_from")
    target.load_params({n: source.params[n] for n in target.params
                        if n.startswith("conv")})
    if freeze_up_to is not None:
        target.freeze_convs(freeze_up_to)
    return target

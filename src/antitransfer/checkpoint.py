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
import os
import struct
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .network import ArchConfig, Network, build

MAGIC = b"ATCK"
FORMAT_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


class CheckpointError(Exception):
    """Base class for container problems."""


class CorruptFileError(CheckpointError):
    """File is truncated, has a bad magic, or fails internal validation."""


class VersionMismatchError(CheckpointError):
    """Container was written by an incompatible format version."""


class FingerprintMismatchError(CheckpointError):
    """Conv-stack fingerprints disagree where compatibility is required."""


def write_container(path, meta: dict, tensors: Dict[str, np.ndarray]) -> None:
    """Write an ATCK container. The bytes go to a temporary file beside
    `path` that then replaces it, so a crash mid-write leaves the previous
    file intact."""
    path = Path(path)
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
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
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _take(buf: bytes, offset: int, count: int) -> Tuple[bytes, int]:
    if offset + count > len(buf):
        raise CorruptFileError("container is truncated")
    return buf[offset:offset + count], offset + count


def read_container(path) -> Tuple[dict, Dict[str, np.ndarray]]:
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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptFileError(f"{path}: bad meta JSON: {e}") from e
    chunk, off = _take(buf, off, 4)
    count = struct.unpack("<I", chunk)[0]
    tensors: Dict[str, np.ndarray] = {}
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
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        chunk, off = _take(buf, off, nbytes)
        tensors[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).astype(
            _TAG_DTYPES[tag])
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
    write_container(path, meta, net.named_params())


def load(path) -> Network:
    """Rebuild a network from a checkpoint; verifies stored fingerprints and
    tensor shapes against the stored architecture."""
    meta, tensors = read_container(path)
    if meta.get("kind") != "checkpoint":
        raise CorruptFileError(f"{path}: container is not a checkpoint "
                               f"(kind={meta.get('kind')!r})")
    arch = ArchConfig.from_dict(meta["arch"])
    if meta.get("conv_fingerprints") != arch.conv_fingerprints():
        raise FingerprintMismatchError(
            f"{path}: stored conv fingerprints do not match the stored architecture")
    net = build(arch, seed=0, dtype=np.dtype(meta.get("dtype", "float64")))
    expected = net.named_params()
    if set(expected) != set(tensors):
        raise CorruptFileError(f"{path}: tensor names do not match the architecture")
    for name, arr in tensors.items():
        net.set_param(name, arr)
    net.provenance = dict(meta.get("provenance", {}))
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
    src_convs = source.conv_layers()
    for i, conv in enumerate(target.conv_layers()):
        conv.W = src_convs[i].W.astype(target.dtype).copy()
        conv.b = src_convs[i].b.astype(target.dtype).copy()
    if freeze_up_to is not None:
        target.freeze_convs(freeze_up_to)
    return target

"""Dataset plumbing shared by the audio pipeline and the synthetic generator:
manifest CSVs, per-sample tensor containers, split policies and an in-memory
dataset the trainer consumes.

A manifest is a CSV with header `path,target_label,orth_label_1[,orth_label_2]`;
paths are resolved relative to the manifest's directory and point to ATCK
containers holding one `data` tensor of shape (frames, bins).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .checkpoint import atomic_open, read_container, write_container

MANIFEST_NAMES = {"train": "train_manifest.csv",
                  "val": "val_manifest.csv",
                  "test": "test_manifest.csv"}


@dataclass
class ManifestRow:
    path: str
    target_label: str
    orth_labels: Tuple[str, ...]


def write_sample(path, values: np.ndarray) -> None:
    write_container(path, {"kind": "spectrogram"},
                    {"data": np.asarray(values, dtype=np.float32)})


def read_sample(path) -> np.ndarray:
    meta, tensors = read_container(path)
    if "data" not in tensors:
        raise ValueError(f"{path}: no 'data' tensor")
    return tensors["data"]


def write_manifest(path, rows: Sequence[ManifestRow]) -> None:
    n_orth = max((len(r.orth_labels) for r in rows), default=1)
    header = ["path", "target_label"] + [f"orth_label_{i + 1}" for i in range(n_orth)]
    with atomic_open(path, "w") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow([r.path, r.target_label, *r.orth_labels])


def read_manifest(path) -> List[ManifestRow]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or header[0] != "path" or header[1] != "target_label":
            raise ValueError(f"{path}: not a dataset manifest "
                             "(expected header path,target_label,orth_label_1[,...])")
        for rec in reader:
            if not rec:
                continue
            rows.append(ManifestRow(path=rec[0], target_label=rec[1],
                                    orth_labels=tuple(x for x in rec[2:] if x != "")))
    return rows


# ---------------------------------------------------------------------------
# In-memory dataset
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Tensors plus integer labels; vocabularies map label strings to ids."""

    x: np.ndarray                        # (n, 1, frames, bins) float32
    target_ids: np.ndarray               # (n,) int64
    orth_ids: np.ndarray                  # (n, n_orth) int64, -1 where absent
    target_vocab: List[str]
    orth_vocab: List[str]

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.target_vocab)

    def labels_for(self, label_field: str) -> np.ndarray:
        """target | orth1 | orth2 as the training label."""
        if label_field == "target":
            return self.target_ids
        if label_field in ("orth1", "orth2"):
            col = int(label_field[-1]) - 1
            if col >= self.orth_ids.shape[1] or np.any(self.orth_ids[:, col] < 0):
                raise ValueError(f"dataset has no complete {label_field} labels")
            return self.orth_ids[:, col]
        raise ValueError(f"unknown label field {label_field!r}")

    def classes_for(self, label_field: str) -> int:
        """Class count of `labels_for(label_field)`, whose ValueError it
        raises. Both orth columns index the one `orth_vocab`."""
        self.labels_for(label_field)
        return len(self.target_vocab if label_field == "target" else self.orth_vocab)


def _vocab(labels: Sequence[str]) -> List[str]:
    return sorted(set(labels))


def load_dataset(manifest_path, target_vocab: Optional[List[str]] = None,
                 orth_vocab: Optional[List[str]] = None) -> Dataset:
    """Load every sample a manifest names. Vocabularies default to the sorted
    label sets of this manifest; pass the training split's vocabularies when
    loading val/test so ids line up."""
    manifest_path = Path(manifest_path)
    rows = read_manifest(manifest_path)
    if not rows:
        raise ValueError(f"{manifest_path}: empty manifest")
    base = manifest_path.parent
    arrays = [read_sample(base / r.path) for r in rows]
    shape = arrays[0].shape
    for r, a in zip(rows, arrays):
        if a.shape != shape:
            raise ValueError(f"{r.path}: shape {a.shape} != {shape}")
    x = np.stack(arrays).astype(np.float32)[:, None]
    target_vocab = target_vocab or _vocab([r.target_label for r in rows])
    all_orth = [l for r in rows for l in r.orth_labels]
    orth_vocab = orth_vocab if orth_vocab is not None else _vocab(all_orth)
    t_idx = {l: i for i, l in enumerate(target_vocab)}
    o_idx = {l: i for i, l in enumerate(orth_vocab)}
    n_orth = max((len(r.orth_labels) for r in rows), default=0)
    orth_ids = np.full((len(rows), max(n_orth, 1)), -1, dtype=np.int64)
    try:
        target_ids = np.array([t_idx[r.target_label] for r in rows], dtype=np.int64)
        for i, r in enumerate(rows):
            for j, l in enumerate(r.orth_labels):
                orth_ids[i, j] = o_idx[l]
    except KeyError as e:
        raise ValueError(f"{manifest_path}: label {e.args[0]!r} is not in the "
                         "training split's vocabulary") from None
    return Dataset(x=x, target_ids=target_ids, orth_ids=orth_ids,
                   target_vocab=list(target_vocab), orth_vocab=list(orth_vocab))


def load_split_dir(directory) -> Dict[str, Dataset]:
    """Load train/val/test manifests from a directory, sharing the training
    split's vocabularies."""
    directory = Path(directory)
    train = load_dataset(directory / MANIFEST_NAMES["train"])
    out = {"train": train}
    for split in ("val", "test"):
        out[split] = load_dataset(directory / MANIFEST_NAMES[split],
                                  target_vocab=train.target_vocab,
                                  orth_vocab=train.orth_vocab)
    return out


# ---------------------------------------------------------------------------
# Split policies
# ---------------------------------------------------------------------------

DEFAULT_FRACTIONS = (0.7, 0.2, 0.1)


def _largest_remainder(total: int, fractions: Sequence[float]) -> List[int]:
    ideal = [total * f for f in fractions]
    base = [int(np.floor(v)) for v in ideal]
    short = total - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: ideal[i] - base[i],
                   reverse=True)
    for i in order[:short]:
        base[i] += 1
    return base


def split_random(target_labels: Sequence[str], seed: int,
                 fractions: Sequence[float] = DEFAULT_FRACTIONS
                 ) -> Tuple[List[int], List[int], List[int]]:
    """Stratified-by-target shuffle into train/val/test with exact global
    counts (largest-remainder rounding, then per-class balancing)."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    n = len(target_labels)
    rng = np.random.default_rng([int(seed), 0x5EED])
    targets = _largest_remainder(n, fractions)
    by_class: Dict[str, List[int]] = {}
    for i, lab in enumerate(target_labels):
        by_class.setdefault(lab, []).append(i)
    alloc: Dict[str, List[int]] = {}
    for lab in sorted(by_class):
        idx = np.array(by_class[lab])
        rng.shuffle(idx)
        by_class[lab] = list(idx)
        alloc[lab] = _largest_remainder(len(idx), fractions)
    # nudge per-class quotas until global counts are exact
    labels_desc = sorted(by_class, key=lambda l: (-len(by_class[l]), l))
    for _ in range(3 * n):
        sums = [sum(alloc[l][s] for l in alloc) for s in range(3)]
        if sums == targets:
            break
        over = max(range(3), key=lambda s: sums[s] - targets[s])
        under = min(range(3), key=lambda s: sums[s] - targets[s])
        for lab in labels_desc:
            if alloc[lab][over] > 0:
                alloc[lab][over] -= 1
                alloc[lab][under] += 1
                break
    splits: Tuple[List[int], List[int], List[int]] = ([], [], [])
    for lab in sorted(by_class):
        idx = by_class[lab]
        a, b, _ = alloc[lab]
        splits[0].extend(idx[:a])
        splits[1].extend(idx[a:a + b])
        splits[2].extend(idx[a + b:])
    return tuple(sorted(s) for s in splits)


def split_class_wise(orth_labels: Sequence[str], seed: int,
                     fractions: Sequence[float] = DEFAULT_FRACTIONS
                     ) -> Tuple[List[int], List[int], List[int]]:
    """Partition whole orthogonal classes into train/val/test, greedily
    packing by class size towards the target sample proportions. Every
    orthogonal class lands in exactly one split."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    by_class: Dict[str, List[int]] = {}
    for i, lab in enumerate(orth_labels):
        if lab is None or lab == "":
            raise ValueError("class-wise split requires an orthogonal label per sample")
        by_class.setdefault(lab, []).append(i)
    if len(by_class) < 3:
        raise ValueError(f"class-wise split needs >= 3 orthogonal classes, "
                         f"got {len(by_class)}")
    n = len(orth_labels)
    rng = np.random.default_rng([int(seed), 0xC1A5])
    classes = sorted(by_class)
    rng.shuffle(classes)
    classes.sort(key=lambda l: -len(by_class[l]))  # stable: keeps seeded tie order
    deficits = [n * f for f in fractions]
    assigned: List[List[str]] = [[], [], []]
    for lab in classes:
        s = max(range(3), key=lambda i: deficits[i])
        assigned[s].append(lab)
        deficits[s] -= len(by_class[lab])
    for s in range(3):
        if not assigned[s]:
            donor = max(range(3), key=lambda i: len(assigned[i]))
            assigned[s].append(assigned[donor].pop())
    splits: Tuple[List[int], List[int], List[int]] = ([], [], [])
    for s in range(3):
        for lab in assigned[s]:
            splits[s].extend(by_class[lab])
    return tuple(sorted(sp) for sp in splits)


def split_manifest(manifest_path, policy: str, seed: int, out_dir,
                   fractions: Sequence[float] = DEFAULT_FRACTIONS) -> Dict[str, Path]:
    """Materialize train/val/test manifests from one unsplit manifest."""
    manifest_path = Path(manifest_path)
    rows = read_manifest(manifest_path)
    if policy == "random":
        idx = split_random([r.target_label for r in rows], seed, fractions)
    elif policy == "class_wise":
        orth = [r.orth_labels[0] if r.orth_labels else "" for r in rows]
        idx = split_class_wise(orth, seed, fractions)
    else:
        raise ValueError(f"unknown split policy {policy!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = manifest_path.parent
    paths = {}
    for split, indices in zip(("train", "val", "test"), idx):
        out = out_dir / MANIFEST_NAMES[split]
        selected = []
        for i in indices:
            r = rows[i]
            rel = Path(r.path)
            if not rel.is_absolute():
                rel = (base / rel).resolve()
            selected.append(ManifestRow(path=str(rel), target_label=r.target_label,
                                        orth_labels=r.orth_labels))
        write_manifest(out, selected)
        paths[split] = out
    return paths

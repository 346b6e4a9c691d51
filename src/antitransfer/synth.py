"""Deterministic two-factor synthetic "spectrogram" generator.

Each image superimposes two independently learnable pattern families on a
(frames x bins) canvas plus Gaussian noise:

  * target class k  -> a stack of horizontal frequency bands at bin positions
    specific to k (constant over time);
  * orthogonal class m -> a vertical-spike texture at frame positions specific
    to m, plus a wrapped diagonal ramp with an m-dependent phase.

The orthogonal label is paired with the target label (m = k mod n_orth) with
probability rho, independently per sample, and drawn uniformly otherwise.
Train and validation use the train correlation; test uses its own (0 by
default), which is what makes the train-split pairing spurious.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .checkpoint import write_json
from .data import ManifestRow, MANIFEST_NAMES, write_manifest, write_sample


@dataclass(frozen=True)
class SynthSpec:
    n_target_classes: int = 4
    n_orth_classes: int = 4
    samples_per_split: Tuple[int, int, int] = (700, 200, 100)  # train/val/test
    train_correlation: float = 0.9
    test_correlation: float = 0.0
    image_size: Tuple[int, int] = (126, 129)  # frames x bins
    noise_sigma: float = 0.1
    target_amplitude: float = 0.8
    orth_amplitude: float = 1.2
    band_width: int = 2
    spike_width: int = 2
    band_fade: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # read back from JSON lists
        for name in ("samples_per_split", "image_size"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.n_target_classes < 2 or self.n_orth_classes < 2:
            raise ValueError("class counts must be >= 2")
        for rho in (self.train_correlation, self.test_correlation):
            if not (0.0 <= rho <= 1.0):
                raise ValueError("correlations must be in [0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if not (0.0 <= self.band_fade <= 1.0):
            raise ValueError("band_fade must be in [0, 1]")
        if min(self.image_size) < 8:
            raise ValueError("image size too small to render patterns")
        if any(n < 1 for n in self.samples_per_split):
            raise ValueError("each split needs at least one sample")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Pattern rendering
# ---------------------------------------------------------------------------

_BANDS_PER_CLASS = 2
_SPIKES_PER_CLASS = 3


def _bin_split(spec: SynthSpec) -> int:
    """Bands occupy bins below this index, spike textures the bins above it,
    so the two families touch disjoint pixels (like voice content vs noise
    spikes occupying different spectrogram regions)."""
    return spec.image_size[1] // 2


def _band_positions(spec: SynthSpec, k: int):
    half = _bin_split(spec)
    slots = spec.n_target_classes * _BANDS_PER_CLASS
    space = max(1, (half - 2) // slots)
    width = min(spec.band_width, space)
    span = max(half - 1 - width, 1)
    for j in range(_BANDS_PER_CLASS):
        b0 = 1 + ((k + j * spec.n_target_classes) * space) % span
        yield b0, min(b0 + width, half)


def _spike_positions(spec: SynthSpec, m: int):
    frames, _ = spec.image_size
    slots = spec.n_orth_classes * _SPIKES_PER_CLASS
    space = max(1, (frames - 2) // slots)
    width = min(spec.spike_width, space)
    span = max(frames - 1 - width, 1)
    for j in range(_SPIKES_PER_CLASS):
        f0 = 1 + ((m + j * spec.n_orth_classes) * space) % span
        yield f0, min(f0 + width, frames)


def _diagonal_path(spec: SynthSpec, m: int) -> np.ndarray:
    """bin index per frame of the wrapped diagonal ramp for orth class m;
    stays within the upper (spike) half of the bin axis."""
    frames, bins = spec.image_size
    half = _bin_split(spec)
    width = bins - half - 1
    t = np.arange(frames)
    phase = (m * width) // spec.n_orth_classes
    return half + 1 + (t * max(width - 1, 0) // max(frames - 1, 1) + phase) % max(width, 1)


def render(spec: SynthSpec, target_class: int, orth_class: int,
           target_scale: float = 1.0) -> np.ndarray:
    """Noise-free pattern image for one (target, orth) pair.

    target_scale attenuates the band stack for this sample; band_fade > 0
    draws it per sample so the target evidence is only partially informative,
    which is what makes the correlated orthogonal texture genuinely tempting
    for a classifier trained on paired data.
    """
    frames, bins = spec.image_size
    half = _bin_split(spec)
    img = np.zeros((frames, bins), dtype=np.float64)
    for b0, b1 in _band_positions(spec, target_class):
        img[:, b0:b1] += spec.target_amplitude * target_scale
    for f0, f1 in _spike_positions(spec, orth_class):
        img[f0:f1, half + 1:] += spec.orth_amplitude
    path = _diagonal_path(spec, orth_class)
    img[np.arange(frames), path] += 0.75 * spec.orth_amplitude
    return img


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_SPLIT_IDS = {"train": 1, "val": 2, "test": 3}


def _sample_split(spec: SynthSpec, split: str
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(images, target ids, orth ids) for one split."""
    count = dict(zip(("train", "val", "test"), spec.samples_per_split))[split]
    rho = spec.test_correlation if split == "test" else spec.train_correlation
    rng = np.random.default_rng([spec.seed, 0x57A7, _SPLIT_IDS[split]])
    frames, bins = spec.image_size
    images = np.empty((count, frames, bins), dtype=np.float64)
    targets = np.empty(count, dtype=np.int64)
    orths = np.empty(count, dtype=np.int64)
    for i in range(count):
        k = int(rng.integers(spec.n_target_classes))
        if rng.random() < rho:
            m = k % spec.n_orth_classes
        else:
            m = int(rng.integers(spec.n_orth_classes))
        scale = 1.0 - spec.band_fade * rng.random() if spec.band_fade > 0 else 1.0
        img = render(spec, k, m, target_scale=scale)
        if spec.noise_sigma > 0:
            img += rng.normal(0.0, spec.noise_sigma, size=img.shape)
        images[i] = img
        targets[i] = k
        orths[i] = m
    return images, targets, orths


def generate_arrays(spec: SynthSpec) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All three splits in memory; deterministic in spec.seed."""
    return {split: _sample_split(spec, split) for split in ("train", "val", "test")}


def generate(spec: SynthSpec, out_dir) -> Path:
    """Write the dataset in the repository's manifest + container layout:
    per-split manifest CSVs next to one ATCK container per sample."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = len(str(spec.n_target_classes - 1))
    owidth = len(str(spec.n_orth_classes - 1))
    for split, (images, targets, orths) in generate_arrays(spec).items():
        rows = []
        for i in range(len(images)):
            name = f"{split}_{i:05d}.atck"
            write_sample(out_dir / name, images[i].astype(np.float32))
            rows.append(ManifestRow(
                path=name,
                target_label=f"t{targets[i]:0{width}d}",
                orth_labels=(f"o{orths[i]:0{owidth}d}",)))
        write_manifest(out_dir / MANIFEST_NAMES[split], rows)
    write_json(out_dir / "synth_spec.json", spec.to_dict())
    return out_dir


def cramers_v(a: np.ndarray, b: np.ndarray) -> float:
    """Association between two label vectors (0 = independent, 1 = determined)."""
    a = np.asarray(a)
    b = np.asarray(b)
    ka = int(a.max()) + 1
    kb = int(b.max()) + 1
    table = np.zeros((ka, kb), dtype=np.float64)
    np.add.at(table, (a, b), 1.0)
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0).sum()
    denom = n * (min(ka, kb) - 1)
    return float(np.sqrt(chi2 / denom)) if denom > 0 else 0.0

"""The benchmark's workloads.

Each workload has a `setup(work_dir, seed, checks)` that generates every input
from the seed and returns a context, and a `run(ctx, out_dir)` that does one
measured repetition through the package's public API and returns a `Rep` and
the raw result. `check(rep, raw, first, checks)` verifies a repetition's
outputs, against the first repetition where they must repeat exactly. Only
the `Rep` is kept: a raw training result holds a network whose layers cache
their last activations.

Why these three (see README.md for the layers each stresses and bypasses):

* synth-at-32x37: the standard synthetic anti-transfer run. Feature maps are
  small, so per-call overhead (Python dispatch, Adam, the param/grad dict
  rebuild, finite checks, per-epoch validation) is a large share.
* paper-at-126x129: anti-transfer at conv 1 at the paper's spectrogram
  geometry, where conv and pool kernels and the Gram over the largest map
  dominate.
* audio-infer-126x129: WAV -> spectrogram -> batch-64 inference with a
  loaded checkpoint. Same kernels, forward only, no backward, Adam or
  anti-transfer term; the only workload that runs the audio module.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from antitransfer import audio, checkpoint, data, network, synth, training
from antitransfer.losses import ATConfig

N_CLASSES = 4
BATCH = 13
BAND_FADE = 1.0       # synth band fade of both training workloads
ORTH_EPOCHS = 2       # epochs of the orth1 extractor pretrain


class Checks:
    """Counts output checks; a failed one is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed: List[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


@dataclass
class Rep:
    """One measured repetition."""

    units: int                    # samples trained (x epochs) or clips classified
    seconds: float                # wall time of the measured call(s)
    epoch_seconds: List[float]    # per pass of the network over the data
    weights_sha256: str
    outputs: dict = field(default_factory=dict)   # must repeat exactly
    peak_rss_kb: int = 0          # process peak once this repetition ended


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Anti-transfer training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainWorkload:
    """Anti-transfer training on synthetic two-factor spectrograms.

    With `orth_pretrain` set, set-up pretrains the orth1 extractor on its own
    uncorrelated data for that many (train, val, test) samples; otherwise
    set-up saves a freshly initialised extractor. `setups` is the least
    number of set-ups a run times (see bench.run_workload).
    """

    name: str
    image_size: Tuple[int, int]
    samples: Tuple[int, int, int]
    epochs: int
    at_layer: int
    orth_pretrain: Optional[Tuple[int, int, int]] = None
    setups: int = 5

    def arch(self):
        return network.preset("vgg-tiny", self.image_size, N_CLASSES)

    def setup(self, work_dir: Path, seed: int, checks: Checks) -> dict:
        spec = synth.SynthSpec(samples_per_split=self.samples,
                               train_correlation=0.9, test_correlation=0.0,
                               image_size=self.image_size,
                               band_fade=BAND_FADE, seed=seed)
        splits = data.load_split_dir(synth.generate(spec, work_dir / "data"))
        for split, n in zip(("train", "val", "test"), self.samples):
            checks.expect(splits[split].x.shape == (n, 1, *self.image_size),
                          f"setup: {split} split shape")
        checks.expect(splits["train"].n_classes == N_CLASSES,
                      "setup: every target class in train")
        extractor = work_dir / "extractor.atck"
        if self.orth_pretrain:
            orth_spec = replace(spec, samples_per_split=self.orth_pretrain,
                                train_correlation=0.0, band_fade=0.0)
            orth = data.load_split_dir(synth.generate(orth_spec, work_dir / "orth"))
            cfg = training.TrainConfig(
                strategy="scratch", label_field="orth1", task_name="orth1",
                seed=seed, max_epochs=ORTH_EPOCHS,
                patience=ORTH_EPOCHS + 1, batch_size=BATCH)
            pre = training.train(cfg, orth, work_dir / "orth_model")
            checks.expect(all(math.isfinite(m.train_ce) and math.isfinite(m.val_ce)
                              for m in pre.metrics), "setup: pretrain losses finite")
            extractor = pre.checkpoint_path
        else:
            checkpoint.save(network.build(self.arch(), seed=seed, dtype=np.float32),
                            extractor, provenance={"task": "orth1", "seed": seed})
        return {"seed": seed, "data": splits, "extractor": str(extractor),
                "fingerprint": file_sha256(extractor)}

    def run(self, ctx: dict, out_dir: Path):
        cfg = training.TrainConfig(
            strategy="at", pretrained_checkpoints=(ctx["extractor"],),
            at=ATConfig(layers=(self.at_layer,), beta=1.0), seed=ctx["seed"],
            max_epochs=self.epochs, patience=self.epochs + 1, batch_size=BATCH)
        tic = time.perf_counter()
        result = training.train(cfg, ctx["data"], out_dir)
        seconds = time.perf_counter() - tic
        rep = Rep(units=len(ctx["data"]["train"]) * len(result.metrics),
                  seconds=seconds,
                  epoch_seconds=[m.seconds for m in result.metrics],
                  weights_sha256=file_sha256(result.checkpoint_path),
                  outputs={"val_ce_last": result.metrics[-1].val_ce,
                           "confusion": result.confusion.tolist()})
        return rep, result

    def check(self, rep: Rep, result, first: Rep, checks: Checks) -> None:
        checks.expect(len(result.metrics) == self.epochs, "epoch count")
        checks.expect(all(math.isfinite(v) for m in result.metrics
                          for v in (m.train_ce, m.val_ce, m.train_at, m.val_at)),
                      "losses finite")
        before = result.summary["extractor_hash_before"]
        checks.expect(before is not None
                      and before == result.summary["extractor_hash_after"],
                      "extractor_hash_before == extractor_hash_after")
        reloaded = checkpoint.load(result.checkpoint_path)
        checks.expect(reloaded.weight_hash() == result.network.weight_hash(),
                      "trained checkpoint reloads")
        checks.expect(int(result.confusion.sum()) == self.samples[2],
                      "confusion matrix sums to the test count")
        for key, value in rep.outputs.items():
            checks.expect(value == first.outputs[key],
                          f"{key} repeats across repetitions")
        checks.expect(rep.weights_sha256 == first.weights_sha256,
                      "weights_sha256 repeats across repetitions")


# ---------------------------------------------------------------------------
# Audio inference
# ---------------------------------------------------------------------------

SPEC_SHAPE = (126, 129)
RATE = 22050            # sample rate of the generated clips
CLIP_SECONDS = 1.0
CALIBRATION_CLIPS = 8   # clips the normalisation stats are computed from
EVAL_BATCH = 64


def synth_clip(rng: np.random.Generator, label: int, rate: int,
               seconds: float) -> np.ndarray:
    """A label-dependent harmonic tone with random pitch jitter plus noise."""
    t = np.arange(int(round(rate * seconds))) / rate
    f0 = 220.0 * (label + 1) * (1.0 + 0.02 * rng.standard_normal())
    x = sum(rng.uniform(0.1, 0.3) / h * np.sin(2 * np.pi * h * f0 * t
                                               + rng.uniform(0, 2 * np.pi))
            for h in (1, 2, 3))
    x = x + 0.02 * rng.standard_normal(len(t))
    return np.clip(x, -1.0, 1.0)


@dataclass(frozen=True)
class AudioWorkload:
    """Classify `clips` WAV clips with a checkpointed vgg-tiny.

    One repetition is checkpoint.load, then read_wav and preprocess_clip per
    clip, then normalisation with the checkpoint's stats, then
    training.evaluate at batch 64. The model is freshly initialised: the
    workload measures cost, and its predictions are checked for
    consistency, not accuracy.
    """

    name: str
    clips: int
    setups: int = 5

    def arch(self):
        return network.preset("vgg-tiny", SPEC_SHAPE, N_CLASSES)

    def setup(self, work_dir: Path, seed: int, checks: Checks) -> dict:
        rng = np.random.default_rng([seed, 0xA0D10])
        clip_dir = work_dir / "clips"
        clip_dir.mkdir(parents=True)
        labels = rng.integers(N_CLASSES, size=self.clips)
        paths = []
        for i, label in enumerate(labels):
            path = clip_dir / f"clip_{i:04d}.wav"
            samples = synth_clip(rng, int(label), RATE, CLIP_SECONDS)
            audio.write_wav(path, audio.AudioClip(samples, RATE))
            paths.append(path)
        calib = [audio.preprocess_clip(audio.AudioClip(
                     synth_clip(rng, int(rng.integers(N_CLASSES)), RATE,
                                CLIP_SECONDS), RATE))[0].values
                 for _ in range(CALIBRATION_CLIPS)]
        stats = audio.compute_norm_stats(calib)
        model = work_dir / "model.atck"
        checkpoint.save(network.build(self.arch(), seed=seed, dtype=np.float32),
                        model, provenance={"task": "target", "seed": seed,
                                           "norm_mean": stats.mean,
                                           "norm_std": stats.std})
        return {"paths": paths, "labels": labels, "model": model,
                "fingerprint": file_sha256(model)}

    def run(self, ctx: dict, out_dir: Path):
        tic = time.perf_counter()
        net = checkpoint.load(ctx["model"])
        stats = audio.NormStats(net.provenance["norm_mean"],
                                net.provenance["norm_std"])
        specs, segments = [], 0
        for path in ctx["paths"]:
            pieces = audio.preprocess_clip(audio.read_wav(path))
            segments += len(pieces)
            specs.append(pieces[0].values)  # a 1 s clip yields one piece
        shapes = {s.shape for s in specs}
        x = np.stack(audio.normalize(specs, stats)).astype(np.float32)[:, None]
        tic_eval = time.perf_counter()
        accuracy, confusion = training.evaluate(net, x, ctx["labels"],
                                                batch_size=EVAL_BATCH)
        end = time.perf_counter()
        rep = Rep(units=len(ctx["paths"]), seconds=end - tic,
                  epoch_seconds=[end - tic_eval],
                  weights_sha256=ctx["fingerprint"],
                  outputs={"confusion": confusion.tolist()})
        return rep, {"segments": segments, "shapes": shapes}

    def check(self, rep: Rep, raw: dict, first: Rep, checks: Checks) -> None:
        checks.expect(raw["segments"] == self.clips, "one segment per clip")
        checks.expect(raw["shapes"] == {SPEC_SHAPE}, "spectrograms are 126x129")
        checks.expect(sum(map(sum, rep.outputs["confusion"])) == self.clips,
                      "confusion matrix sums to the clip count")
        checks.expect(rep.outputs["confusion"] == first.outputs["confusion"],
                      "predictions repeat across repetitions")


WORKLOADS: Dict[str, object] = {w.name: w for w in (
    TrainWorkload("synth-at-32x37", image_size=(32, 37),
                  samples=(400, 100, 300), epochs=3, at_layer=2,
                  orth_pretrain=(130, 26, 26), setups=3),
    TrainWorkload("paper-at-126x129", image_size=SPEC_SHAPE,
                  samples=(39, 13, 13), epochs=2, at_layer=1),
    AudioWorkload("audio-infer-126x129", clips=64),
)}

# Smallest sizes that still run every code path; used by the self-test.
TINY: Dict[str, object] = {
    "synth-at-32x37": replace(WORKLOADS["synth-at-32x37"], image_size=(16, 17),
                              samples=(39, 13, 13), epochs=1,
                              orth_pretrain=(39, 13, 13), setups=1),
    "paper-at-126x129": replace(WORKLOADS["paper-at-126x129"],
                                samples=(26, 4, 4), epochs=1, setups=1),
    "audio-infer-126x129": replace(WORKLOADS["audio-infer-126x129"], clips=4,
                                   setups=1),
}

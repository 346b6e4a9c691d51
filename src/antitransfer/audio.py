"""Audio preprocessing pipeline: WAV ingestion, resampling to 16 kHz,
1 s segmentation, Hamming-window STFT magnitudes and dataset-level
normalization.

The geometry is the paper's and is fixed (module constants, no options):
1 s at 16 kHz with a 16 ms window (256 samples) and 50% overlap (hop 128)
yields a 126 x 129 spectrogram of linear magnitudes. Framing is centered
(the signal is zero-padded by half a window on both ends), so the frame count
is floor(N / hop) + 1.

Resampling is the only step that uses scipy: `resample` imports
`scipy.signal` on its first call, so `import antitransfer` loads numpy
alone (scipy.signal costs about 74 MB resident and most of a second).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

import numpy as np


@dataclass
class AudioClip:
    samples: np.ndarray            # mono, float64, nominally within [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("audio samples must be finite")


@dataclass
class Spectrogram:
    values: np.ndarray             # (frames, bins), nonnegative magnitudes
    sample_rate: int
    window: int
    hop: int


@dataclass
class NormStats:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError("normalization std must be > 0")


# ---------------------------------------------------------------------------
# WAV ingestion (PCM16 / PCM24 / float32; stereo is averaged to mono)
# ---------------------------------------------------------------------------

class WavFormatError(ValueError):
    """WAV file is malformed or uses an unsupported encoding."""


def read_wav(path) -> AudioClip:
    """Mono clip of a PCM16, PCM24 or float32 WAV file. A malformed or
    unsupported file raises WavFormatError."""
    buf = Path(path).read_bytes()
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")
    off = 12
    fmt = None
    data = None
    while off + 8 <= len(buf):
        cid = buf[off:off + 4]
        size = struct.unpack("<I", buf[off + 4:off + 8])[0]
        body = buf[off + 8:off + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        off += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise WavFormatError(f"{path}: fmt chunk of {len(fmt)} bytes, "
                             "need at least 16")
    audio_format, channels, rate = struct.unpack("<HHI", fmt[:8])
    bits = struct.unpack("<H", fmt[14:16])[0]
    if channels < 1 or rate < 1:
        raise WavFormatError(f"{path}: zero channels or sample rate")
    if audio_format == 1 and bits == 16:
        x = np.frombuffer(data[:len(data) - len(data) % 2],
                          dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == 1 and bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8)
        raw = raw[:len(raw) - len(raw) % 3].reshape(-1, 3)
        vals = (raw[:, 0].astype(np.int32)
                | raw[:, 1].astype(np.int32) << 8
                | raw[:, 2].astype(np.int32) << 16)
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        x = vals.astype(np.float64) / float(1 << 23)
    elif audio_format == 3 and bits == 32:
        x = np.frombuffer(data[:len(data) - len(data) % 4], dtype="<f4")
        if not np.all(np.isfinite(x)):
            raise WavFormatError(f"{path}: non-finite float samples")
        x = x.astype(np.float64)
    else:
        raise WavFormatError(
            f"{path}: unsupported encoding (format {audio_format}, {bits}-bit); "
            "only PCM16, PCM24 and float32 are handled")
    if channels > 1:
        x = x[:len(x) - len(x) % channels].reshape(-1, channels).mean(axis=1)
    return AudioClip(samples=x, sample_rate=rate)


def write_wav(path, clip: AudioClip, encoding: str = "pcm16") -> None:
    """Write a mono WAV; encodings: pcm16, pcm24, float32."""
    x = np.clip(clip.samples, -1.0, 1.0)
    if encoding == "pcm16":
        payload = (np.round(x * 32767.0).astype("<i2")).tobytes()
        audio_format, bits = 1, 16
    elif encoding == "pcm24":
        vals = np.round(x * float((1 << 23) - 1)).astype(np.int32)
        raw = np.empty((len(vals), 3), dtype=np.uint8)
        raw[:, 0] = vals & 0xFF
        raw[:, 1] = (vals >> 8) & 0xFF
        raw[:, 2] = (vals >> 16) & 0xFF
        payload = raw.tobytes()
        audio_format, bits = 1, 24
    elif encoding == "float32":
        payload = clip.samples.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    block = bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, 1, clip.sample_rate,
                      clip.sample_rate * block, block, bits)
    data_chunk = b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        data_chunk += b"\x00"
    fmt_chunk = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    riff = b"WAVE" + fmt_chunk + data_chunk
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(riff)) + riff)


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

TARGET_RATE = 16000   # Hz
SEGMENT_S = 1.0       # seconds per segment
WINDOW_S = 0.016      # seconds per STFT window
OVERLAP = 0.5         # fraction of a window shared with the next


@functools.lru_cache(maxsize=None)
def _lowpass(up: int, down: int) -> np.ndarray:
    """The anti-aliasing FIR filter `resample_poly` designs for coprime
    up/down with its default Kaiser window. Designed once per rate pair:
    for 22,050 -> 16,000 Hz it has 8,821 taps and took most of a clip's
    resampling time. resample_poly copies the array before scaling it; the
    cached one is read-only all the same. scipy.signal is imported here and
    in `resample`, on first use, not with the package."""
    from scipy.signal import firwin
    m = max(up, down)
    h = firwin(20 * m + 1, 1.0 / m, window=("kaiser", 5.0))
    h.setflags(write=False)
    return h


def resample(clip: AudioClip) -> AudioClip:
    """Polyphase (linear-phase) resample to TARGET_RATE; pass-through when
    already at rate. The first call that resamples imports scipy.signal."""
    if len(clip.samples) == 0:
        raise ValueError("cannot resample an empty clip")
    if clip.sample_rate == TARGET_RATE:
        return clip
    g = math.gcd(clip.sample_rate, TARGET_RATE)
    up, down = TARGET_RATE // g, clip.sample_rate // g
    from scipy.signal import resample_poly
    y = resample_poly(clip.samples, up, down, window=_lowpass(up, down))
    return AudioClip(samples=y, sample_rate=TARGET_RATE)


def segment_or_pad(clip: AudioClip) -> List[AudioClip]:
    """Cut into non-overlapping SEGMENT_S fragments; the final remainder (or
    a short clip) is right-padded with zeros."""
    n = int(round(SEGMENT_S * clip.sample_rate))
    x = clip.samples
    pieces = []
    if len(x) <= n:
        pieces.append(np.concatenate([x, np.zeros(n - len(x))]))
    else:
        for start in range(0, len(x), n):
            chunk = x[start:start + n]
            if len(chunk) < n:
                chunk = np.concatenate([chunk, np.zeros(n - len(chunk))])
            pieces.append(chunk)
    return [AudioClip(samples=p, sample_rate=clip.sample_rate) for p in pieces]


def hamming_periodic(n: int) -> np.ndarray:
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(clip: AudioClip) -> Spectrogram:
    """Hamming-windowed DFT magnitudes (linear), phase discarded, over
    WINDOW_S windows at the clip's own rate with OVERLAP.

    Centered framing: the signal is zero-padded by window//2 on both ends, so
    frames = floor(N / hop) + 1 and bins = window/2 + 1.
    """
    win = int(round(WINDOW_S * clip.sample_rate))
    hop = int(round(win * (1.0 - OVERLAP)))
    if hop < 1:
        raise ValueError(f"sample rate {clip.sample_rate} Hz is too low: a "
                         f"{WINDOW_S * 1000:g} ms window's hop rounds to zero "
                         "samples")
    x = clip.samples
    if len(x) < win:
        raise ValueError(f"clip ({len(x)} samples) shorter than one window ({win})")
    half = win // 2
    xp = np.concatenate([np.zeros(half), x, np.zeros(half)])
    n_frames = (len(xp) - win) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(xp, win)[::hop][:n_frames]
    mags = np.abs(np.fft.rfft(frames * hamming_periodic(win), axis=1))
    return Spectrogram(values=mags, sample_rate=clip.sample_rate,
                       window=win, hop=hop)


def compute_norm_stats(spectrograms: Sequence[np.ndarray]) -> NormStats:
    """Global mean/std over every value of the (training) split."""
    if not len(spectrograms):
        raise ValueError("no spectrograms to compute stats from")
    total = sum(int(np.asarray(s).size) for s in spectrograms)
    mean = sum(float(np.asarray(s, dtype=np.float64).sum()) for s in spectrograms) / total
    sq = sum(float(((np.asarray(s, dtype=np.float64) - mean) ** 2).sum())
             for s in spectrograms) / total
    std = math.sqrt(sq)
    if std < 1e-12:
        raise ValueError("training split is constant-valued (std = 0)")
    return NormStats(mean=mean, std=std)


def normalize(spectrograms: Sequence[np.ndarray], stats: NormStats
              ) -> List[np.ndarray]:
    """(v - mean) / std elementwise, using training-split stats for any split."""
    return [(np.asarray(s, dtype=np.float64) - stats.mean) / stats.std
            for s in spectrograms]


def preprocess_clip(clip: AudioClip) -> List[Spectrogram]:
    """resample -> segment/zero-pad -> STFT magnitude, for one clip.

    Normalization happens at the dataset level once training-split stats
    exist; see compute_norm_stats / normalize.
    """
    return [stft_magnitude(piece) for piece in segment_or_pad(resample(clip))]

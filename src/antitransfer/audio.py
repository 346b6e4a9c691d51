"""Audio preprocessing pipeline: WAV ingestion, resampling to 16 kHz,
1 s segmentation, Hamming-window STFT magnitudes and dataset-level
normalization.

The geometry is the paper's and is fixed (module constants, no options):
1 s at 16 kHz with a 16 ms window (256 samples) and 50% overlap (hop 128)
yields a 126 x 129 spectrogram of linear magnitudes. Framing is centered
(the signal is zero-padded by half a window on both ends), so the frame count
is floor(N / hop) + 1.

Resampling is numpy code that gives `scipy.signal.resample_poly`'s bytes:
its Kaiser-window FIR design (`firwin`, with scipy's `i0`) and its
polyphase sum in `upfirdn`'s order of adds. The package imports numpy
alone; scipy is only the tests' oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided


@dataclass
class AudioClip:
    samples: np.ndarray            # mono, float64, nominally within [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Integral):
            raise ValueError(f"sample_rate must be an integer number of Hz, "
                             f"got {rate!r}")
        if rate <= 0:
            raise ValueError("sample_rate must be positive")
        self.sample_rate = int(rate)
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


# Cephes' Chebyshev coefficients of exp(-x) I0(x) on [0, 8], the series
# scipy.special.i0 sums there
_I0_CHEBYSHEV = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17,
    -2.43127984654795469359e-16, 1.71539128555513303061e-15,
    -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12,
    -1.72682629144155570723e-11, 9.67580903537323691224e-11,
    -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8,
    -2.67079385394061173391e-7, 1.11738753912010371815e-6,
    -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4,
    -5.76375574538582365885e-4, 1.63947561694133579842e-3,
    -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2,
    -9.49010970480476444210e-2, 1.71620901522208775349e-1,
    -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)


def _i0(x: np.ndarray) -> np.ndarray:
    """Modified Bessel function of order 0 on [0, 8], evaluated as
    scipy.special.i0 does: libm's exp (`math.exp`) times the Chebyshev
    series. `np.i0` differs in the last bit where `np.exp` does."""
    y = x / 2.0 - 2.0
    b0, b1 = np.full_like(y, _I0_CHEBYSHEV[0]), np.zeros_like(y)
    for c in _I0_CHEBYSHEV[1:]:
        b0, b1, b2 = y * b0 - b1 + c, b0, b1
    return np.array([math.exp(v) for v in x.tolist()]) * (0.5 * (b0 - b2))


def _lowpass(up: int, down: int) -> np.ndarray:
    """The anti-aliasing filter `resample_poly` designs for coprime up/down:
    `firwin(20 * m + 1, 1 / m, window=("kaiser", 5.0))` with m = max(up,
    down), in firwin's arithmetic (for 22,050 -> 16,000 Hz, 8,821 taps)."""
    m = max(up, down)
    n = 20 * m + 1
    alpha = (n - 1) / 2.0
    t = np.arange(n, dtype=np.float64) - alpha
    h = 1.0 / m * np.sinc(1.0 / m * t)
    h *= (_i0(5.0 * np.sqrt(1 - (t / alpha) ** 2.0))
          / _i0(np.array([5.0]))[0])
    return h / np.sum(h)


@functools.lru_cache(maxsize=None)
def _polyphase(up: int, down: int):
    """`resample_poly`'s filter for coprime up/down in polyphase form.

    The input is laid out as rows of `down` samples, row `x_row` starting
    at x[0]. Kept output `cycle * up + phase` is the sum over i (oldest
    input first) of `coef[i, phase]` times the input in column
    `residue[i, phase]` of row `cycle + quotient[i, phase]`; `skip` is the
    number of leading outputs of the filtered signal `resample_poly` drops.
    The rows whose every tap is zero (resample_poly's zero padding: 1 of 29
    at 22,050 Hz, 2 of 58 at 44,100 Hz, 3 of 64 at 48,000 Hz) are left out:
    on finite input they add only signed zeros, which leave a sum that
    starts at +0.0 as it is.
    Returns (residue, quotient, coef[..., None], skip, x_row), read-only."""
    h = _lowpass(up, down)
    half = (len(h) - 1) // 2
    pad = down - half % down           # resample_poly's zeros before h
    g = np.zeros(-(-(pad + len(h)) // up) * up)
    g[pad:pad + len(h)] = h * up
    g = g.reshape(-1, up)[::-1]        # row i: taps of input len(g)-1-i back
    skip = (half + pad) // down
    # x index of the oldest input the first kept output reads; negative,
    # as the filter is centred
    lo = skip // up * down - (len(g) - 1)
    phase = np.arange(up)
    shift = np.arange(len(g))[:, None] + phase * down // up + lo % down
    coef = g[:, phase * down % up, None]
    live = coef.any(axis=(1, 2))
    coef = np.ascontiguousarray(coef[live])
    residue, quotient = shift[live] % down, shift[live] // down
    for a in (residue, quotient, coef):
        a.setflags(write=False)
    return residue, quotient, coef, skip, -(lo // down)


# Products per block of the polyphase sum (256 KiB of float64, so a block's
# temporaries stay in cache), and the output cycles a block spans at least:
# a block copies one run of cycles per (row, phase), and short runs cost
# more than their length.
_BLOCK = 1 << 15
_MIN_CYCLES = 128


def _resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """`scipy.signal.resample_poly(x, up, down)` for coprime up/down, byte
    for byte.

    upfirdn starts each output at +0.0 and adds input times tap from the
    oldest input to the newest; so does this sum, as one multiply and one
    add per row over a block of outputs. The input is laid out as `down`
    polyphase components, so the inputs one (row, phase) reads over a run
    of cycles are one contiguous slice: a block gathers those slices,
    scales each by its tap and adds the rows in order (numpy reduces the
    leading axis row by row). The zeros around x add only signed zeros,
    which leave a sum that starts at +0.0 as it is."""
    residue, quotient, coef, skip, x_row = _polyphase(up, down)
    rows = len(coef)
    n_out = -(-len(x) * up // down)
    first = skip // up                             # cycle of the first kept output
    cycles = -(-(skip + n_out) // up) - first
    blocks = -(-cycles // max(_MIN_CYCLES, _BLOCK // (rows * up)))
    run = -(-cycles // blocks)                     # cycles per block
    phases = max(1, _BLOCK // (rows * run))        # phases per block
    width = blocks * run + int(quotient[-1, -1]) + 1
    grid = np.zeros((down, width)).T               # rows of `down` inputs
    whole = min(len(x) // down, width - x_row)
    grid[x_row:x_row + whole] = x[:whole * down].reshape(whole, down)
    tail = x[whole * down:(width - x_row) * down]
    if len(tail):
        grid[x_row + whole, :len(tail)] = tail
    poly = grid.T.ravel()                          # polyphase components
    runs = as_strided(poly, (len(poly) - run + 1, run), poly.strides * 2,
                      writeable=False)
    start = residue * width + quotient
    y = np.empty((blocks * run, up))
    for c in range(0, blocks * run, run):
        for p in range(0, up, phases):
            prod = runs[c:][start[:, p:p + phases]]   # (rows, phases, run)
            prod *= coef[:, p:p + phases]
            y[c:c + run, p:p + phases] = np.add.reduce(prod, axis=0,
                                                       initial=0.0).T
    return y.ravel()[skip - first * up:][:n_out]


def resample(clip: AudioClip) -> AudioClip:
    """Polyphase (linear-phase) resample to TARGET_RATE, with
    `scipy.signal.resample_poly`'s output bytes; pass-through when already
    at rate."""
    if len(clip.samples) == 0:
        raise ValueError("cannot resample an empty clip")
    if clip.sample_rate == TARGET_RATE:
        return clip
    g = math.gcd(clip.sample_rate, TARGET_RATE)
    y = _resample_poly(clip.samples, TARGET_RATE // g, clip.sample_rate // g)
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

"""Audio frontend: WAV ingestion, resampling, segmentation, STFT geometry and
dataset normalization."""

import math
import struct

import numpy as np
import pytest
from scipy.signal import resample_poly
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from antitransfer.audio import (AudioClip, NormStats, WavFormatError,
                                compute_norm_stats, normalize,
                                preprocess_clip, read_wav, resample,
                                segment_or_pad, stft_magnitude, write_wav)


# (offset, struct format) of each field of a canonical 44-byte WAV header:
# RIFF size, fmt size, format, channels, rate, byte rate, block align,
# bits per sample, data size
WAV_HEADER_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"),
                     (28, "<I"), (32, "<H"), (34, "<H"), (40, "<I")]


def sine(freq, rate, seconds, amp=0.5):
    t = np.arange(int(rate * seconds)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


class TestWavIO:
    @pytest.mark.parametrize("encoding,tol", [("pcm16", 1e-4), ("pcm24", 1e-6),
                                              ("float32", 1e-7)])
    def test_round_trip(self, tmp_path, encoding, tol):
        x = sine(440, 16000, 0.05)
        path = tmp_path / f"clip_{encoding}.wav"
        write_wav(path, AudioClip(samples=x, sample_rate=16000), encoding)
        back = read_wav(path)
        assert back.sample_rate == 16000
        assert len(back.samples) == len(x)
        assert np.max(np.abs(back.samples - x)) < tol

    def test_stereo_averages_to_mono(self, tmp_path):
        left = np.full(100, 0.25)
        right = np.full(100, 0.75)
        inter = np.empty(200)
        inter[0::2] = left
        inter[1::2] = right
        payload = np.round(inter * 32767).astype("<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, 2, 8000, 8000 * 4, 4, 16)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload)
        path = tmp_path / "stereo.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        clip = read_wav(path)
        assert len(clip.samples) == 100
        assert np.allclose(clip.samples, 0.5, atol=1e-3)

    def test_unsupported_encoding_rejected(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)  # PCM8
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", 4) + b"\x00\x00\x00\x00")
        path = tmp_path / "pcm8.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(WavFormatError):
            read_wav(path)


    def test_short_fmt_chunk_rejected(self, tmp_path):
        fmt = struct.pack("<HH", 1, 1)  # 4 of the 16 bytes a fmt chunk needs
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", 4) + b"\x00\x00\x00\x00")
        path = tmp_path / "short_fmt.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="fmt chunk"):
            read_wav(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(encoding=st.sampled_from(["pcm16", "pcm24", "float32"]),
           cut=st.floats(0.0, 1.0, exclude_max=True),
           fields=st.lists(st.tuples(st.sampled_from(WAV_HEADER_FIELDS),
                                     st.integers(0, 64) | st.integers(0, 2 ** 32 - 1)),
                           max_size=3),
           hits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                         max_size=3))
    # a 15-byte fmt chunk, an odd-sized PCM16 data chunk, a NaN float sample
    @example(encoding="pcm16", cut=0.5, fields=[((16, "<I"), 15)], hits=[])
    @example(encoding="pcm16", cut=0.5, fields=[((40, "<I"), 31)], hits=[])
    @example(encoding="float32", cut=0.5, fields=[], hits=[(55, 0x7F)])
    def test_damaged_bytes_raise_only_wav_format_error(self, tmp_path, encoding,
                                                       cut, fields, hits):
        """A truncated valid WAV, or one with header fields or bytes
        overwritten, either reads as a finite clip or raises
        WavFormatError."""
        path = tmp_path / "clip.wav"
        write_wav(path, AudioClip(samples=sine(440, 8000, 0.002),
                                  sample_rate=8000), encoding)
        blob = path.read_bytes()
        damaged = bytearray(blob)
        for (offset, fmt), value in fields:
            struct.pack_into(fmt, damaged, offset, value % 256 ** struct.calcsize(fmt))
        for where, value in hits:
            damaged[where % len(blob)] = value
        for variant in (blob[:int(cut * len(blob))], bytes(damaged)):
            path.write_bytes(variant)
            try:
                clip = read_wav(path)
            except WavFormatError:
                continue
            assert clip.sample_rate > 0
            assert np.all(np.isfinite(clip.samples))


class TestResample:
    @pytest.mark.parametrize("rate", [22050, 44100, 8000])
    def test_bytes_of_resample_poly(self, rate):
        """The filter designed once per rate pair gives resample_poly's own
        bytes, call after call, so the cached filter is never changed."""
        x = np.random.default_rng(rate).uniform(-1, 1, rate // 5)
        g = math.gcd(rate, 16000)
        want = resample_poly(x, 16000 // g, rate // g).tobytes()
        clip = AudioClip(samples=x, sample_rate=rate)
        for _ in range(2):
            assert resample(clip, 16000).samples.tobytes() == want

    def test_passthrough_at_target_rate(self):
        clip = AudioClip(samples=sine(440, 16000, 0.1), sample_rate=16000)
        out = resample(clip)
        assert out is clip

    def test_dc_signal_keeps_value_and_thirds_length(self):
        clip = AudioClip(samples=np.full(14400, 0.3), sample_rate=48000)
        out = resample(clip)
        assert out.sample_rate == 16000
        assert abs(len(out.samples) - 14400 // 3) <= 1
        interior = out.samples[50:-50]
        assert np.allclose(interior, 0.3, atol=1e-3)

    def test_sine_amplitude_preserved_within_one_percent(self):
        """Sine-fit oracle: project the resampled signal onto quadrature
        sinusoids at the tone frequency and compare the fitted amplitude."""
        freq, amp = 1000.0, 0.5
        clip = AudioClip(samples=sine(freq, 32000, 0.25, amp), sample_rate=32000)
        out = resample(clip)
        x = out.samples[400:-400]  # trim filter edge transients
        t = (np.arange(len(out.samples)) / 16000)[400:-400]
        a = 2 * np.mean(x * np.sin(2 * np.pi * freq * t))
        b = 2 * np.mean(x * np.cos(2 * np.pi * freq * t))
        fitted = np.hypot(a, b)
        assert abs(fitted - amp) / amp < 0.01

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            resample(AudioClip(samples=np.zeros(0), sample_rate=8000))


class TestSegmentOrPad:
    def test_exact_duration_is_identity(self):
        x = sine(100, 16000, 1.0)
        clips = segment_or_pad(AudioClip(samples=x, sample_rate=16000), 1.0)
        assert len(clips) == 1
        assert np.array_equal(clips[0].samples, x)

    def test_short_clip_right_padded(self):
        x = np.ones(8000)
        clips = segment_or_pad(AudioClip(samples=x, sample_rate=16000), 1.0)
        assert len(clips) == 1
        assert len(clips[0].samples) == 16000
        assert np.all(clips[0].samples[8000:] == 0.0)
        assert np.all(clips[0].samples[:8000] == 1.0)

    def test_long_clip_cut_into_fragments_with_padded_tail(self):
        x = np.ones(int(2.3 * 16000))
        clips = segment_or_pad(AudioClip(samples=x, sample_rate=16000), 1.0)
        assert len(clips) == 3
        assert all(len(c.samples) == 16000 for c in clips)
        tail = clips[2].samples
        n_real = int(2.3 * 16000) - 2 * 16000
        assert np.all(tail[:n_real] == 1.0)
        assert np.all(tail[n_real:] == 0.0)
        assert np.isclose((tail == 0).sum() / 16000, 0.7, atol=0.01)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            segment_or_pad(AudioClip(samples=np.ones(10), sample_rate=16000), 0.0)


class TestSTFT:
    def test_all_zero_clip_gives_all_zero_spectrogram(self):
        clip = AudioClip(samples=np.zeros(16000), sample_rate=16000)
        spec = stft_magnitude(clip)
        assert np.all(spec.values == 0.0)

    def test_reference_geometry_126_by_129(self):
        """1 s at 16 kHz, 16 ms window, 50% overlap."""
        clip = AudioClip(samples=sine(440, 16000, 1.0), sample_rate=16000)
        spec = stft_magnitude(clip)
        assert spec.values.shape == (126, 129)
        assert spec.window == 256 and spec.hop == 128

    def test_magnitudes_are_nonnegative(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(samples=rng.standard_normal(8000), sample_rate=16000)
        assert np.all(stft_magnitude(clip).values >= 0.0)

    def test_bin_centered_sine_dominates_one_bin(self):
        """DFT leakage oracle: at an exact bin center, a Hamming window leaks
        only into the adjacent bins (its main lobe spans +-2 bins); everything
        three or more bins away sits >= 20 dB below the peak."""
        rate, win = 16000, 256
        k = 20
        freq = k * rate / win  # 1250 Hz
        clip = AudioClip(samples=sine(freq, rate, 1.0), sample_rate=rate)
        spec = stft_magnitude(clip)
        for frame in spec.values[2:-2]:
            peak = frame.argmax()
            assert peak == k
            away = np.concatenate([frame[:peak - 2], frame[peak + 3:]])
            assert 20 * np.log10(frame[peak] / max(away.max(), 1e-30)) >= 20.0

    def test_too_short_clip_rejected(self):
        clip = AudioClip(samples=np.zeros(100), sample_rate=16000)
        with pytest.raises(ValueError):
            stft_magnitude(clip)


class TestNormalize:
    def test_training_split_becomes_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        split = [rng.uniform(0, 4, size=(20, 13)) for _ in range(30)]
        stats = compute_norm_stats(split)
        normed = normalize(split, stats)
        allv = np.concatenate([s.ravel() for s in normed])
        assert abs(allv.mean()) < 1e-6
        assert abs(allv.std()) - 1 < 1e-6

    def test_constant_split_rejected(self):
        with pytest.raises(ValueError):
            compute_norm_stats([np.full((4, 4), 2.5)])

    def test_test_split_mean_is_generally_nonzero(self):
        """Other splits are normalized with *training* stats, so their mean
        will not hit zero; that is expected, not a bug."""
        rng = np.random.default_rng(2)
        train = [rng.uniform(0, 1, size=(8, 8)) for _ in range(20)]
        test = [rng.uniform(2, 3, size=(8, 8)) for _ in range(20)]
        stats = compute_norm_stats(train)
        test_norm = normalize(test, stats)
        mean = np.concatenate([s.ravel() for s in test_norm]).mean()
        assert abs(mean) > 0.5

    def test_zero_std_stats_rejected(self):
        with pytest.raises(ValueError):
            NormStats(mean=0.0, std=0.0)


def test_preprocess_clip_end_to_end():
    clip = AudioClip(samples=sine(500, 48000, 2.3), sample_rate=48000)
    specs = preprocess_clip(clip, duration_s=1.0)
    assert len(specs) == 3
    for s in specs:
        assert s.values.shape == (126, 129)

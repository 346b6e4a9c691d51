"""Self-test of the benchmark at tiny sizes (about 15 s):

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload must report every metric BENCHMARK.json names, with its unit,
and a corrupted input must be counted as a failure, not reported as a pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from antitransfer import audio, training  # noqa: E402

from bench import run_workload  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def run_tiny(name, tmp_path, trace=False):
    return run_workload(TINY[name], seed=3, seconds=0.01, trace=trace,
                        work_dir=tmp_path / "work",
                        spans_path=tmp_path / "spans.json")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in spec()[kind]}


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in spec()["workloads"]]
    assert names == list(WORKLOAD_NAMES) == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(name, trace, tmp_path):
    result, detail = run_tiny(name, tmp_path, trace)
    assert result["correct"], detail["failed_checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("per_layer" if trace else "end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] == metric["value"]  # not NaN
    if trace:
        assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_absent_layers_read_zero(tmp_path):
    result, detail = run_tiny("audio-infer-126x129", tmp_path, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for zero in ("layers.conv.bwd_ms", "layers.maxpool.bwd_ms", "losses.at_term_ms",
                 "optim.adam_steps", "training.steps", "training.step_glue_ms"):
        assert m[zero] == 0, zero
    assert m["audio.clips"] == TINY["audio-infer-126x129"].clips
    assert "losses.at_term" in detail["missing_spans"]


def test_removed_wrap_target_is_reported_not_fatal(tmp_path, monkeypatch):
    # The audio workload never reaches training._at_term, so removing it
    # leaves the run intact and must only show up as missing.
    monkeypatch.delattr(training, "_at_term")
    result, detail = run_tiny("audio-infer-126x129", tmp_path, trace=True)
    assert result["correct"]
    assert "antitransfer.training._at_term" in detail["missing_targets"]
    assert result["metrics"]["losses.at_term_ms"]["value"] == 0


def test_extractor_changing_during_training_is_a_failure(tmp_path, monkeypatch):
    precompute = training._precompute_extractor_aggs

    def tamper(extractor, *args, **kwargs):
        out = precompute(extractor, *args, **kwargs)
        extractor.conv_layers()[0].W += 1e-3
        return out

    monkeypatch.setattr(training, "_precompute_extractor_aggs", tamper)
    result, detail = run_tiny("synth-at-32x37", tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "extractor_hash_before == extractor_hash_after" in detail["failed_checks"]
    assert detail["failed_frac"] > 0


def test_clip_of_wrong_length_is_a_failure(tmp_path, monkeypatch):
    read_wav = audio.read_wav

    def too_long(path):
        clip = read_wav(path)
        return audio.AudioClip(samples=list(clip.samples) * 2,
                               sample_rate=clip.sample_rate)

    monkeypatch.setattr(audio, "read_wav", too_long)
    result, detail = run_tiny("audio-infer-126x129", tmp_path)
    assert not result["correct"]
    assert detail["failed_checks"] == ["one segment per clip"]

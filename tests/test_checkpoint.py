"""Checkpoint container: byte-identical round trips, corruption and version
handling, fingerprint compatibility, weight-initialization transfer."""

import struct

import numpy as np
import pytest

from antitransfer import checkpoint as ck
from antitransfer.network import build, preset


@pytest.fixture
def tiny_net():
    return build(preset("vgg-tiny", (16, 17), 3), seed=5, dtype=np.float32)


class TestContainer:
    def test_save_load_save_is_byte_identical(self, tmp_path, tiny_net):
        p1 = tmp_path / "a.atck"
        p2 = tmp_path / "b.atck"
        ck.save(tiny_net, p1, provenance={"task": "t", "seed": 5, "epoch": 3})
        loaded = ck.load(p1)
        ck.save(loaded, p2, provenance=loaded.provenance)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_weights_bitwise(self, tmp_path, tiny_net):
        path = tmp_path / "m.atck"
        ck.save(tiny_net, path)
        loaded = ck.load(path)
        for name, arr in tiny_net.named_params().items():
            got = loaded.named_params()[name]
            assert got.dtype == arr.dtype
            assert np.array_equal(got, arr)

    def test_failed_write_keeps_previous_file(self, tmp_path, tiny_net):
        """A write that raises midway leaves the old file and no temporary."""
        path = tmp_path / "m.atck"
        ck.save(tiny_net, path)
        before = path.read_bytes()

        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("write interrupted")

        with pytest.raises(RuntimeError):
            ck.write_container(path, {"kind": "checkpoint"},
                               {"a": np.zeros(3), "b": Unwritable()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.atck"]

    def test_truncated_file_is_corrupt(self, tmp_path, tiny_net):
        path = tmp_path / "m.atck"
        ck.save(tiny_net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ck.CorruptFileError):
            ck.load(path)

    def test_bad_magic_is_corrupt(self, tmp_path):
        path = tmp_path / "m.atck"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ck.CorruptFileError):
            ck.load(path)

    def test_version_mismatch_rejected(self, tmp_path, tiny_net):
        path = tmp_path / "m.atck"
        ck.save(tiny_net, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(ck.VersionMismatchError):
            ck.load(path)

    def test_trailing_garbage_is_corrupt(self, tmp_path, tiny_net):
        path = tmp_path / "m.atck"
        ck.save(tiny_net, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ck.CorruptFileError):
            ck.load(path)

    def test_provenance_round_trips(self, tmp_path, tiny_net):
        path = tmp_path / "m.atck"
        prov = {"task": "speaker", "seed": 11, "epoch": 7}
        ck.save(tiny_net, path, provenance=prov)
        assert ck.load(path).provenance == prov


class TestFingerprints:
    def test_same_conv_stack_same_fingerprints(self):
        a = preset("vgg-tiny", (16, 17), 3)
        b = preset("vgg-tiny", (16, 17), 7)   # head differs, conv stack equal
        assert a.conv_fingerprints() == b.conv_fingerprints()

    def test_different_channels_change_fingerprints(self):
        a = preset("vgg-tiny", (16, 17), 3)
        b = preset("vgg-small", (16, 17), 3)
        assert a.conv_fingerprints()[0] != b.conv_fingerprints()[0]

    def test_incompatible_extractor_rejected(self, tmp_path):
        with pytest.raises(ck.FingerprintMismatchError):
            ck.check_conv_compatible(preset("vgg-tiny", (16, 17), 3),
                                     preset("vgg-small", (16, 17), 3), up_to=1)

    def test_prefix_compatibility_passes(self):
        a = preset("vgg-tiny", (16, 17), 3)
        ck.check_conv_compatible(a, preset("vgg-tiny", (16, 17), 9),
                                 up_to=a.conv_count)


class TestInitFrom:
    def test_plain_wi_copies_convs_and_keeps_head_fresh(self, tmp_path):
        source = build(preset("vgg-tiny", (16, 17), 3), seed=1, dtype=np.float32)
        target = build(preset("vgg-tiny", (16, 17), 3), seed=2, dtype=np.float32)
        head_before = {n: a.copy() for n, a in target.named_params().items()
                       if n.startswith("dense")}
        ck.init_from(target, source)
        for s, t in zip(source.conv_layers(), target.conv_layers()):
            assert np.array_equal(s.W, t.W)
            assert np.array_equal(s.b, t.b)
            assert t.trainable
        for n, arr in head_before.items():
            assert np.array_equal(arr, target.named_params()[n])

    def test_freeze_marks_prefix_non_trainable(self):
        source = build(preset("vgg-tiny", (16, 17), 3), seed=1)
        target = build(preset("vgg-tiny", (16, 17), 3), seed=2)
        ck.init_from(target, source, freeze_up_to=2)
        flags = [l.trainable for l in target.conv_layers()]
        assert flags == [False, False, True, True]

    def test_init_from_own_save_is_identity_on_convs(self, tmp_path):
        net = build(preset("vgg-tiny", (16, 17), 3), seed=3, dtype=np.float32)
        path = tmp_path / "self.atck"
        ck.save(net, path)
        before = {n: a.copy() for n, a in net.named_params().items()}
        ck.init_from(net, ck.load(path))
        for n, arr in net.named_params().items():
            assert np.array_equal(arr, before[n])

    def test_mismatched_source_rejected(self):
        source = build(preset("vgg-small", (16, 17), 3), seed=1)
        target = build(preset("vgg-tiny", (16, 17), 3), seed=2)
        with pytest.raises(ck.FingerprintMismatchError):
            ck.init_from(target, source)


class TestBuildDeterminism:
    def test_same_config_and_seed_builds_identical_weights(self):
        a = build(preset("vgg-tiny", (16, 17), 3), seed=9)
        b = build(preset("vgg-tiny", (16, 17), 3), seed=9)
        assert a.weight_hash() == b.weight_hash()

    def test_different_seed_differs(self):
        a = build(preset("vgg-tiny", (16, 17), 3), seed=9)
        b = build(preset("vgg-tiny", (16, 17), 3), seed=10)
        assert a.weight_hash() != b.weight_hash()

    def test_eval_forward_does_not_mutate_weights(self):
        net = build(preset("vgg-tiny", (16, 17), 3), seed=4)
        before = net.weight_hash()
        x = np.random.default_rng(0).standard_normal((2, 1, 16, 17))
        _, feats = net.forward(x, taps=[1, 4])
        assert set(feats) == {1, 4}
        assert feats[1].shape == (2, 16, 16, 17)
        assert net.weight_hash() == before

    def test_zero_input_zero_bias_gives_zero_features(self):
        net = build(preset("vgg-tiny", (16, 17), 3), seed=4)
        _, feats = net.forward(np.zeros((1, 1, 16, 17)), taps=[1])
        assert np.all(feats[1] == 0.0)

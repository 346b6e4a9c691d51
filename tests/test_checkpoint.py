"""Checkpoint container: byte-identical round trips, corruption and version
handling, fingerprint compatibility, weight-initialization transfer."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antitransfer import checkpoint as ck
from antitransfer import layers as L
from antitransfer import training
from antitransfer.data import ManifestRow, load_split_dir, write_manifest
from antitransfer.gradcam import Heatmap, render
from antitransfer.network import ArchConfig, build, preset
from antitransfer.training import TrainConfig


@pytest.fixture
def tiny_net():
    return build(preset("vgg-tiny", (16, 17), 3), seed=5, dtype=np.float32)


def assert_weight_table_aliases(net):
    """net.params / net.grads hold the layers' own arrays, and nothing else."""
    names = set()
    for layer in net.layers:
        if isinstance(layer, (L.Conv2D, L.Dense)):
            for pname, w, g in (("weight", layer.W, layer.gW),
                                ("bias", layer.b, layer.gb)):
                name = f"{layer.name}.{pname}"
                assert net.params[name] is w and net.grads[name] is g, name
                names.add(name)
    assert set(net.params) == set(net.grads) == names


# a checkpoint small enough that random byte damage often hits its header
SMALL_ARCH = ArchConfig(layers=[L.conv2d(2), L.relu(), L.maxpool2d(),
                                L.dropout(0.5), L.flatten(), L.dense(2)],
                        input_shape=(1, 3, 3), n_classes=2)


def small_checkpoint_bytes(tmp_path):
    path = tmp_path / "small.atck"
    ck.save(build(SMALL_ARCH, seed=1, dtype=np.float32), path,
            provenance={"task": "t"})
    return path.read_bytes()


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
        for name, arr in tiny_net.params.items():
            got = loaded.params[name]
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

    def test_failed_json_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "summary.json"
        ck.write_json(path, {"epoch": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            ck.write_json(path, {"epoch": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    def test_provenance_round_trips(self, tmp_path, tiny_net):
        path = tmp_path / "m.atck"
        prov = {"task": "speaker", "seed": 11, "epoch": 7}
        ck.save(tiny_net, path, provenance=prov)
        assert ck.load(path).provenance == prov


class TestRunArtifacts:
    """Run artifacts other than checkpoints are written through
    `atomic_open` too: one whose write fails midway keeps its old bytes."""

    @staticmethod
    def _writers(tmp_path, monkeypatch):
        """name -> function writing that artifact with content i."""
        def manifest(i):
            write_manifest(tmp_path / "m.csv",
                           [ManifestRow(f"s{i}.atck", "t0", ("o1",))] * 3)

        def sweep(i):
            monkeypatch.setattr(training, "_sweep_point",
                                lambda *args: (0.5, 0.5, 0.5, float(i)))
            training.sweep([(1.0, None), (2.0, None)], "beta", {}, tmp_path)

        def gradcam(i):
            values = np.full((4, 5), 0.25 * (i + 1))
            render(Heatmap(values=values, class_index=0, layer=1),
                   np.zeros((4, 5)), tmp_path / "out", dump_csv=True)

        return {"m.csv": manifest, "sweep.csv": sweep,
                "out.heat.pgm": gradcam, "out.heat.csv": gradcam}

    @pytest.mark.parametrize("name", ["m.csv", "sweep.csv", "out.heat.pgm",
                                      "out.heat.csv"])
    def test_write_failing_midway_keeps_previous_file(self, name, tmp_path,
                                                      monkeypatch):
        write = self._writers(tmp_path, monkeypatch)[name]
        write(0)
        before = (tmp_path / name).read_bytes()

        class HalfWritten:
            """A file whose first write puts down half its data and raises."""

            def __init__(self, f):
                self.f = f

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def interrupting_open(file, *args, **kwargs):
            f = open(file, *args, **kwargs)
            return HalfWritten(f) if file.name == name + ".tmp" else f

        monkeypatch.setattr(ck, "open", interrupting_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(1)
        assert (tmp_path / name).read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_replace_failing_keeps_previous_file(self, tmp_path, monkeypatch):
        """A write whose final rename fails keeps the old bytes and leaves
        no temporary file behind."""
        path = tmp_path / "s.json"
        ck.write_json(path, {"run": 0})
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(ck.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            ck.write_json(path, {"run": 1})
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class TestMalformedCheckpoints:
    """Every malformed checkpoint ends in a CheckpointError."""

    def good_meta(self, tmp_path):
        path = tmp_path / "good.atck"
        ck.save(build(SMALL_ARCH, seed=1), path)
        return ck.read_container(path)

    def test_meta_that_is_a_list(self, tmp_path):
        ck.write_container(tmp_path / "m.atck", [1, 2], {})
        with pytest.raises(ck.CorruptFileError):
            ck.load(tmp_path / "m.atck")

    def test_meta_without_arch(self, tmp_path):
        meta, tensors = self.good_meta(tmp_path)
        del meta["arch"]
        ck.write_container(tmp_path / "m.atck", meta, tensors)
        with pytest.raises(ck.CorruptFileError, match="arch"):
            ck.load(tmp_path / "m.atck")

    def test_unknown_layer_spec_key(self, tmp_path):
        meta, tensors = self.good_meta(tmp_path)
        meta["arch"]["layers"][0]["dilation"] = 2
        ck.write_container(tmp_path / "m.atck", meta, tensors)
        with pytest.raises(ck.CorruptFileError, match="dilation"):
            ck.load(tmp_path / "m.atck")

    def test_unknown_dtype(self, tmp_path):
        meta, tensors = self.good_meta(tmp_path)
        for dtype in (",loat32", "int32", [1]):
            meta["dtype"] = dtype
            ck.write_container(tmp_path / "m.atck", meta, tensors)
            with pytest.raises(ck.CorruptFileError, match="dtype"):
                ck.load(tmp_path / "m.atck")

    def test_tensor_name_not_utf8(self, tmp_path):
        path = tmp_path / "m.atck"
        ck.write_container(path, {"kind": "spectrogram"}, {"ab": np.zeros(2)})
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"ab", b"\xff\xfe", 1))
        with pytest.raises(ck.CorruptFileError, match="utf-8"):
            ck.read_container(path)

    def test_tensor_shape_differs_from_arch(self, tmp_path):
        meta, tensors = self.good_meta(tmp_path)
        tensors["dense1.bias"] = np.zeros(3)
        ck.write_container(tmp_path / "m.atck", meta, tensors)
        with pytest.raises(ck.CorruptFileError, match="dense1.bias"):
            ck.load(tmp_path / "m.atck")

    def test_absurd_extent_of_an_empty_tensor(self, tmp_path):
        path = tmp_path / "m.atck"
        ck.write_container(path, {}, {"t": np.zeros((0, 3))})
        blob = path.read_bytes()
        extent = struct.pack("<Q", 3)
        assert blob.count(extent) == 1
        path.write_bytes(blob.replace(extent, struct.pack("<Q", 2 ** 63)))
        with pytest.raises(ck.CorruptFileError):
            ck.read_container(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.floats(0.0, 1.0, exclude_max=True),
           hits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                   st.integers(0, 255)), max_size=3))
    def test_damaged_bytes_raise_only_checkpoint_errors(self, tmp_path, cut,
                                                        hits):
        """Truncated files always fail; overwritten bytes either load or
        fail with a CheckpointError."""
        blob = small_checkpoint_bytes(tmp_path)
        path = tmp_path / "damaged.atck"
        path.write_bytes(blob[:int(cut * len(blob))])
        with pytest.raises(ck.CheckpointError):
            ck.load(path)
        damaged = bytearray(blob)
        for where, value in hits:
            damaged[int(where * len(blob))] = value
        path.write_bytes(bytes(damaged))
        try:
            net = ck.load(path)
        except ck.CheckpointError:
            return
        assert_weight_table_aliases(net)


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
        head_before = {n: a.copy() for n, a in target.params.items()
                       if n.startswith("dense")}
        ck.init_from(target, source)
        for s, t in zip(source.conv_layers(), target.conv_layers()):
            assert np.array_equal(s.W, t.W)
            assert np.array_equal(s.b, t.b)
            assert t.trainable
        for n, arr in head_before.items():
            assert np.array_equal(arr, target.params[n])

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
        before = {n: a.copy() for n, a in net.params.items()}
        ck.init_from(net, ck.load(path))
        for n, arr in net.params.items():
            assert np.array_equal(arr, before[n])

    def test_mismatched_source_rejected(self):
        source = build(preset("vgg-small", (16, 17), 3), seed=1)
        target = build(preset("vgg-tiny", (16, 17), 3), seed=2)
        with pytest.raises(ck.FingerprintMismatchError):
            ck.init_from(target, source)


class TestWeightTable:
    def test_holds_the_layers_own_arrays(self, tmp_path, orth_checkpoint,
                                         tiny_data_dir):
        """After build, load, init_from and a training run, every entry of
        net.params / net.grads is the layer's own array."""
        built = build(preset("vgg-tiny", (16, 17), 4), seed=1)
        assert_weight_table_aliases(built)
        loaded = ck.load(orth_checkpoint)
        assert_weight_table_aliases(loaded)
        ck.init_from(built, loaded, freeze_up_to=1)
        assert_weight_table_aliases(built)
        cfg = TrainConfig(strategy="wi", seed=2, max_epochs=2,
                          pretrained_checkpoints=(str(orth_checkpoint),))
        trained = training.train(cfg, load_split_dir(tiny_data_dir),
                                 tmp_path / "run").network
        assert_weight_table_aliases(trained)
        assert trained.grads["dense2.weight"].any()
        assert ck.load(tmp_path / "run" / "model.atck").weight_hash() \
            == trained.weight_hash()


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

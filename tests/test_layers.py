"""Layer-level forward/backward behavior against hand-computed oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antitransfer import layers as L
from antitransfer.network import ArchConfig, build
from antitransfer.layers import NonFiniteError, ShapeError


def test_identity_conv_passes_input_through():
    """1x1 conv with a single unit weight and zero bias is the identity."""
    rng = np.random.default_rng(0)
    conv = L.Conv2D(L.conv2d(1, kernel=1, padding=0), 1, rng)
    conv.W = np.ones((1, 1, 1, 1))
    conv.b = np.zeros(1)
    x = rng.standard_normal((2, 1, 5, 7))
    out = conv.forward(x, train=False, rng=None)
    assert np.allclose(out, x)


def test_maxpool_2x2_takes_block_max():
    pool = L.MaxPool2D(L.maxpool2d(kernel=2, stride=2, ceil_mode=False))
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = pool.forward(x, train=False, rng=None)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4.0


def test_zero_dense_layer_outputs_zero():
    rng = np.random.default_rng(0)
    dense = L.Dense(L.dense(4), 6, rng)
    dense.W = np.zeros((6, 4))
    dense.b = np.zeros(4)
    out = dense.forward(rng.standard_normal((3, 6)), train=False, rng=None)
    assert np.all(out == 0.0)


def test_identity_conv_weight_gradient_is_input_sum():
    """loss = sum(output) through the identity conv: dW = sum over all inputs."""
    rng = np.random.default_rng(1)
    conv = L.Conv2D(L.conv2d(1, kernel=1, padding=0), 1, rng)
    conv.W = np.ones((1, 1, 1, 1))
    conv.b = np.zeros(1)
    x = rng.standard_normal((2, 1, 4, 5))
    out = conv.forward(x, train=False, rng=None)
    conv.backward(np.ones_like(out))
    assert np.allclose(conv.gW[0, 0, 0, 0], x.sum())
    assert np.allclose(conv.gb[0], out.size)


def test_frozen_layer_skips_gradient_accumulation():
    rng = np.random.default_rng(2)
    conv = L.Conv2D(L.conv2d(3), 2, rng)
    conv.trainable = False
    x = rng.standard_normal((1, 2, 5, 5))
    out = conv.forward(x, train=False, rng=None)
    dx = conv.backward(np.ones_like(out))
    assert not conv.gW.any() and not conv.gb.any()
    assert dx.shape == x.shape


def test_dropout_eval_is_identity_and_passes_gradient():
    drop = L.Dropout(L.dropout(0.5))
    x = np.random.default_rng(3).standard_normal((4, 6))
    out = drop.forward(x, train=False, rng=None)
    assert out is x
    g = np.random.default_rng(4).standard_normal((4, 6))
    assert np.array_equal(drop.backward(g), g)


def test_dropout_train_scales_by_keep_probability():
    drop = L.Dropout(L.dropout(0.5))
    x = np.ones((1, 10000))
    out = drop.forward(x, train=True, rng=np.random.default_rng(5))
    kept = out[out != 0]
    assert np.allclose(kept, 2.0)          # inverted dropout: 1 / (1 - p)
    assert abs(kept.size / x.size - 0.5) < 0.05


def test_dropout_train_requires_rng():
    drop = L.Dropout(L.dropout(0.5))
    with pytest.raises(RuntimeError):
        drop.forward(np.ones((1, 4)), train=True, rng=None)


def test_backward_without_forward_raises():
    rng = np.random.default_rng(6)
    conv = L.Conv2D(L.conv2d(2), 1, rng)
    with pytest.raises(RuntimeError):
        conv.backward(np.zeros((1, 2, 3, 3)))
    dense = L.Dense(L.dense(2), 3, rng)
    with pytest.raises(RuntimeError):
        dense.backward(np.zeros((1, 2)))


def test_conv_shape_mismatch_raises():
    rng = np.random.default_rng(7)
    conv = L.Conv2D(L.conv2d(2), 3, rng)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 2, 5, 5)), train=False, rng=None)


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        L.conv2d(0)
    with pytest.raises(ValueError):
        L.conv2d(4, kernel=0)
    with pytest.raises(ValueError):
        L.conv2d(4, stride=0)
    with pytest.raises(ValueError):
        L.dropout(1.0)
    with pytest.raises(ValueError):
        L.dropout(-0.1)
    L.dropout(0.0)  # p = 0 is allowed


def test_maxpool_kernel_limited_by_int8_argmax():
    """Tap index i*k + j must fit the int8 argmax: kernel 11 is the largest."""
    with pytest.raises(ValueError, match="limit of 11"):
        L.LayerSpec(kind="maxpool2d", kernel=12, stride=12)
    spec = L.LayerSpec(kind="maxpool2d", kernel=11, stride=11)
    x = np.zeros((1, 1, 11, 11))
    x[0, 0, 10, 10] = 1.0                       # the last tap, index 120
    pool = L.MaxPool2D(spec)
    assert pool.forward(x, train=False, rng=None).ravel().tolist() == [1.0]
    assert np.array_equal(pool.backward(np.ones((1, 1, 1, 1))), x)


def test_maxpool_ceil_mode_matches_halving():
    """ceil-mode 3x3 stride-2 pooling halves every extent like floor(n/2)."""
    pool = L.maxpool2d()
    for h, w in [(126, 129), (63, 64), (31, 32), (15, 16), (7, 8), (224, 224)]:
        assert L.output_hw(pool, h, w) == (h // 2, w // 2)


def test_maxpool_ceil_padding_never_wins():
    """-inf edge padding cannot be selected as a maximum."""
    pool = L.MaxPool2D(L.maxpool2d())
    x = -np.ones((1, 1, 5, 5)) * 100.0   # all very negative
    out = pool.forward(x, train=False, rng=None)
    assert np.all(np.isfinite(out))
    assert np.all(out == -100.0)


def test_ceil_mode_drops_window_starting_outside():
    """Stride 3 > kernel 1 on 5 rows: a third window would start at row 6."""
    spec = L.maxpool2d(kernel=1, stride=3)
    assert L.output_hw(spec, 5, 5) == (2, 2)
    x = np.arange(25.0).reshape(1, 1, 5, 5)
    out = L.MaxPool2D(spec).forward(x, train=False, rng=None)
    assert np.array_equal(out, x[:, :, ::3, ::3])


def test_floor_mode_uneven_extent_keeps_input_shape():
    """(6 - 3) % 2 != 0: the last row and column are in no window."""
    pool = L.MaxPool2D(L.maxpool2d(kernel=3, stride=2, ceil_mode=False))
    x = np.arange(36.0).reshape(1, 1, 6, 6)
    out = pool.forward(x, train=False, rng=None)
    assert np.array_equal(out, [[[[14.0, 16.0], [26.0, 28.0]]]])
    dx = pool.backward(np.ones_like(out))
    assert dx.shape == x.shape
    assert dx.sum() == 4.0
    assert not dx[:, :, 5, :].any() and not dx[:, :, :, 5].any()


def _oracle_pool_forward(x, k, s, oh, ow):
    """Tap-loop max pool over an -inf padded copy: the first tap in
    row-major order that beats the running max wins."""
    n, c, h, w = x.shape
    hp, wp = max((oh - 1) * s + k, h), max((ow - 1) * s + k, w)
    xp = np.full((n, c, hp, wp), -np.inf, dtype=x.dtype)
    xp[:, :, :h, :w] = x
    out = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
    arg = np.zeros((n, c, oh, ow), dtype=np.int8)
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
            better = patch > out
            out[better] = patch[better]
            arg[better] = i * k + j
    return out, arg


def _oracle_pool_backward(dout, arg, in_shape, k, s):
    n, c, h, w = in_shape
    oh, ow = dout.shape[2], dout.shape[3]
    dxp = np.zeros((n, c, max((oh - 1) * s + k, h), max((ow - 1) * s + k, w)),
                   dtype=dout.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += dout * (arg == i * k + j)
    return dxp[:, :, :h, :w]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 10),
       w=st.integers(1, 10), k=st.integers(1, 4), s=st.integers(1, 4),
       ceil_mode=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]),
       block=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_maxpool_is_bitwise_the_tap_loop(n, c, h, w, k, s, ceil_mode, dtype,
                                         block, seed):
    spec = L.maxpool2d(kernel=k, stride=s, ceil_mode=ceil_mode)
    try:
        oh, ow = L.output_hw(spec, h, w)
    except ShapeError:
        assume(False)
    rng = np.random.default_rng(seed)
    shape = (n, c, h, w)
    # post-ReLU input: many ties, at 0 of both signs (x * 0 is -0.0 for x < 0)
    # and between small integers
    pre = np.where(rng.random(shape) < 0.5, rng.integers(-2, 3, shape),
                   rng.standard_normal(shape)).astype(dtype)
    x = pre * (pre > 0)
    pool = L.MaxPool2D(spec)
    # forward in blocks of `block` samples, as it runs on large batches
    with mock.patch.object(L, "_POOL_BLOCK_BYTES", block * x[0].nbytes):
        out = pool.forward(x, train=False, rng=None)
    want_out, want_arg = _oracle_pool_forward(x, k, s, oh, ow)
    assert out.dtype == want_out.dtype
    assert out.tobytes() == want_out.tobytes()
    assert np.array_equal(pool._arg, want_arg)
    dout = rng.standard_normal(out.shape).astype(dtype)
    dout[rng.random(out.shape) < 0.3] = -0.0
    dx = pool.backward(dout)
    want_dx = _oracle_pool_backward(dout, want_arg, shape, k, s)
    assert dx.dtype == want_dx.dtype and dx.shape == want_dx.shape
    assert dx.tobytes() == want_dx.tobytes()


class TestNetworkForward:
    def test_non_finite_input_raises(self):
        arch = ArchConfig(layers=[L.conv2d(2), L.relu(), L.flatten(), L.dense(3)],
                          input_shape=(1, 4, 4), n_classes=3)
        net = build(arch, seed=0)
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            net.forward(x)

    def test_input_shape_mismatch_raises(self):
        arch = ArchConfig(layers=[L.conv2d(2), L.relu(), L.flatten(), L.dense(3)],
                          input_shape=(1, 4, 4), n_classes=3)
        net = build(arch, seed=0)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 1, 5, 4)))

    def test_invalid_tap_index_raises(self):
        arch = ArchConfig(layers=[L.conv2d(2), L.relu(), L.flatten(), L.dense(3)],
                          input_shape=(1, 4, 4), n_classes=3)
        net = build(arch, seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 1, 4, 4)), taps=(2,))

    def test_eval_forward_is_pure(self):
        """Eval mode is a function of (weights, input) alone."""
        arch = ArchConfig(layers=[L.conv2d(2), L.relu(), L.dropout(0.5),
                                  L.flatten(), L.dense(3)],
                          input_shape=(1, 4, 4), n_classes=3)
        net = build(arch, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 1, 4, 4))
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        assert np.array_equal(a, b)

    def test_tap_is_post_relu(self):
        arch = ArchConfig(layers=[L.conv2d(2), L.relu(), L.flatten(), L.dense(3)],
                          input_shape=(1, 4, 4), n_classes=3)
        net = build(arch, seed=0)
        x = np.random.default_rng(1).standard_normal((2, 1, 4, 4))
        _, taps = net.forward(x, taps=(1,))
        assert np.all(taps[1] >= 0.0)

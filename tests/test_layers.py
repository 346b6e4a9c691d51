"""Layer-level forward/backward behavior against hand-computed oracles."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antitransfer import layers as L
from antitransfer.network import ArchConfig, build, conv_feature_shapes, preset
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


def test_relu_overwrites_only_when_built_in_place():
    """ReLU() leaves its arguments alone; ReLU(inplace=True) writes the
    same bytes, -0.0 and NaN included, into them."""
    x = np.array([[-2.0, -0.0, 0.0, 3.0, np.nan]])
    d = np.arange(1.0, 6.0)[None]
    relu = L.ReLU()
    x_in, d_in = x.copy(), d.copy()
    out, dx = relu.forward(x_in, False, None), relu.backward(d_in)
    assert x_in.tobytes() == x.tobytes() and d_in.tobytes() == d.tobytes()
    assert np.signbit(out[0, :2]).all() and np.isnan(out[0, 4])

    inplace = L.ReLU(inplace=True)
    x_in, d_in = x.copy(), d.copy()
    assert inplace.forward(x_in, False, None) is x_in
    assert inplace.backward(d_in) is d_in
    assert x_in.tobytes() == out.tobytes() and d_in.tobytes() == dx.tobytes()


@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("inplace", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_values_at_zeros_and_non_finite_inputs(dtype, inplace, step):
    """-inf and every other negative give -0.0, +0.0 stays +0.0, a NaN of
    either sign keeps its bytes, and no warning is raised; the gradient
    passes where the input is positive. The values repeat 1001 times, so
    that numpy's vector loop and its scalar tail both see each one; `step`
    3 takes them from a strided view, which numpy runs through its loop for
    non-contiguous arrays."""
    tiny = np.finfo(dtype).smallest_subnormal
    values = [-2.0, -tiny, -0.0, 0.0, tiny, 3.0, np.nan, -np.nan, -np.inf, np.inf]
    want = [-0.0, -0.0, -0.0, 0.0, tiny, 3.0, np.nan, -np.nan, -0.0, np.inf]
    x = np.tile(np.array(values, dtype), 1001)[None]
    relu = L.ReLU(inplace=inplace)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = relu.forward(np.repeat(x, step, axis=1)[:, ::step], False, None)
        dx = relu.backward(np.ones_like(x))
    assert out.dtype == x.dtype
    assert out.tobytes() == np.tile(np.array(want, dtype), 1001)[None].tobytes()
    assert dx.tobytes() == (x > 0).astype(dtype).tobytes()


def test_backward_without_forward_raises():
    rng = np.random.default_rng(6)
    conv = L.Conv2D(L.conv2d(2), 1, rng)
    with pytest.raises(RuntimeError):
        conv.backward(np.zeros((1, 2, 3, 3)))
    dense = L.Dense(L.dense(2), 3, rng)
    with pytest.raises(RuntimeError):
        dense.backward(np.zeros((1, 2)))


@pytest.mark.parametrize("make, shape", [
    (lambda rng: L.Conv2D(L.conv2d(2), 1, rng), (2, 1, 5, 6)),
    (lambda rng: L.MaxPool2D(L.maxpool2d()), (2, 3, 5, 6)),
    (lambda rng: L.Dense(L.dense(2), 4, rng), (2, 4)),
    (lambda rng: L.ReLU(), (2, 4)),
    (lambda rng: L.Dropout(L.dropout(0.5)), (2, 4)),
    (lambda rng: L.Flatten(), (2, 3, 4)),
])
def test_backward_after_a_forward_that_did_not_record_raises(make, shape):
    """Also when an earlier forward did record: its cache (a max-pool's
    argmax, a conv's input) is stale and must not route the gradient."""
    rng = np.random.default_rng(8)
    layer = make(rng)
    x = rng.standard_normal(shape)
    out = layer.forward(x, train=False, rng=None)
    layer.backward(np.ones_like(out))
    x2 = rng.standard_normal(shape)
    out2 = layer.forward(x2, train=False, rng=None, record=False)
    assert out2.tobytes() == layer.forward(x2, train=False, rng=None).tobytes()
    layer.forward(x2, train=False, rng=None, record=False)
    with pytest.raises(RuntimeError, match="recording forward"):
        layer.backward(np.ones_like(out2))


def test_maxpool_that_does_not_record_skips_the_argmax():
    pool = L.MaxPool2D(L.maxpool2d())
    x = np.random.default_rng(9).standard_normal((2, 3, 7, 8))
    pool.forward(x, train=False, rng=None)
    assert pool._arg is not None
    pool.forward(x, train=False, rng=None, record=False)
    assert pool._arg is None


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
       seed=st.integers(0, 2 ** 32 - 1))
def test_maxpool_is_bitwise_the_tap_loop(n, c, h, w, k, s, ceil_mode, dtype,
                                         seed):
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


def _check_pool_against_oracle(spec, x, rng):
    """A recording forward and its backward give the bytes of out, arg and
    dx of the tap-loop oracles."""
    k, s = spec.kernel, spec.stride
    oh, ow = L.output_hw(spec, *x.shape[2:])
    pool = L.MaxPool2D(spec)
    out = pool.forward(x, train=False, rng=None)
    want_out, want_arg = _oracle_pool_forward(x, k, s, oh, ow)
    assert out.dtype == want_out.dtype
    assert out.tobytes() == want_out.tobytes()
    assert pool._arg.tobytes() == want_arg.tobytes()
    dout = rng.standard_normal(out.shape).astype(x.dtype)
    dout[rng.random(out.shape) < 0.3] = -0.0
    dx = pool.backward(dout)
    want_dx = _oracle_pool_backward(dout, want_arg, x.shape, k, s)
    assert dx.dtype == want_dx.dtype and dx.shape == want_dx.shape
    assert dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("hw", [(126, 129), (32, 37)])
def test_vgg_tiny_pools_match_the_tap_loop(hw):
    """Every max-pool of vgg-tiny at both workload geometries, float32, 13
    samples of post-ReLU input (ties between small integers and at 0 of
    both signs)."""
    arch = preset("vgg-tiny", hw, 4)
    pools = [spec for spec in arch.layers if spec.kind == "maxpool2d"]
    rng = np.random.default_rng(12)
    for spec, (c, h, w) in zip(pools, conv_feature_shapes(arch)):
        shape = (13, c, h, w)
        pre = np.where(rng.random(shape) < 0.5, rng.integers(-2, 3, shape),
                       rng.standard_normal(shape)).astype(np.float32)
        _check_pool_against_oracle(spec, pre * (pre > 0), rng)


def test_maxpool_routes_non_finite_inputs():
    """Windows holding NaN, +inf and -inf: backward does not raise, and each
    window's gradient goes to one tap inside the input and the window.
    Without a NaN a window routes as the tap loop does."""
    rng = np.random.default_rng(13)
    spec = L.maxpool2d()
    x = rng.standard_normal((2, 3, 9, 10))
    u = rng.random(x.shape)
    x[u < 0.1] = np.nan
    x[(u >= 0.1) & (u < 0.2)] = np.inf
    x[(u >= 0.2) & (u < 0.3)] = -np.inf
    x[0, 0, :3, :3] = -np.inf                 # a window of -inf alone
    pool = L.MaxPool2D(spec)
    out = pool.forward(x, train=False, rng=None)
    oh, ow = out.shape[2:]
    k, s = spec.kernel, spec.stride
    want_out, want_arg = _oracle_pool_forward(x, k, s, oh, ow)
    has_nan = _oracle_pool_forward(np.isnan(x) * 1.0, k, s, oh, ow)[0] > 0
    assert has_nan.any() and (~has_nan).any()
    assert np.isnan(out[has_nan]).all()
    assert out[~has_nan].tobytes() == want_out[~has_nan].tobytes()
    assert np.array_equal(pool._arg[~has_nan], want_arg[~has_nan])
    assert np.isinf(want_out[~has_nan]).any()
    for b, ch, r, q in np.ndindex(out.shape):
        dout = np.zeros(out.shape)
        dout[b, ch, r, q] = 1.0
        dx = pool.backward(dout)
        assert dx.shape == x.shape
        hits = np.flatnonzero(dx)
        assert len(hits) == 1 and dx.flat[hits[0]] == 1.0
        hb, hc, hr, hq = np.unravel_index(hits[0], x.shape)
        assert (hb, hc) == (b, ch)
        assert s * r <= hr < s * r + k and s * q <= hq < s * q + k


@pytest.mark.parametrize("window, tap", [
    ([[1, 5, 2], [np.nan, 9, 0], [3, 3, 3]], 1),    # max of the rows above
    ([[2, 4, np.nan], [9, 9, 9], [9, 9, 9]], 1),    # left of the top row's NaN
    ([[np.nan, 4, 7], [9, 9, 9], [9, 9, 9]], 0),    # the top-left NaN itself
    ([[1, 2, 3], [4, 5, 6], [7, np.nan, 8]], 5),
])
def test_maxpool_nan_routing_is_the_documented_one(window, tap):
    """The MaxPool2D docstring's rule for a window holding a NaN."""
    pool = L.MaxPool2D(L.maxpool2d(kernel=3, stride=3))
    out = pool.forward(np.array(window).reshape(1, 1, 3, 3), False, None)
    assert np.isnan(out).all()
    assert pool._arg.item() == tap


def _oracle_conv_forward(x, W, b, k, s, p, oh, ow):
    """One tensordot per kernel tap over the whole batch."""
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    out = np.empty((x.shape[0], W.shape[0], oh, ow), dtype=x.dtype)
    out[:] = b[None, :, None, None]
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
            out += np.tensordot(W[:, :, i, j], patch, axes=([1], [1])
                                ).transpose(1, 0, 2, 3)
    return out


def _oracle_conv_backward(x, W, dout, k, s, p):
    """(gW, gb, dx) from two tensordots per kernel tap over the whole batch."""
    n, c, h, w = x.shape
    oh, ow = dout.shape[2], dout.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    dxp = np.zeros_like(xp)
    gW = np.zeros_like(W)
    gb = dout.sum(axis=(0, 2, 3))
    for i in range(k):
        for j in range(k):
            patch = xp[:, :, i:i + s * oh:s, j:j + s * ow:s]
            gW[:, :, i, j] = np.tensordot(dout, patch, axes=([0, 2, 3], [0, 2, 3]))
            dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += np.tensordot(
                W[:, :, i, j], dout, axes=([0], [1])).transpose(1, 0, 2, 3)
    return gW, gb, (dxp[:, :, p:p + h, p:p + w] if p else dxp)


def _post_relu(rng, shape, dtype):
    """Many ties at 0 of both signs, as a conv sees after a ReLU."""
    pre = rng.standard_normal(shape).astype(dtype)
    return pre * (pre > 0)


# Tolerance against the tap loops, relative to the largest magnitude of the
# oracle's result. im2col sums each output's c * k * k products in one GEMM,
# in another order than the tap loop's running sum; col2im sums each input
# gradient's products over the output channels in one GEMM per sample, and
# each weight gradient per sample, then over the samples in order. The
# largest errors measured on vgg-tiny's convs at 126x129, 32x37 and 16x17,
# batches 1 to 64, were 1.0e-6 (float32) and 2.1e-15 (float64), both in the
# weight gradient.
_CONV_RTOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}


def _assert_close_to_oracle(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= _CONV_RTOL[got.dtype] * np.abs(want).max()


def _check_conv_against_oracle(conv, x, rng):
    """Forward of `conv` on x, and the input and weight gradients of its
    backward, are the tap loops' within _CONV_RTOL; the bias gradient is
    their bytes."""
    k, s, p = conv.kernel, conv.stride, conv.pad
    out = conv.forward(x, train=False, rng=None)
    want = _oracle_conv_forward(x, conv.W, conv.b, k, s, p, *out.shape[2:])
    _assert_close_to_oracle(out, want)
    dout = rng.standard_normal(out.shape).astype(x.dtype)
    dout[rng.random(out.shape) < 0.3] = -0.0
    conv.gW[...] = 0
    conv.gb[...] = 0
    dx = conv.backward(dout)
    gW, gb, want_dx = _oracle_conv_backward(x, conv.W, dout, k, s, p)
    _assert_close_to_oracle(dx, want_dx)
    if conv.trainable:
        _assert_close_to_oracle(conv.gW, gW)
        assert conv.gb.tobytes() == gb.tobytes()
    else:
        assert not conv.gW.any() and not conv.gb.any()


def _random_conv(rng, n, ic, oc, h, w, k, s, pad, dtype):
    """A conv with a nonzero bias and a post-ReLU input for it, or None when
    the geometry collapses."""
    spec = L.conv2d(oc, kernel=k, stride=s, padding=pad)
    try:
        L.output_hw(spec, h, w)
    except ShapeError:
        return None, None
    conv = L.Conv2D(spec, ic, rng, dtype=dtype)
    conv.b[...] = rng.standard_normal(oc)
    return conv, _post_relu(rng, (n, ic, h, w), dtype)


_conv_cases = dict(
    n=st.integers(1, 3), ic=st.integers(1, 16), oc=st.integers(1, 16),
    h=st.integers(1, 9), w=st.integers(1, 9), k=st.integers(1, 4),
    s=st.integers(1, 3), pad=st.sampled_from([0, 1, 2, "same"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    block_bytes=st.sampled_from([1, 2048, L._CONV_BLOCK_BYTES]),
    seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(trainable=st.booleans(), **_conv_cases)
def test_conv_matches_the_tap_loop(n, ic, oc, h, w, k, s, pad, dtype,
                                   block_bytes, trainable, seed):
    """Any geometry, one sample per forward block up to the whole batch."""
    assume(pad != "same" or k % 2 == 1)
    rng = np.random.default_rng(seed)
    conv, x = _random_conv(rng, n, ic, oc, h, w, k, s, pad, dtype)
    assume(conv is not None)
    conv.trainable = trainable
    with mock.patch.object(L, "_CONV_BLOCK_BYTES", block_bytes):
        _check_conv_against_oracle(conv, x, rng)


@settings(max_examples=60, deadline=None)
@given(**_conv_cases)
def test_conv_forward_is_deterministic(n, ic, oc, h, w, k, s, pad, dtype,
                                       block_bytes, seed):
    """A repeated forward, a forward that does not record and each sample on
    its own all give the bytes of the first forward."""
    assume(pad != "same" or k % 2 == 1)
    rng = np.random.default_rng(seed)
    conv, x = _random_conv(rng, n, ic, oc, h, w, k, s, pad, dtype)
    assume(conv is not None)
    with mock.patch.object(L, "_CONV_BLOCK_BYTES", block_bytes):
        out = conv.forward(x, train=False, rng=None).tobytes()
        assert conv.forward(x, train=False, rng=None).tobytes() == out
        assert conv.forward(x, train=False, rng=None, record=False).tobytes() == out
        alone = [conv.forward(x[i:i + 1], train=False, rng=None) for i in range(n)]
    assert np.concatenate(alone).tobytes() == out


@settings(max_examples=60, deadline=None)
@given(**_conv_cases)
def test_conv_backward_is_deterministic(n, ic, oc, h, w, k, s, pad, dtype,
                                        block_bytes, seed):
    """A repeated backward gives the bytes of the first. Each sample's input
    gradient is the same alone as in the batch, and the weight gradient the
    same as with one sample per block."""
    assume(pad != "same" or k % 2 == 1)
    rng = np.random.default_rng(seed)
    conv, x = _random_conv(rng, n, ic, oc, h, w, k, s, pad, dtype)
    assume(conv is not None)
    dout = rng.standard_normal((n, oc, *L.output_hw(conv.spec, h, w))).astype(dtype)

    def backward(a, b):
        conv.forward(x[a:b], train=False, rng=None)
        return conv.backward(dout[a:b]).tobytes(), conv.gW.tobytes()

    with mock.patch.object(L, "_CONV_BLOCK_BYTES", block_bytes):
        dx, gW = backward(0, n)
        assert backward(0, n) == (dx, gW)
        alone = [backward(i, i + 1)[0] for i in range(n)]
    assert b"".join(alone) == dx
    with mock.patch.object(L, "_CONV_BLOCK_BYTES", 1):
        assert backward(0, n)[1] == gW


@pytest.mark.parametrize("hw, batches", [
    ((126, 129), (13, 15, 64)),
    ((32, 37), (1, 13, 15, 29, 36, 44, 64)),
    ((16, 17), (1, 13, 20, 64)),
])
def test_vgg_tiny_convs_match_the_tap_loop(hw, batches):
    """Every conv of vgg-tiny, float32, at train, eval and remainder batch
    sizes, with the real block size."""
    arch = preset("vgg-tiny", hw, 4)
    net = build(arch, seed=0, dtype=np.float32)
    rng = np.random.default_rng(11)
    c_in = arch.input_shape[0]
    hw_in = hw
    for conv, (c, oh, ow) in zip(net.conv_layers(), conv_feature_shapes(arch)):
        conv.b[...] = rng.standard_normal(c)
        for n in batches:
            _check_conv_against_oracle(conv, _post_relu(rng, (n, c_in, *hw_in),
                                                        np.float32), rng)
        c_in, hw_in = c, (oh // 2, ow // 2)   # the 3x3 stride-2 ceil pool


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

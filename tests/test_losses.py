"""Anti-transfer loss properties: the Gram oracle, hand-computed similarity
values, invariances, gradient contracts and the memory estimator."""

import numpy as np
import pytest

from antitransfer import layers as L
from antitransfer.layers import ShapeError
from antitransfer.losses import (AGGREGATIONS, ATConfig, aggregate,
                                 aggregate_with_pullback, at_loss_and_grad,
                                 at_term, cross_entropy_and_grad,
                                 estimate_memory, gram, similarity)
from antitransfer.network import ArchConfig, build, preset
from antitransfer.training import batch_objective


def squared_cosine(a, b):
    """One pair of flat vectors through the batched similarity."""
    return float(similarity(a[None], b[None])[0][0])


def at_loss(trained, pretrained, cfg):
    """Anti-transfer value against a raw pretrained map."""
    return at_loss_and_grad(trained, aggregate(pretrained, cfg.aggregation),
                            cfg)[0]


def gram_naive(feature):
    """Double-loop inner-product oracle for the Gram matrix."""
    b, c, x, y = feature.shape
    out = np.zeros((b, c, c))
    for n in range(b):
        for i in range(c):
            for j in range(c):
                out[n, i, j] = float(
                    feature[n, i].ravel() @ feature[n, j].ravel())
    return out


class TestGram:
    def test_orthonormal_channels(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 2, 1, 2)
        g = gram(f)
        assert np.allclose(g[0], np.eye(2))

    def test_single_channel(self):
        f = np.array([2.0, 2.0]).reshape(1, 1, 1, 2)
        assert np.allclose(gram(f)[0], [[8.0]])

    def test_hand_computed_two_channel(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 1, 2)
        assert np.allclose(gram(f)[0], [[5.0, 11.0], [11.0, 25.0]])

    def test_matches_naive_oracle_on_random_shapes(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            b = int(rng.integers(1, 3))
            c = int(rng.integers(1, 9))
            x = int(rng.integers(1, 6))
            y = int(rng.integers(1, 8))
            f = rng.standard_normal((b, c, x, y))
            got = gram(f)
            want = gram_naive(f)
            assert np.allclose(got, want, rtol=1e-6)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            f = rng.standard_normal((2, 5, 4, 3))
            g = gram(f)
            assert np.allclose(g, g.transpose(0, 2, 1), rtol=1e-6)
            for n in range(g.shape[0]):
                eig = np.linalg.eigvalsh(g[n])
                assert eig.min() >= -1e-6 * np.trace(g[n])

    def test_empty_spatial_extent_raises(self):
        with pytest.raises(ShapeError):
            gram(np.zeros((1, 2, 0, 3)))


class TestAggregate:
    def test_mean(self):
        f = np.array([[[1.0, 2.0]], [[3.0, 4.0]]]).reshape(1, 2, 1, 2)
        assert np.allclose(aggregate(f, "mean"), [[[2.0, 3.0]]])

    def test_max(self):
        f = np.array([[[1.0, 2.0]], [[3.0, 4.0]]]).reshape(1, 2, 1, 2)
        assert np.allclose(aggregate(f, "max"), [[[3.0, 4.0]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_pullback_is_the_scatter_at_the_channel_argmax(self, dtype):
        """The max pullback, which keeps only the argmax it took while
        aggregating, gives the bytes of zeros with the gradient put at
        `feature.argmax(axis=1)`, on a map with tied channels and a NaN
        (which argmax picks)."""
        rng = np.random.default_rng(11)
        f = rng.integers(0, 3, (3, 4, 5, 6)).astype(dtype)   # many ties
        f[1, 2, 3, 4] = np.nan
        agg, pullback = aggregate_with_pullback(f, "max")
        da = rng.standard_normal(agg.shape).astype(dtype)
        want = np.zeros_like(f)
        np.put_along_axis(want, f.argmax(axis=1)[:, None], da[:, None], axis=1)
        f[:] = 0.0   # the pullback must not read the map again
        got = pullback(da, None)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["sum", "comp_mul"])
    def test_removed_aggregations_rejected(self, kind):
        with pytest.raises(ValueError, match="aggregation must be one of"):
            ATConfig(aggregation=kind)


class TestSimilarities:
    def test_identical_vectors_give_one(self):
        a = np.array([1.0, 2.0, 3.0])
        assert squared_cosine(a, a.copy()) == pytest.approx(1.0)

    def test_orthogonal_vectors_give_zero(self):
        assert squared_cosine(np.array([1.0, 0.0]),
                              np.array([0.0, 2.0])) == pytest.approx(0.0)

    def test_hand_computed_gram_vectors(self):
        # cos = 2 / (sqrt(2) * 2) -> squared 0.5
        a = np.array([1.0, 0.0, 0.0, 1.0])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        assert squared_cosine(a, b) == pytest.approx(0.5)

    def test_degenerate_norm_rule(self):
        assert squared_cosine(np.zeros(4), np.ones(4)) == 0.0
        assert squared_cosine(np.ones(4), np.zeros(4)) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            similarity(np.zeros((1, 3)), np.zeros((1, 4)))


class TestATLoss:
    CFG = ATConfig(layers=(1,), beta=1.0)

    def test_identical_maps_give_beta(self):
        f = np.random.default_rng(0).standard_normal((3, 4, 5, 6))
        assert at_loss(f, f.copy(), self.CFG) == pytest.approx(1.0)

    def test_scale_invariance_of_trained_map(self):
        rng = np.random.default_rng(1)
        ft = rng.standard_normal((2, 4, 5, 6))
        fp = rng.standard_normal((2, 4, 5, 6))
        base = at_loss(ft, fp, self.CFG)
        assert at_loss(3.7 * ft, fp, self.CFG) == pytest.approx(base, rel=1e-9)
        assert at_loss(ft, 0.21 * fp, self.CFG) == pytest.approx(base, rel=1e-9)

    def test_beta_zero_gives_zero_loss_and_no_gradient(self):
        rng = np.random.default_rng(2)
        ft = rng.standard_normal((2, 3, 4, 4))
        fp = rng.standard_normal((2, 3, 4, 4))
        loss, grad = at_loss_and_grad(ft, gram(fp), ATConfig(layers=(1,), beta=0.0))
        assert loss == 0.0 and grad is None

    def test_bounds_and_invariances_random(self):
        """1000 random pairs: range, scaling, joint channel permutation and
        per-network spatial permutation invariance."""
        rng = np.random.default_rng(3)
        beta = 1.7
        cfg = ATConfig(layers=(1,), beta=beta)
        for _ in range(1000):
            c = int(rng.integers(1, 6))
            x = int(rng.integers(1, 5))
            y = int(rng.integers(1, 5))
            ft = rng.standard_normal((1, c, x, y))
            fp = rng.standard_normal((1, c, x, y))
            val = at_loss(ft, fp, cfg)
            assert 0.0 <= val <= beta + 1e-12
            alpha = float(rng.uniform(0.1, 10.0))
            assert at_loss(alpha * ft, fp, cfg) == pytest.approx(val, abs=1e-9)
            perm = rng.permutation(c)
            assert at_loss(ft[:, perm], fp[:, perm], cfg) == pytest.approx(
                val, abs=1e-9)
            sp = rng.permutation(x * y)
            ft_sp = ft.reshape(1, c, -1)[:, :, sp].reshape(ft.shape)
            assert at_loss(ft_sp, fp, cfg) == pytest.approx(val, abs=1e-9)

    def test_encourage_negates_penalize_gradient_exactly(self):
        rng = np.random.default_rng(4)
        ft = rng.standard_normal((2, 3, 4, 5))
        fp = rng.standard_normal((2, 3, 4, 5))
        cfg = ATConfig(layers=(1,), beta=2.0)
        lp, gp = at_loss_and_grad(ft, gram(fp), cfg, 1.0)
        le, ge = at_loss_and_grad(ft, gram(fp), cfg, -1.0)
        assert le == pytest.approx(-lp)
        assert np.array_equal(ge, -gp)

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_value_without_the_gradient_is_the_same(self, aggregation):
        rng = np.random.default_rng(5)
        ft = rng.standard_normal((3, 4, 5, 6)).astype(np.float32)
        agg = aggregate(rng.standard_normal((3, 4, 5, 6)).astype(np.float32),
                        aggregation)
        cfg = ATConfig(layers=(1,), beta=0.7, aggregation=aggregation)
        for sign in (1.0, -1.0):
            loss, grad = at_loss_and_grad(ft, agg, cfg, sign)
            assert grad is not None
            assert at_loss_and_grad(ft, agg, cfg, sign, False) == (loss, None)

    def test_shape_mismatch_is_architecture_error(self):
        # maps differing only spatially give Grams of equal shape; a channel
        # count mismatch is what reaches the loss
        with pytest.raises(ShapeError):
            at_loss_and_grad(np.zeros((1, 2, 3, 3)), gram(np.zeros((1, 3, 3, 3))),
                             self.CFG)

    def test_gram_normalization_is_immaterial_under_cosine(self):
        """Dividing both Grams by any positive constant leaves the loss
        unchanged; scaling either feature map realizes that directly."""
        rng = np.random.default_rng(5)
        ft = rng.standard_normal((1, 3, 4, 4))
        fp = rng.standard_normal((1, 3, 4, 4))
        base = at_loss(ft, fp, self.CFG)
        k = np.sqrt(17.0)   # scales each Gram by 17
        assert at_loss(k * ft, k * fp, self.CFG) == pytest.approx(base, rel=1e-9)


def tiny_net(seed):
    specs = [L.conv2d(3), L.relu(), L.maxpool2d(), L.conv2d(4), L.relu(),
             L.flatten(), L.dense(3)]
    arch = ArchConfig(layers=specs, input_shape=(1, 6, 7), n_classes=3,
                      name="tiny")
    return build(arch, seed=seed, dtype=np.float64)


class TestExtractorChannelOrder:
    """The Gram term compares channel i of the trained network with channel
    i of the extractor, so the same extractor with its channels relabelled
    gives another value; the channel-reducing aggregations do not see the
    order. This pins the property; it does not fix it."""

    def test_only_the_gram_term_depends_on_channel_order(self):
        k = 2
        arch = preset("vgg-tiny", (32, 37), 4)
        net, extractor, relabelled = (build(arch, seed=s) for s in (1, 2, 2))
        conv, after = relabelled.conv_layers()[k - 1:k + 1]
        perm = np.random.default_rng(0).permutation(conv.out_channels)
        relabelled.load_params({f"conv{k}.weight": conv.W[perm],
                                f"conv{k}.bias": conv.b[perm],
                                f"conv{k + 1}.weight": after.W[:, perm]})
        # 20 samples: more than one block of the eval forward's conv stack
        x = np.random.default_rng(1).standard_normal((20, 1, 32, 37))
        np.testing.assert_allclose(relabelled.forward(x, record=False)[0],
                                   extractor.forward(x, record=False)[0],
                                   rtol=1e-12, atol=1e-12)
        feats = extractor.tap_features(x, (k,))[k]
        moved = relabelled.tap_features(x, (k,))[k]
        np.testing.assert_allclose(moved, feats[:, perm], rtol=1e-12, atol=0)
        trained = net.tap_features(x, (k,))[k]
        for kind in AGGREGATIONS:
            cfg = ATConfig(layers=(k,), aggregation=kind)
            before, now = at_loss(trained, feats, cfg), at_loss(trained, moved, cfg)
            if kind == "gram":
                assert abs(now - before) > 0.01 * before
            else:
                assert now == pytest.approx(before, rel=1e-12), kind


class TestTotalLoss:
    """Cross-entropy, and the objective `training.batch_objective` composes
    from it and the per-layer anti-transfer terms."""

    def test_uniform_prediction_is_log_n(self):
        scores = np.zeros((2, 4))
        labels = np.array([1, 3])
        assert cross_entropy_and_grad(scores, labels)[0] == \
            pytest.approx(np.log(4.0))

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_objective_is_ce_plus_at_terms(self, aggregation):
        """batch_objective's values are cross-entropy and at_loss_and_grad's
        terms, its gradients at_term's w.r.t. the aggregates of the tapped
        maps, and a backward with them as `reduced_grad_in` gives the
        weight gradients of one with at_loss_and_grad's map gradients given
        to an identity reduction, byte for byte."""
        net, extractor = tiny_net(1), tiny_net(2)
        x = np.random.default_rng(6).standard_normal((5, 1, 6, 7))
        labels = np.array([0, 1, 2, 0, 1])
        cfg = ATConfig(layers=(1, 2), beta=0.7, aggregation=aggregation)
        aggs = {k: aggregate(f, cfg.aggregation)
                for k, f in extractor.tap_features(x, cfg.layers).items()}
        rows = np.array([4, 0, 2])
        logits, ce, at_vals, dlogits, agg_grads = batch_objective(
            net, x[rows], labels[rows], cfg, aggs, rows)
        net.backward(dlogits, reduced_grad_in=agg_grads)
        got = {n: g.copy() for n, g in net.grads.items()}
        _, tapped = net.forward(x[rows], reduce=dict.fromkeys(
            cfg.layers, lambda fmap: (fmap, lambda grad, fmap: grad)))
        want_ce, want_dlogits = cross_entropy_and_grad(logits, labels[rows])
        assert ce == want_ce and np.array_equal(dlogits, want_dlogits)
        assert list(at_vals) == list(agg_grads) == [1, 2]
        tap_grads = {}
        for k in cfg.layers:
            val, tap_grads[k] = at_loss_and_grad(tapped[k], aggs[k][rows], cfg)
            assert at_vals[k] == val > 0
            want = at_term(aggregate(tapped[k], aggregation), aggs[k][rows],
                           cfg)[1]
            assert np.array_equal(agg_grads[k], want)
        net.backward(dlogits, reduced_grad_in=tap_grads)
        for name, g in net.grads.items():
            assert g.tobytes() == got[name].tobytes(), name
        # without recording, the same values and no gradient
        _, ce_eval, at_eval, _, no_grads = batch_objective(
            net, x[rows], labels[rows], cfg, aggs, rows, record=False)
        assert (ce_eval, at_eval, no_grads) == (ce, at_vals, {})

    def test_empty_at_set_is_plain_cross_entropy(self):
        net = tiny_net(3)
        x = np.random.default_rng(6).standard_normal((5, 1, 6, 7))
        labels = np.array([0, 1, 2, 0, 1])
        logits, ce, at_vals, _, tap_grads = batch_objective(net, x, labels)
        assert np.array_equal(logits, net.forward(x)[0])
        assert ce == cross_entropy_and_grad(logits, labels)[0]
        assert at_vals == {} and tap_grads == {}

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            cross_entropy_and_grad(np.zeros((1, 3)), np.array([3]))


class TestMemoryEstimate:
    def test_vgg16_layer1_reference_figures(self):
        arch = preset("vgg16", (126, 129), 10)
        est = estimate_memory(arch, batch_size=1, at_layers=[1])
        assert est.per_layer[1]["feature_elems"] == 1 * 64 * 126 * 129 == 1040256
        assert est.per_layer[1]["gram_elems"] == 64 * 64 == 4096
        extra = 2 * (1040256 + 4096) * 4
        assert est.total_bytes == est.extractor_bytes + extra

    def test_vgg16_layer13_reference_figures(self):
        arch = preset("vgg16", (126, 129), 10)
        est = estimate_memory(arch, batch_size=1, at_layers=[13])
        assert est.per_layer[13]["feature_elems"] == 512 * 7 * 8
        assert est.per_layer[13]["gram_elems"] == 512 * 512

    def test_empty_layer_set_costs_only_the_extractor(self):
        arch = preset("vgg-tiny", (32, 33), 4)
        est = estimate_memory(arch, batch_size=13, at_layers=[])
        assert est.total_bytes == est.extractor_bytes

    def test_batch_scales_counts_linearly(self):
        arch = preset("vgg-tiny", (32, 33), 4)
        one = estimate_memory(arch, batch_size=1, at_layers=[2])
        many = estimate_memory(arch, batch_size=13, at_layers=[2])
        assert many.per_layer[2]["gram_elems"] == 13 * one.per_layer[2]["gram_elems"]
        assert many.per_layer[2]["feature_elems"] == 13 * one.per_layer[2]["feature_elems"]

    def test_extractor_bytes_counts_conv_parameters(self):
        arch = preset("vgg16", (224, 224), 1000)
        # 13 conv layers of the standard stack, weights + biases, 4 bytes each
        chans = [(1, 64), (64, 64), (64, 128), (128, 128), (128, 256),
                 (256, 256), (256, 256), (256, 512), (512, 512), (512, 512),
                 (512, 512), (512, 512), (512, 512)]
        params = sum(o * i * 9 + o for i, o in chans)
        est = estimate_memory(arch, batch_size=1, at_layers=[1])
        assert est.extractor_bytes == params * 4

    def test_invalid_layer_raises(self):
        arch = preset("vgg-tiny", (32, 33), 4)
        with pytest.raises(ValueError):
            estimate_memory(arch, batch_size=1, at_layers=[5])

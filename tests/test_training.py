"""Trainer semantics: strategy contracts, determinism, early stopping, the
frozen-extractor guarantee, dual anti-transfer plumbing, and run artifacts."""

import csv
import json
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from antitransfer import checkpoint as ck
from antitransfer import layers as L
from antitransfer import losses, network, training
from antitransfer.data import load_split_dir
from antitransfer.losses import ATConfig
from antitransfer.training import TrainConfig, evaluate
from antitransfer.network import (ArchConfig, build, conv_feature_shapes,
                                  preset)


@pytest.fixture
def eval_workers(monkeypatch):
    """Pins the number of threads a pass over blocks runs on (evaluation's
    and the conv and pool layers'): `eval_workers(n)`."""
    def pin(n):
        monkeypatch.setattr(L, "_workers", lambda: n)
    return pin


def eight_convs(input_hw, n_classes):
    """An 8-conv VGG-style architecture (32x2, 64x2, 128x2, 256x2): one
    other than vgg-tiny."""
    layers = []
    for ch in (32, 64, 128, 256):
        layers += [L.conv2d(ch), L.relu(), L.conv2d(ch), L.relu(), L.maxpool2d()]
    layers += [L.flatten(), L.dense(256), L.relu(), L.dropout(), L.dense(n_classes)]
    return ArchConfig(layers=layers, input_shape=(1, *input_hw),
                      n_classes=n_classes)


def cfg_for(strategy, checkpoint=None, layers=(2,), seed=3, epochs=3, **kw):
    checkpoints = ()
    if checkpoint is not None:
        n = 2 if strategy == "dual_at" else 1
        checkpoints = (str(checkpoint),) * n
    at = ATConfig(layers=layers, beta=kw.pop("beta", 1.0),
                  aggregation=kw.pop("aggregation", "gram"))
    return TrainConfig(strategy=strategy, pretrained_checkpoints=checkpoints,
                       at=at,
                       seed=seed, max_epochs=epochs, arch_preset="vgg-tiny",
                       **kw)


class TestConfigValidation:
    def test_at_requires_one_checkpoint(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="at")

    def test_dual_requires_two(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="dual_at", pretrained_checkpoints=("a",))

    def test_wi_requires_one(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="wi")

    @pytest.mark.parametrize("name", list(training.STRATEGIES))
    def test_checkpoint_count_is_the_tables(self, name):
        need = training.STRATEGIES[name].checkpoints
        counts = range(4) if need is None else (need,)
        for n in counts:
            TrainConfig(strategy=name, pretrained_checkpoints=("a",) * n)
        for n in () if need is None else (need - 1, need + 1):
            with pytest.raises(ValueError, match=f"requires exactly {need}"):
                TrainConfig(strategy=name, pretrained_checkpoints=("a",) * n)

    def test_fraction_sum_checked(self):
        with pytest.raises(ValueError):
            TrainConfig(split_fractions=(0.5, 0.2, 0.2))

    def test_unknown_label_field_rejected(self):
        with pytest.raises(ValueError, match="unknown label field 'bogus'"):
            TrainConfig(label_field="bogus")

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -3), ("batch_size", 2.5),
        ("max_epochs", 0), ("max_epochs", 1.5), ("patience", -1), ("lr", 0.0),
        ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
        ("seed", -1), ("seed", 1.5), ("lr", "0.1"),
        ("batch_size", True), ("max_epochs", True), ("patience", False),
        ("seed", True), ("lr", True),
        ("split_fractions", (1.5, -0.3, -0.2)),
        ("split_fractions", (1.0, 0.0, "0"))])
    def test_impossible_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("dtype", "bogus"), ("dtype", "int8"), ("dtype", "float16"),
        ("normalize_inputs", "false"), ("normalize_inputs", 0),
        ("split_policy", "bogus"), ("split_policy", "class-wise")])
    def test_unusable_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_smallest_numbers_accepted(self):
        cfg = TrainConfig(batch_size=1, max_epochs=1, patience=0, lr=1e-12,
                          seed=0, split_fractions=(1.0, 0.0, 0.0))
        assert (cfg.batch_size, cfg.max_epochs, cfg.patience, cfg.seed) == \
            (1, 1, 0, 0)

    @pytest.mark.parametrize("dtype", training.DTYPES)
    def test_float_dtypes_accepted(self, dtype):
        assert TrainConfig(dtype=dtype).dtype == dtype

    def test_round_trip(self):
        cfg = TrainConfig(strategy="scratch", seed=5,
                          at=ATConfig(layers=(1, 3), beta=0.5))
        assert TrainConfig(**cfg.to_dict()) == cfg


class TestScratch:
    def test_same_seed_identical_checkpoints(self, tiny_data_dir, tmp_path):
        data = load_split_dir(tiny_data_dir)
        a = training.train(cfg_for("scratch"), data, tmp_path / "a")
        b = training.train(cfg_for("scratch"), data, tmp_path / "b")
        assert a.network.weight_hash() == b.network.weight_hash()
        assert a.test_accuracy == b.test_accuracy

    def test_different_seed_differs(self, tiny_data_dir, tmp_path):
        data = load_split_dir(tiny_data_dir)
        a = training.train(cfg_for("scratch", seed=1), data, tmp_path / "a")
        b = training.train(cfg_for("scratch", seed=2), data, tmp_path / "b")
        assert a.network.weight_hash() != b.network.weight_hash()

    def test_artifacts_written(self, tiny_data_dir, tmp_path):
        r = training.train(cfg_for("scratch"), load_split_dir(tiny_data_dir),
                           tmp_path / "run")
        assert (tmp_path / "run" / "model.atck").exists()
        with open(tmp_path / "run" / "metrics.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "train_ce", "val_ce", "train_at", "val_at",
                           "train_acc", "val_acc", "seconds"]
        assert len(rows) - 1 == len(r.metrics)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["best_epoch"] == r.best_epoch
        assert summary["test_accuracy"] == r.test_accuracy
        assert summary["config"]["strategy"] == "scratch"

    def test_early_stopping_bounds_epochs_after_best(self, tiny_data_dir, tmp_path):
        cfg = cfg_for("scratch", epochs=12)
        r = training.train(cfg, load_split_dir(tiny_data_dir), tmp_path / "run")
        assert len(r.metrics) - 1 - r.best_epoch <= cfg.patience
        vals = [m.val_ce for m in r.metrics]
        assert r.best_epoch == int(np.argmin(vals))

    def test_checkpoint_holds_the_best_epochs_weights(self, tiny_data_dir,
                                                      tmp_path):
        """A run that stops early ends with the weights of a run that stops
        at its best epoch, in memory and in model.atck."""
        data = load_split_dir(tiny_data_dir)
        cfg = cfg_for("scratch", epochs=12, patience=2)
        stopped = training.train(cfg, data, tmp_path / "stopped")
        assert stopped.best_epoch < len(stopped.metrics) - 1 < cfg.max_epochs - 1
        at_best = training.train(replace(cfg, max_epochs=stopped.best_epoch + 1),
                                 data, tmp_path / "at_best")
        assert at_best.best_epoch == stopped.best_epoch
        want = at_best.network.weight_hash()
        assert stopped.network.weight_hash() == want
        assert ck.load(stopped.checkpoint_path).weight_hash() == want


class TestAntiTransfer:
    def test_trainer_uses_the_checked_loss(self, monkeypatch):
        """The gradient oracle checks losses.at_loss_and_grad, the
        composition of `aggregate_with_pullback` and `at_term`; training
        must call those same objects, and bind the names traced from
        outside."""
        assert training._at_term is losses.at_term
        assert training.aggregate_with_pullback is losses.aggregate_with_pullback
        assert training.aggregate is losses.aggregate
        calls = []
        for name in ("aggregate_with_pullback", "at_term"):
            def spy(*a, name=name, piece=getattr(losses, name)):
                calls.append(name)
                return piece(*a)
            monkeypatch.setattr(losses, name, spy)
        fmap = np.random.default_rng(0).random((2, 3, 4, 5))
        losses.at_loss_and_grad(fmap, losses.gram(fmap[::-1]), ATConfig())
        assert calls == ["aggregate_with_pullback", "at_term"]

    def test_extractor_precompute_stops_at_deepest_tap(self, monkeypatch):
        """The precomputed Grams are byte-equal to those of a full forward,
        and no layer past the deepest tapped conv runs."""
        extractor = build(preset("vgg-tiny", (16, 17), 4), seed=11, dtype=np.float32)
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES",
                            8 * extractor._sample_bytes)
        x = np.random.default_rng(5).standard_normal((20, 1, 16, 17)).astype(np.float32)
        at_cfg = ATConfig(layers=(1, 3))
        want = {k: [] for k in at_cfg.layers}
        for start in range(0, len(x), 8):
            _, tapped = extractor.forward(x[start:start + 8], taps=at_cfg.layers)
            for k in at_cfg.layers:
                want[k].append(losses.aggregate(tapped[k], "gram"))

        def not_reached(*args):
            raise AssertionError("layer past the deepest tap ran")
        for layer in extractor.layers[extractor.tap_positions[3] + 1:]:
            monkeypatch.setattr(layer, "forward", not_reached)
        got = training._precompute_extractor_aggs(extractor, x, at_cfg)
        assert sorted(got) == [1, 3]
        for k in at_cfg.layers:
            assert got[k].tobytes() == np.concatenate(want[k]).tobytes()

    def test_beta_zero_is_bitwise_scratch(self, tiny_data_dir, orth_checkpoint,
                                          tmp_path):
        data = load_split_dir(tiny_data_dir)
        scratch = training.train(cfg_for("scratch"), data, tmp_path / "s")
        at0 = training.train(cfg_for("at", orth_checkpoint, beta=0.0), data,
                             tmp_path / "a")
        assert at0.network.weight_hash() == scratch.network.weight_hash()
        for (ma, mb) in zip(scratch.metrics, at0.metrics):
            assert ma.train_ce == mb.train_ce
            assert mb.train_at == 0.0

    def test_a_zero_weight_term_aggregates_no_map(self, monkeypatch):
        """With beta 0 the network reduces no map for the term, which is 0
        with no gradient, and the backward runs without one."""
        net = build(preset("vgg-tiny", (32, 37), 4), seed=0, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal(
            (3, 1, 32, 37)).astype(np.float32)
        at_cfg = ATConfig(layers=(1, 2), beta=0.0)
        aggs = training._precompute_extractor_aggs(
            build(net.arch, seed=1, dtype=np.float32), x, at_cfg)

        def not_called(*a, **kw):
            raise AssertionError("a zero-weight term aggregated a map")
        monkeypatch.setattr(training, "aggregate_with_pullback", not_called)
        _, _, at_vals, dlogits, agg_grads = training.batch_objective(
            net, x, np.arange(3), at_cfg, aggs)
        assert at_vals == {1: 0.0, 2: 0.0} and agg_grads == {}
        net.backward(dlogits, reduced_grad_in=agg_grads)

    def test_every_aggregation_changes_training(self, tiny_data_dir,
                                                orth_checkpoint, tmp_path):
        """Each accepted aggregation trains weights of its own: none is
        inert (scratch's weights) or a duplicate of another."""
        data = load_split_dir(tiny_data_dir)
        hashes = {"scratch": training.train(cfg_for("scratch", epochs=2), data,
                                            tmp_path / "scratch"
                                            ).network.weight_hash()}
        for kind in losses.AGGREGATIONS:
            cfg = cfg_for("at", orth_checkpoint, epochs=2, aggregation=kind)
            hashes[kind] = training.train(cfg, data, tmp_path / kind
                                          ).network.weight_hash()
        assert len(set(hashes.values())) == len(hashes), hashes

    def test_extractor_untouched_by_training(self, tiny_data_dir,
                                             orth_checkpoint, tmp_path):
        r = training.train(cfg_for("at", orth_checkpoint),
                           load_split_dir(tiny_data_dir), tmp_path / "run")
        assert r.summary["extractor_hash_before"] == r.summary["extractor_hash_after"]
        assert r.summary["extractor_hash_before"] is not None

    def test_at_metrics_are_positive_and_recorded(self, tiny_data_dir,
                                                  orth_checkpoint, tmp_path):
        r = training.train(cfg_for("at", orth_checkpoint),
                           load_split_dir(tiny_data_dir), tmp_path / "run")
        assert all(m.train_at >= 0.0 for m in r.metrics)
        assert any(m.train_at > 0.0 for m in r.metrics)
        assert all(0.0 <= m.train_at_per_layer[2] <= 1.0 for m in r.metrics)

    def test_metrics_csv_has_a_column_pair_per_at_layer(self, tiny_data_dir,
                                                        orth_checkpoint, tmp_path):
        r = training.train(cfg_for("at", orth_checkpoint, layers=(3, 1)),
                           load_split_dir(tiny_data_dir), tmp_path / "run")
        with open(tmp_path / "run" / "metrics.csv") as f:
            header, *rows = list(csv.reader(f))
        assert header == [*training.EpochMetrics.CSV_COLUMNS, "train_at_3",
                          "val_at_3", "train_at_1", "val_at_1"]
        assert len(rows) == len(r.metrics)
        for row, m in zip(rows, r.metrics):
            got = dict(zip(header, row))
            for k in (1, 3):
                assert got[f"train_at_{k}"] == f"{m.train_at_per_layer[k]:.6f}"
                assert got[f"val_at_{k}"] == f"{m.val_at_per_layer[k]:.6f}"
            for split in ("train", "val"):
                per_layer = getattr(m, f"{split}_at_per_layer")
                assert got[f"{split}_at"] == \
                    f"{per_layer[3] + per_layer[1]:.6f}"
            assert float(got["train_at_1"]) > 0.0 and float(got["val_at_3"]) > 0.0

    def test_at_inverse_records_negative_terms(self, tiny_data_dir,
                                               orth_checkpoint, tmp_path):
        r = training.train(cfg_for("at_inverse", orth_checkpoint),
                           load_split_dir(tiny_data_dir), tmp_path / "run")
        assert all(m.train_at <= 0.0 for m in r.metrics)
        # the strategy is the one spelling of the sign, and runs record it
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["strategy"] == "at_inverse"
        assert ck.load(r.checkpoint_path).provenance["strategy"] == \
            "at_inverse"

    def test_validation_cross_entropy_alone_selects_the_epoch(
            self, tiny_data_dir, orth_checkpoint, tmp_path, monkeypatch):
        """With scripted validation losses whose cross-entropy is lowest at
        epoch 2 and whose cross-entropy plus anti-transfer term is lowest
        at epoch 3, the run stops one epoch after epoch 2 (patience 1) and
        keeps epoch 2: in its result, summary.json and model.atck."""
        script = [(1.0, 0.5), (0.9, 0.4), (0.8, 0.3), (0.85, 0.1), (0.95, 0.2)]

        def run(name, epochs):
            values = iter([(ce, 0.5, {2: at}) for ce, at in script])
            monkeypatch.setattr(training, "_eval_losses",
                                lambda *args: next(values))
            return training.train(cfg_for("at", orth_checkpoint, epochs=epochs,
                                          patience=1),
                                  load_split_dir(tiny_data_dir), tmp_path / name)

        r = run("stopped", epochs=6)
        totals = [ce + at for ce, at in script]
        assert int(np.argmin(totals)) == 3
        assert r.best_epoch == 2 and len(r.metrics) == 4
        assert [m.val_ce for m in r.metrics] == [ce for ce, _ in script[:4]]
        summary = json.loads((tmp_path / "stopped" / "summary.json").read_text())
        assert summary["best_epoch"] == 2 and summary["epochs_run"] == 4
        at_best = run("at_best", epochs=3)
        assert at_best.best_epoch == 2
        want = at_best.network.weight_hash()
        assert r.network.weight_hash() == want
        assert ck.load(r.checkpoint_path).weight_hash() == want

    def test_incompatible_extractor_rejected(self, tiny_data_dir, tmp_path):
        other = build(eight_convs((16, 17), 4), seed=0, dtype=np.float32)
        ck.save(other, tmp_path / "other.atck")
        with pytest.raises(ck.FingerprintMismatchError):
            training.train(cfg_for("at", tmp_path / "other.atck"),
                           load_split_dir(tiny_data_dir), tmp_path / "run")


class TestWeightInit:
    def test_wi_starts_from_source_convs(self, tiny_data_dir, orth_checkpoint,
                                          tmp_path):
        r = training.train(cfg_for("wi", orth_checkpoint, epochs=1),
                           load_split_dir(tiny_data_dir), tmp_path / "run")
        assert r.summary["config"]["strategy"] == "wi"

    def test_wi_freeze_keeps_prefix_bitwise(self, tiny_data_dir,
                                            orth_checkpoint, tmp_path):
        r = training.train(cfg_for("wi_freeze", orth_checkpoint, layers=(2,)),
                           load_split_dir(tiny_data_dir), tmp_path / "run")
        source = ck.load(orth_checkpoint)
        for i, (s, t) in enumerate(zip(source.conv_layers(),
                                       r.network.conv_layers()), start=1):
            if i <= 2:
                assert np.array_equal(s.W, t.W), f"conv{i} changed while frozen"
                assert np.array_equal(s.b, t.b)
            else:
                assert not np.array_equal(s.W, t.W), f"conv{i} never trained"


class TestDualAT:
    def test_dual_at_stage_plumbing(self, tiny_data_dir, orth_checkpoint,
                                    tmp_path):
        r = training.train(cfg_for("dual_at", orth_checkpoint, epochs=2),
                           load_split_dir(tiny_data_dir), tmp_path / "run")
        inter = ck.load(tmp_path / "run" / "intermediate" / "model.atck")
        final_init = ck.load(tmp_path / "run" / "final_init.atck")
        for a, b in zip(inter.conv_layers(), final_init.conv_layers()):
            assert np.array_equal(a.W, b.W)
            assert np.array_equal(a.b, b.b)
        assert r.summary["extractor_hash_before"] == r.summary["extractor_hash_after"]
        hashes = r.summary["intermediate_extractor_hashes"]
        assert hashes["before"] == hashes["after"]

    def test_dual_at_records_itself(self, tiny_data_dir, orth_checkpoint,
                                    tmp_path):
        """The run's record names dual_at and both checkpoints; stage 1 is
        an `at` run against the first, stage 2 trains against the second."""
        other = ck.load(orth_checkpoint)
        for conv in other.conv_layers():
            conv.W *= -1.0
        ck.save(other, tmp_path / "b.atck", provenance=other.provenance)
        pair = [str(orth_checkpoint), str(tmp_path / "b.atck")]
        cfg = cfg_for("dual_at", orth_checkpoint, epochs=1)
        r = training.train(replace(cfg, pretrained_checkpoints=tuple(pair)),
                           load_split_dir(tiny_data_dir), tmp_path / "run")
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["strategy"] == "dual_at"
        assert summary["config"]["pretrained_checkpoints"] == pair
        for name in ("model.atck", "final_init.atck"):
            assert ck.load(tmp_path / "run" / name).provenance["strategy"] == \
                "dual_at"
        inter = tmp_path / "run" / "intermediate"
        assert ck.load(inter / "model.atck").provenance["strategy"] == "at"
        inter_summary = json.loads((inter / "summary.json").read_text())
        assert inter_summary["config"]["pretrained_checkpoints"] == pair[:1]
        assert inter_summary["extractor_hash_before"] == \
            ck.load(pair[0]).weight_hash()
        assert r.summary["extractor_hash_before"] == other.weight_hash()


class TestPretrainAndEvaluate:
    def test_pretrain_provenance(self, orth_data_dir, tmp_path):
        cfg = TrainConfig(strategy="scratch", label_field="orth1",
                          task_name="orth-texture", seed=7, max_epochs=2,
                          arch_preset="vgg-tiny")
        r = training.train(cfg, load_split_dir(orth_data_dir), tmp_path / "pre")
        net = ck.load(r.checkpoint_path)
        assert net.provenance["task"] == "orth-texture"
        assert net.provenance["seed"] == 7
        assert net.provenance["epoch"] == r.best_epoch

    def test_pretrain_same_seed_identical(self, orth_data_dir, tmp_path):
        cfg = TrainConfig(strategy="scratch", label_field="orth1", seed=7,
                          max_epochs=2, arch_preset="vgg-tiny")
        data = load_split_dir(orth_data_dir)
        a = training.train(cfg, data, tmp_path / "a")
        b = training.train(cfg, data, tmp_path / "b")
        assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()

    def test_confusion_rows_sum_to_class_counts(self, tiny_data_dir, tmp_path):
        data = load_split_dir(tiny_data_dir)
        r = training.train(cfg_for("scratch"), data, tmp_path / "run")
        labels = data["test"].target_ids
        counts = np.bincount(labels, minlength=4)
        assert np.array_equal(r.confusion.sum(axis=1), counts)

    def test_random_weights_score_near_chance(self, tiny_data_dir):
        data = load_split_dir(tiny_data_dir)
        accs = []
        for seed in range(8):
            net = build(preset("vgg-tiny", (16, 17), 4), seed=seed,
                        dtype=np.float32)
            acc, _ = evaluate(net, data["test"].x.astype(np.float32),
                              data["test"].target_ids)
            accs.append(acc)
        assert abs(np.mean(accs) - 0.25) < 0.15


def _peak_bytes(run):
    """tracemalloc's peak during a second call of `run`."""
    run()   # first call outside the trace
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _row_of(part, whole):
    """The row of `whole` that equals `part`'s first row; there must be one."""
    rows = [i for i in range(len(whole)) if whole[i].tobytes() == part[0].tobytes()]
    assert len(rows) == 1
    return rows[0]


def _conv1_blocks(net, x, monkeypatch):
    """(start, length) of each block of `x` that conv 1's forward is called
    with from now on, and the thread it ran on, in completion order."""
    conv1 = net.conv_layers()[0]
    seen, forward = [], conv1.forward

    def record(xb, *a, **kw):
        seen.append((_row_of(xb, x), len(xb), threading.current_thread()))
        return forward(xb, *a, **kw)
    monkeypatch.setattr(conv1, "forward", record)
    return seen


class TestForwardWithoutRecording:
    def test_eval_loops_run_blocks_of_sample_block_samples(self, monkeypatch,
                                                            eval_workers):
        """evaluate, _eval_losses and the extractor precompute each hand the
        network the whole batch in one pass, which it runs over blocks of
        `sample_block` samples (13 = 5 + 5 + 3), here on two threads;
        `_at_term` scores each layer once, over all 13 rows. The aggregates
        it scores and the maps they aggregate keep the bytes of a
        whole-batch recording forward's; confusion and accuracy equal its,
        and the cross-entropy and anti-transfer terms agree within rtol
        1e-6."""
        eval_workers(2)
        hw = (32, 37)
        net = build(preset("vgg-tiny", hw, 4), seed=3, dtype=np.float32)
        extractor = build(preset("vgg-tiny", hw, 4), seed=4, dtype=np.float32)
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 5 * net._sample_bytes)
        assert net.sample_block == extractor.sample_block == 5
        x = np.random.default_rng(5).standard_normal((13, 1, *hw)).astype(np.float32)
        y = np.arange(13) % 4
        at_cfg = ATConfig(layers=(1, 3), beta=1.0)
        logits, taps = net.forward(x, taps=at_cfg.layers)
        _, ext_taps = extractor.forward(x, taps=at_cfg.layers)
        want_aggs = {k: losses.aggregate(f, at_cfg.aggregation)
                     for k, f in ext_taps.items()}
        # (layer, first row, aggregates) per anti-transfer term scored; the
        # layer is told by the Gram's shape, the row by the extractor
        # aggregates'
        layer_of = {a.shape[1:]: k for k, a in want_aggs.items()}
        scored, at_term = [], training._at_term

        def score(agg, agg_rows, *a):
            k = layer_of[agg.shape[1:]]
            scored.append((k, _row_of(agg_rows, want_aggs[k]), agg))
            return at_term(agg, agg_rows, *a)
        monkeypatch.setattr(training, "_at_term", score)
        seen = [_conv1_blocks(n, x, monkeypatch) for n in (net, extractor)]
        passes, map_blocks = [], network._map_blocks

        def spy(fn, n, block):
            passes.append((n, block))
            return map_blocks(fn, n, block)
        monkeypatch.setattr(network, "_map_blocks", spy)

        def one_pass(run):
            """run(), which must map the blocks of its 13 samples once."""
            passes.clear()
            out = run()
            assert passes == [(13, 5)], run
            return out

        aggs = one_pass(lambda: training._precompute_extractor_aggs(
            extractor, x, at_cfg))
        val_ce, val_acc, val_at = one_pass(
            lambda: training._eval_losses(net, x, y, at_cfg, aggs))
        acc, confusion = one_pass(lambda: evaluate(net, x, y))
        blocks = [(0, 5), (5, 5), (10, 3)]
        assert sorted(b[:2] for b in seen[0]) == sorted(blocks * 2)
        assert sorted(b[:2] for b in seen[1]) == blocks
        for k in at_cfg.layers:
            assert aggs[k].tobytes() == want_aggs[k].tobytes()
            parts = [(row, agg) for layer, row, agg in scored if layer == k]
            assert [(row, len(agg)) for row, agg in parts] == [(0, 13)]
            got = parts[0][1]
            assert got.tobytes() == losses.aggregate(
                taps[k], at_cfg.aggregation).tobytes()
            np.testing.assert_allclose(
                val_at[k], losses.at_loss_and_grad(taps[k], want_aggs[k],
                                                   at_cfg)[0], rtol=1e-6)
        want_confusion = np.zeros((4, 4), dtype=np.int64)
        np.add.at(want_confusion, (y, logits.argmax(axis=1)), 1)
        assert np.array_equal(confusion, want_confusion)
        assert acc == val_acc == np.trace(want_confusion) / len(x)
        np.testing.assert_allclose(
            val_ce, losses.cross_entropy_and_grad(logits, y)[0], rtol=1e-6)

    def test_outputs_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                        eval_workers):
        """evaluate, _eval_losses and the extractor precompute give the same
        bytes on 1, 2 and 3 threads, over 7 blocks (13 = 6 x 2 + 1), which
        neither 2 nor 3 divides; with threads switching every 10 us."""
        hw = (32, 37)
        net = build(preset("vgg-tiny", hw, 4), seed=5, dtype=np.float32)
        extractor = build(preset("vgg-tiny", hw, 4), seed=6, dtype=np.float32)
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 2 * net._sample_bytes)
        x = np.random.default_rng(9).standard_normal((13, 1, *hw)).astype(np.float32)
        y = np.arange(13) % 4
        at_cfg = ATConfig(layers=(2, 4), beta=1.0)

        def outputs():
            aggs = training._precompute_extractor_aggs(extractor, x, at_cfg)
            acc, confusion = evaluate(net, x, y)
            return ({k: a.tobytes() for k, a in aggs.items()},
                    training._eval_losses(net, x, y, at_cfg, aggs, sign=-1.0),
                    acc, confusion.tolist())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = {}
            for n in (1, 2, 3):
                eval_workers(n)
                got[n] = outputs()
        finally:
            sys.setswitchinterval(interval)
        assert got[1] == got[2] == got[3]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("fails", [None, 0, -1])
    @pytest.mark.parametrize("run", ["evaluate", "_eval_losses",
                                     "_precompute_extractor_aggs"])
    def test_no_thread_outlives_a_pass(self, run, fails, monkeypatch,
                                       eval_workers):
        """On two threads, each pass runs blocks on both and joins the pool
        before it returns, or raises from a block on either thread."""
        eval_workers(2)
        net = build(preset("vgg-tiny", (32, 37), 4), seed=2, dtype=np.float32)
        net.conv_layers()[0].W[0] = 1.0   # 1e38 in a sample overflows conv 1
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 2 * net._sample_bytes)
        x = np.random.default_rng(7).standard_normal((8, 1, 32, 37)).astype(np.float32)
        if fails is not None:
            x[fails] = 1e38
        y = np.arange(8) % 4
        at_cfg = ATConfig(layers=(1,), beta=1.0)
        aggs = {1: np.ones((8, 16, 16), np.float32)}
        call = {"evaluate": lambda: evaluate(net, x, y),
                "_eval_losses": lambda: training._eval_losses(net, x, y,
                                                              at_cfg, aggs),
                "_precompute_extractor_aggs":
                    lambda: training._precompute_extractor_aggs(net, x, at_cfg),
                }[run]
        seen = _conv1_blocks(net, x, monkeypatch)
        if fails is None:
            call()
        else:
            with pytest.raises(L.NonFiniteError, match="after conv1$"):
                call()
        threads = {thread for _, _, thread in seen}
        assert threading.current_thread() in threads and len(threads) == 2
        assert not any(t.is_alive() for t in threads
                       if t is not threading.current_thread())

    def test_one_cpu_runs_every_block_on_the_caller_in_order(self, monkeypatch):
        """With one CPU in the affinity mask no thread starts: the blocks
        run on the calling thread, in order."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert L._workers() == 1
        net = build(preset("vgg-tiny", (32, 37), 4), seed=3, dtype=np.float32)
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 3 * net._sample_bytes)
        x = np.random.default_rng(5).standard_normal((10, 1, 32, 37)).astype(np.float32)
        seen = _conv1_blocks(net, x, monkeypatch)
        started = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", None)  # no thread starts
        evaluate(net, x, np.arange(10) % 4)
        assert threading.active_count() == started
        assert seen == [(a, min(3, 10 - a), threading.current_thread())
                        for a in (0, 3, 6, 9)]

    def test_precompute_and_validation_never_hold_a_whole_batch_map(
            self, eval_workers):
        """With the anti-transfer tap at conv 1 at 126x129, the extractor
        precompute of 39 samples peaks below a quarter of their conv 1 map
        (40 MB), and validation of 13 below theirs (13.5 MB): each block's
        maps are reduced before the next block runs."""
        eval_workers(2)
        hw = (126, 129)
        net = build(preset("vgg-tiny", hw, 4), seed=0, dtype=np.float32)
        extractor = build(preset("vgg-tiny", hw, 4), seed=1, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal((39, 1, *hw)).astype(np.float32)
        y = np.arange(39) % 4
        at_cfg = ATConfig(layers=(1,), beta=1.0)
        c, h, w = conv_feature_shapes(net.arch)[0]
        sample_map = c * h * w * x.itemsize
        assert _peak_bytes(lambda: training._precompute_extractor_aggs(
            extractor, x, at_cfg)) < len(x) * sample_map / 4
        x, y = x[:13], y[:13]
        aggs = training._precompute_extractor_aggs(extractor, x, at_cfg)
        assert _peak_bytes(lambda: training._eval_losses(
            net, x, y, at_cfg, aggs)) < len(x) * sample_map

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_evaluation_names_the_lowest_layer_any_sample_fails_at(
            self, monkeypatch, eval_workers):
        """Sample 0 overflows only at conv 2, the last sample at conv 1.
        Over blocks of one sample, evaluation names conv 1, as a forward of
        the whole batch does: it is one such forward."""
        net = build(preset("vgg-tiny", (32, 37), 4), seed=2, dtype=np.float32)
        for conv in net.conv_layers()[:2]:
            conv.W[0] = 1.0
        x = np.random.default_rng(7).standard_normal((6, 1, 32, 37)).astype(np.float32)
        x[0] += np.float32(1e37)
        x[-1] = 1e38
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 1)
        eval_workers(2)
        with pytest.raises(L.NonFiniteError, match="after conv1$"):
            evaluate(net, x, np.arange(6) % 4)
        with pytest.raises(L.NonFiniteError, match="after conv1$"):
            net.forward(x, record=False)

    def test_eval_forward_holds_conv1_output_once(self, eval_workers):
        """An eval batch peaks below two whole-batch conv 1 outputs. Its
        blocks of samples keep that peak low: it never holds conv 1's
        output for the whole batch (with or without the in-place ReLU)."""
        eval_workers(2)
        net = build(preset("vgg-tiny", (126, 129), 4), seed=0, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal(
            (8, 1, 126, 129)).astype(np.float32)
        labels = np.arange(8) % 4
        peak = _peak_bytes(lambda: evaluate(net, x, labels))
        c, h, w = conv_feature_shapes(net.arch)[0]
        assert peak < 2 * 8 * c * h * w * x.itemsize

    def test_eval_batch_peaks_below_a_quarter_of_conv1s_map(self,
                                                            eval_workers):
        """Evaluation runs in cache-sized blocks of samples: evaluating 64
        spectrograms at 126x129 never holds a whole-batch conv 1 map
        (64 MB), nor a quarter of one."""
        eval_workers(2)
        net = build(preset("vgg-tiny", (126, 129), 4), seed=0, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal(
            (64, 1, 126, 129)).astype(np.float32)
        labels = np.arange(64) % 4
        tracemalloc.start()
        try:
            evaluate(net, x, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c, h, w = conv_feature_shapes(net.arch)[0]
        assert peak < 16e6 < len(x) * c * h * w * x.itemsize / 4

    def test_evaluation_gives_the_bytes_of_a_recording_forward(
            self, tiny_data_dir, orth_checkpoint, monkeypatch, eval_workers):
        """evaluate, _eval_losses and tap_features keep nothing for a
        backward, and their outputs equal a recording forward's. Recording
        forwards must run alone: the reference runs on one thread."""
        data = load_split_dir(tiny_data_dir)
        x = data["val"].x.astype(np.float32)
        y = data["val"].labels_for("target")
        net = build(preset("vgg-tiny", x.shape[2:],
                           data["train"].classes_for("target")),
                    seed=1, dtype=np.float32)
        extractor = ck.load(orth_checkpoint)
        at_cfg = ATConfig(layers=(1, 3), beta=1.0)
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 7 * net._sample_bytes)
        # the last recording forward below is validation's, over the split
        dlogits = np.ones((len(x), net.arch.n_classes), np.float32)

        _, recorded = extractor.forward(x, taps=at_cfg.layers)
        feats = extractor.tap_features(x, at_cfg.layers)
        for k in at_cfg.layers:
            assert feats[k].tobytes() == recorded[k].tobytes()
        with pytest.raises(RuntimeError, match="recording forward"):
            extractor.backward(np.ones((len(x), extractor.arch.n_classes)))

        logits, _ = net.forward(x, record=False)
        assert logits.tobytes() == net.forward(x)[0].tobytes()

        aggs = {k: losses.aggregate(f, at_cfg.aggregation)
                for k, f in feats.items()}
        eval_workers(2)
        got = (evaluate(net, x, y, batch_size=7),
               training._eval_losses(net, x, y, at_cfg, aggs))
        with pytest.raises(RuntimeError, match="recording forward"):
            net.backward(dlogits)
        forward = type(net).forward
        monkeypatch.setattr(net, "forward", lambda *a, **kw: forward(
            net, *a, **{**kw, "record": True}))
        eval_workers(1)
        want = (evaluate(net, x, y, batch_size=7),
                training._eval_losses(net, x, y, at_cfg, aggs))
        net.backward(dlogits)
        assert got[0][0] == want[0][0]
        assert np.array_equal(got[0][1], want[0][1])
        assert got[1] == want[1]


def identity(fmap):
    """A reduction that keeps the whole map, and its pullback: a test's way
    to add a gradient of the map itself at a tap."""
    return fmap, lambda grad: grad


def _step(net, x, at_layer=1):
    """One recording forward and backward with an anti-transfer gradient
    injected at `at_layer`."""
    logits, taps = net.forward(x, train=True, rng=np.random.default_rng(1),
                               reduce={at_layer: identity})
    net.backward(np.ones_like(logits) / len(x),
                 reduced_grad_in={at_layer: taps[at_layer] * 1e-3})


class TestTrainingStepOverBlocks:
    """A training step runs each block of `sample_block` samples through the
    whole conv stack, forward and then backward, on every CPU
    (`layers._map_blocks`)."""

    @pytest.mark.parametrize("aggregation", losses.AGGREGATIONS)
    @pytest.mark.parametrize("strategy", ["at", "at_inverse"])
    def test_run_bytes_do_not_depend_on_blocks_or_workers(
            self, strategy, aggregation, tiny_data_dir, orth_checkpoint,
            tmp_path, monkeypatch, eval_workers):
        """An `at` or `at_inverse` run, under each aggregation, gives the
        weights and metrics.csv (but its seconds) of a run whose every
        batch is one block, over blocks of 1, 2 and 5 samples on 1, 2 and 3
        threads switching every 10 us. Validation scores the whole split in
        one pass, so its val_ce keeps its bytes too."""
        data = load_split_dir(tiny_data_dir)
        cfg = cfg_for(strategy, orth_checkpoint, layers=(1, 2), epochs=2,
                      aggregation=aggregation)
        sample_bytes = build(preset("vgg-tiny", (16, 17), 4),
                             dtype=np.float32)._sample_bytes

        def run(tag):
            """(weights, metrics.csv but seconds)"""
            result = training.train(cfg, data, tmp_path / tag)
            with open(tmp_path / tag / "metrics.csv") as f:
                rows = [row[:7] + row[8:] for row in csv.reader(f)]
            return result.network.weight_hash(), rows

        assert network._STACK_BLOCK_BYTES // sample_bytes >= cfg.batch_size
        want = run("one-block")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for block in (1, 2, 5):
                monkeypatch.setattr(network, "_STACK_BLOCK_BYTES",
                                    block * sample_bytes)
                got = []
                for workers in (1, 2, 3):
                    eval_workers(workers)
                    got.append(run(f"b{block}w{workers}"))
                    assert got[-1] == got[0], (block, workers)
                assert got[0] == want, block
        finally:
            sys.setswitchinterval(interval)

    def test_step_tensors_do_not_depend_on_blocks_or_workers(
            self, monkeypatch, eval_workers):
        """Every layer's whole-batch output and input gradient of one step,
        each pool's argmax and each weight and bias gradient equal those of
        a single block, over blocks of 1, 2 and 5 of 13 samples on 1, 2 and
        3 threads. A stack layer's whole-batch tensors are assembled in
        sample order from the calls of the blocks' copies of it."""
        net = build(preset("vgg-tiny", (32, 37), 4), seed=3, dtype=np.float32)
        x = np.random.default_rng(2).standard_normal((13, 1, 32, 37)).astype(np.float32)
        # (direction, whether the call ran outside the blocks, index of the
        # call in its block or outside them) -> [(first row of the call's
        # block, [output, argmax of a pool forward])]
        seen, block = {}, threading.local()
        map_blocks = network._map_blocks

        def spy_map(fn, n, size):
            def run(rows):
                block.start, block.calls = rows.start, 0
                try:
                    return fn(rows)
                finally:
                    block.start = None
            return map_blocks(run, n, size)
        monkeypatch.setattr(network, "_map_blocks", spy_map)
        head_calls = {}
        for cls in {type(layer) for layer in net.layers}:
            for method in ("forward", "backward"):
                def spy(layer, *a, call=getattr(cls, method), method=method, **kw):
                    out = call(layer, *a, **kw)
                    start = getattr(block, "start", None)
                    if start is None:
                        index = head_calls[method] = head_calls.get(method, -1) + 1
                    else:
                        index, block.calls = block.calls, block.calls + 1
                    # copied now: an in-place ReLU overwrites it next
                    got = [out.copy()]
                    if method == "forward" and isinstance(layer, L.MaxPool2D):
                        got.append(layer._arg.copy())
                    seen.setdefault((method, start is None, index), []).append(
                        (start or 0, got))
                    return out
                monkeypatch.setattr(cls, method, spy)

        def tensors():
            seen.clear()
            head_calls.clear()
            _step(net, x)
            whole = {}
            for key, calls in seen.items():
                calls.sort(key=lambda call: call[0])
                whole[key] = [np.concatenate(parts).tobytes()
                              for parts in zip(*(got for _, got in calls))]
            return whole, [(name, g.tobytes()) for name, g in sorted(net.grads.items())]

        assert net.sample_block >= len(x)
        want = tensors()
        assert len(want[0]) == 2 * len(net.layers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for size in (1, 2, 5):
                monkeypatch.setattr(network, "_STACK_BLOCK_BYTES",
                                    size * net._sample_bytes)
                assert net.sample_block == size
                for workers in (1, 2, 3):
                    eval_workers(workers)
                    assert tensors() == want, (size, workers)
        finally:
            sys.setswitchinterval(interval)

    def test_a_step_maps_its_blocks_once_per_pass(self, monkeypatch):
        """A 13x126x129 step (blocks of 2 samples) runs its forward's stack
        in one `_map_blocks` call over all 7 blocks, and its backward in one
        more; the head and the losses run on no block."""
        net = build(preset("vgg-tiny", (126, 129), 4), seed=0, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal((13, 1, 126, 129)).astype(np.float32)
        assert net.sample_block == 2
        calls, map_blocks = [], network._map_blocks

        def spy(fn, n, block):
            calls.append((n, block))
            return map_blocks(fn, n, block)
        monkeypatch.setattr(network, "_map_blocks", spy)
        logits, taps = net.forward(x, train=True, rng=np.random.default_rng(1),
                                   reduce={1: identity})
        assert calls == [(13, 2)]
        net.backward(np.ones_like(logits) / len(x),
                     reduced_grad_in={1: taps[1] * 1e-3})
        assert calls == [(13, 2)] * 2

    @pytest.mark.parametrize("fails", [None, 0, -1])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_no_thread_outlives_a_step(self, direction, fails, monkeypatch,
                                       eval_workers):
        """On two threads, each of a step's two passes runs blocks on the
        caller and a pool thread, and joins the pool before it returns, or
        raises from a block of either share (sample 0 on the caller's, the
        last sample on the pool's)."""
        eval_workers(2)
        net = build(preset("vgg-tiny", (32, 37), 4), seed=2, dtype=np.float32)
        monkeypatch.setattr(network, "_STACK_BLOCK_BYTES", 2 * net._sample_bytes)
        x = np.random.default_rng(7).standard_normal((8, 1, 32, 37)).astype(np.float32)
        rng = np.random.default_rng(0)
        logits, taps = net.forward(x, train=True, rng=rng, reduce={1: identity})
        threads, map_blocks = set(), network._map_blocks

        def spy(fn, n, block):
            def run(rows):
                threads.add(threading.current_thread())
                if fails is not None and rows.start <= range(n)[fails] < rows.stop:
                    raise RuntimeError("block failed")
                return fn(rows)
            return map_blocks(run, n, block)
        monkeypatch.setattr(network, "_map_blocks", spy)
        if direction == "forward":
            call = lambda: net.forward(x, train=True, rng=rng,
                                       reduce={1: identity})
        else:
            call = lambda: net.backward(np.ones_like(logits),
                                        reduced_grad_in={1: taps[1]})
        if fails is None:
            call()
        else:
            with pytest.raises(RuntimeError, match="block failed"):
                call()
        others = threads - {threading.current_thread()}
        assert threading.current_thread() in threads and others
        assert not any(t.is_alive() for t in others)

    def test_a_step_at_126x129_peaks_below_the_layer_by_layer_step(
            self, eval_workers):
        """A recording forward of 13x126x129 float32 through vgg-tiny with
        the anti-transfer tap at conv 1, on two threads (blocks of 2
        samples), peaks below 37.0 MB, and the forward and backward of the
        step below 69.2 MB: the peaks when each conv and pool layer ran its
        own pass over the blocks. Each block now keeps its maps to itself
        and writes only the batch's tapped map and stack output."""
        eval_workers(2)
        net = build(preset("vgg-tiny", (126, 129), 4), seed=0, dtype=np.float32)
        assert net.sample_block == 2
        x = np.random.default_rng(0).standard_normal(
            (13, 1, 126, 129)).astype(np.float32)
        assert _peak_bytes(lambda: net.forward(
            x, train=True, rng=np.random.default_rng(1), taps=(1,))) < 37.0e6
        assert _peak_bytes(lambda: _step(net, x)) < 69.2e6

    # aggregation -> tracemalloc's peak in MB of the step below when the
    # term ran over a whole-batch tapped map and tap gradient
    WHOLE_BATCH_TERM_PEAK = {"gram": 42.24, "mean": 45.57, "max": 59.94}

    @staticmethod
    def _at_step_peak(aggregation, between=lambda: None):
        """tracemalloc's peak of `batch_objective` and the backward of a
        13x126x129 float32 vgg-tiny step (blocks of 2 samples) with the
        anti-transfer term at conv 1 under `aggregation`, on the caller's
        workers; `between()` runs between the two passes."""
        net = build(preset("vgg-tiny", (126, 129), 4), seed=0, dtype=np.float32)
        assert net.sample_block == 2
        extractor = build(net.arch, seed=1, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal(
            (13, 1, 126, 129)).astype(np.float32)
        y = np.arange(len(x)) % 4
        at_cfg = ATConfig(layers=(1,), aggregation=aggregation)
        aggs = training._precompute_extractor_aggs(extractor, x, at_cfg)

        def step():
            _, _, _, dlogits, agg_grads = training.batch_objective(
                net, x, y, at_cfg, aggs, train=True,
                rng=np.random.default_rng(1))
            between()
            net.backward(dlogits, reduced_grad_in=agg_grads)
        return _peak_bytes(step)

    @pytest.mark.parametrize("aggregation", losses.AGGREGATIONS)
    def test_an_at_step_at_126x129_builds_no_whole_batch_tap_map(
            self, aggregation, eval_workers):
        """`batch_objective` and the backward of a 13x126x129 float32
        vgg-tiny step with the anti-transfer term at conv 1, on two threads
        (blocks of 2 samples). Between the two passes no live array is
        larger than one block's conv 1 map: the term leaves no whole-batch
        map or gradient for the backward.
        The same step with the term over a whole-batch tapped map and tap
        gradient, measured the same way, peaked at 42.24 MB (Gram), 45.57
        MB (mean) and 59.94 MB (max). Under mean and max this step peaks
        below those less one 13.6 MB map. Under the Gram it only peaks
        below 42.24 MB: its pullback reads the blocks' conv 1 maps (13.5 MB
        in all), which stay live, beside the layers' recordings (15.2 MB),
        until each block's backward reaches conv 1, and two blocks'
        backward temporaries come on top."""
        eval_workers(2)
        largest = []

        def between():
            if tracemalloc.is_tracing():
                largest.append(max(t.size for t in
                                   tracemalloc.take_snapshot().traces))

        # less one 13.6 MB map, but for the Gram
        bound = (self.WHOLE_BATCH_TERM_PEAK[aggregation]
                 - (0.0 if aggregation == "gram" else 13.6))
        assert self._at_step_peak(aggregation, between) < bound * 1e6
        c, h, w = conv_feature_shapes(preset("vgg-tiny", (126, 129), 4))[0]
        assert largest[0] <= 2 * c * h * w * 4   # one block's float32 map

    def test_a_max_at_step_at_126x129_peaks_below_the_gram_step(
            self, eval_workers):
        """The step above under the max aggregation peaks below the same
        step under the Gram: the max pullback keeps each block's channel
        argmax, not its conv 1 map, which the Gram pullback has to read.
        When the max pullback kept the map, the max step peaked at
        41.4-43.7 MB against the Gram's 38.8 MB."""
        eval_workers(2)
        assert self._at_step_peak("max") < self._at_step_peak("gram")


def sweep_layers(base_config, data, out_dir, layers):
    """A layer sweep: every point built and checked, then trained."""
    points = training.sweep_points(base_config, data, "layer", layers)
    return training.sweep(points, "layer", data, out_dir)


class TestSweeps:
    def test_layer_sweep_rows_and_best_flag(self, tiny_data_dir,
                                            orth_checkpoint, tmp_path):
        data = load_split_dir(tiny_data_dir)
        rows = sweep_layers(cfg_for("at", orth_checkpoint, epochs=2), data,
                            tmp_path / "sweep", [1, 2])
        assert len(rows) == 2
        assert sum(r.best for r in rows) == 1
        assert (tmp_path / "sweep" / "sweep.csv").exists()

    def test_empty_grid_rejected(self, tiny_data_dir, orth_checkpoint, tmp_path):
        data = load_split_dir(tiny_data_dir)
        with pytest.raises(ValueError):
            sweep_layers(cfg_for("at", orth_checkpoint), data,
                         tmp_path / "sweep", [])

    def test_layer_grid_checked_before_any_point_trains(self, tiny_data_dir,
                                                        orth_checkpoint,
                                                        tmp_path):
        data = load_split_dir(tiny_data_dir)
        with pytest.raises(ValueError, match=r"\[5, 9\] outside 1\.\.4"):
            sweep_layers(cfg_for("at", orth_checkpoint), data,
                         tmp_path / "sweep", [3, 5, 9])
        assert not (tmp_path / "sweep").exists()
        with pytest.raises(ValueError, match=r"outside 1\.\.4"):
            training.train(cfg_for("wi_freeze", orth_checkpoint, layers=(7,)),
                           data, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_a_repeated_grid_value_is_rejected(self, tiny_data_dir,
                                               orth_checkpoint):
        """Two points of one value would train into one directory."""
        data = load_split_dir(tiny_data_dir)
        cfg = cfg_for("at", orth_checkpoint)
        with pytest.raises(ValueError, match=r"beta 1\.0 is given twice"):
            training.sweep_points(cfg, data, "beta", [0.5, 1, 1.0])
        with pytest.raises(ValueError, match="layer 2 is given twice"):
            training.sweep_points(cfg, data, "layer", [2, 1, 2])

    def test_val_loss_selects_the_lowest_best_epoch_cross_entropy(
            self, tiny_data_dir, orth_checkpoint, tmp_path):
        """Under at_inverse the AT term is negative and grows with beta, so
        the lowest validation objective is beta 20's; the validation
        cross-entropy at the best epoch picks the other point."""
        data = load_split_dir(tiny_data_dir)
        points = training.sweep_points(cfg_for("at_inverse", orth_checkpoint,
                                               epochs=2),
                                       data, "beta", [0.5, 20.0])
        rows = training.sweep(points, "beta", data, tmp_path / "sweep")
        best_ce, objective = [], []
        for r in rows:
            run = tmp_path / "sweep" / f"beta_{r.value}"
            epoch = json.loads((run / "summary.json").read_text())["best_epoch"]
            with open(run / "metrics.csv") as f:
                metrics = list(csv.DictReader(f))
            best_ce.append(float(metrics[epoch]["val_ce"]))
            objective.append(min(float(m["val_ce"]) + float(m["val_at"])
                                 for m in metrics))
            assert r.val_loss == pytest.approx(best_ce[-1], abs=1e-6)
        flagged = [r.best for r in rows]
        assert flagged == [ce == min(best_ce) for ce in best_ce]
        assert flagged != [o == min(objective) for o in objective]
        with open(tmp_path / "sweep" / "sweep.csv") as f:
            table = list(csv.DictReader(f))
        assert [bool(int(t["best"])) for t in table] == flagged
        assert [float(t["val_loss"]) for t in table] == \
            pytest.approx(best_ce, abs=1e-6)

    def test_sweep_reproducible(self, tiny_data_dir, orth_checkpoint, tmp_path):
        data = load_split_dir(tiny_data_dir)
        r1 = sweep_layers(cfg_for("at", orth_checkpoint, epochs=2), data,
                          tmp_path / "s1", [1, 2])
        r2 = sweep_layers(cfg_for("at", orth_checkpoint, epochs=2), data,
                          tmp_path / "s2", [1, 2])
        assert [(r.value, r.val_acc, r.test_acc) for r in r1] == \
            [(r.value, r.val_acc, r.test_acc) for r in r2]

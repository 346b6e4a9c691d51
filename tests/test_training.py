"""Trainer semantics: strategy contracts, determinism, early stopping, the
frozen-extractor guarantee, dual anti-transfer plumbing, and run artifacts."""

import csv
import json

import numpy as np
import pytest

from antitransfer import checkpoint as ck
from antitransfer import losses, training
from antitransfer.data import load_split_dir
from antitransfer.losses import ATConfig
from antitransfer.training import (TrainConfig, evaluate, pretrain,
                                   sweep_layers, train_on_dir)
from antitransfer.network import build, preset


def cfg_for(strategy, checkpoint=None, layers=(2,), seed=3, epochs=3, **kw):
    checkpoints = ()
    if checkpoint is not None:
        n = 2 if strategy == "dual_at" else 1
        checkpoints = (str(checkpoint),) * n
    return TrainConfig(strategy=strategy, pretrained_checkpoints=checkpoints,
                       at=ATConfig(layers=layers, beta=kw.pop("beta", 1.0)),
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

    def test_fraction_sum_checked(self):
        with pytest.raises(ValueError):
            TrainConfig(split_fractions=(0.5, 0.2, 0.2))

    def test_round_trip(self):
        cfg = TrainConfig(strategy="scratch", seed=5,
                          at=ATConfig(layers=(1, 3), beta=0.5))
        assert TrainConfig(**cfg.to_dict()) == cfg


class TestScratch:
    def test_same_seed_identical_checkpoints(self, tiny_data_dir, tmp_path):
        a = train_on_dir(cfg_for("scratch"), tiny_data_dir, tmp_path / "a")
        b = train_on_dir(cfg_for("scratch"), tiny_data_dir, tmp_path / "b")
        assert a.network.weight_hash() == b.network.weight_hash()
        assert a.test_accuracy == b.test_accuracy

    def test_different_seed_differs(self, tiny_data_dir, tmp_path):
        a = train_on_dir(cfg_for("scratch", seed=1), tiny_data_dir, tmp_path / "a")
        b = train_on_dir(cfg_for("scratch", seed=2), tiny_data_dir, tmp_path / "b")
        assert a.network.weight_hash() != b.network.weight_hash()

    def test_artifacts_written(self, tiny_data_dir, tmp_path):
        r = train_on_dir(cfg_for("scratch"), tiny_data_dir, tmp_path / "run")
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
        r = train_on_dir(cfg, tiny_data_dir, tmp_path / "run")
        assert len(r.metrics) - 1 - r.best_epoch <= cfg.patience
        vals = [m.val_ce + m.val_at for m in r.metrics]
        assert r.best_epoch == int(np.argmin(vals))


class TestAntiTransfer:
    def test_trainer_uses_the_checked_loss(self):
        """The gradient oracle checks losses.at_loss_and_grad; training must
        call that same object, and bind the names traced from outside."""
        assert training._at_term is losses.at_loss_and_grad
        assert training.aggregate is losses.aggregate

    def test_extractor_precompute_stops_at_deepest_tap(self, monkeypatch):
        """The precomputed Grams are byte-equal to those of a full forward,
        and no layer past the deepest tapped conv runs."""
        extractor = build(preset("vgg-tiny", (16, 17), 4), seed=11, dtype=np.float32)
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
        got = training._precompute_extractor_aggs(extractor, x, at_cfg, 8)
        assert sorted(got) == [1, 3]
        for k in at_cfg.layers:
            assert got[k].tobytes() == np.concatenate(want[k]).tobytes()

    def test_beta_zero_is_bitwise_scratch(self, tiny_data_dir, orth_checkpoint,
                                          tmp_path):
        scratch = train_on_dir(cfg_for("scratch"), tiny_data_dir, tmp_path / "s")
        at0 = train_on_dir(cfg_for("at", orth_checkpoint, beta=0.0),
                           tiny_data_dir, tmp_path / "a")
        assert at0.network.weight_hash() == scratch.network.weight_hash()
        for (ma, mb) in zip(scratch.metrics, at0.metrics):
            assert ma.train_ce == mb.train_ce
            assert mb.train_at == 0.0

    def test_extractor_untouched_by_training(self, tiny_data_dir,
                                             orth_checkpoint, tmp_path):
        r = train_on_dir(cfg_for("at", orth_checkpoint), tiny_data_dir,
                         tmp_path / "run")
        assert r.summary["extractor_hash_before"] == r.summary["extractor_hash_after"]
        assert r.summary["extractor_hash_before"] is not None

    def test_at_metrics_are_positive_and_recorded(self, tiny_data_dir,
                                                  orth_checkpoint, tmp_path):
        r = train_on_dir(cfg_for("at", orth_checkpoint), tiny_data_dir,
                         tmp_path / "run")
        assert all(m.train_at >= 0.0 for m in r.metrics)
        assert any(m.train_at > 0.0 for m in r.metrics)
        assert all(0.0 <= m.train_at_per_layer[2] <= 1.0 for m in r.metrics)

    def test_at_inverse_records_negative_terms(self, tiny_data_dir,
                                               orth_checkpoint, tmp_path):
        r = train_on_dir(cfg_for("at_inverse", orth_checkpoint), tiny_data_dir,
                         tmp_path / "run")
        assert all(m.train_at <= 0.0 for m in r.metrics)

    def test_incompatible_extractor_rejected(self, tiny_data_dir, tmp_path):
        other = build(preset("vgg-small", (16, 17), 4), seed=0, dtype=np.float32)
        ck.save(other, tmp_path / "other.atck")
        with pytest.raises(ck.FingerprintMismatchError):
            train_on_dir(cfg_for("at", tmp_path / "other.atck"), tiny_data_dir,
                         tmp_path / "run")


class TestWeightInit:
    def test_wi_starts_from_source_convs(self, tiny_data_dir, orth_checkpoint,
                                          tmp_path):
        r = train_on_dir(cfg_for("wi", orth_checkpoint, epochs=1),
                         tiny_data_dir, tmp_path / "run")
        assert r.summary["config"]["strategy"] == "wi"

    def test_wi_freeze_keeps_prefix_bitwise(self, tiny_data_dir,
                                            orth_checkpoint, tmp_path):
        r = train_on_dir(cfg_for("wi_freeze", orth_checkpoint, layers=(2,)),
                         tiny_data_dir, tmp_path / "run")
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
        r = train_on_dir(cfg_for("dual_at", orth_checkpoint, epochs=2),
                         tiny_data_dir, tmp_path / "run")
        inter = ck.load(tmp_path / "run" / "intermediate" / "model.atck")
        final_init = ck.load(tmp_path / "run" / "final_init.atck")
        for a, b in zip(inter.conv_layers(), final_init.conv_layers()):
            assert np.array_equal(a.W, b.W)
            assert np.array_equal(a.b, b.b)
        assert r.summary["extractor_hash_before"] == r.summary["extractor_hash_after"]
        hashes = r.summary["intermediate_extractor_hashes"]
        assert hashes["before"] == hashes["after"]


class TestPretrainAndEvaluate:
    def test_pretrain_provenance(self, orth_data_dir, tmp_path):
        cfg = TrainConfig(strategy="scratch", label_field="orth1",
                          task_name="orth-texture", seed=7, max_epochs=2,
                          arch_preset="vgg-tiny")
        r = pretrain(cfg, orth_data_dir, tmp_path / "pre")
        net = ck.load(r.checkpoint_path)
        assert net.provenance["task"] == "orth-texture"
        assert net.provenance["seed"] == 7
        assert net.provenance["epoch"] == r.best_epoch

    def test_pretrain_same_seed_identical(self, orth_data_dir, tmp_path):
        cfg = TrainConfig(strategy="scratch", label_field="orth1", seed=7,
                          max_epochs=2, arch_preset="vgg-tiny")
        a = pretrain(cfg, orth_data_dir, tmp_path / "a")
        b = pretrain(cfg, orth_data_dir, tmp_path / "b")
        assert a.checkpoint_path.read_bytes() == b.checkpoint_path.read_bytes()

    def test_confusion_rows_sum_to_class_counts(self, tiny_data_dir, tmp_path):
        r = train_on_dir(cfg_for("scratch"), tiny_data_dir, tmp_path / "run")
        data = load_split_dir(tiny_data_dir)
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

    def test_sweep_reproducible(self, tiny_data_dir, orth_checkpoint, tmp_path):
        data = load_split_dir(tiny_data_dir)
        r1 = sweep_layers(cfg_for("at", orth_checkpoint, epochs=2), data,
                          tmp_path / "s1", [1, 2])
        r2 = sweep_layers(cfg_for("at", orth_checkpoint, epochs=2), data,
                          tmp_path / "s2", [1, 2])
        assert [(r.value, r.val_acc, r.test_acc) for r in r1] == \
            [(r.value, r.val_acc, r.test_acc) for r in r2]

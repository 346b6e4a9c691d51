"""Manifests, sample containers, and the split policies."""

import numpy as np
import pytest

from antitransfer.data import (ManifestRow, load_split_dir, read_manifest,
                               read_sample, split_class_wise, split_manifest,
                               split_random, write_manifest, write_sample,
                               load_dataset)


class TestSampleContainers:
    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((7, 9)).astype(np.float32)
        path = tmp_path / "s.atck"
        write_sample(path, arr)
        assert np.array_equal(read_sample(path), arr)


class TestManifests:
    def test_round_trip(self, tmp_path):
        rows = [ManifestRow("a.atck", "t0", ("o1",)),
                ManifestRow("b.atck", "t1", ("o0", "x2"))]
        path = tmp_path / "m.csv"
        write_manifest(path, rows)
        back = read_manifest(path)
        assert [r.path for r in back] == ["a.atck", "b.atck"]
        assert back[0].orth_labels == ("o1",)
        assert back[1].orth_labels == ("o0", "x2")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file,label\nx,1\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_load_dataset_maps_labels(self, tmp_path):
        rows = []
        for i, (t, o) in enumerate([("b", "y"), ("a", "x"), ("b", "x")]):
            name = f"s{i}.atck"
            write_sample(tmp_path / name, np.full((2, 2), i, dtype=np.float32))
            rows.append(ManifestRow(name, t, (o,)))
        write_manifest(tmp_path / "m.csv", rows)
        ds = load_dataset(tmp_path / "m.csv")
        assert ds.target_vocab == ["a", "b"]
        assert ds.orth_vocab == ["x", "y"]
        assert ds.target_ids.tolist() == [1, 0, 1]
        assert ds.orth_ids[:, 0].tolist() == [1, 0, 0]
        assert ds.x.shape == (3, 1, 2, 2)

    def test_orth2_ids_index_the_shared_orth_vocab(self, tmp_path):
        """Both orth columns map through one vocabulary, so orth2's ids
        index `orth_vocab` and classes_for("orth2") counts it."""
        rows = []
        for i, (o1, o2) in enumerate([("x", "p"), ("y", "q"), ("x", "r")]):
            name = f"s{i}.atck"
            write_sample(tmp_path / name, np.zeros((2, 2), dtype=np.float32))
            rows.append(ManifestRow(name, "t", (o1, o2)))
        write_manifest(tmp_path / "m.csv", rows)
        ds = load_dataset(tmp_path / "m.csv")
        assert ds.orth_vocab == ["p", "q", "r", "x", "y"]
        assert ds.classes_for("orth2") == ds.classes_for("orth1") == 5
        assert [ds.orth_vocab[i] for i in ds.labels_for("orth2")] == ["p", "q", "r"]
        assert [ds.orth_vocab[i] for i in ds.labels_for("orth1")] == ["x", "y", "x"]

    def test_classes_for_a_label_the_data_lacks_raises(self, tmp_path):
        write_sample(tmp_path / "s.atck", np.zeros((2, 2), dtype=np.float32))
        write_manifest(tmp_path / "m.csv", [ManifestRow("s.atck", "t", ("o",))])
        ds = load_dataset(tmp_path / "m.csv")
        for field, message in (("orth2", "no complete orth2 labels"),
                               ("bogus", "unknown label field 'bogus'")):
            with pytest.raises(ValueError, match=message):
                ds.labels_for(field)
            with pytest.raises(ValueError, match=message):
                ds.classes_for(field)

    def test_label_missing_from_train_is_named(self, unseen_label_dir):
        with pytest.raises(ValueError, match="val_manifest.csv.*'unseen'"):
            load_split_dir(unseen_label_dir)


class TestSplitRandom:
    def test_exact_70_20_10_counts(self):
        labels = [f"c{i % 4}" for i in range(100)]
        tr, va, te = split_random(labels, seed=0)
        assert (len(tr), len(va), len(te)) == (70, 20, 10)
        assert set(tr) | set(va) | set(te) == set(range(100))
        assert not (set(tr) & set(va)) and not (set(tr) & set(te))
        assert not (set(va) & set(te))

    def test_reproducible(self):
        labels = [f"c{i % 3}" for i in range(57)]
        assert split_random(labels, seed=4) == split_random(labels, seed=4)
        assert split_random(labels, seed=4) != split_random(labels, seed=5)

    def test_roughly_stratified(self):
        labels = ["a"] * 60 + ["b"] * 40
        tr, va, te = split_random(labels, seed=1)
        frac_a = sum(1 for i in tr if labels[i] == "a") / len(tr)
        assert abs(frac_a - 0.6) < 0.05

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            split_random(["a"] * 10, seed=0, fractions=(0.5, 0.2, 0.2))


class TestSplitClassWise:
    def test_each_class_in_exactly_one_split(self):
        rng = np.random.default_rng(2)
        speakers = [f"spk{rng.integers(5)}" for _ in range(200)]
        tr, va, te = split_class_wise(speakers, seed=0)
        assert sorted(tr + va + te) == list(range(200))
        for split in (tr, va, te):
            assert split, "every split must get at least one class"
        classes = [set(speakers[i] for i in s) for s in (tr, va, te)]
        assert not (classes[0] & classes[1])
        assert not (classes[0] & classes[2])
        assert not (classes[1] & classes[2])

    def test_proportions_roughly_hit_targets(self):
        rng = np.random.default_rng(3)
        speakers = [f"spk{rng.integers(12)}" for _ in range(600)]
        tr, va, te = split_class_wise(speakers, seed=0)
        assert 0.55 < len(tr) / 600 < 0.85
        assert len(te) >= 1

    def test_two_classes_rejected(self):
        with pytest.raises(ValueError):
            split_class_wise(["a", "b"] * 10, seed=0)

    def test_missing_orth_label_rejected(self):
        with pytest.raises(ValueError):
            split_class_wise(["a", "", "b", "c"], seed=0)


def test_split_manifest_materializes_three_files(tmp_path):
    rows = []
    for i in range(40):
        name = f"s{i}.atck"
        write_sample(tmp_path / name, np.zeros((2, 2), dtype=np.float32))
        rows.append(ManifestRow(name, f"t{i % 2}", (f"o{i % 5}",)))
    write_manifest(tmp_path / "all.csv", rows)
    out = split_manifest(tmp_path / "all.csv", "random", seed=0,
                         out_dir=tmp_path / "splits")
    total = 0
    for split, path in out.items():
        assert path.exists()
        total += len(read_manifest(path))
    assert total == 40
    ds = load_dataset(out["train"])
    assert len(ds) == 28  # 70% of 40


def test_split_manifest_class_wise(tmp_path):
    rows = []
    for i in range(60):
        name = f"s{i}.atck"
        write_sample(tmp_path / name, np.zeros((2, 2), dtype=np.float32))
        rows.append(ManifestRow(name, f"t{i % 3}", (f"spk{i % 6}",)))
    write_manifest(tmp_path / "all.csv", rows)
    out = split_manifest(tmp_path / "all.csv", "class_wise", seed=1,
                         out_dir=tmp_path / "splits")
    seen = {}
    for split, path in out.items():
        for r in read_manifest(path):
            spk = r.orth_labels[0]
            assert seen.setdefault(spk, split) == split

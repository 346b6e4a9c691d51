"""Synthetic two-factor dataset generator: determinism, correlation control,
pattern structure, and the emitted manifest/container layout."""

from dataclasses import replace

import numpy as np
import pytest

from antitransfer.data import load_split_dir, read_manifest
from antitransfer.synth import (SynthSpec, cramers_v, generate, generate_arrays,
                                render)

SMALL = SynthSpec(n_target_classes=4, n_orth_classes=4,
                  samples_per_split=(300, 60, 60), image_size=(32, 33),
                  noise_sigma=0.1, seed=3)


class TestSpecValidation:
    def test_class_counts(self):
        with pytest.raises(ValueError):
            SynthSpec(n_target_classes=1)
        with pytest.raises(ValueError):
            SynthSpec(n_orth_classes=1)

    def test_correlation_range(self):
        with pytest.raises(ValueError):
            SynthSpec(train_correlation=1.5)
        with pytest.raises(ValueError):
            SynthSpec(test_correlation=-0.1)

    def test_sigma_and_fade(self):
        with pytest.raises(ValueError):
            SynthSpec(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            SynthSpec(band_fade=2.0)

    def test_round_trip(self):
        d = SMALL.to_dict()
        assert SynthSpec(**d) == SMALL


class TestSampling:
    def test_rho_one_makes_orth_deterministic(self):
        spec = SynthSpec(samples_per_split=(200, 20, 20), train_correlation=1.0,
                         image_size=(16, 17), seed=0)
        _, targets, orths = generate_arrays(spec)["train"]
        assert np.array_equal(orths, targets % spec.n_orth_classes)

    def test_rho_zero_is_decorrelated(self):
        spec = SynthSpec(samples_per_split=(600, 20, 20), train_correlation=0.0,
                         image_size=(16, 17), seed=1)
        _, targets, orths = generate_arrays(spec)["train"]
        assert cramers_v(targets, orths) < 0.1

    def test_high_rho_is_strongly_associated(self):
        spec = SynthSpec(samples_per_split=(600, 20, 20), train_correlation=0.9,
                         image_size=(16, 17), seed=1)
        _, targets, orths = generate_arrays(spec)["train"]
        assert cramers_v(targets, orths) > 0.7

    def test_test_split_uses_its_own_correlation(self):
        spec = SynthSpec(samples_per_split=(50, 20, 600), train_correlation=1.0,
                         test_correlation=0.0, image_size=(16, 17), seed=2)
        _, targets, orths = generate_arrays(spec)["test"]
        assert cramers_v(targets, orths) < 0.1

    def test_val_follows_train_correlation(self):
        spec = SynthSpec(samples_per_split=(50, 600, 20), train_correlation=1.0,
                         image_size=(16, 17), seed=2)
        _, targets, orths = generate_arrays(spec)["val"]
        assert np.array_equal(orths, targets % spec.n_orth_classes)

    def test_noise_free_same_seed_is_bitwise_identical(self):
        spec = SynthSpec(samples_per_split=(40, 10, 10), noise_sigma=0.0,
                         image_size=(16, 17), seed=7)
        a = generate_arrays(spec)
        b = generate_arrays(spec)
        for split in ("train", "val", "test"):
            assert np.array_equal(a[split][0], b[split][0])
            assert np.array_equal(a[split][1], b[split][1])

    def test_different_seeds_differ(self):
        base = SynthSpec(samples_per_split=(40, 10, 10), image_size=(16, 17))
        a = generate_arrays(replace(base, seed=0))["train"][0]
        b = generate_arrays(replace(base, seed=1))["train"][0]
        assert not np.array_equal(a, b)


def target_pixel_mask(spec):
    """Pixels any target class's bands touch: renders with no orthogonal
    pattern."""
    quiet = replace(spec, orth_amplitude=0.0)
    return np.any([render(quiet, k, 0) != 0
                   for k in range(spec.n_target_classes)], axis=0)


def orth_pixel_mask(spec):
    """Pixels any orthogonal class's spikes and ramp touch: renders with no
    target bands."""
    quiet = replace(spec, target_amplitude=0.0)
    return np.any([render(quiet, 0, m) != 0
                   for m in range(spec.n_orth_classes)], axis=0)


class TestPatterns:
    def test_families_occupy_disjoint_masks_mostly(self):
        """Bands live on bin columns, spikes on frame rows; their overlap is a
        small fraction of either mask."""
        t_mask = target_pixel_mask(SMALL)
        o_mask = orth_pixel_mask(SMALL)
        overlap = (t_mask & o_mask).sum()
        assert overlap < 0.45 * min(t_mask.sum(), o_mask.sum())

    def test_render_is_superposition(self):
        img = render(SMALL, 1, 2)
        t_mask = target_pixel_mask(SMALL)
        o_mask = orth_pixel_mask(SMALL)
        assert np.all(img[~(t_mask | o_mask)] == 0.0)
        assert img[t_mask].max() > 0
        assert img[o_mask].max() > 0

    def test_distinct_classes_render_distinct_images(self):
        imgs = [render(SMALL, k, 0) for k in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(imgs[i], imgs[j])
        imgs = [render(SMALL, 0, m) for m in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(imgs[i], imgs[j])

    def test_band_fade_scales_bands_only(self):
        faded = render(SMALL, 1, 2, target_scale=0.5)
        full = render(SMALL, 1, 2, target_scale=1.0)
        o_mask = orth_pixel_mask(SMALL)
        assert np.array_equal(faded[o_mask], full[o_mask])
        t_only = target_pixel_mask(SMALL) & ~o_mask
        assert np.all(faded[t_only] <= full[t_only])
        assert faded[t_only].max() < full[t_only].max()


class TestGenerateFiles:
    def test_layout_and_loadability(self, tmp_path):
        spec = SynthSpec(samples_per_split=(20, 8, 6), image_size=(16, 17), seed=5)
        out = generate(spec, tmp_path / "ds")
        data = load_split_dir(out)
        assert len(data["train"]) == 20
        assert len(data["val"]) == 8
        assert len(data["test"]) == 6
        assert data["train"].x.shape == (20, 1, 16, 17)
        assert data["train"].n_classes == 4
        rows = read_manifest(out / "train_manifest.csv")
        assert rows[0].orth_labels, "orthogonal labels must be present"
        assert (out / "synth_spec.json").exists()

    def test_regeneration_is_idempotent(self, tmp_path):
        spec = SynthSpec(samples_per_split=(5, 2, 2), image_size=(16, 17),
                         noise_sigma=0.0, seed=5)
        out = generate(spec, tmp_path / "ds")
        first = (out / "train_manifest.csv").read_bytes()
        sample = (out / "train_00000.atck").read_bytes()
        generate(spec, tmp_path / "ds")
        assert (out / "train_manifest.csv").read_bytes() == first
        assert (out / "train_00000.atck").read_bytes() == sample


class TestCramersV:
    def test_identical_labels_give_one(self):
        a = np.array([0, 1, 2, 3] * 25)
        assert cramers_v(a, a) == pytest.approx(1.0)

    def test_independent_labels_give_small_value(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert cramers_v(a, b) < 0.08

import itertools

import numpy as np
import pytest

from lungsound import augment
from lungsound.augment import (AugmentConfig, LabeledSpectrogram,
                               balanced_oversample, center_crop, make_batch,
                               mixup, random_crop)
from lungsound.dsp import Spectrogram
from lungsound.errors import InvalidConfigError, InvalidInputError


def labeled(values, label):
    return LabeledSpectrogram(spec=Spectrogram(values=np.asarray(values)),
                              label=np.asarray(label, dtype=float))


def random_item(rng, shape, cls, n_cls):
    label = np.zeros(n_cls)
    label[cls] = 1.0
    return labeled(rng.standard_normal(shape), label)


class TestBalancedOversample:
    def test_exact_counts_despite_imbalance(self):
        class_of = {i: "A" for i in range(100)}
        class_of.update({100 + i: "B" for i in range(2)})
        stream = balanced_oversample(class_of, 8, rng_seed=0)
        for batch in itertools.islice(stream, 20):
            assert sum(1 for i in batch if class_of[i] == "A") == 4
            assert sum(1 for i in batch if class_of[i] == "B") == 4

    def test_single_class(self):
        stream = balanced_oversample({0: "x", 1: "x"}, 4, rng_seed=1)
        assert len(next(stream)) == 4

    def test_deterministic(self):
        class_of = {i: i % 3 for i in range(30)}
        a = list(itertools.islice(balanced_oversample(class_of, 6, 7), 10))
        b = list(itertools.islice(balanced_oversample(class_of, 6, 7), 10))
        assert a == b

    def test_indivisible_batch_rejected(self):
        with pytest.raises(InvalidConfigError):
            next(balanced_oversample({0: 0, 1: 1}, 5, 0))

    def test_empty_map_rejected(self):
        with pytest.raises(InvalidConfigError):
            next(balanced_oversample({}, 4, 0))


class TestRandomCrop:
    def test_event_dims(self):
        rng = np.random.default_rng(0)
        spec = Spectrogram(values=rng.standard_normal((128, 512)))
        out = random_crop(spec, 10, rng)
        assert out.values.shape == (118, 502)

    def test_zero_crop_identity(self):
        rng = np.random.default_rng(1)
        spec = Spectrogram(values=rng.standard_normal((16, 16)))
        assert random_crop(spec, 0, rng) is spec

    def test_output_is_window_of_input(self):
        rng = np.random.default_rng(2)
        spec = Spectrogram(values=rng.standard_normal((20, 24)))
        out = random_crop(spec, 10, rng)
        matches = [
            (df, dt)
            for df in range(11)
            for dt in range(11)
            if np.array_equal(out.values,
                              spec.values[df : df + 10, dt : dt + 14])
        ]
        assert len(matches) >= 1

    def test_oversized_crop_rejected(self):
        rng = np.random.default_rng(3)
        spec = Spectrogram(values=rng.standard_normal((8, 8)))
        with pytest.raises(InvalidConfigError):
            random_crop(spec, 8, rng)

    def test_center_crop_deterministic(self):
        rng = np.random.default_rng(4)
        spec = Spectrogram(values=rng.standard_normal((20, 20)))
        assert np.array_equal(center_crop(spec, 10).values,
                              center_crop(spec, 10).values)
        assert center_crop(spec, 10).values.shape == (10, 10)


class TestMixup:
    def test_lambda_one_returns_first(self):
        rng = np.random.default_rng(0)
        a = labeled([[1.0, 2.0]], [1, 0])
        b = labeled([[3.0, 4.0]], [0, 1])
        out = mixup(a, b, rng, lam=1.0)
        assert np.array_equal(out.spec.values, a.spec.values)
        assert np.array_equal(out.label, a.label)

    def test_convex_labels(self):
        rng = np.random.default_rng(1)
        out = mixup(labeled([[0.0]], [1, 0]), labeled([[1.0]], [0, 1]),
                    rng, lam=0.3)
        assert np.allclose(out.label, [0.3, 0.7])

    def test_beta_symmetry_monte_carlo(self):
        rng = np.random.default_rng(2)
        draws = rng.beta(0.4, 0.4, size=10000)
        assert abs(draws.mean() - 0.5) < 0.02

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidInputError):
            mixup(labeled([[1.0, 2.0]], [1, 0]), labeled([[1.0]], [1, 0]), rng)

    def test_value_bounds(self):
        rng = np.random.default_rng(4)
        a = random_item(rng, (6, 6), 0, 2)
        b = random_item(rng, (6, 6), 1, 2)
        out = mixup(a, b, rng)
        lo = np.minimum(a.spec.values, b.spec.values)
        hi = np.maximum(a.spec.values, b.spec.values)
        assert np.all(out.spec.values >= lo - 1e-6)
        assert np.all(out.spec.values <= hi + 1e-6)


class TestMakeBatch:
    def dataset(self, rng, n=8, n_cls=2, shape=(14, 18)):
        return [random_item(rng, shape, i % n_cls, n_cls) for i in range(n)]

    def test_all_augmentations_off(self):
        rng = np.random.default_rng(0)
        data = self.dataset(rng)
        cfg = AugmentConfig(crop_bins=0, mixup=False, oversample=False)
        batch, labels = make_batch(data, [0, 1, 2], cfg, rng)
        assert batch.shape == (3, 1, 14, 18)
        assert batch.dtype == np.float32  # as Spectrogram stores it
        for i, idx in enumerate([0, 1, 2]):
            assert np.array_equal(batch[i, 0], data[idx].spec.values)
            assert np.array_equal(labels[i], data[idx].label)

    def test_labels_stay_on_simplex(self):
        rng = np.random.default_rng(1)
        data = self.dataset(rng)
        cfg = AugmentConfig(crop_bins=4, mixup=True)
        _, labels = make_batch(data, list(range(8)), cfg, rng)
        assert np.all(labels >= 0)
        assert np.allclose(labels.sum(axis=1), 1.0, atol=1e-6)

    def test_oversampled_batch_composition(self):
        rng = np.random.default_rng(2)
        data = self.dataset(rng, n=10, n_cls=2)
        class_of = {i: i % 2 for i in range(10)}
        stream = balanced_oversample(class_of, 8, 3)
        indices = next(stream)
        assert sum(1 for i in indices if class_of[i] == 0) == 4
        cfg = AugmentConfig(crop_bins=2, mixup=False)
        batch, labels = make_batch(data, indices, cfg, rng)
        assert batch.shape == (8, 1, 12, 16)
        assert np.allclose(labels.sum(axis=1), 1.0)

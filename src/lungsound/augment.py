"""Training-time augmentation: balanced oversampling, random crop, mixup."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Spectrogram
from .errors import InvalidConfigError, InvalidInputError, require_counts

LABEL_TOL = 1e-6
# mixup's lambda ~ Beta(MIXUP_ALPHA, MIXUP_ALPHA)
MIXUP_ALPHA = 0.4


@dataclass(frozen=True)
class LabeledSpectrogram:
    spec: Spectrogram
    label: np.ndarray

    def __post_init__(self):
        label = np.asarray(self.label, dtype=np.float64)
        object.__setattr__(self, "label", label)
        if label.ndim != 1 or np.any(label < 0):
            raise InvalidInputError("label must be a nonnegative vector")
        if abs(label.sum() - 1.0) > LABEL_TOL:
            raise InvalidInputError("label must sum to 1")


@dataclass(frozen=True)
class AugmentConfig:
    crop_bins: int = 10
    mixup: bool = True
    oversample: bool = True

    def __post_init__(self):
        require_counts("augment", least=0, crop_bins=self.crop_bins)


def balanced_oversample(class_of, batch_size, rng_seed):
    """Infinite stream of index batches with exact per-class counts.

    `class_of` maps sample index -> class id. Within each class, indices are
    drawn uniformly with replacement; the batch is then shuffled so classes
    interleave. Fully determined by `rng_seed`.
    """
    by_class = {}
    for idx, cls in class_of.items():
        by_class.setdefault(cls, []).append(idx)
    classes = sorted(by_class)
    if not classes:
        raise InvalidConfigError("class map is empty")
    if batch_size % len(classes) != 0:
        raise InvalidConfigError(
            f"batch size {batch_size} not divisible by {len(classes)} classes"
        )
    per_class = batch_size // len(classes)
    rng = np.random.default_rng(rng_seed)
    while True:
        batch = []
        for cls in classes:
            pool = by_class[cls]
            batch.extend(pool[k] for k in rng.integers(0, len(pool), per_class))
        rng.shuffle(batch)
        yield list(batch)


def _crop(spec, crop_bins, df, dt):
    f, t = spec.values.shape
    if crop_bins >= f or crop_bins >= t:
        raise InvalidConfigError(
            f"crop_bins {crop_bins} too large for {f}x{t} spectrogram"
        )
    if crop_bins == 0:
        return spec
    return Spectrogram(
        values=spec.values[df : f - crop_bins + df, dt : t - crop_bins + dt]
    )


def random_crop(spec, crop_bins, rng):
    """Uniform contiguous crop removing `crop_bins` rows and columns."""
    if crop_bins == 0:
        return spec
    df = int(rng.integers(0, crop_bins + 1))
    dt = int(rng.integers(0, crop_bins + 1))
    return _crop(spec, crop_bins, df, dt)


def center_crop(spec, crop_bins):
    """Deterministic evaluation-time crop with the same output dims."""
    return _crop(spec, crop_bins, crop_bins // 2, crop_bins // 2)


def mixup(a, b, rng, lam=None):
    """Convex combination of two labeled spectrograms, lambda ~
    Beta(MIXUP_ALPHA, MIXUP_ALPHA) unless given."""
    if a.spec.values.shape != b.spec.values.shape or a.label.shape != b.label.shape:
        raise InvalidInputError("mixup inputs must have identical dims")
    if lam is None:
        lam = float(rng.beta(MIXUP_ALPHA, MIXUP_ALPHA))
    values = lam * a.spec.values.astype(np.float64) + (1.0 - lam) * b.spec.values
    return LabeledSpectrogram(
        spec=Spectrogram(values=values),
        label=lam * a.label + (1.0 - lam) * b.label,
    )


def make_batch(dataset, indices, config, rng):
    """Crop, then optionally mixup within the batch; returns the stacked
    float32 N×1×F×T array and the N×C soft-label matrix."""
    items = [dataset[i] for i in indices]
    cropped = [
        LabeledSpectrogram(
            spec=random_crop(item.spec, config.crop_bins, rng), label=item.label
        )
        for item in items
    ]
    if config.mixup and len(cropped) > 1:
        partners = [
            (i + 1 + int(rng.integers(0, len(cropped) - 1))) % len(cropped)
            for i in range(len(cropped))
        ]
        cropped = [
            mixup(item, cropped[j], rng)
            for item, j in zip(list(cropped), partners)
        ]
    batch = np.stack([c.spec.values for c in cropped])[:, None, :, :]
    labels = np.stack([c.label for c in cropped])
    return batch, labels

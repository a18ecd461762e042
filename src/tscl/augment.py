"""Time-series batches and the weak/strong augmentations that make views.

Each view of a dataset draws from the one generator it is given, in bulk
over all samples in storage order.  So a view depends on the dataset and
the view's seed only: the shuffle and the batches cut downstream never
change it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from tscl.errors import (
    DegenerateInputError,
    DimensionError,
    ParameterError,
    check_integer,
    check_real,
)


@dataclass(frozen=True)
class TimeSeriesBatch:
    """A batch of multichannel series in channel-major flat layout.

    ``values[i, c*length + t]`` is channel ``c`` of sample ``i`` at step
    ``t``. ``label_mask`` marks which labels are visible to training;
    ground-truth ``labels`` are always present for evaluation.
    """

    values: np.ndarray
    labels: np.ndarray
    label_mask: np.ndarray
    channels: int
    length: int

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        mask = np.asarray(self.label_mask, dtype=bool).reshape(-1)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_mask", mask)
        if values.ndim != 2:
            raise DimensionError(f"values must be 2-D, got ndim={values.ndim}")
        width = self.channels * self.length
        if self.channels < 1 or self.length < 1:
            raise ParameterError(
                f"need positive channels and length, got "
                f"{self.channels} and {self.length}"
            )
        if values.shape[1] != width:
            raise DimensionError(
                f"each row must hold channels*length = {width} values, "
                f"got {values.shape[1]}"
            )
        n = values.shape[0]
        if labels.shape[0] != n or mask.shape[0] != n:
            raise DimensionError(
                f"labels ({labels.shape[0]}) and mask ({mask.shape[0]}) "
                f"must both cover {n} samples"
            )
        if n and labels.min() < 0:
            raise ParameterError(f"labels must be nonnegative, got {labels.min()}")
        if not np.isfinite(values).all():
            row = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
            raise DegenerateInputError(f"row {row} holds a non-finite value")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def as_3d(self) -> np.ndarray:
        """View as (n, channels, length)."""
        return self.values.reshape(self.n, self.channels, self.length)

    def take(self, indices: np.ndarray) -> TimeSeriesBatch:
        idx = np.asarray(indices, dtype=np.int64)
        return TimeSeriesBatch(
            values=self.values[idx],
            labels=self.labels[idx],
            label_mask=self.label_mask[idx],
            channels=self.channels,
            length=self.length,
        )

    def with_values(self, values: np.ndarray) -> TimeSeriesBatch:
        return replace(self, values=values)

    def with_mask(self, label_mask: np.ndarray) -> TimeSeriesBatch:
        return replace(self, label_mask=label_mask)


@dataclass(frozen=True)
class AugmentParams:
    """Noise scales for both views; all default values are configurable."""

    weak_jitter: float = 0.05
    weak_scale: float = 0.1
    strong_jitter: float = 0.1
    max_segments: int = 5

    def __post_init__(self) -> None:
        for name in ("weak_jitter", "weak_scale", "strong_jitter"):
            check_real(name, getattr(self, name))
        scales = (self.weak_jitter, self.weak_scale, self.strong_jitter)
        if not all(np.isfinite(scales)) or min(scales) < 0:
            raise ParameterError(
                "weak_jitter, weak_scale and strong_jitter must be finite and "
                f"nonnegative, got {scales}"
            )
        check_integer("max_segments", self.max_segments)
        if self.max_segments < 1:
            raise ParameterError(
                f"max_segments must be >= 1, got {self.max_segments}"
            )


def weak_augment(
    batch: TimeSeriesBatch,
    rng: np.random.Generator,
    params: AugmentParams = AugmentParams(),
) -> TimeSeriesBatch:
    """Additive jitter followed by one multiplicative factor per sample.

    Draws from ``rng`` in this order: the jitter of every entry, then one
    factor per sample.
    """
    noise = rng.normal(0.0, params.weak_jitter, size=batch.values.shape)
    factor = rng.normal(1.0, params.weak_scale, size=(batch.n, 1))
    return batch.with_values((batch.values + noise) * factor)


def strong_augment(
    batch: TimeSeriesBatch,
    rng: np.random.Generator,
    params: AugmentParams = AugmentParams(),
) -> TimeSeriesBatch:
    """Segment-permute each series along time, then jitter.

    Draws from ``rng`` in this order: each sample's segment count, uniform
    on 1..max_segments; one uniform key per gap between time steps, where
    the ``count - 1`` gaps with the smallest keys are cut; one uniform key
    per segment slot, where the segments are placed in the order of their
    keys; then the jitter of every entry.  All channels of a sample share
    its time permutation.
    """
    if batch.length < params.max_segments:
        raise ParameterError(
            f"series length {batch.length} is shorter than "
            f"max_segments {params.max_segments}"
        )
    n, length = batch.n, batch.length
    segments = rng.integers(1, params.max_segments + 1, n)
    gap_keys = rng.random((n, length - 1))
    # A gap is cut when its key is below the row's segments-th smallest key;
    # the appended 2.0 stands for that key when every gap is cut.
    ranked = np.concatenate([np.sort(gap_keys, axis=1), np.full((n, 1), 2.0)], axis=1)
    cut = gap_keys < np.take_along_axis(ranked, segments[:, None] - 1, axis=1)
    segment_of = np.zeros((n, length), dtype=np.int64)
    np.cumsum(cut, axis=1, out=segment_of[:, 1:])
    # Each step takes its segment's key; a stable sort keeps a segment's steps
    # in order and places the segments by key.
    step_keys = np.take_along_axis(rng.random((n, params.max_segments)), segment_of, axis=1)
    source = np.argsort(step_keys, axis=1, kind="stable")
    out = np.take_along_axis(batch.as_3d(), source[:, None, :], axis=2)
    out += rng.normal(0.0, params.strong_jitter, size=out.shape)
    return batch.with_values(out.reshape(batch.values.shape))

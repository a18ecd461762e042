"""Time-series batches and the weak/strong augmentations that make views.

Samples are augmented in storage order with one derived generator per
sample, so a sample's draws depend only on its position in the dataset
and the parent seed — batch composition downstream never changes them,
and per-sample work is embarrassingly parallel.
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
    """Additive jitter followed by one multiplicative factor per sample."""
    out = batch.values.copy()
    for i, child in enumerate(rng.spawn(batch.n)):
        noise = child.normal(0.0, params.weak_jitter, size=out.shape[1])
        factor = child.normal(1.0, params.weak_scale)
        out[i] = (out[i] + noise) * factor
    return batch.with_values(out)


def strong_augment(
    batch: TimeSeriesBatch,
    rng: np.random.Generator,
    params: AugmentParams = AugmentParams(),
) -> TimeSeriesBatch:
    """Segment-permute each series along time, then jitter."""
    if batch.length < params.max_segments:
        raise ParameterError(
            f"series length {batch.length} is shorter than "
            f"max_segments {params.max_segments}"
        )
    out = batch.as_3d().copy()
    for i, child in enumerate(rng.spawn(batch.n)):
        segments = int(child.integers(1, params.max_segments + 1))
        if segments > 1:
            cuts = np.sort(child.choice(batch.length - 1, segments - 1, replace=False))
            pieces = np.split(out[i], cuts + 1, axis=1)
            order = child.permutation(segments)
            out[i] = np.concatenate([pieces[j] for j in order], axis=1)
        noise = child.normal(0.0, params.strong_jitter, size=out[i].shape)
        out[i] = out[i] + noise
    return batch.with_values(out.reshape(batch.n, -1))

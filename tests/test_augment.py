"""Tests for batch containers and the two augmentation views."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from tscl.augment import (
    AugmentParams,
    TimeSeriesBatch,
    strong_augment,
    weak_augment,
)
from tscl.errors import DegenerateInputError, DimensionError, ParameterError


def _batch(rng: np.random.Generator, n=5, channels=2, length=16) -> TimeSeriesBatch:
    return TimeSeriesBatch(
        values=rng.standard_normal((n, channels * length)),
        labels=rng.integers(0, 3, size=n),
        label_mask=np.zeros(n, dtype=bool),
        channels=channels,
        length=length,
    )


class TestBatchContainer:
    def test_shape_validation(self):
        with pytest.raises(DimensionError, match="channels\\*length"):
            TimeSeriesBatch(
                values=np.zeros((2, 7)),
                labels=np.zeros(2),
                label_mask=np.zeros(2, dtype=bool),
                channels=2,
                length=4,
            )
        with pytest.raises(DimensionError, match="labels"):
            TimeSeriesBatch(
                values=np.zeros((2, 8)),
                labels=np.zeros(3),
                label_mask=np.zeros(2, dtype=bool),
                channels=2,
                length=4,
            )

    def test_negative_labels_rejected(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            TimeSeriesBatch(
                values=np.zeros((1, 4)),
                labels=np.array([-1]),
                label_mask=np.zeros(1, dtype=bool),
                channels=1,
                length=4,
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_first_row(self, value):
        values = np.zeros((4, 8))
        values[2, 5] = value
        values[3, 0] = value
        with pytest.raises(DegenerateInputError, match="row 2 "):
            TimeSeriesBatch(
                values=values,
                labels=np.zeros(4),
                label_mask=np.zeros(4, dtype=bool),
                channels=2,
                length=4,
            )

    def test_3d_view_round_trips(self):
        batch = _batch(np.random.default_rng(0))
        npt.assert_array_equal(
            batch.as_3d().reshape(batch.n, -1), batch.values
        )

    def test_take_selects_rows(self):
        batch = _batch(np.random.default_rng(1))
        sub = batch.take(np.array([3, 0]))
        npt.assert_array_equal(sub.values[0], batch.values[3])
        npt.assert_array_equal(sub.labels, batch.labels[[3, 0]])


class TestWeakAugment:
    def test_zero_noise_is_identity(self):
        batch = _batch(np.random.default_rng(2))
        params = AugmentParams(weak_jitter=0.0, weak_scale=0.0)
        out = weak_augment(batch, np.random.default_rng(0), params)
        npt.assert_array_equal(out.values, batch.values)

    def test_scaling_fixes_the_zero_series(self):
        batch = TimeSeriesBatch(
            values=np.zeros((3, 8)),
            labels=np.zeros(3),
            label_mask=np.zeros(3, dtype=bool),
            channels=1,
            length=8,
        )
        params = AugmentParams(weak_jitter=0.0, weak_scale=0.7)
        out = weak_augment(batch, np.random.default_rng(5), params)
        npt.assert_array_equal(out.values, np.zeros((3, 8)))

    def test_seeded_rerun_is_bit_identical(self):
        batch = _batch(np.random.default_rng(3))
        a = weak_augment(batch, np.random.default_rng(42))
        b = weak_augment(batch, np.random.default_rng(42))
        npt.assert_array_equal(a.values, b.values)
        c = weak_augment(batch, np.random.default_rng(43))
        assert not np.array_equal(a.values, c.values)

    def test_metadata_preserved(self):
        batch = _batch(np.random.default_rng(4))
        out = weak_augment(batch, np.random.default_rng(0))
        npt.assert_array_equal(out.labels, batch.labels)
        npt.assert_array_equal(out.label_mask, batch.label_mask)
        assert (out.n, out.channels, out.length) == (
            batch.n,
            batch.channels,
            batch.length,
        )


class TestStrongAugment:
    def test_single_segment_zero_noise_is_identity(self):
        batch = _batch(np.random.default_rng(6))
        params = AugmentParams(strong_jitter=0.0, max_segments=1)
        out = strong_augment(batch, np.random.default_rng(0), params)
        npt.assert_array_equal(out.values, batch.values)

    def test_permutation_preserves_per_channel_multiset(self):
        batch = _batch(np.random.default_rng(7), n=8, channels=3, length=20)
        params = AugmentParams(strong_jitter=0.0, max_segments=5)
        out = strong_augment(batch, np.random.default_rng(9), params)
        before = np.sort(batch.as_3d(), axis=2)
        after = np.sort(out.as_3d(), axis=2)
        npt.assert_array_equal(before, after)

    def test_seeded_rerun_is_bit_identical(self):
        batch = _batch(np.random.default_rng(8))
        a = strong_augment(batch, np.random.default_rng(23))
        b = strong_augment(batch, np.random.default_rng(23))
        npt.assert_array_equal(a.values, b.values)

    def test_short_series_rejected(self):
        batch = _batch(np.random.default_rng(9), length=3)
        with pytest.raises(ParameterError, match="max_segments"):
            strong_augment(batch, np.random.default_rng(0), AugmentParams(max_segments=5))

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            AugmentParams(weak_jitter=-0.1)
        for field in ("weak_jitter", "weak_scale", "strong_jitter"):
            with pytest.raises(ParameterError, match="finite"):
                AugmentParams(**{field: float("nan")})
        with pytest.raises(ParameterError, match="max_segments"):
            AugmentParams(max_segments=0)

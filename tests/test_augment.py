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

    def test_draws_jitter_then_one_factor_per_sample(self):
        batch = _batch(np.random.default_rng(10))
        params = AugmentParams(weak_jitter=0.3, weak_scale=0.2)
        out = weak_augment(batch, np.random.default_rng(11), params)
        rng = np.random.default_rng(11)
        noise = rng.normal(0.0, 0.3, size=batch.values.shape)
        factor = rng.normal(1.0, 0.2, size=(batch.n, 1))
        npt.assert_array_equal(out.values, (batch.values + noise) * factor)

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


def _arange_batch(n, channels, length) -> TimeSeriesBatch:
    """Every channel of every row holds 0..length-1 shifted by length*channel."""
    values = np.arange(channels * length, dtype=np.float64)
    return TimeSeriesBatch(
        values=np.tile(values, (n, 1)),
        labels=np.zeros(n),
        label_mask=np.zeros(n, dtype=bool),
        channels=channels,
        length=length,
    )


def _permutations(n, channels, length, max_segments, seed=0) -> np.ndarray:
    """The time permutation each row of a zero-jitter strong view applies."""
    params = AugmentParams(strong_jitter=0.0, max_segments=max_segments)
    out = strong_augment(_arange_batch(n, channels, length), np.random.default_rng(seed), params)
    steps = out.as_3d() - length * np.arange(channels)[:, None]
    return steps.astype(np.int64)


def _runs(permutation: np.ndarray) -> int:
    """How many contiguous ascending runs (t, t+1, ...) a permutation holds."""
    return 1 + int(np.count_nonzero(np.diff(permutation) != 1))


class TestStrongAugment:
    @pytest.mark.parametrize("channels,length,max_segments", [(1, 16, 5), (3, 7, 4)])
    def test_rows_are_at_most_max_segments_ascending_runs(self, channels, length, max_segments):
        perms = _permutations(500, channels, length, max_segments)[:, 0]
        for perm in perms:
            npt.assert_array_equal(np.sort(perm), np.arange(length))
            assert _runs(perm) <= max_segments

    def test_channels_share_the_time_permutation(self):
        perms = _permutations(300, 4, 12, 5)
        npt.assert_array_equal(perms, np.broadcast_to(perms[:, :1], perms.shape))

    def test_segment_counts_and_cuts_cover_their_ranges(self):
        n, length, max_segments = 2000, 16, 5
        perms = _permutations(n, 1, length, max_segments, seed=3)[:, 0]
        # The segment counts are the view's first draw.
        counts = np.random.default_rng(3).integers(1, max_segments + 1, n)
        assert set(counts.tolist()) == set(range(1, max_segments + 1))
        runs = np.array([_runs(perm) for perm in perms])
        assert (runs <= counts).all()
        assert (perms[counts == 1] == np.arange(length)).all()
        # Gap g lies between source steps g and g+1; a permutation that does
        # not keep them adjacent cut it.
        position = np.argsort(perms, axis=1)
        cut = np.diff(position, axis=1) != 1
        assert cut.any(axis=0).all()

    def test_max_segments_equal_to_length(self):
        length = 5
        perms = _permutations(2000, 2, length, length, seed=4)[:, 0]
        assert (np.sort(perms, axis=1) == np.arange(length)).all()
        assert max(_runs(perm) for perm in perms) == length

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

"""Tests for synthetic generation, label splitting, and delimited I/O."""

from __future__ import annotations

import re

import numpy as np
import numpy.testing as npt
import pytest

from tscl.data import (
    SynthSpec,
    class_template,
    generate,
    load_delimited,
    save_delimited,
    split_labels,
    stratified_split,
)
from tscl.errors import InfeasibleSplitError, ParameterError, ParseError


class TestSynthSpec:
    def test_counts_must_descend(self):
        with pytest.raises(ParameterError, match="descending"):
            SynthSpec(class_counts=(10, 20))

    def test_imbalance_ratio_reported(self):
        spec = SynthSpec(class_counts=(403, 120, 30, 10))
        assert abs(spec.imbalance_ratio - 40.3) < 1e-12

    def test_needs_two_classes(self):
        with pytest.raises(ParameterError, match="two classes"):
            SynthSpec(class_counts=(10,))

    @pytest.mark.parametrize(
        "name",
        ["noise_sigma", "base_frequency", "frequency_step", "amplitude_decay", "phase_spread"],
    )
    def test_non_finite_shape_parameters_rejected(self, name):
        # NaN noise would generate NaN series, and an infinite phase spread
        # ends in an OverflowError from the generator.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match=f"{name} must be finite"):
                SynthSpec(class_counts=(4, 2), **{name: value})


    @pytest.mark.parametrize("value", [True, "0.1", [0.1]])
    def test_shape_parameters_reject_bools_and_non_numbers(self, value):
        with pytest.raises(ParameterError, match="noise_sigma must be a number, got "):
            SynthSpec(class_counts=(4, 2), noise_sigma=value)


class TestGenerate:
    def test_counts_match_spec_exactly(self):
        spec = SynthSpec(class_counts=(12, 7, 3), length=16, seed=1)
        batch = generate(spec)
        assert batch.n == 22
        npt.assert_array_equal(np.bincount(batch.labels), [12, 7, 3])
        assert not batch.label_mask.any()

    def test_noise_free_same_class_rows_are_identical(self):
        spec = SynthSpec(class_counts=(4, 2), length=16, noise_sigma=0.0, seed=3)
        batch = generate(spec)
        for y in (0, 1):
            rows = batch.values[batch.labels == y]
            for row in rows[1:]:
                npt.assert_array_equal(row, rows[0])

    def test_classes_have_distinct_templates(self):
        spec = SynthSpec(class_counts=(2, 2, 2), length=32)
        templates = [class_template(spec, y) for y in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                assert not np.allclose(templates[a], templates[b])

    def test_bit_deterministic_per_seed(self):
        spec = SynthSpec(class_counts=(6, 3), length=16, seed=9)
        npt.assert_array_equal(generate(spec).values, generate(spec).values)
        other = SynthSpec(class_counts=(6, 3), length=16, seed=10)
        assert not np.array_equal(generate(spec).values, generate(other).values)


class TestSplitLabels:
    def test_balanced_arithmetic_example(self):
        spec = SynthSpec(class_counts=(100, 100, 100, 100), length=16, seed=0)
        batch = generate(spec)
        out = split_labels(batch, 0.1, np.random.default_rng(0))
        picked = out.labels[out.label_mask]
        npt.assert_array_equal(np.bincount(picked), [10, 10, 10, 10])

    def test_full_fraction_labels_everything_balanced(self):
        spec = SynthSpec(class_counts=(8, 8), length=16, seed=0)
        out = split_labels(generate(spec), 1.0, np.random.default_rng(0))
        assert out.label_mask.all()

    def test_equal_counts_even_under_imbalance(self):
        spec = SynthSpec(class_counts=(403, 120, 30, 10), length=16, seed=2)
        out = split_labels(generate(spec), 0.1, np.random.default_rng(1))
        picked = out.labels[out.label_mask]
        counts = np.bincount(picked, minlength=4)
        # The minority class caps the common count at its own size.
        npt.assert_array_equal(counts, [10, 10, 10, 10])

    def test_minority_too_small_is_infeasible(self):
        spec = SynthSpec(class_counts=(100, 5), length=16, seed=0)
        with pytest.raises(InfeasibleSplitError, match="smallest class"):
            split_labels(generate(spec), 0.1, np.random.default_rng(0))

    def test_mask_is_deterministic_per_seed(self):
        spec = SynthSpec(class_counts=(40, 20), length=16, seed=4)
        batch = generate(spec)
        a = split_labels(batch, 0.2, np.random.default_rng(7))
        b = split_labels(batch, 0.2, np.random.default_rng(7))
        npt.assert_array_equal(a.label_mask, b.label_mask)


class TestStratifiedSplit:
    def test_every_class_lands_on_both_sides(self):
        spec = SynthSpec(class_counts=(50, 20, 10), length=16, seed=5)
        train, test = stratified_split(
            generate(spec), 0.2, np.random.default_rng(0)
        )
        assert set(np.unique(train.labels)) == {0, 1, 2}
        assert set(np.unique(test.labels)) == {0, 1, 2}
        assert train.n + test.n == 80
        npt.assert_array_equal(np.bincount(test.labels), [10, 4, 2])

    def test_split_is_disjoint(self):
        spec = SynthSpec(class_counts=(10, 5), length=16, seed=6)
        batch = generate(spec)
        train, test = stratified_split(batch, 0.2, np.random.default_rng(1))
        joined = np.vstack([train.values, test.values])
        assert joined.shape[0] == batch.n
        # Every original row appears exactly once across the two sides.
        original = {row.tobytes() for row in batch.values}
        assert {row.tobytes() for row in joined} == original


class TestDelimitedIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = SynthSpec(class_counts=(5, 3), length=16, channels=2, seed=7)
        batch = generate(spec)
        path = tmp_path / "series.csv"
        save_delimited(batch, path)
        loaded = load_delimited(path, channels=2, length=16)
        npt.assert_array_equal(loaded.values, batch.values)
        npt.assert_array_equal(loaded.labels, batch.labels)
        assert loaded.label_mask.all()

    def test_empty_file_gives_empty_batch(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        batch = load_delimited(path, channels=1, length=8)
        assert batch.n == 0

    def test_wrong_width_names_line_and_counts(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,1.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2.*expected 3 fields.*found 2"):
            load_delimited(path, channels=1, length=2)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad_label.csv"
        path.write_text("9,1.0,2.0\n")
        with pytest.raises(ParseError, match="label 9"):
            load_delimited(path, channels=1, length=2, n_classes=4)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0,1.0,oops\n")
        with pytest.raises(ParseError, match="line 1"):
            load_delimited(path, channels=1, length=2)

    @pytest.mark.parametrize("token, shown", [("nan", "nan"), ("-inf", "-inf"), ("Infinity", "inf")])
    def test_non_finite_value_names_line(self, tmp_path, token, shown):
        # A blank line before the bad row checks that the line number, not
        # the row index, is reported.
        path = tmp_path / "non_finite.csv"
        path.write_text(f"0,1.0,2.0\n\n1,{token},2.0\n")
        with pytest.raises(ParseError, match=f"line 3: field 2 is {shown}, not a finite"):
            load_delimited(path, channels=1, length=2)

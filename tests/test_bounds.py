"""Tests for the contrastive lower bounds, equality conditions, and gap."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from tscl.bounds import (
    bound_sc,
    bound_sc_from_sims,
    bound_uc,
    bound_uc_from_sims,
    check_equality_conditions,
    equality_conditions_from_sims,
    fuzz_bounds,
    imbalance_gap,
)
from tscl.errors import (
    DegenerateClassError,
    ParameterError,
    UndefinedBoundError,
)
from tscl.losses import BatchIndexing, two_view_indexing

LOG3 = 1.0986122886681098


def _unit(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def simplex_prototypes(n_classes: int) -> np.ndarray:
    """Unit vectors with all pairwise inner products equal to -1/(C-1)."""
    eye = np.eye(n_classes)
    centered = eye - 1.0 / n_classes
    return np.sqrt(n_classes / (n_classes - 1.0)) * centered


def clustered_batch(n_classes: int, per_class: int) -> tuple[np.ndarray, BatchIndexing]:
    """Each class repeats its own prototype; pairs are within-class."""
    protos = simplex_prototypes(n_classes)
    z = np.repeat(protos, per_class, axis=0)
    labels = np.repeat(np.arange(n_classes), per_class)
    partner = np.arange(len(labels))
    partner += np.where(partner % 2 == 0, 1, -1)
    return z, BatchIndexing(labels=labels, partner=partner)


class TestSupervisedBound:
    def test_uniform_configuration_saturates(self):
        z = np.tile([1.0, 0.0], (4, 1))
        idx = two_view_indexing(np.array([0, 1]))
        for tau in (0.2, 0.5, 1.0):
            report = bound_sc(z, idx, class_index=0, temperature=tau)
            for anchor in report.anchors:
                assert abs(anchor.bound_value - LOG3) < 1e-12
                assert abs(anchor.actual_value - LOG3) < 1e-12
            assert abs(report.slack) < 1e-12
            assert report.q1_satisfied and report.q2_satisfied

    def test_single_positive_slack_is_negative_pool_jensen_gap(self):
        rng = np.random.default_rng(17)
        z = _unit(rng, 6, 5)
        idx = two_view_indexing(np.array([0, 1, 2]))
        report = bound_sc(z, idx, class_index=0, temperature=1.0)
        # Q1 is vacuous with a single same-class candidate per anchor.
        assert report.q1_satisfied and report.equality.q1_max_dev == 0.0
        sims = z @ z.T
        members = np.flatnonzero(idx.labels == 0)
        comp = np.flatnonzero(idx.labels != 0)
        expected = 0.0
        for i in members:
            pos = members[members != i][0]
            exact = np.log(np.exp(sims[i, pos]) + np.exp(sims[i, comp]).sum())
            grouped = np.log(
                np.exp(sims[i, pos])
                + comp.size * np.exp(sims[i, comp].mean())
            )
            expected += exact - grouped
        assert abs(report.slack - expected) < 1e-12

    def test_primary_term_is_positive_pool_size(self):
        z, idx = clustered_batch(3, 4)
        report = bound_sc(z, idx, class_index=1, temperature=0.5)
        assert report.primary_term_name == "constant"
        for anchor in report.anchors:
            assert anchor.primary_term == 3.0


class TestInstanceBound:
    def test_uniform_configuration_saturates(self):
        z = np.tile([0.0, 1.0], (4, 1))
        idx = two_view_indexing(np.array([0, 1]))
        report = bound_uc(z, idx, class_index=0, temperature=0.5)
        for anchor in report.anchors:
            # Same-class pool of 1 and other-class pool of 2, both at
            # exponential 1, give log(1 + 2) per anchor.
            assert abs(anchor.primary_term - 1.0) < 1e-12
            assert abs(anchor.confrontation_term - 2.0) < 1e-12
            assert abs(anchor.bound_value - LOG3) < 1e-12
        assert abs(report.slack) < 1e-12

    def test_dominant_positive_leaves_positive_slack(self):
        # The anchor's pair similarity exceeds every other same-class
        # similarity, so the within-class pool violates Q1 and the bound
        # is strictly loose.
        n = 6
        sims = np.full((n, n), 0.5)
        np.fill_diagonal(sims, 1.0)
        idx = BatchIndexing(
            labels=np.array([0, 0, 0, 0, 1, 1]),
            partner=np.array([1, 0, 3, 2, 5, 4]),
        )
        for i in range(4):
            sims[i, idx.partner[i]] = 0.9
        report = bound_uc_from_sims(sims, idx, class_index=0, temperature=1.0)
        assert not report.q1_satisfied
        assert report.slack > 1e-6
        assert report.total_actual > report.total_bound

    def test_matches_manual_two_pool_formula(self):
        rng = np.random.default_rng(23)
        z = _unit(rng, 8, 4)
        idx = two_view_indexing(np.array([0, 0, 1, 1]))
        tau = 0.4
        report = bound_uc(z, idx, class_index=1, temperature=tau)
        sims = z @ z.T / tau
        members = np.flatnonzero(idx.labels == 1)
        comp = np.flatnonzero(idx.labels != 1)
        for anchor, i in zip(report.anchors, members):
            same = members[members != i]
            sij = sims[i, idx.partner[i]]
            confliction = same.size * np.exp(sims[i, same].mean() - sij)
            confrontation = comp.size * np.exp(sims[i, comp].mean() - sij)
            assert abs(anchor.bound_value - np.log(confliction + confrontation)) < 1e-12


class TestEqualityConditions:
    def test_identical_embeddings_satisfy_both(self):
        z = np.tile([0.6, 0.8], (6, 1))
        idx = two_view_indexing(np.array([0, 0, 1]))
        eq = check_equality_conditions(z, idx, class_index=0)
        assert eq.both
        assert eq.q1_max_dev == 0.0 and eq.q2_max_dev == 0.0

    def test_single_perturbed_negative_breaks_q2_by_that_amount(self):
        z, idx = clustered_batch(3, 4)
        sims = z @ z.T
        comp = np.flatnonzero(idx.labels != 0)
        sims[0, comp[0]] += 0.1
        eq = equality_conditions_from_sims(sims, idx, class_index=0)
        assert not eq.q2_satisfied
        assert abs(eq.q2_max_dev - 0.1) < 1e-9
        report = bound_sc_from_sims(sims, idx, class_index=0, temperature=1.0)
        assert report.slack > 1e-6

    def test_single_perturbed_positive_breaks_q1(self):
        z, idx = clustered_batch(3, 4)
        sims = z @ z.T
        members = np.flatnonzero(idx.labels == 0)
        sims[members[0], members[1]] += 0.1
        eq = equality_conditions_from_sims(sims, idx, class_index=0)
        assert not eq.q1_satisfied
        assert abs(eq.q1_max_dev - 0.1) < 1e-9
        report = bound_sc_from_sims(sims, idx, class_index=0, temperature=1.0)
        assert report.slack > 1e-6

    def test_clustered_simplex_configuration_saturates_both_bounds(self):
        z, idx = clustered_batch(3, 4)
        for y in range(3):
            eq = check_equality_conditions(z, idx, class_index=y, tol=1e-12)
            assert eq.both
            sc = bound_sc(z, idx, class_index=y, temperature=1.0)
            uc = bound_uc(z, idx, class_index=y, temperature=1.0)
            assert abs(sc.slack) < 1e-9
            assert abs(uc.slack) < 1e-9


class TestImbalanceGap:
    def test_worked_example(self):
        analysis = imbalance_gap(2.0, 0.5, minority_count=1)
        assert abs(analysis.gap_factor - 0.5) < 1e-15
        assert abs(analysis.lb_majority - 2.5) < 1e-15
        assert abs(analysis.lb_minority - 2.0) < 1e-15

    def test_balanced_and_fully_learned_cases_close_the_gap(self):
        for e in (0.1, 0.5, 1.0):
            assert imbalance_gap(1.0, e).gap_factor == 0.0
        for r in (1.0, 7.86, 40.34):
            assert imbalance_gap(r, 1.0).gap_factor == 0.0

    def test_majority_argument_dominates_on_grid(self):
        for r in (1.0, 2.0, 7.86, 24.97, 40.34):
            for e in np.arange(0.1, 1.01, 0.1):
                analysis = imbalance_gap(r, float(e), minority_count=10)
                assert analysis.lb_majority >= analysis.lb_minority - 1e-12
                assert analysis.gap_factor >= 0.0

    def test_monotone_in_ratio_and_antitone_in_exponential(self):
        rs = [1.0, 2.0, 5.0, 20.0]
        gaps = [imbalance_gap(r, 0.5).gap_factor for r in rs]
        assert all(a <= b for a, b in zip(gaps, gaps[1:]))
        es = [0.1, 0.4, 0.7, 1.0]
        gaps = [imbalance_gap(10.0, e).gap_factor for e in es]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_domain_violations_rejected(self):
        with pytest.raises(ParameterError, match="ratio"):
            imbalance_gap(0.5, 0.5)
        with pytest.raises(ParameterError, match="exponential"):
            imbalance_gap(2.0, 0.0)
        with pytest.raises(ParameterError, match="exponential"):
            imbalance_gap(2.0, 1.5)
        with pytest.raises(ParameterError, match="minority"):
            imbalance_gap(2.0, 0.5, minority_count=0)


class TestPreconditions:
    def test_full_batch_class_has_no_bound(self):
        z = _unit(np.random.default_rng(1), 4, 3)
        idx = two_view_indexing(np.array([0, 0]))
        with pytest.raises(UndefinedBoundError, match="other-class"):
            bound_sc(z, idx, class_index=0)

    def test_small_class_is_rejected(self):
        z = _unit(np.random.default_rng(2), 4, 3)
        idx = BatchIndexing(
            labels=np.array([0, 0, 0, 1]), partner=np.array([1, 0, 3, 2])
        )
        with pytest.raises(DegenerateClassError, match="class 1"):
            bound_uc(z, idx, class_index=1)

    def test_non_unit_embeddings_rejected(self):
        z = 2.0 * _unit(np.random.default_rng(3), 4, 3)
        idx = two_view_indexing(np.array([0, 1]))
        with pytest.raises(Exception, match="unit-norm"):
            bound_sc(z, idx, class_index=0)


class TestFuzz:
    def test_no_violations_on_modest_sweep(self):
        summary = fuzz_bounds(configurations=200, seed=11)
        assert summary.violations == 0
        assert summary.worst_slack >= -1e-9
        assert summary.evaluations > 200

    def test_sweep_is_deterministic(self):
        a = fuzz_bounds(configurations=50, seed=3)
        b = fuzz_bounds(configurations=50, seed=3)
        assert a.worst_slack == b.worst_slack
        assert a.evaluations == b.evaluations

    def test_infeasible_ranges_rejected(self):
        with pytest.raises(ParameterError, match="infeasible"):
            fuzz_bounds(configurations=10, max_batch=2)

    @pytest.mark.parametrize("equality_tol", [1e-12, 0.3])
    def test_equality_summary_matches_recount(self, equality_tol):
        # Redraw the sweep's configurations from the same stream and judge
        # each class's equality conditions directly at ``equality_tol``.
        configurations, seed, temperatures = 200, 5, (0.2, 0.5, 1.0)
        summary = fuzz_bounds(
            configurations=configurations, seed=seed, equality_tol=equality_tol
        )
        rng = np.random.default_rng(seed)
        count, worst = 0, -np.inf
        for _ in range(configurations):
            pairs = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 9))
            n_classes = int(rng.integers(2, 5))
            view_labels = rng.integers(0, n_classes, size=pairs)
            if np.unique(view_labels).size < 2:
                view_labels[0] = (view_labels[0] + 1) % n_classes
            idx = two_view_indexing(view_labels)
            z = rng.standard_normal((2 * pairs, dim))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            sims = z @ z.T
            for tau in temperatures:
                for y in np.unique(idx.labels):
                    eq = equality_conditions_from_sims(
                        sims, idx, int(y), tol=equality_tol
                    )
                    if not eq.both:
                        continue
                    for builder in (bound_sc_from_sims, bound_uc_from_sims):
                        count += 1
                        worst = max(worst, builder(sims, idx, int(y), tau).slack)
        assert summary.equality_evaluations == count > 0
        assert summary.worst_equality_slack == worst

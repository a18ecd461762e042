"""Tests for the contrastive lower bounds, equality conditions, and gap."""

from __future__ import annotations

import itertools

import numpy as np
import numpy.testing as npt
import pytest

from tscl.bounds import (
    FUZZ_TEMPERATURES,
    _anchor_stats,
    bound_sc,
    bound_sc_from_sims,
    bound_uc,
    bound_uc_from_sims,
    equality_conditions_from_sims,
    fuzz_bounds,
    imbalance_gap,
)
from tscl.errors import (
    DegenerateClassError,
    DegenerateInputError,
    ParameterError,
    UndefinedBoundError,
)
from tscl.losses import BatchIndexing, two_view_indexing

from gradcheck import assert_same_bits

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


def _equality_loop(sims, labels, class_index, tol):
    """Reference: the per-anchor spread loop the vectorised check replaced."""
    members = np.flatnonzero(labels == class_index)
    complement = np.flatnonzero(labels != class_index)
    q1_dev = 0.0
    q2_dev = 0.0
    for i in members:
        same = sims[i, members[members != i]]
        if same.size > 1:
            q1_dev = max(q1_dev, float(same.max() - same.min()))
        other = sims[i, complement]
        if other.size > 1:
            q2_dev = max(q2_dev, float(other.max() - other.min()))
    return q1_dev <= tol, q1_dev.hex(), q2_dev <= tol, q2_dev.hex()


def _recount_fuzz(configurations, seed, max_batch, max_classes, equality_tol):
    """Reference sweep: redraw the configurations and run the public builders
    in the order ``for tau: for class: for builder``."""
    rng = np.random.default_rng(seed)
    evaluations = violations = equality_evaluations = 0
    worst_slack, worst_config, worst_equality_slack = np.inf, -1, -np.inf
    for config in range(configurations):
        pairs = int(rng.integers(2, max_batch // 2 + 1))
        dim = int(rng.integers(1, 9))
        n_classes = int(rng.integers(2, max_classes + 1))
        view_labels = rng.integers(0, n_classes, size=pairs)
        if np.unique(view_labels).size < 2:
            view_labels[0] = (view_labels[0] + 1) % n_classes
        idx = two_view_indexing(view_labels)
        z = rng.standard_normal((2 * pairs, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        sims = z @ z.T
        for tau in FUZZ_TEMPERATURES:
            for y in np.unique(idx.labels):
                for builder in (bound_sc_from_sims, bound_uc_from_sims):
                    report = builder(sims, idx, int(y), tau, equality_tol)
                    evaluations += 1
                    if report.slack < worst_slack:
                        worst_slack, worst_config = report.slack, config
                    if report.slack < -1e-9:
                        violations += 1
                    if report.equality.both:
                        equality_evaluations += 1
                        worst_equality_slack = max(worst_equality_slack, report.slack)
    return {
        "configurations": configurations,
        "evaluations": evaluations,
        "violations": violations,
        "worst_slack": float(worst_slack),
        "worst_slack_config": worst_config,
        "equality_evaluations": equality_evaluations,
        "worst_equality_slack": float(worst_equality_slack),
    }


def _summary_fields(summary):
    fields = summary.to_dict()
    del fields["elapsed_seconds"]
    return fields


def _oracle_anchor_lse(sims, members, temperature):
    """The bound sweep's per-anchor log-sum-exp as first written."""
    rows = (sims / temperature)[members]
    rows[np.arange(members.size), members] = -np.inf
    peak = rows.max(axis=1)
    return peak + np.log(np.exp(rows - peak[:, None]).sum(axis=1))


class TestAnchorLogSumExpParity:
    @pytest.mark.parametrize("kind", ["random", "nan", "inf", "-inf", "all_-inf_row"])
    @pytest.mark.parametrize("pairs", [2, 9])
    def test_matches_first_written_sweep(self, pairs, kind):
        rng = np.random.default_rng([pairs, len(kind)])
        idx = two_view_indexing(np.arange(pairs) % 2)
        z = _unit(rng, 2 * pairs, 3)
        sims = z @ z.T
        if kind == "all_-inf_row":
            sims[0] = -np.inf
        elif kind != "random":
            hit = rng.random(sims.shape) < 0.2
            hit[0, 1] = True
            sims[hit] = float(kind)
        members = np.flatnonzero(idx.labels == 0)
        complement = np.flatnonzero(idx.labels != 0)
        for tau in FUZZ_TEMPERATURES:
            with np.errstate(all="ignore"):
                stats = _anchor_stats(sims, idx, members, complement, tau)
                want = _oracle_anchor_lse(sims, members, tau)
            assert_same_bits(stats.lse, want)


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
        eq = equality_conditions_from_sims(z @ z.T, idx, class_index=0)
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

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_anchor_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        cases = [
            # Q1 vacuous: class 0 has two members.
            (np.array([0, 0, 1, 1]), 0),
            (np.array([0, 0, 1, 1, 1, 1]), 0),
            # Q2 vacuous: class 0 has one complement row.
            (np.array([0, 0, 0, 1]), 0),
            (np.array([0, 1, 1, 1, 1, 1]), 1),
        ]
        for _ in range(20):
            n = 2 * int(rng.integers(2, 9))
            labels = rng.integers(0, 4, size=n)
            for y in np.unique(labels):
                if 2 <= np.sum(labels == y) < n:
                    cases.append((labels, int(y)))
        for labels, y in cases:
            n = labels.size
            idx = BatchIndexing(labels=labels, partner=np.arange(n) ^ 1)
            sims = rng.standard_normal((n, n))
            if rng.random() < 0.5:
                sims = np.round(sims * 2) / 2  # ties
            for tol in (1e-12, 0.3):
                eq = equality_conditions_from_sims(sims, idx, y, tol=tol)
                got = (eq.q1_satisfied, eq.q1_max_dev.hex(), eq.q2_satisfied, eq.q2_max_dev.hex())
                assert got == _equality_loop(sims, labels, y, tol)

    def test_clustered_simplex_configuration_saturates_both_bounds(self):
        z, idx = clustered_batch(3, 4)
        for y in range(3):
            eq = equality_conditions_from_sims(z @ z.T, idx, class_index=y, tol=1e-12)
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

    def test_empty_temperatures_rejected(self):
        with pytest.raises(ParameterError, match="temperature"):
            fuzz_bounds(configurations=10, temperatures=())

    @pytest.mark.parametrize("temperature", [np.nan, np.inf, -np.inf, 0.0])
    def test_temperature_that_tests_nothing_rejected(self, temperature):
        with pytest.raises(ParameterError, match="positive and finite"):
            fuzz_bounds(configurations=10, temperatures=(0.5, temperature))
        z, idx = clustered_batch(3, 4)
        with pytest.raises(ParameterError, match="positive and finite"):
            bound_uc(z, idx, class_index=0, temperature=temperature)

    def test_non_finite_similarities_rejected(self):
        z, idx = clustered_batch(3, 4)
        sims = z @ z.T
        sims[0, 5] = np.nan
        for check in (bound_sc_from_sims, bound_uc_from_sims, equality_conditions_from_sims):
            with pytest.raises(DegenerateInputError, match="non-finite"):
                check(sims, idx, 0)

    @pytest.mark.parametrize("equality_tol", [1e-12, 0.3])
    def test_equality_summary_matches_recount(self, equality_tol):
        # The whole summary, judged against the public builders run in the
        # sweep's original loop order.  The 0.3 tolerance fails if the sweep
        # does not pass ``equality_tol`` through.
        for seed, max_batch, max_classes in itertools.product(
            (0, 5, 11), (5, 16, 32), (2, 6)
        ):
            summary = fuzz_bounds(
                configurations=100,
                seed=seed,
                max_batch=max_batch,
                max_classes=max_classes,
                equality_tol=equality_tol,
            )
            expected = _recount_fuzz(100, seed, max_batch, max_classes, equality_tol)
            assert _summary_fields(summary) == expected, (seed, max_batch, max_classes)

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, (7398, 0, 0.0, 39, 66, 8.881784197001252e-16)),
            (6, (7662, 0, -1.618713843520858e-16, 359, 42, 4.440892098500626e-16)),
        ],
    )
    def test_pinned_summary(self, seed, expected):
        summary = fuzz_bounds(configurations=500, seed=seed)
        fields = _summary_fields(summary)
        assert fields.pop("configurations") == 500
        assert tuple(fields.values()) == expected

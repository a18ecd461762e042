"""Tests for the loss zoo: contrastive, multi-instance, consistency, combined."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from tscl import autodiff as ad
from tscl.errors import (
    DegenerateClassError,
    NormalizationError,
    ParameterError,
)
from tscl.graph import build_similarity
from tscl.losses import (
    UNDERFLOW_FLOOR,
    BatchIndexing,
    LossReport,
    loss_cc,
    loss_combined,
    loss_id,
    loss_mid,
    loss_sc,
    loss_uc,
    two_view_indexing,
)

from gradcheck import assert_same_bits, fd_gradient, relative_error

LOG3 = 1.0986122886681098
LOG4 = 1.3862943611198906


def _unit(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _uc_oracle(z: np.ndarray, partner: np.ndarray, tau: float) -> np.ndarray:
    s = z @ z.T / tau
    n = z.shape[0]
    out = np.zeros(n)
    for i in range(n):
        cand = np.delete(s[i], i)
        out[i] = np.log(np.exp(cand).sum()) - s[i, partner[i]]
    return out


def _sc_oracle(z: np.ndarray, labels: np.ndarray, tau: float) -> np.ndarray:
    s = z @ z.T / tau
    n = z.shape[0]
    out = np.zeros(n)
    for i in range(n):
        cand = np.delete(s[i], i)
        lse = np.log(np.exp(cand).sum())
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        out[i] = np.mean([lse - s[i, j] for j in pos])
    return out


class TestIndexing:
    def test_two_view_layout(self):
        idx = two_view_indexing(np.array([0, 1, 0]))
        npt.assert_array_equal(idx.labels, [0, 1, 0, 0, 1, 0])
        npt.assert_array_equal(idx.partner, [3, 4, 5, 0, 1, 2])

    def test_rejects_fixed_points_and_non_involutions(self):
        with pytest.raises(ParameterError, match="fixed points"):
            BatchIndexing(labels=np.zeros(2), partner=np.array([0, 1]))
        with pytest.raises(ParameterError, match="involution"):
            BatchIndexing(labels=np.zeros(3), partner=np.array([1, 2, 0]))

    def test_members_and_complement(self):
        idx = BatchIndexing(
            labels=np.array([0, 1, 0, 1]), partner=np.array([2, 3, 0, 1])
        )
        npt.assert_array_equal(idx.class_members()[0], [0, 2])
        npt.assert_array_equal(idx.complement(0), [1, 3])


class TestInstanceLoss:
    def test_identical_embeddings_give_log3(self):
        z = ad.leaf(np.tile([1.0, 0.0], (4, 1)))
        idx = two_view_indexing(np.array([0, 1]))
        for tau in (0.2, 0.5, 1.0):
            report = loss_uc(z, idx, temperature=tau)
            for _, _, value in report.per_anchor:
                assert abs(value - LOG3) < 1e-12

    def test_perfect_positives_drive_loss_to_zero(self):
        u = np.array([0.6, 0.8])
        z = ad.leaf(np.stack([u, u, -u, -u]))
        idx = BatchIndexing(
            labels=np.array([0, 0, 1, 1]), partner=np.array([1, 0, 3, 2])
        )
        report = loss_uc(z, idx, temperature=0.1)
        for _, _, value in report.per_anchor:
            assert value < 1e-8

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(21)
        z = _unit(rng, 8, 5)
        idx = two_view_indexing(rng.integers(0, 3, size=4))
        report = loss_uc(ad.leaf(z), idx, temperature=0.5)
        expected = _uc_oracle(z, idx.partner, 0.5)
        got = np.array([v for _, _, v in report.per_anchor])
        npt.assert_allclose(got, expected, rtol=0, atol=1e-10)
        assert abs(report.total - expected.mean()) < 1e-12

    def test_rejects_non_unit_rows(self):
        z = ad.leaf(np.array([[2.0, 0.0], [0.0, 1.0]]))
        idx = two_view_indexing(np.array([0]))
        with pytest.raises(NormalizationError, match="unit-norm"):
            loss_uc(z, idx, temperature=0.5)

    def test_id_shares_the_uc_contract(self):
        rng = np.random.default_rng(5)
        z = _unit(rng, 6, 4)
        idx = two_view_indexing(rng.integers(0, 2, size=3))
        a = loss_uc(ad.leaf(z), idx, temperature=0.2)
        b = loss_id(ad.leaf(z), idx, temperature=0.2)
        assert b.name == "ID"
        assert abs(a.total - b.total) < 1e-15


class TestSupervisedLoss:
    def test_identical_embeddings_give_log3(self):
        z = ad.leaf(np.tile([0.0, 1.0], (4, 1)))
        idx = two_view_indexing(np.array([0, 1]))
        report = loss_sc(z, idx, temperature=0.5)
        for _, _, value in report.per_anchor:
            assert abs(value - LOG3) < 1e-12

    def test_single_class_uniform_reduces_to_log_n_minus_1(self):
        n = 6
        z = ad.leaf(np.tile([1.0, 0.0, 0.0], (n, 1)))
        idx = two_view_indexing(np.zeros(n // 2, dtype=int))
        report = loss_sc(z, idx, temperature=0.3)
        for _, _, value in report.per_anchor:
            assert abs(value - np.log(n - 1)) < 1e-12

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(33)
        z = _unit(rng, 10, 6)
        idx = two_view_indexing(rng.integers(0, 2, size=5))
        report = loss_sc(ad.leaf(z), idx, temperature=0.4)
        expected = _sc_oracle(z, idx.labels, 0.4)
        got = np.array([v for _, _, v in report.per_anchor])
        npt.assert_allclose(got, expected, rtol=0, atol=1e-10)

    def test_singleton_class_is_rejected_by_name(self):
        z = ad.leaf(_unit(np.random.default_rng(0), 4, 3))
        idx = BatchIndexing(
            labels=np.array([0, 0, 0, 7]), partner=np.array([1, 0, 3, 2])
        )
        with pytest.raises(DegenerateClassError, match="7"):
            loss_sc(z, idx, temperature=0.5)

    def test_coincides_with_instance_loss_when_pairs_are_the_classes(self):
        # Every class has exactly its two augmented views, so supervised
        # positives and instance positives are the same pairs.
        rng = np.random.default_rng(8)
        z = _unit(rng, 8, 4)
        idx = two_view_indexing(np.arange(4))
        sc = loss_sc(ad.leaf(z), idx, temperature=0.2)
        uc = loss_uc(ad.leaf(z), idx, temperature=0.2)
        assert abs(sc.total - uc.total) < 1e-12


class TestMultiInstanceLoss:
    def test_uniform_similarity_gives_log3(self):
        h = ad.leaf(np.tile([0.6, 0.8], (4, 1)))
        sim = build_similarity(h, temperature=0.2)
        report = loss_mid(h, sim)
        for _, _, value in report.per_anchor:
            assert abs(value - LOG3) < 1e-12

    def test_two_rows_force_zero_loss(self):
        h = ad.leaf(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sim = build_similarity(h, temperature=0.2)
        report = loss_mid(h, sim)
        assert report.total == 0.0

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((6, 4))
        h = ad.leaf(x)
        sim = build_similarity(h, temperature=0.3)
        report = loss_mid(h, sim)
        a = sim.array
        n = 6
        expected = np.array(
            [
                -np.mean([np.log(a[i, j]) for j in range(n) if j != i])
                for i in range(n)
            ]
        )
        got = np.array([v for _, _, v in report.per_anchor])
        npt.assert_allclose(got, expected, rtol=0, atol=1e-10)
        assert report.underflow_count == 0


def _oracle_mid(a: np.ndarray, g: np.ndarray):
    """The MID chain as first built from autodiff ops, add(alpha, eye) ->
    clamp_min -> log -> row_sum -> scale: (per-anchor column, pullback of
    the Nx1 ``g`` onto alpha, off-diagonal underflow count)."""
    n = a.shape[0]
    c = -1.0 / (n - 1)
    x = a + np.eye(n)
    keep = x > UNDERFLOW_FLOOR
    v = np.where(keep, x, UNDERFLOW_FLOOR)
    out = np.log(v).sum(axis=1, keepdims=True) * c
    dx = (np.repeat(g * c, n, axis=1) / v) * keep
    underflow = int(np.count_nonzero(a[~np.eye(n, dtype=bool)] < UNDERFLOW_FLOOR))
    return out, dx, underflow


def _guarded_mid_op(a: np.ndarray, floor: float, c: float):
    """``clamped_log_row_sum`` as first fused, holding its clamped copy and
    keep-mask for the pullback: (output, pullback)."""
    n = a.shape[0]
    guarded = a.copy()
    guarded[np.arange(n), np.arange(n)] += 1.0
    keep = guarded > floor
    np.fmax(guarded, floor, out=guarded)
    out = np.log(guarded).sum(axis=1, keepdims=True) * c

    def pull(g):
        d = (g * c) / guarded
        d *= keep
        return d

    return out, pull


def _mid_alpha(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """A similarity matrix from the instance graph, then edited per ``kind``."""
    alpha = build_similarity(ad.leaf(rng.standard_normal((n, 3))), 0.2).array.copy()
    cells = rng.integers(0, n, size=(max(2, n // 8), 2))
    rows, cols = cells[:, 0], cells[:, 1]
    if kind == "below_floor":
        alpha[rows, cols] = rng.choice([0.0, -0.0, 1e-310, UNDERFLOW_FLOOR, -0.5], rows.size)
        alpha[0, 1] = 0.0
    elif kind in ("nan", "inf", "-inf"):
        alpha[rows, cols] = float(kind)
    elif kind == "diagonal":
        alpha[np.arange(n), np.arange(n)] = rng.choice([0.5, -2.0, 1e-310, np.nan], n)
    return alpha


class TestMultiInstanceParity:
    @pytest.mark.parametrize("kind", ["graph", "below_floor", "nan", "inf", "-inf", "diagonal"])
    @pytest.mark.parametrize("n", [2, 1024])
    def test_matches_reference_chain(self, n, kind):
        rng = np.random.default_rng([n, len(kind)])
        a = _mid_alpha(rng, n, kind)
        node = ad.leaf(a)
        report = loss_mid(node, node)
        ad.backward(report.node)
        with np.errstate(all="ignore"):
            out, dx, underflow = _oracle_mid(a, np.full((n, 1), 1.0 / n))
        values = np.array([v for _, _, v in report.per_anchor]).reshape(n, 1)
        assert_same_bits(values, out)
        assert_same_bits(node.grad, dx)
        assert report.underflow_count == underflow
        assert report.flags == (("underflow_clamped",) if underflow else ())
        g = rng.standard_normal((n, 1))
        per = ad.clamped_log_row_sum(node, UNDERFLOW_FLOOR, -1.0 / (n - 1))
        with np.errstate(all="ignore"):
            _, dx, _ = _oracle_mid(a, g)
        assert_same_bits(per.parents[0][1](g), dx)

    @pytest.mark.parametrize("kind", ["graph", "below_floor", "nan", "inf", "-inf", "diagonal"])
    @pytest.mark.parametrize("n", [2, 1024])
    def test_matches_op_holding_its_clamped_copy(self, n, kind):
        rng = np.random.default_rng([n, len(kind), 1])
        a = _mid_alpha(rng, n, kind)
        c = -1.0 / (n - 1)
        g = rng.standard_normal((n, 1))
        with np.errstate(all="ignore"):
            node = ad.clamped_log_row_sum(ad.leaf(a), UNDERFLOW_FLOOR, c)
            out, pull = _guarded_mid_op(a, UNDERFLOW_FLOOR, c)
            assert_same_bits(node.array, out)
            assert_same_bits(node.parents[0][1](g), pull(g))


class TestConsistencyLoss:
    def test_no_labels_returns_zero_with_flag(self):
        logits = ad.leaf(np.zeros((3, 4)))
        report = loss_cc(logits, logits, np.zeros(3), np.zeros(3, dtype=bool))
        assert report.total == 0.0
        assert "no_labels" in report.flags

    def test_confident_correct_logits_vanish(self):
        labels = np.array([0, 1, 2])
        logits = ad.leaf(50.0 * np.eye(3))
        report = loss_cc(logits, logits, labels, np.ones(3, dtype=bool))
        assert report.total < 1e-9

    def test_uniform_logits_cost_log_c_per_head(self):
        labels = np.array([0, 3, 1])
        logits = ad.leaf(np.zeros((3, 4)))
        report = loss_cc(logits, logits, labels, np.ones(3, dtype=bool))
        assert abs(report.components["CC_h"] - LOG4) < 1e-12
        assert abs(report.components["CC_z"] - LOG4) < 1e-12
        assert abs(report.total - 2 * LOG4) < 1e-12

    def test_only_masked_rows_contribute(self):
        labels = np.array([0, 1])
        good = 50.0 * np.eye(2)
        bad = np.array([[0.0, 50.0], [50.0, 0.0]])
        logits_h = ad.leaf(np.vstack([good[0], bad[1]]))
        report = loss_cc(
            logits_h, logits_h, labels, np.array([True, False])
        )
        assert report.total < 1e-9


class TestCombinedLoss:
    @staticmethod
    def _scalar_report(name: str, value: float, components=None) -> LossReport:
        return LossReport(
            name=name,
            node=ad.constant(np.array([[value]])),
            per_anchor=(),
            components=components or {name: value},
        )

    def test_arithmetic_example(self):
        mid = self._scalar_report("MID", 2.0)
        inst = self._scalar_report("ID", 3.0)
        cc = self._scalar_report("CC", 1.5, {"CC_h": 0.75, "CC_z": 0.75})
        report = loss_combined(mid, inst, cc, lambda_graph=1.0, lambda_cls=1.0)
        assert abs(report.total - 6.5) < 1e-12

    def test_zero_classifier_weight_drops_that_branch(self):
        mid = self._scalar_report("MID", 2.0)
        inst = self._scalar_report("ID", 3.0)
        cc = self._scalar_report("CC", 9.9, {"CC_h": 4.4, "CC_z": 5.5})
        report = loss_combined(mid, inst, cc, lambda_graph=0.5, lambda_cls=0.0)
        assert abs(report.total - 2.5) < 1e-12

    def test_negative_weights_rejected(self):
        mid = self._scalar_report("MID", 1.0)
        with pytest.raises(ParameterError, match="nonnegative"):
            loss_combined(mid, mid, mid, lambda_graph=-1.0, lambda_cls=1.0)


def _temperature_entry_points():
    rng = np.random.default_rng(12)
    z = ad.leaf(_unit(rng, 6, 4))
    h = ad.leaf(rng.standard_normal((6, 4)))
    idx = two_view_indexing(np.array([0, 1, 1]))
    sims = z.array @ z.array.T
    return {
        # Row softmax of a plain matrix: a constant, so no gradient is kept.
        "softmax_row": lambda t: ad.masked_softmax_rows(
            ad.constant(sims), excluded=np.arange(6), temperature=t
        ),
        "masked_softmax_rows": lambda t: ad.masked_softmax_rows(
            ad.leaf(sims), excluded=np.arange(6), temperature=t
        ),
        "build_similarity": lambda t: build_similarity(h, temperature=t),
        "loss_id": lambda t: loss_id(z, idx, temperature=t),
        "loss_sc": lambda t: loss_sc(z, idx, temperature=t),
    }


@pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "entry", ["softmax_row", "masked_softmax_rows", "build_similarity", "loss_id", "loss_sc"]
)
def test_bad_temperature_is_rejected_by_every_entry_point(entry, temperature):
    call = _temperature_entry_points()[entry]
    with pytest.raises(ParameterError, match="temperature must be positive and finite"):
        call(temperature)


class TestSharedProperties:
    def test_losses_are_permutation_invariant(self):
        rng = np.random.default_rng(10)
        z = _unit(rng, 8, 4)
        idx = two_view_indexing(np.array([0, 1, 1, 2]))
        perm = rng.permutation(8)
        inv = np.argsort(perm)
        idx_p = BatchIndexing(
            labels=idx.labels[perm], partner=inv[idx.partner[perm]]
        )
        zp = z[perm]
        for builder in (loss_uc, loss_sc):
            a = builder(ad.leaf(z), idx, temperature=0.3).total
            b = builder(ad.leaf(zp), idx_p, temperature=0.3).total
            assert abs(a - b) < 1e-12
        h = rng.standard_normal((8, 4))
        sim = build_similarity(ad.leaf(h), temperature=0.3)
        sim_p = build_similarity(ad.leaf(h[perm]), temperature=0.3)
        a = loss_mid(ad.leaf(h), sim).total
        b = loss_mid(ad.leaf(h[perm]), sim_p).total
        assert abs(a - b) < 1e-12

    def test_losses_are_nonnegative(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            r = np.random.default_rng(seed)
            z = _unit(r, 6, 4)
            idx = two_view_indexing(r.integers(0, 2, size=3))
            assert loss_uc(ad.leaf(z), idx, temperature=0.5).total >= 0.0
            assert loss_sc(ad.leaf(z), idx, temperature=0.5).total >= 0.0
            h = ad.leaf(r.standard_normal((6, 4)))
            assert loss_mid(h, build_similarity(h, temperature=0.5)).total >= 0.0
        del rng

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_flow_through_each_loss(self, seed):
        rng = np.random.default_rng(200 + seed)
        raw = rng.standard_normal((6, 4))
        idx = two_view_indexing(np.array([0, 1, 1]))

        def uc_scalar(arrays) -> float:
            z = ad.row_l2_normalize(ad.leaf(arrays[0]))
            return loss_uc(z, idx, temperature=0.4).total

        def sc_scalar(arrays) -> float:
            z = ad.row_l2_normalize(ad.leaf(arrays[0]))
            return loss_sc(z, idx, temperature=0.4).total

        def mid_scalar(arrays) -> float:
            h = ad.leaf(arrays[0])
            return loss_mid(h, build_similarity(h, temperature=0.4)).total

        for scalar in (uc_scalar, sc_scalar, mid_scalar):
            leaf = ad.leaf(raw)
            if scalar is mid_scalar:
                report = loss_mid(leaf, build_similarity(leaf, temperature=0.4))
            else:
                z = ad.row_l2_normalize(leaf)
                builder = loss_uc if scalar is uc_scalar else loss_sc
                report = builder(z, idx, temperature=0.4)
            ad.backward(report.node)
            numeric = fd_gradient(scalar, [raw], which=0)
            assert relative_error(leaf.gradient().array, numeric) < 1e-4

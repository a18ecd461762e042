"""Tests for the instance-similarity graph."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from tscl import autodiff as ad
from tscl.errors import BatchTooSmallError, ParameterError
from tscl.graph import build_similarity

from gradcheck import fd_gradient, project_sum, relative_error


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_identical_embeddings_give_uniform_offdiagonal():
    h = ad.leaf(np.tile([0.6, 0.8], (3, 1)))
    sim = build_similarity(h, temperature=0.5)
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 0.0)
    npt.assert_allclose(sim.array, expected, rtol=0, atol=1e-15)


def test_two_rows_each_attend_fully_to_the_other():
    h = ad.leaf(np.array([[1.0, 0.0], [0.0, 1.0]]))
    sim = build_similarity(h, temperature=0.2)
    npt.assert_allclose(sim.array, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=0)


def test_matches_direct_per_entry_evaluation():
    rng = np.random.default_rng(7)
    x = _unit_rows(rng, 4, 6)
    tau = 0.2
    sim = build_similarity(ad.leaf(x), temperature=tau)
    # Direct evaluation of exp(<x_i, x_j>/tau) / sum_{k != i} exp(<x_i, x_k>/tau).
    expected = np.zeros((4, 4))
    for i in range(4):
        weights = np.array(
            [np.exp(x[i] @ x[k] / tau) if k != i else 0.0 for k in range(4)]
        )
        expected[i] = weights / weights.sum()
    npt.assert_allclose(sim.array, expected, rtol=0, atol=1e-12)


def test_rows_are_stochastic_with_zero_diagonal():
    rng = np.random.default_rng(11)
    sim = build_similarity(ad.leaf(rng.standard_normal((8, 5))), temperature=0.5)
    a = sim.array
    npt.assert_allclose(a.sum(axis=1), np.ones(8), atol=1e-12)
    npt.assert_array_equal(np.diag(a), np.zeros(8))
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_high_temperature_flattens_to_uniform():
    rng = np.random.default_rng(3)
    n = 6
    sim = build_similarity(ad.leaf(rng.standard_normal((n, 4))), temperature=1e6)
    off = sim.array[~np.eye(n, dtype=bool)]
    npt.assert_allclose(off, np.full(off.shape, 1.0 / (n - 1)), atol=1e-6)


def test_rejects_degenerate_inputs():
    with pytest.raises(BatchTooSmallError):
        build_similarity(ad.leaf(np.ones((1, 3))), temperature=0.5)
    with pytest.raises(ParameterError):
        build_similarity(ad.leaf(np.ones((3, 3))), temperature=0.0)


@pytest.mark.parametrize("seed", range(3))
def test_gradient_flows_through_similarity(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal((5, 4))
    proj = rng.standard_normal((5, 5))

    def scalar(arrays) -> float:
        sim = build_similarity(ad.leaf(arrays[0]), temperature=0.3)
        return float((sim.array * proj).sum())

    h = ad.leaf(x)
    sim = build_similarity(h, temperature=0.3)
    ad.backward(project_sum(sim, proj))
    numeric = fd_gradient(scalar, [x], which=0)
    assert relative_error(h.gradient().array, numeric) < 1e-6

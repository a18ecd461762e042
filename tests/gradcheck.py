"""Central finite-difference gradient checking, independent of the tape,
and a bit-level comparison for kernels checked against reference code.

The oracle perturbs one input entry at a time and applies a fixed random
linear functional to the operation's output, so operations with matrix
outputs reduce to scalar-valued checks.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from tscl import autodiff as ad
from tscl.tensor import Tensor2D


def fd_gradient(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    which: int,
    step: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. arrays[which]."""
    base = [a.copy() for a in arrays]
    target = base[which]
    grad = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = target[idx]
        target[idx] = orig + step
        f_plus = f(base)
        target[idx] = orig - step
        f_minus = f(base)
        target[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
        it.iternext()
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def project_sum(out: ad.DiffNode, proj: np.ndarray) -> ad.DiffNode:
    """The scalar ``sum(out * proj)`` as one node: a fixed linear functional
    that turns a matrix-valued output into something to differentiate."""
    value = np.array([[np.sum(out.array * proj)]])
    return ad.DiffNode(
        Tensor2D._adopt(value), parents=[(out, lambda g: g[0, 0] * proj)], op="project_sum"
    )


def check_op_gradients(
    build: Callable[[Sequence[ad.DiffNode]], ad.DiffNode],
    arrays: Sequence[np.ndarray],
    rng: np.random.Generator,
    step: float = 1e-5,
    tol: float = 1e-4,
) -> None:
    """Assert analytic gradients of sum(c * build(inputs)) match FD.

    ``build`` maps leaf nodes to an output node; a fixed random projection
    ``c`` turns matrix-valued outputs into a scalar objective.
    """
    leaves = [ad.leaf(Tensor2D(a)) for a in arrays]
    out = build(leaves)
    proj = rng.standard_normal(out.shape)

    ad.backward(project_sum(out, proj))

    def objective(arrs: Sequence[np.ndarray]) -> float:
        nodes = [ad.leaf(Tensor2D(a)) for a in arrs]
        val = build(nodes).array
        return float(np.sum(val * proj))

    for i, node in enumerate(leaves):
        analytic = node.gradient().array
        numeric = fd_gradient(objective, arrays, i, step=step)
        err = relative_error(analytic, numeric)
        assert err < tol, f"gradient mismatch on input {i}: rel err {err:.3e}"


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Assert equal shapes, NaN at the same places, and identical bits
    elsewhere (so -0.0 and 0.0 differ).  NaN payloads are not compared."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, f"shape {actual.shape} != {expected.shape}"
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes(), "values differ in bits"

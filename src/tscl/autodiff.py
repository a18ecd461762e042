"""Reverse-mode automatic differentiation over dense 2-D tensors.

Every differentiable operation builds a ``DiffNode`` holding the forward
value plus pullback closures toward its parents.  Calling ``backward`` on
a 1x1 scalar node accumulates gradients through the DAG; shared
subexpressions receive summed contributions.  The computation graph is
rebuilt per step, so nodes are cheap and never mutated after creation
(apart from gradient accumulation during a backward pass).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from tscl.errors import DegenerateInputError, DimensionError, ParameterError
from tscl.tensor import Tensor2D, as_array, softmax_row, softmax_rows_inplace

Pullback = Callable[[np.ndarray], np.ndarray]


class DiffNode:
    """A node of the differentiable computation graph.

    ``parents`` pairs each upstream node with the local pullback mapping
    the gradient at this node to the gradient contribution at the parent.
    """

    __slots__ = ("value", "parents", "op", "requires_grad", "grad")

    def __init__(
        self,
        value: Tensor2D,
        parents: Sequence[tuple["DiffNode", Pullback]] = (),
        op: str = "leaf",
        requires_grad: Optional[bool] = None,
    ):
        self.value = value
        self.parents = tuple(parents)
        self.op = op
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p, _ in self.parents)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def array(self) -> np.ndarray:
        return self.value.array

    def gradient(self) -> Tensor2D:
        """Accumulated gradient after a backward pass (zeros if unreached)."""
        if self.grad is None:
            return Tensor2D.zeros(*self.shape)
        return Tensor2D(self.grad)

    def __repr__(self) -> str:
        r, c = self.shape
        return f"DiffNode(op={self.op!r}, {r}x{c})"


def leaf(value, requires_grad: bool = True) -> DiffNode:
    v = value if isinstance(value, Tensor2D) else Tensor2D(as_array(value))
    return DiffNode(v, op="leaf", requires_grad=requires_grad)


def constant(value) -> DiffNode:
    return leaf(value, requires_grad=False)


def _topo_order(root: DiffNode) -> list[DiffNode]:
    """Iterative post-order over the DAG reachable from ``root``."""
    order: list[DiffNode] = []
    seen: set[int] = set()
    stack: list[tuple[DiffNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))
    return order


def backward(node: DiffNode) -> None:
    """Accumulate gradients of a scalar (1x1) node into the reachable graph."""
    if node.shape != (1, 1):
        raise DimensionError(f"backward requires a 1x1 scalar node, got {node.shape}")
    order = _topo_order(node)
    for n in order:
        n.grad = None
    node.grad = np.ones((1, 1))
    for n in reversed(order):
        if n.grad is None:
            continue
        g = n.grad
        for parent, pull in n.parents:
            if not parent.requires_grad:
                continue
            contrib = pull(g)
            if parent.grad is None:
                parent.grad = contrib  # gradients are never written in place
            else:
                parent.grad = parent.grad + contrib


# ---------------------------------------------------------------------------
# Primitives


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    av, bv = a.array, b.array
    out = av @ bv
    return DiffNode(
        Tensor2D._adopt(out),
        parents=[(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)],
        op="matmul",
    )


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    """Elementwise sum; ``b`` may be a 1xM row vector broadcast over rows."""
    if a.shape == b.shape:
        return DiffNode(
            Tensor2D._adopt(a.array + b.array),
            parents=[(a, lambda g: g), (b, lambda g: g)],
            op="add",
        )
    if b.shape == (1, a.shape[1]):
        return DiffNode(
            Tensor2D._adopt(a.array + b.array),
            parents=[(a, lambda g: g), (b, lambda g: g.sum(axis=0, keepdims=True))],
            op="add",
        )
    raise DimensionError(f"add shape mismatch: {a.shape} + {b.shape}")


def scale(a: DiffNode, c: float) -> DiffNode:
    c = float(c)
    return DiffNode(
        Tensor2D._adopt(a.array * c), parents=[(a, lambda g: g * c)], op="scale"
    )


def sub(a: DiffNode, b: DiffNode) -> DiffNode:
    return add(a, scale(b, -1.0))


def mul_elem(a: DiffNode, c) -> DiffNode:
    """Elementwise product with a constant matrix (no gradient through c)."""
    cv = as_array(c)
    if cv.shape != a.shape:
        raise DimensionError(f"mul_elem shape mismatch: {a.shape} * {cv.shape}")
    return DiffNode(
        Tensor2D._adopt(a.array * cv), parents=[(a, lambda g: g * cv)], op="mul_elem"
    )


def relu(a: DiffNode) -> DiffNode:
    mask = a.array > 0
    return DiffNode(
        Tensor2D._adopt(np.where(mask, a.array, 0.0)),
        parents=[(a, lambda g: g * mask)],
        op="relu",
    )


def exp(a: DiffNode) -> DiffNode:
    out = np.exp(a.array)
    if not np.isfinite(out).all():
        raise DegenerateInputError("exp overflowed to a non-finite value")
    return DiffNode(Tensor2D._adopt(out), parents=[(a, lambda g: g * out)], op="exp")


def clamped_log_row_sum(a: DiffNode, floor: float, c: float) -> DiffNode:
    """``c * sum_j log(max(a_ij + [i == j], floor))`` for each row, as Nx1.

    ``a`` is square; adding one on the diagonal makes a zero diagonal
    contribute log(1) = 0.  Entries at or below ``floor``, and NaN
    entries, are clamped to it and pass no gradient.
    """
    n, m = a.shape
    if n != m:
        raise DimensionError(f"clamped_log_row_sum needs a square matrix, got {a.shape}")
    floor, c = float(floor), float(c)
    if not (math.isfinite(floor) and floor > 0.0):
        raise ParameterError(f"log floor must be positive and finite, got {floor}")
    guarded = a.array.copy()
    diag = np.arange(n)
    guarded[diag, diag] += 1.0
    keep = guarded > floor
    np.fmax(guarded, floor, out=guarded)  # fmax, not maximum: NaN becomes floor
    out = np.log(guarded).sum(axis=1, keepdims=True) * c

    def pull(g: np.ndarray) -> np.ndarray:
        d = (g * c) / guarded
        d *= keep
        return d

    return DiffNode(Tensor2D._adopt(out), parents=[(a, pull)], op="clamped_log_row_sum")


def transpose(a: DiffNode) -> DiffNode:
    return DiffNode(
        Tensor2D._adopt(a.array.T.copy()), parents=[(a, lambda g: g.T)], op="transpose"
    )


def mean(a: DiffNode) -> DiffNode:
    n = a.array.size
    out = np.array([[a.array.mean()]])
    shape = a.shape
    return DiffNode(
        Tensor2D._adopt(out),
        parents=[(a, lambda g: np.full(shape, g[0, 0] / n))],
        op="mean",
    )


def sum_all(a: DiffNode) -> DiffNode:
    out = np.array([[a.array.sum()]])
    shape = a.shape
    return DiffNode(
        Tensor2D._adopt(out),
        parents=[(a, lambda g: np.full(shape, g[0, 0]))],
        op="sum_all",
    )


def row_sum(a: DiffNode) -> DiffNode:
    """Sum each row into an Nx1 column."""
    cols = a.shape[1]
    return DiffNode(
        Tensor2D._adopt(a.array.sum(axis=1, keepdims=True)),
        parents=[(a, lambda g: np.repeat(g, cols, axis=1))],
        op="row_sum",
    )


def take_rows(a: DiffNode, indices) -> DiffNode:
    idx = np.asarray(indices, dtype=np.intp)
    shape = a.shape

    def pull(g: np.ndarray) -> np.ndarray:
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return out

    return DiffNode(Tensor2D._adopt(a.array[idx]), parents=[(a, pull)], op="take_rows")


def take_pairs(a: DiffNode, partner) -> DiffNode:
    """Gather a[i, partner[i]] into an Nx1 column."""
    idx = np.asarray(partner, dtype=np.intp)
    n = a.shape[0]
    if idx.shape != (n,):
        raise DimensionError(f"partner index must have shape ({n},), got {idx.shape}")
    rows = np.arange(n)
    shape = a.shape

    def pull(g: np.ndarray) -> np.ndarray:
        out = np.zeros(shape)
        out[rows, idx] = g[:, 0]
        return out

    return DiffNode(
        Tensor2D._adopt(a.array[rows, idx].reshape(n, 1)),
        parents=[(a, pull)],
        op="take_pairs",
    )


def row_l2_normalize(a: DiffNode) -> DiffNode:
    """Scale every row to unit L2 norm."""
    av = a.array
    norms = np.linalg.norm(av, axis=1, keepdims=True)
    small = np.nonzero(norms[:, 0] < 1e-12)[0]
    if small.size:
        raise DegenerateInputError(f"zero-norm row at index {int(small[0])}")
    out = av / norms

    def pull(g: np.ndarray) -> np.ndarray:
        dot = np.sum(g * out, axis=1, keepdims=True)
        return (g - out * dot) / norms

    return DiffNode(Tensor2D._adopt(out), parents=[(a, pull)], op="row_l2_normalize")


def masked_softmax_rows(
    a: DiffNode,
    excluded: Optional[np.ndarray] = None,
    temperature: float = 1.0,
) -> DiffNode:
    """Differentiable row softmax of a/temperature with one optional
    excluded column per row (exact zeros there)."""
    value = softmax_row(a.value, mask=excluded, temperature=temperature)
    out = value.array
    inv_t = 1.0 / float(temperature)

    def pull(g: np.ndarray) -> np.ndarray:
        d = g * out
        dot = d.sum(axis=1, keepdims=True)
        np.subtract(g, dot, out=d)
        d *= out
        d *= inv_t
        return d

    return DiffNode(value, parents=[(a, pull)], op="masked_softmax_rows")


def logsumexp_row(a: DiffNode, excluded: Optional[np.ndarray] = None) -> DiffNode:
    """Stabilized log-sum-exp of each row (Nx1), skipping excluded entries.

    A row whose every entry is excluded sums nothing and gives -inf.
    """
    soft = a.array.copy()
    out = softmax_rows_inplace(soft, excluded)

    def pull(g: np.ndarray) -> np.ndarray:
        return g * soft

    return DiffNode(Tensor2D._adopt(out), parents=[(a, pull)], op="logsumexp_row")


def _softmax_ce(lv: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log-sum-exp (Nx1) of logits ``lv``, and softmax(lv) minus one-hot(y).

    The second array is the gradient of the per-row cross-entropy with
    respect to the logits.  ``y`` must already lie in [0, C).
    """
    soft = lv.copy()
    lse = softmax_rows_inplace(soft)
    soft[np.arange(lv.shape[0]), y] -= 1.0
    return lse, soft


def cross_entropy_with_logits(logits: DiffNode, labels) -> DiffNode:
    """Per-row softmax cross-entropy against integer labels (Nx1 output)."""
    y = np.asarray(labels, dtype=np.intp)
    n, c = logits.shape
    if y.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ParameterError(f"label out of range [0,{c}) in cross entropy")
    lv = logits.array
    lse, soft_minus_onehot = _softmax_ce(lv, y)
    picked = lv[np.arange(n), y].reshape(n, 1)

    def pull(g: np.ndarray) -> np.ndarray:
        return g * soft_minus_onehot

    return DiffNode(
        Tensor2D._adopt(lse - picked), parents=[(logits, pull)], op="cross_entropy"
    )


# ---------------------------------------------------------------------------
# 1-D convolution / pooling over channel-major flattened series
#
# A batch of n series with c channels of length L is a (n, c*L) matrix whose
# row layout is channel-major: entry [i, ch*L + t].


def conv1d(
    x: DiffNode,
    w: DiffNode,
    b: Optional[DiffNode],
    channels: int,
    length: int,
) -> DiffNode:
    """Stride-1, same-padded 1-D convolution.

    ``x`` is (n, channels*length); ``w`` is (c_out, channels*k) with the same
    channel-major layout; ``b`` is an optional (1, c_out) bias added to every
    timestep of the matching output channel.  Output is (n, c_out*length).
    """
    n, width = x.shape
    if width != channels * length:
        raise DimensionError(
            f"conv1d input width {width} != channels*length = {channels}*{length}"
        )
    c_out, wcols = w.shape
    if wcols % channels != 0:
        raise DimensionError(
            f"conv1d weight width {wcols} not a multiple of channels {channels}"
        )
    k = wcols // channels
    if b is not None and b.shape != (1, c_out):
        raise DimensionError(f"conv1d bias must be (1, {c_out}), got {b.shape}")

    pad_left = (k - 1) // 2
    wv = w.array
    x3 = x.array.reshape(n, channels, length)
    padded = np.zeros((n, channels, length + k - 1))
    padded[:, :, pad_left : pad_left + length] = x3
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=2)
    # (n, channels, L, k) -> (n, L, channels, k) -> (n*L, channels*k)
    patches = windows.transpose(0, 2, 1, 3).reshape(n * length, channels * k)
    out2 = patches @ wv.T  # (n*L, c_out)
    out = out2.reshape(n, length, c_out).transpose(0, 2, 1).reshape(n, c_out * length)
    if b is not None:
        out = out + np.repeat(b.array[0], length)[None, :]

    def reshape_grad(g: np.ndarray) -> np.ndarray:
        return g.reshape(n, c_out, length).transpose(0, 2, 1).reshape(n * length, c_out)

    def pull_x(g: np.ndarray) -> np.ndarray:
        d4 = (reshape_grad(g) @ wv).reshape(n, length, channels, k).transpose(0, 2, 3, 1)
        d4 = np.ascontiguousarray(d4)  # (n, channels, k, L): contiguous slice reads
        dpadded = np.zeros_like(padded)
        for j in range(k - 1, -1, -1):  # descending j: np.add.at's summation order
            dpadded[:, :, j : j + length] += d4[:, :, j]
        return dpadded[:, :, pad_left : pad_left + length].reshape(n, channels * length)

    def pull_w(g: np.ndarray) -> np.ndarray:
        return reshape_grad(g).T @ patches

    parents: list[tuple[DiffNode, Pullback]] = [(x, pull_x), (w, pull_w)]
    if b is not None:
        parents.append((b, lambda g: reshape_grad(g).sum(axis=0, keepdims=True)))
    return DiffNode(Tensor2D._adopt(out), parents=parents, op="conv1d")


def max_pool1d(x: DiffNode, channels: int, length: int, width: int) -> DiffNode:
    """Non-overlapping max pooling along time; the last window may be short.

    Ties resolve to the earliest timestep, so the backward scatter is
    deterministic; a NaN in a window wins, as under ``argmax``.
    """
    if width < 1:
        raise ParameterError(f"pool width must be >= 1, got {width}")
    n, total = x.shape
    if total != channels * length:
        raise DimensionError(
            f"max_pool1d input width {total} != channels*length = {channels}*{length}"
        )
    out_len = math.ceil(length / width)
    span = out_len * width
    x3 = x.array.reshape(n, channels, length)
    if span != length:
        x3 = np.pad(x3, ((0, 0), (0, 0), (0, span - length)), constant_values=-np.inf)
    windows = x3.reshape(n, channels, out_len, width)
    best = windows[..., 0]
    arg = np.zeros((n, channels, out_len), dtype=np.intp)
    for offset in range(1, width):
        cand = windows[..., offset]
        # strict ">" keeps ties on the earliest step; the first NaN wins, as in argmax
        take = (cand > best) | (np.isnan(cand) & ~np.isnan(best))
        best = np.where(take, cand, best)
        arg = np.where(take, offset, arg)

    def pull(g: np.ndarray) -> np.ndarray:
        flat = np.arange(n * channels * out_len) * width + arg.reshape(-1)
        dx = np.zeros(n * channels * span)
        dx[flat] += g.reshape(-1)
        return dx.reshape(n, channels, span)[:, :, :length].reshape(n, channels * length)

    return DiffNode(
        Tensor2D._adopt(best.reshape(n, channels * out_len)),
        parents=[(x, pull)],
        op="max_pool1d",
    )

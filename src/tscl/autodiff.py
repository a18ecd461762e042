"""Reverse-mode automatic differentiation over dense 2-D tensors.

Every differentiable operation builds a ``DiffNode`` holding the forward
value plus pullback closures toward its parents.  Calling ``backward`` on
a 1x1 scalar node accumulates gradients through the DAG; shared
subexpressions receive summed contributions.  The computation graph is
rebuilt per step, so nodes are cheap and never mutated after creation
(apart from gradient bookkeeping during a backward pass).  Only leaves keep
their gradients: an interior node's gradient is dropped as soon as its
pullbacks have run, so a finished backward pass holds no interior gradient.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from tscl.errors import DegenerateInputError, DimensionError, ParameterError
from tscl.tensor import Tensor2D, as_array, check_temperature, softmax_rows_inplace

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
        """Accumulated gradient of a leaf after a backward pass (zeros if
        unreached).  ``backward`` keeps gradients on leaves only, so asking an
        interior node (one with parents) raises :class:`ParameterError`."""
        if self.parents:
            raise ParameterError(
                f"gradient() reads leaves only; backward releases the gradient "
                f"of interior node {self.op!r}"
            )
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
    """Accumulate gradients of a scalar (1x1) node into the reachable leaves.

    An interior node's gradient is released once its pullbacks have run, so
    at most one frontier of interior gradients is alive at a time.
    """
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
        if n.parents:
            n.grad = None


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


def relu(a: DiffNode) -> DiffNode:
    mask = a.array > 0
    # fmax maps NaN to 0 without a branch per entry; adding 0.0 turns a -0.0
    # it may keep into +0.0.
    out = np.fmax(a.array, 0.0)
    out += 0.0
    return DiffNode(Tensor2D._adopt(out), parents=[(a, lambda g: g * mask)], op="relu")


def clamped_log_row_sum(a: DiffNode, floor: float, c: float) -> DiffNode:
    """``c * sum_j log(max(a_ij + [i == j], floor))`` for each row, as Nx1.

    ``a`` is square; adding one on the diagonal makes a zero diagonal
    contribute log(1) = 0.  Entries at or below ``floor``, and NaN
    entries, are clamped to it and pass no gradient.  The node keeps no
    n x n array of its own: the pullback rebuilds the clamped copy from
    ``a``, with the forward's operations in the forward's order.
    """
    n, m = a.shape
    if n != m:
        raise DimensionError(f"clamped_log_row_sum needs a square matrix, got {a.shape}")
    floor, c = float(floor), float(c)
    if not (math.isfinite(floor) and floor > 0.0):
        raise ParameterError(f"log floor must be positive and finite, got {floor}")
    av = a.array
    diag = np.arange(n)

    def guard() -> tuple[np.ndarray, np.ndarray]:
        guarded = av.copy()
        guarded[diag, diag] += 1.0
        keep = guarded > floor
        np.fmax(guarded, floor, out=guarded)  # fmax, not maximum: NaN becomes floor
        return guarded, keep

    guarded, _ = guard()
    out = np.log(guarded, out=guarded).sum(axis=1, keepdims=True) * c

    def pull(g: np.ndarray) -> np.ndarray:
        d, keep = guard()
        np.divide(g * c, d, out=d)
        d *= keep
        return d

    return DiffNode(Tensor2D._adopt(out), parents=[(a, pull)], op="clamped_log_row_sum")


def mean(a: DiffNode) -> DiffNode:
    n = a.array.size
    out = np.array([[a.array.mean()]])
    shape = a.shape
    return DiffNode(
        Tensor2D._adopt(out),
        parents=[(a, lambda g: np.full(shape, g[0, 0] / n))],
        op="mean",
    )


def take_rows(a: DiffNode, indices) -> DiffNode:
    idx = np.asarray(indices, dtype=np.intp)
    shape = a.shape

    def pull(g: np.ndarray) -> np.ndarray:
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return out

    return DiffNode(Tensor2D._adopt(a.array[idx]), parents=[(a, pull)], op="take_rows")


def row_l2_normalize(a: DiffNode) -> DiffNode:
    """Scale every row to unit L2 norm."""
    av = a.array
    norms = np.linalg.norm(av, axis=1, keepdims=True)
    small = np.nonzero(norms[:, 0] < 1e-12)[0]
    if small.size:
        raise DegenerateInputError(f"zero-norm row at index {int(small[0])}")
    # An inf norm would map its row to zeros and a NaN norm would pass on.
    unbounded = np.nonzero(~np.isfinite(norms[:, 0]))[0]
    if unbounded.size:
        raise DegenerateInputError(f"non-finite-norm row at index {int(unbounded[0])}")
    out = av / norms

    def pull(g: np.ndarray) -> np.ndarray:
        dot = np.sum(g * out, axis=1, keepdims=True)
        return (g - out * dot) / norms

    return DiffNode(Tensor2D._adopt(out), parents=[(a, pull)], op="row_l2_normalize")


def masked_softmax_rows(a: DiffNode, excluded: np.ndarray, temperature: float) -> DiffNode:
    """Differentiable row softmax of a/temperature with one excluded column
    per row (exact zeros there)."""
    check_temperature(temperature)
    out = a.array / float(temperature)
    softmax_rows_inplace(out, excluded)
    inv_t = 1.0 / float(temperature)

    def pull(g: np.ndarray) -> np.ndarray:
        d = g * out
        dot = d.sum(axis=1, keepdims=True)
        np.subtract(g, dot, out=d)
        d *= out
        d *= inv_t
        return d

    return DiffNode(Tensor2D._adopt(out), parents=[(a, pull)], op="masked_softmax_rows")


# No library code calls this op; bench/tracing.py replays it by name.
def logsumexp_row(a: DiffNode, excluded: Optional[np.ndarray] = None) -> DiffNode:
    """Stabilized log-sum-exp of each row (Nx1), skipping excluded entries.

    A row whose every entry is excluded sums nothing and gives -inf.
    """
    soft = a.array.copy()
    out = softmax_rows_inplace(soft, excluded)

    def pull(g: np.ndarray) -> np.ndarray:
        return g * soft

    return DiffNode(Tensor2D._adopt(out), parents=[(a, pull)], op="logsumexp_row")


def _gram_value(a: DiffNode, c: float) -> tuple[np.ndarray, Pullback]:
    """``(a @ a.T) * c`` in one fresh buffer, and the pullback of a gradient
    already multiplied by ``c``.

    The transposed operand is a contiguous copy, used again in the pullback:
    on a transposed view NumPy may take another BLAS path, whose sums can
    differ in the last bit.
    """
    av = a.array
    at = av.T.copy()
    out = av @ at
    out *= c

    def pull_scaled(gc: np.ndarray) -> np.ndarray:
        return gc @ at.T + (av.T @ gc).T

    return out, pull_scaled


def gram(a: DiffNode, c: float) -> DiffNode:
    """Scaled Gram matrix ``c * a @ a.T`` (n x n) of the rows of ``a``."""
    c = float(c)
    out, pull_scaled = _gram_value(a, c)
    return DiffNode(
        Tensor2D._adopt(out), parents=[(a, lambda g: pull_scaled(g * c))], op="gram"
    )


def info_nce_rows(z: DiffNode, partner, c: float) -> DiffNode:
    """Per-row InfoNCE over the scaled Gram matrix ``s = c * z @ z.T`` (Nx1):
    the log-sum-exp of row i without its diagonal entry, minus ``s[i, partner[i]]``.

    The Gram buffer is read for the positives and then overwritten by its
    row softmax, which the pullback needs; the node keeps no other n x n array.
    """
    idx = np.asarray(partner, dtype=np.intp)
    n = z.shape[0]
    if idx.shape != (n,):
        raise DimensionError(f"partner index must have shape ({n},), got {idx.shape}")
    c = float(c)
    rows = np.arange(n)
    soft, pull_scaled = _gram_value(z, c)
    pos = soft[rows, idx].reshape(n, 1)
    out = softmax_rows_inplace(soft, rows) - pos

    def pull(g: np.ndarray) -> np.ndarray:
        d = g * soft
        d += 0.0  # -0.0 becomes +0.0, as under a sum with a zero matrix
        d[rows, idx] -= g[:, 0]
        d *= c
        return pull_scaled(d)

    return DiffNode(Tensor2D._adopt(out), parents=[(z, pull)], op="info_nce_rows")


def sup_con_rows(z: DiffNode, labels, c: float) -> DiffNode:
    """Per-row supervised contrastive loss over the scaled Gram matrix
    ``s = c * z @ z.T`` (Nx1): the log-sum-exp of row i without its diagonal
    entry, minus the mean of ``s[i, j]`` over the other rows j of i's class.

    Every row needs another row of its class.  As in :func:`info_nce_rows`,
    the Gram buffer is read for the positives and then overwritten by its row
    softmax; the pullback rebuilds the class mask from ``labels``, so the node
    keeps no other n x n array.
    """
    y = np.asarray(labels)
    n = z.shape[0]
    if y.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {y.shape}")
    c = float(c)
    rows = np.arange(n)

    def positives() -> np.ndarray:
        same = y[:, None] == y[None, :]
        same[rows, rows] = False
        return same

    soft, pull_scaled = _gram_value(z, c)
    same = positives()
    inv_counts = 1.0 / same.sum(axis=1, keepdims=True)
    mean_pos = (soft * same).sum(axis=1, keepdims=True) * inv_counts
    out = softmax_rows_inplace(soft, rows) - mean_pos

    def pull(g: np.ndarray) -> np.ndarray:
        d = g * soft
        d += (-g * inv_counts) * positives()
        d *= c
        return pull_scaled(d)

    return DiffNode(Tensor2D._adopt(out), parents=[(z, pull)], op="sup_con_rows")


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
# 1-D convolution / pooling over time-major flattened series
#
# Inside the encoder a batch of n series with c channels of length L is a
# (n, L*c) matrix whose row layout is time-major: entry [i, t*c + ch].  The
# conv weights, checkpoints, data files and the encoder's output stay
# channel-major (entry [i, ch*L + t]); ``channel_major`` converts a
# time-major activation back.


def conv1d(
    x: DiffNode,
    w: DiffNode,
    b: DiffNode,
    channels: int,
    length: int,
) -> DiffNode:
    """Stride-1, same-padded 1-D convolution of time-major series.

    ``x`` is (n, length*channels), time-major; ``w`` is (c_out, channels*k)
    with channel-major columns (column ``ch*k + j`` multiplies channel ``ch``
    at offset ``j - (k - 1) // 2``); ``b`` is a (1, c_out) bias added to every
    timestep of the matching output channel.  Output is (n, length*c_out),
    time-major: row ``(i, t)`` of the patch product is already its layout.
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
    if b.shape != (1, c_out):
        raise DimensionError(f"conv1d bias must be (1, {c_out}), got {b.shape}")

    pad_left = (k - 1) // 2
    wv = w.array
    padded = np.zeros((n, length + k - 1, channels))
    padded[:, pad_left : pad_left + length] = x.array.reshape(n, length, channels)
    # (n, L, channels, k) -> (n*L, channels*k): the weight's column order
    patches = np.lib.stride_tricks.sliding_window_view(padded, k, axis=1).reshape(
        n * length, channels * k
    )
    out = patches @ wv.T  # (n*L, c_out)
    out += b.array

    def pull_x(g: np.ndarray) -> np.ndarray:
        d = (g.reshape(n * length, c_out) @ wv).reshape(n, length, channels, k)
        dpadded = np.zeros_like(padded)
        for j in range(k - 1, -1, -1):  # descending j: np.add.at's summation order
            dpadded[:, j : j + length] += d[..., j]
        return dpadded[:, pad_left : pad_left + length].reshape(n, length * channels)

    def pull_w(g: np.ndarray) -> np.ndarray:
        return g.reshape(n * length, c_out).T @ patches

    def pull_b(g: np.ndarray) -> np.ndarray:
        g2 = g.reshape(n * length, c_out)
        if n == 1:
            # A lone series' channel-major gradient was column-contiguous, and
            # NumPy sums such columns pairwise; at n >= 2 it added rows in order.
            g2 = np.asfortranarray(g2)
        return g2.sum(axis=0, keepdims=True)

    return DiffNode(
        Tensor2D._adopt(out.reshape(n, length * c_out)),
        parents=[(x, pull_x), (w, pull_w), (b, pull_b)],
        op="conv1d",
    )


def max_pool1d(x: DiffNode, channels: int, length: int, width: int) -> DiffNode:
    """Non-overlapping max pooling along time of time-major series; the last
    window may be short.  Output is (n, ceil(length/width)*channels), time-major.

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
    x3 = x.array.reshape(n, length, channels)
    if span != length:
        tail = np.full((n, span - length, channels), -np.inf)
        x3 = np.concatenate([x3, tail], axis=1)
    windows = x3.reshape(n * out_len, width, channels)
    best = windows[:, 0]
    arg = np.zeros((n * out_len, channels), dtype=np.intp)
    for offset in range(1, width):
        cand = windows[:, offset]
        # strict ">" keeps ties on the earliest step; the first NaN wins, as in
        # argmax: take where not cand <= best, unless best is already NaN
        take = np.less_equal(cand, best)
        np.logical_not(take, out=take)
        take &= best == best
        np.maximum(arg, take * offset, out=arg)  # offsets ascend: a later take wins
        if offset + 1 < width:
            best = np.maximum(best, cand)  # only compared, never output: keeps a NaN
    # flat index of each window's winner in x3
    flat = arg * channels
    flat += np.arange(n * out_len)[:, None] * (width * channels) + np.arange(channels)
    flat = flat.reshape(-1)

    def pull(g: np.ndarray) -> np.ndarray:
        dx = np.zeros(n * span * channels)
        dx[flat] = g.reshape(-1) + 0.0  # -0.0 becomes +0.0, as under += into zeros
        dx = dx.reshape(n, span * channels)[:, : length * channels]
        return np.ascontiguousarray(dx)

    return DiffNode(
        Tensor2D._adopt(np.take(x3.reshape(-1), flat).reshape(n, out_len * channels)),
        parents=[(x, pull)],
        op="max_pool1d",
    )


def channel_major(x: DiffNode, channels: int, length: int) -> DiffNode:
    """Reorder time-major rows (entry [i, t*channels + ch]) to channel-major
    (entry [i, ch*length + t])."""
    n, total = x.shape
    if total != channels * length:
        raise DimensionError(
            f"channel_major input width {total} != channels*length = {channels}*{length}"
        )

    def pull(g: np.ndarray) -> np.ndarray:
        return g.reshape(n, channels, length).transpose(0, 2, 1).reshape(n, total)

    out = x.array.reshape(n, length, channels).transpose(0, 2, 1).reshape(n, total)
    return DiffNode(Tensor2D._adopt(out), parents=[(x, pull)], op="channel_major")

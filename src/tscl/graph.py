"""Instance graph: temperature-scaled softmax similarities over a batch.

The graph is a plain ``DiffNode`` holding the n x n adjacency; its
gradient flows back to the embeddings it was built from.
"""

from __future__ import annotations

import numpy as np

from tscl import autodiff as ad
from tscl.errors import BatchTooSmallError, InvalidGraphError


def check_adjacency(a: np.ndarray) -> None:
    """Raise unless ``a`` has an exactly zero diagonal and rows summing to 1."""
    diag = np.abs(np.diag(a)).max(initial=0.0)
    if diag != 0.0:
        raise InvalidGraphError(f"adjacency diagonal must be 0, max |diag| = {diag}")
    row_err = np.abs(a.sum(axis=1) - 1.0).max(initial=0.0)
    if row_err > 1e-9:
        raise InvalidGraphError(f"adjacency rows must sum to 1, max err {row_err}")


def build_similarity(h: ad.DiffNode, temperature: float) -> ad.DiffNode:
    """Softmax over pairwise inner products, excluding each row's own entry.

    Embeddings are row L2-normalized before the inner products, so
    similarities are cosines and stay bounded at any temperature.
    """
    n = h.shape[0]
    if n < 2:
        raise BatchTooSmallError(f"similarity needs at least 2 rows, got {n}")
    base = ad.row_l2_normalize(h)
    sims = ad.gram(base, 1.0)
    alpha = ad.masked_softmax_rows(sims, excluded=np.arange(n), temperature=temperature)
    check_adjacency(alpha.array)
    return alpha

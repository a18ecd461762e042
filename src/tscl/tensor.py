"""Dense 2-D float64 tensors and the stabilized row-softmax kernel."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from tscl.errors import DimensionError, ParameterError


class Tensor2D:
    """Immutable dense real matrix, row-major float64.

    Values are stored as a read-only, C-contiguous ``numpy`` array so a
    tensor can be shared across threads without copying.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        a = np.ascontiguousarray(array, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionError(f"Tensor2D requires a 2-D array, got ndim={a.ndim}")
        a = a.copy() if a.flags.writeable else a
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor2D is immutable")

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Row-major flat view of the entries."""
        return self.array.reshape(-1)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Tensor2D":
        return cls(np.asarray(rows, dtype=np.float64))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Tensor2D":
        return cls(np.zeros((rows, cols)))

    def __repr__(self) -> str:
        return f"Tensor2D({self.rows}x{self.cols})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Tensor2D) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return object.__hash__(self)


def as_array(x) -> np.ndarray:
    """Accept Tensor2D or array-like, return a float64 2-D ndarray."""
    if isinstance(x, Tensor2D):
        return x.array
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected 2-D values, got ndim={a.ndim}")
    return a


def keep_mask(n: int, m: int, excluded: Optional[np.ndarray]) -> np.ndarray:
    """(n, m) boolean mask, False at the one ``excluded`` column of each row."""
    keep = np.ones((n, m), dtype=bool)
    if excluded is not None:
        idx = np.asarray(excluded, dtype=np.intp)
        if idx.shape != (n,):
            raise DimensionError(
                f"excluded-index mask must have shape ({n},), got {idx.shape}"
            )
        keep[np.arange(n), idx] = False
    return keep


def softmax_row(
    x,
    mask: Optional[np.ndarray] = None,
    temperature: float = 1.0,
) -> Tensor2D:
    """Row-wise softmax with per-row max subtraction for stability.

    ``mask``, when given, holds one excluded column index per row; the
    excluded entry is exactly 0 in the output and the remaining entries
    of the row sum to 1.
    """
    a = as_array(x)
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    keep = keep_mask(*a.shape, mask)
    scaled = a / float(temperature)
    shifted = scaled - np.max(np.where(keep, scaled, -np.inf), axis=1, keepdims=True)
    e = np.where(keep, np.exp(shifted), 0.0)
    out = e / np.sum(e, axis=1, keepdims=True)
    return Tensor2D(out)

"""Dense 2-D float64 tensors and ``softmax_rows_inplace``, the one stabilized
kernel behind every row softmax and log-sum-exp in the package.
"""

from __future__ import annotations

import math
from typing import Optional

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

    @classmethod
    def _adopt(cls, array: np.ndarray) -> "Tensor2D":
        """Freeze a freshly computed 2-D float64 array without copying it.

        Only for arrays no caller can still write to: the array itself
        becomes read-only, but a writable view of it would not.
        """
        if array.ndim != 2:
            raise DimensionError(f"Tensor2D requires a 2-D array, got ndim={array.ndim}")
        a = np.ascontiguousarray(array, dtype=np.float64)
        a.flags.writeable = False
        t = object.__new__(cls)
        object.__setattr__(t, "array", a)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor2D is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Tensor2D":
        return cls(np.zeros((rows, cols)))

    def __repr__(self) -> str:
        r, c = self.shape
        return f"Tensor2D({r}x{c})"

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


def check_temperature(temperature: float) -> None:
    """Raise unless ``temperature`` is a positive, finite number."""
    if not (math.isfinite(temperature) and temperature > 0):
        raise ParameterError(f"temperature must be positive and finite, got {temperature}")


def softmax_rows_inplace(buf: np.ndarray, excluded: Optional[np.ndarray] = None) -> np.ndarray:
    """Overwrite ``buf`` with its stabilized row softmax; return the Nx1 log-sum-exp.

    ``excluded``, when given, holds one column index per row: that entry
    is left out of the row's sum and is exactly 0 in the output.  A row
    whose every entry is excluded sums nothing: its log-sum-exp is -inf.
    """
    if excluded is not None:
        n = buf.shape[0]
        cols = np.asarray(excluded, dtype=np.intp)
        if cols.shape != (n,):
            raise DimensionError(f"excluded-index mask must have shape ({n},), got {cols.shape}")
        rows = np.arange(n)
        buf[rows, cols] = -np.inf
    # The ufunc reductions are what .max and .sum run, without their Python
    # wrappers: the bound sweep calls this on thousands of tiny matrices.
    mx = np.maximum.reduce(buf, axis=1, keepdims=True)
    buf -= mx
    np.exp(buf, out=buf)
    if excluded is not None:
        buf[rows, cols] = 0.0  # exp(-inf - mx) is nan, not 0, where mx is -inf or nan
    s = np.add.reduce(buf, axis=1, keepdims=True)
    buf /= s
    return mx + np.log(s)

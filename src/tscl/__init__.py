"""Contrastive representation learning on imbalanced time series.

Dense-matrix reverse-mode autodiff, NT-Xent-style contrastive losses with
verified Jensen lower bounds, an instance-graph projection head, and a
semi-supervised consistency objective, exercised end to end on synthetic
imbalanced time-series data.
"""

__version__ = "0.1.0"

from tscl.tensor import Tensor2D
from tscl.autodiff import DiffNode

__all__ = ["Tensor2D", "DiffNode", "__version__"]

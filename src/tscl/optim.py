"""Bias-corrected Adam with optional L2 weight decay.

:func:`adam_step` updates one array and its two moment arrays in place.
The caller owns those arrays and the step counter: pretraining keeps one
pair of moments per named parameter, the linear probe one flat buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tscl.errors import ParameterError


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ParameterError(f"lr must be finite and nonnegative, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ParameterError(
                f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}"
            )
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"eps must be positive and finite, got {self.eps}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ParameterError(
                f"weight_decay must be finite and nonnegative, got {self.weight_decay}"
            )


def adam_step(
    config: AdamConfig,
    step: int,
    value: np.ndarray,
    grad: np.ndarray,
    first_moment: np.ndarray,
    second_moment: np.ndarray,
) -> None:
    """Update step number ``step`` (counted from 1) of one array, in place.

    ``value``, ``first_moment`` and ``second_moment`` are overwritten.
    Every operation is elementwise, so parameters laid out side by side
    in one flat buffer get the same bits as when updated one by one.
    """
    if grad.shape != value.shape:
        raise ParameterError(
            f"gradient shape {grad.shape} does not match parameter shape {value.shape}"
        )
    if config.weight_decay:
        grad = grad + config.weight_decay * value
    first_moment *= config.beta1
    first_moment += (1.0 - config.beta1) * grad
    second_moment *= config.beta2
    second_moment += (1.0 - config.beta2) * grad * grad
    m_hat = first_moment / (1.0 - config.beta1**step)
    v_hat = second_moment / (1.0 - config.beta2**step)
    value -= config.lr * m_hat / (np.sqrt(v_hat) + config.eps)


"""Bias-corrected Adam with optional L2 weight decay.

:func:`adam_update` is the update itself, on arrays and in place.
:func:`adam_step` is its functional form over named parameters: a step
consumes the current values, gradients, and moment state and returns
fresh ones; nothing is mutated, and parameters are visited in
sorted-name order so updates are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tscl.errors import ParameterError
from tscl.tensor import Tensor2D


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ParameterError(f"learning rate must be finite and >= 0, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ParameterError(
                f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}"
            )
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"eps must be positive and finite, got {self.eps}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ParameterError(
                f"weight decay must be finite and >= 0, got {self.weight_decay}"
            )


@dataclass(frozen=True)
class AdamState:
    step: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]


def init_adam_state(values: dict[str, Tensor2D]) -> AdamState:
    zeros = {name: np.zeros(t.shape) for name, t in sorted(values.items())}
    return AdamState(
        step=0,
        first_moment={k: v.copy() for k, v in zeros.items()},
        second_moment=zeros,
    )


def adam_update(
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
    if config.weight_decay:
        grad = grad + config.weight_decay * value
    first_moment *= config.beta1
    first_moment += (1.0 - config.beta1) * grad
    second_moment *= config.beta2
    second_moment += (1.0 - config.beta2) * grad * grad
    m_hat = first_moment / (1.0 - config.beta1**step)
    v_hat = second_moment / (1.0 - config.beta2**step)
    value -= config.lr * m_hat / (np.sqrt(v_hat) + config.eps)


def adam_step(
    config: AdamConfig,
    state: AdamState,
    values: dict[str, Tensor2D],
    grads: dict[str, Tensor2D | None],
) -> tuple[AdamState, dict[str, Tensor2D]]:
    """One update. Parameters whose gradient is None pass through untouched."""
    step = state.step + 1
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    new_values: dict[str, Tensor2D] = {}
    for name in sorted(values):
        x = values[name].array
        grad = grads.get(name)
        if grad is None:
            new_m[name] = state.first_moment[name]
            new_v[name] = state.second_moment[name]
            new_values[name] = values[name]
            continue
        g = grad.array
        if g.shape != x.shape:
            raise ParameterError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name} with shape {x.shape}"
            )
        x = x.copy()
        m = state.first_moment[name].copy()
        v = state.second_moment[name].copy()
        adam_update(config, step, x, g, m, v)
        new_m[name] = m
        new_v[name] = v
        new_values[name] = Tensor2D(x)
    return AdamState(step=step, first_moment=new_m, second_moment=new_v), new_values

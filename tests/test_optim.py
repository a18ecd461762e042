"""Optimizer tests: closed-form single steps, a multi-step reference
implementation, flat-buffer parity, weight-decay equivalence, and the
gradient-shape check of the in-place update."""

import numpy as np
import pytest

from tscl.errors import ParameterError
from tscl.optim import AdamConfig, adam_step


def _step(config, step, x, g, m, v):
    """Run one in-place step on copies; return (value, first, second moment)."""
    x, m, v = x.copy(), m.copy(), v.copy()
    adam_step(config, step, x, g, m, v)
    return x, m, v


def test_first_step_matches_closed_form():
    # With zeroed moments, bias correction makes the first update exactly
    # -lr * g / (|g| + eps), independent of the betas.
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    g = np.array([[0.3, -0.7], [0.0, 2.0]])
    config = AdamConfig(lr=0.01)
    new_x, _, _ = _step(config, 1, x, g, np.zeros_like(x), np.zeros_like(x))
    expected = x - 0.01 * g / (np.abs(g) + config.eps)
    np.testing.assert_allclose(new_x, expected, rtol=0, atol=1e-15)


def test_ten_steps_match_reference_implementation():
    rng = np.random.default_rng(42)
    config = AdamConfig(lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8)
    x = rng.standard_normal((3, 4))
    m = np.zeros_like(x)
    v = np.zeros_like(x)

    ref_x = x.copy()
    ref_m = np.zeros_like(x)
    ref_v = np.zeros_like(x)
    for t in range(1, 11):
        g = rng.standard_normal((3, 4))
        adam_step(config, t, x, g, m, v)
        ref_m = 0.9 * ref_m + 0.1 * g
        ref_v = 0.999 * ref_v + 0.001 * g * g
        m_hat = ref_m / (1.0 - 0.9**t)
        v_hat = ref_v / (1.0 - 0.999**t)
        ref_x = ref_x - 3e-4 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-15)


def test_flat_buffer_update_matches_per_array_update_with_weight_decay():
    # The probe updates bias and weight as two views of one flat buffer and
    # pretraining updates one array per parameter; the update is
    # elementwise, so both must give the same bits, and both must match the
    # update written out in full.
    rng = np.random.default_rng(5)
    config = AdamConfig(lr=0.05, beta1=0.8, beta2=0.99, eps=1e-6, weight_decay=0.03)
    arrays = {"b": rng.standard_normal((1, 3)), "w": rng.standard_normal((4, 3))}
    per_array = {k: (v.copy(), np.zeros_like(v), np.zeros_like(v)) for k, v in arrays.items()}
    flat = np.concatenate([arrays["b"].ravel(), arrays["w"].ravel()])
    flat_m = np.zeros_like(flat)
    flat_v = np.zeros_like(flat)
    ref = {k: (v.copy(), np.zeros_like(v), np.zeros_like(v)) for k, v in arrays.items()}
    for step in range(1, 6):
        grads = {"b": rng.standard_normal((1, 3)), "w": rng.standard_normal((4, 3))}
        for name, (x, m, v) in per_array.items():
            adam_step(config, step, x, grads[name], m, v)
        flat_g = np.concatenate([grads["b"].ravel(), grads["w"].ravel()])
        adam_step(config, step, flat, flat_g, flat_m, flat_v)
        for name, (x, m, v) in ref.items():
            g = grads[name] + 0.03 * x
            m = 0.8 * m + (1.0 - 0.8) * g
            v = 0.99 * v + (1.0 - 0.99) * g * g
            m_hat = m / (1.0 - 0.8**step)
            v_hat = v / (1.0 - 0.99**step)
            ref[name] = (x - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-6), m, v)
    for name, expected in ref.items():
        for got, want in zip(per_array[name], expected):
            assert got.tobytes() == want.tobytes()
    for flat_array, k in ((flat, 0), (flat_m, 1), (flat_v, 2)):
        expected = np.concatenate([ref["b"][k].ravel(), ref["w"][k].ravel()])
        assert flat_array.tobytes() == expected.tobytes()


def test_gradient_is_left_untouched():
    # Pretraining passes the gradient array that backward left on a leaf.
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 2))
    g = rng.standard_normal((2, 2))
    before = g.copy()
    adam_step(AdamConfig(lr=0.1, weight_decay=0.5), 1, x, g, np.zeros((2, 2)), np.zeros((2, 2)))
    assert g.tobytes() == before.tobytes()


def test_weight_decay_equals_gradient_augmentation():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3))
    g = rng.standard_normal((2, 3))
    zeros = np.zeros_like(x)
    decayed = AdamConfig(lr=0.05, weight_decay=0.01)
    plain = AdamConfig(lr=0.05, weight_decay=0.0)
    with_decay = _step(decayed, 1, x, g, zeros, zeros)
    augmented = _step(plain, 1, x, g + 0.01 * x, zeros, zeros)
    for a, b in zip(with_decay, augmented):
        np.testing.assert_array_equal(a, b)


def test_zero_lr_keeps_values_but_advances_moments():
    x = np.array([[1.0, 2.0]])
    g = np.array([[0.5, -0.5]])
    new_x, m, v = _step(AdamConfig(lr=0.0), 1, x, g, np.zeros_like(x), np.zeros_like(x))
    np.testing.assert_array_equal(new_x, x)
    assert m.all() and v.all()


def test_gradient_shape_mismatch_rejected():
    # A (1, 3) gradient would broadcast silently onto a (2, 3) parameter.
    x = np.zeros((2, 3))
    with pytest.raises(ParameterError, match="shape"):
        adam_step(AdamConfig(), 1, x, np.ones((1, 3)), np.zeros_like(x), np.zeros_like(x))
    assert not x.any()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lr": -1e-3},
        {"beta1": 1.0},
        {"beta2": -0.1},
        {"eps": 0.0},
        {"weight_decay": -0.5},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"eps": float("inf")},
        {"weight_decay": float("nan")},
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ParameterError):
        AdamConfig(**kwargs)

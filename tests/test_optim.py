"""Optimizer tests: closed-form single steps, a multi-step reference
implementation, weight-decay equivalence, and pass-through semantics."""

import numpy as np
import pytest

from tscl.errors import ParameterError
from tscl.optim import AdamConfig, AdamState, adam_step, adam_update, init_adam_state
from tscl.tensor import Tensor2D


def _wrap(arrays: dict[str, np.ndarray]) -> dict[str, Tensor2D]:
    return {k: Tensor2D(v) for k, v in arrays.items()}


def test_first_step_matches_closed_form():
    # With zeroed moments, bias correction makes the first update exactly
    # -lr * g / (|g| + eps), independent of the betas.
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    g = np.array([[0.3, -0.7], [0.0, 2.0]])
    config = AdamConfig(lr=0.01)
    state = init_adam_state(_wrap({"w": x}))
    _, new_values = adam_step(config, state, _wrap({"w": x}), _wrap({"w": g}))
    expected = x - 0.01 * g / (np.abs(g) + config.eps)
    np.testing.assert_allclose(new_values["w"].array, expected, rtol=0, atol=1e-15)


def test_ten_steps_match_reference_implementation():
    rng = np.random.default_rng(42)
    config = AdamConfig(lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8)
    x = rng.standard_normal((3, 4))
    state = init_adam_state(_wrap({"w": x}))
    values = _wrap({"w": x})

    ref_x = x.copy()
    ref_m = np.zeros_like(x)
    ref_v = np.zeros_like(x)
    for t in range(1, 11):
        g = rng.standard_normal((3, 4))
        state, values = adam_step(config, state, values, _wrap({"w": g}))
        ref_m = 0.9 * ref_m + 0.1 * g
        ref_v = 0.999 * ref_v + 0.001 * g * g
        m_hat = ref_m / (1.0 - 0.9**t)
        v_hat = ref_v / (1.0 - 0.999**t)
        ref_x = ref_x - 3e-4 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(values["w"].array, ref_x, rtol=0, atol=1e-15)


def test_flat_buffer_update_matches_adam_step_with_weight_decay():
    # The probe updates bias and weight as two views of one flat buffer;
    # the update is elementwise, so it must match the per-name step, and
    # both must match the update written out in full.
    rng = np.random.default_rng(5)
    config = AdamConfig(lr=0.05, beta1=0.8, beta2=0.99, eps=1e-6, weight_decay=0.03)
    arrays = {"b": rng.standard_normal((1, 3)), "w": rng.standard_normal((4, 3))}
    state = init_adam_state(_wrap(arrays))
    values = _wrap(arrays)
    flat = np.concatenate([arrays["b"].ravel(), arrays["w"].ravel()])
    flat_m = np.zeros_like(flat)
    flat_v = np.zeros_like(flat)
    ref = {k: (v.copy(), np.zeros_like(v), np.zeros_like(v)) for k, v in arrays.items()}
    for step in range(1, 6):
        grads = {"b": rng.standard_normal((1, 3)), "w": rng.standard_normal((4, 3))}
        state, values = adam_step(config, state, values, _wrap(grads))
        flat_g = np.concatenate([grads["b"].ravel(), grads["w"].ravel()])
        adam_update(config, step, flat, flat_g, flat_m, flat_v)
        for name, (x, m, v) in ref.items():
            g = grads[name] + 0.03 * x
            m = 0.8 * m + (1.0 - 0.8) * g
            v = 0.99 * v + (1.0 - 0.99) * g * g
            m_hat = m / (1.0 - 0.8**step)
            v_hat = v / (1.0 - 0.99**step)
            ref[name] = (x - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-6), m, v)
    for name, (x, m, v) in ref.items():
        assert values[name].array.tobytes() == x.tobytes()
        assert state.first_moment[name].tobytes() == m.tobytes()
        assert state.second_moment[name].tobytes() == v.tobytes()
    for flat_array, k in ((flat, 0), (flat_m, 1), (flat_v, 2)):
        expected = np.concatenate([ref["b"][k].ravel(), ref["w"][k].ravel()])
        assert flat_array.tobytes() == expected.tobytes()


def test_step_does_not_mutate_its_inputs():
    rng = np.random.default_rng(9)
    values = _wrap({"w": rng.standard_normal((2, 2))})
    state = init_adam_state(values)
    state, values = adam_step(AdamConfig(lr=0.1), state, values, _wrap({"w": np.ones((2, 2))}))
    before = (values["w"].array.copy(), state.first_moment["w"].copy(),
              state.second_moment["w"].copy())
    adam_step(AdamConfig(lr=0.1), state, values, _wrap({"w": np.ones((2, 2))}))
    np.testing.assert_array_equal(values["w"].array, before[0])
    np.testing.assert_array_equal(state.first_moment["w"], before[1])
    np.testing.assert_array_equal(state.second_moment["w"], before[2])


def test_weight_decay_equals_gradient_augmentation():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3))
    g = rng.standard_normal((2, 3))
    decayed = AdamConfig(lr=0.05, weight_decay=0.01)
    plain = AdamConfig(lr=0.05, weight_decay=0.0)
    state = init_adam_state(_wrap({"w": x}))

    _, with_decay = adam_step(decayed, state, _wrap({"w": x}), _wrap({"w": g}))
    _, augmented = adam_step(plain, state, _wrap({"w": x}), _wrap({"w": g + 0.01 * x}))
    np.testing.assert_array_equal(with_decay["w"].array, augmented["w"].array)


def test_zero_lr_keeps_values_but_advances_state():
    x = np.array([[1.0, 2.0]])
    g = np.array([[0.5, -0.5]])
    config = AdamConfig(lr=0.0)
    state = init_adam_state(_wrap({"w": x}))
    state, values = adam_step(config, state, _wrap({"w": x}), _wrap({"w": g}))
    np.testing.assert_array_equal(values["w"].array, x)
    assert state.step == 1
    assert state.first_moment["w"].any()


def test_none_gradient_passes_value_and_moments_through():
    rng = np.random.default_rng(3)
    arrays = {"a": rng.standard_normal((2, 2)), "b": rng.standard_normal((1, 3))}
    config = AdamConfig(lr=0.1)
    state = init_adam_state(_wrap(arrays))
    grads = {"a": Tensor2D(np.ones((2, 2))), "b": None}
    state, values = adam_step(config, state, _wrap(arrays), grads)
    np.testing.assert_array_equal(values["b"].array, arrays["b"])
    assert not state.first_moment["b"].any()
    assert not np.array_equal(values["a"].array, arrays["a"])


def test_step_is_deterministic():
    rng = np.random.default_rng(11)
    arrays = {"w": rng.standard_normal((4, 4))}
    grads = {"w": Tensor2D(rng.standard_normal((4, 4)))}
    config = AdamConfig()
    s1, v1 = adam_step(config, init_adam_state(_wrap(arrays)), _wrap(arrays), grads)
    s2, v2 = adam_step(config, init_adam_state(_wrap(arrays)), _wrap(arrays), grads)
    np.testing.assert_array_equal(v1["w"].array, v2["w"].array)
    np.testing.assert_array_equal(s1.first_moment["w"], s2.first_moment["w"])


def test_gradient_shape_mismatch_rejected():
    config = AdamConfig()
    values = _wrap({"w": np.zeros((2, 2))})
    state = init_adam_state(values)
    with pytest.raises(ParameterError, match="shape"):
        adam_step(config, state, values, _wrap({"w": np.zeros((2, 3))}))


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

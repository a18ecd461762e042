"""Contracts and gradient checks for the dense autodiff primitives."""

import ast
from pathlib import Path

import numpy as np
import pytest

from tscl import autodiff as ad
from tscl.errors import DegenerateInputError, DimensionError, ParameterError
from tscl.model import EncoderParams, ModelConfig, encode, init_model
from tscl.tensor import Tensor2D, softmax_rows_inplace

from gradcheck import (
    assert_same_bits,
    check_op_gradients,
    fd_gradient,
    project_sum,
    relative_error,
)

SEEDS = [0, 1, 2, 3, 4]


def randn(rng, r, c):
    return rng.standard_normal((r, c))


class TestTensor2D:
    def test_shape_and_data_layout(self):
        t = Tensor2D([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2) and repr(t) == "Tensor2D(2x2)"
        assert t.array.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_immutable(self):
        t = Tensor2D.zeros(2, 2)
        with pytest.raises(ValueError):
            t.array[0, 0] = 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            Tensor2D(np.zeros(3))


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant(a))
        np.testing.assert_array_equal(out.array, a)

    def test_hand_checked_product(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[0.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).array, [[2.0], [4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))

    def test_gradient_of_sum_matches_fd(self):
        rng = np.random.default_rng(11)
        a = randn(rng, 3, 4)
        b = randn(rng, 4, 2)

        def objective(arrs):
            return float((arrs[0] @ arrs[1]).sum())

        x = ad.leaf(a)
        y = ad.leaf(b)
        ad.backward(project_sum(ad.matmul(x, y), np.ones((3, 2))))
        for i, node in enumerate([x, y]):
            numeric = fd_gradient(objective, [a, b], i)
            assert relative_error(node.gradient().array, numeric) < 1e-6


class TestRowL2Normalize:
    def test_three_four_five(self):
        out = ad.row_l2_normalize(ad.constant([[3.0, 4.0]]))
        np.testing.assert_allclose(out.array, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent_on_unit_rows(self):
        rng = np.random.default_rng(3)
        v = randn(rng, 4, 5)
        unit = v / np.linalg.norm(v, axis=1, keepdims=True)
        out = ad.row_l2_normalize(ad.constant(unit))
        np.testing.assert_allclose(out.array, unit, atol=1e-12)

    def test_zero_row_names_index(self):
        x = np.ones((3, 2))
        x[1] = 0.0
        with pytest.raises(DegenerateInputError, match="row at index 1"):
            ad.row_l2_normalize(ad.constant(x))

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
    def test_non_finite_norm_names_index(self, value):
        # An inf norm would give a zero row and a NaN norm a NaN row; 1e200
        # is finite, but its squared norm overflows to inf.
        x = np.ones((3, 2))
        x[2, 0] = value
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateInputError, match="non-finite-norm row at index 2"):
                ad.row_l2_normalize(ad.constant(x))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        x = randn(rng, 4, 3) + 0.5
        check_op_gradients(lambda ls: ad.row_l2_normalize(ls[0]), [x], rng, tol=1e-6)


def _masked_softmax(x, excluded, temperature):
    return ad.masked_softmax_rows(ad.constant(x), excluded, temperature=temperature).array


def _kernel_softmax(x):
    buf = np.array(x, dtype=np.float64)
    softmax_rows_inplace(buf)
    return buf


class TestSoftmaxRow:
    def test_uniform_row(self):
        out = _kernel_softmax([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_masked_constant_row_any_shift(self):
        for c in (0.0, 5.0, -17.3):
            out = _masked_softmax([[c, c, c]], np.array([0]), temperature=0.37)
            np.testing.assert_allclose(out, [[0.0, 0.5, 0.5]], atol=1e-15)
            assert out[0, 0] == 0.0

    def test_direct_summation_oracle(self):
        # Frozen from a 40-digit evaluation of exp((x-max)/tau)/sum, tau = 0.5.
        out = _kernel_softmax([[2.0, 4.0, 6.0]])
        expected = [
            0.015876239976466765,
            0.11731042782619837,
            0.8668133321973349,
        ]
        np.testing.assert_allclose(out[0], expected, rtol=1e-15)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(9)
        x = randn(rng, 6, 6) * 3
        out = _masked_softmax(x, np.arange(6), temperature=0.2)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)
        shifted = _masked_softmax(
            x + rng.standard_normal((6, 1)), np.arange(6), temperature=0.2
        )
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_non_positive_temperature(self):
        with pytest.raises(ParameterError):
            _masked_softmax([[1.0, 2.0]], np.array([0]), temperature=0.0)

    def test_extreme_temperature_does_not_overflow(self):
        out = _kernel_softmax(np.array([[900.0, -900.0, 0.0]]) / 1e-3)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-12)


class TestBackwardAccumulation:
    def test_shared_subexpression_sums_gradients(self):
        # y = sum(x@x.T + x@x.T) via a shared node; oracle expands the DAG to a
        # tree with independent leaves holding the same value.
        v = np.array([[1.5, -2.0], [0.25, 3.0]])
        ones = np.ones((2, 2))
        x = ad.leaf(v)
        sq = ad.gram(x, 1.0)  # x @ x.T
        shared = ad.add(sq, sq)
        ad.backward(project_sum(shared, ones))
        got = x.gradient().array

        x1 = ad.leaf(v)
        x2 = ad.leaf(v)
        tree = ad.add(ad.gram(x1, 1.0), ad.gram(x2, 1.0))
        ad.backward(project_sum(tree, ones))
        expected = x1.gradient().array + x2.gradient().array
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_only_leaves_keep_gradients_after_backward(self):
        rng = np.random.default_rng(8)
        x = ad.leaf(randn(rng, 3, 4))
        w = ad.leaf(randn(rng, 4, 2))
        frozen = ad.constant(randn(rng, 3, 2))
        hidden = ad.relu(ad.matmul(x, w))
        shared = ad.add(hidden, hidden)
        root = ad.mean(ad.add(shared, frozen))
        ad.backward(root)
        for node in (x, w):
            assert node.grad is not None and node.grad.shape == node.shape
        for node in (hidden, shared, root):
            assert node.grad is None, node.op
            with pytest.raises(ParameterError, match="leaves only"):
                node.gradient()
        assert frozen.grad is None  # needs no gradient, so never reached

    def test_diamond_dag_matches_fd(self):
        rng = np.random.default_rng(21)
        a = randn(rng, 3, 3)

        def build(ls):
            x = ls[0]
            e = ad.row_l2_normalize(ad.scale(x, 0.3))
            return ad.add(ad.gram(e, 1.0), e)

        check_op_gradients(build, [a], rng, tol=1e-6)

    def test_backward_requires_scalar(self):
        with pytest.raises(DimensionError):
            ad.backward(ad.leaf(np.zeros((2, 2))))


def _time_major(a, channels, length):
    """Channel-major rows (entry [i, ch*length + t]) in the kernels' time-major
    layout (entry [i, t*channels + ch])."""
    n = a.shape[0]
    return np.ascontiguousarray(a.reshape(n, channels, length).transpose(0, 2, 1)).reshape(
        n, length * channels
    )


def _channel_major(a, channels, length):
    """Time-major rows back in channel-major layout."""
    n = a.shape[0]
    return np.ascontiguousarray(a.reshape(n, length, channels).transpose(0, 2, 1)).reshape(
        n, channels * length
    )


class TestConvAndPool:
    def test_conv_matches_direct_correlation(self):
        rng = np.random.default_rng(2)
        n, c_in, L, c_out, k = 2, 2, 7, 3, 3
        x = randn(rng, n, c_in * L)
        w = randn(rng, c_out, c_in * k)
        b = randn(rng, 1, c_out)
        out = ad.conv1d(
            ad.constant(_time_major(x, c_in, L)), ad.constant(w), ad.constant(b), c_in, L
        ).array

        pad = (k - 1) // 2
        x3 = x.reshape(n, c_in, L)
        w3 = w.reshape(c_out, c_in, k)
        expected = np.zeros((n, c_out, L))
        for i in range(n):
            for o in range(c_out):
                for t in range(L):
                    acc = b[0, o]
                    for c in range(c_in):
                        for j in range(k):
                            src = t + j - pad
                            if 0 <= src < L:
                                acc += x3[i, c, src] * w3[o, c, j]
                    expected[i, o, t] = acc
        np.testing.assert_allclose(
            _channel_major(out, c_out, L), expected.reshape(n, c_out * L), atol=1e-12
        )

    def test_layout_round_trip(self):
        x = np.arange(12.0).reshape(2, 6)  # 2 channels of length 3
        tm = _time_major(x, 2, 3)
        np.testing.assert_array_equal(tm[0], [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])
        np.testing.assert_array_equal(ad.channel_major(ad.constant(tm), 2, 3).array, x)
        np.testing.assert_array_equal(_channel_major(tm, 2, 3), x)

    def test_pool_values_and_ragged_tail(self):
        x = np.array([[1.0, 5.0, 2.0, 4.0, 3.0]])
        out = ad.max_pool1d(ad.constant(x), channels=1, length=5, width=2)
        np.testing.assert_array_equal(out.array, [[5.0, 4.0, 3.0]])

    def test_pool_gradient_matches_fd(self):
        rng = np.random.default_rng(31)
        # Distinct entries so the argmax is stable under FD perturbation.
        x = rng.permutation(24).astype(float).reshape(2, 12) * 0.37
        check_op_gradients(
            lambda ls: ad.max_pool1d(ls[0], channels=2, length=6, width=2),
            [x],
            rng,
            tol=1e-6,
        )


# Reference kernels: conv1d and max_pool1d as first written, over
# channel-major rows, with an np.add.at scatter and per-window loops.  The
# time-major kernels must match them bit for bit, forward and in every
# pullback, once inputs, outputs and gradients are permuted between layouts.


def _oracle_conv1d(x, w, b, channels, length, g):
    """(output, dx, dw, db) for upstream gradient ``g``."""
    n = x.shape[0]
    c_out, wcols = w.shape
    k = wcols // channels
    pad_left = (k - 1) // 2
    padded = np.zeros((n, channels, length + k - 1))
    padded[:, :, pad_left : pad_left + length] = x.reshape(n, channels, length)
    pos = np.arange(length)[:, None] + np.arange(k)[None, :]
    patches = padded[:, :, pos].transpose(0, 2, 1, 3).reshape(n * length, channels * k)
    out2 = patches @ w.T
    out = out2.reshape(n, length, c_out).transpose(0, 2, 1).reshape(n, c_out * length)
    out = out + np.repeat(b[0], length)[None, :]
    g2 = g.reshape(n, c_out, length).transpose(0, 2, 1).reshape(n * length, c_out)
    d4 = (g2 @ w).reshape(n, length, channels, k).transpose(0, 2, 1, 3)
    dpadded = np.zeros_like(padded)
    np.add.at(dpadded, (slice(None), slice(None), pos), d4)
    dx = dpadded[:, :, pad_left : pad_left + length].reshape(n, channels * length)
    return out, dx, g2.T @ patches, g2.sum(axis=0, keepdims=True)


def _oracle_max_pool1d(x, channels, length, width, g):
    """(output, dx) for upstream gradient ``g``."""
    n = x.shape[0]
    out_len = -(-length // width)
    x3 = x.reshape(n, channels, length)
    out3 = np.empty((n, channels, out_len))
    argpos = np.empty((n, channels, out_len), dtype=np.intp)
    for t in range(out_len):
        s, e = t * width, min((t + 1) * width, length)
        seg = x3[:, :, s:e]
        arg = seg.argmax(axis=2)
        argpos[:, :, t] = s + arg
        out3[:, :, t] = np.take_along_axis(seg, arg[:, :, None], axis=2)[:, :, 0]
    g3 = g.reshape(n, channels, out_len)
    dx3 = np.zeros((n, channels, length))
    ii, cc = np.meshgrid(np.arange(n), np.arange(channels), indexing="ij")
    for t in range(out_len):
        dx3[ii, cc, argpos[:, :, t]] += g3[:, :, t]
    return out3.reshape(n, channels * out_len), dx3.reshape(n, channels * length)


def _pullbacks(node, g):
    """Each parent's contribution for upstream gradient ``g``."""
    return [pull(g) for _, pull in node.parents]


class TestKernelParity:
    @pytest.mark.parametrize(
        "n, channels, length, c_out, k",
        [
            (3, 2, 9, 4, 1),
            (3, 2, 9, 4, 2),
            (3, 2, 9, 4, 3),
            (3, 2, 9, 4, 8),
            (2, 3, 3, 2, 8),  # length < k
            (1, 1, 16, 5, 8),
            (1, 2, 5, 3, 3),
            (40, 16, 32, 4, 8),  # the default encoder's second block: 16 channels, k = 8
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_conv1d_bit_identical(self, n, channels, length, c_out, k, seed):
        rng = np.random.default_rng([seed, n, channels, length, c_out, k])
        x = randn(rng, n, channels * length)
        w = randn(rng, c_out, channels * k)
        b = randn(rng, 1, c_out)
        g = randn(rng, n, c_out * length)
        node = ad.conv1d(
            ad.leaf(_time_major(x, channels, length)), ad.leaf(w), ad.leaf(b), channels, length
        )
        out, dx, dw, db = _oracle_conv1d(x, w, b, channels, length, g)
        got_dx, got_dw, got_db = _pullbacks(node, _time_major(g, c_out, length))
        assert_same_bits(_channel_major(node.array, c_out, length), out)
        assert_same_bits(_channel_major(got_dx, channels, length), dx)
        assert_same_bits(got_dw, dw)
        assert_same_bits(got_db, db)

    @pytest.mark.parametrize(
        "n, channels, length, width",
        [
            (3, 2, 6, 1),
            (3, 2, 5, 2),
            (3, 2, 7, 2),
            (3, 2, 5, 3),
            (3, 2, 7, 3),
            (2, 3, 8, 2),
            (1, 1, 4, 8),  # a single short window
        ],
    )
    @pytest.mark.parametrize("ties", [False, True])
    def test_max_pool1d_bit_identical(self, n, channels, length, width, ties):
        rng = np.random.default_rng([n, channels, length, width, int(ties)])
        x = randn(rng, n, channels * length)
        if ties:
            x = np.round(x * 2.0) / 2.0
        out_len = -(-length // width)
        g = randn(rng, n, channels * out_len)
        if ties:  # and upstream zeros of both signs
            g = np.round(g * 2.0) / 2.0
        node = ad.max_pool1d(ad.leaf(_time_major(x, channels, length)), channels, length, width)
        out, dx = _oracle_max_pool1d(x, channels, length, width, g)
        (got_dx,) = _pullbacks(node, _time_major(g, channels, out_len))
        assert_same_bits(_channel_major(node.array, channels, out_len), out)
        assert_same_bits(_channel_major(got_dx, channels, length), dx)

    @pytest.mark.parametrize("size", [1, 9, 16])  # NumPy's scalar tail and vector body
    def test_relu_bit_identical(self, size):
        special = [-0.0, 0.0, np.nan, -np.inf, np.inf, -1.5, 2.5, 5e-324, -5e-324]
        x = np.resize(np.array(special), (1, size))
        g = np.resize(np.array([-1.0, -0.0, 2.0]), (1, size))
        node = ad.relu(ad.leaf(x))
        assert_same_bits(node.array, np.where(x > 0, x, 0.0))  # relu as first written
        assert_same_bits(_pullbacks(node, g)[0], g * (x > 0))

    def test_tied_maxima_route_gradient_to_earliest_step(self):
        x = np.array([[2.0, 2.0, 1.0, -1.0, -1.0, -1.0]])
        node = ad.max_pool1d(ad.leaf(x), channels=1, length=6, width=3)
        (dx,) = _pullbacks(node, np.array([[1.0, 10.0]]))
        np.testing.assert_array_equal(dx, [[1.0, 0.0, 0.0, 10.0, 0.0, 0.0]])

    def test_nan_in_pool_window_wins_like_argmax(self):
        x = np.array([[1.0, np.nan, 3.0, 2.0, np.nan, np.nan]])
        node = ad.max_pool1d(ad.leaf(x), channels=1, length=6, width=2)
        np.testing.assert_array_equal(node.array, [[np.nan, 3.0, np.nan]])
        (dx,) = _pullbacks(node, np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(dx, [[0.0, 1.0, 2.0, 0.0, 3.0, 0.0]])
        out, odx = _oracle_max_pool1d(x, 1, 6, 2, np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(node.array, out)
        np.testing.assert_array_equal(dx, odx)

    def test_nan_beats_numbers_in_a_width_two_window(self):
        x = np.array([[1.0, np.nan, 3.0, 2.0]])
        node = ad.max_pool1d(ad.leaf(x), channels=1, length=4, width=2)
        np.testing.assert_array_equal(node.array, [[np.nan, 3.0]])
        (dx,) = _pullbacks(node, np.array([[5.0, 7.0]]))
        np.testing.assert_array_equal(dx, [[0.0, 5.0, 7.0, 0.0]])


def _oracle_encode(x, values, config, upstream):
    """The encoder composed from the channel-major oracles: (conv -> relu ->
    pool) per block, then the linear layer.  Returns the output and, for
    upstream gradient ``upstream``, the gradient of every encoder parameter."""
    n = x.shape[0]
    blocks = []
    cur, channels, length = x, config.in_channels, config.length
    for i, c_out in enumerate(config.channel_plan):
        w, b = values[f"encoder.conv{i}.weight"], values[f"encoder.conv{i}.bias"]
        conv = _oracle_conv1d(cur, w, b, channels, length, np.zeros((n, c_out * length)))[0]
        mask = conv > 0
        relu = np.where(mask, conv, 0.0)
        out_len = -(-length // config.pool_width)
        pooled, _ = _oracle_max_pool1d(
            relu, c_out, length, config.pool_width, np.zeros((n, c_out * out_len))
        )
        blocks.append((i, cur, channels, length, mask, relu, c_out))
        cur, channels, length = pooled, c_out, out_len
    lw, lb = values["encoder.linear.weight"], values["encoder.linear.bias"]
    grads = {
        "encoder.linear.weight": cur.T @ upstream,
        "encoder.linear.bias": upstream.sum(axis=0, keepdims=True),
    }
    g = upstream @ lw.T
    for i, inp, channels, length, mask, relu, c_out in reversed(blocks):
        _, g = _oracle_max_pool1d(relu, c_out, length, config.pool_width, g)
        w, b = values[f"encoder.conv{i}.weight"], values[f"encoder.conv{i}.bias"]
        _, g, grads[f"encoder.conv{i}.weight"], grads[f"encoder.conv{i}.bias"] = _oracle_conv1d(
            inp, w, b, channels, length, g * mask
        )
    return cur @ lw + lb, grads


@pytest.mark.parametrize("in_channels", [1, 3])
def test_encode_matches_channel_major_oracles(in_channels):
    """``encode`` runs time-major kernels with ReLU after the window max; its
    output keeps the bits of the channel-major conv -> relu -> pool oracles.
    Its gradients may differ only in the sign of an exact zero: under the old
    order a window whose max is <= 0 sent ``g * False`` (-0.0 for g < 0) to its
    first entry, and now every entry gets +0.0.  So gradients are compared
    with ``np.array_equal``, which counts -0.0 equal to +0.0."""
    config = ModelConfig(
        in_channels=in_channels, length=13, embed_dim=6, n_classes=2,
        conv_channels=(4, 5), kernel=4, pool_width=2,
    )
    rng = np.random.default_rng(in_channels)
    params = init_model(config, rng)
    x = randn(rng, 5, in_channels * config.length)
    out = encode(x, params.encoder, config)
    upstream = randn(rng, *out.shape)
    ad.backward(project_sum(out, upstream))
    values = {name: node.array for name, node in params.encoder.named().items()}
    want_out, want_grads = _oracle_encode(x, values, config, upstream)
    assert_same_bits(out.array, want_out)
    assert set(want_grads) == set(values)
    for name, node in params.encoder.named().items():
        np.testing.assert_array_equal(node.gradient().array, want_grads[name], err_msg=name)


def test_encode_maps_a_nan_window_to_zero():
    """Pinned difference from relu-then-pool, for non-finite activations only:
    a window holding a NaN beside a positive entry wins with the NaN, which
    ReLU then maps to 0, so it outputs 0 (relu-then-pool gave the 5) and sends
    its gradient nowhere."""
    config = ModelConfig(
        in_channels=1, length=4, embed_dim=1, n_classes=2,
        conv_channels=(1,), kernel=1, pool_width=2,
    )
    encoder = EncoderParams(
        conv_weights=(ad.leaf(np.array([[1.0]])),),
        conv_biases=(ad.leaf(np.array([[0.0]])),),
        linear_weight=ad.leaf(np.array([[1.0], [10.0]])),
        linear_bias=ad.leaf(np.array([[0.0]])),
    )
    x = np.array([[np.nan, 5.0, 3.0, -2.0]])
    assert_same_bits(encode(x, encoder, config).array, np.array([[30.0]]))  # 0*1 + 3*10

    leaf = ad.leaf(x)
    out = ad.relu(ad.max_pool1d(leaf, channels=1, length=4, width=2))
    assert_same_bits(out.array, np.array([[0.0, 3.0]]))
    ad.backward(project_sum(out, np.array([[1.0, 2.0]])))
    assert_same_bits(leaf.gradient().array, np.array([[0.0, 0.0, 2.0, 0.0]]))


# Reference kernels: the row softmax and log-sum-exp as first written, with
# a boolean keep-mask and np.where.  The in-place kernels must match them bit
# for bit, forward and in the pullback.


def _oracle_keep(n, m, excluded):
    keep = np.ones((n, m), dtype=bool)
    if excluded is not None:
        keep[np.arange(n), excluded] = False
    return keep


def _oracle_softmax(a, excluded, temperature, g):
    """(output, pullback of ``g``) of the masked row softmax."""
    keep = _oracle_keep(*a.shape, excluded)
    scaled = a / float(temperature)
    shifted = scaled - np.max(np.where(keep, scaled, -np.inf), axis=1, keepdims=True)
    e = np.where(keep, np.exp(shifted), 0.0)
    out = e / np.sum(e, axis=1, keepdims=True)
    dot = np.sum(g * out, axis=1, keepdims=True)
    return out, (g - dot) * out * (1.0 / float(temperature))


def _oracle_logsumexp(a, excluded, g):
    """(output, pullback of ``g``) of the row log-sum-exp."""
    keep = _oracle_keep(*a.shape, excluded)
    mx = np.where(keep, a, -np.inf).max(axis=1, keepdims=True)
    e = np.where(keep, np.exp(a - mx), 0.0)
    s = e.sum(axis=1, keepdims=True)
    return mx + np.log(s), g * (e / s)


EXCLUSIONS = {
    "none": lambda n: None,
    "diagonal": np.arange,
    "off_diagonal": lambda n: (np.arange(n) + 1) % n,
}


def _kernel_input(rng, n, special):
    """Square input; with ``special``, about a tenth of the entries (at least
    one in row 0) hold it, and a -inf input also gets a row of only -inf."""
    a = 3.0 * randn(rng, n, n)
    if special is not None:
        hit = rng.random((n, n)) < 0.1
        hit[0, rng.integers(n)] = True
        a[hit] = special
        if special == -np.inf:
            a[-1] = -np.inf
    return a


class TestInPlaceKernelParity:
    @pytest.mark.parametrize("special", [None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("exclusion", sorted(EXCLUSIONS))
    @pytest.mark.parametrize("n", [2, 1024])
    def test_softmax_and_logsumexp_match_reference(self, n, exclusion, special):
        rng = np.random.default_rng([n, len(exclusion), 0 if special is None else 1])
        a = _kernel_input(rng, n, special)
        excluded = EXCLUSIONS[exclusion](n)
        g = randn(rng, n, n)
        with np.errstate(all="ignore"):
            for temperature in (0.2, 1.0):
                out, dx = _oracle_softmax(a, excluded, temperature, g)
                buf = a / temperature
                softmax_rows_inplace(buf, excluded)
                assert_same_bits(buf, out)
                if excluded is None:  # the autodiff op always excludes a column
                    continue
                node = ad.masked_softmax_rows(ad.leaf(a), excluded, temperature=temperature)
                assert_same_bits(node.array, out)
                (got,) = _pullbacks(node, g)
                assert_same_bits(got, dx)
            g_col = g[:, :1]
            node = ad.logsumexp_row(ad.leaf(a), excluded)
            out, dx = _oracle_logsumexp(a, excluded, g_col)
            assert_same_bits(node.array, out)
            (got,) = _pullbacks(node, g_col)
            assert_same_bits(got, dx)

    def test_logsumexp_row_with_every_entry_excluded_is_minus_inf(self):
        a = np.array([[0.5], [-2.0]])
        excluded = np.zeros(2, dtype=np.intp)
        g = np.array([[1.0], [2.0]])
        with np.errstate(all="ignore"):
            node = ad.logsumexp_row(ad.leaf(a), excluded)
            out, dx = _oracle_logsumexp(a, excluded, g)
        np.testing.assert_array_equal(node.array, [[-np.inf], [-np.inf]])
        assert_same_bits(node.array, out)
        assert_same_bits(_pullbacks(node, g)[0], dx)

    @pytest.mark.parametrize("kernel", ["softmax", "logsumexp"])
    def test_excluded_index_shape_checked(self, kernel):
        x = ad.leaf(np.zeros((3, 3)))
        with pytest.raises(DimensionError, match=r"shape \(3,\)"):
            if kernel == "softmax":
                ad.masked_softmax_rows(x, np.arange(2), temperature=1.0)
            else:
                ad.logsumexp_row(x, np.arange(4))


def _oracle_softmax_ce(lv, y):
    """The cross-entropy helper as first written: a fresh exp array, then
    softmax minus an explicit one-hot matrix."""
    n, c = lv.shape
    mx = lv.max(axis=1, keepdims=True)
    e = np.exp(lv - mx)
    s = e.sum(axis=1, keepdims=True)
    soft = e / s
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    return mx + np.log(s), soft - onehot


def _logits(rng, n, c, kind):
    """Random logits; with ``kind``, about a fifth of the entries (at least
    one) hold a special value, or one row is all -inf."""
    lv = 4.0 * randn(rng, n, c)
    if kind == "all_-inf_row":
        lv[n // 2] = -np.inf
    elif kind != "random":
        hit = rng.random((n, c)) < 0.2
        hit[0, rng.integers(c)] = True
        lv[hit] = float(kind)
    return lv


class TestSoftmaxCrossEntropyParity:
    @pytest.mark.parametrize("kind", ["random", "nan", "inf", "-inf", "all_-inf_row"])
    @pytest.mark.parametrize("n, c", [(7, 4), (5, 1), (300, 10)])
    def test_matches_first_written_helper(self, n, c, kind):
        rng = np.random.default_rng([n, c, len(kind)])
        lv = _logits(rng, n, c, kind)
        y = rng.integers(0, c, size=n)
        kept = lv.copy()
        with np.errstate(all="ignore"):
            lse, grad = ad._softmax_ce(lv, y)
            want_lse, want_grad = _oracle_softmax_ce(lv, y)
        assert_same_bits(lse, want_lse)
        assert_same_bits(grad, want_grad)
        assert lv.tobytes() == kept.tobytes()  # the logits are not written


# Reference chains: the scaled Gram matrix, the one-positive InfoNCE term and
# the supervised contrastive term as first built from separate nodes, with the
# transpose, pair-gather, difference, constant-product and row-sum ops they
# used.  The fused ops must match them bit for bit, in the value and in the
# gradient that backward leaves on the input.


def _old_transpose(a):
    return ad.DiffNode(
        Tensor2D._adopt(a.array.T.copy()), parents=[(a, lambda g: g.T)], op="transpose"
    )


def _old_take_pairs(a, partner):
    n = a.shape[0]
    rows = np.arange(n)

    def pull(g):
        out = np.zeros(a.shape)
        out[rows, partner] = g[:, 0]
        return out

    value = Tensor2D._adopt(a.array[rows, partner].reshape(n, 1))
    return ad.DiffNode(value, parents=[(a, pull)], op="take_pairs")


def _old_sub(a, b):
    return ad.add(a, ad.scale(b, -1.0))


def _old_mul_elem(a, cv):
    return ad.DiffNode(
        Tensor2D._adopt(a.array * cv), parents=[(a, lambda g: g * cv)], op="mul_elem"
    )


def _old_row_sum(a):
    cols = a.shape[1]
    return ad.DiffNode(
        Tensor2D._adopt(a.array.sum(axis=1, keepdims=True)),
        parents=[(a, lambda g: np.repeat(g, cols, axis=1))],
        op="row_sum",
    )


def _chain_gram(z, c):
    return ad.scale(ad.matmul(z, _old_transpose(z)), c)


def _chain_info_nce(z, partner, c):
    scaled = _chain_gram(z, c)
    lse = ad.logsumexp_row(scaled, excluded=np.arange(z.shape[0]))
    return _old_sub(lse, _old_take_pairs(scaled, partner))


def _chain_sup_con(z, labels, c):
    pos_mask = (labels[:, None] == labels[None, :]).astype(np.float64)
    np.fill_diagonal(pos_mask, 0.0)
    counts = pos_mask.sum(axis=1, keepdims=True)
    scaled = ad.gram(z, c)
    lse = ad.logsumexp_row(scaled, excluded=np.arange(z.shape[0]))
    mean_pos = _old_mul_elem(_old_row_sum(_old_mul_elem(scaled, pos_mask)), 1.0 / counts)
    return _old_sub(lse, mean_pos)


def _value_and_input_gradient(build, z, g):
    """``build(leaf)``'s value, and the gradient that backward leaves on the
    leaf when the output's upstream gradient is ``g``."""
    x = ad.leaf(z)
    out = build(x)
    ad.backward(project_sum(out, g))
    return out.array, x.grad


def _embeddings(rng, n, kind):
    """Unit rows; with ``kind``, about a tenth of the entries (at least one)
    hold a special value, or zeros and values far below any floor."""
    z = randn(rng, n, 8)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    hit = rng.random(z.shape) < 0.1
    hit[0, rng.integers(8)] = True
    if kind == "tiny":
        z[hit] = rng.choice([0.0, -0.0, 1e-310, -1e-300], hit.sum())
    elif kind != "unit":
        z[hit] = float(kind)
    return z


class TestFusedContrastiveParity:
    @pytest.mark.parametrize("kind", ["unit", "nan", "inf", "-inf", "tiny"])
    @pytest.mark.parametrize("n", [2, 1024])
    def test_gram_and_info_nce_match_reference_chains(self, n, kind):
        rng = np.random.default_rng([n, len(kind)])
        z = _embeddings(rng, n, kind)
        half = n // 2
        partner = np.concatenate([np.arange(half) + half, np.arange(half)])
        with np.errstate(all="ignore"):
            for c in (5.0, 1.0):
                g = randn(rng, n, n)
                got = _value_and_input_gradient(lambda x: ad.gram(x, c), z, g)
                want = _value_and_input_gradient(lambda x: _chain_gram(x, c), z, g)
                for a, b in zip(got, want):
                    assert_same_bits(a, b)
                g = randn(rng, n, 1)
                got = _value_and_input_gradient(
                    lambda x: ad.info_nce_rows(x, partner, c), z, g
                )
                want = _value_and_input_gradient(
                    lambda x: _chain_info_nce(x, partner, c), z, g
                )
                for a, b in zip(got, want):
                    assert_same_bits(a, b)

    @pytest.mark.parametrize("temperature", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sup_con_rows_matches_reference_chain(self, seed, n_classes, temperature):
        rng = np.random.default_rng([seed, n_classes, int(temperature * 10)])
        # Class 0 has two members; every other class has two to eight.
        counts = [2] + [int(k) for k in rng.integers(2, 9, size=n_classes - 1)]
        labels = rng.permutation(np.repeat(np.arange(n_classes), counts))
        z = _embeddings(rng, labels.size, "unit")
        g = randn(rng, labels.size, 1)
        c = 1.0 / temperature
        got = _value_and_input_gradient(lambda x: ad.sup_con_rows(x, labels, c), z, g)
        want = _value_and_input_gradient(lambda x: _chain_sup_con(x, labels, c), z, g)
        for a, b in zip(got, want):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("op", ["info_nce_rows", "sup_con_rows"])
    def test_fused_node_holds_one_square_array(self, op):
        n = 6
        z = ad.leaf(_embeddings(np.random.default_rng(5), n, "unit"))
        second = np.array([1, 0, 3, 2, 5, 4]) if op == "info_nce_rows" else np.arange(n) % 2
        node = getattr(ad, op)(z, second, 2.0)
        square = [a for a in _arrays_held(node) if a.shape == (n, n)]
        assert len(square) == 1

    def test_partner_shape_checked(self):
        with pytest.raises(DimensionError, match=r"shape \(3,\)"):
            ad.info_nce_rows(ad.leaf(np.eye(3)), np.array([1, 0]), 1.0)

    def test_labels_shape_checked(self):
        with pytest.raises(DimensionError, match=r"shape \(3,\)"):
            ad.sup_con_rows(ad.leaf(np.eye(3)), np.array([1, 0]), 1.0)


def _arrays_held(node):
    """The distinct arrays a node keeps: its value, and every array its
    pullbacks reach through their closures."""
    held = {id(node.array): node.array}
    stack = [pull for _, pull in node.parents]
    seen = set()
    while stack:
        fn = stack.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                held[id(value)] = value
            elif callable(value) and hasattr(value, "__closure__"):
                stack.append(value)
    return list(held.values())


class TestClampedLogRowSum:
    def test_entry_below_floor_gets_zero_gradient(self):
        a = np.array([[0.0, 0.5, -3.0], [0.25, 0.0, 0.75], [0.5, 1e-310, 0.0]])
        node = ad.clamped_log_row_sum(ad.leaf(a), 0.1, -0.5)
        expected = -0.5 * np.array([np.log(0.5) + np.log(0.1), np.log(0.25) + np.log(0.75),
                                    np.log(0.5) + np.log(0.1)])
        np.testing.assert_allclose(node.array[:, 0], expected, rtol=1e-15)
        (dx,) = _pullbacks(node, np.ones((3, 1)))
        assert dx[0, 2] == 0.0 and dx[2, 1] == 0.0
        assert dx[0, 1] == -0.5 / 0.5 and dx[1, 1] == -0.5

    def test_rejects_non_square_and_bad_floor(self):
        with pytest.raises(DimensionError):
            ad.clamped_log_row_sum(ad.leaf(np.ones((2, 3))), 1e-300, 1.0)
        for floor in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                ad.clamped_log_row_sum(ad.leaf(np.ones((2, 2))), floor, 1.0)


class TestValueOwnership:
    """Node values are read-only and may share memory; inputs a caller can
    still write to are copied."""

    def test_op_outputs_are_read_only(self):
        rng = np.random.default_rng(3)
        x = ad.leaf(randn(rng, 4, 3))
        sq = ad.leaf(np.abs(randn(rng, 4, 4)))
        outputs = [
            ad.matmul(x, ad.leaf(randn(rng, 3, 2))),
            ad.gram(x, 0.5),
            ad.info_nce_rows(x, np.array([1, 0, 3, 2]), 2.0),
            ad.sup_con_rows(x, np.array([0, 1, 1, 0]), 2.0),
            ad.add(x, x),
            ad.scale(x, 2.0),
            ad.relu(x),
            ad.row_l2_normalize(x),
            ad.masked_softmax_rows(sq, np.arange(4), temperature=0.5),
            ad.logsumexp_row(sq, np.arange(4)),
            ad.clamped_log_row_sum(sq, 1e-300, -1.0),
            ad.max_pool1d(x, channels=1, length=3, width=1),
            ad.channel_major(x, channels=3, length=1),
        ]
        for node in outputs:
            assert not node.array.flags.writeable, node.op
            with pytest.raises(ValueError):
                node.array[0, 0] = 1.0

    def test_tensor_and_leaf_copy_writable_input(self):
        a = np.ones((2, 3))
        t = Tensor2D(a)
        node = ad.leaf(a)
        a[0, 0] = 5.0
        assert t.array[0, 0] == 1.0 and node.array[0, 0] == 1.0
        assert not np.shares_memory(a, t.array)
        assert not np.shares_memory(a, node.array)

    def test_pullbacks_leave_upstream_gradient_unchanged(self):
        rng = np.random.default_rng(4)
        sq = ad.leaf(np.abs(randn(rng, 5, 5)))
        for node in (
            ad.masked_softmax_rows(sq, np.arange(5), temperature=0.3),
            ad.logsumexp_row(sq, np.arange(5)),
            ad.clamped_log_row_sum(sq, 1e-300, -0.25),
            ad.gram(sq, 3.0),
            ad.info_nce_rows(sq, np.array([1, 0, 3, 2, 2]), 3.0),
            ad.sup_con_rows(sq, np.array([0, 1, 0, 1, 1]), 3.0),
        ):
            g = randn(rng, *node.shape)
            kept = g.copy()
            _pullbacks(node, g)
            assert g.tobytes() == kept.tobytes(), node.op


@pytest.mark.parametrize("seed", SEEDS)
def test_finite_difference_suite(seed):
    """Every differentiable primitive vs central differences, rel err < 1e-4."""
    rng = np.random.default_rng(seed)
    n, m = 5, 4
    below_floor = np.abs(randn(rng, n, n)) + 0.5
    below_floor[1, 3] = -2.0  # far below the floor: its gradient is 0

    cases = {
        "matmul": (
            lambda ls: ad.matmul(ls[0], ls[1]),
            [randn(rng, n, m), randn(rng, m, 3)],
        ),
        "add": (lambda ls: ad.add(ls[0], ls[1]), [randn(rng, n, m), randn(rng, n, m)]),
        "add_rowvec": (
            lambda ls: ad.add(ls[0], ls[1]),
            [randn(rng, n, m), randn(rng, 1, m)],
        ),
        "scale": (lambda ls: ad.scale(ls[0], -2.5), [randn(rng, n, m)]),
        # Inputs bounded away from the relu/clamp kinks.
        "relu": (lambda ls: ad.relu(ls[0]), [randn(rng, n, m) + np.sign(randn(rng, n, m)) * 0.2]),
        "clamped_log_row_sum": (
            lambda ls: ad.clamped_log_row_sum(ls[0], 1e-300, -0.25),
            [np.abs(randn(rng, n, n)) + 0.5],
        ),
        "clamped_log_row_sum_below_floor": (
            lambda ls: ad.clamped_log_row_sum(ls[0], 0.1, 0.5),
            [below_floor],
        ),
        "gram": (lambda ls: ad.gram(ls[0], -0.7), [randn(rng, n, m)]),
        "mean": (lambda ls: ad.mean(ls[0]), [randn(rng, n, m)]),
        "take_rows": (
            lambda ls: ad.take_rows(ls[0], np.array([3, 0, 3])),
            [randn(rng, n, m)],
        ),
        "info_nce_rows": (
            lambda ls: ad.info_nce_rows(ls[0], np.array([1, 0, 4, 4, 2]), 2.5),
            [randn(rng, n, n)],
        ),
        "sup_con_rows": (
            lambda ls: ad.sup_con_rows(ls[0], np.array([1, 0, 1, 0, 0]), 2.5),
            [randn(rng, n, m)],
        ),
        "row_l2_normalize": (
            lambda ls: ad.row_l2_normalize(ls[0]),
            [randn(rng, n, m) + 0.4],
        ),
        "masked_softmax_rows": (
            lambda ls: ad.masked_softmax_rows(ls[0], np.arange(n), temperature=0.4),
            [randn(rng, n, n)],
        ),
        "logsumexp_row": (
            lambda ls: ad.logsumexp_row(ls[0], np.arange(n)),
            [randn(rng, n, n)],
        ),
        "cross_entropy_with_logits": (
            lambda ls: ad.cross_entropy_with_logits(ls[0], np.array([2, 0, 1, 2, 0])),
            [randn(rng, n, 3)],
        ),
        "conv1d": (
            lambda ls: ad.conv1d(ls[0], ls[1], ls[2], channels=2, length=6),
            [randn(rng, 3, 12), randn(rng, 4, 6), randn(rng, 1, 4)],
        ),
        "max_pool1d": (
            lambda ls: ad.max_pool1d(ls[0], channels=2, length=6, width=2),
            [rng.permutation(36).astype(float).reshape(3, 12) * 0.21],
        ),
        "channel_major": (
            lambda ls: ad.channel_major(ls[0], channels=3, length=4),
            [randn(rng, 2, 12)],
        ),
    }
    for name, (build, arrays) in cases.items():
        check_op_gradients(build, arrays, rng)


# ---------------------------------------------------------------------------
# only the ops the program calls

SRC = Path(__file__).resolve().parents[1] / "src" / "tscl"

#: Ops that no library code calls, each with the reason it stays.
UNCALLED_OPS = {"logsumexp_row": "bench/tracing.py replays it by name"}


def _public_ops() -> list[str]:
    """Public functions of ``tscl.autodiff`` that map a node to a node."""
    ops = []
    for node in ast.parse((SRC / "autodiff.py").read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        first = node.args.args[0].annotation if node.args.args else None
        if node.returns is not None and ast.unparse(node.returns) == "DiffNode" and (
            first is not None and ast.unparse(first) == "DiffNode"
        ):
            ops.append(node.name)
    return ops


def _autodiff_names(tree: ast.AST) -> set[str]:
    """Every ``ad.<name>`` or ``autodiff.<name>`` reference in ``tree``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("ad", "autodiff")
    }


def test_every_op_is_fd_checked_and_called_by_the_library():
    ops = _public_ops()
    assert {"matmul", "conv1d", "sup_con_rows", "logsumexp_row"} <= set(ops)
    acceptance = ast.parse(
        (Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")
    )
    (op_cases,) = [
        node for node in ast.walk(acceptance)
        if isinstance(node, ast.FunctionDef) and node.name == "_op_cases"
    ]
    checked = _autodiff_names(op_cases)
    called = set().union(*(
        _autodiff_names(ast.parse(module.read_text(encoding="utf-8")))
        for module in SRC.glob("*.py")
        if module.name != "autodiff.py"
    ))
    assert [op for op in ops if op not in checked] == []
    assert [op for op in ops if op not in called and op not in UNCALLED_OPS] == []
    assert [op for op in UNCALLED_OPS if op not in ops or op in called] == []

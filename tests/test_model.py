"""Tests for the encoder, projection heads, classifier, and checkpoints."""

from __future__ import annotations

import json

import numpy as np
import numpy.testing as npt
import pytest

from tscl import autodiff as ad
from tscl.augment import TimeSeriesBatch
from tscl.errors import DimensionError, InvalidGraphError, ParameterError
from tscl.graph import build_similarity
from tscl.model import (
    ClassifierParams,
    ModelConfig,
    ProjectionParams,
    classify,
    encode,
    gcn_project,
    init_model,
    load_checkpoint,
    load_values,
    mlp_project,
    rebuild_with_values,
    save_values,
)

from gradcheck import fd_gradient, project_sum, relative_error


def _config(**overrides) -> ModelConfig:
    base = dict(in_channels=2, length=16, embed_dim=6, n_classes=3)
    base.update(overrides)
    return ModelConfig(**base)


def _batch(rng: np.random.Generator, config: ModelConfig, n=4) -> TimeSeriesBatch:
    return TimeSeriesBatch(
        values=rng.standard_normal((n, config.in_channels * config.length)),
        labels=rng.integers(0, config.n_classes, size=n),
        label_mask=np.zeros(n, dtype=bool),
        channels=config.in_channels,
        length=config.length,
    )


class TestEncoder:
    def test_output_shape_contract(self):
        config = _config()
        rng = np.random.default_rng(0)
        params = init_model(config, rng)
        out = encode(_batch(rng, config, n=5), params.encoder, config)
        assert out.shape == (5, config.embed_dim)

    def test_zero_input_with_zero_biases_embeds_to_zero(self):
        config = _config()
        params = init_model(config, np.random.default_rng(1))
        zeros = TimeSeriesBatch(
            values=np.zeros((3, config.in_channels * config.length)),
            labels=np.zeros(3),
            label_mask=np.zeros(3, dtype=bool),
            channels=config.in_channels,
            length=config.length,
        )
        out = encode(zeros, params.encoder, config)
        npt.assert_array_equal(out.value.array, np.zeros((3, config.embed_dim)))

    def test_single_sample_matches_batch_row(self):
        config = _config()
        rng = np.random.default_rng(2)
        params = init_model(config, rng)
        batch = _batch(rng, config, n=6)
        full = encode(batch, params.encoder, config).value.array
        for i in range(batch.n):
            single = encode(
                batch.values[i : i + 1], params.encoder, config
            ).value.array
            npt.assert_allclose(single[0], full[i], rtol=0, atol=1e-12)

    def test_permutation_equivariance(self):
        config = _config()
        rng = np.random.default_rng(3)
        params = init_model(config, rng)
        batch = _batch(rng, config, n=7)
        perm = rng.permutation(7)
        direct = encode(batch.values[perm], params.encoder, config).value.array
        whole = encode(batch, params.encoder, config).value.array
        npt.assert_allclose(direct, whole[perm], rtol=0, atol=0)

    def test_width_mismatch_rejected(self):
        config = _config()
        params = init_model(config, np.random.default_rng(4))
        with pytest.raises(DimensionError, match="width"):
            encode(np.zeros((2, 5)), params.encoder, config)


class TestGraphProjection:
    def test_identical_nonnegative_rows_are_a_fixed_point(self):
        h_val = np.tile([1.0, 2.0, 0.5, 3.0], (4, 1))
        h = ad.leaf(h_val)
        eye = ProjectionParams(w1=ad.leaf(np.eye(4)), w2=ad.leaf(np.eye(4)))
        sim = build_similarity(h, temperature=0.5)
        z = gcn_project(h, sim, eye)
        expected = h_val / np.linalg.norm(h_val, axis=1, keepdims=True)
        npt.assert_allclose(z.value.array, expected, rtol=0, atol=1e-12)

    def test_two_node_swap_matches_hand_expansion(self):
        h_val = np.array([[1.0, 2.0], [3.0, 0.5]])
        w1 = np.array([[0.4, 0.3], [0.2, 0.9]])
        w2 = np.array([[1.1, 0.0], [-0.5, 0.7]])
        alpha = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = ProjectionParams(w1=ad.leaf(w1), w2=ad.leaf(w2))
        z = gcn_project(ad.leaf(h_val), ad.constant(alpha), params)
        # Hop 1 swaps rows of h @ w1, ReLU clips, hop 2 swaps back.
        hidden = np.maximum(alpha @ (h_val @ w1), 0.0)
        raw = (alpha @ hidden) @ w2
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        npt.assert_allclose(z.value.array, expected, rtol=0, atol=1e-12)

    def test_output_rows_are_unit_norm(self):
        rng = np.random.default_rng(5)
        h = ad.leaf(rng.standard_normal((6, 4)))
        params = ProjectionParams(
            w1=ad.leaf(rng.standard_normal((4, 4))),
            w2=ad.leaf(rng.standard_normal((4, 4))),
        )
        z = gcn_project(h, build_similarity(h, temperature=0.2), params)
        norms = np.linalg.norm(z.value.array, axis=1)
        npt.assert_allclose(norms, np.ones(6), rtol=0, atol=1e-12)

    def test_invalid_adjacency_rejected(self):
        rng = np.random.default_rng(6)
        h = ad.leaf(rng.standard_normal((3, 4)))
        params = ProjectionParams(
            w1=ad.leaf(np.eye(4)), w2=ad.leaf(np.eye(4))
        )
        bad_diag = np.full((3, 3), 1.0 / 3.0)
        with pytest.raises(InvalidGraphError, match="diagonal"):
            gcn_project(h, ad.constant(bad_diag), params)
        bad_rows = np.array(
            [[0.0, 0.7, 0.7], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
        )
        with pytest.raises(InvalidGraphError, match="sum to 1"):
            gcn_project(h, ad.constant(bad_rows), params)

    def test_self_loop_mixes_identity_into_adjacency(self):
        rng = np.random.default_rng(7)
        h_val = rng.standard_normal((4, 3))
        h = ad.leaf(h_val)
        params = ProjectionParams(
            w1=ad.leaf(rng.standard_normal((3, 3))),
            w2=ad.leaf(rng.standard_normal((3, 3))),
        )
        sim = build_similarity(h, temperature=0.5)
        mixed = 0.5 * (sim.array + np.eye(4))
        hidden = np.maximum(mixed @ (h_val @ params.w1.value.array), 0.0)
        raw = (mixed @ hidden) @ params.w2.value.array
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        z = gcn_project(h, sim, params, self_loop=True)
        npt.assert_allclose(z.value.array, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(30 + seed)
        # Positive inputs and first-layer weights keep every ReLU active,
        # so the objective is smooth at the evaluation point.
        h_val = np.abs(rng.standard_normal((5, 4))) + 0.1
        w1_val = np.abs(rng.standard_normal((4, 4))) + 0.1
        w2_val = rng.standard_normal((4, 4))
        proj = rng.standard_normal((5, 4))

        def scalar(arrays) -> float:
            h = ad.leaf(arrays[0])
            params = ProjectionParams(
                w1=ad.leaf(arrays[1]), w2=ad.leaf(arrays[2])
            )
            z = gcn_project(h, build_similarity(h, temperature=0.5), params)
            return float((z.value.array * proj).sum())

        h = ad.leaf(h_val)
        params = ProjectionParams(w1=ad.leaf(w1_val), w2=ad.leaf(w2_val))
        z = gcn_project(h, build_similarity(h, temperature=0.5), params)
        ad.backward(project_sum(z, proj))
        arrays = [h_val, w1_val, w2_val]
        for which, node in ((0, h), (1, params.w1), (2, params.w2)):
            numeric = fd_gradient(scalar, arrays, which=which)
            assert relative_error(node.gradient().array, numeric) < 1e-4


class TestMlpProjection:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(8)
        h_val = np.abs(rng.standard_normal((5, 3))) + 0.1
        w1 = np.abs(rng.standard_normal((3, 3))) + 0.1
        w2 = rng.standard_normal((3, 3))
        params = ProjectionParams(w1=ad.leaf(w1), w2=ad.leaf(w2))
        z = mlp_project(ad.leaf(h_val), params)
        raw = np.maximum(h_val @ w1, 0.0) @ w2
        expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        npt.assert_allclose(z.value.array, expected, rtol=0, atol=1e-12)

    def test_both_heads_have_equal_parameter_counts(self):
        rng = np.random.default_rng(9)
        params = ProjectionParams(
            w1=ad.leaf(rng.standard_normal((6, 6))),
            w2=ad.leaf(rng.standard_normal((6, 6))),
        )
        assert sum(node.array.size for node in params.named().values()) == 2 * 6 * 6


class TestClassifier:
    def test_zero_parameters_give_uniform_probabilities(self):
        params = ClassifierParams(
            weight=ad.leaf(np.zeros((4, 3))), bias=ad.leaf(np.zeros((1, 3)))
        )
        logits = classify(ad.leaf(np.random.default_rng(0).standard_normal((5, 4))), params)
        npt.assert_array_equal(logits.value.array, np.zeros((5, 3)))

    def test_one_hot_columns_select_coordinates(self):
        weight = np.zeros((4, 2))
        weight[1, 0] = 1.0
        weight[3, 1] = 1.0
        params = ClassifierParams(
            weight=ad.leaf(weight), bias=ad.leaf(np.zeros((1, 2)))
        )
        e = np.random.default_rng(1).standard_normal((3, 4))
        logits = classify(ad.leaf(e), params)
        npt.assert_allclose(logits.value.array, e[:, [1, 3]], atol=0)

    def test_matches_direct_product(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((6, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal((1, 4))
        params = ClassifierParams(weight=ad.leaf(w), bias=ad.leaf(b))
        logits = classify(ad.leaf(e), params)
        npt.assert_allclose(logits.value.array, e @ w + b, rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = ClassifierParams(
            weight=ad.leaf(np.zeros((4, 2))), bias=ad.leaf(np.zeros((1, 2)))
        )
        with pytest.raises(DimensionError, match="4-dim"):
            classify(ad.leaf(np.zeros((2, 3))), params)


class TestCheckpoints:
    def test_round_trip_preserves_every_array(self, tmp_path):
        config = _config()
        params = init_model(config, np.random.default_rng(10))
        path = tmp_path / "params.json"
        save_values({name: t.array for name, t in params.values().items()}, path)
        loaded = load_values(path)
        for name, tensor in params.values().items():
            npt.assert_array_equal(loaded[name], tensor.array)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"format": "tscl-params-v1"}, "no 'arrays' object"),
            ({"format": "tscl-params-v1", "arrays": [1, 2]}, "no 'arrays' object"),
            ({"format": "tscl-params-v1", "arrays": {"w": {"data": [1.0]}}},
             "array 'w' needs both 'shape' and 'data'"),
            ({"format": "tscl-params-v1", "arrays": {"w": {"shape": [1, 1]}}},
             "array 'w' needs both 'shape' and 'data'"),
            ({"format": "tscl-params-v1", "arrays": {"w": 3.0}},
             "array 'w' needs both 'shape' and 'data'"),
            ({"format": "tscl-params-v1", "arrays": {"w": {"shape": [1], "data": [1.0]}}},
             r"array 'w' has shape \[1\], not two non-negative ints"),
            ({"format": "tscl-params-v1",
              "arrays": {"w": {"shape": [1, -1], "data": []}}},
             "not two non-negative ints"),
            ({"format": "tscl-params-v1",
              "arrays": {"w": {"shape": [1.0, 2], "data": [1.0, 2.0]}}},
             "not two non-negative ints"),
            ({"format": "tscl-params-v1",
              "arrays": {"w": {"shape": [True, 2], "data": [1.0, 2.0]}}},
             "not two non-negative ints"),
            ({"format": "tscl-params-v1",
              "arrays": {"w": {"shape": [2, 2], "data": [1.0, 2.0, 3.0]}}},
             "array 'w' has 3 values, its shape 2x2 needs 4"),
            ({"format": "tscl-params-v1",
              "arrays": {"w": {"shape": [1, 2], "data": [1.0, "x"]}}},
             "not a flat list of numbers"),
            ({"format": "tscl-params-v1",
              "arrays": {"w": {"shape": [1, 2], "data": [[1.0, 2.0]]}}},
             "not a flat list of numbers"),
            ([1, 2], "checkpoint must be a JSON object, got list"),
        ],
    )
    def test_malformed_checkpoint_names_file_and_entry(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=message) as info:
            load_values(path)
        assert str(path) in str(info.value)

    def test_load_checkpoint_gives_the_saved_values(self, tmp_path):
        config = _config()
        saved = init_model(config, np.random.default_rng(10))
        path = tmp_path / "params.json"
        save_values({name: node.array for name, node in saved.named().items()}, path)
        loaded = load_checkpoint(path, init_model(config, np.random.default_rng(11)))
        assert set(loaded.named()) == set(saved.named())
        for name, node in saved.named().items():
            npt.assert_array_equal(loaded.named()[name].array, node.array)

    def test_load_checkpoint_lists_every_mismatch(self, tmp_path):
        params = init_model(_config(), np.random.default_rng(10))
        values = {name: node.array for name, node in params.named().items()}
        values["projection.w1"] = np.zeros((2, 2))
        values["extra"] = values.pop("classifier.bias")
        path = tmp_path / "params.json"
        save_values(values, path)
        with pytest.raises(ParameterError) as info:
            load_checkpoint(path, params)
        assert str(info.value) == (
            f"{path}: checkpoint does not match the model: missing classifier.bias; "
            "unexpected extra; projection.w1 has shape (2, 2), the model needs (6, 6)"
        )

    def test_rebuild_preserves_structure_and_swaps_values(self):
        config = _config()
        params = init_model(config, np.random.default_rng(11))
        doubled = {k: 2.0 * v.array for k, v in params.values().items()}
        from tscl.tensor import Tensor2D

        rebuilt = rebuild_with_values(
            params, {k: Tensor2D(v) for k, v in doubled.items()}
        )
        assert set(rebuilt.named()) == set(params.named())
        npt.assert_array_equal(
            rebuilt.projection.w1.value.array,
            2.0 * params.projection.w1.value.array,
        )

    def test_encoder_gradients_reach_all_parameters(self):
        config = _config(length=12)
        rng = np.random.default_rng(12)
        params = init_model(config, rng)
        batch = _batch(rng, config, n=4)
        out = encode(batch, params.encoder, config)
        ad.backward(ad.mean(out))
        for name, node in params.encoder.named().items():
            grad = node.gradient().array
            assert grad.shape == node.value.array.shape, name

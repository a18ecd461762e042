"""Encoder, projection heads, linear classifier, and checkpointing.

Parameters live in frozen dataclasses holding differentiable leaf nodes;
a training step reads gradients off those leaves, updates a fresh copy of
each value, and rebuilds the dataclasses around the frozen copies, so no
tensor is ever mutated in place.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tscl import autodiff as ad
from tscl.augment import TimeSeriesBatch
from tscl.errors import DimensionError, InvalidGraphError, ParameterError, read_json_object
from tscl.graph import check_adjacency
from tscl.tensor import Tensor2D, as_array


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared by all components."""

    in_channels: int
    length: int
    embed_dim: int
    n_classes: int
    conv_channels: tuple[int, int] = (16, 32)
    kernel: int = 8
    pool_width: int = 2

    def __post_init__(self) -> None:
        if min(
            self.in_channels,
            self.length,
            self.embed_dim,
            self.n_classes,
            self.kernel,
            self.pool_width,
            *self.conv_channels,
        ) < 1:
            raise ParameterError("all architecture sizes must be positive")

    @property
    def channel_plan(self) -> tuple[int, ...]:
        return (*self.conv_channels, self.embed_dim)

    @property
    def pooled_length(self) -> int:
        length = self.length
        for _ in self.channel_plan:
            length = math.ceil(length / self.pool_width)
        return length

    @property
    def flat_dim(self) -> int:
        return self.embed_dim * self.pooled_length


@dataclass(frozen=True)
class EncoderParams:
    """Three conv-pool-relu blocks followed by a linear map to embed_dim."""

    conv_weights: tuple[ad.DiffNode, ...]
    conv_biases: tuple[ad.DiffNode, ...]
    linear_weight: ad.DiffNode
    linear_bias: ad.DiffNode

    def named(self) -> dict[str, ad.DiffNode]:
        out: dict[str, ad.DiffNode] = {}
        for i, (w, b) in enumerate(zip(self.conv_weights, self.conv_biases)):
            out[f"encoder.conv{i}.weight"] = w
            out[f"encoder.conv{i}.bias"] = b
        out["encoder.linear.weight"] = self.linear_weight
        out["encoder.linear.bias"] = self.linear_bias
        return out


@dataclass(frozen=True)
class ProjectionParams:
    """Two square weight matrices, shared shape between both head kinds.

    The graph head and the plain two-layer head use identical shapes, so
    their parameter counts match by construction.
    """

    w1: ad.DiffNode
    w2: ad.DiffNode

    def __post_init__(self) -> None:
        r1, c1 = self.w1.shape
        r2, c2 = self.w2.shape
        if not (r1 == c1 == r2 == c2):
            raise DimensionError(
                f"projection weights must be square and matching, "
                f"got {self.w1.shape} and {self.w2.shape}"
            )

    def named(self) -> dict[str, ad.DiffNode]:
        return {"projection.w1": self.w1, "projection.w2": self.w2}


@dataclass(frozen=True)
class ClassifierParams:
    """Single linear classifier consumed by both embedding spaces."""

    weight: ad.DiffNode
    bias: ad.DiffNode

    def named(self) -> dict[str, ad.DiffNode]:
        return {"classifier.weight": self.weight, "classifier.bias": self.bias}


@dataclass(frozen=True)
class ModelParams:
    encoder: EncoderParams
    projection: ProjectionParams
    classifier: ClassifierParams

    def named(self) -> dict[str, ad.DiffNode]:
        out: dict[str, ad.DiffNode] = {}
        out.update(self.encoder.named())
        out.update(self.projection.named())
        out.update(self.classifier.named())
        return dict(sorted(out.items()))

    def values(self) -> dict[str, Tensor2D]:
        return {k: v.value for k, v in self.named().items()}


def init_model(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Seeded initialization: scaled normals for weights, zero biases.

    The classifier starts at zero so an untrained model emits uniform
    class probabilities.
    """
    conv_w: list[ad.DiffNode] = []
    conv_b: list[ad.DiffNode] = []
    c_in = config.in_channels
    for c_out in config.channel_plan:
        fan_in = c_in * config.kernel
        w = rng.standard_normal((c_out, fan_in)) * math.sqrt(2.0 / fan_in)
        conv_w.append(ad.leaf(w))
        conv_b.append(ad.leaf(np.zeros((1, c_out))))
        c_in = c_out
    flat = config.flat_dim
    linear_w = ad.leaf(rng.standard_normal((flat, config.embed_dim)) / math.sqrt(flat))
    linear_b = ad.leaf(np.zeros((1, config.embed_dim)))
    h = config.embed_dim
    w1 = ad.leaf(rng.standard_normal((h, h)) * math.sqrt(2.0 / h))
    w2 = ad.leaf(rng.standard_normal((h, h)) * math.sqrt(2.0 / h))
    cls_w = ad.leaf(np.zeros((h, config.n_classes)))
    cls_b = ad.leaf(np.zeros((1, config.n_classes)))
    return ModelParams(
        encoder=EncoderParams(
            conv_weights=tuple(conv_w),
            conv_biases=tuple(conv_b),
            linear_weight=linear_w,
            linear_bias=linear_b,
        ),
        projection=ProjectionParams(w1=w1, w2=w2),
        classifier=ClassifierParams(weight=cls_w, bias=cls_b),
    )


def rebuild_with_values(
    params: ModelParams, values: dict[str, Tensor2D]
) -> ModelParams:
    """New parameter set with the same structure and the given values."""
    def pick(name: str) -> ad.DiffNode:
        return ad.leaf(values[name])

    n_blocks = len(params.encoder.conv_weights)
    return ModelParams(
        encoder=EncoderParams(
            conv_weights=tuple(
                pick(f"encoder.conv{i}.weight") for i in range(n_blocks)
            ),
            conv_biases=tuple(pick(f"encoder.conv{i}.bias") for i in range(n_blocks)),
            linear_weight=pick("encoder.linear.weight"),
            linear_bias=pick("encoder.linear.bias"),
        ),
        projection=ProjectionParams(w1=pick("projection.w1"), w2=pick("projection.w2")),
        classifier=ClassifierParams(
            weight=pick("classifier.weight"), bias=pick("classifier.bias")
        ),
    )


def encode(
    x: TimeSeriesBatch | np.ndarray,
    params: EncoderParams,
    config: ModelConfig,
) -> ad.DiffNode:
    """Embed a batch: (conv -> pool -> relu) x3, then one linear layer.

    ReLU after the window max gives the values of ReLU before it on finite
    activations.  The input rows are channel-major; the activations between
    the layers are time-major (see ``autodiff.conv1d``).  The weights keep
    their channel-major layout, and ``autodiff.channel_major`` reorders the
    last activation before the linear layer, so the linear weight and the
    output are those of a channel-major encoder.

    Output is (n, embed_dim) and NOT unit-normalized; downstream users
    normalize where cosine geometry is required.
    """
    values = as_array(x.values if isinstance(x, TimeSeriesBatch) else x)
    n, width = values.shape
    channels = config.in_channels
    length = config.length
    if width != channels * length:
        raise DimensionError(
            f"encoder expects rows of width {channels * length} "
            f"(channels {channels} x length {length}), got {width}"
        )
    # Time-major inside the encoder: entry [i, t*channels + ch].
    cur = ad.constant(values.reshape(n, channels, length).transpose(0, 2, 1).reshape(n, width))
    for w, b, c_out in zip(
        params.conv_weights, params.conv_biases, config.channel_plan
    ):
        cur = ad.conv1d(cur, w, b, channels=channels, length=length)
        cur = ad.max_pool1d(cur, channels=c_out, length=length, width=config.pool_width)
        cur = ad.relu(cur)  # on half the entries of the conv output
        channels = c_out
        length = math.ceil(length / config.pool_width)
    cur = ad.channel_major(cur, channels=channels, length=length)
    return ad.add(ad.matmul(cur, params.linear_weight), params.linear_bias)


def gcn_project(
    h: ad.DiffNode,
    alpha: ad.DiffNode,
    params: ProjectionParams,
    self_loop: bool = False,
) -> ad.DiffNode:
    """Two rounds of neighbor averaging with a ReLU between, then normalize.

    Messages propagate strictly through other instances because the
    adjacency diagonal is zero; ``self_loop`` mixes each node's own state
    back in by averaging the adjacency with the identity.
    """
    n = h.shape[0]
    if alpha.shape != (n, n):
        raise InvalidGraphError(f"adjacency shape {alpha.shape} does not match batch size {n}")
    check_adjacency(alpha.array)
    if self_loop:
        alpha = ad.scale(ad.add(alpha, ad.constant(np.eye(n))), 0.5)
    hidden = ad.relu(ad.matmul(alpha, ad.matmul(h, params.w1)))
    out = ad.matmul(ad.matmul(alpha, hidden), params.w2)
    return ad.row_l2_normalize(out)


def mlp_project(h: ad.DiffNode, params: ProjectionParams) -> ad.DiffNode:
    """Plain two-layer head with the same shapes as the graph head."""
    hidden = ad.relu(ad.matmul(h, params.w1))
    return ad.row_l2_normalize(ad.matmul(hidden, params.w2))


def classify(e: ad.DiffNode, params: ClassifierParams) -> ad.DiffNode:
    """Logits = e @ W + b."""
    if e.shape[1] != params.weight.shape[0]:
        raise DimensionError(
            f"classifier expects {params.weight.shape[0]}-dim embeddings, "
            f"got {e.shape[1]}"
        )
    return ad.add(ad.matmul(e, params.weight), params.bias)


def save_values(values: dict[str, Tensor2D], path: str | Path) -> None:
    """Write a flat name->matrix map as JSON with full float precision."""
    payload = {
        "format": "tscl-params-v1",
        "arrays": {
            name: {
                "shape": list(tensor.shape),
                "data": [float(v) for v in tensor.array.reshape(-1)],
            }
            for name, tensor in sorted(values.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_values(path: str | Path) -> dict[str, Tensor2D]:
    """Read a ``save_values`` checkpoint; a malformed one raises ParameterError."""
    payload = read_json_object(path, "checkpoint")
    fmt = payload.get("format")
    if fmt != "tscl-params-v1":
        raise ParameterError(f"{path}: unrecognized checkpoint format {fmt!r}")
    arrays = payload.get("arrays")
    if not isinstance(arrays, dict):
        raise ParameterError(f"{path}: checkpoint has no 'arrays' object")
    return {
        name: _checkpoint_array(entry, f"{path}: array {name!r}")
        for name, entry in arrays.items()
    }


def _checkpoint_array(entry, where: str) -> Tensor2D:
    if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
        raise ParameterError(f"{where} needs both 'shape' and 'data'")
    shape, data = entry["shape"], entry["data"]
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(v) is int and v >= 0 for v in shape)
    ):
        raise ParameterError(f"{where} has shape {shape!r}, not two non-negative ints")
    if not isinstance(data, list) or not all(type(v) in (int, float) for v in data):
        raise ParameterError(f"{where} data is not a flat list of numbers")
    rows, cols = shape
    if len(data) != rows * cols:
        raise ParameterError(
            f"{where} has {len(data)} values, its shape {rows}x{cols} needs {rows * cols}"
        )
    array = np.array(data, dtype=np.float64).reshape(rows, cols)
    if not np.isfinite(array).all():
        raise ParameterError(f"{where} holds a non-finite value")
    return Tensor2D(array)

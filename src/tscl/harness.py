"""Training harness: pretraining loop, linear probing, run records, seed runner.

The harness wires the encoder, projection head, similarity graph, and the
loss terms into a deterministic training loop.  Determinism is organized
around a seed tree: the run seed spawns one stream for parameter
initialization and one for training; the training stream spawns one child
per epoch, and each epoch child spawns independent streams for shuffling,
the weak view, and the strong view.  Re-running with the same configuration
therefore reproduces every batch bit for bit.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .augment import AugmentParams, TimeSeriesBatch, strong_augment, weak_augment
from .data import split_labels
from .errors import (
    DegenerateInputError,
    ParameterError,
    TrainingDivergedError,
    check_bool,
    check_fields,
    check_integer,
    check_integer_list,
    check_real,
    read_json_object,
)
from .graph import build_similarity
from .losses import (
    BatchIndexing,
    LossReport,
    loss_cc,
    loss_combined,
    loss_id,
    loss_mid,
    two_view_indexing,
    zero_report,
)
from .metrics import MetricsReport, evaluate
from .model import (
    ClassifierParams,
    ModelConfig,
    ModelParams,
    classify,
    encode,
    gcn_project,
    init_model,
    load_checkpoint,
    mlp_project,
    rebuild_with_values,
)
from .optim import AdamConfig, adam_step
from .tensor import Tensor2D, check_temperature

__all__ = [
    "VariantSpec",
    "VARIANTS",
    "TrainConfig",
    "EpochStats",
    "RunRecord",
    "ClassLossGap",
    "model_config_for",
    "pretrain",
    "check_probe_settings",
    "linear_probe",
    "run_experiment",
    "label_split_for_seed",
    "run_seed",
    "probe_seed",
    "run_seeds",
    "track_class_losses",
    "class_loss_csv",
    "save_run_record",
    "load_run_record",
]


# ---------------------------------------------------------------------------
# Variants


@dataclass(frozen=True)
class VariantSpec:
    """Which head and which loss terms a training variant enables."""

    head: str
    use_mid: bool
    use_id: bool
    use_cc: bool

    def __post_init__(self) -> None:
        if self.head not in ("mlp", "gcn"):
            raise ParameterError(f"unknown head {self.head!r}")
        if not (self.use_mid or self.use_id):
            raise ParameterError("a variant must enable at least one contrastive term")


#: The ablation lattice: every supported combination of projection head and
#: loss terms, from the plain instance-contrastive baseline up to the full
#: method (graph head + both contrastive terms + consistency classification).
VARIANTS: dict[str, VariantSpec] = {
    "mlp_id": VariantSpec(head="mlp", use_mid=False, use_id=True, use_cc=False),
    "mlp_mid": VariantSpec(head="mlp", use_mid=True, use_id=False, use_cc=False),
    "mlp_mid_id": VariantSpec(head="mlp", use_mid=True, use_id=True, use_cc=False),
    "gcn_id": VariantSpec(head="gcn", use_mid=False, use_id=True, use_cc=False),
    "gcn_mid": VariantSpec(head="gcn", use_mid=True, use_id=False, use_cc=False),
    "gcn_mid_id": VariantSpec(head="gcn", use_mid=True, use_id=True, use_cc=False),
    "full": VariantSpec(head="gcn", use_mid=True, use_id=True, use_cc=True),
}


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one pretraining run."""

    variant: str = "full"
    epochs: int = 40
    batch_size: int = 128
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    lr: float = 3e-4
    weight_decay: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    temperature: float = 0.2
    lambda_graph: float = 1.0
    lambda_cls: float = 1.0
    label_fraction: float = 0.10
    embed_dim: int = 32
    conv_channels: tuple[int, ...] = (16, 32)
    kernel: int = 8
    pool_width: int = 2
    self_loop: bool = False
    augment: AugmentParams = field(default_factory=AugmentParams)

    def __post_init__(self) -> None:
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            known = ", ".join(sorted(VARIANTS))
            raise ParameterError(f"unknown variant {self.variant!r} (known: {known})")
        for name in ("epochs", "batch_size", "embed_dim", "kernel", "pool_width"):
            check_integer(name, getattr(self, name))
        for name in ("seeds", "conv_channels"):
            object.__setattr__(self, name, check_integer_list(name, getattr(self, name)))
        check_bool("self_loop", self.self_loop)
        for name in ("lr", "weight_decay", "beta1", "beta2", "eps", "temperature",
                     "lambda_graph", "lambda_cls", "label_fraction"):
            check_real(name, getattr(self, name))
        if not isinstance(self.augment, AugmentParams):
            raise ParameterError(f"augment must be an object, got {self.augment!r}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ParameterError(f"batch size must be >= 2, got {self.batch_size}")
        if not self.seeds:
            raise ParameterError("seeds must be a nonempty sequence")
        if min(self.seeds) < 0:
            raise ParameterError(f"seeds must be >= 0, got {list(self.seeds)}")
        for name in ("temperature", "lambda_graph", "lambda_cls"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        check_temperature(self.temperature)
        if self.lambda_graph < 0.0 or self.lambda_cls < 0.0:
            raise ParameterError(
                f"lambda_graph and lambda_cls must be nonnegative, got "
                f"{self.lambda_graph} and {self.lambda_cls}"
            )
        if not 0.0 < self.label_fraction <= 1.0:
            raise ParameterError(
                f"label fraction must be in (0, 1], got {self.label_fraction}"
            )
        if min(self.embed_dim, self.kernel, self.pool_width, *self.conv_channels) < 1:
            raise ParameterError(
                f"architecture sizes must be positive, got embed_dim {self.embed_dim}, "
                f"kernel {self.kernel}, pool_width {self.pool_width} and "
                f"conv_channels {list(self.conv_channels)}"
            )
        self.adam_config()  # raises on a bad rate, weight decay, beta or eps

    def adam_config(self) -> AdamConfig:
        """The optimizer settings; Adam's own checks live in AdamConfig."""
        return AdamConfig(
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            weight_decay=self.weight_decay,
        )

    @property
    def variant_spec(self) -> VariantSpec:
        return VARIANTS[self.variant]

    def to_dict(self) -> dict:
        """Plain-dict snapshot suitable for JSON serialization."""
        d = dataclasses.asdict(self)
        d["conv_channels"] = list(self.conv_channels)
        d["seeds"] = list(self.seeds)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        check_fields(d, {f.name for f in dataclasses.fields(cls)})
        d = dict(d)
        if isinstance(d.get("augment"), dict):
            check_fields(d["augment"], {f.name for f in dataclasses.fields(AugmentParams)},
                         "augment")
            d["augment"] = AugmentParams(**d["augment"])
        return cls(**d)


def model_config_for(config: TrainConfig, batch: TimeSeriesBatch) -> ModelConfig:
    """Derive the model geometry for a dataset under a training config."""
    if batch.n == 0:
        raise ParameterError("cannot derive a model from an empty dataset")
    n_classes = int(batch.labels.max()) + 1
    return ModelConfig(
        in_channels=batch.channels,
        length=batch.length,
        embed_dim=config.embed_dim,
        n_classes=n_classes,
        conv_channels=config.conv_channels,
        kernel=config.kernel,
        pool_width=config.pool_width,
    )


# ---------------------------------------------------------------------------
# Run records


@dataclass(frozen=True)
class EpochStats:
    """Aggregates for one epoch: anchor-weighted means over its batches."""

    epoch: int
    combined: float
    components: dict[str, float]
    class_mean_loss: dict[int, float]

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "combined": self.combined,
            "components": dict(sorted(self.components.items())),
            "class_mean_loss": {
                str(k): v for k, v in sorted(self.class_mean_loss.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EpochStats":
        return cls(
            epoch=int(d["epoch"]),
            combined=float(d["combined"]),
            components={str(k): float(v) for k, v in d["components"].items()},
            class_mean_loss={
                int(k): float(v) for k, v in d["class_mean_loss"].items()
            },
        )


@dataclass(frozen=True)
class RunRecord:
    """Everything one training run produced, ready for JSON round-tripping.

    ``metric_scale`` states once, for the whole file, that metric values
    live in [0, 1] (``"fraction"``), the one scale written and read.
    """

    seed: int
    variant: str
    config: dict
    epoch_stats: tuple[EpochStats, ...]
    final_metrics: Optional[dict] = None
    metric_scale: str = "fraction"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "variant": self.variant,
            "config": self.config,
            "epoch_stats": [s.to_dict() for s in self.epoch_stats],
            "final_metrics": self.final_metrics,
            "metric_scale": self.metric_scale,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, ``repr``-faithful floats, newline end."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(
            seed=int(d["seed"]),
            variant=str(d["variant"]),
            config=dict(d["config"]),
            epoch_stats=tuple(EpochStats.from_dict(s) for s in d["epoch_stats"]),
            final_metrics=d.get("final_metrics"),
            metric_scale=str(d.get("metric_scale", "fraction")),
        )

    def with_metrics(self, metrics: dict) -> "RunRecord":
        return dataclasses.replace(self, final_metrics=metrics)


def class_loss_csv(record: RunRecord) -> str:
    """Per-epoch per-class mean loss as an ``epoch,class,mean_loss`` CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["epoch", "class", "mean_loss"])
    for stat in record.epoch_stats:
        for y in sorted(stat.class_mean_loss):
            writer.writerow([stat.epoch, y, repr(stat.class_mean_loss[y])])
    return buffer.getvalue()


def save_run_record(record: RunRecord, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(record.to_json())


def load_run_record(path: str) -> RunRecord:
    """Read a ``save_run_record`` file; a malformed one raises ParameterError."""
    d = read_json_object(path, "run record")
    fields = (("seed", int, "an integer"), ("variant", str, "a string"),
              ("config", dict, "an object"), ("epoch_stats", list, "a list"))
    for name, kind, noun in fields:
        if name not in d:
            raise ParameterError(f"{path}: run record has no {name!r} field")
        if not isinstance(d[name], kind) or isinstance(d[name], bool):
            raise ParameterError(
                f"{path}: run record field {name!r} must be {noun}, got {d[name]!r}"
            )
    if d["seed"] < 0:
        raise ParameterError(f"{path}: run record field 'seed' must be >= 0, got {d['seed']}")
    if d.get("metric_scale", "fraction") != "fraction":
        raise ParameterError(
            f"{path}: run record field 'metric_scale' must be 'fraction', "
            f"got {d['metric_scale']!r}"
        )
    try:
        return RunRecord.from_dict(d)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: malformed epoch_stats entry ({exc!r})")


# ---------------------------------------------------------------------------
# Pretraining


def _forward_batch(
    params: ModelParams,
    model_config: ModelConfig,
    config: TrainConfig,
    stacked: np.ndarray,
    idx: BatchIndexing,
    label_mask: np.ndarray,
) -> tuple[LossReport, LossReport]:
    """Run one stacked two-view batch; return (combined, tracked) reports.

    ``tracked`` is the report whose per-anchor values feed the per-class
    loss statistics: the instance-level term when it is enabled, otherwise
    the graph-level term.
    """
    spec = config.variant_spec
    h = encode(stacked, params.encoder, model_config)

    sim: Optional[ad.DiffNode] = None
    if spec.use_mid or spec.head == "gcn":
        sim = build_similarity(h, config.temperature)

    z: Optional[ad.DiffNode] = None
    if spec.use_id or spec.use_cc:
        if spec.head == "gcn":
            assert sim is not None
            z = gcn_project(h, sim, params.projection, self_loop=config.self_loop)
        else:
            z = mlp_project(h, params.projection)

    if spec.use_mid:
        assert sim is not None
        mid = loss_mid(h, sim, idx)
    else:
        mid = zero_report("MID", {"MID": 0.0})

    if spec.use_id:
        assert z is not None
        instance = loss_id(z, idx, config.temperature)
    else:
        instance = zero_report("ID", {"ID": 0.0})

    if spec.use_cc:
        assert z is not None
        logits_h = classify(h, params.classifier)
        logits_z = classify(z, params.classifier)
        cc = loss_cc(logits_h, logits_z, idx.labels, label_mask)
    else:
        cc = zero_report("CC", {"CC_h": 0.0, "CC_z": 0.0})

    combined = loss_combined(
        mid, instance, cc, lambda_graph=config.lambda_graph, lambda_cls=config.lambda_cls
    )
    tracked = instance if spec.use_id else mid
    return combined, tracked


def _raise_if_non_finite(
    kind: str, arrays: dict[str, Optional[np.ndarray]], epoch_index: int
) -> None:
    for name, array in arrays.items():
        if array is not None and not np.isfinite(array).all():
            raise TrainingDivergedError(
                f"non-finite {kind} of {name} in epoch {epoch_index + 1}",
                last_good_epoch=epoch_index,
            )


# glibc returns freed heap to the OS once the free space at its top passes a
# trim threshold, which adapts to the largest block freed so far.  Each
# training step frees its whole graph, so under the default policy the next
# step faults the same pages in again: about 4 us a page on a 2-core VM,
# and at the criterion-6 geometry about 25k faults and 12% of an epoch.
# The most heap a step leaves free for the next one, measured with
# mallinfo2 at each step start, is 98 MiB at batch 512 (n = 1024), 61 MiB
# at the criterion-6 geometry (batch 128, T = 64) and 4 MiB at criterion
# 8's; the threshold is about 2.6 times the largest.  It caps what stays
# resident after ``pretrain`` returns, which is at most that free heap.
_HEAP_TRIM_THRESHOLD = 256 * 2**20
_HEAP_MMAP_THRESHOLD = 32 * 2**20  # the largest value glibc accepts on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters from malloc.h


@functools.cache
def _keep_freed_heap() -> None:
    """Let this process keep freed heap for reuse instead of returning it to
    the OS after every step.  Nothing happens where glibc's mallopt is absent."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)


def _seed_start(
    model_config: ModelConfig, seed: int
) -> tuple[ModelParams, np.random.SeedSequence]:
    """The run seed's initial parameters, drawn from its first stream, and its
    second stream, the one training draws from."""
    init_seq, train_seq = np.random.SeedSequence(seed).spawn(2)
    return init_model(model_config, np.random.default_rng(init_seq)), train_seq


def pretrain(
    config: TrainConfig, data: TimeSeriesBatch, seed: Optional[int] = None
) -> tuple[ModelParams, RunRecord]:
    """Train the encoder (and heads) on ``data``; return params and record.

    ``seed`` picks the run seed (default: the first entry of
    ``config.seeds``).  Raises :class:`TrainingDivergedError` as soon as any
    batch produces a degenerate forward pass (a ``DegenerateInputError``),
    a non-finite combined loss, parameter gradient or updated parameter
    value; the exception carries the index of the last epoch that completed
    cleanly.
    """
    if data.n < 2:
        raise ParameterError(f"need at least 2 samples to train, got {data.n}")
    if config.batch_size > data.n:
        raise ParameterError(
            f"batch size {config.batch_size} exceeds dataset size {data.n}"
        )
    run_seed = config.seeds[0] if seed is None else int(seed)
    model_config = model_config_for(config, data)
    _keep_freed_heap()

    params, train_seq = _seed_start(model_config, run_seed)
    adam_config = config.adam_config()
    first_moment = {name: np.zeros(node.shape) for name, node in params.named().items()}
    second_moment = {name: np.zeros_like(m) for name, m in first_moment.items()}
    step = 0

    epoch_seqs = train_seq.spawn(config.epochs)
    stats: list[EpochStats] = []
    # A diverging run overflows before the finite checks below report it, so
    # NumPy's warnings about it would only repeat that report.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch_index in range(config.epochs):
            shuffle_seq, weak_seq, strong_seq = epoch_seqs[epoch_index].spawn(3)
            # Augment the whole dataset in canonical storage order so the views
            # are independent of the shuffle, then batch over shuffled indices.
            weak = weak_augment(data, np.random.default_rng(weak_seq), config.augment)
            strong = strong_augment(data, np.random.default_rng(strong_seq), config.augment)
            order = np.random.default_rng(shuffle_seq).permutation(data.n)

            total_weight = 0.0
            combined_sum = 0.0
            component_sums: dict[str, float] = {}
            class_sums: dict[int, float] = {}
            class_counts: dict[int, int] = {}

            for start in range(0, data.n, config.batch_size):
                rows = order[start : start + config.batch_size]
                if rows.size < 2:
                    continue  # a single leftover sample cannot form a batch
                stacked = np.vstack([weak.values[rows], strong.values[rows]])
                idx = two_view_indexing(data.labels[rows])
                label_mask = np.concatenate([data.label_mask[rows], data.label_mask[rows]])

                try:
                    combined, tracked = _forward_batch(
                        params, model_config, config, stacked, idx, label_mask
                    )
                except DegenerateInputError as exc:
                    # A degenerate intermediate, such as a graph head whose ReLU
                    # units are all dead on the batch, is a failure of the model
                    # state like a non-finite loss, not a fault of the input.
                    raise TrainingDivergedError(
                        f"degenerate forward pass in epoch {epoch_index + 1}, "
                        f"batch {start // config.batch_size + 1}: {exc}",
                        last_good_epoch=epoch_index,
                    ) from exc
                total = combined.total
                if not np.isfinite(total):
                    raise TrainingDivergedError(
                        f"non-finite loss in epoch {epoch_index + 1}",
                        last_good_epoch=epoch_index,
                    )
                ad.backward(combined.node)
                nodes = params.named()
                _raise_if_non_finite(
                    "gradient", {name: node.grad for name, node in nodes.items()}, epoch_index
                )
                step += 1  # counts every step, also for parameters left without a gradient
                new_values = {name: node.value for name, node in nodes.items()}
                for name, node in nodes.items():
                    if node.grad is not None:  # the others keep their value and moments
                        x = node.value.array.copy()
                        adam_step(adam_config, step, x, node.grad,
                                  first_moment[name], second_moment[name])
                        new_values[name] = Tensor2D._adopt(x)
                _raise_if_non_finite(
                    "value", {name: v.array for name, v in new_values.items()}, epoch_index
                )
                params = rebuild_with_values(params, new_values)

                weight = float(idx.n)
                total_weight += weight
                combined_sum += total * weight
                for cname, cvalue in combined.components.items():
                    component_sums[cname] = component_sums.get(cname, 0.0) + cvalue * weight
                for _, label, value in tracked.per_anchor:
                    class_sums[label] = class_sums.get(label, 0.0) + value
                    class_counts[label] = class_counts.get(label, 0) + 1
                # Release this step's graph, every node value and leaf gradient,
                # before the next step's forward pass builds its own.
                del combined, tracked, nodes

            if total_weight == 0.0:
                raise ParameterError("no trainable batch was formed in an epoch")
            stats.append(
                EpochStats(
                    epoch=epoch_index + 1,
                    combined=combined_sum / total_weight,
                    components={
                        k: v / total_weight for k, v in component_sums.items()
                    },
                    class_mean_loss={
                        y: class_sums[y] / class_counts[y] for y in sorted(class_sums)
                    },
                )
            )

    record = RunRecord(
        seed=run_seed,
        variant=config.variant,
        config=config.to_dict(),
        epoch_stats=tuple(stats),
    )
    return params, record


# ---------------------------------------------------------------------------
# Linear probe


def check_probe_settings(epochs, lr) -> None:
    """Raise unless the probe's epoch count and learning rate are usable."""
    check_integer("epochs", epochs)
    check_real("lr", lr)
    if epochs < 1:
        raise ParameterError(f"probe epochs must be >= 1, got {epochs}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise ParameterError(f"probe learning rate must be positive and finite, got {lr}")


def linear_probe(
    params: ModelParams,
    model_config: ModelConfig,
    train: TimeSeriesBatch,
    test: TimeSeriesBatch,
    *,
    epochs: int = 200,
    lr: float = 1e-2,
) -> tuple[ClassifierParams, MetricsReport]:
    """Fit a linear classifier on frozen-encoder embeddings of labeled rows.

    The encoder is never updated: embeddings are computed once, and only a
    fresh zero-initialized linear head is trained (full-batch Adam on the
    mean softmax cross-entropy of the labeled subset).  The fit runs on
    plain arrays with the cross-entropy gradient written out, so it builds
    no autodiff graph.  Evaluation runs on ``test``.
    """
    check_probe_settings(epochs, lr)
    labeled = np.flatnonzero(train.label_mask)
    if labeled.size == 0:
        raise ParameterError("probe needs at least one labeled training sample")
    if test.n == 0:
        raise ParameterError("probe needs a nonempty evaluation set")
    n_classes = model_config.n_classes
    labels = train.labels[labeled]
    present = set(int(y) for y in labels)
    if min(present) < 0 or max(present) >= n_classes:
        raise ParameterError(f"probe label out of range [0,{n_classes})")
    missing = sorted(set(range(n_classes)) - present)
    if missing:
        warnings.warn(
            f"classes absent from the labeled training subset: {missing}; "
            "their scores are unreliable",
            stacklevel=2,
        )

    # A finite checkpoint can still overflow the encoder; the check below
    # reports that, so NumPy's warnings about it would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        x = encode(train.take(labeled), params.encoder, model_config).array
        test_h = encode(test, params.encoder, model_config)
    if not (np.isfinite(x).all() and np.isfinite(test_h.array).all()):
        raise DegenerateInputError("the frozen encoder gives non-finite embeddings")

    # Bias and weight are views of one flat buffer, and so are their
    # gradients, so one elementwise Adam update covers both.
    dim = model_config.embed_dim
    flat = np.zeros(n_classes * (1 + dim))
    grad = np.empty_like(flat)
    first_moment = np.zeros_like(flat)
    second_moment = np.zeros_like(flat)
    bias = flat[:n_classes].reshape(1, n_classes)
    weight = flat[n_classes:].reshape(dim, n_classes)
    grad_bias = grad[:n_classes].reshape(1, n_classes)
    grad_weight = grad[n_classes:].reshape(dim, n_classes)
    adam_config = AdamConfig(lr=lr)
    inv_n = 1.0 / labels.size
    for step in range(1, epochs + 1):
        # The gradient of mean(cross_entropy(x @ weight + bias, labels)),
        # with the operands and order of the autodiff pullbacks, so the fit
        # is bit-identical to differentiating that graph.
        _, soft_minus_onehot = ad._softmax_ce(x @ weight + bias, labels)
        g = inv_n * soft_minus_onehot
        np.matmul(x.T, g, out=grad_weight)
        g.sum(axis=0, keepdims=True, out=grad_bias)
        adam_step(adam_config, step, flat, grad, first_moment, second_moment)

    clf = ClassifierParams(weight=ad.leaf(weight), bias=ad.leaf(bias))
    test_logits = classify(ad.constant(test_h.array), clf)
    predictions = np.argmax(test_logits.array, axis=1)
    report = evaluate(test.labels, predictions, n_classes)
    return clf, report


def run_experiment(
    config: TrainConfig,
    train: TimeSeriesBatch,
    test: TimeSeriesBatch,
    seed: Optional[int] = None,
    *,
    probe_epochs: int = 200,
    probe_lr: float = 1e-2,
) -> tuple[ModelParams, RunRecord]:
    """Pretrain on ``train``, probe on its labeled subset, evaluate on ``test``."""
    params, record = pretrain(config, train, seed=seed)
    model_config = model_config_for(config, train)
    _, report = linear_probe(
        params, model_config, train, test, epochs=probe_epochs, lr=probe_lr
    )
    return params, record.with_metrics(report.to_dict())


# ---------------------------------------------------------------------------
# Seeded runs, in this process or in worker processes

#: Fixed tag mixed into the run seed to derive the label-split stream, so the
#: labeled subset is reproducible per seed yet independent of training noise.
_LABEL_SPLIT_TAG = 7
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def label_split_for_seed(batch: TimeSeriesBatch, fraction: float, seed: int) -> TimeSeriesBatch:
    rng = np.random.default_rng(np.random.SeedSequence([seed, _LABEL_SPLIT_TAG]))
    return split_labels(batch, fraction, rng)


def run_seed(config: TrainConfig, train: TimeSeriesBatch, test: TimeSeriesBatch, seed: int,
             probe_epochs: int = 200, probe_lr: float = 1e-2) -> tuple[RunRecord, dict]:
    """Split ``train``'s labels for ``seed``, then :func:`run_experiment`; the
    parameters come back as plain arrays by name, which pickle and which
    :func:`~tscl.model.save_values` writes."""
    labeled = label_split_for_seed(train, config.label_fraction, seed)
    params, record = run_experiment(config, labeled, test, seed, probe_epochs=probe_epochs,
                                    probe_lr=probe_lr)
    return record, {name: node.value.array for name, node in params.named().items()}


def probe_seed(config: TrainConfig, train: TimeSeriesBatch, test: TimeSeriesBatch, seed: int,
               checkpoint: Optional[str] = None, probe_epochs: int = 200,
               probe_lr: float = 1e-2) -> MetricsReport:
    """Linear-probe ``seed``'s initial encoder, or the checkpoint at ``checkpoint``
    loaded in its place, on ``train``'s labels split as :func:`run_seed` splits them."""
    model_config = model_config_for(config, train)
    params, _ = _seed_start(model_config, seed)
    if checkpoint is not None:
        params = load_checkpoint(checkpoint, params)
    labeled = label_split_for_seed(train, config.label_fraction, seed)
    _, report = linear_probe(params, model_config, labeled, test, epochs=probe_epochs,
                             lr=probe_lr)
    return report


def run_seeds(fn: Callable, calls: Sequence[tuple], jobs: int) -> list:
    """``[fn(*args) for args in calls]`` on ``min(jobs, usable cores, calls)`` workers: one
    runs them here, more are spawned with BLAS on one thread.  The first call to raise
    cancels those not started; its error is raised once the running ones and workers end."""
    workers = min(jobs, len(os.sched_getaffinity(0)), len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait  # lazy import
    from multiprocessing import get_context
    saved = {name: os.environ[name] for name in _BLAS_THREAD_VARIABLES if name in os.environ}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))  # the workers inherit it
    try:
        # Spawned, not forked: after a fork each page this process writes faults once
        # more (copy-on-write), and forking once BLAS has started threads is unsafe.
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(fn, *args) for args in calls]
            wait(futures, return_when=FIRST_EXCEPTION)
            pool.shutdown(cancel_futures=True)
    finally:
        for name in _BLAS_THREAD_VARIABLES:
            del os.environ[name]
        os.environ.update(saved)
    return [future.result() for future in futures]


# ---------------------------------------------------------------------------
# Per-class loss trajectories


@dataclass(frozen=True)
class ClassLossGap:
    """Majority/minority mean instance loss for one epoch, and their gap."""

    epoch: int
    majority_mean: float
    minority_mean: float

    @property
    def gap(self) -> float:
        return self.majority_mean - self.minority_mean


def track_class_losses(record: RunRecord) -> tuple[ClassLossGap, ...]:
    """Extract per-epoch majority/minority mean losses from a run record.

    The majority class is the smallest class index and the minority class
    the largest, the synthetic generator's convention of ordering classes
    by descending size.
    """
    if not record.epoch_stats:
        raise ParameterError("run record has no epoch statistics")
    classes = sorted(record.epoch_stats[0].class_mean_loss)
    if len(classes) < 2:
        raise ParameterError("per-class tracking needs at least two classes")
    majority, minority = classes[0], classes[-1]
    out = []
    for stat in record.epoch_stats:
        if majority not in stat.class_mean_loss or minority not in stat.class_mean_loss:
            raise ParameterError(
                f"epoch {stat.epoch} lacks a mean loss for class "
                f"{majority if majority not in stat.class_mean_loss else minority}"
            )
        out.append(
            ClassLossGap(
                epoch=stat.epoch,
                majority_mean=stat.class_mean_loss[majority],
                minority_mean=stat.class_mean_loss[minority],
            )
        )
    return tuple(out)

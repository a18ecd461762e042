"""Training objectives: contrastive, multi-instance, and consistency losses.

Every loss returns a :class:`LossReport` carrying a differentiable scalar
total (mean over anchors) and the per-anchor values with their labels,
which the training harness averages per class for the imbalance tracker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tscl import autodiff as ad
from tscl.errors import (
    BatchTooSmallError,
    DegenerateClassError,
    DimensionError,
    NormalizationError,
    ParameterError,
)
from tscl.tensor import as_array, check_temperature

# Probabilities below this are clamped before log; each clamp is counted.
UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True)
class BatchIndexing:
    """Index bookkeeping for one contrastive batch.

    ``partner`` maps each row to its other augmented view and must be an
    involution with no fixed points; per-class index sets and complements
    are derived from ``labels``.
    """

    labels: np.ndarray
    partner: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        partner = np.asarray(self.partner, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "partner", partner)
        n = labels.shape[0]
        if partner.shape[0] != n:
            raise DimensionError(
                f"labels have {n} entries but pair map has {partner.shape[0]}"
            )
        if partner.min(initial=0) < 0 or partner.max(initial=0) >= n:
            raise ParameterError("pair map indices out of range")
        idx = np.arange(n)
        if np.any(partner == idx):
            raise ParameterError("positive-pair map must have no fixed points")
        if not np.array_equal(partner[partner], idx):
            raise ParameterError("positive-pair map must be an involution")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def class_members(self) -> dict[int, np.ndarray]:
        return {
            int(y): np.flatnonzero(self.labels == y) for y in np.unique(self.labels)
        }

    def complement(self, y: int) -> np.ndarray:
        return np.flatnonzero(self.labels != y)


def two_view_indexing(view_labels: np.ndarray) -> BatchIndexing:
    """Indexing for a 2N-row batch of stacked views.

    Rows 0..N-1 are one augmented view and rows N..2N-1 the other; row i
    is paired with row i+N (and vice versa), and labels repeat per view.
    """
    half = np.asarray(view_labels, dtype=np.int64).reshape(-1)
    n = half.shape[0]
    if n < 1:
        raise BatchTooSmallError("need at least one sample per view")
    partner = np.concatenate([np.arange(n) + n, np.arange(n)])
    return BatchIndexing(labels=np.concatenate([half, half]), partner=partner)


@dataclass(frozen=True)
class LossReport:
    """One evaluated loss: differentiable total plus per-anchor breakdown."""

    name: str
    node: ad.DiffNode
    per_anchor: tuple[tuple[int, int, float], ...]
    components: dict[str, float]
    flags: tuple[str, ...] = ()
    underflow_count: int = 0

    @property
    def total(self) -> float:
        return float(self.node.value.array[0, 0])


def zero_report(
    name: str, components: dict[str, float], flags: tuple[str, ...] = ()
) -> LossReport:
    """A term that contributes exactly zero: disabled, or with nothing to score."""
    return LossReport(
        name=name,
        node=ad.constant(np.zeros((1, 1))),
        per_anchor=(),
        components=dict(components),
        flags=flags,
    )


def _finalize(
    name: str,
    per_node: ad.DiffNode,
    labels: np.ndarray,
    flags: tuple[str, ...] = (),
    underflow_count: int = 0,
) -> LossReport:
    values = per_node.value.array.reshape(-1)
    per_anchor = tuple(
        (int(i), int(labels[i]), float(values[i])) for i in range(values.shape[0])
    )
    return LossReport(
        name=name,
        node=ad.mean(per_node),
        per_anchor=per_anchor,
        components={name: float(values.mean())},
        flags=flags,
        underflow_count=underflow_count,
    )


def check_unit_rows(values, tol: float = 1e-6) -> np.ndarray:
    """Embeddings (node, tensor or array-like) as a 2-D float64 array.

    Raises :class:`NormalizationError` unless every row has unit L2 norm
    within ``tol``.
    """
    values = as_array(values.value if isinstance(values, ad.DiffNode) else values)
    norms = np.linalg.norm(values, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > tol)
    if bad.size:
        raise NormalizationError(
            f"embedding rows must be unit-norm within {tol}: "
            f"rows {bad[:5].tolist()} have norms {norms[bad[:5]].tolist()}"
        )
    return values


def _inverse_temperature(z: ad.DiffNode, temperature: float) -> float:
    """1/temperature, once the checks every contrastive term shares pass."""
    check_temperature(temperature)
    if z.shape[0] < 2:
        raise BatchTooSmallError(f"contrastive loss needs n >= 2, got {z.shape[0]}")
    return 1.0 / temperature


def loss_uc(
    z: ad.DiffNode, idx: BatchIndexing, temperature: float, name: str = "UC"
) -> LossReport:
    """One-positive contrastive loss over all |B|-1 candidates per anchor.

    One ``info_nce_rows`` node holds the whole term: its only n x n array
    is the row softmax of the scaled similarities.
    """
    check_unit_rows(z)
    n = z.shape[0]
    if idx.n != n:
        raise DimensionError(f"indexing covers {idx.n} rows but batch has {n}")
    per = ad.info_nce_rows(z, idx.partner, _inverse_temperature(z, temperature))
    return _finalize(name, per, idx.labels)


def loss_id(z: ad.DiffNode, idx: BatchIndexing, temperature: float) -> LossReport:
    """Single-instance discrimination on projected embeddings.

    Contract is identical to :func:`loss_uc`; only the report name and the
    intended input (post-projection embeddings) differ.
    """
    return loss_uc(z, idx, temperature, name="ID")


def loss_sc(z: ad.DiffNode, idx: BatchIndexing, temperature: float) -> LossReport:
    """Supervised contrastive loss: per anchor, mean over same-class positives.

    One ``sup_con_rows`` node holds the whole term, as ``info_nce_rows`` does
    for :func:`loss_uc`.
    """
    check_unit_rows(z)
    n = z.shape[0]
    if idx.n != n:
        raise DimensionError(f"indexing covers {idx.n} rows but batch has {n}")
    singletons = [y for y, m in idx.class_members().items() if m.size < 2]
    if singletons:
        raise DegenerateClassError(
            f"classes with a single batch member have no positives: {singletons}"
        )
    per = ad.sup_con_rows(z, idx.labels, _inverse_temperature(z, temperature))
    return _finalize("SC", per, idx.labels)


def loss_mid(
    h: ad.DiffNode,
    sim: ad.DiffNode,
    idx: BatchIndexing | None = None,
) -> LossReport:
    """Multi-instance discrimination: push similarity mass onto every peer.

    The target is uniform over the n-1 other instances, evaluated
    literally as -(1/(n-1)) * sum(log alpha_ij).
    """
    n = sim.shape[0]
    if h.shape[0] != n:
        raise DimensionError(f"graph has {n} nodes but batch has {h.shape[0]} rows")
    a = sim.array
    underflow = int(
        np.count_nonzero(a < UNDERFLOW_FLOOR)
        - np.count_nonzero(np.diagonal(a) < UNDERFLOW_FLOOR)
    )
    flags = ("underflow_clamped",) if underflow else ()
    per = ad.clamped_log_row_sum(sim, UNDERFLOW_FLOOR, -1.0 / (n - 1))
    labels = idx.labels if idx is not None else np.full(n, -1, dtype=np.int64)
    return _finalize("MID", per, labels, flags=flags, underflow_count=underflow)


def loss_cc(
    logits_h: ad.DiffNode,
    logits_z: ad.DiffNode,
    labels: np.ndarray,
    label_mask: np.ndarray,
) -> LossReport:
    """Consistency classification: cross-entropy on both embedding spaces.

    Only rows flagged in ``label_mask`` contribute; both heads share the
    classifier upstream, so this just averages each head's cross-entropy
    over the labeled subset and adds the two.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    mask = np.asarray(label_mask, dtype=bool).reshape(-1)
    n = logits_h.shape[0]
    if logits_z.shape != logits_h.shape:
        raise DimensionError(
            f"logit shapes differ: {logits_h.shape} vs {logits_z.shape}"
        )
    if labels.shape[0] != n or mask.shape[0] != n:
        raise DimensionError(
            f"expected {n} labels and mask entries, got "
            f"{labels.shape[0]} and {mask.shape[0]}"
        )
    labeled = np.flatnonzero(mask)
    if labeled.size == 0:
        return zero_report("CC", {"CC_h": 0.0, "CC_z": 0.0}, flags=("no_labels",))
    picked = labels[labeled]
    ce_h = ad.cross_entropy_with_logits(ad.take_rows(logits_h, labeled), picked)
    ce_z = ad.cross_entropy_with_logits(ad.take_rows(logits_z, labeled), picked)
    mean_h = ad.mean(ce_h)
    mean_z = ad.mean(ce_z)
    both = (ce_h.value.array + ce_z.value.array).reshape(-1)
    per_anchor = tuple(
        (int(i), int(labels[i]), float(v)) for i, v in zip(labeled, both)
    )
    return LossReport(
        name="CC",
        node=ad.add(mean_h, mean_z),
        per_anchor=per_anchor,
        components={
            "CC_h": float(mean_h.value.array[0, 0]),
            "CC_z": float(mean_z.value.array[0, 0]),
        },
    )


def loss_combined(
    mid: LossReport,
    instance: LossReport,
    cc: LossReport,
    lambda_graph: float = 1.0,
    lambda_cls: float = 1.0,
) -> LossReport:
    """Weighted total: lambda_graph*(MID + ID) + lambda_cls*CC."""
    if lambda_graph < 0 or lambda_cls < 0:
        raise ParameterError(
            f"loss weights must be nonnegative, got {lambda_graph}, {lambda_cls}"
        )
    node = ad.add(
        ad.scale(ad.add(mid.node, instance.node), lambda_graph),
        ad.scale(cc.node, lambda_cls),
    )
    components = {
        "MID": mid.total,
        "ID": instance.total,
        "CC_h": cc.components.get("CC_h", 0.0),
        "CC_z": cc.components.get("CC_z", 0.0),
    }
    report = LossReport(
        name="combined",
        node=node,
        per_anchor=(),
        components=components,
        flags=tuple(sorted(set(mid.flags + instance.flags + cc.flags))),
        underflow_count=mid.underflow_count
        + instance.underflow_count
        + cc.underflow_count,
    )
    expected = lambda_graph * (components["MID"] + components["ID"]) + lambda_cls * (
        components["CC_h"] + components["CC_z"]
    )
    if abs(report.total - expected) > 1e-12:
        raise ParameterError(
            f"combined total {report.total} drifted from component sum {expected}"
        )
    return report

"""Lower-bound evaluators for class-specific contrastive losses.

For a chosen class, both contrastive losses restricted to that class's
anchors admit a closed-form lower bound obtained by applying Jensen's
inequality separately to the same-class and other-class candidate pools.
This module evaluates those bounds, the two equality conditions (Q1: all
same-class inner products with an anchor are equal; Q2: all other-class
inner products are equal), and the majority/minority gap that the bound
predicts under class imbalance.

The evaluators work on a raw inner-product matrix so that tests can
perturb a single similarity; convenience wrappers accept embeddings.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from tscl.errors import (
    DegenerateClassError,
    DegenerateInputError,
    DimensionError,
    ParameterError,
    UndefinedBoundError,
)
from tscl.losses import BatchIndexing, check_unit_rows, two_view_indexing
from tscl.tensor import check_temperature, softmax_rows_inplace

#: Temperatures a bound sweep covers unless told otherwise.
FUZZ_TEMPERATURES = (0.2, 0.5, 1.0)

#: A slack (actual minus bound) below this is a violation; above it, rounding.
SLACK_FLOOR = -1e-9


@dataclass(frozen=True)
class AnchorBound:
    """Per-anchor bound decomposition.

    ``primary_term`` is the same-class contribution: the positive-pool
    size for the supervised bound ("constant") or the size-weighted
    exponential of same-class-mean minus positive similarity for the
    instance bound ("confliction"). ``confrontation_term`` always weighs
    the other-class pool against the positives.
    """

    index: int
    primary_term: float
    confrontation_term: float
    bound_value: float
    actual_value: float


@dataclass(frozen=True)
class EqualityConditions:
    q1_satisfied: bool
    q1_max_dev: float
    q2_satisfied: bool
    q2_max_dev: float
    tol: float

    @property
    def both(self) -> bool:
        return self.q1_satisfied and self.q2_satisfied


@dataclass(frozen=True)
class BoundReport:
    """Bound vs. actual loss for one class's anchors in one batch."""

    kind: str  # "supervised" or "instance"
    class_index: int
    primary_term_name: str  # "constant" or "confliction"
    anchors: tuple[AnchorBound, ...]
    total_bound: float
    total_actual: float
    equality: EqualityConditions

    @property
    def slack(self) -> float:
        return self.total_actual - self.total_bound

    @property
    def q1_satisfied(self) -> bool:
        return self.equality.q1_satisfied

    @property
    def q2_satisfied(self) -> bool:
        return self.equality.q2_satisfied


def _prepare(
    sims: np.ndarray,
    idx: BatchIndexing,
    class_index: int,
    temperatures: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked class-level inputs: float sims, member rows, complement rows.

    Every temperature the caller will scale ``sims`` by is checked here,
    so a bound never silently turns into NaN or a division by infinity.
    """
    sims = np.asarray(sims, dtype=np.float64)
    n = idx.n
    if sims.shape != (n, n):
        raise DimensionError(
            f"similarity matrix shape {sims.shape} does not match batch size {n}"
        )
    if not np.isfinite(sims).all():
        raise DegenerateInputError("similarity matrix has non-finite entries")
    for temperature in temperatures:
        check_temperature(temperature)
    members = np.flatnonzero(idx.labels == class_index)
    if members.size < 2:
        raise DegenerateClassError(
            f"class {class_index} has {members.size} batch member(s); "
            "the bound needs at least 2"
        )
    complement = np.flatnonzero(idx.labels != class_index)
    if complement.size == 0:
        raise UndefinedBoundError(
            f"class {class_index} fills the whole batch; "
            "the bound needs at least one other-class row"
        )
    return sims, members, complement


def _max_spread(groups: np.ndarray) -> float:
    """Largest max-minus-min over the rows of ``groups``.

    A single value has no spread, so a one-column group gives 0.0 and its
    condition holds vacuously.
    """
    return float((groups.max(axis=1) - groups.min(axis=1)).max())


def _equality(
    sims: np.ndarray, members: np.ndarray, complement: np.ndarray, tol: float
) -> EqualityConditions:
    p = members.size
    rows = sims[members]
    same = rows[:, members][~np.eye(p, dtype=bool)].reshape(p, p - 1)
    q1_dev = _max_spread(same)
    q2_dev = _max_spread(rows[:, complement])
    return EqualityConditions(
        q1_satisfied=q1_dev <= tol,
        q1_max_dev=q1_dev,
        q2_satisfied=q2_dev <= tol,
        q2_max_dev=q2_dev,
        tol=tol,
    )


class _AnchorStats(NamedTuple):
    """Per-anchor statistics of one class's members at one temperature."""

    mean_same: np.ndarray  # mean scaled similarity to the other members
    mean_comp: np.ndarray  # mean scaled similarity to the complement rows
    lse: np.ndarray  # log-sum-exp of scaled similarities to every other row
    positive: np.ndarray  # scaled similarity to the anchor's partner


def _anchor_stats(
    sims: np.ndarray,
    idx: BatchIndexing,
    members: np.ndarray,
    complement: np.ndarray,
    temperature: float,
) -> _AnchorStats:
    p = members.size
    anchor = np.arange(p)
    rows = sims[members] / temperature  # the members' rows of the scaled matrix
    mean_same = (rows[:, members].sum(axis=1) - rows[anchor, members]) / (p - 1)
    mean_comp = rows[:, complement].sum(axis=1) / complement.size  # what np.mean computes
    positive = rows[anchor, idx.partner[members]]
    lse = softmax_rows_inplace(rows, members)[:, 0]
    return _AnchorStats(mean_same, mean_comp, lse, positive)


def _sc_terms(
    stats: _AnchorStats, members: np.ndarray, complement: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Supervised bound per anchor: (constant, confrontation, bound, actual)."""
    constant = float(members.size - 1)
    confrontation = complement.size * np.exp(stats.mean_comp - stats.mean_same)
    bound = np.log(constant + confrontation)
    return constant, confrontation, bound, stats.lse - stats.mean_same


def _uc_terms(
    stats: _AnchorStats, members: np.ndarray, complement: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Instance bound per anchor: (confliction, confrontation, bound, actual)."""
    confliction = (members.size - 1) * np.exp(stats.mean_same - stats.positive)
    confrontation = complement.size * np.exp(stats.mean_comp - stats.positive)
    bound = np.log(confliction + confrontation)
    return confliction, confrontation, bound, stats.lse - stats.positive


def equality_conditions_from_sims(
    sims: np.ndarray, idx: BatchIndexing, class_index: int, tol: float = 1e-9
) -> EqualityConditions:
    """Max spread of same-class (Q1) and other-class (Q2) inner products.

    Deviations are measured on the raw inner products (before any
    temperature scaling); a group with fewer than two values satisfies
    its condition vacuously.
    """
    sims, members, complement = _prepare(sims, idx, class_index, ())
    return _equality(sims, members, complement, tol)


def _bound_from_sims(kind: str, sims: np.ndarray, idx: BatchIndexing, class_index: int,
                     temperature: float, tol: float) -> BoundReport:
    """The ``"supervised"`` or ``"instance"`` bound for one class from raw inner products."""
    sims, members, complement = _prepare(sims, idx, class_index, (temperature,))
    stats = _anchor_stats(sims, idx, members, complement, temperature)
    terms, primary_term_name = (
        (_sc_terms, "constant") if kind == "supervised" else (_uc_terms, "confliction")
    )
    primary, confrontation, bound, actual = terms(stats, members, complement)
    primary = np.broadcast_to(primary, members.shape)  # the constant is one number
    anchors = tuple(
        AnchorBound(int(i), float(pr), float(cf), float(b), float(a))
        for i, pr, cf, b, a in zip(members, primary, confrontation, bound, actual)
    )
    return BoundReport(
        kind=kind,
        class_index=int(class_index),
        primary_term_name=primary_term_name,
        anchors=anchors,
        total_bound=float(bound.sum()),
        total_actual=float(actual.sum()),
        equality=_equality(sims, members, complement, tol),
    )


def bound_sc_from_sims(sims: np.ndarray, idx: BatchIndexing, class_index: int,
                       temperature: float = 1.0, tol: float = 1e-9) -> BoundReport:
    """Supervised-loss lower bound for one class from raw inner products."""
    return _bound_from_sims("supervised", sims, idx, class_index, temperature, tol)


def bound_uc_from_sims(sims: np.ndarray, idx: BatchIndexing, class_index: int,
                       temperature: float = 1.0, tol: float = 1e-9) -> BoundReport:
    """Instance-loss lower bound for one class from raw inner products."""
    return _bound_from_sims("instance", sims, idx, class_index, temperature, tol)


def _unit_sims(z) -> np.ndarray:
    """Inner products of unit-norm embeddings (node, tensor or array-like)."""
    values = check_unit_rows(z)
    return values @ values.T


def bound_sc(
    z, idx: BatchIndexing, class_index: int, temperature: float = 1.0, tol: float = 1e-9
) -> BoundReport:
    return bound_sc_from_sims(_unit_sims(z), idx, class_index, temperature, tol)


def bound_uc(
    z, idx: BatchIndexing, class_index: int, temperature: float = 1.0, tol: float = 1e-9
) -> BoundReport:
    return bound_uc_from_sims(_unit_sims(z), idx, class_index, temperature, tol)


@dataclass(frozen=True)
class ImbalanceAnalysis:
    """Majority-vs-minority comparison of the bound's log argument.

    With class counts in descending order, minority count N_C, ratio
    r = N_1/N_C, and a shared exponential term e early in training, the
    majority-class bound argument is (r+e)*N_C against (1+r*e)*N_C for
    the minority; their difference is gap_factor * N_C.
    """

    imbalance_ratio: float
    shared_exponential: float
    minority_count: int
    lb_majority: float
    lb_minority: float
    gap_factor: float


def imbalance_gap(
    imbalance_ratio: float, shared_exponential: float, minority_count: int = 1
) -> ImbalanceAnalysis:
    r = float(imbalance_ratio)
    e = float(shared_exponential)
    if r < 1.0:
        raise ParameterError(f"imbalance ratio must be >= 1, got {r}")
    if not 0.0 < e <= 1.0:
        raise ParameterError(f"shared exponential term must lie in (0, 1], got {e}")
    if minority_count < 1:
        raise ParameterError(f"minority count must be >= 1, got {minority_count}")
    lb_majority = (r + e) * minority_count
    lb_minority = (1.0 + r * e) * minority_count
    gap_factor = (r - 1.0) * (1.0 - e)
    if lb_majority + 1e-12 < lb_minority:
        raise UndefinedBoundError(
            f"majority argument {lb_majority} fell below minority {lb_minority}"
        )
    return ImbalanceAnalysis(
        imbalance_ratio=r,
        shared_exponential=e,
        minority_count=int(minority_count),
        lb_majority=lb_majority,
        lb_minority=lb_minority,
        gap_factor=gap_factor,
    )


@dataclass(frozen=True)
class FuzzSummary:
    configurations: int
    evaluations: int
    violations: int
    worst_slack: float
    worst_slack_config: int
    equality_evaluations: int
    worst_equality_slack: float
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


def fuzz_bounds(
    configurations: int = 1000,
    seed: int = 0,
    max_batch: int = 16,
    max_dim: int = 8,
    max_classes: int = 4,
    temperatures: tuple[float, ...] = FUZZ_TEMPERATURES,
) -> FuzzSummary:
    """Random-configuration sweep asserting actual >= bound everywhere.

    Each configuration is a two-view batch of unit-norm embeddings with
    random labels; both bounds are evaluated for every class present with
    at least two members and a nonempty complement, at every temperature.
    A slack below :data:`SLACK_FLOOR` counts as a violation.  A class's
    evaluations count as equality cases when both equality conditions hold
    to within 1e-12.
    """
    if configurations < 1:
        raise ParameterError(f"need at least one configuration, got {configurations}")
    if max_batch < 4 or max_dim < 1 or max_classes < 2:
        raise ParameterError(
            f"infeasible ranges: batch {max_batch}, dim {max_dim}, "
            f"classes {max_classes}"
        )
    if not temperatures:
        raise ParameterError("need at least one temperature")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    evaluations = 0
    violations = 0
    worst_slack = math.inf
    worst_config = -1
    equality_evaluations = 0
    worst_equality_slack = -math.inf
    # Only counts, a min, a max and the index of the worst configuration
    # leave the loop, so the order of the work inside one configuration
    # cannot change the summary.
    for config in range(configurations):
        pairs = int(rng.integers(2, max_batch // 2 + 1))
        dim = int(rng.integers(1, max_dim + 1))
        n_classes = int(rng.integers(2, max_classes + 1))
        view_labels = rng.integers(0, n_classes, size=pairs)
        classes = np.unique(view_labels)
        if classes.size < 2:
            view_labels[0] = (view_labels[0] + 1) % n_classes
            classes = np.unique(view_labels)
        idx = two_view_indexing(view_labels)
        z = rng.standard_normal((2 * pairs, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        sims = z @ z.T
        for y in classes:
            sims, members, complement = _prepare(sims, idx, int(y), temperatures)
            equal = _equality(sims, members, complement, 1e-12).both
            for tau in temperatures:
                stats = _anchor_stats(sims, idx, members, complement, tau)
                for terms in (_sc_terms, _uc_terms):
                    *_, bound, actual = terms(stats, members, complement)
                    slack = float(actual.sum()) - float(bound.sum())
                    evaluations += 1
                    if slack < worst_slack:
                        worst_slack = slack
                        worst_config = config
                    if slack < SLACK_FLOOR:
                        violations += 1
                    if equal:
                        equality_evaluations += 1
                        worst_equality_slack = max(worst_equality_slack, slack)
    return FuzzSummary(
        configurations=configurations,
        evaluations=evaluations,
        violations=violations,
        worst_slack=float(worst_slack),
        worst_slack_config=worst_config,
        equality_evaluations=equality_evaluations,
        worst_equality_slack=float(worst_equality_slack),
        elapsed_seconds=time.perf_counter() - start,
    )

"""Acceptance suite: eight release criteria, one test per criterion.

Each ``test_criterion_<n>_*`` function decides one criterion; the terminal
summary hook in ``conftest.py`` prints a PASS/FAIL line per criterion after
the run.  Criteria 5 and 6 train real models on synthetic data and dominate
the suite's runtime (each is budgeted and asserted below); each submits its
10 training runs to the harness's seed runner at once, which spreads them
over the usable cores.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from tscl import autodiff as ad
from tscl.augment import AugmentParams
from tscl.bounds import (
    bound_sc,
    bound_sc_from_sims,
    bound_uc,
    bound_uc_from_sims,
    fuzz_bounds,
    imbalance_gap,
)
from tscl.cli import main as cli_main
from tscl.data import SynthSpec, generate, split_labels, stratified_split
from tscl.graph import build_similarity
from tscl.harness import (
    TrainConfig,
    pretrain,
    run_experiment,
    run_seed,
    run_seeds,
    save_run_record,
    track_class_losses,
)
from tscl.losses import (
    BatchIndexing,
    loss_cc,
    loss_combined,
    loss_id,
    loss_mid,
    loss_sc,
    loss_uc,
    two_view_indexing,
)

from gradcheck import check_op_gradients


# ---------------------------------------------------------------------------
# Criterion 1: randomized verification of both loss lower bounds


def test_criterion_1_bound_fuzz_over_random_configurations():
    start = time.perf_counter()
    summary = fuzz_bounds(
        configurations=1000,
        seed=0,
        max_batch=16,
        max_dim=8,
        max_classes=4,
        temperatures=(0.2, 0.5, 1.0),
    )
    elapsed = time.perf_counter() - start
    assert summary.configurations == 1000
    assert summary.evaluations > 0
    assert summary.violations == 0, (
        f"{summary.violations} bound violations, worst slack "
        f"{summary.worst_slack:.3e} at {summary.worst_slack_config}"
    )
    assert summary.worst_slack >= -1e-9
    assert elapsed < 30.0, f"fuzz took {elapsed:.1f}s, budget is 30s"


# ---------------------------------------------------------------------------
# Criterion 2: equality configurations are tight; perturbations open slack


def _equal_angle_configs():
    """Configurations whose same-class and cross-class inner products are
    each constant, so both bounds should hold with equality.

    Classes have four members apiece: with only two members per class an
    anchor sees a single same-class similarity, the within-group spread
    stays zero no matter how that one value moves, and a same-class
    perturbation cannot open any slack.  Four members (an even count, so
    positive pairs stay within the class) make every single-pair bump
    visible to at least one anchor's group.
    """

    def config(n_classes: int):
        members = 4
        values = np.repeat(np.eye(n_classes), members, axis=0)
        labels = np.repeat(np.arange(n_classes), members)
        partner = np.arange(n_classes * members)
        partner[0::2], partner[1::2] = (
            partner[1::2].copy(),
            partner[0::2].copy(),
        )
        return values, BatchIndexing(labels=labels, partner=partner)

    return (config(2), config(3))


def test_criterion_2_equality_configs_tight_and_perturbation_sensitive():
    for z, idx in _equal_angle_configs():
        classes = sorted(set(int(y) for y in idx.labels))
        for temperature in (0.2, 1.0):
            # Tight at the constructed configuration.
            for y in classes:
                for builder in (bound_sc, bound_uc):
                    report = builder(z, idx, y, temperature=temperature, tol=1e-12)
                    assert report.equality.q1_satisfied, report.equality
                    assert report.equality.q2_satisfied, report.equality
                    assert abs(report.slack) < 1e-9, (
                        f"class {y} {report.kind} slack {report.slack:.3e}"
                    )

            # Bumping any single off-diagonal inner product by 0.1 must
            # open visible slack somewhere.
            sims = z @ z.T
            n = sims.shape[0]
            for i in range(n):
                for j in range(i + 1, n):
                    bumped = sims.copy()
                    bumped[i, j] += 0.1
                    bumped[j, i] += 0.1
                    worst = max(
                        builder(bumped, idx, y, temperature=temperature).slack
                        for y in classes
                        for builder in (bound_sc_from_sims, bound_uc_from_sims)
                    )
                    assert worst > 1e-6, (
                        f"bumping inner product ({i},{j}) at temperature "
                        f"{temperature} left worst slack {worst:.3e}"
                    )


# ---------------------------------------------------------------------------
# Criterion 3: the majority/minority gap factor matches (r - 1) * (1 - e)


def test_criterion_3_imbalance_gap_formula_and_ordering():
    ratios = (1.0, 2.0, 7.86, 24.97, 40.34)
    exponentials = tuple(k / 10.0 for k in range(1, 11))
    for r in ratios:
        for e in exponentials:
            analysis = imbalance_gap(r, e)
            assert analysis.gap_factor == (r - 1.0) * (1.0 - e)
            assert analysis.gap_factor >= 0.0
            assert analysis.lb_majority >= analysis.lb_minority
            if r == 1.0 or e == 1.0:
                assert analysis.gap_factor == 0.0
    # The gap also scales linearly with the minority head count.
    scaled = imbalance_gap(7.86, 0.3, minority_count=5)
    assert scaled.lb_majority - scaled.lb_minority == (7.86 - 1.0) * (1.0 - 0.3) * 5


# ---------------------------------------------------------------------------
# Criterion 4: finite-difference checks for every operation and every loss


def _separated_pool_input(
    rng: np.random.Generator, rows: int, channels: int, length: int, width: int
):
    """Random time-major matrix (entry [i, t*channels + ch]) whose pooling
    windows hold well-separated values, so a finite-difference step cannot
    flip which entry is the maximum."""
    while True:
        x = rng.standard_normal((rows, length * channels))
        windows = np.sort(x.reshape(rows, length // width, width, channels), axis=2)
        if np.min(windows[:, :, -1] - windows[:, :, -2]) > 0.05:
            return x


def _op_cases(rng: np.random.Generator):
    """(name, arrays, build) triples covering the whole operation set.

    Inputs for kinked operations (relu, clamped_log_row_sum, max_pool1d) are
    nudged away from their kink points so central differences stay valid.
    """
    a34 = rng.standard_normal((3, 4))
    b34 = rng.standard_normal((3, 4))
    row4 = rng.standard_normal((1, 4))
    a45 = rng.standard_normal((4, 5))
    away = a34 + 0.3 * np.sign(a34)  # keep |x| >= 0.3 away from the relu kink
    positive = np.abs(a34) + 0.5
    below_floor = positive[:, :3].copy()
    below_floor[0, 2] = -1.0  # far below the floor: its gradient is 0
    pool_in = _separated_pool_input(rng, 3, 2, 8, 2)
    conv_x = rng.standard_normal((3, 2 * 8))
    conv_w = rng.standard_normal((4, 2 * 3))
    conv_b = rng.standard_normal((1, 4))
    logits = rng.standard_normal((4, 3))
    labels = np.array([0, 2, 1, 1])
    partner = np.array([1, 0, 3, 2])
    excluded = np.arange(3)
    return [
        ("matmul", [a34, a45], lambda L: ad.matmul(L[0], L[1])),
        ("add", [a34, b34], lambda L: ad.add(L[0], L[1])),
        ("add_row_broadcast", [a34, row4], lambda L: ad.add(L[0], L[1])),
        ("scale", [a34], lambda L: ad.scale(L[0], -1.7)),
        ("relu", [away], lambda L: ad.relu(L[0])),
        (
            "clamped_log_row_sum",
            [positive[:, :3]],
            lambda L: ad.clamped_log_row_sum(L[0], 1e-300, -0.5),
        ),
        (
            "clamped_log_row_sum_below_floor",
            [below_floor],
            lambda L: ad.clamped_log_row_sum(L[0], 0.1, 0.5),
        ),
        ("gram", [a34], lambda L: ad.gram(L[0], 1.0 / 0.7)),
        ("mean", [a34], lambda L: ad.mean(L[0])),
        ("take_rows", [a34], lambda L: ad.take_rows(L[0], np.array([2, 0]))),
        (
            "info_nce_rows",
            [rng.standard_normal((4, 4))],
            lambda L: ad.info_nce_rows(L[0], partner, 2.0),
        ),
        (
            "sup_con_rows",
            [rng.standard_normal((4, 3))],
            lambda L: ad.sup_con_rows(L[0], np.array([0, 1, 1, 0]), 2.0),
        ),
        (
            "row_l2_normalize",
            [a34 + 0.2 * np.sign(a34)],  # keep row norms clear of zero
            lambda L: ad.row_l2_normalize(L[0]),
        ),
        (
            "masked_softmax_rows",
            [rng.standard_normal((3, 3))],
            lambda L: ad.masked_softmax_rows(L[0], excluded=excluded, temperature=0.5),
        ),
        (
            "logsumexp_row",
            [rng.standard_normal((3, 3))],
            lambda L: ad.logsumexp_row(L[0], excluded=excluded),
        ),
        (
            "cross_entropy_with_logits",
            [logits],
            lambda L: ad.cross_entropy_with_logits(L[0], labels),
        ),
        (
            "conv1d",
            [conv_x, conv_w, conv_b],
            lambda L: ad.conv1d(L[0], L[1], L[2], channels=2, length=8),
        ),
        (
            "max_pool1d",
            [pool_in],
            lambda L: ad.max_pool1d(L[0], channels=2, length=8, width=2),
        ),
        (
            "channel_major",
            [conv_x],
            lambda L: ad.channel_major(L[0], channels=2, length=8),
        ),
    ]


def _loss_cases(rng: np.random.Generator):
    """(name, arrays, build) triples for every loss, differentiated through
    raw (pre-normalization) inputs so unit-norm preconditions hold at every
    finite-difference evaluation point."""

    def well_conditioned(shape):
        while True:
            x = rng.standard_normal(shape)
            if np.min(np.linalg.norm(x, axis=1)) > 0.5:
                return x

    raw = well_conditioned((6, 5))
    hidden = well_conditioned((6, 5))
    proj = rng.standard_normal((5, 4))
    clf = rng.standard_normal((5, 3))
    idx = two_view_indexing(np.array([0, 1, 2]))
    labels = idx.labels
    mask = np.array([True, False, True, True, False, True])
    temperature = 0.5

    def build_uc(L):
        return loss_uc(ad.row_l2_normalize(L[0]), idx, temperature).node

    def build_id(L):
        return loss_id(ad.row_l2_normalize(L[0]), idx, temperature).node

    def build_sc(L):
        return loss_sc(ad.row_l2_normalize(L[0]), idx, temperature).node

    def build_mid(L):
        sim = build_similarity(L[0], temperature)
        return loss_mid(L[0], sim, idx).node

    def build_cc(L):
        return loss_cc(L[0], L[1], labels, mask).node

    def build_combined(L):
        sim = build_similarity(L[0], temperature)
        mid = loss_mid(L[0], sim, idx)
        z = ad.row_l2_normalize(ad.matmul(L[0], L[1]))
        instance = loss_id(z, idx, temperature)
        cc = loss_cc(ad.matmul(L[0], L[2]), ad.matmul(z, ad.constant(clf[:4])), labels, mask)
        return loss_combined(mid, instance, cc, lambda_graph=0.7, lambda_cls=1.3).node

    return [
        ("loss_uc", [raw], build_uc),
        ("loss_id", [raw], build_id),
        ("loss_sc", [raw], build_sc),
        ("loss_mid", [hidden], build_mid),
        ("loss_cc", [rng.standard_normal((6, 3)), rng.standard_normal((6, 3))], build_cc),
        ("loss_combined", [hidden, proj, clf], build_combined),
    ]


def test_criterion_4_gradients_match_finite_differences():
    start = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for name, arrays, build in _op_cases(rng) + _loss_cases(rng):
            try:
                check_op_gradients(build, arrays, rng, tol=1e-4)
            except AssertionError as exc:  # pragma: no cover - diagnostic path
                raise AssertionError(f"{name} (seed {seed}): {exc}") from exc
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s, budget is 60s"


# ---------------------------------------------------------------------------
# Criterion 5: instance-loss class gap shrinks under imbalance
#
# Two datasets share every generator knob except the class counts: a
# balanced four-class set and a long-tailed one (600/250/100/50, ratio 12).
# All classes ride the same carrier frequency and differ only through
# their envelope and amplitude rung, with per-sample phase scatter, so
# same-class pairs are no more alike than cross-class pairs and the gap
# reflects how well each class's two views align rather than batch
# composition.  After the first training phase (epochs >= 10) the
# majority-minority mean-loss gap of the balanced run must exceed the
# imbalanced run's gap in at least 4 of 5 seeds.

_PHENOMENON_AUGMENT = AugmentParams(
    weak_jitter=0.5, weak_scale=0.1, strong_jitter=1.3, max_segments=5
)


def _phenomenon_spec(class_counts):
    return SynthSpec(
        class_counts=class_counts,
        length=64,
        channels=1,
        noise_sigma=1.0,
        base_frequency=6.0,
        frequency_step=0.0,
        amplitude_decay=1.3,
        phase_spread=1.0,
        seed=17,
    )


def _late_epoch_gap(counts, seed):
    data = generate(_phenomenon_spec(counts))
    config = TrainConfig(
        variant="mlp_id",
        epochs=40,
        batch_size=128,
        embed_dim=32,
        seeds=(seed,),
        lr=3e-3,
        weight_decay=3e-3,
        augment=_PHENOMENON_AUGMENT,
    )
    _, record = pretrain(config, data)
    late = [g.gap for g in track_class_losses(record) if g.epoch >= 10]
    first = track_class_losses(record)[0]
    return float(np.mean(late)), first, record


_C5_RUNS: dict[tuple[str, int], tuple[float, object, object]] = {}


def test_criterion_5_imbalance_shrinks_late_loss_gap():
    start = time.perf_counter()
    counts = {"balanced": (250, 250, 250, 250), "imbalanced": (600, 250, 100, 50)}
    runs = [(shape, seed) for seed in range(5) for shape in counts]
    calls = [(counts[shape], seed) for shape, seed in runs]
    _C5_RUNS.update(zip(runs, run_seeds(_late_epoch_gap, calls, jobs=len(calls))))
    wins = sum(_C5_RUNS[("balanced", s)][0] > _C5_RUNS[("imbalanced", s)][0] for s in range(5))
    elapsed = time.perf_counter() - start
    assert wins >= 4, f"balanced gap exceeded imbalanced gap in only {wins}/5 seeds"
    assert elapsed < 15 * 60, f"took {elapsed:.0f}s, budget is 15 minutes"


def test_tracking_examples_on_criterion_5_runs():
    """Spot checks on the runs criterion 5 just trained: at epoch 1 the class
    gap is small relative to the loss level; late in training the balanced
    run keeps majority >= minority while the imbalanced gap is smaller."""
    if not _C5_RUNS:
        pytest.skip("criterion 5 did not run in this session")
    for seed in range(5):
        bal_gap, bal_first, bal_rec = _C5_RUNS[("balanced", seed)]
        imb_gap, imb_first, imb_rec = _C5_RUNS[("imbalanced", seed)]
        for first, rec in ((bal_first, bal_rec), (imb_first, imb_rec)):
            level = rec.epoch_stats[0].combined
            assert abs(first.gap) < 0.10 * level, (
                f"seed {seed}: epoch-1 gap {first.gap:.3f} vs loss {level:.3f}"
            )
        assert bal_gap > 0.0, f"seed {seed}: balanced late gap {bal_gap:.3f}"
        assert abs(imb_gap) < abs(bal_gap), (
            f"seed {seed}: |imbalanced| {abs(imb_gap):.3f} "
            f">= |balanced| {abs(bal_gap):.3f}"
        )


# ---------------------------------------------------------------------------
# Criterion 6: the graph-augmented semi-supervised model beats the
# instance-only baseline on long-tailed data
#
# Same class counts as criterion 5 (600/250/100/50, ratio 12, N = 1000,
# T = 64) but a separable variant of the generator: per-class frequency
# bands with per-sample phase scatter as the nuisance factor.  Instance
# discrimination alone keeps the phase nuisance in its embedding, so a
# 10%-label linear probe on the baseline has headroom, while the full
# model's labeled consistency head collapses the nuisance with the same
# label budget.


def test_criterion_6_semi_supervised_graph_model_beats_baseline():
    start = time.perf_counter()
    spec = SynthSpec(
        class_counts=(600, 250, 100, 50),
        length=64,
        channels=1,
        noise_sigma=0.4,
        base_frequency=2.0,
        frequency_step=0.25,
        amplitude_decay=1.0,
        phase_spread=1.0,
        seed=23,
    )
    data = generate(spec)
    train, test = stratified_split(
        data, 0.2, np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    )
    minority = str(len(spec.class_counts) - 1)  # classes are sorted by size

    runs = [(variant, seed) for seed in range(5) for variant in ("mlp_id", "full")]
    calls = [
        (TrainConfig(variant=variant, epochs=40, batch_size=128, embed_dim=32, seeds=(seed,),
                     label_fraction=0.10), train, test, seed)
        for variant, seed in runs
    ]
    scores = {}
    for run, (record, _) in zip(runs, run_seeds(run_seed, calls, jobs=len(calls))):
        metrics = record.final_metrics
        scores[run] = (metrics["per_class"][minority]["f1"], metrics["macro_f1"])
    wins = 0
    for seed in range(5):
        baseline, full = scores[("mlp_id", seed)], scores[("full", seed)]
        if full[0] > baseline[0] and full[1] > baseline[1]:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 4, (
        f"full model strictly beat the baseline on minority F1 and macro F1 "
        f"in only {wins}/5 seeds"
    )
    assert elapsed < 30 * 60, f"took {elapsed:.0f}s, budget is 30 minutes"


# ---------------------------------------------------------------------------
# Criterion 7: uniform-similarity batches reduce every contrastive loss to
# log(batch size - 1)

LOG3 = 1.0986122886681098


def test_criterion_7_uniform_batch_collapses_to_log_count():
    base = np.array([0.6, 0.8])
    z = np.tile(base, (4, 1))
    idx = two_view_indexing(np.array([0, 1]))
    for temperature in (0.2, 0.5, 1.0):
        uc = loss_uc(ad.constant(z), idx, temperature)
        sc = loss_sc(ad.constant(z), idx, temperature)
        sim = build_similarity(ad.constant(z), temperature)
        mid = loss_mid(ad.constant(z), sim, idx)
        for report in (uc, sc, mid):
            assert abs(report.total - LOG3) <= 1e-12, (
                f"{report.name} at temperature {temperature}: {report.total!r}"
            )
            for _, _, value in report.per_anchor:
                assert abs(value - LOG3) <= 1e-12

    # A two-row batch has a single neighbor: the uniform target is already
    # met exactly and the multi-instance loss vanishes.
    z2 = np.tile(base, (2, 1))
    idx2 = two_view_indexing(np.array([0]))
    sim2 = build_similarity(ad.constant(z2), 0.2)
    mid2 = loss_mid(ad.constant(z2), sim2, idx2)
    assert mid2.total == 0.0


# ---------------------------------------------------------------------------
# Criterion 8: one seed, one output — records and reports are byte-identical
# across repeat runs


def test_criterion_8_same_seed_byte_identical_outputs(tmp_path):
    spec = SynthSpec(class_counts=(30, 20, 10), length=32, channels=1, seed=5)
    data = generate(spec)
    labeled = split_labels(
        data, 0.30, np.random.default_rng(np.random.SeedSequence([3, 7]))
    )
    config = TrainConfig(
        variant="full", epochs=2, batch_size=16, embed_dim=8, seeds=(3,)
    )

    train, test = stratified_split(
        labeled, 0.2, np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    )
    paths = []
    for attempt in ("first", "second"):
        run_dir = tmp_path / attempt
        run_dir.mkdir()
        _, record = run_experiment(config, train, test, seed=3)
        save_run_record(record, str(run_dir / "record_seed3.json"))
        paths.append(run_dir / "record_seed3.json")
    assert paths[0].read_bytes() == paths[1].read_bytes()

    report_bytes = []
    for attempt in ("first", "second"):
        out_dir = tmp_path / f"report_{attempt}"
        code = cli_main(
            ["report", str(paths[0].parent), str(paths[1].parent), "--out", str(out_dir)]
        )
        assert code == 0
        report_bytes.append((out_dir / "report.csv").read_bytes())
    assert report_bytes[0] == report_bytes[1]

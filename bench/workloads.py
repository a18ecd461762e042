"""The benchmark's workloads: set-up, timed rounds, checks and metrics.

A run sets the workload up, then repeats whole rounds until its time is
spent.  A round is one or more ``harness.pretrain`` calls, a few
``harness.linear_probe`` calls on the encoder trained last, one
``bounds.fuzz_bounds`` sweep and more set-ups.  After the rounds, the
outputs of the last round are checked (see ``checks.py``).
"""

from __future__ import annotations

import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing
from tscl import augment, autodiff, bounds, data, graph, harness, losses, model
from tscl.tensor import Tensor2D

TEMPERATURES = (0.2, 0.5, 1.0)
TEST_FRACTION = 0.2
BOUND_CHECK_CONFIGS = 40
ENCODER_CHECK_ROWS = 8
FD_STEP = 1e-6
KINK_DRAWS = 8  # entries tried per parameter before one on a kink is kept
OP_REPEATS = 5
PROBES = 3  # linear_probe calls per round
OUT_DIR = Path(__file__).resolve().parent / "out"  # scratch files, deleted after each run


# SynthSpec shape parameters of the criterion-6 generator; criterion 8 uses
# SynthSpec's defaults.
CRITERION_6_SHAPE = {
    "noise_sigma": 0.4,
    "base_frequency": 2.0,
    "frequency_step": 0.25,
    "amplitude_decay": 1.0,
    "phase_spread": 1.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    class_counts: tuple[int, ...]
    length: int
    shape: dict  # SynthSpec keyword arguments besides counts, length and seed
    label_fraction: float
    batch_size: int
    epochs: int  # per pretrain call
    pretrains: int  # pretrain calls per round
    fuzz_configs: int  # per round
    setups: int  # timed, discarded set-ups per round

    def spec(self, seed: int) -> data.SynthSpec:
        return data.SynthSpec(
            class_counts=self.class_counts,
            length=self.length,
            channels=1,
            seed=seed,
            **self.shape,
        )

    def train_config(self, seed: int) -> harness.TrainConfig:
        return harness.TrainConfig(
            variant="full",
            epochs=self.epochs,
            batch_size=self.batch_size,
            label_fraction=self.label_fraction,
            seeds=(seed,),
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 6: the paper's headline setting, one epoch per call.
        Workload("c6_full", (600, 250, 100, 50), 64, CRITERION_6_SHAPE, 0.10,
                 batch_size=128, epochs=1, pretrains=1, fuzz_configs=100,
                 setups=1),
        # The criterion-6 generator at T = 16 with three times the series.
        Workload("short_wide_full", (1800, 750, 300, 150), 16, CRITERION_6_SHAPE, 0.10,
                 batch_size=512, epochs=1, pretrains=1, fuzz_configs=100,
                 setups=1),
        # Bound sweeps beside criterion 8's data, labels, batch and epochs; the
        # embedding keeps its default width (criterion 8's width of 8 fails on
        # some seeds, see the README).
        Workload("bound_fuzz", (30, 20, 10), 32, {}, 0.30,
                 batch_size=16, epochs=2, pretrains=5, fuzz_configs=500,
                 setups=5),
    )
}


@dataclass(frozen=True)
class Inputs:
    labeled: augment.TimeSeriesBatch  # train split as loaded, balanced labels revealed
    test: augment.TimeSeriesBatch
    problems: tuple[str, ...]


def set_up(w: Workload, seed: int, scratch: Path) -> Inputs:
    """The path ``tscl synth`` then ``tscl pretrain`` take to a labeled set."""
    spec = w.spec(seed)
    full = data.generate(spec)
    train, test = data.stratified_split(
        full, TEST_FRACTION, np.random.default_rng(np.random.SeedSequence([seed, 1]))
    )
    data.save_delimited(train, scratch / "train.csv")
    data.save_delimited(test, scratch / "test.csv")
    n_classes = len(spec.class_counts)
    loaded_train = data.load_delimited(scratch / "train.csv", 1, w.length, n_classes)
    loaded_test = data.load_delimited(scratch / "test.csv", 1, w.length, n_classes)
    labeled = data.split_labels(
        loaded_train,
        w.label_fraction,
        np.random.default_rng(np.random.SeedSequence([seed, 7])),
    )
    problems = checks.check_round_trip(train, loaded_train) + checks.check_round_trip(
        test, loaded_test
    )
    return Inputs(labeled=labeled, test=loaded_test, problems=tuple(problems))


def combined_loss(params, model_config, config, stacked, idx, label_mask):
    """The ``full`` variant's combined loss for one stacked two-view batch,
    composed from the program's public layers for the central-difference
    check.  The per-op replay records the program's own training step."""
    h = model.encode(stacked, params.encoder, model_config)
    sim = graph.build_similarity(h, config.temperature)
    z = model.gcn_project(h, sim, params.projection, self_loop=config.self_loop)
    mid = losses.loss_mid(h, sim, idx)
    instance = losses.loss_id(z, idx, config.temperature)
    cc = losses.loss_cc(
        model.classify(h, params.classifier),
        model.classify(z, params.classifier),
        idx.labels,
        label_mask,
    )
    return losses.loss_combined(
        mid, instance, cc, lambda_graph=config.lambda_graph, lambda_cls=config.lambda_cls
    )


# ---------------------------------------------------------------------------
# Checks run after the timed rounds


def check_batch(w: Workload, inputs: Inputs, seed: int):
    """One two-view batch of the workload's size, drawn by the benchmark."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    rows = np.sort(rng.permutation(inputs.labeled.n)[: w.batch_size])
    part = inputs.labeled.take(rows)
    weak = augment.weak_augment(part, np.random.default_rng(rng.integers(2**32)))
    strong = augment.strong_augment(part, np.random.default_rng(rng.integers(2**32)))
    stacked = np.vstack([weak.values, strong.values])
    idx = losses.two_view_indexing(part.labels)
    label_mask = np.concatenate([part.label_mask, part.label_mask])
    return stacked, idx, label_mask


def check_encoder(params, model_config, rows: np.ndarray) -> list[str]:
    """The program's encoder against the benchmark's naive one."""
    values = {name: t.array for name, t in params.values().items()}
    program = model.encode(rows, params.encoder, model_config).array
    return checks.check_encoder(program, checks.reference_encode(values, model_config, rows))


def check_gradients(params, model_config, config, batch, seed: int) -> list[str]:
    """Central differences on one sampled entry of every parameter.

    An entry whose forward and backward one-sided differences disagree sits
    within ``FD_STEP`` of a ReLU or window-max kink, where central
    differences do not estimate the gradient; another entry of the same
    parameter is drawn instead, up to ``KINK_DRAWS`` times.  The test uses
    the loss values only, never the gradients under check.
    """
    combined = combined_loss(params, model_config, config, *batch)
    autodiff.backward(combined.node)
    nodes = params.named()
    values = {name: node.value.array for name, node in nodes.items()}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))

    def loss_moved(name, entry, delta):
        moved = values[name].copy()
        moved[entry] += delta
        shifted = model.rebuild_with_values(params, {**params.values(), name: Tensor2D(moved)})
        return combined_loss(shifted, model_config, config, *batch).total

    analytic, numeric = [], []
    for name in sorted(values):
        for _ in range(KINK_DRAWS):
            entry = tuple(int(rng.integers(s)) for s in values[name].shape)
            up = loss_moved(name, entry, FD_STEP)
            down = loss_moved(name, entry, -FD_STEP)
            forward = (up - combined.total) / FD_STEP
            backward = (combined.total - down) / FD_STEP
            if not checks.on_kink(forward, backward):
                break
        grad = nodes[name].grad
        analytic.append(0.0 if grad is None else float(grad[entry]))
        numeric.append((up - down) / (2.0 * FD_STEP))
    return checks.check_gradients(np.array(analytic), np.array(numeric))


def check_bounds(seed: int) -> list[str]:
    """Both bound evaluators against per-anchor loops on random configurations."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    problems = []
    for _ in range(BOUND_CHECK_CONFIGS):
        pairs = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 9))
        n_classes = int(rng.integers(2, 5))
        view_labels = rng.integers(0, n_classes, size=pairs)
        view_labels[0] = (view_labels[1] + 1) % n_classes  # at least two classes
        idx = losses.two_view_indexing(view_labels)
        z = rng.standard_normal((2 * pairs, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        sims = z @ z.T
        for tau in TEMPERATURES:
            for y in np.unique(idx.labels):
                for kind, evaluator in (
                    ("supervised", bounds.bound_sc_from_sims),
                    ("instance", bounds.bound_uc_from_sims),
                ):
                    report = evaluator(sims, idx, int(y), temperature=tau)
                    expected = checks.anchor_loop(
                        sims, idx.labels, idx.partner, int(y), tau, kind
                    )
                    problems += checks.check_bound_report(report, expected)
    return problems


def check_outputs(w, inputs, params, model_config, config, probe, seed):
    """Every check on the last round's outputs."""
    problems = list(inputs.problems)
    problems += check_encoder(params, model_config, inputs.test.values[:ENCODER_CHECK_ROWS])
    clf, report = probe
    test_h = model.encode(inputs.test, params.encoder, model_config).array
    logits = test_h @ clf.weight.value.array + clf.bias.value.array
    problems += checks.check_probe(
        report, np.argmax(logits, axis=1), inputs.test.labels, model_config.n_classes
    )
    batch = check_batch(w, inputs, seed)
    problems += check_gradients(params, model_config, config, batch, seed)
    problems += check_bounds(seed)
    return problems


# ---------------------------------------------------------------------------
# Runs


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], int, dict]:
    """Run one workload; return (problems found, operations attempted, metrics).

    ``metrics`` maps a name to ``(value, unit)``: the end-to-end figures,
    or with ``trace`` the per-layer ones.  With ``trace``, odd rounds run
    traced and even rounds untraced, to measure what tracing costs, and one
    more untimed pretrain call records the autodiff ops for replay.
    """
    w = WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    config = w.train_config(seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        began = time.perf_counter()
        inputs = set_up(w, seed, Path(scratch))
        times = {"setup": [time.perf_counter() - began], "probe": [], "fuzz": [],
                 "pretrain": [], "pretrain_traced": []}
        model_config = harness.model_config_for(config, inputs.labeled)
        summaries = []
        began = time.perf_counter()
        rounds = 0
        while True:
            traced = tracer is not None and rounds % 2 == 1
            if traced:
                tracer.install()
            try:
                params, probe, summary = _round(
                    w, inputs, config, model_config, seed, Path(scratch), times,
                    tracer if traced else None,
                )
            finally:
                if traced:
                    tracer.restore()
            summaries.append(summary)
            rounds += 1
            elapsed = time.perf_counter() - began
            if (tracer is None or rounds >= 2) and elapsed * (rounds + 1) / rounds > seconds:
                break
    attempted = 1 + rounds * (w.pretrains + PROBES + 1 + w.setups)

    problems = []
    for summary in summaries:
        problems += checks.check_fuzz_summary(summary, w.fuzz_configs)
    problems += check_outputs(w, inputs, params, model_config, config, probe, seed)

    median = {k: statistics.median(v) for k, v in times.items() if v}
    if tracer is None:
        return problems, attempted, {
            "setup_s": (median["setup"], "s"),
            "epoch_s": (median["pretrain"] / w.epochs, "s"),
            "probe_s": (median["probe"], "s"),
            "fuzz_configs_per_s": (w.fuzz_configs / median["fuzz"], "configs/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    with tracing.OpRecorder() as recorder:
        harness.pretrain(config, inputs.labeled, seed=seed)
    replay = tracing.replay_ops(recorder, OP_REPEATS, seed)
    metrics = _layer_metrics(
        w, tracer, replay, summaries[-1], len(times["pretrain_traced"]),
        median["pretrain_traced"] / median["pretrain"],
    )
    problems += checks.check_trace_coverage(
        metrics["harness.epoch_s"][0], metrics["harness.self_s"][0]
    )
    return problems, attempted, metrics


def _round(w, inputs, config, model_config, seed, scratch, times, tracer):
    """``w.pretrains`` pretrains, ``PROBES`` probes, one fuzz sweep and
    ``w.setups`` more set-ups.

    Appends each call's seconds to ``times``; a traced pretrain goes to
    ``pretrain_traced``.  The repeated set-up spreads ``setup_s`` samples
    over the whole run; its result is not used.
    """

    def call(root, fn, *args, **kwargs):
        if tracer:
            result, seconds = tracer.run(root, fn, *args, **kwargs)
        else:
            began = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - began
        times["pretrain_traced" if tracer and root == "pretrain" else root].append(seconds)
        return result

    for _ in range(w.pretrains):
        params, _ = call("pretrain", harness.pretrain, config, inputs.labeled, seed=seed)
    for _ in range(PROBES):
        probe = call(
            "probe", harness.linear_probe, params, model_config, inputs.labeled, inputs.test
        )
    summary = call("fuzz", bounds.fuzz_bounds, configurations=w.fuzz_configs, seed=seed)
    for _ in range(w.setups):
        call("setup", set_up, w, seed, scratch)
    return params, probe, summary


def _layer_metrics(w, tracer, replay, summary, traced_pretrains, overhead):
    """Per-layer figures from the traced rounds.

    ``harness.self_s`` is the traced epoch minus the time of the wrapped
    spans directly under it, so the per-epoch layer figures plus
    ``harness.self_s`` make ``harness.epoch_s`` by construction.
    """
    t = tracer.time_of
    epochs = traced_pretrains * w.epochs
    steps = tracer.calls[("pretrain", "autodiff.backward")]
    probes = tracer.calls[("probe", "probe")]
    setups = tracer.calls[("setup", "setup")]
    configs = tracer.calls[("fuzz", "fuzz")] * w.fuzz_configs

    def per_epoch(name):
        return t("pretrain", name) / epochs

    def per_step(name):
        return t("pretrain", name) / steps

    probe_encode = t("probe", "model.encode") / probes
    evaluate = t("probe", "metrics.evaluate") / probes
    metrics = {
        "augment.weak_s": (per_epoch("augment.weak"), "s/epoch"),
        "augment.strong_s": (per_epoch("augment.strong"), "s/epoch"),
        "model.encode_s": (per_step("model.encode"), "s/step"),
        "model.head_s": (per_step("model.head"), "s/step"),
        "model.classify_s": (per_step("model.classify"), "s/step"),
        "model.rebuild_s": (per_step("model.rebuild"), "s/step"),
        "graph.build_similarity_s": (per_step("graph.build_similarity"), "s/step"),
        "losses.mid_s": (per_step("losses.mid"), "s/step"),
        "losses.id_s": (per_step("losses.id"), "s/step"),
        "losses.cc_s": (per_step("losses.cc"), "s/step"),
        "losses.combined_s": (per_step("losses.combined"), "s/step"),
        "autodiff.backward_s": (per_step("autodiff.backward"), "s/step"),
        "autodiff.nodes_per_step": (tracer.nodes / steps, "count/step"),
        "autodiff.value_mb_per_step": (tracer.value_bytes / steps / 2**20, "MiB/step"),
        "optim.adam_step_s": (per_step("optim.adam_step"), "s/step"),
        "harness.self_s": (t("pretrain", "pretrain", own=True) / epochs, "s/epoch"),
        "harness.epoch_s": (t("pretrain", "pretrain") / epochs, "s/epoch"),
        "trace.overhead": (overhead, "ratio"),
        "probe.encode_s": (probe_encode, "s/probe"),
        "probe.fit_s": (t("probe", "probe") / probes - probe_encode - evaluate, "s/probe"),
        "metrics.evaluate_s": (evaluate, "s/probe"),
    }
    for op in tracing.REPLAYED_OPS:
        fwd, bwd = replay[op]
        metrics[f"autodiff.{op}.fwd_s"] = (fwd, "s/step")
        metrics[f"autodiff.{op}.bwd_s"] = (bwd, "s/step")
    metrics.update({
        "bounds.sc_s": (t("fuzz", "bounds.sc", own=True) / configs, "s/config"),
        "bounds.uc_s": (t("fuzz", "bounds.uc", own=True) / configs, "s/config"),
        "bounds.equality_s": (t("fuzz", "bounds.equality") / configs, "s/config"),
        "bounds.evaluations": (summary.evaluations / w.fuzz_configs, "count/config"),
        "data.generate_s": (t("setup", "data.generate") / setups, "s/setup"),
        "data.save_delimited_s": (t("setup", "data.save_delimited") / setups, "s/setup"),
        "data.load_delimited_s": (t("setup", "data.load_delimited") / setups, "s/setup"),
    })
    return metrics

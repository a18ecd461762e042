"""Training-harness tests: determinism, zero-step training, divergence
handling, linear probing, the ablation lattice, and run-record plumbing."""

import concurrent.futures
import dataclasses
import gc
import json
import multiprocessing
import os
import pickle
import platform
import resource
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from tscl import autodiff as ad
from tscl import harness
from tscl.augment import AugmentParams, TimeSeriesBatch
from tscl.data import SynthSpec, generate, split_labels, stratified_split
from tscl.errors import ParameterError, TrainingDivergedError
from tscl.harness import (
    VARIANTS,
    ClassLossGap,
    EpochStats,
    RunRecord,
    TrainConfig,
    class_loss_csv,
    linear_probe,
    load_run_record,
    model_config_for,
    pretrain,
    run_experiment,
    save_run_record,
    track_class_losses,
)
from tscl.metrics import evaluate
from tscl.model import ClassifierParams, classify, encode, init_model, save_values
from tscl.optim import AdamConfig, adam_step
from tscl.tensor import Tensor2D

IDENTITY_AUGMENT = AugmentParams(
    weak_jitter=0.0, weak_scale=0.0, strong_jitter=0.0, max_segments=1
)


def small_config(**overrides) -> TrainConfig:
    defaults = dict(
        variant="full",
        epochs=2,
        batch_size=16,
        embed_dim=8,
        conv_channels=(4, 8),
        seeds=(0,),
        label_fraction=0.4,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def balanced_data() -> TimeSeriesBatch:
    spec = SynthSpec(class_counts=(30, 30, 30, 30), length=32, channels=1,
                     noise_sigma=0.15, seed=9)
    return generate(spec)


@pytest.fixture(scope="module")
def labeled_split(balanced_data):
    train, test = stratified_split(balanced_data, 0.2, np.random.default_rng(4))
    train = split_labels(train, 0.4, np.random.default_rng(5))
    return train, test


# ---------------------------------------------------------------------------
# Configuration and variants


def test_variant_lattice_members():
    assert set(VARIANTS) == {
        "mlp_id", "mlp_mid", "mlp_mid_id", "gcn_id", "gcn_mid", "gcn_mid_id", "full",
    }
    full = VARIANTS["full"]
    assert (full.head, full.use_mid, full.use_id, full.use_cc) == ("gcn", True, True, True)
    baseline = VARIANTS["mlp_id"]
    assert (baseline.head, baseline.use_mid, baseline.use_id, baseline.use_cc) == (
        "mlp", False, True, False,
    )
    assert all(v.use_mid or v.use_id for v in VARIANTS.values())
    assert not any(v.use_cc for name, v in VARIANTS.items() if name != "full")


def test_projection_parameter_counts_match_across_heads(balanced_data):
    mlp = init_model(
        model_config_for(small_config(variant="mlp_id"), balanced_data),
        np.random.default_rng(0),
    )
    gcn = init_model(
        model_config_for(small_config(variant="gcn_id"), balanced_data),
        np.random.default_rng(0),
    )
    sizes = [
        sum(node.array.size for node in params.projection.named().values())
        for params in (mlp, gcn)
    ]
    assert sizes[0] == sizes[1]


def test_config_validation():
    with pytest.raises(ParameterError, match="unknown variant"):
        TrainConfig(variant="resnet")
    with pytest.raises(ParameterError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterError, match="batch size"):
        TrainConfig(batch_size=1)
    with pytest.raises(ParameterError, match="seeds"):
        TrainConfig(seeds=())
    with pytest.raises(ParameterError, match="nonnegative"):
        TrainConfig(lr=-1.0)
    with pytest.raises(ParameterError, match="label fraction"):
        TrainConfig(label_fraction=0.0)


@pytest.mark.parametrize(
    "name", ["lr", "weight_decay", "temperature", "lambda_graph", "lambda_cls"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_rates_and_loss_settings(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize(
    "name",
    ["lr", "weight_decay", "beta1", "beta2", "eps", "temperature", "lambda_graph",
     "lambda_cls", "label_fraction"],
)
@pytest.mark.parametrize("value", [True, False, "0.1", [0.1]])
def test_config_float_fields_reject_bools_and_non_numbers(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be a number, got "):
        TrainConfig(**{name: value})
    with pytest.raises(ParameterError, match="weak_scale must be a number, got "):
        AugmentParams(weak_scale=value)


@pytest.mark.parametrize(
    "name, value",
    [("eps", 0.0), ("eps", float("nan")), ("beta1", 1.0), ("beta1", -0.1),
     ("beta2", float("nan"))],
)
def test_config_rejects_bad_adam_settings(name, value):
    with pytest.raises(ParameterError):
        TrainConfig(**{name: value})


def test_config_dict_round_trip():
    config = small_config(augment=AugmentParams(weak_jitter=0.02), seeds=(3, 4))
    assert TrainConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ParameterError, match="unknown config fields"):
        TrainConfig.from_dict({"momentum": 0.9})


def test_model_config_inference(balanced_data):
    mc = model_config_for(small_config(variant="mlp_id"), balanced_data)
    assert mc.n_classes == 4
    assert mc.in_channels == balanced_data.channels
    assert mc.length == balanced_data.length


# ---------------------------------------------------------------------------
# Pretraining behavior


def test_zero_lr_identity_augment_keeps_parameters_and_losses(labeled_split):
    # One full batch per epoch: the contrastive losses depend on batch
    # composition, so constant-loss checks need the shuffle to act only as
    # a within-batch permutation (which the losses are invariant to).
    train, _ = labeled_split
    config = small_config(
        epochs=3, lr=0.0, weight_decay=0.0, augment=IDENTITY_AUGMENT, variant="full",
        batch_size=train.n,
    )
    before = init_model(
        model_config_for(config, train),
        np.random.default_rng(np.random.SeedSequence(0).spawn(2)[0]),
    )
    params, record = pretrain(config, train, seed=0)
    for name, node in params.named().items():
        np.testing.assert_array_equal(
            node.value.array, before.named()[name].value.array
        )
    losses = [s.combined for s in record.epoch_stats]
    assert max(losses) - min(losses) < 1e-9


def test_loss_decreases_over_training(labeled_split):
    train, _ = labeled_split
    config = small_config(variant="mlp_id", epochs=12, lr=3e-3)
    for seed in range(3):
        _, record = pretrain(config, train, seed=seed)
        assert record.epoch_stats[-1].combined < record.epoch_stats[0].combined


def test_rerun_is_bit_identical(labeled_split):
    train, _ = labeled_split
    config = small_config()
    params1, record1 = pretrain(config, train, seed=2)
    params2, record2 = pretrain(config, train, seed=2)
    assert record1.to_json() == record2.to_json()
    for name, node in params1.named().items():
        np.testing.assert_array_equal(
            node.value.array, params2.named()[name].value.array
        )


def test_record_history_matches_epochs(labeled_split):
    train, _ = labeled_split
    config = small_config(epochs=4)
    _, record = pretrain(config, train, seed=0)
    assert len(record.epoch_stats) == 4
    assert [s.epoch for s in record.epoch_stats] == [1, 2, 3, 4]
    assert record.seed == 0
    assert record.variant == "full"
    assert record.final_metrics is None
    for stat in record.epoch_stats:
        assert set(stat.class_mean_loss) == {0, 1, 2, 3}
        assert set(stat.components) == {"MID", "ID", "CC_h", "CC_z"}


def test_component_gating_follows_variant(labeled_split):
    train, _ = labeled_split
    expectations = {
        "mlp_id": {"ID"},
        "gcn_mid": {"MID"},
        "gcn_mid_id": {"MID", "ID"},
        "full": {"MID", "ID", "CC_h", "CC_z"},
    }
    for variant, active in expectations.items():
        _, record = pretrain(small_config(variant=variant, epochs=1), train, seed=0)
        components = record.epoch_stats[0].components
        for name, value in components.items():
            if name in active:
                assert value > 0.0, f"{variant}: {name} should be active"
            else:
                assert value == 0.0, f"{variant}: {name} should be disabled"


def test_divergence_aborts_with_last_good_epoch():
    data = generate(
        SynthSpec(class_counts=(12, 12), length=16, channels=1, noise_sigma=0.05, seed=0)
    )
    config = TrainConfig(
        variant="mlp_id", epochs=3, batch_size=8, embed_dim=4, conv_channels=(4,),
        lr=1e80, weight_decay=0.0, seeds=(1,),
    )
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError) as excinfo:
            pretrain(config, data, seed=1)
    assert excinfo.value.last_good_epoch == 0
    assert "epoch 1" in str(excinfo.value)
    # A worker process hands the exception back pickled.
    copy = pickle.loads(pickle.dumps(excinfo.value))
    assert type(copy) is TrainingDivergedError
    assert (str(copy), copy.last_good_epoch) == (str(excinfo.value), 0)


def _three_step_epochs():
    """Data and config for 3-epoch training with 3 steps per epoch."""
    data = generate(
        SynthSpec(class_counts=(12, 12), length=16, channels=1, noise_sigma=0.05, seed=0)
    )
    config = TrainConfig(
        variant="full", epochs=3, batch_size=8, embed_dim=4, conv_channels=(4,),
        seeds=(1,),
    )
    return data, config


def test_each_step_graph_is_released_before_the_next_forward(monkeypatch):
    # When step k+1 builds its similarity graph, step k's combined-loss node
    # and its n x n adjacency must already be unreachable, so two step graphs
    # are never alive at once.  Node values stand in for their nodes, which
    # take no weak references; with gc off only reference counting frees them.
    data, config = _three_step_epochs()
    real_similarity, real_combined = harness.build_similarity, harness.loss_combined
    refs, alive = [], []

    def similarity(h, temperature):
        alive.extend(i for i, ref in enumerate(refs) if ref() is not None)
        sim = real_similarity(h, temperature)
        refs.append(weakref.ref(sim.array))
        return sim

    def combined(*args, **kwargs):
        report = real_combined(*args, **kwargs)
        refs.append(weakref.ref(report.node.array))
        return report

    monkeypatch.setattr(harness, "build_similarity", similarity)
    monkeypatch.setattr(harness, "loss_combined", combined)
    gc.disable()
    try:
        pretrain(config, data, seed=1)
    finally:
        gc.enable()
    assert len(refs) == 2 * 9  # 3 epochs of 3 steps
    assert alive == []


def _repeat_training_faults() -> int:
    """Minor page faults of the second of two identical ``pretrain`` calls."""
    data = split_labels(
        generate(SynthSpec(class_counts=(120, 80), length=64, seed=4)),
        0.3,
        np.random.default_rng(0),
    )
    config = TrainConfig(variant="full", epochs=2, batch_size=96, seeds=(0,))
    pretrain(config, data)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pretrain(config, data)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap policy is set through glibc")
def test_repeat_training_reuses_freed_heap_pages():
    # Each step frees its graph.  A heap that handed those pages back to the
    # OS would fault about 14k of them in again during the second call.  The
    # calls run in a fresh spawned process: in this one, an earlier fork
    # leaves pages copy-on-write, and writing them faults whatever the heap
    # policy.
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        faults = pool.submit(_repeat_training_faults).result()
    assert faults < 1000


def _track_params(monkeypatch) -> dict:
    """Make ``current["params"]`` follow the parameters ``pretrain`` holds."""
    current = {}

    def keep(fn):
        def wrapped(*args, **kwargs):
            current["params"] = fn(*args, **kwargs)
            return current["params"]
        return wrapped

    monkeypatch.setattr(harness, "init_model", keep(harness.init_model))
    monkeypatch.setattr(harness, "rebuild_with_values", keep(harness.rebuild_with_values))
    return current


def test_non_finite_gradient_aborts_naming_the_parameter(monkeypatch):
    data, config = _three_step_epochs()
    current = _track_params(monkeypatch)
    real_backward = harness.ad.backward
    calls = []

    def poisoned_backward(node):
        real_backward(node)
        calls.append(node)
        if len(calls) == 4:  # the first step of epoch 2
            leaf = current["params"].encoder.conv_weights[0]
            leaf.grad = np.where(leaf.grad > 0, np.nan, leaf.grad)

    monkeypatch.setattr(harness.ad, "backward", poisoned_backward)
    with pytest.raises(TrainingDivergedError) as excinfo:
        pretrain(config, data, seed=1)
    assert excinfo.value.last_good_epoch == 1
    assert str(excinfo.value) == "non-finite gradient of encoder.conv0.weight in epoch 2"


def test_non_finite_value_after_adam_aborts_naming_the_parameter(monkeypatch):
    data, config = _three_step_epochs()
    current = _track_params(monkeypatch)
    real_step = harness.adam_step

    def poisoned_step(adam_config, step, value, *rest):
        # The value passed in is a copy of the parameter's current value.
        is_w2 = np.array_equal(value, current["params"].projection.w2.value.array)
        real_step(adam_config, step, value, *rest)
        if step == 8 and is_w2:  # the second step of epoch 3
            value[0, 0] = np.inf

    monkeypatch.setattr(harness, "adam_step", poisoned_step)
    with pytest.raises(TrainingDivergedError) as excinfo:
        pretrain(config, data, seed=1)
    assert excinfo.value.last_good_epoch == 2
    assert str(excinfo.value) == "non-finite value of projection.w2 in epoch 3"


@pytest.mark.parametrize("variant", ["mlp_mid", "gcn_mid"])
def test_parameters_without_a_gradient_keep_their_initial_values(variant):
    # Without the ID and CC terms neither the projection nor the classifier
    # receives a gradient, so Adam must leave them alone: an update with a
    # zero gradient would still apply weight decay.
    data, _ = _three_step_epochs()
    config = small_config(variant=variant, epochs=2, batch_size=8, embed_dim=4,
                          conv_channels=(4,))
    initial = init_model(
        model_config_for(config, data),
        np.random.default_rng(np.random.SeedSequence(1).spawn(2)[0]),
    ).values()
    trained = pretrain(config, data, seed=1)[0].values()
    untouched = ("projection.w1", "projection.w2", "classifier.weight", "classifier.bias")
    for name, value in initial.items():
        same = trained[name].array.tobytes() == value.array.tobytes()
        assert same == (name in untouched), name


def test_dead_graph_head_is_reported_as_divergence():
    # Criterion 8's data and settings on generator and run seed 202: at the
    # first step every hidden unit of the graph head's ReLU is zero on every
    # row, so the head's output rows cannot be normalized.
    spec = SynthSpec(class_counts=(30, 20, 10), length=32, channels=1, seed=202)
    train, _ = stratified_split(
        generate(spec), 0.2, np.random.default_rng(np.random.SeedSequence([202, 1]))
    )
    labeled = split_labels(train, 0.30, np.random.default_rng(np.random.SeedSequence([202, 7])))
    config = TrainConfig(variant="full", epochs=2, batch_size=16, embed_dim=8,
                         label_fraction=0.3, seeds=(202,))
    with pytest.raises(TrainingDivergedError) as excinfo:
        pretrain(config, labeled, seed=202)
    assert excinfo.value.last_good_epoch == 0
    assert str(excinfo.value) == (
        "degenerate forward pass in epoch 1, batch 1: zero-norm row at index 0"
    )


def test_single_leftover_sample_is_dropped():
    data = generate(
        SynthSpec(class_counts=(3, 2), length=16, channels=1, noise_sigma=0.1, seed=2)
    )
    config = TrainConfig(
        variant="mlp_id", epochs=1, batch_size=4, embed_dim=4, conv_channels=(4,),
        seeds=(0,),
    )
    _, record = pretrain(config, data, seed=0)
    assert len(record.epoch_stats) == 1


def test_dataset_preconditions():
    data = generate(
        SynthSpec(class_counts=(4, 4), length=16, channels=1, noise_sigma=0.1, seed=0)
    )
    with pytest.raises(ParameterError, match="exceeds dataset size"):
        pretrain(small_config(batch_size=64), data)


# ---------------------------------------------------------------------------
# Linear probe


def _autodiff_probe(params, model_config, train, test, epochs, lr):
    """Reference fit that builds and differentiates one autodiff graph per
    epoch; the graph-free ``linear_probe`` must match it bit for bit."""
    labeled = np.flatnonzero(train.label_mask)
    features = ad.constant(encode(train.take(labeled), params.encoder, model_config).array)
    labels = train.labels[labeled]
    n_classes = model_config.n_classes
    clf = ClassifierParams(
        weight=ad.leaf(Tensor2D.zeros(model_config.embed_dim, n_classes)),
        bias=ad.leaf(Tensor2D.zeros(1, n_classes)),
    )
    adam_config = AdamConfig(lr=lr)
    moments = {name: (np.zeros(node.shape), np.zeros(node.shape))
               for name, node in clf.named().items()}
    for step in range(1, epochs + 1):
        ad.backward(ad.mean(ad.cross_entropy_with_logits(classify(features, clf), labels)))
        new_values = {}
        for name, node in clf.named().items():
            x = node.value.array.copy()
            adam_step(adam_config, step, x, node.grad, *moments[name])
            new_values[name] = Tensor2D(x)
        clf = ClassifierParams(
            weight=ad.leaf(new_values["classifier.weight"]),
            bias=ad.leaf(new_values["classifier.bias"]),
        )
    test_h = encode(test, params.encoder, model_config)
    predictions = np.argmax(classify(ad.constant(test_h.array), clf).array, axis=1)
    return clf, evaluate(test.labels, predictions, n_classes)


@pytest.fixture(scope="module")
def probe_cases(labeled_split):
    """(params, model config, train, test) for three probe set-ups: four
    balanced classes, the same with class 3 unlabeled, and a three-class
    imbalanced set with a single labeled row."""
    train, test = labeled_split
    mc = model_config_for(small_config(variant="mlp_id"), train)
    imbalanced = generate(
        SynthSpec(class_counts=(30, 20, 10), length=32, channels=1, seed=5)
    )
    im_train, im_test = stratified_split(imbalanced, 0.2, np.random.default_rng(6))
    single = np.zeros(im_train.n, dtype=bool)
    single[7] = True
    im_mc = model_config_for(small_config(variant="mlp_id", embed_dim=32), im_train)
    return {
        "balanced": (init_model(mc, np.random.default_rng(8)), mc, train, test),
        "class_absent": (
            init_model(mc, np.random.default_rng(9)),
            mc,
            train.with_mask(train.label_mask & (train.labels != 3)),
            test,
        ),
        "single_row": (
            init_model(im_mc, np.random.default_rng(10)), im_mc, im_train.with_mask(single),
            im_test,
        ),
    }


@pytest.mark.parametrize("lr", [1e-2, 0.05])
@pytest.mark.parametrize("epochs", [1, 7, 200])
@pytest.mark.parametrize("case", ["balanced", "class_absent", "single_row"])
def test_probe_matches_autodiff_reference_bit_for_bit(probe_cases, case, epochs, lr):
    params, mc, train, test = probe_cases[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the class_absent case warns
        clf, report = linear_probe(params, mc, train, test, epochs=epochs, lr=lr)
    ref_clf, ref_report = _autodiff_probe(params, mc, train, test, epochs, lr)
    assert clf.weight.value.array.tobytes() == ref_clf.weight.value.array.tobytes()
    assert clf.bias.value.array.tobytes() == ref_clf.bias.value.array.tobytes()
    assert json.dumps(report.to_dict()) == json.dumps(ref_report.to_dict())


def test_probe_fit_builds_no_graph(probe_cases, monkeypatch):
    # Encoding and the final test logits build nodes; the fit loop must
    # not, so the count cannot depend on the number of epochs.
    params, mc, train, test = probe_cases["balanced"]
    created = []
    real_init = ad.DiffNode.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ad.DiffNode, "__init__", counting_init)
    counts = []
    for epochs in (1, 30):
        created.clear()
        linear_probe(params, mc, train, test, epochs=epochs)
        counts.append(len(created))
    assert counts[0] == counts[1] > 0


def test_probe_perfectly_separable_data_scores_one():
    # Zero noise collapses each class onto a single template, so even an
    # untrained encoder maps each class to one point and a linear head
    # separates them exactly.
    data = generate(
        SynthSpec(class_counts=(20, 20), length=32, channels=1, noise_sigma=0.0, seed=6)
    )
    train, test = stratified_split(data, 0.25, np.random.default_rng(0))
    train = split_labels(train, 0.5, np.random.default_rng(1))
    config = small_config(variant="mlp_id")
    mc = model_config_for(config, train)
    params = init_model(mc, np.random.default_rng(3))
    _, report = linear_probe(params, mc, train, test, epochs=300, lr=0.05)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0


def test_probe_random_labels_scores_chance_level():
    # Labels carry no information about the series, so accuracy over a few
    # seeds must hover around 1/C = 0.25.
    accuracies = []
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        n_train, n_test, width = 240, 400, 32
        train = TimeSeriesBatch(
            values=rng.standard_normal((n_train, width)),
            labels=rng.integers(0, 4, n_train),
            label_mask=np.ones(n_train, dtype=bool),
            channels=1,
            length=width,
        )
        test = TimeSeriesBatch(
            values=rng.standard_normal((n_test, width)),
            labels=rng.integers(0, 4, n_test),
            label_mask=np.ones(n_test, dtype=bool),
            channels=1,
            length=width,
        )
        config = small_config(variant="mlp_id", embed_dim=8)
        mc = dataclasses.replace(model_config_for(config, train), n_classes=4)
        params = init_model(mc, np.random.default_rng(seed))
        _, report = linear_probe(params, mc, train, test, epochs=100, lr=0.02)
        accuracies.append(report.accuracy)
    assert abs(float(np.mean(accuracies)) - 0.25) < 0.05


def test_probe_never_touches_encoder_bytes(labeled_split, tmp_path):
    train, test = labeled_split
    config = small_config(variant="mlp_id")
    mc = model_config_for(config, train)
    params = init_model(mc, np.random.default_rng(8))
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    save_values({n: node.array for n, node in params.named().items()}, before)
    linear_probe(params, mc, train, test, epochs=20, lr=0.05)
    save_values({n: node.array for n, node in params.named().items()}, after)
    assert before.read_bytes() == after.read_bytes()


def test_probe_warns_when_class_has_no_labeled_rows(labeled_split):
    train, test = labeled_split
    config = small_config(variant="mlp_id")
    mc = model_config_for(config, train)
    params = init_model(mc, np.random.default_rng(8))
    masked = train.with_mask(train.label_mask & (train.labels != 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        linear_probe(params, mc, masked, test, epochs=5, lr=0.05)
    assert len(caught) == 1
    assert "absent" in str(caught[0].message)
    assert "[3]" in str(caught[0].message)


def test_probe_requires_labels_and_eval_data(labeled_split):
    train, test = labeled_split
    config = small_config(variant="mlp_id")
    mc = model_config_for(config, train)
    params = init_model(mc, np.random.default_rng(8))
    unlabeled = train.with_mask(np.zeros(train.n, dtype=bool))
    with pytest.raises(ParameterError, match="labeled"):
        linear_probe(params, mc, unlabeled, test)
    with pytest.raises(ParameterError, match="epochs"):
        linear_probe(params, mc, train, test, epochs=0)
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="positive and finite"):
            linear_probe(params, mc, train, test, lr=lr)


def test_run_experiment_fills_final_metrics(labeled_split):
    train, test = labeled_split
    config = small_config(variant="mlp_id", epochs=2)
    _, record = run_experiment(config, train, test, seed=0, probe_epochs=50)
    assert record.final_metrics is not None
    assert 0.0 <= record.final_metrics["accuracy"] <= 1.0
    assert record.final_metrics["metric_scale"] == "fraction"
    assert set(record.final_metrics["per_class"]) == {"0", "1", "2", "3"}


# ---------------------------------------------------------------------------
# Seed runner

_PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _thread_pools(monkeypatch, cores: int) -> list[int]:
    """Pretend this process may use ``cores`` cores and make the runner's
    pools thread pools; returns the worker count of each pool it opens."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    sizes = []

    class ThreadPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPool)
    return sizes


# No real pool starts here, so a huge ``jobs`` value costs nothing even if the
# cap were wrong.
@pytest.mark.parametrize(
    "jobs, cores, n_calls, pools",
    [
        (1, 4, 3, []),  # one job: in this process
        (10**6, 1, 3, []),  # one usable core: in this process
        (10**6, 4, 1, []),  # one call: in this process
        (10**6, 4, 3, [3]),  # capped by the calls
        (10**6, 2, 5, [2]),  # capped by the cores
        (3, 8, 5, [3]),  # capped by jobs
    ],
)
def test_run_seeds_worker_count(monkeypatch, jobs, cores, n_calls, pools):
    sizes = _thread_pools(monkeypatch, cores)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    environ = dict(os.environ)
    main = threading.get_ident()

    def call(i):
        return i, threading.get_ident(), [os.environ.get(name) for name in _PINNED]

    results = harness.run_seeds(call, [(i,) for i in range(n_calls)], jobs)
    assert sizes == pools
    assert [i for i, _, _ in results] == list(range(n_calls))
    for _, thread, seen in results:
        if pools:  # workers start with BLAS on one thread
            assert thread != main and seen == ["1", "1", "1"]
        else:
            assert thread == main and seen == [environ.get(name) for name in _PINNED]
    assert dict(os.environ) == environ


def test_run_seeds_first_failure_cancels_calls_not_started(monkeypatch):
    _thread_pools(monkeypatch, cores=2)
    started = []

    def call(i):
        started.append(i)
        if i == 1:
            raise ValueError("call 1 failed")
        time.sleep(0.2)
        return i

    with pytest.raises(ValueError, match="call 1 failed"):
        harness.run_seeds(call, [(i,) for i in range(10)], jobs=2)
    assert 9 not in started


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable core runs in-process")
def test_run_seeds_spawned_workers_run_blas_on_one_thread():
    environ = dict(os.environ)
    assert harness.run_seeds(os.getenv, [(name,) for name in _PINNED], jobs=2) == ["1"] * 3
    assert dict(os.environ) == environ
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Records, tracking, serialization


def _toy_record() -> RunRecord:
    stats = tuple(
        EpochStats(
            epoch=e,
            combined=3.0 - 0.1 * e,
            components={"ID": 3.0 - 0.1 * e},
            class_mean_loss={0: 3.0 - 0.05 * e, 1: 2.9 - 0.1 * e, 3: 2.8 - 0.2 * e},
        )
        for e in (1, 2, 3)
    )
    return RunRecord(seed=5, variant="mlp_id", config={"epochs": 3}, epoch_stats=stats)


def test_track_class_losses_defaults_to_extreme_classes():
    gaps = track_class_losses(_toy_record())
    assert [g.epoch for g in gaps] == [1, 2, 3]
    # Majority is the smallest class index, minority the largest.
    assert gaps[0].majority_mean == pytest.approx(2.95)
    assert gaps[0].minority_mean == pytest.approx(2.6)
    assert gaps[0].gap == pytest.approx(2.95 - 2.6)


def test_track_class_losses_validates_classes():
    record = _toy_record()
    last = record.epoch_stats[-1]
    without_minority = dataclasses.replace(
        last, class_mean_loss={y: v for y, v in last.class_mean_loss.items() if y != 3}
    )
    record = dataclasses.replace(record, epoch_stats=(*record.epoch_stats[:-1], without_minority))
    with pytest.raises(ParameterError, match="epoch 3 lacks a mean loss for class 3"):
        track_class_losses(record)
    empty = RunRecord(seed=0, variant="mlp_id", config={}, epoch_stats=())
    with pytest.raises(ParameterError, match="no epoch statistics"):
        track_class_losses(empty)


def test_class_loss_csv_layout():
    text = class_loss_csv(_toy_record())
    lines = text.split("\r\n")
    assert lines[0] == "epoch,class,mean_loss"
    assert lines[1] == f"1,0,{2.95!r}"
    # 3 epochs x 3 classes plus header and the trailing newline split.
    assert len([l for l in lines if l]) == 10


def test_run_record_json_round_trip(tmp_path):
    record = _toy_record().with_metrics({"accuracy": 0.5, "macro_f1": 0.4})
    path = tmp_path / "record.json"
    save_run_record(record, str(path))
    loaded = load_run_record(str(path))
    assert loaded == record
    assert loaded.to_json() == record.to_json()
    parsed = json.loads(path.read_text())
    assert parsed["metric_scale"] == "fraction"

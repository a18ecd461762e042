"""Show that each correctness check of the benchmark rejects a wrong input.

    python3 bench/selftest.py

Every check is run twice: on a correct input, where it must pass, and on a
deliberately wrong one, where it must fail.  Exits 1 if any check does not
behave so.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

from run import prepare


def _perturbed(op, scale: float, delta: float):
    """Wrap an autodiff op: shift its value by ``delta`` at entry (0, 0), or
    scale the gradient it sends to its parents by ``scale``."""
    from tscl import autodiff
    from tscl.tensor import Tensor2D

    def wrapped(*args, **kwargs):
        node = op(*args, **kwargs)
        value = node.array.copy()
        value[0, 0] += delta
        parents = [(p, lambda g, pull=pull: scale * pull(g)) for p, pull in node.parents]
        return autodiff.DiffNode(Tensor2D(value), parents=parents, op=node.op)

    return wrapped


def main() -> int:
    if not prepare():
        return 2

    import numpy as np

    import checks
    import tracing
    import workloads
    from tscl import autodiff, bounds, harness, losses, metrics, model

    results = []

    def expect(name: str, good: list[str], bad: list[str]) -> None:
        ok = not good and bool(bad)
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: correct input -> {good or 'pass'}; "
              f"wrong input -> {bad[:1] or 'pass'}")

    w = workloads.WORKLOADS["bound_fuzz"]
    config = w.train_config(0)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as scratch:
        inputs = workloads.set_up(w, 0, Path(scratch))
    model_config = harness.model_config_for(config, inputs.labeled)
    params = model.init_model(model_config, np.random.default_rng(0))
    rows = inputs.test.values[:4]
    batch = workloads.check_batch(w, inputs, 0)

    good = workloads.check_encoder(params, model_config, rows)
    original = autodiff.conv1d
    autodiff.conv1d = _perturbed(original, 1.0, 1e-6)
    try:
        bad = workloads.check_encoder(params, model_config, rows)
    finally:
        autodiff.conv1d = original
    expect("encoder vs naive reference, conv output shifted by 1e-6", good, bad)

    good = workloads.check_gradients(params, model_config, config, batch, 0)
    original = autodiff.relu
    autodiff.relu = _perturbed(original, 1.001, 0.0)
    try:
        bad = workloads.check_gradients(params, model_config, config, batch, 0)
    finally:
        autodiff.relu = original
    expect("gradients vs central differences, ReLU pullback scaled by 1.001", good, bad)

    labels = np.array([0] * 10 + [1] * 6 + [2] * 4)
    predictions = labels.copy()
    predictions[[0, 11]] = [1, 2]
    report = metrics.evaluate(labels, predictions, 3)
    flipped = predictions.copy()
    flipped[5] = 2
    expect(
        "probe scores vs recount, one prediction flipped",
        checks.check_probe(report, predictions, labels, 3),
        checks.check_probe(report, flipped, labels, 3),
    )
    majority = metrics.evaluate(labels, np.zeros_like(labels), 3)
    expect(
        "probe beats all-majority, all-majority predictor",
        checks.check_probe(report, predictions, labels, 3),
        checks.check_probe(majority, np.zeros_like(labels), labels, 3),
    )

    rng = np.random.default_rng(1)
    idx = losses.two_view_indexing(np.array([0, 0, 1, 2, 1]))
    z = rng.standard_normal((10, 4))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    sims = z @ z.T
    for kind, evaluator in (("supervised", bounds.bound_sc_from_sims),
                            ("instance", bounds.bound_uc_from_sims)):
        report = evaluator(sims, idx, 0, temperature=0.5)
        expected = checks.anchor_loop(sims, idx.labels, idx.partner, 0, 0.5, kind)
        shifted = dataclasses.replace(report, anchors=tuple(
            dataclasses.replace(a, bound_value=a.actual_value + 1e-3) for a in report.anchors
        ))
        expect(
            f"{kind} bound vs per-anchor loop, bound shifted above the loss",
            checks.check_bound_report(report, expected),
            checks.check_bound_report(shifted, expected),
        )

    summary = bounds.fuzz_bounds(configurations=20, seed=0)
    expect(
        "fuzz summary, one violation",
        checks.check_fuzz_summary(summary, 20),
        checks.check_fuzz_summary(dataclasses.replace(summary, violations=1), 20),
    )

    nudged = inputs.test.values.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    expect(
        "delimited round trip, one value one ulp off",
        checks.check_round_trip(inputs.test, inputs.test),
        checks.check_round_trip(inputs.test, inputs.test.with_values(nudged)),
    )

    def coverage(skip: tuple[str, ...]) -> list[str]:
        tracer = tracing.Tracer(skip=skip)
        tracer.install()
        try:
            tracer.run("pretrain", harness.pretrain, config, inputs.labeled, seed=0)
        finally:
            tracer.restore()
        return checks.check_trace_coverage(
            tracer.time_of("pretrain", "pretrain"),
            tracer.time_of("pretrain", "pretrain", own=True),
        )

    expect(
        "traced layers cover the epoch, model.encode left unwrapped",
        coverage(()),
        coverage(("model.encode",)),
    )

    print(f"{sum(results)}/{len(results)} checks reject their wrong input")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks, each against a computation made apart from the program
or against a property the method must have.

Every check returns a list of problems; an empty list means it passed.
None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

FD_TOLERANCE = 1e-4
GRAD_FLOOR = 1e-4  # gradient size below which the error is judged absolutely
# A kink whose one-sided differences part by less than this moves the central
# difference by less than FD_TOLERANCE.
KINK_TOLERANCE = 2 * FD_TOLERANCE
ENCODER_TOLERANCE = 1e-9
SLACK_FLOOR = -1e-9
SELF_SHARE_LIMIT = 0.15  # of the traced epoch, for pretrain work outside every span


def reference_encode(values: dict[str, np.ndarray], model_config, x: np.ndarray) -> np.ndarray:
    """Naive encoder: per-position same-padded conv, ReLU, window max, linear.

    Weights use the program's channel-major layout: conv weight ``(c_out,
    c_in * k)`` with column ``ch * k + j`` multiplying input channel ``ch``
    at offset ``j - (k - 1) // 2``.
    """
    blocks = len(model_config.channel_plan)
    width = model_config.pool_width
    out = np.empty((x.shape[0], model_config.embed_dim))
    for row in range(x.shape[0]):
        cur = x[row].reshape(model_config.in_channels, model_config.length)
        for block in range(blocks):
            w = values[f"encoder.conv{block}.weight"]
            b = values[f"encoder.conv{block}.bias"][0]
            c_in, length = cur.shape
            k = w.shape[1] // c_in
            left = (k - 1) // 2
            padded = np.zeros((c_in, length + k - 1))
            padded[:, left : left + length] = cur
            conv = np.empty((w.shape[0], length))
            for t in range(length):
                conv[:, t] = w @ padded[:, t : t + k].reshape(-1) + b
            relu = np.maximum(conv, 0.0)
            pooled = [
                relu[:, s : s + width].max(axis=1) for s in range(0, length, width)
            ]
            cur = np.stack(pooled, axis=1)
        out[row] = cur.reshape(-1) @ values["encoder.linear.weight"] + values[
            "encoder.linear.bias"
        ][0]
    return out


def check_encoder(program_out: np.ndarray, reference_out: np.ndarray) -> list[str]:
    scale = max(float(np.abs(reference_out).max()), 1e-12)
    err = float(np.abs(program_out - reference_out).max()) / scale
    if not err < ENCODER_TOLERANCE:
        return [f"encoder output differs from the naive reference by {err:.3e} (relative)"]
    return []


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest per-entry relative error.  Entries smaller than ``GRAD_FLOOR``
    are measured against it, where central differences carry round-off."""
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), GRAD_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / scale))


def on_kink(forward: float, backward: float) -> bool:
    """One-sided differences that disagree by more than ``KINK_TOLERANCE``
    (relative, floored as in ``relative_error``) straddle a kink."""
    scale = max(abs(forward), abs(backward), GRAD_FLOOR)
    return abs(forward - backward) / scale > KINK_TOLERANCE


def check_gradients(analytic: np.ndarray, numeric: np.ndarray) -> list[str]:
    err = relative_error(analytic, numeric)
    if not err < FD_TOLERANCE:
        return [f"autodiff gradients differ from central differences by {err:.3e}"]
    return []


def check_round_trip(original, loaded) -> list[str]:
    """A delimited write then read reproduces values and labels bit for bit."""
    if not (
        np.array_equal(original.values, loaded.values)
        and np.array_equal(original.labels, loaded.labels)
    ):
        return ["save_delimited/load_delimited round trip changed the data"]
    return []


def macro_f1(labels: np.ndarray, predictions: np.ndarray, n_classes: int) -> float:
    """Mean over classes of 2tp / (2tp + fp + fn), 0 for a class never seen."""
    total = 0.0
    for y in range(n_classes):
        tp = fp = fn = 0
        for t, p in zip(labels.tolist(), predictions.tolist()):
            tp += t == y and p == y
            fp += t != y and p == y
            fn += t == y and p != y
        if 2 * tp + fp + fn:
            total += 2 * tp / (2 * tp + fp + fn)
    return total / n_classes


def check_probe(report, predictions: np.ndarray, labels: np.ndarray, n_classes: int) -> list[str]:
    """The report's scores recounted from its predictions; beats all-majority."""
    problems = []
    accuracy = sum(int(t == p) for t, p in zip(labels.tolist(), predictions.tolist()))
    accuracy /= len(labels)
    f1 = macro_f1(labels, predictions, n_classes)
    if abs(report.accuracy - accuracy) > 1e-12:
        problems.append(f"probe accuracy {report.accuracy} but recount gives {accuracy}")
    if abs(report.macro_f1 - f1) > 1e-12:
        problems.append(f"probe macro-F1 {report.macro_f1} but recount gives {f1}")
    majority = np.bincount(labels, minlength=n_classes).argmax()
    baseline = macro_f1(labels, np.full_like(labels, majority), n_classes)
    if not report.macro_f1 > baseline:
        problems.append(
            f"probe macro-F1 {report.macro_f1} does not beat all-majority {baseline}"
        )
    return problems


def check_fuzz_summary(summary, configurations: int) -> list[str]:
    problems = []
    if summary.configurations != configurations or summary.evaluations < 1:
        problems.append(
            f"fuzz swept {summary.configurations} configurations with "
            f"{summary.evaluations} evaluations, expected {configurations}"
        )
    if summary.violations != 0 or not summary.worst_slack >= SLACK_FLOOR:
        problems.append(
            f"fuzz found {summary.violations} violations, worst slack {summary.worst_slack}"
        )
    return problems


def _logsumexp(values: list[float]) -> float:
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


def anchor_loop(sims: np.ndarray, labels: np.ndarray, partner: np.ndarray,
                class_index: int, temperature: float, kind: str) -> list[tuple[int, float, float]]:
    """Per-anchor (index, loss, Jensen bound) computed one anchor at a time.

    For anchor i with same-class peers P and other-class rows A, the loss
    is log sum_{k != i} exp(s_ik / t) minus the mean over P of s_ip / t
    (``supervised``) or minus s_i,partner / t (``instance``).  Jensen on
    each pool gives the bound.
    """
    n = len(labels)
    out = []
    for i in range(n):
        if labels[i] != class_index:
            continue
        s = [sims[i, k] / temperature for k in range(n)]
        same = [s[k] for k in range(n) if k != i and labels[k] == class_index]
        other = [s[k] for k in range(n) if labels[k] != class_index]
        lse = _logsumexp([s[k] for k in range(n) if k != i])
        mean_same = sum(same) / len(same)
        mean_other = sum(other) / len(other)
        if kind == "supervised":
            loss = lse - mean_same
            bound = math.log(len(same) + len(other) * math.exp(mean_other - mean_same))
        else:
            positive = s[partner[i]]
            loss = lse - positive
            bound = math.log(
                len(same) * math.exp(mean_same - positive)
                + len(other) * math.exp(mean_other - positive)
            )
        out.append((i, loss, bound))
    return out


def check_bound_report(report, expected: list[tuple[int, float, float]]) -> list[str]:
    """The report agrees with the per-anchor loop and no loss is below its bound."""
    problems = []
    got = [(a.index, a.actual_value, a.bound_value) for a in report.anchors]
    if [g[0] for g in got] != [e[0] for e in expected]:
        return [f"{report.kind} bound of class {report.class_index}: anchors differ"]
    for (i, loss, bound), (_, want_loss, want_bound) in zip(got, expected):
        if not (
            math.isclose(loss, want_loss, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(bound, want_bound, rel_tol=1e-9, abs_tol=1e-12)
        ):
            problems.append(
                f"{report.kind} bound, class {report.class_index}, anchor {i}: "
                f"program ({loss}, {bound}) vs loop ({want_loss}, {want_bound})"
            )
        if loss - bound < SLACK_FLOOR or want_loss - want_bound < SLACK_FLOOR:
            problems.append(
                f"{report.kind} bound, class {report.class_index}, anchor {i}: "
                f"loss {loss} below bound {bound}"
            )
    return problems


def check_trace_coverage(
    epoch_s: float, self_s: float, limit: float = SELF_SHARE_LIMIT
) -> list[str]:
    """The wrapped layers cover all but ``limit`` of the traced epoch.

    Pretrain work that no wrapper times lands in ``harness.self_s``; a
    large share there means a stage of the training step went untraced.
    """
    share = self_s / epoch_s
    if not 0.0 <= share <= limit:
        return [f"harness self time is {share:.3f} of the traced epoch, outside [0, {limit}]"]
    return []

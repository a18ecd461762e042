"""Span tracing from outside the program, and per-op replay.

The traced run replaces public functions on the ``tscl`` modules that the
harness, the bounds sweep and the benchmark's own set-up look up as module
attributes, so no file under ``src/`` changes.  Each wrapped call records a
span; a span's self time is its duration minus the time its child spans
cover.  Spans are aggregated per root, the benchmark's own outermost span
(``setup``, ``pretrain``, ``probe`` or ``fuzz``), so the same function
called from pretraining and from the probe is counted apart.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable

import numpy as np

from tscl import autodiff, bounds, data, harness

# (module, attribute, span name).  Every function here is called by a root
# through a module-attribute lookup.
WRAPPED = (
    (harness, "weak_augment", "augment.weak"),
    (harness, "strong_augment", "augment.strong"),
    (harness, "encode", "model.encode"),
    (harness, "gcn_project", "model.head"),
    (harness, "mlp_project", "model.head"),
    (harness, "classify", "model.classify"),
    (harness, "rebuild_with_values", "model.rebuild"),
    (harness, "build_similarity", "graph.build_similarity"),
    (harness, "loss_mid", "losses.mid"),
    (harness, "loss_id", "losses.id"),
    (harness, "loss_cc", "losses.cc"),
    (harness, "loss_combined", "losses.combined"),
    (harness, "adam_step", "optim.adam_step"),
    (harness, "evaluate", "metrics.evaluate"),
    (autodiff, "backward", "autodiff.backward"),
    (bounds, "bound_sc_from_sims", "bounds.sc"),
    (bounds, "bound_uc_from_sims", "bounds.uc"),
    (bounds, "equality_conditions_from_sims", "bounds.equality"),
    (data, "generate", "data.generate"),
    (data, "save_delimited", "data.save_delimited"),
    (data, "load_delimited", "data.load_delimited"),
)

REPLAYED_OPS = ("conv1d", "max_pool1d", "matmul", "masked_softmax_rows", "logsumexp_row")


class Tracer:
    """Span stack with per-(root, name) self and total times.

    Time the tracer spends on its own bookkeeping (the graph walk) is
    excluded from every span open around it, so traced durations hold only
    the program's work plus the cost of the wrappers themselves.
    """

    def __init__(self, skip: tuple[str, ...] = ()) -> None:
        self._skip = skip  # span names left unwrapped
        self._stack: list[list] = []  # [name, start, child_time, excluded_at_start]
        self._excluded = 0.0
        self._saved: list[tuple[object, str, Callable]] = []
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.total_time: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.nodes = 0
        self.value_bytes = 0

    @property
    def root(self) -> str:
        return self._stack[0][0] if self._stack else ""

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._excluded])

    def _exit(self) -> float:
        name, start, child, excluded_at_start = self._stack.pop()
        duration = time.perf_counter() - start - (self._excluded - excluded_at_start)
        key = (self._stack[0][0] if self._stack else name, name)
        self.self_time[key] += duration - child
        self.total_time[key] += duration
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; return (result, traced seconds)."""
        self._enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self._exit()
        return result, duration

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)[0]

        return wrapped

    def _wrap_backward(self, fn: Callable) -> Callable:
        def wrapped(node):
            if self.root == "pretrain":
                began = time.perf_counter()
                nodes, nbytes = graph_size(node)
                self.nodes += nodes
                self.value_bytes += nbytes
                self._excluded += time.perf_counter() - began
            return self.run("autodiff.backward", fn, node)[0]

        return wrapped

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            if name in self._skip:
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if name == "autodiff.backward":
                setattr(module, attr, self._wrap_backward(original))
            else:
                setattr(module, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def time_of(self, root: str, name: str, own: bool = False) -> float:
        """Summed total (or, with ``own``, self) time of ``name`` under ``root``."""
        return (self.self_time if own else self.total_time).get((root, name), 0.0)

    def children_of(self, root: str) -> list[str]:
        return sorted(n for r, n in self.total_time if r == root and n != root)


def graph_size(root: autodiff.DiffNode) -> tuple[int, int]:
    """Distinct nodes reachable through ``DiffNode.parents`` and their value bytes."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.value.array.nbytes
        for parent, _ in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


# ---------------------------------------------------------------------------
# Per-op replay


class OpRecorder:
    """Counts calls to the replayed autodiff ops, and the steps they span.

    Calls are grouped by signature: the op, and the shape of each argument
    (with, for a node, whether it needs a gradient).  One example of each
    signature's arguments is kept for replay.  A step is one call to
    ``autodiff.backward``.
    """

    def __init__(self) -> None:
        self.signatures: dict[tuple, list] = {}  # key -> [op, count, args, kwargs]
        self.steps = 0
        self._saved: list[tuple[str, Callable]] = []

    def __enter__(self) -> "OpRecorder":
        for op in REPLAYED_OPS:
            self._swap(op, self._recording(op, getattr(autodiff, op)))
        self._swap("backward", self._counting(autodiff.backward))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            attr, original = self._saved.pop()
            setattr(autodiff, attr, original)

    def _swap(self, attr: str, replacement: Callable) -> None:
        self._saved.append((attr, getattr(autodiff, attr)))
        setattr(autodiff, attr, replacement)

    def _recording(self, op: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            key = (op, tuple(_key(a) for a in args),
                   tuple(sorted((k, _key(v)) for k, v in kwargs.items())))
            entry = self.signatures.get(key)
            if entry is None:
                self.signatures[key] = [op, 1, tuple(_describe(a) for a in args),
                                        {k: _describe(v) for k, v in kwargs.items()}]
            else:
                entry[1] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _counting(self, fn: Callable) -> Callable:
        def wrapped(node):
            self.steps += 1
            return fn(node)

        return wrapped


def _key(value):
    if isinstance(value, autodiff.DiffNode):
        return ("node", value.shape, value.requires_grad)
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.dtype.str)
    return ("plain", repr(value))


def _describe(value):
    if isinstance(value, autodiff.DiffNode):
        return ("node", value.shape, value.requires_grad)
    if isinstance(value, np.ndarray):
        return ("array", value.copy())
    return ("plain", value)


def _rebuild(desc, rng: np.random.Generator):
    kind = desc[0]
    if kind == "node":
        _, shape, requires_grad = desc
        return autodiff.leaf(rng.standard_normal(shape), requires_grad=requires_grad)
    return desc[1]


def replay_ops(recorder: OpRecorder, repeats: int, seed: int) -> dict[str, tuple[float, float]]:
    """Forward and pullback seconds per op for an average recorded step.

    Each signature is replayed alone ``repeats`` times on random inputs of
    the recorded shapes; its median forward and pullback times are
    multiplied by its calls per step.  Pullbacks run only toward parents
    that require a gradient, as ``backward`` does.
    """
    rng = np.random.default_rng(seed)
    out = {op: (0.0, 0.0) for op in REPLAYED_OPS}
    for op, count, args, kwargs in recorder.signatures.values():
        fn = getattr(autodiff, op)
        fwd, bwd = [], []
        for _ in range(repeats):
            real_args = [_rebuild(a, rng) for a in args]
            real_kwargs = {k: _rebuild(v, rng) for k, v in kwargs.items()}
            began = time.perf_counter()
            node = fn(*real_args, **real_kwargs)
            fwd.append(time.perf_counter() - began)
            g = rng.standard_normal(node.shape)
            began = time.perf_counter()
            for parent, pull in node.parents:
                if parent.requires_grad:
                    pull(g)
            bwd.append(time.perf_counter() - began)
        share = count / recorder.steps
        fwd_total, bwd_total = out[op]
        out[op] = (fwd_total + share * statistics.median(fwd),
                   bwd_total + share * statistics.median(bwd))
    return out

"""Synthetic imbalanced time-series data, label splitting, and file I/O.

The synthetic generator gives each class a distinct sinusoid frequency
and a class-specific amplitude envelope, so classes are trivially
separable when balanced; any per-class performance gap under imbalance
is then attributable to training dynamics rather than task hardness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tscl.augment import TimeSeriesBatch
from tscl.errors import (
    InfeasibleSplitError,
    ParameterError,
    ParseError,
    check_integer,
    check_integer_list,
    check_real,
)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset; counts must be descending."""

    class_counts: tuple[int, ...]
    length: int = 64
    channels: int = 1
    noise_sigma: float = 0.1
    base_frequency: float = 2.0
    frequency_step: float = 1.0
    amplitude_decay: float = 1.0
    phase_spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        counts = check_integer_list("class_counts", self.class_counts)
        object.__setattr__(self, "class_counts", counts)
        for name in ("length", "channels", "seed"):
            check_integer(name, getattr(self, name))
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if len(counts) < 2:
            raise ParameterError("need at least two classes")
        if any(c < 1 for c in counts):
            raise ParameterError(f"class counts must be >= 1, got {counts}")
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise ParameterError(f"class counts must be descending, got {counts}")
        if self.length < 8 or self.channels < 1:
            raise ParameterError(
                f"need length >= 8 and channels >= 1, got "
                f"{self.length} and {self.channels}"
            )
        shape_fields = (
            "noise_sigma", "base_frequency", "frequency_step", "amplitude_decay",
            "phase_spread",
        )
        for name in shape_fields:
            value = getattr(self, name)
            check_real(name, value)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise sigma must be >= 0, got {self.noise_sigma}")
        if self.amplitude_decay <= 0:
            raise ParameterError(
                f"amplitude decay must be positive, got {self.amplitude_decay}"
            )
        if self.phase_spread < 0:
            raise ParameterError(
                f"phase spread must be >= 0, got {self.phase_spread}"
            )
        if self.frequency_step < 0:
            raise ParameterError(
                f"frequency step must be >= 0, got {self.frequency_step}"
            )

    @property
    def n_classes(self) -> int:
        return len(self.class_counts)

    @property
    def total(self) -> int:
        return sum(self.class_counts)

    @property
    def imbalance_ratio(self) -> float:
        return self.class_counts[0] / self.class_counts[-1]


def class_template(
    spec: SynthSpec, class_index: int, phase: float = 0.0
) -> np.ndarray:
    """Noise-free signal for one class, flattened channel-major.

    Classes differ in carrier frequency, envelope, and amplitude: class
    ``c`` is scaled by ``amplitude_decay ** c``, so with a decay below 1
    the rarest classes are also the faintest relative to the noise floor,
    the way minority classes in real long-tailed data tend to be the
    least redundantly represented (a decay above 1 grades the other way).
    ``phase`` rotates the carrier, letting callers draw per-sample phase
    offsets so instances of one class spread over the carrier's cycle
    instead of collapsing onto a single prototype.  ``frequency_step``
    spaces the class carriers: at 0 every class shares one carrier band
    and only the envelope (and amplitude) separates them.
    """
    t = np.arange(spec.length) / spec.length
    amplitude = spec.amplitude_decay**class_index
    rows = []
    for ch in range(spec.channels):
        freq = spec.base_frequency * (1.0 + spec.frequency_step * class_index)
        channel_phase = 2.0 * math.pi * ch / max(spec.channels, 1)
        carrier = np.sin(2.0 * math.pi * freq * t + channel_phase + phase)
        envelope = 1.0 + 0.5 * np.cos(2.0 * math.pi * (class_index + 1) * t / 4.0)
        rows.append(amplitude * carrier * envelope)
    return np.concatenate(rows)


def generate(spec: SynthSpec) -> TimeSeriesBatch:
    """Deterministic synthetic batch: per-class template plus seeded noise.

    Labels are grouped (all of class 0 first, then class 1, ...) and the
    label mask starts all-hidden; use :func:`split_labels` to reveal a
    balanced subset.
    """
    rng = np.random.default_rng(spec.seed)
    width = spec.channels * spec.length
    values = np.zeros((spec.total, width))
    labels = np.zeros(spec.total, dtype=np.int64)
    row = 0
    for class_index, count in enumerate(spec.class_counts):
        template = class_template(spec, class_index)
        for child in rng.spawn(count):
            if spec.phase_spread > 0:
                offset = child.uniform(0.0, 2.0 * math.pi * spec.phase_spread)
                signal = class_template(spec, class_index, offset)
            else:
                signal = template
            noise = child.normal(0.0, spec.noise_sigma, size=width)
            values[row] = signal + noise
            labels[row] = class_index
            row += 1
    return TimeSeriesBatch(
        values=values,
        labels=labels,
        label_mask=np.zeros(spec.total, dtype=bool),
        channels=spec.channels,
        length=spec.length,
    )


def split_labels(
    batch: TimeSeriesBatch, fraction: float, rng: np.random.Generator
) -> TimeSeriesBatch:
    """Reveal an equal-count labeled subset of each class.

    The common per-class count is floor(fraction * n / n_classes),
    lowered to the smallest class size so every class contributes the
    same number of labels.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"label fraction must lie in (0, 1], got {fraction}")
    classes = np.unique(batch.labels)
    counts = {int(y): int((batch.labels == y).sum()) for y in classes}
    smallest = min(counts.values())
    if fraction * smallest < 1.0:
        raise InfeasibleSplitError(
            f"the smallest class has {smallest} samples; a balanced "
            f"{fraction:.0%} split cannot give it a label"
        )
    target = math.floor(fraction * batch.n / classes.size)
    if target < 1:
        raise InfeasibleSplitError(
            f"{fraction:.0%} of {batch.n} samples across {classes.size} "
            "classes rounds to zero labels per class"
        )
    per_class = min(target, smallest)
    mask = np.zeros(batch.n, dtype=bool)
    for y in classes:
        members = np.flatnonzero(batch.labels == y)
        picked = rng.choice(members, size=per_class, replace=False)
        mask[picked] = True
    return batch.with_mask(mask)


def stratified_split(
    batch: TimeSeriesBatch, test_fraction: float, rng: np.random.Generator
) -> tuple[TimeSeriesBatch, TimeSeriesBatch]:
    """Per-class shuffled train/test split; every class lands in both sides.

    Classes with at least two samples always send at least one sample to
    the test side even when flooring would give zero.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(f"test fraction must lie in (0, 1), got {test_fraction}")
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for y in np.unique(batch.labels):
        members = rng.permutation(np.flatnonzero(batch.labels == y))
        n_test = math.floor(test_fraction * members.size)
        if n_test == 0 and members.size >= 2:
            n_test = 1
        test_idx.append(members[:n_test])
        train_idx.append(members[n_test:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return batch.take(train), batch.take(test)


def save_delimited(batch: TimeSeriesBatch, path: str | Path) -> None:
    """One line per sample: integer label, then channel-major values.

    Floats are written with shortest round-trip precision, so a
    write-read cycle reproduces the array bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(batch.n):
            fields = [str(int(batch.labels[i]))]
            fields.extend(repr(float(v)) for v in batch.values[i])
            fh.write(",".join(fields) + "\n")


def load_delimited(
    path: str | Path,
    channels: int,
    length: int,
    n_classes: int | None = None,
) -> TimeSeriesBatch:
    """Parse a delimited file written by :func:`save_delimited`.

    Loaded labels are marked visible. Errors name the file and the offending line;
    ``nan`` and ``inf`` values are rejected like unparsable ones.
    """
    width = channels * length
    values: list[list[float]] = []
    labels: list[int] = []
    line_numbers: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != width + 1:
                raise ParseError(
                    f"{path}: line {line_number}: expected {width + 1} fields "
                    f"(label + {width} values), found {len(fields)}"
                )
            try:
                label = int(fields[0])
                row = [float(f) for f in fields[1:]]
            except ValueError as exc:
                raise ParseError(f"{path}: line {line_number}: {exc}") from exc
            if label < 0 or (n_classes is not None and label >= n_classes):
                limit = f" < {n_classes}" if n_classes is not None else ""
                raise ParseError(
                    f"{path}: line {line_number}: label {label} outside range 0..{limit}"
                )
            labels.append(label)
            values.append(row)
            line_numbers.append(line_number)
    array = np.array(values, dtype=np.float64).reshape(len(values), width)
    if not np.isfinite(array).all():
        row_index, column = np.argwhere(~np.isfinite(array))[0]
        raise ParseError(
            f"{path}: line {line_numbers[row_index]}: field {column + 2} is "
            f"{float(array[row_index, column])!r}, not a finite number"
        )
    return TimeSeriesBatch(
        values=array,
        labels=np.array(labels, dtype=np.int64),
        label_mask=np.ones(len(labels), dtype=bool),
        channels=channels,
        length=length,
    )

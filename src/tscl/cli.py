"""Command-line entry point.

Subcommands
-----------
``verify-bounds``
    Fuzz the contrastive-loss lower bounds over random configurations (and
    optionally one constructed case file); write a JSON report.
``synth``
    Generate a synthetic dataset from a config and write train/test splits
    as delimited text files.
``pretrain``
    Run the full training pipeline for every configured seed; write
    parameters, run records, and per-class loss CSVs.
``probe``
    Fit a linear probe on a frozen encoder checkpoint (or an untrained
    random encoder) and write the resulting metrics.
``report``
    Aggregate run records across seeds into a per-variant mean±std table.

Conventions: exit code 0 on success, 1 on usage or input errors, 2 on
verification failures (bound violations, diverged training).  Every
subcommand writes a manifest describing the resolved configuration, so a
run can be reproduced from its output directory alone.  The default output
root is ``./runs``, overridable with ``--out`` or the ``TSCL_OUTPUT_ROOT``
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from . import __version__
from .augment import TimeSeriesBatch
from .bounds import FUZZ_TEMPERATURES, SLACK_FLOOR, bound_sc, bound_uc, fuzz_bounds
from .data import SynthSpec, generate, load_delimited, save_delimited, stratified_split
from .errors import (
    DegenerateInputError,
    ParameterError,
    ParseError,
    TrainingDivergedError,
    check_fields,
    check_integer,
    check_real,
    read_json_object,
)
from .harness import (
    RunRecord,
    TrainConfig,
    check_probe_settings,
    class_loss_csv,
    load_run_record,
    probe_seed,
    run_seed,
    run_seeds,
    save_run_record,
)
from .losses import BatchIndexing
from .model import save_values

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

CONFIG_SCHEMA = "tscl-config-v1"
MANIFEST_SCHEMA = "tscl-manifest-v1"

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Shared plumbing


def _seed(text: str) -> int:
    """An ``--seed`` value: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _output_dir(args: argparse.Namespace, subcommand: str) -> Path:
    if args.out is not None:
        out = Path(args.out)
    else:
        root = os.environ.get("TSCL_OUTPUT_ROOT", "runs")
        out = Path(root) / subcommand
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_manifest(
    out_dir: Path,
    subcommand: str,
    config_path: Optional[str],
    resolved: dict,
    seeds: Sequence[int],
    started: float,
) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "subcommand": subcommand,
        "config_path": config_path,
        "resolved_config": resolved,
        "seeds": list(seeds),
        "output_dir": str(out_dir),
        "tool_version": __version__,
        "duration_seconds": time.time() - started,
    }
    final = out_dir / "manifest.json"
    tmp = out_dir / "manifest.json.tmp"
    _write_json(tmp, manifest)
    os.replace(tmp, final)


def _load_config(path: str, assignments: Sequence[str]) -> dict:
    """The config document at ``path`` with the ``--set`` overrides applied."""
    doc = _apply_overrides(read_json_object(path, "config"), assignments)
    try:
        schema = doc.get("schema")
        if schema != CONFIG_SCHEMA:
            raise ParameterError(f"field 'schema' must be {CONFIG_SCHEMA!r}, got {schema!r}")
        check_fields(doc, ("schema", "synth", "data", "train", "probe"), "top-level")
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    return doc


def _apply_overrides(doc: dict, assignments: Sequence[str]) -> dict:
    """Apply ``--set dotted.key=value`` overrides (values parsed as JSON)."""
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise ParameterError(f"--set {key}: {part!r} is not an object")
            node = child
        node[parts[-1]] = value
    return doc


def _section(
    doc: dict, name: str, path: str, build: Callable[[dict], T], required: bool = True
) -> T:
    """``build`` applied to section ``name`` of the config at ``path``; every
    error, from the lookup or from ``build``, names the file and the section."""
    sec = doc.get(name)
    try:
        if sec is None:
            if required:
                raise ParameterError("missing from the config")
            sec = {}
        if not isinstance(sec, dict):
            raise ParameterError(f"must be an object, got {sec!r}")
        return build(sec)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: {name} section: {exc}") from None


def _synth_settings(sec: dict) -> tuple[SynthSpec, float]:
    """The synth section's dataset recipe and its test fraction."""
    sec = dict(sec)
    test_fraction = sec.pop("test_fraction", 0.2)
    check_fields(sec, {f.name for f in dataclasses.fields(SynthSpec)})
    spec = SynthSpec(**sec)
    check_real("test_fraction", test_fraction)
    if not 0.0 <= test_fraction < 1.0:  # 0 writes one unsplit full.csv
        raise ParameterError(f"test_fraction must lie in [0, 1), got {test_fraction}")
    return spec, float(test_fraction)


def _probe_settings(sec: dict) -> tuple[int, float]:
    """The probe section's epoch count and learning rate."""
    check_fields(sec, ("epochs", "lr"))
    epochs, lr = sec.get("epochs", 200), sec.get("lr", 1e-2)
    check_probe_settings(epochs, lr)
    return epochs, float(lr)


def _data_files(sec: dict) -> tuple[tuple[str, str], dict]:
    """The data section's train and test paths, and the row shape of both."""
    check_fields(sec, ("train_path", "test_path", "channels", "length", "n_classes"))
    for name in ("train_path", "test_path", "channels", "length"):
        if name not in sec:
            raise ParameterError(f"missing field {name!r}")
    for name in ("train_path", "test_path"):
        if not isinstance(sec[name], str):
            raise ParameterError(f"{name} must be a string, got {sec[name]!r}")
    for name in ("channels", "length", "n_classes"):
        if name in sec:
            check_integer(name, sec[name])
            if sec[name] < 1:
                raise ParameterError(f"{name} must be >= 1, got {sec[name]}")
    shape = {name: sec.get(name) for name in ("channels", "length", "n_classes")}
    return (sec["train_path"], sec["test_path"]), shape


def _read_rows(path: str, shape: dict) -> TimeSeriesBatch:
    batch = load_delimited(path, **shape)
    if batch.n == 0:
        raise ParseError(f"{path}: the file holds no data rows")
    return batch


def _training_inputs(
    args: argparse.Namespace,
) -> tuple[dict, TrainConfig, int, float, TimeSeriesBatch, TimeSeriesBatch]:
    """Config document, train config, probe epochs and rate, train and test sets."""
    doc = _load_config(args.config, args.set)
    config = _section(doc, "train", args.config, TrainConfig.from_dict)
    probe_epochs, probe_lr = _section(
        doc, "probe", args.config, _probe_settings, required=False
    )
    paths, shape = _section(doc, "data", args.config, _data_files)
    train, test = (_read_rows(path, shape) for path in paths)
    return doc, config, probe_epochs, probe_lr, train, test


# ---------------------------------------------------------------------------
# verify-bounds


def _case_array(case: dict, field_name: str, dtype) -> np.ndarray:
    if field_name not in case:
        raise ParameterError(f"missing field {field_name!r}")
    entries = case[field_name]
    try:
        if field_name != "values":  # indices: a flat list of integers, never truncated
            if not isinstance(entries, list):
                raise ParameterError(f"must be a list of integers, got {entries!r}")
            for value in entries:
                check_integer("entry", value)
        return np.asarray(entries, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"field {field_name!r}: {exc}") from None


def _evaluate_case(case_path: str) -> dict:
    case = read_json_object(case_path, "case")
    try:
        check_fields(case, ("values", "labels", "partner", "temperature"), "case")
        arrays = {
            name: _case_array(case, name, dtype)
            for name, dtype in (("values", np.float64), ("labels", np.int64), ("partner", np.intp))
        }
        temperature = case.get("temperature", 1.0)
        check_real("field 'temperature'", temperature)
        temperature = float(temperature)
        idx = BatchIndexing(labels=arrays["labels"], partner=arrays["partner"])
        reports = [
            (y, kind, fn(arrays["values"], idx, y, temperature=temperature))
            for y in sorted(int(c) for c in np.unique(idx.labels))
            if 2 <= idx.class_members()[y].size < idx.n
            for kind, fn in (("class", bound_sc), ("instance", bound_uc))
        ]
    except ValueError as exc:
        raise type(exc)(f"{case_path}: {exc}") from exc

    rows = []
    worst = np.inf
    violations = 0
    for y, kind, report in reports:
        slack = report.slack
        worst = min(worst, slack)
        if slack < SLACK_FLOOR:
            violations += 1
        rows.append(
            {
                "class": y,
                "kind": kind,
                "bound": report.total_bound,
                "actual": report.total_actual,
                "slack": slack,
                "q1_satisfied": report.q1_satisfied,
                "q2_satisfied": report.q2_satisfied,
            }
        )
    if not rows:
        raise ParameterError(
            f"{case_path}: no class admits a bound (each needs >=2 members "
            "and a nonempty complement)"
        )
    return {
        "path": case_path,
        "temperature": temperature,
        "bounds": rows,
        "worst_slack": float(worst),
        "violations": violations,
    }


#: Upper bounds of ``verify-bounds --max-batch`` and ``--max-dim``.  The sweep
#: builds n x n and n x dim arrays, so the sizes are checked before it runs.
MAX_FUZZ_BATCH = 1024
MAX_FUZZ_DIM = 1024


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    started = time.time()
    for flag, value, limit in (
        ("--max-batch", args.max_batch, MAX_FUZZ_BATCH),
        ("--max-dim", args.max_dim, MAX_FUZZ_DIM),
    ):
        if value > limit:
            raise ParameterError(f"{flag} must be at most {limit}, got {value}")
    case_report = _evaluate_case(args.case) if args.case else None  # fails before the sweep
    out_dir = _output_dir(args, "verify-bounds")
    taus = args.tau or list(FUZZ_TEMPERATURES)
    summary = fuzz_bounds(
        configurations=args.configurations,
        seed=args.seed,
        max_batch=args.max_batch,
        max_dim=args.max_dim,
        max_classes=args.max_classes,
        temperatures=tuple(taus),
    )
    violations = summary.violations + (case_report["violations"] if case_report else 0)

    payload = {
        "schema": "tscl-bounds-report-v1",
        "fuzz": summary.to_dict(),
        "case": case_report,
        "violations": violations,
    }
    _write_json(out_dir / "bounds_report.json", payload)
    _write_manifest(
        out_dir,
        "verify-bounds",
        None,
        {
            "configurations": args.configurations,
            "seed": args.seed,
            "max_batch": args.max_batch,
            "max_dim": args.max_dim,
            "max_classes": args.max_classes,
            "tau": taus,
            "case": args.case,
        },
        [args.seed],
        started,
    )
    print(
        f"configurations={summary.configurations} evaluations={summary.evaluations} "
        f"violations={violations} worst_slack={summary.worst_slack:.3e} "
        f"equality_cases={summary.equality_evaluations} "
        f"elapsed={summary.elapsed_seconds:.2f}s"
    )
    if case_report is not None:
        print(
            f"case {case_report['path']}: worst_slack={case_report['worst_slack']:.3e} "
            f"violations={case_report['violations']}"
        )
    return EXIT_OK if violations == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args: argparse.Namespace) -> int:
    started = time.time()
    doc = _load_config(args.config, args.set)
    spec, test_fraction = _section(doc, "synth", args.config, _synth_settings)
    out_dir = _output_dir(args, "synth")

    full = generate(spec)
    if test_fraction > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
        train, test = stratified_split(full, test_fraction, rng)
        save_delimited(train, out_dir / "train.csv")
        save_delimited(test, out_dir / "test.csv")
        written = ["train.csv", "test.csv"]
        sizes = {"train": train.n, "test": test.n}
    else:
        save_delimited(full, out_dir / "full.csv")
        written = ["full.csv"]
        sizes = {"full": full.n}

    _write_manifest(out_dir, "synth", args.config, doc, [spec.seed], started)
    print(
        f"wrote {', '.join(written)} to {out_dir} "
        f"({', '.join(f'{k}={v}' for k, v in sizes.items())}, "
        f"channels={spec.channels}, length={spec.length})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# pretrain


def _cmd_pretrain(args: argparse.Namespace) -> int:
    started = time.time()
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {args.jobs}")
    doc, config, probe_epochs, probe_lr, train, test = _training_inputs(args)
    out_dir = _output_dir(args, "pretrain")

    calls = [(config, train, test, seed, probe_epochs, probe_lr) for seed in config.seeds]
    for seed, (record, values) in zip(config.seeds, run_seeds(run_seed, calls, args.jobs)):
        save_run_record(record, str(out_dir / f"record_seed{seed}.json"))
        (out_dir / f"class_losses_seed{seed}.csv").write_text(
            class_loss_csv(record), encoding="utf-8"
        )
        save_values(values, out_dir / f"params_seed{seed}.json")
        metrics = record.final_metrics or {}
        print(
            f"seed {seed}: final combined loss "
            f"{record.epoch_stats[-1].combined:.4f}, "
            f"accuracy {metrics.get('accuracy', float('nan')):.4f}, "
            f"macro-F1 {metrics.get('macro_f1', float('nan')):.4f}"
        )

    _write_manifest(out_dir, "pretrain", args.config, doc, config.seeds, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# probe


def _cmd_probe(args: argparse.Namespace) -> int:
    started = time.time()
    doc, config, probe_epochs, probe_lr, train, test = _training_inputs(args)
    out_dir = _output_dir(args, "probe")

    seed = args.seed if args.seed is not None else config.seeds[0]
    source = args.params if args.params is not None else "untrained (random initialization)"
    try:
        report = probe_seed(config, train, test, seed, args.params, probe_epochs, probe_lr)
    except DegenerateInputError as exc:  # e.g. a checkpoint that overflows the encoder
        raise DegenerateInputError(f"{source}: {exc}") from exc
    payload = {
        "schema": "tscl-metrics-v1",
        "seed": seed,
        "variant": config.variant,
        "params": source,
        "metrics": report.to_dict(),
    }
    _write_json(out_dir / "metrics.json", payload)
    _write_manifest(out_dir, "probe", args.config, doc, [seed], started)
    print(
        f"probe on {source}: accuracy {report.accuracy:.4f}, "
        f"macro-F1 {report.macro_f1:.4f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _format_cell(values: list[float]) -> str:
    arr = np.asarray(values, dtype=np.float64) * 100.0
    return f"{arr.mean():.2f}±{arr.std():.2f}"


def _is_score(value) -> bool:
    """A fraction in [0, 1]; NaN is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= 1


def _check_final_metrics(metrics, path: Path) -> None:
    """Raise unless ``metrics`` holds every number the report table reads."""
    if metrics is None:
        raise ParameterError(f"{path}: record has no final metrics")
    if not isinstance(metrics, dict):
        raise ParameterError(f"{path}: final_metrics must be an object, got {metrics!r}")
    for name in ("accuracy", "macro_f1"):
        if not _is_score(metrics.get(name)):
            raise ParameterError(f"{path}: final_metrics has no numeric {name!r} in [0, 1]")
    per_class = metrics.get("per_class")
    if not isinstance(per_class, dict):
        raise ParameterError(f"{path}: final_metrics has no 'per_class' object")
    for y, entry in per_class.items():
        if not (y.isdigit() and isinstance(entry, dict) and _is_score(entry.get("f1"))):
            raise ParameterError(
                f"{path}: final_metrics per_class entry {y!r} needs a class index "
                "and a numeric 'f1' in [0, 1]"
            )


def _cmd_report(args: argparse.Namespace) -> int:
    started = time.time()
    records: list[RunRecord] = []
    for run_dir in args.run_dirs:
        base = Path(run_dir)
        if not base.is_dir():
            raise ParameterError(f"{run_dir}: not a directory")
        for path in sorted(base.glob("record_*.json")):
            record = load_run_record(str(path))
            _check_final_metrics(record.final_metrics, path)
            records.append(record)
    if not records:
        raise ParameterError("no record_*.json files found in the given directories")

    by_variant: dict[str, list[RunRecord]] = {}
    for record in records:
        by_variant.setdefault(record.variant, []).append(record)

    class_ids: list[str] = sorted(
        {y for r in records for y in r.final_metrics["per_class"]}, key=int
    )
    header = ["variant", "seeds", "accuracy", "macro_f1"] + [
        f"f1_class_{y}" for y in class_ids
    ]
    table = [header]
    for variant in sorted(by_variant):
        group = by_variant[variant]
        row = [
            variant,
            str(len(group)),
            _format_cell([r.final_metrics["accuracy"] for r in group]),
            _format_cell([r.final_metrics["macro_f1"] for r in group]),
        ]
        for y in class_ids:
            row.append(_format_cell([r.final_metrics["per_class"][y]["f1"] for r in group]))
        table.append(row)

    out_dir = _output_dir(args, "report")
    with open(out_dir / "report.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(table)
    _write_manifest(
        out_dir, "report", None, {"run_dirs": list(args.run_dirs)}, [], started
    )

    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    parser = _Parser(prog="tscl", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"tscl {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_common(p: _Parser) -> None:
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("verify-bounds", help="fuzz the loss lower bounds")
    add_common(p)
    p.add_argument("--configurations", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--max-batch", type=int, default=16,
        help=f"max batch size (pairs x2), at most {MAX_FUZZ_BATCH}",
    )
    p.add_argument(
        "--max-dim", type=int, default=8, help=f"max embedding dimension, at most {MAX_FUZZ_DIM}"
    )
    p.add_argument("--max-classes", type=int, default=4)
    p.add_argument(
        "--tau", type=float, action="append", default=None,
        help=f"temperature (repeatable; default {FUZZ_TEMPERATURES})",
    )
    p.add_argument("--case", default=None, help="JSON file with one constructed configuration")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--config", required=True, help="JSON config with a 'synth' section")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pretrain", help="train encoders for every configured seed")
    add_common(p)
    p.add_argument("--config", required=True, help="JSON config with 'train' and 'data' sections")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--jobs", type=int, default=1, help="seed workers, at most the usable cores")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("probe", help="linear-probe a frozen encoder")
    add_common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--params", default=None, help="checkpoint (default: untrained encoder)")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("report", help="aggregate run records into mean±std tables")
    add_common(p)
    p.add_argument("run_dirs", nargs="+", help="directories containing record_*.json")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(
            f"training diverged: {exc} (last good epoch {exc.last_good_epoch})",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

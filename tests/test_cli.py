"""End-to-end command-line tests: exit codes, written artifacts, report
formatting, and byte-level determinism of the pipeline outputs."""

import json
import multiprocessing
import re

import numpy as np
import pytest

from tscl.cli import MAX_FUZZ_BATCH, MAX_FUZZ_DIM, main


def run_cli(args) -> int:
    try:
        return main(args)
    except SystemExit as exc:  # argparse usage failures
        return int(exc.code)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth_dir = root / "synth"
    config = {
        "schema": "tscl-config-v1",
        "synth": {
            "class_counts": [24, 12],
            "length": 16,
            "channels": 1,
            "noise_sigma": 0.1,
            "seed": 3,
            "test_fraction": 0.2,
        },
        "train": {
            "variant": "mlp_id",
            "epochs": 2,
            "batch_size": 16,
            "embed_dim": 8,
            "conv_channels": [4],
            "seeds": [0, 1],
            "label_fraction": 0.4,
        },
        "data": {
            "train_path": str(synth_dir / "train.csv"),
            "test_path": str(synth_dir / "test.csv"),
            "channels": 1,
            "length": 16,
        },
        "probe": {"epochs": 40, "lr": 0.02},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["synth", "--config", str(config_path), "--out", str(synth_dir)]) == 0
    return {"root": root, "config": config_path, "synth": synth_dir}


# ---------------------------------------------------------------------------
# verify-bounds


def test_verify_bounds_reports_zero_violations(workspace, capsys):
    out = workspace["root"] / "vb"
    code = run_cli(
        ["verify-bounds", "--configurations", "50", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "bounds_report.json").read_text())
    assert report["violations"] == 0
    assert report["fuzz"]["configurations"] == 50
    assert "violations=0" in capsys.readouterr().out


def test_verify_bounds_constructed_case_reports_tight_slack(workspace):
    # Two orthogonal classes, uniform within class: both bounds are exact.
    case = {
        "values": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
        "labels": [0, 0, 1, 1],
        "partner": [1, 0, 3, 2],
        "temperature": 1.0,
    }
    case_path = workspace["root"] / "case.json"
    case_path.write_text(json.dumps(case))
    out = workspace["root"] / "vb_case"
    code = run_cli(
        ["verify-bounds", "--configurations", "5", "--case", str(case_path),
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "bounds_report.json").read_text())
    assert abs(report["case"]["worst_slack"]) < 1e-9
    assert all(r["q1_satisfied"] and r["q2_satisfied"] for r in report["case"]["bounds"])


def _assert_one_error_line(code: int, err: str) -> None:
    assert code == 1, err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1, err


# Only small values: a huge size would allocate before the sweep rejects it.
@pytest.mark.parametrize(
    "flag, value",
    [
        pytest.param(flag, value, id=f"{flag}={value}")
        for flag, smallest in (
            ("--configurations", 1),
            ("--max-batch", 4),
            ("--max-dim", 1),
            ("--max-classes", 2),
        )
        for value in (smallest - 1, -1)
    ],
)
def test_verify_bounds_invalid_range_is_usage_error(workspace, capsys, flag, value):
    code = run_cli(
        ["verify-bounds", flag, str(value), "--out", str(workspace["root"] / "vb_bad")]
    )
    _assert_one_error_line(code, capsys.readouterr().err)


@pytest.mark.parametrize(
    "flag, limit", [("--max-batch", MAX_FUZZ_BATCH), ("--max-dim", MAX_FUZZ_DIM)]
)
def test_verify_bounds_size_above_its_limit_fails_before_the_sweep(
    workspace, capsys, monkeypatch, flag, limit
):
    def sweep(**_):
        raise AssertionError("the sweep ran with a size above its limit")

    monkeypatch.setattr("tscl.cli.fuzz_bounds", sweep)
    code = run_cli(
        ["verify-bounds", flag, str(limit + 1), "--out", str(workspace["root"] / "vb_big")]
    )
    err = capsys.readouterr().err
    _assert_one_error_line(code, err)
    assert f"error: {flag} must be at most {limit}, got {limit + 1}" in err


def test_verify_bounds_reads_the_case_before_the_sweep(workspace, capsys, monkeypatch):
    def sweep(**_):
        raise AssertionError("the sweep ran before the case file was read")

    monkeypatch.setattr("tscl.cli.fuzz_bounds", sweep)
    case_path = workspace["root"] / "case_first.json"
    case_path.write_text(json.dumps({"values": 1}))
    code = run_cli(
        ["verify-bounds", "--case", str(case_path), "--out", str(workspace["root"] / "vb_first")]
    )
    err = capsys.readouterr().err
    _assert_one_error_line(code, err)
    assert str(case_path) in err


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_verify_bounds_non_finite_tau_exits_one(workspace, capsys, tau):
    out = workspace["root"] / f"vb_tau_{tau}"
    code = run_cli(["verify-bounds", "--configurations", "5", "--tau", tau, "--out", str(out)])
    assert code == 1
    assert "positive and finite" in capsys.readouterr().err


_TIGHT_CASE = {
    "values": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
    "labels": [0, 0, 1, 1],
    "partner": [1, 0, 3, 2],
}


@pytest.mark.parametrize(
    "name, case, message",
    [
        ("number", 3, "case must be a JSON object"),
        ("tau_null", {**_TIGHT_CASE, "temperature": None}, "'temperature' must be a number"),
        ("tau_list", {**_TIGHT_CASE, "temperature": [1.0]}, "'temperature' must be a number"),
        ("labels_null", {**_TIGHT_CASE, "labels": None}, "field 'labels'"),
        (
            "nan_values",
            {**_TIGHT_CASE, "values": [[float("nan"), 0.0]] + _TIGHT_CASE["values"][1:]},
            "non-finite",
        ),
        ("tau_negative", {**_TIGHT_CASE, "temperature": -1.0}, "temperature must be positive"),
        ("tau_nan", {**_TIGHT_CASE, "temperature": float("nan")}, "temperature must be positive"),
        (
            "labels_float",
            {**_TIGHT_CASE, "labels": [0.5, 0, 1, 1]},
            "field 'labels': entry must be an integer, got 0.5",
        ),
        (
            "partner_float",
            {**_TIGHT_CASE, "partner": [2.7, 0, 3, 2]},
            "field 'partner': entry must be an integer, got 2.7",
        ),
        ("partner_number", {**_TIGHT_CASE, "partner": 1}, "must be a list of integers, got 1"),
    ],
)
def test_verify_bounds_malformed_case_exits_one(workspace, capsys, name, case, message):
    case_path = workspace["root"] / f"case_{name}.json"
    case_path.write_text(json.dumps(case))
    code = run_cli(
        ["verify-bounds", "--configurations", "5", "--case", str(case_path),
         "--out", str(workspace["root"] / f"vb_case_{name}")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert str(case_path) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# synth


def test_synth_outputs_and_manifest(workspace):
    synth_dir = workspace["synth"]
    assert (synth_dir / "train.csv").exists()
    assert (synth_dir / "test.csv").exists()
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["schema"] == "tscl-manifest-v1"
    assert manifest["subcommand"] == "synth"
    assert manifest["resolved_config"]["synth"]["class_counts"] == [24, 12]
    assert manifest["duration_seconds"] >= 0.0


def test_synth_zero_noise_rows_identical_per_class(workspace):
    out = workspace["root"] / "synth0"
    code = run_cli(
        ["synth", "--config", str(workspace["config"]), "--out", str(out),
         "--set", "synth.noise_sigma=0.0", "--set", "synth.test_fraction=0.0"]
    )
    assert code == 0
    by_label: dict[str, set] = {}
    for line in (out / "full.csv").read_text().splitlines():
        label = line.split(",", 1)[0]
        by_label.setdefault(label, set()).add(line)
    assert set(by_label) == {"0", "1"}
    assert all(len(rows) == 1 for rows in by_label.values())


@pytest.mark.parametrize("fraction", ["NaN", "-0.5", "1.0"])
def test_synth_test_fraction_outside_unit_interval_exits_one(workspace, capsys, fraction):
    out = workspace["root"] / f"synth_tf_{fraction}"
    code = run_cli(
        ["synth", "--config", str(workspace["config"]), "--out", str(out),
         "--set", f"synth.test_fraction={fraction}"]
    )
    assert code == 1
    assert "test_fraction must lie in [0, 1)" in capsys.readouterr().err
    assert not (out / "full.csv").exists()


# ---------------------------------------------------------------------------
# pretrain / probe


@pytest.fixture(scope="module")
def pretrain_run(workspace):
    out = workspace["root"] / "run_a"
    code = run_cli(["pretrain", "--config", str(workspace["config"]), "--out", str(out)])
    assert code == 0
    return out


def test_pretrain_writes_per_seed_artifacts(pretrain_run):
    for seed in (0, 1):
        assert (pretrain_run / f"record_seed{seed}.json").exists()
        assert (pretrain_run / f"params_seed{seed}.json").exists()
        csv_text = (pretrain_run / f"class_losses_seed{seed}.csv").read_text()
        assert csv_text.startswith("epoch,class,mean_loss")
    record = json.loads((pretrain_run / "record_seed0.json").read_text())
    assert record["seed"] == 0
    assert record["metric_scale"] == "fraction"
    assert len(record["epoch_stats"]) == 2
    assert record["final_metrics"] is not None
    manifest = json.loads((pretrain_run / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 1]


def test_pretrain_rerun_is_byte_identical(workspace, pretrain_run):
    out = workspace["root"] / "run_b"
    code = run_cli(["pretrain", "--config", str(workspace["config"]), "--out", str(out)])
    assert code == 0
    for name in ("record_seed0.json", "params_seed0.json", "class_losses_seed0.csv"):
        assert (out / name).read_bytes() == (pretrain_run / name).read_bytes()


def test_pretrain_set_override_lands_in_manifest(workspace):
    out = workspace["root"] / "run_override"
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]), "--out", str(out),
         "--set", "train.seeds=[5]", "--set", "train.epochs=1"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["train"]["seeds"] == [5]
    assert manifest["seeds"] == [5]
    assert (out / "record_seed5.json").exists()


def test_pretrain_divergence_exits_two(workspace, capsys):
    out = workspace["root"] / "run_div"
    with np.errstate(all="ignore"):  # the overflow is the point of the test
        code = run_cli(
            ["pretrain", "--config", str(workspace["config"]), "--out", str(out),
             "--set", "train.lr=1e80", "--set", "train.weight_decay=0.0",
             "--set", "train.seeds=[1]", "--set", "train.embed_dim=4"]
        )
    assert code == 2
    assert "diverged" in capsys.readouterr().err


def test_pretrain_jobs_two_divergence_exits_two_and_leaves_no_worker(workspace, capsys):
    # Both seeds diverge; with two usable cores each runs in a worker process.
    out = workspace["root"] / "run_div_jobs2"
    with np.errstate(all="ignore"):
        code = run_cli(
            ["pretrain", "--config", str(workspace["config"]), "--out", str(out),
             "--set", "train.lr=1e80", "--set", "train.weight_decay=0.0",
             "--set", "train.embed_dim=4", "--jobs", "2"]
        )
    err = capsys.readouterr().err
    assert code == 2, err
    assert "training diverged" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_pretrain_jobs_two_writes_same_bytes_as_jobs_one(workspace, pretrain_run):
    out = workspace["root"] / "run_jobs2"
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]), "--out", str(out),
         "--jobs", "2"]
    )
    assert code == 0
    for seed in (0, 1):
        for name in (f"record_seed{seed}.json", f"class_losses_seed{seed}.csv",
                     f"params_seed{seed}.json"):
            assert (out / name).read_bytes() == (pretrain_run / name).read_bytes()


@pytest.mark.parametrize("jobs", [0, -1])
def test_pretrain_jobs_below_one_is_usage_error(workspace, capsys, jobs):
    out = workspace["root"] / f"run_jobs{jobs}"
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]), "--out", str(out),
         "--jobs", str(jobs)]
    )
    err = capsys.readouterr().err
    _assert_one_error_line(code, err)
    assert f"error: --jobs must be >= 1, got {jobs}" in err
    assert not out.exists()  # rejected before anything ran


def test_probe_checkpoint_and_untrained(workspace, pretrain_run):
    out = workspace["root"] / "probe_ckpt"
    code = run_cli(
        ["probe", "--config", str(workspace["config"]), "--out", str(out),
         "--params", str(pretrain_run / "params_seed0.json"), "--seed", "0"]
    )
    assert code == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["metrics"]["metric_scale"] == "fraction"
    assert 0.0 <= payload["metrics"]["accuracy"] <= 1.0

    out2 = workspace["root"] / "probe_rand"
    code = run_cli(
        ["probe", "--config", str(workspace["config"]), "--out", str(out2), "--seed", "0"]
    )
    assert code == 0
    assert json.loads((out2 / "metrics.json").read_text())["params"].startswith("untrained")


def test_probe_checkpoint_missing_array_exits_one(workspace, pretrain_run, capsys):
    payload = json.loads((pretrain_run / "params_seed0.json").read_text())
    del payload["arrays"]["projection.w1"]
    ckpt = workspace["root"] / "params_missing.json"
    ckpt.write_text(json.dumps(payload))
    code = run_cli(
        ["probe", "--config", str(workspace["config"]), "--params", str(ckpt),
         "--out", str(workspace["root"] / "probe_missing")]
    )
    assert code == 1
    assert "missing projection.w1" in capsys.readouterr().err


@pytest.mark.parametrize("drop", ["arrays", "shape"])
def test_probe_malformed_checkpoint_exits_one(workspace, pretrain_run, capsys, drop):
    payload = json.loads((pretrain_run / "params_seed0.json").read_text())
    if drop == "arrays":
        del payload["arrays"]
    else:
        del payload["arrays"]["projection.w1"]["shape"]
    ckpt = workspace["root"] / f"params_no_{drop}.json"
    ckpt.write_text(json.dumps(payload))
    code = run_cli(
        ["probe", "--config", str(workspace["config"]), "--params", str(ckpt),
         "--out", str(workspace["root"] / f"probe_no_{drop}")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err
    if drop == "shape":
        assert "array 'projection.w1' needs both 'shape' and 'data'" in err


def test_probe_checkpoint_that_is_not_json_exits_one_naming_it(workspace, capsys):
    ckpt = workspace["root"] / "params_not_json.json"
    ckpt.write_text("not a checkpoint\n")
    code = run_cli(
        ["probe", "--config", str(workspace["config"]), "--params", str(ckpt),
         "--out", str(workspace["root"] / "probe_not_json")]
    )
    assert code == 1
    assert f"error: {ckpt}: invalid JSON" in capsys.readouterr().err


def test_probe_checkpoint_of_other_width_exits_one(workspace, pretrain_run, capsys):
    # The checkpoint was trained at embed_dim 8; the probed model has 16.
    code = run_cli(
        ["probe", "--config", str(workspace["config"]),
         "--params", str(pretrain_run / "params_seed0.json"),
         "--set", "train.embed_dim=16", "--out", str(workspace["root"] / "probe_wide")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "projection.w1 has shape (8, 8), the model needs (16, 16)" in err
    assert "encoder.linear.weight has shape" in err


# ---------------------------------------------------------------------------
# report


def test_report_formats_mean_std_cells(workspace, pretrain_run, capsys):
    out = workspace["root"] / "report"
    code = run_cli(["report", str(pretrain_run), "--out", str(out)])
    assert code == 0
    raw = (out / "report.csv").read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    lines = raw.decode("utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["variant", "seeds", "accuracy", "macro_f1"]
    assert header[4:] == ["f1_class_0", "f1_class_1"]
    row = lines[1].split(",")
    assert row[0] == "mlp_id"
    assert row[1] == "2"
    cell = re.compile(r"^\d+\.\d{2}±\d+\.\d{2}$")
    assert all(cell.match(c) for c in row[2:]), row
    assert "mlp_id" in capsys.readouterr().out

    # Byte-identical on rerun.
    out2 = workspace["root"] / "report2"
    assert run_cli(["report", str(pretrain_run), "--out", str(out2)]) == 0
    assert (out2 / "report.csv").read_bytes() == raw


_RECORD = {
    "seed": 1,
    "variant": "mlp_id",
    "config": {},
    "epoch_stats": [
        {"epoch": 1, "combined": 1.5, "components": {"ID": 1.5},
         "class_mean_loss": {"0": 1.25, "1": 1.75}},
    ],
    "final_metrics": {"accuracy": 0.5, "macro_f1": 0.4, "per_class": {"0": {"f1": 0.6}}},
}


def test_report_reads_a_minimal_hand_written_record(tmp_path, capsys):
    (tmp_path / "record_x.json").write_text(json.dumps(_RECORD))
    assert run_cli(["report", str(tmp_path), "--out", str(tmp_path / "r")]) == 0
    assert "50.00±0.00" in capsys.readouterr().out


def _record_with(**changes) -> str:
    return json.dumps({**_RECORD, **changes})


def _metrics_with(**changes) -> str:
    return _record_with(final_metrics={**_RECORD["final_metrics"], **changes})


_BAD_RECORDS = {
    # name: (file text, expected message)
    "not_json": ("{seed", "invalid JSON"),
    "list": ("[1]", "run record must be a JSON object, got list"),
    "seed_only": (json.dumps({"seed": 1}), "run record has no 'variant' field"),
    "seed_text": (_record_with(seed="1"), "'seed' must be an integer"),
    "seed_bool": (_record_with(seed=True), "'seed' must be an integer"),
    "variant_number": (_record_with(variant=3), "'variant' must be a string"),
    "config_list": (_record_with(config=[]), "'config' must be an object"),
    "stats_object": (_record_with(epoch_stats={}), "'epoch_stats' must be a list"),
    "stats_entry": (_record_with(epoch_stats=[1]), "malformed epoch_stats entry"),
    "stats_key": (_record_with(epoch_stats=[{"epoch": 1}]), "malformed epoch_stats entry"),
    "no_metrics": (_record_with(final_metrics=None), "no final metrics"),
    "metrics_list": (_record_with(final_metrics=[0.5]), "final_metrics must be an object"),
    "no_accuracy": (_metrics_with(accuracy=None), "final_metrics has no numeric 'accuracy'"),
    "no_macro_f1": (_metrics_with(macro_f1="0.4"), "final_metrics has no numeric 'macro_f1'"),
    "no_per_class": (_metrics_with(per_class=None), "final_metrics has no 'per_class' object"),
    "no_f1": (
        _metrics_with(per_class={"0": {"precision": 1.0}}),
        "per_class entry '0' needs a class index and a numeric 'f1'",
    ),
    "class_key": (
        _metrics_with(per_class={"a": {"f1": 1.0}}),
        "per_class entry 'a' needs a class index",
    ),
}


@pytest.mark.parametrize("name", sorted(_BAD_RECORDS))
def test_report_on_malformed_record_exits_one_naming_it(tmp_path, capsys, name):
    text, message = _BAD_RECORDS[name]
    path = tmp_path / "record_x.json"
    path.write_text(text)
    assert run_cli(["report", str(tmp_path), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    assert message in err
    assert "Traceback" not in err


def test_report_without_records_is_usage_error(workspace, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli(["report", str(empty), "--out", str(tmp_path / "r")]) == 1
    assert "no record" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors


def test_missing_config_file_exits_one(workspace, capsys):
    code = run_cli(
        ["pretrain", "--config", str(workspace["root"] / "nope.json"),
         "--out", str(workspace["root"] / "x")]
    )
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_wrong_schema_field_names_path_and_field(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "v0"}))
    code = run_cli(["pretrain", "--config", str(bad), "--out", str(tmp_path / "y")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "schema" in err


def test_unknown_train_field_exits_one(workspace, capsys):
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]),
         "--out", str(workspace["root"] / "z"), "--set", "train.optimizer=sgd"]
    )
    assert code == 1
    assert "unknown config fields" in capsys.readouterr().err


def test_nonpositive_conv_channel_exits_one(workspace, capsys):
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]),
         "--out", str(workspace["root"] / "conv0"),
         "--set", "train.conv_channels=[0,32]"]
    )
    assert code == 1
    assert "architecture sizes must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["pretrain", "probe"])
def test_malformed_probe_section_exits_one(workspace, subcommand, capsys):
    code = run_cli(
        [subcommand, "--config", str(workspace["config"]),
         "--out", str(workspace["root"] / f"bad_probe_{subcommand}"),
         "--set", "probe.epochs=[5]"]
    )
    assert code == 1
    assert "probe section" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, assignment, message",
    [
        ("probe", "probe.lr=NaN", "probe learning rate must be positive and finite"),
        ("probe", "probe.lr=Infinity", "probe learning rate must be positive and finite"),
        ("pretrain", "train.temperature=NaN", "temperature must be finite"),
    ],
)
def test_non_finite_rate_or_temperature_exits_one(
    workspace, subcommand, assignment, message, capsys
):
    code = run_cli(
        [subcommand, "--config", str(workspace["config"]),
         "--out", str(workspace["root"] / f"non_finite_{subcommand}"),
         "--set", assignment]
    )
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("train.eps=0", "eps must be positive and finite"),
        ("train.beta1=1.0", "betas must lie in [0, 1)"),
        ("train.beta2=NaN", "betas must lie in [0, 1)"),
    ],
)
def test_bad_adam_setting_exits_one_with_train_prefix(workspace, assignment, message, capsys):
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]),
         "--out", str(workspace["root"] / "bad_adam"),
         "--set", assignment]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{workspace['config']}: train section: " in err
    assert message in err


@pytest.mark.parametrize(
    "assignment, message",
    [
        ("train.batch_size=2.5", "batch_size must be an integer, got 2.5"),
        ("train.seeds=[1.5]", "seeds entry must be an integer, got 1.5"),
        ("train.conv_channels=[4.7]", "conv_channels entry must be an integer, got 4.7"),
        ("train.epochs=true", "epochs must be an integer, got True"),
        ('train.self_loop="no"', "self_loop must be true or false, got 'no'"),
        ("train.augment=5", "augment must be an object, got 5"),
        ("train.augment.max_segments=2.5", "max_segments must be an integer, got 2.5"),
    ],
)
def test_mistyped_train_field_exits_one_with_train_prefix(
    workspace, assignment, message, capsys
):
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]),
         "--out", str(workspace["root"] / "mistyped_train"),
         "--set", assignment]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {workspace['config']}: train section: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand, assignment, message",
    [
        ("synth", "synth.class_counts=5", "synth section: class_counts must be a list, got 5"),
        (
            "synth",
            "synth.class_counts=[24, 12.5]",
            "synth section: class_counts entry must be an integer, got 12.5",
        ),
        ("synth", "synth.length=16.5", "synth section: length must be an integer, got 16.5"),
        ("synth", "synth.seed=true", "synth section: seed must be an integer, got True"),
        ("pretrain", "data.channels=[1]", "data section: channels must be an integer, got [1]"),
        ("pretrain", "data.length=16.5", "data section: length must be an integer, got 16.5"),
        ("pretrain", "data.train_path=[1]", "data section: train_path must be a string, got [1]"),
        ("probe", "data.n_classes=2.0", "data section: n_classes must be an integer, got 2.0"),
        ("probe", "probe.epochs=2.5", "probe section: epochs must be an integer, got 2.5"),
    ],
)
def test_mistyped_config_field_exits_one_naming_its_section(
    workspace, subcommand, assignment, message, capsys
):
    code = run_cli(
        [subcommand, "--config", str(workspace["config"]),
         "--out", str(workspace["root"] / f"mistyped_{subcommand}"),
         "--set", assignment]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {workspace['config']}: {message}" in err
    assert "Traceback" not in err


_FLOAT_FIELDS = (
    [("pretrain", f"train.{name}", "train") for name in (
        "lr", "weight_decay", "beta1", "beta2", "eps", "temperature",
        "lambda_graph", "lambda_cls", "label_fraction",
    )]
    + [("pretrain", f"train.augment.{name}", "train")
       for name in ("weak_jitter", "weak_scale", "strong_jitter")]
    + [("synth", f"synth.{name}", "synth") for name in (
        "noise_sigma", "base_frequency", "frequency_step", "amplitude_decay",
        "phase_spread", "test_fraction",
    )]
    + [("probe", "probe.lr", "probe")]
)


@pytest.mark.parametrize("value", ["true", '"0.1"', "[0.1]", "NaN"])
@pytest.mark.parametrize("subcommand, key, section", _FLOAT_FIELDS)
def test_float_field_rejects_non_numbers_and_nan(
    workspace, subcommand, key, section, value, capsys
):
    code = run_cli(
        [subcommand, "--config", str(workspace["config"]),
         "--out", str(workspace["root"] / f"bad_float_{subcommand}"),
         "--set", f"{key}={value}"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {workspace['config']}: {section} section: " in err
    if value != "NaN":
        assert f"{key.rsplit('.', 1)[1]} must be a number, got " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["train", "test"])
def test_malformed_data_file_exits_one_naming_it(workspace, tmp_path, which, capsys):
    bad = tmp_path / f"{which}.csv"
    bad.write_text("0,1.0,2.0,3.0\n")  # 4 fields where a row needs 17
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]),
         "--out", str(tmp_path / "out"), "--set", f"data.{which}_path={bad}"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: line 1: expected 17 fields" in err
    assert "Traceback" not in err


def test_no_subcommand_is_usage_error():
    assert run_cli([]) == 1


def test_unknown_flag_is_usage_error():
    assert run_cli(["verify-bounds", "--frobnicate"]) == 1

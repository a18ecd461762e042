"""One table-driven sweep per input boundary.

Every field of every config section, of the checkpoint, of the
``verify-bounds --case`` file and of the run record is fed the same list of
bad values through ``cli.main`` in-process.  Each case must exit 1 with one
``error:`` line that names the file (and, for a config field, its section),
and print no traceback.  A value that a field legitimately accepts is left
out of that field's row, with the reason next to it.
"""

import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from tscl.cli import main

#: The bad values, by name; each is written into the input as JSON.
BAD_VALUES = {
    "list": [1],
    "object": {"x": 1},
    "string": "abc",
    "bool": True,
    "fraction": 2.5,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "negative": -1,
}

INTEGER = ()  # an integer field takes none of the bad values
# A non-integral float lies in a float field's domain; the negative value
# already covers an out-of-range one.
REAL = ("fraction",)
# A list field takes a list; its entries are swept on their own.
INTEGER_LIST = ("list",)

#: (section, field) -> names of the bad values the field accepts.
CONFIG_FIELDS = {
    ("train", "variant"): (),
    **{("train", name): INTEGER
       for name in ("epochs", "batch_size", "embed_dim", "kernel", "pool_width")},
    **{("train", name): INTEGER_LIST for name in ("seeds", "conv_channels")},
    **{("train", name): REAL for name in (
        "lr", "weight_decay", "beta1", "beta2", "eps", "temperature",
        "lambda_graph", "lambda_cls", "label_fraction",
    )},
    ("train", "self_loop"): ("bool",),
    ("train", "augment"): (),  # the object value has an unknown field
    **{("train", f"augment.{name}"): REAL
       for name in ("weak_jitter", "weak_scale", "strong_jitter")},
    ("train", "augment.max_segments"): INTEGER,
    ("synth", "class_counts"): INTEGER_LIST,
    **{("synth", name): INTEGER for name in ("length", "channels", "seed")},
    **{("synth", name): REAL for name in (
        "noise_sigma", "frequency_step", "amplitude_decay", "phase_spread", "test_fraction",
    )},
    # A negative base frequency is the positive one with its sign flipped.
    ("synth", "base_frequency"): REAL + ("negative",),
    # Any string names a path; a file that is not there is an OSError.
    **{("data", name): ("string",) for name in ("train_path", "test_path")},
    **{("data", name): INTEGER for name in ("channels", "length", "n_classes")},
    ("probe", "epochs"): INTEGER,
    ("probe", "lr"): REAL,
}

#: List fields, with the valid entries that precede the swept one.
LIST_PREFIXES = {
    ("train", "seeds"): [],
    ("train", "conv_channels"): [],
    ("synth", "class_counts"): [24],
}

SECTIONS = ("train", "train.augment", "synth", "data", "probe")


def _cases(fields):
    return [
        pytest.param(key, name, id=f"{'.'.join(key)}={name}")
        for key, accepted in fields.items()
        for name in BAD_VALUES
        if name not in accepted
    ]


def run_cli(args) -> int:
    try:
        return main(args)
    except SystemExit as exc:  # argparse usage failures
        return int(exc.code)


def assert_rejected(code: int, err: str, prefix: str) -> None:
    assert code == 1, err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(lines) == 1, err
    assert lines[0].startswith(f"error: {prefix}"), err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundaries")
    synth_dir = root / "synth"
    config = {
        "schema": "tscl-config-v1",
        "synth": {"class_counts": [24, 12], "length": 16, "seed": 3},
        "train": {
            "variant": "mlp_id",
            "epochs": 1,
            "batch_size": 16,
            "embed_dim": 8,
            "conv_channels": [4],
            "seeds": [0],
            "label_fraction": 0.4,
        },
        "data": {
            "train_path": str(synth_dir / "train.csv"),
            "test_path": str(synth_dir / "test.csv"),
            "channels": 1,
            "length": 16,
        },
        "probe": {"epochs": 5},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    assert run_cli(["synth", "--config", str(config_path), "--out", str(synth_dir)]) == 0
    run_dir = root / "run"
    assert run_cli(["pretrain", "--config", str(config_path), "--out", str(run_dir)]) == 0
    return {"root": root, "config": config_path, "run": run_dir}


# ---------------------------------------------------------------------------
# config sections


def _config_run(workspace, section: str, assignment: str):
    subcommand = "synth" if section == "synth" else "pretrain"
    return run_cli(
        [subcommand, "--config", str(workspace["config"]), "--set", assignment,
         "--out", str(workspace["root"] / "out")]
    )


@pytest.mark.parametrize("key, name", _cases(CONFIG_FIELDS))
def test_config_field_rejects_bad_value(workspace, capsys, key, name):
    section, field = key
    value = BAD_VALUES[name]
    code = _config_run(workspace, section, f"{section}.{field}={json.dumps(value)}")
    assert_rejected(code, capsys.readouterr().err, f"{workspace['config']}: {section} section: ")


@pytest.mark.parametrize(
    "key, name",
    [pytest.param(key, name, id=f"{'.'.join(key)}[]={name}")
     for key in LIST_PREFIXES for name in BAD_VALUES],
)
def test_config_list_entry_rejects_bad_value(workspace, capsys, key, name):
    section, field = key
    entries = LIST_PREFIXES[key] + [BAD_VALUES[name]]
    code = _config_run(workspace, section, f"{section}.{field}={json.dumps(entries)}")
    assert_rejected(code, capsys.readouterr().err, f"{workspace['config']}: {section} section: ")


@pytest.mark.parametrize("section", SECTIONS)
def test_config_section_rejects_unknown_field(workspace, capsys, section):
    head = section.split(".")[0]
    code = _config_run(workspace, head, f"{section}.colour=1")
    err = capsys.readouterr().err
    assert_rejected(code, err, f"{workspace['config']}: {head} section: unknown ")
    assert "'colour'" in err


@pytest.mark.parametrize("name", sorted(set(BAD_VALUES) - {"object"}))
def test_config_section_that_is_not_an_object_is_rejected(workspace, capsys, name):
    code = _config_run(workspace, "train", f"train={json.dumps(BAD_VALUES[name])}")
    err = capsys.readouterr().err
    assert_rejected(code, err, f"{workspace['config']}: train section: must be an object")
    assert err.count(str(workspace["config"])) == 1


@pytest.mark.parametrize("subcommand", ["synth", "pretrain", "probe"])
def test_config_rejects_unknown_top_level_field(workspace, capsys, subcommand):
    code = run_cli(
        [subcommand, "--config", str(workspace["config"]), "--set", "extra_section.x=5",
         "--out", str(workspace["root"] / "out")]
    )
    err = capsys.readouterr().err
    assert_rejected(code, err, f"{workspace['config']}: unknown top-level fields")
    assert "'extra_section'" in err


@pytest.mark.parametrize(
    "section, assignment, message",
    [
        ("probe", "probe.epoch=500", "unknown config fields: ['epoch']"),
        ("probe", "probe.lrr=5", "unknown config fields: ['lrr']"),
        ("data", "data.lenght=16", "unknown config fields: ['lenght']"),
        ("data", "data.channels=0", "channels must be >= 1, got 0"),
        ("data", "data.length=-16", "length must be >= 1, got -16"),
        ("train", "train.variant=[1]", "unknown variant [1]"),
        ("train", "train.seeds=5", "seeds must be a list, got 5"),
        ("train", "train.seeds=[-1]", "seeds must be >= 0, got [-1]"),
        ("train", "train.augment.foo=1", "unknown augment fields: ['foo']"),
        ("train", "train.kernel=0", "architecture sizes must be positive"),
        ("train", "train.pool_width=0", "architecture sizes must be positive"),
        ("train", "train.lr=-1", "lr must be finite and nonnegative, got -1"),
        ("train", "train.weight_decay=NaN", "weight_decay must be finite and nonnegative"),
        ("synth", "synth.seed=-1", "seed must be >= 0, got -1"),
    ],
)
def test_config_error_names_the_field(workspace, capsys, section, assignment, message):
    code = _config_run(workspace, section, assignment)
    err = capsys.readouterr().err
    assert_rejected(code, err, f"{workspace['config']}: {section} section: {message}")


@pytest.mark.parametrize(
    "args",
    [["probe", "--seed", "-3"], ["verify-bounds", "--seed", "-1"], ["probe", "--seed", "1.5"]],
)
def test_negative_seed_flag_is_a_usage_error(workspace, capsys, args):
    if args[0] == "probe":
        args = args + ["--config", str(workspace["config"])]
    code = run_cli(args + ["--out", str(workspace["root"] / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: argument --seed: must be a nonnegative integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("which", ["train", "test"])
def test_empty_data_file_is_rejected_before_training(workspace, tmp_path, capsys, which):
    empty = tmp_path / f"{which}.csv"
    empty.write_text("\n")
    out = tmp_path / "out"
    code = run_cli(
        ["pretrain", "--config", str(workspace["config"]), "--set", f"data.{which}_path={empty}",
         "--out", str(out)]
    )
    assert_rejected(code, capsys.readouterr().err, f"{empty}: the file holds no data rows")
    assert not out.exists()  # no seed was trained


#: Bad data lines, by name: each edits the fields (label first) of one row.
BAD_DATA_LINES = {
    "field_count": lambda fields: fields[:-1],
    "label_too_large": lambda fields: ["2"] + fields[1:],  # the data holds 2 classes
    "negative_label": lambda fields: ["-1"] + fields[1:],
    "unparsable": lambda fields: fields[:3] + ["abc"] + fields[4:],
    "nan": lambda fields: fields[:3] + ["nan"] + fields[4:],
    "inf": lambda fields: fields[:3] + ["inf"] + fields[4:],
}


@pytest.mark.parametrize("which", ["train", "test"])
@pytest.mark.parametrize("name", sorted(BAD_DATA_LINES))
def test_data_file_line_rejects_bad_value(workspace, tmp_path, capsys, name, which):
    lines = (workspace["root"] / "synth" / f"{which}.csv").read_text().splitlines()
    lines[2] = ",".join(BAD_DATA_LINES[name](lines[2].split(",")))
    path = tmp_path / f"{which}.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = run_cli(
        ["probe", "--config", str(workspace["config"]), "--set", f"data.{which}_path={path}",
         "--set", "data.n_classes=2", "--out", str(out)]
    )
    assert_rejected(code, capsys.readouterr().err, f"{path}: line 3: ")
    assert not out.exists()  # nothing was trained


@pytest.mark.parametrize("name", ["config", "case"])
def test_file_that_is_not_utf8_names_itself(workspace, capsys, name):
    path = workspace["root"] / f"{name}_latin1.json"
    path.write_bytes(b'{"schema": "\xff"}')
    if name == "config":
        args = ["pretrain", "--config", str(path)]
    else:
        args = ["verify-bounds", "--configurations", "2", "--case", str(path)]
    code = run_cli(args + ["--out", str(workspace["root"] / "out")])
    assert_rejected(code, capsys.readouterr().err, f"{path}: invalid JSON")


# ---------------------------------------------------------------------------
# checkpoint

#: The checkpoint's fields (an array's ``shape``, ``data`` and one ``data``
#: entry), with the bad values each accepts.
CHECKPOINT_FIELDS = {
    "format": (),
    "arrays": (),  # the object value is an array without shape or data
    "shape": (),
    "data": (),
    # A weight may be negative or fractional.
    "data entry": ("fraction", "negative"),
}


def _checkpoint_with(payload: dict, field: str, value) -> dict:
    payload = json.loads(json.dumps(payload))
    array = payload["arrays"]["projection.w1"]
    if field in ("format", "arrays"):
        payload[field] = value
    elif field == "data entry":
        array["data"][0] = value
    else:
        array[field] = value
    return payload


@pytest.mark.parametrize("key, name", _cases({(k,): v for k, v in CHECKPOINT_FIELDS.items()}))
def test_checkpoint_field_rejects_bad_value(workspace, tmp_path, capsys, key, name):
    payload = json.loads((workspace["run"] / "params_seed0.json").read_text())
    ckpt = tmp_path / "params.json"
    ckpt.write_text(json.dumps(_checkpoint_with(payload, key[0], BAD_VALUES[name])))
    code = run_cli(
        ["probe", "--config", str(workspace["config"]), "--params", str(ckpt),
         "--out", str(tmp_path / "out")]
    )
    assert_rejected(code, capsys.readouterr().err, f"{ckpt}: ")


@pytest.mark.parametrize("value", [1e308, -1e308])
def test_checkpoint_that_overflows_the_encoder_names_itself(workspace, tmp_path, capsys, value):
    payload = json.loads((workspace["run"] / "params_seed0.json").read_text())
    for name in ("encoder.conv0.weight", "encoder.linear.weight"):
        payload["arrays"][name]["data"][0] = value
    ckpt = tmp_path / "params.json"
    ckpt.write_text(json.dumps(payload))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            ["probe", "--config", str(workspace["config"]), "--params", str(ckpt),
             "--out", str(tmp_path / "out")]
        )
    err = capsys.readouterr().err
    assert_rejected(code, err, f"{ckpt}: ")
    assert "non-finite embeddings" in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


# ---------------------------------------------------------------------------
# verify-bounds case file

_CASE = {
    "values": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
    "labels": [0, 0, 1, 1],
    "partner": [1, 0, 3, 2],
    "temperature": 1.0,
}

CASE_FIELDS = {
    "values": (),
    "labels": (),
    "partner": (),
    "temperature": REAL,
}


def _run_case(tmp_path, case) -> tuple[int, Path]:
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    code = run_cli(
        ["verify-bounds", "--configurations", "2", "--case", str(path),
         "--out", str(tmp_path / "out")]
    )
    return code, path


@pytest.mark.parametrize("key, name", _cases({(k,): v for k, v in CASE_FIELDS.items()}))
def test_case_field_rejects_bad_value(tmp_path, capsys, key, name):
    code, path = _run_case(tmp_path, {**_CASE, key[0]: BAD_VALUES[name]})
    assert_rejected(code, capsys.readouterr().err, f"{path}: ")


# Labels are class tags, so any integer entry is one; a partner entry must
# index a row.  A values entry may be any finite number.
@pytest.mark.parametrize(
    "field, entries",
    [
        ("values", [[float("nan"), 0.0]] + _CASE["values"][1:]),
        ("values", [[float("inf"), 0.0]] + _CASE["values"][1:]),
        ("values", [["abc", 0.0]] + _CASE["values"][1:]),
        ("values", [[1.0, 0.0]]),
        ("values", [[[1.0]]] * 4),
        ("labels", [0, 0, 1, 2.5]),
        ("labels", [0, 0, 1, True]),
        ("labels", [0, 0, 1]),
        ("partner", [1, 0, 3, -1]),
        ("partner", [1, 0, 3, 4]),
        ("partner", [1, 0, 3, "2"]),
    ],
)
def test_case_entry_rejects_bad_value(tmp_path, capsys, field, entries):
    code, path = _run_case(tmp_path, {**_CASE, field: entries})
    assert_rejected(code, capsys.readouterr().err, f"{path}: ")


def test_case_rejects_unknown_field(tmp_path, capsys):
    code, path = _run_case(tmp_path, {**_CASE, "temperture": 0.5})
    err = capsys.readouterr().err
    assert_rejected(code, err, f"{path}: unknown case fields")
    assert "'temperture'" in err


# ---------------------------------------------------------------------------
# run record

RECORD_FIELDS = {
    "seed": (),
    "variant": ("string",),  # a record may come from any variant
    "config": ("object",),  # the report does not read the config
    "epoch_stats": (),
    "final_metrics": (),
    "metric_scale": (),
}


#: The scores the report reads, inside ``final_metrics``; each lies in [0, 1].
RECORD_SCORES = (("accuracy",), ("macro_f1",), ("per_class", "0", "f1"))


@pytest.mark.parametrize(
    "key, name",
    _cases({(k,): v for k, v in RECORD_FIELDS.items()})
    + _cases({("final_metrics", *score): () for score in RECORD_SCORES}),
)
def test_run_record_field_rejects_bad_value(workspace, tmp_path, capsys, key, name):
    record = json.loads((workspace["run"] / "record_seed0.json").read_text())
    node = record
    for part in key[:-1]:
        node = node[part]
    node[key[-1]] = BAD_VALUES[name]
    path = tmp_path / "record_seed0.json"
    path.write_text(json.dumps(record))
    code = run_cli(["report", str(tmp_path), "--out", str(tmp_path / "out")])
    assert_rejected(code, capsys.readouterr().err, f"{path}: ")


# ---------------------------------------------------------------------------
# one JSON reader


def _json_load_callers(tree: ast.AST, owner: str = "<module>") -> list[str]:
    """The name of the function around each ``json.load`` call in ``tree``."""
    callers = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callers += _json_load_callers(child, child.name)
            continue
        func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "load"
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            callers.append(owner)
        callers += _json_load_callers(child, owner)
    return callers


def test_json_load_is_called_only_by_read_json_object():
    src = Path(__file__).resolve().parents[1] / "src" / "tscl"
    calls = [
        (module.name, caller)
        for module in sorted(src.glob("*.py"))
        for caller in _json_load_callers(ast.parse(module.read_text(encoding="utf-8")))
    ]
    assert calls == [("errors.py", "read_json_object")]

"""End-to-end pipeline tests: synth -> prepare -> train -> evaluate -> analyze -> grid.

Commands run in-process through cli.main so exit codes and stderr behavior are
observable without subprocess overhead; one smoke test exercises the module as
an executable. Determinism tests rerun commands into a fresh outdir and compare
artifact bytes; history.csv is compared column-wise because its wall_time field
measures the run itself.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tide import cli, dataset, evaluation, trainer
from tide.dataset import INTEGER, load_split
from tide.model import TideModel, load_checkpoint, save_checkpoint
from tide.synthgen import SynthConfig
from tide.trainer import TrainConfig

SYNTH_OVERRIDES = {
    "n_users": 60,
    "n_items": 25,
    "n_events": 4000,
    "embed_dim": 8,
    "seed": 0,
}


# every command's settings, as its config file may give them
COMMAND_DEFAULTS = {name: {s.key: s.default for s in settings} for name, settings in cli.SETTINGS.items()}
# per type of a setting's default, a JSON value of another kind; None stands
# for the four settings whose default is null
WRONG_KIND = {bool: 1, int: 2.5, float: "0.5", str: 5, dict: [1], type(None): True}


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def subcommand_parsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def only_entry(outdir: Path) -> Path:
    entries = list(Path(outdir).iterdir())
    assert len(entries) == 1
    return entries[0]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH_OVERRIDES))
    assert run_cli(["synth", "--config", synth_cfg, "--outdir", root / "synth"]) == 0
    synth_dir = only_entry(root / "synth")

    prepare_args = [
        "prepare", "--data", synth_dir / "interactions.tsv",
        "--core-n", 2, "--outdir", root / "prep",
    ]
    assert run_cli(prepare_args) == 0
    prep_dir = only_entry(root / "prep")

    train_args = [
        "train", "--data", prep_dir, "--method", "tide", "--embed-dim", 8,
        "--epochs", 2, "--batch-size", 1024, "--seed", 0,
    ]
    assert run_cli(train_args + ["--outdir", root / "train"]) == 0
    train_dir = only_entry(root / "train")
    return {
        "root": root, "synth_cfg": synth_cfg, "synth": synth_dir,
        "prep": prep_dir, "train": train_dir,
        "prepare_args": prepare_args, "train_args": train_args,
    }


# ---------------------------------------------------------------- run ids


def test_run_id_is_sha1_prefix_of_canonical_json():
    config = {"b": 2, "a": [1, 2], "c": None}
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha1(canonical.encode()).hexdigest()[:12]
    assert cli.run_id(config) == expected


def test_run_id_ignores_key_order_but_not_values():
    a = cli.run_id({"x": 1, "y": 2})
    b = cli.run_id({"y": 2, "x": 1})
    c = cli.run_id({"x": 1, "y": 3})
    assert a == b
    assert a != c


def test_report_csv_formats_each_cell_by_its_type(tmp_path):
    # floats (numpy's too) as %.10g, None as an empty cell, anything else by str
    path = tmp_path / "report.csv"
    cli._write_csv(path, ["a", "b", "c", "d"], [[1 / 3, None, 7, "x"], [np.float64(2.5), -0.0, None, float("nan")]])
    assert path.read_bytes() == b"a,b,c,d\n0.3333333333,,7,x\n2.5,-0,,nan\n"
    cli._write_csv(path, ["a", "b"], [])
    assert path.read_bytes() == b"a,b\n"


def test_run_dir_is_named_after_its_own_config(pipeline):
    for run_dir in (pipeline["synth"], pipeline["prep"], pipeline["train"]):
        config = json.loads((run_dir / "config.json").read_text())
        assert run_dir.name == cli.run_id(config)


# ---------------------------------------------------------------- config resolution


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({**SYNTH_OVERRIDES, "n_events": 500}))
    rc = run_cli(["synth", "--config", cfg, "--n-events", 300, "--outdir", tmp_path / "out"])
    assert rc == 0
    resolved = json.loads((only_entry(tmp_path / "out") / "config.json").read_text())
    assert resolved["n_events"] == 300
    assert resolved["n_users"] == SYNTH_OVERRIDES["n_users"]
    assert "synth: " in capsys.readouterr().out


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n_events": 500, "learning_rate": 0.1}))
    rc = run_cli(["synth", "--config", cfg, "--outdir", tmp_path / "out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "learning_rate" in err


def test_config_file_values_are_checked_against_their_flags_types(tmp_path):
    parser = cli.build_parser()
    cfg = tmp_path / "config.json"

    def resolve(command, content):
        cfg.write_text(json.dumps(content))
        return cli.resolve_config(parser.parse_args([command, "--config", str(cfg)]), cli.SETTINGS[command])

    # what a flag could give passes: an int for a float flag, the default of a
    # flag with choices, a list of modes, null where the default is null
    config = resolve("train", {"data": "split", "tau": 30000, "variant": "full", "method": "pd"})
    assert (config["tau"], config["variant"], config["method"]) == (30000, "full", "pd")
    config = resolve("evaluate",
                     {"data": "split", "modes": ["full", "int"], "checkpoint": None, "per_user": True,
                      "on": "validation"})
    assert (config["modes"], config["checkpoint"], config["per_user"]) == (["full", "int"], None, True)

    for command, content, message in [
        ("evaluate", {"on": "tset"}, "on must be one of ['test', 'validation'], got 'tset'"),
        ("evaluate", {"per_user": 1}, "per_user must be true or false, got 1"),
        ("evaluate", {"k_click": 5.0}, "k_click must be an integer, got 5.0"),
        ("train", {"data": 7}, "data must be a path string, got 7"),
        ("train", {"tau": "3e4"}, "tau must be a number, got '3e4'"),
        ("train", {"lr_emb": False}, "lr_emb must be a number, got False"),
        ("analyze", {"t_o": None}, "t_o must be an integer, got None"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message + " from the config file")):
            resolve(command, {"data": "split", **content})


@pytest.mark.parametrize("command,key", [(command, key) for command, defaults in COMMAND_DEFAULTS.items()
                                         for key in defaults])
def test_every_config_key_refuses_a_value_of_another_kind(tmp_path, capsys, command, key):
    # a key added without a check fails here: each command checks every file key
    # against its default's kind, and null only where the default is null
    default = COMMAND_DEFAULTS[command][key]
    for k, value in enumerate([WRONG_KIND[type(default)]] + ([None] if default is not None else [])):
        cfg = tmp_path / f"{k}.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli([command, "--config", cfg, "--outdir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert f"error: {key} must be " in err and f", got {value!r} from the config file" in err, err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", sorted(COMMAND_DEFAULTS["train"]))
def test_every_grid_value_is_checked_before_any_run_directory(tmp_path, capsys, key):
    default = COMMAND_DEFAULTS["train"][key]
    value = WRONG_KIND[type(default)]
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({key: [default, value]}))
    # the first point is valid, the second is not: no point may start before all are checked
    assert run_cli(["grid", "--data", tmp_path / "split", "--grid", grid_file, "--outdir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert f"error: {key} must be " in err and f", got {value!r} from the grid" in err, err
    assert not (tmp_path / "out").exists()


def test_missing_required_data_option_fails(tmp_path, capsys):
    rc = run_cli(["prepare", "--outdir", tmp_path])
    assert rc == 1
    assert "missing required option" in capsys.readouterr().err


def test_every_flag_sets_a_key_of_its_command_defaults():
    # a dest that is not a config key would be parsed and then never read
    not_config = {"help", "config", "outdir", "threads", "grid_file"}
    commands = subcommand_parsers()
    assert set(commands) == set(COMMAND_DEFAULTS)
    for name, sub in commands.items():
        dests = {a.dest for a in sub._actions} - not_config
        assert dests <= set(COMMAND_DEFAULTS[name]), (name, sorted(dests - set(COMMAND_DEFAULTS[name])))


def test_readme_flag_table_lists_every_renamed_flag():
    # a flag whose dest is not its own name, as `--k` sets k_click; the README
    # names `--seed` as `prepare --seed`, since it is renamed there only
    commands = subcommand_parsers()
    renamed = {(a.option_strings[0], a.dest) for name, sub in commands.items() for a in sub._actions
               if a.option_strings and a.dest in COMMAND_DEFAULTS[name]
               and a.dest != a.option_strings[0].lstrip("-").replace("-", "_")}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| flag "):].split("\n\n")[0].splitlines()[2:]
    rows = {tuple(cell.strip().strip("`").split()[-1] for cell in row.strip("|").split("|")) for row in table}
    assert rows == renamed


def test_flag_with_a_renamed_dest_reaches_its_config_key(pipeline, tmp_path):
    assert run_cli(pipeline["prepare_args"] + ["--seed", 3, "--outdir", tmp_path / "prep"]) == 0
    config = json.loads((only_entry(tmp_path / "prep") / "config.json").read_text())
    assert config["split_seed"] == 3
    assert json.loads((only_entry(tmp_path / "prep") / "manifest.json").read_text())["seed"] == 3

    rc = run_cli([
        "evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
        "--modes", "int", "--k", 7, "--outdir", tmp_path / "eval",
    ])
    assert rc == 0
    config = json.loads((only_entry(tmp_path / "eval") / "config.json").read_text())
    assert config["k_click"] == 7


def test_a_negative_number_in_exponent_form_is_a_flag_value(pipeline, tmp_path, capsys):
    for text, value in (("-1e-3", -0.001), ("-.5E+1", -5.0), ("-2.5e0", -2.5)):
        args = cli.build_parser().parse_args(["train", "--data", "split", "--init-qb", text])
        assert cli.resolve_config(args, cli.SETTINGS["train"])["init_qb"] == value
    # the value reaches the variant's own check, not argparse's "expected one argument"
    rc = run_cli(["train", "--data", pipeline["prep"], "--ablation", "fixq", "--fixed-q", "-1e-3",
                  "--outdir", tmp_path / "out"])
    assert rc == 1
    assert capsys.readouterr().err == "error: fixed_q must be positive for the fixq variant, got -0.001\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- synth + prepare


def test_synth_artifacts_and_determinism(pipeline, tmp_path):
    assert (pipeline["synth"] / "interactions.tsv").exists()
    truth = json.loads((pipeline["synth"] / "truth.json").read_text())
    assert len(truth["true_quality"]) == SYNTH_OVERRIDES["n_items"]
    assert len(truth["true_beta"]) == SYNTH_OVERRIDES["n_items"]

    rc = run_cli(["synth", "--config", pipeline["synth_cfg"], "--outdir", tmp_path])
    assert rc == 0
    rerun = only_entry(tmp_path)
    assert rerun.name == pipeline["synth"].name
    for fname in ("config.json", "interactions.tsv", "truth.json"):
        assert (rerun / fname).read_bytes() == (pipeline["synth"] / fname).read_bytes()


def test_prepare_split_roundtrips_and_is_deterministic(pipeline, tmp_path):
    split = load_split(pipeline["prep"])
    counts = json.loads((pipeline["prep"] / "manifest.json").read_text())["counts"]
    assert counts["train"] == len(split.train)
    assert counts["validation"] == len(split.validation)
    assert counts["test"] == len(split.test)
    assert len(split.train) > len(split.test) > 0

    assert run_cli(pipeline["prepare_args"] + ["--outdir", tmp_path]) == 0
    rerun = only_entry(tmp_path)
    for f in sorted(p.name for p in pipeline["prep"].iterdir()):
        assert (rerun / f).read_bytes() == (pipeline["prep"] / f).read_bytes()


# ---------------------------------------------------------------- train


def test_train_artifacts(pipeline):
    run_dir = pipeline["train"]
    model, meta = load_checkpoint(run_dir / "checkpoint.npz")
    split = load_split(pipeline["prep"])
    assert model.n_items == split.train.n_items
    assert meta["config"]["method"] == "tide"

    text = (run_dir / "history.csv").read_bytes().decode()
    assert "\r" not in text and text.endswith("\n")
    history = [line.split(",") for line in text.splitlines()]
    assert history[0] == ["epoch", "loss", "val_cp_rec", "wall_time"]
    assert len(history) == 3
    summary = json.loads((run_dir / "train_summary.json").read_text())
    for epoch, (shown_epoch, loss, val, wall) in enumerate(history[1:]):
        assert shown_epoch == str(epoch)
        assert loss == f"{float(loss):.10g}" and val == f"{float(val):.10g}"
        assert wall == f"{float(wall):.3f}"
    assert max(float(row[2]) for row in history[1:]) == float(f"{summary['val_cp_rec']:.10g}")

    assert summary["run_id"] == run_dir.name
    assert summary["epochs_run"] == 2
    assert summary["best_epoch"] in (0, 1)


def test_train_rerun_is_deterministic_up_to_wall_time(pipeline, tmp_path):
    assert run_cli(pipeline["train_args"] + ["--outdir", tmp_path]) == 0
    rerun = only_entry(tmp_path)
    base = pipeline["train"]
    assert rerun.name == base.name
    for fname in ("config.json", "checkpoint.npz", "train_summary.json"):
        assert (rerun / fname).read_bytes() == (base / fname).read_bytes()
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]
    assert strip((rerun / "history.csv").read_text()) == strip((base / "history.csv").read_text())


# ---------------------------------------------------------------- evaluate


REPORT_KEYS = {
    "method", "mode", "k_click", "k_pref", "cp_rec", "cp_pre", "cp_ndcg", "pp_rec", "pp_pre",
    "n_users_click", "n_users_pref", "n_skipped_click", "n_skipped_pref",
}


def test_evaluate_emits_one_report_per_mode(pipeline, tmp_path, capsys):
    rc = run_cli([
        "evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
        "--modes", "full,int,e", "--k", 5, "--k-pref", 2, "--outdir", tmp_path,
    ])
    assert rc == 0
    run_dir = only_entry(tmp_path)
    payload = json.loads((run_dir / "eval.json").read_text())
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert payload["method"] == "tide"
    assert [r["mode"] for r in payload["reports"]] == ["full", "int", "e"]
    for report in payload["reports"]:
        assert set(report) == REPORT_KEYS
        assert report["k_click"] == 5 and report["k_pref"] == 2
        assert 0.0 <= report["cp_rec"] <= 1.0
    lines = (run_dir / "eval.csv").read_text().strip().split("\n")
    assert lines[0].startswith("method,mode,k_click,k_pref,cp_rec")
    assert len(lines) == 4
    assert capsys.readouterr().out.count("evaluate[") == 3


def test_evaluate_builds_each_task_once_for_all_modes(pipeline, tmp_path, monkeypatch):
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return build

    for name in ("ClickTask", "PreferenceTask"):
        monkeypatch.setattr(evaluation, name, counting(getattr(evaluation, name)))
    assert run_cli([
        "evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
        "--modes", "full,int,e", "--outdir", tmp_path,
    ]) == 0
    assert len(json.loads((only_entry(tmp_path) / "eval.json").read_text())["reports"]) == 3
    assert sorted(built) == ["ClickTask", "PreferenceTask"]


def test_evaluate_defaults_to_variant_mode_set(pipeline, tmp_path):
    rc = run_cli([
        "evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
        "--k", 5, "--outdir", tmp_path,
    ])
    assert rc == 0
    payload = json.loads((only_entry(tmp_path) / "eval.json").read_text())
    assert [r["mode"] for r in payload["reports"]] == ["full", "int", "e"]


def test_evaluate_rerun_is_byte_identical(pipeline, tmp_path):
    args = [
        "evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
        "--modes", "full,int", "--k", 5,
    ]
    assert run_cli(args + ["--outdir", tmp_path / "a"]) == 0
    assert run_cli(args + ["--outdir", tmp_path / "b"]) == 0
    first, second = only_entry(tmp_path / "a"), only_entry(tmp_path / "b")
    for fname in ("config.json", "eval.json", "eval.csv"):
        assert (first / fname).read_bytes() == (second / fname).read_bytes()


def test_evaluate_per_user_rows_average_to_the_aggregates(pipeline, tmp_path):
    args = [
        "evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
        "--modes", "full,int", "--k", 5, "--k-pref", 2,
    ]
    assert run_cli(args + ["--outdir", tmp_path / "plain"]) == 0
    plain = json.loads((only_entry(tmp_path / "plain") / "eval.json").read_text())
    assert all("per_user" not in r for r in plain["reports"])

    assert run_cli(args + ["--per-user", "--outdir", tmp_path / "rows"]) == 0
    payload = json.loads((only_entry(tmp_path / "rows") / "eval.json").read_text())
    for report in payload["reports"]:
        assert set(report) == REPORT_KEYS | {"per_user"}
        rows = report["per_user"]
        assert set(rows) == {"click", "pref"}
        assert len(rows["click"]) == report["n_users_click"] > 0
        assert len(rows["pref"]) == report["n_users_pref"] > 0
        for task, fields in (("click", ("cp_rec", "cp_pre", "cp_ndcg")), ("pref", ("pp_rec", "pp_pre"))):
            for field, metric in zip(fields, ("recall", "precision", "ndcg")):
                values = [row[metric] for row in rows[task].values()]
                assert sum(values) / len(values) == pytest.approx(report[field], rel=1e-12, abs=1e-15)


def test_a_stage_warning_prints_as_one_line(pipeline, tmp_path, capsys):
    # at ips_cap 2 no item holds more than half the clicks, so fit warns that mf-ips trains as mf
    args = ["train", "--data", pipeline["prep"], "--method", "mf-ips", "--ips-cap", 2,
            "--embed-dim", 4, "--epochs", 1, "--batch-size", 1024]
    shown = warnings.showwarning
    assert run_cli(args + ["--outdir", tmp_path / "shown"]) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(r"warning: mf-ips trains as mf: [^\n]* caps every weight [^\n]*\n", err), err
    assert warnings.showwarning is shown  # the one-line display ends with the call
    # the caller's filters still reach the stage: an error filter fails the run
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert run_cli(args + ["--outdir", tmp_path / "raised"]) == 1
    assert capsys.readouterr().err.startswith("error: mf-ips trains as mf: ")


@pytest.mark.parametrize("command", ["evaluate", "analyze"])
def test_seed_is_rejected_where_nothing_is_random(pipeline, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
                 "--seed", 3, "--outdir", tmp_path])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_non_tide_checkpoint_rejects_tide_modes(pipeline, tmp_path, capsys):
    rc = run_cli([
        "train", "--data", pipeline["prep"], "--method", "mf", "--embed-dim", 8,
        "--epochs", 1, "--seed", 0, "--outdir", tmp_path / "mf",
    ])
    assert rc == 0
    mf_dir = only_entry(tmp_path / "mf")
    capsys.readouterr()

    rc = run_cli([
        "evaluate", "--data", pipeline["prep"], "--checkpoint", mf_dir,
        "--k", 5, "--outdir", tmp_path / "native",
    ])
    assert rc == 0
    payload = json.loads((only_entry(tmp_path / "native") / "eval.json").read_text())
    assert [r["mode"] for r in payload["reports"]] == ["native"]
    assert payload["method"] == "mf"

    rc = run_cli([
        "evaluate", "--data", pipeline["prep"], "--checkpoint", mf_dir,
        "--modes", "int", "--k", 5, "--outdir", tmp_path / "bad",
    ])
    assert rc == 1
    assert "requires method tide" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_evaluate_reads_the_method_from_the_checkpoint_only(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
                 "--method", "mf", "--outdir", tmp_path / "flag"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err

    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"method": "mf"}))
    rc = run_cli(["evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
                  "--config", cfg, "--outdir", tmp_path / "file"])
    assert rc == 1
    assert "unknown config keys: ['method']" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()


def test_evaluate_refuses_a_checkpoint_without_a_training_config(pipeline, tmp_path, capsys):
    model, _ = load_checkpoint(pipeline["train"] / "checkpoint.npz")
    bare = tmp_path / "bare.npz"
    # no meta, a config that is no object, and meta that is no object
    for meta in (None, {"config": [1]}, 5):
        save_checkpoint(model, bare, meta=meta)
        rc = run_cli(["evaluate", "--data", pipeline["prep"], "--checkpoint", bare, "--outdir", tmp_path / "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bare) in err and "no training config" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit,message", [
    ({"epochs": "1"}, "epochs must be an integer, got '1' from the training config of {path}"),
    ({"bogus": 1}, "unknown config keys: ['bogus'] in the training config of {path}"),
    ({"tau": None}, "tau must be a number, got None from the training config of {path}"),
], ids=["epochs-text", "unknown-key", "tau-null"])
def test_evaluate_refuses_a_checkpoint_whose_training_config_is_malformed(pipeline, tmp_path, capsys, edit,
                                                                          message):
    model, meta = load_checkpoint(pipeline["train"] / "checkpoint.npz")
    path = tmp_path / "edited.npz"
    save_checkpoint(model, path, meta={"config": {**meta["config"], **edit}})
    rc = run_cli(["evaluate", "--data", pipeline["prep"], "--checkpoint", path, "--outdir", tmp_path / "out"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
def test_evaluate_refuses_a_fixed_quality_that_is_not_positive_and_finite(pipeline, tmp_path, capsys, value):
    # NaN, a negative v and 0 would serve all-NaN, sign-flipped and all-tied scores; "abc" is no number
    rc = run_cli(["evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
                  "--modes", f"full,fixq:{value}", "--outdir", tmp_path / "out"])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: mode 'fixq:{value}': the fixed quality must be "
                                       "a positive, finite number\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifest,message", [
    ({"counts": None}, "has no 'counts' key"),
    ({"n_items": None}, "has no 'n_items' key"),
    ({"counts": {"train": 1, "validation": 1}}, "has no 'counts.test' key"),
    ([1], "manifest must be an object, got [1] from the split manifest {path}"),
    ({"n_items": "1000"}, "{path}: 'n_items' must be a nonnegative integer, got '1000'"),
    ({"counts.test": "4260"}, "{path}: 'counts.test' must be a nonnegative integer, got '4260'"),
    ({"parts": True}, "{path}: 'parts' must be a nonnegative integer, got True"),
    ({"seed": -1}, "{path}: 'seed' must be a nonnegative integer, got -1"),
    ({"boundaries": [0, "1"]}, "{path}: 'boundaries' must be a list of finite numbers, got [0, '1']"),
    ({"n_items": 1}, "at or past 'n_items' = 1 in {path}"),
    ({"n_users": 1}, "at or past 'n_users' = 1 in {path}"),
    ({"parts": 0}, "{path}: 'parts' must be >= 2, got 0"),
    ({"parts": 1}, "{path}: 'parts' must be >= 2, got 1"),
    ({"boundaries": []}, "{path}: 'boundaries' must hold parts + 1 = 11 numbers, got 0"),
], ids=["counts", "n-items", "counts-test", "list", "n-items-text", "counts-test-text", "parts-bool",
        "seed-negative", "boundaries-text", "item-past-n-items", "user-past-n-users", "parts-zero", "parts-one",
        "boundaries-empty"])
def test_a_malformed_split_manifest_is_refused_by_name(pipeline, tmp_path, capsys, manifest, message):
    prep = tmp_path / "prep"
    prep.mkdir()
    for part in ("train", "validation", "test"):
        (prep / f"{part}.tsv").write_bytes((pipeline["prep"] / f"{part}.tsv").read_bytes())
    path = prep / "manifest.json"
    if isinstance(manifest, dict):  # the written manifest, with each key given None left out; "a.b" sets b in a
        edits = {**json.loads((pipeline["prep"] / "manifest.json").read_text()), **manifest}
        manifest = {key: value for key, value in edits.items() if value is not None and "." not in key}
        for key, value in edits.items():
            if "." in key:
                outer, inner = key.split(".")
                manifest[outer] = {**manifest[outer], inner: value}
    path.write_text(json.dumps(manifest))
    for argv in (["train", "--data", prep], ["evaluate", "--data", prep, "--checkpoint", pipeline["train"]]):
        assert run_cli(argv + ["--outdir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and message.format(path=path) in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("part,column,value,message", [
    ("validation", 2, "x", "line 3: non-numeric rating 'x'"),
    ("train", 3, "-5", "line 3: negative timestamp"),
], ids=["rating-text", "time-negative"])
def test_a_malformed_split_partition_is_refused_by_file_and_line(pipeline, tmp_path, capsys, part, column, value,
                                                                 message):
    prep = tmp_path / "prep"
    shutil.copytree(pipeline["prep"], prep)
    path = prep / f"{part}.tsv"
    lines = path.read_text().splitlines()
    row = lines[2].split("\t")
    row[column] = value
    lines[2] = "\t".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(["train", "--data", prep, "--epochs", 1, "--outdir", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_refuses_a_checkpoint_of_another_catalog(pipeline, tmp_path, capsys):
    _, meta = load_checkpoint(pipeline["train"] / "checkpoint.npz")
    manifest = json.loads((pipeline["prep"] / "manifest.json").read_text())
    split = (manifest["n_users"], manifest["n_items"])
    shape = (split[0] + 1, split[1] + 2)
    other = tmp_path / "other.npz"
    save_checkpoint(TideModel.init(*shape, dim=meta["config"]["embed_dim"], seed=0), other, meta=meta)
    rc = run_cli(["evaluate", "--data", pipeline["prep"], "--checkpoint", other, "--outdir", tmp_path / "out"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: checkpoint and split disagree on user/item counts: "
                                       f"checkpoint has {shape}, split has {split}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["user_emb", "item_emb", "q_raw", "beta_raw"])
def test_a_checkpoint_whose_shapes_disagree_is_refused_on_load(pipeline, tmp_path, capsys, name):
    with np.load(pipeline["train"] / "checkpoint.npz") as npz:
        stored = dict(npz)
    stored[name] = np.concatenate([stored[name], stored[name][:1]])  # one row or item too many
    bad = tmp_path / "bad.npz"
    np.savez(bad, **stored)
    n_users, n_items, dim = (int(stored[key]) for key in ("n_users", "n_items", "dim"))
    want = {"user_emb": (n_users, dim), "item_emb": (n_items, dim), "q_raw": (n_items,), "beta_raw": (n_items,)}
    for argv in (["evaluate", "--data", pipeline["prep"]], ["analyze", "--data", pipeline["prep"]]):
        assert run_cli(argv + ["--checkpoint", bad, "--outdir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (f"error: {bad}: {name} has shape {stored[name].shape}, but n_users="
                                           f"{n_users}, n_items={n_items} and dim={dim} give it {want[name]}\n")
        assert not (tmp_path / "out").exists()


def test_rejected_train_config_leaves_no_run_directory(pipeline, tmp_path, capsys):
    rc = run_cli([
        "train", "--data", pipeline["prep"], "--method", "pd", "--gamma", 1.5,
        "--epochs", 1, "--outdir", tmp_path / "out",
    ])
    assert rc == 1
    assert "gamma must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    # a grid checks every point before it makes its own directory
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"gamma": [0.5, 1.5]}))
    rc = run_cli([
        "grid", "--data", pipeline["prep"], "--method", "pd", "--grid", grid_file,
        "--epochs", 1, "--outdir", tmp_path / "grid",
    ])
    assert rc == 1
    assert "gamma must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("argv,message", [
    (["synth", "--n-events", 0], "n_events must be >= 1, got 0"),
    (["synth", "--config", "{nonfinite}"], "tau must be finite, got nan"),
    (["prepare", "--data", "nothere.tsv"], "no such interaction file"),
    (["analyze", "--data", "nothere"], "no such interaction file"),
    (["analyze", "--data", "{prep}", "--checkpoint", "nothere.npz"], "nothere.npz"),
    (["evaluate", "--data", "{prep}", "--checkpoint", "{train}", "--k", 0], "k_click must be >= 1, got 0"),
    (["evaluate", "--data", "{prep}", "--checkpoint", "{train}", "--k-pref", 0], "k_pref must be >= 1, got 0"),
    (["analyze", "--data", "{prep}", "--t-o", 0], "t_o must be positive, got 0"),
    (["analyze", "--data", "{prep}", "--n-buckets", 0], "n_buckets must be >= 1, got 0"),
    (["analyze", "--data", "{prep}", "--min-ratings", 2], "min_ratings must be >= 3, got 2"),
    (["grid", "--data", "{prep}", "--threads", 0], "threads must be >= 1, got 0"),
    (["analyze", "--data", "{prep}", "--checkpoint", "{wide}"],
     f"checkpoint scores 40 items but the log has {SYNTH_OVERRIDES['n_items']}"),
    (["prepare", "--data", "{raw}", "--core-n", -3], "core_n must be >= 1, got -3"),
    (["analyze", "--data", "{prep}", "--p-threshold", 7], "p_threshold must be in [0, 1], got 7.0"),
    (["train", "--data", "{prep}", "--lr-emb", "nan"], "lr_emb must be finite, got nan"),
    (["train", "--data", "{prep}", "--weight-decay", "nan"], "weight_decay_emb must be finite, got nan"),
    (["train", "--data", "{prep}", "--ablation", "fixq", "--fixed-q", "nan"], "fixed_q must be finite, got nan"),
    (["train", "--data", "{prep}", "--tau", 0], "tau must be positive, got 0.0"),
    (["train", "--data", "{prep}", "--method", "mf", "--tau", -5], "tau must be positive, got -5.0"),
    (["train", "--data", "{prep}", "--method", "mf-ips", "--ips-cap", 0], "ips_cap must be positive, got 0.0"),
    (["train", "--data", "{prep}", "--init-std", -1], "init_std must be nonnegative, got -1.0"),
    (["analyze", "--data", "{prep}", "--config", "{t_o_nan}"], "t_o must be an integer, got nan from the config file"),
    (["analyze", "--data", "{prep}", "--config", "{n_buckets}"], "n_buckets must be an integer, got 2.5"),
    (["prepare", "--data", "{raw}", "--config", "{parts}"], "parts must be an integer, got '10'"),
    (["train", "--data", "{prep}", "--config", "{epochs_bool}"], "epochs must be an integer, got True"),
    (["grid", "--data", "{prep}", "--grid", "{epochs_grid}"], "epochs must be an integer, got 1.5 from the grid"),
    (["grid", "--data", "{prep}", "--config", "{batch_size_grid}"],
     "batch_size must be an integer, got 512.5 from the config file"),
    (["train", "--data", "{prep}", "--config", "{k_select}"], "k_select must be an integer, got 2.5 from the config file"),
    (["synth", "--config", "{n_users}"], "n_users must be an integer, got 20.5 from the config file"),
    (["prepare", "--data", "{raw}", "--config", "{delimiter}"], "delimiter must be a string, got 5 from the config file"),
    (["evaluate", "--data", "{prep}", "--checkpoint", "{train}", "--config", "{modes}"],
     "modes must be a string or a list of strings, got [1] from the config file"),
    (["synth", "--seed", -1], "seed must be nonnegative, got -1"),
    (["train", "--data", "{prep}", "--seed", -1], "seed must be nonnegative, got -1"),
    (["grid", "--data", "{prep}", "--seed", -1], "seed must be nonnegative, got -1"),
    (["prepare", "--data", "{raw}", "--seed", -1], "split_seed must be nonnegative, got -1"),
    (["grid", "--data", "{prep}", "--grid", "{grid_list}"], "grid must be an object, got [1] from the grid file"),
    (["train", "--data", "{prep}", "--config", "{method}"], "unknown method 'x'"),
    (["train", "--data", "{prep}", "--config", "{config_int}"],
     "config must be an object, got 5 from the config file {config_int}"),
    (["synth", "--config", "{config_null}"], "config must be an object, got None from the config file {config_null}"),
    (["prepare", "--data", "{raw}", "--config", "{config_str}"],
     "config must be an object, got 'abc' from the config file {config_str}"),
    (["analyze", "--data", "{prep}", "--config", "{config_syntax}"],
     "the config file {config_syntax} is not valid JSON: Expecting value: line 1 column 9 (char 8)"),
    (["grid", "--data", "{prep}", "--grid", "{config_syntax}"], "the grid file {config_syntax} is not valid JSON: "),
    (["synth", "--config", "{underflow}"],
     "error: degenerate config: user 19's matching weights sum to 0.0, not a finite positive number "
     "(lower emb_std or embed_dim)\n"),
    (["synth", "--config", "{overflow}"], "error: degenerate config: user 0's matching weights sum to inf"),
], ids=["synth", "synth-non-finite", "prepare", "analyze-data", "analyze-checkpoint", "evaluate-k", "evaluate-k-pref",
        "analyze-t-o", "analyze-n-buckets", "analyze-min-ratings", "grid-threads", "analyze-catalog",
        "prepare-core-n", "analyze-p-threshold", "train-lr-emb", "train-weight-decay", "train-fixed-q", "train-tau",
        "train-mf-tau", "train-ips-cap", "train-init-std", "analyze-config-t-o-nan", "analyze-config-n-buckets",
        "prepare-config-parts", "train-config-bool-epochs", "grid-grid-epochs", "grid-config-batch-size",
        "train-config-k-select", "synth-config-n-users", "prepare-config-delimiter", "evaluate-config-modes",
        "synth-seed", "train-seed", "grid-seed", "prepare-seed", "grid-file-list", "train-config-method",
        "config-number", "config-null", "config-string", "config-syntax", "grid-file-syntax",
        "synth-config-underflow", "synth-config-overflow"])
def test_rejected_input_leaves_no_run_directory(pipeline, tmp_path, capsys, argv, message):
    config_files = {}
    for name, content in [("nonfinite", {"tau": float("nan")}), ("t_o_nan", {"t_o": float("nan")}),
                          ("n_buckets", {"n_buckets": 2.5}), ("parts", {"parts": "10"}),
                          ("epochs_bool", {"epochs": True}), ("epochs_grid", {"epochs": [1.5]}),
                          ("batch_size_grid", {"batch_size": 512.5, "grid": {"epochs": [1]}}),
                          ("k_select", {"k_select": 2.5}), ("n_users", {"n_users": 20.5}),
                          ("delimiter", {"delimiter": 5}), ("modes", {"modes": [1]}), ("grid_list", [1]),
                          ("method", {"method": "x"}), ("config_int", 5), ("config_null", None),
                          ("config_str", "abc"), ("config_syntax", b'{"tau": '),
                          # every softplus of users 19 and 39 underflows; every row's sum overflows
                          ("underflow", {"n_users": 50, "n_items": 3, "n_events": 3000, "emb_std": 30.0, "seed": 1}),
                          ("overflow", {"n_users": 50, "n_items": 40, "n_events": 300, "emb_std": 1e154, "seed": 1})]:
        config_files[name] = tmp_path / f"{name}.json"
        config_files[name].write_text(content.decode() if isinstance(content, bytes) else json.dumps(content))
    wide = tmp_path / "wide.npz"  # a checkpoint of another catalog
    save_checkpoint(TideModel.init(SYNTH_OVERRIDES["n_users"], 40, dim=2, seed=0), wide)
    raw = pipeline["synth"] / "interactions.tsv"
    paths = {"prep": pipeline["prep"], "train": pipeline["train"], "wide": wide, "raw": raw, **config_files}
    assert run_cli([str(a).format(**paths) for a in argv] + ["--outdir", tmp_path / "out"]) == 1
    assert message.format(**paths) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def bound_cases():
    """(command, setting, value) for a value just past each bound of every declared setting."""
    cases = []
    declared = [(command, s) for command, settings in cli.SETTINGS.items() for s in settings]
    for command, setting in declared + [("grid", cli.THREADS)]:
        integer = setting.kind is INTEGER
        if setting.gt is not None:
            cases.append((command, setting, setting.gt if integer else float(setting.gt)))
        if setting.ge is not None:
            cases.append((command, setting, setting.ge - 1 if integer else math.nextafter(setting.ge, -math.inf)))
        if setting.le is not None:
            cases.append((command, setting, setting.le + 1 if integer else math.nextafter(setting.le, math.inf)))
    return cases


def bound_words(setting) -> str:
    """The one wording of each kind of bound."""
    if setting.le is not None:
        return f"in [{setting.ge}, {setting.le}]"
    if setting.gt is not None:
        return "positive" if setting.gt == 0 else f"> {setting.gt}"
    return "nonnegative" if setting.ge == 0 else f">= {setting.ge}"


@pytest.mark.parametrize("command,setting,value", bound_cases(),
                         ids=[f"{c}-{s.key}-{v}" for c, s, v in bound_cases()])
def test_every_bound_refuses_the_value_just_past_it(tmp_path, capsys, command, setting, value):
    # through the flag where the command has one, else through a config file
    flags = {a.dest: a.option_strings[0] for a in subcommand_parsers()[command]._actions if a.option_strings}
    argv = [command] + (["--data", tmp_path / "split"] if "data" in COMMAND_DEFAULTS[command] else [])
    if setting.key in flags:
        argv.append(f"{flags[setting.key]}={value!r}")  # "=": argparse takes -5e-324 for an option
    else:
        (tmp_path / "config.json").write_text(json.dumps({setting.key: value}))
        argv += ["--config", tmp_path / "config.json"]
    assert run_cli(argv + ["--outdir", tmp_path / "out"]) == 1
    message = f"{setting.key} must be {bound_words(setting)}, got {value}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
    # a library caller of fit or generate meets the same check
    config_class = {"train": TrainConfig, "grid": TrainConfig, "synth": SynthConfig}.get(command)
    if config_class is not None and setting.key in {f.name for f in fields(config_class)}:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_class(**{setting.key: value}).validate()


def test_evaluate_gamma_flag_reaches_the_config(pipeline, tmp_path, capsys):
    rc = run_cli([
        "train", "--data", pipeline["prep"], "--method", "pda", "--embed-dim", 8,
        "--epochs", 1, "--seed", 0, "--outdir", tmp_path / "pda",
    ])
    assert rc == 0
    pda_dir = only_entry(tmp_path / "pda")
    args = ["evaluate", "--data", pipeline["prep"], "--checkpoint", pda_dir, "--k", 5]

    assert run_cli(args + ["--outdir", tmp_path / "stored"]) == 0
    assert run_cli(args + ["--gamma", 0.9, "--outdir", tmp_path / "flag"]) == 0
    stored, flagged = only_entry(tmp_path / "stored"), only_entry(tmp_path / "flag")
    assert json.loads((stored / "config.json").read_text())["gamma"] == 0.1
    assert json.loads((flagged / "config.json").read_text())["gamma"] == 0.9
    assert stored.name != flagged.name
    capsys.readouterr()

    assert run_cli(args + ["--gamma", 1.5, "--outdir", tmp_path / "bad"]) == 1
    assert "gamma" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()

    # only pda reads gamma: on an mf checkpoint the flag is an error, and the
    # flagless run still records the stored gamma, so its run id is unchanged
    rc = run_cli([
        "train", "--data", pipeline["prep"], "--method", "mf", "--embed-dim", 8,
        "--epochs", 1, "--seed", 0, "--outdir", tmp_path / "mf",
    ])
    assert rc == 0
    mf_args = ["evaluate", "--data", pipeline["prep"], "--checkpoint", only_entry(tmp_path / "mf"), "--k", 5]
    capsys.readouterr()
    assert run_cli(mf_args + ["--gamma", 0.5, "--outdir", tmp_path / "mf_flag"]) == 1
    err = capsys.readouterr().err
    assert "gamma" in err and "'mf'" in err
    assert not (tmp_path / "mf_flag").exists()
    assert run_cli(mf_args + ["--outdir", tmp_path / "mf_plain"]) == 0
    plain = only_entry(tmp_path / "mf_plain")
    config = json.loads((plain / "config.json").read_text())
    assert config["gamma"] == 0.1


# ---------------------------------------------------------------- analyze


def test_analyze_emits_diagnostics(pipeline, tmp_path):
    rc = run_cli(["analyze", "--data", pipeline["synth"], "--outdir", tmp_path])
    assert rc == 0
    analysis = only_entry(tmp_path) / "analysis"
    for fname in ("popularity_buckets.csv", "instant_corr.csv", "r_histogram.csv", "summary.json"):
        assert (analysis / fname).exists()
    summary = json.loads((analysis / "summary.json").read_text())
    assert summary["schema_version"] == cli.SCHEMA_VERSION
    assert summary["n_corr_items"] >= summary["n_retained"] >= 0
    bucket_lines = (analysis / "popularity_buckets.csv").read_text().strip().split("\n")
    assert bucket_lines[0] == "bucket,lo,hi,item_count,avg_rating"
    assert len(bucket_lines) == 31
    counted = sum(int(line.split(",")[3]) for line in bucket_lines[1:])
    assert counted == SYNTH_OVERRIDES["n_items"]


def test_analyze_with_checkpoint_adds_quality_diagnostics(pipeline, tmp_path):
    rc = run_cli([
        "analyze", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
        "--outdir", tmp_path,
    ])
    assert rc == 0
    analysis = only_entry(tmp_path) / "analysis"
    assert (analysis / "quality_buckets.csv").exists()
    summary = json.loads((analysis / "summary.json").read_text())
    assert "rcc_quality_ar" in summary and "rcc_popularity_ar" in summary


def test_analyze_gives_a_run_directory_and_its_checkpoint_file_one_run_id(pipeline, tmp_path):
    args = ["analyze", "--data", pipeline["prep"]]
    assert run_cli(args + ["--checkpoint", pipeline["train"], "--outdir", tmp_path / "dir"]) == 0
    ckpt = pipeline["train"] / "checkpoint.npz"
    assert run_cli(args + ["--checkpoint", ckpt, "--outdir", tmp_path / "file"]) == 0
    from_dir, from_file = only_entry(tmp_path / "dir"), only_entry(tmp_path / "file")
    assert from_dir.name == from_file.name
    assert json.loads((from_dir / "config.json").read_text())["checkpoint"] == str(ckpt)


def test_analyze_rerun_is_byte_identical(pipeline, tmp_path):
    args = ["analyze", "--data", pipeline["synth"]]
    assert run_cli(args + ["--outdir", tmp_path / "a"]) == 0
    assert run_cli(args + ["--outdir", tmp_path / "b"]) == 0
    first = only_entry(tmp_path / "a") / "analysis"
    second = only_entry(tmp_path / "b") / "analysis"
    for path in sorted(first.iterdir()):
        assert (second / path.name).read_bytes() == path.read_bytes()


# ---------------------------------------------------------------- grid


def test_grid_ranks_points_and_matches_parallel_execution(pipeline, tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"lr_qb": [0.01, 0.03], "epochs": [1]}))
    base = [
        "grid", "--data", pipeline["prep"], "--method", "tide", "--embed-dim", 8,
        "--seed", 0, "--grid", grid_file,
    ]
    assert run_cli(base + ["--outdir", tmp_path / "serial", "--threads", 1]) == 0
    serial_dir = only_entry(tmp_path / "serial")
    leaderboard = json.loads((serial_dir / "leaderboard.json").read_text())
    assert len(leaderboard) == 2
    assert [row["rank"] for row in leaderboard] == [1, 2]
    scores = [row["val_cp_rec"] for row in leaderboard]
    assert scores[0] >= scores[1]
    best = json.loads((serial_dir / "best.json").read_text())
    assert best == leaderboard[0]
    for row in leaderboard:
        point_dir = serial_dir / row["run_id"]
        assert (point_dir / "checkpoint.npz").exists()
        assert row["config"]["lr_qb"] in (0.01, 0.03)

    assert run_cli(base + ["--outdir", tmp_path / "par", "--threads", 2]) == 0
    par_dir = only_entry(tmp_path / "par")
    assert (par_dir / "leaderboard.json").read_bytes() == (serial_dir / "leaderboard.json").read_bytes()


def test_grid_starts_no_more_workers_than_points(pipeline, tmp_path, monkeypatch):
    pools = []

    class RecordingPool:
        """Runs the jobs in this process and records the worker count it was asked for."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"lr_qb": [0.01, 0.03]}))
    rc = run_cli([
        "grid", "--data", pipeline["prep"], "--method", "mf", "--embed-dim", 8, "--epochs", 1,
        "--grid", grid_file, "--threads", 64, "--outdir", tmp_path / "out",
    ])
    assert rc == 0
    assert pools == [2]
    assert len(json.loads((only_entry(tmp_path / "out") / "leaderboard.json").read_text())) == 2


def test_grid_refuses_points_that_share_a_run_id(pipeline, tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"lr_qb": [0.01, 0.03, 0.01]}))
    rc = run_cli(["grid", "--data", pipeline["prep"], "--grid", grid_file, "--outdir", tmp_path / "out"])
    assert rc == 1
    base = COMMAND_DEFAULTS["train"] | {"data": str(pipeline["prep"])}
    rid = cli.run_id(base | {"lr_qb": 0.01})
    assert capsys.readouterr().err == f'error: grid repeats the point {{"lr_qb": 0.01}} (run id {rid})\n'
    assert not (tmp_path / "out").exists()


def test_grid_rejects_unknown_parameter(pipeline, tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"momentum": [0.9]}))
    rc = run_cli([
        "grid", "--data", pipeline["prep"], "--grid", grid_file, "--outdir", tmp_path,
    ])
    assert rc == 1
    assert "unknown parameters" in capsys.readouterr().err


# ---------------------------------------------------------------- run lifecycle


def command_argv(pipeline, tmp_path, command) -> list:
    """A small successful run of ``command`` over the pipeline fixture's outputs, without --outdir."""
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"lr_qb": [0.01, 0.03]}))
    return {
        "synth": ["synth", "--config", pipeline["synth_cfg"]],
        "prepare": pipeline["prepare_args"][:-2],
        "train": pipeline["train_args"],
        "evaluate": ["evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"]],
        "analyze": ["analyze", "--data", pipeline["prep"], "--checkpoint", pipeline["train"]],
        "grid": ["grid", "--data", pipeline["prep"], "--method", "mf", "--embed-dim", 4, "--epochs", 1,
                 "--grid", grid_file],
    }[command]


def fail_atomic_write(monkeypatch, after: int) -> list:
    """Make every atomic artifact write after the first ``after`` raise; returns the paths asked for."""
    paths, atomic_open = [], dataset.atomic_open

    @contextlib.contextmanager
    def failing(path):
        paths.append(path)
        if len(paths) > after:
            raise OSError(f"injected failure writing {path.name}")
        with atomic_open(path) as fh:
            yield fh

    monkeypatch.setattr(dataset, "atomic_open", failing)
    return paths


def snapshot(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command", ["synth", "prepare", "train", "evaluate", "analyze", "grid"])
def test_a_failure_after_the_first_artifact_leaves_no_run(pipeline, tmp_path, capsys, monkeypatch, command):
    paths = fail_atomic_write(monkeypatch, after=1)
    assert run_cli(command_argv(pipeline, tmp_path, command) + ["--outdir", tmp_path / "out"]) == 1
    assert paths[0].name == "config.json" and len(paths) == 2
    assert capsys.readouterr().err == f"error: injected failure writing {paths[1].name}\n"
    # neither a run directory nor a staging directory: the outdir is empty
    assert list((tmp_path / "out").iterdir()) == []


def test_a_diverged_training_run_leaves_no_run(pipeline, tmp_path, capsys):
    # Adam's overflow warning is the error under this suite's RuntimeWarning filter,
    # "non-finite loss" without it; both end the run with exit 1
    rc = run_cli(["train", "--data", pipeline["prep"], "--lr-emb", "1e200", "--epochs", 2,
                  "--outdir", tmp_path / "out"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list((tmp_path / "out").iterdir()) == []


def test_a_diverging_train_prints_each_warning_as_one_line(pipeline, tmp_path):
    # a subprocess, which this suite's RuntimeWarning filter does not reach: numpy's
    # overflow warnings show as they would for a user, each as one line with no path
    proc = subprocess.run(
        [sys.executable, "-m", "tide.cli", "train", "--data", str(pipeline["prep"]), "--lr-emb", "1e200",
         "--epochs", "2", "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert lines[0] == "warning: overflow encountered in multiply", proc.stderr
    assert all(line.startswith("warning: ") for line in lines[:-1]), proc.stderr
    assert lines[-1] == "error: non-finite loss at adam step 2", proc.stderr
    assert ".py:" not in proc.stderr and "/" not in proc.stderr
    assert not (tmp_path / "out").exists() or list((tmp_path / "out").iterdir()) == []


KILLED = """
import os, signal, sys
from tide import cli, trainer

def fit(split, cfg):
    os.kill(os.getpid(), signal.SIGKILL)

trainer.fit = fit
cli.main(sys.argv[1:])
"""


def test_a_killed_run_leaves_only_its_hidden_staging_directory(pipeline, tmp_path):
    argv = [str(a) for a in pipeline["train_args"] + ["--outdir", tmp_path / "out"]]
    proc = subprocess.run([sys.executable, "-c", KILLED, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    staged = only_entry(tmp_path / "out")
    assert re.fullmatch(rf"\.{pipeline['train'].name}\.\d+\.partial", staged.name)
    assert [p.name for p in staged.iterdir()] == ["config.json"]


def test_a_failed_rerun_leaves_the_earlier_run_byte_identical(pipeline, tmp_path, monkeypatch):
    # the run id is the config's, not the data's: a rerun over a changed raw file
    # writes other splits into the same run id, and fails after the first of them
    raw = tmp_path / "raw.tsv"
    lines = (pipeline["synth"] / "interactions.tsv").read_text().splitlines(keepends=True)
    raw.write_text("".join(lines))
    argv = ["prepare", "--data", raw, "--core-n", 2, "--outdir", tmp_path / "out"]
    assert run_cli(argv) == 0
    before = snapshot(tmp_path / "out")
    raw.write_text("".join(lines[: len(lines) // 2]))
    fail_atomic_write(monkeypatch, after=2)  # config.json and train.tsv, then validation.tsv fails
    assert run_cli(argv) == 1
    assert snapshot(tmp_path / "out") == before


def test_a_rerun_replaces_the_run_directory_whole(pipeline, tmp_path):
    argv = command_argv(pipeline, tmp_path, "synth") + ["--outdir", tmp_path / "out"]
    assert run_cli(argv) == 0
    run_dir = only_entry(tmp_path / "out")
    before = snapshot(run_dir)
    (run_dir / "stray.txt").write_text("left by hand\n")
    assert run_cli(argv) == 0
    assert only_entry(tmp_path / "out") == run_dir
    assert snapshot(run_dir) == before
    # the published directory is a plain mkdir's, as mkdtemp's 0700 would not be
    (tmp_path / "plain").mkdir()
    assert stat.S_IMODE(run_dir.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode)


def test_a_rerun_publishes_whole_when_the_earlier_run_resists_removal(pipeline, tmp_path, monkeypatch):
    # two prepares of one config over changed raw data: one run id, other bytes
    raw = tmp_path / "raw.tsv"
    lines = (pipeline["synth"] / "interactions.tsv").read_text().splitlines(keepends=True)
    raw.write_text("".join(lines))
    argv = ["prepare", "--data", raw, "--core-n", 2]
    assert run_cli(argv + ["--outdir", tmp_path / "out"]) == 0
    raw.write_text("".join(lines[: len(lines) // 2]))
    assert run_cli(argv + ["--outdir", tmp_path / "want"]) == 0
    want = only_entry(tmp_path / "want")
    unlink = os.unlink

    def resisting(path, *args, **kwargs):
        if os.path.basename(path) == "train.tsv":
            raise PermissionError(f"injected failure removing {path}")
        unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", resisting)
    assert run_cli(argv + ["--outdir", tmp_path / "out"]) == 0
    monkeypatch.undo()
    assert snapshot(tmp_path / "out" / want.name) == snapshot(want)
    # what the removal left is the earlier run's train.tsv, under the hidden aside
    aside = tmp_path / "out" / f".{want.name}.{os.getpid()}.old"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted([want.name, aside.name])
    assert [p.name for p in aside.iterdir()] == ["train.tsv"]


def test_a_failed_publish_puts_the_earlier_run_back(pipeline, tmp_path, capsys, monkeypatch):
    argv = command_argv(pipeline, tmp_path, "synth") + ["--outdir", tmp_path / "out"]
    assert run_cli(argv) == 0
    before = snapshot(tmp_path / "out")
    rename = Path.rename

    def failing(self, target):
        if self.name.endswith(".partial"):
            raise OSError("injected failure publishing the stage")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", failing)
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "error: injected failure publishing the stage\n"
    assert snapshot(tmp_path / "out") == before
    assert len(list((tmp_path / "out").iterdir())) == 1


def test_a_failed_grid_point_leaves_no_grid(pipeline, tmp_path, capsys, monkeypatch):
    fits, fit = [], trainer.fit

    def second_fails(split, cfg):
        fits.append(cfg.lr_qb)
        if len(fits) == 2:
            raise RuntimeError("injected failure in the second point")
        return fit(split, cfg)

    monkeypatch.setattr(trainer, "fit", second_fails)
    assert run_cli(command_argv(pipeline, tmp_path, "grid") + ["--outdir", tmp_path / "out"]) == 1
    assert fits == [0.01, 0.03]
    assert capsys.readouterr().err == "error: injected failure in the second point\n"
    assert list((tmp_path / "out").iterdir()) == []


# ---------------------------------------------------------------- process surface


SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import tide.cli
assert not scipy_modules(), ("import tide.cli", scipy_modules())
for name, argv, may_load_scipy in json.loads(sys.argv[1]):
    assert tide.cli.main(argv) == 0, name
    loaded = scipy_modules()
    assert (may_load_scipy and "scipy.stats" not in loaded) or not loaded, (name, loaded)
"""


def test_commands_import_scipy_only_where_they_call_it(pipeline, tmp_path):
    # a fresh process, so modules imported by earlier tests do not count; the
    # stages run in order, and only analyze with a checkpoint loads scipy.stats
    out = tmp_path / "out"
    stages = [
        ("synth", ["synth", "--config", pipeline["synth_cfg"], "--n-events", 500, "--outdir", out / "synth"], False),
        ("prepare", pipeline["prepare_args"][:-2] + ["--outdir", out / "prepare"], False),
        ("evaluate", ["evaluate", "--data", pipeline["prep"], "--checkpoint", pipeline["train"],
                      "--per-user", "--outdir", out / "evaluate"], False),
        ("analyze", ["analyze", "--data", pipeline["prep"], "--outdir", out / "analyze"], True),
        ("train", ["train", "--data", pipeline["prep"], "--embed-dim", 4, "--epochs", 1, "--outdir", out / "train"],
         True),
    ]
    stages = [(name, [str(a) for a in argv], may_load) for name, argv, may_load in stages]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(stages)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert all((out / name).is_dir() for name, _, _ in stages)


PIPELINE = Path(__file__).parent / "pipeline.py"
# the split files of pipeline.py's tokens.tsv: the text a per-value str/format writer gives
TOKEN_SPLITS = {
    "train.tsv": "0\t0\t5\t100\n1\t0\t4\t200\n2\t1\t3\t300\n0\t1\t4\t400\n1\t1\t5\t500\n2\t0\t2\t600\n"
                 "3\t0\tnan\t700\n2\t1\t3.5\t800\n",
    "validation.tsv": "1\t0\t4\t1000000000\n",
    "test.tsv": "",
}


def test_the_pipeline_writes_the_same_bytes_under_two_hash_seeds(tmp_path):
    # criterion 8 reruns in one process, so it cannot see an order taken from a set. Both
    # seeds write into one relative path, so configs and run ids are equal too
    src = Path(cli.__file__).parent.parent
    runs = []
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        proc = subprocess.run([sys.executable, str(PIPELINE), "out"], cwd=tmp_path / seed, capture_output=True,
                              env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        out = tmp_path / seed / "out"
        # every file, history.csv without its last column, which holds wall times
        files = {path.relative_to(out): [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
                 if path.name == "history.csv" else path.read_bytes() for path in sorted(out.rglob("*"))
                 if path.is_file()}
        runs.append((files, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    out = tmp_path / "0" / "out"
    # the early-stopped run ends before its last epoch and keeps one before the last it trained,
    # chosen on a validation metric that moves between epochs
    stopped = json.loads((only_entry(out / "train-stop") / "train_summary.json").read_text())
    assert stopped["epochs_run"] < 8 and stopped["best_epoch"] < stopped["epochs_run"] - 1
    with (only_entry(out / "train-stop") / "history.csv").open() as fh:
        assert len({row["val_cp_rec"] for row in csv.DictReader(fh)}) >= 2
    for name, text in TOKEN_SPLITS.items():
        assert (only_entry(out / "tokens") / name).read_bytes() == text.encode()
    # the wide evaluations rank at least 3 blocks, the last one shorter
    step = evaluation.BLOCK_ELEMENTS // json.loads((only_entry(out / "wide") / "manifest.json").read_text())["n_items"]
    for on in ("test", "validation"):
        [report, *_] = json.loads((only_entry(out / f"eval-wide-{on}") / "eval.json").read_text())["reports"]
        users = set(report["per_user"]["click"]) | set(report["per_user"]["pref"])
        assert len(users) > 2 * step and len(users) % step, (len(users), step)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", [None, "synth", "prepare", "train", "evaluate", "analyze", "grid"])
def test_help_text_is_unchanged(monkeypatch, capsys, command):
    # the flags, their order, metavars, choices and help, as `tide [command] --help`
    # prints them 80 columns wide; tests/golden holds the expected text
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    name = f"tide-{command}.txt" if command else "tide.txt"
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_module_is_runnable_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "tide.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for name in ("prepare", "synth", "train", "evaluate", "analyze", "grid"):
        assert name in proc.stdout

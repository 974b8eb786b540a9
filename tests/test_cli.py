"""End-to-end pipeline tests: synth -> prepare -> train -> evaluate -> analyze -> grid.

Commands run in-process through cli.main so exit codes and stderr behavior are
observable without subprocess overhead; one smoke test exercises the module as
an executable. Determinism tests rerun commands into a fresh outdir and compare
artifact bytes; history.csv is compared column-wise because its wall_time field
measures the run itself.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from tide import cli, evaluation
from tide.dataset import load_split
from tide.model import TideModel, load_checkpoint, save_checkpoint
from tide.synthgen import SynthConfig

SYNTH_OVERRIDES = {
    "n_users": 60,
    "n_items": 25,
    "n_events": 4000,
    "embed_dim": 8,
    "seed": 0,
}


def run_cli(argv):
    return cli.main([str(a) for a in argv])


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


def test_missing_required_data_option_fails(tmp_path, capsys):
    rc = run_cli(["prepare", "--outdir", tmp_path])
    assert rc == 1
    assert "missing required option" in capsys.readouterr().err


def test_every_flag_sets_a_key_of_its_command_defaults():
    # a dest that is not a config key would be parsed and then never read
    defaults = {
        "synth": asdict(SynthConfig()),
        "prepare": cli.PREPARE_DEFAULTS,
        "train": cli.TRAIN_DEFAULTS,
        "evaluate": cli.EVALUATE_DEFAULTS,
        "analyze": cli.ANALYZE_DEFAULTS,
        "grid": {**cli.TRAIN_DEFAULTS, "grid": {}},
    }
    not_config = {"help", "config", "outdir", "threads", "grid_file"}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(defaults)
    for name, sub in commands.items():
        dests = {a.dest for a in sub._actions} - not_config
        assert dests <= set(defaults[name]), (name, sorted(dests - set(defaults[name])))


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

    history = (run_dir / "history.csv").read_text().strip().split("\n")
    assert history[0] == "epoch,loss,val_cp_rec,wall_time"
    assert len(history) == 3

    summary = json.loads((run_dir / "train_summary.json").read_text())
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
    save_checkpoint(model, bare, meta=None)
    rc = run_cli(["evaluate", "--data", pipeline["prep"], "--checkpoint", bare, "--outdir", tmp_path / "out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(bare) in err and "no training config" in err
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
    (["synth", "--n-events", 0], "counts must be >= 1"),
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
], ids=["synth", "synth-non-finite", "prepare", "analyze-data", "analyze-checkpoint", "evaluate-k", "evaluate-k-pref",
        "analyze-t-o", "analyze-n-buckets", "analyze-min-ratings", "grid-threads", "analyze-catalog"])
def test_rejected_input_leaves_no_run_directory(pipeline, tmp_path, capsys, argv, message):
    nonfinite = tmp_path / "nonfinite.json"
    nonfinite.write_text(json.dumps({"tau": float("nan")}))
    wide = tmp_path / "wide.npz"  # a checkpoint of another catalog
    save_checkpoint(TideModel.init(SYNTH_OVERRIDES["n_users"], 40, dim=2, seed=0), wide)
    argv = [str(a).format(prep=pipeline["prep"], train=pipeline["train"], nonfinite=nonfinite, wide=wide)
            for a in argv]
    assert run_cli(argv + ["--outdir", tmp_path / "out"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_grid_rejects_unknown_parameter(pipeline, tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"momentum": [0.9]}))
    rc = run_cli([
        "grid", "--data", pipeline["prep"], "--grid", grid_file, "--outdir", tmp_path,
    ])
    assert rc == 1
    assert "unknown parameters" in capsys.readouterr().err


# ---------------------------------------------------------------- process surface


def test_module_is_runnable_as_script():
    proc = subprocess.run(
        [sys.executable, "-m", "tide.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for name in ("prepare", "synth", "train", "evaluate", "analyze", "grid"):
        assert name in proc.stdout

"""Command-line pipeline: prepare | synth | train | evaluate | analyze | grid.

Every command resolves its configuration the same way (defaults, then a JSON
config file, then explicit flags, flags winning), derives a run id from the
resolved config's canonical JSON, and writes all artifacts under
<outdir>/<run-id>/. That directory appears only complete (see staged_run), and
a rerun with identical config replaces it whole with byte-identical files, so
any report can be re-derived from the config.json sitting next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import os
import re
import shutil
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bias_analysis, baselines, dataset, evaluation, synthgen, trainer
from .dataset import NUMBER, PATH, Kind, Setting, atomic_write_text, check_settings, one_of, read_object, write_json
from .model import MATCHING_ONLY, ConformityIndex, InferenceMode, load_checkpoint, parse_mode, save_checkpoint

SCHEMA_VERSION = 1

# a list of modes is as good as its comma list
MODES = Kind("a string or a list of strings", (str, list), str)

# each command's settings, in the order its flags are listed; TrainConfig and
# SynthConfig declare theirs on their fields
SETTINGS = {
    "synth": synthgen.SYNTH_SETTINGS,
    "prepare": (
        Setting("data", None, "--data", PATH, help="raw interaction file"),
        Setting("core_n", 5, "--core-n", ge=1),
        Setting("parts", 10, "--parts", ge=2),
        Setting("split_seed", 0, ge=0),
        Setting("delimiter", "\t"),
    ),
    "train": (Setting("data", None, "--data", PATH, help="prepared split directory"), *trainer.TRAIN_SETTINGS),
    "evaluate": (
        Setting("data", None, "--data", PATH, help="prepared split directory"),
        Setting("checkpoint", None, "--checkpoint", PATH, help="checkpoint.npz or its run directory"),
        Setting("modes", None, "--modes", MODES, help="comma list: full,int,e,noq,noc,fixq:<v>"),
        Setting("k_click", 20, "--k", ge=1, help="click-task cutoff"),
        Setting("k_pref", 3, "--k-pref", ge=1, help="preference-task cutoff"),
        Setting("on", "test", "--on", one_of("test", "validation")),
        Setting("gamma", None, "--gamma", NUMBER),
        Setting("per_user", False, "--per-user"),
    ),
    "analyze": (
        Setting("data", None, "--data", PATH, help="raw file, split dir, or synth run dir"),
        Setting("checkpoint", None, "--checkpoint", PATH),
        Setting("t_o", bias_analysis.HALF_YEAR_SECONDS, "--t-o", gt=0, help="instant-popularity window seconds"),
        Setting("weekly", False, "--weekly"),
        Setting("n_buckets", 30, "--n-buckets", ge=1),
        Setting("p_threshold", 0.2, "--p-threshold", ge=0, le=1),
        Setting("min_ratings", 3, "--min-ratings", ge=3),  # a p-value needs 3 points
    ),
}
SETTINGS["grid"] = (*SETTINGS["train"], Setting("grid", {}))
# grid's process count is no config key: it does not change what a point computes
THREADS = Setting("threads", 1, ge=1)


def run_id(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode()).hexdigest()[:12]


def resolve_config(args: argparse.Namespace, settings) -> dict:
    """defaults <- config file <- explicit flags; unknown file keys rejected.

    A flag sets the key named by its argparse dest: each setting's key reads ``args.<key>``.
    A file value must be of its setting's kind, and every resolved value within its bound.
    """
    config = {s.key: s.default for s in settings}
    if getattr(args, "config", None):
        loaded = read_object(args.config, "config", "the config file")
        check_stored_config(loaded, settings, "the config file")
        config.update(loaded)
    for key in config:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if "data" in config:
        if config["data"] is None:
            raise ValueError("missing required option: data")
        config["data"] = str(config["data"])
    check_settings(settings, config)
    return config


def check_stored_config(loaded: dict, settings, source: str) -> None:
    """Refuse a key no setting declares, then a value of another kind than its setting's, naming ``source``."""
    declared = {s.key: s for s in settings}
    unknown = set(loaded) - set(declared)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)} in {source}")
    for key, value in loaded.items():
        declared[key].check_kind(value, source)


@contextlib.contextmanager
def staged_run(outdir, config: dict):
    """Yield (staging dir, run dir) for ``<outdir>/<run-id>``; the block writes into the staging dir.

    The staging dir, ``<outdir>/.<run-id>.<pid>.partial/``, starts with config.json. A clean
    end renames any earlier run of the id aside, to ``.<run-id>.<pid>.old``, renames the stage
    into place (or, failing that, the earlier run back) and only then removes the aside; a
    raise removes the stage, and an earlier run stays.
    """
    run_dir = Path(outdir) / run_id(config)
    stage = run_dir.with_name(f".{run_dir.name}.{os.getpid()}.partial")
    shutil.rmtree(stage, ignore_errors=True)  # a killed process of the same pid left it
    stage.mkdir(parents=True)  # not mkdtemp, whose 0700 mode the published run would keep
    try:
        write_json(stage / "config.json", config)
        yield stage, run_dir
        # a rename onto a non-empty directory fails, so an earlier run steps aside first
        aside = run_dir.with_name(f".{run_dir.name}.{os.getpid()}.old")
        shutil.rmtree(aside, ignore_errors=True)  # as the stage, left by a killed process of the same pid
        earlier = run_dir.exists()
        if earlier:
            run_dir.rename(aside)
        try:
            stage.rename(run_dir)
        except OSError:
            if earlier:
                aside.rename(run_dir)
            raise
        shutil.rmtree(aside, ignore_errors=True)  # a removal that stops partway leaves only a hidden aside
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise


def _checkpoint_file(path) -> Path:
    """A checkpoint file as given, or the ``checkpoint.npz`` inside a run directory."""
    path = Path(path)
    return path / "checkpoint.npz" if path.is_dir() else path


def _load_log(path: Path) -> dataset.InteractionLog:
    """Accept a raw interaction file, a split directory, or a synth run dir."""
    path = Path(path)
    if path.is_dir():
        if (path / "manifest.json").exists():
            split = dataset.load_split(path)
            return _concat_logs(split.train, split.validation, split.test)
        if (path / "interactions.tsv").exists():
            return dataset.load_interactions(path / "interactions.tsv")
        raise FileNotFoundError(f"{path} holds neither a split manifest nor interactions.tsv")
    return dataset.load_interactions(path)


def _concat_logs(*logs: dataset.InteractionLog) -> dataset.InteractionLog:
    keep = [lg for lg in logs if len(lg)]
    if not keep:
        raise ValueError("all partitions are empty")
    return dataset.InteractionLog.build(
        np.concatenate([lg.users for lg in keep]),
        np.concatenate([lg.items for lg in keep]),
        np.concatenate([lg.times for lg in keep]),
        np.concatenate([lg.ratings for lg in keep]),
        keep[0].n_users,
        keep[0].n_items,
    )


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    config = resolve_config(args, SETTINGS["synth"])
    synth_cfg = synthgen.SynthConfig(**config)
    log, truth = synthgen.generate(synth_cfg)
    with staged_run(args.outdir, config) as (stage, run_dir):
        synthgen.save_synth(log, truth, synth_cfg, stage)
    print(f"synth: {len(log)} interactions, {log.n_users} users, {log.n_items} items -> {run_dir}")
    return 0


def cmd_prepare(args) -> int:
    config = resolve_config(args, SETTINGS["prepare"])
    log = dataset.load_interactions(config["data"], config["delimiter"])
    if config["core_n"] > 1:
        log = dataset.n_core_filter(log, config["core_n"])
    split = dataset.chrono_split(log, parts=config["parts"], split_seed=config["split_seed"])
    with staged_run(args.outdir, config) as (stage, run_dir):
        dataset.save_split(split, stage)
    print(
        f"prepare: {len(log)} interactions, {log.n_users} users, {log.n_items} items; "
        f"train/val/test = {len(split.train)}/{len(split.validation)}/{len(split.test)} -> {run_dir}"
    )
    return 0


def _train_config(config: dict) -> trainer.TrainConfig:
    cfg = trainer.TrainConfig(**{k: v for k, v in config.items() if k != "data"})
    cfg.validate()
    return cfg


def run_training(config: dict, outdir) -> dict:
    """Shared by cmd_train and each grid point; returns a run summary and its config."""
    cfg = _train_config(config)
    split = dataset.load_split(Path(config["data"]))
    with staged_run(outdir, config) as (stage, run_dir):
        result = trainer.fit(split, cfg)
        write_history(result.history, stage / "history.csv")
        save_checkpoint(result.model, stage / "checkpoint.npz", meta={"config": config})
        summary = {"run_id": run_dir.name, "best_epoch": result.best_epoch,
                   "val_cp_rec": result.best_metric, "epochs_run": len(result.history)}
        write_json(stage / "train_summary.json", summary)
    return {**summary, "config": config}


def cmd_train(args) -> int:
    summary = run_training(resolve_config(args, SETTINGS["train"]), args.outdir)
    shown = _shown(summary["val_cp_rec"])
    print(f"train: best val CP-Rec = {shown} at epoch {summary['best_epoch']} -> {args.outdir / summary['run_id']}")
    return 0


def _parse_eval_mode(method: str, mode_text: str) -> InferenceMode:
    """The baselines serve only their native mode, alias "e"."""
    if method != "tide" and mode_text not in ("native", "e"):
        raise ValueError(f"mode {mode_text!r} requires method tide")
    return parse_mode(mode_text) if method == "tide" else MATCHING_ONLY


def cmd_evaluate(args) -> int:
    config = resolve_config(args, SETTINGS["evaluate"])
    if not config["checkpoint"]:
        raise ValueError("missing required option: checkpoint")
    ckpt_path = _checkpoint_file(config["checkpoint"])
    model, meta = load_checkpoint(ckpt_path)
    stored = meta.get("config") if isinstance(meta, dict) else None
    if not isinstance(stored, dict):
        raise ValueError(f"{ckpt_path} carries no training config object; evaluate reads its method from it")
    check_stored_config(stored, SETTINGS["train"], f"the training config of {ckpt_path}")
    cfg = _train_config(stored)
    method = cfg.method
    if config["gamma"] is not None:
        if method != "pda":
            raise ValueError(f"gamma is read only by pda; method {method!r} does not use it")
        cfg = replace(cfg, gamma=config["gamma"])
        cfg.validate()
    # the resolved method and gamma stay in config.json, so run ids keep them
    config.update({"checkpoint": str(ckpt_path), "method": method, "gamma": cfg.gamma})
    modes = config["modes"]
    if isinstance(modes, str):
        modes = [m.strip() for m in modes.split(",") if m.strip()]
    if not modes:
        modes = list(trainer.VARIANTS[cfg.variant][2]) if method == "tide" else ["native"]
    config["modes"] = modes
    parsed = [_parse_eval_mode(method, mode_text) for mode_text in modes]
    split = dataset.load_split(Path(config["data"]))
    if (model.n_users, model.n_items) != (split.train.n_users, split.train.n_items):
        raise ValueError(f"checkpoint and split disagree on user/item counts: checkpoint has "
                         f"{(model.n_users, model.n_items)}, split has {(split.train.n_users, split.train.n_items)}")
    eval_log = split.test if config["on"] == "test" else split.validation
    # the serving inputs do not depend on the mode: build each at most once
    index = ConformityIndex.from_log(split.train, model.tau) if any(m.conformity for m in parsed) else None
    table = baselines.PopularityTable.from_split(split) if method == "pda" else None
    tasks = [evaluation.ClickTask(split.train, eval_log, config["k_click"]),
             evaluation.PreferenceTask(eval_log, config["k_pref"])]
    scorer = trainer.make_scorer(
        model, method, *parsed, t_eval=split.train.t_max, index=index, table=table, gamma=cfg.gamma
    )
    # one pass for all modes: each block's match and link are computed once,
    # and both tasks rank every mode's rows of it
    results = evaluation.rank_tasks(scorer, tasks, config["per_user"], n_modes=len(parsed))
    reports = []
    for mode_text, (click, pref) in zip(modes, results):
        report = {
            "method": method, "mode": mode_text, "k_click": config["k_click"], "k_pref": config["k_pref"],
            "cp_rec": click["recall"], "cp_pre": click["precision"], "cp_ndcg": click["ndcg"],
            "pp_rec": pref["recall"], "pp_pre": pref["precision"],
            "n_users_click": click["n_users"], "n_users_pref": pref["n_users"],
            "n_skipped_click": click["n_skipped"], "n_skipped_pref": pref["n_skipped"],
        }
        if config["per_user"]:
            report["per_user"] = {"click": click["per_user"], "pref": pref["per_user"]}
        reports.append(report)

    payload = {"schema_version": SCHEMA_VERSION, "method": method, "on": config["on"], "reports": reports}
    columns = "method mode k_click k_pref cp_rec cp_pre cp_ndcg pp_rec pp_pre n_users_click n_users_pref".split()
    with staged_run(args.outdir, config) as (stage, run_dir):
        write_json(stage / "eval.json", payload)
        _write_csv(stage / "eval.csv", columns, [[r[c] for c in columns] for r in reports])
    for r in reports:
        print(
            f"evaluate[{r['mode']}]: CP-Rec@{r['k_click']}={_shown(r['cp_rec'])} "
            f"CP-Pre@{r['k_click']}={_shown(r['cp_pre'])} CP-NDCG@{r['k_click']}={_shown(r['cp_ndcg'])} "
            f"PP-Rec@{r['k_pref']}={_shown(r['pp_rec'])} PP-Pre@{r['k_pref']}={_shown(r['pp_pre'])}"
        )
    print(f"evaluate: wrote {run_dir / 'eval.json'}")
    return 0


def _shown(metric: float | None) -> str:
    return "n/a" if metric is None else f"{metric:.6f}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One report CSV: a float cell as %.10g, None as an empty cell, anything else by str."""
    # a column at a time: one comprehension per column, no call per cell
    columns = [["" if v is None else "%.10g" % v if isinstance(v, float) else str(v) for v in column]
               for column in zip(*rows)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_history(history: list[dict], path: Path) -> None:
    """The per-epoch log as CSV: epoch, loss, val_CP-Rec@20, wall_time."""
    _write_csv(path, ["epoch", "loss", "val_cp_rec", "wall_time"],
               ([r["epoch"], r["loss"], r["val_cp_rec"], f"{r['wall_time']:.3f}"] for r in history))


def cmd_analyze(args) -> int:
    config = resolve_config(args, SETTINGS["analyze"])
    model = None
    if config["checkpoint"]:
        config["checkpoint"] = str(_checkpoint_file(config["checkpoint"]))
        model, _ = load_checkpoint(config["checkpoint"])
    log = _load_log(Path(config["data"]))
    if model is not None and model.n_items != log.n_items:
        raise ValueError(f"checkpoint scores {model.n_items} items but the log has {log.n_items}")
    with staged_run(args.outdir, config) as (stage, run_dir):
        analysis_dir = stage / "analysis"
        summary: dict = {"schema_version": SCHEMA_VERSION}

        buckets = bias_analysis.popularity_buckets(log, n_buckets=config["n_buckets"])
        _write_bucket_csv(analysis_dir / "popularity_buckets.csv", buckets)
        centers, means = buckets.occupied()
        summary["bucket_ar_pop_pearson"] = bias_analysis.pearson(centers, means) if centers.size >= 2 else None

        corr = bias_analysis.per_item_rating_instant_pop_corr(
            log, t_o=config["t_o"], p_threshold=config["p_threshold"], min_ratings=config["min_ratings"],
            weekly_aggregate=config["weekly"])
        corr_columns = (corr.items, corr.n, corr.r, corr.p, corr.retained.astype(int))
        _write_csv(analysis_dir / "instant_corr.csv", ["item", "n", "r", "p", "retained"],
                   zip(*(c.tolist() for c in corr_columns)))
        counts, edges = corr.histogram()
        _write_csv(analysis_dir / "r_histogram.csv", ["bin_lo", "bin_hi", "count"],
                   zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
        summary["n_corr_items"] = int(corr.items.size)
        summary["n_retained"] = int(corr.retained.sum())
        summary["negative_fraction"] = corr.negative_fraction()

        if model is not None:
            qbuckets = bias_analysis.quality_buckets(model.quality, log, n_buckets=config["n_buckets"])
            _write_bucket_csv(analysis_dir / "quality_buckets.csv", qbuckets)
            rcc_q, rcc_p = bias_analysis.quality_rating_rcc(model.quality, log)
            summary["rcc_quality_ar"] = rcc_q
            summary["rcc_popularity_ar"] = rcc_p

        write_json(analysis_dir / "summary.json", summary)
    print(f"analyze: {summary.get('n_retained', 0)} items retained -> {run_dir / 'analysis'}")
    return 0


def _write_bucket_csv(path: Path, report: bias_analysis.BucketReport) -> None:
    bounds = report.bucket_bounds
    _write_csv(path, ["bucket", "lo", "hi", "item_count", "avg_rating"],
               zip(range(report.n_buckets), bounds[:-1], bounds[1:], report.item_counts, report.avg_rating))


def _grid_points(grid: dict) -> list[dict]:
    keys = sorted(grid)
    values = [grid[k] if isinstance(grid[k], list) else [grid[k]] for k in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def cmd_grid(args) -> int:
    THREADS.check(args.threads)
    config = resolve_config(args, SETTINGS["grid"])
    if args.grid_file:
        config["grid"] = read_object(args.grid_file, "grid", "the grid file")
    declared = {s.key: s for s in SETTINGS["train"]}
    unknown = set(config["grid"]) - set(declared)
    if unknown:
        raise ValueError(f"grid varies unknown parameters: {sorted(unknown)}")
    points = _grid_points(config["grid"])
    if not points:
        raise ValueError("empty grid")
    base = {k: v for k, v in config.items() if k != "grid"}
    configs = [{**base, **point} for point in points]
    ids = [run_id(c) for c in configs]
    for k, point in enumerate(points):
        for key, value in point.items():
            declared[key].check_kind(value, "the grid")
        _train_config(configs[k])
        if ids[k] in ids[:k]:
            raise ValueError(f"grid repeats the point {json.dumps(point, sort_keys=True)} (run id {ids[k]})")
    # a pool starts all its workers at once, so more workers than points only cost forks
    workers = min(args.threads, len(configs))
    with staged_run(args.outdir, config) as (stage, run_dir):
        # each point stages inside the grid's staging directory, so a failed point leaves no grid
        train = functools.partial(run_training, outdir=stage)
        if workers == 1:
            results = list(map(train, configs))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(train, configs))
        ranked = sorted(results, key=lambda s: (np.inf if s["val_cp_rec"] is None else -s["val_cp_rec"], s["run_id"]))
        leaderboard = [
            {"rank": k + 1, "run_id": s["run_id"], "val_cp_rec": s["val_cp_rec"],
             "best_epoch": s["best_epoch"], "config": s["config"]}
            for k, s in enumerate(ranked)
        ]
        write_json(stage / "leaderboard.json", leaderboard)
        write_json(stage / "best.json", leaderboard[0])
    top = leaderboard[0]
    shown = _shown(top["val_cp_rec"])
    print(f"grid: {len(points)} points, best val CP-Rec = {shown} ({top['run_id']}) -> {run_dir}")
    return 0


# ---------------------------------------------------------------- parser


# what a command's parser takes for a negative number, not an option: argparse's
# own pattern leaves out the exponent form, so "--init-qb -1e-3" found no value
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tide",
        description="Disentangled popularity-bias pipeline: data prep, training, evaluation, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, seed_key="seed"):
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = NEGATIVE_NUMBER
        p.set_defaults(func=func)
        p.add_argument("--config", type=Path, help="JSON config file; explicit flags override it")
        p.add_argument("--outdir", type=Path, default=Path("runs"), help="artifact root directory")
        if seed_key:  # evaluate and analyze draw no random numbers, so they take no seed
            p.add_argument("--seed", dest=seed_key, metavar="SEED", type=int, default=None)
        return p

    def flags(p, name, *keys):
        """The declared flags of command ``name``'s settings: those of ``keys``, in that order, or all."""
        declared = {s.key: s for s in SETTINGS[name]}
        for s in map(declared.get, keys) if keys else declared.values():
            if s.flag is None:
                continue
            if s.kind.parse is None:  # a switch
                how = {"action": "store_const", "const": True}
            else:
                how = {"type": s.kind.parse, "choices": s.choices or s.kind.values}
            p.add_argument(s.flag, dest=s.key, default=None, help=s.help, **how)

    flags(command("synth", cmd_synth, "generate a synthetic log with planted parameters"), "synth")
    flags(command("prepare", cmd_prepare, "filter and chronologically split a raw log", "split_seed"), "prepare")
    flags(command("train", cmd_train, "fit a method on a prepared split"), "train")
    flags(command("evaluate", cmd_evaluate, "run both ranking tasks on a checkpoint", None), "evaluate")
    flags(command("analyze", cmd_analyze, "popularity/rating diagnostics over a log", None), "analyze")
    p = command("grid", cmd_grid, "cartesian hyperparameter search, parallel across processes")
    flags(p, "grid", "data", "method")
    p.add_argument("--grid", dest="grid_file", metavar="GRID", type=Path, default=None,
                   help="JSON file of {param: [values]}")
    p.add_argument("--threads", type=int, default=THREADS.default, help="parallel training processes")
    flags(p, "grid", "epochs", "embed_dim", "early_stop_patience")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # for this call only, every warning a stage shows reads as one line, like
    # its errors, with no source path; the filters stay as they are
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *where: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except BrokenPipeError:
            return 1
        except Exception as exc:  # CLI boundary: report, don't traceback
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: prepare | synth | train | evaluate | analyze | grid.

Every command resolves its configuration the same way (defaults, then a JSON
config file, then explicit flags, flags winning), derives a run id from the
resolved config's canonical JSON, and writes all artifacts under
<outdir>/<run-id>/. Reruns with identical config overwrite the same run
directory with byte-identical files, so any report can be re-derived from the
config.json sitting next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import bias_analysis, baselines, dataset, evaluation, synthgen, trainer
from .dataset import atomic_write_text, write_json
from .model import MATCHING_ONLY, ConformityIndex, InferenceMode, load_checkpoint, parse_mode, save_checkpoint

SCHEMA_VERSION = 1

TRAIN_DEFAULTS = {"data": None, **asdict(trainer.TrainConfig())}

EVALUATE_DEFAULTS = {
    "data": None,
    "checkpoint": None,
    "modes": None,
    "k_click": 20,
    "k_pref": 3,
    "on": "test",
    "gamma": None,
    "per_user": False,
}

ANALYZE_DEFAULTS = {
    "data": None,
    "checkpoint": None,
    "t_o": bias_analysis.HALF_YEAR_SECONDS,
    "weekly": False,
    "n_buckets": 30,
    "p_threshold": 0.2,
    "min_ratings": 3,
}

PREPARE_DEFAULTS = {
    "data": None,
    "core_n": 5,
    "parts": 10,
    "split_seed": 0,
    "delimiter": "\t",
}


def run_id(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode()).hexdigest()[:12]


# what a config-file or grid value may be: the JSON types it may take and
# their name, by the type of the setting's default, or by key where that is null
_KINDS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
    "data": ((str,), "a path string"),
    "checkpoint": ((str,), "a path string"),
    "gamma": ((int, float), "a number"),
    "modes": ((str, list), "a string or a list of strings"),
}
EVALUATE_ON = ("test", "validation")


def _check_value(key: str, value, default, source: str) -> None:
    """Reject a value of another kind than the setting's default, naming the key, the value and its source."""
    if value is None and default is None:
        return
    kinds, kind = _KINDS[key if default is None else type(default)]
    ok = isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))
    if key == "on":
        kind, ok = f"one of {list(EVALUATE_ON)}", value in EVALUATE_ON
    # a list (of modes) is as good as its comma list when each entry is a string
    if not ok or isinstance(value, list) and not all(isinstance(m, str) for m in value):
        raise ValueError(f"{key} must be {kind}, got {value!r} from {source}")


def resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicit flags; unknown file keys rejected.

    A flag sets the key named by its argparse dest: each key of ``defaults`` reads ``args.<key>``.
    A file value must be of its default's kind (``_check_value``).
    """
    config = dict(defaults)
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_value(key, value, defaults[key], "the config file")
        config.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if "data" in config:
        if config["data"] is None:
            raise ValueError("missing required option: data")
        config["data"] = str(config["data"])
    return config


def _check_at_least(config: dict, **minimums) -> None:
    """Reject a config value below its minimum, naming the key and the value."""
    for key, lo in minimums.items():
        if config[key] < lo:
            raise ValueError(f"{key} must be >= {lo}, got {config[key]}")


def make_run_dir(outdir, config: dict) -> Path:
    rid = run_id(config)
    run_dir = Path(outdir) / rid
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "config.json", config)
    return run_dir


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
    config = resolve_config(args, asdict(synthgen.SynthConfig()))
    synth_cfg = synthgen.SynthConfig(**config)
    synth_cfg.validate()
    run_dir = make_run_dir(args.outdir, config)
    log, truth = synthgen.generate(synth_cfg)
    synthgen.save_synth(log, truth, synth_cfg, run_dir)
    print(f"synth: {len(log)} interactions, {log.n_users} users, {log.n_items} items -> {run_dir}")
    return 0


def cmd_prepare(args) -> int:
    config = resolve_config(args, PREPARE_DEFAULTS)
    _check_at_least(config, core_n=1, split_seed=0)
    log = dataset.load_interactions(config["data"], config["delimiter"])
    if config["core_n"] > 1:
        log = dataset.n_core_filter(log, config["core_n"])
    split = dataset.chrono_split(log, parts=config["parts"], split_seed=config["split_seed"])
    run_dir = make_run_dir(args.outdir, config)
    dataset.save_split(split, run_dir)
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
    """Shared by cmd_train and each grid point; returns a run summary.

    The config is validated and the split loaded before the run directory
    exists, so a rejected run leaves nothing behind.
    """
    cfg = _train_config(config)
    split = dataset.load_split(Path(config["data"]))
    run_dir = make_run_dir(outdir, config)
    result = trainer.fit(split, cfg)
    write_history(result.history, run_dir / "history.csv")
    tmp = run_dir / "checkpoint.tmp.npz"
    save_checkpoint(result.model, tmp, meta={"config": config})
    os.replace(tmp, run_dir / "checkpoint.npz")
    summary = {
        "run_id": run_dir.name,
        "best_epoch": result.best_epoch,
        "val_cp_rec": result.best_metric,
        "epochs_run": len(result.history),
    }
    write_json(run_dir / "train_summary.json", summary)
    return {**summary, "run_dir": str(run_dir)}


def cmd_train(args) -> int:
    summary = run_training(resolve_config(args, TRAIN_DEFAULTS), args.outdir)
    shown = _shown(summary["val_cp_rec"])
    print(f"train: best val CP-Rec = {shown} at epoch {summary['best_epoch']} -> {summary['run_dir']}")
    return 0


def _parse_eval_mode(method: str, mode_text: str) -> InferenceMode:
    """The baselines serve only their native mode, alias "e"."""
    if method != "tide" and mode_text not in ("native", "e"):
        raise ValueError(f"mode {mode_text!r} requires method tide")
    return parse_mode(mode_text) if method == "tide" else MATCHING_ONLY


def cmd_evaluate(args) -> int:
    config = resolve_config(args, EVALUATE_DEFAULTS)
    _check_at_least(config, k_click=1, k_pref=1)
    if not config["checkpoint"]:
        raise ValueError("missing required option: checkpoint")
    ckpt_path = _checkpoint_file(config["checkpoint"])
    model, meta = load_checkpoint(ckpt_path)
    if "config" not in meta:
        raise ValueError(f"{ckpt_path} carries no training config; evaluate reads its method from it")
    cfg = _train_config(meta["config"])
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
    run_dir = make_run_dir(args.outdir, config)

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
    write_json(run_dir / "eval.json", payload)
    columns = "method mode k_click k_pref cp_rec cp_pre cp_ndcg pp_rec pp_pre n_users_click n_users_pref".split()
    _write_csv(run_dir / "eval.csv", columns, [[r[c] for c in columns] for r in reports])
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
    config = resolve_config(args, ANALYZE_DEFAULTS)
    if config["t_o"] <= 0:
        raise ValueError(f"t_o must be positive, got {config['t_o']}")
    if not 0.0 <= config["p_threshold"] <= 1.0:
        raise ValueError(f"p_threshold must be in [0, 1], got {config['p_threshold']}")
    _check_at_least(config, n_buckets=1, min_ratings=3)  # a p-value needs 3 points
    model = None
    if config["checkpoint"]:
        config["checkpoint"] = str(_checkpoint_file(config["checkpoint"]))
        model, _ = load_checkpoint(config["checkpoint"])
    log = _load_log(Path(config["data"]))
    if model is not None and model.n_items != log.n_items:
        raise ValueError(f"checkpoint scores {model.n_items} items but the log has {log.n_items}")
    run_dir = make_run_dir(args.outdir, config)
    analysis_dir = run_dir / "analysis"
    analysis_dir.mkdir(exist_ok=True)
    summary: dict = {"schema_version": SCHEMA_VERSION}

    buckets = bias_analysis.popularity_buckets(log, n_buckets=config["n_buckets"])
    _write_bucket_csv(analysis_dir / "popularity_buckets.csv", buckets)
    centers, means = buckets.occupied()
    summary["bucket_ar_pop_pearson"] = (
        bias_analysis.pearson(centers, means) if centers.size >= 2 else None
    )

    corr = bias_analysis.per_item_rating_instant_pop_corr(
        log,
        t_o=config["t_o"],
        p_threshold=config["p_threshold"],
        min_ratings=config["min_ratings"],
        weekly_aggregate=config["weekly"],
    )
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
    print(f"analyze: {summary.get('n_retained', 0)} items retained -> {analysis_dir}")
    return 0


def _write_bucket_csv(path: Path, report: bias_analysis.BucketReport) -> None:
    bounds = report.bucket_bounds
    _write_csv(path, ["bucket", "lo", "hi", "item_count", "avg_rating"],
               zip(range(report.n_buckets), bounds[:-1], bounds[1:], report.item_counts, report.avg_rating))


def _grid_points(grid: dict) -> list[dict]:
    keys = sorted(grid)
    values = [grid[k] if isinstance(grid[k], list) else [grid[k]] for k in keys]
    return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


def _grid_worker(job: tuple) -> dict:
    config, outdir = job
    summary = run_training(config, outdir)
    return {**summary, "config": config}


def cmd_grid(args) -> int:
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    config = resolve_config(args, {**TRAIN_DEFAULTS, "grid": {}})
    if args.grid_file:
        config["grid"] = json.loads(Path(args.grid_file).read_text())
        _check_value("grid", config["grid"], {}, "the grid file")
    unknown = set(config["grid"]) - set(TRAIN_DEFAULTS)
    if unknown:
        raise ValueError(f"grid varies unknown parameters: {sorted(unknown)}")
    points = _grid_points(config["grid"])
    if not points:
        raise ValueError("empty grid")
    base = {k: v for k, v in config.items() if k != "grid"}
    for point in points:
        for key, value in point.items():
            _check_value(key, value, TRAIN_DEFAULTS[key], "the grid")
        _train_config({**base, **point})
    run_dir = make_run_dir(args.outdir, config)
    jobs = [({**base, **point}, str(run_dir)) for point in points]
    # a pool starts all its workers at once, so more workers than points only cost forks
    workers = min(args.threads, len(jobs))
    if workers == 1:
        results = [_grid_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_worker, jobs))
    ranked = sorted(results, key=lambda s: (np.inf if s["val_cp_rec"] is None else -s["val_cp_rec"], s["run_id"]))
    leaderboard = [
        {"rank": k + 1, "run_id": s["run_id"], "val_cp_rec": s["val_cp_rec"],
         "best_epoch": s["best_epoch"], "config": s["config"]}
        for k, s in enumerate(ranked)
    ]
    write_json(run_dir / "leaderboard.json", leaderboard)
    write_json(run_dir / "best.json", leaderboard[0])
    top = leaderboard[0]
    shown = _shown(top["val_cp_rec"])
    print(f"grid: {len(points)} points, best val CP-Rec = {shown} ({top['run_id']}) -> {run_dir}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tide",
        description="Disentangled popularity-bias pipeline: data prep, training, evaluation, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_key="seed"):
        p.add_argument("--config", type=Path, help="JSON config file; explicit flags override it")
        p.add_argument("--outdir", type=Path, default=Path("runs"), help="artifact root directory")
        if seed_key:  # evaluate and analyze draw no random numbers, so they take no seed
            p.add_argument("--seed", dest=seed_key, metavar="SEED", type=int, default=None)

    p = sub.add_parser("synth", help="generate a synthetic log with planted parameters")
    common(p)
    p.add_argument("--n-events", dest="n_events", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="filter and chronologically split a raw log")
    common(p, seed_key="split_seed")
    p.add_argument("--data", type=Path, default=None, help="raw interaction file")
    p.add_argument("--core-n", dest="core_n", type=int, default=None)
    p.add_argument("--parts", type=int, default=None)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="fit a method on a prepared split")
    common(p)
    p.add_argument("--data", type=Path, default=None, help="prepared split directory")
    p.add_argument("--method", choices=trainer.METHODS, default=None)
    p.add_argument("--ablation", dest="variant", choices=("noq", "noc", "fixq"), default=None)
    p.add_argument("--fixed-q", dest="fixed_q", type=float, default=None)
    p.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
    p.add_argument("--lr-emb", dest="lr_emb", type=float, default=None)
    p.add_argument("--lr-qb", dest="lr_qb", type=float, default=None)
    p.add_argument("--weight-decay", dest="weight_decay_emb", type=float, default=None)
    p.add_argument("--init-qb", dest="init_qb", type=float, default=None)
    p.add_argument("--init-std", dest="init_std", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", dest="early_stop_patience", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--ips-cap", dest="ips_cap", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run both ranking tasks on a checkpoint")
    common(p, seed_key=None)
    p.add_argument("--data", type=Path, default=None, help="prepared split directory")
    p.add_argument("--checkpoint", type=Path, default=None, help="checkpoint.npz or its run directory")
    p.add_argument("--modes", type=str, default=None, help="comma list: full,int,e,noq,noc,fixq:<v>")
    p.add_argument("--k", dest="k_click", type=int, default=None, help="click-task cutoff")
    p.add_argument("--k-pref", dest="k_pref", type=int, default=None, help="preference-task cutoff")
    p.add_argument("--on", choices=EVALUATE_ON, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--per-user", dest="per_user", action="store_const", const=True, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="popularity/rating diagnostics over a log")
    common(p, seed_key=None)
    p.add_argument("--data", type=Path, default=None, help="raw file, split dir, or synth run dir")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--t-o", dest="t_o", type=int, default=None, help="instant-popularity window seconds")
    p.add_argument("--weekly", action="store_const", const=True, default=None)
    p.add_argument("--n-buckets", dest="n_buckets", type=int, default=None)
    p.add_argument("--p-threshold", dest="p_threshold", type=float, default=None)
    p.add_argument("--min-ratings", dest="min_ratings", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("grid", help="cartesian hyperparameter search, parallel across processes")
    common(p)
    p.add_argument("--data", type=Path, default=None, help="prepared split directory")
    p.add_argument("--method", choices=trainer.METHODS, default=None)
    p.add_argument("--grid", dest="grid_file", metavar="GRID", type=Path, default=None,
                   help="JSON file of {param: [values]}")
    p.add_argument("--threads", type=int, default=1, help="parallel training processes")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
    p.add_argument("--patience", dest="early_stop_patience", type=int, default=None)
    p.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # for this call only, a stage's UserWarning reads as one line, like its
    # errors; other warnings show as before, and the filters stay as they are
    with warnings.catch_warnings():
        shown = warnings.showwarning

        def show(message, category, *where):
            if issubclass(category, UserWarning):
                print(f"warning: {message}", file=sys.stderr)
            else:
                shown(message, category, *where)

        warnings.showwarning = show
        try:
            return args.func(args)
        except BrokenPipeError:
            return 1
        except Exception as exc:  # CLI boundary: report, don't traceback
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

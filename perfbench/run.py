"""The tide benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload train-tide --seed 1 --seconds 15 --trace 0

Each run generates its inputs from ``--seed`` (``gen.py``, not the program's
own generator), sets up several times in fresh processes (``setup_s`` is the
median), then runs the workload's CLI stages through ``tide.cli.main`` in one
more fresh process, pass after pass, until ``--seconds`` are spent. It checks
every output, prints each metric by name and unit, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 1``
the passes alternate untraced and traced and the metrics are the per-layer
ones from ``spans.py``. The load is one closed-loop client: each CLI stage
starts when the previous one has returned, and the benchmark starts no
threads of its own.

Exit codes: 0 when every check passed, 1 when an output check or a stage
failed (the JSON line still prints), 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import spearmanr

import gen

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 3
WORKER_TIMEOUT_S = 170
K_CLICK = 20
TAU = "30000"
EPOCHS = 4
MODES = ("full", "int", "e")

PREPARE = ("prepare", ["prepare", "--data", "{input}", "--core-n", "5", "--parts", "10",
                       "--outdir", "{dir}/prepare"])


def _train(method: str, epochs: int):
    return ("train", ["train", "--data", "{prepare}", "--method", method, "--tau", TAU,
                      "--epochs", str(epochs), "--patience", str(epochs), "--outdir", "{dir}/train"])


@dataclass(frozen=True)
class Workload:
    """Sizes, CLI stages, the stage whose rate is ``work_per_s``, and files that must repeat."""

    sizes: dict
    setup: list
    passes: list
    main_stage: str
    setup_compare: tuple
    compare: tuple


SPLIT_FILES = ("prepare/*/*.tsv", "prepare/*/manifest.json")

WORKLOADS = {
    # The trainer's step layers do most of the work: grad_step, per-epoch
    # validation, negative sampling and ConformityIndex.query point reads.
    "train-tide": Workload(
        sizes={"n_users": 1000, "n_items": 1000, "n_clicks": 80_000},
        setup=[PREPARE], passes=[_train("tide", EPOCHS)], main_stage="train",
        setup_compare=SPLIT_FILES,
        compare=("train/*/checkpoint.npz", "train/*/train_summary.json"),
    ),
    # Same inputs through the baselines and the trainer's non-tide branch, with
    # no conformity index: a tide-only speed-up must show no change here.
    "train-pda": Workload(
        sizes={"n_users": 1000, "n_items": 1000, "n_clicks": 80_000},
        setup=[PREPARE], passes=[_train("pda", EPOCHS)], main_stage="train",
        setup_compare=SPLIT_FILES,
        compare=("train/*/checkpoint.npz", "train/*/train_summary.json"),
    ),
    # A catalog as wide as the user base: per-user scoring, full-candidate
    # ranking and the per-item scan in bias_analysis dominate; the checkpoint
    # comes from a zero-epoch train in setup, so no trainer step runs.
    "report-wide": Workload(
        sizes={"n_users": 2000, "n_items": 2500, "n_clicks": 40_000},
        setup=[PREPARE, _train("tide", 0)],
        passes=[
            ("evaluate", ["evaluate", "--data", "{prepare}", "--checkpoint", "{train}",
                          "--modes", ",".join(MODES), "--k", str(K_CLICK), "--outdir", "{dir}/evaluate"]),
            ("analyze", ["analyze", "--data", "{prepare}", "--checkpoint", "{train}",
                         "--outdir", "{dir}/analyze"]),
        ],
        main_stage="evaluate",
        setup_compare=SPLIT_FILES + ("train/*/checkpoint.npz",),
        compare=("evaluate/*/eval.json", "evaluate/*/eval.csv", "analyze/*/analysis/*"),
    ),
    # The only caller of synthgen: its per-event Python loop, then TSV writing.
    # No training, no ranking; setup is the import alone.
    "synth": Workload(
        sizes={"n_users": 2000, "n_items": 1000, "n_events": 35_000},
        setup=[], passes=[("synth", ["synth", "--config", "{input}", "--outdir", "{dir}/synth"])],
        main_stage="synth", setup_compare=(),
        compare=("synth/*/interactions.tsv", "synth/*/truth.json"),
    ),
}

TOY_SIZES = {
    "train-tide": {"n_users": 60, "n_items": 40, "n_clicks": 1500},
    "train-pda": {"n_users": 60, "n_items": 40, "n_clicks": 1500},
    "report-wide": {"n_users": 60, "n_items": 60, "n_clicks": 1500},
    "synth": {"n_users": 30, "n_items": 20, "n_events": 500},
}

END_TO_END = {  # name -> unit; every workload reports all of them
    "setup_s": "s",
    "work_per_s": "1/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- provenance


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_state():
    """(sha, dirty) of the checkout, or (None, None) when it is not its own git repository."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha or None, bool(status.strip())


def provenance(args, sizes) -> dict:
    sha, dirty = git_state()
    return {
        "git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": blas_threads(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "sizes": sizes,
    }


# ---------------------------------------------------------------- process plumbing


def run_worker(job: dict, work: Path, tag: str) -> dict:
    job_path = work / f"{tag}.job.json"
    job["result"] = str(work / f"{tag}.result.json")
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise CheckFailed(f"{tag} process ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise CheckFailed(f"{tag} process exited with code {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def stage_times(passes, stage) -> list[float]:
    """Untraced wall times of one stage."""
    return [s["s"] for p in passes if not p["traced"] for s in p["stages"] if s["stage"] == stage]


def pass_times(passes) -> list[float]:
    """Untraced wall times of whole passes."""
    return [sum(s["s"] for s in p["stages"]) for p in passes if not p["traced"]]


def only_dir(parent: Path) -> Path:
    dirs = [p for p in parent.iterdir() if p.is_dir()] if parent.is_dir() else []
    expect(len(dirs) == 1, f"expected one run directory under {parent}, found {len(dirs)}")
    return dirs[0]


def read_tsv(path: Path) -> np.ndarray:
    """user, item, rating, time columns of a split or synth TSV as an (n, 4) float array."""
    return np.loadtxt(path, delimiter="\t", ndmin=2)


def softplus(x):
    return np.logaddexp(0.0, x)


# ---------------------------------------------------------------- checks


def check_repeats(label: str, digests: list[dict], patterns) -> None:
    """Every repeat wrote byte-identical files, and every expected file exists."""
    first = digests[0]
    for pattern in patterns:
        expect(any(Path(name).match(pattern) for name in first), f"{label}: no file matches {pattern}")
    for k, other in enumerate(digests[1:], start=1):
        changed = sorted(name for name in first.keys() | other.keys() if first.get(name) != other.get(name))
        expect(not changed, f"{label}: repeat {k} differs from repeat 0 in {changed}")


def check_split(prep_dir: Path, inputs: gen.Inputs) -> dict:
    manifest = json.loads((prep_dir / "manifest.json").read_text())
    expect(manifest["n_users"] == inputs.n_users and manifest["n_items"] == inputs.n_items,
           "prepare dropped users or items, so planted ids no longer map 1:1")
    expect(sum(manifest["counts"].values()) == len(inputs), "prepare dropped clicks")
    return manifest


def check_train(run_dir: Path, method: str, inputs: gen.Inputs) -> dict:
    summary = json.loads((run_dir / "train_summary.json").read_text())
    expect(summary["epochs_run"] == EPOCHS,
           f"train ran {summary['epochs_run']} epochs, {EPOCHS} requested")
    with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as ckpt:
        params = {k: ckpt[k] for k in ("user_emb", "item_emb", "q_raw", "beta_raw")}
    for name, value in params.items():
        expect(bool(np.isfinite(value).all()), f"checkpoint {name} has non-finite values")
    if method == "tide":  # the paper's claim: learned static quality tracks planted quality
        quality = spearmanr(softplus(params["q_raw"]), inputs.quality).statistic
    else:  # pda keeps item appeal in the embedding norm
        quality = spearmanr(np.linalg.norm(params["item_emb"], axis=1), inputs.quality).statistic
    expect(bool(np.isfinite(quality)), "quality correlation is undefined")
    return {"quality": float(quality), "val_cp_rec": summary["val_cp_rec"]}


def oracle_click_metrics(train: np.ndarray, test: np.ndarray, params: dict, mode: str, k: int) -> dict:
    """Brute force: score every item, drop train positives, sort by (-score, id)."""
    U, V = params["user_emb"], params["item_emb"]
    n_items = V.shape[0]
    tr_u, tr_i, tr_t = train[:, 0].astype(np.int64), train[:, 1].astype(np.int64), train[:, 3]
    lo, hi = np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)
    if mode == "e":
        coef = None
    elif mode == "int":
        coef = np.clip(np.tanh(softplus(params["q_raw"])), lo, hi)
    else:  # full: quality plus decayed conformity over strictly earlier train clicks, at train t_max
        t_eval = tr_t.max()
        before = tr_t < t_eval
        decayed = np.bincount(tr_i[before], weights=np.exp(-(t_eval - tr_t[before]) / params["tau"]),
                              minlength=n_items)
        coef = np.clip(np.tanh(softplus(params["q_raw"]) + softplus(params["beta_raw"]) * decayed), lo, hi)
    seen, held = {}, {}
    for u, i in zip(tr_u.tolist(), tr_i.tolist()):
        seen.setdefault(u, set()).add(i)
    for u, i in zip(test[:, 0].astype(np.int64).tolist(), test[:, 1].astype(np.int64).tolist()):
        held.setdefault(u, set()).add(i)
    discount = 1.0 / np.log2(np.arange(2, k + 2))
    rec, pre, ndcg = [], [], []
    skipped = 0
    for u in sorted(held):
        s = seen.get(u, set())
        relevant = held[u] - s
        if not relevant or len(s) >= n_items:
            skipped += 1
            continue
        m = V @ U[u]
        scores = m if coef is None else coef * softplus(m)
        scores[list(s)] = -np.inf
        top = np.argsort(-scores, kind="stable")[: min(k, n_items - len(s))]
        hits = np.isin(top, list(relevant))
        rec.append(hits.sum() / len(relevant))
        pre.append(hits.sum() / k)
        ndcg.append((hits * discount[: hits.size]).sum() / discount[: min(k, len(relevant))].sum())
    expect(bool(rec), f"{mode}: the oracle found no user to rank")
    return {"n_users": len(rec), "n_skipped": skipped, "recall": float(np.mean(rec)),
            "precision": float(np.mean(pre)), "ndcg": float(np.mean(ndcg))}


def check_eval(eval_path: Path, prep_dir: Path, ckpt_path: Path) -> None:
    reports = {r["mode"]: r for r in json.loads(eval_path.read_text())["reports"]}
    expect(sorted(reports) == sorted(MODES), f"eval.json modes {sorted(reports)}")
    train, test = read_tsv(prep_dir / "train.tsv"), read_tsv(prep_dir / "test.tsv")
    with np.load(ckpt_path, allow_pickle=False) as ckpt:
        params = {key: ckpt[key] for key in ("user_emb", "item_emb", "q_raw", "beta_raw")}
        params["tau"] = float(ckpt["tau"])
    for mode in MODES:
        want = oracle_click_metrics(train, test, params, mode, K_CLICK)
        got = reports[mode]
        expect(got["n_users_click"] == want["n_users"] and got["n_skipped_click"] == want["n_skipped"],
               f"{mode}: evaluated/skipped users differ from the oracle")
        for key, field in (("recall", "cp_rec"), ("precision", "cp_pre"), ("ndcg", "cp_ndcg")):
            expect(abs(got[field] - want[key]) <= 1e-9,
                   f"{mode}: {field} = {got[field]!r}, oracle says {want[key]!r}")


def check_synth(run_dir: Path, sizes: dict) -> float:
    rows = read_tsv(run_dir / "interactions.tsv")
    truth = json.loads((run_dir / "truth.json").read_text())
    config = truth["config"]
    expect(rows.shape[0] == sizes["n_events"], f"synth wrote {rows.shape[0]} rows")
    users, items, ratings, times = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    expect(users.min() >= 0 and users.max() < sizes["n_users"], "synth user id out of range")
    expect(items.min() >= 0 and items.max() < sizes["n_items"], "synth item id out of range")
    expect(ratings.min() >= 1 and ratings.max() <= 5, "synth rating outside [1, 5]")
    expect(times.min() >= 0 and times.max() < config["horizon"], "synth time outside the horizon")
    quality = np.asarray(truth["true_quality"])
    expect(quality.size == sizes["n_items"] and len(truth["true_beta"]) == sizes["n_items"],
           "truth.json length differs from n_items")
    ids = items.astype(np.int64)
    n_rated = np.bincount(ids, minlength=quality.size)
    rated = n_rated > 0
    mean_rating = np.bincount(ids, weights=ratings, minlength=quality.size)[rated] / n_rated[rated]
    # ratings carry planted quality only, so the log must still rank items by it
    return float(spearmanr(mean_rating, quality[rated]).statistic)


# ---------------------------------------------------------------- the run


def make_inputs(name: str, sizes: dict, seed: int, work: Path):
    if name == "synth":
        path = work / "synth.json"
        path.write_text(json.dumps({**sizes, "seed": seed}))
        return None, path
    inputs = gen.generate(seed, **sizes)
    path = work / "input.tsv"
    gen.write_tsv(inputs, path)
    return inputs, path


def evaluate_run(name, wl, sizes, inputs, setups, passes, work: Path) -> tuple[float, float, dict]:
    """Checks every output; returns (quality, work units of the main stage, extra named numbers)."""
    check_repeats("setup", [s["digests"] for s in setups], wl.setup_compare)
    check_repeats("passes", [p["digests"] for p in passes], wl.compare)
    pass0 = work / "pass" / "pass-0"
    if name == "synth":
        return check_synth(only_dir(pass0 / "synth"), sizes), float(sizes["n_events"]), {}
    prep_dir = Path(setups[-1]["env"]["prepare"])
    manifest = check_split(prep_dir, inputs)
    if name.startswith("train-"):
        got = check_train(only_dir(pass0 / "train"), name.split("-", 1)[1], inputs)
        return got["quality"], float(manifest["counts"]["train"] * EPOCHS), {"val_cp_rec": got["val_cp_rec"]}
    ckpt = Path(setups[-1]["env"]["train"]) / "checkpoint.npz"
    check_eval(only_dir(pass0 / "evaluate") / "eval.json", prep_dir, ckpt)
    summary = json.loads((only_dir(pass0 / "analyze") / "analysis" / "summary.json").read_text())
    expect(summary.get("rcc_popularity_ar") is not None, "analyze reported no popularity/rating correlation")
    # held-out users come from the split, not from the evaluator, so skip rules cannot move the count
    test_users = np.unique(read_tsv(prep_dir / "test.tsv")[:, 0]).size
    return (float(summary["rcc_popularity_ar"]), float(test_users * len(MODES)),
            {"log_rows": sum(manifest["counts"].values())})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tide" / "cli.py").is_file():
        print(f"error: no tide sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    sizes = TOY_SIZES[args.workload] if args.toy else wl.sizes
    prov = provenance(args, sizes)
    print("provenance " + json.dumps(prov, sort_keys=True))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    attempted = failed = 0
    metrics: dict = {}
    correct = True
    try:
        inputs, input_path = make_inputs(args.workload, sizes, args.seed, work)
        job = {"root": str(ROOT), "env": {"input": str(input_path)}, "setup": wl.setup,
               "passes": wl.passes, "setup_dir": str(work / "setup"), "pass_root": str(work / "pass"),
               "setup_compare": list(wl.setup_compare), "compare": list(wl.compare),
               "seconds": args.seconds, "provenance": prov}
        if args.trace:
            traces = ROOT / ".perfbench_traces"
            traces.mkdir(exist_ok=True)
            measured = run_worker({**job, "mode": "trace", "min_passes": 4,
                                   "trace_out": str(traces / f"{args.workload}-seed{args.seed}.jsonl.gz")},
                                  work, "trace")
            setups = [measured]  # its traced setup stands in for the setup processes
        else:
            setups = [run_worker({**job, "mode": "setup"}, work, f"setup{k}") for k in range(SETUP_REPEATS)]
            measured = run_worker({**job, "env": setups[-1]["env"], "mode": "measure",
                                   "min_passes": MIN_PASSES}, work, "measure")
        passes = measured["passes"]
        stages = [s for r in setups for s in r["stages"]] + [s for p in passes for s in p["stages"]]
        attempted = len(stages)
        failed = sum(1 for s in stages if s["rc"] != 0)
        expect(failed == 0, f"{failed} of {attempted} CLI stage invocations failed")
        quality, units, extra = evaluate_run(args.workload, wl, sizes, inputs, setups, passes, work)
        main_s = statistics.median(stage_times(passes, wl.main_stage))
        if args.trace:
            for key, (value, unit) in sorted(measured["per_layer"].items()):
                metrics[key] = {"value": value, "unit": unit}
            for name in measured["absent"]:
                print(f"absent: {name}")
        else:
            values = {
                "setup_s": statistics.median(r["setup_s"] for r in setups),
                "work_per_s": units / main_s,
                "pass_s": statistics.median(pass_times(passes)),
                "peak_rss_mb": measured["peak_rss_mb"],
                "quality": quality,
            }
            metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
        print_named(args.workload, passes, setups, units, main_s, extra, attempted, failed)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if correct:
        for key, m in metrics.items():
            print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed if correct else max(failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


def print_named(name, passes, setups, units, main_s, extra, attempted, failed) -> None:
    """The per-stage rates under the names the workloads were specified with."""
    named = {"train-tide": "train_samples_per_s", "train-pda": "train_samples_per_s",
             "report-wide": "eval_users_per_s", "synth": "synth_events_per_s"}
    print(f"{name} {named[name]} = {units / main_s:.6g} 1/s ({len(passes)} passes, {len(setups)} setups)")
    print(f"{name} pass times (s): " + " ".join(f"{t:.3f}" for t in pass_times(passes)))
    if "val_cp_rec" in extra:
        print(f"{name} val_cp_rec = {extra['val_cp_rec']:.6g} ratio")
    if "log_rows" in extra:
        rate = extra["log_rows"] / statistics.median(stage_times(passes, "analyze"))
        print(f"{name} analyze_events_per_s = {rate:.6g} 1/s")
    print(f"{name} failed_ops_ratio = {failed / max(attempted, 1):.6g} ratio ({failed}/{attempted})")


if __name__ == "__main__":
    sys.exit(main())

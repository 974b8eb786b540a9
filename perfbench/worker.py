"""One fresh process that runs tide CLI stages in-process and times them.

Usage: python3 worker.py JOB.json. ``run.py`` writes the job and reads the
result file it names. Modes:

* ``setup``: time from this file's first line through ``import tide`` and the
  setup stages, into a freshly emptied setup directory;
* ``measure``: import tide untimed, then run measured passes, each into a
  fresh directory, until the job's seconds are spent;
* ``trace``: a traced setup, then untraced and traced passes alternating, for
  the per-layer metrics and the tracing overhead.

Stage argv templates name earlier outputs as ``{stage}``: the run directory
that stage created under ``<dir>/<stage>/``.
"""

from time import perf_counter

T_START = perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_MEASURE_S = 120.0  # hard stop well inside the per-run limit, whatever --seconds says


def run_stage(cli, name, template, env, stage_dir: Path):
    try:
        argv = [a.format(**env, dir=stage_dir) for a in template]
    except KeyError as exc:  # an earlier stage failed to make the directory this one reads
        print(f"{name}: no output of stage {exc} to read", file=sys.stderr)
        return {"stage": name, "rc": -1, "s": 0.0}
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a raising stage is a failed operation, reported below
        traceback.print_exc()
        rc = -1
    dt = perf_counter() - t0
    outdir = stage_dir / name
    made = sorted(p for p in outdir.iterdir() if p.is_dir()) if outdir.is_dir() else []
    if rc == 0 and len(made) == 1:
        env[name] = str(made[0])
    return {"stage": name, "rc": rc, "s": dt}


def run_stages(cli, stages, env, stage_dir: Path):
    if stage_dir.exists():
        shutil.rmtree(stage_dir)
    stage_dir.mkdir(parents=True)
    return [run_stage(cli, name, template, env, stage_dir) for name, template in stages]


def digests(root: Path, patterns) -> dict:
    out = {}
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def import_tide(root: Path):
    sys.path.insert(0, str(root / "src"))
    import tide
    import tide.cli

    where = Path(tide.__file__).resolve()
    if (root / "src").resolve() not in where.parents:
        raise SystemExit(f"imported tide from {where}, not from this checkout")
    return tide.cli


def run_passes(cli, job, env, tracer=None):
    """Measured passes until job seconds are spent; traced ones alternate in trace mode."""
    pass_root = Path(job["pass_root"])
    passes = []
    t0 = perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        pass_dir = pass_root / f"pass-{k}"
        if traced:
            tracer.run_id = f"pass-{k}"
            tracer.install()
        try:
            stages = run_stages(cli, job["passes"], dict(env), pass_dir)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "stages": stages,
                       "digests": digests(pass_dir, job["compare"])})
        if k > 0:
            shutil.rmtree(pass_dir)
        elapsed = perf_counter() - t0
        last = sum(s["s"] for s in stages)
        if len(passes) >= job["min_passes"] and (elapsed + last > job["seconds"] or elapsed > MAX_MEASURE_S):
            return passes


def per_layer(tracer, passes) -> dict:
    """Span totals and counters for the traced setup plus the mean traced pass."""
    from spans import COUNTERS, SPAN_NAMES

    traced = [f"pass-{k}" for k, p in enumerate(passes) if p["traced"]]
    setup = tracer.totals(["setup"])
    per_pass = tracer.totals(traced)
    n = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (setup[name][0] + per_pass[name][0] / n, "count")
        metrics[f"{name}.s"] = (setup[name][1] + per_pass[name][1] / n, "s")
        metrics[f"{name}.self_s"] = (setup[name][2] + per_pass[name][2] / n, "s")

    def counter(key):
        return tracer.counts["setup"].get(key, 0.0) + sum(tracer.counts[r].get(key, 0.0) for r in traced) / n

    for key in COUNTERS:
        metrics[key] = (counter(key), "count")
    scored = counter("evaluation.items_scored")
    ranked = counter("evaluation.candidates_ranked")
    metrics["evaluation.candidates_per_score"] = (ranked / scored if scored else 0.0, "ratio")
    # each traced pass over the untraced pass just before it, so slow drift in machine speed cancels
    times = [sum(s["s"] for s in p["stages"]) for p in passes]
    ratios = [times[k] / times[k - 1] for k, p in enumerate(passes) if p["traced"]]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    root = Path(job["root"])
    env = dict(job["env"])
    cli = import_tide(root)
    result = {}
    if job["mode"] == "setup":
        setup_dir = Path(job["setup_dir"])
        result["stages"] = run_stages(cli, job["setup"], env, setup_dir)
        result["setup_s"] = perf_counter() - T_START
        result["digests"] = digests(setup_dir, job["setup_compare"])
    elif job["mode"] == "measure":
        result["passes"] = run_passes(cli, job, env)
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.run_id = "setup"
        tracer.install()
        try:
            result["stages"] = run_stages(cli, job["setup"], env, Path(job["setup_dir"]))
        finally:
            tracer.uninstall()
        result["digests"] = digests(Path(job["setup_dir"]), job["setup_compare"])
        result["passes"] = run_passes(cli, job, env, tracer)
        result["per_layer"] = per_layer(tracer, result["passes"])
        result["absent"] = tracer.absent
        tracer.write_jsonl(job["trace_out"], {"provenance": job["provenance"]})
    result["env"] = env
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

"""A small end-to-end CLI pipeline whose files must not depend on the hash seed or the checkout.

usage: python tests/pipeline.py OUTDIR   (with src/ on PYTHONPATH, or tide installed)

Every stage runs through ``tide.cli.main`` in this process, with OUTDIR as the
working directory and every path relative to it, so configs and run ids do not
depend on where OUTDIR lies. Two runs into the same relative path, under other
``PYTHONHASHSEED`` values or from two checkouts, must then write the same bytes
(``history.csv``'s ``wall_time`` aside) and print the same lines. The stages:

- ``synth.json`` (two sampler chunks; the fixed point commits decided clicks and
  takes redo passes) and ``strong.json`` (strong conformity: the fixed point
  gives up at its first pass, and the next chunk starts in the per-event loop);
- prepare that log, train tide and pda, evaluate every tide mode and pda with
  ``--per-user`` (a mode's rows taken from a set order would differ), analyze;
- train tide for up to 8 epochs at patience 1, selecting by validation
  CP-Rec@1 (``stop.json``), which moves between epochs where CP-Rec@20 of 20
  items is always 1: early stopping ends the run and its checkpoint holds an
  earlier epoch than the last it trained;
- prepare ``tokens.tsv``, whose unrated row, half-star rating and 10-digit time
  pin the split writer's text;
- a 100-user x 6,007-item log, trained and evaluated on test and on validation,
  whose 50 held-out users fill several ranking blocks, the last one shorter.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from tide.cli import main as tide

SYNTH = {"n_users": 40, "n_items": 20, "n_events": 5000, "embed_dim": 4}
STRONG = {"n_users": 300, "n_items": 40, "embed_dim": 4, "quality_scale": 0.5, "beta_scale": 1.5, "tau": 1e4,
          "horizon": 5000000, "n_events": 9000, "emb_std": 0.1, "seed": 3}
# user ids with a leading zero, an unrated row, a half-star rating and a 10-digit time
TOKENS = "07\t1\t5\t100\n7\t1\t4\t200\n8\t2\t3\t300\n07\t2\t4\t400\n7\t2\t5\t500\n8\t1\t2\t600\n9\t1\tnan\t700\n" \
         "8\t2\t3.5\t800\n7\t1\t4\t1000000000\n"
TIDE_MODES = "full,int,e,noq,noc,fixq:0.5"
TRAIN = ["--epochs", "1", "--embed-dim", "4", "--batch-size", "512"]
# model selection at a cutoff below the catalog's 20 items
STOP = {"k_select": 1}


def wide_log() -> str:
    """100 users x 80 clicks over about 6,000 items."""
    return "".join(f"{u}\t{(u * 37 + j * 101) % 6007}\t{1 + (u + j) % 5}\t{1000 + 100 * j + u}\n"
                   for u in range(100) for j in range(80))


def only(outdir: str) -> str:
    """The one run directory a stage wrote into ``outdir``."""
    [run] = os.listdir(outdir)
    return f"{outdir}/{run}"


def run(*argv: str) -> None:
    if tide(list(argv)) != 0:
        raise SystemExit(f"stage failed: tide {' '.join(argv)}")


def pipeline() -> None:
    """Write the inputs and run every stage, in the working directory."""
    Path("synth.json").write_text(json.dumps(SYNTH))
    Path("strong.json").write_text(json.dumps(STRONG))
    Path("stop.json").write_text(json.dumps(STOP))
    Path("tokens.tsv").write_text(TOKENS)
    Path("wide.tsv").write_text(wide_log())

    run("synth", "--config", "synth.json", "--outdir", "synth")
    run("synth", "--config", "strong.json", "--outdir", "synth-strong")
    run("prepare", "--data", f"{only('synth')}/interactions.tsv", "--core-n", "2", "--outdir", "prep")
    prep = only("prep")
    run("train", "--data", prep, *TRAIN, "--outdir", "train")
    run("train", "--data", prep, "--method", "pda", *TRAIN, "--outdir", "train-pda")
    run("evaluate", "--data", prep, "--checkpoint", only("train"), "--modes", TIDE_MODES, "--per-user",
        "--outdir", "eval")
    run("evaluate", "--data", prep, "--checkpoint", only("train-pda"), "--per-user", "--outdir", "eval-pda")
    run("analyze", "--data", prep, "--checkpoint", only("train"), "--outdir", "analyze")
    run("train", "--data", prep, "--config", "stop.json", "--epochs", "8", "--patience", "1", "--embed-dim", "4",
        "--batch-size", "512", "--outdir", "train-stop")

    run("prepare", "--data", "tokens.tsv", "--core-n", "1", "--parts", "2", "--outdir", "tokens")

    run("prepare", "--data", "wide.tsv", "--core-n", "1", "--outdir", "wide")
    run("train", "--data", only("wide"), *TRAIN, "--outdir", "train-wide")
    for on in ("test", "validation"):
        run("evaluate", "--data", only("wide"), "--checkpoint", only("train-wide"), "--modes", TIDE_MODES,
            "--per-user", "--on", on, "--outdir", f"eval-wide-{on}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/pipeline.py OUTDIR")
    Path(sys.argv[1]).mkdir(parents=True, exist_ok=True)
    os.chdir(sys.argv[1])
    pipeline()

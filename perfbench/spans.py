"""Outside-in span tracer: wraps the program's public functions by name.

Nothing in the program knows it is traced. ``Tracer.install`` replaces each
listed function with a timing wrapper at every module attribute that binds
it (``tide.evaluation.click_prediction_eval`` and the copy ``tide.trainer``
imported by name are both patched), and ``uninstall`` puts the originals
back. A listed name the program no longer has is reported as absent rather
than raised, so deleting a function does not break the benchmark.

Spans (name, start, end, parent, run id) stay in memory until ``write_jsonl``.
Counters are bumped by small hooks that read a wrapped call's arguments or
result, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_samples(c, args, kwargs, out):
    c["trainer.samples"] += np.size(_arg(args, kwargs, 1, "batch").users)


def _count_pairs(c, args, kwargs, out):
    c["model.ConformityIndex.query.pairs"] += np.size(out)


def _count_tide_scores(c, args, kwargs, out):
    c["model.TideModel.score_all_items.scores"] += np.size(out)
    c["evaluation.items_scored"] += np.size(out)


def _count_pda_scores(c, args, kwargs, out):
    c["evaluation.items_scored"] += np.size(out)


def _count_ranked(c, args, kwargs, out):
    c["evaluation.candidates_ranked"] += np.size(_arg(args, kwargs, 3, "candidates"))


def _count_users(c, args, kwargs, out):
    c["evaluation.users_ranked"] += out["n_users"]
    c["evaluation.users_skipped"] += out["n_skipped"]


def _count_log_rows(c, args, kwargs, out):
    c["dataset.rows_read"] += len(out)


def _count_split_rows(c, args, kwargs, out):
    c["dataset.rows_read"] += len(out.train) + len(out.validation) + len(out.test)


def _count_events(c, args, kwargs, out):
    c["synthgen.events"] += len(out[0])


# (span name, module, attribute path, counter hook, patch only this module's binding)
SPANS = [
    ("cli.prepare", "tide.cli", "cmd_prepare", None, False),
    ("cli.train", "tide.cli", "cmd_train", None, False),
    ("cli.evaluate", "tide.cli", "cmd_evaluate", None, False),
    ("cli.analyze", "tide.cli", "cmd_analyze", None, False),
    ("cli.synth", "tide.cli", "cmd_synth", None, False),
    ("dataset.load_interactions", "tide.dataset", "load_interactions", _count_log_rows, False),
    ("dataset.n_core_filter", "tide.dataset", "n_core_filter", None, False),
    ("dataset.chrono_split", "tide.dataset", "chrono_split", None, False),
    ("dataset.save_split", "tide.dataset", "save_split", None, False),
    ("dataset.load_split", "tide.dataset", "load_split", _count_split_rows, False),
    ("synthgen.generate", "tide.synthgen", "generate", _count_events, False),
    ("synthgen.save_synth", "tide.synthgen", "save_synth", None, False),
    ("model.ConformityIndex.build", "tide.model", "ConformityIndex.__init__", None, False),
    ("model.ConformityIndex.query", "tide.model", "ConformityIndex.query", _count_pairs, False),
    ("model.ConformityIndex.query_at", "tide.model", "ConformityIndex.query_at", None, False),
    ("model.TideModel.score_all_items", "tide.model", "TideModel.score_all_items", _count_tide_scores, False),
    ("trainer.fit", "tide.trainer", "fit", None, False),
    ("trainer.sample_negatives", "tide.trainer", "sample_negatives", None, False),
    ("trainer.grad_step", "tide.trainer", "grad_step", _count_samples, False),
    ("trainer.batch_loss_and_grads", "tide.trainer", "batch_loss_and_grads", None, False),
    ("trainer.AdamState.apply", "tide.trainer", "AdamState.apply", None, False),
    ("baselines.PopularityTable.from_split", "tide.baselines", "PopularityTable.from_split", None, False),
    ("baselines.pda_infer", "tide.baselines", "pda_infer", _count_pda_scores, False),
    ("evaluation.click_prediction_eval", "tide.evaluation", "click_prediction_eval", _count_users, False),
    ("evaluation.preference_prediction_eval", "tide.evaluation", "preference_prediction_eval", _count_users, False),
    ("evaluation.rank_topk", "tide.evaluation", "rank_topk", None, False),
    ("evaluation.rank_among", "tide.evaluation", "rank_among", _count_ranked, False),
    ("evaluation.metrics", "tide.evaluation", "recall_at_k", None, False),
    ("evaluation.metrics", "tide.evaluation", "precision_at_k", None, False),
    ("evaluation.metrics", "tide.evaluation", "ndcg_at_k", None, False),
    ("bias_analysis.popularity_buckets", "tide.bias_analysis", "popularity_buckets", None, False),
    ("bias_analysis.per_item_rating_instant_pop_corr", "tide.bias_analysis",
     "per_item_rating_instant_pop_corr", None, False),
    ("bias_analysis.quality_buckets", "tide.bias_analysis", "quality_buckets", None, False),
    ("numerics.softplus", "tide.numerics", "softplus", None, False),
    ("numerics.bounded_tanh", "tide.numerics", "bounded_tanh", None, False),
    ("numerics.sigmoid", "tide.numerics", "sigmoid", None, False),
    # validation as fit sees it: the trainer's own binding, around the evaluation span
    ("trainer.validation", "tide.trainer", "click_prediction_eval", None, True),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in SPANS))
COUNTERS = [
    "trainer.samples",
    "model.ConformityIndex.query.pairs",
    "model.TideModel.score_all_items.scores",
    "evaluation.candidates_ranked",
    "evaluation.users_ranked",
    "evaluation.users_skipped",
    "dataset.rows_read",
    "synthgen.events",
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # run id -> counter -> value
        self.run_id = ""
        self.absent: list[str] = []
        self._undo: list = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, perf_counter(), parent, self.run_id)
                stack.pop()
            if hook is not None:
                hook(self.counts[self.run_id], args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        self.absent = []
        for name, modname, path, hook, local in SPANS:
            try:
                module = importlib.import_module(modname)
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{name} ({modname}.{path})")
                continue
            if owner_path:  # a method: patch the class, keep classmethod-ness
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._patch(owner, attr, raw, new)
                continue
            new = self._wrap(name, raw, hook)
            homes = [module] if local else [
                m for key, m in list(sys.modules.items())
                if m is not None and (key == "tide" or key.startswith("tide."))
            ]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is raw:
                        self._patch(home, key, raw, new)

    def _patch(self, owner, attr, old, new) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def totals(self, run_ids) -> dict:
        """Per span name: calls, inclusive seconds and self seconds over ``run_ids``."""
        run_ids = set(run_ids)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {n: [0, 0.0, 0.0] for n in SPAN_NAMES}
        for k, (name, t0, t1, _, run) in enumerate(self.spans):
            if run in run_ids:
                row = out[name]
                row[0] += 1
                row[1] += t1 - t0
                row[2] += t1 - t0 - child[k]
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for k, (name, t0, t1, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": t0, "end": t1,
                                     "parent": None if parent < 0 else parent, "run": run}) + "\n")

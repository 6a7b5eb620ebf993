"""Spans and counts recorded from outside the library.

``Tracer.installed()`` swaps public module attributes of the library for
timing wrappers and restores the originals on exit, so untraced runs call
the library exactly as users do.  Library code resolves these names at
call time (module globals, ``module.function`` lookups, the
``LOSS_VARIANTS`` table), so the wrappers see every internal call too.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from descmatch import corpus, datagen, evaluation, geometry, losses, trainer


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def _hinges_evaluated(batch, config) -> int:
    """Hinge terms the ranking loss computes for one batch: two per pair
    with mining, every admissible negative of each pair without."""
    n_pairs = len(batch.pair_map)
    if config.use_hardest_mining:
        return 2 * n_pairs
    pair_imgs = np.array([i for i, _ in batch.pair_map], dtype=np.int64)
    owned = np.bincount(batch.image_of_text, minlength=batch.n_images)
    return int((batch.n_texts - owned[pair_imgs]).sum()) + n_pairs * (batch.n_images - 1)


def _loss_counts(result, args):
    batch, config = args[0], args[1]
    return {"losses.active_hinges": result.diagnostics["active_hinges"],
            "losses.hinges_evaluated": _hinges_evaluated(batch, config)}


# (module, attribute, span name, counts(result, args) -> {name: amount})
TIMED = [
    (datagen, "write_dataset", "datagen.write_dataset", None),
    (corpus, "read_corpus_jsonl", "corpus.read_corpus_jsonl", None),
    (corpus, "build_table", "corpus.build_table",
     lambda r, a: {"corpus.sentences": len(a[0])}),
    (corpus, "write_table_jsonl", "corpus.write_table_jsonl", None),
    (corpus, "read_table_jsonl", "corpus.read_table_jsonl", None),
    (geometry, "sim_matrix", "geometry.sim_matrix",
     lambda r, a: {"geometry.sim_matrix.entries": r.size}),
    (geometry, "read_features", "geometry.read_features",
     lambda r, a: {"geometry.read_features.bytes": r[1].nbytes}),
    (losses, "hardest_negatives", "losses.hardest_negatives", None),
    (losses, "ordering_loss", "losses.ordering_loss",
     lambda r, a: {"losses.ordering_pairs": r.diagnostics["ordering_pairs"]}),
    (trainer, "Batch", "losses.Batch", None),
    (trainer, "load_dataset", "trainer.load_dataset", None),
    (trainer, "train", "trainer.train", None),
    (trainer, "forward", "trainer.forward", None),
    (trainer, "backward", "trainer.backward", None),
    (trainer, "adamw_step", "trainer.adamw_step", None),
    (trainer, "epoch_plan", "trainer.epoch_plan", None),
    (trainer, "embed_dataset", "trainer.embed_dataset", None),
    (trainer, "save_checkpoint", "trainer.save_checkpoint",
     lambda r, a: {"trainer.checkpoint.bytes": os.path.getsize(a[0])}),
    (trainer, "load_checkpoint", "trainer.load_checkpoint", None),
    (evaluation, "rsum", "evaluation.rsum", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "recall_suite", "evaluation.recall_suite", None),
    (evaluation, "folded_recall_suite", "evaluation.folded_recall_suite", None),
    (evaluation, "per_level_recall", "evaluation.per_level_recall", None),
    (evaluation, "hierarchical_report", "evaluation.hierarchical_report",
     lambda r, a: {"evaluation.traverse.stations": np.unique(a[2]).size * r["n_points"]}),
    (evaluation, "d_corr", "evaluation.d_corr", None),
    (evaluation, "distance_by_level", "evaluation.distance_by_level", None),
    (evaluation, "write_report_json", "evaluation.write_report_json", None),
]
TIMED_LOSS = ("losses.loss", _loss_counts)

# Functions called thousands of times per operation get a counter, not a
# span, so that tracing does not distort their callers' self time.
COUNTED = [
    (evaluation, "ranked_indices", "evaluation.ranked_indices.calls", lambda r, a: 1),
    (corpus, "tokenize", "corpus.tokens", lambda r, a: r.n),
]


class Tracer:
    """Spans kept in memory, plus named counts per run id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn, counts):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counts is not None:
                self.counts[self.run_id].update(counts(result, args))
            return result
        return wrapper

    def _counted(self, name, fn, amount):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[self.run_id][name] += amount(result, args)
            return result
        return wrapper

    def _swap(self, owner, key, replacement):
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapper in; put the originals back on exit."""
        try:
            for module, attr, name, counts in TIMED:
                self._swap(module, attr, self._timed(name, getattr(module, attr), counts))
            for module, attr, name, amount in COUNTED:
                self._swap(module, attr, self._counted(name, getattr(module, attr), amount))
            name, counts = TIMED_LOSS
            for variant, fn in list(trainer.LOSS_VARIANTS.items()):
                self._swap(trainer.LOSS_VARIANTS, variant, self._timed(name, fn, counts))
            yield self
        finally:
            while self._saved:
                owner, key, original = self._saved.pop()
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def self_times(self, run_id: str) -> dict[int, float]:
        """Span id -> duration minus the durations of its child spans."""
        own = {s.id: s.end - s.start for s in self.spans if s.run_id == run_id}
        for s in self.spans:
            if s.run_id == run_id and s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time."""
        own = self.self_times(run_id)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            if s.run_id == run_id:
                agg = out[s.name]
                agg["calls"] += 1
                agg["total_s"] += s.end - s.start
                agg["self_s"] += own[s.id]
        return out

    def records(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id} for s in self.spans]

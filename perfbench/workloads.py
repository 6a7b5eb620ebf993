"""The benchmark's workloads: set-up, the timed operation, output checks
and the metrics of one run.

Scales follow the project's fixed scenarios: 200 and 1000 images x 4
levels, feature dim 48, embedding dim 32, batch 64, lr 1e-2 and the
``full`` loss.  Every input is generated from the run's seed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from descmatch import corpus, datagen, evaluation, geometry, trainer
from speed import SpeedProbe
from tracing import Tracer

SETUP_REPS = 3             # at least this many set-ups per run ...
SETUP_MIN_S = 1.0          # ... and until they took this long
SIM_SAMPLE = (16, 64)      # image rows x text columns re-checked per entry
TRAVERSE_SAMPLE = 8        # images whose traversal is recomputed
TFIDF_SAMPLE = 64          # sentences whose raw descriptiveness is recomputed
QUALITY_IMAGES = 1000      # score-load: images in the raw-feature quality slice
EVAL_POINTS = 50           # eval: traversal stations per image (the CLI default)
EVAL_FOLDS = 5             # eval: folds of the folded recall suite
LAYERS = ("corpus", "datagen", "geometry", "losses", "trainer", "evaluation")
ARTIFACT_LAYER = {"dataset": "datagen", "checkpoint": "trainer", "history": "trainer",
                  "params": "trainer", "report": "evaluation", "table": "corpus"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train", "eval" or "score"
    n_train: int              # training-split images (4 texts each)
    n_val: int = 0            # held-out validation images
    epochs: int = 0
    checkpoint: bool = False  # train: write a checkpoint every epoch


WORKLOADS = {w.name: w for w in (
    Workload("train-val", "train", n_train=200, epochs=10),
    Workload("train-steps", "train", n_train=1000, n_val=50, epochs=20, checkpoint=True),
    Workload("eval", "eval", n_train=1000, n_val=50, epochs=20),
    Workload("score-load", "score", n_train=20000),
)}


@dataclass
class Inputs:
    work: Path
    paths: dict
    train: trainer.Dataset | None = None
    val: trainer.Dataset | None = None
    config: trainer.TrainConfig | None = None
    checkpoint: Path | None = None


@dataclass
class Check:
    layer: str
    name: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Set-up and the timed operation


def _hold_out(paths: dict, n_train: int) -> None:
    """Move every image after the first n_train, with its texts, to the val
    split and rescore the table against the remaining train pool."""
    records = corpus.read_corpus_jsonl(paths["corpus"])
    kept = set(list(dict.fromkeys(r.image_id for r in records))[:n_train])
    records = [r if r.image_id in kept else dataclasses.replace(r, split="val")
               for r in records]
    corpus.write_corpus_jsonl(paths["corpus"], records)
    _, table = corpus.build_table(records)
    corpus.write_table_jsonl(paths["table"], table)


def _load(paths: dict, table, split: str | None) -> trainer.Dataset:
    return trainer.load_dataset(paths["corpus"], table, paths["image_features"],
                                paths["text_features"], split=split)


def setup(wl: Workload, work: Path, seed: int) -> Inputs:
    paths = datagen.write_dataset(work / "data", datagen.SynthSpec(
        n_images=wl.n_train + wl.n_val, seed=seed))
    inputs = Inputs(work, paths)
    if wl.kind == "score":
        return inputs
    if wl.n_val:
        _hold_out(paths, wl.n_train)
    inputs.config = trainer.TrainConfig(embed_dim=32, batch_size=64, epochs=wl.epochs,
                                        lr=1e-2, seed=seed, variant="full")
    inputs.train = _load(paths, paths["table"], "train")
    inputs.val = _load(paths, paths["table"], "val") if wl.n_val else None
    if wl.kind == "eval":
        inputs.checkpoint = work / "checkpoint.bin"
        trainer.train(inputs.train, inputs.config, val_dataset=inputs.val,
                      checkpoint_path=inputs.checkpoint)
    return inputs


def op(wl: Workload, inputs: Inputs) -> dict:
    """The timed operation.  Library calls go through module attributes so
    that a traced run sees them."""
    p = inputs.paths
    if wl.kind == "train":
        ckpt = inputs.work / "run.ckpt" if wl.checkpoint else None
        result = trainer.train(inputs.train, inputs.config, val_dataset=inputs.val,
                               checkpoint_path=ckpt)
        return {"result": result, "checkpoint": ckpt,
                "texts": wl.epochs * inputs.train.n_texts}
    if wl.kind == "eval":
        ds = _load(p, p["table"], "train")
        saved = trainer.load_checkpoint(inputs.checkpoint)
        img_e, txt_e = trainer.embed_dataset(saved["params"], ds)
        report = evaluation.evaluate(img_e, txt_e, ds.image_of_text, levels=ds.levels,
                                     n_points=EVAL_POINTS, n_folds=EVAL_FOLDS)
        report_path = inputs.work / "report.json"
        evaluation.write_report_json(report_path, report)
        return {"dataset": ds, "img_e": img_e, "txt_e": txt_e, "report": report,
                "report_path": report_path, "texts": ds.n_texts}
    records = corpus.read_corpus_jsonl(p["corpus"])
    _, table = corpus.build_table(records)
    table_path = inputs.work / "scored.jsonl"
    corpus.write_table_jsonl(table_path, table)
    ds = _load(p, table_path, None)
    return {"records": records, "table": table, "table_path": table_path,
            "dataset": ds, "texts": len(records)}


# ---------------------------------------------------------------------------
# Digests


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _file_sha(path) -> str:
    return _sha(Path(path).read_bytes())


def setup_digest(inputs: Inputs) -> dict:
    data = sorted((inputs.work / "data").iterdir())
    out = {"dataset": _sha(*(f.name.encode() + f.read_bytes() for f in data))}
    if inputs.checkpoint is not None:
        out["checkpoint"] = _file_sha(inputs.checkpoint)
    return out


def op_digest(wl: Workload, out: dict) -> dict:
    if wl.kind == "train":
        res = out["result"]
        digest = {"history": _sha(json.dumps(res.history, sort_keys=True).encode()),
                  "params": _sha(*(k.encode() + res.params[k].tobytes()
                                   for k in sorted(res.params)))}
        if out["checkpoint"] is not None:
            digest["checkpoint"] = _file_sha(out["checkpoint"])
        return digest
    if wl.kind == "eval":
        return {"report": _file_sha(out["report_path"])}
    return {"table": _file_sha(out["table_path"])}


def code_id(wl: Workload) -> str:
    """Digest of the library and benchmark sources plus the workload spec:
    runs sharing it must produce identical artifacts for a seed."""
    here = Path(__file__).resolve().parent
    files = sorted((here.parent / "src" / "descmatch").glob("*.py")) + sorted(here.glob("*.py"))
    return _sha(repr(wl).encode(), *(f.name.encode() + f.read_bytes() for f in files))[:16]


# ---------------------------------------------------------------------------
# Output checks and quality


def _sim_block_check(imgs, txts, rng) -> Check:
    rows = rng.choice(imgs.shape[0], min(SIM_SAMPLE[0], imgs.shape[0]), replace=False)
    cols = rng.choice(txts.shape[0], min(SIM_SAMPLE[1], txts.shape[0]), replace=False)
    block = geometry.sim_matrix(imgs[rows], txts[cols])
    bad = oracles.sim_block_mismatches(block, imgs[rows], txts[cols], geometry.cosine_sim)
    return Check("geometry", "sim_matrix_equals_cosine_sim", bad == 0, f"{bad} entries differ")


def _verify_train(wl, inputs, out, rng):
    res = out["result"]
    hist = res.history
    eval_set = inputs.val if inputs.val is not None else inputs.train
    img_e, txt_e = trainer.embed_dataset(res.params, eval_set)
    want = oracles.recall_oracle(img_e, txt_e, eval_set.image_of_text, None,
                                 geometry.cosine_sim)
    finite = all(math.isfinite(r[k]) for r in hist for k in ("loss", "triplet", "ordering"))
    checks = [
        Check("trainer", "history_has_every_epoch", len(hist) == wl.epochs,
              f"{len(hist)} records"),
        Check("losses", "losses_finite", finite),
        Check("trainer", "val_rsum_matches_oracle", bool(hist) and hist[-1]["val_rsum"] == want["rsum"],
              f"history {hist[-1]['val_rsum'] if hist else None} oracle {want['rsum']}"),
        _sim_block_check(img_e, txt_e, rng),
    ]
    if out["checkpoint"] is not None:
        saved = trainer.load_checkpoint(out["checkpoint"])
        same = (saved["history"] == hist and sorted(saved["params"]) == sorted(res.params)
                and all(np.array_equal(saved["params"][k], v) for k, v in res.params.items()))
        checks.append(Check("trainer", "checkpoint_round_trip", same))
    # d_corr over the training images: the 50-image validation split is too
    # small for a steady figure
    train_img, train_txt = trainer.embed_dataset(res.params, inputs.train)
    quality = (hist[-1]["val_rsum"] if hist else math.nan,
               oracles.dcorr_oracle(train_img, train_txt, inputs.train.image_of_text,
                                    inputs.train.levels))
    return checks, quality


def _verify_eval(wl, inputs, out, rng):
    ds, img_e, txt_e, report = out["dataset"], out["img_e"], out["txt_e"], out["report"]
    owners = ds.image_of_text
    want = oracles.recall_oracle(img_e, txt_e, owners, ds.levels, geometry.cosine_sim)
    got = {"i2t": report["recall"]["i2t"], "t2i": report["recall"]["t2i"],
           "rsum": report["rsum"], "per_level_recall": report["per_level_recall"]}
    root = evaluation.centroid_root(txt_e)
    bad_traversals = []
    for i in rng.choice(img_e.shape[0], min(TRAVERSE_SAMPLE, img_e.shape[0]), replace=False):
        relevant = np.flatnonzero(owners == i).tolist()
        lib = evaluation.hierarchical_traverse(img_e[i], txt_e, root, EVAL_POINTS)
        ref = oracles.traversal_oracle(img_e[i], txt_e, root, EVAL_POINTS)
        if lib != ref or (evaluation.set_precision_recall(lib, relevant)
                          != oracles.precision_recall(ref, relevant)):
            bad_traversals.append(int(i))
    dcorr = oracles.dcorr_oracle(img_e, txt_e, owners, ds.levels)
    checks = [
        _sim_block_check(img_e, txt_e, rng),
        Check("evaluation", "recalls_match_oracle", got == want, f"report {got} oracle {want}"),
        Check("evaluation", "traversal_matches_oracle", not bad_traversals,
              f"images {bad_traversals}"),
        Check("evaluation", "d_corr_matches_oracle", abs(report["d_corr"] - dcorr) <= 1e-9,
              f"report {report['d_corr']} oracle {dcorr}"),
    ]
    return checks, (report["rsum"], report["d_corr"])


def _verify_score(wl, inputs, out, rng):
    records, table, ds = out["records"], out["table"], out["dataset"]
    pool = [r.text for r in records if r.split == "train"]
    sample = [records[k] for k in rng.choice(len(records), min(TFIDF_SAMPLE, len(records)),
                                             replace=False)]
    want = oracles.tfidf_raw_oracle(pool, [r.text for r in sample])
    worst = max(abs(table.raw_scores[r.id] - w) for r, w in zip(sample, want))
    deltas = np.array([table.scores[t] for t in ds.text_ids])
    checks = [
        Check("corpus", "raw_descriptiveness_matches_oracle", worst <= 1e-9,
              f"worst |diff| {worst:.3e}"),
        Check("corpus", "table_read_back_equal",
              corpus.read_table_jsonl(out["table_path"]) == table),
        Check("trainer", "loaded_deltas_match_table", np.array_equal(ds.deltas, deltas)),
    ]
    # the loader's join shows in retrieval over the raw features it returns
    m = min(QUALITY_IMAGES, ds.n_images)
    keep = np.flatnonzero(ds.image_of_text < m)
    imgs, txts = ds.image_feats[:m], ds.text_feats[keep]
    owners = ds.image_of_text[keep]
    quality = (oracles.recall_oracle(imgs, txts, owners, None, geometry.cosine_sim)["rsum"],
               oracles.dcorr_oracle(imgs, txts, owners, ds.levels[keep]))
    return checks, quality


VERIFY = {"train": _verify_train, "eval": _verify_eval, "score": _verify_score}
OWNER = {"train": "trainer", "eval": "evaluation", "score": "corpus"}


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run

SELF_TIMES = (
    "geometry.sim_matrix", "geometry.read_features",
    "evaluation.recall_suite", "evaluation.folded_recall_suite",
    "evaluation.per_level_recall", "evaluation.hierarchical_report",
    "evaluation.d_corr", "evaluation.distance_by_level", "evaluation.write_report_json",
    "losses.loss", "losses.hardest_negatives", "losses.ordering_loss", "losses.Batch",
    "trainer.train", "trainer.forward", "trainer.backward", "trainer.adamw_step",
    "trainer.epoch_plan", "trainer.save_checkpoint", "trainer.load_checkpoint",
    "trainer.load_dataset",
    "corpus.read_corpus_jsonl", "corpus.build_table", "corpus.write_table_jsonl",
    "corpus.read_table_jsonl",
)
CALLS = ("geometry.sim_matrix", "losses.loss", "losses.hardest_negatives", "trainer.adamw_step")
COUNTS = ("geometry.sim_matrix.entries", "geometry.read_features.bytes",
          "evaluation.ranked_indices.calls", "evaluation.traverse.stations",
          "losses.ordering_pairs", "trainer.checkpoint.bytes", "corpus.sentences",
          "corpus.tokens")
VALIDATION = ("trainer.embed_dataset", "geometry.sim_matrix", "evaluation.rsum")


def layer_metrics(tracer: Tracer, root_id: int, untraced_wall: float,
                  op_scale: float, setup_scale: float) -> dict:
    """Per-layer metrics of the traced operation; span times are rescaled to
    reference-speed seconds by the probe factor of the traced call."""
    totals = tracer.totals("op")
    counts = tracer.counts["op"]
    spans = [s for s in tracer.spans if s.run_id == "op"]
    wall = (tracer.spans[root_id].end - tracer.spans[root_id].start) * op_scale

    def total(name):
        return totals[name]["total_s"] * op_scale if name in totals else 0.0

    m = {f"{n}.self_s": totals[n]["self_s"] * op_scale if n in totals else 0.0
         for n in SELF_TIMES}
    m.update({f"{n}.calls": totals[n]["calls"] if n in totals else 0 for n in CALLS})
    m.update({n: counts.get(n, 0) for n in COUNTS})
    sim_s = m["geometry.sim_matrix.self_s"]
    m["geometry.sim_matrix.entries_per_s"] = m["geometry.sim_matrix.entries"] / sim_s if sim_s else 0.0
    evaluated = counts.get("losses.hinges_evaluated", 0)
    m["losses.active_hinge_ratio"] = counts.get("losses.active_hinges", 0) / evaluated if evaluated else 0.0
    train_ids = {s.id for s in spans if s.name == "trainer.train"}
    validation = op_scale * sum(s.end - s.start for s in spans
                                if s.parent in train_ids and s.name in VALIDATION)
    train_s = total("trainer.train")
    m["trainer.validation_s"] = validation
    m["trainer.validation_share"] = validation / train_s if train_s else 0.0
    m["trainer.batch_path_share"] = ((train_s - validation - total("trainer.save_checkpoint"))
                                     / train_s if train_s else 0.0)
    m["evaluation.sim_traverse_share"] = (total("geometry.sim_matrix")
                                          + total("evaluation.hierarchical_report")) / wall
    setup_totals = tracer.totals("setup")
    m["datagen.write_dataset.self_s"] = setup_totals["datagen.write_dataset"]["self_s"] * setup_scale
    m["op.wall_s"] = wall
    m["op.unattributed_s"] = tracer.self_times("op")[root_id] * op_scale
    m["op.trace_overhead_s"] = wall - untraced_wall
    return m


# ---------------------------------------------------------------------------
# One run


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _compare_stored(store: Path, record: dict) -> list[str]:
    """Artifacts whose digest differs from an earlier run with the same code,
    workload and seed; the first such run stores its digests."""
    if store.exists():
        stored = json.loads(store.read_text())
        return sorted({a for part in ("setup", "op") for a in record[part]
                       if stored[part].get(a) != record[part][a]})
    store.parent.mkdir(parents=True, exist_ok=True)
    partial = store.with_name(f"{store.name}.{os.getpid()}")
    partial.write_text(json.dumps(record, sort_keys=True))
    os.replace(partial, store)
    return []


def run(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up SETUP_REPS times or more, repeat the operation for ``seconds`` (at least
    once), optionally trace one more set-up and operation, then check the
    last operation's outputs and the determinism of every artifact.  Times
    are reference-speed seconds (see speed.py); raw walls go to the detail."""
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{wl.name}-{seed}-{os.getpid()}"
    rng = np.random.default_rng([seed, 7])
    probe = SpeedProbe()
    tracer = Tracer() if trace else None
    try:
        setup_s, setup_raw_s, setup_digests = [], [], []
        while len(setup_s) < SETUP_REPS or sum(setup_raw_s) < SETUP_MIN_S:
            shutil.rmtree(work, ignore_errors=True)
            inputs = None
            gc.collect()
            inputs, raw, ref = probe.measure(setup, wl, work, seed)
            setup_raw_s.append(raw)
            setup_s.append(ref)
            setup_digests.append(setup_digest(inputs))
        walls, raw_walls, digests = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            # every operation starts from the same heap: the previous output
            # gone and collected
            out = None
            gc.collect()
            out, raw, ref = probe.measure(op, wl, inputs)
            raw_walls.append(raw)
            walls.append(ref)
            digests.append(op_digest(wl, out))
        peak_rss = _peak_rss_mb()
        if trace:
            shutil.rmtree(work, ignore_errors=True)
            inputs = out = None
            gc.collect()
            with tracer.installed():
                tracer.run_id = "setup"
                with tracer.span("setup"):
                    inputs, raw, ref = probe.measure(setup, wl, work, seed)
                setup_scale = ref / raw
                tracer.run_id = "op"
                with tracer.span("op") as root:
                    out, raw, ref = probe.measure(op, wl, inputs)
                op_scale = ref / raw
            setup_digests.append(setup_digest(inputs))
            digests.append(op_digest(wl, out))
        try:
            checks, (rsum, dcorr) = VERIFY[wl.kind](wl, inputs, out, rng)
        except Exception:  # an output the checks cannot read fails, not aborts, the run
            checks = [Check(OWNER[wl.kind], "outputs_readable", False, traceback.format_exc())]
            rsum = dcorr = 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # An operation fails when a check of the (last) checked operation fails
    # and its artifacts are identical to that one, or when its artifacts
    # differ from it; set-up or cross-run drift fails every operation.
    last = digests[-1]
    unstable = {a for d in setup_digests for a in d if d[a] != setup_digests[0][a]}
    drift = _compare_stored(out_dir / "digests" / f"{wl.name}-seed{seed}-{code_id(wl)}.json",
                            {"setup": setup_digests[0], "op": last})
    every_op = {ARTIFACT_LAYER[a] for a in unstable | set(drift)}
    checked = {c.layer for c in checks if not c.ok}
    failed_layers = []
    for d in digests:
        differs = {ARTIFACT_LAYER[a] for a in d if d[a] != last[a]}
        failed_layers.append(every_op | differs | (checked if not differs else set()))
    layer_failed = {layer: sum(layer in f for f in failed_layers) for layer in LAYERS}
    failed = sum(bool(f) for f in failed_layers)

    untraced_wall = statistics.median(walls)
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "texts_per_s": out["texts"] / untraced_wall,
        "peak_rss_mb": peak_rss,
        "rsum": rsum,
        "d_corr": dcorr,
    }
    per_layer = None
    if trace:
        per_layer = layer_metrics(tracer, root.id, untraced_wall, op_scale, setup_scale)
        per_layer.update({f"{layer}.failed": n for layer, n in layer_failed.items()})
    return {
        "workload": wl.name, "seed": seed, "trace": trace,
        "attempted": len(digests), "failed": failed, "fail_ratio": failed / len(digests),
        "setup_s": setup_s, "setup_raw_s": setup_raw_s, "op_s": walls,
        "op_raw_s": raw_walls, "texts_per_op": out["texts"],
        "setup_digests": setup_digests, "op_digests": digests,
        "unstable_setup": sorted(unstable), "cross_run_drift": drift,
        "checks": [dataclasses.asdict(c) for c in checks],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "spans": tracer.records() if trace else [],
    }

"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every criterion recomputes its expected values with a brute-force
reference from shared_oracles.py (double loops, stable sorts,
station-by-station walks) or with closed forms and central finite
differences, rather than trusting the library's own arithmetic; criteria
7 and 8 run the scripts that reproduce the paper's trends.  The verdict
lines collect in conftest.ACCEPTANCE_LINES and are printed in a terminal
section after the run.
"""

import functools
import importlib.util
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import shared_oracles as oracles
from conftest import ACCEPTANCE_LINES

from descmatch import cli, trainer
from descmatch import corpus as C
from descmatch import evaluation as E
from descmatch import losses as L

DETAILS: dict[int, str] = {}

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"FAIL criterion {num}: {desc}")
                raise
            extra = f" [{DETAILS[num]}]" if num in DETAILS else ""
            ACCEPTANCE_LINES.append(f"PASS criterion {num}: {desc}{extra}")
        return run
    return deco


# ---------------------------------------------------------------------------
# Criterion 1: raw descriptiveness vs a brute-force double loop


def _random_sentences(rng) -> list[list[str]]:
    vocab = [f"w{i:02d}" for i in range(int(rng.integers(3, 51)))]
    n_sent = int(rng.integers(2, 101))
    return [
        [vocab[int(t)] for t in rng.integers(0, len(vocab),
                                             int(rng.integers(1, 13)))]
        for _ in range(n_sent)
    ]


def _as_records(sentences: list[list[str]]) -> list[C.SentenceRecord]:
    return [C.SentenceRecord(id=f"s{i}", image_id=f"img{i}",
                             text=" ".join(toks))
            for i, toks in enumerate(sentences)]


@criterion(1, "raw tf-idf descriptiveness matches a brute-force oracle on "
              "50 random corpora within 1e-9")
def test_criterion_1_tfidf_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        sentences = _random_sentences(rng)
        records = _as_records(sentences)
        _, table = C.build_table(records)
        freq = oracles.doc_freq(sentences)
        for rec, sent in zip(records, sentences):
            got = table.raw_scores[rec.id]
            worst = max(worst, abs(got - oracles.tfidf_raw(sent, freq, len(sentences))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    DETAILS[1] = f"worst |diff| {worst:.1e}, {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 2: normalization endpoints, clamping, log-base invariance


def _query(sid: str, tokens: list[str]) -> C.SentenceRecord:
    return C.SentenceRecord(id=sid, image_id="img-q", text=" ".join(tokens), split="val")


@criterion(2, "normalized scores hit 0 and 1 exactly at the pool extremes, "
              "out-of-pool scores clamp, and the table is invariant to the "
              "idf log base within 1e-9")
def test_criterion_2_normalization_contract():
    rng = np.random.default_rng(202)
    for _ in range(20):
        sentences = _random_sentences(rng)
        records = _as_records(sentences)
        # an out-of-pool query mixing seen and unseen words
        _, table = C.build_table(records + [_query("q", sentences[0][:2] + ["zz", "qq"])])
        if table.raw_max == table.raw_min:
            assert all(v == 0.5 for v in table.scores.values())
            continue
        scores = [table.scores[r.id] for r in records]
        assert min(scores) == 0.0
        assert max(scores) == 1.0
        assert all(0.0 <= s <= 1.0 for s in scores)

        # independent base-10 recomputation of the whole normalized table
        freq = oracles.doc_freq(sentences)
        raw10 = [oracles.tfidf_raw(s, freq, len(sentences), log=math.log10) for s in sentences]
        lo, span = min(raw10), max(raw10) - min(raw10)
        for rec, r10 in zip(records, raw10):
            assert abs(table.scores[rec.id] - (r10 - lo) / span) <= 1e-9

        # the out-of-pool query stays in [0, 1]
        assert 0.0 <= table.scores["q"] <= 1.0

    # constructed corpus where clamping provably engages on both sides
    records = _as_records([["a", "b"], ["a", "c", "c"],
                           ["a", "d", "d", "d"], ["a", "e"]])
    _, table = C.build_table(records + [_query("lo", ["a"]), _query("hi", ["zz", "qq"])])
    assert table.scores["lo"] == 0.0
    assert table.scores["hi"] == 1.0

    # degenerate pool: every sentence identical, everything maps to 0.5
    _, flat = C.build_table(_as_records([["a", "b"]] * 3))
    assert all(v == 0.5 for v in flat.scores.values())


# ---------------------------------------------------------------------------
# Criterion 3: gradient suite, embedding-space and features-to-loss


@criterion(3, "analytic gradients of all loss variants match central "
              "differences (h=1e-5, rel err < 1e-4) on 20 batches plus an "
              "end-to-end features-to-loss check, under 30 s")
def test_criterion_3_gradient_suite():
    start = time.perf_counter()
    res = L.run_gradcheck(seed=0, trials=20, h=1e-5, tol=1e-4)
    assert res["passed"]
    assert len({r["trial"] for r in res["trials"]}) == 20

    # end to end: raw features through projection + normalization into the
    # overall loss, differentiated with respect to the parameters
    rng = np.random.default_rng(33)
    img_f = rng.normal(size=(4, 5))
    txt_f = rng.normal(size=(9, 4))
    owners = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0])
    deltas = rng.uniform(0.05, 1.0, size=9)
    params = trainer.init_params(np.random.default_rng(34), 5, 4, 3)
    cfg = L.LossConfig()

    def value() -> float:
        ie, te, _ = trainer.forward(params, img_f, txt_f)
        return L.overall_loss(L.Batch(ie, te, owners, deltas), cfg).value

    ie, te, cache = trainer.forward(params, img_f, txt_f)
    out = L.overall_loss(L.Batch(ie, te, owners, deltas), cfg)
    grads = trainer.init_opt_state(params)["grads"]
    trainer.backward(cache, out.grad, grads)
    h = 1e-5
    for name, arr in params.items():
        fd = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            f_plus = value()
            arr[idx] = orig - h
            f_minus = value()
            arr[idx] = orig
            fd[idx] = (f_plus - f_minus) / (2.0 * h)
        err = L.grad_rel_error(grads[name], fd)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    DETAILS[3] = f"worst rel err {max(t['rel_err'] for t in res['trials']):.1e}, {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 4: algebraic identities between the loss variants


def _ratio_matched(seed: int, swap: bool) -> L.Batch:
    """Images with two texts each whose distance ratio exactly inverts the
    descriptiveness ratio; scaling by 0.5 is exact, so the ordering args
    cancel bitwise."""
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 4))
    while True:
        imgs = rng.normal(size=(n, 6))
        imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
        txts = rng.normal(size=(2 * n, 6))
        txts /= np.linalg.norm(txts, axis=1, keepdims=True)
        owners = np.repeat(np.arange(n), 2)
        d = np.linalg.norm(imgs[owners] - txts, axis=1)
        if d.min() > 1e-2:
            break
    deltas = np.empty(2 * n)
    deltas[0::2] = 0.5 * d[1::2]
    deltas[1::2] = 0.5 * d[0::2]
    if swap:
        perm = np.arange(2 * n).reshape(n, 2)[:, ::-1].ravel()
        txts, owners, deltas = txts[perm], owners[perm], deltas[perm]
    return L.Batch(imgs, txts, owners, deltas)


@criterion(4, "adaptive margins with constant delta reproduce the fixed "
              "margin loss (1e-12); ordering loss is exactly zero on "
              "ratio-matched fixtures and symmetric under pair swap; "
              "lambda=0 reduces the overall loss to the adaptive one")
def test_criterion_4_loss_identities():
    rng = np.random.default_rng(404)

    # constant delta: both adaptive margins collapse to 2c/tau
    for _ in range(25):
        batch = L.random_batch(rng, n_images=4, n_texts=7, dim=6)
        c = float(rng.uniform(0.05, 0.9))
        batch.deltas[:] = c
        for mining in (True, False):
            cfg = L.LossConfig(alpha=(2.0 * c) / 6.0, use_hardest_mining=mining)
            fixed = L.triplet_loss(batch, cfg)
            ada = L.adaptive_triplet_loss(batch, cfg)
            assert abs(fixed.value - ada.value) <= 1e-12
            assert np.max(np.abs(fixed.grad_images - ada.grad_images)) <= 1e-12
            assert np.max(np.abs(fixed.grad_texts - ada.grad_texts)) <= 1e-12

    # ratio-matched fixtures: exact zero under both text orders
    for seed in range(20):
        for swap in (False, True):
            out = L.ordering_loss(_ratio_matched(seed, swap), L.LossConfig())
            assert out.value == 0.0
            assert np.all(out.grad_images == 0.0)
            assert np.all(out.grad_texts == 0.0)

    # pair-order symmetry on general batches
    for _ in range(20):
        batch = L.random_batch(rng, n_images=3, n_texts=6, dim=5)
        perm = np.concatenate([np.flatnonzero(batch.image_of_text == o)[::-1]
                               for o in range(3)])
        swapped = L.Batch(batch.image_embs, batch.text_embs[perm],
                          batch.image_of_text[perm], batch.deltas[perm])
        a = L.ordering_loss(batch, L.LossConfig()).value
        b = L.ordering_loss(swapped, L.LossConfig()).value
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    # lambda = 0: the ordering term drops out exactly
    for _ in range(25):
        batch = L.random_batch(rng, n_images=4, n_texts=8, dim=6)
        cfg = L.LossConfig(lam=0.0)
        seven = L.overall_loss(batch, cfg)
        five = L.adaptive_triplet_loss(batch, cfg)
        assert seven.value == five.value
        assert np.array_equal(seven.grad_images, five.grad_images)
        assert np.array_equal(seven.grad_texts, five.grad_texts)


# ---------------------------------------------------------------------------
# Criterion 5: hardest-negative mining vs an exhaustive scan


@criterion(5, "hardest-negative indices match an exhaustive scan on 200 "
              "random batches, including the same-image caption exclusion")
def test_criterion_5_mining_oracle():
    rng = np.random.default_rng(505)
    for trial in range(200):
        n_img = int(rng.integers(2, 7))
        n_txt = int(rng.integers(n_img + 1, n_img + 8))
        owners = np.concatenate([np.arange(n_img),
                                 rng.integers(0, n_img, n_txt - n_img)])
        if trial % 2:
            # coarse grid plants exact similarity ties
            sims = rng.integers(0, 4, size=(n_img, n_txt)) * 0.25
        else:
            sims = rng.normal(size=(n_img, n_txt))
        got_t, got_v = L.hardest_negatives(sims, owners)
        want_t, want_v = oracles.hardest_negatives(sims, owners)
        assert np.array_equal(got_t, want_t)
        assert np.array_equal(got_v, want_v)


# ---------------------------------------------------------------------------
# Criterion 6: retrieval metrics vs brute-force oracles


def _unit(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@criterion(6, "recall, rank sum, traversal precision/recall, and per-level "
              "recall match brute-force oracles exactly on small fixtures; "
              "hierarchy correlation within 1e-12; the published six-recall "
              "sum identity reproduces 540.3")
def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(606)

    for _ in range(30):
        n_img = int(rng.integers(2, 11))
        per = int(rng.integers(1, 6))
        owners = np.repeat(np.arange(n_img), per)
        sims = rng.normal(size=(n_img, n_img * per))
        suite = E.recall_suite(sims, owners)
        for k in (1, 5, 10):
            for direction in ("i2t", "t2i"):
                assert suite[direction][k] == oracles.recall(sims, owners, k, direction)
        six = [oracles.recall(sims, owners, k, d)
               for d in ("i2t", "t2i") for k in (1, 5, 10)]
        assert E.rsum(sims, owners) == math.fsum(six)

    for _ in range(10):
        n_img = int(rng.integers(2, 7))
        per = int(rng.integers(2, 5))
        owners = np.repeat(np.arange(n_img), per)
        imgs = _unit(rng, n_img, 8)
        txts = _unit(rng, n_img * per, 8)
        report = E.hierarchical_report(imgs, txts, owners)
        mean_vec = txts.mean(axis=0)
        want_p, want_r = oracles.traversal_pr(imgs, txts, owners,
                                              mean_vec / np.linalg.norm(mean_vec), 50)
        assert report["precision"] == want_p
        assert report["recall"] == want_r

        levels = np.tile(np.arange(1, per + 1), n_img)
        sims = rng.normal(size=(n_img, n_img * per))
        assert (E.per_level_recall(sims, owners, levels)
                == oracles.per_level_recall(sims, owners, levels))

    # hierarchy correlation: two correct Spearman evaluations can differ in
    # the final ulp, so this one comparison carries a 1e-12 budget
    worst = 0.0
    for _ in range(10):
        n_img = int(rng.integers(2, 8))
        owners = np.repeat(np.arange(n_img), 4)
        levels = np.tile(np.arange(1, 5), n_img)
        # about a quarter of the texts of unknown level (-1), which d_corr skips
        levels[rng.random(levels.size) < 0.25] = -1
        imgs = _unit(rng, n_img, 8)
        txts = _unit(rng, 4 * n_img, 8)
        worst = max(worst, abs(E.d_corr(imgs, txts, owners, levels)
                               - oracles.dcorr_reference(imgs, txts, owners, levels)))
    assert worst <= 1e-12

    # undefined correlations (singleton text, constant distances) count as 0
    imgs = _unit(rng, 3, 8)
    txts = np.vstack([_unit(rng, 4, 8), _unit(rng, 1, 8),
                      np.tile(_unit(rng, 1, 8), (4, 1))])
    owners = np.array([0, 0, 0, 0, 1, 2, 2, 2, 2])
    levels = np.array([1, 2, 3, 4, 1, 1, 2, 3, 4])
    assert abs(E.d_corr(imgs, txts, owners, levels)
               - oracles.dcorr_reference(imgs, txts, owners, levels)) <= 1e-12

    # the six published recalls sum to the published rank sum either way
    printed = [83.7, 97.4, 99.2, 70.1, 92.8, 97.1]
    assert E._suite_rsum({"i2t": dict(zip((1, 5, 10), printed[:3])),
                          "t2i": dict(zip((1, 5, 10), printed[3:]))}) == 540.3
    running = 0.0
    for v in printed:
        running += v
    assert running == 540.3
    DETAILS[6] = f"worst correlation |diff| {worst:.1e}"


# ---------------------------------------------------------------------------
# Criterion 7: ablation trend on the synthetic hierarchy


def _script(name: str):
    """The module of scripts/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@criterion(7, "synthetic ablation (200 images x 4 levels, dim 32, 10 epochs, "
              "5 seeds): median hierarchy correlation orders baseline <= "
              "adaptive <= full with a gap of at least 5 points, under "
              "2 min per seed")
def test_criterion_7_ablation_trend(tmp_path):
    variants = ("baseline", "adaptive", "full")
    assert _script("run_ablation").main([
        "--out", str(tmp_path), "--seeds", "0", "1", "2", "3", "4", "--images", "200",
        "--levels", "4", "--embed-dim", "32", "--epochs", "10", "--batch-size", "64",
        "--lr", "0.01", "--variants", *variants]) == 0
    runs = json.loads((tmp_path / "ablation.json").read_text())["runs"]
    med = {v: statistics.median(r["d_corr"] for r in runs[v]) for v in variants}
    # a seed's time: training and evaluating its three variants
    seed_times = [sum(r["seconds"] for v in variants for r in runs[v] if r["seed"] == seed)
                  for seed in range(5)]
    assert med["baseline"] <= med["adaptive"] <= med["full"]
    assert med["full"] >= med["baseline"] + 5.0
    assert max(seed_times) < 120.0
    DETAILS[7] = (f"medians {med['baseline']:.1f} <= {med['adaptive']:.1f} "
                  f"<= {med['full']:.1f}, max {max(seed_times):.1f}s/seed")


# ---------------------------------------------------------------------------
# Criterion 8: distance-by-level trend in the emitted CSV


@criterion(8, "after full-model training, mean image-text distance strictly "
              "decreases from level 1 to level 4 in the emitted CSV")
def test_criterion_8_distance_trend(tmp_path):
    assert _script("run_pipeline").main([
        "--out", str(tmp_path), "--images", "200", "--levels", "4", "--embed-dim", "32",
        "--epochs", "10", "--batch-size", "64", "--lr", "0.01", "--seed", "0"]) == 0
    lines = (tmp_path / "report" / "distance_by_level.csv").read_text().strip().splitlines()
    assert lines[0] == "level,mean_distance"
    vals = {int(ln.split(",")[0]): float(ln.split(",")[1]) for ln in lines[1:]}
    assert sorted(vals) == [1, 2, 3, 4]
    assert vals[1] > vals[2] > vals[3] > vals[4]
    DETAILS[8] = "mean distance " + " > ".join(f"{vals[k]:.3f}"
                                               for k in (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# Criterion 9: byte-level reproducibility of every emitted artifact


@criterion(9, "two runs with identical seed and config emit byte-identical "
              "tables, logs, checkpoints, and reports")
def test_criterion_9_reproducibility(tmp_path, capsys):
    def pipeline(base):
        data, run, rpt = base / "data", base / "run", base / "rpt"
        assert cli.main(["synth", "--out", str(data), "--images", "60",
                         "--levels", "3", "--shared-vocab", "8",
                         "--rare-vocab", "120", "--dim", "16",
                         "--seed", "3"]) == 0
        common = ["--corpus", str(data / "corpus.jsonl"),
                  "--table", str(data / "table.jsonl"),
                  "--image-features", str(data / "images.manifest.json"),
                  "--text-features", str(data / "texts.manifest.json")]
        capsys.readouterr()
        assert cli.main(["train", *common, "--out", str(run),
                         "--epochs", "3", "--batch-size", "32",
                         "--embed-dim", "8", "--lr", "1e-3",
                         "--seed", "1"]) == 0
        log = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("epoch")]
        assert cli.main(["eval", *common, "--checkpoint",
                         str(run / "checkpoint.bin"), "--out", str(rpt)]) == 0
        return data, run, rpt, log

    data_a, run_a, rpt_a, log_a = pipeline(tmp_path / "a")
    data_b, run_b, rpt_b, log_b = pipeline(tmp_path / "b")
    assert len(log_a) == 3 and log_a == log_b

    # config echoes are excluded: they record the differing output paths
    pairs = [(data_a / name, data_b / name) for name in
             ("corpus.jsonl", "table.jsonl", "images.manifest.json",
              "images.bin", "texts.manifest.json", "texts.bin",
              "synth_config.json")]
    pairs += [(run_a / name, run_b / name)
              for name in ("history.json", "checkpoint.bin")]
    pairs += [(rpt_a / name, rpt_b / name)
              for name in ("report.json", "distance_by_level.csv")]
    for f_a, f_b in pairs:
        assert f_a.read_bytes() == f_b.read_bytes(), f_a.name
    DETAILS[9] = f"{len(pairs)} artifact files compared"

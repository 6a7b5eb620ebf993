"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every criterion recomputes its expected values with an oracle local to
this file (brute-force double loops, closed-form ranks, central finite
differences) rather than trusting the library's own arithmetic; d_corr's
is the one in test_evaluation, dcorr_reference.  The verdict lines
collect in conftest.ACCEPTANCE_LINES and are printed in a terminal
section after the run.
"""

import functools
import math
import statistics
import time

import numpy as np

from conftest import ACCEPTANCE_LINES
from test_evaluation import dcorr_reference

from descmatch import cli, datagen, trainer
from descmatch import corpus as C
from descmatch import evaluation as E
from descmatch import losses as L

DETAILS: dict[int, str] = {}


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


def _oracle_raw(tokens: list[str], pool: list[list[str]], log=math.log) -> float:
    m = len(pool)
    total = 0.0
    for word in dict.fromkeys(tokens):
        m_w = sum(1 for sent in pool if word in sent)
        total += (tokens.count(word) / len(tokens)) * log(m / max(m_w, 1))
    return total


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
        for rec, sent in zip(records, sentences):
            got = table.raw_scores[rec.id]
            worst = max(worst, abs(got - _oracle_raw(sent, sentences)))
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
        raw10 = [_oracle_raw(s, sentences, log=math.log10) for s in sentences]
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
    res = L.run_gradcheck(seed=0, trials=20, h=1e-5, tol=1e-4,
                          n_images=8, dim=16)
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
    grads = trainer.backward(cache, out.grad)
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


def _oracle_mine(sims, pair_map, owners):
    t_neg, v_neg = [], []
    for i, j in pair_map:
        best_t, best_ts = -1, None
        for u in range(sims.shape[1]):
            if owners[u] == i:
                continue
            if best_ts is None or sims[i, u] > best_ts:
                best_t, best_ts = u, sims[i, u]
        best_v, best_vs = -1, None
        for k in range(sims.shape[0]):
            if k == i:
                continue
            if best_vs is None or sims[k, j] > best_vs:
                best_v, best_vs = k, sims[k, j]
        t_neg.append(best_t)
        v_neg.append(best_v)
    return np.array(t_neg), np.array(v_neg)


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
        pair_map = [(int(owners[j]), j) for j in range(n_txt)]
        got_t, got_v = L.hardest_negatives(sims, owners)
        want_t, want_v = _oracle_mine(sims, pair_map, owners)
        assert np.array_equal(got_t, want_t)
        assert np.array_equal(got_v, want_v)


# ---------------------------------------------------------------------------
# Criterion 6: retrieval metrics vs brute-force oracles


def _oracle_recall(sims, owners, k, direction) -> float:
    n_img, n_txt = sims.shape
    if direction == "i2t":
        hits = 0
        for i in range(n_img):
            order = sorted(range(n_txt), key=lambda j: (-sims[i, j], j))
            hits += any(owners[j] == i for j in order[:k])
        return 100.0 * hits / n_img
    hits = 0
    for j in range(n_txt):
        order = sorted(range(n_img), key=lambda i: (-sims[i, j], i))
        hits += owners[j] in order[:k]
    return 100.0 * hits / n_txt


def _oracle_nearest(point, cands) -> int:
    best, best_d = -1, None
    for j in range(cands.shape[0]):
        diff = cands[j] - point
        d = float(np.dot(diff, diff))
        if best_d is None or d < best_d:
            best, best_d = j, d
    return best


def _oracle_traversal_pr(imgs, txts, owners, n_points):
    mean_vec = txts.mean(axis=0)
    root = mean_vec / np.linalg.norm(mean_vec)
    ps, rs = [], []
    for i in range(imgs.shape[0]):
        start = txts[_oracle_nearest(imgs[i], txts)]
        seen: list[int] = []
        for t in np.linspace(0.0, 1.0, n_points):
            idx = _oracle_nearest((1.0 - t) * start + t * root, txts)
            if idx not in seen:
                seen.append(idx)
        relevant = {j for j in range(len(owners)) if owners[j] == i}
        inter = len(set(seen) & relevant)
        ps.append(100.0 * inter / len(seen))
        rs.append(100.0 * inter / len(relevant))
    return sum(ps) / len(ps), sum(rs) / len(rs)


def _oracle_per_level(sims, owners, levels, k):
    out = {}
    for level in sorted(set(int(v) for v in levels if v >= 0)):
        members = [j for j in range(len(levels)) if levels[j] == level]
        hits = 0
        for j in members:
            order = sorted(range(sims.shape[0]), key=lambda i: (-sims[i, j], i))
            hits += owners[j] in order[:k]
        out[level] = 100.0 * hits / len(members)
    return out


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
        suite = E.recall_suite(sims, owners, ks=(1, 5, 10))
        for k in (1, 5, 10):
            for direction in ("i2t", "t2i"):
                assert suite[direction][k] == _oracle_recall(sims, owners, k, direction)
        six = [_oracle_recall(sims, owners, k, d)
               for d in ("i2t", "t2i") for k in (1, 5, 10)]
        assert E.rsum(sims, owners) == math.fsum(six)

    for _ in range(10):
        n_img = int(rng.integers(2, 7))
        per = int(rng.integers(2, 5))
        owners = np.repeat(np.arange(n_img), per)
        imgs = _unit(rng, n_img, 8)
        txts = _unit(rng, n_img * per, 8)
        report = E.hierarchical_report(imgs, txts, owners)
        want_p, want_r = _oracle_traversal_pr(imgs, txts, owners, 50)
        assert report["precision"] == want_p
        assert report["recall"] == want_r

        levels = np.tile(np.arange(1, per + 1), n_img)
        sims = rng.normal(size=(n_img, n_img * per))
        assert (E.per_level_recall(sims, owners, levels, k=1)
                == _oracle_per_level(sims, owners, levels, 1))

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
                               - dcorr_reference(imgs, txts, owners, levels)))
    assert worst <= 1e-12

    # undefined correlations (singleton text, constant distances) count as 0
    imgs = _unit(rng, 3, 8)
    txts = np.vstack([_unit(rng, 4, 8), _unit(rng, 1, 8),
                      np.tile(_unit(rng, 1, 8), (4, 1))])
    owners = np.array([0, 0, 0, 0, 1, 2, 2, 2, 2])
    levels = np.array([1, 2, 3, 4, 1, 1, 2, 3, 4])
    assert abs(E.d_corr(imgs, txts, owners, levels)
               - dcorr_reference(imgs, txts, owners, levels)) <= 1e-12

    # the six published recalls sum to the published rank sum either way
    printed = [83.7, 97.4, 99.2, 70.1, 92.8, 97.1]
    assert E.rsum_from_recalls(printed) == 540.3
    running = 0.0
    for v in printed:
        running += v
    assert running == 540.3
    DETAILS[6] = f"worst correlation |diff| {worst:.1e}"


# ---------------------------------------------------------------------------
# Criterion 7: ablation trend on the synthetic hierarchy


@criterion(7, "synthetic ablation (200 images x 4 levels, dim 32, 10 epochs, "
              "5 seeds): median hierarchy correlation orders baseline <= "
              "adaptive <= full with a gap of at least 5 points, under "
              "2 min per seed")
def test_criterion_7_ablation_trend(tmp_path):
    variants = ("baseline", "adaptive", "full")
    scores = {v: [] for v in variants}
    seed_times = []
    for seed in range(5):
        paths = datagen.write_dataset(tmp_path / f"s{seed}",
                                      datagen.SynthSpec(seed=seed))
        ds = trainer.load_dataset(paths["corpus"], paths["table"],
                                  paths["image_features"],
                                  paths["text_features"])
        tick = time.perf_counter()
        for variant in variants:
            cfg = trainer.TrainConfig(embed_dim=32, batch_size=64, epochs=10,
                                      lr=1e-2, seed=seed, variant=variant)
            res = trainer.train(ds, cfg)
            img_e, txt_e = trainer.embed_dataset(res.params, ds)
            scores[variant].append(
                E.d_corr(img_e, txt_e, ds.image_of_text, ds.levels))
        seed_times.append(time.perf_counter() - tick)
    med = {v: statistics.median(scores[v]) for v in variants}
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
    data, run, rpt = tmp_path / "data", tmp_path / "run", tmp_path / "rpt"
    assert cli.main(["synth", "--out", str(data), "--images", "200",
                     "--levels", "4", "--shared-vocab", "12",
                     "--rare-vocab", "600", "--dim", "48", "--seed", "0"]) == 0
    common = ["--corpus", str(data / "corpus.jsonl"),
              "--table", str(data / "table.jsonl"),
              "--image-features", str(data / "images.manifest.json"),
              "--text-features", str(data / "texts.manifest.json")]
    assert cli.main(["train", *common, "--out", str(run), "--variant", "full",
                     "--embed-dim", "32", "--batch-size", "64",
                     "--epochs", "10", "--lr", "1e-2", "--seed", "0"]) == 0
    assert cli.main(["eval", *common, "--checkpoint",
                     str(run / "checkpoint.bin"), "--out", str(rpt)]) == 0
    lines = (rpt / "distance_by_level.csv").read_text().strip().splitlines()
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

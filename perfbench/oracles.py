"""Reference implementations the benchmark checks the program against.

Each oracle recomputes a published output from its definition, without
calling the library routine that produced it.  Two library functions are
used as definitions rather than as code under test: ``cosine_sim`` is the
per-entry similarity every batched kernel must reproduce bit for bit, and
the trained model's own projection (``embed_dataset``) turns parameters
into the embeddings whose metrics are checked.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np
from scipy import stats

KS = (1, 5, 10)

# A float64 dot of two unit vectors of dimension <= 64 is off by less than
# 1e-14; gemm values further apart than this order exactly as the
# per-entry kernel orders them.
TIE_EPS = 1e-12

_TOKEN_RE = re.compile(r"[0-9a-z]+")


# ---------------------------------------------------------------------------
# Similarities and rankings


def sim_block_mismatches(sims: np.ndarray, imgs: np.ndarray, txts: np.ndarray,
                         cosine) -> int:
    """Entries of ``sims`` (rows imgs, columns txts) that differ in any bit
    from ``cosine(img, txt)``, or that stray from the gemm product by more
    than TIE_EPS (which catches a broken ``cosine`` as well)."""
    ref = np.clip(imgs @ txts.T, -1.0, 1.0)
    bad = int(np.count_nonzero(np.abs(sims - ref) > TIE_EPS))
    for a in range(imgs.shape[0]):
        for b in range(txts.shape[0]):
            if sims[a, b] != cosine(imgs[a], txts[b]):
                bad += 1
    return bad


def _tied(sims: np.ndarray, axis: int) -> np.ndarray:
    gaps = np.diff(np.sort(sims, axis=axis), axis=axis)
    return np.flatnonzero((gaps <= TIE_EPS).any(axis=axis))


def stable_orders(imgs: np.ndarray, txts: np.ndarray, cosine):
    """Descending stable argsort per image row and per text column.

    Rows and columns holding two values within TIE_EPS are recomputed
    entry by entry with ``cosine``, so every order equals the one the exact
    per-entry matrix gives, ties going to the lower index.
    """
    sims = np.clip(imgs @ txts.T, -1.0, 1.0)
    row_order = np.argsort(-sims, axis=1, kind="stable")
    col_order = np.argsort(-sims, axis=0, kind="stable")
    for i in _tied(sims, axis=1):
        row = np.array([cosine(imgs[i], t) for t in txts])
        row_order[i] = np.argsort(-row, kind="stable")
    for j in _tied(sims, axis=0):
        col = np.array([cosine(v, txts[j]) for v in imgs])
        col_order[:, j] = np.argsort(-col, kind="stable")
    return row_order, col_order


def recall_oracle(imgs: np.ndarray, txts: np.ndarray, owners: np.ndarray,
                  levels: np.ndarray | None, cosine) -> dict:
    """R@K both directions, RSUM and per-level text-to-image R@1."""
    owners = np.asarray(owners, dtype=np.int64)
    n_img, n_txt = imgs.shape[0], txts.shape[0]
    row_order, col_order = stable_orders(imgs, txts, cosine)
    out = {"i2t": {}, "t2i": {}}
    for k in KS:
        hit_i = (owners[row_order[:, :k]] == np.arange(n_img)[:, None]).any(axis=1)
        hit_t = (col_order[:k, :] == owners[None, :]).any(axis=0)
        out["i2t"][k] = 100.0 * int(hit_i.sum()) / n_img
        out["t2i"][k] = 100.0 * int(hit_t.sum()) / n_txt
    out["rsum"] = math.fsum([out["i2t"][k] for k in KS] + [out["t2i"][k] for k in KS])
    if levels is not None:
        top1 = col_order[0, :] == owners
        out["per_level_recall"] = {
            int(lv): 100.0 * int(top1[levels == lv].sum()) / int((levels == lv).sum())
            for lv in sorted(set(int(v) for v in levels if v >= 0))}
    return out


# ---------------------------------------------------------------------------
# Traversal and hierarchy correlation


def _nearest(point: np.ndarray, cands: np.ndarray) -> int:
    diff = cands - point
    # argmin keeps the first minimum: a strict-< scan over the candidates
    return int(np.argmin((diff * diff).sum(axis=1)))


def traversal_oracle(img: np.ndarray, txts: np.ndarray, root: np.ndarray,
                     n_points: int) -> list[int]:
    """Top-1 texts, in first-seen order, at n_points stations on the segment
    from the image's nearest text to the root."""
    start = txts[_nearest(img, txts)]
    seen: list[int] = []
    for t in np.linspace(0.0, 1.0, n_points):
        idx = _nearest((1.0 - t) * start + t * root, txts)
        if idx not in seen:
            seen.append(idx)
    return seen


def precision_recall(retrieved, relevant) -> tuple[float, float]:
    inter = len(set(retrieved) & set(relevant))
    return 100.0 * inter / len(set(retrieved)), 100.0 * inter / len(set(relevant))


def dcorr_oracle(imgs: np.ndarray, txts: np.ndarray, owners: np.ndarray,
                 levels: np.ndarray) -> float:
    """Mean per-image Pearson correlation of average ranks (Spearman) of
    level against negated distance, times 100; undefined counts as 0."""
    owners = np.asarray(owners, dtype=np.int64)
    order = np.argsort(owners, kind="stable")
    bounds = np.searchsorted(owners[order], np.arange(imgs.shape[0] + 1))
    rhos = []
    for i in range(imgs.shape[0]):
        mine = order[bounds[i]:bounds[i + 1]]
        if mine.size == 0:
            continue
        diff = imgs[i] - txts[mine]
        x = stats.rankdata(levels[mine])
        y = stats.rankdata(-np.sqrt((diff * diff).sum(axis=1)))
        if mine.size < 2 or np.ptp(x) == 0 or np.ptp(y) == 0:
            rhos.append(0.0)
        else:
            rhos.append(float(np.corrcoef(x, y)[0, 1]))
    return 100.0 * float(np.mean(rhos))


# ---------------------------------------------------------------------------
# Descriptiveness


def tfidf_raw_oracle(pool_texts: list[str], texts: list[str]) -> list[float]:
    """Raw descriptiveness of each text against the pool, by definition:
    sum over distinct words of (count / length) * ln(pool size / number of
    pool sentences containing the word), an absent word counting as one."""
    tokens = [_TOKEN_RE.findall(t.lower()) for t in texts]
    wanted = set().union(*map(set, tokens))
    doc_freq: Counter[str] = Counter()
    for text in pool_texts:
        doc_freq.update(set(_TOKEN_RE.findall(text.lower())) & wanted)
    size = len(pool_texts)
    return [sum((n / len(toks)) * math.log(size / max(doc_freq[w], 1))
                for w, n in Counter(toks).items())
            for toks in tokens]

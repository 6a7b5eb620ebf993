"""Brute-force references for the paper's metrics, the losses' mining and
batching, and the checkpoint and feature-file formats: one per concept,
shared by every test that needs it.

Each reference is written from the contract it encodes, by loops, sorts
and dicts, and never calls the library code it checks.  The contracts the
library states once in its module docstrings recur here:

- ties break toward the lower index (mining, ranks, the nearest
  candidate);
- a text of level -1 has no level and is skipped (per-level recall,
  d_corr);
- a split is complete: every text's owner is an image, and every image
  owns a text.

The module is not named ``oracles``: perfbench's tests import the bench's
own ``oracles`` module by that name, and pytest puts both directories on
the import path of one process.
"""

import json
import math
from collections import Counter

import numpy as np

# ---------------------------------------------------------------------------
# TF-IDF descriptiveness


def doc_freq(pool) -> Counter:
    """Per word, the number of the pool's sentences (token sequences) that
    hold it."""
    return Counter(word for tokens in pool for word in set(tokens))


def tfidf_raw(tokens, freq, n_docs: int, log=math.log) -> float:
    """Raw descriptiveness of one sentence: the sum, over its distinct words
    in order of first occurrence, of tf * log(n_docs / max(df, 1)), where tf
    is the word's share of the sentence's tokens and df = freq.get(word, 0)
    the number of the n_docs pool sentences that hold it (``doc_freq``; a
    word outside the pool smooths to df = 1).  The order of the sum is part of the
    contract: another order changes the low bits."""
    total = 0.0
    for word in dict.fromkeys(tokens):
        total += (tokens.count(word) / len(tokens)) * log(n_docs / max(freq.get(word, 0), 1))
    return total


# ---------------------------------------------------------------------------
# Ownership: mining, same-image pairs and the epoch plan


def hardest_negatives(sims, owners):
    """(text negatives, image negatives) per text j of owner i = owners[j],
    by exhaustive scan: the text u with owners[u] != i of greatest
    sims[i, u] (same-image captions excluded), and the image k != i of
    greatest sims[k, j]; ties go to the lower index.  A text without an
    admissible candidate raises ValueError("pair (i, j) has no admissible
    negative text") (or "... image"), the first such text's."""
    n_img, n_txt = sims.shape
    t_neg, v_neg = [], []
    for j in range(n_txt):
        i = owners[j]
        texts = [u for u in range(n_txt) if owners[u] != i]
        images = [k for k in range(n_img) if k != i]
        for side, candidates in (("text", texts), ("image", images)):
            if not candidates:
                raise ValueError(f"pair ({i}, {j}) has no admissible negative {side}")
        # max keeps the first of equal maxima: the lower index
        t_neg.append(max(texts, key=lambda u: sims[i, u]))
        v_neg.append(max(images, key=lambda k: sims[k, j]))
    return np.array(t_neg, dtype=np.int64), np.array(v_neg, dtype=np.int64)


def _texts_of(owners) -> dict[int, list[int]]:
    texts_of: dict[int, list[int]] = {}
    for j, owner in enumerate(owners):
        texts_of.setdefault(int(owner), []).append(j)
    return texts_of


def same_image_pairs(owners) -> list[tuple[int, int, int]]:
    """(image, a, b) for every two texts a < b of one image, ordered by
    image, then a, then b."""
    texts_of = _texts_of(owners)
    return [(owner, a, b) for owner in sorted(texts_of)
            for k, a in enumerate(texts_of[owner]) for b in texts_of[owner][k + 1:]]


def epoch_plan(rng, dataset, batch_size):
    """One epoch's batches: [(images, texts)], texts an int64 array.  The
    images are taken in the order of ``rng.permutation(n_images)``, those
    owning no text dropped, and packed whole, each with its texts in
    ascending index, until a batch holds at least batch_size texts and at
    least two images.  A trailing batch of one image joins the batch before
    it.  When fewer than two images own texts, no batch can hold two: the
    plan raises ValueError("dataset too small: fewer than two images own
    texts")."""
    texts_of = _texts_of(dataset.image_of_text)
    batches: list[tuple[list[int], list[int]]] = []
    cur_i: list[int] = []
    cur_t: list[int] = []
    for image in (int(i) for i in rng.permutation(dataset.n_images)):
        if image not in texts_of:
            continue
        cur_i.append(image)
        cur_t.extend(texts_of[image])
        if len(cur_t) >= batch_size and len(cur_i) >= 2:
            batches.append((cur_i, cur_t))
            cur_i, cur_t = [], []
    if cur_i:
        batches.append((cur_i, cur_t))
    if len(batches) >= 2 and len(batches[-1][0]) < 2:
        last_i, last_t = batches.pop()
        batches[-1] = (batches[-1][0] + last_i, batches[-1][1] + last_t)
    if not batches or len(batches[0][0]) < 2:
        raise ValueError("dataset too small: fewer than two images own texts")
    return [(imgs, np.array(txts, dtype=np.int64)) for imgs, txts in batches]


# ---------------------------------------------------------------------------
# Retrieval: ranks, recall and per-level recall


def stable_ranks(sims, owners) -> tuple[np.ndarray, np.ndarray]:
    """(i2t, t2i) 0-based ranks by a stable sort of descending similarity,
    ties to the lower index.  A text's rank is its owner's position in its
    column's order; an image's is the position in its row's order of its
    first owned text, its best one.  The split must be complete: an image
    that owns no text raises ValueError."""
    n_img, n_txt = sims.shape
    i2t = [min(pos for pos, j in enumerate(sorted(range(n_txt), key=lambda j: (-sims[i, j], j)))
               if owners[j] == i)
           for i in range(n_img)]
    t2i = [sorted(range(n_img), key=lambda i: (-sims[i, j], i)).index(owners[j])
           for j in range(n_txt)]
    return np.array(i2t, dtype=np.int64), np.array(t2i, dtype=np.int64)


def recall(sims, owners, k: int, direction: str) -> float:
    """R@k in percent: the share of queries of direction "i2t" or "t2i"
    whose rank is below k."""
    r = stable_ranks(sims, owners)[("i2t", "t2i").index(direction)]
    return 100.0 * int(np.count_nonzero(r < k)) / r.size


def per_level_recall(sims, owners, levels, k: int = 1) -> dict[int, float]:
    """Per level, in ascending order, the t2i R@k of the texts of that
    level; texts of level -1 are skipped."""
    t2i = stable_ranks(sims, owners)[1]
    out = {}
    for level in sorted({int(v) for v in levels if v >= 0}):
        members = [j for j in range(len(levels)) if levels[j] == level]
        out[level] = 100.0 * sum(1 for j in members if t2i[j] < k) / len(members)
    return out


# ---------------------------------------------------------------------------
# Traversal


def nearest_candidate(point: np.ndarray, candidates: np.ndarray) -> int:
    """Index of the Euclidean-closest candidate, the squared distance taken
    diff-then-square; ties go to the lower index."""
    diffs = candidates - point
    return int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))


def traversal(image, candidates, root, n_points: int) -> list[int]:
    """The walk of one image from the specific toward the generic: start at
    its nearest candidate s, then at each of n_points stations
    (1 - t) s + t root, t evenly spaced over [0, 1] and the interpolant not
    renormalized, take the nearest candidate; the distinct candidates in
    first-seen order."""
    start = candidates[nearest_candidate(image, candidates)]
    seen = []
    for t in np.linspace(0.0, 1.0, n_points):
        idx = nearest_candidate((1.0 - t) * start + t * root, candidates)
        if idx not in seen:
            seen.append(idx)
    return seen


def traversal_pr(images, texts, owners, root, n_points: int) -> tuple[float, float]:
    """(precision, recall) in percent of each image's walk over the texts,
    its owned texts relevant, averaged over the images of a complete
    split."""
    ps, rs = [], []
    for i, image in enumerate(images):
        seen = set(traversal(image, texts, root, n_points))
        relevant = {j for j in range(len(owners)) if owners[j] == i}
        inter = len(seen & relevant)
        ps.append(100.0 * inter / len(seen))
        rs.append(100.0 * inter / len(relevant))
    return sum(ps) / len(ps), sum(rs) / len(rs)


# ---------------------------------------------------------------------------
# Level correlation d_corr


def average_ranks(values):
    """1-based ranks; equal values share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = np.empty(len(values))
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def dcorr_reference(imgs, txts, owners, levels):
    """Per image: the Pearson correlation of average ranks over its texts of
    known level, 0 when undefined; the mean over all images, in percent."""
    rhos = []
    for i in range(imgs.shape[0]):
        mine = np.flatnonzero((owners == i) & (levels >= 0))
        x = average_ranks([int(levels[j]) for j in mine])
        y = average_ranks([-np.linalg.norm(imgs[i] - txts[j]) for j in mine])
        if mine.size < 2 or np.ptp(x) == 0 or np.ptp(y) == 0:
            rhos.append(0.0)
        else:
            rhos.append(float(np.corrcoef(x, y)[0, 1]))
    return 100.0 * float(np.mean(rhos))


# ---------------------------------------------------------------------------
# Checkpoint header


def header_end(blob: bytes) -> int:
    """Where a checkpoint's JSON header ends: after 8 bytes of magic, the
    header's length as 8 little-endian bytes, and the header."""
    return 16 + int.from_bytes(blob[8:16], "little")


def with_header(blob: bytes, edit) -> bytes:
    """The checkpoint with its JSON header replaced by edit(header), written
    back with ``json.dumps``'s defaults and its new length."""
    text = json.dumps(edit(json.loads(blob[16:header_end(blob)]))).encode("utf-8")
    return blob[:8] + len(text).to_bytes(8, "little") + text + blob[header_end(blob):]


# ---------------------------------------------------------------------------
# Feature files


def write_feature_files(stem, ids, matrix, dtype: str = "f64"):
    """A feature file pair as its format defines it, a sorted-keys JSON
    manifest beside the row-major little-endian binary, written without the
    library writer's checks, so a test can hand the reader ids and rows that
    the writer refuses.  Returns the manifest's path."""
    matrix = np.asarray(matrix, dtype=np.float64)
    manifest = stem.with_name(stem.name + ".manifest.json")
    manifest.write_text(json.dumps({"rows": matrix.shape[0], "dim": matrix.shape[1],
                                    "dtype": dtype, "ids": list(ids)}, sort_keys=True) + "\n",
                        encoding="utf-8")
    matrix.astype({"f32": "<f4", "f64": "<f8"}[dtype]).tofile(stem.with_name(stem.name + ".bin"))
    return manifest

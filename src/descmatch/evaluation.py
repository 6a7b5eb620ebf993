"""Retrieval evaluation: recall metrics, hierarchy-aware diagnostics,
and report files.

Rankings sort by descending similarity with ties broken toward the lower
index, so every metric is deterministic for a given matrix.  No metric
sorts, though: the rank of an item is counted as the number of items with
strictly greater similarity plus the number of equal ones at a lower
index, which is its 0-based position in that order, and a query hits at k
when its relevant item's rank is below k.  A text's relevant item is its
owning image; an image's is its best owned text (highest similarity,
lowest index among ties), since any owned text in the top k puts that one
there too.  Recalls are percentages; RSUM is the six-way sum of
R@{1,5,10} in both directions, accumulated with math.fsum so the reported
value is the correctly rounded float64 sum of its terms.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from . import geometry

KS = (1, 5, 10)


def ranked_indices(scores: np.ndarray) -> np.ndarray:
    """Indices ordered by descending score; equal scores keep index order."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.shape[0]), -scores))


# entries per temporary of the blocked rank count and traversal screen
_BLOCK_ENTRIES = 1 << 18

# rank of a query with no relevant item: no k reaches it
_NEVER = np.iinfo(np.int64).max


def _ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per row r, the rank of column targets[r] among the row's entries in
    descending order with ties toward the lower column, in blocks of rows."""
    n_rows, n_cols = scores.shape
    cols = np.arange(n_cols)
    out = np.empty(n_rows, dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // max(1, n_cols))
    for start in range(0, n_rows, step):
        block = scores[start:start + step]
        target = targets[start:start + step, None]
        value = np.take_along_axis(block, target, axis=1)
        ahead = block > value
        ahead |= (block == value) & (cols < target)
        out[start:start + step] = np.count_nonzero(ahead, axis=1)
    return out


def query_ranks(sims: np.ndarray, image_of_text: np.ndarray,
                direction: str) -> np.ndarray:
    """Rank of each query's relevant item (see the module docstring): one
    per image for "i2t", one per text for "t2i".  An image that owns no
    text, or a text whose owner is not a row of sims, never hits."""
    sims = np.asarray(sims, dtype=np.float64)
    owners = np.asarray(image_of_text, dtype=np.int64)
    n_img, n_txt = sims.shape
    if owners.shape != (n_txt,):
        raise ValueError("image_of_text must have one entry per text")
    valid = (owners >= 0) & (owners < n_img)
    if direction == "t2i":
        scores, target, has = sims.T, np.where(valid, owners, 0), valid
    elif direction == "i2t":
        texts = np.flatnonzero(valid)
        # by owner, then descending similarity, then text index
        texts = texts[np.lexsort((texts, -sims[owners[texts], texts], owners[texts]))]
        own = owners[texts]
        first = np.diff(own, prepend=-1) != 0
        scores, target, has = sims, np.zeros(n_img, dtype=np.int64), np.zeros(n_img, dtype=bool)
        target[own[first]] = texts[first]
        has[own] = True
    else:
        raise ValueError(f"unknown direction {direction!r}")
    ranks = _ranks(scores, target)
    ranks[~has] = _NEVER
    return ranks


def _recall(ranks: np.ndarray, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    return 100.0 * int(np.count_nonzero(ranks < k)) / ranks.size


def recall_at_k(sims: np.ndarray, image_of_text: np.ndarray, k: int,
                direction: str) -> float:
    """Percentage of queries whose top-k contains a relevant item.

    direction "i2t": each image queries the texts it owns (any hit
    counts).  direction "t2i": each text queries its single owning image.
    """
    return _recall(query_ranks(sims, image_of_text, direction), k)


def recall_suite(sims: np.ndarray, image_of_text: np.ndarray,
                 ks: tuple[int, ...] = KS) -> dict:
    out = {}
    for direction in ("i2t", "t2i"):
        ranks = query_ranks(sims, image_of_text, direction)
        out[direction] = {k: _recall(ranks, k) for k in ks}
    return out


def rsum_from_recalls(recalls) -> float:
    """Correctly rounded float64 sum of the six recall percentages."""
    vals = list(recalls)
    if len(vals) != 6:
        raise ValueError("rsum needs exactly six recall values")
    return math.fsum(vals)


def rsum(sims: np.ndarray, image_of_text: np.ndarray,
         ks: tuple[int, ...] = KS) -> float:
    suite = recall_suite(sims, image_of_text, ks)
    return rsum_from_recalls(
        [suite["i2t"][k] for k in ks] + [suite["t2i"][k] for k in ks])


def fold_slices(n_images: int, n_folds: int) -> list[tuple[int, int]]:
    """Contiguous image ranges, sizes differing by at most one."""
    if not 1 <= n_folds <= n_images:
        raise ValueError("need at least one image per fold")
    base, extra = divmod(n_images, n_folds)
    slices = []
    start = 0
    for f in range(n_folds):
        size = base + (1 if f < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices


def folded_recall_suite(image_embs: np.ndarray, text_embs: np.ndarray,
                        image_of_text: np.ndarray, n_folds: int = 5,
                        ks: tuple[int, ...] = KS) -> dict:
    """Evaluate each contiguous image fold against its own texts, then
    average the recalls and RSUM arithmetically over folds."""
    owners = np.asarray(image_of_text, dtype=np.int64)
    folds = []
    for start, stop in fold_slices(image_embs.shape[0], n_folds):
        keep = np.flatnonzero((owners >= start) & (owners < stop))
        if keep.size == 0:
            raise ValueError("a fold has no texts")
        sims = geometry.sim_matrix(image_embs[start:stop], text_embs[keep])
        suite = recall_suite(sims, owners[keep] - start, ks)
        suite["rsum"] = rsum_from_recalls(
            [suite["i2t"][k] for k in ks] + [suite["t2i"][k] for k in ks])
        folds.append(suite)
    mean = {
        d: {k: float(np.mean([f[d][k] for f in folds])) for k in ks}
        for d in ("i2t", "t2i")
    }
    mean["rsum"] = float(np.mean([f["rsum"] for f in folds]))
    return {"folds": folds, "mean": mean}


# ---------------------------------------------------------------------------
# Hierarchy-aware diagnostics


def nearest_candidate(point: np.ndarray, candidates: np.ndarray) -> int:
    """Index of the Euclidean-closest candidate; ties go to the lower index."""
    diffs = candidates - point
    return int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))


def _nearest_rows(points: np.ndarray, candidates: np.ndarray,
                  lifted_cands: np.ndarray) -> np.ndarray:
    """``nearest_candidate`` of every row of points, bit for bit.

    A gemm screen s_j = |c_j|^2 - 2 p.c_j, the squared distance less |p|^2,
    is one (d+1)-term dot of [-2p, 1] with lifted_cands[j] = [c_j, |c_j|^2].
    Every candidate within ``slack`` of the screened minimum is re-checked
    with the exact diff-then-square distance e_j; a point with a single such
    candidate needs no re-check.  Bound, with u = 2^-53, g_m = m u/(1 - m u),
    D_j the true squared distance and R = |p| + max_j |c_j|: a dot of m
    terms in any order errs by at most g_m times the sum of |terms|, so
    |s_j - (D_j - |p|^2)| <= 2 g_(d+1) R^2 and |e_j - D_j| <= g_(d+2) R^2.
    For the exact winner w and the screened minimum m, e_w <= e_m, hence
    s_w - s_m <= 2 (2 g_(d+1) + g_(d+2)) R^2 <= 6 g_(d+2) R^2.  ``slack`` is
    twice that, 12 (d+2) u R^2, which also absorbs the rounding of slack
    itself (barring underflow).
    """
    n_pts, dim = points.shape
    out = np.empty(n_pts, dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // max(1, candidates.shape[0]))
    unit = 12.0 * (dim + 2) * 2.0 ** -53
    reach = math.sqrt(float(lifted_cands[:, -1].max()))
    lifted = np.ones((min(step, n_pts), dim + 1))
    for start in range(0, n_pts, step):
        block = points[start:start + step]
        lift = lifted[:block.shape[0]]
        np.multiply(block, -2.0, out=lift[:, :-1])
        screen = lift @ lifted_cands.T
        best = screen.argmin(axis=1)
        radius = np.sqrt(np.einsum("ij,ij->i", block, block)) + reach
        slack = unit * radius * radius
        close = screen <= np.take_along_axis(screen, best[:, None], axis=1) + slack[:, None]
        multi = np.flatnonzero(np.count_nonzero(close, axis=1) > 1)
        if multi.size:
            rows, cols = np.nonzero(close[multi])
            diffs = candidates[cols] - block[multi[rows]]
            dist = np.einsum("ij,ij->i", diffs, diffs)
            # rows ascend and cols ascend within a row, so the first exact
            # minimum of each row is its lowest-index nearest candidate
            least = np.minimum.reduceat(dist, np.searchsorted(rows, np.arange(multi.size)))
            tied = np.flatnonzero(dist == least[rows])
            first = np.diff(rows[tied], prepend=-1) != 0
            best[multi] = cols[tied[first]]
        out[start:start + step] = best
    return out


def _traverse(images: np.ndarray, candidates: np.ndarray, root: np.ndarray,
              n_points: int) -> list[list[int]]:
    """``hierarchical_traverse`` of every row of images, each station's
    top-1 exactly ``nearest_candidate``'s.

    Line identity: station p = (1-t) s + t r, for start s and root r, has
    the screen value L_j(t) = |c_j|^2 - 2 p.c_j = (1-t) A_j + t B_j with
    A_j = |c_j|^2 - 2 s.c_j (one row of a blocked starts-by-candidates
    gemm) and B_j = |c_j|^2 - 2 r.c_j (computed once).  A line on [0, 1]
    never drops below min(A_j, B_j).

    Prune: the nearest candidate at a station is at least as close as s
    and as q, the candidate with the smallest B, so its line lies below
    U = max over stations of min(L_s(t), L_q(t)) there, and its
    min(A_j, B_j) is at most U.  Only candidates with min(A_j, B_j) <=
    U + slack survive; ``_nearest_rows`` finds each station's top-1 among
    them, and survivors ascend, so ties still go to the lowest index.

    Slack, with u, g_m and the gemm-screen bound of ``_nearest_rows``,
    R = max(|s|, |r|) + max_j |c_j|, and primes marking computed values:
    - A'_j and B'_j err by at most 2 g_(d+1) R^2 each;
    - the float station p' = fl(fl(1-t) s) + fl(t r) lies within g_3 R of
      the exact p, so |L_j(p') - L_j(p)| = 2 |(p' - p).c_j| <= 2 g_3 R^2;
    - the exact minimiser v at p' has e_v <= e_k for k in {s, q}, and a
      diff-then-square distance errs by at most g_(d+2) R^2, so
      L_v(p') <= L_k(p') + 2 g_(d+2) R^2 and, at the exact station,
      L_v(p) <= min_k L_k(p) + (2 g_(d+2) + 4 g_3) R^2;
    - a computed line value fl(fl(1-t) A'_k) + fl(t B'_k) is within
      g_3 R^2 of (1-t) A'_k + t B'_k, which is within 2 g_(d+1) R^2 of
      L_k(p), so U <= U' + (g_3 + 2 g_(d+1)) R^2.
    Chaining them, min(A'_v, B'_v) <= U' + (6 g_(d+2) + 5 g_3) R^2 <=
    U' + 11 g_(d+3) R^2.  ``slack`` is more than twice that,
    24 (d+3) u R^2, which also absorbs the second-order terms and the
    rounding of the threshold (barring underflow).  So every exact
    minimiser, ties included, survives.
    """
    if n_points < 2:
        raise ValueError("need at least the two endpoints")
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    candidates = np.asarray(candidates, dtype=np.float64)
    root = np.asarray(root, dtype=np.float64)
    n_cand, dim = candidates.shape
    lifted = np.hstack([candidates, np.einsum("ij,ij->i", candidates, candidates)[:, None]])
    first = _nearest_rows(images, candidates, lifted)
    t = np.linspace(0.0, 1.0, n_points)[:, None]
    rest = 1.0 - t
    root_line = lifted @ np.append(-2.0 * root, 1.0)
    q = int(root_line.argmin())
    reach = math.sqrt(float(lifted[:, -1].max()))
    unit = 24.0 * (dim + 3) * 2.0 ** -53
    root_norm = math.sqrt(float(root @ root))
    walks = []
    step = max(1, _BLOCK_ENTRIES // max(1, n_cand))
    for lo in range(0, first.size, step):
        firsts = first[lo:lo + step]
        starts = candidates[firsts]
        lift = np.ones((firsts.size, dim + 1))
        np.multiply(starts, -2.0, out=lift[:, :-1])
        low = lift @ lifted.T
        own = np.arange(firsts.size)
        a_s, a_q = low[own, firsts], low[:, q]
        # stations along axis 1; min of the s and q lines, max over stations
        bound = np.minimum(rest.T * a_s[:, None] + t.T * root_line[firsts, None],
                           rest.T * a_q[:, None] + t.T * root_line[q]).max(axis=1)
        radius = np.maximum(np.sqrt(lifted[firsts, -1]), root_norm) + reach
        bound += unit * radius * radius
        np.minimum(low, root_line, out=low)
        rows, cols = np.nonzero(low <= bound[:, None])
        cuts = np.searchsorted(rows, np.arange(firsts.size + 1))
        for i, start in enumerate(starts):
            kept = cols[cuts[i]:cuts[i + 1]]
            found = _nearest_rows(rest * start + t * root, candidates[kept], lifted[kept])
            walks.append(list(dict.fromkeys(kept[found].tolist())))
    return walks


def hierarchical_traverse(image_emb: np.ndarray, candidates: np.ndarray,
                          root_emb: np.ndarray, n_points: int = 50) -> list[int]:
    """Walk the segment from the image's nearest candidate to the root and
    collect the top-1 candidate at n_points equally spaced stations.

    The interpolated points are used as-is (no re-normalization), and the
    result keeps first-encounter order without duplicates: specific
    retrievals appear before generic ones.  Each top-1 is exactly
    ``nearest_candidate`` of its station.
    """
    return _traverse(image_emb, candidates, root_emb, n_points)[0]


def set_precision_recall(retrieved, relevant) -> tuple[float, float]:
    """Set overlap as percentages; empty inputs score zero."""
    retrieved_set, relevant_set = set(retrieved), set(relevant)
    inter = len(retrieved_set & relevant_set)
    precision = 100.0 * inter / len(retrieved_set) if retrieved_set else 0.0
    recall = 100.0 * inter / len(relevant_set) if relevant_set else 0.0
    return precision, recall


def centroid_root(text_embs: np.ndarray) -> np.ndarray:
    """Embedding standing in for the empty description: the normalized
    centroid of the candidate texts."""
    mean = np.asarray(text_embs, dtype=np.float64).mean(axis=0)
    return geometry.l2_normalize(mean[None, :])[0]


def hierarchical_report(image_embs: np.ndarray, text_embs: np.ndarray,
                        image_of_text: np.ndarray, root_emb: np.ndarray | None = None,
                        n_points: int = 50) -> dict:
    """Mean set precision/recall of the traversal retrieval per image,
    with every text as candidate and the image's own texts as relevant."""
    owners = np.asarray(image_of_text, dtype=np.int64)
    if root_emb is None:
        root_emb = centroid_root(text_embs)
    order, bounds = geometry.texts_by_owner(owners, image_embs.shape[0])
    owning = np.flatnonzero(np.diff(bounds))
    if owning.size == 0:
        raise ValueError("no image owns any text")
    walks = _traverse(image_embs[owning], text_embs, root_emb, n_points)
    precisions, recalls = [], []
    for i, retrieved in zip(owning, walks):
        p, r = set_precision_recall(retrieved, order[bounds[i]:bounds[i + 1]].tolist())
        precisions.append(p)
        recalls.append(r)
    return {"precision": float(np.mean(precisions)),
            "recall": float(np.mean(recalls)),
            "n_points": n_points}


def _average_ranks(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """1-based rank of each value within its group (groups ascending),
    equal values sharing the mean of their positions, as
    ``scipy.stats.rankdata`` gives per group."""
    order = np.lexsort((values, groups))
    run = np.empty(order.size, dtype=bool)
    run[0] = True
    np.not_equal(values[order[1:]], values[order[:-1]], out=run[1:])
    run[1:] |= groups[order[1:]] != groups[order[:-1]]
    first = np.flatnonzero(run)
    last = np.append(first[1:], order.size) - 1
    base = np.searchsorted(groups, groups[order[first]])
    ranks = np.empty(order.size)
    ranks[order] = np.repeat(0.5 * (first + last) - base + 1.0, last - first + 1)
    return ranks


def d_corr(image_embs: np.ndarray, text_embs: np.ndarray,
           image_of_text: np.ndarray, levels: np.ndarray) -> float:
    """Mean over images of the Spearman correlation between a text's
    hierarchy level and its negated distance to the owning image, times
    100.  Deeper levels should sit closer, so perfect ordering scores 100.
    Undefined correlations (single text, constant ranks) count as 0.

    One grouped pass: average ranks within each image, then the Pearson
    correlation of the ranks, rho = Sxy / sqrt(Sxx Syy).  The n average
    ranks of an image sum to n (n + 1) / 2, so centring subtracts
    (n + 1) / 2; centred ranks are multiples of 1/2, so the three sums are
    exact, and so is Sxx Syy while below 2^49.  rho then takes two
    roundings, and a perfect ordering scores exactly 1.
    """
    owners = np.asarray(image_of_text, dtype=np.int64)
    levels = np.asarray(levels, dtype=np.int64)
    order, bounds = geometry.texts_by_owner(owners, image_embs.shape[0])
    owned = order[bounds[0]:bounds[-1]]
    if owned.size == 0:
        raise ValueError("no image owns any text")
    groups = owners[owned]
    dists = geometry.euclid_dists(image_embs[groups], text_embs[owned])
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    sizes = np.diff(np.append(starts, groups.size))
    centre = np.repeat(0.5 * (sizes + 1.0), sizes)
    x = _average_ranks(groups, levels[owned]) - centre
    y = _average_ranks(groups, -dists) - centre
    sxy, sxx, syy = (np.add.reduceat(a * b, starts) for a, b in ((x, y), (x, x), (y, y)))
    defined = (sxx > 0.0) & (syy > 0.0)
    rho = np.zeros(starts.size)
    rho[defined] = sxy[defined] / np.sqrt(sxx[defined] * syy[defined])
    return 100.0 * float(np.mean(rho))


def per_level_recall(sims: np.ndarray, image_of_text: np.ndarray,
                     levels: np.ndarray, k: int = 1) -> dict[int, float]:
    """Text-to-image R@k pooled over all texts of each level."""
    ranks = query_ranks(sims, image_of_text, "t2i")
    levels = np.asarray(levels, dtype=np.int64)
    return {int(level): _recall(ranks[levels == level], k)
            for level in np.unique(levels[levels >= 0])}


def distance_by_level(image_embs: np.ndarray, text_embs: np.ndarray,
                      image_of_text: np.ndarray,
                      levels: np.ndarray) -> dict[int, float]:
    """Mean image-to-owned-text Euclidean distance per hierarchy level.
    Each sum runs left to right in text order (cumsum; np.sum would pair
    the terms and move the last bits of the report)."""
    owners = np.asarray(image_of_text, dtype=np.int64)
    levels = np.asarray(levels, dtype=np.int64)
    known = np.flatnonzero(levels >= 0)
    dists = geometry.euclid_dists(image_embs[owners[known]], text_embs[known])
    out: dict[int, float] = {}
    for level in np.unique(levels[known]):
        mine = dists[levels[known] == level]
        out[int(level)] = float(np.cumsum(mine)[-1]) / mine.size
    return out


# ---------------------------------------------------------------------------
# Full report


def evaluate(image_embs: np.ndarray, text_embs: np.ndarray,
             image_of_text: np.ndarray, levels: np.ndarray | None = None,
             root_emb: np.ndarray | None = None, ks: tuple[int, ...] = KS,
             n_points: int = 50, n_folds: int | None = None) -> dict:
    """One-call evaluation over a split.  Level diagnostics appear only
    when levels are provided; fold averaging only when n_folds is set.
    """
    owners = np.asarray(image_of_text, dtype=np.int64)
    if levels is not None:
        levels = np.asarray(levels, dtype=np.int64)
    with_levels = levels is not None and bool(np.any(levels >= 0))
    sims = geometry.sim_matrix(image_embs, text_embs)
    suite = recall_suite(sims, owners, ks)
    report = {
        "n_images": int(image_embs.shape[0]),
        "n_texts": int(text_embs.shape[0]),
        "recall": suite,
        "rsum": rsum_from_recalls(
            [suite["i2t"][k] for k in ks] + [suite["t2i"][k] for k in ks]),
    }
    if with_levels:
        report["per_level_recall"] = per_level_recall(sims, owners, levels)
    # the traversal and the folds allocate blocks of their own; dropping the
    # full matrix first keeps the two peaks from stacking
    del sims
    report["hierarchical"] = hierarchical_report(image_embs, text_embs, owners,
                                                 root_emb, n_points)
    if n_folds is not None:
        report["folded"] = folded_recall_suite(image_embs, text_embs, owners,
                                               n_folds, ks)
    if with_levels:
        report["d_corr"] = d_corr(image_embs, text_embs, owners, levels)
        report["distance_by_level"] = distance_by_level(
            image_embs, text_embs, owners, levels)
    return report


def write_report_json(path, report: dict) -> None:
    def _clean(obj):
        if isinstance(obj, dict):
            return {str(k): _clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_clean(v) for v in obj]
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        return obj

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_clean(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_distance_csv(path, dist: dict[int, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "mean_distance"])
        for level in sorted(dist):
            writer.writerow([level, repr(float(dist[level]))])

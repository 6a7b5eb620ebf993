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

The ranks of embeddings are those of ``geometry.sim_matrix``, bit for bit,
but that matrix is never formed: ``exact_ranks`` streams blocks of image
rows through a BLAS gemm that only screens, and every value that decides a
rank (a target, an entry within the proven gemm error of one) comes from
the fixed-order kernel.  A given matrix goes through the same count with
a zero error bound, so there is one rank routine.

Norm contract: every embedding row that ``exact_ranks`` and the
traversal take (image, text, candidate and root) has norm 1 within
``geometry.UNIT_TOL`` = 1e-3, and d < 2^20; anything else raises
ValueError naming the row (``geometry.check_unit_rows``).  The screens
(the gemms of ``exact_ranks`` and of the traversal, and the masks taken
from them) run in float32, each slack's proof counting the rounding of
the float64 inputs to it, and every decision (a rank, a start, a top-1)
is taken in float64.

Split contract: the paper defines its metrics on complete splits, and
every entry point takes one: at least one image, each text's owner an
image index (``geometry.check_owners``) and every image owning a text;
anything else raises ValueError naming the text or the image
(``_split``).
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

# the screens' dtype and its unit roundoff
_SCREEN = np.dtype(np.float32)
_U = 2.0 ** -24

# the screens' slacks are proven for embeddings of fewer dimensions
_MAX_DIM = 1 << 20


def _split(n_img: int, image_of_text, n_txt: int) -> np.ndarray:
    """The owners of a split that the split contract admits; raises
    otherwise."""
    owners = geometry.check_owners(image_of_text, n_img, n_txt)
    if n_img == 0:
        raise ValueError("the split has no images")
    bare = np.flatnonzero(np.bincount(owners, minlength=n_img) == 0)
    if bare.size:
        raise ValueError(f"image {bare[0]} owns no text")
    return owners


def _screen_norms(name: str, rows: np.ndarray) -> np.ndarray:
    """The norms of rows that the norm contract admits; raises otherwise."""
    if rows.shape[1] >= _MAX_DIM:
        raise ValueError(f"{name} embeddings have {rows.shape[1]} dimensions; "
                         f"the float32 screens take fewer than 2^20")
    return geometry.check_unit_rows(name, rows)


def _toward(values: np.ndarray, dtype: np.dtype, end: float) -> np.ndarray:
    """values rounded to dtype toward end (+inf or -inf): the nearest
    float of dtype on that side, so a screen compares in its own dtype and
    loses nothing to the rounding."""
    out = values.astype(dtype)
    off = out < values if end > 0 else out > values
    out[off] = np.nextafter(out[off], dtype.type(end))
    return out


def _nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-d mask, in the same order; on sparse masks
    the flat search is an order of magnitude faster."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _window(values: np.ndarray, slack, clip: bool,
            dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the (lo, hi) outside which a screened entry is decided:
    values -/+ slack, each rounded outward, one float and then to the
    screen's dtype, so lo <= value - slack and hi >= value + slack
    exactly.  With clip, the exact entries are clamped into [-1, 1], so no
    screen value decides "above" once hi >= 1 or "below" once lo <= -1."""
    lo = _toward(np.nextafter(values - slack, -np.inf), dtype, -np.inf)
    hi = _toward(np.nextafter(values + slack, np.inf), dtype, np.inf)
    if clip:
        hi[hi >= 1.0] = np.inf
        lo[lo <= -1.0] = -np.inf
    return lo, hi


def _count(mask: np.ndarray, axis: int) -> np.ndarray:
    """True entries along an axis: the bytes summed into int32, the fast
    accumulator (no block axis nears 2^31 entries)."""
    return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=np.int32)


def _inside(block: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Entries no comparison with the window decides: within it, or NaN."""
    return ~((block > hi) | (block < lo))


def _screen(block: np.ndarray, lo: np.ndarray, hi: np.ndarray, axis: int):
    """Per query along axis: the entries above its window, and the number
    inside it."""
    above = block > hi
    decided = block < lo
    decided |= above
    return _count(above, axis), block.shape[axis] - _count(decided, axis)


def _count_ranks(n_img: int, owners: np.ndarray, owned: np.ndarray, blocks, exact,
                 row_slack=0.0, col_slack=0.0, clip: bool = False,
                 dtype: np.dtype = np.dtype(np.float64)):
    """(i2t, t2i) ranks, as the module docstring defines them, of the exact
    matrix E that ``blocks`` screens.

    owners are those of a complete split (``_split``) and owned[j] is
    E[owners[j], j]; ``blocks`` yields (first row, screen rows) in row
    order, covering every row once; ``exact(rows, cols)`` returns E at
    those entries.  The blocks are of dtype, and every screen entry g
    stays within row_slack[i] of E[i, j] (and within col_slack[j]), after
    the clamp into [-1, 1] when clip is set; NaN entries are allowed.  An
    entry outside its query's ``_window`` is strictly above or below the
    query's target and is counted from the screen alone; the entries
    inside it (the target itself, near ties, NaN) are re-checked with
    ``exact``.  The target always lies inside its own window, so a query
    whose window holds no other entry of the block needs no re-check.
    A matrix is its own screen with zero slack (``_matrix_ranks``).
    """
    n_txt = owners.size
    # by owner, then descending similarity, then text index: each image's
    # best text heads its group, and every image has a group
    texts = np.lexsort((np.arange(n_txt), -owned, owners))
    best = texts[np.diff(owners[texts], prepend=-1) != 0]
    target = owned[best]
    lo_t, hi_t = _window(owned, col_slack, clip, dtype)
    lo_i, hi_i = _window(target, row_slack, clip, dtype)
    t2i = np.zeros(n_txt, dtype=np.int64)
    i2t = np.zeros(n_img, dtype=np.int64)
    for start, block in blocks:
        stop = start + block.shape[0]
        # text queries: the columns of the block
        above, inside = _screen(block, lo_t, hi_t, 0)
        t2i += above
        inside -= (owners >= start) & (owners < stop)
        cols = np.flatnonzero(inside)
        if cols.size:
            r, k = _nonzero(_inside(block[:, cols], lo_t[cols], hi_t[cols]))
            r, k = start + r, cols[k]
            e = exact(r, k)
            ahead = (e > owned[k]) | ((e == owned[k]) & (r < owners[k]))
            t2i += np.bincount(k[ahead], minlength=n_txt)
        # image queries: the rows of the block
        lo_r, hi_r = lo_i[start:stop, None], hi_i[start:stop, None]
        i2t[start:stop], inside = _screen(block, lo_r, hi_r, 1)
        inside -= 1
        rows = np.flatnonzero(inside)
        if rows.size:
            r, k = _nonzero(_inside(block[rows], lo_r[rows], hi_r[rows]))
            r = start + rows[r]
            e = exact(r, k)
            ahead = (e > target[r]) | ((e == target[r]) & (k < best[r]))
            i2t += np.bincount(r[ahead], minlength=n_img)
    return i2t, t2i


def _matrix_ranks(sims: np.ndarray, image_of_text: np.ndarray):
    """(i2t, t2i) ranks of a given matrix: the zero-slack screen."""
    sims = np.asarray(sims, dtype=np.float64)
    n_img, n_txt = sims.shape
    owners = _split(n_img, image_of_text, n_txt)
    owned = sims[owners, np.arange(n_txt)]
    step = max(1, _BLOCK_ENTRIES // max(1, n_txt))
    blocks = ((start, sims[start:start + step]) for start in range(0, n_img, step))
    return _count_ranks(n_img, owners, owned, blocks, lambda r, c: sims[r, c])


def exact_ranks(image_embs: np.ndarray, text_embs: np.ndarray,
                image_of_text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i2t, t2i) ranks of ``geometry.sim_matrix(image_embs, text_embs)``,
    bit for bit ``_matrix_ranks`` of that matrix, without forming it: a
    BLAS gemm screens one block of image rows at a time, and every value
    that decides a rank comes from ``geometry.pair_sims``.  Memory is
    O(block x texts).

    Bound, with u = 2^-24 the unit roundoff of the float32 screen,
    u_64 = 2^-53 float64's and g_m = m u / (1 - m u): let E = clip(x) be
    an exact entry, x the fixed-order float64 sum of the d products
    a_k b_k of image row a and text row b, and g the gemm entry.  x lies
    within g_d(u_64) sum_k |a_k b_k| of a.b (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.1).  g sums in float32, in
    some order (gemm may fuse a multiply and an add, which only drops a
    rounding), the products of a and b rounded to float32, which
    multiplies each product by (1 + e)(1 + e'), |e|, |e'| <= u, so g lies
    within g_(d+2) sum_k |a_k b_k| of a.b.  By Cauchy-Schwarz
        |g - x| <= c |a| |b|,  c = g_(d+2) + g_d(u_64).
    The clamp is monotone and 1-Lipschitz, so clip(g) lies as close to
    E.  The slack of entry (i, j) is k n_i N with N the largest text
    norm (for image queries), or k M n_j with M the largest image norm
    (for text queries), where the n are computed norms and k = 2 (d+2) u.
    A computed norm has n >= |a| sqrt(1 - g_d(u_64)) (1 - u_64), and the
    slack is rounded twice in float64, so it is at least c |a| |b|
    whenever k (1 - u_64)^4 (1 - g_d(u_64)) >= c, which holds for
    (d+2) u <= 1/4, since then g_(d+2) <= 4/3 (d+2) u; d < 2^20 ensures
    that.  ``_window`` rounds each threshold outward to float32, so the
    comparison itself loses nothing: an entry above its query's hi has
    clip(g) > value + slack, hence E > value, and likewise below lo.

    Range.  Every norm lies within 1e-3 of 1, so every rounded component,
    product and partial sum is below 2 in magnitude, far from overflow,
    and |a| |b| > 1/2.  A rounding that underflows, even one flushed to
    zero, errs by less than 2^-126 in absolute terms; over the 2d
    conversions (each weighted by a component of the other row) and the
    2d - 1 products and sums of an entry that is less than 2^-126
    (sqrt(d) (|a| + |b|) + 2d) < 2^-122 d |a| |b|, far under the margin
    k - c >= (d+2) u / 2.
    Targets come from ``pair_sims``: the owned pair of each text, and
    each image's best owned text.
    """
    images = np.atleast_2d(np.asarray(image_embs, dtype=np.float64))
    texts = np.atleast_2d(np.asarray(text_embs, dtype=np.float64))
    (n_img, dim), n_txt = images.shape, texts.shape[0]
    owners = _split(n_img, image_of_text, n_txt)
    # pair_sims checks the dimensions before any gemm
    owned = geometry.pair_sims(images, texts, owners, np.arange(n_txt))
    img_norms, txt_norms = _screen_norms("image", images), _screen_norms("text", texts)
    unit = 2.0 * (dim + 2) * _U
    row_slack = unit * img_norms * txt_norms.max()
    col_slack = unit * img_norms.max() * txt_norms
    screen_images = images.astype(_SCREEN)
    screen_texts = texts.astype(_SCREEN)
    step = max(1, _BLOCK_ENTRIES // max(1, n_txt))
    blocks = ((start, screen_images[start:start + step] @ screen_texts.T)
              for start in range(0, n_img, step))
    return _count_ranks(n_img, owners, owned, blocks,
                        lambda r, c: geometry.pair_sims(images, texts, r, c),
                        row_slack, col_slack, clip=True, dtype=_SCREEN)


def _recall(ranks: np.ndarray, k: int) -> float:
    return 100.0 * int(np.count_nonzero(ranks < k)) / ranks.size


def _suite(ranks) -> dict:
    """Recalls of (i2t, t2i) ranks, keyed by direction and k in KS."""
    return {d: {k: _recall(r, k) for k in KS} for d, r in zip(("i2t", "t2i"), ranks)}


def _suite_rsum(suite: dict) -> float:
    """Correctly rounded float64 sum of the suite's six recall percentages."""
    return math.fsum(suite[d][k] for d in ("i2t", "t2i") for k in KS)


def recall_suite(sims: np.ndarray, image_of_text: np.ndarray) -> dict:
    return _suite(_matrix_ranks(sims, image_of_text))


def rsum(sims: np.ndarray, image_of_text: np.ndarray) -> float:
    return _suite_rsum(recall_suite(sims, image_of_text))


def embedding_rsum(image_embs: np.ndarray, text_embs: np.ndarray,
                   image_of_text: np.ndarray) -> float:
    """``rsum`` of the embeddings' similarity matrix, from ``exact_ranks``."""
    return _suite_rsum(_suite(exact_ranks(image_embs, text_embs, image_of_text)))


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
                        image_of_text: np.ndarray, n_folds: int = 5) -> dict:
    """Evaluate each contiguous image fold against its own texts, then
    average the recalls and RSUM arithmetically over folds."""
    owners = _split(image_embs.shape[0], image_of_text, text_embs.shape[0])
    folds = []
    for start, stop in fold_slices(image_embs.shape[0], n_folds):
        keep = np.flatnonzero((owners >= start) & (owners < stop))
        suite = _suite(exact_ranks(image_embs[start:stop], text_embs[keep],
                                   owners[keep] - start))
        suite["rsum"] = _suite_rsum(suite)
        folds.append(suite)
    mean = {
        d: {k: float(np.mean([f[d][k] for f in folds])) for k in KS}
        for d in ("i2t", "t2i")
    }
    mean["rsum"] = float(np.mean([f["rsum"] for f in folds]))
    return {"folds": folds, "mean": mean}


# ---------------------------------------------------------------------------
# Hierarchy-aware diagnostics


def _nearest(close: np.ndarray, seg: np.ndarray, index: np.ndarray,
             candidates: np.ndarray, point) -> np.ndarray:
    """For every (row, segment) of a screen, its nearest candidate: the
    least squared distance to its point, taken diff-then-square (``einsum``
    of c - p with itself), the lowest index winning ties.  Returns a
    (rows, segments) array of candidate indices.

    Column k of the screen is candidate index[k] of segment seg[k]; seg
    ascends, and index ascends within a segment.  close marks, per row,
    at least the columns whose screen value lies within the caller's slack
    of the least in their segment, so every (row, segment) holds a marked
    column.
    point(rows, segs) gives the float points at which the distances are
    taken.  A (row, segment) with a single marked column needs no
    re-check; the others take the exact distance e_j of each marked
    column.  Bound, with u = 2^-24 the unit roundoff of the float32
    screens (above float64's, in which e_j is taken), g_m = m u/(1 - m u), D_j
    the true squared distance to the float point and R a bound on
    |p| + |c_j|: a dot of m terms in any order errs by at most g_m times
    the sum of |terms|, so |e_j - D_j| <= g_(d+2) R^2.  If every screen value s_j
    lies within E R^2 of D_j less a constant of the (row, segment), then
    for the exact winner w and the screened minimum m, e_w <= e_m, hence
    s_w - s_m <= 2 (E + g_(d+2)) R^2.  A slack of at least that, with
    room for its own rounding, keeps every exact minimiser, ties
    included, marked.
    """
    n_seg = int(seg[-1]) + 1
    row, col = _nonzero(close)
    # one group per (row, segment), in that order, each holding its least
    group = row * n_seg + seg[col]
    heads = np.flatnonzero(np.diff(group, prepend=-1))
    sizes = np.diff(np.append(heads, group.size))
    top = col[heads]
    multi = np.flatnonzero(sizes > 1)
    tied = np.repeat(sizes > 1, sizes)
    row, col = row[tied], col[tied]
    diffs = candidates[index[col]] - point(row, seg[col])
    dist = np.einsum("ij,ij->i", diffs, diffs)
    member = np.repeat(np.arange(multi.size), sizes[multi])
    least = np.minimum.reduceat(dist, np.searchsorted(member, np.arange(multi.size)))
    # columns ascend within a group, so the first exact minimum is the
    # lowest-index nearest candidate
    hits = np.flatnonzero(dist == least[member])
    top[multi] = col[hits[np.diff(member[hits], prepend=-1) != 0]]
    return index[top].reshape(close.shape[0], n_seg)


def _traverse(images: np.ndarray, candidates: np.ndarray, root: np.ndarray,
              n_points: int) -> np.ndarray:
    """The walks of ``hierarchical_traverse`` for every row of images, as
    an (n_points, rows) array: column w holds walk w's top-1 at each
    station.  Each start and each top-1 is the nearest candidate by the
    rule of ``_nearest``.

    Screens: the start, ``low`` and ``mid`` gemms and their masks run in
    float32, with u = 2^-24; the root's line, the stations, the
    survivors' line values and every distance are float64, whose
    roundoff is below u.  The thresholds of the float32 masks are rounded
    up to float32, so their comparisons lose nothing.  With g_m = m u /
    (1 - m u), a lifted dot, |c_j|^2 - 2 p.c_j taken as the (d+1)-term
    dot of [-2p, 1] with [c_j, |c_j|^2] at a float64 point p, errs by at
    most 2 g_(d+2) R^2 for any R >= |p| + |c_j|: each term takes g_(d+1)
    and two conversions, and the last one the float64 rounding of
    |c_j|^2 (below u), g_(d+3) in all, at most 2 g_(d+2) for d < 2^20.
    Every norm lies within 1e-3 of 1, so R^2 < 5 and R > 1/2: no screen
    value overflows, and the absolute errors of underflow (below 2^-126
    per rounding even when flushed to zero, over 2d + 2 weighted
    conversions and 2d + 1 products and sums) total less than
    2^-120 d R^2, far under the margin that each slack below keeps.

    Start: the screen s_j = |c_j|^2 - 2 p.c_j of image p, its squared
    distance less |p|^2, is a lifted dot, so E = 2 g_(d+2) with
    R = |p| + max_j |c_j| in the bound of ``_nearest``:
    2 (2 g_(d+2) + g_(d+2)) R^2 = 6 g_(d+2) R^2.  The start slack is
    twice that, 12 (d+2) u R^2, which also absorbs the rounding of slack
    itself.

    Line identity: station p = (1-t) s + t r, for start s and root r, has
    the screen value L_j(t) = |c_j|^2 - 2 p.c_j = (1-t) A_j + t B_j with
    A_j = |c_j|^2 - 2 s.c_j (one row of a blocked starts-by-candidates
    gemm) and B_j = |c_j|^2 - 2 r.c_j (computed once).  The nearest
    candidate v at a station is at least as close as s and as q, the
    candidate with the smallest B, so there h_v(t) = L_v(t) -
    min(L_s(t), L_q(t)) <= 0.

    Prune: h_v is convex and piecewise linear, with one kink where the s
    and q lines cross, at t* = a / (a + b) for a = A_q - A_s >= 0 and
    b = B_s - B_q.  So h_v <= 0 somewhere on [0, 1] means h_v <= 0 at
    t = 0, at t = 1 or at t*: A_v <= min(A_s, A_q), B_v <= B_q, or
    L_v(t*) <= L_s(t*) = L_q(t*).  A candidate survives if it passes one
    of these three tests, each with the slack below.  Where the crossing
    is ill-conditioned (the s and q lines nearly coincide), it must also
    pass the envelope test: its line lies below U = max over stations of
    min(L_s(t), L_q(t)), so min(A_v, B_v) <= U.  The start survives,
    since L_s(0) = -|s|^2 is the least line value at t = 0.  Each
    station's top-1 is then found among the survivors, which ascend, by
    the computed line values L'_j = fl(fl(1-t) A'_j) + fl(t B'_j).

    Slack, with R = max(|s|, |r|) + max_j |c_j| and primes marking
    computed values:
    - A'_j and B'_j are lifted dots and err by at most 2 g_(d+2) R^2 each;
    - the float station p' = fl(fl(1-t) s) + fl(t r) lies within g_3 R of
      the exact p, so |L_j(p') - L_j(p)| = 2 |(p' - p).c_j| <= 2 g_3 R^2;
    - the exact minimiser v at p' has e_v <= e_k for k in {s, q}, and a
      diff-then-square distance errs by at most g_(d+2) R^2, so
      L_v(p') <= L_k(p') + 2 g_(d+2) R^2 and, at the exact station,
      h_v(t) <= (2 g_(d+2) + 4 g_3) R^2;
    - a computed line value L'_j is within g_3 R^2 of (1-t) A'_j +
      t B'_j, which is within 2 g_(d+2) R^2 of L_j(p), so
      U <= U' + (g_3 + 2 g_(d+2)) R^2, and L'_j lies within
      (3 g_3 + 2 g_(d+2)) R^2 of L_j(p');
    - the crossing values come from one more lifted gemm at the float
      point fl(fl(1-t') s) + fl(t' r), within g_3 R of the exact point of
      the computed crossing t', so they lie within 2 (g_(d+2) + g_3) R^2
      of L_j(t').
    Chaining them, the end tests need 4 g_(d+2) R^2 more than the bound
    on h_v, the crossing test 4 (g_(d+2) + g_3) R^2 more, the envelope
    test min(A'_v, B'_v) <= U' + (6 g_(d+2) + 5 g_3) R^2, and the top-1
    screen, by ``_nearest``'s bound with E = 3 g_3 + 2 g_(d+2),
    (6 g_3 + 6 g_(d+2)) R^2; each is at most 14 g_(d+3) R^2.
    ``slack`` is 24 (d+3) u R^2, which also absorbs the second-order
    terms and the rounding of the slack itself.  The crossing test adds
    ``drift`` for the move from t* to t': the slope of h_v is at most
    4 R^2 (|A|, |B| <= R^2), and a' = max(A'_q - A'_s, 0) and
    b' = B'_s - B'_q lie within e = 6 (d+2) u R^2 of a and b (4 g_(d+2) R^2
    and the rounding of a difference below 2 R^2), so for
    t' = a' / (a' + b') clamped into [0, 1], |t' - t*| <= e / (a + b) +
    2 u <= e / (a' + b' - 2 e) + 2 u.  ``drift`` is twice 4 R^2 times that
    bound, the factor 2 absorbing its own rounding, and infinite unless
    a' + b' > 2 e; rows whose drift exceeds R^2 take the envelope test
    too.  So every exact minimiser, ties included, survives.
    """
    if n_points < 2:
        raise ValueError("need at least the two endpoints")
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    candidates = np.asarray(candidates, dtype=np.float64)
    root = np.asarray(root, dtype=np.float64)
    n_cand, dim = candidates.shape
    img_norms = _screen_norms("image", images)
    cand_norms = _screen_norms("candidate", candidates)
    root_norm = float(_screen_norms("root", root[None, :])[0])
    lifted = np.hstack([candidates, np.einsum("ij,ij->i", candidates, candidates)[:, None]])
    t = np.linspace(0.0, 1.0, n_points)[:, None]
    rest = 1.0 - t
    root_line = lifted @ np.append(-2.0 * root, 1.0)
    q = int(root_line.argmin())
    reach = float(cand_norms.max())
    screen_lifted = lifted.astype(_SCREEN)
    unit = 24.0 * (dim + 3) * _U
    one_seg, every = np.zeros(n_cand, dtype=np.int64), np.arange(n_cand)
    tops = np.empty((n_points, images.shape[0]), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // max(1, n_cand))
    budget = max(1, _BLOCK_ENTRIES // n_points)
    for lo in range(0, images.shape[0], step):
        block = images[lo:lo + step]
        lift = np.ones((block.shape[0], dim + 1), _SCREEN)
        np.multiply(block, -2.0, out=lift[:, :-1])
        screen = lift @ screen_lifted.T
        radius = img_norms[lo:lo + step] + reach
        slack = 12.0 * (dim + 2) * _U * radius * radius
        limit = _toward(screen.min(axis=1) + slack, _SCREEN, np.inf)
        firsts = _nearest(~(screen > limit[:, None]), one_seg, every,
                          candidates, lambda rows, _: block[rows])[:, 0]
        del screen
        starts = candidates[firsts]
        np.multiply(starts, -2.0, out=lift[:, :-1])
        low = lift @ screen_lifted.T
        own = np.arange(firsts.size)
        a_s, a_q = low[own, firsts], low[:, q]
        # the envelope U: stations along axis 1, min of the s and q lines,
        # max over stations
        bound = np.minimum(rest.T * a_s[:, None] + t.T * root_line[firsts, None],
                           rest.T * a_q[:, None] + t.T * root_line[q]).max(axis=1)
        radius = np.maximum(cand_norms[firsts], root_norm) + reach
        slack = unit * radius * radius
        bound += slack
        b_s, b_q = root_line[firsts], root_line[q]
        a = np.maximum(a_q - a_s, 0.0)
        b = b_s - b_q
        err = 6.0 * (dim + 2) * _U * radius * radius
        gap = a + b - 2.0 * err
        cross = np.clip(a / np.where(gap > 0.0, a + b, 1.0), 0.0, 1.0)[:, None]
        drift = np.full(firsts.size, np.inf)
        ok = gap > 0.0
        drift[ok] = 8.0 * radius[ok] ** 2 * (err[ok] / gap[ok] + 2.0 * _U)
        # the crossing t' of the s and q lines, and its screen values
        np.multiply((1.0 - cross) * starts + cross * root, -2.0, out=lift[:, :-1])
        mid = lift @ screen_lifted.T
        at_cross = np.minimum(mid[own, firsts], mid[:, q])
        keep = mid <= _toward(at_cross + slack + drift, _SCREEN, np.inf)[:, None]
        keep |= low <= _toward(np.minimum(a_s, a_q) + slack, _SCREEN, np.inf)[:, None]
        keep |= root_line <= b_q + slack.max()
        # where the crossing is ill-conditioned, the envelope test prunes
        flat = np.flatnonzero(drift > radius * radius)
        if flat.size:
            keep[flat] &= np.minimum(low[flat], root_line) <= bound[flat, None]
        rows, cols = _nonzero(keep)
        a_line = low[rows, cols]
        cuts = np.searchsorted(rows, np.arange(firsts.size + 1))
        # chunks of walks whose stations x survivors fit one temporary
        i = 0
        while i < firsts.size:
            j = max(i + 1, int(np.searchsorted(cuts, cuts[i] + budget, "right")) - 1)
            kept = slice(cuts[i], cuts[j])
            walk = rows[kept] - i
            line = rest * a_line[kept] + t * root_line[cols[kept]]
            least = np.minimum.reduceat(line, cuts[i:j] - cuts[i], axis=1)
            tops[:, lo + i:lo + j] = _nearest(
                line <= (least + slack[i:j])[:, walk], walk, cols[kept], candidates,
                lambda station, w: rest[station] * starts[i + w] + t[station] * root)
            i = j
        # the next block's start screen need not sit beside these
        del low, mid, keep, line
    return tops


def hierarchical_traverse(image_emb: np.ndarray, candidates: np.ndarray,
                          root: np.ndarray, n_points: int = 50) -> list[int]:
    """Walk the segment from the image's nearest candidate to the root and
    collect the top-1 candidate at n_points equally spaced stations.

    The interpolated points are used as-is (no re-normalization), and the
    result keeps first-encounter order without duplicates: specific
    retrievals appear before generic ones.  The start and each top-1 are
    the nearest candidate by the rule of ``_nearest``: diff-then-square
    distance, the lowest index on ties; ``_traverse`` gives the bound that
    keeps them exact.
    """
    tops = _traverse(image_emb, candidates, root, n_points)
    return list(dict.fromkeys(tops[:, 0].tolist()))


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
                        image_of_text: np.ndarray, n_points: int = 50) -> dict:
    """Mean set precision/recall of the traversal retrieval per image toward
    ``centroid_root``, with every text as candidate and the image's own texts
    as relevant: ``set_precision_recall`` of each walk, from the tops array."""
    n_img = image_embs.shape[0]
    owners = _split(n_img, image_of_text, text_embs.shape[0])
    # per walk (column), its distinct tops and those its image owns: the
    # retrieved set and its overlap with the relevant one
    tops = np.sort(_traverse(image_embs, text_embs, centroid_root(text_embs), n_points),
                   axis=0)
    new = np.ones(tops.shape, dtype=bool)
    np.not_equal(tops[1:], tops[:-1], out=new[1:])
    hits = np.count_nonzero(new & (owners[tops] == np.arange(n_img)), axis=0)
    precision = 100.0 * hits / np.count_nonzero(new, axis=0)
    recall = 100.0 * hits / np.bincount(owners, minlength=n_img)
    return {"precision": float(np.mean(precision)),
            "recall": float(np.mean(recall)),
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
    100, over the texts of known level (a level of -1 is unknown and its
    text is skipped, as in `per_level_recall` and `distance_by_level`).
    Deeper levels should sit closer, so perfect ordering scores 100.
    Undefined correlations (fewer than two known texts, constant ranks)
    count as 0.

    One grouped pass: average ranks within each image, then the Pearson
    correlation of the ranks, rho = Sxy / sqrt(Sxx Syy).  The n average
    ranks of an image sum to n (n + 1) / 2, so centring subtracts
    (n + 1) / 2; centred ranks are multiples of 1/2, so the three sums are
    exact, and so is Sxx Syy while below 2^49.  rho then takes two
    roundings, and a perfect ordering scores exactly 1.
    """
    n_img = image_embs.shape[0]
    owners = _split(n_img, image_of_text, text_embs.shape[0])
    levels = np.asarray(levels, dtype=np.int64)
    known = np.flatnonzero(levels >= 0)
    order, bounds = geometry.texts_by_owner(owners[known], n_img)
    order = known[order]
    sizes = np.diff(bounds)
    rho = np.zeros(n_img)
    held = np.flatnonzero(sizes)  # images with a known text; reduceat takes no empty group
    if held.size:
        groups = owners[order]
        dists = geometry.euclid_dists(image_embs[groups], text_embs[order])
        centre = np.repeat(0.5 * (sizes + 1.0), sizes)
        x = _average_ranks(groups, levels[order]) - centre
        y = _average_ranks(groups, -dists) - centre
        sxy, sxx, syy = (np.add.reduceat(a * b, bounds[held]) for a, b in ((x, y), (x, x), (y, y)))
        defined = (sxx > 0.0) & (syy > 0.0)
        rho[held[defined]] = sxy[defined] / np.sqrt(sxx[defined] * syy[defined])
    return 100.0 * float(np.mean(rho))


def per_level_recall(sims: np.ndarray, image_of_text: np.ndarray,
                     levels: np.ndarray) -> dict[int, float]:
    """Text-to-image R@1 pooled over all texts of each level."""
    return _level_recall(_matrix_ranks(sims, image_of_text)[1], levels)


def _level_recall(ranks: np.ndarray, levels: np.ndarray) -> dict[int, float]:
    levels = np.asarray(levels, dtype=np.int64)
    return {int(level): _recall(ranks[levels == level], 1)
            for level in np.unique(levels[levels >= 0])}


def distance_by_level(image_embs: np.ndarray, text_embs: np.ndarray,
                      image_of_text: np.ndarray,
                      levels: np.ndarray) -> dict[int, float]:
    """Mean image-to-owned-text Euclidean distance per hierarchy level.
    Each sum runs left to right in text order (cumsum; np.sum would pair
    the terms and move the last bits of the report)."""
    owners = _split(image_embs.shape[0], image_of_text, text_embs.shape[0])
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
             image_of_text: np.ndarray, levels: np.ndarray,
             n_points: int = 50, n_folds: int | None = None) -> dict:
    """One-call evaluation over a split.  Level diagnostics appear only
    when some level is >= 0; fold averaging only when n_folds is set.
    """
    owners = _split(image_embs.shape[0], image_of_text, text_embs.shape[0])
    levels = np.asarray(levels, dtype=np.int64)
    with_levels = bool(np.any(levels >= 0))
    ranks = exact_ranks(image_embs, text_embs, owners)
    suite = _suite(ranks)
    report = {
        "n_images": int(image_embs.shape[0]),
        "n_texts": int(text_embs.shape[0]),
        "recall": suite,
        "rsum": _suite_rsum(suite),
    }
    if with_levels:
        report["per_level_recall"] = _level_recall(ranks[1], levels)
    report["hierarchical"] = hierarchical_report(image_embs, text_embs, owners, n_points)
    if n_folds is not None:
        report["folded"] = folded_recall_suite(image_embs, text_embs, owners, n_folds)
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

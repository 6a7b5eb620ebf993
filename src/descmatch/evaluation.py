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
the fixed-order kernel.  The same pass counts each query's rank within
its fold of the folded protocol (``folded_recall_suite``, ``evaluate``'s
n_folds), so the folds take no screen of their own.  A given matrix goes
through the same count with a zero error bound, so there is one rank
routine.

Norm contract: every embedding row that ``exact_ranks`` and the
traversal take (image, text, candidate and root) holds to geometry's norm
contract, norm 1 within ``geometry.UNIT_TOL`` = 1e-3 and d < 2^20;
anything else raises ValueError naming the row or the width
(``geometry.check_unit_rows``).  So every true norm is below
``_NORM_MAX``, and each screen (the gemms of ``exact_ranks`` and of the
traversal, the traversal's walk screen, and the masks taken from them)
runs in float32 with one slack, a constant of d and ``_NORM_MAX`` whose
proof counts the rounding of the float64 inputs to the screen.  Every
decision (a rank, a start, a top-1) is taken in float64.

Split contract: the paper defines its metrics on complete splits, and
every entry point takes one: at least one image, each text's owner an
image index (``geometry.check_owners``) and every image owning a text;
anything else raises ValueError naming the text or the image
(``_split``).
"""

from __future__ import annotations

import csv
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

# a bound on the true norm of every row that geometry.check_unit_rows admits
# (geometry's norm contract): its computed norm lies within UNIT_TOL of 1,
# and the true norm within a relative 2^-32 of that (fewer than 2^20
# squares summed in float64, then a square root).  A float64 scalar, so a
# float32 screen value plus a slack made from it is summed in float64.
_NORM_MAX = np.float64(1.0 + 2.0 * geometry.UNIT_TOL)


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


def _toward(values: np.ndarray, end: float) -> np.ndarray:
    """values rounded to float32 toward end (+inf or -inf): the nearest
    float32 on that side, so a screen compares in its own dtype and loses
    nothing to the rounding."""
    out = values.astype(_SCREEN)
    off = out < values if end > 0 else out > values
    out[off] = np.nextafter(out[off], _SCREEN.type(end))
    return out


def _nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-d mask, in the same order; on sparse masks
    the flat search is an order of magnitude faster."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _window(values: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the float32 (lo, hi) outside which a screened entry is
    decided: values -/+ slack, each rounded outward, one float and then to
    float32, so lo <= value - slack and hi >= value + slack exactly.  A
    screen entry is within slack of the exact entry only once clamped into
    [-1, 1], so no screen value decides "above" once hi >= 1 or "below"
    once lo <= -1; a screen that is its own exact matrix loses nothing by
    it, since an entry inside a window is decided by its exact value."""
    lo = _toward(np.nextafter(values - slack, -np.inf), -np.inf)
    hi = _toward(np.nextafter(values + slack, np.inf), np.inf)
    hi[hi >= 1.0] = np.inf
    lo[lo <= -1.0] = -np.inf
    return lo, hi


def _count(mask: np.ndarray, axis: int) -> np.ndarray:
    """True entries along an axis, as int64: the bytes summed in the
    narrowest integer type that cannot overflow, the fast accumulator."""
    n = mask.shape[axis]
    acc = np.uint8 if n < 1 << 8 else np.uint16 if n < 1 << 16 else np.int64
    return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=acc).astype(np.int64)


def _inside(block: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Entries no comparison with the window decides: within it, or NaN."""
    return ~((block > hi) | (block < lo))


def _count_ranks(n_img: int, owners: np.ndarray, owned: np.ndarray, screens, exact,
                 folds: list, slack: float = 0.0):
    """The (i2t, t2i) ranks, as the module docstring defines them, of the
    exact matrix E that ``screens`` screens, and those of each of its
    folds, the (first, stop) image ranges that cover its rows in order, a
    fold's images ranked against the texts they own, in one pass:
    ((i2t, t2i), (fold i2t, fold t2i)), each array in image or text order.

    owners are those of a complete split (``_split``) and owned[j] is
    E[owners[j], j].  The texts are taken in owner order, one stable
    gather: ``screens(order, spans)`` yields, for each (start, stop) of
    spans, the screen of image rows start:stop with the matrix's columns
    taken in that order; ``exact(rows, cols)`` returns E at those entries,
    in text indices.  Every screen entry g is E[i, j] itself (a matrix is
    its own screen with zero slack: ``_matrix_ranks``) or, clamped into
    [-1, 1], lies within slack of it; NaN entries are allowed.  An entry
    outside its query's ``_window`` is strictly above or below the query's
    target and is counted from the screen alone; the entries inside it
    (the target itself, near ties, NaN) are re-checked with ``exact``.
    The target always lies inside its own window, so a query whose window
    holds no other entry of the block needs no re-check.

    Each span lies inside one fold, whose texts are one run of columns, so
    every count of a query splits into the part inside its own fold and
    the part outside: a fold rank is the first, a full rank the sum.
    """
    n_txt = owners.size
    order, bounds = geometry.texts_by_owner(owners, n_img)
    # by owner, then descending similarity (NaN last), then text index, in
    # two stable sorts: each image's best text heads its group, and every
    # image has a group
    texts = np.argsort(-owned, kind="stable")
    texts = texts[np.argsort(owners[texts], kind="stable")]
    best = texts[np.diff(owners[texts], prepend=-1) != 0]
    target = owned[best]
    # one window per text; an image query's is its best text's
    lo, hi = _window(owned, slack)
    lo_t, hi_t, lo_i, hi_i = lo[order], hi[order], lo[best], hi[best]
    owners, owned = owners[order], owned[order]
    step = max(1, _BLOCK_ENTRIES // max(1, n_txt))
    spans = [(start, min(start + step, stop)) for first, stop in folds
             for start in range(first, stop, step)]
    # the run of columns that holds each span's fold
    runs = [slice(bounds[first], bounds[stop]) for first, stop in folds
            for _ in range(first, stop, step)]
    t2i, fold_t2i = np.zeros(n_txt, dtype=np.int64), np.zeros(n_txt, dtype=np.int64)
    i2t, fold_i2t = np.zeros(n_img, dtype=np.int64), np.zeros(n_img, dtype=np.int64)
    for (start, stop), fold, block in zip(spans, runs, screens(order, spans)):
        # the columns of the texts the block's rows own
        own = slice(bounds[start], bounds[stop])
        # text queries: the columns of the block
        above = _count(block > hi_t, 0)
        inside = block.shape[0] - above - _count(block < lo_t, 0)
        inside[own] -= 1
        cols = np.flatnonzero(inside)
        if cols.size:
            r, k = _nonzero(_inside(block[:, cols], lo_t[cols], hi_t[cols]))
            r, k = start + r, cols[k]
            e = exact(r, order[k])
            ahead = (e > owned[k]) | ((e == owned[k]) & (r < owners[k]))
            above += np.bincount(k[ahead], minlength=n_txt)
        t2i += above
        fold_t2i[fold] += above[fold]
        # image queries: the rows of the block
        lo_r, hi_r = lo_i[start:stop, None], hi_i[start:stop, None]
        # inside its fold and outside, counted over slices: np.add.reduceat
        # would first cast the whole mask into the accumulator type
        above = block > hi_r
        mine = _count(above[:, fold], 1)
        other = _count(above[:, :fold.start], 1) + _count(above[:, fold.stop:], 1)
        inside = n_txt - mine - other - _count(block < lo_r, 1) - 1
        rows = np.flatnonzero(inside)
        if rows.size:
            r, k = _nonzero(_inside(block[rows], lo_r[rows], hi_r[rows]))
            r, text = rows[r], order[k]
            e, want = exact(start + r, text), target[start + r]
            ahead = (e > want) | ((e == want) & (text < best[start + r]))
            held = (k >= fold.start) & (k < fold.stop)
            mine += np.bincount(r[ahead & held], minlength=stop - start)
            other += np.bincount(r[ahead & ~held], minlength=stop - start)
        fold_i2t[start:stop] = mine
        i2t[start:stop] = mine + other
    # back from owner order to text order
    t2i[order], fold_t2i[order] = t2i.copy(), fold_t2i.copy()
    return (i2t, t2i), (fold_i2t, fold_t2i)


def _matrix_ranks(sims: np.ndarray, image_of_text: np.ndarray):
    """(i2t, t2i) ranks of a given matrix: the zero-slack screen."""
    sims = np.asarray(sims, dtype=np.float64)
    n_img, n_txt = sims.shape
    owners = _split(n_img, image_of_text, n_txt)
    owned = sims[owners, np.arange(n_txt)]
    return _count_ranks(n_img, owners, owned,
                        lambda order, spans: (sims[start:stop, order] for start, stop in spans),
                        lambda r, c: sims[r, c], [(0, n_img)])[0]


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
    E.  The slack of every entry is k M^2 with M = ``_NORM_MAX`` and
    k = 2 (d+2) u, rounded twice in float64: |a|, |b| < M with room to
    spare, and d < 2^20 gives (d+2) u < 1/15, so c < 15/14 (d+2) u +
    2 d u_64 < k / 1.8 and the slack exceeds c |a| |b|.  ``_window`` rounds
    each threshold outward to float32, so the comparison itself loses
    nothing: an entry above its query's hi has clip(g) > value + slack,
    hence E > value, and likewise below lo.

    Range.  Every norm lies within 1e-3 of 1, so every rounded component,
    product and partial sum is below 2 in magnitude, far from overflow,
    and |a| |b| > 1/2.  A rounding that underflows, even one flushed to
    zero, errs by less than 2^-126 in absolute terms; over the 2d
    conversions (each weighted by a component of the other row) and the
    2d - 1 products and sums of an entry that is less than 2^-126
    (sqrt(d) (|a| + |b|) + 2d) < 2^-122 d |a| |b|, far under the margin
    k - c >= (d+2) u / 2.
    Targets come from ``pair_sims``: the owned pair of each text, and
    each image's best owned text.  This is the one-fold case of
    ``_screened_ranks``.
    """
    return _screened_ranks(image_embs, text_embs, image_of_text, 1)[0]


def _screened_ranks(image_embs: np.ndarray, text_embs: np.ndarray,
                    image_of_text: np.ndarray, n_folds: int):
    """((i2t, t2i), (fold i2t, fold t2i)): the ranks of ``exact_ranks``
    and those of its n_folds ``fold_slices`` folds, from one pass of its
    screen (``_count_ranks``)."""
    images = np.atleast_2d(np.asarray(image_embs, dtype=np.float64))
    texts = np.atleast_2d(np.asarray(text_embs, dtype=np.float64))
    (n_img, dim), n_txt = images.shape, texts.shape[0]
    owners = _split(n_img, image_of_text, n_txt)
    folds = fold_slices(n_img, n_folds)
    # pair_sims checks the dimensions before any gemm
    owned = geometry.pair_sims(images, texts, owners, np.arange(n_txt))
    geometry.check_unit_rows("image", images)
    geometry.check_unit_rows("text", texts)
    screen_images = images.astype(_SCREEN)

    def screens(order, spans):
        # row-major: BLAS packs a transposed operand far more slowly
        cols = np.ascontiguousarray(texts.astype(_SCREEN)[order].T)
        return (screen_images[start:stop] @ cols for start, stop in spans)

    return _count_ranks(n_img, owners, owned, screens,
                        lambda r, c: geometry.pair_sims(images, texts, r, c),
                        folds, 2.0 * (dim + 2) * _U * _NORM_MAX ** 2)


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
    edges = [k * base + min(k, extra) for k in range(n_folds + 1)]
    return list(zip(edges, edges[1:]))


def folded_recall_suite(image_embs: np.ndarray, text_embs: np.ndarray,
                        image_of_text: np.ndarray, n_folds: int = 5) -> dict:
    """Evaluate each contiguous image fold against its own texts, then
    average the recalls and RSUM arithmetically over folds.  The fold
    ranks come from one screen pass over the whole split
    (``_screened_ranks``)."""
    owners = _split(image_embs.shape[0], image_of_text, text_embs.shape[0])
    return _folded(owners, _screened_ranks(image_embs, text_embs, owners, n_folds)[1], n_folds)


def _folded(owners: np.ndarray, ranks, n_folds: int) -> dict:
    """``folded_recall_suite``'s report from the fold (i2t, t2i) ranks."""
    i2t, t2i = ranks
    folds = []
    for start, stop in fold_slices(i2t.size, n_folds):
        suite = _suite((i2t[start:stop], t2i[(owners >= start) & (owners < stop)]))
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
    the true squared distance to the float point and R = 2 ``_NORM_MAX``,
    which bounds |p| + |c_j| for every point p of a traversal (an image,
    or a station between its start and the root) and every candidate c_j
    with room to spare: a dot of m terms in any order errs by at most g_m times
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

    Screens: the start, ``low`` and ``mid`` gemms, the survivors' line
    values and their masks run in float32, with u = 2^-24; the root's
    line, the stations and every distance are float64, whose roundoff is
    below u.  The thresholds of the float32 masks are rounded
    up to float32, so their comparisons lose nothing.  With g_m = m u /
    (1 - m u), a lifted dot, |c_j|^2 - 2 p.c_j taken as the (d+1)-term
    dot of [-2p, 1] with [c_j, |c_j|^2] at a float64 point p, errs by at
    most 2 g_(d+2) R^2 for any R >= |p| + |c_j|: each term takes g_(d+1)
    and two conversions, and the last one the float64 rounding of
    |c_j|^2 (below u), g_(d+3) in all, at most 2 g_(d+2) for d < 2^20.
    Every slack below is a constant times R^2 for ``_nearest``'s
    R = 2 ``_NORM_MAX``.  R^2 < 5, so no screen value overflows, and the
    absolute errors of underflow (below 2^-126 per rounding even when
    flushed to zero, over 2d + 2 weighted conversions and 2d + 1 products
    and sums) total less than 2^-120 d R^2, far under the margin that
    each slack keeps.

    Start: the screen s_j = |c_j|^2 - 2 p.c_j of image p, its squared
    distance less |p|^2, is a lifted dot, so E = 2 g_(d+2) in the bound
    of ``_nearest``: 2 (2 g_(d+2) + g_(d+2)) R^2 = 6 g_(d+2) R^2.  The
    start slack is twice that, 12 (d+2) u R^2, which also absorbs the
    rounding of slack itself.

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
    is ill-conditioned (the s and q lines nearly coincide, as when s = q),
    the crossing test is skipped and the end test at t = 1 is taken
    against s's own line instead, B_v <= B_s: h_v >= L_v - L_s, which is
    linear, so it lies below a bound at some station only if it does at
    t = 0, the first test (A_s = min(A_s, A_q)), or at t = 1.  The start
    survives, since L_s(0) = -|s|^2 is the least line value at t = 0.
    Each station's top-1 is then found among the survivors, which ascend, by
    the float32 line values L'_j = fl(fl(T A'_j) + fl(t~ B~_j)), where
    T, t~ and B~_j are 1-t, t and B'_j rounded to float32.

    Slack, with primes marking computed values:
    - A'_j and B'_j are lifted dots and err by at most 2 g_(d+2) R^2 each;
    - the float station p' = fl(fl(1-t) s) + fl(t r) lies within g_3 R of
      the exact p, so |L_j(p') - L_j(p)| = 2 |(p' - p).c_j| <= 2 g_3 R^2;
    - the exact minimiser v at p' has e_v <= e_k for k in {s, q}, and a
      diff-then-square distance errs by at most g_(d+2) R^2, so
      L_v(p') <= L_k(p') + 2 g_(d+2) R^2 and, at the exact station,
      h_v(t) <= (2 g_(d+2) + 4 g_3) R^2;
    - a float32 line value L'_j adds the roundings of 1-t, t and B'_j,
      each at most u R^2 (|A'_j|, |B'_j| <= R^2), so it is within
      (g_3 + 3 u) R^2 of (1-t) A'_j + t B'_j, and L'_j lies within
      (3 g_3 + 3 u + 2 g_(d+2)) R^2 of L_j(p');
    - the crossing values come from one more lifted gemm at the float
      point fl(fl(1-t') s) + fl(t' r), within g_3 R of the exact point of
      the computed crossing t', so they lie within 2 (g_(d+2) + g_3) R^2
      of L_j(t').
    Chaining them, the end tests (against s or q) need 4 g_(d+2) R^2
    more than the bound on h_v, the crossing test 4 (g_(d+2) + g_3) R^2
    more, and the top-1 screen, by ``_nearest``'s bound with E = 3 g_3 +
    3 u + 2 g_(d+2), (6 g_3 + 6 u + 6 g_(d+2)) R^2; each is at most
    14 g_(d+3) R^2.
    ``slack`` is 24 (d+3) u R^2, which also absorbs the second-order
    terms and the rounding of the slack itself.  The crossing test adds
    ``drift`` for the move from t* to t': the slope of h_v is at most
    4 R^2 (|A|, |B| <= R^2), and a' = max(A'_q - A'_s, 0) and
    b' = B'_s - B'_q lie within e = 6 (d+2) u R^2 of a and b (4 g_(d+2) R^2
    and the rounding of a difference below 2 R^2), so for
    t' = a' / (a' + b') clamped into [0, 1], |t' - t*| <= e / (a + b) +
    2 u <= e / (a' + b' - 2 e) + 2 u.  ``drift`` is twice 4 R^2 times that
    bound, the factor 2 absorbing its own rounding, and infinite unless
    a' + b' > 2 e; rows whose drift exceeds R^2 take the end test against
    s in place of the crossing test.  So every exact minimiser, ties
    included, survives.
    """
    if n_points < 2:
        raise ValueError("need at least the two endpoints")
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    candidates = np.asarray(candidates, dtype=np.float64)
    root = np.asarray(root, dtype=np.float64)
    n_cand, dim = candidates.shape
    geometry.check_unit_rows("image", images)
    geometry.check_unit_rows("candidate", candidates)
    geometry.check_unit_rows("root", root[None, :])
    lifted = np.hstack([candidates, np.einsum("ij,ij->i", candidates, candidates)[:, None]])
    t = np.linspace(0.0, 1.0, n_points)[:, None]
    rest = 1.0 - t
    root_line = lifted @ np.append(-2.0 * root, 1.0)
    q = int(root_line.argmin())
    # the walk screen's copies of t, 1 - t and B
    screen_t, screen_rest, screen_root_line = (v.astype(_SCREEN) for v in (t, rest, root_line))
    # row-major: BLAS packs a transposed operand far more slowly
    screen_lifted = np.ascontiguousarray(lifted.T, dtype=_SCREEN)
    # R^2 of the bounds above, R = 2 _NORM_MAX
    r2 = (2.0 * _NORM_MAX) ** 2
    slack, err = 24.0 * (dim + 3) * _U * r2, 6.0 * (dim + 2) * _U * r2
    one_seg, every = np.zeros(n_cand, dtype=np.int64), np.arange(n_cand)
    tops = np.empty((n_points, images.shape[0]), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // max(1, n_cand))
    budget = max(1, _BLOCK_ENTRIES // n_points)
    for lo in range(0, images.shape[0], step):
        block = images[lo:lo + step]
        lift = np.ones((block.shape[0], dim + 1), _SCREEN)
        np.multiply(block, -2.0, out=lift[:, :-1])
        screen = lift @ screen_lifted
        limit = _toward(screen.min(axis=1) + 12.0 * (dim + 2) * _U * r2, np.inf)
        # unit rows make every screen value finite, so no NaN goes unmarked
        firsts = _nearest(screen <= limit[:, None], one_seg, every,
                          candidates, lambda rows, _: block[rows])[:, 0]
        del screen
        starts = candidates[firsts]
        np.multiply(starts, -2.0, out=lift[:, :-1])
        low = lift @ screen_lifted
        own = np.arange(firsts.size)
        a_s, a_q = low[own, firsts], low[:, q]
        b_s, b_q = root_line[firsts], root_line[q]
        a = np.maximum(a_q - a_s, 0.0)
        b = b_s - b_q
        gap = a + b - 2.0 * err
        cross = np.clip(a / np.where(gap > 0.0, a + b, 1.0), 0.0, 1.0)[:, None]
        drift = np.full(firsts.size, np.inf)
        ok = gap > 0.0
        drift[ok] = 8.0 * r2 * (err / gap[ok] + 2.0 * _U)
        # the crossing t' of the s and q lines, and its screen values
        np.multiply((1.0 - cross) * starts + cross * root, -2.0, out=lift[:, :-1])
        mid = lift @ screen_lifted
        at_cross = np.minimum(mid[own, firsts], mid[:, q])
        keep = mid <= _toward(at_cross + slack + drift, np.inf)[:, None]
        # where the crossing is ill-conditioned, the end test against s
        # stands in for the crossing test
        flat = drift > r2
        keep[flat] = root_line <= b_s[flat, None] + slack
        keep |= low <= _toward(np.minimum(a_s, a_q) + slack, np.inf)[:, None]
        keep |= root_line <= b_q + slack
        rows, cols = _nonzero(keep)
        a_line, b_line = low[rows, cols], screen_root_line[cols]
        cuts = np.searchsorted(rows, np.arange(firsts.size + 1))
        # chunks of walks whose stations x survivors fit one temporary
        i = 0
        while i < firsts.size:
            j = max(i + 1, int(np.searchsorted(cuts, cuts[i] + budget, "right")) - 1)
            kept = slice(cuts[i], cuts[j])
            walk = rows[kept] - i
            line = screen_rest * a_line[kept] + screen_t * b_line[kept]
            least = np.minimum.reduceat(line, cuts[i:j] - cuts[i], axis=1)
            limit = _toward(least + slack, np.inf)
            # each walk's limit beside its survivors: a repeat, not a gather
            limit = np.repeat(limit, np.diff(cuts[i:j + 1]), axis=1)
            tops[:, lo + i:lo + j] = _nearest(
                line <= limit, walk, cols[kept], candidates,
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
    centroid of the candidate texts.  Raises if the centroid's norm is
    below ``geometry.NORM_FLOOR``."""
    mean = np.asarray(text_embs, dtype=np.float64).mean(axis=0)[None, :]
    norm = np.linalg.norm(mean, axis=1)[0]
    if norm < geometry.NORM_FLOOR:
        raise ValueError(f"the text centroid (the traversal's root) has near-zero norm "
                         f"{norm:.3e}: the text embeddings cancel out")
    return geometry.l2_normalize(mean)[0]


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
    when some level is >= 0; fold averaging only when n_folds is set.  The
    report's keys are sorted when written (``write_report_json``).
    """
    owners = _split(image_embs.shape[0], image_of_text, text_embs.shape[0])
    levels = np.asarray(levels, dtype=np.int64)
    # the fold ranks come from the same pass
    ranks, fold_ranks = _screened_ranks(image_embs, text_embs, owners,
                                        1 if n_folds is None else n_folds)
    suite = _suite(ranks)
    report = {
        "n_images": int(image_embs.shape[0]),
        "n_texts": int(text_embs.shape[0]),
        "recall": suite,
        "rsum": _suite_rsum(suite),
        "hierarchical": hierarchical_report(image_embs, text_embs, owners, n_points),
    }
    if n_folds is not None:
        report["folded"] = _folded(owners, fold_ranks, n_folds)
    if np.any(levels >= 0):
        report["per_level_recall"] = _level_recall(ranks[1], levels)
        report["d_corr"] = d_corr(image_embs, text_embs, owners, levels)
        report["distance_by_level"] = distance_by_level(image_embs, text_embs, owners, levels)
    return report


def write_report_json(path, report: dict) -> None:
    # integer keys (levels, k) become strings before sort_keys orders them
    def _clean(obj):
        if isinstance(obj, dict):
            return {str(k): _clean(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [_clean(v) for v in obj]
        return obj

    geometry.write_json(path, _clean(report))


def write_distance_csv(path, dist: dict[int, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "mean_distance"])
        for level in sorted(dist):
            writer.writerow([level, repr(float(dist[level]))])

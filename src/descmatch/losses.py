"""Ranking and ordering objectives over a batch of cross-modal embeddings.

Every loss returns its scalar value together with its analytic gradient
with respect to both embedding matrices as one stacked array, image rows
first, then text rows, the layout of the trainer's forward pass;
``grad_images`` and ``grad_texts`` are views of its two parts.  Gradients
treat per-sentence descriptiveness values as constants, use the exact
subgradient 0 at hinge kinks, and are checked against central finite
differences (the oracle perturbs the already-normalized embeddings without
re-normalizing, so both sides live in the same domain).

Each loss sums its gradient terms with one ``np.bincount`` into image
rows then text rows, bit for bit as one ``np.add.at`` per term onto zeros:
bincount adds each weight into its bin in input order from +0.0, the terms
keep the order of those calls, and a sum from +0.0 never becomes -0.0.

Each fact of a batch is checked once, where it becomes true.  ``Batch``
checks all of them for any caller: the widths, the owners (inside the
cached ``_ownership`` build, so equal owners are checked on the first
batch only), the deltas and the unit rows.  The trainer's batches come
from ``_trusted_batch``, which skips the checks its caller has already
made: ``Dataset`` checks the owners and deltas of the whole split,
``_epoch_rows`` derives the batch-local owners, which ``_ownership``
checks on a cache miss, and ``train`` checks the norms ``forward`` divided
by.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass, field

import numpy as np

from . import geometry


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.2
    tau: float = 6.0
    lam: float = 0.07
    eps_delta: float = 1e-4
    eps_dist: float = 1e-4
    use_hardest_mining: bool = True

    def __post_init__(self):
        for key, value, ok, kind in (("tau", self.tau, self.tau > 0, "positive"),
                                     ("lambda", self.lam, self.lam >= 0, "non-negative"),
                                     ("eps_delta", self.eps_delta, self.eps_delta > 0, "positive"),
                                     ("eps_dist", self.eps_dist, self.eps_dist > 0, "positive")):
            if not ok:
                raise ValueError(f"{key} must be {kind}, got {value}")
        for key, value in (("alpha", self.alpha), ("tau", self.tau), ("lambda", self.lam),
                           ("eps_delta", self.eps_delta), ("eps_dist", self.eps_dist)):
            if not geometry.is_finite(value):
                raise ValueError(f"{key} must be finite, got {value}")


_Ownership = collections.namedtuple(
    "_Ownership", "same_image same_owner owns texts_of lonely sides order_rows")


@functools.lru_cache(maxsize=32)
def _ownership(owner_bytes: bytes, n_images: int) -> _Ownership:
    """What the losses derive from an owner array alone, shared read-only by
    the trainer's batches of equal-sized images: same_image (see Batch),
    same_owner[j, k] when texts j and k share an image, owns[j, i] when image
    i owns text j and texts_of its transpose (both C-ordered: the layout of
    a mask decides the layout, and so the summation order, of the arrays
    computed with it), lonely the first text whose image owns all texts, or
    -1; for the ordering loss, sides the a text of every same_image row,
    then every b, and order_rows the stacked-gradient rows of its scatter:
    each row's image, then the rows of sides.

    The owners are checked here (``geometry.check_owners``), so an owner
    array is checked once per cache entry; a failed check caches nothing."""
    owners = np.frombuffer(owner_bytes, dtype=np.int64)
    geometry.check_owners(owners, n_images, owners.size)
    same_owner = owners[None, :] == owners[:, None]
    # positions a < b of the owner-sorted texts: rows by image, then a, then b
    order = geometry.texts_by_owner(owners, n_images)[0]
    a, b = np.nonzero(np.triu(same_owner[np.ix_(order, order)], 1))
    a, b = order[a], order[b]
    lonely = np.flatnonzero(same_owner.all(axis=1))
    sides = np.concatenate([a, b])
    owns = owners[:, None] == np.arange(n_images)
    own = _Ownership(np.stack([owners[a], a, b], axis=1), same_owner, owns,
                     np.ascontiguousarray(owns.T), int(lonely[0]) if lonely.size else -1,
                     sides, np.concatenate([owners[a], n_images + sides]))
    for arr in own:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return own


@functools.lru_cache(maxsize=8)
def _element_index(n_rows: int, dim: int) -> np.ndarray:
    index = np.arange(n_rows * dim).reshape(n_rows, dim)
    index.flags.writeable = False
    return index


def _scatter(rows: np.ndarray, vals: np.ndarray, n_rows: int) -> np.ndarray:
    """np.add.at(np.zeros((n_rows, D)), rows, vals), bit for bit."""
    dim = vals.shape[1]
    sums = np.bincount(_element_index(n_rows, dim).take(rows, axis=0).ravel(), vals.ravel(),
                       minlength=n_rows * dim)
    return sums.astype(np.float64, copy=False).reshape(n_rows, dim)  # no rows: int zeros


@dataclass
class Batch:
    """Aligned image/text embeddings with ownership and descriptiveness.

    ``image_embs`` is (n_images, D) and ``text_embs`` (n_texts, D); rows are
    unit vectors (``geometry.check_unit_rows``).  ``image_of_text[j]``
    is the image owning text j; an image may own several texts.  Ownership
    is the only batch structure: every text forms one positive pair with
    its owner for the ranking losses, and ``same_image`` holds the (image,
    a, b) rows with a < b of every two texts sharing an image, ordered by
    image, then a, then b, for the ordering loss; it and the rest of
    ``ownership`` are shared read-only by batches with equal owners.
    ``pair_map`` is a read-only view of the positive pairs, kept for
    readers outside the library that count pairs.
    """

    image_embs: np.ndarray
    text_embs: np.ndarray
    image_of_text: np.ndarray
    deltas: np.ndarray
    same_image: np.ndarray = field(init=False, repr=False)
    ownership: _Ownership = field(init=False, repr=False)

    def __post_init__(self):
        self.image_embs = np.asarray(self.image_embs, dtype=np.float64)
        self.text_embs = np.asarray(self.text_embs, dtype=np.float64)
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        n_img, n_txt = self.image_embs.shape[0], self.text_embs.shape[0]
        if self.image_embs.shape[1] != self.text_embs.shape[1]:
            raise ValueError("image/text embedding dims differ")
        self.image_of_text = np.asarray(self.image_of_text, dtype=np.int64)
        if self.image_of_text.shape != (n_txt,):
            raise ValueError("image_of_text must have one entry per text")
        self.ownership = _ownership(self.image_of_text.tobytes(), n_img)  # checks the owners
        self.same_image = self.ownership.same_image
        if self.deltas.shape != (n_txt,):
            raise ValueError("deltas must have one entry per text")
        if n_txt and not (self.deltas.min() >= 0.0 and self.deltas.max() <= 1.0):
            raise ValueError("deltas must lie in [0, 1]")
        geometry.check_unit_rows("image", self.image_embs)
        geometry.check_unit_rows("text", self.text_embs)

    @property
    def n_images(self) -> int:
        return self.image_embs.shape[0]

    @property
    def n_texts(self) -> int:
        return self.text_embs.shape[0]

    @property
    def pair_map(self) -> list[tuple[int, int]]:
        return [(int(i), j) for j, i in enumerate(self.image_of_text)]


def _trusted_batch(image_embs: np.ndarray, text_embs: np.ndarray, image_of_text: np.ndarray,
                   deltas: np.ndarray) -> Batch:
    """A Batch built without ``Batch``'s checks, for a caller that has fixed
    its facts already: float64 unit rows of equal width, one int64 owner per
    text and float64 deltas in [0, 1].  Only the owners are still checked,
    by ``_ownership`` on a cache miss."""
    batch = object.__new__(Batch)
    batch.image_embs, batch.text_embs = image_embs, text_embs
    batch.image_of_text, batch.deltas = image_of_text, deltas
    batch.ownership = _ownership(image_of_text.tobytes(), image_embs.shape[0])
    batch.same_image = batch.ownership.same_image
    return batch


@dataclass
class LossOutput:
    """A loss value and its gradient ``grad``: the image rows' (n_images of
    them), then the text rows', stacked; ``grad_images`` and ``grad_texts``
    are views of the two parts."""

    value: float
    grad: np.ndarray
    n_images: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def grad_images(self) -> np.ndarray:
        return self.grad[:self.n_images]

    @property
    def grad_texts(self) -> np.ndarray:
        return self.grad[self.n_images:]


def hardest_negatives(sims: np.ndarray,
                      image_of_text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per text, the most-similar admissible negative text and image of
    its positive pair with its owner.

    Texts owned by the pair's image are excluded from the text-negative
    candidates (multi-caption batches); the pair's own image is excluded on
    the image side.  Ties break toward the lowest index (argmax keeps the
    first maximum).  Both come from one masked copy of ``sims``: the texts
    of an image share its row of candidates, so each image's row is mined
    once and taken by its texts, and each text's column holds its image
    candidates.
    """
    sims = np.asarray(sims, dtype=np.float64)
    owners = np.asarray(image_of_text, dtype=np.int64)
    n_img = sims.shape[0]
    if n_img < 2:  # and when every text shares one owner, no negative text either
        side = "text" if (owners == owners[0]).all() else "image"
        raise ValueError(f"pair ({owners[0]}, 0) has no admissible negative {side}")
    own = _ownership(owners.tobytes(), n_img)
    if own.lonely >= 0:
        raise ValueError(f"pair ({owners[own.lonely]}, {own.lonely}) has no admissible "
                         "negative text")
    masked = np.where(own.texts_of, -np.inf, sims)
    return masked.argmax(axis=1).take(owners), masked.argmax(axis=0)


def adaptive_margins(delta_t, delta_tneg, tau: float):
    """Margins from descriptiveness sums: the text-side margin couples the
    positive and negative sentences; the image-side margin doubles the
    positive sentence's score, exactly as formulated.  Works elementwise
    on broadcastable arrays."""
    return (delta_t + delta_tneg) / tau, (delta_t + delta_t) / tau


def _ranking_loss(batch: Batch, config: LossConfig, adaptive: bool) -> LossOutput:
    """Shared hinge-ranking core.

    With mining on, each pair contributes two hinges against its hardest
    negatives.  With mining off (warm-up), the hardest negative is replaced
    by the mean of the per-negative hinge terms over all admissible
    negatives, each with its own margin in the adaptive case.
    """
    imgs, txts = batch.image_embs, batch.text_embs
    deltas = batch.deltas
    own = batch.ownership
    n_img, n_txt = batch.n_images, batch.n_texts
    sims = imgs @ txts.T
    p_i, p_j = batch.image_of_text, np.arange(n_txt)
    s_pos = sims[p_i, p_j]

    if config.use_hardest_mining:
        t_neg, v_neg = hardest_negatives(sims, p_i)
        if adaptive:
            a_i2t, a_t2i = adaptive_margins(deltas, deltas[t_neg], config.tau)
        else:
            a_i2t = a_t2i = np.full(n_txt, config.alpha)
        h1 = a_i2t - s_pos + sims[p_i, t_neg]
        h2 = a_t2i - s_pos + sims[v_neg, p_j]
        on1 = h1 > 0.0
        on2 = h2 > 0.0
        value = float(h1[on1].sum()) + float(h2[on2].sum())
        # the six add.at calls of the per-hinge form as one scatter, in call order
        j1, j2 = np.flatnonzero(on1), np.flatnonzero(on2)
        i1, i2, tn, vn = p_i.take(j1), p_i.take(j2), t_neg.take(j1), v_neg.take(j2)
        v1, t1, t2 = imgs.take(i1, axis=0), txts.take(j1, axis=0), txts.take(j2, axis=0)
        grads = _scatter(np.concatenate([i1, n_img + j1, n_img + tn, i2, vn, n_img + j2]),
                         np.concatenate([txts.take(tn, axis=0) - t1, -v1, v1, -t2, t2,
                                         imgs.take(vn, axis=0) - imgs.take(i2, axis=0)]),
                         n_img + n_txt)
        return LossOutput(value, grads, n_img,
                          {"triplet": value, "ordering": 0.0, "active_hinges": j1.size + j2.size})

    if own.lonely >= 0 or n_img < 2:
        bad = max(own.lonely, 0)
        raise ValueError(f"pair ({p_i[bad]}, {bad}) has no admissible negative")
    allowed_t = ~own.same_owner
    n1 = allowed_t.sum(axis=1)
    if adaptive:
        margins_t, a_t2i = adaptive_margins(deltas[:, None], deltas[None, :], config.tau)
    else:
        margins_t = np.full((n_txt, n_txt), config.alpha)
        a_t2i = np.full((n_txt, 1), config.alpha)
    h1 = margins_t - s_pos[:, None] + sims[p_i]
    act1 = (h1 > 0.0) & allowed_t
    value = float(np.sum(np.sum(h1 * act1, axis=1) / n1))
    c1 = act1.sum(axis=1)

    n2 = n_img - 1
    h2 = a_t2i - s_pos[:, None] + sims.T
    act2 = (h2 > 0.0) & ~own.owns
    value += float(np.sum(np.sum(h2 * act2, axis=1) / n2))
    c2 = act2.sum(axis=1)
    img_of = imgs[p_i]
    # the add.at calls onto zeros as one scatter, those over p_j (each text once) as +=
    grads = _scatter(np.concatenate([p_i, n_img + p_j]),
                     np.concatenate([(act1 @ txts - c1[:, None] * txts) / n1[:, None],
                                     -(c1 / n1)[:, None] * img_of]), n_img + n_txt)
    grad_i, grad_t = grads[:n_img], grads[n_img:]
    grad_t += (act1 / n1[:, None]).T @ img_of
    grad_i += act2.T @ (txts / n2)
    np.add.at(grad_i, p_i, -(c2 / n2)[:, None] * txts)
    grad_t += (act2 @ imgs - c2[:, None] * img_of) / n2
    active = int(act1.sum()) + int(act2.sum())
    return LossOutput(value, grads, n_img,
                      {"triplet": value, "ordering": 0.0, "active_hinges": active})


def triplet_loss(batch: Batch, config: LossConfig) -> LossOutput:
    """Hinge ranking loss with a fixed margin."""
    return _ranking_loss(batch, config, adaptive=False)


def adaptive_triplet_loss(batch: Batch, config: LossConfig) -> LossOutput:
    """Hinge ranking loss whose margins scale with sentence descriptiveness."""
    return _ranking_loss(batch, config, adaptive=True)


def ordering_loss(batch: Batch, config: LossConfig) -> LossOutput:
    """Squared log-ratio penalty tying image-text distance ratios to the
    inverse ratio of sentence descriptiveness.

    Distances and descriptiveness values are clamped below before the
    ratios (a clamped quantity contributes no gradient); images owning a
    single batch text contribute nothing.
    """
    own = batch.ownership
    n = len(own.same_image)
    # the a text of every pair, then every b; a side's image - text is its text's row
    sides = own.sides
    diff = batch.image_embs.take(batch.image_of_text, axis=0) - batch.text_embs
    raw = np.sqrt(np.add.reduce(diff * diff, axis=1)).take(sides)
    dist = np.maximum(raw, config.eps_dist)
    desc = np.maximum(batch.deltas.take(sides), config.eps_delta)
    args = np.log(dist[:n] / dist[n:]) - np.log(desc[n:] / desc[:n])
    value = float((args * args).sum())
    coef = np.where(raw > config.eps_dist, np.concatenate([2.0 * args] * 2) / (dist * dist), 0.0)
    g = coef[:, None] * diff.take(sides, axis=0)  # g_a rows, then g_b rows
    grads = _scatter(own.order_rows, np.concatenate([g[:n] - g[n:], -g[:n], g[n:]]),
                     batch.n_images + batch.n_texts)
    return LossOutput(value, grads, batch.n_images,
                      {"triplet": 0.0, "ordering": value, "active_hinges": 0,
                       "ordering_pairs": n})


def overall_loss(batch: Batch, config: LossConfig) -> LossOutput:
    """Adaptive ranking plus lam times the ordering penalty."""
    ada = adaptive_triplet_loss(batch, config)
    order = ordering_loss(batch, config)
    return LossOutput(
        ada.value + config.lam * order.value,
        ada.grad + config.lam * order.grad,
        ada.n_images,
        {"triplet": ada.value, "ordering": order.value,
         "active_hinges": ada.diagnostics["active_hinges"],
         "ordering_pairs": order.diagnostics["ordering_pairs"]},
    )


# ---------------------------------------------------------------------------
# Finite-difference oracle and the gradient-check suite


def finite_diff_grad(loss_fn, batch: Batch, h: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of loss_fn(batch).value per embedding coordinate.

    Perturbations are applied directly to the stored embeddings, without
    re-normalization, matching the domain of the analytic gradients.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    grads = []
    for embs in (batch.image_embs, batch.text_embs):
        grad = np.zeros_like(embs)
        for idx in np.ndindex(embs.shape):
            orig = embs[idx]
            embs[idx] = orig + h
            f_plus = loss_fn(batch).value
            embs[idx] = orig - h
            f_minus = loss_fn(batch).value
            embs[idx] = orig
            grad[idx] = (f_plus - f_minus) / (2.0 * h)
        grads.append(grad)
    return grads[0], grads[1]


def grad_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Frobenius-norm relative error; both-near-zero counts as agreement
    (finite differences of an identically-zero gradient are pure noise)."""
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)))
    if denom < 1e-7:
        return 0.0
    return float(np.linalg.norm(analytic - numeric)) / denom


def random_batch(rng: np.random.Generator, n_images: int = 8, n_texts: int = 8,
                 dim: int = 16) -> Batch:
    """Random unit embeddings with every image owning at least one text."""
    if n_texts < n_images:
        raise ValueError("need at least one text per image")
    imgs = rng.normal(size=(n_images, dim))
    imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
    txts = rng.normal(size=(n_texts, dim))
    txts /= np.linalg.norm(txts, axis=1, keepdims=True)
    owners = np.concatenate([np.arange(n_images),
                             rng.integers(0, n_images, size=n_texts - n_images)])
    deltas = rng.uniform(0.05, 1.0, size=n_texts)
    return Batch(imgs, txts, owners, deltas)


def kink_gap(batch: Batch, config: LossConfig) -> float:
    """Distance from the nearest non-smooth point of the checked losses:
    hinge arguments at zero (fixed and adaptive margins, both mining
    modes), argmax ties in mining, and ordering distances at the clamp.
    Each text has one row of negatives, NaN marking the excluded ones."""
    sims = batch.image_embs @ batch.text_embs.T
    owners, own = batch.image_of_text, batch.ownership
    t_neg = np.where(own.same_owner, np.nan, sims[owners])
    i_neg = np.where(own.owns, np.nan, sims.T)
    # a text with no negative text (every text of a one-image batch) has no hinges
    skip = np.isnan(t_neg).all(axis=1)
    t_neg[skip] = i_neg[skip] = np.nan
    margins_t, a_t2i = adaptive_margins(batch.deltas[:, None], batch.deltas, config.tau)
    pos = sims[owners, np.arange(batch.n_texts)][:, None]
    gaps = [np.abs(margin - pos + neg) for margin, neg in (
        (config.alpha, t_neg), (config.alpha, i_neg), (margins_t, t_neg), (a_t2i, i_neg))]
    # top-2 gap of each row, sorted descending with NaN last
    gaps += [np.diff(np.sort(-neg, axis=1)[:, :2]) for neg in (t_neg, i_neg)]
    paired = batch.same_image[:, 1:].ravel()
    dists = geometry.euclid_dists(batch.image_embs[owners[paired]], batch.text_embs[paired])
    gaps = np.concatenate([g.ravel() for g in gaps + [np.abs(dists - config.eps_dist)]])
    return float(np.min(gaps[~np.isnan(gaps)], initial=np.inf))


_CHECKED_LOSSES = (
    ("triplet/mined", triplet_loss, True),
    ("triplet/mean", triplet_loss, False),
    ("adaptive/mined", adaptive_triplet_loss, True),
    ("adaptive/mean", adaptive_triplet_loss, False),
    ("ordering", ordering_loss, True),
    ("overall", overall_loss, True),
)


def run_gradcheck(seed: int = 0, trials: int = 20, h: float = 1e-5,
                  tol: float = 1e-4) -> dict:
    """Compare analytic gradients against central differences on random
    8-image, 16-text batches of dimension 16, skipping kink-adjacent draws.

    Returns {"passed", "trials": [per-trial records]}.  A ``trials`` below
    1 and an ``h`` (the CLI's ``step``) or ``tol`` that is not positive
    raise ValueError before any batch is drawn: no audit passes a
    ``tol`` of 0 or below.
    """
    for key, value, ok, kind in (("trials", trials, trials >= 1, "at least 1"),
                                 ("step", h, h > 0, "positive"), ("tol", tol, tol > 0, "positive")):
        if not ok:
            raise ValueError(f"{key} must be {kind}, got {value}")
    rng = np.random.default_rng(seed)
    base = LossConfig()
    records = []
    for trial in range(trials):
        for _ in range(200):
            batch = random_batch(rng, n_images=8, n_texts=16, dim=16)
            if kink_gap(batch, base) > 10.0 * h:
                break
        else:
            raise RuntimeError("could not draw a kink-free batch")
        for name, fn, mining in _CHECKED_LOSSES:
            config = LossConfig(use_hardest_mining=mining)
            out = fn(batch, config)
            fd_i, fd_t = finite_diff_grad(lambda b: fn(b, config), batch, h=h)
            err = max(grad_rel_error(out.grad_images, fd_i),
                      grad_rel_error(out.grad_texts, fd_t))
            records.append({"trial": trial, "loss": name, "rel_err": err, "passed": err < tol})
    return {"passed": all(r["passed"] for r in records), "trials": records}

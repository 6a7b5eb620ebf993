"""Shared-embedding trainer over precomputed image and sentence features.

The model is one linear projection per modality followed by L2
normalization.  Both projections of a batch land in one stacked array,
image rows first, then text rows, normalized in one pass; the image and
text embeddings are views of it.  Backpropagation is hand-written: the
losses return one stacked gradient with respect to those normalized rows,
and the chain rule through row normalization, g_z = (g_e - (g_e . e) e) /
||z||, runs once over the stack before each modality's weight and bias
gradients are taken from its rows.  Every step is row-wise or
elementwise, so the stack gives the bits of one pass per modality.
Updates use AdamW with decoupled weight decay (biases excluded), one
in-place elementwise pass over flat buffers whose views are the named
arrays: the bits of a loop over the arrays, in the same operation order,
the decay one factor on the weights, which lead the sorted names.
backward always writes the gradients into views of the optimiser's flat
gradient buffer, which adamw_step reads.

Each fact of a training batch is checked once, where it becomes true:
``Dataset`` checks the split's owners and deltas; ``losses._ownership``
checks the batch-local owners that ``_epoch_rows`` derives, once per
distinct owner array; and ``train`` checks the norms that ``forward``
divided by, one min and one max per batch, so that every row is a unit
vector.  A row that fails raises ``geometry.check_unit_rows``'s message
prefixed by the epoch and the batch.  ``losses._trusted_batch`` then
builds each Batch without re-checking these facts; ``Batch`` itself keeps
every check for other callers.

Checkpoints are a single binary file: an 8-byte magic, a little-endian
uint64 header length, a sorted-keys JSON header describing the arrays and
carrying config, history, and the batch-shuffle rng state, then the raw
float64 array bytes in header order.  Equal runs produce equal bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, geometry
# train's batches are Batch instances built by _trusted_batch; the traced
# benchmark still times Batch under this module's name
from .losses import (Batch, LossConfig, _trusted_batch, adaptive_triplet_loss, overall_loss,
                     triplet_loss)

_CKPT_MAGIC = b"DMCK0001"
# header fields besides "arrays", with their JSON types
_CKPT_FIELDS = {"epoch": int, "adam_t": int, "rng_state": dict, "config": dict,
                "history": list}
_CKPT_FIELD_KINDS = {int: "a non-negative integer", dict: "an object", list: "a list"}
_PARAM_NAMES = ("W_img", "b_img", "W_txt", "b_txt")

# ablation variants: fixed-margin ranking, descriptiveness-scaled margins,
# and the full objective with the ordering penalty
LOSS_VARIANTS = {
    "baseline": triplet_loss,
    "adaptive": adaptive_triplet_loss,
    "full": overall_loss,
}


@dataclass(frozen=True)
class TrainConfig:
    embed_dim: int = 64
    batch_size: int = 128
    epochs: int = 25
    lr: float = 5e-4
    weight_decay: float = 1e-4
    warmup_epochs: int = 2
    decay_epoch: int = 15
    decay_factor: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    variant: str = "full"
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        for name, least in (("embed_dim", 1), ("batch_size", 2), ("epochs", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not self.lr > 0:  # NaN included
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("lr", "weight_decay", "decay_factor", "beta1", "beta2", "adam_eps"):
            if not geometry.is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")


@dataclass
class Dataset:
    """Feature-level view of one corpus split, ready for batching.  Its
    owners and its deltas, float64 in [0, 1], are checked here, once for
    every batch that train draws from it."""

    image_ids: list[str]
    image_feats: np.ndarray
    text_ids: list[str]
    text_feats: np.ndarray
    image_of_text: np.ndarray
    deltas: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        n_img, n_txt = len(self.image_ids), len(self.text_ids)
        if self.image_feats.shape[0] != n_img or self.text_feats.shape[0] != n_txt:
            raise ValueError("feature row counts disagree with id lists")
        self.image_of_text = geometry.check_owners(self.image_of_text, n_img, n_txt)
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        for arr, name in ((self.deltas, "deltas"), (self.levels, "levels")):
            if arr.shape != (n_txt,):
                raise ValueError(f"{name} must have one entry per text")
        if n_txt and not (self.deltas.min() >= 0.0 and self.deltas.max() <= 1.0):
            k = np.flatnonzero(~((self.deltas >= 0.0) & (self.deltas <= 1.0)))[0]
            raise ValueError(f"text {self.text_ids[k]!r} has delta {self.deltas[k]}, "
                             "outside [0, 1]")

    @property
    def n_images(self) -> int:
        return len(self.image_ids)

    @property
    def n_texts(self) -> int:
        return len(self.text_ids)

    @functools.cached_property
    def text_counts(self) -> np.ndarray:
        return np.bincount(self.image_of_text, minlength=self.n_images)


def load_dataset(corpus_path, table_path, image_features_path,
                 text_features_path, split: str | None = None) -> Dataset:
    """`load_splits` with no validation split: the dataset of one split,
    or of every sentence when ``split`` is None."""
    return load_splits(corpus_path, table_path, image_features_path, text_features_path, split)[0]


def load_splits(corpus_path, table_path, image_features_path, text_features_path,
                split: str | None = None,
                val_split: str = "none") -> tuple[Dataset, Dataset | None]:
    """The datasets of a training split and of its validation split,
    joined from one read of each input file: a corpus file, its
    descriptiveness table, and the image and text feature manifests.

    ``split`` None keeps every sentence.  ``val_split`` is "none" (no
    validation dataset), "auto" ("val" when the corpus holds a val
    sentence and ``split`` is not "val", else none) or a split name.  A
    split without sentences raises ValueError naming it and the corpus,
    the training split first, before the table and features are read.

    Every kept sentence must have a text row, an image row for its owner
    and a table entry; the first record in corpus order that lacks one,
    checked in that order, the training split's records before the
    validation split's, raises ValueError naming the file that lacks it
    and the corpus.  The rows and deltas are looked up with one
    ``dict.get`` pass per column; only a lookup that finds nothing starts
    the scan in corpus order.  Images are ordered by first appearance
    among the split's sentences.

    Memory: the corpus texts are released before the table is read, the
    table, once each split's deltas are looked up (None where it lacks a
    sentence), before either feature file is read, and the image features,
    once each split's rows are gathered (when the file holds them all),
    before the text features are read; the scan reads those deltas and the
    image ids, so the error order is the same.
    """
    corpus = corpus_mod.read_corpus_columns(corpus_path)
    if val_split == "auto":
        val_split = "val" if split != "val" and "val" in corpus.splits else "none"
    columns = []  # the id, image id and level columns of each split
    for s in [split] if val_split == "none" else [split, val_split]:
        kept = None if s is None else [x == s for x in corpus.splits]
        columns.append([c if kept is None else list(compress(c, kept))
                        for c in (corpus.ids, corpus.image_ids, corpus.levels)])
        if not columns[-1][0]:
            raise ValueError(f"no sentences for split {s!r} in {corpus_path}")
    del corpus  # its texts are not needed while the table and features load
    scores = corpus_mod.read_table_jsonl(table_path).scores
    for c in columns:  # each split's deltas, None where the table lacks the sentence
        c.append(list(map(scores.get, c[0])))
    del scores  # the table is not needed while the features load
    img_ids, img_feats = geometry.read_features(image_features_path)
    img_row = {i: k for k, i in enumerate(img_ids)}
    for c in columns:  # each split's images and their feature rows, gathered when all are found
        c.append(list(dict.fromkeys(c[1])))
        rows = list(map(img_row.get, c[-1]))
        c.append(rows if None in rows else _feature_rows(img_feats, rows))
    del img_feats  # a split that lacks an image row fails the scan
    txt_ids, txt_feats = geometry.read_features(text_features_path)
    txt_row = {i: k for k, i in enumerate(txt_ids)}

    def join(ids: list[str], owner_ids: list[str], levels: list, deltas: list,
             image_ids: list[str], image_feats) -> Dataset:
        text_rows = list(map(txt_row.get, ids))
        if None in text_rows or isinstance(image_feats, list) or None in deltas:
            for sid, iid, delta in zip(ids, owner_ids, deltas):
                for path, lacks, kind, key in (
                        (text_features_path, sid not in txt_row, "sentence", sid),
                        (image_features_path, iid not in img_row, "image", iid),
                        (table_path, delta is None, "sentence", sid)):
                    if lacks:
                        raise ValueError(f"{path}: lacks {kind} {key!r} of {corpus_path}")
        image_index = {iid: k for k, iid in enumerate(image_ids)}
        return Dataset(
            image_ids=image_ids,
            image_feats=image_feats,
            text_ids=ids,
            text_feats=_feature_rows(txt_feats, text_rows),
            image_of_text=np.array(list(map(image_index.__getitem__, owner_ids)), dtype=np.int64),
            deltas=np.array(deltas, dtype=np.float64),
            levels=np.array([-1 if lv is None else lv for lv in levels], dtype=np.int64),
        )

    return join(*columns[0]), join(*columns[1]) if len(columns) > 1 else None


def _feature_rows(feats: np.ndarray, rows: list[int]) -> np.ndarray:
    """feats[rows] as a C-contiguous array: ``feats`` itself when the rows
    are all of its rows in order (as `read_features` returns it, C-contiguous),
    else a gathered copy, which holds none of ``feats``'s buffer."""
    if len(rows) == feats.shape[0] and all(map(int.__eq__, rows, range(len(rows)))):
        return feats
    return feats[np.array(rows, dtype=np.int64)]


# ---------------------------------------------------------------------------
# Model: per-modality linear projection, then row normalization


def init_params(rng: np.random.Generator, d_img: int, d_txt: int,
                d_out: int) -> dict[str, np.ndarray]:
    return {
        "W_img": rng.normal(0.0, 1.0 / math.sqrt(d_img), size=(d_img, d_out)),
        "b_img": np.zeros(d_out),
        "W_txt": rng.normal(0.0, 1.0 / math.sqrt(d_txt), size=(d_txt, d_out)),
        "b_txt": np.zeros(d_out),
    }


def forward(params: dict, img_feats: np.ndarray, txt_feats: np.ndarray):
    """Project both modalities onto the shared unit sphere.

    Returns (image_embs, text_embs, cache): the embeddings are the image
    and text rows of one stacked array, which cache holds for backward.
    """
    n_img = img_feats.shape[0]
    e = np.empty((n_img + txt_feats.shape[0], params["W_img"].shape[1]))
    np.matmul(img_feats, params["W_img"], out=e[:n_img])
    np.matmul(txt_feats, params["W_txt"], out=e[n_img:])
    e[:n_img] += params["b_img"]
    e[n_img:] += params["b_txt"]
    # np.linalg.norm(e, axis=1, keepdims=True), expression for expression
    norms = np.maximum(np.sqrt(np.add.reduce(e * e, axis=1, keepdims=True)), geometry.NORM_FLOOR)
    e /= norms
    cache = {"img_feats": img_feats, "txt_feats": txt_feats, "e": e, "norms": norms}
    return e[:n_img], e[n_img:], cache


def _norm_backward(g_e: np.ndarray, e: np.ndarray, norms: np.ndarray) -> np.ndarray:
    dots = np.add.reduce(g_e * e, axis=1, keepdims=True)
    return (g_e - dots * e) / norms


def backward(cache: dict, grad: np.ndarray, out: dict) -> None:
    """Gradients of the loss with respect to the projection parameters,
    given its gradient with respect to forward's stacked embeddings,
    written into ``out``: an optimiser state's "grads", float64 arrays of
    the parameters' shapes by name."""
    img_feats, txt_feats = cache["img_feats"], cache["txt_feats"]
    n_img = img_feats.shape[0]
    g_z = _norm_backward(grad, cache["e"], cache["norms"])
    g_zi, g_zt = g_z[:n_img], g_z[n_img:]
    np.matmul(img_feats.T, g_zi, out=out["W_img"])
    np.add.reduce(g_zi, axis=0, out=out["b_img"])
    np.matmul(txt_feats.T, g_zt, out=out["W_txt"])
    np.add.reduce(g_zt, axis=0, out=out["b_txt"])


# ---------------------------------------------------------------------------
# AdamW


def _opt_state(params: dict, m: dict, v: dict, t: int) -> dict:
    """AdamW state over one flat buffer each for the parameters and the two
    moments, in sorted-name order (W_img, W_txt, b_img, b_txt); the dicts
    are rebound to views into them.  "work" holds adamw_step's three
    temporaries, the first the flat gradient, and "grads" views of it by
    parameter name, for backward to write into."""
    names = sorted(params)
    cuts = np.cumsum([params[k].size for k in names])[:-1]
    flats = []
    for arrays in (params, m, v):
        flats.append(np.concatenate([arrays[k] for k in names], axis=None, dtype=np.float64))
        arrays.update([(k, part.reshape(arrays[k].shape))
                       for k, part in zip(names, np.split(flats[-1], cuts))])
    work = np.empty((3, flats[0].size))
    grads = {k: part.reshape(params[k].shape) for k, part in zip(names, np.split(work[0], cuts))}
    return {"t": t, "m": m, "v": v, "flat": tuple(flats), "work": work, "grads": grads}


def init_opt_state(params: dict) -> dict:
    return _opt_state(params, {k: np.zeros_like(v) for k, v in params.items()},
                      {k: np.zeros_like(v) for k, v in params.items()}, 0)


def adamw_step(params: dict, state: dict, lr: float, config: TrainConfig) -> None:
    """One in-place pass over init_opt_state's buffers, with the gradient
    that backward wrote into the state's "grads": decay on weights only,
    then Adam.  Each product and quotient keeps the operation order of the
    plain form, (1 - b2) * g * g and lr * m_hat / (sqrt(v_hat) + eps), so
    the bits are the same."""
    flat_p, m, v = state["flat"]
    if any(params[k].base is not flat_p for k in params):
        raise ValueError("params are not the arrays laid out by init_opt_state")
    g, step, denom = state["work"]
    state["t"] += 1
    t = state["t"]
    b1, b2 = config.beta1, config.beta2
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    np.multiply(g, 1.0 - b2, out=step)
    step *= g
    v += step
    np.divide(v, 1.0 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += config.adam_eps
    np.divide(m, 1.0 - b1 ** t, out=step)
    step *= lr
    step /= denom
    # the weights lead the sorted names
    flat_p[:params["W_img"].size + params["W_txt"].size] *= 1.0 - lr * config.weight_decay
    flat_p -= step


# ---------------------------------------------------------------------------
# Batching


def epoch_plan(rng: np.random.Generator, dataset: Dataset,
               batch_size: int) -> list[tuple[list[int], np.ndarray]]:
    """Shuffle images and pack whole images until a batch holds at least
    batch_size texts.  Images keep all their texts together, each image's
    in ascending index, so same-image pairs for the ordering loss are
    never split.  A trailing single-image batch is merged into its
    predecessor: mining needs two images.
    """
    order, bounds = geometry.texts_by_owner(dataset.image_of_text, dataset.n_images)
    sizes = np.diff(bounds)
    images = rng.permutation(dataset.n_images)
    images = images[sizes[images] > 0]
    # held[k]: texts of the first k shuffled images; a batch that starts
    # after image lo ends at the first image where it holds batch_size texts
    held = np.concatenate([[0], np.cumsum(sizes[images])])
    cuts = [0]
    while cuts[-1] < len(images):
        cuts.append(min(int(np.searchsorted(held, held[cuts[-1]] + max(batch_size, 1))),
                        len(images)))
    if len(cuts) > 2 and cuts[-1] - cuts[-2] < 2:
        del cuts[-2]
    if len(cuts) < 2 or cuts[1] < 2:
        raise ValueError("dataset too small: every batch needs at least two images")
    # every image's texts in shuffled order, each image's ascending
    texts = order[np.arange(held[-1]) + np.repeat(bounds[images] - held[:-1], sizes[images])]
    images = images.tolist()
    return [(images[lo:hi], texts[held[lo]:held[hi]]) for lo, hi in zip(cuts, cuts[1:])]


def _epoch_rows(dataset: Dataset, plan: list[tuple[list[int], np.ndarray]]) -> list[tuple]:
    """Per batch of the plan: its image and text feature rows, its
    batch-local owners and its deltas, as views of one gather per epoch.
    epoch_plan packs each image's texts together in image order, so an
    image's local owner index is its position in its batch."""
    images = [i for imgs, _ in plan for i in imgs]
    texts = np.concatenate([txts for _, txts in plan])
    img_cuts = np.cumsum([0] + [len(imgs) for imgs, _ in plan])
    txt_cuts = np.cumsum([0] + [len(txts) for _, txts in plan])
    local = np.arange(len(images)) - np.repeat(img_cuts[:-1], np.diff(img_cuts))
    owners = np.repeat(local, dataset.text_counts[images])
    img_feats, txt_feats = dataset.image_feats[images], dataset.text_feats[texts]
    deltas = dataset.deltas[texts]
    return [(img_feats[a:b], txt_feats[c:d], owners[c:d], deltas[c:d])
            for a, b, c, d in zip(img_cuts, img_cuts[1:], txt_cuts, txt_cuts[1:])]


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, params: dict, opt_state: dict, epoch: int,
                    rng: np.random.Generator, config: TrainConfig,
                    history: list[dict]) -> None:
    arrays: list[tuple[str, np.ndarray]] = []
    for name in sorted(params):
        arrays.append((f"param/{name}", params[name]))
    for slot in ("m", "v"):
        for name in sorted(opt_state[slot]):
            arrays.append((f"adam_{slot}/{name}", opt_state[slot][name]))
    header = {
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "epoch": epoch,
        "adam_t": opt_state["t"],
        "rng_state": rng.bit_generator.state,
        "config": dataclasses.asdict(config),
        "history": history,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # written beside the target and renamed over it, so a crash mid-write
    # leaves the previous checkpoint whole
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, a in arrays:
                fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path, config: TrainConfig | None = None) -> dict:
    """Read a checkpoint and decide whether a run may start from it.

    Returns {"params", "opt_state", "epoch", "rng", "config", "history"},
    where "rng" is the batch-shuffle generator restored from the saved
    state and "params" are views into "opt_state"'s flat buffers, which
    `train(..., resume_from=...)` goes on updating in place.

    A file whose length disagrees with its header (truncated or with
    trailing bytes), a header field of the wrong type and a missing header
    field or parameter array raise ValueError naming the path.  Given the
    ``config`` of a run that resumes from it, a saved config that differs
    in any key but ``epochs`` raises next, naming the first such key.  An
    array of the wrong shape raises next, naming it: W_img must be
    (d_img, e), W_txt (d_txt, e), b_img and b_txt (e,), with e the
    ``config``'s ``embed_dim`` if given, and each moment its parameter's
    shape.  An rng state that cannot be restored raises next, and a
    parameter or moment array holding NaN or inf raises last, naming the
    array."""
    data = Path(path).read_bytes()
    if data[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    start = len(_CKPT_MAGIC) + 8
    if len(data) < start:
        raise ValueError(f"{path}: truncated checkpoint (no header length)")
    (blob_len,) = struct.unpack_from("<Q", data, len(_CKPT_MAGIC))
    if len(data) < start + blob_len:
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[start:start + blob_len].decode("utf-8"))
        shapes = [(e["name"], e["shape"]) for e in header["arrays"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc}") from exc
    for name, shape in shapes:
        if type(name) is not str or type(shape) is not list \
                or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{path}: malformed checkpoint header: array entry "
                             f"{json.dumps(name)} with shape {json.dumps(shape)}")
    for key, type_ in _CKPT_FIELDS.items():
        if key not in header:
            raise ValueError(f"{path}: checkpoint header lacks {key!r}")
        if type(header[key]) is not type_ or (type_ is int and header[key] < 0):
            raise ValueError(f"{path}: checkpoint header {key!r} must be "
                             f"{_CKPT_FIELD_KINDS[type_]}, got {json.dumps(header[key])}")
    names = [name for name, _ in shapes]
    for slot in ("param", "adam_m", "adam_v"):
        for name in _PARAM_NAMES:
            if f"{slot}/{name}" not in names:
                raise ValueError(f"{path}: checkpoint lacks the array '{slot}/{name}'")
    offset = start + blob_len
    want = offset + 8 * sum(math.prod(shape) for _, shape in shapes)
    if len(data) != want:
        raise ValueError(f"{path}: checkpoint holds {len(data)} bytes, its header "
                         f"describes {want}")
    if config is not None:
        recipe, have = dataclasses.asdict(config), dict(header["config"])
        # epochs is the run target, not part of the training recipe, so a
        # resumed run may extend it
        recipe.pop("epochs"), have.pop("epochs", None)
        if have != recipe:
            key = next(k for k in [*recipe, *have] if recipe.get(k) != have.get(k))
            raise ValueError(f"{path}: resume config disagrees with checkpoint "
                             f"config at {key!r}")
    shape_of = dict(shapes)
    w_img = shape_of["param/W_img"]
    embed = config.embed_dim if config is not None else w_img[1] if len(w_img) == 2 else None
    for name in _PARAM_NAMES:
        have = shape_of[f"param/{name}"]
        want = have[:1] + [embed] if name[0] == "W" else [embed]
        for slot in ("param", "adam_m", "adam_v"):
            if shape_of[f"{slot}/{name}"] != want:
                raise ValueError(f"{path}: checkpoint array '{slot}/{name}' has shape "
                                 f"{shape_of[f'{slot}/{name}']}, not "
                                 f"{'(d_img, e)' if embed is None else want}")
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = header["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: bad rng_state in checkpoint: {exc!r}") from exc
    out: dict[str, np.ndarray] = {}
    for name, shape in shapes:
        count = math.prod(shape)
        out[name] = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    params, m, v = ({name: out[f"{slot}/{name}"] for name in _PARAM_NAMES}
                    for slot in ("param", "adam_m", "adam_v"))
    for slot, arrays in (("param", params), ("adam_m", m), ("adam_v", v)):
        for name in _PARAM_NAMES:
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{path}: checkpoint array '{slot}/{name}' "
                                 f"holds NaN or inf")
    opt_state = _opt_state(params, m, v, header["adam_t"])
    return {"params": params, "opt_state": opt_state, "epoch": header["epoch"],
            "rng": rng, "config": header["config"], "history": header["history"]}


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainResult:
    params: dict
    history: list[dict]


def embed_dataset(params: dict, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    img_e, txt_e, _ = forward(params, dataset.image_feats, dataset.text_feats)
    return img_e, txt_e


def _val_rsum(params: dict, dataset: Dataset) -> float:
    img_e, txt_e = embed_dataset(params, dataset)
    return evaluation.embedding_rsum(img_e, txt_e, dataset.image_of_text)


def _check_rows(norms: np.ndarray, img_e: np.ndarray, txt_e: np.ndarray, epoch: int,
                batch: int) -> None:
    """The one check that a training batch's rows are unit vectors: every
    norm forward divided by is finite and above the floor.  Only when one
    is not are the rows themselves checked, raising
    ``geometry.check_unit_rows``'s message prefixed by the epoch and batch."""
    if norms.min() > geometry.NORM_FLOOR and norms.max() < np.inf:
        return
    try:
        geometry.check_unit_rows("image", img_e)
        geometry.check_unit_rows("text", txt_e)
    except ValueError as exc:
        raise ValueError(f"epoch {epoch}, batch {batch}: {exc}") from None


def train(dataset: Dataset, config: TrainConfig, val_dataset: Dataset | None = None,
          checkpoint_path=None, resume_from: dict | None = None, log_fn=None) -> TrainResult:
    """Full training run.  Logs one record per epoch with the mean batch
    loss, its two components, the epoch lr, and RSUM on val_dataset (the
    training set stands in when it is None); `load_splits` gives both
    datasets from one read of the inputs.

    With checkpoint_path set the state is rewritten after every epoch, so
    an interrupted run can resume: resume_from takes that checkpoint as
    `load_checkpoint(path, config)` returns it, already checked against
    this run's config, and continues its params, optimiser state, rng and
    history from the epoch after its own.  The caller checks that the
    dataset's feature widths fit its params.  A diverged run stops at the
    first batch, or validation, whose embedding rows do not normalize
    (ValueError) or whose loss is not finite (RuntimeError), naming the
    epoch and the batch; numpy's floating-point warnings are off meanwhile.
    """
    if dataset.n_images < 2:
        raise ValueError("training needs at least two images")
    if resume_from is None:  # a fresh run starts as from a checkpoint of epoch -1
        params = init_params(np.random.default_rng([config.seed, 2]), dataset.image_feats.shape[1],
                             dataset.text_feats.shape[1], config.embed_dim)
        resume_from = {"params": params, "opt_state": init_opt_state(params), "history": [],
                       "epoch": -1, "rng": np.random.default_rng([config.seed, 3])}
    params, opt_state = resume_from["params"], resume_from["opt_state"]
    history = list(resume_from["history"])
    start_epoch, shuffle_rng = resume_from["epoch"] + 1, resume_from["rng"]

    eval_set = val_dataset if val_dataset is not None else dataset
    loss_fn = LOSS_VARIANTS[config.variant]
    # a diverged run raises below, naming its epoch and batch, with numpy's
    # floating-point warnings kept off stderr
    with np.errstate(all="ignore"):
        for epoch in range(start_epoch, config.epochs):
            lr = config.lr * (config.decay_factor if epoch >= config.decay_epoch else 1.0)
            mining = epoch >= config.warmup_epochs
            loss_cfg = dataclasses.replace(config.loss, use_hardest_mining=mining)
            rows = _epoch_rows(dataset, epoch_plan(shuffle_rng, dataset, config.batch_size))
            tot_loss = tot_trip = tot_order = 0.0
            for b, (img_feats, txt_feats, owners, deltas) in enumerate(rows):
                img_e, txt_e, cache = forward(params, img_feats, txt_feats)
                _check_rows(cache["norms"], img_e, txt_e, epoch, b)
                out = loss_fn(_trusted_batch(img_e, txt_e, owners, deltas), loss_cfg)
                if not math.isfinite(out.value):
                    raise RuntimeError(f"non-finite loss at epoch {epoch}, batch {b}")
                backward(cache, out.grad, opt_state["grads"])
                adamw_step(params, opt_state, lr, config)
                tot_loss += out.value
                tot_trip += out.diagnostics["triplet"]
                tot_order += out.diagnostics["ordering"]
            n_b = len(rows)
            # every view of the epoch's gather, released before validation and
            # the next epoch's gather
            del rows, img_feats, txt_feats, owners, deltas, cache
            try:
                val_rsum = _val_rsum(params, eval_set)
            except ValueError as exc:  # the last update left rows off the unit sphere
                raise ValueError(f"epoch {epoch}, validation after batch {n_b - 1}: "
                                 f"{exc}") from None
            record = {
                "epoch": epoch,
                "lr": lr,
                "mining": mining,
                "loss": tot_loss / n_b,
                "triplet": tot_trip / n_b,
                "ordering": tot_order / n_b,
                "val_rsum": val_rsum,
            }
            history.append(record)
            if log_fn is not None:
                log_fn(record)
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, params, opt_state, epoch,
                                shuffle_rng, config, history)
    return TrainResult(params, history)

"""Shared-embedding trainer over precomputed image and sentence features.

The model is one linear projection per modality followed by L2
normalization.  Backpropagation is hand-written: the losses return
gradients with respect to the normalized embeddings, and the chain rule
through row normalization is g_z = (g_e - (g_e . e) e) / ||z||.  Updates
use AdamW with decoupled weight decay (biases excluded), one elementwise
pass over flat buffers whose views are the named arrays: the bits of a
loop over the arrays, the decay a per-element factor 1.0 on the biases.

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
from .losses import (Batch, LossConfig, adaptive_triplet_loss, overall_loss,
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
        if self.embed_dim < 1 or self.batch_size < 2 or self.epochs < 1:
            raise ValueError("bad trainer dimensions")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")


@dataclass
class Dataset:
    """Feature-level view of one corpus split, ready for batching."""

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
        for arr, name in ((self.image_of_text, "image_of_text"),
                          (self.deltas, "deltas"), (self.levels, "levels")):
            if arr.shape != (n_txt,):
                raise ValueError(f"{name} must have one entry per text")

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
    """Join a corpus file, its descriptiveness table, and the image and
    text feature manifests.

    Every kept sentence must have a text row, an image row for its owner
    and a table entry; the first record in corpus order that lacks one
    raises ValueError naming the file that lacks it and the corpus.
    Images are ordered by first appearance among the kept sentences.
    """
    corpus = corpus_mod.read_corpus_columns(corpus_path)
    ids, owner_ids, levels = corpus.ids, corpus.image_ids, corpus.levels
    if split is not None:
        kept = [s == split for s in corpus.splits]
        ids, owner_ids, levels = (list(compress(c, kept)) for c in (ids, owner_ids, levels))
    if not ids:
        raise ValueError(f"no sentences for split {split!r} in {corpus_path}")
    table = corpus_mod.read_table_jsonl(table_path)
    img_ids, img_feats = geometry.read_features(image_features_path)
    txt_ids, txt_feats = geometry.read_features(text_features_path)
    img_row = {i: k for k, i in enumerate(img_ids)}
    txt_row = {i: k for k, i in enumerate(txt_ids)}
    id_set = set(ids)
    if not (txt_row.keys() >= id_set and table.scores.keys() >= id_set
            and img_row.keys() >= set(owner_ids)):
        for sid, iid in zip(ids, owner_ids):
            for path, keys, kind, key in ((text_features_path, txt_row, "sentence", sid),
                                          (image_features_path, img_row, "image", iid),
                                          (table_path, table.scores, "sentence", sid)):
                if key not in keys:
                    raise ValueError(f"{path}: lacks {kind} {key!r} of {corpus_path}")

    image_ids = list(dict.fromkeys(owner_ids))
    image_index = {iid: k for k, iid in enumerate(image_ids)}
    feat_rows = np.array([img_row[i] for i in image_ids], dtype=np.int64)
    rows = np.array([txt_row[i] for i in ids], dtype=np.int64)
    return Dataset(
        image_ids=image_ids,
        image_feats=np.ascontiguousarray(img_feats[feat_rows]),
        text_ids=ids,
        text_feats=np.ascontiguousarray(txt_feats[rows]),
        image_of_text=np.array([image_index[i] for i in owner_ids], dtype=np.int64),
        deltas=np.array([table.scores[i] for i in ids], dtype=np.float64),
        levels=np.array([-1 if lv is None else lv for lv in levels], dtype=np.int64),
    )


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


def _project(feats: np.ndarray, W: np.ndarray, b: np.ndarray):
    z = feats @ W + b
    # np.linalg.norm(z, axis=1, keepdims=True), expression for expression
    norms = np.maximum(np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True)), geometry.NORM_FLOOR)
    return z / norms, norms


def forward(params: dict, img_feats: np.ndarray, txt_feats: np.ndarray):
    """Project both modalities onto the shared unit sphere.

    Returns (image_embs, text_embs, cache) where cache feeds backward.
    """
    img_e, img_n = _project(img_feats, params["W_img"], params["b_img"])
    txt_e, txt_n = _project(txt_feats, params["W_txt"], params["b_txt"])
    cache = {"img_feats": img_feats, "txt_feats": txt_feats,
             "img_e": img_e, "img_n": img_n, "txt_e": txt_e, "txt_n": txt_n}
    return img_e, txt_e, cache


def _norm_backward(g_e: np.ndarray, e: np.ndarray, norms: np.ndarray) -> np.ndarray:
    dots = np.add.reduce(g_e * e, axis=1, keepdims=True)
    return (g_e - dots * e) / norms


def backward(cache: dict, g_img_e: np.ndarray, g_txt_e: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the loss with respect to the projection parameters."""
    g_zi = _norm_backward(g_img_e, cache["img_e"], cache["img_n"])
    g_zt = _norm_backward(g_txt_e, cache["txt_e"], cache["txt_n"])
    return {
        "W_img": cache["img_feats"].T @ g_zi,
        "b_img": g_zi.sum(axis=0),
        "W_txt": cache["txt_feats"].T @ g_zt,
        "b_txt": g_zt.sum(axis=0),
    }


# ---------------------------------------------------------------------------
# AdamW

_DECAYED = ("W_img", "W_txt")


def _opt_state(params: dict, m: dict, v: dict, t: int) -> dict:
    """AdamW state over one flat buffer each for the parameters and the two
    moments, in sorted-name order; the dicts are rebound to views into them."""
    names = sorted(params)
    cuts = np.cumsum([params[k].size for k in names])[:-1]
    flats = []
    for arrays in (params, m, v):
        flats.append(np.concatenate([arrays[k] for k in names], axis=None, dtype=np.float64))
        arrays.update([(k, part.reshape(arrays[k].shape))
                       for k, part in zip(names, np.split(flats[-1], cuts))])
    decayed = np.concatenate([np.full(params[k].size, k in _DECAYED) for k in names])
    return {"t": t, "m": m, "v": v, "flat": (*flats, decayed)}


def init_opt_state(params: dict) -> dict:
    return _opt_state(params, {k: np.zeros_like(v) for k, v in params.items()},
                      {k: np.zeros_like(v) for k, v in params.items()}, 0)


def adamw_step(params: dict, grads: dict, state: dict, lr: float,
               config: TrainConfig) -> None:
    """One in-place pass over init_opt_state's buffers: decay on weights only, then Adam."""
    flat_p, m, v, decayed = state["flat"]
    if any(params[k].base is not flat_p for k in params):
        raise ValueError("params are not the arrays laid out by init_opt_state")
    g = np.concatenate([grads[k] for k in sorted(params)], axis=None)
    state["t"] += 1
    t = state["t"]
    b1, b2 = config.beta1, config.beta2
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    flat_p *= np.where(decayed, 1.0 - lr * config.weight_decay, 1.0)
    flat_p -= lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)


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
    images = [int(i) for i in rng.permutation(dataset.n_images) if sizes[i]]
    cuts, held = [0], 0
    for k, gi in enumerate(images, start=1):
        held += sizes[gi]
        if held >= batch_size:
            cuts.append(k)
            held = 0
    if held:
        cuts.append(len(images))
    if len(cuts) > 2 and cuts[-1] - cuts[-2] < 2:
        del cuts[-2]
    if len(cuts) < 2 or cuts[1] < 2:
        raise ValueError("dataset too small: every batch needs at least two images")
    return [(images[lo:hi], np.concatenate([order[bounds[i]:bounds[i + 1]]
                                            for i in images[lo:hi]]))
            for lo, hi in zip(cuts, cuts[1:])]


def _make_batch(dataset: Dataset, img_e: np.ndarray, txt_e: np.ndarray,
                img_idx: list[int], txt_idx: np.ndarray) -> Batch:
    """txt_idx holds each image's texts together, in img_idx order, as
    epoch_plan packs them."""
    owners = np.repeat(np.arange(len(img_idx)), dataset.text_counts[img_idx])
    return Batch(img_e, txt_e, owners, dataset.deltas[txt_idx])


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


def load_checkpoint(path) -> dict:
    """Read a checkpoint.  A file whose length disagrees with its header
    (truncated or with trailing bytes), a header field of the wrong type
    and a missing header field or parameter array raise ValueError naming
    the path."""
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
    out: dict[str, np.ndarray] = {}
    for name, shape in shapes:
        count = math.prod(shape)
        out[name] = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    params, m, v = ({name: out[f"{slot}/{name}"] for name in _PARAM_NAMES}
                    for slot in ("param", "adam_m", "adam_v"))
    opt_state = _opt_state(params, m, v, header["adam_t"])
    return {"params": params, "opt_state": opt_state, "epoch": header["epoch"],
            "rng_state": header["rng_state"], "config": header["config"],
            "history": header["history"]}


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


def train(dataset: Dataset, config: TrainConfig, val_dataset: Dataset | None = None,
          checkpoint_path=None, resume_from=None, log_fn=None) -> TrainResult:
    """Full training run.  Logs one record per epoch with the mean batch
    loss, its two components, the epoch lr, and RSUM on the validation
    set (the training set stands in when no validation split exists).

    With checkpoint_path set the state is rewritten after every epoch, so
    an interrupted run can resume via resume_from.  A non-finite loss
    aborts immediately.
    """
    if dataset.n_images < 2:
        raise ValueError("training needs at least two images")
    if resume_from is not None:
        saved = load_checkpoint(resume_from)
        want = dataclasses.asdict(config)
        have = dict(saved["config"])
        # epochs is the run target, not part of the training recipe, so a
        # resumed run may extend it
        want.pop("epochs"), have.pop("epochs", None)
        if have != want:
            key = next(k for k in [*want, *have] if want.get(k) != have.get(k))
            raise ValueError(f"{resume_from}: resume config disagrees with checkpoint "
                             f"config at {key!r}")
        params = saved["params"]
        opt_state = saved["opt_state"]
        history = list(saved["history"])
        start_epoch = saved["epoch"] + 1
        shuffle_rng = np.random.default_rng()
        try:
            shuffle_rng.bit_generator.state = saved["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{resume_from}: bad rng_state in checkpoint: {exc!r}") from exc
    else:
        init_rng = np.random.default_rng([config.seed, 2])
        params = init_params(init_rng, dataset.image_feats.shape[1],
                             dataset.text_feats.shape[1], config.embed_dim)
        opt_state = init_opt_state(params)
        history = []
        start_epoch = 0
        shuffle_rng = np.random.default_rng([config.seed, 3])

    eval_set = val_dataset if val_dataset is not None else dataset
    loss_fn = LOSS_VARIANTS[config.variant]
    for epoch in range(start_epoch, config.epochs):
        lr = config.lr * (config.decay_factor if epoch >= config.decay_epoch else 1.0)
        mining = epoch >= config.warmup_epochs
        loss_cfg = dataclasses.replace(config.loss, use_hardest_mining=mining)
        plan = epoch_plan(shuffle_rng, dataset, config.batch_size)
        tot_loss = tot_trip = tot_order = 0.0
        for img_idx, txt_idx in plan:
            img_e, txt_e, cache = forward(params, dataset.image_feats[img_idx],
                                          dataset.text_feats[txt_idx])
            batch = _make_batch(dataset, img_e, txt_e, img_idx, txt_idx)
            out = loss_fn(batch, loss_cfg)
            if not math.isfinite(out.value):
                raise RuntimeError(f"non-finite loss at epoch {epoch}")
            grads = backward(cache, out.grad_images, out.grad_texts)
            adamw_step(params, grads, opt_state, lr, config)
            tot_loss += out.value
            tot_trip += out.diagnostics["triplet"]
            tot_order += out.diagnostics["ordering"]
        n_b = len(plan)
        record = {
            "epoch": epoch,
            "lr": lr,
            "mining": mining,
            "loss": tot_loss / n_b,
            "triplet": tot_trip / n_b,
            "ordering": tot_order / n_b,
            "val_rsum": _val_rsum(params, eval_set),
        }
        history.append(record)
        if log_fn is not None:
            log_fn(record)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, opt_state, epoch,
                            shuffle_rng, config, history)
    return TrainResult(params, history)

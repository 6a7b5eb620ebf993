"""The per-batch training path against the per-array forms it replaced.

The losses sum their gradient contributions with one ``np.bincount`` per
loss into one stacked gradient, forward and backward handle both
modalities as one stacked array, backward writes into AdamW's flat
gradient, train gathers each epoch's rows once and builds its batches
without ``Batch``'s re-checks, and AdamW updates one flat buffer in place;
the oracles below are the ``np.add.at`` loss bodies, the per-modality
projection and normalization backward, the per-batch gather, the checked
``Batch`` and the per-array AdamW loop they replaced, and every
comparison is bit for bit (signed zeros included), not within a tolerance.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descmatch import evaluation, geometry, trainer
from descmatch import losses as L


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Loss oracles: one np.add.at per gradient contribution


def oracle_same_image(owners):
    pairs = []
    for i in sorted(set(owners.tolist())):
        mine = np.flatnonzero(owners == i)
        pairs += [(i, a, b) for k, a in enumerate(mine) for b in mine[k + 1:]]
    return np.array(pairs, dtype=np.int64).reshape(-1, 3)


def oracle_hardest_negatives(sims, owners):
    n_img, n_txt = sims.shape
    banned = owners[None, :] == owners[:, None]
    dead = np.flatnonzero(banned.all(axis=1))
    if dead.size:
        raise ValueError(f"pair ({owners[dead[0]]}, {dead[0]}) has no admissible negative text")
    if n_img < 2:
        raise ValueError(f"pair ({owners[0]}, 0) has no admissible negative image")
    t_neg = np.where(banned, -np.inf, sims[owners]).argmax(axis=1)
    img_cols = sims.T.copy()
    img_cols[np.arange(n_txt), owners] = -np.inf
    return t_neg.astype(np.int64), img_cols.argmax(axis=1).astype(np.int64)


def oracle_ranking_loss(batch, config, adaptive):
    imgs, txts = batch.image_embs, batch.text_embs
    deltas = batch.deltas
    sims = imgs @ txts.T
    grad_i = np.zeros_like(imgs)
    grad_t = np.zeros_like(txts)
    p_i, p_j = batch.image_of_text, np.arange(batch.n_texts)
    s_pos = sims[p_i, p_j]

    if config.use_hardest_mining:
        t_neg, v_neg = oracle_hardest_negatives(sims, p_i)
        if adaptive:
            a_i2t, a_t2i = L.adaptive_margins(deltas[p_j], deltas[t_neg], config.tau)
        else:
            a_i2t = np.full(batch.n_texts, config.alpha)
            a_t2i = a_i2t
        h1 = a_i2t - s_pos + sims[p_i, t_neg]
        h2 = a_t2i - s_pos + sims[v_neg, p_j]
        on1 = h1 > 0.0
        on2 = h2 > 0.0
        value = float(h1[on1].sum()) + float(h2[on2].sum())
        np.add.at(grad_i, p_i[on1], txts[t_neg[on1]] - txts[p_j[on1]])
        np.add.at(grad_t, p_j[on1], -imgs[p_i[on1]])
        np.add.at(grad_t, t_neg[on1], imgs[p_i[on1]])
        np.add.at(grad_i, p_i[on2], -txts[p_j[on2]])
        np.add.at(grad_i, v_neg[on2], txts[p_j[on2]])
        np.add.at(grad_t, p_j[on2], imgs[v_neg[on2]] - imgs[p_i[on2]])
        return value, grad_i, grad_t, int(on1.sum()) + int(on2.sum())

    n_pairs = batch.n_texts
    allowed_t = batch.image_of_text[None, :] != p_i[:, None]
    n1 = allowed_t.sum(axis=1)
    if np.any(n1 == 0) or batch.n_images < 2:
        bad = int(np.argmin(n1)) if np.any(n1 == 0) else 0
        raise ValueError(f"pair ({p_i[bad]}, {bad}) has no admissible negative")
    if adaptive:
        margins_t, a_t2i = L.adaptive_margins(deltas[p_j][:, None], deltas[None, :],
                                              config.tau)
    else:
        margins_t = np.full((n_pairs, batch.n_texts), config.alpha)
        a_t2i = np.full((n_pairs, 1), config.alpha)
    h1 = margins_t - s_pos[:, None] + sims[p_i]
    act1 = (h1 > 0.0) & allowed_t
    value = float(np.sum(np.sum(h1 * act1, axis=1) / n1))
    c1 = act1.sum(axis=1)
    np.add.at(grad_i, p_i, (act1 @ txts - c1[:, None] * txts[p_j]) / n1[:, None])
    np.add.at(grad_t, p_j, -(c1 / n1)[:, None] * imgs[p_i])
    grad_t += (act1 / n1[:, None]).T @ imgs[p_i]

    n2 = batch.n_images - 1
    allowed_i = np.ones((n_pairs, batch.n_images), dtype=bool)
    allowed_i[np.arange(n_pairs), p_i] = False
    h2 = a_t2i - s_pos[:, None] + sims[:, p_j].T
    act2 = (h2 > 0.0) & allowed_i
    value += float(np.sum(np.sum(h2 * act2, axis=1) / n2))
    c2 = act2.sum(axis=1)
    grad_i += act2.T @ (txts[p_j] / n2)
    np.add.at(grad_i, p_i, -(c2 / n2)[:, None] * txts[p_j])
    np.add.at(grad_t, p_j, (act2 @ imgs - c2[:, None] * imgs[p_i]) / n2)
    return value, grad_i, grad_t, int(act1.sum()) + int(act2.sum())


def oracle_ordering_loss(batch, config):
    imgs, txts = batch.image_embs, batch.text_embs
    grad_i = np.zeros_like(imgs)
    grad_t = np.zeros_like(txts)
    pairs = oracle_same_image(batch.image_of_text)
    if not len(pairs):
        return 0.0, grad_i, grad_t, 0
    i_arr, a_arr, b_arr = pairs.T
    diff_a = imgs[i_arr] - txts[a_arr]
    diff_b = imgs[i_arr] - txts[b_arr]
    raw_da = np.linalg.norm(diff_a, axis=1)
    raw_db = np.linalg.norm(diff_b, axis=1)
    da = np.maximum(raw_da, config.eps_dist)
    db = np.maximum(raw_db, config.eps_dist)
    dea = np.maximum(batch.deltas[a_arr], config.eps_delta)
    deb = np.maximum(batch.deltas[b_arr], config.eps_delta)
    args = np.log(da / db) - np.log(deb / dea)
    value = float(np.sum(args * args))
    coef_a = np.where(raw_da > config.eps_dist, 2.0 * args / (da * da), 0.0)
    coef_b = np.where(raw_db > config.eps_dist, 2.0 * args / (db * db), 0.0)
    g_a = coef_a[:, None] * diff_a
    g_b = coef_b[:, None] * diff_b
    np.add.at(grad_i, i_arr, g_a - g_b)
    np.add.at(grad_t, a_arr, -g_a)
    np.add.at(grad_t, b_arr, g_b)
    return value, grad_i, grad_t, len(pairs)


def assert_same_output(got, want):
    value, grad_i, grad_t = want
    assert same_bits(got.value, value)
    assert same_bits(got.grad_images, grad_i)
    assert same_bits(got.grad_texts, grad_t)


# ---------------------------------------------------------------------------
# Batches

KINDS = ("random", "grid", "one_text_images", "all_but_one", "duplicates", "train")


def make_batch(seed: int, kind: str) -> L.Batch:
    """A batch of 8-16 images at dimension 32 for an even seed, the sizes
    of training batches, whose summation orders differ from small ones;
    of 1-7 images and 2-8 dimensions for an odd one.  ``grid`` rounds
    embeddings and deltas onto a coarse grid (tied similarities, deltas of
    exactly 0 and 1); ``one_text_images`` gives every image one text;
    ``all_but_one`` lets image 0 own every text but one; ``duplicates``
    repeats text rows and gives a text its image's own vector; ``train``
    is shaped like train's batches: 16 images owning 64 texts, ragged and
    in image order, at dimension 32."""
    rng = np.random.default_rng(seed)
    if kind == "train":
        n_img, n_txt, dim = 16, 64, 32
    else:
        n_img = int(rng.integers(8, 17) if seed % 2 == 0 else rng.integers(1, 8))
        n_txt = n_img if kind == "one_text_images" else int(rng.integers(n_img, 3 * n_img + 3))
        dim = 32 if seed % 2 == 0 else int(rng.integers(2, 9))
    batch = L.random_batch(rng, n_images=n_img, n_texts=n_txt, dim=dim)
    imgs, txts, owners, deltas = (batch.image_embs, batch.text_embs,
                                  batch.image_of_text, batch.deltas)
    if kind == "grid":
        imgs, txts = np.round(2.0 * imgs), np.round(2.0 * txts)
        imgs[~imgs.any(axis=1), 0] = 1.0
        txts[~txts.any(axis=1), 0] = 1.0
        imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
        txts /= np.linalg.norm(txts, axis=1, keepdims=True)
        deltas = np.round(rng.uniform(0.0, 1.0, n_txt))
    elif kind == "all_but_one":
        owners = np.zeros(n_txt, dtype=np.int64)
        owners[rng.integers(n_txt)] = min(1, n_img - 1)
    elif kind == "duplicates":
        txts = txts[rng.integers(0, n_txt, n_txt)]
        txts[0] = imgs[owners[0]]
        deltas = deltas[rng.integers(0, n_txt, n_txt)]
    elif kind == "train":
        owners = np.sort(owners)
    return L.Batch(imgs, txts, owners, deltas)


def configs(batch: L.Batch, mining: bool):
    """The default config, one with other margins, and one whose eps_dist
    equals a text's distance to its image, so a pair sits at the clamp."""
    base = L.LossConfig(use_hardest_mining=mining)
    yield base
    yield dataclasses.replace(base, alpha=0.5, tau=2.0, lam=0.5)
    for i, a, _ in batch.same_image[:1]:
        # the row norm of a 2-D array, as the loss takes it (a 1-D norm is a dot)
        eps = float(np.linalg.norm(batch.image_embs[[i]] - batch.text_embs[[a]], axis=1)[0])
        if eps > 0.0:
            yield dataclasses.replace(base, eps_dist=eps)


def oracle_or_error(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.booleans())
@example(3, "all_but_one", True)
@example(5, "grid", False)
@example(1, "train", False)
def test_losses_equal_add_at_oracles_bit_for_bit(seed, kind, mining):
    batch = make_batch(seed, kind)
    for config in configs(batch, mining):
        for adaptive, fn in ((False, L.triplet_loss), (True, L.adaptive_triplet_loss)):
            want, error = oracle_or_error(oracle_ranking_loss, batch, config, adaptive)
            if error is not None:
                with pytest.raises(ValueError) as exc:
                    fn(batch, config)
                assert str(exc.value) == error
                continue
            got = fn(batch, config)
            assert_same_output(got, want[:3])
            assert got.diagnostics["active_hinges"] == want[3]
        order = L.ordering_loss(batch, config)
        want = oracle_ordering_loss(batch, config)
        assert_same_output(order, want[:3])
        assert order.diagnostics["ordering_pairs"] == want[3]
        if error is None:
            ada = oracle_ranking_loss(batch, config, True)
            full = L.overall_loss(batch, config)
            assert_same_output(full, (ada[0] + config.lam * want[0],
                                      ada[1] + config.lam * want[1],
                                      ada[2] + config.lam * want[2]))


def test_hardest_negatives_equal_oracle_on_ties():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n_img, n_txt = int(rng.integers(2, 6)), int(rng.integers(2, 12))
        sims = rng.integers(-2, 3, size=(n_img, n_txt)) / 2.0
        owners = rng.integers(0, n_img, n_txt)
        want, error = oracle_or_error(oracle_hardest_negatives, sims, owners)
        if error is not None:
            with pytest.raises(ValueError, match=re.escape(error)):
                L.hardest_negatives(sims, owners)
            continue
        got = L.hardest_negatives(sims, owners)
        assert all(same_bits(g, w) for g, w in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
def test_each_checked_loss_returns_one_stacked_gradient(seed, kind):
    batch = make_batch(seed, kind)
    n_img, rows = batch.n_images, batch.n_images + batch.n_texts
    for _, fn, mining in L._CHECKED_LOSSES:
        try:
            out = fn(batch, L.LossConfig(use_hardest_mining=mining))
        except ValueError:
            continue
        assert out.grad.shape == (rows, batch.image_embs.shape[1])
        assert out.grad.dtype == np.float64 and out.grad.flags.c_contiguous
        assert out.n_images == n_img
        assert np.shares_memory(out.grad_images, out.grad)
        assert np.shares_memory(out.grad_texts, out.grad)
        assert same_bits(out.grad_images, out.grad[:n_img])
        assert same_bits(out.grad_texts, out.grad[n_img:])
        assert same_bits(out.grad, np.concatenate([out.grad_images, out.grad_texts]))


def test_bincount_sums_in_add_at_order_with_signed_zeros():
    """The identity every scatter rests on: np.bincount adds each weight
    into its bin in input order starting from +0.0, as np.add.at does onto
    a zero buffer."""
    rng = np.random.default_rng(22)
    for _ in range(300):
        n, dim, k = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(0, 40))
        rows = rng.integers(0, n, k)
        vals = rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-20, 20, size=(k, 1))
        vals[rng.random((k, dim)) < 0.3] = -0.0
        want = np.zeros((n, dim))
        np.add.at(want, rows, vals)
        assert same_bits(L._scatter(rows, vals, n), want)


# ---------------------------------------------------------------------------
# Owner structure


def test_same_image_is_cached_read_only_and_shared():
    owners = np.array([0, 0, 1, 1, 1, 2])
    embs = np.eye(6)[:, :4]
    embs[4:, :] = np.eye(4)[:2]
    a = L.Batch(np.eye(4)[:3], embs, owners, np.full(6, 0.5))
    b = L.Batch(np.eye(4)[1:], embs[::-1], owners.copy(), np.full(6, 0.25))
    assert a.same_image is b.same_image
    assert a.ownership is b.ownership
    assert not a.same_image.flags.writeable
    with pytest.raises(ValueError):
        a.same_image[0, 0] = 5
    assert [tuple(r) for r in a.same_image.tolist()] == [
        (0, 0, 1), (1, 2, 3), (1, 2, 4), (1, 3, 4)]
    for arr in a.ownership:
        assert not isinstance(arr, np.ndarray) or not arr.flags.writeable


@pytest.mark.parametrize("field", ["image_embs", "text_embs", "deltas"])
def test_batch_rejects_nan(field):
    embs = np.eye(3)
    args = {"image_embs": embs.copy(), "text_embs": embs.copy(),
            "image_of_text": np.array([0, 1, 2]), "deltas": np.full(3, 0.5)}
    args[field][1] = np.nan
    with pytest.raises(ValueError, match="deltas" if field == "deltas" else "normalized"):
        L.Batch(**args)


# ---------------------------------------------------------------------------
# AdamW


def oracle_adamw_step(params, grads, state, lr, config):
    state["t"] += 1
    t = state["t"]
    b1, b2 = config.beta1, config.beta2
    for name in sorted(params):
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        if name in ("W_img", "W_txt"):
            params[name] *= 1.0 - lr * config.weight_decay
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)


def test_flat_adamw_equals_per_array_loop(tmp_path):
    rng = np.random.default_rng(23)
    params = trainer.init_params(rng, 5, 3, 4)
    params["b_img"] = rng.normal(size=4)
    want = {k: v.copy() for k, v in params.items()}
    want_state = {"t": 0, "m": {k: np.zeros_like(v) for k, v in want.items()},
                  "v": {k: np.zeros_like(v) for k, v in want.items()}}
    state = trainer.init_opt_state(params)
    config = trainer.TrainConfig(weight_decay=0.3)
    for step in range(200):
        lr = 1e-2 if step < 120 else 1e-3
        grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-8, 3)
                 for k, v in params.items()}
        grads["b_txt"][step % 4] = 0.0 if step % 2 else -0.0
        # as backward writes them: into the state's own flat gradient
        for name, g in state["grads"].items():
            g[...] = grads[name]
        trainer.adamw_step(params, state, lr, config)
        oracle_adamw_step(want, grads, want_state, lr, config)
        if step == 100:
            # a checkpoint resumes onto its own flat buffers
            path = tmp_path / "ck.bin"
            trainer.save_checkpoint(path, params, state, 0, rng, config, [])
            saved = trainer.load_checkpoint(path)
            params, state = saved["params"], saved["opt_state"]
    assert state["t"] == want_state["t"] == 200
    for name in want:
        assert same_bits(params[name], want[name])
        assert same_bits(state["m"][name], want_state["m"][name])
        assert same_bits(state["v"][name], want_state["v"][name])


def test_adamw_rejects_params_it_did_not_lay_out():
    rng = np.random.default_rng(24)
    params = trainer.init_params(rng, 2, 2, 2)
    state = trainer.init_opt_state(params)
    state["work"][0] = 1.0
    copies = {k: v.copy() for k, v in params.items()}
    with pytest.raises(ValueError, match="init_opt_state"):
        trainer.adamw_step(copies, state, 1e-3, trainer.TrainConfig())
    assert state["t"] == 0
    assert all(same_bits(params[k], copies[k]) for k in params)


# ---------------------------------------------------------------------------
# Forward and backward: one pass per modality


def oracle_project(feats, W, b):
    z = feats @ W + b
    norms = np.maximum(np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True)), geometry.NORM_FLOOR)
    return z / norms, norms


def oracle_norm_backward(g_e, e, norms):
    dots = np.add.reduce(g_e * e, axis=1, keepdims=True)
    return (g_e - dots * e) / norms


def oracle_forward(params, img_feats, txt_feats):
    img_e, img_n = oracle_project(img_feats, params["W_img"], params["b_img"])
    txt_e, txt_n = oracle_project(txt_feats, params["W_txt"], params["b_txt"])
    return img_e, txt_e, (img_feats, txt_feats, img_e, img_n, txt_e, txt_n)


def oracle_backward(cache, g_img_e, g_txt_e):
    img_feats, txt_feats, img_e, img_n, txt_e, txt_n = cache
    g_zi = oracle_norm_backward(g_img_e, img_e, img_n)
    g_zt = oracle_norm_backward(g_txt_e, txt_e, txt_n)
    return {"W_img": img_feats.T @ g_zi, "b_img": g_zi.sum(axis=0),
            "W_txt": txt_feats.T @ g_zt, "b_txt": g_zt.sum(axis=0)}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(1, 130), st.integers(1, 40),
       st.booleans())
@example(0, 16, 64, 32, False)
def test_stacked_forward_and_backward_equal_per_modality_oracles(seed, n_img, n_txt, dim,
                                                                 zero_row):
    rng = np.random.default_rng(seed)
    d_img, d_txt = int(rng.integers(1, 50)), int(rng.integers(1, 50))
    params = trainer.init_params(rng, d_img, d_txt, dim)
    params["b_img"] = rng.normal(size=dim)
    img_feats = rng.normal(size=(n_img, d_img))
    txt_feats = rng.normal(size=(n_txt, d_txt))
    if zero_row:  # a row below the norm floor
        params["b_txt"][:] = 0.0
        txt_feats[-1] = 0.0
    img_e, txt_e, cache = trainer.forward(params, img_feats, txt_feats)
    want_i, want_t, want_cache = oracle_forward(params, img_feats, txt_feats)
    assert same_bits(img_e, want_i) and same_bits(txt_e, want_t)
    assert img_e.base is txt_e.base is not None
    assert img_e.flags.c_contiguous and txt_e.flags.c_contiguous
    grad = rng.normal(size=(n_img + n_txt, dim)) * 10.0 ** rng.integers(-5, 5)
    grad[rng.random(grad.shape) < 0.1] = -0.0
    kept = grad.copy()
    state = trainer.init_opt_state(params)
    got = state["grads"]
    assert trainer.backward(cache, grad, got) is None
    want = oracle_backward(want_cache, grad[:n_img], grad[n_img:])
    assert same_bits(grad, kept)
    assert sorted(got) == sorted(want)
    for name in want:
        assert same_bits(got[name], want[name]), name
    # written into the optimiser's flat gradient, in sorted-name order
    assert same_bits(state["work"][0], np.concatenate([want[k] for k in sorted(want)], axis=None))


# ---------------------------------------------------------------------------
# Training: one gather per epoch against a gather per batch


def oracle_train(dataset, config, val_dataset=None):
    """train() as a loop over epoch_plan's batches that gathers each batch's
    rows itself, through the per-modality oracles and the per-array AdamW."""
    params = trainer.init_params(np.random.default_rng([config.seed, 2]),
                                 dataset.image_feats.shape[1], dataset.text_feats.shape[1],
                                 config.embed_dim)
    state = {"t": 0, "m": {k: np.zeros_like(v) for k, v in params.items()},
             "v": {k: np.zeros_like(v) for k, v in params.items()}}
    shuffle_rng = np.random.default_rng([config.seed, 3])
    eval_set = val_dataset if val_dataset is not None else dataset
    history = []
    for epoch in range(config.epochs):
        lr = config.lr * (config.decay_factor if epoch >= config.decay_epoch else 1.0)
        mining = epoch >= config.warmup_epochs
        loss_cfg = dataclasses.replace(config.loss, use_hardest_mining=mining)
        plan = trainer.epoch_plan(shuffle_rng, dataset, config.batch_size)
        totals = [0.0, 0.0, 0.0]
        for img_idx, txt_idx in plan:
            img_e, txt_e, cache = oracle_forward(params, dataset.image_feats[img_idx],
                                                 dataset.text_feats[txt_idx])
            owners = np.repeat(np.arange(len(img_idx)), dataset.text_counts[img_idx])
            out = trainer.LOSS_VARIANTS[config.variant](
                L.Batch(img_e, txt_e, owners, dataset.deltas[txt_idx]), loss_cfg)
            grads = oracle_backward(cache, out.grad_images, out.grad_texts)
            oracle_adamw_step(params, grads, state, lr, config)
            for k, value in enumerate((out.value, out.diagnostics["triplet"],
                                       out.diagnostics["ordering"])):
                totals[k] += value
        img_e, txt_e, _ = oracle_forward(params, eval_set.image_feats, eval_set.text_feats)
        history.append({"epoch": epoch, "lr": lr, "mining": mining,
                        "loss": totals[0] / len(plan), "triplet": totals[1] / len(plan),
                        "ordering": totals[2] / len(plan),
                        "val_rsum": evaluation.embedding_rsum(img_e, txt_e,
                                                              eval_set.image_of_text)})
    return params, history


def ragged_dataset(n_images, seed):
    """Images owning one to four texts, in shuffled text order."""
    rng = np.random.default_rng(seed)
    owners = rng.permutation(np.repeat(np.arange(n_images), rng.integers(1, 5, n_images)))
    n_txt = owners.size
    return trainer.Dataset(
        image_ids=[f"i{k}" for k in range(n_images)], image_feats=rng.normal(size=(n_images, 7)),
        text_ids=[f"t{k}" for k in range(n_txt)], text_feats=rng.normal(size=(n_txt, 5)),
        image_of_text=owners, deltas=rng.uniform(0.0, 1.0, n_txt),
        levels=rng.integers(1, 5, n_txt))


def assert_same_run(params, history, want_params, want_history):
    assert json.dumps(history, sort_keys=True) == json.dumps(want_history, sort_keys=True)
    assert all(math.isfinite(r["loss"]) for r in history)
    for name in want_params:
        assert same_bits(params[name], want_params[name]), name


@pytest.mark.parametrize("variant", sorted(trainer.LOSS_VARIANTS))
def test_train_equals_per_batch_reference_loop(variant):
    dataset, val = ragged_dataset(30, 41), ragged_dataset(8, 42)
    config = trainer.TrainConfig(embed_dim=4, batch_size=10, epochs=5, lr=5e-2,
                                 warmup_epochs=2, decay_epoch=3, seed=7, variant=variant)
    for val_dataset in (None, val):
        got = trainer.train(dataset, config, val_dataset=val_dataset)
        want = oracle_train(dataset, config, val_dataset)
        assert [r["mining"] for r in got.history] == [False, False, True, True, True]
        assert_same_run(got.params, got.history, *want)


@pytest.mark.parametrize("variant", sorted(trainer.LOSS_VARIANTS))
def test_resumed_train_equals_per_batch_reference_loop(variant, tmp_path):
    dataset = ragged_dataset(30, 43)
    config = trainer.TrainConfig(embed_dim=4, batch_size=10, epochs=5, lr=5e-2,
                                 warmup_epochs=2, decay_epoch=3, seed=8, variant=variant)
    path = tmp_path / "ck.bin"
    trainer.train(dataset, dataclasses.replace(config, epochs=2), checkpoint_path=path)
    got = trainer.train(dataset, config, checkpoint_path=path,
                        resume_from=trainer.load_checkpoint(path, config))
    assert_same_run(got.params, got.history, *oracle_train(dataset, config))


# ---------------------------------------------------------------------------
# Each batch fact checked once: train's batches against checked Batches


@pytest.mark.parametrize("variant", sorted(trainer.LOSS_VARIANTS))
def test_train_batches_equal_checked_batches(variant, monkeypatch):
    """train builds its batches without Batch's re-checks; each is a Batch
    holding the arrays and ownership that the public, checked Batch holds,
    and a run whose batches are checked Batches writes the same history and
    params, warm-up and mined epochs alike."""
    dataset = ragged_dataset(30, 44)
    config = trainer.TrainConfig(embed_dim=4, batch_size=10, epochs=4, lr=5e-2,
                                 warmup_epochs=2, seed=9, variant=variant)
    want = trainer.train(dataset, config)
    trusted = L._trusted_batch
    built = []

    def checked(image_embs, text_embs, image_of_text, deltas):
        batch = L.Batch(image_embs, text_embs, image_of_text, deltas)
        fast = trusted(image_embs, text_embs, image_of_text, deltas)
        assert type(fast) is L.Batch
        for name in ("image_embs", "text_embs", "image_of_text", "deltas", "same_image"):
            assert same_bits(getattr(fast, name), getattr(batch, name)), name
        assert fast.ownership is batch.ownership
        built.append(batch)
        return batch

    monkeypatch.setattr(trainer, "_trusted_batch", checked)
    got = trainer.train(dataset, config)
    assert len(built) >= 2 * config.epochs
    assert [r["mining"] for r in got.history] == [False, False, True, True]
    assert_same_run(got.params, got.history, want.params, want.history)


def test_ownership_checks_the_owners_of_a_cache_miss():
    owners = np.array([0, 2, 1, 7, 1, 0, 2, 2, 1, 0, 1])
    L._ownership.cache_clear()
    want = "^text 3 has owner 7, outside the 3 images$"
    with pytest.raises(ValueError, match=want):
        L._ownership(owners.tobytes(), 3)
    assert L._ownership.cache_info().currsize == 0  # a failed check caches nothing
    with pytest.raises(ValueError, match=want):
        L._trusted_batch(np.eye(3), np.eye(3)[owners % 3], owners, np.full(11, 0.5))
    with pytest.raises(ValueError, match="^text 0 has owner -1, outside the 8 images$"):
        L.hardest_negatives(np.zeros((8, 2)), np.array([-1, 3]))
    # the same owners are valid for 8 images, and a hit needs no new check
    own = L._ownership(owners.tobytes(), 8)
    assert L._ownership(owners.tobytes(), 8) is own
    assert L._ownership.cache_info().hits == 1


@pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, np.inf])
def test_dataset_rejects_a_delta_outside_the_unit_interval(bad):
    dataset = ragged_dataset(6, 45)
    deltas = dataset.deltas.copy()
    deltas[[4, 7]] = bad
    with pytest.raises(ValueError, match=rf"^text 't4' has delta {bad}, outside \[0, 1\]$"):
        dataclasses.replace(dataset, deltas=deltas)
    # the loader's float64 deltas are kept as they are; others become float64
    assert dataset.deltas.dtype == np.float64
    ints = dataclasses.replace(dataset, deltas=(dataset.deltas > 0.5).astype(int))
    assert same_bits(ints.deltas, (dataset.deltas > 0.5).astype(np.float64))

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descmatch import losses as L


def unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def single_pair_batch():
    """Prescribed similarities for pair (0, 0): s(v,t)=0.5, s(v,t-)=0.4,
    s(v-,t)=0.1, deltas 0.2 / 0.8.  Text 1 is image 1's own vector, so
    pair (1, 1) has similarity 1 and both its hinges stay inactive."""
    v0 = np.array([1.0, 0.0, 0.0])
    t0 = np.array([0.5, math.sqrt(0.75), 0.0])
    y = -0.1 / math.sqrt(0.75)  # t0 . t1 = 0.2 + sqrt(0.75) y = 0.1
    t1 = np.array([0.4, y, math.sqrt(1.0 - 0.16 - y * y)])
    return L.Batch(
        image_embs=np.stack([v0, t1]),
        text_embs=np.stack([t0, t1]),
        image_of_text=np.array([0, 1]),
        deltas=np.array([0.2, 0.8]),
    )


def test_batch_validation():
    embs = np.eye(3)
    with pytest.raises(ValueError, match="owner"):
        L.Batch(embs, embs, np.array([0, 1, 5]), np.full(3, 0.5))
    with pytest.raises(ValueError, match="deltas"):
        L.Batch(embs, embs, np.array([0, 1, 2]), np.array([0.5, 0.5, 1.5]))
    with pytest.raises(ValueError, match="normalized"):
        L.Batch(2.0 * embs, embs, np.array([0, 1, 2]), np.full(3, 0.5))
    batch = L.Batch(embs, embs, np.array([0, 1, 2]), np.full(3, 0.5))
    assert batch.pair_map == [(0, 0), (1, 1), (2, 2)]


def test_batch_takes_geometrys_width_and_owner_checks():
    embs = np.eye(3)
    with pytest.raises(ValueError, match=r"^dimension mismatch: 3 vs 2$"):
        L.Batch(embs, np.eye(2), np.array([0, 1]), np.full(2, 0.5))
    with pytest.raises(ValueError, match="^image_of_text must have one entry per text$"):
        L.Batch(embs, embs, np.array([0, 1]), np.full(3, 0.5))
    with pytest.raises(ValueError, match="^text 2 has owner 3, outside the 3 images$"):
        L.Batch(embs, embs, np.array([0, 1, 3]), np.full(3, 0.5))


def test_adaptive_margins_formulas():
    a_i2t, a_t2i = L.adaptive_margins(0.2, 0.8, 6.0)
    assert a_i2t == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert a_t2i == pytest.approx(0.4 / 6.0, abs=1e-15)


def test_hardest_negatives_excludes_same_image_texts():
    # image 0 owns texts 0 and 1; text 1 is the most similar overall but
    # must be skipped for pair (0, 0)
    sims = np.array([[0.9, 0.95, 0.3, 0.2],
                     [0.1, 0.2, 0.8, 0.7]])
    owners = np.array([0, 0, 1, 1])
    t_neg, v_neg = L.hardest_negatives(sims, owners)
    assert t_neg[[0, 2]].tolist() == [2, 1]
    assert v_neg[[0, 2]].tolist() == [1, 0]


def test_hardest_negatives_breaks_ties_low():
    sims = np.array([[0.5, 0.4, 0.4],
                     [0.5, 0.4, 0.4]])
    owners = np.array([0, 1, 1])
    t_neg, v_neg = L.hardest_negatives(sims, owners)
    assert t_neg[0] == 1  # ties between texts 1 and 2 go low
    assert v_neg[0] == 1


def test_hardest_negatives_requires_admissible_candidates():
    # every text belongs to the anchor image
    with pytest.raises(ValueError, match="negative text"):
        L.hardest_negatives(np.array([[0.5, 0.4]]), np.array([0, 0]))
    # a single image leaves no image-side negative
    with pytest.raises(ValueError, match="negative image"):
        L.hardest_negatives(np.array([[0.5, 0.4]]), np.array([0, 1]))


def test_mining_counter_tracks_warmup_mode(monkeypatch):
    batch = L.random_batch(np.random.default_rng(0))
    calls = []
    mine = L.hardest_negatives
    monkeypatch.setattr(L, "hardest_negatives",
                        lambda *a: calls.append(a) or mine(*a))
    L.adaptive_triplet_loss(batch, L.LossConfig(use_hardest_mining=False))
    assert len(calls) == 0
    L.adaptive_triplet_loss(batch, L.LossConfig(use_hardest_mining=True))
    assert len(calls) == 1


def test_adaptive_triplet_worked_example():
    batch = single_pair_batch()
    out = L.adaptive_triplet_loss(batch, L.LossConfig(tau=6.0))
    # margins 1/6 and 1/15; only the text-side hinge stays positive:
    # [1/6 - 0.5 + 0.4]+ = 1/15, [1/15 - 0.5 + 0.1]+ = 0
    assert out.value == pytest.approx(1.0 / 15.0, abs=1e-9)
    assert out.diagnostics["active_hinges"] == 1


def test_fixed_triplet_worked_example():
    batch = single_pair_batch()
    out = L.triplet_loss(batch, L.LossConfig(alpha=0.2))
    # [0.2 - 0.1]+ + [0.2 - 0.4]+ = 0.1
    assert out.value == pytest.approx(0.1, abs=1e-9)


def test_triplet_grad_signs_on_active_hinge():
    batch = single_pair_batch()
    out = L.triplet_loss(batch, L.LossConfig(alpha=0.2))
    imgs, txts = batch.image_embs, batch.text_embs
    assert np.allclose(out.grad_images[0], txts[1] - txts[0], atol=1e-12)
    assert np.allclose(out.grad_texts[0], -imgs[0], atol=1e-12)
    assert np.allclose(out.grad_texts[1], imgs[0], atol=1e-12)
    assert np.allclose(out.grad_images[1], 0.0)


def test_adaptive_equals_fixed_under_constant_delta():
    rng = np.random.default_rng(7)
    for _ in range(20):
        batch = L.random_batch(rng, n_images=6, n_texts=12)
        batch.deltas[:] = 0.25
        # (0.25 + 0.25) / 2 is exactly 0.25
        adaptive = L.adaptive_triplet_loss(batch, L.LossConfig(tau=2.0))
        fixed = L.triplet_loss(batch, L.LossConfig(alpha=0.25))
        assert adaptive.value == fixed.value
        assert np.array_equal(adaptive.grad_images, fixed.grad_images)
        assert np.array_equal(adaptive.grad_texts, fixed.grad_texts)


def test_overall_with_zero_lambda_equals_adaptive():
    rng = np.random.default_rng(8)
    batch = L.random_batch(rng, n_images=5, n_texts=10)
    cfg = L.LossConfig(lam=0.0)
    full = L.overall_loss(batch, cfg)
    ada = L.adaptive_triplet_loss(batch, cfg)
    assert full.value == ada.value
    assert np.array_equal(full.grad_images, ada.grad_images)
    assert np.array_equal(full.grad_texts, ada.grad_texts)


def test_overall_composes_value_and_grads():
    rng = np.random.default_rng(9)
    batch = L.random_batch(rng, n_images=5, n_texts=10)
    cfg = L.LossConfig()
    full = L.overall_loss(batch, cfg)
    ada = L.adaptive_triplet_loss(batch, cfg)
    order = L.ordering_loss(batch, cfg)
    assert full.value == ada.value + cfg.lam * order.value
    assert np.array_equal(full.grad_images,
                          ada.grad_images + cfg.lam * order.grad_images)


def ratio_matched_batch(swap: bool = False):
    """Two texts of one image whose distance ratio exactly inverts their
    descriptiveness ratio, measured with the loss's own norm."""
    rng = np.random.default_rng(11)
    imgs = rng.normal(size=(1, 6))
    imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
    txts = rng.normal(size=(2, 6))
    txts /= np.linalg.norm(txts, axis=1, keepdims=True)
    diffs = imgs[[0, 0]] - txts
    d = np.linalg.norm(diffs, axis=1)
    # deltas proportional to the opposite distance: delta_a/delta_b == d_b/d_a
    deltas = np.array([0.5 * d[1], 0.5 * d[0]])
    order = [1, 0] if swap else [0, 1]
    return L.Batch(imgs, txts[order], np.array([0, 0]), deltas[order])


def test_ordering_loss_zero_on_ratio_matched_fixture():
    out = L.ordering_loss(ratio_matched_batch(), L.LossConfig())
    assert out.value == 0.0
    assert np.all(out.grad_images == 0.0)
    assert np.all(out.grad_texts == 0.0)


def test_ordering_loss_symmetric_under_pair_swap():
    base = L.ordering_loss(ratio_matched_batch(), L.LossConfig())
    swapped = L.ordering_loss(ratio_matched_batch(swap=True), L.LossConfig())
    assert swapped.value == base.value == 0.0


def test_ordering_loss_log_two_mismatch():
    # equal distances but a 2:1 descriptiveness ratio leaves (ln 2)^2
    imgs = np.array([[1.0, 0.0]])
    t = np.array([0.0, 1.0])
    batch = L.Batch(imgs, np.stack([t, t]), np.array([0, 0]),
                    np.array([0.3, 0.6]))
    out = L.ordering_loss(batch, L.LossConfig())
    assert out.value == pytest.approx(math.log(2.0) ** 2, abs=1e-12)


def test_ordering_loss_symmetry_on_mismatch():
    imgs = np.array([[1.0, 0.0]])
    ta = np.array([0.0, 1.0])
    tb = np.array([-1.0, 0.0])
    fwd = L.Batch(imgs, np.stack([ta, tb]), np.array([0, 0]),
                  np.array([0.3, 0.6]))
    rev = L.Batch(imgs, np.stack([tb, ta]), np.array([0, 0]),
                  np.array([0.6, 0.3]))
    a = L.ordering_loss(fwd, L.LossConfig()).value
    b = L.ordering_loss(rev, L.LossConfig()).value
    assert a == pytest.approx(b, rel=1e-12)
    assert a > 0.0


def test_ordering_loss_clamped_branch_carries_no_gradient():
    # text 0 coincides with the image, so its raw distance (0) is clamped
    imgs = np.array([[1.0, 0.0]])
    batch = L.Batch(imgs, np.array([[1.0, 0.0], [0.0, 1.0]]),
                    np.array([0, 0]), np.array([0.9, 0.2]))
    out = L.ordering_loss(batch, L.LossConfig())
    assert out.value > 0.0
    assert np.all(out.grad_texts[0] == 0.0)
    assert np.any(out.grad_texts[1] != 0.0)


def test_ordering_loss_skips_singleton_images():
    batch = L.random_batch(np.random.default_rng(3), n_images=4, n_texts=4)
    out = L.ordering_loss(batch, L.LossConfig())
    assert out.value == 0.0
    assert out.diagnostics["ordering_pairs"] == 0


def test_delta_shift_changes_margins_but_not_gradients():
    """Descriptiveness enters the triplet loss only through the margin
    constants, so nudging deltas (without flipping any hinge) moves the
    value and leaves the gradients bit-identical."""
    rng = np.random.default_rng(12)
    batch = L.random_batch(rng, n_images=6, n_texts=12)
    batch.deltas[:] = np.clip(batch.deltas, 0.2, 0.8)
    cfg = L.LossConfig()
    base = L.adaptive_triplet_loss(batch, cfg)
    shifted = L.Batch(batch.image_embs, batch.text_embs, batch.image_of_text,
                      batch.deltas + 1e-12)
    out = L.adaptive_triplet_loss(shifted, cfg)
    assert np.array_equal(out.grad_images, base.grad_images)
    assert np.array_equal(out.grad_texts, base.grad_texts)


def test_mean_mode_hand_value():
    """Warm-up replaces the mined hinge with the mean over admissible
    negatives; on the single-pair fixture both modes agree because there
    is exactly one admissible negative per side."""
    batch = single_pair_batch()
    mined = L.adaptive_triplet_loss(batch, L.LossConfig(use_hardest_mining=True))
    mean = L.adaptive_triplet_loss(batch, L.LossConfig(use_hardest_mining=False))
    assert mean.value == pytest.approx(mined.value, abs=1e-12)
    assert np.allclose(mean.grad_images, mined.grad_images, atol=1e-12)


def test_mean_mode_averages_hinges():
    # 3 images, one text each; pair (0,0) has two admissible negatives on
    # each side; with a huge margin every hinge is active
    rng = np.random.default_rng(4)
    batch = L.random_batch(rng, n_images=3, n_texts=3)
    cfg = L.LossConfig(alpha=5.0, use_hardest_mining=False)
    out = L.triplet_loss(batch, cfg)
    sims = batch.image_embs @ batch.text_embs.T
    expected = 0.0
    for i in range(3):
        for jn in range(3):
            if jn != i:
                expected += (5.0 - sims[i, i] + sims[i, jn]) / 2.0
        for im in range(3):
            if im != i:
                expected += (5.0 - sims[i, i] + sims[im, i]) / 2.0
    assert out.value == pytest.approx(expected, rel=1e-12)


def test_losses_reject_batches_without_negatives():
    embs = np.array([[1.0, 0.0]])
    batch = L.Batch(embs, embs, np.array([0]), np.array([0.5]))
    for mining in (True, False):
        with pytest.raises(ValueError, match="admissible"):
            L.adaptive_triplet_loss(batch, L.LossConfig(use_hardest_mining=mining))


def test_random_batch_invariants():
    rng = np.random.default_rng(5)
    batch = L.random_batch(rng, n_images=6, n_texts=13, dim=9)
    assert batch.n_images == 6 and batch.n_texts == 13
    assert np.allclose(np.linalg.norm(batch.image_embs, axis=1), 1.0)
    assert set(batch.image_of_text.tolist()) == set(range(6))
    assert np.all(batch.deltas >= 0.05) and np.all(batch.deltas <= 1.0)


def test_kink_gap_detects_exact_tie():
    embs = np.eye(3)
    batch = L.Batch(embs, embs, np.array([0, 1, 2]), np.full(3, 0.5))
    # identical candidate similarities produce a zero argmax gap
    assert L.kink_gap(batch, L.LossConfig()) == 0.0


def kink_gap_per_text(batch, config):
    """The per-text loop that kink_gap vectorises: each text's negative
    texts and images, then each same-image pair's two distances."""
    sims = batch.image_embs @ batch.text_embs.T
    deltas = batch.deltas
    gap = math.inf
    for j, i in enumerate(batch.image_of_text):
        t_cand = np.flatnonzero(batch.image_of_text != i)
        i_cand = np.array([k for k in range(batch.n_images) if k != i], dtype=np.int64)
        if t_cand.size == 0 or i_cand.size == 0:
            continue
        t_sims = sims[i, t_cand]
        i_sims = sims[i_cand, j]
        for vals in (t_sims, i_sims):
            if vals.size >= 2:
                top = np.sort(vals)[-2:]
                gap = min(gap, float(top[1] - top[0]))
        for adaptive in (False, True):
            if adaptive:
                margins_t, a_t2i = L.adaptive_margins(deltas[j], deltas[t_cand], config.tau)
            else:
                margins_t = np.full(t_cand.size, config.alpha)
                a_t2i = config.alpha
            gap = min(gap, float(np.min(np.abs(margins_t - sims[i, j] + t_sims))))
            gap = min(gap, float(np.min(np.abs(a_t2i - sims[i, j] + i_sims))))
    for i, a, b in batch.same_image:
        for j in (a, b):
            d = float(np.linalg.norm(batch.image_embs[i] - batch.text_embs[j]))
            gap = min(gap, abs(d - config.eps_dist))
    return gap


def _kink_batches(rng):
    """Random batches of 1-8 images, where images owning one text are
    common, some with owners redrawn so that one image owns all texts but
    one or all of them, some with embeddings and deltas rounded onto a
    coarse grid, which makes exact ties common."""
    for trial in range(300):
        n_img = int(rng.integers(1, 9))
        n_txt = int(rng.integers(n_img, 3 * n_img + 2))
        batch = L.random_batch(rng, n_images=n_img, n_texts=n_txt, dim=int(rng.integers(2, 17)))
        imgs, txts, owners, deltas = (batch.image_embs, batch.text_embs,
                                      batch.image_of_text, batch.deltas)
        if trial % 3 == 1 and n_img >= 2:
            owners = np.zeros(n_txt, dtype=np.int64)
            owners[rng.integers(n_txt)] = trial % 2
        if trial % 3 == 2:
            imgs, txts = np.round(2.0 * imgs), np.round(2.0 * txts)
            imgs[~imgs.any(axis=1), 0] = txts[~txts.any(axis=1), 0] = 1.0
            imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
            txts /= np.linalg.norm(txts, axis=1, keepdims=True)
            deltas = np.round(deltas, 1)
        yield L.Batch(imgs, txts, owners, deltas)


def test_kink_gap_equals_per_text_loop():
    rng = np.random.default_rng(17)
    for config in (L.LossConfig(), L.LossConfig(alpha=0.5, tau=2.0, eps_dist=0.3)):
        gaps = []
        for batch in _kink_batches(rng):
            gap = L.kink_gap(batch, config)
            assert gap == kink_gap_per_text(batch, config)
            gaps.append(gap)
            # an ordering distance at the clamp, for the last text of a group,
            # which is only ever the second of a pair
            for i, _, j in batch.same_image[-1:]:
                eps = float(np.linalg.norm(batch.image_embs[i] - batch.text_embs[j]))
                if eps > 0.0:
                    clamp = dataclasses.replace(config, eps_dist=eps)
                    assert L.kink_gap(batch, clamp) == kink_gap_per_text(batch, clamp) == 0.0
        # the fixtures reach the tie, single-text and one-image branches
        assert 0.0 in gaps and math.inf in gaps


def test_gradcheck_smoke():
    res = L.run_gradcheck(seed=123, trials=2)
    assert res["passed"]
    assert max(t["rel_err"] for t in res["trials"]) < 1e-6
    names = {r["loss"] for r in res["trials"]}
    assert names == {"triplet/mined", "triplet/mean", "adaptive/mined",
                     "adaptive/mean", "ordering", "overall"}


def test_finite_diff_restores_batch():
    rng = np.random.default_rng(6)
    batch = L.random_batch(rng, n_images=3, n_texts=6, dim=4)
    before_i = batch.image_embs.copy()
    before_t = batch.text_embs.copy()
    L.finite_diff_grad(lambda b: L.ordering_loss(b, L.LossConfig()), batch)
    assert np.array_equal(batch.image_embs, before_i)
    assert np.array_equal(batch.text_embs, before_t)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_loss_values_nonnegative_and_finite(seed, mining):
    rng = np.random.default_rng(seed)
    batch = L.random_batch(rng, n_images=4, n_texts=8, dim=5)
    cfg = L.LossConfig(use_hardest_mining=mining)
    for fn in (L.triplet_loss, L.adaptive_triplet_loss, L.ordering_loss,
               L.overall_loss):
        out = fn(batch, cfg)
        assert out.value >= 0.0
        assert math.isfinite(out.value)
        assert np.all(np.isfinite(out.grad_images))
        assert np.all(np.isfinite(out.grad_texts))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_ordering_swap_symmetry_random(seed):
    rng = np.random.default_rng(seed)
    batch = L.random_batch(rng, n_images=3, n_texts=6, dim=5)
    perm = []
    for owner in range(3):
        mine = [j for j in range(6) if batch.image_of_text[j] == owner]
        perm.extend(reversed(mine))
    perm = np.array(perm)
    swapped = L.Batch(batch.image_embs, batch.text_embs[perm],
                      batch.image_of_text[perm], batch.deltas[perm])
    a = L.ordering_loss(batch, L.LossConfig()).value
    b = L.ordering_loss(swapped, L.LossConfig()).value
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

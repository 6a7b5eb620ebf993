import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from descmatch import corpus as C
from descmatch import datagen, geometry, losses, trainer


def tiny_dataset(n_images=10, texts_per=3, d_img=7, d_txt=6, seed=0):
    rng = np.random.default_rng(seed)
    n_txt = n_images * texts_per
    return trainer.Dataset(
        image_ids=[f"img{k}" for k in range(n_images)],
        image_feats=rng.normal(size=(n_images, d_img)),
        text_ids=[f"t{k}" for k in range(n_txt)],
        text_feats=rng.normal(size=(n_txt, d_txt)),
        image_of_text=np.repeat(np.arange(n_images), texts_per),
        deltas=rng.uniform(0.1, 0.9, size=n_txt),
        levels=np.tile(np.arange(1, texts_per + 1), n_images),
    )


def test_forward_rows_are_unit():
    ds = tiny_dataset()
    rng = np.random.default_rng(1)
    params = trainer.init_params(rng, 7, 6, 5)
    img_e, txt_e, _ = trainer.forward(params, ds.image_feats, ds.text_feats)
    assert np.allclose(np.linalg.norm(img_e, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(txt_e, axis=1), 1.0, atol=1e-12)


def test_norm_backward_output_orthogonal_to_embedding():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(6, 4))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    e = z / norms
    g_e = rng.normal(size=(6, 4))
    g_z = trainer._norm_backward(g_e, e, norms)
    assert np.allclose(np.sum(g_z * e, axis=1), 0.0, atol=1e-12)


def test_parameter_gradients_match_finite_differences():
    """End-to-end check: features through projection and normalization
    into the full loss, differentiated with respect to the parameters."""
    rng = np.random.default_rng(3)
    ds = tiny_dataset(n_images=4, texts_per=2, d_img=5, d_txt=4, seed=3)
    params = trainer.init_params(rng, 5, 4, 3)
    cfg = losses.LossConfig()

    def loss_value():
        img_e, txt_e, _ = trainer.forward(params, ds.image_feats, ds.text_feats)
        batch = losses.Batch(img_e, txt_e, ds.image_of_text, ds.deltas)
        return losses.overall_loss(batch, cfg).value

    img_e, txt_e, cache = trainer.forward(params, ds.image_feats, ds.text_feats)
    batch = losses.Batch(img_e, txt_e, ds.image_of_text, ds.deltas)
    out = losses.overall_loss(batch, cfg)
    grads = trainer.init_opt_state(params)["grads"]
    trainer.backward(cache, out.grad, grads)

    h = 1e-6
    for name in params:
        fd = np.zeros_like(params[name])
        for idx in np.ndindex(params[name].shape):
            orig = params[name][idx]
            params[name][idx] = orig + h
            f_plus = loss_value()
            params[name][idx] = orig - h
            f_minus = loss_value()
            params[name][idx] = orig
            fd[idx] = (f_plus - f_minus) / (2 * h)
        err = losses.grad_rel_error(grads[name], fd)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"


def test_adamw_decays_weights_but_not_biases():
    params = {"W_img": np.full((2, 2), 2.0), "b_img": np.full(2, 2.0),
              "W_txt": np.full((2, 2), 2.0), "b_txt": np.full(2, 2.0)}
    state = trainer.init_opt_state(params)
    state["work"][0] = 0.0
    cfg = trainer.TrainConfig(lr=0.1, weight_decay=0.5)
    trainer.adamw_step(params, state, lr=0.1, config=cfg)
    assert np.allclose(params["W_img"], 2.0 * (1 - 0.1 * 0.5))
    assert np.allclose(params["b_img"], 2.0)
    assert np.allclose(params["W_txt"], 2.0 * (1 - 0.1 * 0.5))
    assert np.allclose(params["b_txt"], 2.0)
    assert state["t"] == 1


def test_adamw_matches_manual_reference():
    p = {"W_img": np.array([[1.0]]), "b_img": np.zeros(1),
         "W_txt": np.array([[1.0]]), "b_txt": np.zeros(1)}
    g = {"W_img": np.array([[0.5]]), "b_img": np.zeros(1),
         "W_txt": np.zeros((1, 1)), "b_txt": np.zeros(1)}
    state = trainer.init_opt_state(p)
    for name, grad in state["grads"].items():
        grad[...] = g[name]
    cfg = trainer.TrainConfig(lr=0.01, weight_decay=0.1)
    trainer.adamw_step(p, state, lr=0.01, config=cfg)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    m_hat = m / 0.1
    v_hat = v / 0.001
    want = 1.0 * (1 - 0.01 * 0.1) - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert p["W_img"][0, 0] == pytest.approx(want, rel=1e-12)
    assert p["W_txt"][0, 0] == pytest.approx(1.0 * (1 - 0.01 * 0.1), rel=1e-12)


def test_epoch_plan_partitions_texts():
    ds = tiny_dataset(n_images=11, texts_per=3)
    rng = np.random.default_rng(4)
    plan = trainer.epoch_plan(rng, ds, batch_size=8)
    seen = [j for _, txts in plan for j in txts]
    assert sorted(seen) == list(range(ds.n_texts))
    for imgs, txts in plan:
        assert len(imgs) >= 2
        assert sorted({int(ds.image_of_text[j]) for j in txts}) == sorted(imgs)
    for imgs, txts in plan[:-1]:
        assert len(txts) >= 8


def test_epoch_plan_merges_trailing_single_image():
    # 3 images x 2 texts with batch_size 4: two images fill the first
    # batch, the straggler is folded into it rather than training alone
    ds = tiny_dataset(n_images=3, texts_per=2)
    rng = np.random.default_rng(5)
    plan = trainer.epoch_plan(rng, ds, batch_size=4)
    assert len(plan) == 1
    assert len(plan[0][0]) == 3


def test_epoch_plan_rejects_single_image_dataset():
    ds = tiny_dataset(n_images=1, texts_per=4)
    with pytest.raises(ValueError, match="two images"):
        trainer.epoch_plan(np.random.default_rng(0), ds, batch_size=4)


def epoch_plan_per_image(rng, dataset, batch_size):
    """epoch_plan with one loop step per shuffled image and one
    concatenate per batch."""
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


def _owners_dataset(owners, n_images):
    n_txt = len(owners)
    return trainer.Dataset(
        image_ids=[f"img{k}" for k in range(n_images)], image_feats=np.zeros((n_images, 2)),
        text_ids=[f"t{k}" for k in range(n_txt)], text_feats=np.zeros((n_txt, 2)),
        image_of_text=np.asarray(owners, dtype=np.int64), deltas=np.zeros(n_txt),
        levels=np.zeros(n_txt, dtype=np.int64))


def test_epoch_plan_equals_per_image_loop():
    """Random text counts per image, zeros among them, texts in shuffled
    order, and batch sizes from below one image to above the whole set:
    equal plans (or the same error) and equal generator states after."""
    gen = np.random.default_rng(11)
    for trial in range(300):
        n_images = int(gen.integers(1, 40))
        sizes = gen.integers(0, 7, size=n_images) * (gen.random(n_images) > 0.2)
        owners = gen.permutation(np.repeat(np.arange(n_images), sizes))
        ds = _owners_dataset(owners, n_images)
        batch_size = int(gen.integers(-1, max(2, 2 * len(owners))))
        got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
        try:
            want = epoch_plan_per_image(want_rng, ds, batch_size)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                trainer.epoch_plan(got_rng, ds, batch_size)
        else:
            got = trainer.epoch_plan(got_rng, ds, batch_size)
            assert [imgs for imgs, _ in got] == [imgs for imgs, _ in want]
            assert all(type(i) is int for imgs, _ in got for i in imgs)
            for (_, g), (_, w) in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_train_smoke_and_warmup_schedule():
    ds = tiny_dataset()
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=4, lr=1e-3,
                              warmup_epochs=2, seed=0)
    res = trainer.train(ds, cfg)
    assert len(res.history) == 4
    assert [r["mining"] for r in res.history] == [False, False, True, True]
    for r in res.history:
        assert math.isfinite(r["loss"])
        assert 0.0 <= r["val_rsum"] <= 600.0


def test_lr_decay_schedule():
    ds = tiny_dataset()
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=3, lr=1e-3,
                              warmup_epochs=1, decay_epoch=1, decay_factor=0.1)
    res = trainer.train(ds, cfg)
    assert [r["lr"] for r in res.history] == [1e-3, 1e-4, 1e-4]


def test_warmup_epochs_never_mine(monkeypatch):
    ds = tiny_dataset()
    calls = []
    mine = losses.hardest_negatives
    monkeypatch.setattr(losses, "hardest_negatives",
                        lambda *a: calls.append(a) or mine(*a))
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=2, lr=1e-3,
                              warmup_epochs=2)
    trainer.train(ds, cfg)
    assert len(calls) == 0
    cfg2 = dataclasses.replace(cfg, warmup_epochs=0)
    trainer.train(ds, cfg2)
    assert len(calls) > 0


def test_non_finite_loss_aborts(monkeypatch):
    ds = tiny_dataset()
    bad = losses.LossOutput(float("nan"), np.zeros((2, 1)), 1, {})
    monkeypatch.setitem(trainer.LOSS_VARIANTS, "full", lambda b, c: bad)
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=1)
    with pytest.raises(RuntimeError, match="non-finite"):
        trainer.train(ds, cfg)


@pytest.mark.parametrize("batch_size, where", [
    (8, "epoch 0, batch 1"),  # the first batch after the update that diverged
    (64, "epoch 0, validation after batch 0"),  # one batch per epoch
])
def test_diverged_run_names_the_epoch_and_batch(batch_size, where):
    """An update that overflows the params stops the run at the next rows it
    embeds, naming them, with no numpy warning on the way."""
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=batch_size, epochs=2, lr=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{where}: image row 0 is not L2-normalized: "
                                             "norm nan, not 1 within 0.001$"):
            trainer.train(tiny_dataset(), cfg)


@pytest.mark.parametrize("make, key", [
    (lambda: trainer.TrainConfig(lr=10 ** 400), "lr"),
    (lambda: trainer.TrainConfig(weight_decay=-10 ** 400), "weight_decay"),
    (lambda: losses.LossConfig(tau=10 ** 400), "tau"),
    (lambda: losses.LossConfig(alpha=10 ** 400), "alpha"),
    (lambda: datagen.SynthSpec(noise_sigma=10 ** 400), "noise_sigma"),
], ids=["lr", "weight_decay", "tau", "alpha", "noise_sigma"])
def test_settings_reject_an_integer_too_large_for_a_float(make, key):
    with pytest.raises(ValueError, match=rf"^{key} must be finite, got -?10{{400}}$"):
        make()


def test_checkpoint_round_trip(tmp_path):
    ds = tiny_dataset()
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=2, lr=1e-3)
    path = tmp_path / "ck.bin"
    res = trainer.train(ds, cfg, checkpoint_path=path)
    saved = trainer.load_checkpoint(path)
    for name, arr in res.params.items():
        assert np.array_equal(saved["params"][name], arr)
    assert saved["epoch"] == 1
    # one AdamW step per batch; every epoch of 10 three-text images packs 3
    assert saved["opt_state"]["t"] == 2 * 3
    assert saved["config"] == dataclasses.asdict(cfg)
    assert saved["history"] == res.history


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="magic"):
        trainer.load_checkpoint(path)


def test_resume_reproduces_straight_run(tmp_path):
    ds = tiny_dataset()
    base = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=4, lr=1e-3)
    straight = trainer.train(ds, base)

    part = dataclasses.replace(base, epochs=2)
    path = tmp_path / "ck.bin"
    trainer.train(ds, part, checkpoint_path=path)
    resumed = trainer.train(ds, base, resume_from=trainer.load_checkpoint(path, base))

    for name in straight.params:
        assert np.array_equal(resumed.params[name], straight.params[name])
    assert resumed.history == straight.history


def test_resume_rejects_recipe_changes(tmp_path):
    ds = tiny_dataset()
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=2, lr=1e-3)
    path = tmp_path / "ck.bin"
    trainer.train(ds, cfg, checkpoint_path=path)
    other = dataclasses.replace(cfg, epochs=4, lr=5e-3)
    with pytest.raises(ValueError, match="resume config"):
        trainer.train(ds, other, resume_from=trainer.load_checkpoint(path, other))


def test_checkpoint_bytes_reproducible(tmp_path):
    ds = tiny_dataset()
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=2, lr=1e-3)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    trainer.train(ds, cfg, checkpoint_path=a)
    trainer.train(ds, cfg, checkpoint_path=b)
    assert a.read_bytes() == b.read_bytes()


def _write_inputs(tmp_path, records, img_ids, img_feats, txt_ids, txt_feats):
    """Write the four inputs of load_dataset; returns their paths in its
    argument order."""
    C.write_corpus_jsonl(tmp_path / "corpus.jsonl", records)
    _, table = C.build_table(records)
    C.write_table_jsonl(tmp_path / "table.jsonl", table)
    return (tmp_path / "corpus.jsonl", tmp_path / "table.jsonl",
            geometry.write_features(tmp_path / "images", img_ids, img_feats),
            geometry.write_features(tmp_path / "texts", txt_ids, txt_feats))


def test_load_dataset_joins_files(tmp_path):
    records = [
        C.SentenceRecord("t0", "imgB", "a dog", level=1),
        C.SentenceRecord("t1", "imgB", "a spotted dog", level=2),
        C.SentenceRecord("t2", "imgA", "a zebra", level=1),
        C.SentenceRecord("t3", "imgA", "a zebra herd", split="val", level=2),
    ]
    rng = np.random.default_rng(0)
    paths = _write_inputs(tmp_path, records, ["imgA", "imgB"], rng.normal(size=(2, 4)),
                          [r.id for r in records], rng.normal(size=(4, 3)))
    ds = trainer.load_dataset(*paths, split="train")
    # first-encounter image order: imgB before imgA
    assert ds.image_ids == ["imgB", "imgA"]
    assert ds.text_ids == ["t0", "t1", "t2"]
    assert ds.image_of_text.tolist() == [0, 0, 1]
    assert ds.levels.tolist() == [1, 2, 1]
    val = trainer.load_dataset(*paths, split="val")
    assert val.text_ids == ["t3"]


def test_load_dataset_reports_missing_ids(tmp_path):
    records = [C.SentenceRecord("t0", "imgA", "a dog"),
               C.SentenceRecord("t1", "imgA", "a cat")]
    rng = np.random.default_rng(0)
    paths = _write_inputs(tmp_path, records, ["imgA"], rng.normal(size=(1, 4)),
                          ["t0"], rng.normal(size=(1, 3)))
    with pytest.raises(ValueError) as exc:
        trainer.load_dataset(*paths)
    assert str(exc.value) == f"{paths[3]}: lacks sentence 't1' of {paths[0]}"


@pytest.mark.parametrize("text_ids, image_ids, table_ids, lacking, want", [
    (["t0", "t1", "t2"], ["imgA", "imgB"], ["t0", "t2"], 1, "sentence 't1'"),
    (["t0", "t2"], ["imgA", "imgB"], ["t0", "t2"], 3, "sentence 't1'"),
    (["t0", "t1", "t2"], ["imgB"], ["t1", "t2"], 2, "image 'imgA'"),
    (["t0", "t1", "t2"], ["imgA", "imgB"], ["t0", "t1"], 1, "sentence 't2'"),
    (["t0", "t1", "t2"], ["imgA"], ["t0", "t1", "t2"], 2, "image 'imgB'"),
], ids=["table", "text-before-table", "image", "last-record", "image-alone"])
def test_load_dataset_reports_first_missing_id(tmp_path, text_ids, image_ids, table_ids,
                                               lacking, want):
    """The first record in corpus order that lacks a text row, an image row
    or a table entry, checked in that order, names the error, the file
    that lacks it (paths[lacking]) and the corpus."""
    records = [C.SentenceRecord("t0", "imgA", "a dog"), C.SentenceRecord("t1", "imgB", "a cat"),
               C.SentenceRecord("t2", "imgB", "a cow", split="val")]
    rng = np.random.default_rng(0)
    paths = _write_inputs(tmp_path, records, image_ids, rng.normal(size=(len(image_ids), 4)),
                          text_ids, rng.normal(size=(len(text_ids), 3)))
    _, table = C.build_table([r for r in records if r.id in table_ids])
    C.write_table_jsonl(paths[1], table)
    with pytest.raises(ValueError) as exc:
        trainer.load_dataset(*paths)
    assert str(exc.value) == f"{paths[lacking]}: lacks {want} of {paths[0]}"


@pytest.mark.parametrize("val_images, lacking, want", [
    (["imgA", "imgB"], 3, "sentence 't3'"),
    (["imgA"], 2, "image 'imgB'"),
], ids=["val-text", "val-image"])
def test_load_splits_reports_what_only_the_val_split_lacks(tmp_path, val_images, lacking, want):
    """The training split is whole; the validation split's first fault is
    named, whether its image rows were gathered or not."""
    records = [C.SentenceRecord("t0", "imgA", "a dog"), C.SentenceRecord("t1", "imgA", "a cat"),
               C.SentenceRecord("t2", "imgB", "a cow", split="val"),
               C.SentenceRecord("t3", "imgB", "a hen", split="val")]
    rng = np.random.default_rng(0)
    paths = _write_inputs(tmp_path, records, val_images, rng.normal(size=(len(val_images), 4)),
                          ["t0", "t1", "t2"], rng.normal(size=(3, 3)))
    with pytest.raises(ValueError) as exc:
        trainer.load_splits(*paths, split="train", val_split="val")
    assert str(exc.value) == f"{paths[lacking]}: lacks {want} of {paths[0]}"


def test_load_dataset_rejects_empty_split(tmp_path):
    records = [C.SentenceRecord("t0", "imgA", "a dog")]
    rng = np.random.default_rng(0)
    paths = _write_inputs(tmp_path, records, ["imgA"], rng.normal(size=(1, 4)),
                          ["t0"], rng.normal(size=(1, 3)))
    with pytest.raises(ValueError, match="no sentences"):
        trainer.load_dataset(*paths, split="test")


def _assert_same_dataset(got, want):
    assert got.image_ids == want.image_ids and got.text_ids == want.text_ids
    for name in ("image_feats", "text_feats", "image_of_text", "deltas", "levels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous, name


@pytest.mark.parametrize("split, val_split, want_val", [
    ("train", "val", "val"), ("train", "auto", "val"), (None, "test", "test"),
    ("val", "auto", None), ("train", "none", None), ("test", "train", "train"),
])
def test_load_splits_equal_separate_loads(tmp_path, split, val_split, want_val):
    """Both datasets of one read equal what a separate load of each split
    gives: ids, image order and every array, bit for bit and C-contiguous."""
    rng = np.random.default_rng(4)
    records = [C.SentenceRecord(f"t{k}", f"img{k * 7 % 6}", f"a word{k % 5} w{k}",
                                split=("train", "val", "train", "test")[k % 4],
                                level=None if k % 5 == 0 else k % 3 + 1)
               for k in range(24)]
    img_ids = [f"img{k}" for k in rng.permutation(6)]
    txt_ids = [f"t{k}" for k in rng.permutation(24)]
    paths = _write_inputs(tmp_path, records, img_ids, rng.normal(size=(6, 5)),
                          txt_ids, rng.normal(size=(24, 3)))
    got, got_val = trainer.load_splits(*paths, split, val_split)
    _assert_same_dataset(got, trainer.load_dataset(*paths, split=split))
    if want_val is None:
        assert got_val is None
    else:
        _assert_same_dataset(got_val, trainer.load_dataset(*paths, split=want_val))


def test_checkpoint_write_is_atomic(tmp_path):
    ds = tiny_dataset()
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=1, lr=1e-3)
    path = tmp_path / "ck.bin"
    trainer.train(ds, cfg, checkpoint_path=path)
    before = path.read_bytes()
    # the header is written before this array fails to convert to float64
    broken = {"W_img": np.array([object()])}
    with pytest.raises(TypeError):
        trainer.save_checkpoint(path, broken, {"t": 0, "m": {}, "v": {}}, 0,
                                np.random.default_rng(0), cfg, [])
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]
    trainer.train(ds, cfg, checkpoint_path=path)
    assert sorted(tmp_path.iterdir()) == [path]


def test_load_dataset_takes_file_order_features_as_they_are(tmp_path):
    """Manifests in corpus order and permuted manifests load equal,
    C-contiguous arrays: the first as the arrays read, the second gathered."""
    records = [C.SentenceRecord(f"t{k}", f"img{k // 3}", f"a word{k}", level=k % 3 + 1)
               for k in range(12)]
    rng = np.random.default_rng(0)
    img_feats, txt_feats = rng.normal(size=(4, 5)), rng.normal(size=(12, 3))
    img_ids, txt_ids = [f"img{k}" for k in range(4)], [r.id for r in records]
    in_order = trainer.load_dataset(*_write_inputs(tmp_path, records, img_ids, img_feats,
                                                   txt_ids, txt_feats))
    perm_img, perm_txt = rng.permutation(4), rng.permutation(12)
    other = tmp_path / "permuted"
    other.mkdir()
    permuted = trainer.load_dataset(*_write_inputs(
        other, records, [img_ids[k] for k in perm_img], img_feats[perm_img],
        [txt_ids[k] for k in perm_txt], txt_feats[perm_txt]))
    for ds in (in_order, permuted):
        assert np.array_equal(ds.image_feats, img_feats)
        assert np.array_equal(ds.text_feats, txt_feats)
        assert ds.image_feats.flags.c_contiguous and ds.text_feats.flags.c_contiguous
    assert in_order.text_ids == permuted.text_ids == txt_ids
    # a split whose rows are one contiguous range is still a copy of them
    val = tmp_path / "val"
    val.mkdir()
    split = [dataclasses.replace(r, split="val" if k >= 6 else "train")
             for k, r in enumerate(records)]
    ds = trainer.load_dataset(*_write_inputs(val, split, img_ids, img_feats, txt_ids, txt_feats),
                              split="val")
    assert np.array_equal(ds.text_feats, txt_feats[6:]) and ds.text_feats.base is None
    assert ds.text_feats.flags.c_contiguous


def test_load_drops_the_image_features_before_the_text_features_load(tmp_path):
    """With both manifests out of corpus order, each split's image rows are
    gathered and the file's matrix dropped before the text features load:
    the traced peak holds one image matrix beside the two text matrices
    (the read and its gather), not two."""
    n_img, n_txt = 1000, 2000
    records = [C.SentenceRecord(f"t{k}", f"img{k // 2}", f"a word{k}") for k in range(n_txt)]
    rng = np.random.default_rng(0)
    img_feats, txt_feats = rng.normal(size=(n_img, 512)), rng.normal(size=(n_txt, 256))
    perm_img, perm_txt = rng.permutation(n_img), rng.permutation(n_txt)
    paths = _write_inputs(tmp_path, records, [f"img{k}" for k in perm_img], img_feats[perm_img],
                          [f"t{k}" for k in perm_txt], txt_feats[perm_txt])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ds = trainer.load_dataset(*paths)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.image_feats, img_feats) and np.array_equal(ds.text_feats, txt_feats)
    bound = img_feats.nbytes + 2 * txt_feats.nbytes + 2 * 2**20
    assert peak < bound, f"load_dataset peaked {peak / 2**20:.1f} MB, above {bound / 2**20:.1f} MB"


def test_score_and_load_peaks_stay_bounded(tmp_path):
    """Traced peaks at 2 000 images x 4 levels, above what each call starts
    with: build_table tokenizes in blocks (5.4 MB measured, 10.4 MB when it
    held every token tuple at once) and load_dataset keeps the feature arrays
    it read (8.1 MB, against 13.0 MB with a float64 copy and a gathered copy
    of each)."""
    paths = datagen.write_dataset(tmp_path, datagen.SynthSpec(n_images=2000, seed=3))
    records = C.read_corpus_jsonl(paths["corpus"])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, table = C.build_table(records)
        build_peak = tracemalloc.get_traced_memory()[1] - start
        C.write_table_jsonl(tmp_path / "scored.jsonl", table)
        del table
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ds = trainer.load_dataset(paths["corpus"], tmp_path / "scored.jsonl",
                                  paths["image_features"], paths["text_features"])
        load_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert ds.n_texts == 8000
    assert build_peak < 8 * 2**20, f"build_table peaked {build_peak / 2**20:.1f} MB above its start"
    assert load_peak < 10.5 * 2**20, f"load_dataset peaked {load_peak / 2**20:.1f} MB above its start"

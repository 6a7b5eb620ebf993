import dataclasses
import math

import numpy as np
import pytest

from descmatch import corpus as C
from descmatch import geometry, losses, trainer


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
    grads = trainer.backward(cache, out.grad_images, out.grad_texts)

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
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    state = trainer.init_opt_state(params)
    cfg = trainer.TrainConfig(lr=0.1, weight_decay=0.5)
    trainer.adamw_step(params, zeros, state, lr=0.1, config=cfg)
    assert np.allclose(params["W_img"], 2.0 * (1 - 0.1 * 0.5))
    assert np.allclose(params["b_img"], 2.0)
    assert state["t"] == 1


def test_adamw_matches_manual_reference():
    p = {"W_img": np.array([[1.0]]), "b_img": np.zeros(1),
         "W_txt": np.array([[1.0]]), "b_txt": np.zeros(1)}
    g = {"W_img": np.array([[0.5]]), "b_img": np.zeros(1),
         "W_txt": np.zeros((1, 1)), "b_txt": np.zeros(1)}
    state = trainer.init_opt_state(p)
    cfg = trainer.TrainConfig(lr=0.01, weight_decay=0.1)
    trainer.adamw_step(p, g, state, lr=0.01, config=cfg)
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
    bad = losses.LossOutput(float("nan"), np.zeros((1, 1)), np.zeros((1, 1)), {})
    monkeypatch.setitem(trainer.LOSS_VARIANTS, "full", lambda b, c: bad)
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=1)
    with pytest.raises(RuntimeError, match="non-finite"):
        trainer.train(ds, cfg)


def test_checkpoint_round_trip(tmp_path):
    ds = tiny_dataset()
    cfg = trainer.TrainConfig(embed_dim=5, batch_size=8, epochs=2, lr=1e-3)
    path = tmp_path / "ck.bin"
    res = trainer.train(ds, cfg, checkpoint_path=path)
    saved = trainer.load_checkpoint(path)
    for name, arr in res.params.items():
        assert np.array_equal(saved["params"][name], arr)
    assert saved["epoch"] == 1
    assert saved["opt_state"]["t"] == res.opt_state["t"]
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
    resumed = trainer.train(ds, base, resume_from=path)

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
        trainer.train(ds, other, resume_from=path)


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
], ids=["table", "text-before-table", "image", "last-record"])
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


def test_load_dataset_rejects_empty_split(tmp_path):
    records = [C.SentenceRecord("t0", "imgA", "a dog")]
    rng = np.random.default_rng(0)
    paths = _write_inputs(tmp_path, records, ["imgA"], rng.normal(size=(1, 4)),
                          ["t0"], rng.normal(size=(1, 3)))
    with pytest.raises(ValueError, match="no sentences"):
        trainer.load_dataset(*paths, split="test")


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

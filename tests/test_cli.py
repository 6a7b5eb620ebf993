import builtins
import collections
import dataclasses
import hashlib
import inspect
import json
import math
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from descmatch import cli
from descmatch import corpus as C
from descmatch import datagen, evaluation, geometry, losses, trainer


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = cli.main(["synth", "--out", str(out), "--images", "12",
                     "--levels", "3", "--shared-vocab", "6",
                     "--rare-vocab", "60", "--dim", "10", "--seed", "7"])
    assert code == 0
    return out


def test_synth_outputs(synth_dir):
    for name in ("corpus.jsonl", "table.jsonl", "images.manifest.json",
                 "texts.manifest.json", "synth_config.json", "config.json"):
        assert (synth_dir / name).exists(), name


def test_score_matches_library(synth_dir, tmp_path):
    out = tmp_path / "table.jsonl"
    code = cli.main(["score", "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--out", str(out)])
    assert code == 0
    records = C.read_corpus_jsonl(synth_dir / "corpus.jsonl")
    _, want = C.build_table(records)
    got = C.read_table_jsonl(out)
    assert got.scores == want.scores
    assert got.raw_min == want.raw_min


# sha256 of every file a default synth writes but config.json, which echoes
# --out.  Neither synth nor score calls BLAS, so every Python and numpy of
# the CI matrix must write these bytes.
DEFAULT_SYNTH_SHA256 = {
    "corpus.jsonl": "4ef93a8df8b17d3c36ec6b86f6dcb1e4e8e494eac2ecaa77f59163794db7d3a4",
    "images.bin": "7cc4aa96343caa53ab67f1dbbe708f6278bde0008f1c7073b7948ea42392e3e5",
    "images.manifest.json": "85a2e0c50f560f7041813ad2652426588b8222a64c8b3350a5581a9e4d975f0e",
    "synth_config.json": "07737884186a907fb686671539c56ffc16c8d3f71fecd06411ae78e9f68a9859",
    "table.jsonl": "7df9f77f36b6e42ea2788db3ee94506a63c0a835996bb7d1a357ad69559bb025",
    "texts.bin": "452aef6c6fd34f2df52e8f675eafa669a7968143abbeec37aa8ea1d53da84632",
    "texts.manifest.json": "8c5872c17ae367e57d51732a17c39dba138d54b5412509d295b92232a2ea3c3a",
}


def test_default_synth_and_score_bytes_are_pinned(tmp_path):
    out = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(out)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir() if path.name != "config.json"} == DEFAULT_SYNTH_SHA256
    table = tmp_path / "table.jsonl"
    assert cli.main(["score", "--corpus", str(out / "corpus.jsonl"), "--out", str(table)]) == 0
    assert table.read_bytes() == (out / "table.jsonl").read_bytes()


def test_train_and_eval_pipeline(synth_dir, tmp_path):
    run = tmp_path / "run"
    code = cli.main([
        "train", "--corpus", str(synth_dir / "corpus.jsonl"),
        "--table", str(synth_dir / "table.jsonl"),
        "--image-features", str(synth_dir / "images.manifest.json"),
        "--text-features", str(synth_dir / "texts.manifest.json"),
        "--out", str(run), "--epochs", "2", "--batch-size", "12",
        "--embed-dim", "8", "--lr", "1e-3", "--seed", "0"])
    assert code == 0
    assert (run / "checkpoint.bin").exists()
    history = json.loads((run / "history.json").read_text())
    assert len(history) == 2
    echo = json.loads((run / "config.json").read_text())
    assert echo["epochs"] == 2 and echo["lambda"] == 0.07

    rpt = tmp_path / "rpt"
    code = cli.main([
        "eval", "--corpus", str(synth_dir / "corpus.jsonl"),
        "--table", str(synth_dir / "table.jsonl"),
        "--image-features", str(synth_dir / "images.manifest.json"),
        "--text-features", str(synth_dir / "texts.manifest.json"),
        "--checkpoint", str(run / "checkpoint.bin"),
        "--out", str(rpt)])
    assert code == 0
    report = json.loads((rpt / "report.json").read_text())
    assert 0.0 <= report["rsum"] <= 600.0
    assert "d_corr" in report
    csv_lines = (rpt / "distance_by_level.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "level,mean_distance"
    assert len(csv_lines) == 4


def test_config_file_with_flag_override(synth_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corpus": str(synth_dir / "corpus.jsonl"),
        "out": str(tmp_path / "from_config.jsonl"),
        "pool-split": "train",
    }))
    override = tmp_path / "override.jsonl"
    code = cli.main(["score", "--config", str(cfg), "--out", str(override)])
    assert code == 0
    assert override.exists()
    assert not (tmp_path / "from_config.jsonl").exists()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corups": "typo.jsonl"}))
    code = cli.main(["score", "--config", str(cfg), "--corpus", "x",
                     "--out", "y"])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("text, want", [
    (json.dumps({"epochs": "3"}), "'epochs' must be int, got \"3\""),
    (json.dumps({"lr": "fast"}), "'lr' must be float, got \"fast\""),
    (json.dumps({"epochs": True}), "'epochs' must be int, got true"),
    (json.dumps({"out": None}), "'out' must be str, got null"),
    ('{"epochs": 3, }', "Expecting property name enclosed in double quotes: line 1 column 15"),
    (json.dumps({"variant": "bogus"}),
     "'variant' must be one of adaptive, baseline, full, got \"bogus\""),
    ('{"seed": 1, "seed": 2}', "config key 'seed' is given twice"),
    ('{"weight_decay": 0.1, "weight-decay": 0.9}', "config key 'weight_decay' is given twice"),
], ids=["str-for-int", "str-for-float", "bool-for-int", "null-for-required", "invalid-json",
        "not-a-choice", "repeated-key", "repeated-key-two-spellings"])
def test_config_rejects_mistyped_values(tmp_path, capsys, text, want):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = cli.main(["train", "--config", str(cfg), "--corpus", "c",
                     "--table", "t", "--image-features", "i",
                     "--text-features", "x", "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{cfg}: {want}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_required_option(capsys):
    code = cli.main(["score", "--corpus", "whatever.jsonl"])
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path, capsys):
    code = cli.main(["score", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "t.jsonl")])
    assert code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_train_lambda_flag_reaches_config(synth_dir, tmp_path):
    run = tmp_path / "run"
    code = cli.main([
        "train", "--corpus", str(synth_dir / "corpus.jsonl"),
        "--table", str(synth_dir / "table.jsonl"),
        "--image-features", str(synth_dir / "images.manifest.json"),
        "--text-features", str(synth_dir / "texts.manifest.json"),
        "--out", str(run), "--epochs", "1", "--batch-size", "12",
        "--embed-dim", "8", "--lambda", "0.2", "--variant", "full"])
    assert code == 0
    echo = json.loads((run / "config.json").read_text())
    assert echo["lambda"] == 0.2
    saved = trainer.load_checkpoint(run / "checkpoint.bin")
    assert saved["config"]["loss"]["lam"] == 0.2


def test_gradcheck_passes_and_fails_by_tolerance(capsys):
    assert cli.main(["gradcheck", "--trials", "1", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck PASSED" in out
    assert cli.main(["gradcheck", "--trials", "1", "--seed", "5",
                     "--tol", "1e-300"]) == 1


def test_eval_reports_folds_when_requested(synth_dir, tmp_path):
    run = tmp_path / "run"
    cli.main([
        "train", "--corpus", str(synth_dir / "corpus.jsonl"),
        "--table", str(synth_dir / "table.jsonl"),
        "--image-features", str(synth_dir / "images.manifest.json"),
        "--text-features", str(synth_dir / "texts.manifest.json"),
        "--out", str(run), "--epochs", "1", "--batch-size", "12",
        "--embed-dim", "8"])
    rpt = tmp_path / "rpt"
    code = cli.main([
        "eval", "--corpus", str(synth_dir / "corpus.jsonl"),
        "--table", str(synth_dir / "table.jsonl"),
        "--image-features", str(synth_dir / "images.manifest.json"),
        "--text-features", str(synth_dir / "texts.manifest.json"),
        "--checkpoint", str(run / "checkpoint.bin"),
        "--out", str(rpt), "--folds", "3"])
    assert code == 0
    report = json.loads((rpt / "report.json").read_text())
    assert len(report["folded"]["folds"]) == 3


@pytest.mark.parametrize("key, value, want", [
    ("folds", 0, "--folds must be at least 1, got 0"),
    ("folds", -2, "--folds must be at least 1, got -2"),
    ("points", 1, "--points must be at least 2, got 1"),
    ("points", 0, "--points must be at least 2, got 0"),
])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_eval_checks_folds_and_points_first(tmp_path, capsys, key, value, want, route):
    # none of the inputs exists: the option is checked before any is read
    missing = {name: str(tmp_path / name) for name in
               ("corpus", "table", "image_features", "text_features", "checkpoint", "out")}
    if route == "flag":
        flags = [f"--{key}", str(value)]
    else:
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({key: value}))
        flags = ["--config", str(cfg)]
    args = [part for name, path in missing.items()
            for part in (f"--{name.replace('_', '-')}", path)]
    assert cli.main(["eval", *args, *flags]) == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, values, want", [
    ("train", {"lambda": -1}, "lambda must be non-negative, got -1.0"),
    ("train", {"tau": 0}, "tau must be positive, got 0.0"),
    ("train", {"tau": math.nan}, "tau must be positive, got nan"),
    ("train", {"lr": math.nan}, "lr must be positive, got nan"),
    ("train", {"lr": math.inf}, "lr must be finite, got inf"),
    ("train", {"weight_decay": math.nan}, "weight_decay must be finite, got nan"),
    ("train", {"weight_decay": math.inf}, "weight_decay must be finite, got inf"),
    ("train", {"decay_factor": math.nan, "decay_epoch": 1}, "decay_factor must be finite, got nan"),
    ("train", {"variant": "baseline", "alpha": math.nan}, "alpha must be finite, got nan"),
    ("train", {"lambda": math.inf}, "lambda must be finite, got inf"),
    ("synth", {"images": 1}, "images must be at least 2, got 1"),
    ("synth", {"dim": 1}, "dim must be at least 2, got 1"),
    ("synth", {"rare_vocab": 2, "levels": 4}, "rare_vocab must be at least 4, got 2"),
    ("synth", {"noise_sigma": -0.5}, "noise_sigma must be at least 0, got -0.5"),
    ("synth", {"noise_sigma": math.nan}, "noise_sigma must be at least 0, got nan"),
    ("synth", {"noise_sigma": math.inf}, "noise_sigma must be finite, got inf"),
    ("gradcheck", {"trials": 0}, "trials must be at least 1, got 0"),
    ("gradcheck", {"tol": 0}, "tol must be positive, got 0.0"),
    ("gradcheck", {"tol": -1e-4}, "tol must be positive, got -0.0001"),
    ("gradcheck", {"step": 0}, "step must be positive, got 0.0"),
], ids=["lambda", "tau", "nan-tau", "nan-lr", "inf-lr", "nan-weight-decay", "inf-weight-decay",
        "nan-decay-factor", "nan-alpha", "inf-lambda", "images", "dim", "rare-vocab",
        "noise-sigma", "nan-noise-sigma", "inf-noise-sigma", "trials", "tol-zero",
        "tol-negative", "step"])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_settings_messages_name_the_option_and_value(tmp_path, capsys, command, values, want,
                                                     route):
    """A value the library settings reject exits 2 with the option's config
    key and the value, before any input is read or output written."""
    # none of the inputs exists: the settings are checked before any is read
    required = {"train": ("corpus", "table", "image_features", "text_features", "out"),
                "synth": ("out",), "gradcheck": ()}[command]
    args = [part for name in required
            for part in (f"--{name.replace('_', '-')}", str(tmp_path / name))]
    if route == "flag":
        flags = [part for key, value in values.items()
                 for part in (f"--{key.replace('_', '-')}", str(value))]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        flags = ["--config", str(cfg)]
    assert cli.main([command, *args, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {want}\n" and captured.out == ""
    assert [path.name for path in tmp_path.iterdir()] == (["cfg.json"] if route == "config"
                                                          else [])


def test_score_names_malformed_corpus_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "image_id": "i", "text": "a dog"}\n{id: "b"}\n')
    code = cli.main(["score", "--corpus", str(corpus), "--out", str(tmp_path / "t.jsonl")])
    assert code == 2
    assert f"{corpus}:2: malformed corpus record" in capsys.readouterr().err


def _data_flags(synth_dir):
    return ["--corpus", str(synth_dir / "corpus.jsonl"),
            "--table", str(synth_dir / "table.jsonl"),
            "--image-features", str(synth_dir / "images.manifest.json"),
            "--text-features", str(synth_dir / "texts.manifest.json")]


@pytest.fixture(scope="module")
def checkpoint_bytes(synth_dir, tmp_path_factory):
    run = tmp_path_factory.mktemp("ckpt_run")
    assert cli.main(["train", *_data_flags(synth_dir), "--out", str(run),
                     "--epochs", "1", "--batch-size", "12", "--embed-dim", "8"]) == 0
    return (run / "checkpoint.bin").read_bytes()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("form", ["stem", "jsonl"])
def test_image_features_must_be_a_manifest_path(synth_dir, checkpoint_bytes, tmp_path,
                                                capsys, command, form):
    """A bare feature stem and a JSONL feature file exit 2 naming the path."""
    if form == "stem":
        path = synth_dir / "images"
    else:
        ids, feats = geometry.read_features(synth_dir / "images.manifest.json")
        path = tmp_path / "images.jsonl"
        path.write_text("".join(json.dumps({"id": i, "vec": row.tolist()}) + "\n"
                                for i, row in zip(ids, feats)))
    flags = _data_flags(synth_dir)
    flags[flags.index("--image-features") + 1] = str(path)
    if command == "eval":
        (tmp_path / "checkpoint.bin").write_bytes(checkpoint_bytes)
        flags += ["--checkpoint", str(tmp_path / "checkpoint.bin")]
    assert cli.main([command, *flags, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: expected a *.manifest.json path" in capsys.readouterr().err


def _header_end(blob: bytes) -> int:
    return 16 + int.from_bytes(blob[8:16], "little")


def _with_header(blob: bytes, edit) -> bytes:
    """The checkpoint with its JSON header passed through ``edit``."""
    header = json.loads(blob[16:_header_end(blob)])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + len(text).to_bytes(8, "little") + text + blob[_header_end(blob):]


def _rename_array(old, new):
    def edit(header):
        next(e for e in header["arrays"] if e["name"] == old)["name"] = new
    return edit


@pytest.mark.parametrize("corrupt, want", [
    (lambda b: b[:10], "no header length"),
    (lambda b: b[:_header_end(b) - 5], "truncated checkpoint header"),
    (lambda b: b[:-8], "header describes"),
    (lambda b: b + b"\x00" * 8, "header describes"),
    *[(lambda b, key=key: _with_header(b, lambda h: h.pop(key)),
       f"checkpoint header lacks {key!r}")
      for key in ("epoch", "adam_t", "rng_state", "config", "history")],
    *[(lambda b, name=name: _with_header(b, _rename_array(f"param/{name}", "param/other")),
       f"checkpoint lacks the array 'param/{name}'")
      for name in ("W_img", "b_img", "W_txt", "b_txt")],
    (lambda b: _with_header(b, lambda h: h.update(adam_t="x")),
     "checkpoint header 'adam_t' must be a non-negative integer, got \"x\""),
], ids=["short-length-prefix", "truncated-header", "truncated-array", "trailing-bytes",
        "no-epoch", "no-adam_t", "no-rng_state", "no-config", "no-history",
        "no-W_img", "no-b_img", "no-W_txt", "no-b_txt", "str-adam_t"])
def test_eval_rejects_damaged_checkpoint(synth_dir, checkpoint_bytes, tmp_path, capsys,
                                         corrupt, want):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(corrupt(checkpoint_bytes))
    code = cli.main(["eval", *_data_flags(synth_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "rpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: " in err and want in err


def test_score_rejects_duplicate_sentence_id(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    rec = '{"id": "a", "image_id": "i", "text": "a dog"}\n'
    corpus.write_text(rec + '{"id": "b", "image_id": "i", "text": "a cat"}\n' + rec)
    code = cli.main(["score", "--corpus", str(corpus), "--out", str(tmp_path / "t.jsonl")])
    assert code == 2
    assert f"{corpus}:3: duplicate sentence id 'a' (first on line 1)" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


def test_train_rejects_non_finite_features(synth_dir, tmp_path, capsys):
    ids, feats = geometry.read_features(synth_dir / "images.manifest.json")
    feats[3, 1] = np.nan
    manifest = geometry.write_features(tmp_path / "images", ids, feats)
    flags = _data_flags(synth_dir)
    flags[flags.index("--image-features") + 1] = str(manifest)
    code = cli.main(["train", *flags, "--out", str(tmp_path / "run"), "--epochs", "1",
                     "--batch-size", "12", "--embed-dim", "8"])
    assert code == 2
    assert f"{tmp_path / 'images.bin'}: row 3 (id {ids[3]!r}) is not finite" \
        in capsys.readouterr().err


def test_diverged_train_exits_two_with_one_line(synth_dir, tmp_path, capsys):
    """An lr that overflows the params exits 2 with one stderr line naming
    the epoch and the batch, and no numpy warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", *_data_flags(synth_dir), "--out", str(tmp_path / "run"),
                         "--lr", "1e308", "--epochs", "2", "--embed-dim", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: epoch 0, validation after batch 0: image row 0 is not "
                   "L2-normalized: norm nan, not 1 within 0.001\n")


@pytest.fixture(scope="module")
def val_dir(synth_dir, tmp_path_factory):
    """synth_dir's files with the sentences of the last three images moved
    to the val split."""
    out = tmp_path_factory.mktemp("val")
    for path in synth_dir.iterdir():
        if path.is_file():
            shutil.copy(path, out)
    lines = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
    last = list(dict.fromkeys(obj["image_id"] for obj in lines))[-3:]
    (out / "corpus.jsonl").write_text("".join(
        json.dumps({**obj, "split": "val" if obj["image_id"] in last else obj["split"]}) + "\n"
        for obj in lines))
    return out


_INPUT_NAMES = ("corpus.jsonl", "table.jsonl", "images.manifest.json", "texts.manifest.json",
                "images.bin", "texts.bin")


@pytest.mark.parametrize("data, val_split, want_val", [
    ("val_dir", "auto", "val"), ("synth_dir", "auto", None),
    ("val_dir", "val", "val"), ("val_dir", "none", None),
], ids=["auto-with-val", "auto-without-val", "named", "none"])
def test_train_reads_each_input_once(request, tmp_path, monkeypatch, data, val_split, want_val):
    """train opens the corpus, the table and each feature manifest and
    binary once, and hands the trainer the split that --val-split picks."""
    root = request.getfixturevalue(data)
    corpus = C.read_corpus_columns(root / "corpus.jsonl")
    split_ids = collections.defaultdict(list)
    for sid, split in zip(corpus.ids, corpus.splits):
        split_ids[split].append(sid)
    reads = collections.Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            if args and isinstance(args[0], (str, os.PathLike)) \
                    and Path(args[0]).name in _INPUT_NAMES:
                reads[name, Path(args[0]).name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((C, "read_corpus_columns"), (C, "read_table_jsonl"),
                         (geometry, "read_features"), (builtins, "open")):
        spy(module, name)
    seen = {}

    def train(dataset, config, val_dataset=None, **kwargs):
        seen.update(train=dataset, val=val_dataset)
        return trainer.TrainResult({}, [])
    monkeypatch.setattr(trainer, "train", train)
    assert cli.main(["train", *_data_flags(root), "--out", str(tmp_path / "run"),
                     "--val-split", val_split]) == 0
    monkeypatch.undo()
    assert reads == {("read_corpus_columns", "corpus.jsonl"): 1,
                     ("read_table_jsonl", "table.jsonl"): 1,
                     ("read_features", "images.manifest.json"): 1,
                     ("read_features", "texts.manifest.json"): 1,
                     **{("open", name): 1 for name in _INPUT_NAMES}}
    assert seen["train"].text_ids == split_ids["train"]
    if want_val is None:
        assert seen["val"] is None
    else:
        assert seen["val"].text_ids == split_ids[want_val]


def test_train_val_split_faults_name_the_file(synth_dir, val_dir, tmp_path, capsys):
    """A named val split without sentences, and a table that lacks a val
    sentence, exit 2 with the messages of a separate load of that split."""
    run = tmp_path / "run"
    assert cli.main(["train", *_data_flags(synth_dir), "--out", str(run),
                     "--val-split", "test"]) == 2
    assert capsys.readouterr().err == \
        f"error: no sentences for split 'test' in {synth_dir / 'corpus.jsonl'}\n"
    corpus = C.read_corpus_columns(val_dir / "corpus.jsonl")
    lacking = corpus.ids[corpus.splits.index("val")]
    table = tmp_path / "table.jsonl"
    with (val_dir / "table.jsonl").open() as fh:
        table.write_text("".join(line for line in fh if json.loads(line).get("id") != lacking))
    flags = _data_flags(val_dir)
    flags[flags.index("--table") + 1] = str(table)
    assert cli.main(["train", *flags, "--out", str(run)]) == 2
    assert capsys.readouterr().err == \
        f"error: {table}: lacks sentence {lacking!r} of {val_dir / 'corpus.jsonl'}\n"
    assert not run.exists()


@pytest.mark.parametrize("flag, value, want", [
    ("--epochs", "0", "epochs must be at least 1, got 0"),
    ("--batch-size", "1", "batch_size must be at least 2, got 1"),
    ("--embed-dim", "0", "embed_dim must be at least 1, got 0"),
    ("--lr", "0", "lr must be positive, got 0.0"),
])
def test_train_rejects_bad_recipe_before_reading(synth_dir, tmp_path, capsys, flag, value, want):
    """A recipe TrainConfig rejects exits 2 naming the field and its value,
    before any input is read (a missing corpus does not mask it) and
    without rewriting the run directory's config echo."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "config.json").write_bytes(b'{"epochs": 5}\n')
    missing = _data_flags(synth_dir)
    missing[missing.index("--corpus") + 1] = str(tmp_path / "missing.jsonl")
    for flags in (_data_flags(synth_dir), missing):
        assert cli.main(["train", *flags, "--out", str(run), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
    assert (run / "config.json").read_bytes() == b'{"epochs": 5}\n'


def _set(key, value):
    return lambda text: json.dumps({**json.loads(text), key: value})


def _set_first_id(value):
    return lambda text: json.dumps({**json.loads(text),
                                    "ids": [value, *json.loads(text)["ids"][1:]]})


@pytest.mark.parametrize("corrupt, want", [
    (lambda text: text[:len(text) // 2], "malformed manifest: "),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "rows"}),
     "manifest lacks 'rows'"),
    (_set("ids", None), "'ids' must be a list of strings or integers"),
    (_set("dim", None), "'dim' must be a non-negative integer, got null"),
    (_set("dtype", ["f64"]), "unknown dtype ['f64']"),
    (lambda text: json.dumps([json.loads(text)]), "manifest must be a JSON object"),
    (_set("rows", 1.5), "'rows' must be a non-negative integer, got 1.5"),
    (_set("rows", True), "'rows' must be a non-negative integer, got true"),
    (_set_first_id(None), "'ids' must be a list of strings or integers"),
], ids=["truncated", "no-rows", "null-ids", "null-dim", "list-dtype", "list-manifest",
        "float-rows", "bool-rows", "null-id"])
def test_eval_rejects_malformed_manifest(synth_dir, checkpoint_bytes, tmp_path, capsys,
                                         corrupt, want):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(checkpoint_bytes)
    manifest = tmp_path / "images.manifest.json"
    manifest.write_text(corrupt((synth_dir / "images.manifest.json").read_text()))
    (tmp_path / "images.bin").write_bytes((synth_dir / "images.bin").read_bytes())
    flags = _data_flags(synth_dir)
    flags[flags.index("--image-features") + 1] = str(manifest)
    code = cli.main(["eval", *flags, "--checkpoint", str(ckpt), "--out", str(tmp_path / "rpt")])
    assert code == 2
    assert f"{manifest}: {want}" in capsys.readouterr().err
    assert not (tmp_path / "rpt").exists()


@pytest.mark.parametrize("weight, flag, role", [
    ("W_img", "--image-features", "images"),
    ("W_txt", "--text-features", "texts"),
], ids=["image", "text"])
def test_eval_rejects_feature_width_of_other_checkpoint(synth_dir, checkpoint_bytes, tmp_path,
                                                        capsys, weight, flag, role):
    wide = tmp_path / "wide"
    assert cli.main(["synth", "--out", str(wide), "--images", "12", "--levels", "3",
                     "--shared-vocab", "6", "--rare-vocab", "60", "--dim", "20",
                     "--seed", "7"]) == 0
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(checkpoint_bytes)
    flags = _data_flags(synth_dir)
    manifest = wide / f"{role}.manifest.json"
    flags[flags.index(flag) + 1] = str(manifest)
    code = cli.main(["eval", *flags, "--checkpoint", str(ckpt), "--out", str(tmp_path / "rpt")])
    assert code == 2
    assert (f"{ckpt}: {weight} takes 10-dim features, but {manifest} holds 20-dim rows"
            in capsys.readouterr().err)
    assert not (tmp_path / "rpt").exists()


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    """synth_dir's dataset with 20-dim features in place of 10-dim ones."""
    out = tmp_path_factory.mktemp("wide")
    assert cli.main(["synth", "--out", str(out), "--images", "12", "--levels", "3",
                     "--shared-vocab", "6", "--rare-vocab", "60", "--dim", "20",
                     "--seed", "7"]) == 0
    return out


def _unrestorable_rng(blob: bytes) -> bytes:
    return _with_header(blob, lambda h: h.update(rng_state={"bit_generator": "MT19937"}))


# (damage to the checkpoint, or None for no file; extra flags; the feature
# flag whose manifest becomes wide_dir's; the message after "error: ", or
# its start when it ends in numpy's wording)
_RESUME_FAULTS = {
    "missing-file": (None, [], None, "[Errno 2] No such file or directory: '{ckpt}'\n"),
    "truncated": (lambda b: b[:-8], [], None,
                  "{ckpt}: checkpoint holds {short} bytes, its header describes {size}\n"),
    "rng-state": (_unrestorable_rng, [], None, "{ckpt}: bad rng_state in checkpoint: "),
    "lr-differs": (lambda b: b, ["--lr", "0.5"], None,
                   "{ckpt}: resume config disagrees with checkpoint config at 'lr'\n"),
    "image-width": (lambda b: b, [], "--image-features",
                    "{ckpt}: W_img takes 10-dim features, but {manifest} holds 20-dim rows\n"),
    "text-width": (lambda b: b, [], "--text-features",
                   "{ckpt}: W_txt takes 10-dim features, but {manifest} holds 20-dim rows\n"),
}


@pytest.mark.parametrize("fault", list(_RESUME_FAULTS))
@pytest.mark.parametrize("out_state", ["absent", "existing"])
def test_resume_checks_the_checkpoint_before_writing(synth_dir, wide_dir, checkpoint_bytes,
                                                     tmp_path, capsys, fault, out_state):
    """Every fault of the checkpoint train resumes from exits 2 naming it,
    after the data is read and before <out> is made or its config echo
    rewritten: a resumed run directory keeps the echo of its checkpoint."""
    damage, extra, swapped, want = _RESUME_FAULTS[fault]
    run = tmp_path / "run"
    if out_state == "existing":
        run.mkdir()
        (run / "config.json").write_bytes(b'{"epochs": 1}\n')
    ckpt = (run if out_state == "existing" else tmp_path) / "checkpoint.bin"
    if damage is not None:
        ckpt.write_bytes(damage(checkpoint_bytes))
    before = {path.name: path.read_bytes() for path in run.iterdir()} if run.exists() else None
    flags = _data_flags(synth_dir)
    manifest = None
    if swapped is not None:
        manifest = wide_dir / Path(flags[flags.index(swapped) + 1]).name
        flags[flags.index(swapped) + 1] = str(manifest)
    code = cli.main(["train", *flags, "--out", str(run), "--epochs", "2", "--batch-size", "12",
                     "--embed-dim", "8", "--resume", str(ckpt), *extra])
    assert code == 2
    err = capsys.readouterr().err
    size = len(checkpoint_bytes)
    assert err.startswith("error: " + want.format(ckpt=ckpt, short=size - 8, size=size,
                                                  manifest=manifest))
    assert str(ckpt) in err
    if before is None:
        assert not run.exists()
    else:
        assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_eval_rejects_unrestorable_rng_state(synth_dir, checkpoint_bytes, tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(_unrestorable_rng(checkpoint_bytes))
    code = cli.main(["eval", *_data_flags(synth_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "rpt")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: bad rng_state in checkpoint: ")
    assert not (tmp_path / "rpt").exists()


def _saved_checkpoint(path, edit) -> None:
    """A checkpoint of synth_dir's widths, saved after ``edit`` of its
    params and optimiser state, with the recipe that the resume flags of
    ``test_non_finite_checkpoint_array_exits_two`` give."""
    config = trainer.TrainConfig(embed_dim=8, batch_size=12, epochs=1)
    params = trainer.init_params(np.random.default_rng(0), 10, 10, 8)
    opt_state = trainer.init_opt_state(params)
    edit(params, opt_state)
    trainer.save_checkpoint(path, params, opt_state, 0, np.random.default_rng(1), config, [])


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("slot, value", [("param", np.nan), ("adam_m", -np.inf),
                                         ("adam_v", np.inf)])
def test_non_finite_checkpoint_array_exits_two(synth_dir, tmp_path, capsys, command, slot,
                                               value):
    """A parameter or moment array holding NaN or inf exits 2 naming the
    checkpoint and the array, before an embedding is made or <out> written."""
    ckpt = tmp_path / "checkpoint.bin"

    def poison(params, opt_state):
        arrays = params if slot == "param" else opt_state[slot[-1]]
        arrays["W_img"][0, 0] = value

    _saved_checkpoint(ckpt, poison)
    flags = (["--checkpoint", str(ckpt)] if command == "eval" else
             ["--resume", str(ckpt), "--epochs", "2", "--batch-size", "12", "--embed-dim", "8"])
    code = cli.main([command, *_data_flags(synth_dir), "--out", str(tmp_path / "out"), *flags])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {ckpt}: checkpoint array '{slot}/W_img' "
                                       f"holds NaN or inf\n")
    assert not (tmp_path / "out").exists()


def _cut(names, slots=("param", "adam_m", "adam_v")):
    """An edit for ``_saved_checkpoint`` that keeps the first 4 of the 8
    embedding columns of the named arrays in the given slots."""
    def edit(params, opt_state):
        for slot in slots:
            arrays = params if slot == "param" else opt_state[slot[-1]]
            for name in names:
                arrays[name] = arrays[name][..., :4]
    return edit


# (the arrays cut, the commands that reject them, the message after the
# checkpoint path); eval takes a checkpoint of any one embedding width
_SHAPE_FAULTS = {
    "moment": (_cut(["W_img"], ["adam_m"]), ["eval", "train"],
               "checkpoint array 'adam_m/W_img' has shape [10, 4], not [10, 8]"),
    "text-side": (_cut(["W_txt", "b_txt"]), ["eval", "train"],
                  "checkpoint array 'param/W_txt' has shape [10, 4], not [10, 8]"),
    "every-array": (_cut(trainer._PARAM_NAMES), ["train"],
                    "checkpoint array 'param/W_img' has shape [10, 4], not [10, 8]"),
}


@pytest.mark.parametrize("fault, command", [(fault, command) for fault, (_, commands, _)
                                             in _SHAPE_FAULTS.items() for command in commands])
def test_checkpoint_array_of_the_wrong_shape_exits_two(synth_dir, tmp_path, capsys, fault,
                                                       command):
    """A moment whose shape is not its parameter's, parameters that
    disagree on the embedding width, and (for a resumed run) a width other
    than --embed-dim exit 2 naming the checkpoint and the array, before
    <out> is made."""
    cut, _, want = _SHAPE_FAULTS[fault]
    ckpt = tmp_path / "checkpoint.bin"
    _saved_checkpoint(ckpt, cut)
    flags = (["--checkpoint", str(ckpt)] if command == "eval" else
             ["--resume", str(ckpt), "--epochs", "2", "--batch-size", "12", "--embed-dim", "8"])
    code = cli.main([command, *_data_flags(synth_dir), "--out", str(tmp_path / "out"), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {ckpt}: {want}\n"
    assert not (tmp_path / "out").exists()


def _assert_rejects_zero_projection(synth_dir, tmp_path, capsys, side, name, flag,
                                    command="eval"):
    """Zero projections of one side map every row of that side to norm 0:
    eval, or train resuming from the checkpoint, exits 2 naming the
    checkpoint, the manifest the row came from and the row, before <out>
    is made."""
    ckpt = tmp_path / "checkpoint.bin"

    def zero(params, opt_state):
        params[f"W_{side}"][:] = 0.0

    _saved_checkpoint(ckpt, zero)
    flags = _data_flags(synth_dir)
    extra = (["--checkpoint", str(ckpt)] if command == "eval" else
             ["--resume", str(ckpt), "--epochs", "2", "--batch-size", "12", "--embed-dim", "8"])
    code = cli.main([command, *flags, *extra, "--out", str(tmp_path / "out")])
    assert code == 2
    manifest = flags[flags.index(flag) + 1]
    assert capsys.readouterr().err == (
        f"error: {ckpt}: maps a row of {manifest} off the unit sphere: {name} row 0 is not "
        f"L2-normalized: norm 0, not 1 within 0.001\n")
    assert not (tmp_path / "out").exists()


def test_eval_rejects_checkpoint_mapping_rows_below_the_norm_floor(synth_dir, tmp_path,
                                                                    capsys):
    _assert_rejects_zero_projection(synth_dir, tmp_path, capsys, "img", "image",
                                    "--image-features")


def test_eval_rejects_checkpoint_mapping_text_rows_below_the_norm_floor(synth_dir, tmp_path,
                                                                         capsys):
    _assert_rejects_zero_projection(synth_dir, tmp_path, capsys, "txt", "text",
                                    "--text-features")


@pytest.mark.parametrize("side, name, flag", [("img", "image", "--image-features"),
                                              ("txt", "text", "--text-features")])
def test_resume_rejects_checkpoint_mapping_rows_below_the_norm_floor(synth_dir, tmp_path,
                                                                     capsys, side, name, flag):
    _assert_rejects_zero_projection(synth_dir, tmp_path, capsys, side, name, flag, "train")


def test_score_rejects_mistyped_corpus_field(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "image_id": "i", "text": "a dog"}\n'
                      '{"id": "b", "image_id": "i", "text": null}\n')
    code = cli.main(["score", "--corpus", str(corpus), "--out", str(tmp_path / "t.jsonl")])
    assert code == 2
    assert f"{corpus}:2: malformed corpus record: 'text' must be a string" \
        in capsys.readouterr().err


@pytest.mark.parametrize("edit, want", [
    (lambda row: {**row, "delta": float("nan")}, "'delta' must be finite"),
    (lambda row: {**row, "delta": 7.5}, "'delta' must lie in [0, 1]"),
], ids=["nan-delta", "delta-out-of-range"])
def test_train_rejects_bad_table_row(synth_dir, tmp_path, capsys, edit, want):
    lines = (synth_dir / "table.jsonl").read_text().splitlines()
    lines[4] = json.dumps(edit(json.loads(lines[4])), sort_keys=True)
    table = tmp_path / "table.jsonl"
    table.write_text("\n".join(lines) + "\n")
    flags = _data_flags(synth_dir)
    flags[flags.index("--table") + 1] = str(table)
    code = cli.main(["train", *flags, "--out", str(tmp_path / "run"), "--epochs", "1",
                     "--batch-size", "12", "--embed-dim", "8"])
    assert code == 2
    assert f"{table}:5: malformed table record: {want}" in capsys.readouterr().err


def _data_config(synth_dir):
    """The dataset options of _data_flags, as config-file keys."""
    flags = _data_flags(synth_dir)
    return {flag[2:].replace("-", "_"): path for flag, path in zip(flags[::2], flags[1::2])}


def test_config_route_gives_the_flag_route_bytes(synth_dir, tmp_path):
    """Integral values of float options are stored as floats, as their
    flags store them, so both routes write the same checkpoint and history."""
    settings = {"epochs": 2, "batch_size": 12, "embed_dim": 8, "lr": 1,
                "decay_epoch": 1, "decay_factor": 1}
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
    assert cli.main(["train", *_data_flags(synth_dir), *flags,
                     "--out", str(tmp_path / "flags")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_data_config(synth_dir), **settings}))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "config")]) == 0
    for name in ("checkpoint.bin", "history.json"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "config" / name).read_bytes()
    echoes = [json.loads((tmp_path / run / "config.json").read_text())
              for run in ("flags", "config")]
    for echo in echoes:
        del echo["out"]
    # dumped, so that 1 and 1.0 differ
    assert json.dumps(echoes[0], sort_keys=True) == json.dumps(echoes[1], sort_keys=True)


@pytest.mark.parametrize("command, key", [("train", "lr"), ("synth", "noise_sigma")])
def test_config_integer_too_large_for_a_float_exits_two(synth_dir, tmp_path, capsys,
                                                        command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 10 ** 400}))
    extra = _data_flags(synth_dir) if command == "train" else []
    code = cli.main([command, "--config", str(cfg), *extra, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: {key!r}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_SYNTH_KEYS = {"images": "n_images", "levels": "levels", "shared_vocab": "shared_vocab",
               "rare_vocab": "rare_vocab", "dim": "feature_dim",
               "noise_sigma": "noise_sigma", "seed": "seed"}
_TRAIN_KEYS = ("variant", "embed_dim", "batch_size", "epochs", "lr", "weight_decay",
               "warmup_epochs", "decay_epoch", "decay_factor", "seed")
# every option whose default the library owns: (command, key, owner, name)
_LIBRARY_DEFAULTS = (
    ("score", "pool_split", C.build_table, "pool_split"),
    *(("synth", key, datagen.SynthSpec, name) for key, name in _SYNTH_KEYS.items()),
    *(("train", key, trainer.TrainConfig, key) for key in _TRAIN_KEYS),
    ("train", "alpha", losses.LossConfig, "alpha"),
    ("train", "tau", losses.LossConfig, "tau"),
    ("train", "lambda", losses.LossConfig, "lam"),
    ("eval", "points", evaluation.evaluate, "n_points"),
    ("gradcheck", "seed", losses.run_gradcheck, "seed"),
    ("gradcheck", "trials", losses.run_gradcheck, "trials"),
    ("gradcheck", "step", losses.run_gradcheck, "h"),
    ("gradcheck", "tol", losses.run_gradcheck, "tol"),
)
# settings fields no option sets
_LIBRARY_ONLY = {"beta1", "beta2", "adam_eps", "loss", "eps_delta", "eps_dist",
                 "use_hardest_mining"}


def test_cli_defaults_are_the_library_defaults():
    rows = {(command, row[0]): row for command, rows in cli._OPTIONS.items() for row in rows}
    for command, key, owner, name in _LIBRARY_DEFAULTS:
        _, type_, default, *_ = rows.pop((command, key))
        if isinstance(owner, type):
            want = getattr(owner(), name)
        else:
            want = inspect.signature(owner).parameters[name].default
        assert type(default) is type_ and repr(default) == repr(want), (command, key)
    # the rest are required or the CLI's own
    assert {key for (_, key), row in rows.items() if row[2] is not cli.REQUIRED} \
        == {"split", "val_split", "folds", "resume"}


@pytest.fixture
def built(monkeypatch):
    """The settings objects synth and train hand to the library, whose
    dataset writer and trainer are stubbed out."""
    seen = {}

    def write_dataset(out, spec):
        seen["synth"] = spec
        Path(out).mkdir(parents=True, exist_ok=True)
        return {}

    def train(dataset, config, **kwargs):
        seen["train"] = config
        return trainer.TrainResult({}, [])

    monkeypatch.setattr(datagen, "write_dataset", write_dataset)
    monkeypatch.setattr(trainer, "train", train)
    return seen


def test_default_options_build_the_default_settings(synth_dir, tmp_path, built):
    assert cli.main(["synth", "--out", str(tmp_path / "synth")]) == 0
    assert cli.main(["train", *_data_flags(synth_dir), "--out", str(tmp_path / "train")]) == 0
    # repr tells 6 from 6.0, which == does not
    assert repr(built["synth"]) == repr(datagen.SynthSpec())
    assert repr(built["train"]) == repr(trainer.TrainConfig())


def test_every_settings_field_is_an_option_or_library_only(synth_dir, tmp_path, built):
    """Every option set away from its default through a config file: each
    field of the built settings moves, unless no option sets it."""
    synth = {"images": 3, "levels": 2, "shared_vocab": 5, "rare_vocab": 50, "dim": 9,
             "noise_sigma": 0.5, "seed": 4}
    train = {"variant": "adaptive", "embed_dim": 7, "batch_size": 5, "epochs": 3, "lr": 0.25,
             "weight_decay": 0.5, "warmup_epochs": 1, "decay_epoch": 2, "decay_factor": 0.5,
             "seed": 9, "alpha": 0.3, "tau": 2, "lambda": 0.5}
    for command, values, extra in (("synth", synth, {}),
                                   ("train", train, _data_config(synth_dir))):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({**values, **extra}))
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    fields = set()
    for obj in (built["synth"], built["train"], built["train"].loss):
        fresh = type(obj)()
        fields |= {f.name for f in dataclasses.fields(obj)}
        unset = {f.name for f in dataclasses.fields(obj)
                 if getattr(obj, f.name) == getattr(fresh, f.name)}
        assert unset <= _LIBRARY_ONLY, type(obj).__name__
    assert _LIBRARY_ONLY <= fields

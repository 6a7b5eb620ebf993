import json

import numpy as np
import pytest

from descmatch import cli
from descmatch import corpus as C
from descmatch import datagen, geometry, trainer


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
], ids=["str-for-int", "str-for-float", "bool-for-int", "null-for-required", "invalid-json",
        "not-a-choice"])
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

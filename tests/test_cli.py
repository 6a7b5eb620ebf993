import dataclasses
import inspect
import json
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

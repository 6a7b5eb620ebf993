"""A damaged input file never crashes the command line.

One input of ``score``, ``train`` (resuming from a checkpoint) or ``eval``
is mutated: one JSON value in a corpus line, a table row, a feature
manifest, the checkpoint header or the command's config file becomes
null, true, 1.5, "x", [] or {}, or the file is cut at a random byte.
``cli.main`` must then return 0 (the damage did not matter) or 2 (bad
input) and never raise, and an exit 2 must name the damaged file.  Config
damage is left out of the naming check: a config value may itself be a
path, which the message then names instead.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import shared_oracles as oracles
from descmatch import cli

REPLACEMENTS = (None, True, 1.5, "x", [], {})

DATA = {"corpus": "corpus.jsonl", "table": "table.jsonl",
        "image_features": "images.manifest.json", "text_features": "texts.manifest.json"}
CONFIGS = {
    "score": {"corpus": "corpus.jsonl", "out": "scored.jsonl"},
    "train": {**DATA, "out": "run", "epochs": 2, "batch_size": 12, "embed_dim": 8,
              "resume": "checkpoint.bin"},
    "eval": {**DATA, "checkpoint": "checkpoint.bin", "out": "report", "folds": 2,
             "points": 5},
}
TARGETS = {
    "score": ("corpus", "config"),
    "train": ("corpus", "table", "manifest", "checkpoint", "config"),
    "eval": ("corpus", "table", "manifest", "checkpoint", "config"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """20-image synth data and a one-epoch checkpoint of the train config."""
    root = tmp_path_factory.mktemp("inputs")
    assert cli.main(["synth", "--out", str(root), "--images", "20", "--levels", "3",
                     "--shared-vocab", "6", "--rare-vocab", "60", "--dim", "10",
                     "--seed", "3"]) == 0
    start = {key: value for key, value in CONFIGS["train"].items() if key != "resume"}
    (root / "start.json").write_text(json.dumps({**start, "epochs": 1}))
    cwd = os.getcwd()
    try:
        os.chdir(root)
        assert cli.main(["train", "--config", "start.json"]) == 0
    finally:
        os.chdir(cwd)
    shutil.copy(root / "run" / "checkpoint.bin", root / "checkpoint.bin")
    for command, config in CONFIGS.items():
        (root / f"{command}.json").write_text(json.dumps(config))
    return root


@st.composite
def mutated(draw, value, top=True):
    """``value`` with one value nested in it replaced by one of
    REPLACEMENTS.  Below the top, the container drawn may itself be the
    value replaced."""
    if isinstance(value, (dict, list)) and value and (top or draw(st.booleans())):
        key = draw(st.sampled_from(list(value) if isinstance(value, dict)
                                   else range(len(value))))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = draw(mutated(value[key], top=False))
        return copy
    return draw(st.sampled_from(REPLACEMENTS))


def _replace_value(draw, target: str, data: bytes) -> bytes:
    if target in ("corpus", "table"):
        lines = [json.loads(line) for line in data.decode().splitlines()]
        return "".join(json.dumps(obj) + "\n" for obj in draw(mutated(lines))).encode()
    if target == "checkpoint":
        return oracles.with_header(data, lambda header: draw(mutated(header)))
    return json.dumps(draw(mutated(json.loads(data)))).encode()


@st.composite
def damage(draw, target: str, data: bytes) -> bytes:
    if draw(st.sampled_from(["truncate", "replace", "replace"])) == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    return _replace_value(draw, target, data)


@pytest.mark.parametrize("command, target", [(command, target) for command in TARGETS
                                             for target in TARGETS[command]])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_damaged_input_exits_zero_or_two(inputs, command, target, data):
    if target == "manifest":
        name = data.draw(st.sampled_from([DATA["image_features"], DATA["text_features"]]))
    elif target == "config":
        name = f"{command}.json"
    else:
        name = {**DATA, "checkpoint": "checkpoint.bin"}[target]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for path in inputs.iterdir():
            if path.is_file():
                shutil.copy(path, work)
        path = Path(work) / name
        path.write_bytes(data.draw(damage(target, path.read_bytes())))
        err = io.StringIO()
        try:
            os.chdir(work)
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", f"{command}.json"])
        finally:
            os.chdir(cwd)
    assert code in (0, 2)
    if code == 2 and target != "config":
        assert name in err.getvalue()


def _one_image(corpus: bytes) -> bytes:
    """The corpus lines of its first training image."""
    lines = [json.loads(line) for line in corpus.decode().splitlines()]
    first = next(obj["image_id"] for obj in lines if obj.get("split", "train") == "train")
    return "".join(json.dumps(obj) + "\n" for obj in lines
                   if obj["image_id"] == first and obj.get("split", "train") == "train").encode()


def _no_config(checkpoint: bytes) -> bytes:
    """The checkpoint with an empty training config in its header."""
    return oracles.with_header(checkpoint, lambda header: {**header, "config": {}})


# (command, damaged file, damage, config changes, text the message must hold)
EXAMPLES = {
    "score-empty-corpus": ("score", "corpus.jsonl", lambda data: b"", {},
                           ["corpus.jsonl: pool split 'train' is empty"]),
    "train-one-image": ("train", "corpus.jsonl", _one_image, {},
                        ["corpus.jsonl:", "split 'train' has 1"]),
    "eval-one-image-two-folds": ("eval", "corpus.jsonl", _one_image, {},
                                 ["corpus.jsonl:", "split 'train' has 1", "--folds 2"]),
    "resume-config-differs": ("train", None, None, {"lr": 0.5},
                              ["checkpoint.bin:", "at 'lr'"]),
    "resume-config-empty": ("train", "checkpoint.bin", _no_config, {},
                            ["checkpoint.bin:", "at 'embed_dim'"]),
}


@pytest.mark.parametrize("case", list(EXAMPLES))
def test_exit_two_names_the_file(inputs, tmp_path, capsys, case):
    command, name, damage_fn, changes, want = EXAMPLES[case]
    for path in inputs.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path)
    if damage_fn is not None:
        path = tmp_path / name
        path.write_bytes(damage_fn(path.read_bytes()))
    config = {**CONFIGS[command], **changes}
    (tmp_path / f"{command}.json").write_text(json.dumps(config))
    cwd = os.getcwd()
    try:
        os.chdir(tmp_path)
        code = cli.main([command, "--config", f"{command}.json"])
    finally:
        os.chdir(cwd)
    err = capsys.readouterr().err
    assert code == 2
    for text in want:
        assert text in err

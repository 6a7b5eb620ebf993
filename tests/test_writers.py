"""Each file writer's round trip: a value of any type in one field of an
otherwise valid input is either refused by the writer, with ValueError
before its target is opened, or written so that its reader gives it back
(ids as strings).  The values are JSON's types and the numpy scalars that
look like them."""

import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from descmatch import corpus as C
from descmatch import geometry as G

_TEXTS = st.one_of(st.sampled_from(["a", "b", "1", "train"]), st.text(max_size=3))
_FLOATS = st.floats()

VALUES = st.one_of(
    _TEXTS, st.integers(-2**64, 2**64), _FLOATS, st.booleans(), st.none(),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats(width=32).map(np.float32),
    _FLOATS.map(np.float64), _TEXTS.map(np.str_))

_KEPT = b"kept\n"


def refused_or_read_back(data, names, write, read, want) -> None:
    """Run ``write`` on a new directory in which each of the targets
    ``names`` is absent or, if drawn so, holds `_KEPT`.  Either the writer
    raises ValueError and every target is as it was, or ``read`` of the
    directory gives ``want``."""
    exists = data.draw(st.booleans(), label="targets exist")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if exists:
            for name in names:
                (work / name).write_bytes(_KEPT)
        try:
            write(work)
        except ValueError:
            for name in names:
                assert (work / name).read_bytes() == _KEPT if exists else not (work / name).exists()
            return
        assert read(work) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corpus_writer_refuses_or_round_trips(data):
    cols = {"ids": ["a", "b", "c"], "image_ids": ["i", "i", "j"],
            "texts": ["a dog", "a red dog", "a cat"], "splits": ["train", "val", "test"],
            "levels": [1, 2, None]}
    cols[data.draw(st.sampled_from(list(cols)))][data.draw(st.integers(0, 2))] = data.draw(VALUES)
    columns = C.CorpusColumns(**cols)
    refused_or_read_back(data, ["corpus.jsonl"],
                         lambda d: C.write_corpus_columns(d / "corpus.jsonl", columns),
                         lambda d: C.read_corpus_columns(d / "corpus.jsonl"), columns)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_writer_refuses_or_round_trips(data):
    rows = {"id": ["a", "b", "c"], "delta": [0.0, 0.5, 1.0], "raw": [1.0, 2.0, 3.0]}
    extremes = {"raw_min": 1.0, "raw_max": 3.0}
    field, value = data.draw(st.sampled_from([*rows, *extremes])), data.draw(VALUES)
    if field in extremes:
        extremes[field] = value
    else:
        rows[field][data.draw(st.integers(0, 2))] = value
    table = C.DescriptivenessTable(scores=dict(zip(rows["id"], rows["delta"])),
                                   raw_scores=dict(zip(rows["id"], rows["raw"])), **extremes)
    refused_or_read_back(data, ["table.jsonl"],
                         lambda d: C.write_table_jsonl(d / "table.jsonl", table),
                         lambda d: C.read_table_jsonl(d / "table.jsonl"), table)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_feature_writer_refuses_or_round_trips(data):
    ids = ["a", "b", "c"]
    ids[data.draw(st.integers(0, 2))] = data.draw(VALUES)
    matrix = np.arange(6.0).reshape(3, 2)
    refused_or_read_back(data, ["f.manifest.json", "f.bin"],
                         lambda d: G.write_features(d / "f", ids, matrix),
                         lambda d: G.read_features(d / "f.manifest.json")[0],
                         [str(v) for v in ids])

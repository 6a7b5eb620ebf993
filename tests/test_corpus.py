import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from descmatch import corpus as C

THREE_DOCS = [
    C.SentenceRecord("s1", "i1", "a dog"),
    C.SentenceRecord("s2", "i2", "a spotted dog"),
    C.SentenceRecord("s3", "i3", "a zebra"),
]


def test_tokenize_folds_case_and_splits_punctuation():
    assert C.tokenize("It's 3 dogs!").tokens == ("it", "s", "3", "dogs")
    assert C.tokenize("  ").tokens == ()
    assert C.tokenize("foo-bar_baz").tokens == ("foo", "bar", "baz")


def test_tfidf_worked_example():
    pool = C.build_pool(C.tokenize(r.text) for r in THREE_DOCS)
    sent = C.tokenize("a dog")
    # (1/2) * ln(3/2)
    assert C.tfidf("dog", sent, pool) == pytest.approx(0.5 * math.log(1.5), abs=1e-12)
    # "a" is in every document, so its idf is zero
    assert C.tfidf("a", sent, pool) == 0.0


def test_tfidf_rejects_empty_inputs():
    pool = C.build_pool(C.tokenize(r.text) for r in THREE_DOCS)
    with pytest.raises(ValueError):
        C.tfidf("dog", C.TokenSequence(()), pool)
    empty_pool = C.build_pool([])
    with pytest.raises(ValueError):
        C.tfidf("dog", C.tokenize("a dog"), empty_pool)


def test_smoothing_substitutes_unit_doc_freq():
    pool = C.build_pool((C.tokenize(r.text) for r in THREE_DOCS), smoothing=True)
    sent = C.tokenize("unseen")
    assert C.tfidf("unseen", sent, pool) == pytest.approx(math.log(3.0), abs=1e-12)
    strict = C.build_pool((C.tokenize(r.text) for r in THREE_DOCS), smoothing=False)
    with pytest.raises(ValueError):
        C.tfidf("unseen", sent, strict)


def test_raw_descriptiveness_worked_examples():
    pool = C.build_pool(C.tokenize(r.text) for r in THREE_DOCS)
    assert C.raw_descriptiveness(C.tokenize("a spotted dog"), pool) == pytest.approx(
        (math.log(3.0) + math.log(1.5)) / 3.0, abs=1e-12)
    assert C.raw_descriptiveness(C.tokenize("a zebra"), pool) == pytest.approx(
        math.log(3.0) / 2.0, abs=1e-12)


def test_raw_descriptiveness_invariant_under_exact_repetition():
    pool = C.build_pool(C.tokenize(r.text) for r in THREE_DOCS)
    once = C.raw_descriptiveness(C.tokenize("a spotted dog"), pool)
    twice = C.raw_descriptiveness(C.tokenize("a spotted dog a spotted dog"), pool)
    assert twice == pytest.approx(once, abs=1e-12)


def test_normalize_scores_endpoints_exact():
    table = C.normalize_scores({"lo": 0.2, "mid": 0.35, "hi": 0.9})
    assert table.scores["lo"] == 0.0
    assert table.scores["hi"] == 1.0
    assert 0.0 < table.scores["mid"] < 1.0
    assert table.raw_min == 0.2 and table.raw_max == 0.9


def test_normalize_scores_degenerate_range_maps_to_half():
    table = C.normalize_scores({"a": 0.4, "b": 0.4})
    assert table.scores == {"a": 0.5, "b": 0.5}


def test_build_table_worked_values():
    _, table = C.build_table(THREE_DOCS)
    assert table.scores["s1"] == 0.0
    assert table.scores["s3"] == 1.0
    assert table.scores["s2"] == pytest.approx(0.861654166907052, abs=1e-12)


def test_out_of_pool_scores_are_clamped():
    pool, table = C.build_table(THREE_DOCS)
    # all-rare sentence lands above the train max
    assert C.score_out_of_pool(C.tokenize("green zebra stripes"), pool, table) == 1.0
    # an all-common sentence lands below the train min
    assert C.score_out_of_pool(C.tokenize("a a a"), pool, table) == 0.0


def test_build_table_scores_non_pool_splits_against_train_pool():
    records = THREE_DOCS + [
        C.SentenceRecord("v1", "i4", "a zebra dog", split="val"),
        C.SentenceRecord("t1", "i5", "a", split="test"),
    ]
    pool, table = C.build_table(records)
    assert set(table.scores) == {"s1", "s2", "s3", "v1", "t1"}
    # train rows carry the exact in-pool normalized values
    _, train_only = C.build_table(THREE_DOCS)
    for sid in ("s1", "s2", "s3"):
        assert table.scores[sid] == train_only.scores[sid]
    assert 0.0 <= table.scores["v1"] <= 1.0
    assert table.scores["t1"] == 0.0


def test_build_table_rejects_empty_pool_and_empty_sentences():
    with pytest.raises(ValueError):
        C.build_table([C.SentenceRecord("v", "i", "x", split="val")])
    with pytest.raises(ValueError):
        C.build_table([C.SentenceRecord("s", "i", "!!!")])
    with pytest.raises(ValueError):
        C.build_table(THREE_DOCS, pool_split="nope")


def test_corpus_jsonl_round_trip(tmp_path):
    records = THREE_DOCS + [
        C.SentenceRecord("s4", "i4", "a dog on grass", split="val", level=2)]
    path = tmp_path / "corpus.jsonl"
    C.write_corpus_jsonl(path, records)
    assert C.read_corpus_jsonl(path) == records


def test_corpus_jsonl_rejects_bad_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x", "image_id": "i", "text": "t", "split": "weird"}\n')
    with pytest.raises(ValueError, match="bad split"):
        C.read_corpus_jsonl(path)
    path.write_text('{"image_id": "i", "text": "t"}\n')
    with pytest.raises(ValueError, match="malformed"):
        C.read_corpus_jsonl(path)


def test_corpus_jsonl_names_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x", "image_id": "i", "text": "t"}\n{id: "y"}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: malformed corpus record: Expecting property name"):
        C.read_corpus_jsonl(path)
    path.write_text('[1, 2]\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: malformed corpus record"):
        C.read_corpus_jsonl(path)


def test_table_jsonl_names_malformed_line(tmp_path):
    path = tmp_path / "table.jsonl"
    good = '{"raw_min": 0.0, "raw_max": 1.0}\n{"id": "s1", "delta": 0.5, "raw": 0.5}\n'
    path.write_text(good + '{"id": "s2", "delta": 0.5,\n')
    with pytest.raises(ValueError, match=r"table\.jsonl:3: malformed table record"):
        C.read_table_jsonl(path)
    path.write_text(good + '{"id": "s2", "delta": "high", "raw": 0.5}\n')
    with pytest.raises(ValueError, match=r"table\.jsonl:3: .*high"):
        C.read_table_jsonl(path)
    path.write_text('{"raw_min": 0.0, "raw_max": \n')
    with pytest.raises(ValueError, match=r"table\.jsonl:1: malformed table header"):
        C.read_table_jsonl(path)


def test_table_jsonl_round_trip_is_bit_exact(tmp_path):
    _, table = C.build_table(THREE_DOCS)
    path = tmp_path / "table.jsonl"
    C.write_table_jsonl(path, table)
    loaded = C.read_table_jsonl(path)
    assert loaded.scores == table.scores
    assert loaded.raw_min == table.raw_min
    assert loaded.raw_max == table.raw_max


def test_table_jsonl_rejects_missing_header(tmp_path):
    path = tmp_path / "table.jsonl"
    path.write_text('{"id": "s1", "delta": 0.5, "raw": 0.5}\n')
    with pytest.raises(ValueError, match="header"):
        C.read_table_jsonl(path)


# ---------------------------------------------------------------------------
# property tests

words = st.sampled_from([f"w{k}" for k in range(30)])
sentences = st.lists(words, min_size=1, max_size=10).map(" ".join)


@st.composite
def corpora(draw, max_sentences=25):
    texts = draw(st.lists(sentences, min_size=1, max_size=max_sentences))
    return [C.SentenceRecord(f"s{k}", f"i{k}", t) for k, t in enumerate(texts)]


def brute_force_raw(text: str, texts: list[str]) -> float:
    """Independent double-loop TF-IDF sum over distinct words."""
    tokens = C.tokenize(text).tokens
    total = 0.0
    for word in dict.fromkeys(tokens):
        tf = tokens.count(word) / len(tokens)
        df = sum(1 for other in texts if word in C.tokenize(other).tokens)
        total += tf * math.log(len(texts) / max(df, 1))
    return total


@settings(max_examples=50, deadline=None)
@given(corpora())
def test_raw_matches_brute_force(records):
    pool = C.build_pool(C.tokenize(r.text) for r in records)
    texts = [r.text for r in records]
    for r in records:
        got = C.raw_descriptiveness(C.tokenize(r.text), pool)
        assert got == pytest.approx(brute_force_raw(r.text, texts), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(corpora())
def test_table_bounds_and_endpoints(records):
    _, table = C.build_table(records)
    vals = np.array(list(table.scores.values()))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    raws = np.array(list(table.raw_scores.values()))
    if raws.min() < raws.max():
        assert vals.min() == 0.0 and vals.max() == 1.0
    else:
        assert np.all(vals == 0.5)


@settings(max_examples=30, deadline=None)
@given(corpora(), sentences)
def test_out_of_pool_clamp_idempotent(records, text):
    pool, table = C.build_table(records)
    first = C.score_out_of_pool(C.tokenize(text), pool, table)
    assert 0.0 <= first <= 1.0

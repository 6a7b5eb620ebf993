import dataclasses
import json
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import shared_oracles as oracles
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


def _val(sid, text):
    return C.SentenceRecord(sid, "iq", text, split="val")


def test_tfidf_worked_example():
    _, table = C.build_table(THREE_DOCS + [_val("q", "a")])
    # (1/2) * ln(3/3) + (1/2) * ln(3/2)
    assert table.raw_scores["s1"] == pytest.approx(0.5 * math.log(1.5), abs=1e-12)
    # "a" is in every document, so its idf is zero
    assert table.raw_scores["q"] == 0.0


def test_smoothing_substitutes_unit_doc_freq():
    doc_freq, table = C.build_table(THREE_DOCS + [_val("q", "unseen")])
    assert table.raw_scores["q"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert "unseen" not in doc_freq


def test_raw_descriptiveness_worked_examples():
    _, table = C.build_table(THREE_DOCS)
    assert table.raw_scores["s2"] == pytest.approx(
        (math.log(3.0) + math.log(1.5)) / 3.0, abs=1e-12)
    assert table.raw_scores["s3"] == pytest.approx(math.log(3.0) / 2.0, abs=1e-12)


def test_raw_descriptiveness_invariant_under_exact_repetition():
    _, table = C.build_table(THREE_DOCS + [_val("q", "a spotted dog a spotted dog")])
    assert table.raw_scores["q"] == pytest.approx(table.raw_scores["s2"], abs=1e-12)


def test_normalize_scores_endpoints_exact():
    records = [C.SentenceRecord(sid, "i", text) for sid, text in
               (("lo", "a"), ("mid", "a b"), ("mid2", "a b"), ("hi", "c"))]
    _, table = C.build_table(records)
    assert table.scores["lo"] == 0.0
    assert table.scores["hi"] == 1.0
    assert 0.0 < table.scores["mid"] < 1.0
    assert table.raw_min == table.raw_scores["lo"] and table.raw_max == table.raw_scores["hi"]


def test_normalize_scores_degenerate_range_maps_to_half():
    _, table = C.build_table([C.SentenceRecord("a", "i", "x y"), C.SentenceRecord("b", "i", "y x"),
                              _val("q", "z")])
    assert table.scores == {"a": 0.5, "b": 0.5, "q": 0.5}


def test_build_table_worked_values():
    _, table = C.build_table(THREE_DOCS)
    assert table.scores["s1"] == 0.0
    assert table.scores["s3"] == 1.0
    assert table.scores["s2"] == pytest.approx(0.861654166907052, abs=1e-12)


def test_out_of_pool_scores_are_clamped():
    _, table = C.build_table(THREE_DOCS + [_val("rare", "green zebra stripes"),
                                           _val("common", "a a a")])
    # all-rare sentence lands above the train max
    assert table.raw_scores["rare"] > table.raw_max and table.scores["rare"] == 1.0
    # an all-common sentence lands below the train min
    assert table.raw_scores["common"] < table.raw_min and table.scores["common"] == 0.0


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


def test_build_table_rejects_empty_pool_and_empty_sentences(monkeypatch):
    with pytest.raises(ValueError, match="pool split 'train' is empty"):
        C.build_table([C.SentenceRecord("v", "i", "x", split="val")])
    with pytest.raises(ValueError, match="'s' has no tokens"):
        C.build_table([C.SentenceRecord("s", "i", "!!!")])
    with pytest.raises(ValueError, match="'q' has no tokens"):
        C.build_table(THREE_DOCS + [_val("q", "?!")])
    monkeypatch.setattr(C, "_BLOCK_RECORDS", 2)
    with pytest.raises(ValueError, match="'q' has no tokens"):
        C.build_table(THREE_DOCS + [C.SentenceRecord("p", "i", "x"), _val("q", "?!"), _val("r", "")])
    with pytest.raises(ValueError):
        C.build_table(THREE_DOCS, pool_split="nope")
    with pytest.raises(ValueError, match="duplicate sentence id 's1'"):
        C.build_table(THREE_DOCS + [C.SentenceRecord("s1", "i9", "a cat", split="val")])


def test_corpus_jsonl_round_trip(tmp_path):
    records = THREE_DOCS + [
        C.SentenceRecord("s4", "i4", "a dog on grass", split="val", level=2)]
    path = tmp_path / "corpus.jsonl"
    C.write_corpus_jsonl(path, records)
    assert C.read_corpus_jsonl(path) == records


def test_read_records_behave_like_records_built_by_keyword(tmp_path):
    """`read_corpus_jsonl` sets each field through its slot, bypassing
    ``__init__``: the records compare, hash and print like constructed
    ones, stay frozen and go through ``dataclasses.replace``.  Each field
    is set from the column named after it plus "s", and no
    ``__post_init__`` exists for that path to skip."""
    names = [f.name for f in dataclasses.fields(C.SentenceRecord)]
    assert list(C._RECORD_FIELDS) == names
    assert [n + "s" for n in names] == [f.name for f in dataclasses.fields(C.CorpusColumns)]
    assert not hasattr(C.SentenceRecord, "__post_init__")
    built = [C.SentenceRecord(id=sid, image_id=f'i"{k // 2}', text=f"a dog {k}",
                              split=C.VALID_SPLITS[k % 3], level=[None, 0, -3, 2**63 - 1][k % 4])
             for k, sid in enumerate(ids_needing_escapes + ["007", "12"])]
    C.write_corpus_jsonl(tmp_path / "corpus.jsonl", built)
    read = C.read_corpus_jsonl(tmp_path / "corpus.jsonl")
    assert [type(r) for r in read] == [C.SentenceRecord] * len(built)
    assert read == built
    assert list(map(hash, read)) == list(map(hash, built))
    assert list(map(repr, read)) == list(map(repr, built))
    for r, b in zip(read, built):
        assert not hasattr(r, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.text = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.level
        assert r.text == b.text
        assert dataclasses.replace(r, split="val", level=7) == \
            C.SentenceRecord(b.id, b.image_id, b.text, "val", 7)


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
    path.write_text('{"raw_min": NaN, "raw_max": 1.0}\n')
    with pytest.raises(ValueError, match=r"table\.jsonl:1: malformed table header: .*finite"):
        C.read_table_jsonl(path)


@pytest.mark.parametrize("value, want", [
    ("true", "'raw_min' must be a number, got true"),
    ('"1.5"', "'raw_min' must be a number, got \"1.5\""),
    ("null", "'raw_min' must be a number, got null"),
    ("1" + "0" * 400, "int too large to convert to float"),
], ids=["bool", "string", "null", "huge-int"])
def test_table_header_values_must_be_numbers(tmp_path, value, want):
    path = tmp_path / "table.jsonl"
    path.write_text('{"raw_max": 2.0, "raw_min": %s}\n{"delta": 0.5, "id": "a", "raw": 1.5}\n'
                    % value)
    with pytest.raises(ValueError) as exc:
        C.read_table_jsonl(path)
    assert str(exc.value) == f"{path}:1: malformed table header: {want}"


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


@settings(max_examples=50, deadline=None)
@given(corpora())
def test_raw_matches_brute_force(records):
    _, table = C.build_table(records)
    tokens = [C.tokenize(r.text).tokens for r in records]
    freq = oracles.doc_freq(tokens)
    for r, toks in zip(records, tokens):
        assert table.raw_scores[r.id] == pytest.approx(oracles.tfidf_raw(toks, freq, len(records)),
                                                       abs=1e-9)


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
    _, table = C.build_table(records + [_val("q", text)])
    assert 0.0 <= table.scores["q"] <= 1.0


# ---------------------------------------------------------------------------
# The batched corpus path against the brute-force and per-line oracles


def build_table_oracle(records, pool_split="train"):
    """build_table by brute force: doc freq from a Counter over the pool's
    word sets, keyed in order of first occurrence over all records, then
    ``oracles.tfidf_raw`` per sentence."""
    tokens = {r.id: C.tokenize(r.text).tokens for r in records}
    pool_ids = [r.id for r in records if r.split == pool_split]
    counts = oracles.doc_freq(tokens[sid] for sid in pool_ids)
    doc_freq = {w: counts[w] for toks in tokens.values() for w in toks if counts[w]}
    raws = {sid: oracles.tfidf_raw(toks, counts, len(pool_ids)) for sid, toks in tokens.items()}
    lo, hi = min(raws[sid] for sid in pool_ids), max(raws[sid] for sid in pool_ids)
    scores = {sid: 0.5 if hi == lo else min(1.0, max(0.0, (r - lo) / (hi - lo)))
              for sid, r in raws.items()}
    return doc_freq, C.DescriptivenessTable(scores, raws, lo, hi)


def _field(obj, key):
    """``obj[key]``, a missing key named as missing."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"missing {key!r}") from None


def read_corpus_per_line(path):
    """The per-line corpus reader, with the field types read_corpus_jsonl
    enforces."""
    records, first_line = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                split = obj.get("split", "train")
                if split not in C.VALID_SPLITS:
                    raise ValueError(f"bad split {split!r}")
                level = obj.get("level")
                sid, image_id, text = (_field(obj, key) for key in ("id", "image_id", "text"))
                for name, value in (("id", sid), ("image_id", image_id)):
                    if type(value) not in (str, int):
                        raise ValueError(f"{name!r} must be a string or an integer")
                if type(text) is not str:
                    raise ValueError("'text' must be a string")
                if level is not None and type(level) is not int:
                    raise ValueError("'level' must be an integer or null")
                if level is not None and not -2**63 <= level < 2**63:
                    raise ValueError("'level' must be an integer in [-2**63, 2**63) or null")
                records.append(C.SentenceRecord(str(sid), str(image_id), text, split, level))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed corpus record: {exc}") from exc
            sid = records[-1].id
            if sid in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate sentence id {sid!r} "
                                 f"(first on line {first_line[sid]})")
            first_line[sid] = lineno
    return records


def read_table_per_line(path):
    """The per-line table reader, with the row checks read_table_jsonl
    enforces."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        scores, raws, first_line = {}, {}, {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                delta, sid, raw = (_field(obj, key) for key in ("delta", "id", "raw"))
                for name, value in (("delta", delta), ("raw", raw)):
                    if type(value) not in (int, float):
                        raise ValueError(f"{name!r} must be a number, got {json.dumps(value)}")
                if type(sid) not in (str, int):
                    raise ValueError(f"'id' must be a string or an integer, got {json.dumps(sid)}")
                delta, sid, raw = float(delta), str(sid), float(raw)
                for name, value in (("delta", delta), ("raw", raw)):
                    if not math.isfinite(value):
                        raise ValueError(f"{name!r} must be finite, got {value!r}")
                if not 0.0 <= delta <= 1.0:
                    raise ValueError(f"'delta' must lie in [0, 1], got {delta!r}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed table record: {exc}") from exc
            if sid in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate sentence id {sid!r} "
                                 f"(first on line {first_line[sid]})")
            first_line[sid] = lineno
            scores[sid], raws[sid] = delta, raw
    return C.DescriptivenessTable(scores=scores, raw_scores=raws,
                                  raw_min=float(header["raw_min"]),
                                  raw_max=float(header["raw_max"]))


def write_table_per_line(path, table):
    """The json.dumps writer, one call per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"raw_min": table.raw_min, "raw_max": table.raw_max},
                            sort_keys=True) + "\n")
        for sid, delta in table.scores.items():
            fh.write(json.dumps({"id": sid, "delta": delta, "raw": table.raw_scores[sid]},
                                sort_keys=True) + "\n")


def write_corpus_per_line(path, records):
    """The json.dumps writer, one call per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            obj = {"id": r.id, "image_id": r.image_id, "text": r.text, "split": r.split}
            if r.level is not None:
                obj["level"] = r.level
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _assert_tables_identical(got, want):
    (gfreq, gtable), (wfreq, wtable) = got, want
    assert gfreq == wfreq and list(gfreq) == list(wfreq)
    assert gtable.raw_min == wtable.raw_min and gtable.raw_max == wtable.raw_max
    # == on the dicts compares the float bits of every value (no NaN here)
    assert gtable.raw_scores == wtable.raw_scores
    assert gtable.scores == wtable.scores
    assert list(gtable.scores) == list(wtable.scores)
    assert all(type(v) is float for v in (*gtable.scores.values(), *gtable.raw_scores.values()))


# words drawn from a skewed vocabulary, so that idf values differ widely and
# a sum taken in any other order changes the low bits
skewed_words = st.integers(0, 60).map(lambda k: f"w{k * k % 61}")
splits = st.sampled_from(["train", "train", "val", "test"])


@st.composite
def split_corpora(draw):
    n = draw(st.integers(1, 30))
    texts = draw(st.lists(st.lists(skewed_words, min_size=1, max_size=14).map(" ".join),
                          min_size=n, max_size=n))
    record_splits = draw(st.lists(splits, min_size=n, max_size=n))
    record_splits[draw(st.integers(0, n - 1))] = "train"
    images = draw(st.permutations(range(n)))
    return [C.SentenceRecord(f"s{k}", f"img{images[k]:03d}", t, split=s)
            for k, (t, s) in enumerate(zip(texts, record_splits))]


@settings(max_examples=200, deadline=None)
@given(split_corpora(), st.sampled_from(C.VALID_SPLITS), st.sampled_from([1, 2, 3, None]))
def test_build_table_equals_per_sentence_oracle(records, pool_split, block):
    if not any(r.split == pool_split for r in records):
        pool_split = "train"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_BLOCK_RECORDS", block or C._BLOCK_RECORDS)
        got = C.build_table(records, pool_split)
    _assert_tables_identical(got, build_table_oracle(records, pool_split))


def test_build_table_equals_oracle_on_fixed_cases(monkeypatch):
    cases = {
        # repeated words, and val/test words absent from the train pool
        "repeats": [C.SentenceRecord("b", "i2", "dog dog a Dog cat"),
                    C.SentenceRecord("a", "i1", "a cat a"),
                    C.SentenceRecord("v", "i0", "zebra dog zebra unseen", split="val"),
                    C.SentenceRecord("t", "i3", "only new words", split="test")],
        # every train sentence scores the same raw: a degenerate range
        "degenerate": [C.SentenceRecord(f"s{k}", f"i{9 - k}", "a b b") for k in range(4)]
                      + [C.SentenceRecord("v", "i", "c", split="val")],
        # idf = ln(21/20): np.log and libm's log disagree on it on some builds
        "libm-log": [C.SentenceRecord(f"s{k}", "i", f"a b{k}") for k in range(20)]
                    + [C.SentenceRecord("s20", "i", "c"), C.SentenceRecord("v", "i", "a", "val")],
        # in blocks of 2 or 3: words first seen in a later block, words that
        # repeat across blocks, later-block sentences outside the pool
        "later-blocks": [C.SentenceRecord("a", "i0", "a dog a"), C.SentenceRecord("b", "i0", "a cat"),
                         C.SentenceRecord("c", "i1", "zebra dog dog", split="val"),
                         C.SentenceRecord("d", "i1", "new words new"),
                         C.SentenceRecord("e", "i2", "a zebra herd cat"),
                         C.SentenceRecord("f", "i2", "unseen test words", split="test"),
                         C.SentenceRecord("g", "i3", "herd")],
    }
    for block in (2, 3, C._BLOCK_RECORDS):
        monkeypatch.setattr(C, "_BLOCK_RECORDS", block)
        for name, records in cases.items():
            for pool_split in ("train",) if name in ("degenerate", "libm-log") else C.VALID_SPLITS:
                _assert_tables_identical(C.build_table(records, pool_split),
                                         build_table_oracle(records, pool_split))
    _, flat = C.build_table(cases["degenerate"])
    assert set(flat.scores.values()) == {0.5}


def test_build_table_equals_oracle_at_corpus_scale():
    rng = np.random.default_rng(5)
    vocab = [f"w{k}" for k in range(400)]
    records = [C.SentenceRecord(f"s{k}", f"i{rng.integers(300)}",
                                " ".join(rng.choice(vocab, rng.integers(1, 25))),
                                split=str(rng.choice(["train", "train", "val", "test"])))
               for k in range(2000)]
    _assert_tables_identical(C.build_table(records), build_table_oracle(records))


# fragments that lowercasing and tokenizing treat apart: mixed-case ASCII,
# digits, punctuation, NUL, a lone surrogate, İ (two code points in lower
# case), the Kelvin sign (k in lower case), ß, the fi ligature and a final
# capital sigma; an empty draw gives an empty text
case_fragments = st.sampled_from(["Dog", "CAT", "mIxEd", "a1", "9", "Zebra0", "x", " ", "  ", ",", "-!",
                                  "\x00", "\ud800", "İ", "İstanbul", "K", "Straße",
                                  "ﬁne", "ΟΔΟΣ", "ΟΔΟΣ ", "Σ"])
case_texts = st.lists(case_fragments, max_size=8).map("".join)

# beside the case fragments: the characters just outside the token ranges
# ("/", ":", "@", "[", "`", "{"), "_" (a word character to \w), every
# code point below 0x100 (ASCII controls, DEL, Latin-1), non-BMP
# characters and lone surrogates
tokenizer_texts = st.lists(
    case_fragments | st.sampled_from("/:@[`{_") | st.integers(0, 0xff).map(chr)
    | st.integers(0x10000, 0x10ffff).map(chr) | st.integers(0xd800, 0xdfff).map(chr),
    max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(tokenizer_texts)
def test_tokenize_equals_findall_of_token_characters(text):
    assert C.tokenize(text).tokens == tuple(re.findall("[0-9a-z]+", text.lower()))


def _word_ids_oracle(texts):
    """One `tokenize` per text: the lengths, the word ids and the
    vocabulary of `_word_ids`, new words numbered in order of first
    occurrence."""
    vocab = {}
    sentences = [C.tokenize(t).tokens for t in texts]
    ids = [vocab.setdefault(w, len(vocab)) for toks in sentences for w in toks]
    return list(map(len, sentences)), ids, list(vocab)


@settings(max_examples=300, deadline=None)
@given(st.lists(case_texts, min_size=1, max_size=12), st.sampled_from([1, 2, 3, None]))
def test_word_ids_equal_one_tokenize_per_text(texts, block):
    size = block or C._BLOCK_RECORDS
    lengths, ids, words = _word_ids_oracle(texts)
    records = [C.SentenceRecord(f"s{k}", f"i{k}", t) for k, t in enumerate(texts)]
    vocab = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_BLOCK_RECORDS", size)
        blocks = list(C._word_ids(texts, vocab))
        assert [len(b[0]) for b in blocks] == [len(texts[lo:lo + size])
                                               for lo in range(0, len(texts), size)]
        assert np.concatenate([b[0] for b in blocks]).tolist() == lengths
        assert np.concatenate([b[1] for b in blocks]).tolist() == ids
        assert list(vocab) == words and list(vocab.values()) == list(range(len(words)))
        if 0 in lengths:
            with pytest.raises(ValueError, match=f"^sentence 's{lengths.index(0)}' has no tokens$"):
                C.build_table(records)
        else:
            _assert_tables_identical(C.build_table(records), build_table_oracle(records))


@pytest.mark.parametrize("block", [3, None])
def test_build_table_tokenizes_once_per_block(monkeypatch, block):
    """The `.n` of every `tokenize` call of one `build_table` sums to the
    corpus's tokens, in at most one call per block of texts."""
    if block:
        monkeypatch.setattr(C, "_BLOCK_RECORDS", block)
    texts = ["A dog, a CAT", "İstanbul Kelvin", "x", "Straße 9 ΟΔΟΣ", "one two three"] * 3
    total = sum(_word_ids_oracle(texts)[0])
    counts = []
    tokenize = C.tokenize

    def counted(text):
        seq = tokenize(text)
        counts.append(seq.n)
        return seq

    monkeypatch.setattr(C, "tokenize", counted)
    C.build_table([C.SentenceRecord(f"s{k}", "i", t) for k, t in enumerate(texts)])
    assert sum(counts) == total
    assert len(counts) <= math.ceil(len(texts) / C._BLOCK_RECORDS)


ids_needing_escapes = ['q"uote', "back\\slash", "café", " sep", "tab\there", "\U0001f600"]


def test_write_table_bytes_equal_json_dumps(tmp_path, monkeypatch):
    """The whole table in one block, then its first 0, 2, 3 and 4 rows in
    blocks of 3: the empty table, one short block, one full block, and a
    full block and a short one."""
    values = [0.0, -0.0, 1.0, 1e-300, 5e-324, 0.1, 1 / 3, 2.5e-05, np.float64(0.7),
              np.float64(5e-324)]
    ids = ids_needing_escapes + [f"s{k}" for k in range(len(values))]
    scores = {sid: values[k % len(values)] for k, sid in enumerate(ids)}
    raws = {sid: values[-1 - k % len(values)] * 7 for k, sid in enumerate(ids)}
    for block, sizes in ((C._BLOCK_RECORDS, [len(ids)]), (3, [0, 2, 3, 4])):
        monkeypatch.setattr(C, "_BLOCK_RECORDS", block)
        for n in sizes:
            table = C.DescriptivenessTable(scores={sid: scores[sid] for sid in ids[:n]},
                                           raw_scores={sid: raws[sid] for sid in ids[:n]},
                                           raw_min=5e-324, raw_max=1e-300)
            C.write_table_jsonl(tmp_path / "bulk.jsonl", table)
            write_table_per_line(tmp_path / "oracle.jsonl", table)
            assert (tmp_path / "bulk.jsonl").read_bytes() == \
                (tmp_path / "oracle.jsonl").read_bytes()
            assert C.read_table_jsonl(tmp_path / "bulk.jsonl") == table


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=6), st.tuples(
    st.floats(0.0, 1.0), st.floats(allow_nan=False, allow_infinity=False)), max_size=8))
def test_write_table_round_trips_like_json_dumps(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("table")
    table = C.DescriptivenessTable(scores={k: v[0] for k, v in rows.items()},
                                   raw_scores={k: v[1] for k, v in rows.items()},
                                   raw_min=0.0, raw_max=1.0)
    C.write_table_jsonl(tmp / "bulk.jsonl", table)
    write_table_per_line(tmp / "oracle.jsonl", table)
    assert (tmp / "bulk.jsonl").read_bytes() == (tmp / "oracle.jsonl").read_bytes()
    assert C.read_table_jsonl(tmp / "bulk.jsonl") == read_table_per_line(tmp / "oracle.jsonl")


def _assert_corpus_bytes_equal_json_dumps(tmp, records):
    C.write_corpus_jsonl(tmp / "bulk.jsonl", records)
    write_corpus_per_line(tmp / "oracle.jsonl", records)
    assert (tmp / "bulk.jsonl").read_bytes() == (tmp / "oracle.jsonl").read_bytes()


def test_write_corpus_bytes_equal_json_dumps(tmp_path):
    texts = ids_needing_escapes + ["ctrl\x00\x1f\x7f\n\r", "naïve 東京", 'say "hi" \\ bye', ""]
    records = [C.SentenceRecord(sid, f"i{k}", texts[k % len(texts)], split=C.VALID_SPLITS[k % 3],
                                level=[None, 0, 1, 12, -3, 2**63 - 1][k % 6])
               for k, sid in enumerate(ids_needing_escapes + ["007", "12", "-1", "1e5", "null"])]
    _assert_corpus_bytes_equal_json_dumps(tmp_path, records)
    assert C.read_corpus_jsonl(tmp_path / "bulk.jsonl") == records
    _assert_corpus_bytes_equal_json_dumps(tmp_path, [])


# ids unique, as the writer requires
@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(C.SentenceRecord, st.text(max_size=6), st.text(max_size=6),
                          st.text(max_size=12), st.sampled_from(C.VALID_SPLITS),
                          st.none() | st.integers(-2**63, 2**63 - 1)), max_size=8,
                unique_by=lambda r: r.id))
def test_write_corpus_round_trips_like_json_dumps(tmp_path_factory, records):
    _assert_corpus_bytes_equal_json_dumps(tmp_path_factory.mktemp("corpus"), records)


@pytest.mark.parametrize("level", [True, 2.0, "2"])
def test_write_corpus_rejects_a_level_the_reader_rejects(tmp_path, level):
    with pytest.raises(ValueError, match="'level' must be an integer or null"):
        C.write_corpus_jsonl(tmp_path / "c.jsonl", [C.SentenceRecord("a", "i", "t", level=level)])


@pytest.mark.parametrize("level", [2**63, -2**63 - 1, 10**30])
def test_write_corpus_rejects_a_level_beyond_int64(tmp_path, level):
    with pytest.raises(ValueError, match=r"'level' must be an integer in \[-2\*\*63, 2\*\*63\)"):
        C.write_corpus_jsonl(tmp_path / "c.jsonl", [C.SentenceRecord("a", "i", "t", level=level)])


def test_write_table_rejects_non_finite(tmp_path):
    table = C.DescriptivenessTable(scores={"a": float("nan")}, raw_scores={"a": 1.0},
                                   raw_min=0.0, raw_max=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        C.write_table_jsonl(tmp_path / "t.jsonl", table)


def _records_across_blocks():
    """2 blocks + 1 records with ids and texts that need escapes, and null,
    negative and 19-digit levels."""
    texts = ids_needing_escapes + ["ctrl\x00\x1f\x7f\n\r", "naïve 東京", 'say "hi" \\ bye', ""]
    levels = [None, -3, 0, 2**63 - 1, -2**63, 4, 10**18]
    return [C.SentenceRecord(f"{ids_needing_escapes[k % 6]}{k}", f'i"{k // 4}',
                             texts[k % len(texts)], split=C.VALID_SPLITS[k % 3],
                             level=levels[k % len(levels)])
            for k in range(2 * C._BLOCK_RECORDS + 1)]


def _columns(records) -> C.CorpusColumns:
    return C.CorpusColumns(*([getattr(r, f) for r in records]
                             for f in ("id", "image_id", "text", "split", "level")))


def test_writers_across_blocks_equal_json_dumps(tmp_path):
    """Each writer writes a block at a time; the lines of every block, the
    last one short, are the per-line json.dumps oracle's."""
    records = _records_across_blocks()
    C.write_corpus_columns(tmp_path / "corpus.jsonl", _columns(records))
    write_corpus_per_line(tmp_path / "corpus-oracle.jsonl", records)
    assert (tmp_path / "corpus.jsonl").read_bytes() == \
        (tmp_path / "corpus-oracle.jsonl").read_bytes()
    assert C.read_corpus_jsonl(tmp_path / "corpus.jsonl") == records
    values = [0.0, 1.0, 5e-324, 0.1, 1 / 3, 2.5e-05, 0.9999999999999999]
    table = C.DescriptivenessTable(
        scores={r.id: values[k % len(values)] for k, r in enumerate(records)},
        raw_scores={r.id: -values[k % 5] * 1e300 for k, r in enumerate(records)},
        raw_min=-1e300, raw_max=0.0)
    C.write_table_jsonl(tmp_path / "table.jsonl", table)
    write_table_per_line(tmp_path / "table-oracle.jsonl", table)
    assert (tmp_path / "table.jsonl").read_bytes() == (tmp_path / "table-oracle.jsonl").read_bytes()
    assert C.read_table_jsonl(tmp_path / "table.jsonl") == table


def _bad_corpus(**fields):
    """A corpus writer whose last record, in the third block, has these
    fields."""
    def write(path):
        records = _records_across_blocks()
        records[-1] = dataclasses.replace(records[-1], **fields)
        C.write_corpus_columns(path, _columns(records))
    return write


def _bad_table(last_id, score, raw=1.0, raw_min=0.0):
    """A table writer whose last row, in the third block, has this id,
    delta and raw, and whose header has this raw_min."""
    def write(path):
        ids = [r.id for r in _records_across_blocks()][:-1] + [last_id]
        scores = dict.fromkeys(ids, 0.5) | {last_id: score}
        C.write_table_jsonl(path, C.DescriptivenessTable(
            scores=scores, raw_scores=dict.fromkeys(ids, 1.0) | {last_id: raw}, raw_min=raw_min,
            raw_max=1.0))
    return write


@pytest.mark.parametrize("write, message", [
    (_bad_corpus(id=7), "'id' must be a string, got 7"),
    (_bad_table(7, 0.5), "'id' must be a string, got 7"),
    (_bad_table("x", float("inf")), "non-finite"),
    (_bad_table("x", float("nan")), "non-finite"),
    # what the readers reject, with their messages
    (_bad_corpus(split="foo"), "bad split 'foo'"),
    (_bad_table("x", np.float64(7.5)), r"'delta' must lie in \[0, 1\], got 7\.5"),
    # an int would fail to format only once the file is open
    (_bad_table("x", 1), "'delta' must be a float, got 1"),
    (_bad_table("x", 0.5, raw=2), "'raw' must be a float, got 2"),
    # the last record repeats the first one's id
    (_bad_corpus(id='q"uote0'), "duplicate sentence id 'q\"uote0'"),
    # a value json cannot encode is shown by its repr
    (_bad_table("x", np.float32(0.5)), r"'delta' must be a float, got (np\.float32\()?0\.5"),
    # the header's extremes follow the rows' rules
    (_bad_table("x", 0.5, raw_min=True), "'raw_min' must be a float, got true"),
    (_bad_table("x", 0.5, raw_min=np.float32(0.5)),
     r"'raw_min' must be a float, got (np\.float32\()?0\.5"),
    (_bad_table("x", 0.5, raw_min="0.5"), "'raw_min' must be a float, got \"0.5\""),
], ids=["corpus-int-id", "table-int-id", "table-inf", "table-nan", "corpus-bad-split",
        "table-delta-above-1", "table-int-delta", "table-int-raw", "corpus-duplicate-id",
        "table-float32-delta", "table-bool-raw-min", "table-float32-raw-min",
        "table-string-raw-min"])
@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_writers_check_every_block_before_opening(tmp_path, write, message, exists):
    """A fault in the last block raises before the first block is written:
    the target is neither created nor truncated."""
    target = tmp_path / "out.jsonl"
    if exists:
        target.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match=message):
        write(target)
    assert target.read_bytes() == b"kept\n" if exists else not target.exists()


def _assert_shared_per_block(columns: C.CorpusColumns, block: int) -> None:
    """Within each block, equal image ids are one object, and so are equal
    splits."""
    for values in (columns.image_ids, columns.splits):
        for lo in range(0, len(values), block):
            part = values[lo:lo + block]
            assert len(set(map(id, part))) == len(set(part))


@pytest.mark.parametrize("route", ["matched", "json", "integer"])
def test_read_corpus_columns_shares_repeated_values_per_block(tmp_path, monkeypatch, route):
    """Each block's image ids and splits hold one object per distinct value,
    on the pattern route, on the json route (a block with a key-reordered
    line) and for integer image ids, which are read as strings."""
    monkeypatch.setattr(C, "_BLOCK_RECORDS", 8)
    lines = [json.dumps({"id": f"s{k}", "image_id": k // 4 if route == "integer" else f"i{k // 4}",
                         "split": C.VALID_SPLITS[k // 2 % 2], "text": "a dog"}, sort_keys=True)
             for k in range(20)]
    if route == "json":
        lines[9] = json.dumps(dict(reversed(json.loads(lines[9]).items())))
    (tmp_path / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    calls = _spy_routes(monkeypatch)
    columns = C.read_corpus_columns(tmp_path / "corpus.jsonl")
    assert columns.image_ids == [str(k // 4) if route == "integer" else f"i{k // 4}"
                                 for k in range(20)]
    parsed = [c[1] for c in calls if c[0] == "_parsed_columns"]
    assert parsed == {"matched": [], "json": [8], "integer": [8, 8, 4]}[route]
    _assert_shared_per_block(columns, 8)


@st.composite
def corpus_lines(draw):
    """Valid corpus lines: string or integer ids, any text, optional split
    and level, extra keys (some nested), blank and whitespace lines."""
    lines = []
    for k in range(draw(st.integers(0, 12))):
        obj = {"id": draw(st.sampled_from([f"s{k}", k, f'"{k}\\', f"é{k}"])),
               "image_id": draw(st.sampled_from(["i", 7, "café", 'q"'])),
               "text": draw(st.text(max_size=12))}
        if draw(st.booleans()):
            obj["split"] = draw(st.sampled_from(C.VALID_SPLITS))
        if draw(st.booleans()):
            obj["level"] = draw(st.one_of(st.none(), st.integers(-3, 9)))
        if draw(st.booleans()):
            obj["extra"] = draw(st.sampled_from([1.5, True, None, "x", [1, {"a": 2}], {"b": []}]))
        lines.append(json.dumps(obj, ensure_ascii=draw(st.booleans()),
                                sort_keys=draw(st.booleans())))
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "\t "]), max_size=1)))
    return lines


@settings(max_examples=200, deadline=None)
@given(corpus_lines(), st.sampled_from([1, 2, 3, None]))
def test_corpus_reader_equals_per_line_reader(tmp_path_factory, lines, block):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_BLOCK_RECORDS", block or C._BLOCK_RECORDS)
        records = C.read_corpus_jsonl(path)
    assert records == read_corpus_per_line(path)
    cols = C.read_corpus_columns(path)
    assert [C.SentenceRecord(*row) for row in zip(cols.ids, cols.image_ids, cols.texts,
                                                  cols.splits, cols.levels)] == records


def _raises_same(path, reader, oracle):
    with pytest.raises(ValueError) as got:
        reader(path)
    with pytest.raises(ValueError) as want:
        oracle(path)
    assert str(got.value) == str(want.value)
    return str(got.value)


REC = '{"id": "%s", "image_id": "i", "text": "a dog"}'
# the form write_corpus_columns gives a record
CANON = '{"id": "%s", "image_id": "i", "split": "train", "text": "a dog"}'

# corpora the pattern route must refuse; the per-line reader names the bad line
MUTATED_CORPORA = {
    "two-objects-one-line": [REC % "a", REC % "b" + ", " + REC % "c", REC % "d"],
    "record-split-over-lines": [REC % "a", '{"id": "b", "image_id": "i",', '"text": "t"}'],
    "two-objects-then-split-record": [REC % "a" + ',{"id": "x"', '"image_id": "i", "text": "t"}'],
    "array-split-over-lines": ["[1", "2], 3"],
    "list-line": [REC % "a", "[1, 2]"],
    "string-split-over-lines": ['{"id": "a", "image_id": "i", "text": "a', 'b"}'],
    "nested-field": [REC % "a", '{"id": "b", "image_id": {"i": 1}, "text": "t"}'],
    "scalar-line": [REC % "a", "3"],
}


@pytest.mark.parametrize("name", sorted(MUTATED_CORPORA))
def test_corpus_reader_rejects_mutations_like_per_line_reader(tmp_path, name):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n \n".join(MUTATED_CORPORA[name]) + "\n\t\n")
    msg = _raises_same(path, C.read_corpus_jsonl, read_corpus_per_line)
    assert msg.startswith(f"{path}:")
    assert C._matched_columns(C._CORPUS, [line.strip() for line in MUTATED_CORPORA[name]]) is None
    canonical = [CANON % "a" if line == REC % "a" else line for line in MUTATED_CORPORA[name]]
    assert C._matched_columns(C._CORPUS, canonical) is None


def _spy_routes(monkeypatch) -> list:
    """Record each block's route and rule-set call as (function, records,
    whether it gave columns): `_matched_columns` gives None for a block it
    leaves to `_parsed_columns`."""
    calls = []

    def spy(original, size):
        def wrapper(*args):
            out = original(*args)
            calls.append((original.__name__, size(*args), out is not None))
            return out
        return wrapper

    for name in ("_matched_columns", "_parsed_columns"):
        monkeypatch.setattr(C, name, spy(getattr(C, name), lambda fmt, block: len(block)))
    for name in ("_CORPUS", "_TABLE"):
        fmt = getattr(C, name)
        monkeypatch.setattr(C, name, dataclasses.replace(
            fmt, rules=spy(fmt.rules, lambda cols: len(cols["id"]))))
    return calls


def test_valid_files_take_the_one_parse_path(tmp_path, monkeypatch):
    records = THREE_DOCS + [C.SentenceRecord("s4", "i4", "a dog", split="val", level=2)]
    C.write_corpus_jsonl(tmp_path / "corpus.jsonl", records)
    _, table = C.build_table(records)
    C.write_table_jsonl(tmp_path / "table.jsonl", table)

    calls = _spy_routes(monkeypatch)
    assert C.read_corpus_jsonl(tmp_path / "corpus.jsonl") == records
    assert C.read_table_jsonl(tmp_path / "table.jsonl") == table
    # one match and one check of all four records per file: no line is
    # parsed and no record reaches the one-record step
    assert calls == [("_matched_columns", 4, True), ("_corpus_columns", 4, True),
                     ("_matched_columns", 4, True), ("_table_columns", 4, True)]
    # in blocks of three records: one match and one check per block
    calls.clear()
    monkeypatch.setattr(C, "_BLOCK_RECORDS", 3)
    assert C.read_corpus_jsonl(tmp_path / "corpus.jsonl") == records
    assert C.read_table_jsonl(tmp_path / "table.jsonl") == table
    assert calls == [("_matched_columns", 3, True), ("_corpus_columns", 3, True),
                     ("_matched_columns", 1, True), ("_corpus_columns", 1, True),
                     ("_matched_columns", 3, True), ("_table_columns", 3, True),
                     ("_matched_columns", 1, True), ("_table_columns", 1, True)]


# a line that sends its block to the per-line parse: it matches no pattern
NESTED_LINE = '{"id": "n", "image_id": "i", "text": "t", "extra": {"k": [1]}}'


MISTYPED = {
    "text-null": ("text", "null", "'text' must be a string"),
    "text-number": ("text", "3", "'text' must be a string"),
    "id-null": ("id", "null", "'id' must be a string or an integer"),
    "id-float": ("id", "1.5", "'id' must be a string or an integer"),
    "id-bool": ("id", "true", "'id' must be a string or an integer"),
    "id-list": ("id", '["a"]', "'id' must be a string or an integer"),
    "image_id-null": ("image_id", "null", "'image_id' must be a string or an integer"),
    "image_id-float": ("image_id", "2.0", "'image_id' must be a string or an integer"),
    "image_id-bool": ("image_id", "false", "'image_id' must be a string or an integer"),
    "image_id-list": ("image_id", "[1]", "'image_id' must be a string or an integer"),
    "level-bool": ("level", "true", "'level' must be an integer or null"),
    "level-float": ("level", "2.7", "'level' must be an integer or null"),
    "level-integral-float": ("level", "2.0", "'level' must be an integer or null"),
    "level-string": ("level", '"2"', "'level' must be an integer or null"),
    "level-beyond-int64": ("level", "1" + "0" * 30,
                           "'level' must be an integer in [-2**63, 2**63) or null"),
    "level-below-int64": ("level", str(-2**63 - 1),
                          "'level' must be an integer in [-2**63, 2**63) or null"),
    # None: the line lacks the field
    "id-missing": ("id", None, "missing 'id'"),
    "image_id-missing": ("image_id", None, "missing 'image_id'"),
    "text-missing": ("text", None, "missing 'text'"),
}


@pytest.mark.parametrize("route", ["one-parse", "per-line"])
@pytest.mark.parametrize("case", list(MISTYPED))
def test_corpus_reader_rejects_mistyped_fields(tmp_path, route, case):
    field, value, want = MISTYPED[case]
    if route == "per-line":
        fields = {"id": '"b"', "image_id": '"i"', "text": '"a cat"', "level": "1"}
        first = NESTED_LINE
    else:  # the writer's form, which only the fault itself can break
        fields = {"id": '"b"', "image_id": '"i"', "level": "1", "split": '"train"', "text": '"a cat"'}
        first = CANON % "a"
    if value is None:
        del fields[field]
    else:
        fields[field] = value
    bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    path = tmp_path / "corpus.jsonl"
    path.write_text(first + "\n" + bad + "\n")
    with pytest.raises(ValueError) as exc:
        C.read_corpus_jsonl(path)
    assert str(exc.value) == f"{path}:2: malformed corpus record: {want}"


@pytest.mark.parametrize("route", ["one-parse", "per-line"])
def test_first_bad_record_named_before_a_later_unparseable_line(tmp_path, route):
    unparseable = '{"id": "e",'
    path = tmp_path / "corpus.jsonl"
    if route == "per-line":
        lines = [NESTED_LINE, REC % "b", '{"id": "c", "image_id": "i", "text": 3}', REC % "d"]
    else:
        lines = [CANON % "a", CANON % "b", '{"id": "c", "image_id": "i", "split": "train", "text": 3}',
                 CANON % "d"]
    path.write_text("\n".join(lines + [unparseable, REC % "f"]) + "\n")
    with pytest.raises(ValueError) as exc:
        C.read_corpus_jsonl(path)
    assert str(exc.value) == f"{path}:3: malformed corpus record: 'text' must be a string"
    first = ('{"delta": 0.5, "extra": {"k": [1]}, "id": "a", "raw": 1.5}' if route == "per-line"
             else ROW % ("0.5", "a", "1.5"))
    path = tmp_path / "table.jsonl"
    path.write_text("\n".join([TABLE_HEAD, first, ROW % ("0.5", "b", "1.5"),
                               ROW % ("true", "c", "1.5"), unparseable]) + "\n")
    with pytest.raises(ValueError) as exc:
        C.read_table_jsonl(path)
    assert str(exc.value) == f"{path}:4: malformed table record: 'delta' must be a number, got true"


def test_corpus_reader_keeps_integer_ids_as_strings(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": 7, "image_id": 30, "text": "a dog", "level": 2}\n')
    assert C.read_corpus_jsonl(path) == [C.SentenceRecord("7", "30", "a dog", level=2)]


TABLE_HEAD = '{"raw_max": 2.0, "raw_min": 1.0}'
ROW = '{"delta": %s, "id": "%s", "raw": %s}'


BAD_ROWS = {
    "delta-nan": (ROW % ("NaN", "b", "1.5"), "'delta' must be finite, got nan"),
    "delta-inf": (ROW % ("Infinity", "b", "1.5"), "'delta' must be finite, got inf"),
    "raw-nan": (ROW % ("0.5", "b", "NaN"), "'raw' must be finite, got nan"),
    "raw-minus-inf": (ROW % ("0.5", "b", "-Infinity"), "'raw' must be finite, got -inf"),
    "delta-above-1": (ROW % ("7.5", "b", "1.5"), "'delta' must lie in [0, 1], got 7.5"),
    "delta-below-0": (ROW % ("-0.25", "b", "1.5"), "'delta' must lie in [0, 1], got -0.25"),
    "delta-huge-int": (ROW % ("1" + "0" * 400, "b", "1.5"), "int too large to convert to float"),
    "delta-true": (ROW % ("true", "b", "1.5"), "'delta' must be a number, got true"),
    "raw-false": (ROW % ("0.5", "b", "false"), "'raw' must be a number, got false"),
    "delta-string": (ROW % ('"0.25"', "b", "1.5"), "'delta' must be a number, got \"0.25\""),
    "raw-null": (ROW % ("0.5", "b", "null"), "'raw' must be a number, got null"),
    "id-null": ('{"delta": 0.5, "id": null, "raw": 1.5}',
                "'id' must be a string or an integer, got null"),
    "id-list": ('{"delta": 0.5, "id": ["b"], "raw": 1.5}',
                "'id' must be a string or an integer, got [\"b\"]"),
    "id-bool": ('{"delta": 0.5, "id": false, "raw": 1.5}',
                "'id' must be a string or an integer, got false"),
    "id-float": ('{"delta": 0.5, "id": 2.0, "raw": 1.5}',
                 "'id' must be a string or an integer, got 2.0"),
    "delta-overflow": (ROW % ("1e999", "b", "1.5"), "'delta' must be finite, got inf"),
    "delta-missing": ('{"id": "b", "raw": 1.5}', "missing 'delta'"),
    "id-missing": ('{"delta": 0.5, "raw": 1.5}', "missing 'id'"),
    "raw-missing": ('{"delta": 0.5, "id": "b"}', "missing 'raw'"),
}


@pytest.mark.parametrize("route", ["one-parse", "per-line"])
@pytest.mark.parametrize("case", list(BAD_ROWS))
def test_table_reader_rejects_bad_values(tmp_path, route, case):
    bad, want = BAD_ROWS[case]
    first = ROW % ("0.5", "a", "[1.5]") if route == "per-line" else ROW % ("0.5", "a", "1.5")
    path = tmp_path / "table.jsonl"
    path.write_text("\n".join([TABLE_HEAD, ROW % ("0.25", "z", "1.25"), bad, first]) + "\n")
    with pytest.raises(ValueError) as exc:
        C.read_table_jsonl(path)
    assert str(exc.value) == f"{path}:3: malformed table record: {want}"


def test_table_reader_keeps_integer_ids_and_numbers(tmp_path):
    path = tmp_path / "table.jsonl"
    path.write_text(TABLE_HEAD + '\n{"delta": 1, "id": 7, "raw": 2}\n')
    table = C.read_table_jsonl(path)
    assert table.scores == {"7": 1.0} and table.raw_scores == {"7": 2.0}
    assert type(table.scores["7"]) is float and type(table.raw_scores["7"]) is float


def test_table_reader_rejects_repeated_id(tmp_path):
    path = tmp_path / "table.jsonl"
    rows = [ROW % ("0.5", "a", "1.5"), ROW % ("0.25", "b", "1.25"), "",
            ROW % ("0.75", "a", "1.75")]
    path.write_text("\n".join([TABLE_HEAD, *rows]) + "\n")
    want = f"{path}:5: duplicate sentence id 'a' (first on line 2)"
    assert _raises_same(path, C.read_table_jsonl, read_table_per_line) == want


MUTATED_TABLES = {
    "two-rows-one-line": [ROW % ("0.5", "a", "1.5") + " " + ROW % ("0.5", "b", "1.5")],
    "row-split-over-lines": [ROW % ("0.5", "a", "1.5"), '{"delta": 0.5,', '"id": "b", "raw": 1.5}'],
    "list-line": ["[0.5, 1.5]"],
    "nested-value": [ROW % ("0.5", "a", "[1.5]")],
    "missing-key": ['{"delta": 0.5, "raw": 1.5}'],
    "string-value": [ROW % ('"high"', "a", "1.5")],
}


@pytest.mark.parametrize("name", sorted(MUTATED_TABLES))
def test_table_reader_rejects_mutations_like_per_line_reader(tmp_path, name):
    path = tmp_path / "table.jsonl"
    path.write_text("\n".join([TABLE_HEAD, ROW % ("0.5", "z", "1.5"), "  ",
                               *MUTATED_TABLES[name]]) + "\n")
    assert _raises_same(path, C.read_table_jsonl, read_table_per_line).startswith(f"{path}:")


# ---------------------------------------------------------------------------
# Block boundaries: the readers and build_table with blocks of a few records


@pytest.fixture(params=[2, 3])
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(C, "_BLOCK_RECORDS", request.param)
    return request.param


def test_table_reader_equals_per_line_reader_in_blocks(tmp_path, small_blocks):
    records = [C.SentenceRecord(f"s{k}", f"i{k % 3}", " ".join(f"w{j * k % 7}" for j in range(k + 1)),
                                split=("train", "val")[k % 4 == 3]) for k in range(9)]
    _, table = C.build_table(records)
    path = tmp_path / "table.jsonl"
    C.write_table_jsonl(path, table)
    lines = path.read_text().split("\n")
    # blank lines, and a nested value in a later block that sends only that
    # block to the per-line parse
    lines[4:4] = ["", "  "]
    lines[7] = lines[7][:-1] + ', "extra": {"k": [1]}}'
    path.write_text("\n".join(lines))
    assert C.read_table_jsonl(path) == read_table_per_line(path) == table


# later-block faults: (lines, the message after "<path>:")
LATER_BLOCK_FAULTS = {
    "unparseable": ([REC % "a", REC % "b", REC % "c", REC % "d", '{"id": "e",', REC % "f"],
                    "5: malformed corpus record: Expecting property name enclosed in double "
                    "quotes: line 1 column 12 (char 11)"),
    "mistyped": ([REC % "a", REC % "b", REC % "c", REC % "d",
                  '{"id": "e", "image_id": "i", "text": 3}', REC % "f"],
                 "5: malformed corpus record: 'text' must be a string"),
    "repeat-in-a-later-block": ([REC % "a", REC % "b", REC % "c", REC % "d", REC % "e",
                                 REC % "e"],
                                "6: duplicate sentence id 'e' (first on line 5)"),
    "repeat-across-blocks": ([REC % "a", REC % "b", REC % "c", REC % "d", REC % "e",
                              REC % "a"],
                             "6: duplicate sentence id 'a' (first on line 1)"),
}


@pytest.mark.parametrize("case", list(LATER_BLOCK_FAULTS))
def test_corpus_reader_names_a_fault_in_a_later_block(tmp_path, small_blocks, case):
    lines, want = LATER_BLOCK_FAULTS[case]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert _raises_same(path, C.read_corpus_jsonl, read_corpus_per_line) == f"{path}:{want}"


def test_table_reader_names_a_repeat_across_blocks(tmp_path, small_blocks):
    rows = [ROW % ("0.5", sid, "1.5") for sid in "abcde"] + [ROW % ("0.25", "b", "1.25")]
    path = tmp_path / "table.jsonl"
    path.write_text("\n".join([TABLE_HEAD, *rows]) + "\n")
    want = f"{path}:7: duplicate sentence id 'b' (first on line 3)"
    assert _raises_same(path, C.read_table_jsonl, read_table_per_line) == want


# ---------------------------------------------------------------------------
# The pattern route: the writers' own lines are matched, not parsed


def _bits(table):
    """A table's ids, values as float bits, and extremes."""
    return (list(table.scores), [v.hex() for v in table.scores.values()],
            [v.hex() for v in table.raw_scores.values()], table.raw_min.hex(), table.raw_max.hex())


# characters that the writers escape: quotes, backslashes, control and
# non-ASCII characters, and lone surrogates (a high surrogate followed by a
# low one would be written as a pair, which JSON reads back as one character)
_ESCAPED = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "東",
                            "\U0001f600", "\ud800", "\udbff", "\udfff"])
escaped_texts = st.text(st.characters(exclude_categories=()) | _ESCAPED, max_size=8).filter(
    lambda s: not any("\ud800" <= a <= "\udbff" and "\udc00" <= b <= "\udfff"
                      for a, b in zip(s, s[1:])))
_FLOAT_EXTREMES = [-0.0, 5e-324, 1e308, -1e308, 1e16, 1e-05, 2.5e-300]


@st.composite
def written_columns(draw):
    """A corpus and a table of the same ids, as the writers take them."""
    n = draw(st.integers(0, 9))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    ids = draw(st.lists(escaped_texts, min_size=n, max_size=n, unique=True))
    corpus = C.CorpusColumns(ids, column(escaped_texts), column(escaped_texts),
                             column(st.sampled_from(C.VALID_SPLITS)),
                             column(st.none() | st.sampled_from([0, -1, 2**63 - 1, -2**63])
                                    | st.integers(-2**63, 2**63 - 1)))
    raws = st.sampled_from(_FLOAT_EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)
    deltas = column(st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0))
    table = C.DescriptivenessTable(dict(zip(ids, deltas)), dict(zip(ids, column(raws))),
                                   raw_min=draw(raws), raw_max=draw(raws))
    return corpus, table


def _write(tmp, columns):
    corpus, table = columns
    C.write_corpus_columns(tmp / "corpus.jsonl", corpus)
    C.write_table_jsonl(tmp / "table.jsonl", table)
    return tmp / "corpus.jsonl", tmp / "table.jsonl"


def _took_the_pattern(calls, records, block):
    """Every block of a file of ``records`` records went through one match
    and none was parsed (an empty file is one empty block)."""
    routes = [c for c in calls if c[0] in ("_matched_columns", "_parsed_columns")]
    return routes == [("_matched_columns", min(block, records - lo), True)
                      for lo in range(0, records or 1, block)]


@settings(max_examples=100, deadline=None)
@given(written_columns(), st.sampled_from([1, 2, 3, None]))
def test_written_files_read_back_through_the_pattern(tmp_path_factory, columns, block):
    corpus_path, table_path = _write(tmp_path_factory.mktemp("written"), columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_BLOCK_RECORDS", block or C._BLOCK_RECORDS)
        calls = _spy_routes(mp)
        assert C.read_corpus_columns(corpus_path) == columns[0]
        assert _took_the_pattern(calls, len(columns[0].ids), C._BLOCK_RECORDS)
        calls.clear()
        assert _bits(C.read_table_jsonl(table_path)) == _bits(columns[1])
        assert _took_the_pattern(calls, len(columns[0].ids), C._BLOCK_RECORDS)


def _number(x: float) -> str:
    """``x`` in a form the table writer never emits: an integer where x is
    integral (``-0`` for -0.0, which JSON reads as the integer 0), else an
    upper-case exponent."""
    if x.is_integer():
        return ("-" if math.copysign(1.0, x) < 0 else "") + str(abs(int(x)))
    text = repr(x)
    return text.replace("e", "E") if "e" in text else text + "E0"


def _rewritten(line: str, kind: int, k: int) -> str:
    """A written line in another JSON form: 0 as written, 1 keys in reverse
    order, 2 spaces around every token, 3 the integer id k, 4 a
    ``"level": null`` for an absent level, and in a table integer or
    upper-case-exponent numbers."""
    obj = json.loads(line)
    if kind == 1:
        return json.dumps(dict(reversed(obj.items())))
    if kind == 2:
        return "  " + json.dumps(obj, sort_keys=True, separators=(" ,  ", " :  ")) + " "
    if kind == 3:
        return json.dumps({**obj, "id": k}, sort_keys=True)
    if kind == 4 and "delta" in obj:
        return (f'{{"delta": {_number(obj["delta"])}, "id": {json.dumps(obj["id"])}, '
                f'"raw": {_number(obj["raw"])}}}')
    if kind == 4:
        return json.dumps({"level": None, **obj}, sort_keys=True)
    return line


def _same_as_oracle(path, reader, oracle, key=lambda x: x):
    """``reader(path)`` gives what ``oracle(path)`` gives, or its message."""
    try:
        want = oracle(path)
    except ValueError:
        _raises_same(path, reader, oracle)
    else:
        assert key(reader(path)) == key(want)


@settings(max_examples=100, deadline=None)
@given(written_columns(), st.lists(st.integers(0, 4), min_size=20, max_size=20),
       st.sampled_from([1, 2, 3, None]))
def test_rewritten_lines_read_like_the_per_line_oracle(tmp_path_factory, columns, kinds, block):
    # each line rewritten or not by its own draw, so canonical and rewritten
    # lines share blocks and fill blocks of their own
    corpus_path, table_path = _write(tmp_path_factory.mktemp("rewritten"), columns)
    for path, head in ((corpus_path, 0), (table_path, 1)):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[head:] = [_rewritten(line, kinds[k % len(kinds)], k)
                        for k, line in enumerate(lines[head:])]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_BLOCK_RECORDS", block or C._BLOCK_RECORDS)
        _same_as_oracle(corpus_path, C.read_corpus_jsonl, read_corpus_per_line)
        _same_as_oracle(table_path, C.read_table_jsonl, read_table_per_line, key=_bits)


# faults that a line in the writer's form can hold, each in the third block
# of blocks of two: (corpus or table, line number, that line)
PATTERN_FAULTS = {
    "level-beyond-int64": (
        "corpus", 6, '{"id": "s5", "image_id": "i", "level": 1%s, "split": "train", '
                     '"text": "a dog"}' % ("0" * 30)),
    "repeat-two-blocks-apart": (
        "corpus", 6, '{"id": "s0", "image_id": "i", "split": "train", "text": "a dog"}'),
    "delta-overflow": ("table", 6, '{"delta": 1e999, "id": "s4", "raw": 1.5}'),
    "delta-above-1": ("table", 6, '{"delta": 7.5, "id": "s4", "raw": 1.5}'),
}


@pytest.mark.parametrize("case", list(PATTERN_FAULTS))
def test_faults_on_the_pattern_route_are_named_like_the_oracle(tmp_path, monkeypatch, case):
    kind, lineno, bad = PATTERN_FAULTS[case]
    ids = [f"s{k}" for k in range(7)]
    columns = (C.CorpusColumns(ids, ["i"] * 7, ["a dog"] * 7, ["train"] * 7, [None] * 7),
               C.DescriptivenessTable(dict.fromkeys(ids, 0.5), dict.fromkeys(ids, 1.5), 1.0, 2.0))
    paths = dict(zip(("corpus", "table"), _write(tmp_path, columns)))
    lines = paths[kind].read_text().splitlines()
    assert C._matched_columns(getattr(C, f"_{kind.upper()}"), [lines[lineno - 1]]) is not None
    lines[lineno - 1] = bad
    paths[kind].write_text("".join(line + "\n" for line in lines))
    monkeypatch.setattr(C, "_BLOCK_RECORDS", 2)
    calls = _spy_routes(monkeypatch)
    reader, oracle = ((C.read_corpus_jsonl, read_corpus_per_line) if kind == "corpus"
                      else (C.read_table_jsonl, read_table_per_line))
    msg = _raises_same(paths[kind], reader, oracle)
    assert msg.startswith(f"{paths[kind]}:{lineno}: ")
    # the first pass, up to the line-by-line pass, matched every block it
    # read, the bad line's among them
    matched = [c for c in calls[:calls.index(("_parsed_columns", 1, True))]
               if c[0] == "_matched_columns"]
    assert matched[:3] == [("_matched_columns", 2, True)] * 3
    assert all(ok for _, _, ok in matched)


@pytest.mark.parametrize("kind, lineno, bad", [("corpus", 5, 0xff), ("table", 6, 0xfe),
                                               ("table", 1, 0xfe)])
def test_readers_name_a_line_that_is_not_utf8(tmp_path, small_blocks, kind, lineno, bad):
    ids = [f"s{k}" for k in range(6)]
    columns = (C.CorpusColumns(ids, ["i"] * 6, ["a dog"] * 6, ["train"] * 6, [None] * 6),
               C.DescriptivenessTable(dict.fromkeys(ids, 0.5), dict.fromkeys(ids, 1.5), 1.0, 2.0))
    path = dict(zip(("corpus", "table"), _write(tmp_path, columns)))[kind]
    reader = C.read_corpus_columns if kind == "corpus" else C.read_table_jsonl
    # a byte that no UTF-8 text holds, before the closing brace of a line in
    # a block after the first (or of the table's header)
    lines = path.read_bytes().split(b"\n")
    good = lines[lineno - 1]
    lines[lineno - 1] = good[:-1] + bytes([bad]) + good[-1:]
    path.write_bytes(b"\n".join(lines))
    what = "table header" if lineno == 1 else f"{kind} record"
    with pytest.raises(ValueError) as exc:
        reader(path)
    assert str(exc.value) == (f"{path}:{lineno}: malformed {what}: line is not valid UTF-8 "
                              f"(byte {bad:#04x} at column {len(good)})")
    # an earlier malformed line is named first
    if lineno > 2:
        lines[1] = b'{"id": '
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{path}:2: malformed {kind} record: Expecting value")


def test_integer_numbers_keep_the_json_route(tmp_path):
    # json.loads reads -0 as the integer 0, where float("-0") is -0.0
    path = tmp_path / "table.jsonl"
    path.write_text(TABLE_HEAD + '\n{"delta": -0, "id": "a", "raw": 2}\n')
    assert C._matched_columns(C._TABLE, ['{"delta": -0, "id": "a", "raw": 2}']) is None
    assert _bits(C.read_table_jsonl(path)) == _bits(read_table_per_line(path))
    assert C.read_table_jsonl(path).scores["a"].hex() == "0x0.0p+0"

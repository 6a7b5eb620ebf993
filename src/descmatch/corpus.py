"""Corpus term statistics and sentence descriptiveness scoring.

A sentence's raw descriptiveness is the sum over its distinct words of
term-frequency times inverse document frequency, computed against a fixed
document pool (one "document" = one sentence).  Raw scores over the pool
split are min-max normalized into [0, 1]; sentences outside the pool are
scored with the pool statistics and the stored extremes, then clamped.
`score_word_ids` is the one implementation of the formula.  It scores
sentences given as word ids, which only name words: `build_table` takes
them from tokenized text, and `datagen.write_dataset` passes the ids it
drew for the synthetic corpus.

Summation order: `score_word_ids` adds a raw score's terms left to right,
starting from 0.0, over the sentence's distinct words in order of first
occurrence.  The order is part of its contract because ``sum``
compensates float additions from Python 3.12 on, and the table bytes
would then depend on the interpreter.

Each JSONL format has one rule set, a function from parsed records to
columns (`_corpus_columns`, `_table_columns`) that raises at the first
fault.  A reader takes a file's lines in blocks of `_BLOCK_RECORDS`.  It
parses a block with one ``json.loads`` when that provably gives what one
``json.loads`` per line gives (see `_bulk_objects`), or else line by
line, and checks the block's records with one call of the rule set; ids
must be unique over the whole file.  Only a file that fails is read again
line by line, each record checked alone by the same rule set, so that the
message names the file and the first bad line.

Memory: no pass holds a whole-corpus temporary per record.  The readers
keep one block's parsed objects at a time.  `score_word_ids` takes its
sentences in blocks and finds one block's distinct words before it reads
the next, so `build_table`, whose tokenizer yields the word ids of one
block of records at a time, never holds more than one block's tokens.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

_TOKEN_RE = re.compile(r"[0-9a-z]+")

VALID_SPLITS = ("train", "val", "test")

# records per block of `build_table`'s tokenization and scoring and of a
# reader's parse and check: the token tuples and parsed objects of one block
# are alive at a time, not those of the whole corpus
_BLOCK_RECORDS = 1 << 11


@dataclass(frozen=True)
class TokenSequence:
    """Lowercased word tokens of one sentence."""

    tokens: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass
class DescriptivenessTable:
    """Normalized descriptiveness per sentence id, plus the raw extremes
    of the pool split used for normalization."""

    scores: dict[str, float]
    raw_scores: dict[str, float]
    raw_min: float
    raw_max: float


@dataclass(frozen=True)
class SentenceRecord:
    """One corpus line: a caption tied to an image, with an optional
    hierarchy level (1 = most generic)."""

    id: str
    image_id: str
    text: str
    split: str = "train"
    level: int | None = None


@dataclass
class CorpusColumns:
    """A corpus file as parallel columns, one entry per record in file
    order: the fields of `SentenceRecord` without building one per line."""

    ids: list[str]
    image_ids: list[str]
    texts: list[str]
    splits: list[str]
    levels: list[int | None]


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split on every non-alphanumeric character, dropping
    empty fragments.  Deterministic; no stemming or stop-word removal."""
    return TokenSequence(tuple(_TOKEN_RE.findall(text.lower())))


def build_table(records: list[SentenceRecord], pool_split: str = "train") -> tuple[dict[str, int], DescriptivenessTable]:
    """The doc freq of the pool's words and the table of every record:
    `score_word_ids` over the blocks of `_word_ids`, the records' own
    vocabulary numbered in order of first occurrence.  ``doc_freq[w]``
    counts the pool sentences that hold ``w`` at least once (presence, not
    multiplicity), keyed in order of first occurrence over all records,
    for the words that occur in the pool."""
    vocab: dict[str, int] = {}
    doc_freq, table = score_word_ids([r.id for r in records], [r.split for r in records],
                                     _word_ids([r.text for r in records], vocab), pool_split)
    return {w: m for w, m in zip(vocab, doc_freq.tolist()) if m}, table


def _word_ids(texts: list[str], vocab: dict[str, int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block of `_BLOCK_RECORDS` texts, each text's token count and its
    tokens' ids in ``vocab``, where a new word gets the next id: one
    `tokenize` per text, and the block's tokens mapped in one
    ``vocab.setdefault`` pass.  A generator, so a block is tokenized only
    when the scorer asks for it."""
    for lo in range(0, len(texts), _BLOCK_RECORDS):
        sentences = [tokenize(t).tokens for t in texts[lo:lo + _BLOCK_RECORDS]]
        yield (np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences)),
               np.array([vocab.setdefault(w, len(vocab)) for w in chain.from_iterable(sentences)],
                        dtype=np.int64))


def word_id_blocks(lengths: np.ndarray, words: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Sentences given as flat arrays (sentence k is the next ``lengths[k]``
    entries of ``words``) cut into the blocks of `_BLOCK_RECORDS`
    sentences that `score_word_ids` takes."""
    bounds = range(_BLOCK_RECORDS, len(lengths), _BLOCK_RECORDS)
    return zip(np.split(lengths, bounds),
               np.split(words, np.cumsum(lengths)[_BLOCK_RECORDS - 1:-1:_BLOCK_RECORDS]))


def score_word_ids(ids: list[str], splits: list[str], blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                   pool_split: str = "train") -> tuple[np.ndarray, DescriptivenessTable]:
    """The doc freq of each word id and the table of sentences given as
    word ids.  ``blocks`` yields (lengths, words) pairs of integer arrays
    that cover the sentences in order: a block's k-th sentence (the next
    of ``ids`` and ``splits``) is the next ``lengths[k]`` entries of its
    ``words``, non-negative integers standing for its tokens, one id per
    distinct word.  Blocks of `_BLOCK_RECORDS` sentences bound the
    temporaries; the table does not depend on where blocks are cut.

    Records of ``pool_split`` define the pool and the normalization range.
    A record's raw score is the sum over its distinct words w of
    (n_w / n) * ln(m / m_w): n_w counts w in the record, n is the record's
    length, m the pool size and m_w the pool sentences containing w, taken
    as 1 for a word the pool lacks.  Pool records get (raw - min) / (max -
    min) over the pool, or 0.5 when every pool raw is equal; records of
    other splits get the same value clamped into [0, 1], since the pool
    extremes need not bound them.  The returned table covers all ids, in
    input order.

    The terms are added left to right from 0.0 in first-occurrence order
    (the module docstring says why the order is fixed).  The pass is
    batched: each block's (sentence, word) firsts and counts are found
    before the next block is read; one ``math.log`` per word id (not
    ``np.log``, which may differ from libm in the last ulp); and the terms
    summed position by position, so the j-th distinct word of every
    sentence is added at step j.

    Only which id is which word matters, not how words are numbered: under
    any one-to-one renumbering the counts n_w, the doc freqs m_w, the idf
    values, each sentence's first-occurrence order of its words and so the
    left-to-right sums are the same, so the table is the same bytes.
    """
    if pool_split not in VALID_SPLITS:
        raise ValueError(f"unknown split {pool_split!r}")
    in_pool = np.array([s == pool_split for s in splits], dtype=bool)
    if not in_pool.any():
        raise ValueError(f"pool split {pool_split!r} is empty")
    if len(set(ids)) < len(ids):
        dup = next(sid for sid, n in Counter(ids).items() if n > 1)
        raise ValueError(f"duplicate sentence id {dup!r}")
    # one block of sentences at a time: its (sentence, word) firsts, with
    # the word's count in the sentence, in token order
    parts, lo = [], 0
    for lengths, words in blocks:
        owner = np.repeat(np.arange(lo, lo + len(lengths), dtype=np.int64), lengths)
        _, first, counts = np.unique(owner * (int(words.max(initial=0)) + 1) + words,
                                     return_index=True, return_counts=True)
        count_at = np.zeros(len(words), dtype=np.int64)
        count_at[first] = counts
        firsts = np.flatnonzero(count_at)
        parts.append((lengths, owner[firsts], words[firsts], count_at[firsts]))
        lo += len(lengths)
    lengths, sent, word, counts = (np.concatenate(p) for p in zip(*parts))
    del parts
    if not lengths.all():
        raise ValueError(f"sentence {ids[int(np.argmin(lengths))]!r} has no tokens")

    size = int(in_pool.sum())
    doc_freq = np.bincount(word[in_pool[sent]], minlength=int(word.max()) + 1)
    idf = np.array([math.log(size / m) for m in np.maximum(doc_freq, 1).tolist()])
    terms = counts / lengths[sent] * idf[word]

    # sum each sentence's terms left to right: add its j-th terms at step j
    distinct = np.bincount(sent, minlength=len(ids))
    start = np.cumsum(distinct) - distinct
    raw = np.zeros(len(ids))
    for j in range(int(distinct.max())):
        longer = np.flatnonzero(distinct > j)
        raw[longer] += terms[start[longer] + j]

    raw_min = float(raw[in_pool].min())
    raw_max = float(raw[in_pool].max())
    span = raw_max - raw_min
    scores = np.full(len(ids), 0.5) if span == 0.0 else np.clip((raw - raw_min) / span, 0.0, 1.0)
    return doc_freq, DescriptivenessTable(scores=dict(zip(ids, scores.tolist())),
                                          raw_scores=dict(zip(ids, raw.tolist())),
                                          raw_min=raw_min, raw_max=raw_max)


# ---------------------------------------------------------------------------
# JSONL formats

_SCALARS = {str, int, float, bool, type(None)}
_encode_id = json.encoder.encode_basestring_ascii


def _bulk_objects(lines: list[str]) -> list[dict] | None:
    r"""The JSON object on each line, from one ``json.loads``, or None.

    The non-blank, stripped lines l_1..l_k are parsed once as the text
    T = ``[`` l_1 ``,\n`` l_2 ``,\n`` ... l_k ``]``.  The result is used
    only if every l_i starts with ``{`` and ends with ``}`` and T holds k
    flat objects (dicts with scalar values).  Then ``json.loads(l_i)`` is
    the i-th object, so the result is exactly what the per-line parser
    gives:

    1. ``json.loads`` is strict: it rejects a raw newline inside a string.
       Every separator holds one, so no string spans a separator, and
       none opens before T's first or closes after its last character.
       Hence the first and last characters of each l_i stand outside
       strings, and T has at least k ``{`` and k ``}`` outside strings.
    2. A parsed value holds as many objects as its text has ``{`` outside
       strings.  The value holds exactly k objects, so each l_i has one
       ``{`` outside a string, its first character, and one ``}``, its
       last.
    3. Objects do not nest, so the j-th ``{`` pairs with the j-th ``}``:
       object i spans l_i exactly, and ``json.loads(l_i)``, which parses
       the same text alone, gives the same dict.

    A matching count alone is not enough: ``[1`` and ``2], 3`` on two
    lines, or two objects on one line followed by a record split over two
    lines, parse to as many elements as there are lines.
    """
    if not ({line[0] for line in lines} <= {"{"} and {line[-1] for line in lines} <= {"}"}):
        return None
    try:
        objs = json.loads("[" + ",\n".join(lines) + "]")
    except ValueError:
        return None
    if len(objs) != len(lines) or not _types(objs) <= {dict} \
            or not _types(chain.from_iterable(map(dict.values, objs))) <= _SCALARS:
        return None
    return objs


def _types(values) -> set:
    return set(map(type, values))


_FAULTS = (AttributeError, KeyError, TypeError, ValueError, OverflowError)


def _read_records(path, lines: list[str], start: int, kind: str, columns) -> list[list]:
    """The records on a JSONL file's lines (numbered from ``start``), as
    the columns of ``columns``, the format's rule set.

    The non-blank lines are taken in blocks of `_BLOCK_RECORDS`.  Each
    block is parsed, by `_bulk_objects` or else by one ``json.loads`` per
    line, checked by one call of ``columns`` and appended to the columns,
    so only one block's parsed objects are alive at a time.  Only if a
    line does not parse, ``columns`` raises or an id repeats anywhere in
    the file are the lines parsed again one by one, each record checked
    alone by ``columns([obj])``: this raises at the first bad line, a
    malformed record or an id already seen on an earlier line, and names
    it.
    """
    body = [line for line in map(str.strip, lines) if line]
    try:
        parts = []  # an empty body is one empty block, so the columns exist
        for lo in range(0, len(body) or 1, _BLOCK_RECORDS):
            block = body[lo:lo + _BLOCK_RECORDS]
            objs = _bulk_objects(block)
            parts.append(columns(list(map(json.loads, block)) if objs is None else objs))
        cols = [list(chain.from_iterable(col)) for col in zip(*parts)]
        if len(set(cols[0])) == len(cols[0]):
            return cols
    except _FAULTS:
        pass
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(map(str.strip, lines), start):
        if not line:
            continue
        try:
            sid = columns([json.loads(line)])[0][0]
        except _FAULTS as exc:
            raise ValueError(f"{path}:{lineno}: malformed {kind} record: {exc}") from exc
        if sid in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate sentence id {sid!r} "
                             f"(first on line {first_line[sid]})")
        first_line[sid] = lineno
    raise AssertionError(f"{path}: records rejected together pass one by one")


def _require(values: list, types: set, message: str) -> None:
    """Raise ValueError(message), formatted with the first value whose
    type is not in ``types`` as JSON, if there is one."""
    if not _types(values) <= types:
        raise ValueError(message.format(json.dumps(next(v for v in values
                                                        if type(v) not in types))))


def _strings(values: list) -> list[str]:
    """String or integer ids as strings."""
    return values if _types(values) <= {str} else list(map(str, values))


def _corpus_columns(objs: list) -> list[list]:
    """The corpus rule set: the id, image id, text, split and level columns
    of ``objs``, or an exception at the first fault.  The fields are
    checked in this order, so a record with several faults names the same
    one whether it is checked alone or among others."""
    splits = [o.get("split", "train") for o in objs]
    if not (_types(splits) <= {str} and set(splits) <= set(VALID_SPLITS)):
        raise ValueError(f"bad split {next(s for s in splits if s not in VALID_SPLITS)!r}")
    levels = [o.get("level") for o in objs]
    ids, image_ids, texts = ([o[key] for o in objs] for key in ("id", "image_id", "text"))
    for name, values in (("id", ids), ("image_id", image_ids)):
        _require(values, {str, int}, f"{name!r} must be a string or an integer")
    _require(texts, {str}, "'text' must be a string")
    _require(levels, {int, type(None)}, "'level' must be an integer or null")
    return [_strings(ids), _strings(image_ids), texts, splits, levels]


def read_corpus_columns(path) -> CorpusColumns:
    """One record per line: {"id", "image_id", "text", "split"?, "level"?}.

    ``id`` and ``image_id`` are strings or integers (kept as their decimal
    strings), ``text`` is a string, ``split`` one of `VALID_SPLITS`
    (default "train") and ``level`` an integer or null.  Anything else, and
    a repeated id, raises ValueError naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return CorpusColumns(*_read_records(path, lines, 1, "corpus", _corpus_columns))


def read_corpus_jsonl(path) -> list[SentenceRecord]:
    """The records of `read_corpus_columns`, in file order."""
    c = read_corpus_columns(path)
    return list(map(SentenceRecord, c.ids, c.image_ids, c.texts, c.splits, c.levels))


def write_corpus_jsonl(path, records: list[SentenceRecord]) -> None:
    """`write_corpus_columns` of the records' fields."""
    fields = ("id", "image_id", "text", "split", "level")
    write_corpus_columns(path, CorpusColumns(*([getattr(r, f) for r in records] for f in fields)))


def write_corpus_columns(path, columns: CorpusColumns) -> None:
    """One line per record, written at once.

    The bytes are those of ``json.dumps(obj, sort_keys=True)`` per line,
    where obj holds the record's fields and leaves out a ``None`` level:
    keys in the order id, image_id, level, split, text, strings through
    json's ASCII string encoder, the level as ``int.__repr__``.  The
    fields must be strings and the level an integer or None, the values
    `read_corpus_columns` gives back unchanged.
    """
    levels = columns.levels
    _require(levels, {int, type(None)}, "'level' must be an integer or null, got {}")
    level_keys = ["" if level is None else f'"level": {int.__repr__(level)}, ' for level in levels]
    lines = [f'{{"id": {_encode_id(sid)}, "image_id": {_encode_id(iid)}, {level_key}'
             f'"split": {_encode_id(split)}, "text": {_encode_id(text)}}}\n'
             for sid, iid, level_key, split, text in zip(columns.ids, columns.image_ids,
                                                         level_keys, columns.splits, columns.texts)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def write_table_jsonl(path, table: DescriptivenessTable) -> None:
    """Header record carries the normalization extremes; one row per id.

    The bytes are those of ``json.dumps(row, sort_keys=True)`` per line:
    floats as ``float.__repr__``, ids through json's ASCII string encoder.
    Every value must be finite, as `read_table_jsonl` requires.
    """
    deltas = list(table.scores.values())
    raws = [table.raw_scores[sid] for sid in table.scores]
    if not np.isfinite(deltas + raws + [table.raw_min, table.raw_max]).all():
        raise ValueError("cannot write a table holding a non-finite value")
    header = json.dumps({"raw_min": table.raw_min, "raw_max": table.raw_max}, sort_keys=True)
    rows = [f'{{"delta": {float.__repr__(d)}, "id": {_encode_id(sid)}, "raw": {float.__repr__(r)}}}\n'
            for sid, d, r in zip(table.scores, deltas, raws)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "".join(rows))


def _numbers(objs: list, name: str) -> list[float]:
    """The ``name`` values of ``objs``, JSON numbers (not bools), as floats."""
    values = [o[name] for o in objs]
    _require(values, {int, float}, f"{name!r} must be a number, got {{}}")
    return values if _types(values) <= {float} else list(map(float, values))


def _table_columns(objs: list) -> list[list]:
    """The table rule set: the id, delta and raw columns of ``objs``, or an
    exception at the first fault, the fields checked in a fixed order as in
    `_corpus_columns`."""
    deltas = _numbers(objs, "delta")
    ids = [o["id"] for o in objs]
    _require(ids, {str, int}, "'id' must be a string or an integer, got {}")
    raws = _numbers(objs, "raw")
    for name, values in (("delta", deltas), ("raw", raws)):
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"{name!r} must be finite, got {values[int(np.argmin(finite))]!r}")
    d = np.array(deltas)
    inside = (d >= 0.0) & (d <= 1.0)
    if not inside.all():
        raise ValueError(f"'delta' must lie in [0, 1], got {deltas[int(np.argmin(inside))]!r}")
    return [_strings(ids), deltas, raws]


def read_table_jsonl(path) -> DescriptivenessTable:
    """Header {"raw_min", "raw_max"} on line 1, then one {"id", "delta",
    "raw"} row per line: ``id`` a string or an integer (kept as its decimal
    string), the other values JSON numbers (not bools or strings).  A
    malformed row, a non-finite value, a delta outside [0, 1] or a repeated
    id raises ValueError naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        head, body = fh.readline(), fh.read()
    try:
        header = json.loads(head)
        (raw_min,), (raw_max,) = _numbers([header], "raw_min"), _numbers([header], "raw_max")
    except KeyError as exc:
        raise ValueError(f"{path}:1: missing table header record") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}:1: malformed table header: {exc}") from exc
    if not (math.isfinite(raw_min) and math.isfinite(raw_max)):
        raise ValueError(f"{path}:1: malformed table header: raw_min and raw_max must be finite")
    ids, deltas, raws = _read_records(path, body.split("\n"), 2, "table", _table_columns)
    return DescriptivenessTable(scores=dict(zip(ids, deltas)), raw_scores=dict(zip(ids, raws)),
                                raw_min=raw_min, raw_max=raw_max)

"""Corpus term statistics and sentence descriptiveness scoring.

A sentence's raw descriptiveness is the sum over its distinct words of
term-frequency times inverse document frequency, computed against a fixed
document pool (one "document" = one sentence).  Raw scores over the pool
split are min-max normalized into [0, 1]; sentences outside the pool are
scored with the pool statistics and the stored extremes, then clamped.
`build_table` is the one implementation of the formula.

Summation order: `build_table` adds a raw score's terms left to right,
starting from 0.0, over the sentence's distinct words in order of first
occurrence.  The order is part of its contract because ``sum``
compensates float additions from Python 3.12 on, and the table bytes
would then depend on the interpreter.

The JSONL readers parse a file with one ``json.loads`` when that provably
gives what one ``json.loads`` per line gives (see `_bulk_objects`), and
fall back to the per-line parser otherwise.  Every message about a bad
record comes from the per-line parser and names the file and the line.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

_TOKEN_RE = re.compile(r"[0-9a-z]+")

VALID_SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class TokenSequence:
    """Lowercased word tokens of one sentence."""

    tokens: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass
class DocumentPool:
    """Document-frequency statistics over a pool of sentences.

    ``size`` is the number of sentences in the pool; ``doc_freq[w]`` counts
    the sentences containing ``w`` at least once (presence, not
    multiplicity), for the words that occur in the pool.
    """

    size: int
    doc_freq: dict[str, int]


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


def build_table(records: list[SentenceRecord], pool_split: str = "train") -> tuple[DocumentPool, DescriptivenessTable]:
    """Build the pool from one split and score every record against it.

    Records of ``pool_split`` define the pool and the normalization range.
    A record's raw score is the sum over its distinct words w of
    (n_w / n) * ln(m / m_w): n_w counts w in the record, n is the record's
    length, m the pool size and m_w the pool sentences containing w, taken
    as 1 for a word the pool lacks.  Pool records get (raw - min) / (max -
    min) over the pool, or 0.5 when every pool raw is equal; records of
    other splits get the same value clamped into [0, 1], since the pool
    extremes need not bound them.  The returned table covers all record
    ids, in input order.

    The terms are added left to right from 0.0 in first-occurrence order
    (the module docstring says why the order is fixed).  The pass is
    batched: one `tokenize` per record, one ``math.log`` per vocabulary
    word (not ``np.log``, which may differ from libm in the last ulp), and
    the terms summed position by position, so the j-th distinct word of
    every sentence is added at step j.
    """
    if pool_split not in VALID_SPLITS:
        raise ValueError(f"unknown split {pool_split!r}")
    in_pool = np.array([r.split == pool_split for r in records], dtype=bool)
    if not in_pool.any():
        raise ValueError(f"pool split {pool_split!r} is empty")
    ids = [r.id for r in records]
    if len(set(ids)) < len(ids):
        dup = next(sid for sid, n in Counter(ids).items() if n > 1)
        raise ValueError(f"duplicate sentence id {dup!r}")
    sentences = [tokenize(r.text).tokens for r in records]
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    if not lengths.all():
        raise ValueError(f"sentence {ids[int(np.argmin(lengths))]!r} has no tokens")

    # first occurrence of each word in each sentence, in token order, with
    # the word's count in the sentence
    flat = list(chain.from_iterable(sentences))
    vocab = {w: k for k, w in enumerate(dict.fromkeys(flat))}
    n_words = len(vocab)
    words = np.fromiter(map(vocab.__getitem__, flat), dtype=np.int64, count=len(flat))
    owner = np.repeat(np.arange(len(records), dtype=np.int64), lengths)
    _, first, counts = np.unique(owner * n_words + words, return_index=True,
                                 return_counts=True)
    count_at = np.zeros(len(flat), dtype=np.int64)
    count_at[first] = counts
    firsts = np.flatnonzero(count_at)
    sent, word, counts = owner[firsts], words[firsts], count_at[firsts]

    size = int(in_pool.sum())
    doc_freq = np.bincount(word[in_pool[sent]], minlength=n_words)
    idf = np.array([math.log(size / m) for m in np.maximum(doc_freq, 1).tolist()])
    terms = counts / lengths[sent] * idf[word]

    # sum each sentence's terms left to right: add its j-th terms at step j
    distinct = np.bincount(sent, minlength=len(records))
    start = np.cumsum(distinct) - distinct
    raw = np.zeros(len(records))
    for j in range(int(distinct.max())):
        longer = np.flatnonzero(distinct > j)
        raw[longer] += terms[start[longer] + j]

    raw_min = float(raw[in_pool].min())
    raw_max = float(raw[in_pool].max())
    span = raw_max - raw_min
    scores = np.full(len(records), 0.5) if span == 0.0 else np.clip((raw - raw_min) / span, 0.0, 1.0)
    pool = DocumentPool(size=size, doc_freq={w: m for w, m in zip(vocab, doc_freq.tolist()) if m})
    return pool, DescriptivenessTable(scores=dict(zip(ids, scores.tolist())),
                                      raw_scores=dict(zip(ids, raw.tolist())),
                                      raw_min=raw_min, raw_max=raw_max)


# ---------------------------------------------------------------------------
# JSONL formats

_SCALARS = {str, int, float, bool, type(None)}
_encode_id = json.encoder.encode_basestring_ascii


def _nonblank(lines: list[str]) -> list[str]:
    return [line for line in map(str.strip, lines) if line]


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


def _read_records(path, lines: list[str], start: int, kind: str, columns, fields,
                  width: int) -> list[list]:
    """The records on a JSONL file's lines (numbered from ``start``), as
    ``width`` columns.

    Fast path: `_bulk_objects`, then ``columns(objs)``, which returns None
    unless every record is valid as it stands.  Otherwise one ``json.loads``
    per line, then ``fields(obj)``, which returns the record's values (id
    first) or raises; this raises at the first bad line, a malformed record
    or an id already seen on an earlier line, and names it.
    """
    objs = _bulk_objects(_nonblank(lines))
    cols = None if objs is None else columns(objs)
    if cols is not None:
        return cols
    rows = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start):
        line = line.strip()
        if not line:
            continue
        try:
            row = fields(json.loads(line))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed {kind} record: {exc}") from exc
        sid = row[0]
        if sid in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate sentence id {sid!r} "
                             f"(first on line {first_line[sid]})")
        first_line[sid] = lineno
        rows.append(row)
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(width)]


def _corpus_fields(obj) -> tuple[str, str, str, str, int | None]:
    split = obj.get("split", "train")
    if split not in VALID_SPLITS:
        raise ValueError(f"bad split {split!r}")
    level = obj.get("level")
    sid, image_id, text = obj["id"], obj["image_id"], obj["text"]
    for name, value in (("id", sid), ("image_id", image_id)):
        if type(value) not in (str, int):
            raise ValueError(f"{name!r} must be a string or an integer")
    if type(text) is not str:
        raise ValueError("'text' must be a string")
    if level is not None and type(level) is not int:
        raise ValueError("'level' must be an integer or null")
    return str(sid), str(image_id), text, split, level


def _corpus_columns(objs: list[dict]) -> list[list] | None:
    """Columns of bulk-parsed records, or None unless every record is valid
    as it stands (string ids and text, a known split, an integer or absent
    level, no repeated id); the rest goes to the per-line parser."""
    ids = [o.get("id") for o in objs]
    image_ids = [o.get("image_id") for o in objs]
    texts = [o.get("text") for o in objs]
    splits = [o.get("split", "train") for o in objs]
    levels = [o.get("level") for o in objs]
    valid = (_types(ids) | _types(image_ids) | _types(texts) <= {str}
             and set(splits) <= set(VALID_SPLITS)
             and _types(levels) <= {int, type(None)}
             and len(set(ids)) == len(ids))
    return [ids, image_ids, texts, splits, levels] if valid else None


def read_corpus_columns(path) -> CorpusColumns:
    """One record per line: {"id", "image_id", "text", "split"?, "level"?}.

    ``id`` and ``image_id`` are strings or integers (kept as their decimal
    strings), ``text`` is a string, ``split`` one of `VALID_SPLITS`
    (default "train") and ``level`` an integer or null.  Anything else, and
    a repeated id, raises ValueError naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return CorpusColumns(*_read_records(path, lines, 1, "corpus", _corpus_columns,
                                        _corpus_fields, width=5))


def read_corpus_jsonl(path) -> list[SentenceRecord]:
    """The records of `read_corpus_columns`, in file order."""
    c = read_corpus_columns(path)
    return list(map(SentenceRecord, c.ids, c.image_ids, c.texts, c.splits, c.levels))


def write_corpus_jsonl(path, records: list[SentenceRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            obj = {"id": r.id, "image_id": r.image_id, "text": r.text, "split": r.split}
            if r.level is not None:
                obj["level"] = r.level
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


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


def _table_number(obj, name: str) -> float:
    if type(obj[name]) not in (int, float):
        raise ValueError(f"{name!r} must be a number, got {json.dumps(obj[name])}")
    return float(obj[name])


def _table_fields(obj) -> tuple[str, float, float]:
    # read in this order so that a row with several faults names the same one as before
    delta = _table_number(obj, "delta")
    sid = obj["id"]
    if type(sid) not in (str, int):
        raise ValueError(f"'id' must be a string or an integer, got {json.dumps(sid)}")
    raw = _table_number(obj, "raw")
    for name, value in (("delta", delta), ("raw", raw)):
        if not math.isfinite(value):
            raise ValueError(f"{name!r} must be finite, got {value!r}")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"'delta' must lie in [0, 1], got {delta!r}")
    return str(sid), delta, raw


def _table_columns(objs: list[dict]) -> list[list] | None:
    """Columns of bulk-parsed rows, or None unless every row holds a string
    id, float values and a finite delta in [0, 1] and finite raw, with no
    repeated id; the rest goes to the per-line parser."""
    ids = [o.get("id") for o in objs]
    deltas = [o.get("delta") for o in objs]
    raws = [o.get("raw") for o in objs]
    if not (_types(ids) <= {str} and _types(deltas) | _types(raws) <= {float}):
        return None
    d = np.array(deltas, dtype=np.float64)
    valid = (np.isfinite(d).all() and np.isfinite(raws).all()
             and ((d >= 0.0) & (d <= 1.0)).all() and len(set(ids)) == len(ids))
    return [ids, deltas, raws] if valid else None


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
        raw_min, raw_max = _table_number(header, "raw_min"), _table_number(header, "raw_max")
    except KeyError as exc:
        raise ValueError(f"{path}:1: missing table header record") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}:1: malformed table header: {exc}") from exc
    if not (math.isfinite(raw_min) and math.isfinite(raw_max)):
        raise ValueError(f"{path}:1: malformed table header: raw_min and raw_max must be finite")
    ids, deltas, raws = _read_records(path, body.split("\n"), 2, "table", _table_columns,
                                      _table_fields, width=3)
    return DescriptivenessTable(scores=dict(zip(ids, deltas)), raw_scores=dict(zip(ids, raws)),
                                raw_min=raw_min, raw_max=raw_max)

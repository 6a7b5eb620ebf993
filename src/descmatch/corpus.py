r"""Corpus term statistics and sentence descriptiveness scoring.

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

Each JSONL format has one rule set, a function from field columns to
output columns (`_corpus_columns`, `_table_columns`) that raises at the
first fault, and its writer holds to it.  A writer checks every record
before it opens the file, with the rule set's own checks of a split
(`_check_splits`), a level (`_require_int64`) and a delta's range
(`_check_deltas`), and types its fields as the writer's lines need them,
so it writes only lines its reader takes.  A reader takes the file's text
after the header in blocks of `_BLOCK_CHARS` characters, each run on to
the end of its last line, and splits a block once by the format's pattern
of the exact line its writer emits (`_CORPUS`, `_TABLE`).  If the text
between the matches is only newlines, the columns come from the match
groups.  Any other block (a padded, blank, reordered or nested line)
takes the route of its stripped, non-blank lines, split on newlines only,
as iterating the file splits them (the file is read with universal
newlines, so CRLF and CR endings arrive as newlines): those lines are
matched the same way, and if one does not match they are parsed with one
``json.loads`` per line.  Either way the block's columns go through one
call of the rule set, told whether they were matched, and ids must be
unique over the whole file.  Only a file that fails is read again line by
line, each record parsed and checked alone by the same rule set, so that
the message names the file and the first bad line.

Why the groups of a matched line are what ``json.loads(line)`` gives:

1. Lines.  ``pattern.split`` of a text gives the text between matches
   and each match's g groups in one flat list, the text between matches
   at every (g + 1)-th entry from the first.  The pattern is anchored by
   ``^`` and ``$`` in multiline mode and matches no newline, so a match is
   one whole line and a line holds at most one.  When the text between
   the matches is only newlines, every other character lies in a match,
   so every non-blank line is one whole match, unpadded: the lines that
   the per-line route reads (split on newlines, stripped, blank ones
   dropped) are the matched lines, in order.  Stripped, non-blank lines
   joined by newlines pass this test exactly when every line matches.
2. Strings.  A string group, the text between two quotes, holds printable
   ASCII characters other than ``"`` and ``\`` and JSON escapes: ``\``
   and one of ``"\/bfnrt``, or ``\u`` and four hex digits.  It holds no
   unescaped quote, so the JSON string token ends at the pattern's closing
   quote.  JSON reads each such character as itself, so a group without a
   backslash is its own value, and a group with one is decoded by
   ``json.loads`` of the quoted group: the per-line decoder on the same
   token, surrogate escapes included.
3. Numbers.  A level group follows JSON's integer grammar with ASCII
   digits, ``-?(0|[1-9][0-9]*)``, and ``json.loads`` reads such a token as
   ``int`` of its text.  A table number follows JSON's number grammar with
   a fraction or an exponent required, and ``json.loads`` reads such a
   token as ``float`` of its text.  An integer-valued table number written
   without either does not match, so it keeps the per-line route, where
   the rule set turns the int into a float (and rejects one too large for
   a float).  ``1e999`` matches and reads as inf on both routes, which
   the rule set rejects.
4. Keys.  The key literals are fixed, distinct and in a fixed order, with
   JSON's own whitespace between tokens, so ``json.loads`` reads a dict of
   exactly these keys, none repeated (a repeated key would keep its last
   value).  A line without the optional level group has no ``level`` key,
   which both routes read as null.
5. Types.  So a matched block's columns hold what a parsed block's hold
   after the rule set's presence, type and conversion scans: every field
   present, every id, image id, split and text a ``str``, every level an
   ``int`` or None, every delta and raw a ``float``.  The rule set takes
   such columns with ``typed`` true and skips those scans (`_present`,
   `_require`, `_strings` and `_numbers`).  Every value check still runs
   on every block: a split in `VALID_SPLITS`, a level in int64's range, a
   finite delta and raw, a delta in [0, 1] and ids unique over the file;
   and image ids and splits are still shared (`_shared`).  A check that
   raises on a typed block sends the file to the line-by-line pass, as on
   any other block, so the message and line number are that pass's.

Memory: neither reader holds the whole file.  One block of text, its
split and its groups (on the other route, also its stripped lines and
their joined text) are alive at a time besides the columns built so far; only the line-by-line pass after a fault reads the file again,
one line at a time.  The corpus rule set keeps one string object per
distinct image id and per distinct split within a block (the first of
each, through a per-block dict, not a global intern), so the four
captions of an image and every sentence of a split share their values in
the columns and in the records built from them.  The writers check every
record first, then format and write one block of `_BLOCK_RECORDS` lines
at a time, so neither holds the whole file's text.  A table block's text
is one join of a list of six strings per row, the row's three values
between constant separators.  `score_word_ids` takes its sentences in
blocks and finds one block's distinct words before it reads the next,
and `build_table`'s tokenizer, `_word_ids`, tokenizes a block of records
only when the scorer asks for it, so one block's lowercased texts, their
joined text, its UTF-8 bytes (as encoded and as translated), the
positions of its continuation bytes and its tokens are alive at a time,
never the whole corpus's.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict, deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter, eq, methodcaller

import numpy as np

from . import geometry

# the UTF-8 bytes of a token character and a `bytes.translate` table that
# keeps them and makes every other byte a space
_TOKEN_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz"
_SPACED = bytes(b if b in _TOKEN_BYTES else 0x20 for b in range(256))

# a text's UTF-8 bytes, a lone surrogate passed through as three bytes
_utf8_bytes = methodcaller("encode", "utf-8", "surrogatepass")

VALID_SPLITS = ("train", "val", "test")

# records per block of `build_table`'s tokenization and scoring and of a
# writer's formatting: the joined text, tokens and lines of one block are
# alive at a time, not those of the whole corpus
_BLOCK_RECORDS = 1 << 11

# characters per block of a reader's match, parse and check, about 256 KiB
# of the writers' ASCII lines; a block runs on to the end of its last line
_BLOCK_CHARS = 1 << 18


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


@dataclass(frozen=True, slots=True)
class SentenceRecord:
    """One corpus line: a caption tied to an image, with an optional
    hierarchy level (1 = most generic).  Its fields are slots, so a record
    has no ``__dict__`` and takes no weak reference."""

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


# each `SentenceRecord` field, whose column in `CorpusColumns` is its name
# plus "s"
_RECORD_FIELDS = ("id", "image_id", "text", "split", "level")


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split on every character outside [0-9a-z], dropping
    empty fragments: the tokens of ``re.findall("[0-9a-z]+", text.lower())``.
    Deterministic; no stemming or stop-word removal.

    The lowercased text's UTF-8 bytes go through one `_SPACED` translate,
    which leaves ASCII, then one decode and one split.  The token
    characters are ASCII, and UTF-8 (a lone surrogate passed through as
    three bytes) encodes every other code point in bytes of 0x80 and
    above, so the runs of token bytes are the runs of token characters.
    """
    spaced = _utf8_bytes(text.lower()).translate(_SPACED)
    return TokenSequence(tuple(spaced.decode("ascii").split()))


def build_table(records: list[SentenceRecord], pool_split: str = "train") -> tuple[dict[str, int], DescriptivenessTable]:
    """The doc freq of the pool's words and the table of every record:
    `score_word_ids` over the blocks of `_word_ids`, which tokenizes each
    block of `_BLOCK_RECORDS` texts with one `tokenize` call and gives the
    tokens of one `tokenize` per text, the records' own vocabulary
    numbered in order of first occurrence.  ``doc_freq[w]`` counts the
    pool sentences that hold ``w`` at least once (presence, not
    multiplicity), keyed in order of first occurrence over all records,
    for the words that occur in the pool."""
    # a word's id is the vocabulary's size when the word is first looked up
    vocab = defaultdict()
    vocab.default_factory = vocab.__len__
    ids, splits, texts = (list(map(attrgetter(name), records)) for name in ("id", "split", "text"))
    doc_freq, table = score_word_ids(ids, splits, _word_ids(texts, vocab), pool_split)
    return {w: m for w, m in zip(vocab, doc_freq.tolist()) if m}, table


def _word_ids(texts: list[str], vocab: defaultdict) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block of `_BLOCK_RECORDS` texts, each text's token count and its
    tokens' ids in ``vocab``, a dict whose ``default_factory`` is its own
    ``__len__``, so a new word gets the next id.  A generator, so a block is
    tokenized only when the scorer asks for it.

    A block is tokenized by one `tokenize` of its texts, each lowercased on
    its own and joined by single spaces.  A token's start is a token byte
    after a space in the joined text's UTF-8 bytes translated by
    `_SPACED`, as `tokenize` translates them, and a text's tokens are those
    that start before its end byte, the byte of the space after it.  The
    counts and tokens are those of one `tokenize` per text:

    - a space is not a token character, so no token crosses two texts and
      splitting the joined text's translated bytes gives each text's
      tokens in turn;
    - ``str.lower`` maps one code point at a time except for a final
      sigma, whose context a space ends, so lowercasing the joined text
      gives the lowercased texts joined;
    - ``lower`` is idempotent (checked over every code point), so
      `tokenize` lowercasing the joined text again changes nothing;
    - each text is lowercased on its own, so its span in the joined text
      is right even where lowercasing changes its length (``İ``);
    - the joined text's bytes are its texts' bytes joined by spaces, and
      the translate maps each byte alone, so a token starts at the same
      bytes of the joined text as of its own text's encoding.  The bytes
      are a quarter of UTF-32's for ASCII text;
    - UTF-8 encodes each code point (a lone surrogate too) as one lead
      byte and its continuation bytes, ``0b10xxxxxx``, so code point c
      starts at byte c plus the continuation bytes before it.  The i-th
      continuation byte, at byte p, belongs to code point p - i - 1.

    The tokens are mapped in one pass, new words numbered in order of
    first occurrence.
    """
    for lo in range(0, len(texts), _BLOCK_RECORDS):
        lowered = list(map(str.lower, texts[lo:lo + _BLOCK_RECORDS]))
        joined = " ".join(lowered)
        tokens = tokenize(joined).tokens
        utf8 = _utf8_bytes(joined)
        is_token = np.frombuffer(utf8.translate(_SPACED), dtype=np.uint8) != 0x20
        starts = np.flatnonzero(is_token & np.diff(is_token, prepend=False))
        # the code point of the space after each text, the last one's past
        # the end, and its byte
        sizes = np.fromiter(map(len, lowered), dtype=np.int64, count=len(lowered))
        spaces = np.cumsum(sizes + 1) - 1
        continued = np.flatnonzero((np.frombuffer(utf8, dtype=np.uint8) & 0xC0) == 0x80)
        ends = spaces + np.searchsorted(continued - np.arange(continued.size), spaces, "right")
        yield (np.diff(np.searchsorted(starts, ends), prepend=0),
               np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=len(tokens)))


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
    in_pool = np.fromiter(map(eq, splits, repeat(pool_split)), dtype=bool, count=len(splits))
    if not in_pool.any():
        raise ValueError(f"pool split {pool_split!r} is empty")
    _check_unique(ids)
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

_encode_id = json.encoder.encode_basestring_ascii

# the JSON tokens of the writers' lines: a string (its group is the text
# between the quotes), an integer, and a number with a fraction or exponent;
# a run of plain characters and an escape start with different characters,
# so a line that does not match fails in time linear in its length
_STRING = r'"([ !#-\[\]-~]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[ !#-\[\]-~]*)*)"'
_INTEGER = r"-?(?:0|[1-9][0-9]*)"
_FLOAT = _INTEGER + r"(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"

# a field that a parsed line lacks and that has no default
_MISSING = object()


@dataclass(frozen=True)
class _Format:
    """A JSONL format: the line its writer emits, the fields of a parsed
    line, and the rule set that both routes feed."""

    kind: str              # "corpus" or "table", as messages name it
    line: re.Pattern       # the writer's line, anchored, one group per field
    groups: Callable       # group columns, whether a backslash occurs -> field columns
    fields: tuple          # (key, default or _MISSING), in the rule set's order
    rules: Callable        # field columns, whether matched -> output columns, ids first
    header: Callable | None = None  # (path, line 1) -> its value, if line 1 is a header


def _unquoted(strings: list[str], escaped: bool) -> list[str]:
    """The values of string groups: a group without a backslash is its own
    value, any other is decoded by ``json.loads`` of the quoted group."""
    if not escaped:
        return strings
    return [json.loads(f'"{s}"') if "\\" in s else s for s in strings]


_FAULTS = (AttributeError, KeyError, TypeError, ValueError, OverflowError)


def _matched_columns(fmt: _Format, text: str) -> dict | None:
    """The field columns of the lines of ``text`` from one ``split`` by
    ``fmt.line``, or None if the text between the matches is not only
    newlines: a line that does not match, or one padded with whitespace
    (the module docstring says why the columns are then what
    ``json.loads`` of each line gives)."""
    parts = fmt.line.split(text)
    width = fmt.line.groups + 1
    if "".join(parts[::width]).strip("\n"):
        return None
    return fmt.groups([parts[j::width] for j in range(1, width)], "\\" in text)


def _parsed_columns(fmt: _Format, block: list[str]) -> dict:
    """The field columns of a block of lines, one ``json.loads`` per line:
    a field a line lacks gets its default, or `_MISSING`.  A field with a
    default is read with ``get`` and one without by indexing, so a line
    holding no JSON object fails as that read fails."""
    objs = list(map(json.loads, block))
    cols = {}
    for key, default in fmt.fields:
        if default is _MISSING:
            try:
                cols[key] = [o[key] for o in objs]
                continue
            except KeyError:
                pass
        cols[key] = [o.get(key, default) for o in objs]
    return cols


def _utf8(line: str) -> str:
    """``line``, read with ``errors="surrogateescape"``, or ValueError
    naming its first byte that is not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"line is not valid UTF-8 (byte {ord(line[exc.start]) - 0xdc00:#04x} "
                         f"at column {exc.start + 1})") from None
    return line


def _read_records(path, fmt: _Format) -> tuple[object, list[list]]:
    """The value of a JSONL file's header line, if ``fmt`` has one (else
    None), and the records on its other lines, as the columns of
    ``fmt.rules``.

    The text after the header is read in blocks of `_BLOCK_CHARS`
    characters, each run on to the end of its last line.  A block's columns
    are `_matched_columns` of its text, else of its stripped, non-blank
    lines joined by newlines, both typed (module docstring, point 5), else
    `_parsed_columns` of those lines.  They go through one call of
    ``fmt.rules``, told whether they are typed, and are appended to the
    columns, so only one block of text is alive at a time.

    Only if a byte is not UTF-8, the header or a line does not parse, the
    rules raise or an id repeats anywhere in the file is the file read
    again line by line, the header checked first and each record alone by
    the same rules: this raises at the first bad line, a malformed header
    or record or an id already seen on an earlier line, and names it.
    """
    try:
        parts = []
        with open(path, "r", encoding="utf-8") as fh:
            head = fmt.header(path, fh.readline()) if fmt.header else None
            # an empty file is one empty block, so the columns exist
            while (text := fh.read(_BLOCK_CHARS)) or not parts:
                if not text.endswith("\n"):
                    text += fh.readline()
                cols = _matched_columns(fmt, text)
                if cols is None:
                    lines = list(filter(None, map(str.strip, text.split("\n"))))
                    cols = _matched_columns(fmt, "\n".join(lines))
                typed = cols is not None
                parts.append(fmt.rules(cols if typed else _parsed_columns(fmt, lines), typed))
        cols = [list(chain.from_iterable(col)) for col in zip(*parts)]
        if len(set(cols[0])) == len(cols[0]):
            return head, cols
    except _FAULTS:
        pass
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        if fmt.header:
            fmt.header(path, fh.readline())
        for lineno, line in enumerate(fh, 2 if fmt.header else 1):
            if not line.strip():
                continue
            try:
                sid = fmt.rules(_parsed_columns(fmt, [_utf8(line).strip()]), False)[0][0]
            except _FAULTS as exc:
                raise ValueError(f"{path}:{lineno}: malformed {fmt.kind} record: {exc}") from exc
            if sid in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate sentence id {sid!r} "
                                 f"(first on line {first_line[sid]})")
            first_line[sid] = lineno
    raise AssertionError(f"{path}: records rejected together pass one by one")


def _types(values) -> set:
    return set(map(type, values))


def _require(values: list, types: set, message: str) -> None:
    """Raise ValueError(message), formatted with the first value whose
    type is not in ``types``, if there is one: as JSON, or as its repr
    where json cannot encode it (an ``np.float32``, say)."""
    if not _types(values) <= types:
        bad = next(v for v in values if type(v) not in types)
        try:
            shown = json.dumps(bad)
        except TypeError:
            shown = repr(bad)
        raise ValueError(message.format(shown))


def _check_unique(ids: list[str]) -> None:
    """Raise ValueError naming the first id that repeats an earlier one."""
    if (k := geometry.first_repeat(ids)) is not None:
        raise ValueError(f"duplicate sentence id {ids[k]!r}")


def _strings(values: list) -> list[str]:
    """String or integer ids as strings."""
    return values if _types(values) <= {str} else list(map(str, values))


def _shared(values: list[str]) -> list[str]:
    """``values`` with one object per distinct value, the first of each,
    so that repeated image ids and splits do not each hold a copy."""
    first: dict[str, str] = {}
    return list(map(first.setdefault, values, values))


def _present(cols: dict, name: str) -> list:
    """The ``name`` column of ``cols``, or ValueError if a record lacks it."""
    values = cols[name]
    if _MISSING in values:
        raise ValueError(f"missing {name!r}")
    return values


_INT64_END = 1 << 63


def _require_int64(levels: list) -> None:
    """Raise ValueError if an integer level lies outside [-2**63, 2**63),
    where ``np.int64`` holds it."""
    known = levels if None not in levels else [v for v in levels if v is not None]
    if known and not (-_INT64_END <= min(known) and max(known) < _INT64_END):
        raise ValueError("'level' must be an integer in [-2**63, 2**63) or null")


def _check_splits(splits: list, typed: bool) -> None:
    """Raise ValueError naming the first split outside `VALID_SPLITS`; the
    type scan is skipped where every split is known to be a string."""
    if not ((typed or _types(splits) <= {str}) and set(splits) <= set(VALID_SPLITS)):
        raise ValueError(f"bad split {next(s for s in splits if s not in VALID_SPLITS)!r}")


def _corpus_columns(cols: dict, typed: bool) -> list[list]:
    """The corpus rule set: the id, image id, text, split and level columns
    of the field columns ``cols``, or an exception at the first fault.  The
    fields are checked in this order, so a record with several faults names
    the same one whether it is checked alone or among others.  Typed
    columns (module docstring, point 5) skip the presence and type scans."""
    splits, levels = cols["split"], cols["level"]
    _check_splits(splits, typed)
    ids, image_ids, texts = (cols[key] if typed else _present(cols, key)
                             for key in ("id", "image_id", "text"))
    if not typed:
        for name, values in (("id", ids), ("image_id", image_ids)):
            _require(values, {str, int}, f"{name!r} must be a string or an integer")
        _require(texts, {str}, "'text' must be a string")
        _require(levels, {int, type(None)}, "'level' must be an integer or null")
        ids, image_ids = _strings(ids), _strings(image_ids)
    _require_int64(levels)
    return [ids, _shared(image_ids), texts, _shared(splits), levels]


def _corpus_groups(groups: list[list], escaped: bool) -> dict:
    """The corpus field columns of `_CORPUS`'s group columns."""
    ids, image_ids, levels, splits, texts = groups
    value = {v: None if v is None else int(v) for v in set(levels)}
    return {"id": _unquoted(ids, escaped), "image_id": _unquoted(image_ids, escaped),
            "level": list(map(value.__getitem__, levels)),
            "split": _unquoted(splits, escaped), "text": _unquoted(texts, escaped)}


_CORPUS = _Format(
    "corpus",
    re.compile(rf'^\{{"id": {_STRING}, "image_id": {_STRING}, (?:"level": ({_INTEGER}), )?'
               rf'"split": {_STRING}, "text": {_STRING}\}}$', re.MULTILINE),
    _corpus_groups,
    (("split", "train"), ("level", None), ("id", _MISSING), ("image_id", _MISSING),
     ("text", _MISSING)),
    _corpus_columns)


def read_corpus_columns(path) -> CorpusColumns:
    """One record per line: {"id", "image_id", "text", "split"?, "level"?}.

    ``id`` and ``image_id`` are strings or integers (kept as their decimal
    strings), ``text`` is a string, ``split`` one of `VALID_SPLITS`
    (default "train") and ``level`` an integer in [-2**63, 2**63) or null.
    Anything else, a byte that is not UTF-8 and a repeated id raise
    ValueError naming the file and the line.
    """
    return CorpusColumns(*_read_records(path, _CORPUS)[1])


def read_corpus_jsonl(path) -> list[SentenceRecord]:
    """The records of `read_corpus_columns`, in file order.  The columns
    are checked already, so each record is a bare object whose fields are
    set column by column through their slots' descriptors, not by
    ``__init__`` (which a frozen dataclass runs through
    ``object.__setattr__``, one call per field)."""
    c = read_corpus_columns(path)
    records = list(map(object.__new__, repeat(SentenceRecord, len(c.ids))))
    for name in _RECORD_FIELDS:
        deque(map(getattr(SentenceRecord, name).__set__, records, getattr(c, name + "s")),
              maxlen=0)
    return records


def write_corpus_jsonl(path, records: list[SentenceRecord]) -> None:
    """`write_corpus_columns` of the records' fields."""
    write_corpus_columns(path, CorpusColumns(**{name + "s": list(map(attrgetter(name), records))
                                                for name in _RECORD_FIELDS}))


def write_corpus_columns(path, columns: CorpusColumns) -> None:
    """One line per record, written a block of `_BLOCK_RECORDS` lines at a
    time.

    The bytes are those of ``json.dumps(obj, sort_keys=True)`` per line,
    where obj holds the record's fields and leaves out a ``None`` level:
    keys in the order id, image_id, level, split, text, strings through
    json's ASCII string encoder, the level as ``int.__repr__``.  The
    fields must be strings, the split one of `VALID_SPLITS`, the level an
    integer in [-2**63, 2**63) or None and no id repeated, the values
    `read_corpus_columns` gives back unchanged; every field is checked
    before the file is opened.
    """
    c = columns
    for name, values in (("id", c.ids), ("image_id", c.image_ids), ("split", c.splits),
                         ("text", c.texts)):
        _require(values, {str}, f"{name!r} must be a string, got {{}}")
    _check_splits(c.splits, True)
    _require(c.levels, {int, type(None)}, "'level' must be an integer or null, got {}")
    _require_int64(c.levels)
    _check_unique(c.ids)
    _write_blocks(path, "", _corpus_block, [c.ids, c.image_ids, c.levels, c.splits, c.texts])


def write_table_jsonl(path, table: DescriptivenessTable) -> None:
    """Header record carries the normalization extremes; one row per id,
    written a block of `_BLOCK_RECORDS` rows at a time.

    The bytes are those of ``json.dumps(row, sort_keys=True)`` per line:
    floats as ``float.__repr__``, ids through json's ASCII string encoder.
    Every id must be a string, every delta and raw and both extremes a
    float (``np.float64`` included), every value finite, every delta in
    [0, 1] and raw_min at most raw_max, as `read_table_jsonl` gives them;
    all are checked before the file is opened, the numbers as one float64
    array per column.  A block's text is one join of its values, in C
    (`_table_block`).
    """
    ids = list(table.scores)
    deltas = list(table.scores.values())
    raws = list(map(table.raw_scores.__getitem__, ids))
    extremes = [table.raw_min, table.raw_max]
    _require(ids, {str}, "'id' must be a string, got {}")
    for name, values in (("delta", deltas), ("raw", raws), ("raw_min", extremes[:1]),
                         ("raw_max", extremes[1:])):
        _require(values, {float, np.float64}, f"{name!r} must be a float, got {{}}")
    # one numeric array alive at a time, and none while the blocks are written
    finite = all(np.isfinite(values).all() for values in (raws, extremes))
    d = np.array(deltas, dtype=np.float64)
    if not (finite and np.isfinite(d).all()):
        raise ValueError("cannot write a table holding a non-finite value")
    _check_deltas(d)
    del d
    if table.raw_min > table.raw_max:
        raise ValueError(f"cannot write a table whose raw_min {float(table.raw_min)!r} "
                         f"exceeds its raw_max {float(table.raw_max)!r}")
    header = json.dumps({"raw_min": table.raw_min, "raw_max": table.raw_max}, sort_keys=True)
    _write_blocks(path, header + "\n", _table_block, [ids, deltas, raws])


def _write_blocks(path, head: str, block: Callable[..., str], columns: list[list]) -> None:
    """``head``, then the ``block`` text of each block of `_BLOCK_RECORDS`
    rows of the parallel ``columns``, written one block at a time, so the
    text of one block is alive at a time, not that of the file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for lo in range(0, len(columns[0]), _BLOCK_RECORDS):
            fh.write(block(*(c[lo:lo + _BLOCK_RECORDS] for c in columns)))


def _corpus_block(*columns: list) -> str:
    return "".join(map(_corpus_line, *columns))


def _corpus_line(sid: str, iid: str, level: int | None, split: str, text: str) -> str:
    level_key = "" if level is None else f'"level": {int.__repr__(level)}, '
    return (f'{{"id": {_encode_id(sid)}, "image_id": {_encode_id(iid)}, {level_key}'
            f'"split": {_encode_id(split)}, "text": {_encode_id(text)}}}\n')


def _table_block(ids: list[str], deltas: list[float], raws: list[float]) -> str:
    """The lines of a non-empty block of table rows, ``{"delta": D, "id":
    I, "raw": R}``: the values, through ``float.__repr__`` and the id
    encoder by ``map``, set between the constant separators by slice
    assignment and joined once, so no Python function runs per row."""
    parts = ['}\n{"delta": ', "", ', "id": ', "", ', "raw": ', ""] * len(ids)
    parts[0] = '{"delta": '
    parts[1::6] = map(float.__repr__, deltas)
    parts[3::6] = map(_encode_id, ids)
    parts[5::6] = map(float.__repr__, raws)
    parts.append("}\n")
    return "".join(parts)


def _numbers(values: list, name: str) -> list[float]:
    """The values of field ``name``, JSON numbers (not bools), as floats."""
    _require(values, {int, float}, f"{name!r} must be a number, got {{}}")
    return values if _types(values) <= {float} else list(map(float, values))


def _table_columns(cols: dict, typed: bool) -> list[list]:
    """The table rule set: the id, delta and raw columns of the field
    columns ``cols``, or an exception at the first fault, the fields
    checked in a fixed order as in `_corpus_columns`.  Typed columns skip
    the presence, type and conversion scans; the value checks take one
    float64 array per column."""
    deltas, ids, raws = cols["delta"], cols["id"], cols["raw"]
    if not typed:
        deltas = _numbers(_present(cols, "delta"), "delta")
        ids = _present(cols, "id")
        _require(ids, {str, int}, "'id' must be a string or an integer, got {}")
        raws = _numbers(_present(cols, "raw"), "raw")
        ids = _strings(ids)
    d = _finite(deltas, "delta")
    _finite(raws, "raw")
    _check_deltas(d)
    return [ids, deltas, raws]


def _finite(values: list[float], name: str) -> np.ndarray:
    """The floats of field ``name`` as a float64 array, or ValueError
    naming the first that is not finite."""
    a = np.array(values, dtype=np.float64)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"{name!r} must be finite, got {values[int(np.argmin(finite))]!r}")
    return a


def _check_deltas(d: np.ndarray) -> None:
    """Raise ValueError naming the first delta of the float64 array ``d``
    outside [0, 1]."""
    inside = (d >= 0.0) & (d <= 1.0)
    if not inside.all():
        raise ValueError(f"'delta' must lie in [0, 1], got {d[np.argmin(inside)].item()!r}")


def _table_groups(groups: list[list], escaped: bool) -> dict:
    """The table field columns of `_TABLE`'s group columns."""
    deltas, ids, raws = groups
    return {"delta": list(map(float, deltas)), "id": _unquoted(ids, escaped),
            "raw": list(map(float, raws))}


def _table_header(path, head: str) -> tuple[float, float]:
    """The raw_min and raw_max of a table's header line, or ValueError
    naming line 1."""
    try:
        header = json.loads(_utf8(head))
        (raw_min,), (raw_max,) = (_numbers([header["raw_min"]], "raw_min"),
                                  _numbers([header["raw_max"]], "raw_max"))
    except KeyError as exc:
        raise ValueError(f"{path}:1: missing table header record") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}:1: malformed table header: {exc}") from exc
    if not (math.isfinite(raw_min) and math.isfinite(raw_max)):
        raise ValueError(f"{path}:1: malformed table header: raw_min and raw_max must be finite")
    if raw_min > raw_max:
        raise ValueError(f"{path}:1: malformed table header: raw_min {raw_min!r} exceeds "
                         f"raw_max {raw_max!r}")
    return raw_min, raw_max


_TABLE = _Format(
    "table",
    re.compile(rf'^\{{"delta": ({_FLOAT}), "id": {_STRING}, "raw": ({_FLOAT})\}}$', re.MULTILINE),
    _table_groups,
    (("delta", _MISSING), ("id", _MISSING), ("raw", _MISSING)),
    _table_columns,
    _table_header)


def read_table_jsonl(path) -> DescriptivenessTable:
    """Header {"raw_min", "raw_max"} on line 1, then one {"id", "delta",
    "raw"} row per line: ``id`` a string or an integer (kept as its decimal
    string), the other values JSON numbers (not bools or strings).  A
    malformed row, a non-finite value, a delta outside [0, 1], a header
    whose raw_min exceeds its raw_max, a byte that is not UTF-8 or a
    repeated id raises ValueError naming the line."""
    (raw_min, raw_max), (ids, deltas, raws) = _read_records(path, _TABLE)
    return DescriptivenessTable(scores=dict(zip(ids, deltas)), raw_scores=dict(zip(ids, raws)),
                                raw_min=raw_min, raw_max=raw_max)

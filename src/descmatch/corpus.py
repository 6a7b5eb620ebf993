"""Corpus term statistics and sentence descriptiveness scoring.

A sentence's raw descriptiveness is the sum over its distinct words of
term-frequency times inverse document frequency, computed against a fixed
document pool (one "document" = one sentence).  Raw scores over the
training pool are min-max normalized into [0, 1]; sentences outside the
pool are scored with the pool statistics and the stored extremes, then
clamped.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

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

    ``size`` is the number of sentences ingested; ``doc_freq[w]`` counts the
    sentences containing ``w`` at least once (presence, not multiplicity).
    With ``smoothing`` on, a word absent from the pool is scored as if it
    occurred in exactly one sentence; in-pool words are unaffected.
    """

    size: int
    doc_freq: dict[str, int]
    smoothing: bool = True


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


def tokenize(text: str) -> TokenSequence:
    """Lowercase and split on every non-alphanumeric character, dropping
    empty fragments.  Deterministic; no stemming or stop-word removal."""
    return TokenSequence(tuple(_TOKEN_RE.findall(text.lower())))


def build_pool(sentences: Iterable[TokenSequence], smoothing: bool = True) -> DocumentPool:
    """Accumulate presence counts for each word over the given sentences."""
    freq: Counter[str] = Counter()
    size = 0
    for sent in sentences:
        size += 1
        freq.update(set(sent.tokens))
    return DocumentPool(size=size, doc_freq=dict(freq), smoothing=smoothing)


def _idf(word: str, pool: DocumentPool) -> float:
    m_w = pool.doc_freq.get(word, 0)
    if m_w == 0:
        if not pool.smoothing:
            raise ValueError(f"word {word!r} absent from pool and smoothing is off")
        m_w = 1
    return math.log(pool.size / m_w)


def tfidf(word: str, sentence: TokenSequence, pool: DocumentPool) -> float:
    """(count of word in sentence / sentence length) * ln(pool size / doc freq)."""
    if sentence.n == 0:
        raise ValueError("cannot score an empty sentence")
    if pool.size == 0:
        raise ValueError("cannot score against an empty pool")
    n_w = sentence.tokens.count(word)
    return (n_w / sentence.n) * _idf(word, pool)


def raw_descriptiveness(sentence: TokenSequence, pool: DocumentPool) -> float:
    """Sum of per-word scores over the distinct words of the sentence.

    Algebraically equals the mean inverse document frequency over tokens,
    so exact repetition of the whole sentence leaves the score unchanged.
    """
    if sentence.n == 0:
        raise ValueError("cannot score an empty sentence")
    if pool.size == 0:
        raise ValueError("cannot score against an empty pool")
    counts = Counter(sentence.tokens)
    return sum((n_w / sentence.n) * _idf(w, pool) for w, n_w in counts.items())


def normalize_scores(raw: dict[str, float]) -> DescriptivenessTable:
    """Min-max normalize raw scores into [0, 1], keeping the extremes.

    A degenerate range (all raws equal) maps every sentence to 0.5 so a
    usable midpoint margin survives downstream.
    """
    if not raw:
        raise ValueError("no sentences to normalize")
    raw_min = min(raw.values())
    raw_max = max(raw.values())
    span = raw_max - raw_min
    if span == 0.0:
        scores = {sid: 0.5 for sid in raw}
    else:
        scores = {sid: (r - raw_min) / span for sid, r in raw.items()}
    return DescriptivenessTable(scores=scores, raw_scores=dict(raw), raw_min=raw_min, raw_max=raw_max)


def score_out_of_pool(sentence: TokenSequence, pool: DocumentPool, table: DescriptivenessTable) -> float:
    """Score a sentence that was not part of the normalization pool.

    Raw score against the (train) pool with smoothing, normalized with the
    stored train extremes, then clamped into [0, 1] since train extremes
    need not bound out-of-pool raws.
    """
    raw = raw_descriptiveness(sentence, pool)
    span = table.raw_max - table.raw_min
    if span == 0.0:
        return 0.5
    delta = (raw - table.raw_min) / span
    return min(1.0, max(0.0, delta))


def build_table(records: list[SentenceRecord], pool_split: str = "train") -> tuple[DocumentPool, DescriptivenessTable]:
    """Build the pool from one split and score every record against it.

    Records of ``pool_split`` define the pool and the normalization range;
    records of other splits get clamped out-of-pool scores.  The returned
    table covers all record ids, in input order.
    """
    if pool_split not in VALID_SPLITS:
        raise ValueError(f"unknown split {pool_split!r}")
    pool_records = [r for r in records if r.split == pool_split]
    if not pool_records:
        raise ValueError(f"pool split {pool_split!r} is empty")
    tokenized = {r.id: tokenize(r.text) for r in records}
    for r in records:
        if tokenized[r.id].n == 0:
            raise ValueError(f"sentence {r.id!r} has no tokens")
    pool = build_pool(tokenized[r.id] for r in pool_records)
    table = normalize_scores({r.id: raw_descriptiveness(tokenized[r.id], pool) for r in pool_records})
    scores = {}
    raws = {}
    for r in records:
        if r.split == pool_split:
            scores[r.id] = table.scores[r.id]
            raws[r.id] = table.raw_scores[r.id]
        else:
            scores[r.id] = score_out_of_pool(tokenized[r.id], pool, table)
            raws[r.id] = raw_descriptiveness(tokenized[r.id], pool)
    return pool, DescriptivenessTable(scores=scores, raw_scores=raws, raw_min=table.raw_min, raw_max=table.raw_max)


# ---------------------------------------------------------------------------
# JSONL formats


def read_corpus_jsonl(path) -> list[SentenceRecord]:
    """One record per line: {"id", "image_id", "text", "split", "level"?}."""
    records = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                split = obj.get("split", "train")
                if split not in VALID_SPLITS:
                    raise ValueError(f"bad split {split!r}")
                level = obj.get("level")
                records.append(
                    SentenceRecord(
                        id=str(obj["id"]),
                        image_id=str(obj["image_id"]),
                        text=str(obj["text"]),
                        split=split,
                        level=None if level is None else int(level),
                    )
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed corpus record: {exc}") from exc
            sid = records[-1].id
            if sid in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate sentence id {sid!r} "
                                 f"(first on line {first_line[sid]})")
            first_line[sid] = lineno
    return records


def write_corpus_jsonl(path, records: list[SentenceRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            obj = {"id": r.id, "image_id": r.image_id, "text": r.text, "split": r.split}
            if r.level is not None:
                obj["level"] = r.level
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_table_jsonl(path, table: DescriptivenessTable) -> None:
    """Header record carries the normalization extremes; one row per id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"raw_min": table.raw_min, "raw_max": table.raw_max}, sort_keys=True) + "\n")
        for sid, delta in table.scores.items():
            fh.write(json.dumps({"id": sid, "delta": delta, "raw": table.raw_scores[sid]}, sort_keys=True) + "\n")


def read_table_jsonl(path) -> DescriptivenessTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            raw_min, raw_max = float(header["raw_min"]), float(header["raw_max"])
        except KeyError as exc:
            raise ValueError(f"{path}:1: missing table header record") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:1: malformed table header: {exc}") from exc
        scores = {}
        raws = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                scores[str(obj["id"])] = float(obj["delta"])
                raws[str(obj["id"])] = float(obj["raw"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed table record: {exc}") from exc
    return DescriptivenessTable(scores=scores, raw_scores=raws, raw_min=raw_min, raw_max=raw_max)

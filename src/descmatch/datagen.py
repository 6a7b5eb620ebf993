"""Synthetic hierarchical corpus and feature generator.

Each image carries one sentence per hierarchy level and deeper sentences
are strict supersets: level l appends new words to level l-1.  Appended
words are drawn from per-level strata whose vocabularies grow with depth,
so deeper words are rarer and mean token rarity rises monotonically with
level.  Features place every text near its image's latent with noise that
shrinks as the level deepens; with noise_sigma 0 the text features equal
the image features bit for bit because both run through the same code
path.

Randomness is split by stream: default_rng([seed, 0]) drives the corpus,
default_rng([seed, 1]) the features, so editing one stage never shifts
the other.  The corpus stream is one bounded-integer stream in (image,
level, word slot) order, drawn by a single call; the oracle test in
tests/test_datagen.py checks it against one call per level and pool.

The corpus stays in columns from draw to file: `gen_corpus` returns
`corpus.CorpusColumns` and the drawn word ids, and no per-sentence
record is built.  `write_dataset` scores those ids directly, with the
scorer `corpus.build_table` uses after tokenizing, and never tokenizes
the text it has just joined (its docstring says why that is exact).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import geometry

# words added on top of the inherited prefix at each level
_BASE_SHARED = 3
_BASE_RARE = 1
_STEP_SHARED = 1
_STEP_RARE = 2


@dataclass(frozen=True)
class SynthSpec:
    n_images: int = 200
    levels: int = 4
    shared_vocab: int = 12
    rare_vocab: int = 600
    feature_dim: int = 48
    noise_sigma: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for key, value, least in (("images", self.n_images, 2), ("dim", self.feature_dim, 2),
                                  ("levels", self.levels, 1), ("shared_vocab", self.shared_vocab, 1),
                                  # each level's stratum needs a word of its own
                                  ("rare_vocab", self.rare_vocab, self.levels),
                                  ("noise_sigma", self.noise_sigma, 0)):
            if not value >= least:  # NaN included
                raise ValueError(f"{key} must be at least {least}, got {value}")
        if not geometry.is_finite(self.noise_sigma):
            raise ValueError(f"noise_sigma must be finite, got {self.noise_sigma}")


def _strata(spec: SynthSpec) -> list[list[str]]:
    """Per-level word pools with sizes proportional to depth, so deeper
    words spread over a larger pool and end up in fewer sentences."""
    weight_sum = spec.levels * (spec.levels + 1) // 2
    strata = []
    used = 0
    for level in range(1, spec.levels + 1):
        if level < spec.levels:
            size = max(1, spec.rare_vocab * level // weight_sum)
        else:
            size = spec.rare_vocab - used
        strata.append([f"r{level}x{k:04d}" for k in range(size)])
        used += size
    return strata


def gen_corpus(spec: SynthSpec) -> tuple[corpus_mod.CorpusColumns, np.ndarray, np.ndarray]:
    """One cumulative sentence chain per image, all in the train split, as
    columns, with each sentence's word count and its drawn word ids: the
    words of sentence k are the next ``lengths[k]`` entries of ``words``,
    indices into the vocabulary of shared words ``sNN`` then each stratum.

    Every word of every sentence comes from one ``rng.integers(0, highs)``
    call, where ``highs`` holds each word slot's pool size in draw order:
    image by image, level by level, the level's shared words and then its
    rare words.  This gives the words that one call per level and pool
    gives, because numpy's ``Generator`` draws each bounded integer below
    2**32 from the bit generator's 32-bit stream, and keeps the unused half
    of a 64-bit output in the bit generator's state between calls; a pool
    of size 1 draws nothing either way.  That is observed numpy 2.4.6
    behaviour, not a documented contract: ``tests/test_datagen.py`` keeps
    the per-call loop as the oracle.
    """
    rng = np.random.default_rng([spec.seed, 0])
    pools = []  # (first vocabulary index, size) of each word slot of one image
    vocab = [f"s{k:02d}" for k in range(spec.shared_vocab)]
    ends = []  # words in each level's sentence
    for level, stratum in enumerate(_strata(spec), 1):
        n_shared = _BASE_SHARED if level == 1 else _STEP_SHARED
        n_rare = _BASE_RARE if level == 1 else _STEP_RARE
        pools += [(0, spec.shared_vocab)] * n_shared + [(len(vocab), len(stratum))] * n_rare
        vocab += stratum
        ends.append(len(pools))
    starts, sizes = np.array(pools, dtype=np.int64).T
    draws = rng.integers(0, np.tile(sizes, spec.n_images)) + np.tile(starts, spec.n_images)
    names = list(map(vocab.__getitem__, draws.tolist()))
    image_ids = [f"img{i:04d}" for i in range(spec.n_images)]
    levels = range(1, spec.levels + 1)
    columns = corpus_mod.CorpusColumns(
        [f"{image_id}-l{level}" for image_id in image_ids for level in levels],
        [image_id for image_id in image_ids for _ in levels],
        [" ".join(names[start:start + end]) for start in range(0, len(names), len(pools))
         for end in ends],
        ["train"] * (spec.n_images * spec.levels),
        [level for _ in image_ids for level in levels])
    # sentence (image i, level l) is the first ends[l] draws of image i
    slots = np.concatenate([np.arange(end) for end in ends])
    words = draws.reshape(spec.n_images, len(pools))[:, slots].ravel()
    return columns, np.tile(ends, spec.n_images), words


def gen_features(spec: SynthSpec, columns: corpus_mod.CorpusColumns
                 ) -> tuple[list[str], np.ndarray, list[str], np.ndarray]:
    """Unit-normalized image latents and per-text noisy copies.

    A level-l text sits at the image latent plus (levels - l + 1) times
    noise_sigma of Gaussian noise, so deeper (more specific) texts land
    closer to the image.  Noise is always drawn, keeping the stream layout
    independent of noise_sigma.  The text rows are built and normalized in
    place, one block of rows at a time, so no second texts-sized array
    exists; each row's arithmetic is that of the whole-array expression.
    """
    if None in columns.levels:
        raise ValueError(f"sentence {columns.ids[columns.levels.index(None)]} has no level")
    rng = np.random.default_rng([spec.seed, 1])
    image_ids = sorted(set(columns.image_ids))
    latents = rng.normal(size=(len(image_ids), spec.feature_dim))
    image_feats = geometry.l2_normalize(latents)
    row_of = {img: k for k, img in enumerate(image_ids)}
    owner = np.array(list(map(row_of.__getitem__, columns.image_ids)), dtype=np.int64)
    levels = np.array(columns.levels, dtype=np.int64)
    # every text's noise in one draw, row by row: the stream of one draw per text
    text_raw = rng.normal(size=(len(owner), spec.feature_dim))
    text_raw *= ((spec.levels - levels + 1) * spec.noise_sigma)[:, None]
    step = max(1, geometry._BLOCK_ENTRIES // spec.feature_dim)
    for lo in range(0, len(owner), step):
        rows = text_raw[lo:lo + step]
        rows += latents[owner[lo:lo + step]]  # latent + scale * noise, as + commutes exactly
        rows[:] = geometry.l2_normalize(rows)
    return image_ids, image_feats, columns.ids, text_raw


def write_dataset(out_dir, spec: SynthSpec) -> dict[str, str]:
    """Emit corpus.jsonl, table.jsonl, image/text feature files, and a
    spec echo into out_dir.  Returns the paths keyed by role.

    The table scores the drawn word ids with `corpus.score_word_ids`, which
    gives the bytes of `corpus.build_table` over corpus.jsonl without
    tokenizing it: every synthetic word is one whole ``[0-9a-z]+`` token
    and the words are joined by single spaces, so a sentence's tokens are
    exactly its drawn words; and the scorer depends only on which id is
    which word, not on how the words are numbered.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns, lengths, words = gen_corpus(spec)
    image_ids, image_feats, text_ids, text_feats = gen_features(spec, columns)

    corpus_path = out / "corpus.jsonl"
    corpus_mod.write_corpus_columns(corpus_path, columns)
    _, table = corpus_mod.score_word_ids(columns.ids, columns.splits,
                                         corpus_mod.word_id_blocks(lengths, words))
    table_path = out / "table.jsonl"
    corpus_mod.write_table_jsonl(table_path, table)
    img_manifest = geometry.write_features(out / "images", image_ids, image_feats)
    txt_manifest = geometry.write_features(out / "texts", text_ids, text_feats)
    spec_path = out / "synth_config.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {
        "corpus": str(corpus_path),
        "table": str(table_path),
        "image_features": str(img_manifest),
        "text_features": str(txt_manifest),
        "spec": str(spec_path),
    }

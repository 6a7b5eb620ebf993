import collections
import dataclasses

import numpy as np
import pytest

from descmatch import corpus as C
from descmatch import datagen, geometry, trainer


SMALL = datagen.SynthSpec(n_images=12, levels=3, shared_vocab=6,
                          rare_vocab=60, feature_dim=10, seed=7)


def test_spec_validation():
    with pytest.raises(ValueError):
        datagen.SynthSpec(n_images=1)
    with pytest.raises(ValueError):
        datagen.SynthSpec(rare_vocab=2, levels=4)
    with pytest.raises(ValueError):
        datagen.SynthSpec(noise_sigma=-0.1)


def test_strata_partition_grows_with_depth():
    strata = datagen._strata(datagen.SynthSpec())
    sizes = [len(s) for s in strata]
    assert sum(sizes) == 600
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]
    vocab = [w for s in strata for w in s]
    assert len(set(vocab)) == len(vocab)


def records_of(columns):
    return list(map(C.SentenceRecord, columns.ids, columns.image_ids, columns.texts,
                    columns.splits, columns.levels))


def reordered(columns, order):
    return C.CorpusColumns(*([col[k] for k in order] for col in dataclasses.astuple(columns)))


def test_corpus_shape_and_levels():
    records = records_of(datagen.gen_corpus(SMALL)[0])
    assert len(records) == 12 * 3
    assert len({r.id for r in records}) == len(records)
    assert all(r.split == "train" for r in records)
    by_img = collections.Counter(r.image_id for r in records)
    assert set(by_img.values()) == {3}
    levels = sorted(r.level for r in records if r.image_id == "img0000")
    assert levels == [1, 2, 3]


def test_sentences_are_cumulative():
    records = records_of(datagen.gen_corpus(SMALL)[0])
    chains = collections.defaultdict(dict)
    for r in records:
        chains[r.image_id][r.level] = r.text
    for chain in chains.values():
        for level in range(2, 4):
            assert chain[level].startswith(chain[level - 1] + " ")


def test_deltas_increase_with_level():
    records = records_of(datagen.gen_corpus(datagen.SynthSpec())[0])
    _, table = C.build_table(records)
    chains = collections.defaultdict(dict)
    for r in records:
        chains[r.image_id][r.level] = table.scores[r.id]
    strict = sum(
        1 for chain in chains.values()
        if all(chain[l] < chain[l + 1] for l in range(1, 4))
    )
    assert strict >= 0.95 * len(chains)


def test_generation_is_deterministic():
    a, a_lengths, a_words = datagen.gen_corpus(SMALL)
    b, b_lengths, b_words = datagen.gen_corpus(SMALL)
    assert a == b
    assert np.array_equal(a_lengths, b_lengths) and np.array_equal(a_words, b_words)
    ia, fa, ta, xa = datagen.gen_features(SMALL, a)
    ib, fb, tb, xb = datagen.gen_features(SMALL, b)
    assert ia == ib and ta == tb
    assert np.array_equal(fa, fb) and np.array_equal(xa, xb)
    other = datagen.gen_corpus(datagen.SynthSpec(
        n_images=12, levels=3, shared_vocab=6, rare_vocab=60,
        feature_dim=10, seed=8))[0]
    assert other != a


def test_zero_noise_collapses_texts_onto_images():
    spec = datagen.SynthSpec(n_images=6, levels=3, shared_vocab=6,
                             rare_vocab=30, feature_dim=8,
                             noise_sigma=0.0, seed=1)
    columns = datagen.gen_corpus(spec)[0]
    img_ids, img_f, txt_ids, txt_f = datagen.gen_features(spec, columns)
    row_of = {i: k for k, i in enumerate(img_ids)}
    for image_id, row in zip(columns.image_ids, txt_f):
        assert np.array_equal(row, img_f[row_of[image_id]])


def test_noise_shrinks_with_depth():
    spec = datagen.SynthSpec(seed=3)
    columns = datagen.gen_corpus(spec)[0]
    img_ids, img_f, txt_ids, txt_f = datagen.gen_features(spec, columns)
    row_of = {i: k for k, i in enumerate(img_ids)}
    dists = collections.defaultdict(list)
    for image_id, level, row in zip(columns.image_ids, columns.levels, txt_f):
        d = np.linalg.norm(row - img_f[row_of[image_id]])
        dists[level].append(d)
    means = [np.mean(dists[level]) for level in sorted(dists)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_write_dataset_round_trips_through_loader(tmp_path):
    paths = datagen.write_dataset(tmp_path / "data", SMALL)
    ds = trainer.load_dataset(paths["corpus"], paths["table"],
                              paths["image_features"], paths["text_features"],
                              split="train")
    assert ds.n_images == 12
    assert ds.n_texts == 36
    assert set(ds.levels.tolist()) == {1, 2, 3}
    assert np.all(ds.deltas >= 0.0) and np.all(ds.deltas <= 1.0)
    assert (tmp_path / "data" / "synth_config.json").exists()


def test_write_dataset_bytes_deterministic(tmp_path):
    datagen.write_dataset(tmp_path / "a", SMALL)
    datagen.write_dataset(tmp_path / "b", SMALL)
    for name in ("corpus.jsonl", "table.jsonl", "images.manifest.json",
                 "images.bin", "texts.manifest.json", "texts.bin"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def gen_corpus_per_call(spec):
    """The per-call loop gen_corpus draws in bulk: two draws per level."""
    rng = np.random.default_rng([spec.seed, 0])
    shared = [f"s{k:02d}" for k in range(spec.shared_vocab)]
    strata = datagen._strata(spec)
    records = []
    for i in range(spec.n_images):
        image_id = f"img{i:04d}"
        words: list[str] = []
        for level in range(1, spec.levels + 1):
            n_shared = datagen._BASE_SHARED if level == 1 else datagen._STEP_SHARED
            n_rare = datagen._BASE_RARE if level == 1 else datagen._STEP_RARE
            words = list(words)
            words.extend(shared[k] for k in rng.integers(0, len(shared), n_shared))
            pool = strata[level - 1]
            words.extend(pool[k] for k in rng.integers(0, len(pool), n_rare))
            records.append(C.SentenceRecord(
                id=f"{image_id}-l{level}",
                image_id=image_id,
                text=" ".join(words),
                split="train",
                level=level,
            ))
    return records


SPECS = [
    *(datagen.SynthSpec(seed=seed, **shape)
      for seed in (0, 3, 17, 301)
      for shape in ({}, {"levels": 3, "rare_vocab": 60}, {"levels": 6, "rare_vocab": 5000})),
    datagen.SynthSpec(shared_vocab=1, seed=5),          # a shared pool of one word draws nothing
    datagen.SynthSpec(rare_vocab=4, levels=4, seed=6),  # every stratum holds one word
    datagen.SynthSpec(n_images=10001, seed=2),          # 5-digit image ids
]


@pytest.mark.parametrize("spec", SPECS)
def test_gen_corpus_equals_per_call_loop(spec):
    columns, lengths, words = datagen.gen_corpus(spec)
    records = gen_corpus_per_call(spec)
    assert records_of(columns) == records
    # each sentence's tokens are exactly its drawn words
    vocab = [f"s{k:02d}" for k in range(spec.shared_vocab)] + sum(datagen._strata(spec), [])
    drawn = np.split(np.array(vocab)[words], np.cumsum(lengths)[:-1])
    assert len(drawn) == len(records)
    for r, sentence in zip(records, drawn):
        assert C.tokenize(r.text).tokens == tuple(sentence.tolist())


@pytest.mark.parametrize("spec", SPECS)
def test_write_dataset_table_equals_tokenized_route(spec, tmp_path, monkeypatch):
    """write_dataset scores the drawn ids, building no record and calling
    no tokenize, and writes the table that build_table gives for the
    corpus file it writes."""
    def refuse(*args, **kwargs):
        raise AssertionError("write_dataset must not tokenize or build records")

    with monkeypatch.context() as patched:
        patched.setattr(C, "tokenize", refuse)
        patched.setattr(C, "SentenceRecord", refuse)
        paths = datagen.write_dataset(tmp_path, spec)
    C.write_table_jsonl(tmp_path / "rescored.jsonl",
                        C.build_table(C.read_corpus_jsonl(paths["corpus"]))[1])
    assert (tmp_path / "rescored.jsonl").read_bytes() == (tmp_path / "table.jsonl").read_bytes()


def test_score_word_ids_ignores_the_numbering(monkeypatch):
    """A one-to-one renumbering of the word ids, scored in blocks of 7
    sentences, gives the same table, and each word keeps its doc freq."""
    spec = datagen.SynthSpec(levels=3, rare_vocab=60, seed=4)
    columns, lengths, words = datagen.gen_corpus(spec)
    splits = [("train", "val", "test")[k % 5 // 3] for k in range(len(columns.ids))]
    doc_freq, table = C.score_word_ids(columns.ids, splits, C.word_id_blocks(lengths, words))
    perm = np.random.default_rng(0).permutation(3 * len(doc_freq))
    monkeypatch.setattr(C, "_BLOCK_RECORDS", 7)
    permuted_freq, permuted = C.score_word_ids(columns.ids, splits,
                                               C.word_id_blocks(lengths, perm[words]))
    assert permuted == table and list(permuted.scores) == list(table.scores)
    assert np.array_equal(permuted_freq[perm[:len(doc_freq)]], doc_freq)
    assert permuted_freq.sum() == doc_freq.sum()


def gen_features_per_record(spec, columns):
    """The per-record loop gen_features vectorises: one noise draw per text."""
    records = records_of(columns)
    rng = np.random.default_rng([spec.seed, 1])
    image_ids = sorted({r.image_id for r in records})
    latents = rng.normal(size=(len(image_ids), spec.feature_dim))
    latent_of = {img: latents[k] for k, img in enumerate(image_ids)}
    text_raw = np.empty((len(records), spec.feature_dim))
    for k, r in enumerate(records):
        if r.level is None:
            raise ValueError(f"sentence {r.id} has no level")
        noise = rng.normal(size=spec.feature_dim)
        scale = (spec.levels - r.level + 1) * spec.noise_sigma
        text_raw[k] = latent_of[r.image_id] + scale * noise
    return (image_ids, geometry.l2_normalize(latents), [r.id for r in records],
            geometry.l2_normalize(text_raw))


@pytest.mark.parametrize("spec", [
    SMALL,
    dataclasses.replace(SMALL, noise_sigma=0.0),
    dataclasses.replace(SMALL, levels=1, rare_vocab=5, seed=2),
    datagen.SynthSpec(n_images=40, feature_dim=3, noise_sigma=2.5, seed=11),
])
def test_gen_features_equals_per_record_loop(spec, monkeypatch):
    columns = datagen.gen_corpus(spec)[0]
    # records out of image order, so owners are not sorted
    n = len(columns.ids)
    columns = reordered(columns, [*range(1, n, 2), *range(0, n, 2)])
    # row blocks of 7 rows or fewer: the blocked add and normalisation
    # cross block boundaries
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 7 * spec.feature_dim)
    got = datagen.gen_features(spec, columns)
    want = gen_features_per_record(spec, columns)
    assert got[0] == want[0] and got[2] == want[2]
    assert got[1].tobytes() == want[1].tobytes()
    assert got[3].tobytes() == want[3].tobytes()


def test_gen_features_names_a_record_without_level():
    columns = datagen.gen_corpus(SMALL)[0]
    columns.levels[5] = None
    with pytest.raises(ValueError, match=f"sentence {columns.ids[5]} has no level"):
        datagen.gen_features(SMALL, columns)

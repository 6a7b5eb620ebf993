"""Batch structures derived from text ownership, checked against the
dict-based groupings they replaced, which live on as shared_oracles.py's
epoch_plan and same_image_pairs."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shared_oracles as oracles
from descmatch import losses, trainer


def oracle_local_owners(dataset, img_idx, txt_idx):
    local = {gi: k for k, gi in enumerate(img_idx)}
    return [local[int(dataset.image_of_text[j])] for j in txt_idx]


@st.composite
def ownerships(draw):
    """(n_images, owners): owners unsorted, some images owning no text and
    some exactly one."""
    n_images = draw(st.integers(1, 12))
    owners = draw(st.lists(st.integers(0, n_images - 1), min_size=1, max_size=40))
    return n_images, np.array(owners, dtype=np.int64)


# unsorted; images 1, 2 and 4 own nothing; image 5 owns one text
MIXED = (6, np.array([3, 0, 3, 5, 0, 3, 0]))


def unit_rows(n):
    return np.tile([1.0, 0.0], (n, 1))


def dataset_of(n_images, owners):
    n_txt = owners.size
    return trainer.Dataset(
        image_ids=[f"i{k}" for k in range(n_images)],
        image_feats=np.arange(n_images, dtype=np.float64)[:, None],
        text_ids=[f"t{k}" for k in range(n_txt)],
        text_feats=np.arange(n_txt, dtype=np.float64)[:, None],
        image_of_text=owners,
        deltas=np.linspace(0.0, 1.0, n_txt),
        levels=np.zeros(n_txt, dtype=np.int64),
    )


@settings(max_examples=200, deadline=None)
@given(ownerships(), st.integers(2, 10), st.integers(0, 2**32 - 1))
@example(MIXED, 4, 0)
@example(MIXED, 3, 0)
def test_epoch_plan_and_batches_equal_dict_oracles(ownership, batch_size, seed):
    ds = dataset_of(*ownership)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = oracles.epoch_plan(want_rng, ds, batch_size)
    except ValueError:
        with pytest.raises(ValueError, match="two images"):
            trainer.epoch_plan(got_rng, ds, batch_size)
        return
    got = trainer.epoch_plan(got_rng, ds, batch_size)
    assert [(imgs, txts.tolist()) for imgs, txts in got] == [
        (imgs, txts.tolist()) for imgs, txts in want]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    rows = trainer._epoch_rows(ds, got)
    assert len(rows) == len(got)
    for (imgs, txts), (img_feats, txt_feats, owners, deltas) in zip(got, rows):
        assert img_feats[:, 0].tolist() == imgs
        assert txt_feats[:, 0].tolist() == txts.tolist()
        assert owners.tolist() == oracle_local_owners(ds, imgs, txts)
        assert np.array_equal(deltas, ds.deltas[txts])
        # views of one gather per epoch
        for view, first in zip((img_feats, txt_feats, owners, deltas), rows[0]):
            assert view.base is first.base is not None
        batch = losses.Batch(unit_rows(len(imgs)), unit_rows(len(txts)), owners, deltas)
        assert batch.image_of_text.tolist() == owners.tolist()


@settings(max_examples=200, deadline=None)
@given(ownerships())
@example(MIXED)
def test_same_image_rows_equal_dict_oracle(ownership):
    n_images, owners = ownership
    batch = losses.Batch(unit_rows(n_images), unit_rows(owners.size), owners,
                         np.full(owners.size, 0.5))
    want = oracles.same_image_pairs(owners)
    assert batch.same_image.shape == (len(want), 3)
    assert [tuple(row) for row in batch.same_image.tolist()] == want
    assert batch.pair_map == [(int(owners[j]), j) for j in range(owners.size)]


@pytest.mark.parametrize("owner", [-1, 3])
def test_batch_and_dataset_reject_an_owner_outside_the_images(owner):
    owners = np.array([0, 1, 2, owner, 1])
    want = f"^text 3 has owner {owner}, outside the 3 images$"
    with pytest.raises(ValueError, match=want):
        losses.Batch(unit_rows(3), unit_rows(5), owners, np.full(5, 0.5))
    with pytest.raises(ValueError, match=want):
        dataset_of(3, owners)

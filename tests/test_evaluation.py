import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import shared_oracles as oracles
from descmatch import evaluation as E
from descmatch import geometry


def test_ranked_indices_breaks_ties_low():
    assert E.ranked_indices(np.array([0.5, 0.9, 0.5])).tolist() == [1, 0, 2]
    assert E.ranked_indices(np.array([1.0, 1.0, 1.0])).tolist() == [0, 1, 2]


def recall_at_k(sims, owners, k, direction):
    """Direction "i2t" or "t2i" at any k, counted from the matrix ranks
    that the suite's R@{1,5,10} count."""
    ranks = E._matrix_ranks(sims, owners)[0 if direction == "i2t" else 1]
    return 100.0 * int(np.count_nonzero(ranks < k)) / ranks.size


def test_recall_identity_matrix():
    sims = np.eye(4)
    owners = np.arange(4)
    for d in ("i2t", "t2i"):
        assert recall_at_k(sims, owners, 1, d) == 100.0


def test_recall_hand_fixture():
    # image 0 ranks its own text second; image 1 ranks its own first
    sims = np.array([[0.2, 0.9],
                     [0.1, 0.8]])
    owners = np.array([0, 1])
    assert recall_at_k(sims, owners, 1, "i2t") == 50.0
    assert recall_at_k(sims, owners, 2, "i2t") == 100.0
    # text 0: column [0.2, 0.1], own image 0 ranked first -> hit
    # text 1: column [0.9, 0.8], own image 1 ranked second -> miss at 1
    assert recall_at_k(sims, owners, 1, "t2i") == 50.0


def test_recall_multi_caption_any_hit():
    sims = np.array([[0.9, 0.1, 0.5],
                     [0.2, 0.3, 0.6]])
    owners = np.array([0, 0, 1])
    # image 0 top-1 is its own text 0 even though text 1 ranks last
    assert recall_at_k(sims, owners, 1, "i2t") == 100.0


def test_recall_validates_inputs():
    with pytest.raises(ValueError, match="entry per text"):
        E.recall_suite(np.eye(2), np.arange(3))
    with pytest.raises(ValueError, match="entry per text"):
        E.exact_ranks(np.eye(2), np.eye(2), np.arange(3))
    with pytest.raises(ValueError, match="dimension"):
        E.exact_ranks(np.eye(2), np.ones((2, 3)), np.arange(2))


def test_suite_rsum_reproduces_printed_total():
    suite = {"i2t": {1: 83.7, 5: 97.4, 10: 99.2}, "t2i": {1: 70.1, 5: 92.8, 10: 97.1}}
    assert E._suite_rsum(suite) == 540.3


def test_rsum_full_marks():
    sims = np.eye(12)
    assert E.rsum(sims, np.arange(12)) == 600.0


def test_fold_slices():
    assert E.fold_slices(10, 5) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    assert E.fold_slices(11, 5) == [(0, 3), (3, 5), (5, 7), (7, 9), (9, 11)]
    with pytest.raises(ValueError):
        E.fold_slices(3, 5)


def test_folded_recall_suite_matches_manual_folds():
    rng = np.random.default_rng(0)
    imgs = geometry.l2_normalize(rng.normal(size=(10, 6)))
    txts = geometry.l2_normalize(rng.normal(size=(20, 6)))
    owners = np.repeat(np.arange(10), 2)
    out = E.folded_recall_suite(imgs, txts, owners, n_folds=5)
    assert len(out["folds"]) == 5
    manual = []
    for start, stop in E.fold_slices(10, 5):
        keep = np.flatnonzero((owners >= start) & (owners < stop))
        sims = geometry.sim_matrix(imgs[start:stop], txts[keep])
        manual.append(recall_at_k(sims, owners[keep] - start, 1, "i2t"))
    got = [f["i2t"][1] for f in out["folds"]]
    assert got == manual
    assert out["mean"]["i2t"][1] == pytest.approx(np.mean(manual), abs=1e-12)


def test_nearest_candidate_tie_goes_low(monkeypatch):
    cands = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    point = np.array([[0.8, 0.6]])
    assert oracles.nearest_candidate(point[0], cands) == 0
    # the exact tie of 0 and 1 is re-checked and goes low
    close = np.array([[True, True, False]])
    tops = E._nearest(close, np.zeros(3, dtype=np.int64), np.arange(3), cands,
                      lambda rows, _: point[rows])
    assert tops.tolist() == [[0]]
    # and so it does in the start pass of a traversal, its first call
    found, nearest = [], E._nearest

    def recording(*args):
        found.append(nearest(*args))
        return found[-1]

    monkeypatch.setattr(E, "_nearest", recording)
    E.hierarchical_traverse(point[0], cands, cands[2], 2)
    assert found[0].tolist() == [[0]]


def test_hierarchical_traverse_walks_specific_to_generic():
    # candidates sit on an arc of the unit circle; the image is nearest the
    # specific end and the root is the generic end
    angles = np.array([0.0, 0.5, 1.0, 1.5])
    cands = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    image = np.array([math.cos(-0.1), math.sin(-0.1)])
    got = E.hierarchical_traverse(image, cands, cands[3], n_points=50)
    assert got == [0, 1, 2, 3]


def test_hierarchical_traverse_endpoints_only():
    cands = np.array([[1.0, 0.0], [0.0, 1.0]])
    image = np.array([0.8, 0.6])
    assert E.hierarchical_traverse(image, cands, cands[1], n_points=2) == [0, 1]
    with pytest.raises(ValueError):
        E.hierarchical_traverse(image, cands, cands[1], n_points=1)


def test_traverse_does_not_renormalize_interpolants():
    # the midpoint of two antipodal unit vectors is the origin, which has
    # no direction to renormalize to: every dyadic unit candidate lies at
    # distance exactly 1 from it, and the lowest index, candidate 0, far
    # from both endpoints, wins the tie
    cands = np.array([[0.0, 0.0, 1.0, 0.0], [0.5, -0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0],
                      [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
    got = E.hierarchical_traverse(cands[2], cands, cands[3], n_points=3)
    assert got == [2, 0, 3]


def test_set_precision_recall():
    p, r = E.set_precision_recall([1, 2, 3, 4], [2, 4, 6])
    assert p == 50.0
    assert r == pytest.approx(200.0 / 3.0, abs=1e-12)
    assert E.set_precision_recall([], [1]) == (0.0, 0.0)
    assert E.set_precision_recall([1], []) == (0.0, 0.0)


def test_centroid_root_is_unit():
    rng = np.random.default_rng(1)
    root = E.centroid_root(geometry.l2_normalize(rng.normal(size=(7, 5))))
    assert np.linalg.norm(root) == pytest.approx(1.0, abs=1e-12)
    texts = rng.normal(size=(3, 5))
    assert E.centroid_root(texts).tobytes() == \
        geometry.l2_normalize(texts.mean(axis=0)[None, :])[0].tobytes()


def test_evaluate_names_a_vanishing_text_centroid():
    embs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match=r"^the text centroid \(the traversal's root\) has "
                                         r"near-zero norm 0\.000e\+00: the text embeddings "
                                         r"cancel out$"):
        E.evaluate(embs, embs, np.array([0, 1]), np.array([1, 2]))


def test_hierarchical_report_perfect_retrieval():
    # each image owns one text and sits on top of it: the walk starts at
    # the owned text, so it is always retrieved
    embs = np.eye(4)
    report = E.hierarchical_report(embs, embs, np.arange(4))
    assert report["recall"] == 100.0
    assert 0.0 < report["precision"] <= 100.0


def test_d_corr_perfect_and_swapped():
    imgs = np.array([[1.0, 0.0]])
    # four texts at increasing angles: deeper level = closer
    angles = [0.1, 0.3, 0.6, 1.0]
    txts = np.array([[math.cos(a), math.sin(a)] for a in angles])
    owners = np.zeros(4, dtype=int)
    perfect = E.d_corr(imgs, txts, owners, np.array([4, 3, 2, 1]))
    assert perfect == pytest.approx(100.0, abs=1e-9)
    inverted = E.d_corr(imgs, txts, owners, np.array([1, 2, 3, 4]))
    assert inverted == pytest.approx(-100.0, abs=1e-9)
    # one adjacent swap on four levels: rho = 0.8
    swapped = E.d_corr(imgs, txts, owners, np.array([4, 3, 1, 2]))
    assert swapped == pytest.approx(80.0, abs=1e-9)


def test_d_corr_undefined_counts_as_zero():
    imgs = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = np.array([0.6, 0.8])
    txts = np.stack([t, t, t])
    owners = np.array([0, 0, 1])
    levels = np.array([1, 2, 1])
    # image 0: two equidistant texts -> constant ranks -> nan -> 0
    # image 1: single text -> nan -> 0
    assert E.d_corr(imgs, txts, owners, levels) == 0.0


@st.composite
def grouped_texts(draw):
    n_img = draw(st.integers(1, 6))
    # ragged groups: images with one text or several
    sizes = draw(st.lists(st.integers(1, 6), min_size=n_img, max_size=n_img))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owners = rng.permutation(np.repeat(np.arange(n_img), sizes))
    # some texts of unknown level (-1) when the lower bound is drawn as -1
    levels = rng.integers(draw(st.integers(-1, 0)), draw(st.integers(1, 4)), size=owners.size)
    imgs = geometry.l2_normalize(rng.normal(size=(n_img, 3)))
    # texts drawn from a small pool, so an image's texts repeat and tie
    pool = geometry.l2_normalize(rng.normal(size=(draw(st.integers(1, 8)), 3)))
    txts = pool[rng.integers(0, pool.shape[0], size=owners.size)]
    return imgs, txts, owners, levels


@settings(max_examples=200, deadline=None)
@given(grouped_texts())
def test_d_corr_equals_per_image_spearman(fixture):
    imgs, txts, owners, levels = fixture
    assert abs(E.d_corr(imgs, txts, owners, levels)
               - oracles.dcorr_reference(imgs, txts, owners, levels)) <= 1e-12


def test_d_corr_skips_texts_of_unknown_level():
    """A text of level -1 is left out of its image's ranks, as per_level_recall
    and distance_by_level leave it out; an image with fewer than two known
    texts counts as 0."""
    angles = np.linspace(0.0, 1.2, 4)
    txts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    imgs = np.array([[1.0, 0.0]])
    owners = np.zeros(4, dtype=np.int64)
    assert E.d_corr(imgs, txts, owners, np.array([4, 3, 2, 1])) == 100.0
    assert E.d_corr(imgs, txts, owners, np.array([-1, 3, 2, 1])) == 100.0
    assert E.d_corr(imgs[:, ::-1], txts, owners, np.array([-1, 3, 2, 1])) == -100.0
    assert E.d_corr(imgs, txts, owners, np.array([-1, -1, -1, 2])) == 0.0
    assert E.d_corr(imgs, txts, owners, np.full(4, -1)) == 0.0
    # a second image whose texts are all unknown halves the mean
    two = np.concatenate([imgs, imgs])
    assert E.d_corr(two, np.concatenate([txts, txts]), np.repeat([0, 1], 4),
                    np.array([-1, 3, 2, 1, -1, -1, -1, -1])) == 50.0


def test_per_level_recall_pools_texts():
    sims = np.array([[0.9, 0.1, 0.9, 0.6],
                     [0.1, 0.9, 0.2, 0.5]])
    owners = np.array([0, 1, 0, 1])
    levels = np.array([1, 1, 2, 2])
    out = E.per_level_recall(sims, owners, levels)
    # level 1: both texts rank their own image first
    # level 2: text 2 hits (column [0.9, 0.2]); text 3 misses ([0.6, 0.5])
    assert out == {1: 100.0, 2: 50.0}
    # unknown levels are excluded entirely
    out2 = E.per_level_recall(sims, owners, np.array([-1, -1, 2, 2]))
    assert set(out2) == {2}


def test_distance_by_level_means():
    imgs = np.array([[1.0, 0.0]])
    txts = np.array([[1.0, 0.0], [0.0, 1.0]])
    owners = np.array([0, 0])
    levels = np.array([2, 1])
    out = E.distance_by_level(imgs, txts, owners, levels)
    assert out[2] == 0.0
    assert out[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # unknown levels are skipped
    out2 = E.distance_by_level(imgs, txts, owners, np.array([-1, 1]))
    assert set(out2) == {1}


def test_evaluate_full_report_keys(tmp_path):
    rng = np.random.default_rng(2)
    imgs = geometry.l2_normalize(rng.normal(size=(6, 5)))
    txts = geometry.l2_normalize(rng.normal(size=(12, 5)))
    owners = np.repeat(np.arange(6), 2)
    levels = np.tile([1, 2], 6)
    report = E.evaluate(imgs, txts, owners, levels=levels, n_folds=3)
    for key in ("recall", "rsum", "hierarchical", "d_corr",
                "per_level_recall", "distance_by_level", "folded"):
        assert key in report
    E.write_report_json(tmp_path / "report.json", report)
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["rsum"] == report["rsum"]
    E.write_distance_csv(tmp_path / "d.csv", report["distance_by_level"])
    lines = (tmp_path / "d.csv").read_text().strip().splitlines()
    assert lines[0] == "level,mean_distance"
    assert len(lines) == 3
    # values round-trip through repr
    level, value = lines[1].split(",")
    assert float(value) == report["distance_by_level"][int(level)]


def test_evaluate_without_levels_omits_diagnostics():
    rng = np.random.default_rng(3)
    imgs = geometry.l2_normalize(rng.normal(size=(4, 5)))
    txts = geometry.l2_normalize(rng.normal(size=(4, 5)))
    report = E.evaluate(imgs, txts, np.arange(4), np.full(4, -1))
    assert "per_level_recall" not in report
    assert "d_corr" not in report
    assert "distance_by_level" not in report
    assert "folded" not in report


def test_recall_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n_img, per = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        owners = np.repeat(np.arange(n_img), per)
        sims = rng.normal(size=(n_img, n_img * per))
        # plant exact ties to exercise the tie-break
        sims[0, :] = np.round(sims[0, :], 1)
        for k in (1, 2, 5):
            for d in ("i2t", "t2i"):
                assert recall_at_k(sims, owners, k, d) == oracles.recall(sims, owners, k, d)


def lexsort_recall(sims, owners, k, direction):
    """The per-query path: one ranked_indices sort per query."""
    n_img, n_txt = sims.shape
    if direction == "i2t":
        hits = sum(1 for i in range(n_img)
                   if np.any(owners[E.ranked_indices(sims[i])[:k]] == i))
        return 100.0 * hits / n_img
    hits = sum(1 for j in range(n_txt)
               if owners[j] in E.ranked_indices(sims[:, j])[:k])
    return 100.0 * hits / n_txt


@st.composite
def tie_heavy_fixtures(draw):
    n_img = draw(st.integers(2, 7))
    owners = np.array(draw(st.lists(st.integers(0, n_img - 2), min_size=1, max_size=14)))
    # the last image, and any other the draw missed, owns one text at the end
    owners = np.append(owners, np.setdiff1d(np.arange(n_img), owners))
    n_txt = owners.size
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sims = np.round(rng.uniform(-1.0, 1.0, size=(n_img, n_txt)), 1)
    levels = np.array(draw(st.lists(st.integers(-1, 3),
                                    min_size=n_txt, max_size=n_txt)))
    return sims, owners, levels


@settings(max_examples=200, deadline=None)
@given(tie_heavy_fixtures())
def test_rank_counts_equal_lexsort_path_on_ties(fixture):
    sims, owners, levels = fixture
    n_img, n_txt = sims.shape
    suite = E.recall_suite(sims, owners)
    for direction in ("i2t", "t2i"):
        for k in (1, 2, 5, 10, n_img + n_txt + 3):
            want = lexsort_recall(sims, owners, k, direction)
            assert recall_at_k(sims, owners, k, direction) == want
            if k in E.KS:
                assert suite[direction][k] == want
    t2i = E._matrix_ranks(sims, owners)[1]
    for k in (1, 3, n_img + 1):
        got = {}
        for level in sorted(set(int(v) for v in levels if v >= 0)):
            members = np.flatnonzero(levels == level)
            got[level] = 100.0 * int(np.count_nonzero(t2i[members] < k)) / members.size
        want = oracles.per_level_recall(sims, owners, levels, k)
        assert got == want
        if k == 1:
            assert E.per_level_recall(sims, owners, levels) == want


def first_seen(tops):
    """The walks of a ``_traverse`` tops array, one per column, in the
    first-seen order that ``hierarchical_traverse`` returns."""
    return [list(dict.fromkeys(walk)) for walk in tops.T.tolist()]


def orthogonal_offset(rng, s, r, length):
    """A random vector of the given length orthogonal to both s and r."""
    basis = np.linalg.qr(np.stack([s, r], axis=1))[0]
    off = rng.normal(size=s.size)
    off -= basis @ (basis.T @ off)
    return off * (length / np.linalg.norm(off))


def flat_line_walks(rng, root, count):
    """Unit starts s and, per start, a unit candidate whose screen line is
    flat at the prune's bound U.  |s| = |r| puts the segment's point
    nearest the origin at its midpoint m, where the lines of s and of the
    root's candidate q = r cross at their maximum U = |m - s|^2 - |m|^2;
    a candidate at m + h with h orthogonal to s and r and |h| = |m - s|
    is a unit vector, has the line |m + h|^2 - 2 s.(m + h) = U for every
    t and ties with s and q at the midpoint station, so only rounding
    decides whether it wins there and on which side of U its computed
    value falls."""
    starts, flat = [], []
    for _ in range(count):
        start = geometry.l2_normalize(rng.normal(size=root.size))[0]
        starts.append(start)
        flat.append(0.5 * (start + root)
                    + orthogonal_offset(rng, start, root, 0.5 * np.linalg.norm(root - start)))
    return np.array(starts), np.array(flat)


@pytest.mark.parametrize("dim", [3, 8, 32])
def test_traversal_equals_station_walk(dim):
    rng = np.random.default_rng(dim)
    # enough candidates that one walk's 50 stations span several screen
    # blocks; norms off 1 by up to 1e-4, inside the norm contract
    n_cand = E._BLOCK_ENTRIES // 20
    units = geometry.l2_normalize(rng.normal(size=(n_cand, dim)))
    cands = units * (1.0 + 1e-4 * rng.uniform(-1.0, 1.0, size=(n_cand, 1)))
    # exact duplicates: the lower index must win
    cands[7] = cands[3]
    cands[400:410] = cands[10:20]
    root = E.centroid_root(cands)
    imgs = geometry.l2_normalize(rng.normal(size=(6, dim)))
    imgs[0] = cands[3]
    # per walk, a unit pair mirrored across the plane of its start s and
    # root r, near the direction of its station at t = 24/49 of 50:
    # equidistant from every station up to rounding
    mirrored = []
    for image in imgs:
        start = cands[oracles.nearest_candidate(image, cands)]
        centre = geometry.l2_normalize(25.0 * start + 24.0 * root)[0]
        off = orthogonal_offset(rng, start, root, 0.005)
        mirrored += list(geometry.l2_normalize(np.stack([centre + off, centre - off])))
    # the root itself is q, the candidate with the smallest screen at the
    # root, and the walk of the image placed on it starts at q
    cands = np.vstack([cands, mirrored, root])
    imgs = np.vstack([imgs, root])
    for n_points in (2, 50):
        walks = [oracles.traversal(image, cands, root, n_points) for image in imgs]
        for image, want in zip(imgs, walks):
            assert E.hierarchical_traverse(image, cands, root, n_points) == want
        assert first_seen(E._traverse(imgs, cands, root, n_points)) == walks
    assert any(n_cand + 1 in walk or n_cand in walk for walk in walks)
    assert walks[-1] == [cands.shape[0] - 1]
    # flat lines at U, one segment at a time so that no other walk's
    # candidates get closer; the midpoint is a station of 51, and the flat
    # line appears as exact duplicates on both sides of s and of q
    won = 0
    for start, flat in zip(*flat_line_walks(rng, root, 100)):
        group = np.vstack([flat, start, flat, root, flat])
        for n_points in (51, 2):
            walks = [oracles.traversal(image, group, root, n_points) for image in (start, root)]
            assert first_seen(E._traverse(np.vstack([start, root]), group, root,
                                          n_points)) == walks
            won += 0 in walks[0]
    assert won > 0


def test_traversal_prunes_to_the_bound(monkeypatch):
    # the walk from s = (-0.8, 0.6, 0) to r = q = (0.8, 0.6, 0) has
    # U = 0.28 at t = 1/2, where s, q and the flat line at (0, 0.6, 0.8)
    # tie; the flat lines 1 - 1.2 c_1 of the unit candidates (0, c_1, c_2)
    # with c_1 in {0, +-0.28} stay under s's own line (max 1.56) but above U
    cands = np.array([[0.0, 0.0, 1.0], [0.8, 0.6, 0.0], [0.0, 0.28, 0.96],
                      [0.0, 0.6, 0.8], [-0.8, 0.6, 0.0], [0.0, -0.28, 0.96]])
    seen = []
    nearest = E._nearest

    def recording(close, seg, index, candidates, point):
        seen.append((index.copy(), candidates.copy()))
        return nearest(close, seg, index, candidates, point)

    monkeypatch.setattr(E, "_nearest", recording)
    assert E.hierarchical_traverse(np.array([-0.6, 0.8, 0.0]), cands, cands[1], 3) == [4, 1]
    # the start-point pass sees every candidate, the walk only the survivors
    assert len(seen) == 2
    for _, candidates in seen:
        np.testing.assert_array_equal(candidates, cands)
    assert seen[0][0].tolist() == list(range(6))
    assert seen[1][0].tolist() == [1, 3, 4]


def test_ill_conditioned_walks_take_the_end_tests_against_their_start(monkeypatch):
    """Where the lines of the start s and of q, the candidate nearest the
    root r, nearly coincide, the crossing test gives way to the end tests
    against s's own line, A_v <= A_s and B_v <= B_s.  Two walks: one that
    starts at q, and one from s, a hair off q and 2.5e-5 lower toward the
    equator, so that B_s exceeds B_q by 5e-5, more than the slack
    (3.5e-5 at d = 3).  Their survivors are those of the two end tests and
    no more: the candidate at 0, whose line dips under the s and q lines'
    envelope but stays above both at each end, is pruned, and the one at
    6, with B_q + slack < B_6 < B_s, survives the walk from s only."""
    r = np.array([0.0, 0.0, 1.0])
    q = geometry.l2_normalize(np.array([1.0, 0.0, 0.2]))[0]

    def turned(angle, drop):
        """q turned about r by angle, its last coordinate lowered by drop."""
        return geometry.l2_normalize(np.array([q[0] * math.cos(angle), q[0] * math.sin(angle),
                                               q[2] - drop]))[0]

    s = turned(1e-4, 2.6e-5)
    far = geometry.l2_normalize(np.array([[0.6, 0.8, 0.1], [-1.0, 0.1, 0.0], [0.2, -1.0, -0.3]]))
    # q again at 5: an exact tie that the lower index wins
    cands = np.vstack([far[0], q, s, far[1:], q, turned(0.1, 2.15e-5)])
    images = np.vstack([s, q])
    seen = []
    nearest = E._nearest

    def recording(close, seg, index, candidates, point):
        seen.append((seg.copy(), index.copy()))
        return nearest(close, seg, index, candidates, point)

    monkeypatch.setattr(E, "_nearest", recording)
    sq = np.einsum("ij,ij->i", cands, cands)
    b = sq - 2.0 * cands @ r
    assert 3.5e-5 < b[6] - b[1] < b[2] - b[1] < 7e-5
    for n_points in (2, 50):
        seen.clear()
        tops = E._traverse(images, cands, r, n_points)
        assert first_seen(tops) == [oracles.traversal(image, cands, r, n_points)
                                    for image in images]
        # the start pass, then one walk chunk
        seg, index = seen[1]
        for w, (image, survivors) in enumerate(zip(images, ([1, 2, 5, 6], [1, 2, 5]))):
            first = oracles.nearest_candidate(image, cands)
            a = sq - 2.0 * cands @ cands[first]
            # a + b of the prune, under ten times the crossing's error bound
            assert (a[1] - a[first]) + (b[first] - b[1]) < 7e-5
            # every line value clears its threshold by more than 1e-5
            want = np.flatnonzero((a <= a[first] + 1e-5) | (b <= b[first] + 1e-5))
            assert want.tolist() == survivors
            assert index[seg == w].tolist() == survivors


def dyadic_units(rng, n, dim):
    """Rows of exactly unit norm on a grid: one entry +-1, or four entries
    +-1/2, the rest 0.  Their distances to dyadic stations are exact."""
    rows = np.zeros((n, dim))
    for row in rows:
        k = 1 if rng.random() < 0.5 else 4
        row[rng.choice(dim, k, replace=False)] = rng.choice([-1.0, 1.0], k) / math.sqrt(k)
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 6), st.integers(1, 12), st.integers(1, 40), st.integers(2, 9),
       st.integers(0, 2**32 - 1))
def test_traversal_equals_station_walk_on_grids(dim, n_cand, n_img, n_points, seed):
    # unit vectors on a grid make exact ties and duplicates common
    rng = np.random.default_rng(seed)
    cands, imgs = dyadic_units(rng, n_cand, dim), dyadic_units(rng, n_img, dim)
    root = dyadic_units(rng, 1, dim)[0]
    walks = [oracles.traversal(image, cands, root, n_points) for image in imgs]
    saved = E._BLOCK_ENTRIES
    # start-pass blocks of 5 to 64 images and walk chunks of 7 to 32
    # survivors, so that many draws split both
    E._BLOCK_ENTRIES = 64
    try:
        assert first_seen(E._traverse(imgs, cands, root, n_points)) == walks
    finally:
        E._BLOCK_ENTRIES = saved


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 5, 16]), st.integers(2, 51), st.integers(0, 2**32 - 1))
def test_traversal_equals_station_walk_at_the_norm_contract_edge(dim, n_points, seed):
    """Images, candidates and root all at norm 1 -/+ 0.999e-3, candidates
    clustered around the images and one duplicated: the slacks, fixed by
    the contract's bound on every norm, keep every walk exact."""
    rng = np.random.default_rng(seed)
    imgs = edge_rows(rng, rng.normal(size=(8, dim)))
    cands = edge_rows(rng, np.vstack([imgs + 0.3 * rng.normal(size=(8, dim)),
                                      rng.normal(size=(24, dim))]))
    cands[5] = cands[2]
    root = edge_rows(rng, rng.normal(size=(1, dim)))[0]
    walks = [oracles.traversal(image, cands, root, n_points) for image in imgs]
    assert first_seen(E._traverse(imgs, cands, root, n_points)) == walks


def test_matrix_ranks_decide_every_entry_the_window_leaves():
    """A given matrix is its own screen, whose float32 windows stop at +-1:
    entries past +-1, NaN entries (never ahead, as an entry below every
    target is not) and near ties one float32 ulp apart, or closer, rank as
    the oracle ranks them."""
    rng = np.random.default_rng(16)
    values = [-1.5, -1.0 - 2.0 ** -23, -1.0, -1.0 + 2.0 ** -24, 0.5 - 2.0 ** -25, 0.5,
              0.5 + 2.0 ** -40, 0.5 + 2.0 ** -24, 1.0 - 2.0 ** -24, 1.0, 1.0 + 2.0 ** -40,
              1.0 + 2.0 ** -23, 1.5]
    for _ in range(200):
        n_img = int(rng.integers(1, 6))
        owners = rng.permutation(np.append(np.arange(n_img),
                                           rng.integers(0, n_img, size=rng.integers(0, 10))))
        n_txt = owners.size
        sims = rng.choice(values, size=(n_img, n_txt))
        off_target = rng.random(sims.shape) < 0.2
        off_target[owners, np.arange(n_txt)] = False
        sims[off_target] = np.nan
        want = oracles.stable_ranks(np.where(off_target, -3.0, sims), owners)
        got = E._matrix_ranks(sims, owners)
        assert [r.tolist() for r in got] == [r.tolist() for r in want]


@settings(max_examples=100, deadline=None)
@given(grouped_texts(), st.integers(2, 9))
def test_hierarchical_report_equals_per_walk_sets(fixture, n_points):
    # ragged ownership and repeated texts: walks revisit tied duplicates
    imgs, txts, owners, _ = fixture
    precision, recall = oracles.traversal_pr(imgs, txts, owners, E.centroid_root(txts), n_points)
    report = E.hierarchical_report(imgs, txts, owners, n_points)
    assert report == {"precision": precision, "recall": recall, "n_points": n_points}


def nudged(fixed, row, want):
    """A copy of row whose last coordinate is stepped one float at a time
    until cosine_sim(fixed, copy) == want; None if a step passes it."""
    row = row.copy()
    up = want > geometry.cosine_sim(fixed, row)
    toward = np.inf if up == (fixed[-1] > 0) else -np.inf
    for _ in range(2000):
        row[-1] = np.nextafter(row[-1], toward)
        have = geometry.cosine_sim(fixed, row)
        if have == want:
            return row
        if (have > want) == up:
            return None
    return None


def edge_rows(rng, rows):
    """The rows rescaled to norm 1 - 0.999e-3 or 1 + 0.999e-3 at random,
    the edge of the norm contract."""
    return geometry.l2_normalize(rows) * (
        1.0 + 0.999e-3 * rng.choice([-1.0, 1.0], size=(rows.shape[0], 1)))


@st.composite
def screen_fixtures(draw):
    """Embeddings placed like a trained model's (texts near their owner),
    with the cases a screened rank count can get wrong: exact duplicate
    rows and columns, dots above 1 before the clamp, rows at the edge of
    the norm contract, off-target entries one float from a target and
    images that own just one text, appended last."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 2, 5, 16, 48]))
    n_img = draw(st.integers(1, 8))
    n_txt = draw(st.integers(1, 24))
    imgs = geometry.l2_normalize(rng.normal(size=(n_img, dim)))
    # the last image owns only the text appended for it when the draw says so
    owners = rng.integers(0, max(1, n_img - draw(st.integers(0, 1))), size=n_txt)
    noise = draw(st.sampled_from([0.05, 0.5, 3.0]))
    txts = geometry.l2_normalize(imgs[owners] + noise * rng.normal(size=(n_txt, dim)))
    if draw(st.booleans()):
        imgs[rng.integers(n_img)] = imgs[rng.integers(n_img)]
        txts[rng.integers(n_txt)] = txts[rng.integers(n_txt)]
    if draw(st.booleans()):
        # rows scaled a little past the unit sphere, inside the norm
        # contract: texts copied from them meet them above 1 before the
        # clamp, so their entries clamp to 1 and tie
        picked = rng.integers(n_img, size=2)
        imgs[picked] *= 1.0 + 2.0 ** -11
        txts[rng.integers(n_txt, size=4)] = imgs[rng.choice(picked, size=4)]
    if draw(st.booleans()):
        # every row at the norm contract's edge, 1 -/+ 0.999e-3
        imgs, txts = edge_rows(rng, imgs), edge_rows(rng, txts)
    if draw(st.booleans()) and dim > 1:
        # one float above or below a text's target: an extra image next to
        # its owner, and an extra text next to the owner's best text
        j = int(rng.integers(n_txt))
        target = geometry.cosine_sim(imgs[owners[j]], txts[j])
        for toward in (np.inf, -np.inf):
            twin = nudged(txts[j], imgs[owners[j]], np.nextafter(target, toward))
            if twin is not None:
                imgs = np.vstack([imgs, twin])
            twin = nudged(imgs[owners[j]], txts[j], np.nextafter(target, toward))
            if twin is not None:
                txts = np.vstack([txts, twin])
                owners = np.append(owners, rng.integers(imgs.shape[0]))
    # one text near each image that owns none yet, twins included
    bare = np.setdiff1d(np.arange(imgs.shape[0]), owners)
    txts = np.vstack([txts, geometry.l2_normalize(
        imgs[bare] + noise * rng.normal(size=(bare.size, dim)))])
    owners = np.append(owners, bare)
    levels = rng.integers(-1, 4, size=owners.size)
    return imgs, txts, owners, levels


def matrix_folds(imgs, txts, owners, n_folds):
    """The folded suite from one sim_matrix per fold."""
    folds = []
    for start, stop in E.fold_slices(imgs.shape[0], n_folds):
        keep = np.flatnonzero((owners >= start) & (owners < stop))
        sims = geometry.sim_matrix(imgs[start:stop], txts[keep])
        suite = E.recall_suite(sims, owners[keep] - start)
        suite["rsum"] = E.rsum(sims, owners[keep] - start)
        folds.append(suite)
    return folds


@settings(max_examples=400, deadline=None)
@given(screen_fixtures(), st.sampled_from([1, 16, 1 << 18]))
def test_screened_ranks_equal_matrix_ranks(fixture, block):
    imgs, txts, owners, levels = fixture
    sims = geometry.sim_matrix(imgs, txts)
    saved = E._BLOCK_ENTRIES, E.centroid_root
    # a block of 1 entry screens one image row at a time
    E._BLOCK_ENTRIES = block
    # a fixed root for the report: the texts' centroid may be the origin here
    E.centroid_root = lambda _: geometry.l2_normalize(np.ones(imgs.shape[1]))[0]
    try:
        i2t, t2i = E.exact_ranks(imgs, txts, owners)
        rsum = E.embedding_rsum(imgs, txts, owners)
        # texts in random owner order, folds from one to one per image
        folded, reports = {}, {None: E.evaluate(imgs, txts, owners, levels=levels)}
        for n_folds in {1, min(2, imgs.shape[0]), imgs.shape[0]}:
            folded[n_folds] = E.folded_recall_suite(imgs, txts, owners, n_folds)["folds"]
            reports[n_folds] = E.evaluate(imgs, txts, owners, levels=levels, n_folds=n_folds)
    finally:
        E._BLOCK_ENTRIES, E.centroid_root = saved
    want_i2t, want_t2i = E._matrix_ranks(sims, owners)
    assert np.array_equal(i2t, want_i2t)
    assert np.array_equal(t2i, want_t2i)
    assert rsum == E.rsum(sims, owners)
    assert E._level_recall(t2i, levels) == E.per_level_recall(sims, owners, levels)
    for n_folds, folds in folded.items():
        want = matrix_folds(imgs, txts, owners, n_folds)
        assert folds == want
        assert reports[n_folds]["folded"]["folds"] == want
    for report in reports.values():
        assert report["recall"] == E.recall_suite(sims, owners)
        assert report["rsum"] == E.rsum(sims, owners)
        if (levels >= 0).any():
            assert report["per_level_recall"] == E.per_level_recall(sims, owners, levels)


def test_evaluate_requests_at_most_one_row_block(monkeypatch):
    rng = np.random.default_rng(8)
    imgs = geometry.l2_normalize(rng.normal(size=(300, 16)))
    owners = np.repeat(np.arange(300), 2)
    txts = geometry.l2_normalize(imgs[owners] + 0.3 * rng.normal(size=(600, 16)))
    monkeypatch.setattr(E, "_BLOCK_ENTRIES", 1 << 12)
    row_block = (E._BLOCK_ENTRIES // txts.shape[0]) * txts.shape[0]
    requested = []
    for name in ("sim_matrix", "pair_sims"):
        original = getattr(geometry, name)

        def counting(*args, _original=original):
            out = _original(*args)
            requested.append(out.size)
            return out

        monkeypatch.setattr(geometry, name, counting)
    report = E.evaluate(imgs, txts, owners, levels=np.tile([1, 2], 300), n_folds=3)
    # the dense matrix would be 180 000 entries
    assert requested and max(requested) <= row_block < imgs.shape[0] * txts.shape[0]
    monkeypatch.undo()
    sims = geometry.sim_matrix(imgs, txts)
    assert report["recall"] == E.recall_suite(sims, owners)


def test_screen_decides_every_entry_outside_its_window(monkeypatch):
    """The exact re-check sees only what the screen cannot decide: on a
    matrix of distinct values 1/70 apart no entry, and on well-separated
    unit embeddings no pair beyond the targets that exact_ranks takes from
    pair_sims anyway."""
    rechecked = []
    count_ranks = E._count_ranks

    def spy(n_img, owners, owned, blocks, exact, *args, **kwargs):
        def counted(rows, cols):
            rechecked.append(len(rows))
            return exact(rows, cols)
        return count_ranks(n_img, owners, owned, blocks, counted, *args, **kwargs)

    monkeypatch.setattr(E, "_count_ranks", spy)
    sims = (np.random.default_rng(13).permutation(140).reshape(7, 20) - 70) / 70.0
    owners = np.arange(20) % 7
    assert [r.tolist() for r in E._matrix_ranks(sims, owners)] == [
        r.tolist() for r in oracles.stable_ranks(sims, owners)]
    assert sum(rechecked) == 0
    monkeypatch.undo()
    rng = np.random.default_rng(14)
    imgs = geometry.l2_normalize(rng.normal(size=(30, 16)))
    owners = np.repeat(np.arange(30), 4)
    txts = geometry.l2_normalize(imgs[owners] + 0.3 * rng.normal(size=(120, 16)))
    pairs, pair_sims = [], geometry.pair_sims

    def counting(images, texts, rows, cols):
        pairs.append(len(rows))
        return pair_sims(images, texts, rows, cols)

    monkeypatch.setattr(geometry, "pair_sims", counting)
    E.exact_ranks(imgs, txts, owners)
    assert pairs == [120]


@pytest.mark.parametrize("n", [255, 256, 65535, 65536])
def test_count_sums_each_axis_in_an_accumulator_that_cannot_overflow(n):
    """``_count``'s accumulator narrows with the axis length (uint8 below
    256 entries, uint16 below 65 536); at each edge, full and random masks,
    and the strided column slices that split a row by fold, count as
    numpy's int64 sum does."""
    rng = np.random.default_rng(n)
    for mask in (np.ones((n, 3), dtype=bool), rng.random((n, 3)) < 0.5):
        wide = np.hstack([mask.T, mask.T])
        for axis, m in ((0, mask), (1, mask.T), (1, wide[:, 1:n + 1])):
            got = E._count(m, axis)
            assert got.dtype == np.int64
            assert np.array_equal(got, m.sum(axis=axis))


def test_walk_screen_marks_about_one_candidate_per_station(monkeypatch):
    """The float32 walk screen leaves ``_nearest`` about one column per
    (station, walk) to take: on 300 images with 1 200 candidate texts, 16
    more than the 15 000 (station, walk) pairs."""
    rng = np.random.default_rng(15)
    imgs = geometry.l2_normalize(rng.normal(size=(300, 16)))
    owners = np.repeat(np.arange(300), 4)
    txts = geometry.l2_normalize(imgs[owners] + 0.5 * rng.normal(size=(1200, 16)))
    marked, pairs, nearest = [], [], E._nearest

    def spy(close, seg, index, candidates, point):
        # the start pass screens blocks of 218 and 82 images; a walk
        # chunk has one row per station
        if close.shape[0] == 50:
            marked.append(int(np.count_nonzero(close)))
            pairs.append(close.shape[0] * (int(seg[-1]) + 1))
        return nearest(close, seg, index, candidates, point)

    monkeypatch.setattr(E, "_nearest", spy)
    E.hierarchical_report(imgs, txts, owners, 50)
    assert sum(pairs) == 50 * 300
    assert sum(pairs) <= sum(marked) <= 1.01 * sum(pairs)


def sphere_fixture():
    rng = np.random.default_rng(9)
    imgs = geometry.l2_normalize(rng.normal(size=(30, 16)))
    owners = np.repeat(np.arange(30), 2)
    txts = geometry.l2_normalize(imgs[owners] + 0.3 * rng.normal(size=(60, 16)))
    return imgs, txts, owners


# (modality, rows changed, factor, first row named)
OFF_SPHERE = {
    "image-times-2^41": ("image", 7, 2.0 ** 41, 7),
    "texts-times-1e-30": ("text", slice(None), 1e-30, 0),
    "nan-image": ("image", 3, np.nan, 3),
    "text-below-norm-floor": ("text", 11, 0.1 * geometry.NORM_FLOOR, 11),
}


@pytest.mark.parametrize("case", list(OFF_SPHERE))
def test_screens_reject_rows_off_the_unit_sphere(case):
    which, rows, factor, first = OFF_SPHERE[case]
    imgs, txts, owners = sphere_fixture()
    root = E.centroid_root(txts)
    (imgs if which == "image" else txts)[rows] *= factor
    for call in (lambda: E.exact_ranks(imgs, txts, owners),
                 lambda: E.embedding_rsum(imgs, txts, owners),
                 lambda: E.folded_recall_suite(imgs, txts, owners, 3),
                 lambda: E.evaluate(imgs, txts, owners, np.full(owners.size, -1))):
        with pytest.raises(ValueError, match=f"^{which} row {first} is not L2-normalized"):
            call()
    # the traversal takes the texts as candidates, here with the root of
    # the texts before the change (the centroid of texts scaled by 1e-30 is
    # below l2_normalize's floor)
    name = "image" if which == "image" else "candidate"
    with pytest.raises(ValueError, match=f"^{name} row {first} is not L2-normalized"):
        E._traverse(imgs, txts, root, 50)


def test_screens_reject_a_root_off_the_sphere_and_wide_embeddings():
    imgs, txts, owners = sphere_fixture()
    with pytest.raises(ValueError, match="^root row 0 is not L2-normalized: norm 2,"):
        E.hierarchical_traverse(imgs[0], txts, 2.0 * E.centroid_root(txts))
    with pytest.raises(ValueError, match="^root row 0 is not L2-normalized: norm nan,"):
        E.hierarchical_traverse(imgs[0], txts, np.full(imgs.shape[1], np.nan))
    # the float32 screens' slacks hold for d < 2^20
    wide = np.zeros((1, 1 << 20))
    wide[0, 0] = 1.0
    assert [r.tolist() for r in E.exact_ranks(wide[:, :-1], wide[:, :-1], [0])] == [[0], [0]]
    with pytest.raises(ValueError, match=r"^image embeddings have 1048576 dimensions"):
        E.exact_ranks(wide, wide, [0])
    with pytest.raises(ValueError, match=r"^image embeddings have 1048576 dimensions"):
        E.hierarchical_traverse(wide[0], wide, wide[0], 2)


# (owners of six texts, or of none, the number of images, the message)
INCOMPLETE_SPLITS = {
    "owner-minus-one": ([0, 0, 1, 1, 2, -1], 3, "^text 5 has owner -1, outside the 3 images$"),
    "owner-n-images": ([0, 0, 1, 3, 2, 2], 3, "^text 3 has owner 3, outside the 3 images$"),
    "image-owning-no-text": ([0, 0, 2, 2, 0, 2], 3, "^image 1 owns no text$"),
    "no-images": ([], 0, "^the split has no images$"),
}


@pytest.mark.parametrize("case", list(INCOMPLETE_SPLITS))
def test_every_entry_point_takes_only_a_complete_split(case):
    owners, n_img, want = INCOMPLETE_SPLITS[case]
    rng = np.random.default_rng(10)
    imgs = geometry.l2_normalize(rng.normal(size=(n_img, 4)))
    txts = geometry.l2_normalize(rng.normal(size=(len(owners), 4)))
    sims, levels = imgs @ txts.T, np.arange(len(owners)) % 2
    for call in (lambda: E.exact_ranks(imgs, txts, owners),
                 lambda: E.recall_suite(sims, owners),
                 lambda: E.rsum(sims, owners),
                 lambda: E.per_level_recall(sims, owners, levels),
                 lambda: E.embedding_rsum(imgs, txts, owners),
                 lambda: E.folded_recall_suite(imgs, txts, owners, 1),
                 lambda: E.hierarchical_report(imgs, txts, owners),
                 lambda: E.d_corr(imgs, txts, owners, levels),
                 lambda: E.distance_by_level(imgs, txts, owners, levels),
                 lambda: E.evaluate(imgs, txts, owners, levels=levels, n_folds=1)):
        with pytest.raises(ValueError, match=want):
            call()

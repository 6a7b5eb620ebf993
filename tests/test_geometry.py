import json
import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from descmatch import geometry as G


def euclid_dist(u, v) -> float:
    """One pair's distance, by definition: the norm of the difference."""
    return float(np.linalg.norm(np.ravel(u) - np.ravel(v)))


def test_l2_normalize_rows_are_unit():
    rng = np.random.default_rng(0)
    out = G.l2_normalize(rng.normal(size=(5, 7)))
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_l2_normalize_names_offending_row():
    mat = np.ones((3, 4))
    mat[1] = 0.0
    with pytest.raises(ValueError, match="row 1"):
        G.l2_normalize(mat)


def test_cosine_sim_basicuses():
    assert G.cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert G.cosine_sim([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert G.cosine_sim([1.0, 0.0], [-1.0, 0.0]) == -1.0
    with pytest.raises(ValueError, match="dimension"):
        G.cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_sim_clamps_rounding_drift():
    v = np.full(64, 0.125)  # exactly unit norm
    assert abs(G.cosine_sim(v, v)) <= 1.0


def test_euclid_dist_known_values():
    assert G.euclid_dists([[0.0, 0.0], [1.0, 2.0]], [[3.0, 4.0], [1.0, 2.0]]).tolist() == [5.0, 0.0]


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (4, 6), elements=st.floats(-2, 2)),
       hnp.arrays(np.float64, (5, 6), elements=st.floats(-2, 2)))
def test_sim_matrix_bit_identical_to_pairwise_calls(a, b):
    mat = G.sim_matrix(a, b)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            assert mat[i, j] == G.cosine_sim(a[i], b[j])


def test_sim_matrix_sub_blocks_bit_identical_to_full():
    rng = np.random.default_rng(5)
    n_txt = 3000
    step = G._BLOCK_ENTRIES // n_txt
    # 50 rows cross two row-block boundaries of the full matrix
    a = rng.normal(size=(2 * step + 8, 24))
    b = rng.normal(size=(n_txt, 24))
    full = G.sim_matrix(a, b)
    for rows in (slice(5, 2 * step + 3), slice(None, None, 3), [step, step - 1, 0]):
        for cols in (slice(17, 2900), slice(None, None, 7), slice(n_txt - 1, None)):
            assert np.array_equal(G.sim_matrix(a[rows], b[cols]), full[rows][:, cols])
    assert np.array_equal(G.sim_matrix(np.asfortranarray(a), b.T.copy().T), full)
    for i, j in ((0, 0), (step, 2999), (2 * step + 7, 1234)):
        assert full[i, j] == G.cosine_sim(a[i], b[j])
        # the kernel's definition: products and sums rounded one at a time,
        # in coordinate order
        acc = float(a[i, 0]) * float(b[j, 0])
        for x, y in zip(a[i, 1:], b[j, 1:]):
            acc += float(x) * float(y)
        assert full[i, j] == min(1.0, max(-1.0, acc))


def test_euclid_dists_bit_identical_to_pairwise_calls():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(40, 32)), rng.normal(size=(40, 32))
    got = G.euclid_dists(a, b)
    assert [float(v) for v in got] == [euclid_dist(u, v) for u, v in zip(a, b)]


def test_sim_matrix_shape_checks():
    with pytest.raises(ValueError, match="dimension"):
        G.sim_matrix(np.ones((2, 3)), np.ones((2, 4)))


def test_pair_sims_bit_identical_to_sim_matrix(monkeypatch):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(30, 24))
    b = 1.5 * rng.normal(size=(40, 24))
    a[3] = np.nan
    full = G.sim_matrix(a, b)
    rows, cols = rng.integers(0, 30, size=500), rng.integers(0, 40, size=500)
    # chunks of a few pairs, so that the pairs span several of them
    monkeypatch.setattr(G, "_BLOCK_ENTRIES", 24 * 7)
    got = G.pair_sims(a, b, rows, cols)
    assert np.array_equal(got, full[rows, cols], equal_nan=True)
    assert np.isnan(got[rows == 3]).all() and (np.abs(got[rows != 3]) <= 1.0).all()
    assert G.pair_sims(a, b, [], []).shape == (0,)
    with pytest.raises(ValueError, match="dimension"):
        G.pair_sims(np.ones((2, 3)), np.ones((2, 4)), [0], [0])


def fixed_order_sim(u, v) -> float:
    """The kernel's definition in Python floats: acc = u[0] * v[0], then
    acc += u[k] * v[k] in coordinate order, each product and sum rounded
    on its own, then clamped into [-1, 1] (NaN stays NaN)."""
    acc = float(u[0]) * float(v[0])
    for x, y in zip(u[1:], v[1:]):
        acc += float(x) * float(y)
    return acc if math.isnan(acc) else min(1.0, max(-1.0, acc))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    # int64 views compare every bit, so -0.0 differs from 0.0
    assert np.array_equal(got[keep].view(np.int64), want[keep].view(np.int64))


@pytest.mark.parametrize("dim", [1, 2, 48])
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_kernel_equals_fixed_order_python_sum(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    # rows scaled past the unit sphere: many dots lie beyond +-1 before the
    # clamp; exact zeros give signed-zero products and sums
    a = 1.5 * rng.normal(size=(20, dim))
    b = 1.5 * rng.normal(size=(30, dim))
    a[4] = np.nan
    b[7, -1] = np.nan
    a[5] = 0.0
    # an infinite row, and two rows whose products with each other overflow
    a[6] = np.inf
    a[7] *= 1e200
    b[8] *= 1e200
    rows, cols = rng.integers(0, 20, size=400), rng.integers(0, 30, size=400)
    rows, cols = np.append(rows, [6, 6, 7, 7]), np.append(cols, [0, 8, 8, 0])
    assert np.isinf(a[7] * b[8]).all()
    want = np.array([fixed_order_sim(a[i], b[j]) for i, j in zip(rows, cols)])
    # chunks of a few pairs, so that the pairs span several of them
    monkeypatch.setattr(G, "_BLOCK_ENTRIES", 7 * dim)
    got = G.pair_sims(a, b, rows, cols)
    assert_same_bits(got, want)
    nan_in = (rows == 4) | (cols == 7)
    finite = ~nan_in & (rows != 6) & ~((rows == 7) & (cols == 8))
    assert np.isnan(got[nan_in]).all() and (np.abs(got[finite]) <= 1.0).all()
    rest = got[~nan_in & ~finite]
    assert (np.isnan(rest) | (np.abs(rest) == 1.0)).all()
    assert (np.abs(want[finite]) == 1.0).any()
    zeros = want[(rows == 5) & finite]
    assert (zeros == 0.0).all()
    # -0.0 survives a sum only while every term is -0.0: here in 1 and 2 terms
    assert np.signbit(zeros).any() == (dim < 48)
    full = G.sim_matrix(a, b)
    assert_same_bits(full, [[fixed_order_sim(u, v) for v in b] for u in a])
    for i, j in zip(rows[-24:], cols[-24:]):
        assert_same_bits(G.cosine_sim(a[i], b[j]), fixed_order_sim(a[i], b[j]))


def test_feature_round_trip_f64_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(6, 5))
    ids = [f"id{k}" for k in range(6)]
    manifest = G.write_features(tmp_path / "feats", ids, mat)
    assert json.loads(manifest.read_text())["dtype"] == "f64"
    got_ids, got = G.read_features(manifest)
    assert got_ids == ids
    assert np.array_equal(got, mat)
    assert got.dtype == np.float64


def write_f32(stem, ids, matrix):
    """An f32 feature file, which read_features reads and write_features
    does not write: write_features' f64 manifest, relabelled, beside the
    float32 bytes of the matrix."""
    manifest = G.write_features(stem, ids, matrix)
    fields = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**fields, "dtype": "f32"}))
    np.asarray(matrix, dtype="<f4").tofile(stem.with_name(stem.name + ".bin"))
    return manifest


def test_feature_round_trip_f32_narrows(tmp_path):
    mat = np.array([[0.1, 0.2], [0.3, 0.4]])
    manifest = write_f32(tmp_path / "feats", ["a", "b"], mat)
    _, got = G.read_features(manifest)
    assert got.dtype == np.float64
    assert np.allclose(got, mat, atol=1e-7)
    assert not np.array_equal(got, mat)


def test_feature_files_hold_row_major_bytes_without_a_copy(tmp_path):
    """Strided and column-major matrices are written row-major, and an f64
    matrix is written without a float64 copy, then read back as the
    C-contiguous array read."""
    mat = np.random.default_rng(2).normal(size=(400, 60))
    for name, m in (("fortran", np.asfortranarray(mat)), ("strided", mat[::2, 1::3]),
                    ("row-strided", mat[::3])):
        G.write_features(tmp_path / name, [f"r{k}" for k in range(m.shape[0])], m)
        want = np.ascontiguousarray(m, dtype="<f8").tobytes()
        assert (tmp_path / f"{name}.bin").read_bytes() == want
    _, got = G.read_features(tmp_path / "fortran.manifest.json")
    assert got.flags.c_contiguous and got.flags.owndata is False and got.base.ndim == 1
    tracemalloc.start()
    try:
        G.write_features(tmp_path / "big", [f"r{k}" for k in range(400)], mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mat.nbytes / 2, f"write_features traced {peak} bytes for {mat.nbytes}"


def test_feature_write_validates(tmp_path):
    with pytest.raises(ValueError, match="ids"):
        G.write_features(tmp_path / "x", ["a", "b"], np.ones((1, 2)))


def test_feature_read_validates(tmp_path):
    manifest = G.write_features(tmp_path / "f", ["a", "b"], np.ones((2, 3)))
    with pytest.raises(ValueError, match="manifest"):
        G.read_features(tmp_path / "f.bin")
    (tmp_path / "f.bin").write_bytes(b"\x00" * 8)
    with pytest.raises(ValueError, match="expected"):
        G.read_features(manifest)
    manifest.write_text(json.dumps({"rows": 2, "dim": 3, "dtype": "f16", "ids": ["a", "b"]}))
    with pytest.raises(ValueError, match="unknown dtype 'f16'"):
        G.read_features(manifest)


def test_unit_vector_distance_similarity_identity():
    rng = np.random.default_rng(3)
    u, v = G.l2_normalize(rng.normal(size=(2, 9)))
    d = euclid_dist(u, v)
    s = G.cosine_sim(u, v)
    assert d * d == pytest.approx(2.0 - 2.0 * s, abs=1e-12)


def test_feature_read_rejects_duplicate_ids(tmp_path):
    manifest = G.write_features(tmp_path / "f", ["a", "b", "a"], np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"f\.manifest\.json: duplicate id 'a'"):
        G.read_features(manifest)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_read_rejects_non_finite_rows(tmp_path, bad):
    mat = np.ones((5, 3))
    mat[3, 2] = mat[4, 0] = bad
    manifest = write_f32(tmp_path / "f", list("abcde"), mat)
    with pytest.raises(ValueError, match=r"f\.bin: row 3 \(id 'd'\) is not finite"):
        G.read_features(manifest)


def test_non_finite_check_spans_row_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(G, "_BLOCK_ENTRIES", 6)
    mat = np.ones((7, 3))
    mat[5, 1] = np.nan
    manifest = G.write_features(tmp_path / "f", list("abcdefg"), mat)
    with pytest.raises(ValueError, match=r"row 5 \(id 'f'\)"):
        G.read_features(manifest)

"""Embedding-vector primitives and on-disk feature formats.

All arithmetic is 64-bit.  Every cosine similarity, batched or single,
comes from one kernel, ``pair_sims``: a fixed-order sum over the embedding
dimension, ``acc = a[0] * b[0]``, then ``acc += a[k] * b[k]`` for k = 1,
2, ..., each product and each sum rounded on its own, then clamped into
[-1, 1].  It is vectorised over a list of (image, text) pairs and the
order of the sum never depends on the list.  ``sim_matrix`` is
``pair_sims`` over every pair of a block and ``cosine_sim`` is
``pair_sims`` on one pair, so an entry has the same bits in a full
matrix, in any sub-block, in any list of pairs and in a single
``cosine_sim`` call.  BLAS gemm only screens: it splits and reorders the
sum by matrix shape, so on OpenBLAS an entry of a full product can differ
in the last bit from the same entry of a 1x1 or single-row product.
Evaluation uses a gemm product to decide the entries that lie clearly
above or below a threshold, and every value that decides a rank (a
target, a near tie) comes from the fixed-order kernel.  Batched distances
keep the same contract another way: ``euclid_dists`` sums each squared
difference with its own BLAS dot call, the (1, d) @ (d, 1) product of
one row, so no row depends on the others.

Text ownership (``image_of_text``) is the only structure that batches,
losses and evaluation derive their groupings from, and ``texts_by_owner``
is the one routine that groups texts by owning image for all of them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

NORM_FLOOR = 1e-12


def is_finite(value) -> bool:
    """``math.isfinite(value)``, but False for an integer too large for a
    float, where math.isfinite raises OverflowError: the settings' float
    fields use it to reject such a value with a message naming the field."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def l2_normalize(matrix: np.ndarray) -> np.ndarray:
    """Divide each row by its L2 norm.  Raises naming the first row whose
    norm falls below the representable floor."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    norms = np.linalg.norm(matrix, axis=1)
    bad = np.flatnonzero(norms < NORM_FLOOR)
    if bad.size:
        raise ValueError(f"row {bad[0]} has near-zero norm {norms[bad[0]]:.3e}")
    return matrix / norms[:, None]


# how far from 1 the norm of an embedding row may lie: loose enough for
# the finite-difference perturbations of the loss gradient check
UNIT_TOL = 1e-3


def check_unit_rows(name: str, rows: np.ndarray) -> np.ndarray:
    """The L2 norms of rows, each of which must lie within ``UNIT_TOL`` of
    1.  Raises naming the first row that does not (a NaN row never does)."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} is not L2-normalized: norm "
                         f"{norms[bad[0]]:.6g}, not 1 within {UNIT_TOL:g}")
    return norms


def _check_dims(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {u.shape[-1]} vs {v.shape[-1]}")


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of two unit vectors, clamped into [-1, 1] against
    rounding drift: ``pair_sims`` on the one pair."""
    return float(pair_sims(np.ravel(u), np.ravel(v), [0], [0])[0])


def euclid_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance between a[i] and b[i]: the difference
    squared and summed by one BLAS dot per row (the (1, d) @ (d, 1)
    matmul of a row), as ``np.linalg.norm`` does for one vector."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    _check_dims(a, b)
    diff = a - b
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


def check_owners(image_of_text, n_images: int, n_texts: int) -> np.ndarray:
    """The owners as int64: one per text, each an image index in
    [0, n_images).  Raises naming the first text whose owner is not."""
    owners = np.asarray(image_of_text, dtype=np.int64)
    if owners.shape != (n_texts,):
        raise ValueError("image_of_text must have one entry per text")
    bad = np.flatnonzero((owners < 0) | (owners >= n_images))
    if bad.size:
        raise ValueError(f"text {bad[0]} has owner {owners[bad[0]]}, outside the "
                         f"{n_images} images")
    return owners


def texts_by_owner(owners: np.ndarray, n_images: int) -> tuple[np.ndarray, np.ndarray]:
    """Texts grouped by owning image: image i owns
    order[bounds[i]:bounds[i + 1]], in ascending text index."""
    owners = np.asarray(owners, dtype=np.int64)
    order = np.argsort(owners, kind="stable")
    return order, np.searchsorted(owners[order], np.arange(n_images + 1))


# float64 entries per block of the similarity kernel: 512 KB, which keeps
# the running sum in cache across the embedding dimension
_BLOCK_ENTRIES = 1 << 16


def sim_matrix(images: np.ndarray, texts: np.ndarray) -> np.ndarray:
    """Entry (i, j) = cosine_sim(image row i, text row j): ``pair_sims``
    over every pair, image rows outer."""
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    texts = np.atleast_2d(np.asarray(texts, dtype=np.float64))
    shape = (images.shape[0], texts.shape[0])
    rows, cols = np.indices(shape).reshape(2, -1)
    return pair_sims(images, texts, rows, cols).reshape(shape)


def pair_sims(images: np.ndarray, texts: np.ndarray, rows: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """Entry m = the similarity of images[rows[m]] and texts[cols[m]]: the
    fixed-order kernel of the module docstring over a list of pairs."""
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    texts = np.atleast_2d(np.asarray(texts, dtype=np.float64))
    _check_dims(images, texts)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, _BLOCK_ENTRIES // max(1, images.shape[1]))
    for start in range(0, rows.size, step):
        # row m: the coordinate products of pair m; accumulate is the
        # fixed-order sum by definition (acc = p[0], then acc += p[k])
        prods = images.take(rows[start:start + step], axis=0)
        prods *= texts.take(cols[start:start + step], axis=0)
        np.add.accumulate(prods, axis=1, out=prods)
        out[start:start + step] = prods[:, -1]
    np.clip(out, -1.0, 1.0, out=out)
    return out


# ---------------------------------------------------------------------------
# Feature files: a JSON manifest beside a flat little-endian binary

_DTYPES = {"f32": "<f4", "f64": "<f8"}
_MANIFEST_SUFFIX = ".manifest.json"


def write_features(stem, ids: list[str], matrix: np.ndarray) -> Path:
    """Write ``<stem>.manifest.json`` and a row-major f64 ``<stem>.bin`` (read: f32 or f64)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if len(ids) != matrix.shape[0]:
        raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} rows")
    stem = Path(stem)
    manifest = {"rows": matrix.shape[0], "dim": matrix.shape[1], "dtype": "f64", "ids": list(ids)}
    # one dumps call runs the C encoder, which dump's streaming path skips
    with open(stem.with_name(stem.name + _MANIFEST_SUFFIX), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    matrix.astype(_DTYPES["f64"], copy=False).tofile(stem.with_name(stem.name + ".bin"))
    return stem.with_name(stem.name + _MANIFEST_SUFFIX)


def read_features(manifest_path) -> tuple[list[str], np.ndarray]:
    """Load a manifest + binary pair; returns (ids, float64 matrix).  The
    matrix of an f64 file is the C-contiguous array read, not a copy.

    The manifest is a JSON object holding ``rows`` and ``dim`` (non-negative
    integers), ``dtype`` (a key of `_DTYPES`) and ``ids`` (a list of string
    or integer ids, kept as strings).  Anything else raises ValueError
    naming the manifest.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.name.endswith(_MANIFEST_SUFFIX):
        raise ValueError(f"{manifest_path}: expected a *{_MANIFEST_SUFFIX} path")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if type(manifest) is not dict:
        raise ValueError(f"{manifest_path}: manifest must be a JSON object")
    for key in ("rows", "dim", "dtype", "ids"):
        if key not in manifest:
            raise ValueError(f"{manifest_path}: manifest lacks {key!r}")
    rows, dim, dtype, ids = (manifest[key] for key in ("rows", "dim", "dtype", "ids"))
    for key, value in (("rows", rows), ("dim", dim)):
        if type(value) is not int or value < 0:
            raise ValueError(f"{manifest_path}: {key!r} must be a non-negative integer, "
                             f"got {json.dumps(value)}")
    if type(dtype) is not str or dtype not in _DTYPES:
        raise ValueError(f"{manifest_path}: unknown dtype {dtype!r}")
    if type(ids) is not list or not {type(s) for s in ids} <= {str, int}:
        raise ValueError(f"{manifest_path}: 'ids' must be a list of strings or integers")
    ids = [str(s) for s in ids]
    if len(ids) != rows:
        raise ValueError(f"{manifest_path}: {len(ids)} ids for {rows} rows")
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            raise ValueError(f"{manifest_path}: duplicate id {sid!r}")
        seen.add(sid)
    bin_path = manifest_path.with_name(manifest_path.name[: -len(_MANIFEST_SUFFIX)] + ".bin")
    data = np.fromfile(bin_path, dtype=_DTYPES[dtype])
    if data.size != rows * dim:
        raise ValueError(f"{bin_path}: expected {rows * dim} values, found {data.size}")
    data = data.reshape(rows, dim)
    # row blocks keep the check's boolean temporary small
    step = max(1, _BLOCK_ENTRIES // max(1, dim))
    for start in range(0, rows, step):
        finite = np.isfinite(data[start:start + step]).all(axis=1)
        if not finite.all():
            row = start + int(np.argmin(finite))
            raise ValueError(f"{bin_path}: row {row} (id {ids[row]!r}) is not finite")
    return ids, data.astype(np.float64, copy=False)


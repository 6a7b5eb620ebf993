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

Norm contract: every embedding row that the losses, the trainer's
validation and evaluation take has an L2 norm within ``UNIT_TOL`` = 1e-3
of 1, and fewer than ``_MAX_DIM`` = 2^20 columns; ``check_unit_rows`` is
its one check, and evaluation's screens prove their slacks from it.

Text ownership (``image_of_text``) is the only structure that batches,
losses and evaluation derive their groupings from: ``check_owners`` is the
one check of an owner array, made of ``owner_array``'s count check and a
range check, and ``texts_by_owner`` the one routine that groups texts by
owning image for all of them.

Files: ``write_json`` writes every JSON run file (the config echoes, the
synth spec, the training history and the evaluation report) in one form,
indent 2, sorted keys and a final newline.  A feature file is a JSON
manifest beside a flat binary.  ``_check_manifest`` is the one validator of
a manifest: ``read_features`` runs it on the object it loads and
``write_features`` on the object it is about to write, so the writer
refuses exactly the manifests the reader rejects.  ``first_repeat`` is the
one scan for a repeated id, of feature manifests and of corpora alike.
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


# the bound of every integer setting but a seed: the sum of two such values
# stays inside int64, so no setting wraps numpy's integer arithmetic
MAX_INT_SETTING = 1 << 62


def check_settings(rows) -> None:
    """The one bounds check of every setting: rows of (name, value, ok,
    kind), checked in order.  Raises ValueError("<name> must be <kind>, got
    <value>") at the first row whose ok is false; an ok written as
    ``value > 0`` or ``value >= least`` is false for NaN too."""
    for name, value, ok, kind in rows:
        if not ok:
            raise ValueError(f"{name} must be {kind}, got {value}")


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


# the widest rows the norm contract admits: evaluation's float32 screens
# prove their slacks for fewer dimensions
_MAX_DIM = 1 << 20


def check_unit_rows(name: str, rows: np.ndarray) -> None:
    """The norm contract: raises if rows have ``_MAX_DIM`` columns or more,
    else naming the first row whose L2 norm does not lie within
    ``UNIT_TOL`` of 1 (a NaN norm never does)."""
    if rows.shape[1] >= _MAX_DIM:
        raise ValueError(f"{name} embeddings have {rows.shape[1]} dimensions; "
                         f"the float32 screens take fewer than 2^20")
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} is not L2-normalized: norm "
                         f"{norms[bad[0]]:.6g}, not 1 within {UNIT_TOL:g}")


def check_dims(u: np.ndarray, v: np.ndarray) -> None:
    """Raises unless u and v have rows of one width."""
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
    check_dims(a, b)
    diff = a - b
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


def owner_array(image_of_text, n_texts: int) -> np.ndarray:
    """The owners as int64, one per text, or ValueError."""
    owners = np.asarray(image_of_text, dtype=np.int64)
    if owners.shape != (n_texts,):
        raise ValueError("image_of_text must have one entry per text")
    return owners


def check_owners(image_of_text, n_images: int, n_texts: int) -> np.ndarray:
    """`owner_array`, each owner an image index in [0, n_images).  Raises
    naming the first text whose owner is not."""
    owners = owner_array(image_of_text, n_texts)
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
    check_dims(images, texts)
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


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path`` as a JSON run file: indent 2, sorted keys,
    a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Feature files: a JSON manifest beside a flat little-endian binary

_DTYPES = {"f32": "<f4", "f64": "<f8"}
_MANIFEST_SUFFIX = ".manifest.json"


def first_repeat(values: list) -> int | None:
    """The index of the first value equal to an earlier one, or None if no
    value repeats: a set-size test, and only then a scan."""
    if len(set(values)) == len(values):
        return None
    seen = set()
    for k, value in enumerate(values):
        if value in seen:
            return k
        seen.add(value)


def _check_manifest(manifest_path, manifest) -> tuple[int, int, str, list[str]]:
    """The one check of a feature manifest, read or about to be written: a
    dict holding ``rows`` (a non-negative integer), ``dim`` (a positive
    integer), ``dtype`` (a key of `_DTYPES`) and ``ids`` (a list of
    ``rows`` string or integer ids, none repeated once read as strings).
    Returns (rows, dim, dtype, the ids as strings); raises ValueError naming
    the manifest at the first fault."""
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
    # the type test runs in C, and the ids are copied only if one is an int
    if type(ids) is not list or not (types := set(map(type, ids))) <= {str, int}:
        raise ValueError(f"{manifest_path}: 'ids' must be a list of strings or integers")
    if int in types:
        ids = list(map(str, ids))
    if len(ids) != rows:
        raise ValueError(f"{manifest_path}: {len(ids)} ids for {rows} rows")
    if dim == 0:
        raise ValueError(f"{manifest_path}: 'dim' must be at least 1, got 0")
    if (k := first_repeat(ids)) is not None:
        raise ValueError(f"{manifest_path}: duplicate id {ids[k]!r}")
    return rows, dim, dtype, ids


def _check_rows(bin_path, ids: list[str], data: np.ndarray) -> None:
    """The binary fact that `read_features` checks and `write_features`
    keeps: every row finite.  Raises naming the binary, the first row that
    is not and its id; row blocks keep the boolean temporary small."""
    step = max(1, _BLOCK_ENTRIES // data.shape[1])
    for start in range(0, data.shape[0], step):
        finite = np.isfinite(data[start:start + step]).all(axis=1)
        if not finite.all():
            row = start + int(np.argmin(finite))
            raise ValueError(f"{bin_path}: row {row} (id {ids[row]!r}) is not finite")


def write_features(stem, ids: list[str], matrix: np.ndarray) -> Path:
    """Write ``<stem>.manifest.json`` and a row-major f64 ``<stem>.bin``
    (read: f32 or f64).  A manifest that `_check_manifest` rejects (an id
    that is neither a str nor an int, one id too many or too few, a
    repeated id, zero columns) and a row holding NaN or inf raise
    `read_features`' message before either file is opened."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    stem = Path(stem)
    manifest_path, bin_path = (Path(f"{stem}{end}") for end in (_MANIFEST_SUFFIX, ".bin"))
    manifest = {"rows": matrix.shape[0], "dim": matrix.shape[1], "dtype": "f64", "ids": list(ids)}
    _check_rows(bin_path, _check_manifest(manifest_path, manifest)[3], matrix)
    # one dumps call runs the C encoder, which dump's streaming path skips
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    matrix.astype(_DTYPES["f64"], copy=False).tofile(bin_path)
    return manifest_path


def read_features(manifest_path) -> tuple[list[str], np.ndarray]:
    """Load a manifest + binary pair; returns (ids as strings, float64
    matrix).  The matrix of an f64 file is the C-contiguous array read, not
    a copy.  A manifest that is not JSON or that `_check_manifest` rejects,
    a binary of the wrong size and a row holding NaN or inf raise
    ValueError naming the file.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.name.endswith(_MANIFEST_SUFFIX):
        raise ValueError(f"{manifest_path}: expected a *{_MANIFEST_SUFFIX} path")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: malformed manifest: {exc}") from exc
    rows, dim, dtype, ids = _check_manifest(manifest_path, manifest)
    bin_path = manifest_path.with_name(manifest_path.name[: -len(_MANIFEST_SUFFIX)] + ".bin")
    data = np.fromfile(bin_path, dtype=_DTYPES[dtype])
    if data.size != rows * dim:
        raise ValueError(f"{bin_path}: expected {rows * dim} values, found {data.size}")
    data = data.reshape(rows, dim)
    _check_rows(bin_path, ids, data)
    return ids, data.astype(np.float64, copy=False)

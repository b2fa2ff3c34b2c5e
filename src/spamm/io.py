"""Matrix file I/O.

Text matrices travel as MatrixMarket files (array or coordinate, real,
general or symmetric); anything else in the header is rejected before the
body is parsed.  Trees travel in a flat binary dump: an 8 byte magic, five
little-endian u64 header words (m, n, n_b, depth, leaf count), then one
record per leaf in ascending key order holding the u64 key and the n_b*n_b
float32 values row-major.  Norms are not stored; they are exactly
reproducible from the leaves and get rebuilt on load.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.io
import scipy.sparse

from .core import DenseMatrix, QuadtreeMatrix, tree_depth

__all__ = [
    "MatrixFormatError",
    "load_matrix",
    "save_matrix",
    "load_quadtree",
    "save_quadtree",
    "QUADTREE_MAGIC",
]

QUADTREE_MAGIC = b"SPAMMQT1"

_HEADER = struct.Struct("<5Q")

# numpy holds a dtype of at most this many bytes, so a leaf record (u64 key
# plus n_b*n_b float32) must fit it.
_RECORD_LIMIT = np.iinfo(np.intc).max


class MatrixFormatError(Exception):
    """A matrix file exists but its contents are not usable."""


def _check_mm_header(line: str, path) -> None:
    parts = line.split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
        raise MatrixFormatError(f"{path}: not a MatrixMarket matrix header: {line.strip()!r}")
    layout, field, symmetry = (p.lower() for p in parts[2:])
    if layout not in ("array", "coordinate"):
        raise MatrixFormatError(f"{path}: unsupported layout {layout!r}")
    if field != "real":
        raise MatrixFormatError(f"{path}: unsupported field {field!r}, only real matrices")
    if symmetry not in ("general", "symmetric"):
        raise MatrixFormatError(f"{path}: unsupported symmetry {symmetry!r}")


def load_matrix(path) -> DenseMatrix:
    """Read a MatrixMarket file into a dense double-precision matrix.

    Symmetric files are expanded to full storage.  Header or body problems
    raise MatrixFormatError; missing files raise the usual OSError.
    """
    with open(path, "rb") as fh:
        head = fh.readline().decode("latin1")
        _check_mm_header(head, path)
        fh.seek(0)
        try:
            mat = scipy.io.mmread(fh)
        except (ValueError, TypeError) as exc:
            raise MatrixFormatError(f"{path}: malformed MatrixMarket body: {exc}") from exc
    if scipy.sparse.issparse(mat):
        mat = mat.toarray()
    mat = np.asarray(mat, np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise MatrixFormatError(f"{path}: expected a nonempty 2-d matrix")
    if not np.isfinite(mat).all():
        raise MatrixFormatError(f"{path}: matrix contains non-finite values")
    return DenseMatrix(mat)


def save_matrix(path, mat: DenseMatrix, layout: str = "array", symmetry=None) -> None:
    """Write a matrix as MatrixMarket with full round-trip precision.

    layout "array" stores every element, "coordinate" only the nonzeros.
    symmetry None lets the writer detect it; "general" or "symmetric"
    force the tag, and forcing "symmetric" on an asymmetric matrix is an
    error rather than silent truncation to the lower triangle.
    """
    if layout not in ("array", "coordinate"):
        raise ValueError(f"unsupported layout {layout!r}")
    if symmetry not in (None, "general", "symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    data = mat.data
    if symmetry == "symmetric":
        if mat.m != mat.n or not np.array_equal(data, data.T):
            raise ValueError("matrix is not symmetric")
    out = scipy.sparse.coo_matrix(data) if layout == "coordinate" else data
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, out, field="real", precision=17, symmetry=symmetry)


def _record_dtype(n_b: int) -> np.dtype:
    """One leaf record: u64 key, then n_b*n_b float32 values row-major."""
    return np.dtype([("key", "<u8"), ("values", "<f4", (n_b, n_b))])


def save_quadtree(path, tree: QuadtreeMatrix) -> None:
    """Write the binary leaf dump for `tree`."""
    records = np.empty(tree.leaf_count, _record_dtype(tree.n_b))
    records["key"] = tree.keys
    records["values"] = tree.values
    with open(path, "wb") as fh:
        fh.write(QUADTREE_MAGIC)
        fh.write(_HEADER.pack(tree.m, tree.n, tree.n_b, tree.depth, tree.leaf_count))
        fh.write(records.tobytes())


def load_quadtree(path) -> QuadtreeMatrix:
    """Read a binary leaf dump back into a tree, rebuilding all norms.

    The header and size are checked here and the leaves once, by
    from_leaves; every fault raises MatrixFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(QUADTREE_MAGIC) + _HEADER.size:
        raise MatrixFormatError(f"{path}: truncated header")
    if raw[: len(QUADTREE_MAGIC)] != QUADTREE_MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {raw[:8]!r}")
    m, n, n_b, depth, count = _HEADER.unpack_from(raw, len(QUADTREE_MAGIC))
    try:
        actual = tree_depth(m, n, n_b)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: bad header: {exc}") from exc
    if actual != depth:
        raise MatrixFormatError(
            f"{path}: header depth {depth} does not match {actual} "
            f"for a {m}x{n} matrix at block size {n_b}"
        )
    if 8 + 4 * n_b * n_b > _RECORD_LIMIT:
        raise MatrixFormatError(
            f"{path}: bad header: block size {n_b} is too large for a leaf record"
        )
    body = len(QUADTREE_MAGIC) + _HEADER.size
    rec = _record_dtype(n_b)
    if len(raw) != body + count * rec.itemsize:
        raise MatrixFormatError(
            f"{path}: expected {count} leaf records "
            f"({body + count * rec.itemsize} bytes), file has {len(raw)}"
        )
    records = np.frombuffer(raw, rec, count, body)
    try:
        return QuadtreeMatrix.from_leaves(m, n, records["key"], records["values"], n_b)
    except (ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc

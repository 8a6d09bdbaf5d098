"""Binary persistence of basis pairs and their interpolation operators.

Basis container ("MOR2BAS"):
    magic 7s | version u16 |
    Vl rows u32, cols u32, f64 column-major |
    Wr rows u32, cols u32, f64 column-major |
    singvals_l f64 x cols(Vl) | singvals_r f64 x cols(Wr) |
    tau f64 | kappa u32 | n_max u32 |
    optional interpolation trailer:
        p1 u32 | p2 u32 | row_idx u32 x p1 | col_idx u32 x p2 |
        (Pl^T Vl) f64 column-major | (Wr^T Pr) f64 column-major
        with p1 = cols(Vl), p2 = cols(Wr), distinct row (column)
        indices below rows(Vl) (rows(Wr)), and the two matrices equal,
        bit for bit, to the rows of Vl and Wr at those indices

Everything is little-endian.
"""

import os
import struct

import numpy as np

from .deim import deim_operator
from .errors import IntegrityError
from .pod import BasisPair

BASIS_MAGIC = b"MOR2BAS"
VERSION = 1


def _matrix_bytes(M):
    return np.asarray(M, dtype="<f8").tobytes(order="F")


def _read(fh, n, what):
    """n bytes.  A size taken from a header is checked against the bytes
    left in the file before anything is read or allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise IntegrityError(f"truncated file while reading {what}: {n} bytes "
                             f"claimed, {left} left")
    return fh.read(n)


def _read_matrix(fh, rows, cols, what):
    data = _read(fh, 8 * rows * cols, what)
    return np.frombuffer(data, dtype="<f8").reshape(rows, cols, order="F").copy()


def _read_indices(fh, count, size, what):
    """count distinct interpolation indices below size."""
    idx = np.frombuffer(_read(fh, 4 * count, f"{what} indices"), dtype="<u4").astype(np.intp)
    if np.any(idx >= size) or len(np.unique(idx)) != count:
        raise IntegrityError(f"{what} indices are out of range [0, {size}) or repeated")
    return idx


def write_basis(path, basis, op=None):
    """Serialize a BasisPair, optionally with its interpolation operator."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<7sH", BASIS_MAGIC, VERSION))
        for M in (basis.Vl, basis.Wr):
            fh.write(struct.pack("<II", M.shape[0], M.shape[1]))
            fh.write(_matrix_bytes(M))
        fh.write(np.asarray(basis.singvals_l, dtype="<f8").tobytes())
        fh.write(np.asarray(basis.singvals_r, dtype="<f8").tobytes())
        fh.write(struct.pack("<dII", float(basis.tau), basis.kappa, basis.n_max))
        if op is not None:
            fh.write(struct.pack("<II", op.p1, op.p2))
            fh.write(np.asarray(op.row_idx, dtype="<u4").tobytes())
            fh.write(np.asarray(op.col_idx, dtype="<u4").tobytes())
            fh.write(_matrix_bytes(op.left_factor))
            fh.write(_matrix_bytes(op.right_factor))


def read_basis(path):
    """Load a BasisPair and, when present, its interpolation operator.

    The symmetric mark is not stored, so the loaded pair is unmarked; the
    stored trailer carries the interpolation points.  A trailer whose
    point counts differ from the basis widths, whose indices are out of
    range or repeated, or whose stored Pl^T Vl or Wr^T Pr differs from the
    rows of the stored basis, is an IntegrityError; so is an empty Vl or Wr.
    """
    with open(path, "rb") as fh:
        header = _read(fh, struct.calcsize("<7sH"), "basis header")
        magic, version = struct.unpack("<7sH", header)
        if magic != BASIS_MAGIC:
            raise IntegrityError("not a basis container (bad magic)")
        if version != VERSION:
            raise IntegrityError(f"unsupported basis container version {version}")
        mats = []
        for what in ("Vl", "Wr"):
            rows, cols = struct.unpack("<II", _read(fh, 8, f"{what} shape"))
            if rows == 0 or cols == 0:
                raise IntegrityError(f"empty {what}: {rows} x {cols}")
            mats.append(_read_matrix(fh, rows, cols, what))
        Vl, Wr = mats
        sl = np.frombuffer(_read(fh, 8 * Vl.shape[1], "left weights"), dtype="<f8").copy()
        sr = np.frombuffer(_read(fh, 8 * Wr.shape[1], "right weights"), dtype="<f8").copy()
        tau, kappa, n_max = struct.unpack("<dII", _read(fh, 16, "basis parameters"))

        op = None
        trailer = fh.read(8)
        if trailer:
            if len(trailer) != 8:
                raise IntegrityError("truncated interpolation trailer")
            p1, p2 = struct.unpack("<II", trailer)
            if (p1, p2) != (Vl.shape[1], Wr.shape[1]):
                raise IntegrityError(
                    f"interpolation trailer has {p1} x {p2} points for bases of "
                    f"width {Vl.shape[1]} and {Wr.shape[1]}"
                )
            row_idx = _read_indices(fh, p1, Vl.shape[0], "row")
            col_idx = _read_indices(fh, p2, Wr.shape[0], "column")
            left = _read_matrix(fh, p1, p1, "row selection matrix")
            right = _read_matrix(fh, p2, p2, "column selection matrix")
            if fh.read(1):
                raise IntegrityError("trailing bytes after the interpolation trailer")
            if not (np.array_equal(left, Vl[row_idx, :])
                    and np.array_equal(right, Wr[col_idx, :].T)):
                raise IntegrityError("interpolation selection matrices differ from "
                                     "the basis rows at their indices")
            op = deim_operator(Vl, Wr, row_idx, col_idx)
    return BasisPair(Vl, Wr, sl, sr, tau, n_max, kappa), op

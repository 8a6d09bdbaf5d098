import struct
import tracemalloc

import numpy as np
import pytest

import oracles
from mor2 import deim, persist, pod
from mor2.errors import IntegrityError


def sample_basis(rng, n=7, m=6, k1=3, k2=2, symmetric=False):
    V = oracles.random_orthonormal(rng, n, k1)
    if symmetric:
        return pod.BasisPair(V, V.copy(), np.arange(k1, 0, -1.0),
                             np.arange(k1, 0, -1.0), 1e-3, 8, 20, symmetric=True)
    W = oracles.random_orthonormal(rng, m, k2)
    return pod.BasisPair(V, W, np.arange(k1, 0, -1.0), np.arange(k2, 0, -1.0),
                         1e-4, 12, 30)


# --------------------------------------------------------------------- bases

def test_basis_round_trip_without_operator(tmp_path):
    rng = np.random.default_rng(157)
    basis = sample_basis(rng)
    path = tmp_path / "basis.bin"
    persist.write_basis(path, basis)
    back, op = persist.read_basis(path)
    assert op is None
    assert np.array_equal(back.Vl, basis.Vl)
    assert np.array_equal(back.Wr, basis.Wr)
    assert np.array_equal(back.singvals_l, basis.singvals_l)
    assert np.array_equal(back.singvals_r, basis.singvals_r)
    assert back.tau == basis.tau
    assert back.kappa == basis.kappa
    assert back.n_max == basis.n_max
    assert back.symmetric is False


def test_basis_round_trip_with_operator(tmp_path):
    rng = np.random.default_rng(158)
    basis = sample_basis(rng, n=9, m=8, k1=4, k2=3)
    op = deim.build_deim(basis)
    path = tmp_path / "basis.bin"
    persist.write_basis(path, basis, op)
    back, bop = persist.read_basis(path)
    assert np.array_equal(bop.row_idx, op.row_idx)
    assert np.array_equal(bop.col_idx, op.col_idx)
    assert np.array_equal(bop.left_factor, op.left_factor)
    assert np.array_equal(bop.right_factor, op.right_factor)
    assert np.isclose(bop.c_l, op.c_l) and np.isclose(bop.c_r, op.c_r)
    # the factorization is rebuilt on load and must act identically
    F = rng.standard_normal((9, 8))
    assert np.allclose(deim.deim_approximate(bop, back, F),
                       deim.deim_approximate(op, basis, F), atol=1e-13)
    assert back.symmetric is False


def test_basis_symmetric_mark_is_not_stored(tmp_path):
    rng = np.random.default_rng(159)
    basis = sample_basis(rng, n=8, k1=3, symmetric=True)
    op = deim.build_deim(basis)
    assert np.array_equal(op.row_idx, op.col_idx)
    path = tmp_path / "basis.bin"
    persist.write_basis(path, basis, op)
    back, bop = persist.read_basis(path)
    # equal index sets do not mark the loaded pair; the trailer keeps the points
    assert back.symmetric is False
    assert np.array_equal(bop.row_idx, op.row_idx) and np.array_equal(bop.col_idx, op.col_idx)
    bare = tmp_path / "bare.bin"
    persist.write_basis(bare, basis)
    back2, _ = persist.read_basis(bare)
    assert back2.symmetric is False


def test_basis_rewrite_is_bit_identical(tmp_path):
    rng = np.random.default_rng(160)
    basis = sample_basis(rng)
    op = deim.build_deim(basis)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    persist.write_basis(p1, basis, op)
    back, bop = persist.read_basis(p1)
    persist.write_basis(p2, back, bop)
    assert p1.read_bytes() == p2.read_bytes()


def test_basis_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"MOR2XYZ" + b"\x01\x00" + b"\x00" * 16)
    with pytest.raises(IntegrityError):
        persist.read_basis(path)


@pytest.mark.parametrize("shapes", [((7, 0), (6, 0)), ((0, 3), (6, 2)), ((7, 3), (0, 2))])
def test_basis_read_rejects_an_empty_basis(tmp_path, shapes):
    (n, k1), (m, k2) = shapes
    basis = pod.BasisPair(np.zeros((n, k1)), np.zeros((m, k2)), np.ones(k1), np.ones(k2),
                          1e-3, 8, 20)
    path = tmp_path / "x.bin"
    persist.write_basis(path, basis)
    with pytest.raises(IntegrityError, match="empty"):
        persist.read_basis(path)


def test_basis_read_rejects_bad_version(tmp_path):
    rng = np.random.default_rng(161)
    path = tmp_path / "x.bin"
    persist.write_basis(path, sample_basis(rng))
    raw = bytearray(path.read_bytes())
    raw[7:9] = (7).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        persist.read_basis(path)


def test_basis_read_rejects_truncated_trailer(tmp_path):
    rng = np.random.default_rng(162)
    basis = sample_basis(rng)
    op = deim.build_deim(basis)
    path = tmp_path / "x.bin"
    persist.write_basis(path, basis, op)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(IntegrityError):
        persist.read_basis(path)


def test_basis_read_rejects_trailing_bytes_after_trailer(tmp_path):
    rng = np.random.default_rng(163)
    basis = sample_basis(rng)
    op = deim.build_deim(basis)
    path = tmp_path / "x.bin"
    persist.write_basis(path, basis, op)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IntegrityError):
        persist.read_basis(path)


def _trailer_offset(basis):
    """Byte offset of the first row index of a written basis file."""
    (n, k1), (m, k2) = basis.Vl.shape, basis.Wr.shape
    return 9 + 8 + 8 * n * k1 + 8 + 8 * m * k2 + 8 * (k1 + k2) + 16 + 8


@pytest.mark.parametrize("field, value", [
    ("row", 10**6),     # out of range
    ("row", 8),         # one past the last row of Vl
    ("col", None),      # a repeated column index
    ("p1", 5),          # more points than basis columns
    ("left", 1.5),      # one entry of the stored Pl^T Vl scaled
])
def test_basis_read_rejects_bad_interpolation_trailer(tmp_path, field, value):
    rng = np.random.default_rng(164)
    basis = sample_basis(rng, n=8, m=7, k1=4, k2=3)
    op = deim.build_deim(basis)
    path = tmp_path / "x.bin"
    persist.write_basis(path, basis, op)
    raw = bytearray(path.read_bytes())
    at = _trailer_offset(basis)
    if field == "row":
        raw[at:at + 4] = value.to_bytes(4, "little")
    elif field == "col":
        first_col = at + 4 * op.p1
        raw[first_col + 4:first_col + 8] = raw[first_col:first_col + 4]
    elif field == "left":
        left = at + 4 * (op.p1 + op.p2)
        entry = value * np.frombuffer(raw[left:left + 8], dtype="<f8")
        raw[left:left + 8] = entry.astype("<f8").tobytes()
    else:
        raw[at - 8:at - 4] = value.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        persist.read_basis(path)


# ------------------------------------------------- sizes claimed by a header

def _basis_header(rows, cols):
    return struct.pack("<7sHII", persist.BASIS_MAGIC, persist.VERSION, rows, cols)


@pytest.mark.parametrize("rows, cols", [
    (2**32 - 1, 2**32 - 1),     # 8 rows cols bytes overflow a C ssize_t
    (40000, 40000),             # 12.8 GB, more than the address space may hold
])
@pytest.mark.parametrize("header, read", [(_basis_header, persist.read_basis)])
def test_oversized_header_is_a_format_error_without_allocating(tmp_path, rows, cols,
                                                               header, read):
    path = tmp_path / "x.bin"
    path.write_bytes(header(rows, cols) + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(IntegrityError, match="claimed"):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20

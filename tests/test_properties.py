"""Property tests (hypothesis) for the folded maps, the range finder, the
column pivots, phi1 and the binary containers.  Examples are bounded and
derandomized, so a run is repeatable and stays a few seconds long."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from mor2 import deim, kernels, persist, pod
from mor2.errors import FormatError
from mor2.fullsolve import Trajectory


def bounded(max_examples):
    return settings(max_examples=max_examples, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------ FoldedMatrix

@st.composite
def centrosymmetric(draw):
    """S + J S J for a random symmetric S of even size."""
    n = 2 * draw(st.integers(1, 8))
    M = draw(arrays(np.float64, (n, n), elements=st.floats(-4, 4, width=64)))
    S = M + M.T
    return S + S[::-1, ::-1]


@bounded(60)
@given(C=centrosymmetric(), seed=st.integers(0, 2**32 - 1), cols=st.integers(1, 5))
def test_folded_products_match_the_dense_matrix(C, seed, cols):
    pair = kernels._eig_folded(C)
    assert isinstance(pair.vectors, kernels.FoldedMatrix)
    X = np.random.default_rng(seed).standard_normal((len(C), cols))
    for Q in (pair.vectors, pair.inverse, pair.vectors.T, pair.inverse.T):
        dense = np.asarray(Q)
        scale = np.linalg.norm(dense) * np.linalg.norm(X)
        assert np.linalg.norm(Q @ X - dense @ X) <= 1e-13 * scale
        assert np.linalg.norm(X.T @ Q - X.T @ dense) <= 1e-13 * scale
    # and the blocks decompose C itself
    back = np.asarray(pair.vectors) @ (pair.values[:, None] * np.asarray(pair.inverse))
    assert np.linalg.norm(back - C) <= 1e-12 * max(np.linalg.norm(C), 1.0)


# ---------------------------------------------------------- the range finder

@st.composite
def low_rank_plus_noise(draw):
    """m x n above DENSE_SVD_MAX: a rank-k part with decaying singular values
    plus Gaussian noise from none to well above the certification level."""
    m = draw(st.integers(kernels.DENSE_SVD_MAX + 1, kernels.DENSE_SVD_MAX + 40))
    n = draw(st.integers(kernels.DENSE_SVD_MAX + 1, kernels.DENSE_SVD_MAX + 40))
    k = draw(st.integers(1, 24))
    decay = draw(st.floats(0.0, 12.0))
    noise = draw(st.sampled_from([0.0, 1e-19, 1e-17, 1e-15, 1e-12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = oracles.random_orthonormal(rng, m, k)
    V = oracles.random_orthonormal(rng, n, k)
    return (U * np.logspace(0, -decay, k)) @ V.T + noise * rng.standard_normal((m, n))


def _within_tail(M, trip):
    """sigma_{k+1}(M) <= tail and ||M - U S V^T||_2 <= tail, up to rounding."""
    s = np.linalg.svd(M, compute_uv=False)
    k = len(trip.S)
    slack = 1e-14 * s[0]
    assert (s[k] if k < len(s) else 0.0) <= trip.tail + slack
    assert np.linalg.norm(M - trip.dense(), 2) <= trip.tail + slack
    assert np.all(np.diff(trip.S) <= 0.0)


@bounded(8)
@given(M=low_rank_plus_noise(), r=st.integers(1, 40))
def test_truncated_svd_tail_bounds_what_it_leaves_out(M, r):
    _within_tail(M, kernels.truncated_svd(M, r))


@bounded(8)
@given(M=low_rank_plus_noise(), drop=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_compress_cold_and_warm_stay_within_the_tail(M, drop, seed):
    cold = kernels.compress(M)
    if cold is None:        # not certified within min(m, n) / 4 columns
        return
    _within_tail(M, cold)
    assert np.all(cold.S >= kernels.NEGLIGIBLE_REL * cold.S[0])
    # warm: the row space of a nearby matrix, missing a few directions
    rng = np.random.default_rng(seed)
    near = M + 1e-6 * np.linalg.norm(M, 2) * np.outer(rng.standard_normal(M.shape[0]),
                                                       rng.standard_normal(M.shape[1]))
    start = kernels.compress(near)
    if start is not None:
        warm = kernels.compress(M, start.V[:, drop:])
        assert warm is not None
        _within_tail(M, warm)


@st.composite
def exact_low_rank(draw):
    """n x n, n from 300 to 600, of rank 1 to 20, singular values in [1e-3, 1]."""
    n = draw(st.integers(300, 600))
    k = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.sort(10.0 ** rng.uniform(-3.0, 0.0, k))[::-1]
    return (oracles.random_orthonormal(rng, n, k) * s) @ oracles.random_orthonormal(rng, n, k).T


@bounded(8)
@given(M=exact_low_rank(), seed=st.integers(0, 2**32 - 1))
def test_warm_compress_is_orthonormal_within_the_tail_at_the_cold_rank(M, seed):
    cold = kernels.compress(M)
    rng = np.random.default_rng(seed)
    x, y = (v / np.linalg.norm(v) for v in rng.standard_normal((2, len(M))))
    start = kernels.compress(M + 1e-6 * np.linalg.norm(M, 2) * np.outer(x, y)).V
    with mock.patch.object(kernels, "_range_svd", wraps=kernels._range_svd) as passes:
        warm = kernels.compress(M, start)
    assert passes.call_count == 1       # the warm pass certified it: no cold blocks
    k = len(warm.S)
    assert k == len(cold.S)
    assert np.allclose(warm.U.T @ warm.U, np.eye(k), rtol=0.0, atol=1e-12)
    assert np.allclose(warm.V.T @ warm.V, np.eye(k), rtol=0.0, atol=1e-12)
    _within_tail(M, warm)


# ------------------------------------------------------------- column pivots

@st.composite
def gaussian_wide(draw):
    """A p x n Gaussian matrix, p <= 8 and n >= p + 2."""
    p = draw(st.integers(1, 8))
    n = draw(st.integers(p + 2, 40))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((p, n))


@bounded(100)
@given(Bt=gaussian_wide())
def test_pivoted_qr_matches_the_greedy_oracle(Bt):
    assert np.array_equal(kernels.pivoted_qr_indices(Bt), oracles.greedy_pivot_oracle(Bt))


# ----------------------------------------------------------------------- phi1
#
# Tolerances, fixed before the first run: 1e-14 relative (about 45 ulp) for
# the complex branch against the real one on real z, and for each side of
# the complex branch's series switch at |z / 2| = 1e-4 against the Taylor
# sum of phi1, so the jump across the switch is at most 2e-14.

def _phi1_taylor(z):
    """sum_k z^k / (k + 1)!, to k = 8: below 1e-30 left out for |z| <= 1e-3."""
    term, total = 1.0 + 0j, 0j
    for k in range(9):
        total += term
        term *= z / (k + 2)
    return total


@bounded(200)
@given(x=st.one_of(st.floats(-1e5, 700.0), st.floats(-1e-3, 1e-3)))
def test_phi1_complex_branch_agrees_with_the_real_one_on_real_z(x):
    real = kernels.phi1(np.array([x]))[0]
    cplx = kernels.phi1(np.array([complex(x)]))[0]
    assert np.isfinite(real) and np.isfinite(cplx)
    assert abs(cplx - real) <= 1e-14 * abs(real)


@bounded(200)
@given(angle=st.floats(0.0, 2.0 * np.pi),
       radius=st.one_of(st.floats(0.5, 2.0), st.sampled_from([1 - 2.0**-40, 1.0, 1 + 2.0**-40])))
def test_phi1_complex_branch_is_continuous_across_its_series_switch(angle, radius):
    z = 2e-4 * radius * np.exp(1j * angle)
    want = _phi1_taylor(z)
    assert abs(kernels.phi1(np.array([z]))[0] - want) <= 1e-14 * abs(want)


# ---------------------------------------------------------------- persistence

@st.composite
def snapshot_streams(draw):
    rows, cols, count = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.cumsum(rng.uniform(0.1, 1.0, count))
    kind = draw(st.sampled_from(["state", "nonlinearity", "reduced-state"]))
    return Trajectory(times, [rng.standard_normal((rows, cols)) for _ in range(count)], kind)


@st.composite
def bases(draw):
    n, m = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    k1, k2 = draw(st.integers(1, n)), draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = [np.sort(rng.uniform(0.1, 2.0, k))[::-1] for k in (k1, k2)]
    basis = pod.BasisPair(oracles.random_orthonormal(rng, n, k1),
                          oracles.random_orthonormal(rng, m, k2), *weights, 1e-3, 8, 20)
    return basis, deim.build_deim(basis) if draw(st.booleans()) else None


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file.bin"


@bounded(40)
@given(stream=snapshot_streams(), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_snapshot_round_trip_and_truncation(scratch, stream, cut):
    persist.write_snapshots(scratch, stream)
    raw = scratch.read_bytes()
    back = persist.read_snapshots(scratch)
    assert back.kind == stream.kind and np.array_equal(back.times, stream.times)
    assert all(np.array_equal(a, b) for a, b in zip(back.states, stream.states))
    scratch.write_bytes(raw[:int(cut * len(raw))])
    with pytest.raises(FormatError):
        persist.read_snapshots(scratch)


@bounded(40)
@given(case=bases(), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_basis_round_trip_and_truncation(scratch, case, cut):
    basis, op = case
    persist.write_basis(scratch, basis, op)
    raw = scratch.read_bytes()
    back, bop = persist.read_basis(scratch)
    for a, b in ((back.Vl, basis.Vl), (back.Wr, basis.Wr),
                 (back.singvals_l, basis.singvals_l), (back.singvals_r, basis.singvals_r)):
        assert np.array_equal(a, b)
    assert (bop is None) == (op is None)
    if op is not None:
        assert np.array_equal(bop.row_idx, op.row_idx) and np.array_equal(bop.col_idx, op.col_idx)
    kept = int(cut * len(raw))
    scratch.write_bytes(raw[:kept])
    # a file cut exactly where the interpolation trailer starts is a valid bare basis
    bare = 9 + 16 + 8 * (basis.Vl.size + basis.Wr.size + basis.nu_l + basis.nu_r) + 16
    if op is not None and kept == bare:
        assert persist.read_basis(scratch)[1] is None
    else:
        with pytest.raises(FormatError):
            persist.read_basis(scratch)

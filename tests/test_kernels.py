import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from conftest import full_step, make_spec
from mor2 import kernels, problems
from mor2.errors import DimensionError, InputError, RankError, SingularityError


# ---------------------------------------------------------------- truncated_svd

def test_truncated_svd_identity():
    trip = kernels.truncated_svd(np.eye(3), 2)
    assert np.allclose(trip.S, [1.0, 1.0])
    assert np.allclose(trip.U.T @ trip.U, np.eye(2), atol=1e-13)
    assert np.allclose(trip.V.T @ trip.V, np.eye(2), atol=1e-13)


def test_truncated_svd_diagonal():
    trip = kernels.truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(trip.S, [3.0, 2.0])
    # singular vectors of a diagonal matrix are coordinate axes
    assert np.allclose(np.abs(trip.U), np.eye(3)[:, :2], atol=1e-13)
    assert np.allclose(np.abs(trip.V), np.eye(3)[:, :2], atol=1e-13)


def test_truncated_svd_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    for m, n in [(8, 5), (5, 8), (10, 10), (12, 7)]:
        M = rng.standard_normal((m, n))
        r = min(m, n) - 2
        trip = kernels.truncated_svd(M, r)
        _, s_ref, _ = oracles.jacobi_svd(M)
        assert np.allclose(trip.S, s_ref[:r], atol=1e-10 * s_ref[0])
        assert np.allclose(
            trip.U * trip.S @ trip.V.T,
            M @ trip.V @ trip.V.T,
            atol=1e-9 * s_ref[0],
        )


def test_truncated_svd_best_rank_r():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((9, 6))
    _, s_ref, _ = oracles.jacobi_svd(M)
    for r in (1, 3, 5):
        trip = kernels.truncated_svd(M, r)
        resid = M - (trip.U * trip.S) @ trip.V.T
        assert np.linalg.norm(resid, 2) <= s_ref[r] + 1e-8 * s_ref[0]


def test_truncated_svd_errors():
    with pytest.raises(DimensionError):
        kernels.truncated_svd(np.ones(4), 1)
    with pytest.raises(DimensionError):
        kernels.truncated_svd(np.eye(3), 0)
    with pytest.raises(DimensionError):
        kernels.truncated_svd(np.eye(3), 4)
    with pytest.raises(DimensionError):
        kernels.compress(np.ones(4))
    bad = np.eye(3)
    bad[1, 1] = np.nan
    with pytest.raises(InputError):
        kernels.truncated_svd(bad, 1)


def test_truncated_svd_randomized_agrees_with_dense():
    # above DENSE_SVD_MAX a clean low-rank spectrum takes the range finder
    rng = np.random.default_rng(13)
    U = oracles.random_orthonormal(rng, 300, 8)
    V = oracles.random_orthonormal(rng, 280, 8)
    s = 2.0 ** -np.arange(8)
    M = (U * s) @ V.T
    Ud, sd, _ = np.linalg.svd(M, full_matrices=False)
    rand = kernels.truncated_svd(M, 5)
    assert np.allclose(rand.S, sd[:5], atol=1e-8)
    Pd = Ud[:, :5] @ Ud[:, :5].T
    Pl = rand.U @ rand.U.T
    assert np.linalg.norm(Pd - Pl) < 1e-6
    assert sd[5] <= rand.tail <= sd[5] + 1e-14


def _low_rank(rng, m, n, rank):
    U = oracles.random_orthonormal(rng, m, rank)
    V = oracles.random_orthonormal(rng, n, rank)
    return (U * np.logspace(0, -9, rank)) @ V.T


def test_randomized_svd_low_rank_matches_dense():
    rng = np.random.default_rng(14)
    M = _low_rank(rng, 400, 300, 12)
    s_ref = np.linalg.svd(M, compute_uv=False)
    trip = kernels.truncated_svd(M, 51)
    assert len(trip.S) == kernels.RANGE_BLOCK      # certified at the first block
    assert np.max(np.abs(trip.S - s_ref[:len(trip.S)])) <= 1e-13 * s_ref[0]
    assert np.allclose(trip.U.T @ trip.U, np.eye(len(trip.S)), atol=1e-13)
    assert np.allclose(trip.V.T @ trip.V, np.eye(len(trip.S)), atol=1e-13)
    assert np.linalg.norm(M - (trip.U * trip.S) @ trip.V.T) <= 1e-13 * s_ref[0]
    # the tail bounds the first singular value not returned, below the negligible level
    assert s_ref[len(trip.S)] <= trip.tail <= kernels.NEGLIGIBLE_REL * s_ref[0]


def test_randomized_svd_is_deterministic():
    M = _low_rank(np.random.default_rng(15), 300, 260, 6)
    a, b = kernels.truncated_svd(M, 10), kernels.truncated_svd(M, 10)
    assert len(a.S) == 10
    for x, y in ((a.U, b.U), (a.S, b.S), (a.V, b.V)):
        assert np.array_equal(x, y)
    assert a.tail == b.tail


def _record_blocks(monkeypatch):
    blocks = []
    finder = kernels._range_svd

    def recording(M, r, omega, start=None):
        blocks.append(omega.shape[1])
        return finder(M, r, omega, start)

    monkeypatch.setattr(kernels, "_range_svd", recording)
    return blocks


def test_randomized_svd_power_iteration_certifies_first_block(monkeypatch):
    # sigma_i = 10^(-i/2.2): sigma_33 ~ 3e-15 sigma_1, so a 32-column sketch
    # is certified only after its power iteration (without it the residual
    # is 1.7-3x the bound here; with it, 0.3x)
    rng = np.random.default_rng(17)
    U = oracles.random_orthonormal(rng, 300, 80)
    V = oracles.random_orthonormal(rng, 280, 80)
    s = 10.0 ** (-np.arange(80) / 2.2)
    M = (U * s) @ V.T
    blocks = _record_blocks(monkeypatch)
    trip = kernels.truncated_svd(M, 51)
    assert blocks == [32]
    s_ref = np.linalg.svd(M, compute_uv=False)
    assert np.max(np.abs(trip.S - s_ref[:32])) <= 1e-13 * s_ref[0]
    assert s_ref[32] <= trip.tail <= kernels.NEGLIGIBLE_REL * s_ref[0]


def test_randomized_svd_full_rank_falls_back_to_dense(monkeypatch):
    M = np.random.default_rng(16).standard_normal((300, 280))
    blocks = _record_blocks(monkeypatch)
    trip = kernels.truncated_svd(M, 10)
    assert blocks == [32, 64]       # 128 would exceed min(m, n) / 4 = 70
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    assert np.array_equal(trip.U, U[:, :10])
    assert np.array_equal(trip.S, s[:10])
    assert np.array_equal(trip.V, Vh[:10].T)
    assert trip.tail == s[10]


def test_dense_svd_tail_is_the_next_singular_value():
    trip = kernels.truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert trip.tail == 1.0
    assert kernels.truncated_svd(np.diag([3.0, 2.0, 1.0]), 3).tail == 0.0


def test_range_finder_residual_norm_by_row_blocks():
    # 300 rows: nine full blocks and a partial one; a 20-column sketch of a
    # rank-40 matrix leaves a residual well above rounding
    rng = np.random.default_rng(18)
    M = _low_rank(rng, 300, 260, 40)
    assert min(M.shape) > kernels.DENSE_SVD_MAX
    Q = np.linalg.qr(M @ rng.standard_normal((260, 20)))[0]
    B = Q.T @ M
    want = np.linalg.norm(Q @ B - M)
    assert want > 1e-6
    assert np.isclose(kernels._residual_norm(M, Q, B), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compress_refuses_a_non_finite_matrix_cold_and_warm(bad):
    rng = np.random.default_rng(19)
    M = _low_rank(rng, 300, 280, 6)
    start = kernels.compress(M).V
    M[123, 45] = bad
    assert kernels.compress(M) is None
    assert kernels.compress(M, start) is None


def test_warm_pass_columns_are_drawn_once_per_row_count(monkeypatch):
    n, extra = 280, kernels.RANGE_BLOCK // 4
    M = _low_rank(np.random.default_rng(20), 300, n, 6)
    start = kernels.compress(M).V
    blocks = _record_blocks(monkeypatch)
    a = kernels.compress(M, start)
    omega = kernels._WARM_OMEGA[n]
    fresh = np.random.default_rng(kernels._RANGE_SEED).standard_normal((n, extra))
    assert np.array_equal(omega, fresh)
    assert not omega.flags.writeable
    b = kernels.compress(M, start)
    assert kernels._WARM_OMEGA[n] is omega
    assert blocks == [extra, extra]     # both certified by the warm pass
    for x, y in ((a.U, b.U), (a.S, b.S), (a.V, b.V)):
        assert np.array_equal(x, y)
    assert a.tail == b.tail


# ---------------------------------------------------------- pivoted_qr_indices

def test_pivoted_qr_unit_rows():
    Bt = np.zeros((2, 6))
    Bt[0, 1] = 1.0
    Bt[1, 4] = 1.0
    assert list(kernels.pivoted_qr_indices(Bt)) == [1, 4]


def test_pivoted_qr_tie_takes_lowest_index():
    assert list(kernels.pivoted_qr_indices(np.ones((1, 5)))) == [0]


def test_pivoted_qr_tie_at_a_later_pivot_takes_lowest_index():
    # columns 1 and 2 tie only after column 0 has been deflated
    Bt = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    assert list(kernels.pivoted_qr_indices(Bt)) == [0, 1]


def test_pivoted_qr_matches_greedy_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(p + 2, 20))
        Q = oracles.random_orthonormal(rng, n, p)
        Bt = (Q * (1.0 + rng.random(p))).T
        idx = kernels.pivoted_qr_indices(Bt)
        assert np.array_equal(idx, oracles.greedy_pivot_oracle(Bt))


def test_pivoted_qr_rank_deficient():
    Bt = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(RankError):
        kernels.pivoted_qr_indices(Bt)


def test_pivoted_qr_shape_error():
    with pytest.raises(DimensionError):
        kernels.pivoted_qr_indices(np.ones((4, 2)))


def test_pivoted_qr_refuses_non_finite_input():
    Bt = np.eye(2, 4)
    Bt[1, 3] = np.nan
    with pytest.raises(InputError):
        kernels.pivoted_qr_indices(Bt)


# ----------------------------------------------------------------- eigensolvers

def test_eig_pair_symmetric_sorted_ascending():
    pair = kernels.eig_pair(np.diag([2.0, -1.0]))
    assert np.allclose(pair.values, [-1.0, 2.0])
    assert np.allclose(np.abs(pair.vectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-13)
    assert np.array_equal(pair.inverse, pair.vectors.T)


def test_eig_pair_symmetric_residual():
    rng = np.random.default_rng(31)
    for _ in range(5):
        S = rng.standard_normal((12, 12))
        S = S + S.T
        pair = kernels.eig_pair(S)
        nrm = np.linalg.norm(S)
        assert np.linalg.norm(S @ pair.vectors - pair.vectors * pair.values) <= 1e-10 * nrm
        assert np.linalg.norm(pair.vectors.T @ pair.vectors - np.eye(12)) <= 1e-12


def test_general_eig_triangular():
    pair = kernels.general_eig(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert np.allclose(sorted(pair.values.real), [1.0, 2.0])
    assert np.allclose(pair.values.imag, 0.0, atol=1e-13)
    assert not np.array_equal(pair.inverse, pair.vectors.T)


def test_general_eig_rotation():
    pair = kernels.general_eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(np.sort(pair.values.imag), [-1.0, 1.0], atol=1e-13)
    assert np.allclose(pair.values.real, 0.0, atol=1e-13)


def test_general_eig_residual_and_inverse():
    rng = np.random.default_rng(32)
    for _ in range(5):
        A = rng.standard_normal((10, 10))
        pair = kernels.general_eig(A)
        nrm = np.linalg.norm(A)
        assert np.linalg.norm(A @ pair.vectors - pair.vectors * pair.values) <= 1e-9 * nrm
        assert np.linalg.norm(pair.inverse @ pair.vectors - np.eye(10)) <= 1e-9


def test_general_eig_defective_gives_none():
    assert kernels.general_eig(np.array([[1.0, 1.0], [0.0, 1.0]])) is None
    with pytest.raises(DimensionError):
        kernels.eig_pair(np.ones((2, 3)))
    with pytest.raises(InputError):
        kernels.eig_pair(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_nilpotent_jordan_block_takes_schur_coordinates(scheme):
    # cond(Q) is infinite here, where np.linalg.inv(Q) would raise LinAlgError
    N = np.eye(3, k=1)
    assert np.linalg.cond(np.linalg.eig(N)[1]) == np.inf
    assert kernels.eig_pair(N) is None
    A = N - np.eye(3)       # still one Jordan block; the shift separates A and -A^T
    prop = kernels.Propagator(A, A.T, scheme)
    assert prop.fallback and not prop.shared
    rng = np.random.default_rng(72)
    U = rng.standard_normal((3, 3))
    F = np.sin(U)
    vectorized = oracles.vectorized_etd_step if scheme == "etd" else oracles.vectorized_imex_step
    want = vectorized(A, A.T, U, F, 0.05)
    assert np.linalg.norm(_step(prop, U, F, 0.05) - want) <= 1e-12 * np.linalg.norm(want)
    # factors map through the two unrelated Schur bases, one product each
    L, R = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    Lc, Rc = prop.map_factors(L, R)
    assert np.allclose(Lc @ Rc.T, prop.to_coords(L @ R.T), rtol=0, atol=1e-13)


def test_eig_pair_dispatch():
    pair = kernels.eig_pair(np.diag([1.0, 2.0]))
    assert np.array_equal(pair.inverse, pair.vectors.T)
    pair = kernels.eig_pair(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert not np.array_equal(pair.inverse, pair.vectors.T)


def test_separation_matches_the_outer_sum():
    # real spectra take the sorted-neighbour route, complex ones the outer sum
    rng = np.random.default_rng(97)
    for size_a, size_b in ((1, 1), (1, 9), (37, 50), (64, 20)):
        la, lb = rng.uniform(-3.0, 3.0, size_a), rng.uniform(-3.0, 3.0, size_b)
        cut = lb.copy()
        cut[-1] = -la[-1]       # an exact cancellation
        for a, b in ((la, lb), (la, np.concatenate([lb, lb[:2]])), (la, cut)):
            prop = kernels.Propagator(np.diag(a), np.diag(b), "imex")
            assert prop.separation == np.min(np.abs(prop.la[:, None] + prop.lb[None, :]))
        assert prop.separation == 0.0
    rotation = np.array([[-1.0, -2.0], [2.0, -1.0]])      # eigenvalues -1 +- 2i
    prop = kernels.Propagator(rotation, np.diag([0.5, 1.5]), "etd")
    assert np.iscomplexobj(prop.la)
    assert prop.separation == np.min(np.abs(prop.la[:, None] + prop.lb[None, :]))
    assert np.isclose(prop.separation, np.hypot(0.5, 2.0))
    # complex on both sides: the neighbours of each -la_i in lb's (lexicographic) order
    # are 0 and 2, not the -1 -+ 3i that give |(-0.9 +- 2.9i) + (-1 -+ 3i)| = |-1.9 -+ 0.1i|
    A = np.array([[-0.9, -2.9], [2.9, -0.9]])
    B = scipy.linalg.block_diag([[-1.0, -3.0], [3.0, -1.0]], [[2.0]], [[0.0]])
    prop = kernels.Propagator(A, B, "etd")
    assert np.iscomplexobj(prop.lb)
    assert prop.separation == np.min(np.abs(prop.la[:, None] + prop.lb[None, :]))
    assert np.isclose(prop.separation, np.hypot(1.9, 0.1))


# ------------------------------------------- tridiagonal symmetrization route

def _refuse(*args, **kwargs):
    raise AssertionError("this route must not be taken")


def _sign_symmetric_tridiagonal(rng, n):
    """Random tridiagonal with A[i+1, i] A[i, i+1] > 0, shifted left of 0."""
    sup = rng.uniform(0.5, 2.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    sub = sup * rng.uniform(0.2, 5.0, n - 1)
    A = np.diag(rng.standard_normal(n)) + np.diag(sup, 1) + np.diag(sub, -1)
    return A - (np.abs(A).sum(axis=1).max() + 0.5) * np.eye(n)


def test_tridiagonal_eig_is_a_scaled_symmetric_decomposition(monkeypatch):
    A = _sign_symmetric_tridiagonal(np.random.default_rng(33), 12)
    monkeypatch.setattr(kernels, "general_eig", _refuse)
    pair = kernels.eig_pair(A)
    assert not np.array_equal(pair.inverse, pair.vectors.T)
    assert np.isrealobj(pair.values) and np.isrealobj(pair.vectors)
    Q, nrm = pair.vectors, np.linalg.norm(A)
    assert np.linalg.norm(A @ Q - Q * pair.values) <= 1e-13 * nrm
    assert np.linalg.norm(pair.inverse @ Q - np.eye(12)) <= 1e-13
    ref = np.sort(np.linalg.eigvals(A).real)
    assert np.allclose(pair.values, ref, rtol=0, atol=1e-12 * nrm)
    # Q = D Q_S with Q_S orthogonal: Q Q^T = D^2 and cond(Q) = cond(D)
    d = np.sqrt(np.diag(Q @ Q.T))
    assert np.allclose(Q @ Q.T, np.diag(d * d), atol=1e-13 * np.max(d * d))
    assert np.isclose(np.linalg.cond(Q), d.max() / d.min(), rtol=1e-10)


@pytest.mark.parametrize("case", ["ac1", "ac2", "random"])
def test_symmetric_tridiagonal_input_takes_the_tridiagonal_solver(case, monkeypatch):
    # ac1's and ac2's folded halves, as the Propagator decomposes them, and a random one
    if case == "random":
        rng = np.random.default_rng(98)
        sup = rng.standard_normal(39)
        mats = [np.diag(rng.standard_normal(40)) + np.diag(sup, 1) + np.diag(sup, -1)]
    else:
        A, m = problems.build_problem(case, 64).A, 32
        mats = [A[:m, :m] + A[:m, m:][:, ::-1], A[:m, :m] - A[:m, m:][:, ::-1]]
    for S in mats:
        vals, Q = np.linalg.eigh(S)
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "eigh", _refuse)
            pair = kernels.eig_pair(S)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(pair.values - vals)) <= 1e-13 * scale
        signs = np.sign(np.sum(pair.vectors * Q, axis=0))     # eigenvectors up to sign
        assert np.max(np.abs(pair.vectors * signs - Q)) <= 1e-13
        assert np.array_equal(pair.inverse, pair.vectors.T)
        assert pair.vectors.flags.c_contiguous      # row-major, as eigh gives it


@pytest.mark.parametrize("case", ["rdc", "random"])
@pytest.mark.parametrize("side", ["B=A", "B=A^T"])
@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_tridiagonal_route_step_matches_oracles(case, side, scheme, monkeypatch):
    rng = np.random.default_rng(71)
    if case == "rdc":
        A = problems.build_problem("rdc", 32).A
    else:
        A = _sign_symmetric_tridiagonal(rng, 12)
    B = A.copy() if side == "B=A" else A.T.copy()
    eigA, eigB = kernels.general_eig(A), kernels.general_eig(B)
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "general_eig", _refuse)
        prop = kernels.Propagator(A, B, scheme)
    assert not prop.fallback
    assert np.isrealobj(prop.Qa) and np.isrealobj(prop.Qb)
    U = rng.standard_normal(A.shape)
    F = np.sin(U)
    h = 1e-3
    if scheme == "etd":
        refs = oracles.vectorized_etd_step(A, B, U, F, h), oracles.legacy_etd_update(eigA, eigB, U, F, h)
    else:
        refs = oracles.vectorized_imex_step(A, B, U, F, h), oracles.legacy_imex_update(eigA, eigB, U, F, h)
    out = _step(prop, U, F, h)
    for ref in refs:
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["zero product", "negative product", "ill-conditioned scale",
                                  "off-band entry"])
def test_tridiagonal_route_keeps_general_eig_otherwise(kind, monkeypatch):
    n = 8
    sup, sub = np.ones(n - 1), np.ones(n - 1)
    if kind == "zero product":
        sub[3] = 0.0
    elif kind == "negative product":
        sub[3] = -1.0
    elif kind == "ill-conditioned scale":
        sub *= 1e4        # d_{i+1} / d_i = 100, so cond(D) = 1e14
    A = np.diag(-np.arange(1.0, n + 1)) + np.diag(sup, 1) + np.diag(sub, -1)
    if kind == "off-band entry":
        A[0, 3] = 0.1
    calls = []
    general = kernels.general_eig

    def recording(S):
        calls.append(S)
        return general(S)

    assert kernels.tridiagonal_eig(A) is None
    monkeypatch.setattr(kernels, "general_eig", recording)
    kernels.eig_pair(A)
    assert len(calls) == 1 and calls[0] is A


# ------------------------------------------------------------ Sylvester solves

def sylvester(M, N, C):
    """X with M X + X N = C: one imex step (h = 1, F = 0) of Propagator(I - M, -N)."""
    return full_step(make_spec(np.eye(len(M)) - M, -N, C), C, 0.0, 1.0, "imex")


def test_sylvester_identity_halves():
    rng = np.random.default_rng(41)
    C = rng.standard_normal((2, 2))
    X = sylvester(np.eye(2), np.eye(2), C)
    assert np.allclose(X, C / 2.0, atol=1e-13)


def test_sylvester_diagonal_closed_form():
    A = np.diag([1.0, 3.0])
    B = np.diag([3.0, 4.0])
    X = sylvester(A, B, np.ones((2, 2)))
    want = np.array([[1.0 / 4.0, 1.0 / 5.0], [1.0 / 6.0, 1.0 / 7.0]])
    assert np.allclose(X, want, atol=1e-12)


def test_sylvester_matches_kron_oracle():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((m, m))
        if trial % 2 == 0:
            A = A + A.T
            B = B + B.T
        # shift spectra right so lambda_i + mu_j stays away from zero
        A = A + (np.linalg.norm(A, 2) + 1.0) * np.eye(n)
        B = B + (np.linalg.norm(B, 2) + 1.0) * np.eye(m)
        C = rng.standard_normal((n, m))
        X = sylvester(A, B, C)
        resid = np.linalg.norm(A @ X + X @ B - C)
        scale = (np.linalg.norm(A) + np.linalg.norm(B)) * np.linalg.norm(X)
        assert resid <= 1e-8 * scale + 1e-12 * np.linalg.norm(C)
        X_ref = oracles.sylvester_kron_oracle(A, B, C)
        assert np.linalg.norm(X - X_ref) <= 1e-8 * max(np.linalg.norm(X_ref), 1.0)


def test_sylvester_overlapping_spectra():
    with pytest.raises(SingularityError):
        sylvester(np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]))


# ------------------------------------------------------- matrix exponential

def exp_step(prop, h, M):
    """e^{hA} M e^{hB}: one etd step of prop = Propagator(A, B) at F = 0."""
    _, U = kernels.etd_euler_update(prop, prop.to_coords(M), np.zeros_like(M), h,
                                    np.empty(M.shape))
    return U


def test_expm_apply_zero_step():
    rng = np.random.default_rng(51)
    A = rng.standard_normal((5, 5))
    A = A + A.T
    M = rng.standard_normal((5, 3))
    out = exp_step(kernels.Propagator(A, np.zeros((3, 3)), "etd"), 0.0, M)
    assert np.allclose(out, M, atol=1e-12)


def test_expm_apply_diagonal_log2():
    prop = kernels.Propagator(np.diag([1.0, -1.0]), np.zeros((2, 2)), "etd")
    out = exp_step(prop, np.log(2.0), np.eye(2))
    assert np.allclose(out, np.diag([2.0, 0.5]), atol=1e-12)


def test_expm_apply_matches_pade_oracle():
    rng = np.random.default_rng(52)
    zero = np.zeros((8, 8))
    for _ in range(5):
        S = rng.standard_normal((8, 8))
        S = 0.5 * (S + S.T)
        h = 0.3
        out = exp_step(kernels.Propagator(S, zero, "etd"), h, np.eye(8))
        assert np.allclose(out, oracles.pade_expm(h * S), atol=1e-10)

        G = rng.standard_normal((8, 8))
        out = exp_step(kernels.Propagator(G, zero, "etd"), h, np.eye(8))
        ref = oracles.pade_expm(h * G)
        assert np.linalg.norm(out - ref) <= 1e-8 * np.linalg.norm(ref)


def test_expm_apply_right_side():
    rng = np.random.default_rng(53)
    B = rng.standard_normal((4, 4))
    B = B + B.T
    M = rng.standard_normal((6, 4))
    out = exp_step(kernels.Propagator(np.zeros((6, 6)), B, "etd"), 0.2, M)
    assert np.allclose(out, M @ oracles.pade_expm(0.2 * B), atol=1e-10)


def test_expm_apply_semigroup():
    rng = np.random.default_rng(54)
    A = rng.standard_normal((6, 6))
    A = A + A.T
    prop = kernels.Propagator(A, np.zeros((6, 6)), "etd")
    M = np.eye(6)
    once = exp_step(prop, 0.7, M)
    twice = exp_step(prop, 0.3, exp_step(prop, 0.4, M))
    assert np.linalg.norm(once - twice) <= 1e-9 * np.linalg.norm(once)


# ------------------------------------------------------------------------- phi1

def test_phi1_values():
    assert np.allclose(kernels.phi1(0.0), 1.0)
    assert np.allclose(kernels.phi1(1.0), np.e - 1.0)
    assert np.allclose(kernels.phi1(-1e-8), 1.0 - 0.5e-8, atol=1e-14)
    z = np.array([0.5, -2.0, 3.0])
    assert np.allclose(kernels.phi1(z), np.expm1(z) / z)


def test_phi1_complex_matches_definition():
    z = np.array([1.0 + 2.0j, -0.3 + 0.1j, 2.5j])
    assert np.allclose(kernels.phi1(z), (np.exp(z) - 1.0) / z, atol=1e-12)
    tiny = np.array([1e-6 + 1e-6j])
    assert np.allclose(kernels.phi1(tiny), (np.exp(tiny) - 1.0) / tiny, atol=1e-12)
    # subnormal and zero arguments: phi1 = 1 + z/2 + ... is 1 to rounding,
    # and the quotient is never formed (complex division of subnormals overflows)
    subnormal = kernels.phi1(np.array([1e-320 + 0j, 1e-300j, 0j]))
    assert np.all(np.abs(subnormal - 1.0) <= 1e-15)


def test_phi1_complex_branch_has_no_nan_at_large_positive_real_part():
    z = np.array([700.0, 800.0, 1420.0])
    with np.errstate(over="ignore"):
        real, cplx = kernels.phi1(z), kernels.phi1(z + 0j)
        off_axis = kernels.phi1(np.array([800.0 + 0.5j, 1420.0 + 1.0j]))
    assert np.isfinite(real[0]) and np.all(np.isinf(real[1:]))
    assert np.isclose(cplx[0].real, real[0], rtol=1e-12, atol=0.0)
    assert np.array_equal(cplx.real[1:], real[1:])
    assert np.all(cplx.imag == 0.0)
    # e^z / z with arg(z) < Im z < pi / 2: both parts overflow to +inf
    assert np.all(off_axis.real == np.inf) and np.all(off_axis.imag == np.inf)


def test_phi1_real_branch_is_finite_where_the_quotient_is():
    # expm1 overflows at z = 709.78, (e^z - 1) / z only at z = 716.9
    z = np.array([709.9, 710.0, 713.0, 716.0])
    real, cplx = kernels.phi1(z), kernels.phi1(z + 0j)
    assert np.all(np.isfinite(real))
    assert np.allclose(cplx.real, real, rtol=1e-13, atol=0.0)
    with np.errstate(over="ignore"):
        assert kernels.phi1(720.0)[0] == np.inf
        assert kernels.phi1(720.0 + 0j)[0].real == np.inf


def test_phi1_matches_block_oracle():
    rng = np.random.default_rng(61)
    d = rng.standard_normal(6)
    block = oracles.phi1_block(np.diag(d))
    assert np.allclose(kernels.phi1(d), np.diag(block), atol=1e-11)


# -------------------------------------------------------- Propagator and update

def _step(prop, U, F, h):
    """One full step of prop from and to physical coordinates."""
    return kernels.etd_euler_update(prop, prop.to_coords(U), F, h, np.empty(U.shape))[1]


def test_etd_update_scalar_closed_form():
    a, b, u, f, h = -0.7, 0.2, 1.3, 0.9, 0.05
    prop = kernels.Propagator([[a]], [[b]], "etd")
    out = _step(prop, np.array([[u]]), np.array([[f]]), h)
    z = h * (a + b)
    want = np.exp(z) * u + h * ((np.exp(z) - 1.0) / z) * f
    assert np.allclose(out, [[want]], atol=1e-13)


def _operator_pair(kind, rng):
    """(A, B) whose propagator takes the named route."""
    if kind == "symmetric":
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((3, 3))
        return A + A.T, B + B.T
    if kind == "general real":
        S = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        A = S @ np.diag([-1.0, -2.0, -0.5, 0.3]) @ np.linalg.inv(S)
        B = np.triu(rng.standard_normal((3, 3)), 1) + np.diag([-0.4, 0.1, -1.5])
        return A, B
    if kind == "complex":
        return rng.standard_normal((5, 5)), rng.standard_normal((4, 4))
    # defective: a Jordan block has no usable eigenbasis
    B = rng.standard_normal((3, 3))
    return np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]]), B + B.T


def _check_route(kind, scheme):
    rng = np.random.default_rng(62)
    A, B = _operator_pair(kind, rng)
    U = rng.standard_normal((A.shape[0], B.shape[0]))
    F = rng.standard_normal(U.shape)
    h = 0.05
    prop = kernels.Propagator(A, B, scheme)
    assert prop.fallback == (kind == "fallback")
    assert np.iscomplexobj(prop.Qa) == (kind == "complex")
    oracle = oracles.vectorized_etd_step if scheme == "etd" else oracles.vectorized_imex_step
    ref = oracle(A, B, U, F, h)
    for _ in range(2):     # the second step reuses the cached factors
        out = _step(prop, U, F, h)
        assert np.isrealobj(out)
        assert np.linalg.norm(out - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)
    into = np.empty_like(U)
    _, got = kernels.etd_euler_update(prop, prop.to_coords(U), F, h, out=into)
    assert got is into and np.array_equal(got, out)


def test_etd_update_matches_vectorized_oracle():
    _check_route("symmetric", "etd")


def test_etd_update_general_eigenbases():
    _check_route("general real", "etd")


@pytest.mark.parametrize("kind, scheme", [
    ("complex", "etd"), ("fallback", "etd"), ("symmetric", "imex"),
    ("general real", "imex"), ("complex", "imex"), ("fallback", "imex"),
])
def test_propagator_step_matches_vectorized_oracle(kind, scheme):
    _check_route(kind, scheme)


@pytest.mark.parametrize("scheme", ["etd", "imex"])
@pytest.mark.parametrize("kind", ["symmetric", "general real", "complex", "fallback"])
def test_advance_into_out_leaves_the_state_and_rounds_alike(kind, scheme):
    rng = np.random.default_rng(66)
    A, B = _operator_pair(kind, rng)
    prop = kernels.Propagator(A, B, scheme)
    Uhat = prop.to_coords(rng.standard_normal((len(A), len(B))))
    Fhat = prop.to_coords(rng.standard_normal(Uhat.shape))
    want = prop.advance(Uhat.copy(), Fhat.copy(), 0.05)
    before, out = Uhat.copy(), np.empty_like(Uhat)
    assert prop.advance(Uhat, Fhat.copy(), 0.05, out=out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(Uhat, before)


def test_dense_etd_step_flushes_subnormal_step_factors():
    # rdc at n = 512 and h = 1e-3: 3.4 % of E = e^{h la} (e^{h lb})^T is
    # subnormal before the flush (-745 < h (la_i + lb_j) < -708)
    spec = problems.build_problem("rdc", 512)
    prop = kernels.Propagator(spec.A, spec.B, "etd")
    assert isinstance(prop.Qa, np.ndarray) and np.isrealobj(prop.Qa)
    h, tiny = 1e-3, np.finfo(float).tiny
    raw = np.exp(h * prop.la)[:, None] * np.exp(h * prop.lb)[None, :]
    assert np.count_nonzero((raw != 0.0) & (np.abs(raw) < tiny)) > 0
    rng = np.random.default_rng(67)
    U, F = rng.standard_normal((2, 512, 512))
    Uhat = prop.to_coords(U)
    _, got = kernels.etd_euler_update(prop, Uhat.copy(), F, h, np.empty(F.shape))
    E = prop._factor("E", h)
    assert not np.any((E != 0.0) & (np.abs(E) < tiny))
    # the unflushed update, with etd_euler_update's products and association
    P = h * kernels.phi1(h * (prop.la[:, None] + prop.lb[None, :]))
    Unew = raw * Uhat + P * ((prop.Qa_inv @ F) @ prop.Qb)
    want = (prop.Qa @ Unew) @ prop.Qb_inv
    assert np.max(np.abs(got - want)) <= 1e-290


def test_propagator_rebuilds_factors_when_h_changes():
    rng = np.random.default_rng(64)
    A, B = _operator_pair("general real", rng)
    U = rng.standard_normal((4, 3))
    F = rng.standard_normal((4, 3))
    prop = kernels.Propagator(A, B, "etd")
    for h in (0.05, 0.02, 0.05):
        ref = oracles.vectorized_etd_step(A, B, U, F, h)
        assert np.linalg.norm(_step(prop, U, F, h) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_propagator_derives_transposed_basis():
    rng = np.random.default_rng(65)
    A, _ = _operator_pair("general real", rng)
    prop = kernels.Propagator(A, A.T, "etd")
    # B's basis is a view of A's: no second pair of eigenvector matrices
    assert np.shares_memory(prop.Qb, prop.Qa_inv)
    assert np.shares_memory(prop.Qb_inv, prop.Qa)
    U = rng.standard_normal((4, 4))
    F = rng.standard_normal((4, 4))
    h = 0.05
    ref = oracles.legacy_etd_update(kernels.general_eig(A), kernels.general_eig(A.T), U, F, h)
    assert np.linalg.norm(_step(prop, U, F, h) - ref) <= 1e-12 * np.linalg.norm(ref)
    same = kernels.Propagator(A, A.copy(), "etd")
    assert same.Qb is same.Qa and same.Qb_inv is same.Qa_inv


def test_propagator_fallback_rejects_overlapping_spectra():
    with pytest.raises(SingularityError):
        kernels.Propagator([[0.0, 1.0], [0.0, 0.0]], [[0.0]], "etd")


def test_propagator_imex_singular_step():
    prop = kernels.Propagator([[1.0]], [[1.0]], "imex")
    with pytest.raises(SingularityError):
        prop.advance(np.ones((1, 1)), np.ones((1, 1)), 0.5)


@pytest.mark.parametrize("route", ["factored", "schur"])
def test_imex_singular_step_is_refused_on_the_other_routes(route):
    # h (la + lb) = 1: the factored step builds E alone, Schur coordinates no outer sum
    one = np.ones((1, 1))
    if route == "factored":
        with pytest.raises(SingularityError):
            kernels.Propagator([[1.0]], [[1.0]], "imex").advance_factors(one, one, one, one, 0.5)
        return
    prop = kernels.Propagator(np.eye(2) + np.eye(2, k=1), [[1.0]], "imex")     # a Jordan block
    assert prop.fallback
    with pytest.raises(SingularityError):
        prop.advance(np.ones((2, 1)), np.ones((2, 1)), 0.5)


def test_propagator_unknown_scheme():
    with pytest.raises(DimensionError):
        kernels.Propagator([[1.0]], [[1.0]], "rk4")



# ----------------------------------------- low-rank maps and the fused step

def _problem_pair(case):
    """(A, B) at n = 64: ac1's folded B = A and rdc's dense B = A^T share their
    maps; ac1's A beside ac2's B (both folded) and rdc's A beside ac1's B
    (both dense) share none."""
    ac1, ac2, rdc = (problems.build_problem(name, 64) for name in ("ac1", "ac2", "rdc"))
    return {"ac1": (ac1.A, ac1.B), "rdc": (rdc.A, rdc.B),
            "folded-unrelated": (ac1.A, ac2.B), "unrelated": (rdc.A, ac1.B)}[case]


PAIR_CASES = pytest.mark.parametrize("case, shared, folded", [
    ("ac1", True, True), ("rdc", True, False),
    ("folded-unrelated", False, True), ("unrelated", False, False),
])


def _random_factors(rng, n, m, k):
    return rng.standard_normal((n, k)), rng.standard_normal((m, k))


@PAIR_CASES
def test_stacked_maps_match_separate_products(case, shared, folded):
    A, B = _problem_pair(case)
    prop = kernels.Propagator(A, B, "etd")
    assert prop.shared == shared and not prop.fallback
    assert isinstance(prop.Qa, kernels.FoldedMatrix) == folded
    L, R = _random_factors(np.random.default_rng(93), len(A), len(B), 4)
    Qa, Qa_inv, Qb, Qb_inv = map(np.asarray, (prop.Qa, prop.Qa_inv, prop.Qb, prop.Qb_inv))
    stacked = prop.map_factors(L, R), prop.map_factors(L, R, out=True)
    prop.shared = False         # the same maps, one product per side
    separate = prop.map_factors(L, R), prop.map_factors(L, R, out=True)
    dense = (Qa_inv @ L, Qb.T @ R), (Qa @ L, Qb_inv.T @ R)
    for got, one, want in zip(stacked, separate, dense):
        for g, o, w in zip(got, one, want):
            assert g.shape == w.shape
            assert np.linalg.norm(g - o) <= 1e-13 * np.linalg.norm(w)
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)


@PAIR_CASES
@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_fused_factored_step_matches_advance(case, shared, folded, scheme):
    A, B = _problem_pair(case)
    prop = kernels.Propagator(A, B, scheme)
    rng = np.random.default_rng(94)
    Lc, Rc = _random_factors(rng, len(A), len(B), 5)
    Lf, Rf = _random_factors(rng, len(A), len(B), 3)
    # the second step reuses the cached factors; at h = 0.09 rdc's E = ea eb^T
    # reaches below 1e-308, where the etd products are flushed
    for h in (0.01, 0.01, 0.002, 0.09):
        want = prop.advance(Lc @ Rc.T, Lf @ Rf.T, h)
        got = prop.advance_factors(Lc, Rc, Lf, Rf, h)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# ------------------------------------------ folded (centrosymmetric) operators

def _centrosymmetric(kind, n, rng):
    """An n x n matrix with J A J = A: a Laplacian or a mirrored random matrix."""
    if kind == "random":
        M = 0.5 * rng.standard_normal((n, n))
        return M + M[::-1, ::-1]
    return problems.build_laplacian_1d(n, kind, 0.0, 1.0, 0.02)


def _check_folded(A, B, scheme, fold_a, fold_b):
    """Two steps of Propagator(A, B), each against the dense eigenbasis
    formula and the Kronecker-form oracle, to 1e-12."""
    rng = np.random.default_rng(66)
    prop = kernels.Propagator(A, B, scheme)
    assert not prop.fallback
    assert isinstance(prop.Qa, kernels.FoldedMatrix) == fold_a
    assert isinstance(prop.Qb, kernels.FoldedMatrix) == fold_b
    dense = oracles.legacy_etd_update if scheme == "etd" else oracles.legacy_imex_update
    vectorized = oracles.vectorized_etd_step if scheme == "etd" else oracles.vectorized_imex_step
    eigA, eigB = kernels.eig_pair(A), kernels.eig_pair(B)
    h = 0.05
    U = rng.standard_normal((A.shape[0], B.shape[0]))
    Uhat = prop.to_coords(U)
    out = np.empty_like(U)
    for _ in range(2):      # the second step reuses the cached factors
        F = np.sin(U)
        Uhat, got = kernels.etd_euler_update(prop, Uhat, F, h, out=out)
        assert got is out and np.isrealobj(got)
        for want in (dense(eigA, eigB, U, F, h), vectorized(A, B, U, F, h)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        U = got.copy()


@pytest.mark.parametrize("scheme", ["etd", "imex"])
@pytest.mark.parametrize("kind", ["dirichlet", "periodic", "neumann", "random"])
def test_folded_step_matches_dense_and_vectorized(kind, scheme):
    # a pair folds when both sides fold with real halves; the mirrored
    # random matrix has complex halves, so its pairs keep dense bases
    rng = np.random.default_rng(67)
    A = _centrosymmetric(kind, 8, rng)
    fold = kind != "random"
    _check_folded(A, A.copy(), scheme, fold, fold)                    # B = A
    _check_folded(A, A.T.copy(), scheme, fold, fold)                  # B = A^T
    B = rng.standard_normal((5, 5))
    _check_folded(A, B + B.T, scheme, False, False)                   # B dense
    _check_folded(B + B.T, A, scheme, False, False)                   # A dense
    C = _centrosymmetric("random", 6, rng)
    _check_folded(A, C, scheme, False, False)                         # B's halves complex


@pytest.mark.parametrize("kind", ["dirichlet", "periodic"])
def test_folded_step_allocates_no_state(kind):
    rng = np.random.default_rng(65)
    A = _centrosymmetric(kind, 64, rng)
    prop = kernels.Propagator(A, A, "etd")
    assert isinstance(prop.Qa, kernels.FoldedMatrix)
    assert np.isrealobj(prop.Qa)
    U = rng.standard_normal((64, 64))
    F = np.sin(U)
    Uhat, U = kernels.etd_euler_update(prop, prop.to_coords(U), F, 0.05, out=U)
    tracemalloc.start()
    try:
        Uhat, U = kernels.etd_euler_update(prop, Uhat, F, 0.05, out=U)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * U.nbytes
    # the coordinates stay those of the state, with nothing left over in
    # the scratch from the step before
    assert np.linalg.norm(prop.to_coords(U) - Uhat) <= 1e-12 * np.linalg.norm(Uhat)


def test_folded_halves_take_the_expected_solvers():
    rng = np.random.default_rng(68)
    for kind, symmetric in [("dirichlet", True), ("periodic", True), ("neumann", False)]:
        A = _centrosymmetric(kind, 8, rng)
        prop = kernels.Propagator(A, A, "etd")
        assert np.isrealobj(prop.Qa) and np.isrealobj(prop.la)
        Q, Qinv = np.asarray(prop.Qa), np.asarray(prop.Qa_inv)
        assert np.linalg.norm(A @ Q - Q * prop.la) <= 1e-12 * np.linalg.norm(A)
        assert np.linalg.norm(Qinv @ Q - np.eye(8)) <= 1e-12
        assert np.allclose(Q.T @ Q, np.eye(8), atol=1e-12) == symmetric
    # a mirrored random matrix has complex eigenpairs in its halves, so it
    # keeps a dense complex basis
    A = _centrosymmetric("random", 8, rng)
    Qa = kernels.Propagator(A, A, "etd").Qa
    assert isinstance(Qa, np.ndarray) and np.iscomplexobj(Qa)


@pytest.mark.parametrize("kind", ["dirichlet", "periodic", "neumann", "random"])
def test_fold_halves_act_on_the_even_and_odd_vectors(kind):
    # A [x; s J x] = [A_s x; s J A_s x] for the first (s = 1) and second (s = -1) block
    rng = np.random.default_rng(64)
    A = _centrosymmetric(kind, 8, rng)
    x = rng.standard_normal(4)
    for s, A_s in zip((1.0, -1.0), kernels.fold_halves(A)):
        y = A_s @ x
        want = np.concatenate([y, s * y[::-1]])
        assert np.linalg.norm(A @ np.concatenate([x, s * x[::-1]]) - want) <= 1e-14 * np.linalg.norm(want)
    assert kernels.fold_halves(_centrosymmetric(kind, 7, rng)) is None         # odd size
    A[0, 1] += 1e-15 * np.abs(A).max()                                         # not exactly J A J
    assert kernels.fold_halves(A) is None


def test_folded_transposed_side_shares_the_blocks():
    A = _centrosymmetric("neumann", 8, None)
    prop = kernels.Propagator(A, A.T, "etd")
    assert np.shares_memory(prop.Qb.H1, prop.Qa_inv.H1)
    assert np.shares_memory(prop.Qb_inv.H2, prop.Qa.H2)
    same = kernels.Propagator(A, A.copy(), "etd")
    assert same.Qb is same.Qa and same.Qb_inv is same.Qa_inv


@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_odd_size_keeps_dense_bases(scheme):
    rng = np.random.default_rng(69)
    A = _centrosymmetric("dirichlet", 7, rng)
    prop = kernels.Propagator(A, A, scheme)
    assert isinstance(prop.Qa, np.ndarray) and isinstance(prop.Qb, np.ndarray)
    U = rng.standard_normal((7, 7))
    F = np.cos(U)
    vectorized = oracles.vectorized_etd_step if scheme == "etd" else oracles.vectorized_imex_step
    want = vectorized(A, A, U, F, 0.05)
    assert np.linalg.norm(_step(prop, U, F, 0.05) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_defective_half_takes_schur_fallback(scheme):
    # J A J = A with halves A11 + A12 J = diag and A11 - A12 J a Jordan block
    m = 3
    J = np.eye(m)[::-1]
    P1 = np.diag([-1.0, -2.0, -0.5])
    P2 = np.array([[-1.5, 1.0, 0.0], [0.0, -1.5, 1.0], [0.0, 0.0, -1.5]])
    A11, A12 = 0.5 * (P1 + P2), 0.5 * (P1 - P2) @ J
    A = np.block([[A11, A12], [J @ A12 @ J, J @ A11 @ J]])
    assert np.array_equal(A, A[::-1, ::-1])
    assert kernels.eig_pair(A11 - A12 @ J) is None
    prop = kernels.Propagator(A, A, scheme)
    assert prop.fallback
    rng = np.random.default_rng(70)
    U = rng.standard_normal((6, 6))
    F = np.sin(U)
    vectorized = oracles.vectorized_etd_step if scheme == "etd" else oracles.vectorized_imex_step
    want = vectorized(A, A, U, F, 0.05)
    for _ in range(2):      # the second step reuses the cached factors
        assert np.linalg.norm(_step(prop, U, F, 0.05) - want) <= 1e-12 * np.linalg.norm(want)

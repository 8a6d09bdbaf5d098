from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import identity_basis, make_spec, offline_pipeline
from mor2 import deim, fullsolve, pod, problems
from mor2.errors import RankError


def random_basis_pair(rng, n, k1, k2, symmetric=False):
    return pod.BasisPair(
        Vl=oracles.random_orthonormal(rng, n, k1),
        Wr=oracles.random_orthonormal(rng, n, k2),
        singvals_l=np.ones(k1), singvals_r=np.ones(k2),
        tau=1e-3, n_max=8, kappa=max(k1, k2), symmetric=symmetric,
    )


def with_points(factors, spec):
    """The factors with the grid coordinates of their samples, as
    rom.assemble_rom sets them on the folded ones."""
    return replace(factors, points=problems.sample_points(spec, factors.row_idx, factors.col_idx))


def canonical_basis_pair(n, p):
    eye = np.eye(n)
    return pod.BasisPair(
        Vl=eye[:, :p].copy(), Wr=eye[:, :p].copy(),
        singvals_l=np.ones(p), singvals_r=np.ones(p),
        tau=1e-3, n_max=8, kappa=p,
    )


# ------------------------------------------------------------------ qdeim_bound

def test_qdeim_bound_values():
    assert np.isclose(oracles.qdeim_bound(10, 1), np.sqrt(30.0))
    assert np.isclose(oracles.qdeim_bound(5, 2), 6.0)
    grows = [oracles.qdeim_bound(20, p) for p in range(1, 6)]
    assert all(a < b for a, b in zip(grows, grows[1:]))


# ------------------------------------------------------------------- build_deim

def test_build_deim_canonical_basis():
    op = deim.build_deim(canonical_basis_pair(7, 3))
    assert list(op.row_idx) == [0, 1, 2]
    assert list(op.col_idx) == [0, 1, 2]
    assert np.allclose(op.left_factor, np.eye(3))
    assert np.allclose(op.right_factor, np.eye(3))
    assert np.isclose(op.c_l, 1.0)
    assert np.isclose(op.c_r, 1.0)
    assert op.p1 == 3 and op.p2 == 3


@pytest.mark.parametrize("pipeline", ["ac1_64", "rdc_64", "ac2_64"])
def test_build_deim_points_on_benchmark_bases_match_the_greedy_oracle(pipeline, request):
    pipe = request.getfixturevalue(pipeline)
    fbasis, op = pipe["fbasis"], pipe["op"]
    assert np.array_equal(op.row_idx, oracles.greedy_pivot_oracle(fbasis.Vl.T))
    cols = fbasis.Vl.T if fbasis.symmetric else fbasis.Wr.T
    assert np.array_equal(op.col_idx, oracles.greedy_pivot_oracle(cols))


def test_dynamic_pod_marks_symmetric_nonlinearity_streams(ac1_64, ac2_64):
    # rdc as the command line builds it; the rdc_64 fixture's convection-
    # dominated stream is symmetric only to about 6e-12, above STREAM_SYM_TOL
    rdc = offline_pipeline(problems.build_problem("rdc", 64), n_max=40, kappa=50, tau=1e-3)
    for pipe in (ac2_64, rdc):
        assert pipe["fbasis"].symmetric
        assert np.array_equal(pipe["op"].row_idx, pipe["op"].col_idx)
    assert not ac1_64["fbasis"].symmetric


def uneven_symmetric_stream_basis():
    """A symmetric-stream accumulator whose sides prune to widths 4 and 2."""
    V = oracles.random_orthonormal(np.random.default_rng(110), 8, 4)
    acc = pod.TripletAccumulator(kappa=4, Vt=V, St=np.array([4.0, 3.0, 2.0, 1.0]),
                                 Wh=V[:, [0, 1, 0, 1]], symmetric_stream=True)
    return pod.prune(acc, 1e-3, 8)


def test_build_deim_on_unequal_widths_selects_columns_from_the_right_basis():
    basis = uneven_symmetric_stream_basis()
    assert (basis.nu_l, basis.nu_r) == (4, 2)
    assert not basis.symmetric
    op = deim.build_deim(basis)
    assert (op.p1, op.p2) == (4, 2)


def test_build_deim_symmetric_reuses_rows():
    rng = np.random.default_rng(111)
    S = rng.standard_normal((8, 8))
    S = S + S.T
    acc = pod.accumulate(pod.TripletAccumulator.empty(6), S)
    acc = pod.accumulate(acc, S @ S)
    basis = pod.prune(acc, 1e-6, 8)
    assert basis.symmetric
    op = deim.build_deim(basis)
    assert np.array_equal(op.row_idx, op.col_idx)
    assert op.col_idx is not op.row_idx


def test_build_deim_selection_amplification():
    rng = np.random.default_rng(112)
    basis = random_basis_pair(rng, 20, 4, 5)
    op = deim.build_deim(basis)
    assert np.allclose(op.left_factor, basis.Vl[op.row_idx, :])
    assert np.allclose(op.right_factor, basis.Wr[op.col_idx, :].T)
    assert np.isclose(op.c_l, 1.0 / np.linalg.svd(op.left_factor, compute_uv=False)[-1])
    assert op.c_l >= 1.0 and op.c_r >= 1.0
    assert op.c_l <= oracles.qdeim_bound(20, op.p1)
    assert op.c_r <= oracles.qdeim_bound(20, op.p2)


# ------------------------------------------------------------- deim_approximate

@pytest.mark.parametrize("side", ["row", "column"])
def test_deim_operator_refuses_a_singular_selection(side):
    # rows 0 and 2 of V agree up to 1e-16
    V = np.eye(6)[:, :2]
    V[2] = [1.0, 1e-16]
    good, bad = np.array([0, 1]), np.array([0, 2])
    rows, cols = (bad, good) if side == "row" else (good, bad)
    with pytest.raises(RankError, match=f"{side} selection matrix is numerically singular"):
        deim.deim_operator(V, V, rows, cols)


def test_deim_exact_for_square_basis():
    rng = np.random.default_rng(113)
    basis = random_basis_pair(rng, 6, 6, 6)
    op = deim.build_deim(basis)
    F = rng.standard_normal((6, 6))
    assert np.allclose(deim.deim_approximate(op, basis, F), F, atol=1e-12)


def test_deim_exact_on_subspace():
    rng = np.random.default_rng(114)
    basis = random_basis_pair(rng, 15, 4, 3)
    op = deim.build_deim(basis)
    F = basis.Vl @ rng.standard_normal((4, 3)) @ basis.Wr.T
    assert np.allclose(deim.deim_approximate(op, basis, F), F, atol=1e-10)


def test_deim_zero_samples_give_zero():
    rng = np.random.default_rng(115)
    basis = random_basis_pair(rng, 12, 3, 3)
    op = deim.build_deim(basis)
    F = np.zeros((12, 12))
    free_row = next(i for i in range(12) if i not in op.row_idx)
    free_col = next(j for j in range(12) if j not in op.col_idx)
    F[free_row, free_col] = 5.0
    assert np.allclose(deim.deim_approximate(op, basis, F), 0.0, atol=1e-13)


def test_deim_interpolates_on_selected_cross():
    rng = np.random.default_rng(116)
    basis = random_basis_pair(rng, 14, 5, 4)
    op = deim.build_deim(basis)
    F = rng.standard_normal((14, 14))
    Ft = deim.deim_approximate(op, basis, F)
    assert np.allclose(Ft[np.ix_(op.row_idx, op.col_idx)],
                       F[np.ix_(op.row_idx, op.col_idx)], atol=1e-10)


def test_deim_error_bound_random_instances():
    # the oblique interpolation error never exceeds c_l*c_r times the
    # orthogonal two-sided projection error
    rng = np.random.default_rng(117)
    for _ in range(60):
        n = int(rng.integers(10, 31))
        k1 = int(rng.integers(2, 7))
        k2 = int(rng.integers(2, 7))
        basis = random_basis_pair(rng, n, k1, k2)
        op = deim.build_deim(basis)
        F = rng.standard_normal((n, n))
        Ft = deim.deim_approximate(op, basis, F)
        best = F - basis.Vl @ (basis.Vl.T @ F @ basis.Wr) @ basis.Wr.T
        lhs = np.linalg.norm(F - Ft)
        assert lhs <= op.c_l * op.c_r * np.linalg.norm(best) + 1e-12


def test_deim_bound_on_smooth_function_family():
    fn = problems.analytic_function("phi1", 500)
    times = pod.candidate_times(fn.t_final, 24)
    src = fullsolve.AnalyticSource(fn, times)
    basis, _ = pod.dynamic_pod(src, 1e-4, 30, 1e-4)
    op = deim.build_deim(basis)
    assert op.c_l <= oracles.qdeim_bound(500, op.p1)
    assert op.c_r <= oracles.qdeim_bound(500, op.p2)


# --------------------------------------------------------- reduced-model factors

def test_precompute_canonical_gives_identities():
    basis = canonical_basis_pair(9, 4)
    op = deim.build_deim(basis)
    factors = deim.precompute_rom_factors(basis, basis, op)
    for M in (factors.Ml, factors.Mr, factors.Sl, factors.Sr):
        assert np.allclose(M, np.eye(4), atol=1e-13)


def test_precompute_shapes_and_algebra():
    rng = np.random.default_rng(118)
    ubasis = random_basis_pair(rng, 18, 5, 6)
    fbasis = random_basis_pair(rng, 18, 3, 4)
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    assert factors.Ml.shape == (5, 3)
    assert factors.Mr.shape == (4, 6)
    assert factors.Sl.shape == (3, 5)
    assert factors.Sr.shape == (6, 4)
    assert np.allclose(factors.Ml,
                       ubasis.Vl.T @ fbasis.Vl @ np.linalg.inv(op.left_factor),
                       atol=1e-12)
    assert np.allclose(factors.Mr,
                       np.linalg.inv(op.right_factor) @ fbasis.Wr.T @ ubasis.Wr,
                       atol=1e-12)
    assert np.allclose(factors.Sl, ubasis.Vl[op.row_idx, :])
    assert np.allclose(factors.Sr, ubasis.Wr[op.col_idx, :].T)


def test_reduced_nonlinear_zero_rhs():
    rng = np.random.default_rng(119)
    spec = make_spec(np.eye(6), np.eye(6), np.zeros((6, 6)))
    ubasis = random_basis_pair(rng, 6, 3, 2)
    fbasis = random_basis_pair(rng, 6, 2, 2)
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    Y = rng.standard_normal((3, 2))
    out = deim.reduced_nonlinear(with_points(factors, spec), spec, Y, 0.0)
    assert out.shape == (3, 2)
    assert np.allclose(out, 0.0, atol=1e-13)


def test_reduced_nonlinear_at_cubic_roots():
    # the double-well rhs vanishes at U = 1, so the lifted all-ones state
    # must reduce to exactly zero through the sampled route
    spec = problems.build_problem("ac1", 8)
    basis = identity_basis(8)
    op = deim.build_deim(basis)
    factors = deim.precompute_rom_factors(basis, basis, op)
    out = deim.reduced_nonlinear(with_points(factors, spec), spec, np.ones((8, 8)), 0.0)
    assert np.allclose(out, 0.0, atol=1e-13)


def test_reduced_nonlinear_scalar_pipeline():
    def f(U, X, Y, t):
        return U**2 + t
    spec = make_spec([[0.0]], [[0.0]], [[1.0]], nonlinear=f)
    basis = identity_basis(1)
    op = deim.build_deim(basis)
    factors = deim.precompute_rom_factors(basis, basis, op)
    out = deim.reduced_nonlinear(with_points(factors, spec), spec, np.array([[3.0]]), 0.25)
    assert np.allclose(out, [[9.25]], atol=1e-13)


def test_reduced_nonlinear_matches_dense_assembly(ac1_64):
    # the sampled route must agree with lifting, evaluating everywhere,
    # interpolating densely and projecting, for arbitrary reduced states
    rng = np.random.default_rng(120)
    spec = ac1_64["spec"]
    ubasis, fbasis = ac1_64["ubasis"], ac1_64["fbasis"]
    op, factors = ac1_64["op"], ac1_64["factors"]
    k1, k2 = ubasis.nu_l, ubasis.nu_r
    for _ in range(20):
        Y = rng.standard_normal((k1, k2))
        U = ubasis.Vl @ Y @ ubasis.Wr.T
        F = problems.eval_nonlinear(spec, U, 0.0)
        dense = ubasis.Vl.T @ deim.deim_approximate(op, fbasis, F) @ ubasis.Wr
        fast = deim.reduced_nonlinear(with_points(factors, spec), spec, Y, 0.0)
        assert np.linalg.norm(fast - dense) <= 1e-10 * max(np.linalg.norm(dense), 1.0)


def test_reduced_nonlinear_accuracy_near_training_states(rdc_64):
    # near the sampled trajectory the interpolated reduction stays within
    # a percent of the exact projected nonlinearity
    rng = np.random.default_rng(121)
    spec = rdc_64["spec"]
    ubasis, factors = rdc_64["ubasis"], rdc_64["factors"]
    worst = 0.0
    for i in [1, 10, 25, 40, 55]:
        U = rdc_64["state_src"].matrix(i)
        Y = ubasis.Vl.T @ U @ ubasis.Wr
        Y = Y * (1.0 + 0.01 * rng.standard_normal(Y.shape))
        t = rdc_64["state_src"].times[i]
        exact = ubasis.Vl.T @ problems.eval_nonlinear(
            spec, ubasis.Vl @ Y @ ubasis.Wr.T, t) @ ubasis.Wr
        fast = deim.reduced_nonlinear(with_points(factors, spec), spec, Y, t)
        worst = max(worst, np.linalg.norm(fast - exact) / np.linalg.norm(exact))
    assert worst <= 1e-2


# ---------------------------------------------------------------- vector route

def test_vector_and_matrix_routes_comparable_accuracy():
    # fitted to the same full snapshot set, the two interpolants should land
    # within an order of magnitude of each other on held-out samples
    fn = problems.analytic_function("phi1", 100)
    times = pod.candidate_times(fn.t_final, 20)
    src = fullsolve.AnalyticSource(fn, times)
    mbasis, _ = pod.vanilla_pod(src, 20, 1e-4)
    mop = deim.build_deim(mbasis)
    vbasis, _ = pod.vector_pod(src, 1e-4, 1e-4, n_max=len(times))
    vinterp = oracles.vector_deim(vbasis.V)

    rng = np.random.default_rng(124)
    err_m, err_v = [], []
    for t in rng.uniform(0.0, fn.t_final, 7):
        F = problems.sample_analytic(fn, t)
        nrm = np.linalg.norm(F)
        err_m.append(np.linalg.norm(F - deim.deim_approximate(mop, mbasis, F)) / nrm)
        fv = vinterp(F.ravel(order="F"))
        err_v.append(np.linalg.norm(F.ravel(order="F") - fv) / nrm)
    em = max(np.mean(err_m), 1e-10)
    ev = max(np.mean(err_v), 1e-10)
    assert ev <= 10.0 * em
    assert em <= 10.0 * ev

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import full_step, make_spec, run_full, stable_pair
from mor2 import fullsolve, kernels, pod, problems
from mor2.errors import DimensionError, DivergenceError


# -------------------------------------------------------------------- time grid

def test_time_grid_nodes():
    grid = fullsolve.TimeGrid(1.0, 4)
    assert grid.h == 0.25
    assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    point = fullsolve.TimeGrid(2.0, 0)
    assert np.allclose(point.nodes, [0.0])


def test_time_grid_rejects_bad_bounds():
    with pytest.raises(DimensionError):
        fullsolve.TimeGrid(0.0, 5)
    with pytest.raises(DimensionError):
        fullsolve.TimeGrid(1.0, -1)


# ------------------------------------------------------------------ single steps

def test_imex_step_scalar_closed_form():
    a, b, c, u0, h = -2.0, 0.5, 0.7, 1.1, 0.1
    spec = make_spec([[a]], [[b]], [[u0]],
                     nonlinear=lambda U, X, Y, t: np.full_like(U, c))
    want = (u0 + h * c) / (1.0 - h * (a + b))
    out = full_step(spec, spec.U0, 0.0, h, "imex")
    assert np.allclose(out, [[want]], atol=1e-13)
    traj = run_full(spec, fullsolve.TimeGrid(h, 1), scheme="imex")
    assert np.allclose(traj.states[-1], [[want]], atol=1e-13)


def test_imex_step_matches_kron_oracle():
    rng = np.random.default_rng(71)
    A, B = stable_pair(rng, 6, 5, symmetric=True)
    U0 = rng.standard_normal((6, 5))
    spec = make_spec(A, B, U0, nonlinear=lambda U, X, Y, t: np.sin(U))
    h = 0.05
    F = problems.eval_nonlinear(spec, U0, 0.0)
    ref = oracles.vectorized_imex_step(A, B, U0, F, h)
    assert np.allclose(full_step(spec, U0, 0.0, h, "imex"), ref, atol=1e-10)
    traj = run_full(spec, fullsolve.TimeGrid(h, 1), scheme="imex")
    assert np.allclose(traj.states[-1], ref, atol=1e-10)


def test_imex_step_general_eigenbasis():
    rng = np.random.default_rng(72)
    A, B = stable_pair(rng, 5, 4, symmetric=False)
    U0 = rng.standard_normal((5, 4))
    spec = make_spec(A, B, U0, nonlinear=lambda U, X, Y, t: U - U**3)
    h = 0.02
    F = problems.eval_nonlinear(spec, U0, 0.0)
    ref = oracles.vectorized_imex_step(A, B, U0, F, h)
    traj = run_full(spec, fullsolve.TimeGrid(h, 1), scheme="imex")
    assert np.linalg.norm(traj.states[-1] - ref) <= 1e-8 * max(np.linalg.norm(ref), 1.0)


def test_exp_euler_step_matches_kron_oracle():
    rng = np.random.default_rng(73)
    A, B = stable_pair(rng, 5, 5, symmetric=True)
    U0 = rng.standard_normal((5, 5))
    spec = make_spec(A, B, U0, nonlinear=lambda U, X, Y, t: np.tanh(U))
    h = 0.05
    F = problems.eval_nonlinear(spec, U0, 0.0)
    out = full_step(spec, U0, 0.0, h, "etd")
    assert np.allclose(out, oracles.vectorized_etd_step(A, B, U0, F, h), atol=1e-10)


def test_etd_exact_on_linear_problem():
    # with F = 0 exponential Euler reproduces the semigroup exactly
    rng = np.random.default_rng(74)
    A, B = stable_pair(rng, 4, 3, symmetric=True)
    U0 = rng.standard_normal((4, 3))
    spec = make_spec(A, B, U0, t_final=0.8)
    traj = run_full(spec, fullsolve.TimeGrid(0.8, 7), scheme="etd")
    want = oracles.pade_expm(0.8 * A) @ U0 @ oracles.pade_expm(0.8 * B)
    assert np.linalg.norm(traj.states[-1] - want) <= 1e-9 * max(np.linalg.norm(want), 1.0)


def test_imex_first_order_convergence():
    spec = make_spec([[-2.0]], [[-1.0]], [[1.0]])
    exact = np.exp(-3.0)
    errs = []
    for n_t in (64, 128):
        traj = run_full(spec, fullsolve.TimeGrid(1.0, n_t), scheme="imex")
        errs.append(abs(traj.states[-1][0, 0] - exact))
    assert 1.8 <= errs[0] / errs[1] <= 2.2


# ----------------------------------------------------------------- full runs

def test_run_full_zero_steps():
    spec = make_spec([[-1.0]], [[-1.0]], [[2.0]])
    traj = run_full(spec, fullsolve.TimeGrid(1.0, 0))
    assert len(traj.states) == 1
    assert np.allclose(traj.states[0], [[2.0]])


def test_run_full_unknown_scheme():
    spec = make_spec([[-1.0]], [[-1.0]], [[1.0]])
    with pytest.raises(DimensionError):
        run_full(spec, fullsolve.TimeGrid(1.0, 2), scheme="rk4")


def test_iter_full_matches_trajectory_source():
    rng = np.random.default_rng(75)
    A, B = stable_pair(rng, 4, 4, symmetric=True)
    spec = make_spec(A, B, rng.standard_normal((4, 4)),
                     nonlinear=lambda U, X, Y, t: 0.1 * U**2)
    grid = fullsolve.TimeGrid(0.5, 8)
    traj, _, _ = fullsolve.trajectory_source(spec, grid.nodes, "etd")
    for i, t, U in fullsolve.iter_full(spec, grid, scheme="etd"):
        assert np.isclose(t, traj.times[i])
        assert np.allclose(U, traj.states[i], atol=1e-12)


def test_iter_full_overwrites_one_state_and_allocates_only_f():
    spec = problems.build_problem("ac1", 64)
    it = fullsolve.iter_full(spec, fullsolve.TimeGrid(spec.t_final, 12), "etd")
    next(it)
    _, _, first = next(it)
    tracemalloc.start()
    try:
        states = [next(it)[2] for _ in range(10)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(U is first for U in states)
    # F at the new state is the one n x n array a step allocates, over ten
    # steps too: each F is released before the next is evaluated
    assert peak < 1.5 * first.nbytes


def test_trajectory_source_contents():
    rng = np.random.default_rng(76)
    A, B = stable_pair(rng, 3, 3, symmetric=True)
    spec = make_spec(A, B, rng.standard_normal((3, 3)),
                     nonlinear=lambda U, X, Y, t: np.cos(U))
    times = np.linspace(0.0, 0.4, 9)
    state, nonl, seconds = fullsolve.trajectory_source(spec, times, "imex")
    assert seconds >= 0.0
    assert len(state.states) == 9
    assert np.allclose(state.matrix(0), spec.U0)
    assert np.allclose(nonl.matrix(4),
                       problems.eval_nonlinear(spec, state.matrix(4), times[4]))


def test_trajectory_source_requires_increasing_times():
    spec = make_spec([[-1.0]], [[-1.0]], [[1.0]])
    with pytest.raises(DimensionError):
        fullsolve.trajectory_source(spec, np.array([0.0, 0.5, 0.4]), "imex")
    with pytest.raises(DimensionError):
        fullsolve.trajectory_source(spec, np.array([0.0, 0.0, 1.0]), "imex")
    with pytest.raises(DimensionError):
        fullsolve.trajectory_source(spec, np.array([0.0, 0.1, 0.3]), "imex")
    with pytest.raises(DimensionError):
        fullsolve.trajectory_source(spec, np.array([0.0, 0.0]), "imex")


def test_divergence_raises_with_step_index():
    spec = make_spec([[0.0]], [[0.0]], [[2.0]],
                     nonlinear=lambda U, X, Y, t: U**3, t_final=20.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=r"non-finite state after step \d+ "):
            run_full(spec, fullsolve.TimeGrid(20.0, 20), scheme="imex")


def test_stepper_fallback_for_defective_operator():
    # Jordan block defeats the eigenbasis route; both schemes fall back
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[-3.0]])
    U0 = np.array([[1.0], [2.0]])
    spec = make_spec(A, B, U0, nonlinear=lambda U, X, Y, t: np.sin(U))
    h = 0.1
    F = problems.eval_nonlinear(spec, U0, 0.0)
    traj = run_full(spec, fullsolve.TimeGrid(h, 1), scheme="imex")
    ref = oracles.vectorized_imex_step(A, B, U0, F, h)
    assert np.allclose(traj.states[-1], ref, atol=1e-10)
    traj = run_full(spec, fullsolve.TimeGrid(h, 1), scheme="etd")
    ref = oracles.vectorized_etd_step(A, B, U0, F, h)
    assert np.allclose(traj.states[-1], ref, atol=1e-9)


# ------------------------------------------------- against the legacy formula

# ac1 and ac2 fold (ac2's periodic Laplacian has degenerate eigenvalue pairs);
# rdc and an odd n keep dense bases.  ac2 takes 100 steps: on 20 its explicit
# cubic term (h / eps2^2 = 2.3) makes every route, the legacy one too, diverge.
@pytest.mark.parametrize("name, n, n_t", [("ac1", 32, 20), ("rdc", 32, 20), ("ac2", 32, 100),
                                          ("ac1", 33, 20)],
                         ids=["ac1", "rdc", "ac2", "ac1-odd"])
@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_iter_full_matches_legacy_trajectory(name, n, n_t, scheme):
    spec = problems.build_problem(name, n)
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    folded = isinstance(prop.Qa, kernels.FoldedMatrix)
    assert folded == (name != "rdc" and n % 2 == 0)
    assert isinstance(prop.Qb, kernels.FoldedMatrix) == folded
    grid = fullsolve.TimeGrid(spec.t_final, n_t)
    ref = oracles.legacy_full_trajectory(spec, kernels.eig_pair(spec.A),
                                         kernels.eig_pair(spec.B), grid.h, grid.n_t, scheme)
    count = 0
    for i, t, U in fullsolve.iter_full(spec, grid, scheme):
        assert np.linalg.norm(U - ref[i]) <= 1e-12 * np.linalg.norm(ref[i])
        count += 1
    assert count == len(ref) == n_t + 1


def _bidiagonal_spec(sub):
    """A 5 x 5 tridiagonal A with unit superdiagonal and the given
    subdiagonal, a symmetric 4 x 4 B and a smooth entrywise F."""
    n = 5
    A = np.diag(-np.full(n, 1.5)) + np.diag(np.ones(n - 1), 1) + np.diag(sub * np.ones(n - 1), -1)
    B = np.diag([-1.0, -2.0, -0.5, -3.0]) + 0.1 * (np.eye(4, k=1) + np.eye(4, k=-1))
    U0 = np.random.default_rng(58).standard_normal((n, 4))
    return make_spec(A, B, U0, nonlinear=lambda U, X, Y, t: np.sin(U) + t, t_final=1.0)


@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_iter_full_complex_eigenbasis_matches_legacy_trajectory(scheme):
    # negative off-diagonal products keep general_eig: A's eigenvalues are complex
    spec = _bidiagonal_spec(-1.0)
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    assert not prop.fallback and np.iscomplexobj(prop.Qa)
    grid = fullsolve.TimeGrid(spec.t_final, 20)
    ref = oracles.legacy_full_trajectory(spec, kernels.general_eig(spec.A), kernels.eig_pair(spec.B),
                                         grid.h, grid.n_t, scheme)
    count = 0
    for i, t, U in fullsolve.iter_full(spec, grid, scheme):
        assert np.linalg.norm(U - ref[i]) <= 1e-12 * np.linalg.norm(ref[i])
        count += 1
    assert count == len(ref) == grid.n_t + 1


@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_iter_full_schur_fallback_matches_vectorized_trajectory(scheme):
    # upper bidiagonal with a repeated diagonal: one Jordan block, no eigenbasis
    spec = _bidiagonal_spec(0.0)
    assert kernels.eig_pair(spec.A) is None
    assert kernels.Propagator(spec.A, spec.B, scheme).fallback
    grid = fullsolve.TimeGrid(spec.t_final, 20)
    ref = oracles.vectorized_full_trajectory(spec, grid.h, grid.n_t, scheme)
    count = 0
    for i, t, U in fullsolve.iter_full(spec, grid, scheme):
        assert np.linalg.norm(U - ref[i]) <= 1e-12 * np.linalg.norm(ref[i])
        count += 1
    assert count == len(ref) == grid.n_t + 1


def test_trajectory_source_evaluates_f_once_per_node(monkeypatch):
    calls = []
    evaluate = problems.eval_nonlinear

    def counting(*args):
        calls.append(args[2])
        return evaluate(*args)

    monkeypatch.setattr(problems, "eval_nonlinear", counting)
    spec = problems.build_problem("ac1", 16)
    times = np.linspace(0.0, 1.0, 9)
    _, nonl, _ = fullsolve.trajectory_source(spec, times, "imex")
    assert calls == list(times)
    assert len(nonl.states) == len(times)


def test_divergence_step_index_matches_legacy():
    # non-normal A: a general, non-orthogonal eigenbasis
    A = np.array([[0.3, 4.0], [0.0, 0.1]])
    spec = make_spec(A, [[0.2]], [[1.0], [1.5]],
                     nonlinear=lambda U, X, Y, t: U**3, t_final=4.0)
    grid = fullsolve.TimeGrid(4.0, 40)
    for scheme in ("etd", "imex"):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = oracles.legacy_full_trajectory(spec, kernels.eig_pair(A), kernels.eig_pair(spec.B),
                                                 grid.h, grid.n_t, scheme)
            with pytest.raises(DivergenceError) as err:
                run_full(spec, grid, scheme=scheme)
        assert 1 < len(ref) - 1 < grid.n_t      # the legacy run diverged mid-run
        assert f"after step {len(ref) - 1} (" in str(err.value)


# ------------------------------------------------------ the factored snapshot run

FACTORED_N = 300    # above kernels.DENSE_SVD_MAX: trajectory_source keeps factors


def _dense_route(spec, times, scheme):
    """trajectory_source with DENSE_SVD_MAX raised past n: the dense run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "DENSE_SVD_MAX", 10**9)
        return fullsolve.trajectory_source(spec, times, scheme)


@functools.lru_cache(maxsize=None)
def _both_routes(name, scheme):
    spec = problems.build_problem(name, FACTORED_N)
    times = pod.candidate_times(spec.t_final, 24)
    factored = fullsolve.trajectory_source(spec, times, scheme)
    return spec, times, factored, _dense_route(spec, times, scheme)


def _is_factored(traj):
    return all(isinstance(M, kernels.SvdTriplet) for M in traj.states[1:])


ROUTE_CASES = pytest.mark.parametrize("name, scheme", [(p, s) for p in ("ac1", "rdc")
                                                       for s in ("imex", "etd")])


@ROUTE_CASES
def test_factored_run_matches_dense_route(name, scheme):
    spec, times, (state, nonl, _), (dstate, dnonl, _) = _both_routes(name, scheme)
    assert _is_factored(state) and _is_factored(nonl)
    assert isinstance(nonl.states[0], kernels.SvdTriplet)
    assert not any(isinstance(M, kernels.SvdTriplet) for M in dstate.states + dnonl.states)
    assert np.array_equal(state.matrix(0), spec.U0)
    for i, t in enumerate(times):
        U, want = state.matrix(i), dstate.matrix(i)
        assert np.linalg.norm(U - want) <= 1e-12 * np.linalg.norm(want)
        F = problems.eval_nonlinear(spec, U, t)
        assert np.linalg.norm(nonl.matrix(i) - F) <= 1e-12 * np.linalg.norm(F)
        # the factors are low rank and carry orthonormal singular vectors
        trip = nonl.states[i]
        assert len(trip.S) <= FACTORED_N // 4
        assert np.allclose(trip.U.T @ trip.U, np.eye(len(trip.S)), atol=1e-12)
        assert np.allclose(trip.V.T @ trip.V, np.eye(len(trip.S)), atol=1e-12)


@ROUTE_CASES
def test_factored_run_keeps_the_selection(name, scheme):
    _, _, factored, dense = _both_routes(name, scheme)
    for src, ref in zip(factored[:2], dense[:2]):
        basis, rep = pod.dynamic_pod(src, 1e-3, 50, 1e-3)
        want, wrep = pod.dynamic_pod(ref, 1e-3, 50, 1e-3)
        assert np.array_equal(rep.included_times, wrep.included_times)
        assert np.array_equal(rep.evaluated_times, wrep.evaluated_times)
        assert (basis.nu_l, basis.nu_r) == (want.nu_l, want.nu_r)
        assert rep.peak_storage_floats == wrep.peak_storage_floats
        assert np.allclose(rep.per_time_error, wrep.per_time_error, rtol=1e-6, atol=1e-12)


def test_rank_heavy_start_takes_the_dense_route():
    spec = problems.build_problem("ac1", FACTORED_N)
    spec.U0 = 0.05 * np.random.default_rng(90).standard_normal(spec.U0.shape)
    times = np.linspace(0.0, 0.5, 5)
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "imex")
    dstate, dnonl, _ = _dense_route(spec, times, "imex")
    for got, want in zip(state.states + nonl.states, dstate.states + dnonl.states):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


@functools.lru_cache(maxsize=None)
def _short_rdc_run():
    spec = problems.build_problem("rdc", FACTORED_N)
    times = np.linspace(0.0, 0.1, 4)
    return spec, times, _dense_route(spec, times, "etd")


# compressions in order: U0, F0, the first step (cold), F1 and the second step (warm)
@pytest.mark.parametrize("fail_at", [1, 2, 3, 4, 5])
def test_uncertified_compression_continues_the_snapshot_run_densely(monkeypatch, fail_at):
    spec, times, (dstate, dnonl, _) = _short_rdc_run()
    factored = (0, 0, 1, 1, 2)[fail_at - 1]     # nodes yielded before the failure
    compress, calls, evaluate, evals = kernels.compress, [], problems.eval_nonlinear, []

    def failing(M, start=None):
        calls.append(start is not None)
        return None if len(calls) == fail_at else compress(M, start)

    def counting(*args):
        evals.append(args[2])
        return evaluate(*args)

    monkeypatch.setattr(kernels, "compress", failing)
    monkeypatch.setattr(problems, "eval_nonlinear", counting)
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "etd")
    assert calls == [False, False, False, True, True][:fail_at]
    assert len(evals) <= len(times) + 1         # no node is stepped twice
    for i in range(len(times)):
        assert isinstance(state.snapshot(i), kernels.SvdTriplet) == (0 < i < factored)
        assert isinstance(nonl.snapshot(i), kernels.SvdTriplet) == (i < factored)
        for got, want in ((state, dstate), (nonl, dnonl)):
            M, W = got.matrix(i), want.matrix(i)
            assert np.linalg.norm(M - W) <= 1e-12 * np.linalg.norm(W)
        if fail_at <= 3:                        # dense from node 0
            assert np.array_equal(state.matrix(i), dstate.matrix(i))


def _large_bidiagonal_spec(sub):
    """A of _bidiagonal_spec at FACTORED_N, B = -I, a rank-3 start and a
    cubic F, so that the states stay low rank."""
    n = FACTORED_N
    A = np.diag(-np.full(n, 1.5)) + np.diag(np.ones(n - 1), 1) + np.diag(sub * np.ones(n - 1), -1)
    rng = np.random.default_rng(91)
    U0 = rng.standard_normal((n, 3)) @ rng.standard_normal((3, n)) / n
    return make_spec(A, -np.eye(n), U0, nonlinear=lambda U, X, Y, t: U - U * U * U,
                     t_final=0.5)


def test_complex_coordinates_take_the_dense_route():
    spec = _large_bidiagonal_spec(-1.0)
    times = np.linspace(0.0, 0.5, 4)
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "imex")
    assert not any(isinstance(M, kernels.SvdTriplet) for M in state.states + nonl.states)


def test_factored_run_in_schur_coordinates():
    # a Jordan block: real Schur coordinates, in which advance returns a new matrix
    spec = _large_bidiagonal_spec(0.0)
    assert kernels.Propagator(spec.A, spec.B, "imex").fallback
    times = np.linspace(0.0, 0.5, 4)
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "imex")
    dstate, _, _ = _dense_route(spec, times, "imex")
    assert _is_factored(state) and _is_factored(nonl)
    for i in range(len(times)):
        want = dstate.matrix(i)
        assert np.linalg.norm(state.matrix(i) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name, n", [("ac1", 64), ("ac2", 64), ("rdc", 64), ("rdc", FACTORED_N)])
def test_snapshot_run_builds_its_step_factors_once(monkeypatch, name, n):
    # linspace spacings differ in their last bits; the run still steps with one h
    step_factors, calls = kernels.Propagator._step_factors, []

    def counting(self, h):
        calls.append(h)
        return step_factors(self, h)

    monkeypatch.setattr(kernels.Propagator, "_step_factors", counting)
    spec = problems.build_problem(name, n)
    times = pod.candidate_times(spec.t_final, 40)
    state, _, _ = fullsolve.trajectory_source(spec, times, "imex")
    assert calls == [(times[-1] - times[0]) / 39]
    assert _is_factored(state) == (n > kernels.DENSE_SVD_MAX)


def test_factored_run_holds_no_dense_snapshots():
    # the dense run holds 80 n x n snapshots; the factored one n x r factors
    # and a few transient n x n arrays
    spec = problems.build_problem("ac1", FACTORED_N)
    times = pod.candidate_times(spec.t_final, 40)
    tracemalloc.start()
    try:
        fullsolve.trajectory_source(spec, times, "imex")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * FACTORED_N**2


# --------------------------------------------------- the factored reference solve

def _dense_reference(spec, grid, scheme):
    """iter_full's states, copied, with DENSE_SVD_MAX raised past n: the dense route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "DENSE_SVD_MAX", 10**9)
        return [U.copy() for _, _, U in fullsolve.iter_full(spec, grid, scheme)]


@pytest.mark.parametrize("name", ["rdc", "ac1"])
def test_factored_reference_matches_dense_route(monkeypatch, name):
    spec = problems.build_problem(name, FACTORED_N)
    grid = fullsolve.TimeGrid(spec.t_final, 30)
    want = _dense_reference(spec, grid, "etd")
    update, dense_steps = kernels.etd_euler_update, []

    def counting(*args, **kwargs):
        dense_steps.append(1)
        return update(*args, **kwargs)

    monkeypatch.setattr(kernels, "etd_euler_update", counting)
    seen, yielded = [], []
    for i, t, U in fullsolve.iter_full(spec, grid, "etd"):
        assert np.isclose(t, grid.nodes[i])
        assert np.linalg.norm(U - want[i]) <= 1e-12 * np.linalg.norm(want[i])
        seen.append(i)
        yielded.append(U)
    assert seen == list(range(grid.n_t + 1))
    assert all(U is yielded[0] for U in yielded)    # one matrix, overwritten step by step
    assert not dense_steps                          # every step taken as factors


# compressions in order: U0, F0, the first step (cold), F1 and the second step (warm)
@pytest.mark.parametrize("fail_at", [1, 2, 3, 4, 5])
def test_uncertified_compression_continues_the_reference_densely(monkeypatch, fail_at):
    spec, times, (dstate, _, _) = _short_rdc_run()
    grid = fullsolve.TimeGrid(times[-1], len(times) - 1)
    compress, calls = kernels.compress, []

    def failing(M, start=None):
        calls.append(start is not None)
        return None if len(calls) == fail_at else compress(M, start)

    monkeypatch.setattr(kernels, "compress", failing)
    seen, yielded = [], []
    for i, t, U in fullsolve.iter_full(spec, grid, "etd"):
        want = dstate.matrix(i)
        assert np.linalg.norm(U - want) <= 1e-12 * np.linalg.norm(want)
        seen.append(i)
        yielded.append(U)
    assert calls == [False, False, False, True, True][:fail_at]
    assert seen == list(range(len(times)))
    assert all(U is yielded[0] for U in yielded)


def test_factored_reference_evaluates_f_only_where_a_step_uses_it(monkeypatch):
    spec, times, _ = _short_rdc_run()
    grid = fullsolve.TimeGrid(times[-1], len(times) - 1)
    evaluate, compress, evals, compressions = problems.eval_nonlinear, kernels.compress, [], []

    def counting_eval(*args):
        evals.append(args[2])
        return evaluate(*args)

    def counting_compress(M, start=None):
        compressions.append(start is not None)
        return compress(M, start)

    monkeypatch.setattr(problems, "eval_nonlinear", counting_eval)
    monkeypatch.setattr(kernels, "compress", counting_compress)
    assert [i for i, _, _ in fullsolve.iter_full(spec, grid, "etd")] == list(range(grid.n_t + 1))
    assert evals == list(grid.nodes[:-1])
    assert len(compressions) == 2 * grid.n_t + 1
    # the snapshot run keeps F at every node, the last one too
    evals.clear()
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "etd")
    assert _is_factored(state) and _is_factored(nonl)
    assert evals == list(times)


@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_factored_run_of_a_zero_state_stays_zero(monkeypatch, scheme):
    # U0 = 0 and F(0) = 0: every compression certifies rank 0, empty factors
    spec = dataclasses.replace(problems.build_problem("rdc", FACTORED_N),
                               U0=np.zeros((FACTORED_N, FACTORED_N)))
    grid = fullsolve.TimeGrid(0.01, 3)
    monkeypatch.setattr(kernels, "etd_euler_update", None)     # no dense step
    assert [np.count_nonzero(U) for _, _, U in fullsolve.iter_full(spec, grid, scheme)] == [0] * 4
    state, nonl, _ = fullsolve.trajectory_source(spec, grid.nodes, scheme)
    assert _is_factored(state) and all(len(state.snapshot(i).S) == 0 for i in range(1, 4))
    assert not np.any(state.matrix(3)) and not np.any(nonl.matrix(3))


def test_factored_reference_memory_does_not_grow_with_the_grid():
    # Bound fixed before measuring: the 40-step peak exceeds the 10-step one
    # by less than one n x n matrix (the dense run kept would add 30 of them).
    spec = problems.build_problem("rdc", FACTORED_N)
    peaks = []
    for n_t in (10, 40):
        tracemalloc.start()
        try:
            for _ in fullsolve.iter_full(spec, fullsolve.TimeGrid(spec.t_final, n_t), "etd"):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8 * FACTORED_N**2


@pytest.mark.parametrize("n", [64, FACTORED_N])
def test_f_is_evaluated_once_per_node_that_uses_it(monkeypatch, n):
    # the reference's step from the last node is never taken, so F is not
    # evaluated there; the snapshot run keeps F at every node
    spec = problems.build_problem("rdc", n)
    nonlinear, calls = spec.nonlinear, []

    def counting(U, X, Y, t):
        calls.append(t)
        return nonlinear(U, X, Y, t)

    step, dense_steps = kernels.etd_euler_update, []

    def counting_step(*args, **kwargs):
        dense_steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(kernels, "etd_euler_update", counting_step)
    spec = dataclasses.replace(spec, nonlinear=counting)
    grid = fullsolve.TimeGrid(spec.t_final, 12)
    assert [i for i, _, _ in fullsolve.iter_full(spec, grid, "etd")] == list(range(13))
    assert len(dense_steps) == (0 if n > kernels.DENSE_SVD_MAX else 12)
    assert calls == list(grid.nodes[:-1])
    calls.clear()
    times = grid.nodes[:-1]
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "imex")
    assert _is_factored(state) == _is_factored(nonl) == (n > kernels.DENSE_SVD_MAX)
    assert calls == list(times)

import dataclasses
import functools
import itertools
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


def _record_f(monkeypatch):
    """Wrap problems' two F entry points; each call appends (t, rows) with the
    row indices it evaluates, after checking that it spans every column."""
    calls, whole, part = [], problems.eval_nonlinear, problems.eval_nonlinear_at

    def counting_whole(spec, U, t):
        calls.append((t, np.arange(len(U))))
        return whole(spec, U, t)

    def counting_part(spec, Z, row_idx, col_idx, t):
        cols = np.arange(len(spec.grid_y))
        assert np.array_equal(cols[col_idx], cols)
        calls.append((t, np.arange(len(spec.grid_x))[row_idx]))
        return part(spec, Z, row_idx, col_idx, t)

    monkeypatch.setattr(problems, "eval_nonlinear", counting_whole)
    monkeypatch.setattr(problems, "eval_nonlinear_at", counting_part)
    return calls


def _f_sweeps(calls, n):
    """The node times of F's evaluations from (t, rows) per call: the calls
    at one node must cover rows 0, ..., n - 1 once each, in order."""
    nodes = []
    for t, group in itertools.groupby(calls, key=lambda call: call[0]):
        assert np.array_equal(np.concatenate([rows for _, rows in group]), np.arange(n))
        nodes.append(t)
    return nodes


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
def _short_run(name="rdc"):
    """rdc at FACTORED_N, or ac1 at MIRROR_N (the half-size mirrored route), 3 ETD
    steps, and its dense route."""
    spec = problems.build_problem(name, FACTORED_N if name == "rdc" else MIRROR_N)
    times = np.linspace(0.0, 0.1, 4)
    return spec, times, _dense_route(spec, times, "etd")


def _failing_compress(monkeypatch, fail_at):
    """Make the fail_at-th call of kernels.compress return None; the lists it
    returns collect each call's warm start (given or not) and input shape."""
    compress, calls, shapes = kernels.compress, [], []

    def failing(M, start=None):
        calls.append(start is not None)
        shapes.append(M.shape)
        return None if len(calls) == fail_at else compress(M, start)

    monkeypatch.setattr(kernels, "compress", failing)
    return calls, shapes


def _count_dense_steps(monkeypatch):
    """Wrap kernels.etd_euler_update; the list it returns gets one entry per dense step."""
    update, steps = kernels.etd_euler_update, []

    def counting(*args, **kwargs):
        steps.append(1)
        return update(*args, **kwargs)

    monkeypatch.setattr(kernels, "etd_euler_update", counting)
    return steps


# compressions in order: U0, F0, the first step (cold), F1 and the second step (warm);
# rdc runs at full size, ac1 (ids mirrored-*) on the half-size mirrored route, which
# hands over to the dense full-size run as the plain route does
UNCERTIFIED_CASES = pytest.mark.parametrize("name, fail_at", [
    pytest.param(name, k, id=f"{prefix}{k}")
    for name, prefix in (("rdc", ""), ("ac1", "mirrored-")) for k in range(1, 6)])
DENSE_FROM = (0, 0, 0, 1, 1)    # the node each fail_at's dense run starts from


@UNCERTIFIED_CASES
def test_uncertified_compression_continues_the_snapshot_run_densely(monkeypatch, name, fail_at):
    spec, times, (dstate, dnonl, _) = _short_run(name)
    n = len(spec.U0)
    factored = (0, 0, 1, 1, 2)[fail_at - 1]     # nodes yielded before the failure
    calls, shapes = _failing_compress(monkeypatch, fail_at)
    evals = _record_f(monkeypatch)
    dense_steps = _count_dense_steps(monkeypatch)
    steps, yielded = fullsolve._steps, []

    def recording(*args, **kwargs):
        for node in steps(*args, **kwargs):
            yielded.append(node[2])
            yield node

    monkeypatch.setattr(fullsolve, "_steps", recording)
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "etd")
    assert calls == [False, False, False, True, True][:fail_at]
    assert set(shapes) == {(n // 2, n // 2) if name == "ac1" else (n, n)}
    assert len(dense_steps) == len(times) - 1 - DENSE_FROM[fail_at - 1]
    assert len(yielded) == len(times) and all(U is yielded[0] for U in yielded)
    # no node is stepped twice: F's rows are evaluated at most len(times) + 1 times
    assert sum(len(rows) for _, rows in evals) <= (len(times) + 1) * n
    for i in range(len(times)):
        assert isinstance(state.snapshot(i), kernels.SvdTriplet) == (0 < i < factored)
        assert isinstance(nonl.snapshot(i), kernels.SvdTriplet) == (i < factored)
        for got, want in ((state, dstate), (nonl, dnonl)):
            M, W = got.matrix(i), want.matrix(i)
            assert np.linalg.norm(M - W) <= 1e-12 * np.linalg.norm(W)
        if fail_at <= 3:                        # dense from node 0
            assert np.array_equal(state.matrix(i), dstate.matrix(i))


# above DENSE_SVD_MAX, not a multiple of ROW_BLOCK (a part block is left over), and a
# multiple of 16: OpenBLAS's Haswell kernels round the last n mod 8 columns of a row
# block of a skinny product differently from the whole product's (n = 300 shows it),
# and wider kernels may group columns by 16
BLOCKED_N = 304


@pytest.mark.parametrize("name", ["ac1", "rdc"])
@pytest.mark.parametrize("scheme", ["etd", "imex"])
def test_row_blocked_sweeps_round_like_one_shot_products(name, scheme):
    n = BLOCKED_N
    assert n % kernels.ROW_BLOCK and n % 16 == 0
    spec = problems.build_problem(name, n)
    times = pod.candidate_times(spec.t_final, 6)
    # each node's state is L R^T and its F compresses F(U), both as whole products
    start, seen = None, []
    for i, t, U, factors, ftrip in fullsolve._steps(spec, times, times[1] - times[0], scheme,
                                                     f_at_last=True):
        assert (factors is None) == (i == 0)
        if factors is not None:
            assert np.array_equal(U, factors[0] @ factors[1].T)
        want = kernels.compress(problems.eval_nonlinear(spec, U, t), start)
        for got, w in zip((ftrip.U, ftrip.S, ftrip.V), (want.U, want.S, want.V)):
            assert np.array_equal(got, w)
        start = ftrip.V
        seen.append(i)
    assert seen == list(range(len(times)))
    # the fused step against the one-shot oracle, folded (ac1) or dense (rdc) bases
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    assert isinstance(prop.Qa, kernels.FoldedMatrix) == (name == "ac1")
    rng = np.random.default_rng(95)
    Lc, Rc = prop.map_factors(*rng.standard_normal((2, n, 7)))
    Lf, Rf = prop.map_factors(*rng.standard_normal((2, n, 5)))
    for h in (0.01, 0.09):      # rdc's etd flushes the far corner of ea eb^T at 0.09
        want = oracles.one_shot_factored_step(prop, Lc, Rc, Lf, Rf, h)
        assert np.array_equal(prop.advance_factors(Lc, Rc, Lf, Rf, h), want)


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


@pytest.mark.parametrize("name, n", [("ac1", 64), ("ac2", 64), ("rdc", 64), ("rdc", FACTORED_N),
                                     ("ac1", FACTORED_N)])
def test_snapshot_run_builds_its_step_factors_once(monkeypatch, name, n):
    # linspace spacings differ in their last bits; the run still steps with one h.
    # A dense step reads E and P, a factored etd step only P, a factored imex step only E.
    build, calls = kernels.Propagator._build, []

    def counting(self, factor, h):
        calls.append((factor, h))
        return build(self, factor, h)

    monkeypatch.setattr(kernels.Propagator, "_build", counting)
    spec = problems.build_problem(name, n)
    times = pod.candidate_times(spec.t_final, 40)
    h, factored = (times[-1] - times[0]) / 39, n > kernels.DENSE_SVD_MAX
    for scheme, read in (("imex", "E"), ("etd", "P")):
        calls.clear()
        state, _, _ = fullsolve.trajectory_source(spec, times, scheme)
        assert sorted(calls) == [(f, h) for f in (read if factored else "EP")]
        assert _is_factored(state) == factored


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
    dense_steps = _count_dense_steps(monkeypatch)
    seen, yielded = [], []
    for i, t, U in fullsolve.iter_full(spec, grid, "etd"):
        assert np.isclose(t, grid.nodes[i])
        assert np.linalg.norm(U - want[i]) <= 1e-12 * np.linalg.norm(want[i])
        seen.append(i)
        yielded.append(U)
    assert seen == list(range(grid.n_t + 1))
    assert all(U is yielded[0] for U in yielded)    # one matrix, overwritten step by step
    assert not dense_steps                          # every step taken as factors


# compressions in order as for the snapshot run
@UNCERTIFIED_CASES
def test_uncertified_compression_continues_the_reference_densely(monkeypatch, name, fail_at):
    spec, times, (dstate, _, _) = _short_run(name)
    n = len(spec.U0)
    grid = fullsolve.TimeGrid(times[-1], len(times) - 1)
    calls, shapes = _failing_compress(monkeypatch, fail_at)
    evals = _record_f(monkeypatch)
    dense_steps = _count_dense_steps(monkeypatch)
    seen, yielded = [], []
    for i, t, U in fullsolve.iter_full(spec, grid, "etd"):
        want = dstate.matrix(i)
        assert np.linalg.norm(U - want) <= 1e-12 * np.linalg.norm(want)
        seen.append(i)
        yielded.append(U)
    assert calls == [False, False, False, True, True][:fail_at]
    assert set(shapes) == {(n // 2, n // 2) if name == "ac1" else (n, n)}
    assert len(dense_steps) == grid.n_t - DENSE_FROM[fail_at - 1]
    assert sum(len(rows) for _, rows in evals) <= (len(times) + 1) * n
    assert seen == list(range(len(times)))
    assert all(U is yielded[0] for U in yielded)


def test_factored_reference_evaluates_f_only_where_a_step_uses_it(monkeypatch):
    spec, times, _ = _short_run()
    grid = fullsolve.TimeGrid(times[-1], len(times) - 1)
    compress, compressions = kernels.compress, []

    def counting_compress(M, start=None):
        compressions.append(start is not None)
        return compress(M, start)

    evals = _record_f(monkeypatch)
    monkeypatch.setattr(kernels, "compress", counting_compress)
    assert [i for i, _, _ in fullsolve.iter_full(spec, grid, "etd")] == list(range(grid.n_t + 1))
    assert _f_sweeps(evals, FACTORED_N) == list(grid.nodes[:-1])
    assert len(compressions) == 2 * grid.n_t + 1
    # the snapshot run keeps F at every node, the last one too
    evals.clear()
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "etd")
    assert _is_factored(state) and _is_factored(nonl)
    assert _f_sweeps(evals, FACTORED_N) == list(times)


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
        assert np.array_equal(Y.ravel(), spec.grid_y)     # every column, and X's rows
        calls.append((t, np.searchsorted(spec.grid_x, X.ravel())))
        return nonlinear(U, X, Y, t)

    dense_steps = _count_dense_steps(monkeypatch)
    spec = dataclasses.replace(spec, nonlinear=counting)
    grid = fullsolve.TimeGrid(spec.t_final, 12)
    assert [i for i, _, _ in fullsolve.iter_full(spec, grid, "etd")] == list(range(13))
    assert len(dense_steps) == (0 if n > kernels.DENSE_SVD_MAX else 12)
    assert _f_sweeps(calls, n) == list(grid.nodes[:-1])
    calls.clear()
    times = grid.nodes[:-1]
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "imex")
    assert _is_factored(state) == _is_factored(nonl) == (n > kernels.DENSE_SVD_MAX)
    assert _f_sweeps(calls, n) == list(times)


# ------------------------------------------------- the half-size mirrored run

MIRROR_N = 520      # ac1 with m = n / 2 = 260 > kernels.DENSE_SVD_MAX: the half-size route


def _compressed_shapes(mp):
    """Wrap kernels.compress; the list it returns collects each input's shape."""
    compress, shapes = kernels.compress, []

    def recording(M, start=None):
        shapes.append(M.shape)
        return compress(M, start)

    mp.setattr(kernels, "compress", recording)
    return shapes


def _run_steps(spec, times, scheme, mirror=True):
    """(U copied, factors, F) of every node of _steps, and the shapes it compressed;
    mirror=False takes the full-size route of a mirror-symmetric run."""
    with pytest.MonkeyPatch.context() as mp:
        shapes = _compressed_shapes(mp)
        if not mirror:
            mp.setattr(fullsolve, "_mirror", lambda spec: None)
        nodes = [(U.copy(), LR, F) for _, _, U, LR, F in
                 fullsolve._steps(spec, times, times[1] - times[0], scheme, True)]
    return nodes, shapes


@functools.lru_cache(maxsize=None)
def _mirror_routes(scheme):
    spec = problems.build_problem("ac1", MIRROR_N)
    times = pod.candidate_times(spec.t_final, 24)
    return spec, times, _run_steps(spec, times, scheme), _run_steps(spec, times, scheme, False)


@pytest.mark.parametrize("scheme", ["imex", "etd"])
def test_mirrored_run_matches_the_full_route(scheme):
    # Bound fixed before measuring: states and F snapshots within 1e-13 relative
    # of the full-size factored run at every node.
    spec, times, (half, shapes), (full, full_shapes) = _mirror_routes(scheme)
    m = MIRROR_N // 2
    assert fullsolve._mirror(spec)[2:] == (-1.0, 1.0)      # odd in x, even in y
    assert set(shapes) == {(m, m)} and set(full_shapes) == {(MIRROR_N, MIRROR_N)}
    assert len(half) == len(full) == len(times)
    assert np.array_equal(half[0][0], spec.U0) and half[0][1] is None
    for i, ((U, LR, F), (Uf, _, Ff), t) in enumerate(zip(half, full, times)):
        assert np.linalg.norm(U - Uf) <= 1e-13 * np.linalg.norm(Uf)
        assert np.linalg.norm(F.dense() - Ff.dense()) <= 1e-13 * np.linalg.norm(Ff.dense())
        if i > 0:       # U is exactly mirrored, and L R^T
            assert np.array_equal(U[::-1], -U) and np.array_equal(U[:, ::-1], U)
            assert np.linalg.norm(LR[0] @ LR[1].T - U) <= 1e-13 * np.linalg.norm(U)
        # the lifted triplets are orthonormal and within their tail of the F evaluated
        # there, allowing NEGLIGIBLE_REL sigma_1 for the rounding of the dense product,
        # which the tail does not cover (kernels.compress's docstring)
        for X in (F.U, F.V):
            assert np.allclose(X.T @ X, np.eye(len(F.S)), atol=1e-12)
        want = problems.eval_nonlinear(spec, U, t)
        assert np.linalg.norm(F.dense() - want) <= F.tail + kernels.NEGLIGIBLE_REL * F.S[0]


def test_mirrored_reference_matches_the_full_route(monkeypatch):
    # iter_full does not evaluate F at the last node; bound as above, 1e-13 relative
    spec = problems.build_problem("ac1", MIRROR_N)
    grid = fullsolve.TimeGrid(spec.t_final, 12)
    yielded = [U for _, _, U in fullsolve.iter_full(spec, grid, "etd")]
    assert all(U is yielded[0] for U in yielded)
    half = [U.copy() for _, _, U in fullsolve.iter_full(spec, grid, "etd")]
    monkeypatch.setattr(fullsolve, "_mirror", lambda spec: None)
    full = [U.copy() for _, _, U in fullsolve.iter_full(spec, grid, "etd")]
    assert len(half) == len(full) == grid.n_t + 1
    assert np.array_equal(half[0], spec.U0) and np.array_equal(half[-1][::-1], -half[-1])
    for U, want in zip(half, full):
        assert np.linalg.norm(U - want) <= 1e-13 * np.linalg.norm(want)


def test_mirrored_run_falls_back_where_f_breaks_parity(monkeypatch):
    # an x-dependent term from t1 on breaks F's parity at the first node after t1, and
    # the run goes on densely at full size from the state in U there.  Bound fixed
    # before measuring: from node 5 on, states and F within 1e-13 relative of the
    # full-size factored route.
    spec = problems.build_problem("ac1", MIRROR_N)
    times = pod.candidate_times(spec.t_final, 8)
    h, f, t1 = times[1] - times[0], spec.nonlinear, times[4]

    def switched(U, X, Y, t):
        return f(U, X, Y, t) + (1e-3 * X if t > t1 else 0.0)

    spec = dataclasses.replace(spec, nonlinear=switched)
    full, _ = _run_steps(spec, times, "imex", mirror=False)
    shapes = _compressed_shapes(monkeypatch)
    half, yielded = [], []
    for _, _, U, LR, F in fullsolve._steps(spec, times, h, "imex", f_at_last=True):
        half.append((U.copy(), LR, F))
        yielded.append(U)
    m = MIRROR_N // 2
    # half size for U0 and F and the step at nodes 0-4, then no compression
    assert shapes == [(m, m)] * 11
    assert len(half) == len(times) and all(U is yielded[0] for U in yielded)
    for i, ((U, LR, F), (Uf, _, Ff)) in enumerate(zip(half, full)):
        assert np.linalg.norm(U - Uf) <= 1e-13 * np.linalg.norm(Uf)
        if i >= 5:
            assert LR is None and isinstance(F, np.ndarray)
            assert np.linalg.norm(F - Ff.dense()) <= 1e-13 * np.linalg.norm(F)
    # nodes 6 and 7: dense steps by hand from node 5's state, through a fresh
    # full-size propagator
    prop, U = kernels.Propagator(spec.A, spec.B, "imex"), half[5][0].copy()
    Uhat = prop.to_coords(U)
    for i in (6, 7):
        F = problems.eval_nonlinear(spec, U, times[i - 1])
        assert np.array_equal(F, half[i - 1][2])
        Uhat, U = kernels.etd_euler_update(prop, Uhat, F, h, out=U)
        assert np.array_equal(U, half[i][0])


def _off_parity(spec):
    E = np.random.default_rng(96).standard_normal(spec.U0.shape)
    return dataclasses.replace(spec, U0=spec.U0 + 1e-12 * np.linalg.norm(spec.U0) / np.linalg.norm(E) * E)


@pytest.mark.parametrize("name, n, change", [
    ("ac1", MIRROR_N, _off_parity), ("ac1", MIRROR_N + 1, None), ("rdc", MIRROR_N, None),
    ("ac2", MIRROR_N, None), ("ac1", 300, None), ("ac1", 512, None)],
    ids=["off-parity", "odd", "rdc", "ac2", "ac1-300", "ac1-512"])
def test_runs_that_are_not_mirror_symmetric_keep_the_full_size(monkeypatch, name, n, change):
    # U0 off parity by 1e-12, odd n, a pair that is not centrosymmetric (rdc), a start
    # that is even under the periodic reflection but not under J (ac2), and m <= 256
    spec = problems.build_problem(name, n)
    spec = change(spec) if change else spec
    shapes = _compressed_shapes(monkeypatch)
    fullsolve.trajectory_source(spec, np.linspace(0.0, 0.02, 3), "imex")
    assert fullsolve._mirror(spec) is None
    assert shapes and set(shapes) == {(n, n)}


@pytest.mark.parametrize("s, q", [(-1.0, 1.0), (1.0, -1.0)])
def test_mirrored_sweep_forms_u_and_measures_f_against_its_quarter(s, q):
    # an F off parity everywhere (a term in x and y): the defect is ||F - [I; s J] Fq [I, q J]||_F
    n, m, rng = 70, 35, np.random.default_rng(97)
    spec = make_spec(np.eye(n), np.eye(n), np.zeros((n, n)),
                     nonlinear=lambda U, X, Y, t: U - U**3 + t * X * Y**2)
    L, R = rng.standard_normal((2, m, 3))
    U, Fq = np.full((n, n), np.nan), np.empty((m, m))
    defect = fullsolve._mirrored_sweep(spec, U, Fq, (L, R), s, q, 0.1)
    (Ll, Rl), _ = fullsolve._lifted((L, R), None, s, q, 0.0)
    assert np.array_equal(U[:m, :m], L @ R.T)
    assert np.array_equal(U[::-1], s * U) and np.array_equal(U[:, ::-1], q * U)
    assert np.linalg.norm(U - Ll @ Rl.T) <= 1e-14 * np.linalg.norm(U)
    F = problems.eval_nonlinear(spec, U, 0.1)
    assert np.array_equal(Fq, F[:m, :m])
    want = np.linalg.norm(F - np.block([[Fq, q * Fq[:, ::-1]], [s * Fq[::-1], s * q * Fq[::-1, ::-1]]]))
    assert want > 0.1 * np.linalg.norm(F) and abs(defect - want) <= 1e-13 * want
    # without t, U is formed and nothing is evaluated
    assert fullsolve._mirrored_sweep(spec, U, Fq, (L, R), s, q, None) == 0.0

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import full_step, make_spec, run_full, stable_pair
from mor2 import fullsolve, kernels, problems
from mor2.errors import ConditioningError, DimensionError, DivergenceError


# -------------------------------------------------------------------- time grid

def test_time_grid_nodes():
    grid = fullsolve.TimeGrid(1.0, 4)
    assert grid.h == 0.25
    assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    point = fullsolve.TimeGrid(2.0, 0, t0=1.0)
    assert np.allclose(point.nodes, [1.0])


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
    it = fullsolve.iter_full(spec, fullsolve.TimeGrid(spec.t_final, 6), "etd")
    next(it)
    _, _, first = next(it)
    tracemalloc.start()
    try:
        _, _, U = next(it)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert U is first
    # F at the new state is the one n x n array a step allocates
    assert peak < 1.5 * U.nbytes


def test_trajectory_source_contents():
    rng = np.random.default_rng(76)
    A, B = stable_pair(rng, 3, 3, symmetric=True)
    spec = make_spec(A, B, rng.standard_normal((3, 3)),
                     nonlinear=lambda U, X, Y, t: np.cos(U))
    times = np.linspace(0.0, 0.4, 9)
    state, nonl, seconds = fullsolve.trajectory_source(spec, times, "imex")
    assert seconds >= 0.0
    assert state.kind == "state" and nonl.kind == "nonlinearity"
    assert len(state.states) == 9
    assert np.allclose(state.matrix(0), spec.U0)
    assert np.allclose(nonl.matrix(4),
                       problems.eval_nonlinear(spec, state.matrix(4), times[4]))


def test_trajectory_source_requires_increasing_times():
    spec = make_spec([[-1.0]], [[-1.0]], [[1.0]])
    with pytest.raises(DimensionError):
        fullsolve.trajectory_source(spec, np.array([0.0, 0.5, 0.4]))
    with pytest.raises(DimensionError):
        fullsolve.trajectory_source(spec, np.array([0.0, 0.0, 1.0]))


def test_divergence_raises_with_step_index():
    spec = make_spec([[0.0]], [[0.0]], [[2.0]],
                     nonlinear=lambda U, X, Y, t: U**3, t_final=20.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            run_full(spec, fullsolve.TimeGrid(20.0, 20), scheme="imex")
    assert err.value.step is not None


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
    folded = isinstance(kernels.Propagator(spec.A, spec.B, scheme).Qa, kernels.FoldedMatrix)
    assert folded == (name != "rdc" and n % 2 == 0)
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
    with pytest.raises(ConditioningError):
        kernels.eig_pair(spec.A)
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
        assert err.value.step == len(ref) - 1

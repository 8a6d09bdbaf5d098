import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import (identity_model, identity_pair, make_spec, offline_pipeline, reduced_step,
                      run_full, stable_pair)
from mor2 import deim, fullsolve, kernels, pod, problems, rom
from mor2.errors import DimensionError, DivergenceError, SingularityError


def random_model(rng, spec, k1, k2, p1, p2):
    n, m = spec.U0.shape
    ubasis = pod.BasisPair(oracles.random_orthonormal(rng, n, k1),
                           oracles.random_orthonormal(rng, m, k2),
                           np.ones(k1), np.ones(k2), 1e-3, 4, max(k1, k2))
    fbasis = pod.BasisPair(oracles.random_orthonormal(rng, n, p1),
                           oracles.random_orthonormal(rng, m, p2),
                           np.ones(p1), np.ones(p2), 1e-3, 4, max(p1, p2))
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    return rom.assemble_rom(spec, ubasis, factors), ubasis, factors


# --------------------------------------------------------------------- assembly

def test_assemble_identity_bases_reproduce_operators():
    rng = np.random.default_rng(131)
    A, B = stable_pair(rng, 5, 5, symmetric=True)
    U0 = rng.standard_normal((5, 5))
    spec = make_spec(A, B, U0, nonlinear=lambda U, X, Y, t: U - U**3)
    model, _ = identity_model(spec)
    assert np.allclose(model.Ak, A, atol=1e-13)
    assert np.allclose(model.Bk, B, atol=1e-13)
    assert np.allclose(model.Y0, U0, atol=1e-13)
    assert not model.propagator.fallback
    assert np.allclose(model.propagator.Qa_inv, model.propagator.Qa.T)
    la, lb = np.linalg.eigvals(A), np.linalg.eigvals(B)
    sep = np.min(np.abs(la[:, None] + lb[None, :]))
    assert np.isclose(model.propagator.separation, sep)


def test_assemble_looks_up_sample_points_once():
    rng = np.random.default_rng(140)
    A, B = stable_pair(rng, 6, 5, symmetric=True)
    spec = make_spec(A, B, rng.standard_normal((6, 5)))
    model, _, factors = random_model(rng, spec, 3, 2, 3, 3)
    X, Y = model.factors.points
    assert np.array_equal(X, spec.grid_x[factors.row_idx][:, None])
    assert np.array_equal(Y, spec.grid_y[factors.col_idx][None, :])


def test_assemble_is_a_rayleigh_projection():
    rng = np.random.default_rng(132)
    n = 12
    A = rng.standard_normal((n, n))
    A = A + A.T
    B = rng.standard_normal((n, n)) - 3.0 * n * np.eye(n)
    U0 = rng.standard_normal((n, n))
    spec = make_spec(A, B, U0)
    model, ubasis, _ = random_model(rng, spec, 4, 3, 3, 3)
    assert np.allclose(model.Ak, ubasis.Vl.T @ A @ ubasis.Vl, atol=1e-12)
    assert np.allclose(model.Ak, model.Ak.T)
    assert np.allclose(model.Bk, ubasis.Wr.T @ B @ ubasis.Wr, atol=1e-12)
    assert np.allclose(model.Y0, ubasis.Vl.T @ U0 @ ubasis.Wr, atol=1e-12)


def test_assemble_projected_spectrum_contained():
    rng = np.random.default_rng(133)
    A = rng.standard_normal((10, 10))
    A = A + A.T
    spec = make_spec(A, A, rng.standard_normal((10, 10)))
    model, _, _ = random_model(rng, spec, 4, 4, 2, 2)
    lo, hi = np.linalg.eigvalsh(A)[[0, -1]]
    lk = np.linalg.eigvalsh(model.Ak)
    assert lk.min() >= lo - 1e-10 and lk.max() <= hi + 1e-10


def test_assemble_defective_overlapping_spectra_raises():
    spec = make_spec(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0]]),
                     np.ones((2, 1)))
    ubasis = identity_pair(2, 1)
    fbasis = identity_pair(2, 1)
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    with pytest.raises(SingularityError):
        rom.assemble_rom(spec, ubasis, factors)


def test_assemble_defective_but_separated_falls_back():
    spec = make_spec(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.array([[-2.0]]),
                     np.ones((2, 1)))
    model, _ = identity_model(spec)
    assert model.propagator.fallback
    assert np.isclose(model.propagator.separation, 3.0)


# ------------------------------------------------------------------ single step

def test_etd_step_zero_nonlinearity_is_semigroup():
    rng = np.random.default_rng(134)
    A, B = stable_pair(rng, 4, 4, symmetric=True)
    spec = make_spec(A, B, rng.standard_normal((4, 4)))
    model, _ = identity_model(spec)
    Y = rng.standard_normal((4, 4))
    h = 0.3
    want = oracles.pade_expm(h * A) @ Y @ oracles.pade_expm(h * B)
    assert np.allclose(reduced_step(model, Y, 0.0, h), want, atol=1e-11)


def test_etd_step_scalar_closed_form():
    a, b, y, h = -1.0, 0.5, 1.5, 0.1
    spec = make_spec([[a]], [[b]], [[y]], nonlinear=lambda U, X, Y, t: U**2)
    model, _ = identity_model(spec)
    z = h * (a + b)
    want = np.exp(z) * y + h * ((np.exp(z) - 1.0) / z) * y**2
    out = reduced_step(model, np.array([[y]]), 0.0, h)
    assert np.allclose(out, [[want]], atol=1e-13)


def test_etd_step_matches_kron_oracle():
    rng = np.random.default_rng(135)
    A, B = stable_pair(rng, 16, 16, symmetric=True)
    spec = make_spec(A, B, rng.standard_normal((16, 16)),
                     nonlinear=lambda U, X, Y, t: U - U**3)
    model, ubasis, factors = random_model(rng, spec, 3, 4, 3, 3)
    h = 0.05
    for _ in range(5):
        Y = rng.standard_normal((3, 4))
        f = deim.reduced_nonlinear(factors, spec, Y, 0.0)
        ref = oracles.vectorized_etd_step(model.Ak, model.Bk, Y, f, h)
        assert np.allclose(reduced_step(model, Y, 0.0, h), ref, atol=1e-10)


def test_etd_step_fallback_matches_kron_oracle():
    rng = np.random.default_rng(136)
    spec = make_spec(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.array([[-2.0]]),
                     np.ones((2, 1)), nonlinear=lambda U, X, Y, t: np.sin(U))
    model, _ = identity_model(spec)
    assert model.propagator.fallback
    Y = rng.standard_normal((2, 1))
    F = np.sin(Y)
    ref = oracles.vectorized_etd_step(model.Ak, model.Bk, Y, F, 0.1)
    assert np.allclose(reduced_step(model, Y, 0.0, 0.1), ref, atol=1e-9)


# ------------------------------------------------------------------- online runs

def test_run_online_zero_steps():
    spec = make_spec([[-1.0]], [[-1.0]], [[2.0]])
    model, _ = identity_model(spec)
    traj = rom.run_online(model, fullsolve.TimeGrid(1.0, 0))
    assert len(traj.states) == 1
    assert np.allclose(traj.states[0], [[2.0]])
    assert traj.seconds >= 0.0


def test_run_online_linear_semigroup_identity():
    rng = np.random.default_rng(137)
    A, B = stable_pair(rng, 5, 5, symmetric=True)
    spec = make_spec(A, B, rng.standard_normal((5, 5)), t_final=0.6)
    model, _ = identity_model(spec)
    traj = rom.run_online(model, fullsolve.TimeGrid(0.6, 5))
    want = oracles.pade_expm(0.6 * A) @ spec.U0 @ oracles.pade_expm(0.6 * B)
    assert np.linalg.norm(traj.states[-1] - want) <= 1e-10 * np.linalg.norm(want)


def test_run_online_divergence_guard():
    spec = make_spec([[5.0]], [[5.0]], [[1.0]], t_final=4.0)
    model, _ = identity_model(spec)
    with pytest.raises(DivergenceError) as err:
        rom.run_online(model, fullsolve.TimeGrid(4.0, 4))
    assert err.value.step == 3


# ------------------------------------------------------------- lifting and error

def test_lift_properties():
    rng = np.random.default_rng(138)
    ubasis = pod.BasisPair(oracles.random_orthonormal(rng, 10, 3),
                           oracles.random_orthonormal(rng, 8, 2),
                           np.ones(3), np.ones(2), 1e-3, 4, 3)
    Y = rng.standard_normal((3, 2))
    assert np.allclose(rom.lift(ubasis, np.zeros((3, 2))), 0.0)
    assert np.isclose(np.linalg.norm(rom.lift(ubasis, Y)), np.linalg.norm(Y))
    U = ubasis.Vl @ Y @ ubasis.Wr.T
    assert np.allclose(rom.lift(ubasis, ubasis.Vl.T @ U @ ubasis.Wr), U, atol=1e-12)


def rom_and_matching_ref(rng, n_t=6):
    ubasis = pod.BasisPair(oracles.random_orthonormal(rng, 9, 3),
                           oracles.random_orthonormal(rng, 9, 3),
                           np.ones(3), np.ones(3), 1e-3, 4, 3)
    times = np.linspace(0.0, 1.0, n_t + 1)
    states = [rng.standard_normal((3, 3)) for _ in times]
    romtraj = fullsolve.Trajectory(times, states)
    ref = fullsolve.Trajectory(times.copy(), [rom.lift(ubasis, Y) for Y in states])
    return ubasis, romtraj, ref


def mean_error(ref, romtraj, ubasis):
    return rom.relative_errors(ref, romtraj, lambda Y: rom.lift(ubasis, Y))[0]


def test_average_error_zero_for_identical():
    rng = np.random.default_rng(139)
    ubasis, romtraj, ref = rom_and_matching_ref(rng)
    assert mean_error(ref, romtraj, ubasis) <= 1e-14


def test_average_error_one_for_zero_model():
    rng = np.random.default_rng(140)
    ubasis, romtraj, ref = rom_and_matching_ref(rng)
    zero = fullsolve.Trajectory(romtraj.times, [np.zeros((3, 3)) for _ in romtraj.states])
    assert np.isclose(mean_error(ref, zero, ubasis), 1.0)


def test_average_error_initial_node_excluded():
    rng = np.random.default_rng(141)
    ubasis, romtraj, ref = rom_and_matching_ref(rng)
    # corrupt only the shared initial state: the measure must ignore it
    romtraj.states[0] = romtraj.states[0] + 100.0
    assert mean_error(ref, romtraj, ubasis) <= 1e-14


def test_average_error_skips_zero_reference_nodes():
    rng = np.random.default_rng(142)
    ubasis, romtraj, ref = rom_and_matching_ref(rng)
    ref.states[3] = np.zeros((9, 9))
    romtraj.states[3] = romtraj.states[3] + 50.0
    assert mean_error(ref, romtraj, ubasis) <= 1e-14


def test_average_error_requires_shared_nodes():
    rng = np.random.default_rng(143)
    ubasis, romtraj, ref = rom_and_matching_ref(rng)
    off = fullsolve.Trajectory(romtraj.times + 0.013, romtraj.states)
    with pytest.raises(DimensionError):
        mean_error(ref, off, ubasis)


def test_relative_errors_streamed_reference_matches_stored():
    rng = np.random.default_rng(145)
    ubasis, romtraj, ref = rom_and_matching_ref(rng, n_t=9)
    romtraj.states[4] = romtraj.states[4] + 1.0

    def lift(Y):
        return rom.lift(ubasis, Y)

    def running_mean(per_node):
        total = 0.0
        for _, e in per_node:
            total += e
        return total / len(per_node)

    mean, per_node = rom.relative_errors(ref, romtraj, lift)
    assert [t for t, _ in per_node] == list(ref.times[1:])
    assert per_node[3][1] > 0.0 and mean == running_mean(per_node)
    # a streamed reference, consumed once, on every third node only
    stream = ((t, U.copy()) for t, U in zip(ref.times[::3], ref.states[::3]))
    mean3, per_node3 = rom.relative_errors(stream, romtraj, lift)
    assert per_node3 == per_node[2::3]
    assert mean3 == running_mean(per_node3)


# ------------------------------------------------------------------ collapse/symmetry

def test_identity_bases_collapse_to_full_etd():
    spec = problems.build_problem("ac1", 16)
    model, ubasis = identity_model(spec)
    grid = fullsolve.TimeGrid(spec.t_final, 60)
    romtraj = rom.run_online(model, grid)
    ref = run_full(spec, grid, scheme="etd")
    worst = 0.0
    for Uref, Y in zip(ref.states, romtraj.states):
        worst = max(worst, np.linalg.norm(Uref - rom.lift(ubasis, Y))
                    / max(np.linalg.norm(Uref), 1e-300))
    assert worst <= 1e-9


def test_symmetric_stream_preserves_state_symmetry():
    n = 16
    L = problems.build_laplacian_1d(n, "dirichlet", 0.0, 2.0 * np.pi)
    x = problems.grid_1d(n, "dirichlet", 0.0, 2.0 * np.pi)
    spec = make_spec(0.01 * L, 0.01 * L.copy(),
                     0.05 * np.outer(np.sin(x), np.sin(x)),
                     nonlinear=lambda U, X, Y, t: U - U**3, t_final=5.0)
    times = pod.candidate_times(spec.t_final, 24)
    state, nonl, _ = fullsolve.trajectory_source(spec, times, "imex")
    ubasis, _ = pod.dynamic_pod(state, 1e-3, 30, 1e-3)
    fbasis, _ = pod.dynamic_pod(nonl, 1e-3, 30, 1e-3)
    assert ubasis.symmetric and fbasis.symmetric
    # spans agree up to column signs: all principal angles vanish
    angles = np.linalg.svd(ubasis.Vl.T @ ubasis.Wr, compute_uv=False)
    assert angles.min() >= 1.0 - 1e-10
    op = deim.build_deim(fbasis)
    assert np.array_equal(op.row_idx, op.col_idx)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    model = rom.assemble_rom(spec, ubasis, factors)
    traj = rom.run_online(model, fullsolve.TimeGrid(5.0, 100))
    for Y in traj.states:
        U = rom.lift(ubasis, Y)
        assert np.linalg.norm(U - U.T) <= 1e-9 * max(np.linalg.norm(U), 1e-300)


# ------------------------------------------------------------- error measure

def test_average_error_vector_identical_zero():
    # the lift may map any reduced representation, here vectorized states
    rng = np.random.default_rng(148)
    grid = fullsolve.TimeGrid(0.5, 5)
    traj = fullsolve.Trajectory(grid.nodes, [rng.standard_normal(9) for _ in grid.nodes])

    def lift(y):
        return y.reshape((3, 3), order="F")

    ref = fullsolve.Trajectory(grid.nodes, [lift(y) for y in traj.states])
    assert rom.relative_errors(ref, traj, lift)[0] <= 1e-13
    zero = fullsolve.Trajectory(traj.times, [np.zeros_like(y) for y in traj.states])
    assert np.isclose(rom.relative_errors(ref, zero, lift)[0], 1.0)


# ------------------------------------------------- against the legacy formula

def _legacy_online(model, factors, grid):
    return oracles.legacy_reduced_trajectory(
        model.Ak, model.Bk, model.Y0, factors, model.spec, kernels.eig_pair(model.Ak),
        kernels.eig_pair(model.Bk), grid.h, grid.n_t)


@pytest.mark.parametrize("name", ["ac1", "rdc"])
def test_run_online_matches_legacy_trajectory(name):
    spec = problems.build_problem(name, 32)
    pipe = offline_pipeline(spec, n_max=20, kappa=20, tau=1e-3)
    model = rom.assemble_rom(spec, pipe["ubasis"], pipe["factors"])
    grid = fullsolve.TimeGrid(spec.t_final, 20)
    traj = rom.run_online(model, grid)
    ref = _legacy_online(model, pipe["factors"], grid)
    assert len(traj.states) == len(ref) == 21
    for Y, want in zip(traj.states, ref):
        assert np.linalg.norm(Y - want) <= 1e-12 * np.linalg.norm(want)


def test_run_online_complex_basis_matches_legacy_trajectory():
    rng = np.random.default_rng(139)
    A, B = stable_pair(rng, 12, 10, symmetric=False)
    spec = make_spec(A, B, rng.standard_normal((12, 10)),
                     nonlinear=lambda U, X, Y, t: np.sin(U))
    model, _, factors = random_model(rng, spec, 4, 3, 4, 4)
    assert np.iscomplexobj(model.propagator.Qa)
    grid = fullsolve.TimeGrid(1.0, 20)
    traj = rom.run_online(model, grid)
    ref = _legacy_online(model, factors, grid)
    for Y, want in zip(traj.states, ref):
        assert np.isrealobj(Y)
        assert np.linalg.norm(Y - want) <= 1e-12 * np.linalg.norm(want)


def _online_model(route):
    if route in ("ac1", "rdc"):
        spec = problems.build_problem(route, 32)
        pipe = offline_pipeline(spec, n_max=20, kappa=20, tau=1e-3)
        return rom.assemble_rom(spec, pipe["ubasis"], pipe["factors"]), 20
    if route == "complex":
        rng = np.random.default_rng(139)
        A, B = stable_pair(rng, 12, 10, symmetric=False)
        spec = make_spec(A, B, rng.standard_normal((12, 10)),
                         nonlinear=lambda U, X, Y, t: np.sin(U))
        return random_model(rng, spec, 4, 3, 4, 4)[0], 20
    spec = make_spec(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.array([[-2.0]]),
                     np.ones((2, 1)), nonlinear=lambda U, X, Y, t: np.sin(U) + t)
    return identity_model(spec)[0], 8


@pytest.mark.parametrize("route", ["ac1", "rdc", "complex", "fallback"])
def test_run_online_is_stepping_etd_step_bit_for_bit(route):
    model, n_t = _online_model(route)
    prop = model.propagator
    assert np.iscomplexobj(prop.Qa) == (route == "complex")
    assert prop.fallback == (route == "fallback")
    grid = fullsolve.TimeGrid(model.spec.t_final, n_t)
    traj = rom.run_online(model, grid)
    Yhat = prop.to_coords(model.Y0)
    want = [model.Y0]
    for t in grid.nodes[:-1]:
        Yhat = rom.etd_step(model, Yhat, t, grid.h)
        want.append(prop.to_physical(Yhat))
    assert len(traj.states) == len(want) == n_t + 1
    for Y, W in zip(traj.states, want):
        assert np.array_equal(Y, W)


def test_run_online_allocates_only_its_result():
    spec = problems.build_problem("rdc", 32)
    pipe = offline_pipeline(spec, n_max=20, kappa=20, tau=1e-3)
    model = rom.assemble_rom(spec, pipe["ubasis"], pipe["factors"])
    grid = fullsolve.TimeGrid(spec.t_final, 3000)
    first = rom.run_online(model, grid)
    tracemalloc.start()
    try:
        second = rom.run_online(model, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the states, the node times and the loop's list of them; no temporaries
    # of the trajectory's size
    nbytes = sum(np.asarray(Y).nbytes for Y in second.states)
    assert peak <= 1.25 * nbytes + 64 * 1024
    # each call returns memory of its own, which no later call writes into
    assert not np.shares_memory(first.states, second.states)
    kept = [np.array(Y) for Y in second.states]
    for Y in first.states:
        Y[...] = np.nan
    third = rom.run_online(model, grid)
    for Y, W, Z in zip(second.states, kept, third.states):
        assert np.array_equal(Y, W) and np.array_equal(Z, W)


def test_run_online_divergence_step_matches_legacy():
    # strongly non-normal A: coordinate and state norms differ by up to cond(Qa)
    spec = make_spec(np.array([[1.0, 300.0], [0.0, 0.999]]), [[0.5]], [[1.0], [-0.5]],
                     t_final=30.0)
    model, ubasis = identity_model(spec)
    fbasis = identity_pair(2, 1)
    factors = deim.precompute_rom_factors(ubasis, fbasis, deim.build_deim(fbasis))
    assert np.linalg.cond(model.propagator.Qa) > 100.0
    grid = fullsolve.TimeGrid(30.0, 40)
    ref = _legacy_online(model, factors, grid)
    assert 1 < len(ref) - 1 < grid.n_t
    with pytest.raises(DivergenceError) as err:
        rom.run_online(model, grid)
    assert err.value.step == len(ref) - 1

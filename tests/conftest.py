"""Shared fixtures: trained reduction pipelines reused across test modules."""

import numpy as np
import pytest

from mor2 import deim, fullsolve, kernels, pod, problems, rom


def offline_pipeline(spec, n_max, kappa, tau, tol=None):
    """Snapshots -> dynamic bases for both streams -> interpolation factors."""
    times = pod.candidate_times(spec.t_final, n_max)
    state_src, nonl_src, _ = fullsolve.trajectory_source(spec, times, "imex")
    tol = tau if tol is None else tol
    ubasis, urep = pod.dynamic_pod(state_src, tol, kappa, tau)
    fbasis, frep = pod.dynamic_pod(nonl_src, tol, kappa, tau)
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    return {
        "spec": spec, "state_src": state_src, "nonl_src": nonl_src,
        "ubasis": ubasis, "urep": urep, "fbasis": fbasis, "frep": frep,
        "op": op, "factors": factors,
    }


@pytest.fixture(scope="session")
def ac1_64():
    spec = problems.build_problem("ac1", 64)
    return offline_pipeline(spec, n_max=40, kappa=50, tau=1e-3)


@pytest.fixture(scope="session")
def rdc_64():
    spec = problems.build_problem("rdc", 64, eps1=0.05)
    return offline_pipeline(spec, n_max=60, kappa=50, tau=1e-3)


@pytest.fixture(scope="session")
def ac2_64():
    spec = problems.build_problem("ac2", 64)
    return offline_pipeline(spec, n_max=40, kappa=50, tau=1e-3)


@pytest.fixture(scope="session")
def ac1_1000():
    """The paper's size: the snapshot run keeps factors (n > DENSE_SVD_MAX)."""
    spec = problems.build_problem("ac1", 1000)
    return offline_pipeline(spec, n_max=40, kappa=50, tau=1e-3)


def identity_basis(n, tau=1e-3, n_max=4, kappa=None):
    """BasisPair wrapping the full identity: reduction becomes a no-op."""
    eye = np.eye(n)
    return pod.BasisPair(eye.copy(), eye.copy(), np.ones(n), np.ones(n),
                         tau, n_max, n if kappa is None else kappa)


def identity_pair(n, m):
    """Rectangular identity BasisPair for states of shape (n, m)."""
    return pod.BasisPair(np.eye(n), np.eye(m), np.ones(n), np.ones(m),
                         1e-3, 4, max(n, m))


def identity_model(spec):
    """Assemble the reduced model that reproduces the full problem exactly."""
    n, m = spec.U0.shape
    ubasis = identity_pair(n, m)
    fbasis = identity_pair(n, m)
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    return rom.assemble_rom(spec, ubasis, factors), ubasis


def make_spec(A, B, U0, nonlinear=None, t_final=1.0):
    """Ad-hoc problem around explicit operators, zero nonlinearity default."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    U0 = np.asarray(U0, dtype=float)
    if nonlinear is None:
        def nonlinear(U, X, Y, t):
            return np.zeros_like(U)
    return problems.ProblemSpec(
        name="synthetic", A=A, B=B, U0=U0, t_final=t_final,
        nonlinear=nonlinear, grid_x=np.arange(A.shape[0], dtype=float),
        grid_y=np.arange(B.shape[0], dtype=float), params={},
    )


def stable_pair(rng, n, m, symmetric=True):
    """Random operator pair shifted left so every eigenvalue sum is negative."""
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((m, m))
    if symmetric:
        A, B = A + A.T, B + B.T
    A -= (np.linalg.norm(A, 2) + 0.5) * np.eye(n)
    B -= (np.linalg.norm(B, 2) + 0.5) * np.eye(m)
    return A, B


def run_full(spec, grid, scheme="imex"):
    """The full-order run on the grid with every node kept: iter_full's states, copied."""
    return fullsolve.Trajectory(grid.nodes, [U.copy() for _, _, U in
                                             fullsolve.iter_full(spec, grid, scheme)])


def _orthonormal_completion(V, k, rng):
    """Pad an orthonormal matrix with random orthonormal columns up to k."""
    n, have = V.shape
    if have >= k:
        return V[:, :k].copy()
    G = rng.standard_normal((n, k - have))
    G -= V @ (V.T @ G)
    Q, _ = np.linalg.qr(G)
    return np.hstack([V, Q[:, : k - have]])


def fixed_rank_model(spec, n_max, kappa, tau, k, p, rng, tol=1e-3):
    """Train bases, then force exact dimensions (k, k) and (p, p).

    For timing across grid sizes, where the reduced dimensions must agree;
    padding keeps columns orthonormal.
    """
    times = pod.candidate_times(spec.t_final, n_max)
    state_src, nonl_src, _ = fullsolve.trajectory_source(spec, times, "imex")
    ub, _ = pod.dynamic_pod(state_src, tol, kappa, tau)
    fb, _ = pod.dynamic_pod(nonl_src, tol, kappa, tau)
    ub2 = pod.BasisPair(
        _orthonormal_completion(ub.Vl, k, rng),
        _orthonormal_completion(ub.Wr, k, rng),
        np.ones(k), np.ones(k), tau, n_max, kappa,
    )
    fb2 = pod.BasisPair(
        _orthonormal_completion(fb.Vl, p, rng),
        _orthonormal_completion(fb.Wr, p, rng),
        np.ones(p), np.ones(p), tau, n_max, kappa,
    )
    op = deim.build_deim(fb2)
    return rom.assemble_rom(spec, ub2, deim.precompute_rom_factors(ub2, fb2, op))


def full_step(spec, U, t, h, scheme):
    """One full-order step through a Propagator, from and to physical coordinates."""
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    F = problems.eval_nonlinear(spec, U, t)
    return kernels.etd_euler_update(prop, prop.to_coords(U), F, h, np.empty(U.shape))[1]


def reduced_step(model, Y, t, h):
    """One reduced step from basis coordinates Y, returned in basis coordinates."""
    prop = model.propagator
    return prop.to_physical(rom.etd_step(model, prop.to_coords(Y), t, h))

import numpy as np
import pytest

from mor2 import problems
from mor2.errors import ConfigError, DimensionError, InputError


# ------------------------------------------------------------------------ grids

def test_grid_dirichlet_interior_nodes():
    assert np.allclose(problems.grid_1d(4, "dirichlet", 0.0, 1.0), [0.2, 0.4, 0.6, 0.8])


def test_grid_neumann_includes_endpoints():
    assert np.allclose(problems.grid_1d(5, "neumann", 0.0, 1.0), np.linspace(0.0, 1.0, 5))
    # bit for bit: at n = 50, 49 steps of (b - a) / 49 end below b
    assert np.array_equal(problems.grid_1d(50, "neumann", 0.0, 1.0), np.linspace(0.0, 1.0, 50))


def test_grid_periodic_drops_right_endpoint():
    assert np.allclose(problems.grid_1d(4, "periodic", 0.0, 1.0), [0.0, 0.25, 0.5, 0.75])


def test_grid_unknown_bc():
    with pytest.raises(ConfigError):
        problems.grid_1d(4, "robin", 0.0, 1.0)
    with pytest.raises(ConfigError, match="robin"):
        problems.build_laplacian_1d(8, "robin", 0.0, 1.0, 1.0)


# -------------------------------------------------------------------- operators

def test_laplacian_dirichlet_small():
    L = problems.build_laplacian_1d(3, "dirichlet", 0.0, 1.0, 1.0)
    want = 16.0 * np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    assert np.allclose(L, want)
    assert np.allclose(L, L.T)


def test_laplacian_neumann_annihilates_constants():
    L = problems.build_laplacian_1d(7, "neumann", 0.0, 1.0, 1.0)
    assert np.allclose(L @ np.ones(7), 0.0, atol=1e-10)
    h = 1.0 / 6.0
    assert np.allclose(L[3, 2:5], np.array([1.0, -2.0, 1.0]) / h**2)


def test_laplacian_periodic_circulant():
    L = problems.build_laplacian_1d(6, "periodic", 0.0, 1.0, 1.0)
    assert np.allclose(L @ np.ones(6), 0.0, atol=1e-10)
    assert np.allclose(L, L.T)
    h = 1.0 / 6.0
    assert np.isclose(L[0, 5], 1.0 / h**2)
    assert np.isclose(L[5, 0], 1.0 / h**2)


def test_laplacian_second_order_dirichlet():
    # sin(pi x) vanishes at both walls, so the stencil should be O(h^2)
    errs = []
    for n in (16, 32):
        x = problems.grid_1d(n, "dirichlet", 0.0, 1.0)
        u = np.sin(np.pi * x)
        L = problems.build_laplacian_1d(n, "dirichlet", 0.0, 1.0, 1.0)
        errs.append(np.max(np.abs(L @ u + np.pi**2 * u)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_laplacian_second_order_neumann():
    # cos(pi x) has zero slope at both walls, matching the ghost closure
    errs = []
    for n in (17, 33):
        x = problems.grid_1d(n, "neumann", 0.0, 1.0)
        u = np.cos(np.pi * x)
        L = problems.build_laplacian_1d(n, "neumann", 0.0, 1.0, 1.0)
        errs.append(np.max(np.abs(L @ u + np.pi**2 * u)))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_laplacian_needs_three_nodes():
    with pytest.raises(DimensionError):
        problems.build_laplacian_1d(2, "dirichlet", 0.0, 1.0, 1.0)


def test_first_derivative_neumann():
    n = 9
    D = problems.build_first_derivative_1d(n, 0.0, 1.0)
    x = problems.grid_1d(n, "neumann", 0.0, 1.0)
    assert np.allclose(D @ np.ones(n), 0.0, atol=1e-12)
    dx = D @ x
    assert np.allclose(dx[1:-1], 1.0, atol=1e-10)
    assert dx[0] == 0.0 and dx[-1] == 0.0


# --------------------------------------------------------------- built problems

def test_ac1_structure():
    n = 12
    spec = problems.build_problem("ac1", n)
    assert spec.t_final == 5.0
    gx, gy = spec.grid_x, spec.grid_y
    assert np.isclose(gx[0], 2.0 * np.pi / (n + 1))
    assert np.allclose(spec.U0, 0.05 * np.outer(np.sin(gx), np.cos(gy)))
    L = problems.build_laplacian_1d(n, "dirichlet", 0.0, 2.0 * np.pi, 1.0)
    assert np.allclose(spec.A, 0.01 * L)
    assert np.allclose(spec.B, spec.A)
    U = np.linspace(-1.0, 1.0, n * n).reshape(n, n)
    assert np.allclose(problems.eval_nonlinear(spec, U, 0.0), -(U**3 - U))


def test_ac2_structure():
    n = 16
    spec = problems.build_problem("ac2", n)
    assert spec.t_final == 0.075
    assert np.isclose(spec.grid_x[0], -0.5)
    # interface profile peaks at the origin node
    mid = n // 2
    want = np.tanh(0.4 / (np.sqrt(2.0) * 0.04))
    assert np.isclose(spec.U0[mid, mid], want)
    assert np.all(np.abs(spec.U0) <= 1.0)
    L = problems.build_laplacian_1d(n, "periodic", -0.5, 0.5, 1.0)
    assert np.allclose(spec.A, L)


def test_ac2_accepts_eps_overrides():
    spec = problems.build_problem("ac2", 12, eps1=0.5, eps2=0.1)
    L = problems.build_laplacian_1d(12, "periodic", -0.5, 0.5, 1.0)
    assert np.allclose(spec.A, 0.5 * L)


def test_rdc_structure():
    n = 11
    spec = problems.build_problem("rdc", n, eps1=0.05)
    assert spec.t_final == 0.3
    L = problems.build_laplacian_1d(n, "neumann", 0.0, 1.0, 1.0)
    D = problems.build_first_derivative_1d(n, 0.0, 1.0)
    assert np.allclose(spec.A, 0.05 * L + D)
    assert np.allclose(spec.B, spec.A.T)
    # the hump initial state tops out at exactly 1.3 when 0.5 is a node
    assert np.isclose(spec.U0.max(), 1.3)
    spec10 = problems.build_problem("rdc", 10, eps1=0.05)
    assert spec10.U0.max() < 1.3
    U = np.array([[0.0, 0.5], [1.0, 0.25]])
    want = U * (U - 0.5) * (1.0 - U)
    assert np.allclose(spec.nonlinear(U, None, None, 0.0), want)


def test_build_problem_rejects_unknown():
    with pytest.raises(ConfigError):
        problems.build_problem("heat", 8)
    with pytest.raises(ConfigError):
        problems.build_problem("ac1", 8, bogus=1.0)


def test_eval_nonlinear_at_matches_full():
    spec = problems.build_problem("ac1", 10)
    rng = np.random.default_rng(7)
    U = rng.standard_normal((10, 10))
    rows = np.array([1, 4, 7])
    cols = np.array([0, 9])
    Z = U[np.ix_(rows, cols)]
    full = problems.eval_nonlinear(spec, U, 0.3)
    part = problems.eval_nonlinear_at(spec, Z, rows, cols, 0.3)
    assert np.allclose(part, full[np.ix_(rows, cols)])


# ----------------------------------------------------------- analytic functions

def test_analytic_catalog():
    f1 = problems.analytic_function("phi1", 8)
    assert f1.t_final == 2.0 and f1.x1_range == (0.0, 2.0)
    f2 = problems.analytic_function("phi2", 8)
    assert f2.t_final == 3.0 and f2.x2_range == (0.0, 1.5)
    f3 = problems.analytic_function("phi3", 8)
    assert f3.t_final == 5.0
    with pytest.raises(ConfigError):
        problems.analytic_function("phi9", 8)


def test_sample_analytic_orientation():
    fn = problems.analytic_function("phi1", 6)
    M = problems.sample_analytic(fn, 0.5)
    x1 = fn.grid_x1
    x2 = fn.grid_x2
    i, j = 2, 4
    want = x2[j] / np.sqrt(
        (x1[i] + x2[j] - 0.5) ** 2 + (2.0 * x1[i] - 1.5) ** 2 + 0.01**2
    )
    assert np.isclose(M[i, j], want)
    assert M.shape == (6, 6)


def test_sample_analytic_time_domain():
    fn = problems.analytic_function("phi1", 6)
    problems.sample_analytic(fn, 0.0)
    problems.sample_analytic(fn, fn.t_final)
    with pytest.raises(InputError):
        problems.sample_analytic(fn, -0.1)
    with pytest.raises(InputError):
        problems.sample_analytic(fn, fn.t_final + 0.5)

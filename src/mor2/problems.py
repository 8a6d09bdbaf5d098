"""Benchmark problems: semilinear matrix ODEs and analytic matrix functions.

Each PDE benchmark discretizes u_t = eps1 * Laplace(u) [+ u_x + u_y] + f(u)
on a square with a tensor grid, so the semidiscrete system has the matrix
form  Udot = A U + U B + F(U, t)  with A acting on the row (x) index and B
on the column (y) index.  F is evaluated entrywise, which is what makes the
sampled reduction of the nonlinearity possible downstream.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionError, InputError


# Intervals between the nodes on [a, b] per closure, less the node count.
_INTERVALS = {"dirichlet": 1, "neumann": -1, "periodic": 0}


def _spacing(n, bc, a, b):
    if bc not in _INTERVALS:
        raise ConfigError(f"unknown boundary condition {bc!r}")
    return (b - a) / (n + _INTERVALS[bc])


def grid_1d(n, bc, a, b):
    """Node coordinates matching the boundary treatment of build_laplacian_1d."""
    if bc == "neumann":
        return np.linspace(a, b, n)
    first = 1 if bc == "dirichlet" else 0     # dirichlet drops the left wall
    return a + _spacing(n, bc, a, b) * np.arange(first, first + n)


def build_laplacian_1d(n, bc, a, b, coeff):
    """Second-difference matrix on [a, b] with the given boundary closure.

    dirichlet: n interior nodes, h = (b-a)/(n+1), homogeneous values dropped.
    neumann:   n nodes including both boundaries, h = (b-a)/(n-1); zero-slope
               ghost nodes mirror the first interior neighbor, so the first
               and last rows read (-2, 2)/h^2 and (2, -2)/h^2.
    periodic:  n nodes, h = (b-a)/n, circulant wrap-around.
    """
    if n < 3:
        raise DimensionError("need at least three nodes")
    h = _spacing(n, bc, a, b)
    L = np.zeros((n, n))
    idx = np.arange(n)
    L[idx, idx] = -2.0
    L[idx[:-1], idx[:-1] + 1] = 1.0
    L[idx[1:], idx[1:] - 1] = 1.0
    if bc == "neumann":
        L[0, 1] = 2.0
        L[-1, -2] = 2.0
    elif bc == "periodic":
        L[0, -1] = 1.0
        L[-1, 0] = 1.0
    return (coeff / h**2) * L


def build_first_derivative_1d(n, a, b):
    """Centered first-difference matrix on the Neumann node layout.

    Under the zero-slope ghost closure the boundary rows vanish identically,
    which is consistent with the boundary condition they encode.
    """
    h = _spacing(n, "neumann", a, b)
    D = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    D[idx, idx + 1] = 0.5 / h
    D[idx, idx - 1] = -0.5 / h
    return D


@dataclass
class ProblemSpec:
    """A semilinear matrix ODE  Udot = A U + U B + F(U, t),  U(0) = U0."""

    name: str
    A: np.ndarray
    B: np.ndarray
    U0: np.ndarray
    t_final: float
    nonlinear: Callable
    grid_x: np.ndarray
    grid_y: np.ndarray
    params: dict


def eval_nonlinear(spec, U, t):
    """Evaluate F(U, t) on the full grid."""
    X = spec.grid_x[:, None]
    Y = spec.grid_y[None, :]
    return spec.nonlinear(U, X, Y, t)


def sample_points(spec, row_idx, col_idx):
    """Grid coordinates of the sub-block row_idx x col_idx, as a column of x
    and a row of y."""
    return spec.grid_x[np.asarray(row_idx)][:, None], spec.grid_y[np.asarray(col_idx)][None, :]


def eval_nonlinear_at(spec, Z, row_idx, col_idx, t):
    """Evaluate F entrywise on the sub-block row_idx x col_idx.

    Z already holds the state values at those grid positions, so for an
    entrywise nonlinearity this touches only len(row_idx)*len(col_idx)
    entries.
    """
    return spec.nonlinear(Z, *sample_points(spec, row_idx, col_idx), t)


def _cubic_double_well(eps2):
    inv = 1.0 / eps2**2

    def f(U, X, Y, t):
        # (U - U^3) / eps2^2 built in its result array, without temporaries.
        out = U * U
        out *= U
        np.subtract(U, out, out=out)
        out *= inv
        return out

    return f


def _bistable(U, X, Y, t):
    # U (U - 1/2) (1 - U) = ((3/2 - U) U - 1/2) U, built in its result array.
    out = 1.5 - U
    out *= U
    out -= 0.5
    out *= U
    return out


def build_problem(name, n, **params):
    """Construct one of the named benchmarks at grid size n.

    ac1: interface formation, Dirichlet box [0, 2pi]^2, eps1 = 1e-2 diffusion,
         cubic double-well reaction (eps2 = 1), smooth low-amplitude start.
    ac2: metastable circular interface, periodic box [-0.5, 0.5]^2, unit
         diffusion, cubic double-well reaction with small eps2.
    rdc: reaction-convection-diffusion on [0, 1]^2 with zero-slope walls;
         the drift u_x + u_y is folded into A and B by centered differences.
    """
    if name == "ac1":
        eps1 = params.pop("eps1", 1e-2)
        eps2 = params.pop("eps2", 1.0)
        a, b = 0.0, 2.0 * np.pi
        bc = "dirichlet"
        x = grid_1d(n, bc, a, b)
        A = build_laplacian_1d(n, bc, a, b, coeff=eps1)
        B = A.copy()
        U0 = 0.05 * np.outer(np.sin(x), np.cos(x))
        spec = ProblemSpec(
            name="ac1", A=A, B=B, U0=U0, t_final=5.0,
            nonlinear=_cubic_double_well(eps2), grid_x=x, grid_y=x.copy(),
            params={"eps1": eps1, "eps2": eps2},
        )
    elif name == "ac2":
        eps1 = params.pop("eps1", 1.0)
        eps2 = params.pop("eps2", 0.04)
        a, b = -0.5, 0.5
        bc = "periodic"
        x = grid_1d(n, bc, a, b)
        A = build_laplacian_1d(n, bc, a, b, coeff=eps1)
        B = A.copy()
        R = np.sqrt(x[:, None] ** 2 + x[None, :] ** 2)
        U0 = np.tanh((0.4 - R) / (np.sqrt(2.0) * eps2))
        spec = ProblemSpec(
            name="ac2", A=A, B=B, U0=U0, t_final=0.075,
            nonlinear=_cubic_double_well(eps2), grid_x=x, grid_y=x.copy(),
            params={"eps1": eps1, "eps2": eps2},
        )
    elif name == "rdc":
        eps1 = params.pop("eps1", 0.5)
        a, b = 0.0, 1.0
        bc = "neumann"
        x = grid_1d(n, bc, a, b)
        A = build_laplacian_1d(n, bc, a, b, coeff=eps1) + build_first_derivative_1d(n, a, b)
        B = A.T.copy()
        U0 = 0.3 + 256.0 * (x[:, None] * (1.0 - x[:, None]) * x[None, :] * (1.0 - x[None, :])) ** 2
        spec = ProblemSpec(
            name="rdc", A=A, B=B, U0=U0, t_final=0.3,
            nonlinear=_bistable, grid_x=x, grid_y=x.copy(),
            params={"eps1": eps1},
        )
    else:
        raise ConfigError(f"unknown problem {name!r}")
    if params:
        raise ConfigError(f"unused problem parameters: {sorted(params)}")
    return spec


# ---------------------------------------------------------------------------
# Analytic time-dependent matrix functions used for pure approximation runs.

@dataclass(frozen=True)
class AnalyticFunction:
    """A scalar function of (x1, x2, t) sampled on an n x n tensor grid."""

    func: Callable
    x1_range: tuple
    x2_range: tuple
    t_final: float
    n: int

    @property
    def grid_x1(self):
        return np.linspace(*self.x1_range, self.n)

    @property
    def grid_x2(self):
        return np.linspace(*self.x2_range, self.n)


def _phi1_func(x1, x2, t):
    return x2 / np.sqrt((x1 + x2 - t) ** 2 + (2.0 * x1 - 3.0 * t) ** 2 + 0.01**2)


def _phi2_func(x1, x2, t):
    first = x1 * x2 / (x2 * t + 0.1) ** 2
    second = 2.0 ** (x1 + x2) / np.sqrt(
        (x1 + x2 - t) ** 2 + (x2**2 + x1**2 - t**2) ** 2 + 0.01**2
    )
    return first + second


def _phi3_func(x1, x2, t):
    first = x1 * (0.1 + t) / (x2 * t + 0.1) ** 2
    second = t * 2.0 ** (x1 + x2) / np.sqrt(
        (x1 + x2 - t) ** 2 + (x2**2 + x1**2 - 3.0 * t) ** 2 + 0.01**2
    )
    return first + second


_ANALYTIC = {
    "phi1": (_phi1_func, (0.0, 2.0), (0.0, 2.0), 2.0),
    "phi2": (_phi2_func, (0.0, 1.0), (0.0, 1.5), 3.0),
    "phi3": (_phi3_func, (0.0, 3.0), (0.0, 3.0), 5.0),
}


def analytic_function(name, n, **params):
    """Look up one of the named test functions at grid size n; they read no params."""
    if name not in _ANALYTIC:
        raise ConfigError(f"unknown analytic function {name!r}")
    if params:
        raise ConfigError(f"unused problem parameters: {sorted(params)}")
    func, x1r, x2r, tf = _ANALYTIC[name]
    return AnalyticFunction(func, x1r, x2r, tf, n)


def sample_analytic(fn, t):
    """Sample fn on its grid at time t; rows follow x1, columns follow x2."""
    if not 0.0 <= t <= fn.t_final * (1.0 + 1e-12):
        raise InputError(f"time {t} outside [0, {fn.t_final}]")
    x1 = fn.grid_x1[:, None]
    x2 = fn.grid_x2[None, :]
    return fn.func(x1, x2, t)

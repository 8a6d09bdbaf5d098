"""Full-order time integration and snapshot generation.

Two first-order schemes are provided for  Udot = A U + U B + F(U, t):

* semi-implicit Euler ("imex"): the linear part is implicit, which turns
  every step into a Sylvester solve with coefficients (I - hA) and (-hB);
* exponential Euler ("etd"): exact on the linear part, with the frozen
  nonlinearity propagated through the phi1 kernel.

Both step through one kernels.Propagator built for the run: the state is
kept in eigen-coordinates of A and B, so a step costs four dense
multiplications (F mapped in, the state mapped out) plus a Hadamard update.
An operator of even size that is centrosymmetric (J A J = A, as the
Dirichlet and periodic Laplacians are) is folded: its eigenproblem splits
into two half-size ones, and its two multiplications become four half-size
ones plus mirrored adds and subtracts, half the flops.  B = A and B = A^T
reuse A's eigendecomposition.  When an eigenvector basis is too ill
conditioned the coordinates are real Schur bases instead.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import kernels, problems
from .errors import DimensionError, DivergenceError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_t steps on [t0, t_final]."""

    t_final: float
    n_t: int
    t0: float = 0.0

    def __post_init__(self):
        if self.n_t < 0 or self.t_final <= self.t0:
            raise DimensionError("need t_final > t0 and n_t >= 0")

    @property
    def h(self):
        return (self.t_final - self.t0) / max(self.n_t, 1)

    @property
    def nodes(self):
        return self.t0 + self.h * np.arange(self.n_t + 1)


@dataclass
class Trajectory:
    """Matrices at increasing times, read by index or as (t, U) pairs.

    kind names what they are: "state" (full states), "nonlinearity"
    (F at those states) or "reduced-state" (cores of a reduced run).
    seconds is the wall time of the run that made them, where one did.
    """

    times: np.ndarray
    states: list
    kind: str = "state"
    seconds: float = 0.0

    def matrix(self, i):
        return self.states[i]

    def __iter__(self):
        return zip(self.times, self.states)


@dataclass
class AnalyticSource:
    """Snapshot source that samples an analytic function on demand."""

    fn: problems.AnalyticFunction
    times: np.ndarray
    kind: str = "state"

    def matrix(self, i):
        return problems.sample_analytic(self.fn, self.times[i])


def _march(spec, times, scheme, h=None, f_at_last=False):
    """Step through the time nodes, yielding (index, time, state, F at the state).

    One Propagator serves the whole run; steps use h when given, else the
    node spacing.  F is evaluated once per node, for the step that leaves
    it, and at the last node only when f_at_last asks for it (None there
    otherwise).  The state is one matrix overwritten by every step, so a
    step allocates only F, in the memory the previous F leaves.
    """
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    U = np.array(spec.U0, dtype=float)
    Uhat = prop.to_coords(U)
    last = len(times) - 1
    for i, t in enumerate(times):
        if i > 0:
            step = h if h is not None else t - times[i - 1]
            Uhat, U = kernels.etd_euler_update(prop, Uhat, F, step, out=U)
            F = None  # released before the next F is allocated
            if not np.all(np.isfinite(U)):
                raise DivergenceError(
                    f"non-finite state after step {i} (t = {t:.6g})", step=i
                )
        F = problems.eval_nonlinear(spec, U, t) if i < last or f_at_last else None
        yield i, t, U, F


def iter_full(spec, grid, scheme="imex"):
    """Yield (index, time, state) along the grid without storing the run.

    Memory stays at one state matrix regardless of grid length, which is
    what large reference solves need when only running error sums are kept.
    The yielded state is overwritten by the next step; copy it to keep it.
    """
    for i, t, U, F in _march(spec, grid.nodes, scheme, grid.h):
        del F  # the next F then reuses its memory
        yield i, t, U


def trajectory_source(spec, times, scheme="imex"):
    """Integrate over the given time nodes and expose snapshot sources.

    The candidate nodes double as the integration grid, so each node costs
    one step.  Returns (state trajectory, nonlinearity trajectory, seconds).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or np.any(np.diff(times) <= 0):
        raise DimensionError("times must be strictly increasing")
    tic = time.perf_counter()
    states, nonls = [], []
    for _, _, U, F in _march(spec, times, scheme, f_at_last=True):
        states.append(U.copy())
        nonls.append(F)
    return (Trajectory(times, states), Trajectory(times, nonls, "nonlinearity"),
            time.perf_counter() - tic)

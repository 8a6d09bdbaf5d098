"""Full-order time integration and snapshot generation.

Two first-order schemes are provided for  Udot = A U + U B + F(U, t):

* semi-implicit Euler ("imex"): the linear part is implicit, which turns
  every step into a Sylvester solve with coefficients (I - hA) and (-hB);
* exponential Euler ("etd"): exact on the linear part, with the frozen
  nonlinearity propagated through the phi1 kernel.

Both step through one kernels.Propagator built for the run: the state is
kept in eigen-coordinates of A and B, so a dense step costs four n x n
multiplications (F mapped in, the state mapped out) plus a Hadamard update.
Above kernels.DENSE_SVD_MAX, in real coordinates, the snapshot run and the
reference solve (iter_full) keep the state and F as certified low-rank
factors instead, with n x r maps and the step applied as the coordinate
matrix is formed; they step densely where a compression is not certified.
A pair of even-size centrosymmetric operators (J A J = A, as the Dirichlet
and periodic Laplacians are) with real eigenbases in their halves is folded:
each eigenproblem splits into two half-size ones, and each multiplication
into two half-size ones plus mirrored adds and subtracts, half the flops.
B = A and B = A^T reuse A's eigendecomposition.  When an eigenvector basis
is too ill conditioned the coordinates are real Schur bases instead.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import kernels, problems
from .errors import DimensionError, DivergenceError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_t steps of size h on [0, t_final]; runs start at t = 0."""

    t_final: float
    n_t: int

    def __post_init__(self):
        if self.n_t < 0 or self.t_final <= 0:
            raise DimensionError("need t_final > 0 and n_t >= 0")

    @property
    def h(self):
        return self.t_final / max(self.n_t, 1)

    @property
    def nodes(self):
        return self.h * np.arange(self.n_t + 1)


@dataclass
class Trajectory:
    """Matrices at increasing times, read by index or as (t, U) pairs.

    states holds each as an ndarray or, from a factored snapshot run, as
    kernels.SvdTriplet factors; matrix(i) and iteration rebuild the latter
    densely on demand, snapshot(i) returns what is stored.  seconds is the
    wall time of the run that made them, where one did.
    """

    times: np.ndarray
    states: list
    seconds: float = 0.0

    def snapshot(self, i):
        return self.states[i]

    def matrix(self, i):
        return _dense(self.states[i])

    def __iter__(self):
        return zip(self.times, map(_dense, self.states))


def _dense(M):
    return M.dense() if isinstance(M, kernels.SvdTriplet) else M


@dataclass
class AnalyticSource:
    """Snapshot source that samples an analytic function on demand."""

    fn: problems.AnalyticFunction
    times: np.ndarray

    def matrix(self, i):
        return problems.sample_analytic(self.fn, self.times[i])

    snapshot = matrix


def _march(prop, spec, times, h, U, first=0, f_at_last=False):
    """Step through the time nodes from node first, whose state is U, yielding
    (index, time, state, F at the state) for that node and every later one.

    The Propagator prop serves the whole run, and every step has size h.
    F is evaluated once per node, for the step that leaves it, and at the
    last node only when f_at_last asks for it (None there otherwise).  The
    state is U itself, overwritten by every step, so a step allocates only
    F, in the memory the previous F leaves.
    """
    Uhat = prop.to_coords(U)
    last = len(times) - 1
    for i in range(first, last + 1):
        t = times[i]
        if i > first:
            Uhat, U = kernels.etd_euler_update(prop, Uhat, F, h, out=U)
            F = None  # released before the next F is allocated
            if not np.all(np.isfinite(U)):
                raise DivergenceError(
                    f"non-finite state after step {i} (t = {t:.6g})", step=i
                )
        F = problems.eval_nonlinear(spec, U, t) if i < last or f_at_last else None
        yield i, t, U, F


def _factored_steps(prop, spec, times, h, U, f_at_last=False):
    """Step through the time nodes with every state and F kept as low-rank factors.

    U, the state at node 0, is overwritten by the state L R^T at every later
    node.  Yields (index, time, (L, R) or None at node 0, F as SvdTriplet
    factors: None at the last node unless f_at_last, and None where F is
    not certified).  It yields nothing, or stops early, when the run cannot
    stay factored: complex coordinates, a matrix not above DENSE_SVD_MAX, or
    a compression kernels.compress cannot certify (a rank-heavy state, or a
    non-finite F or step, which the dense route then reports).  A step maps
    F's factors in, forms the stepped coordinate matrix (advance_factors),
    compresses it warm-started from the last one's row space (F from the
    last F's) and maps its factors out.
    """
    bases = (prop.Qa, prop.Qa_inv, prop.Qb, prop.Qb_inv)
    if min(U.shape) <= kernels.DENSE_SVD_MAX or any(np.iscomplexobj(Q) for Q in bases):
        return
    trip = kernels.compress(U)
    if trip is None:
        return
    Lc, Rc = prop.map_factors(trip.U * trip.S, trip.V)
    factors, start_u, start_f = None, None, None
    for i, t in enumerate(times):
        if i > 0:
            factors = prop.map_factors(Lc, Rc, out=True)
            np.matmul(factors[0], factors[1].T, out=U)
        last = i == len(times) - 1
        ftrip = None if last and not f_at_last else kernels.compress(
            problems.eval_nonlinear(spec, U, t), start_f)
        yield i, t, factors, ftrip
        if last or ftrip is None:
            return
        M = prop.advance_factors(Lc, Rc, *prop.map_factors(ftrip.U * ftrip.S, ftrip.V), h)
        trip = kernels.compress(M, start_u)
        if trip is None:
            return
        start_f, start_u = ftrip.V, trip.V
        Lc, Rc = trip.U * trip.S, trip.V


def iter_full(spec, grid, scheme="imex"):
    """Yield (index, time, state) along the grid without storing the run.

    Above kernels.DENSE_SVD_MAX, in real coordinates, it steps as certified
    low-rank factors (_factored_steps) formed straight into the yielded
    matrix, within about 2e-13 relative of dense steps; from a compression
    that is not certified on, it steps densely from the last state yielded.
    Memory does not grow with the grid.  The yielded state is one matrix,
    overwritten by the next step; copy it to keep it.
    """
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    nodes = grid.nodes
    U = np.array(spec.U0, dtype=float)
    done = -1
    for done, t, _, _ in _factored_steps(prop, spec, nodes, grid.h, U):
        yield done, t, U
    if done == grid.n_t:
        return
    for i, t, U, F in _march(prop, spec, nodes, grid.h, U, max(done, 0)):
        del F  # the next F then reuses its memory
        if i > done:
            yield i, t, U


def trajectory_source(spec, times, scheme="imex"):
    """Integrate over the given time nodes and expose snapshot sources.

    The nodes are the integration grid and must be equispaced: every step
    has size h = (times[-1] - times[0]) / (len(times) - 1), within 1e-9 h of
    each spacing.  Above kernels.DENSE_SVD_MAX, in real coordinates, the run
    keeps its snapshots as low-rank factors (_factored_steps); otherwise, or
    when a compression is not certified, it runs dense from node 0 and
    keeps every snapshot as a matrix.  Returns (states, nonlinearities, seconds).
    """
    times = np.asarray(times, dtype=float)
    m = len(times) if times.ndim == 1 else 0
    h = (times[-1] - times[0]) / max(m - 1, 1) if m else 0.0
    if m < 1 or not np.all(np.abs(np.diff(times) - h) < 1e-9 * h):
        raise DimensionError("times must be strictly increasing and equispaced")
    tic = time.perf_counter()
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    U = np.array(spec.U0, dtype=float)
    run = [(U.copy() if LR is None else kernels.factored_svd(*LR), F)
           for _, _, LR, F in _factored_steps(prop, spec, times, h, U, f_at_last=True)]
    if len(run) < m or run[-1][1] is None:
        U = np.array(spec.U0, dtype=float)
        run = [(U.copy(), F) for _, _, U, F in _march(prop, spec, times, h, U, f_at_last=True)]
    states, nonls = map(list, zip(*run))
    return (Trajectory(times, states), Trajectory(times, nonls),
            time.perf_counter() - tic)

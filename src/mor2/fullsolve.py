"""Full-order time integration and snapshot generation.

Two first-order schemes are provided for  Udot = A U + U B + F(U, t):

* semi-implicit Euler ("imex"): the linear part is implicit, which turns
  every step into a Sylvester solve with coefficients (I - hA) and (-hB);
* exponential Euler ("etd"): exact on the linear part, with the frozen
  nonlinearity propagated through the phi1 kernel.

Both step through one kernels.Propagator built for the run: the state is
kept in eigen-coordinates of A and B, so a dense step costs four n x n
multiplications (F mapped in, the state mapped out) plus a Hadamard update.
Above kernels.DENSE_SVD_MAX, in real coordinates, the state and F are kept
as certified low-rank factors instead, with n x r maps and the step applied
as the coordinate matrix is formed.  The snapshot run and the reference
solve (iter_full) share one stepping loop, _steps, which goes on densely
from the first compression that is not certified.
A pair of even-size centrosymmetric operators (J A J = A, as the Dirichlet
and periodic Laplacians are) with real eigenbases in their halves is folded:
each eigenproblem splits into two half-size ones, and each multiplication
into two half-size ones plus mirrored adds and subtracts, half the flops.
B = A and B = A^T reuse A's eigendecomposition.  When kernels.eig_pair
finds no usable eigenbasis of A or B (None: an ill-conditioned or defective
one) the coordinates are real Schur bases instead.
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

    states is a list of ndarrays, one (n_t + 1, k1, k2) array (rom.run_online;
    it indexes, counts and iterates alike) or, from a factored snapshot run,
    a list of kernels.SvdTriplet factors; matrix(i) and iteration rebuild
    those densely on demand, snapshot(i) returns what is stored.  seconds is
    the wall time of the run that made them, where one did.
    """

    times: np.ndarray
    states: list | np.ndarray
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


def _steps(spec, times, h, scheme, f_at_last=False):
    """Step U0 through the time nodes, every step of size h, and yield
    (index, time, U, factors, F) for each node once, before the step that
    leaves it.  U is one matrix, overwritten by every step.

    F is evaluated once per node, for the step that leaves it, and at the
    last node only when f_at_last asks for it (None there otherwise).  On
    the factored route factors is (L, R) with U = L R^T (None at node 0)
    and F an SvdTriplet; a step maps F's factors in, forms the stepped
    coordinate matrix (advance_factors), compresses it warm-started from
    the last one's row space (F from the last F's) and maps its factors
    out.  From the first compression that kernels.compress does not
    certify (a rank-heavy state, or a non-finite F or step, which the dense
    step then reports) the run steps densely from the state in U,
    re-evaluating F there: factors is None and F a matrix, allocated in the
    memory the previous F leaves.
    """
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    U = np.array(spec.U0, dtype=float)
    last, first, done = len(times) - 1, 0, -1   # first: the node in U; done: the last yielded
    real = not any(map(np.iscomplexobj, (prop.Qa, prop.Qa_inv, prop.Qb, prop.Qb_inv)))
    trip = kernels.compress(U) if real and min(U.shape) > kernels.DENSE_SVD_MAX else None
    if trip is not None:
        Lc, Rc = prop.map_factors(trip.U * trip.S, trip.V)
        factors, start_u, start_f = None, None, None
        for first, t in enumerate(times):
            if first > 0:
                factors = prop.map_factors(Lc, Rc, out=True)
                np.matmul(factors[0], factors[1].T, out=U)
            f_due = first < last or f_at_last
            ftrip = (kernels.compress(problems.eval_nonlinear(spec, U, t), start_f)
                     if f_due else None)
            if f_due and ftrip is None:
                break
            yield first, t, U, factors, ftrip
            done = first
            if first == last:
                return
            Fc = prop.map_factors(ftrip.U * ftrip.S, ftrip.V)
            trip = kernels.compress(prop.advance_factors(Lc, Rc, *Fc, h), start_u)
            if trip is None:
                break
            start_f, start_u = ftrip.V, trip.V
            Lc, Rc = trip.U * trip.S, trip.V
    Uhat = prop.to_coords(U)
    for i in range(first, last + 1):
        t = times[i]
        if i > first:
            Uhat, U = kernels.etd_euler_update(prop, Uhat, F, h, out=U)
            F = None  # released before the next F is allocated
            if not np.all(np.isfinite(U)):
                raise DivergenceError(f"non-finite state after step {i} (t = {t:.6g})")
        F = problems.eval_nonlinear(spec, U, t) if i < last or f_at_last else None
        if i > done:
            yield i, t, U, None, F


def iter_full(spec, grid, scheme):
    """Yield (index, time, state) along the grid without storing the run.

    Above kernels.DENSE_SVD_MAX, in real coordinates, it steps as certified
    low-rank factors (_steps) formed straight into the yielded matrix,
    within about 2e-13 relative of dense steps, and densely from a
    compression that is not certified on.  Memory does not grow with the
    grid.  The yielded state is one matrix, overwritten by the next step;
    copy it to keep it.
    """
    for i, t, U, _, F in _steps(spec, grid.nodes, grid.h, scheme):
        del F  # the next F then reuses its memory
        yield i, t, U


def trajectory_source(spec, times, scheme):
    """Integrate over the given time nodes and expose snapshot sources.

    The nodes are the integration grid and must be equispaced: every step
    has size h = (times[-1] - times[0]) / (len(times) - 1), within 1e-9 h of
    each spacing.  Above kernels.DENSE_SVD_MAX, in real coordinates, the run
    keeps its snapshots as low-rank factors (_steps); otherwise, and from a
    compression that is not certified on, it keeps them as matrices.
    Returns (states, nonlinearities, seconds).
    """
    times = np.asarray(times, dtype=float)
    m = len(times) if times.ndim == 1 else 0
    h = (times[-1] - times[0]) / max(m - 1, 1) if m else 0.0
    if m < 1 or not np.all(np.abs(np.diff(times) - h) < 1e-9 * h):
        raise DimensionError("times must be strictly increasing and equispaced")
    tic = time.perf_counter()
    run = [(U.copy() if LR is None else kernels.factored_svd(*LR), F)
           for _, _, U, LR, F in _steps(spec, times, h, scheme, f_at_last=True)]
    states, nonls = map(list, zip(*run))
    return (Trajectory(times, states), Trajectory(times, nonls),
            time.perf_counter() - tic)

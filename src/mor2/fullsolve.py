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
factors instead, and their maps are n x r products; they step densely
where a compression is not certified.
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

    kind names what they are: "state" (full states), "nonlinearity"
    (F at those states) or "reduced-state" (cores of a reduced run).
    states holds each as an ndarray or, from a factored snapshot run, as
    kernels.SvdTriplet factors; matrix(i) and iteration rebuild the latter
    densely on demand, snapshot(i) returns what is stored.  seconds is the
    wall time of the run that made them, where one did.
    """

    times: np.ndarray
    states: list
    kind: str = "state"
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
    kind: str = "state"

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


def _factored_steps(prop, spec, times, h):
    """Step through the time nodes with every state and F kept as low-rank factors.

    Yields (index, time, state, F) node by node, the state being U0 itself
    at node 0 and kernels.SvdTriplet factors at every later node, F always
    SvdTriplet factors.  It yields nothing, or stops before the node it
    cannot reach, when the run cannot stay factored: complex coordinates, a
    matrix not above DENSE_SVD_MAX, a compression kernels.compress cannot
    certify (as for a rank-heavy state), or a non-finite step.  A step forms
    U = L R^T and F(U), both transient, compresses F (warm-started from the
    previous F's row space), maps its factors into coordinates with two
    n x r products, forms the coordinate state and F there and advances
    them with prop.advance, compresses the result (warm-started likewise)
    and maps its factors out with two more n x r products.  The coordinate
    factors of the compression serve the next step as they are.  A
    non-finite F or step is not certified either, so the dense route
    reports the divergence.
    """
    bases = (prop.Qa, prop.Qa_inv, prop.Qb, prop.Qb_inv)
    U = np.array(spec.U0, dtype=float)
    if min(U.shape) <= kernels.DENSE_SVD_MAX or any(np.iscomplexobj(Q) for Q in bases):
        return
    trip = kernels.compress(U)
    if trip is None:
        return
    Lc, Rc = prop.Qa_inv @ (trip.U * trip.S), prop.Qb.T @ trip.V
    state, start_u, start_f = U, None, None
    dense = np.empty(U.shape)   # U at every later node: one buffer, not an n x n array per step
    for i, t in enumerate(times):
        if i > 0:
            state = kernels.factored_svd(L, R)
            U = np.matmul(state.U * state.S, state.V.T, out=dense)
        ftrip = kernels.compress(problems.eval_nonlinear(spec, U, t), start_f)
        if ftrip is None:
            return
        yield i, t, state, ftrip
        if i == len(times) - 1:
            return
        Uhat, Fhat = prop.work((len(Lc), len(Rc)), float)
        np.matmul(Lc, Rc.T, out=Uhat)
        np.matmul(prop.Qa_inv @ (ftrip.U * ftrip.S), (prop.Qb.T @ ftrip.V).T, out=Fhat)
        trip = kernels.compress(prop.advance(Uhat, Fhat, h), start_u)
        if trip is None:
            return
        start_f, start_u = ftrip.V, trip.V
        Lc, Rc = trip.U * trip.S, trip.V
        L, R = prop.Qa @ Lc, prop.Qb_inv.T @ Rc


def iter_full(spec, grid, scheme="imex"):
    """Yield (index, time, state) along the grid without storing the run.

    Above kernels.DENSE_SVD_MAX, in real coordinates, it steps as certified
    low-rank factors, as the snapshot run does (_factored_steps), and forms
    each state from them, within about 2e-13 relative of dense steps; from
    a compression that is not certified on, it steps densely from the last
    state yielded.  Memory does not grow with the grid.  The yielded state
    is one matrix, overwritten by the next step; copy it to keep it.
    """
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    nodes = grid.nodes
    U = np.array(spec.U0, dtype=float)
    done = -1
    for done, t, state, _ in _factored_steps(prop, spec, nodes, grid.h):
        if done > 0:
            np.matmul(state.U * state.S, state.V.T, out=U)
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
    run = [(U, F) for _, _, U, F in _factored_steps(prop, spec, times, h)]
    if len(run) < m:
        U0 = np.array(spec.U0, dtype=float)
        run = [(U.copy(), F) for _, _, U, F in _march(prop, spec, times, h, U0, f_at_last=True)]
    states, nonls = map(list, zip(*run))
    return (Trajectory(times, states), Trajectory(times, nonls, "nonlinearity"),
            time.perf_counter() - tic)

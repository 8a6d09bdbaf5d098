"""Full-order time integration and snapshot generation.

Two first-order schemes are provided for  Udot = A U + U B + F(U, t):

* semi-implicit Euler ("imex"): the linear part is implicit, which turns
  every step into a Sylvester solve with coefficients (I - hA) and (-hB);
* exponential Euler ("etd"): exact on the linear part, with the frozen
  nonlinearity propagated through the phi1 kernel.

Both step through one kernels.Propagator built for the run: the state is
kept in eigen-coordinates of A and B, so a dense step costs four n x n
multiplications (F mapped in, the state mapped out) plus a Hadamard update.
The snapshot run above kernels.DENSE_SVD_MAX keeps the state and F as
certified low-rank factors instead, and its maps are n x r products.
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


def _march(prop, spec, times, h, f_at_last=False):
    """Step through the time nodes, yielding (index, time, state, F at the state).

    The Propagator prop serves the whole run, and every step has size h.
    F is evaluated once per node, for the step that leaves it, and at the
    last node only when f_at_last asks for it (None there otherwise).  The
    state is one matrix overwritten by every step, so a step allocates
    only F, in the memory the previous F leaves.
    """
    U = np.array(spec.U0, dtype=float)
    Uhat = prop.to_coords(U)
    last = len(times) - 1
    for i, t in enumerate(times):
        if i > 0:
            Uhat, U = kernels.etd_euler_update(prop, Uhat, F, h, out=U)
            F = None  # released before the next F is allocated
            if not np.all(np.isfinite(U)):
                raise DivergenceError(
                    f"non-finite state after step {i} (t = {t:.6g})", step=i
                )
        F = problems.eval_nonlinear(spec, U, t) if i < last or f_at_last else None
        yield i, t, U, F


def _factored_run(prop, spec, times, h):
    """The snapshot run with every state and F kept as low-rank factors.

    Returns the state and F snapshots, node 0's state being U0 itself and
    every other one kernels.SvdTriplet factors, or None when the run cannot
    stay factored: complex coordinates, a matrix not above DENSE_SVD_MAX,
    a compression kernels.compress cannot certify (as for a rank-heavy
    state), or a non-finite step.  A step forms U = L R^T and F(U), both
    transient, compresses F (warm-started from the previous F's row space),
    maps its factors into coordinates with two n x r products, forms the
    coordinate state and F there and advances them with prop.advance,
    compresses the result (warm-started likewise) and maps its factors out
    with two more n x r products.  The coordinate factors of the
    compression serve the next step as they are.  A non-finite F or step
    is not certified either, so the dense route reports the divergence.
    """
    bases = (prop.Qa, prop.Qa_inv, prop.Qb, prop.Qb_inv)
    U = np.array(spec.U0, dtype=float)
    if min(U.shape) <= kernels.DENSE_SVD_MAX or any(np.iscomplexobj(Q) for Q in bases):
        return None
    trip = kernels.compress(U)
    if trip is None:
        return None
    Lc, Rc = prop.Qa_inv @ (trip.U * trip.S), prop.Qb.T @ trip.V
    states, nonls = [U], []
    start_u = start_f = None
    dense = np.empty(U.shape)   # U at every later node: one buffer, not an n x n array per step
    for i, t in enumerate(times):
        if i > 0:
            snap = kernels.factored_svd(L, R)
            states.append(snap)
            U = np.matmul(snap.U * snap.S, snap.V.T, out=dense)
        ftrip = kernels.compress(problems.eval_nonlinear(spec, U, t), start_f)
        if ftrip is None:
            return None
        nonls.append(ftrip)
        if i == len(times) - 1:
            return states, nonls
        Uhat, Fhat = prop.work((len(Lc), len(Rc)), float)
        np.matmul(Lc, Rc.T, out=Uhat)
        np.matmul(prop.Qa_inv @ (ftrip.U * ftrip.S), (prop.Qb.T @ ftrip.V).T, out=Fhat)
        trip = kernels.compress(prop.advance(Uhat, Fhat, h), start_u)
        if trip is None:
            return None
        start_f, start_u = ftrip.V, trip.V
        Lc, Rc = trip.U * trip.S, trip.V
        L, R = prop.Qa @ Lc, prop.Qb_inv.T @ Rc


def iter_full(spec, grid, scheme="imex"):
    """Yield (index, time, state) along the grid without storing the run.

    Memory stays at one state matrix regardless of grid length, which is
    what large reference solves need when only running error sums are kept.
    The yielded state is overwritten by the next step; copy it to keep it.
    """
    prop = kernels.Propagator(spec.A, spec.B, scheme)
    for i, t, U, F in _march(prop, spec, grid.nodes, grid.h):
        del F  # the next F then reuses its memory
        yield i, t, U


def trajectory_source(spec, times, scheme="imex"):
    """Integrate over the given time nodes and expose snapshot sources.

    The nodes are the integration grid and must be equispaced: every step
    has size h = (times[-1] - times[0]) / (len(times) - 1), within 1e-9 h of
    each spacing.  Above kernels.DENSE_SVD_MAX, in real coordinates, the run
    keeps its snapshots as low-rank factors (_factored_run); otherwise, or
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
    run = _factored_run(prop, spec, times, h)
    if run is None:
        run = [], []
        for _, _, U, F in _march(prop, spec, times, h, f_at_last=True):
            run[0].append(U.copy())
            run[1].append(F)
    states, nonls = run
    return (Trajectory(times, states), Trajectory(times, nonls, "nonlinearity"),
            time.perf_counter() - tic)

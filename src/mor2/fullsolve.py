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
as the coordinate matrix is formed, every n x n pass by row blocks.  The
snapshot run and the reference solve (iter_full) share one stepping loop,
_steps, which goes on densely from the first compression that is not
certified.
A pair of even-size centrosymmetric operators (J A J = A, as the Dirichlet
and periodic Laplacians are) with real eigenbases in their halves is folded:
each eigenproblem splits into two half-size ones, and each multiplication
into two half-size ones plus mirrored adds and subtracts, half the flops.
B = A and B = A^T reuse A's eigendecomposition.  When kernels.eig_pair
finds no usable eigenbasis of A or B (None: an ill-conditioned or defective
one) the coordinates are real Schur bases instead.
Such a pair keeps a state that is even or odd on each side (U = s J U =
q U J; ac1's is odd in x and even in y) that way for as long as F does.
Above kernels.DENSE_SVD_MAX at half size the factored run of such a state
steps only its quarter, a problem of half the size whose operators are
fold halves, and mirrors the rest out; from a node where F leaves that
parity it goes on densely at full size, as from an uncertified compression.
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


def _mirror(spec):
    """(A_s, B_q, s, q) of the half-size problem of a mirror-symmetric run, or None.

    The run is mirror-symmetric when A and B are exactly centrosymmetric of
    even size (kernels.fold_halves) and U0 = s J U0 = q U0 J, each within
    NEGLIGIBLE_REL * ||U0||_F, for signs s, q in {1, -1} (J the reversal of
    order; ac1's state is odd in x, even in y).  A U + U B then maps
    U = [I; s J] X [I, q J] to [I; s J] (A_s X + X B_q) [I, q J], so the
    quarter X = U[:m, :k] steps alone; only above kernels.DENSE_SVD_MAX in
    both halves, where the factored route runs.
    """
    U0 = spec.U0
    if min(U0.shape) // 2 <= kernels.DENSE_SVD_MAX:
        return None
    halves = [kernels.fold_halves(M) for M in (spec.A, spec.B)]
    tol = kernels.NEGLIGIBLE_REL * np.linalg.norm(U0)
    signs = [next((s for s in (1.0, -1.0) if np.linalg.norm(U0 - s * V) <= tol), None)
             for V in (U0[::-1], U0[:, ::-1])]
    if any(x is None for x in halves + signs):
        return None
    (s, q), (ha, hb) = signs, halves
    return ha[s < 0], hb[q < 0], s, q


def _lifted(factors, ftrip, s, q, defect):
    """The quarter's factors (L, R) and F's triplets, lifted to the mirrored whole:
    [L; s J L] and [R; q J R], and F's U and V lifted so over sqrt(2), S doubled
    and the tail doubled plus F's parity defect.  None stays None."""
    def lift(X, sign):
        return np.vstack([X, sign * X[::-1]])

    if factors is not None:
        factors = lift(factors[0], s), lift(factors[1], q)
    if ftrip is not None:
        ftrip = kernels.SvdTriplet(np.sqrt(0.5) * lift(ftrip.U, s), 2 * ftrip.S,
                                   np.sqrt(0.5) * lift(ftrip.V, q), 2 * ftrip.tail + defect)
    return factors, ftrip


def _mirrored_sweep(spec, U, Fq, factors, s, q, t):
    """Form U = [I; s J] L R^T [I, q J] from its quarter's factors (L, R) (None:
    U stays) and, with t, F(U) at t, its quarter into Fq, by pairs of mirrored
    row blocks.  Returns F's parity defect ||F - [I; s J] Fq [I, q J]||_F (0
    without t)."""
    (m, k), n = Fq.shape, len(U)
    defect = 0.0
    for top in kernels.row_blocks(m):
        bot = slice(n - top.stop, n - top.start)
        if factors is not None:
            np.matmul(factors[0][top], factors[1].T, out=U[top, :k])
            np.multiply(U[top, k - 1::-1], q, out=U[top, k:])
            np.multiply(U[top][::-1], s, out=U[bot])
        if t is not None:
            Ft, Fb = (problems.eval_nonlinear_at(spec, U[rows], rows, slice(None), t)
                      for rows in (top, bot))
            Fq[top] = Ft[:, :k]
            D = Ft[:, k:] - q * Ft[:, k - 1::-1]      # the defect in the top rows
            Fb -= s * Ft[::-1]                        # and in the bottom ones, of
            Fb[:, k:] += s * D[::-1]                  # [Fq, q Fq J] mirrored
            defect += float(np.vdot(D, D) + np.vdot(Fb, Fb))
    return np.sqrt(defect)


def _steps(spec, times, h, scheme, f_at_last=False):
    """Step U0 through the time nodes, every step of size h, and yield
    (index, time, U, factors, F) for each node once, before the step that
    leaves it.  U is one matrix, overwritten by every step.

    F is evaluated once per node, for the step that leaves it, and at the
    last node only when f_at_last asks for it (None there otherwise).  On
    the factored route factors is (L, R) with U = L R^T (None at node 0)
    and F an SvdTriplet.  U and F(U), into one buffer kept for the run, are
    formed by row blocks; a step maps F's factors in, forms the stepped
    coordinate matrix (advance_factors), compresses it warm-started from
    the last one's row space (F from the last F's) and maps its factors
    out.  From the first compression that kernels.compress does not
    certify (a rank-heavy state, or a non-finite F or step, which the dense
    step then reports) the run steps densely from the state in U,
    re-evaluating F there: factors is None and F a matrix, allocated in the
    memory the previous F leaves.

    A mirror-symmetric run (_mirror) takes the factored route at half size:
    the propagator, the compressions and the steps are the quarter's, U is
    formed mirrored from the quarter's factors, and F(U) is evaluated whole
    and its quarter compressed.  It yields the factors [L; s J L], [R; q J R]
    and F's triplets lifted the same way (U, V over sqrt(2), S and the tail
    doubled, the tail plus F's parity defect).  Node 0's U is U0 itself.
    A node whose F is off parity by more than NEGLIGIBLE_REL stops it as an
    uncertified compression does: the run goes on densely from the state in
    U, through a full-size propagator built there.
    """
    half = _mirror(spec)
    A, B, s, q = (spec.A, spec.B, None, None) if half is None else half
    prop = kernels.Propagator(A, B, scheme)
    U = np.array(spec.U0, dtype=float)
    core = np.s_[:len(prop.la), :len(prop.lb)]      # the stepped block: U's quarter or all of U
    last, first, done = len(times) - 1, 0, -1   # first: the node in U; done: the last yielded
    real = not any(map(np.iscomplexobj, (prop.Qa, prop.Qa_inv, prop.Qb, prop.Qb_inv)))
    trip = kernels.compress(U[core]) if real and min(U[core].shape) > kernels.DENSE_SVD_MAX else None
    if trip is not None:
        Lc, Rc = prop.map_factors(trip.U * trip.S, trip.V)
        factors, start_u, start_f, F = None, None, None, np.empty(U[core].shape)
        for first, t in enumerate(times):
            if first > 0:
                factors = prop.map_factors(Lc, Rc, out=True)
            f_due = first < last or f_at_last
            if half is None:
                for rows in kernels.row_blocks(len(U)):
                    if factors is not None:
                        np.matmul(factors[0][rows], factors[1].T, out=U[rows])
                    if f_due:
                        F[rows] = problems.eval_nonlinear_at(spec, U[rows], rows, slice(None), t)
            else:
                defect = _mirrored_sweep(spec, U, F, factors, s, q, t if f_due else None)
                if defect > 2 * kernels.NEGLIGIBLE_REL * np.linalg.norm(F):   # 2 ||F's quarter||
                    break
            ftrip = kernels.compress(F, start_f) if f_due else None
            if f_due and ftrip is None:
                break
            yield (first, t, U) + ((factors, ftrip) if half is None else
                                   _lifted(factors, ftrip, s, q, defect))
            done = first
            if first == last:
                return
            Fc = prop.map_factors(ftrip.U * ftrip.S, ftrip.V)
            trip = kernels.compress(prop.advance_factors(Lc, Rc, *Fc, h), start_u)
            if trip is None:
                break
            start_f, start_u = ftrip.V, trip.V
            Lc, Rc = trip.U * trip.S, trip.V
    F = None    # the factored run's buffer, released before the dense F is allocated
    if half is not None:
        prop = kernels.Propagator(spec.A, spec.B, scheme)
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

"""Adaptive two-sided proper orthogonal decomposition of matrix snapshots.

Snapshots Xi(t_i) are never vectorized.  Instead the leading singular
triplets of each selected snapshot are merged into a running accumulator
that keeps only the kappa largest singular values seen so far, together
with their left and right vectors.  Two small SVDs at the end turn the
accumulated factors into separate orthonormal row-space and column-space
bases, truncated by a relative Frobenius tail criterion.

Snapshot selection walks the candidate times in three interleaved phases
(coarse grid, midpoints, remaining odd nodes) and includes a snapshot only
when the current bases reproduce it poorly; a phase whose mean inclusion
error is already below tolerance ends the scan early.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import ConfigError, DimensionError, InputError

# Singular values below this relative threshold never enter the accumulator;
# the randomized snapshot SVD certifies its residual against it too.
NEGLIGIBLE_REL = kernels.NEGLIGIBLE_REL

# Snapshots with larger relative asymmetry break the symmetric-stream mark.
STREAM_SYM_TOL = 1e-12


def _sign_normalize(U):
    """Flip column signs so each column of U has its largest entry positive."""
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    U = U * signs[None, :]
    return U


@dataclass
class TripletAccumulator:
    """Running merge of snapshot singular triplets, capped at kappa values.

    Vt and Wh hold unit left/right singular vectors column by column
    (generally not orthonormal across snapshots); St is nonincreasing.
    sigma_discard_max tracks the largest singular value ever dropped by the
    cap, which controls the blockwise reconstruction error of the stream.
    """

    kappa: int
    Vt: np.ndarray = None
    St: np.ndarray = None
    Wh: np.ndarray = None
    sigma_discard_max: float = 0.0
    count_processed: int = 0
    source_ids: np.ndarray = None
    symmetric_stream: bool = True

    @classmethod
    def empty(cls, kappa):
        if kappa < 1:
            raise DimensionError("kappa must be at least 1")
        return cls(kappa=kappa)

    @property
    def rank(self):
        return 0 if self.St is None else len(self.St)

    @property
    def is_empty(self):
        return self.rank == 0

    @property
    def storage_floats(self):
        if self.is_empty:
            return 0
        return self.Vt.size + self.St.size + self.Wh.size


def accumulate(acc, Xi):
    """Fold one snapshot into the accumulator; returns a new accumulator.

    The leading min(kappa, rank) triplets of Xi are appended and the merged
    singular values are re-sorted decreasingly (stable, so previously held
    values win ties); everything beyond position kappa is discarded.  A zero
    snapshot contributes nothing and leaves the state untouched.  Xi is a
    matrix or the kernels.SvdTriplet factors of a factored snapshot run,
    whose triplets are taken as they are.

    sigma_discard_max absorbs both kinds of loss: the snapshot's own
    sigma_{kappa+1} (never appended; when the snapshot SVD or the factors
    hold fewer triplets, the certified bound they carry in its place) and
    any merged value pushed past the cap, so it bounds the blockwise
    reconstruction error of the stream.
    """
    if isinstance(Xi, kernels.SvdTriplet):
        trip, parts = Xi, (Xi.U, Xi.S, Xi.V)
    else:
        Xi = np.asarray(Xi, dtype=float)
        trip, parts = None, (Xi,)
    if not all(np.all(np.isfinite(M)) for M in parts):
        raise InputError("snapshot contains non-finite entries")
    if not acc.is_empty and Xi.shape != (acc.Vt.shape[0], acc.Wh.shape[0]):
        raise DimensionError(
            f"snapshot shape {Xi.shape} does not match the stream "
            f"({acc.Vt.shape[0]}, {acc.Wh.shape[0]})"
        )
    if _is_zero(Xi):
        return acc

    cap = min(acc.kappa, min(Xi.shape))
    probe = min(acc.kappa + 1, min(Xi.shape))
    if trip is None:
        trip = kernels.truncated_svd(Xi, probe)
    # sigma_{kappa+1}, or the certified bound on it when fewer triplets came back
    snapshot_discard = float(trip.S[cap]) if len(trip.S) > cap else trip.tail
    keep = trip.S[:cap] >= NEGLIGIBLE_REL * trip.S[0]
    U, s, V = trip.U[:, :cap][:, keep], trip.S[:cap][keep], trip.V[:, :cap][:, keep]

    symmetric = acc.symmetric_stream and _is_symmetric(Xi)
    sid = np.full(len(s), acc.count_processed, dtype=int)

    if acc.is_empty:
        vals = s
        lefts, rights, ids = U, V, sid
    else:
        vals = np.concatenate([acc.St, s])
        lefts = np.hstack([acc.Vt, U])
        rights = np.hstack([acc.Wh, V])
        ids = np.concatenate([acc.source_ids, sid])

    order = np.argsort(-vals, kind="stable")
    kept = order[: acc.kappa]
    dropped = order[acc.kappa :]
    discard_max = max(acc.sigma_discard_max, snapshot_discard)
    if len(dropped):
        discard_max = max(discard_max, float(vals[dropped].max()))

    return TripletAccumulator(
        kappa=acc.kappa,
        Vt=lefts[:, kept],
        St=vals[kept],
        Wh=rights[:, kept],
        sigma_discard_max=discard_max,
        count_processed=acc.count_processed + 1,
        source_ids=ids[kept],
        symmetric_stream=symmetric,
    )


@dataclass(frozen=True)
class BasisPair:
    """Orthonormal row-space basis Vl and column-space basis Wr with weights."""

    Vl: np.ndarray
    Wr: np.ndarray
    singvals_l: np.ndarray
    singvals_r: np.ndarray
    tau: float
    n_max: int
    kappa: int
    symmetric: bool = False

    @property
    def nu_l(self):
        return self.Vl.shape[1]

    @property
    def nu_r(self):
        return self.Wr.shape[1]


def _is_zero(Xi):
    return not np.any(Xi.S if isinstance(Xi, kernels.SvdTriplet) else Xi)


def _is_symmetric(Xi):
    """kernels.is_symmetric at STREAM_SYM_TOL; for factors U S V^T from the
    factors [U S, -V S] [V, U]^T of X - X^T, without forming either."""
    if not isinstance(Xi, kernels.SvdTriplet):
        return kernels.is_symmetric(Xi, STREAM_SYM_TOL)
    if Xi.shape[0] != Xi.shape[1]:
        return False
    skew = kernels.factored_svd(np.hstack([Xi.U * Xi.S, -(Xi.V * Xi.S)]), np.hstack([Xi.V, Xi.U]))
    return np.linalg.norm(skew.S) <= STREAM_SYM_TOL * np.linalg.norm(Xi.S)


def projection_error(Xi, basis):
    """Relative two-sided projection error of Xi onto a pruned basis pair.

    Measures ||Xi - Vl Vl^T Xi Wr Wr^T||_F / ||Xi||_F, i.e. how well the
    deliverable bases (not the raw accumulator span) reproduce Xi.  A zero
    snapshot scores 0.  For factors Xi = U S V^T the residual is the
    product [U S, -Vl C] [V, Wr]^T with C = Vl^T U S V^T Wr, and its norm
    comes from the singular values of that product (kernels.factored_svd),
    in O(n (r + nu)^2) and without cancellation.  A VectorBasis scores the
    column-major stacking of Xi instead (_vector_error).
    """
    if isinstance(basis, VectorBasis):
        return _vector_error(np.ravel(Xi, order="F"), basis.V)
    if isinstance(Xi, kernels.SvdTriplet):
        if _is_zero(Xi):
            return 0.0
        US = Xi.U * Xi.S
        core = (basis.Vl.T @ US) @ (Xi.V.T @ basis.Wr)
        resid = kernels.factored_svd(np.hstack([US, -(basis.Vl @ core)]),
                                     np.hstack([Xi.V, basis.Wr]))
        return float(np.linalg.norm(resid.S) / np.linalg.norm(Xi.S))
    Xi = np.asarray(Xi, dtype=float)
    denom = np.linalg.norm(Xi)
    if denom == 0.0:
        return 0.0
    resid = Xi - basis.Vl @ (basis.Vl.T @ Xi @ basis.Wr) @ basis.Wr.T
    return float(np.linalg.norm(resid) / denom)


def _vector_error(x, V):
    """||x - V V^T x||_2 / ||x||_2 of a vectorized snapshot; 0 for a zero one."""
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        return 0.0
    return float(np.linalg.norm(x - V @ (V.T @ x)) / nrm)


def retained_count(s, tau, n_max):
    """Smallest nu with ||s[nu:]||_2 <= tau/sqrt(n_max) * ||s||_2 (at least 1)."""
    s = np.asarray(s, dtype=float)
    total = np.linalg.norm(s)
    tail = np.sqrt(np.concatenate([np.cumsum((s**2)[::-1])[::-1], [0.0]]))
    ok = np.nonzero(tail <= (tau / np.sqrt(n_max)) * total)[0]
    return max(1, int(ok[0]))


def prune(acc, tau, n_max):
    """Distill the accumulator into orthonormal bases via two weighted SVDs.

    The scaled factors Vt*sqrt(St) and sqrt(St)*Wh^T are decomposed
    separately and each side keeps the smallest leading block whose
    discarded tail is below tau/sqrt(n_max) in relative Frobenius norm.
    The pair is marked symmetric when every accumulated snapshot was
    symmetric and both sides keep the same width.
    """
    if acc.is_empty:
        raise DimensionError("cannot prune an empty accumulator")
    if not 0.0 < tau < 1.0:
        raise DimensionError("tau must lie in (0, 1)")
    root = np.sqrt(acc.St)
    L = acc.Vt * root[None, :]
    R = root[:, None] * acc.Wh.T

    Ul, sl, _ = np.linalg.svd(L, full_matrices=False)
    _, sr, Vrh = np.linalg.svd(R, full_matrices=False)
    nu_l = retained_count(sl, tau, n_max)
    nu_r = retained_count(sr, tau, n_max)
    Vl = _sign_normalize(Ul[:, :nu_l].copy())
    Wr = _sign_normalize(Vrh[:nu_r].T.copy())
    return BasisPair(
        Vl=Vl, Wr=Wr, singvals_l=sl[:nu_l].copy(), singvals_r=sr[:nu_r].copy(),
        tau=tau, n_max=n_max, kappa=acc.kappa,
        symmetric=bool(acc.symmetric_stream and nu_l == nu_r),
    )


@dataclass
class SelectionReport:
    """Bookkeeping of one snapshot-selection run.  A run that takes every
    nonzero snapshot (vanilla_pod, vector_pod with n_max) has no phases and
    scores none."""

    included_times: np.ndarray
    phases_used: int = 0
    evaluated_times: np.ndarray = field(default_factory=lambda: np.array([]))
    per_time_error: np.ndarray = field(default_factory=lambda: np.array([]))
    phase_mean_errors: list = field(default_factory=list)
    peak_storage_floats: int = 0
    seconds: float = 0.0

    @property
    def n_s(self):
        return len(self.included_times)


def effective_n_max(n_max):
    """Largest multiple of 4 not exceeding n_max (phases need quarters)."""
    if n_max < 4:
        raise DimensionError("n_max must be at least 4")
    return n_max - (n_max % 4)


def candidate_times(t_final, n_max):
    """Equispaced candidate nodes on [0, t_final], count forced to 4k."""
    m = effective_n_max(n_max)
    return np.linspace(0.0, t_final, m)


def phase_index_sets(m):
    """Three interleaved passes over m = 4k nodes: coarse, midpoints, odds."""
    if m % 4 != 0:
        raise DimensionError("node count must be a multiple of 4")
    return [np.arange(0, m, 4), np.arange(2, m, 4), np.arange(1, m, 2)]


def _phased_selection(times, m, tol, score, include):
    """The adaptive sweep shared by dynamic_pod and vector_pod.

    include(i) adds node i to the bases and says whether it joined (a zero
    snapshot does not); score(i) rates node i against the current bases.
    Node 0 seeds the bases unscored.  Every later node of the three phases
    is scored and included when its score exceeds tol, then rescored
    against the refreshed bases, so the stop test (phase mean of scores
    <= tol, once a node has joined) sees residuals, not the triggering
    errors.  Returns a SelectionReport without storage or timing.
    """
    included = [times[0]] if include(0) else []
    evaluated, errors, phase_means = [], [], []
    for p, idx in enumerate(phase_index_sets(m)):
        errs = []
        for i in idx:
            if p == 0 and i == 0:
                continue  # seed node
            e = score(i)
            evaluated.append(times[i])
            errors.append(e)
            if e > tol and include(i):
                included.append(times[i])
                e = score(i)
            errs.append(e)
        phase_means.append(float(np.sum(errs) / len(idx)))
        if phase_means[-1] <= tol and included:
            break
    return SelectionReport(
        included_times=np.array(included), phases_used=len(phase_means),
        evaluated_times=np.array(evaluated),
        per_time_error=np.array(errors),
        phase_mean_errors=phase_means,
    )


def dynamic_pod(source, tol, kappa, tau):
    """Phased adaptive selection plus pruning; the main offline routine.

    Walks the candidate nodes of `source` in three phases.  The first
    snapshot seeds the accumulator; every later node is scored by how well
    the current tau-pruned bases reproduce it (projection_error, relative
    in the Frobenius norm), and included when that score exceeds tol.
    Scoring against the pruned deliverable rather than the raw
    accumulator span keeps the test honest: the accumulator routinely
    spans a snapshot that the truncated bases cannot represent, and the
    truncated bases are what the reduced model uses.  It also decouples the
    selection count from the truncation level, since tightening tau
    enriches the bases at the same rate it tightens the test.  The sweep
    itself is _phased_selection.  Snapshots are read with
    source.snapshot(i), so those a factored snapshot run keeps as factors
    are scored and accumulated as factors; prune sets the symmetric mark.
    Returns (BasisPair, SelectionReport).
    """
    times = np.asarray(source.times, dtype=float)
    m = effective_n_max(len(times))
    tic = time.perf_counter()
    acc = TripletAccumulator.empty(kappa)
    deliv = None  # the tau-pruned bases of the included snapshots
    peak = 0

    def score(i):
        Xi = source.snapshot(i)
        if deliv is None:
            return 0.0 if _is_zero(Xi) else 1.0
        return projection_error(Xi, deliv)

    def include(i):
        nonlocal acc, deliv, peak
        acc = accumulate(acc, source.snapshot(i))
        if acc.is_empty:
            return False
        deliv = prune(acc, tau, m)
        peak = max(peak, acc.storage_floats)
        return True

    report = _phased_selection(times, m, tol, score, include)
    basis = deliv if deliv is not None else prune(acc, tau, m)
    return basis, replace(report, peak_storage_floats=peak, seconds=time.perf_counter() - tic)


def vanilla_update(Vl, Wr, Xi, kappa):
    """One truncated-SVD basis update of the non-adaptive baseline.

    Appends the sqrt-scaled leading triplet factors of Xi to each current
    basis, reorthogonalizes (thin QR followed by an SVD of the small
    triangular factor) and keeps at most kappa directions per side.
    Returns (Vl, Wr, weights_l, weights_r); the weights are the singular
    values of the augmented reduction, used by the final tail truncation.
    Xi is nonzero: vanilla_pod skips zero snapshots.
    """
    trip = kernels.truncated_svd(Xi, min(kappa, min(Xi.shape)))
    keep = trip.S >= NEGLIGIBLE_REL * trip.S[0]
    root = np.sqrt(trip.S[keep])

    def reduce(basis, new_scaled):
        aug = new_scaled if basis is None else np.hstack([basis, new_scaled])
        Q, Rq = np.linalg.qr(aug)
        Us, ss, _ = np.linalg.svd(Rq)
        nonzero = int(np.sum(ss >= NEGLIGIBLE_REL * ss[0])) if ss[0] > 0 else 1
        nu = min(kappa, nonzero)
        return _sign_normalize(Q @ Us[:, :nu]), ss[:nu]

    Vl2, sl = reduce(Vl, trip.U[:, keep] * root[None, :])
    Wr2, sr = reduce(Wr, trip.V[:, keep] * root[None, :])
    return Vl2, Wr2, sl, sr


def vanilla_pod(source, kappa, tau):
    """Process every candidate snapshot with vanilla_update, then truncate.

    The tail criterion of `prune` is applied to the singular values of the
    last reduction.  Returns (BasisPair, SelectionReport).
    """
    times = np.asarray(source.times, dtype=float)
    m = len(times)
    tic = time.perf_counter()
    Vl = Wr = None
    included = []
    peak = 0
    for i in range(m):
        Xi = source.matrix(i)
        if np.linalg.norm(Xi) == 0.0:
            continue
        Vl, Wr, sl, sr = vanilla_update(Vl, Wr, Xi, kappa)
        included.append(times[i])
        peak = max(peak, Vl.size + Wr.size)
    if Vl is None:
        raise DimensionError("vanilla update never saw a nonzero snapshot")
    nu_l = retained_count(sl, tau, m)
    nu_r = retained_count(sr, tau, m)
    basis = BasisPair(
        Vl=Vl[:, :nu_l].copy(), Wr=Wr[:, :nu_r].copy(),
        singvals_l=sl[:nu_l].copy(), singvals_r=sr[:nu_r].copy(),
        tau=tau, n_max=m, kappa=kappa,
    )
    return basis, SelectionReport(np.array(included), peak_storage_floats=peak,
                                  seconds=time.perf_counter() - tic)


@dataclass(frozen=True)
class VectorBasis:
    """Orthonormal basis of vectorized snapshots (column-major stacking)."""

    V: np.ndarray

    @property
    def k(self):
        return self.V.shape[1]


VECTOR_GUARD_DIM = 512


def vector_pod(source, tol, tau, n_max=None, override_guard=False):
    """Vectorized single-basis baseline over the same three phases.

    Each included snapshot is stacked column-major into a tall snapshot
    matrix whose tau-truncated left singular basis doubles as the inclusion
    test space, mirroring the matrix route: a node joins when the truncated
    basis misses it by more than tol, and each inclusion takes one SVD, the
    last of which serves the basis.  Given n_max, the run does not adapt:
    every nonzero snapshot is stacked, the stack takes one SVD, and its tail
    is truncated as for n_max snapshots.
    peak_storage_floats is the storage of the final stack and basis.
    Refuses matrices larger than VECTOR_GUARD_DIM per side unless
    override_guard is set, since storage grows with n^2 per snapshot.
    """
    shape = source.matrix(0).shape
    if max(shape) > VECTOR_GUARD_DIM and not override_guard:
        raise ConfigError(
            f"vectorized snapshots at n = {max(shape)} exceed the desk-scale "
            f"guard ({VECTOR_GUARD_DIM}); pass override_memory_guard to force"
        )
    times = np.asarray(source.times, dtype=float)
    adaptive = n_max is None
    m = effective_n_max(len(times)) if adaptive else n_max
    tic = time.perf_counter()

    cols = []
    svd = Vk = None  # SVD of the included snapshots' stack and its tau-truncated basis

    def snapshot(i):
        return source.matrix(i).ravel(order="F")

    def stack_svd():
        U, s, _ = np.linalg.svd(np.column_stack(cols), full_matrices=False)
        return U, s

    def include(i):
        nonlocal svd, Vk
        xi = snapshot(i)
        if not np.linalg.norm(xi) > 0:
            return False
        cols.append(xi)
        if adaptive:    # the next score tests against the grown stack
            U, s = svd = stack_svd()
            Vk = U[:, : retained_count(s, tau, m)]
        return True

    def score(i):
        xi = snapshot(i)
        if Vk is None:
            return 0.0 if np.linalg.norm(xi) == 0.0 else 1.0
        return _vector_error(xi, Vk)

    if adaptive:
        report = _phased_selection(times, m, tol, score, include)
    else:
        report = SelectionReport(np.array([times[i] for i in range(len(times)) if include(i)]))

    if not cols:
        raise DimensionError("vector selection never saw a nonzero snapshot")
    U, s = svd if adaptive else stack_svd()
    basis = VectorBasis(_sign_normalize(U[:, :retained_count(s, tau, m)].copy()))
    peak = len(cols) * len(U) + basis.V.size   # the final stack and basis
    return basis, replace(report, peak_storage_floats=peak, seconds=time.perf_counter() - tic)

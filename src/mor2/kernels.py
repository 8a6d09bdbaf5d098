"""Dense linear-algebra primitives used by every other module.

Contract-checked wrappers around LAPACK-backed numpy/scipy routines:
truncated SVDs, eigendecompositions and column-pivoted QR, whose ties LAPACK
breaks by lowest index (IDAMAX takes the first maximum).  Plus the
Propagator, the first-order stepper shared by the full and reduced models.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, InputError, RankError, SingularityError

# Tolerances and sizes, fixed for every call; is_symmetric alone takes its
# tolerance as a parameter.
SYM_REL_TOL = 1e-10        # relative asymmetry accepted by symmetric paths
RANK_TOL = 1e-12           # pivot threshold relative to ||Bt||_F
OVERLAP_TOL = 1e-12        # spectral-overlap threshold for Sylvester solves
EIG_COND_LIMIT = 1e12      # max acceptable condition number of an eigenbasis
DENSE_SVD_MAX = 256        # largest dimension solved by a full dense SVD
NEGLIGIBLE_REL = 1e-14     # singular values below this share of sigma_1 count as zero
RANGE_BLOCK = 32           # first block width of the randomized range finder
RESIDUAL_ROWS = 32         # rows per block of the range finder's residual norm

# A fixed seed keeps the randomized SVD deterministic run to run.
_RANGE_SEED = 20240901
_WARM_OMEGA = {}


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")


def is_symmetric(A, rel_tol=SYM_REL_TOL):
    """True when A is square and ||A - A^T||_F <= rel_tol * ||A||_F."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    return np.linalg.norm(A - A.T) <= rel_tol * np.linalg.norm(A)


@dataclass(frozen=True)
class SvdTriplet:
    """Leading singular triplets: U (m, r), S (r,) nonincreasing, V (n, r).

    tail is a certified upper bound on the first singular value not
    returned (0 when none is left).
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    tail: float

    @property
    def shape(self):
        """Shape of the matrix U diag(S) V^T."""
        return self.U.shape[0], self.V.shape[0]

    def dense(self):
        """U diag(S) V^T as an ndarray."""
        return (self.U * self.S) @ self.V.T


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition A = Q diag(values) Q^{-1}, built by eig_pair, which
    gives None instead when A has no usable eigenbasis.

    For symmetric input Q is orthogonal, values are real ascending and
    ``inverse`` is simply Q^T.  A tridiagonal matrix similar to a symmetric
    one has real values and a real, non-orthogonal Q.  For other general
    input Q and the values are complex unless every eigenvalue is real.
    The Propagator's folded pairs hold Q and Q^{-1} as real FoldedMatrix
    objects.
    """

    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray


def truncated_svd(M, r):
    """Leading singular triplets of a dense matrix, at most r of them.

    Up to min(m, n) = DENSE_SVD_MAX this is one LAPACK SVD truncated to r,
    tail the exact sigma_{r+1}.  Above it a seeded Gaussian range finder
    with one power iteration (Halko, Martinsson & Tropp, SIAM Rev. 53(2),
    2011) takes l = 32, 64, ... orthonormal columns Q until the residual
    ||M - Q Q^T M||_F is at most NEGLIGIBLE_REL * sigma_1(Q^T M), or falls
    back to the dense SVD once l would exceed min(m, n) / 4.  It returns
    the leading k = min(r, l) triplets of Q^T M and tail = sigma_{k+1}(Q^T M)
    + residual, as sigma_i(M) <= sigma_i(Q^T M) + ||M - Q Q^T M||_2 (Weyl).
    compress shares the range finder.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError("truncated_svd expects a matrix")
    _check_finite("M", M)
    if not 1 <= r <= min(M.shape):
        raise DimensionError(f"rank {r} out of range for shape {M.shape}")

    if min(M.shape) > DENSE_SVD_MAX:
        trip = _range_finder(M, r)
        if trip is not None:
            return trip
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    tail = float(s[r]) if r < len(s) else 0.0
    return SvdTriplet(U[:, :r].copy(), s[:r].copy(), Vh[:r].T.copy(), tail)


def compress(M, start=None):
    """Certified low-rank factors of M from the range finder of truncated_svd,
    or None when min(m, n) / 4 columns do not certify them or M is not
    finite.

    Keeps the triplets of Q^T M at or above NEGLIGIBLE_REL * sigma_1, so
    ||M - U diag(S) V^T||_2 <= tail.  start (n, k), orthonormal columns near
    M's row space (the V of a call on a nearby matrix), warm-starts it: one
    pass with the test matrix [start, RANGE_BLOCK / 4 seeded Gaussian
    columns] and no power iteration, then the cold blocks when that pass is
    not certified.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError("compress expects a matrix")
    return _range_finder(M, None, start)


def factored_svd(L, R):
    """SvdTriplet of L R^T (tail 0) from thin QRs of the factors, O(n k^2)."""
    Ql, Tl = np.linalg.qr(L)
    Qr, Tr = np.linalg.qr(R)
    Uc, s, Vch = np.linalg.svd(Tl @ Tr.T)
    return SvdTriplet(Ql @ Uc, s, Qr @ Vch.T, 0.0)


def _range_finder(M, r, start=None):
    """The warm pass and the cold blocks of truncated_svd and compress."""
    limit = min(M.shape) / 4
    n, extra = M.shape[1], RANGE_BLOCK // 4
    if start is not None and start.shape[1] + extra <= limit:
        if n not in _WARM_OMEGA:    # the same draw each time: made once per n, read-only
            _WARM_OMEGA[n] = np.random.default_rng(_RANGE_SEED).standard_normal((n, extra))
            _WARM_OMEGA[n].flags.writeable = False
        trip = _range_svd(M, r, _WARM_OMEGA[n], start)
        if trip is not None:
            return trip
    rng = np.random.default_rng(_RANGE_SEED)
    block = RANGE_BLOCK
    while block <= limit:
        trip = _range_svd(M, r, rng.standard_normal((n, block)))
        if trip is not None:
            return trip
        block *= 2
    return None


def _range_svd(M, r, omega, start=None):
    """truncated_svd from a block-column range finder with the Gaussian test
    columns omega, or None when M is not finite or the residual is not
    negligible.  With start the test matrix is [start, omega], without a power
    iteration; r = None keeps the triplets at or above NEGLIGIBLE_REL * sigma_1."""
    sketch = M @ omega if start is None else (np.hstack([start, omega]).T @ M.T).T
    if not np.all(np.isfinite(sketch)):     # nor is M: a non-finite entry spoils its row
        return None
    if start is None:
        Q = np.linalg.qr(sketch)[0]
        Q = np.linalg.qr(M @ np.linalg.qr(M.T @ Q)[0])[0]     # one power iteration
        B = Q.T @ M
        Ub, s, Vh = np.linalg.svd(B, full_matrices=False)
    else:   # a column-major sketch, which the QR does not copy; B = T^T Qt^T, so an l x l SVD
        Q = scipy.linalg.qr(sketch, overwrite_a=True, mode="economic", check_finite=False)[0]
        B = Q.T @ M
        Qt, T = np.linalg.qr(B.T)
        Ub, s, Wh = np.linalg.svd(T.T)
        Vh = Wh @ Qt.T
    resid = _residual_norm(M, Q, B)
    if resid > NEGLIGIBLE_REL * s[0]:
        return None
    if r is None:
        k = int(np.count_nonzero(s >= NEGLIGIBLE_REL * s[0])) if s[0] > 0 else 0
    else:
        k = min(r, len(s))
    tail = resid + (float(s[k]) if k < len(s) else 0.0)
    return SvdTriplet(Q @ Ub[:, :k], s[:k].copy(), Vh[:k].T.copy(), tail)


def _residual_norm(M, Q, B):
    """||M - Q B||_F summed over blocks of RESIDUAL_ROWS rows, so that no
    array of M's size is allocated (a block stays in cache)."""
    total = 0.0
    for lo in range(0, M.shape[0], RESIDUAL_ROWS):
        D = Q[lo:lo + RESIDUAL_ROWS] @ B
        D -= M[lo:lo + RESIDUAL_ROWS]
        D = D.ravel()
        total += float(D @ D)
    return float(np.sqrt(total))


def pivoted_qr_indices(Bt):
    """Column-pivot sequence of a short fat matrix Bt (p, n), p <= n.

    LAPACK's QR with column pivoting (geqp3, Businger-Golub): each step takes
    the column of largest residual norm, the first of equal ones (BLAS
    IDAMAX), and deflates it by a Householder reflection.  Returns the p
    chosen column indices in pivot order.
    """
    Bt = np.asarray(Bt, dtype=float)
    if Bt.ndim != 2 or Bt.shape[0] > Bt.shape[1]:
        raise DimensionError("expected a p x n matrix with p <= n")
    _check_finite("Bt", Bt)
    R, piv = scipy.linalg.qr(Bt, mode="r", pivoting=True)
    small = np.abs(np.diag(R)) < RANK_TOL * max(np.linalg.norm(Bt), 1e-300)
    if small.any():
        raise RankError(f"pivot {int(np.argmax(small))} fell below {RANK_TOL:.1e} * "
                        "||Bt||_F: input is rank deficient")
    return piv[:Bt.shape[0]]


def eig_pair(A):
    """The one entry point for eigendecompositions: an EigenPair of a square,
    finite A, or None when no eigenbasis of A is usable.

    A symmetric within SYM_REL_TOL gets LAPACK's symmetric solver on
    (A + A^T) / 2: Q orthogonal, values ascending, inverse Q^T.  Any other A
    takes tridiagonal_eig when it applies, else general_eig.  None (an
    eigenbasis too ill conditioned, or none at all) sends the Propagator to
    real Schur coordinates.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError("eig_pair expects a square matrix")
    _check_finite("A", A)
    if is_symmetric(A):
        vals, Q = np.linalg.eigh(0.5 * (A + A.T))
        return EigenPair(vals, Q, Q.T.copy())
    pair = tridiagonal_eig(A)
    return pair if pair is not None else general_eig(A)


def general_eig(S):
    """Eigendecomposition of a finite square matrix with an explicit inverse,
    or None when the eigenvector basis has a 2-norm condition number above
    EIG_COND_LIMIT or an infinite one (a defective S, whose Q is singular).
    eig_pair checks the input.
    """
    vals, Q = np.linalg.eig(S)
    cond = np.linalg.cond(Q)
    if not np.isfinite(cond) or cond > EIG_COND_LIMIT:
        return None
    return EigenPair(vals, Q, np.linalg.inv(Q))


def tridiagonal_eig(A):
    """Eigendecomposition of a tridiagonal A similar to a symmetric one, or None.

    An exactly tridiagonal A with A[i+1, i] A[i, i+1] > 0 for every i is
    D S D^-1 with S symmetric tridiagonal and D diagonal, d_{i+1} / d_i =
    sqrt(A[i+1, i] / A[i, i+1]).  D is summed in logs, so that it cannot
    overflow.  LAPACK's symmetric tridiagonal solver gives S = Q_S L Q_S^T,
    so Q = D Q_S and Q^-1 = Q_S^T D^-1 need no inverse, and cond(Q) =
    cond(D).  Any other pattern, or cond(D) above EIG_COND_LIMIT, gives None.
    A is finite and square: eig_pair checks it.
    """
    sup, sub = np.diagonal(A, 1), np.diagonal(A, -1)
    if not np.all(np.sign(sup) * np.sign(sub) > 0):
        return None
    if np.count_nonzero(A) != np.count_nonzero(np.diagonal(A)) + 2 * len(sup):
        return None     # an entry off the three diagonals
    log_d = np.concatenate([[0.0], np.cumsum(0.5 * (np.log(np.abs(sub)) - np.log(np.abs(sup))))])
    lo, hi = log_d.min(), log_d.max()
    if hi - lo > np.log(EIG_COND_LIMIT):
        return None
    d = np.exp(log_d - 0.5 * (lo + hi))
    off = np.sign(sup) * np.sqrt(np.abs(sup)) * np.sqrt(np.abs(sub))
    vals, QS = scipy.linalg.eigh_tridiagonal(np.diagonal(A), off)
    return EigenPair(vals, d[:, None] * QS, QS.T / d[None, :])


def phi1(z):
    """First exponential-integrator kernel (e^z - 1) / z, with phi1(0) = 1."""
    z = np.atleast_1d(np.asarray(z))
    out = np.ones_like(z, dtype=np.result_type(z, float))
    high = z.real > 700.0       # expm1 overflows before the quotient does: e^{z - log z}
    nz = ~((np.abs(z) <= 1e-150) | high)   # below, 1 + z/2 + ... rounds to 1; NaN stays
    out[nz] = np.expm1(z[nz]) / z[nz]
    out[high] = np.exp(z[high] - np.log(z[high]))
    return out


class FoldedMatrix:
    """An n x n matrix kept as the two m x m blocks of one of the forms

        K blkdiag(H1, H2)   (unfold=True, a map out of the coordinates),
        blkdiag(H1, H2) K   (unfold=False, a map into them),

    n = 2m, with K = [[I, J], [J, -I]] the butterfly of mirrored rows and J
    the reversal of order; the 1/sqrt(2) that makes K orthogonal is carried
    by the blocks.  A product with it is two half-size products plus O(n^2)
    mirrored adds and subtracts.  It multiplies ndarrays with @ on either
    side (X @ M as (M^T X^T)^T) and converts to a dense ndarray on request.
    """

    __array_ufunc__ = None     # so that X @ M defers to __rmatmul__

    def __init__(self, H1, H2, unfold):
        self.H1, self.H2, self.unfold = H1, H2, unfold
        n = 2 * H1.shape[0]
        self.shape = (n, n)
        self.dtype = np.result_type(H1, H2)
        self._T = None

    @property
    def T(self):
        if self._T is None:     # no link back: a cycle would hold the blocks until gc runs
            self._T = FoldedMatrix(self.H1.T, self.H2.T, not self.unfold)
        return self._T

    def lmul(self, X, out, spare):
        """out = M X over the last two axes, through the scratch spare.

        spare must differ from X and out; out may share X's memory when M
        maps out, as X is then read before out is written.  The butterfly
        reads and writes halves of rows; they are contiguous, and no buffer
        is allocated, when X and spare (M maps in) or spare and out (M maps
        out) are row-major.
        """
        m = self.H1.shape[0]
        if self.unfold:
            np.matmul(self.H1, X[..., :m, :], out=spare[..., :m, :])
            np.matmul(self.H2, X[..., m:, :], out=spare[..., m:, :])
            return _butterfly(spare, out)
        _butterfly(X, spare)
        np.matmul(self.H1, spare[..., :m, :], out=out[..., :m, :])
        np.matmul(self.H2, spare[..., m:, :], out=out[..., m:, :])
        return out

    def rmul(self, X, out, spare):
        """out = X M, as (M^T X^T)^T: lmul with the roles of rows and columns
        swapped, so the arrays it names there should be column-major."""
        self.T.lmul(*(np.swapaxes(a, -1, -2) for a in (X, out, spare)))
        return out

    def __matmul__(self, X):
        X = np.asarray(X)
        out = np.empty(X.shape, np.result_type(self.dtype, X))
        return self.lmul(X, out, np.empty_like(out))

    def __rmatmul__(self, X):
        out = self.T @ np.swapaxes(np.asarray(X), -1, -2)
        return np.ascontiguousarray(np.swapaxes(out, -1, -2))

    def __array__(self, dtype=None, copy=None):
        dense = self @ np.eye(self.shape[0])
        return dense if dtype is None else dense.astype(dtype)


def _butterfly(X, out):
    """out = [X1 + J X2; J X1 - X2] for X = [X1; X2] split at half height,
    J the reversal of row order.  The mirrored halves are copied first,
    since ufuncs would buffer a reversed operand."""
    m = X.shape[-2] // 2
    top, bot = X[..., :m, :], X[..., m:, :]
    out_top, out_bot = out[..., :m, :], out[..., m:, :]
    np.copyto(out_top, bot[..., ::-1, :])
    np.copyto(out_bot, top[..., ::-1, :])
    out_top += top
    out_bot -= bot
    return out


def _eig_folded(A):
    """eig_pair of A from two half-size blocks, or None when A does not fold.

    For n = 2m and J A J = A, the orthogonal K0 = [[I, I], [J, -J]] / sqrt(2)
    splits A into blkdiag(A11 + A12 J, A11 - A12 J) (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976), so the eigenvectors are K0 blkdiag(Q1, Q2) =
    K blkdiag(Q1, J Q2) / sqrt(2), kept as FoldedMatrix blocks.  A folds when
    it is centrosymmetric of even size and eig_pair gives both halves real
    eigenbases; a half with none (None) or a complex one does not fold.
    """
    n = A.shape[0]
    if n % 2 or not np.array_equal(A, A[::-1, ::-1]):
        return None
    m = n // 2
    A11, A12J = A[:m, :m], A[:m, m:][:, ::-1]
    e1, e2 = eig_pair(A11 + A12J), eig_pair(A11 - A12J)
    if any(e is None or np.iscomplexobj(e.vectors) for e in (e1, e2)):
        return None
    s = np.sqrt(0.5)
    return EigenPair(
        np.concatenate([e1.values, e2.values]),
        FoldedMatrix(s * e1.vectors, s * e2.vectors[::-1], unfold=True),
        FoldedMatrix(s * e1.inverse, s * e2.inverse[:, ::-1], unfold=False),
    )


class Propagator:
    """First-order stepper for  U' = A U + U B + F  at frozen F, for one pair (A, B).

    scheme "etd" is exponential Euler (exact on the linear part, F through
    phi1); "imex" is semi-implicit Euler, (I - hA) U+ - h U+ B = U + h F.
    The state is carried in the coordinates Uhat = Qa^-1 U Qb of eigenbases
    of A and B, where both schemes are the Hadamard update
    Uhat+ = E .* Uhat + P .* Fhat  with

        etd:   E = e^{h la} (e^{h lb})^T,      P = h phi1(h (la_i + lb_j)),
        imex:  E = 1 / (1 - h (la_i + lb_j)),  P = h E.

    h phi1 of the eigenvalue sums is the quotient (e^{h (la_i + lb_j)} - 1) /
    (la_i + lb_j) that solves the step's Sylvester equation, finite also
    where the sums vanish.  The pair folds when A and B both have even size,
    J A J = A and J B J = B (J the reversal of index order; the Dirichlet and
    periodic Laplacians) and real eigenbases in all four halves: each side is
    then decomposed through its two half-size blocks, and its basis and
    inverse are FoldedMatrix objects, which halve the cost of every map into
    or out of the coordinates.  Every other pair keeps dense bases.  B = A
    reuses A's eigenbasis; B = A^T takes (Qa^-1)^T and Qa^T as transposed
    views; then, as for a symmetric B = A, map_factors takes both factors of
    L R^T with one product.  When eig_pair finds no usable eigenbasis of A
    or of B (None; a half without one makes its side not fold, and
    eig_pair on the whole matrix decides) the coordinates are the real
    Schur bases of A and B instead, and a step solves one quasi-triangular
    Sylvester equation.  The step factors are kept for the latest h only.
    """

    def __init__(self, A, B, scheme):
        if scheme not in ("imex", "etd"):
            raise DimensionError(f"unknown scheme {scheme!r}")
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        self.scheme = scheme
        eigA = _eig_folded(A)
        same = np.array_equal(B, A)
        shared = np.array_equal(B, A.T)     # Qb^T = Qa^-1, Qb^-T = Qa
        if same or shared:      # B's halves are A's, transposed or not
            eigA = eig_pair(A) if eigA is None else eigA
            eigB = eigA if same or eigA is None else EigenPair(eigA.values, eigA.inverse.T,
                                                                eigA.vectors.T)
        else:
            eigB = None if eigA is None else _eig_folded(B)
            if eigB is None:        # both sides fold or neither does
                eigA, eigB = eig_pair(A), eig_pair(B)
        self.fallback = eigA is None or eigB is None
        self.shared = shared and not self.fallback      # Schur bases of A and A^T are unrelated
        if not self.fallback:
            self.Qa, self.Qa_inv, self.la = eigA.vectors, eigA.inverse, eigA.values
            self.Qb, self.Qb_inv, self.lb = eigB.vectors, eigB.inverse, eigB.values
        else:
            self.Ta, self.Qa = scipy.linalg.schur(A, output="real")
            self.Tb, self.Qb = scipy.linalg.schur(B, output="real")
            self.Qa_inv, self.Qb_inv = self.Qa.T, self.Qb.T
            self.la, self.lb = np.linalg.eigvals(self.Ta), np.linalg.eigvals(self.Tb)
        self.separation = float(np.min(np.abs(self.la[:, None] + self.lb[None, :])))
        scale = np.linalg.norm(A) + np.linalg.norm(B)
        if self.fallback and scheme == "etd" and self.separation < OVERLAP_TOL * max(scale, 1e-300):
            raise SingularityError("spectra of A and -B overlap and no stable eigenbasis exists")
        self._h = None
        self._work = None

    def to_coords(self, U):
        """Qa^-1 U Qb."""
        return self.Qa_inv @ U @ self.Qb

    def to_physical(self, Uhat):
        """Qa Uhat Qb^-1, real; Uhat may be a stack of coordinate matrices."""
        out = self.Qa @ Uhat @ self.Qb_inv
        return out.real if np.iscomplexobj(out) else out

    def work(self, shape, dtype):
        """Row-major scratch of this shape and dtype, kept for reuse ((k, m, n) for k matrices)."""
        if self._work is None or self._work.shape != shape or self._work.dtype != dtype:
            self._work = np.empty(shape, dtype)
        return self._work

    def map_factors(self, L, R, out=False):
        """(Qa^-1 L, Qb^T R), coordinate factors of L R^T, or with out (Qa L, Qb^-T R);
        Q X is taken as (X^T Q^T)^T, which OpenBLAS runs faster for a thin X."""
        left, right = (self.Qa, self.Qb_inv.T) if out else (self.Qa_inv, self.Qb.T)
        if not self.shared:
            return (L.T @ left.T).T, (R.T @ right.T).T
        LR = (np.hstack([L, R]).T @ left.T).T       # right is left
        return LR[:, :L.shape[1]], LR[:, L.shape[1]:]

    def advance_factors(self, Lc, Rc, Lf, Rf, h):
        """advance of Uhat = Lc Rc^T at frozen Fhat = Lf Rf^T, into scratch.  Eigen-coordinates
        form neither: etd (E = ea eb^T) takes P .* (Lf Rf^T) + (ea .* Lc)(eb .* Rc)^T,
        the product accumulated in place, imex E .* ([Lc, h Lf] [Rc, Rf]^T)."""
        M, spare = self.work((2, len(Lc), len(Rc)), float)
        if self.fallback:
            return self.advance(np.matmul(Lc, Rc.T, out=M), np.matmul(Lf, Rf.T, out=spare), h)
        E, P = self._factors(h)
        if self.scheme == "imex":
            np.matmul(np.hstack([Lc, h * Lf]), np.hstack([Rc, Rf]).T, out=M)
            return np.multiply(M, E, out=M)
        np.multiply(np.matmul(Lf, Rf.T, out=M), P, out=M)
        a, b = np.exp(h * self.lb)[:, None] * Rc, np.exp(h * self.la)[:, None] * Lc
        for X in (a, b):    # E's far corner would make subnormal products, ~100x slower on x86
            X[np.abs(X) < 1e-150 * np.max(np.abs(X), initial=0.0)] = 0.0
        scipy.linalg.blas.dgemm(1.0, a, b, 1.0, M.T, trans_b=True, overwrite_c=True)
        return M

    def advance(self, Uhat, Fhat, h, out=None):
        """One step of the coordinates Uhat at frozen Fhat (also in coordinates).

        In eigen-coordinates Uhat is updated in place, or left alone when the
        step goes to out, and Fhat is overwritten; in Schur coordinates the
        step is a new matrix, copied into out when given.  Returns the new Uhat.
        """
        E, P = self._factors(h)
        if not self.fallback:
            out = np.multiply(Uhat, E, out=Uhat if out is None else out)
            Fhat *= P
            out += Fhat
            return out
        # Schur coordinates: E and P are the left and right step factors,
        # exp(hTa) and exp(hTb) for etd, I - hTa and -hTb for imex.
        Unew = (_schur_sylvester(E, P, Uhat + h * Fhat) if self.scheme == "imex" else
                E @ Uhat @ P + _schur_sylvester(self.Ta, self.Tb, E @ Fhat @ P - Fhat))
        if out is None:
            return Unew
        np.copyto(out, Unew)
        return out

    def _factors(self, h):
        if h != self._h:
            self._E, self._P = self._step_factors(h)
            self._h = h
        return self._E, self._P

    def _step_factors(self, h):
        z = h * (self.la[:, None] + self.lb[None, :])
        if self.scheme == "imex" and np.min(np.abs(1.0 - z)) < 1e-14:
            raise SingularityError("implicit Euler operator is singular at this step size")
        if self.fallback and self.scheme == "etd":
            return scipy.linalg.expm(h * self.Ta), scipy.linalg.expm(h * self.Tb)
        if self.fallback:
            return np.eye(len(self.Ta)) - h * self.Ta, -h * self.Tb
        if self.scheme == "etd":
            E = np.exp(h * self.la)[:, None] * np.exp(h * self.lb)[None, :]
            E[np.abs(E) < np.finfo(float).tiny] = 0.0     # subnormal products are ~100x slower
            return E, h * phi1(z)
        E = 1.0 / (1.0 - z)
        return E, h * E


def _schur_sylvester(T, S, C):
    """Solve T X + X S = C for T, S in real Schur form (LAPACK trsyl)."""
    X, scale, info = scipy.linalg.lapack.dtrsyl(T, S, C)
    if info < 0:
        raise InputError(f"trsyl rejected argument {-info}")
    return X / scale


def etd_euler_update(prop, Uhat, F, h, out):
    """One full-order step of the propagator prop from coordinates Uhat.

    F is the nonlinearity at the current state, in physical coordinates.
    Fhat = Qa^-1 F Qb, the Hadamard update of prop, and the new state
    U = Qa Uhat Qb^-1, written into out (a real matrix; it may be the state
    F was evaluated at).  With dense bases that is four n x n
    products; a folded pair replaces them by eight half-size ones.  Uhat is
    advanced in place and the intermediates go to prop's scratch matrices P
    and R, laid out row- or column-major as the folds of the side that reads
    them ask, so with real bases a step allocates nothing.  Returns (Uhat, out).
    """
    P, R = prop.work((2,) + Uhat.shape, Uhat.dtype)
    if isinstance(prop.Qa, FoldedMatrix):
        # The same scratch memory viewed column-major, for the folds of B's side;
        # Qb^-1 goes first, so that the last butterfly writes rows of out.
        Pc, Rc = (M.reshape(M.shape[::-1]).T for M in (P, R))
        prop.Qa_inv.lmul(F, Rc, P)
        Uhat = prop.advance(Uhat, prop.Qb.rmul(Rc, R, Pc), h)
        prop.Qb_inv.rmul(Uhat, Rc, Pc)
        prop.Qa.lmul(Rc, out, P)
        return Uhat, out
    np.matmul(prop.Qa_inv, F, out=R)
    Uhat = prop.advance(Uhat, np.matmul(R, prop.Qb, out=P), h)
    np.matmul(prop.Qa, Uhat, out=R)
    if not np.iscomplexobj(R):
        return Uhat, np.matmul(R, prop.Qb_inv, out=out)
    np.matmul(R, prop.Qb_inv, out=P)
    np.copyto(out, P.real)
    return Uhat, out

"""Two-sided discrete empirical interpolation of entrywise nonlinearities.

Given orthonormal bases (Vl, Wr) for the nonlinearity snapshots, LAPACK's
column-pivoted QR on the transposed bases (Q-DEIM) picks p1 rows and p2
columns; the oblique interpolant

    F_tilde = Vl (Pl^T Vl)^{-1} (Pl^T F Pr) (Wr^T Pr)^{-1} Wr^T

matches F exactly on the selected cross of entries.  For a reduced model
everything except the p1 x p2 sampled evaluations folds into four small
precomputed factor matrices, so the online cost does not touch n.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels, problems
from .errors import DimensionError, RankError


def qdeim_bound(n, p):
    """A priori bound on ||(P^T V)^{-1}||_2 of greedy-pivot selection."""
    return np.sqrt(n - p + 1.0) * np.sqrt((4.0**p + 6.0 * p - 1.0) / 3.0)


def _lu_or_raise(M, what):
    lu, piv = scipy.linalg.lu_factor(M)
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
        raise RankError(f"{what} selection matrix is numerically singular")
    return lu, piv


@dataclass
class DeimOperator:
    """Interpolation data: index sets, the small selection matrices and
    their LU factorizations, plus the 2-norm amplification constants."""

    row_idx: np.ndarray
    col_idx: np.ndarray
    left_factor: np.ndarray    # Pl^T Vl, (p1, p1)
    right_factor: np.ndarray   # Wr^T Pr, (p2, p2)
    lu_left: tuple
    lu_right: tuple
    c_l: float
    c_r: float

    @property
    def p1(self):
        return len(self.row_idx)

    @property
    def p2(self):
        return len(self.col_idx)


def build_deim(fbasis):
    """Select interpolation rows/columns for a basis pair via pivoted QR.

    When pod.prune marked the pair symmetric (every snapshot symmetric, equal
    widths) the column set reuses the row set, so the interpolant of a
    symmetric F stays symmetric.  This is the only reader of the mark.
    """
    row_idx = kernels.pivoted_qr_indices(fbasis.Vl.T)
    if fbasis.symmetric:
        col_idx = row_idx.copy()
    else:
        col_idx = kernels.pivoted_qr_indices(fbasis.Wr.T)
    return deim_operator(fbasis.Vl, fbasis.Wr, row_idx, col_idx)


def deim_operator(Vl, Wr, row_idx, col_idx):
    """The DeimOperator of a basis pair (Vl, Wr) at one index per basis column:
    Pl^T Vl and Wr^T Pr, their LU factors and amplification constants."""
    if len(row_idx) != Vl.shape[1] or len(col_idx) != Wr.shape[1]:
        raise DimensionError(f"{len(row_idx)} x {len(col_idx)} interpolation points for "
                             f"bases of width {Vl.shape[1]} and {Wr.shape[1]}")
    left = Vl[row_idx, :]
    right = Wr[col_idx, :].T
    lu_left = _lu_or_raise(left, "row")
    lu_right = _lu_or_raise(right, "column")
    c_l = 1.0 / np.linalg.svd(left, compute_uv=False)[-1]
    c_r = 1.0 / np.linalg.svd(right, compute_uv=False)[-1]
    return DeimOperator(row_idx, col_idx, left, right, lu_left, lu_right,
                        float(c_l), float(c_r))


def deim_approximate(op, fbasis, F):
    """Interpolate the full matrix F from its selected rows and columns."""
    S = np.asarray(F)[np.ix_(op.row_idx, op.col_idx)]
    T = scipy.linalg.lu_solve(op.lu_left, S)
    T = scipy.linalg.lu_solve(op.lu_right, T.T, trans=1).T
    return fbasis.Vl @ T @ fbasis.Wr.T


@dataclass
class RomDeimFactors:
    """Precomputed reduction factors; all shapes depend only on (k, p)."""

    Ml: np.ndarray       # (k1, p1) = (Vl_U^T Vl_F)(Pl^T Vl_F)^{-1}
    Mr: np.ndarray       # (p2, k2) = (Wr_F^T Pr)^{-1}(Wr_F^T Wr_U)
    Sl: np.ndarray       # (p1, k1) = Pl^T Vl_U, plain row selection
    Sr: np.ndarray       # (k2, p2) = Wr_U^T Pr, plain column selection
    row_idx: np.ndarray
    col_idx: np.ndarray
    points: tuple = None  # problems.sample_points of the indices, once known


def precompute_rom_factors(ubasis, fbasis, op):
    """Fold the state and nonlinearity bases into the four online factors.

    Index applications are pure row/column selections; the two inverse
    selection matrices enter through triangular solves of the stored LU
    factors, never as explicit inverses.
    """
    G = ubasis.Vl.T @ fbasis.Vl
    Ml = scipy.linalg.lu_solve(op.lu_left, G.T, trans=1).T
    H = fbasis.Wr.T @ ubasis.Wr
    Mr = scipy.linalg.lu_solve(op.lu_right, H)
    Sl = ubasis.Vl[op.row_idx, :]
    Sr = ubasis.Wr[op.col_idx, :].T
    return RomDeimFactors(Ml, Mr, Sl, Sr, op.row_idx.copy(), op.col_idx.copy())


def reduced_nonlinear(factors, spec, Y, t):
    """Reduced right-hand side F_k(Y, t) via sampled entrywise evaluation.

    The state is lifted only at the p1 x p2 selected grid positions
    (Z = Sl Y Sr), the nonlinearity is evaluated entrywise there, and the
    result is compressed by the precomputed factors:  Ml f(Z) Mr.  When the
    factors are folded into complex eigen-coordinates, Z is real up to
    rounding and its real part is evaluated.  The grid coordinates of the
    samples come from factors.points when the factors carry them.  The
    products are the np.dot chains rom.run_online takes, so both round alike.
    """
    Z = np.dot(np.dot(factors.Sl, Y), factors.Sr)
    if np.iscomplexobj(Z):
        Z = Z.real
    points = factors.points or problems.sample_points(spec, factors.row_idx, factors.col_idx)
    return np.dot(np.dot(factors.Ml, spec.nonlinear(Z, *points, t)), factors.Mr)

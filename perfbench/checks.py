"""Output checks that do not trust the code they check.

Each check recomputes a property of mor2's output with numpy and scipy
directly: the entrywise nonlinearities, the interpolant, the step equations
and the binary layout are written out here again rather than called from
mor2.  None compares against a stored copy of earlier output.  A failed
check raises CheckFailed with the measured value and its tolerance.
"""

import numpy as np
import scipy.linalg

# Tolerances are relative and set well above the rounding level of each
# computation, far below the size of any real defect.  The full ETD residual
# is the loosest: on rdc (||A|| ~ 1e5, non-normal) Phi is recovered from the
# cancellation U1 - e^{hA} U0 e^{hB} and multiplied by A, which leaves about
# 1e-7 on a correct step; a wrong phi1 factor or F taken at the wrong state
# leaves 1e-3 or more.
ORTHO_TOL = 1e-10
INTERP_TOL = 1e-9
STEP_TOL = 1e-10
FULL_ETD_TOL = 1e-6
REDUCED_STEP_TOL = 1e-9
SNAPSHOT_F_TOL = 1e-12

# Absolute target for the mean relative error of a reduced trajectory.  The
# bases keep a relative tail of tau = 1e-3 per side, so a working reduction
# lands within a small multiple of tau; ten times tau leaves room for the
# interpolation constants and the time stepping, while a wrong basis, wrong
# sample set or broken step gives errors of 1e-1 and above.
ROM_ERROR_TARGET = 1e-2


class CheckFailed(AssertionError):
    """An output of mor2 failed an independent check."""


def _require(ok, what, value, tol):
    if not ok:
        raise CheckFailed(f"{what}: {value:.3e} exceeds {tol:.1e}")


def nonlinearity(spec):
    """The benchmark's own entrywise F of a named problem (time independent)."""
    if spec.name in ("ac1", "ac2"):
        c = 1.0 / spec.params["eps2"] ** 2
        return lambda U: c * (U - U * U * U)
    if spec.name == "rdc":
        return lambda U: U * (U - 0.5) * (1.0 - U)
    raise CheckFailed(f"no independent nonlinearity for problem {spec.name!r}")


def orthonormal(what, V):
    err = np.linalg.norm(V.T @ V - np.eye(V.shape[1]))
    _require(err <= ORTHO_TOL, f"{what} orthonormality", err, ORTHO_TOL)


def qdeim_bound(n, p):
    """sqrt(n - p + 1) * sqrt((4^p + 6p - 1) / 3), the greedy-pivot bound."""
    return np.sqrt(n - p + 1.0) * np.sqrt((4.0**p + 6.0 * p - 1.0) / 3.0)


def deim_operator(fbasis, op, rng, library_approximate):
    """The interpolant reproduces F in span(Vl) x span(Wr); c_l, c_r are bounded."""
    Vl, Wr = fbasis.Vl, fbasis.Wr
    rows, cols = np.asarray(op.row_idx), np.asarray(op.col_idx)
    if len(set(rows.tolist())) != len(rows) or len(set(cols.tolist())) != len(cols):
        raise CheckFailed("interpolation indices repeat")
    F = Vl @ rng.standard_normal((Vl.shape[1], Wr.shape[1])) @ Wr.T
    T = np.linalg.solve(Vl[rows, :], F[np.ix_(rows, cols)])
    T = np.linalg.solve(Wr[cols, :], T.T).T
    own = Vl @ T @ Wr.T
    err = np.linalg.norm(own - F) / np.linalg.norm(F)
    _require(err <= INTERP_TOL, "own interpolant of an F in the basis span", err, INTERP_TOL)
    err = np.linalg.norm(library_approximate(op, fbasis, F) - F) / np.linalg.norm(F)
    _require(err <= INTERP_TOL, "library interpolant of an F in the basis span", err, INTERP_TOL)
    for side, basis, idx, reported in (("c_l", Vl, rows, op.c_l), ("c_r", Wr, cols, op.c_r)):
        c = 1.0 / np.linalg.svd(basis[idx, :], compute_uv=False)[-1]
        bound = qdeim_bound(basis.shape[0], len(idx))
        _require(c <= bound, f"{side} against the Q-DEIM bound {bound:.3e}", c, bound)
        rel = abs(c - reported) / c
        _require(rel <= 1e-8, f"{side} reported against recomputed", rel, 1e-8)


def storage_bound(what, floats, n_rows, n_cols, kappa):
    """Accumulator storage of one stream stays within (n_rows + n_cols + 1) kappa."""
    bound = (n_rows + n_cols + 1) * kappa
    if not 0 < floats <= bound:
        raise CheckFailed(f"{what} storage {floats} floats outside (0, {bound}]")


def imex_first_step(spec, times, state_src, nonl_src):
    """The first state snapshot solves (I - hA) U1 - h U1 B = U0 + h F(U0)."""
    F = nonlinearity(spec)
    U0, U1 = state_src.matrix(0), state_src.matrix(1)
    if not np.array_equal(U0, spec.U0):
        raise CheckFailed("first state snapshot is not the initial state")
    h = times[1] - times[0]
    rhs = U0 + h * F(U0)
    AU, UB = spec.A @ U1, U1 @ spec.B
    resid = np.linalg.norm(U1 - h * (AU + UB) - rhs)
    scale = np.linalg.norm(U1) + h * (np.linalg.norm(AU) + np.linalg.norm(UB)) + np.linalg.norm(rhs)
    _require(resid <= STEP_TOL * scale, "IMEX step Sylvester residual", resid / scale, STEP_TOL)
    for i in (0, 1):
        want = F(state_src.matrix(i))
        err = np.linalg.norm(nonl_src.matrix(i) - want) / max(np.linalg.norm(want), 1e-300)
        _require(err <= SNAPSHOT_F_TOL, f"nonlinearity snapshot {i}", err, SNAPSHOT_F_TOL)


def full_etd_first_step(spec, h, U1):
    """U1 = e^{hA} U0 e^{hB} + Phi with A Phi + Phi B = e^{hA} F0 e^{hB} - F0.

    The exponentials come from scipy.linalg.expm (scaling and squaring), not
    from the eigenbases the solver uses.
    """
    U0 = spec.U0
    F0 = nonlinearity(spec)(U0)
    Ea = scipy.linalg.expm(h * spec.A)
    Eb = scipy.linalg.expm(h * spec.B)
    Phi = U1 - Ea @ U0 @ Eb
    target = Ea @ F0 @ Eb - F0
    AP, PB = spec.A @ Phi, Phi @ spec.B
    resid = np.linalg.norm(AP + PB - target)
    scale = np.linalg.norm(AP) + np.linalg.norm(PB) + np.linalg.norm(target)
    _require(resid <= FULL_ETD_TOL * scale, "full ETD step phi-Sylvester residual",
             resid / scale, FULL_ETD_TOL)


def reduced_first_steps(spec, ubasis, fbasis, op, states, h, steps=3):
    """Reduced steps match a Kronecker-form exponential Euler step.

    The reduced operators, the sampled nonlinearity and its compression are
    rebuilt here from the bases; each step from the library's Y_k is taken
    as exp(hL) y_k + h phi1(hL) f_k with L = I (x) Ak + Bk^T (x) I, read off
    the exponential of the bordered matrix [[hL, h f_k], [0, 0]].
    """
    F = nonlinearity(spec)
    Vu, Wu, Vf, Wf = ubasis.Vl, ubasis.Wr, fbasis.Vl, fbasis.Wr
    rows, cols = np.asarray(op.row_idx), np.asarray(op.col_idx)
    Ak = Vu.T @ spec.A @ Vu
    Bk = Wu.T @ spec.B @ Wu
    k1, k2 = Ak.shape[0], Bk.shape[0]
    L = np.kron(np.eye(k2), Ak) + np.kron(Bk.T, np.eye(k1))
    left = np.linalg.solve(Vf[rows, :].T, Vf.T @ Vu).T      # Vu^T Vf (Pl^T Vf)^-1
    right = np.linalg.solve(Wf[cols, :].T, Wf.T @ Wu)       # (Wf^T Pr)^-1 Wf^T Wu
    N = k1 * k2
    for k in range(min(steps, len(states) - 1)):
        Y = states[k]
        Z = (Vu[rows, :] @ Y) @ Wu[cols, :].T
        f = (left @ F(Z) @ right).ravel(order="F")
        M = np.zeros((N + 1, N + 1))
        M[:N, :N] = h * L
        M[:N, N] = h * f
        E = scipy.linalg.expm(M)
        want = (E[:N, :N] @ Y.ravel(order="F") + E[:N, N]).reshape(k1, k2, order="F")
        err = np.linalg.norm(states[k + 1] - want) / np.linalg.norm(want)
        _require(err <= REDUCED_STEP_TOL, f"reduced step {k + 1} against the Kronecker form",
                 err, REDUCED_STEP_TOL)


def basis_file_size(basis, op=None):
    """Bytes of a basis container, from the documented layout."""
    n1, k1 = basis.Vl.shape
    n2, k2 = basis.Wr.shape
    size = 9 + 8 + 8 * n1 * k1 + 8 + 8 * n2 * k2 + 8 * (k1 + k2) + 16
    if op is not None:
        p1, p2 = len(op.row_idx), len(op.col_idx)
        size += 8 + 4 * (p1 + p2) + 8 * (p1 * p1 + p2 * p2)
    return size


def basis_roundtrip(what, written, read, size):
    """A basis read back from its file equals the one written, bit for bit."""
    (wb, wop), (rb, rop) = written, read
    if size != basis_file_size(wb, wop):
        raise CheckFailed(f"{what}: file holds {size} bytes, layout gives "
                          f"{basis_file_size(wb, wop)}")
    pairs = [(wb.Vl, rb.Vl), (wb.Wr, rb.Wr), (wb.singvals_l, rb.singvals_l),
             (wb.singvals_r, rb.singvals_r)]
    if wop is not None:
        if rop is None:
            raise CheckFailed(f"{what}: interpolation trailer missing on read")
        pairs += [(wop.row_idx, rop.row_idx), (wop.col_idx, rop.col_idx),
                  (wop.left_factor, rop.left_factor), (wop.right_factor, rop.right_factor)]
    for a, b in pairs:
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.astype(b.dtype).tobytes() != b.tobytes():
            raise CheckFailed(f"{what}: an array differs after the round trip")
    if (wb.tau, wb.kappa, wb.n_max) != (rb.tau, rb.kappa, rb.n_max):
        raise CheckFailed(f"{what}: truncation parameters differ after the round trip")


def lift_matches(ubasis, Y, lifted):
    want = ubasis.Vl @ Y @ ubasis.Wr.T
    err = np.linalg.norm(lifted - want) / max(np.linalg.norm(want), 1e-300)
    _require(err <= 1e-12, "lifted state against Vl Y Wr^T", err, 1e-12)


def accuracy(what, error):
    if not 0.0 < error <= ROM_ERROR_TARGET:
        raise CheckFailed(f"{what}: mean relative error {error:.3e} is not in "
                          f"(0, {ROM_ERROR_TARGET:.0e}]")


def same(what, values, rel_tol=1e-12):
    """Repeated runs of one computation give the same number."""
    ref = values[0]
    for v in values[1:]:
        if abs(v - ref) > rel_tol * abs(ref):
            raise CheckFailed(f"{what}: repeated runs disagree ({ref!r} vs {v!r})")

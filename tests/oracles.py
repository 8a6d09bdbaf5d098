"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from first principles (one-sided
Jacobi SVD, Pade exponential, Kronecker-form solves) so the package code
is checked against arithmetic it does not share.
"""

import numpy as np


def jacobi_svd(M, sweeps=60, tol=1e-14):
    """Full SVD by one-sided Jacobi rotations; returns (U, s, V).

    Columns of A = U diag(s) V^T with s nonincreasing.  Slow but simple and
    independent of LAPACK's bidiagonalization, which is the point.
    """
    M = np.asarray(M, dtype=float)
    transposed = M.shape[0] < M.shape[1]
    A = (M.T if transposed else M).copy()
    m, n = A.shape
    V = np.eye(n)
    limit = tol * np.linalg.norm(A) ** 2
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = A[:, p] @ A[:, p]
                beta = A[:, q] @ A[:, q]
                gamma = A[:, p] @ A[:, q]
                off = max(off, abs(gamma))
                if abs(gamma) <= tol * np.sqrt(alpha * beta) + 1e-300:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                rot = np.array([[c, s], [-s, c]])
                A[:, [p, q]] = A[:, [p, q]] @ rot
                V[:, [p, q]] = V[:, [p, q]] @ rot
        if off <= limit:
            break
    s = np.linalg.norm(A, axis=0)
    order = np.argsort(-s)
    s = s[order]
    V = V[:, order]
    U = np.zeros((m, n))
    for j in range(n):
        if s[j] > 1e-300:
            U[:, j] = A[:, order[j]] / s[j]
        else:
            U[:, j] = 0.0
    if transposed:
        return V, s, U
    return U, s, V


def qdeim_bound(n, p):
    """A priori bound on ||(P^T V)^{-1}||_2 of greedy-pivot selection."""
    return np.sqrt(n - p + 1.0) * np.sqrt((4.0**p + 6.0 * p - 1.0) / 3.0)


def greedy_pivot_oracle(Bt):
    """Residual-norm greedy column selection, ties to the lowest index.

    Maintains an explicit orthonormal basis of the chosen columns and picks
    the column with the largest residual against it -- the max-volume greedy
    step, equivalent to Businger-Golub pivoting in exact arithmetic.
    """
    Bt = np.asarray(Bt, dtype=float)
    p, n = Bt.shape
    chosen = []
    Q = np.zeros((p, 0))
    for _ in range(p):
        resid = Bt - Q @ (Q.T @ Bt)
        norms = np.linalg.norm(resid, axis=0)
        j = int(np.argmax(norms))
        chosen.append(j)
        q = resid[:, j] / norms[j]
        Q = np.column_stack([Q, q])
    return np.array(chosen)


def vector_deim(V):
    """One-sided DEIM of an orthonormal basis V (N, p) of vectorized snapshots:
    f -> V (P^T V)^-1 P^T f, with P the p rows greedy pivoting picks from V^T."""
    idx = greedy_pivot_oracle(V.T)
    return lambda f: V @ np.linalg.solve(V[idx], f[idx])


def sylvester_kron_oracle(A, B, C):
    """Solve A X + X B = C through the stacked system (I (x) A + B^T (x) I)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    L = np.kron(np.eye(m), A) + np.kron(B.T, np.eye(n))
    x = np.linalg.solve(L, C.ravel(order="F"))
    return x.reshape(n, m, order="F")


def pade_expm(A):
    """Matrix exponential by [6/6] Pade approximation with scaling-squaring."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = np.linalg.norm(A, np.inf)
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    As = A / (2.0**s)
    c = [1.0]
    for k in range(6):
        c.append(c[-1] * (6.0 - k) / ((12.0 - k) * (k + 1.0)))
    X = np.eye(n)
    N = c[0] * np.eye(n)
    D = c[0] * np.eye(n)
    for k in range(1, 7):
        X = X @ As
        N = N + c[k] * X
        D = D + c[k] * ((-1.0) ** k) * X
    R = np.linalg.solve(D, N)
    for _ in range(s):
        R = R @ R
    return R


def phi1_block(M):
    """phi1(M) = M^{-1}(e^M - I) via the augmented-matrix exponential.

    exp([[M, I], [0, 0]]) has phi1(M) as its upper-right block, which stays
    well defined also for singular M.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = M
    aug[:n, n:] = np.eye(n)
    return pade_expm(aug)[:n, n:]


def kron_operator(A, B):
    """Stacked-system matrix of X -> A X + X B under column-major vec."""
    n = A.shape[0]
    m = B.shape[0]
    return np.kron(np.eye(m), A) + np.kron(B.T, np.eye(n))


def vectorized_etd_step(A, B, U, F, h):
    """One dense ETD Euler step of the column-stacked system.

    u+ = e^{hL} u + h phi1(hL) f  with  L = I (x) A + B^T (x) I, both terms
    read off one exponential of the bordered matrix:
    exp([[hL, hf], [0, 0]]) = [[e^{hL}, h phi1(hL) f], [0, 1]].
    """
    L = kron_operator(A, B)
    u = np.asarray(U).ravel(order="F")
    f = np.asarray(F).ravel(order="F")
    N = L.shape[0]
    aug = np.zeros((N + 1, N + 1))
    aug[:N, :N] = h * L
    aug[:N, N] = h * f
    E = pade_expm(aug)
    out = E[:N, :N] @ u + E[:N, N]
    return out.reshape(U.shape, order="F")


def vectorized_imex_step(A, B, U, F, h):
    """One dense semi-implicit Euler step of the column-stacked system."""
    L = kron_operator(A, B)
    u = np.asarray(U).ravel(order="F")
    f = np.asarray(F).ravel(order="F")
    N = L.shape[0]
    out = np.linalg.solve(np.eye(N) - h * L, u + h * f)
    return out.reshape(U.shape, order="F")


def legacy_etd_update(eigA, eigB, U, F, h):
    """The exponential Euler update as formerly written in the library: both
    transforms every step (six products), exp and phi1 recomputed each time.

    eigA and eigB are EigenPair-like (values, vectors, inverse).
    """
    Uhat = eigA.inverse @ U @ eigB.vectors
    Fhat = eigA.inverse @ F @ eigB.vectors
    ea = np.exp(h * eigA.values)
    eb = np.exp(h * eigB.values)
    z = h * (eigA.values[:, None] + eigB.values[None, :])
    nz = z != 0.0
    phi = np.ones_like(z)
    phi[nz] = np.expm1(z[nz]) / z[nz]
    out = eigA.vectors @ ((ea[:, None] * Uhat) * eb[None, :] + h * phi * Fhat) @ eigB.inverse
    return out.real if np.iscomplexobj(out) else out


def legacy_imex_update(eigA, eigB, U, F, h):
    """The semi-implicit Euler update as formerly written in the library."""
    denom = 1.0 - h * (eigA.values[:, None] + eigB.values[None, :])
    out = eigA.vectors @ ((eigA.inverse @ (U + h * F) @ eigB.vectors) / denom) @ eigB.inverse
    return out.real if np.iscomplexobj(out) else out


def legacy_full_trajectory(spec, eigA, eigB, h, n_t, scheme="etd"):
    """States of the full model at n_t uniform steps, one legacy update per step.

    Stops early, returning what it has, at the first non-finite state.
    """
    update = legacy_etd_update if scheme == "etd" else legacy_imex_update
    return _stepped_trajectory(spec, lambda U, F: update(eigA, eigB, U, F, h), h, n_t)


def vectorized_full_trajectory(spec, h, n_t, scheme="etd"):
    """States of the full model at n_t uniform steps of the stacked system,
    for operators that have no usable eigenbasis; stops as the legacy one."""
    step = vectorized_etd_step if scheme == "etd" else vectorized_imex_step
    return _stepped_trajectory(spec, lambda U, F: step(spec.A, spec.B, U, F, h), h, n_t)


def _stepped_trajectory(spec, step, h, n_t):
    X, Y = spec.grid_x[:, None], spec.grid_y[None, :]
    states = [spec.U0.copy()]
    for i in range(n_t):
        U = states[-1]
        states.append(step(U, spec.nonlinear(U, X, Y, i * h)))
        if not np.all(np.isfinite(states[-1])):
            break
    return states


def legacy_reduced_trajectory(Ak, Bk, Y0, factors, spec, eigA, eigB, h, n_t,
                              blowup_norm=1e12):
    """States of a reduced model, stepped in basis coordinates with the
    legacy update; factors are the unfolded (Ml, Mr, Sl, Sr, rows, cols).

    Stops early, returning what it has, at the first state whose Frobenius
    norm is non-finite or above blowup_norm.
    """
    X = spec.grid_x[np.asarray(factors.row_idx)][:, None]
    Yc = spec.grid_y[np.asarray(factors.col_idx)][None, :]
    states = [Y0.copy()]
    for i in range(n_t):
        Y = states[-1]
        f = factors.Ml @ spec.nonlinear(factors.Sl @ Y @ factors.Sr, X, Yc, i * h) @ factors.Mr
        states.append(legacy_etd_update(eigA, eigB, Y, f, h))
        nrm = np.linalg.norm(states[-1])
        if not np.isfinite(nrm) or nrm > blowup_norm:
            break
    return states


def top_kappa_multiset(snapshots, kappa):
    """Brute-force union of per-snapshot top-kappa singular values, top kappa."""
    pool = []
    for Xi in snapshots:
        Xi = np.asarray(Xi, dtype=float)
        if np.linalg.norm(Xi) == 0.0:
            continue
        s = np.linalg.svd(Xi, compute_uv=False)
        s = s[s >= 1e-14 * s[0]]
        pool.extend(s[:kappa])
    pool.sort(reverse=True)
    return np.array(pool[:kappa])


def explicit_projection_error(Xi, left, right):
    """||Xi - Ql Ql^T Xi Qr Qr^T||_F / ||Xi||_F with explicit orthonormalization."""
    Xi = np.asarray(Xi, dtype=float)
    Ql = np.linalg.qr(np.asarray(left, dtype=float))[0]
    Qr = np.linalg.qr(np.asarray(right, dtype=float))[0]
    return float(np.linalg.norm(Xi - Ql @ (Ql.T @ Xi @ Qr) @ Qr.T) / np.linalg.norm(Xi))


def tail_retained_count(s, tau, n_max):
    """Reference tail rule: smallest nu with ||s[nu:]|| <= tau/sqrt(n_max)*||s||."""
    s = np.asarray(s, dtype=float)
    total = np.linalg.norm(s)
    for nu in range(1, len(s) + 1):
        if np.linalg.norm(s[nu:]) <= (tau / np.sqrt(n_max)) * total:
            return nu
    return len(s)


def random_orthonormal(rng, n, k):
    """n x k matrix with orthonormal columns from a seeded generator."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q[:, :k]

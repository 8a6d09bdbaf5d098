"""Reduced-order model assembly, online integration and error measures.

The reduced state solves  Ydot = Ak Y + Y Bk + Fk(Y, t)  with
Ak = Vl^T A Vl, Bk = Wr^T B Wr and the sampled nonlinearity from the
interpolation factors.  Online stepping uses the full solver's
kernels.Propagator, built on Ak and Bk, with its eigenbases folded into the
interpolation factors: a step is four small products, the sampled F and two
Hadamard products, so its cost depends on the reduced dimensions only.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import deim, kernels, problems
from .errors import DimensionError, DivergenceError

BLOWUP_NORM = 1e12


@dataclass
class ReducedModel:
    """Projected operators plus everything needed to step and lift; factors
    are folded into the coordinates of the propagator."""

    Ak: np.ndarray
    Bk: np.ndarray
    Y0: np.ndarray
    propagator: kernels.Propagator
    factors: deim.RomDeimFactors
    ubasis: object
    spec: problems.ProblemSpec


def assemble_rom(spec, ubasis, factors):
    """Project the operators and the initial state onto the basis pair.

    Symmetry of A or B survives the congruence, so those eigenproblems stay
    symmetric; otherwise a general eigendecomposition is attempted and an
    ill-conditioned eigenbasis flips the propagator to Schur coordinates.
    That fallback requires the spectra of Ak and -Bk to stay apart; the
    eigenbasis route needs no such separation because the near-cancelling
    directions go through the phi1 limit.  The eigenbases are folded into
    the interpolation factors, Sl Qa, Qb^-1 Sr, Qa^-1 Ml and Mr Qb, so the
    sampled nonlinearity comes out in the propagator's coordinates.
    """
    Ak = ubasis.Vl.T @ spec.A @ ubasis.Vl
    Bk = ubasis.Wr.T @ spec.B @ ubasis.Wr
    if kernels.is_symmetric(spec.A):
        Ak = 0.5 * (Ak + Ak.T)
    if kernels.is_symmetric(spec.B):
        Bk = 0.5 * (Bk + Bk.T)
    Y0 = ubasis.Vl.T @ spec.U0 @ ubasis.Wr
    prop = kernels.Propagator(Ak, Bk, "etd")
    folded = deim.RomDeimFactors(
        prop.Qa_inv @ factors.Ml, factors.Mr @ prop.Qb,
        factors.Sl @ prop.Qa, prop.Qb_inv @ factors.Sr,
        factors.row_idx, factors.col_idx,
    )
    return ReducedModel(Ak, Bk, Y0, prop, folded, ubasis, spec)


def etd_step(model, Yhat, t, h):
    """One exponential Euler step of the reduced model, in the coordinates
    of model.propagator."""
    fhat = deim.reduced_nonlinear(model.factors, model.spec, Yhat, t)
    return model.propagator.advance(Yhat, fhat, h)


@dataclass
class RomTrajectory:
    """Reduced states at every node of the online grid."""

    times: np.ndarray
    states: list
    seconds: float = 0.0


def run_online(model, grid, blowup_norm=BLOWUP_NORM):
    """March the reduced model over the grid, storing every node.

    Steps run in the propagator's coordinates; the stored states are mapped
    back to the basis coordinates with one batched product at the end.
    """
    prop = model.propagator
    nodes = grid.nodes
    tic = time.perf_counter()
    gain = np.linalg.norm(prop.Qa, 2) * np.linalg.norm(prop.Qb_inv, 2)
    Yhat = prop.to_coords(model.Y0)
    coords = np.empty((len(nodes),) + Yhat.shape, dtype=Yhat.dtype)
    coords[0] = Yhat
    for i in range(1, len(nodes)):
        Yhat = etd_step(model, Yhat, nodes[i - 1], grid.h)
        # ||Y||_F <= gain ||Yhat||_F, so Y is formed only near the limit;
        # "not <=" also catches NaN.
        if not np.linalg.norm(Yhat) * gain <= blowup_norm:
            nrm = np.linalg.norm(prop.to_physical(Yhat))
            if not nrm <= blowup_norm:
                raise DivergenceError(
                    f"reduced state blew up at step {i} (||Y||_F = {nrm:.3e})", step=i
                )
        coords[i] = Yhat
    states = prop.to_physical(coords)
    states[0] = model.Y0
    return RomTrajectory(nodes.copy(), list(states), time.perf_counter() - tic)


def lift(ubasis, Y):
    """Map a reduced state back to the full grid."""
    return ubasis.Vl @ Y @ ubasis.Wr.T


def _match_times(ref_times, times):
    span = max(abs(ref_times[-1] - ref_times[0]), 1e-300)
    pairs = []
    for j, t in enumerate(times):
        i = int(np.argmin(np.abs(ref_times - t)))
        if abs(ref_times[i] - t) <= 1e-9 * span:
            pairs.append((i, j))
    return pairs


def average_error(ref, romtraj, ubasis):
    """Mean relative Frobenius error against a full reference trajectory.

    Averages ||U_ref - lifted Y|| / ||U_ref|| over the common time nodes
    after the initial one; zero-norm reference nodes are skipped.
    """
    pairs = _match_times(ref.times, romtraj.times)
    pairs = [
        (i, j)
        for i, j in pairs
        if ref.times[i] > ref.times[0] and np.linalg.norm(ref.states[i]) > 0
    ]
    if not pairs:
        raise DimensionError("reference and reduced trajectories share no usable nodes")
    total = 0.0
    for i, j in pairs:
        U = ref.states[i]
        total += np.linalg.norm(U - lift(ubasis, romtraj.states[j])) / np.linalg.norm(U)
    return total / len(pairs)


def export_trajectory_csv(path, romtraj, ref=None, ubasis=None):
    """Write per-node reduced norms (and errors, given a reference) to CSV."""
    errors = {}
    if ref is not None and ubasis is not None:
        for i, j in _match_times(ref.times, romtraj.times):
            nrm = np.linalg.norm(ref.states[i])
            if ref.times[i] > ref.times[0] and nrm > 0:
                errors[j] = (
                    np.linalg.norm(ref.states[i] - lift(ubasis, romtraj.states[j])) / nrm
                )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "frobenius_norm", "rel_error"])
        for j, t in enumerate(romtraj.times):
            err = f"{errors[j]:.12e}" if j in errors else ""
            writer.writerow([f"{t:.12e}", f"{np.linalg.norm(romtraj.states[j]):.12e}", err])


# ---------------------------------------------------------------------------
# Vectorized baseline: classic single-basis reduction of the stacked system.

@dataclass
class VectorReducedModel:
    """Reduced model of the column-stacked system  udot = L u + f(u, t)."""

    Lk: np.ndarray
    propagator: kernels.Propagator   # of (Lk, 0): the vector system as one column
    y0: np.ndarray
    Mf: np.ndarray           # (k, p) nonlinearity compression
    Srows: np.ndarray        # (p, k) sampled rows of the state basis
    row_coords: np.ndarray
    col_coords: np.ndarray
    basis: np.ndarray        # (N, k)
    spec: problems.ProblemSpec


def assemble_vector_rom(spec, vbasis, vdeim_op):
    """Project the Kronecker-form operator onto the vectorized state basis."""
    n, m = spec.U0.shape
    V = vbasis.V
    k = V.shape[1]
    V3 = V.reshape(n, m, k, order="F")
    W3 = np.einsum("ij,jlk->ilk", spec.A, V3) + np.einsum("ilk,lj->ijk", V3, spec.B)
    Lk = V.T @ W3.reshape(n * m, k, order="F")
    y0 = V.T @ spec.U0.ravel(order="F")
    Mf = scipy.linalg.lu_solve(vdeim_op.lu, (V.T @ vdeim_op.basis).T, trans=1).T
    Srows = V[vdeim_op.idx, :]
    return VectorReducedModel(
        Lk, kernels.Propagator(Lk, np.zeros((1, 1))), y0, Mf, Srows, vdeim_op.row_coords, vdeim_op.col_coords, V, spec
    )


def run_online_vector(model, grid, blowup_norm=BLOWUP_NORM):
    """Exponential Euler on the reduced vector system."""
    spec = model.spec
    xs = spec.grid_x[model.row_coords]
    ys = spec.grid_y[model.col_coords]
    prop = model.propagator
    y = model.y0.copy()
    yhat = prop.to_coords(y[:, None])
    states = [y]
    tic = time.perf_counter()
    for i in range(1, grid.n_t + 1):
        fk = model.Mf @ spec.nonlinear(model.Srows @ y, xs, ys, grid.nodes[i - 1])
        yhat, Y = kernels.etd_euler_update(prop, yhat, fk[:, None], grid.h)
        y = Y[:, 0]
        nrm = np.linalg.norm(y)
        if not np.isfinite(nrm) or nrm > blowup_norm:
            raise DivergenceError(
                f"reduced vector state blew up at step {i} (||y|| = {nrm:.3e})", step=i
            )
        states.append(y)
    return RomTrajectory(grid.nodes.copy(), states, time.perf_counter() - tic)


def average_error_vector(ref, romtraj, vbasis):
    """Mean relative error of the lifted vector model against a reference."""
    n, m = vbasis.shape
    pairs = _match_times(ref.times, romtraj.times)
    pairs = [
        (i, j)
        for i, j in pairs
        if ref.times[i] > ref.times[0] and np.linalg.norm(ref.states[i]) > 0
    ]
    if not pairs:
        raise DimensionError("reference and reduced trajectories share no usable nodes")
    total = 0.0
    for i, j in pairs:
        U = ref.states[i]
        lifted = (vbasis.V @ romtraj.states[j]).reshape(n, m, order="F")
        total += np.linalg.norm(U - lifted) / np.linalg.norm(U)
    return total / len(pairs)

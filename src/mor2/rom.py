"""Reduced-order model assembly, online integration and error measures.

The reduced state solves  Ydot = Ak Y + Y Bk + Fk(Y, t)  with
Ak = Vl^T A Vl, Bk = Wr^T B Wr and the sampled nonlinearity from the
interpolation factors.  Online stepping uses the full solver's
kernels.Propagator, built on Ak and Bk, with its eigenbases folded into the
interpolation factors: a step is four small products, the sampled F and two
Hadamard products, so its cost depends on the reduced dimensions only.
run_online takes its steps in one loop, writing each straight into the
array it returns; etd_step is the same step alone.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import deim, kernels, problems
from .errors import DimensionError, DivergenceError
from .fullsolve import Trajectory

BLOWUP_NORM = 1e12


@dataclass
class ReducedModel:
    """Projected operators plus everything needed to step; factors are
    folded into the coordinates of the propagator."""

    Ak: np.ndarray
    Bk: np.ndarray
    Y0: np.ndarray
    propagator: kernels.Propagator
    factors: deim.RomDeimFactors
    spec: problems.ProblemSpec
    coord_limit: float


def assemble_rom(spec, ubasis, factors):
    """Project the operators and the initial state onto the basis pair.

    Symmetry of A or B survives the congruence to rounding, within eig_pair's SYM_REL_TOL;
    otherwise eig_pair may find no usable eigenbasis, and the propagator takes Schur coordinates.
    That fallback requires the spectra of Ak and -Bk to stay apart; the
    eigenbasis route needs no such separation because the near-cancelling
    directions go through the phi1 limit.  The eigenbases are folded into
    the interpolation factors, Sl Qa, Qb^-1 Sr, Qa^-1 Ml and Mr Qb, so the
    sampled nonlinearity comes out in the propagator's coordinates.  The
    grid coordinates of the samples are looked up here, once per model, and
    so is coord_limit, the squared coordinate norm below which run_online's
    divergence test need not form the state.
    """
    Ak = ubasis.Vl.T @ spec.A @ ubasis.Vl
    Bk = ubasis.Wr.T @ spec.B @ ubasis.Wr
    Y0 = ubasis.Vl.T @ spec.U0 @ ubasis.Wr
    prop = kernels.Propagator(Ak, Bk, "etd")
    folded = deim.RomDeimFactors(
        prop.Qa_inv @ factors.Ml, factors.Mr @ prop.Qb,
        factors.Sl @ prop.Qa, prop.Qb_inv @ factors.Sr,
        factors.row_idx, factors.col_idx,
        problems.sample_points(spec, factors.row_idx, factors.col_idx),
    )
    # ||Y||_F <= gain ||Yhat||_F, so Y is formed only near the limit
    gain = np.linalg.norm(prop.Qa, 2) * np.linalg.norm(prop.Qb_inv, 2)
    return ReducedModel(Ak, Bk, Y0, prop, folded, spec, (BLOWUP_NORM / gain) ** 2)


def etd_step(model, Yhat, t, h):
    """One exponential Euler step of the reduced model, in the coordinates
    of model.propagator."""
    fhat = deim.reduced_nonlinear(model.factors, model.spec, Yhat, t)
    return model.propagator.advance(Yhat, fhat, h)


def run_online(model, grid):
    """March the reduced model over the grid, storing every node.

    One loop does etd_step's arithmetic with what it reads hoisted out; its
    products are deim.reduced_nonlinear's np.dot chains, written into buffers
    allocated once per call, so the trajectory is bit for bit that of
    stepping etd_step.  Each step is written straight into its node of the
    returned (n_t + 1, k1, k2) array.  The stored states are mapped back to
    the basis coordinates as Propagator.to_physical associates the product;
    with real dense bases in place, through one scratch stack kept on the
    propagator.
    """
    prop = model.propagator
    fac = model.factors
    Sl, Sr, Ml, Mr = fac.Sl, fac.Sr, fac.Ml, fac.Mr
    X, Y = fac.points
    f, h, dot, advance = model.spec.nonlinear, grid.h, np.dot, prop.advance
    limit = model.coord_limit
    nodes = grid.nodes
    tic = time.perf_counter()
    Yhat = prop.to_coords(model.Y0)
    coords = np.empty((len(nodes),) + Yhat.shape, dtype=Yhat.dtype)
    coords[0] = Yhat
    complex_coords = np.iscomplexobj(coords)
    # np.dot's out must be C-contiguous and of exactly the result dtype; F is real
    T1 = np.empty((len(Sl), Yhat.shape[1]), np.result_type(Sl, Yhat))
    Z = np.empty((len(Sl), Sr.shape[1]), np.result_type(T1, Sr))
    Zr = Z.real     # F is evaluated at Z's real part, Z itself on the real route
    T2 = np.empty((len(Ml), Sr.shape[1]), np.result_type(Ml, float))
    Fh = np.empty(Yhat.shape, np.result_type(T2, Mr))
    for i, t in enumerate(nodes[:-1].tolist(), 1):
        dot(dot(Sl, Yhat, T1), Sr, Z)
        Yhat = advance(Yhat, dot(dot(Ml, f(Zr, X, Y, t), T2), Mr, Fh), h, coords[i])
        # "not <=" also sends NaN and an overflowed square to the exact test
        if not np.vdot(Yhat, Yhat).real <= limit:
            nrm = np.linalg.norm(prop.to_physical(Yhat))
            if not nrm <= BLOWUP_NORM:
                raise DivergenceError(f"reduced state blew up at step {i} (||Y||_F = {nrm:.3e})")
    if complex_coords or isinstance(prop.Qa, kernels.FoldedMatrix):
        coords = prop.to_physical(coords)
    else:
        scratch = prop.work(coords.shape, coords.dtype)
        np.matmul(np.matmul(prop.Qa, coords, out=scratch), prop.Qb_inv, out=coords)
    coords[0] = model.Y0
    return Trajectory(nodes, coords, seconds=time.perf_counter() - tic)


def lift(ubasis, Y):
    """Map a reduced state back to the full grid."""
    return ubasis.Vl @ Y @ ubasis.Wr.T


def relative_errors(reference, romtraj, ubasis):
    """Relative Frobenius errors of a reduced trajectory lifted by ubasis.

    reference is any iterable of (t, U) on romtraj's nodes: a stored
    Trajectory or a streamed reference solve, consumed node by node.  Its
    node i after the first is scored against node i of romtraj,
    ||U - lift(ubasis, Y)|| / ||U||; zero-norm nodes are skipped.  Other
    times, or another node count, are a DimensionError.  The mean is
    accumulated in node order.  Returns (mean, [(t, error)]).
    """
    times = romtraj.times
    total = 0.0
    per_node = []
    count = 0
    for i, (t, U) in enumerate(reference):
        if i >= len(times) or t != times[i]:
            raise DimensionError(f"reference node {i} at t = {t} is not a node of the reduced run")
        count = i + 1
        if i == 0:
            continue
        nrm = np.linalg.norm(U)
        if nrm == 0.0:
            continue
        e = float(np.linalg.norm(U - lift(ubasis, romtraj.states[i])) / nrm)
        per_node.append((float(t), e))
        total += e
    if count != len(times) or not per_node:
        raise DimensionError(f"reference has {count} of the reduced run's {len(times)} nodes, "
                             f"{len(per_node)} of them usable")
    return total / len(per_node), per_node

"""End-to-end acceptance checklist.

Each test prints one ACCEPTANCE line so a full run doubles as a release
report; the tolerances asserted here are part of the package contract.
A long variant of criterion 10 runs only when MOR2_LONG_TESTS is set.
"""

import os
import time
import warnings

import numpy as np
import pytest

import oracles
from conftest import (fixed_rank_model, identity_model, make_spec, reduced_step, run_full,
                      stable_pair)
from mor2 import deim, fullsolve, kernels, pod, problems, rom
from mor2.errors import ConditioningError


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_basis(rng, n, m, p1, p2):
    return pod.BasisPair(oracles.random_orthonormal(rng, n, p1),
                         oracles.random_orthonormal(rng, m, p2),
                         np.ones(p1), np.ones(p2), 1e-3, 4, max(p1, p2))


def test_criterion_01_interpolation_error_bound():
    rng = np.random.default_rng(1001)
    tic = time.perf_counter()
    worst = -np.inf
    count = 0
    for n, reps in ((16, 300), (64, 150), (256, 50)):
        for r in range(reps):
            m = n if r % 2 == 0 else (3 * n) // 4
            p1 = int(rng.integers(1, 9))
            p2 = int(rng.integers(1, 9))
            basis = random_basis(rng, n, m, p1, p2)
            op = deim.build_deim(basis)
            F = rng.standard_normal((n, m))
            lhs = np.linalg.norm(F - deim.deim_approximate(op, basis, F))
            best = np.linalg.norm(
                F - basis.Vl @ (basis.Vl.T @ F @ basis.Wr) @ basis.Wr.T)
            worst = max(worst, lhs - op.c_l * op.c_r * best)
            count += 1
    seconds = time.perf_counter() - tic
    ok = count == 500 and worst <= 1e-10 and seconds < 60.0
    report(1, ok, f"amplified best-approximation bound held on {count} "
                  f"instances at n in (16,64,256); worst slack {worst:.2e}, "
                  f"{seconds:.1f}s")


def test_criterion_02_oblique_projector_laws():
    rng = np.random.default_rng(1002)
    worst_cross = 0.0
    worst_idem = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 40))
        m = int(rng.integers(8, 40))
        p1 = int(rng.integers(1, 7))
        p2 = int(rng.integers(1, 7))
        basis = random_basis(rng, n, m, p1, p2)
        op = deim.build_deim(basis)
        F = rng.standard_normal((n, m))
        Ft = deim.deim_approximate(op, basis, F)
        cross = np.abs(Ft[np.ix_(op.row_idx, op.col_idx)]
                       - F[np.ix_(op.row_idx, op.col_idx)]).max()
        idem = np.linalg.norm(deim.deim_approximate(op, basis, Ft) - Ft)
        worst_cross = max(worst_cross, cross)
        worst_idem = max(worst_idem, idem / max(np.linalg.norm(Ft), 1.0))
    ok = worst_cross <= 1e-10 and worst_idem <= 1e-10
    report(2, ok, f"100 instances: selected entries reproduced to "
                  f"{worst_cross:.2e}, second application moved the "
                  f"interpolant by {worst_idem:.2e}")


def test_criterion_03_accumulator_multiset_and_bound():
    rng = np.random.default_rng(1003)
    worst_dev = 0.0
    streams = 0
    for case in range(30):
        n_snaps = int(rng.integers(2, 9))
        rows = int(rng.integers(4, 15))
        cols = int(rng.integers(4, 15))
        kappa = int(rng.integers(1, 13))
        snaps = [rng.standard_normal((rows, cols)) for _ in range(n_snaps)]
        if case % 7 == 3:
            snaps[n_snaps // 2] = np.zeros((rows, cols))
        assert sum(min(S.shape) for S in snaps) <= 200
        acc = pod.TripletAccumulator.empty(kappa)
        for S in snaps:
            acc = pod.accumulate(acc, S)
        want = oracles.top_kappa_multiset(snaps, kappa)
        assert len(acc.St) == len(want)
        worst_dev = max(worst_dev, np.abs(acc.St - want).max()
                        / max(want[0], 1e-300))
        streams += 1
    # a stream at the 200-triplet limit
    snaps = [rng.standard_normal((25, 25)) for _ in range(8)]
    assert sum(min(S.shape) for S in snaps) == 200
    acc = pod.TripletAccumulator.empty(30)
    for S in snaps:
        acc = pod.accumulate(acc, S)
    want = oracles.top_kappa_multiset(snaps, 30)
    worst_dev = max(worst_dev, np.abs(acc.St - want).max() / want[0])
    streams += 1

    worst_gap = -np.inf
    for _ in range(6):
        kappa = 8
        snaps = [rng.standard_normal((24, 24)) for _ in range(5)]
        acc = pod.TripletAccumulator.empty(kappa)
        for S in snaps:
            acc = pod.accumulate(acc, S)
        blocks = []
        for i, S in enumerate(snaps):
            sel = acc.source_ids == i
            blocks.append(S - (acc.Vt[:, sel] * acc.St[sel]) @ acc.Wh[:, sel].T)
        gap = np.linalg.norm(np.hstack(blocks), 2) - kappa * acc.sigma_discard_max
        worst_gap = max(worst_gap, gap)
    ok = worst_dev <= 1e-10 and worst_gap <= 1e-10
    report(3, ok, f"retained multiset matched the pooled top-kappa oracle on "
                  f"{streams} streams (worst deviation {worst_dev:.2e}); "
                  f"blockwise spectral bound margin {worst_gap:.2e} at n=24")


def test_criterion_04_matrix_step_matches_vectorized_oracle():
    rng = np.random.default_rng(1004)
    shapes = [(1, 1), (1, 4), (2, 2), (2, 3), (3, 5), (4, 4), (4, 8),
              (6, 10), (8, 8), (2, 32), (64, 1)]
    worst = 0.0
    for k1, k2 in shapes:
        assert k1 * k2 <= 64
        for family in ("symmetric", "normal"):
            if family == "symmetric":
                A, B = stable_pair(rng, k1, k2, symmetric=True)
            else:
                Sa = rng.standard_normal((k1, k1))
                Sb = rng.standard_normal((k2, k2))
                A = (Sa - Sa.T) - 1.5 * np.eye(k1)
                B = (Sb - Sb.T) - 1.5 * np.eye(k2)
            spec = make_spec(A, B, rng.standard_normal((k1, k2)),
                             nonlinear=lambda U, X, Y, t: U - U**3)
            model, _ = identity_model(spec)
            for _ in range(3):
                Y = rng.standard_normal((k1, k2))
                ref = oracles.vectorized_etd_step(A, B, Y, Y - Y**3, 0.07)
                got = reduced_step(model, Y, 0.0, 0.07)
                worst = max(worst, np.linalg.norm(got - ref)
                            / max(np.linalg.norm(ref), 1e-300))
    ok = worst <= 1e-10
    report(4, ok, f"matrix exponential step equals the vectorized "
                  f"phi1 oracle on {2 * len(shapes)} operator pairs up to "
                  f"k1*k2=64; worst relative gap {worst:.2e}")


def test_criterion_05_identity_reduction_collapses_to_full_solver():
    spec = problems.build_problem("ac1", 32)
    grid = fullsolve.TimeGrid(spec.t_final, 120)
    model, ubasis = identity_model(spec)
    romtraj = rom.run_online(model, grid)
    ref = run_full(spec, grid, scheme="etd")
    worst = 0.0
    for U, Y in zip(ref.states, romtraj.states):
        worst = max(worst, np.linalg.norm(U - rom.lift(ubasis, Y))
                    / max(np.linalg.norm(U), 1e-300))
    ok = worst <= 1e-9
    report(5, ok, f"identity bases with all-entry interpolation retrace the "
                  f"full trajectory at n=32 over {grid.n_t} steps; worst "
                  f"node error {worst:.2e}")


def _refuse(A):
    raise ConditioningError("eigenbasis refused")


def imex_solve(A, B, C, h, schur):
    """X with (I - hA) X - h X B = C: one imex step of Propagator(A, B) from C
    at F = 0, in eigen-coordinates or, with the eigensolver made to refuse,
    in real Schur coordinates."""
    with pytest.MonkeyPatch.context() as mp:
        if schur:
            mp.setattr(kernels, "eig_pair", _refuse)
        prop = kernels.Propagator(A, B, "imex")
    assert prop.fallback == schur
    return kernels.etd_euler_update(prop, prop.to_coords(C), np.zeros_like(C), h)[1]


def test_criterion_06_sylvester_residuals_and_diagonal_forms():
    # The Sylvester solve the library runs is the imex step; every instance
    # goes through both of its routes.
    h = 0.1
    rng = np.random.default_rng(1006)
    worst_res = 0.0
    for i in range(200):
        p = int(rng.integers(1, 25))
        q = int(rng.integers(1, 25))
        A, B = stable_pair(rng, p, q, symmetric=(i % 2 == 0))
        C = rng.standard_normal((p, q))
        M, N = np.eye(p) - h * A, -h * B
        for schur in (False, True):
            X = imex_solve(A, B, C, h, schur)
            res = np.linalg.norm(M @ X + X @ N - C)
            allow = 1e-8 * (np.linalg.norm(M) + np.linalg.norm(N)) \
                * np.linalg.norm(X) + 1e-12 * np.linalg.norm(C)
            worst_res = max(worst_res, res - allow)
    worst_diag = 0.0
    for _ in range(40):
        p = int(rng.integers(1, 12))
        q = int(rng.integers(1, 12))
        a = rng.uniform(0.5, 3.0, p)
        b = rng.uniform(0.5, 3.0, q)
        C = rng.standard_normal((p, q))
        closed = C / (1.0 - h * (a[:, None] + b[None, :]))
        for schur in (False, True):
            X = imex_solve(np.diag(a), np.diag(b), C, h, schur)
            worst_diag = max(worst_diag, np.abs(X - closed).max())
    ok = worst_res <= 0.0 and worst_diag <= 1e-12
    report(6, ok, f"200 imex Sylvester steps (I - hA) X - h X B = C, each in "
                  f"eigen and in Schur coordinates, stayed inside the residual "
                  f"budget (worst overshoot {worst_res:.2e}); 40 diagonal "
                  f"closed forms matched to {worst_diag:.2e}")


def test_criterion_07_symmetric_stream_preserves_structure():
    rng = np.random.default_rng(1007)
    n = 24
    Q = np.linalg.qr(rng.standard_normal((n, 6)))[0]
    lam = np.linspace(0.4, 3.0, 6)
    w = rng.uniform(0.5, 2.0, 6)

    def state_at(t):
        d = w * np.exp(-lam * t) + 0.3 * np.sin((1 + np.arange(6)) * t)
        return (Q * d) @ Q.T

    times = np.linspace(0.0, 1.0, 12)
    smats = [state_at(t) for t in times]
    fmats = [S - S**3 for S in smats]
    ubasis, _ = pod.dynamic_pod(fullsolve.Trajectory(times, smats), 1e-6, 20, 1e-6)
    fbasis, _ = pod.dynamic_pod(fullsolve.Trajectory(times, fmats), 1e-6, 20, 1e-6)
    angle = 0.0
    for basis in (ubasis, fbasis):
        sv = np.linalg.svd(basis.Vl.T @ basis.Wr, compute_uv=False)
        angle = max(angle, float(np.arccos(np.clip(sv.min(), -1.0, 1.0))))
    op = deim.build_deim(fbasis)
    asym = 0.0
    for t in np.linspace(0.05, 0.95, 7):
        S = state_at(t)
        Ft = deim.deim_approximate(op, fbasis, S - S**3)
        asym = max(asym, np.linalg.norm(Ft - Ft.T)
                   / max(np.linalg.norm(Ft), 1e-300))
    ok = (ubasis.symmetric and fbasis.symmetric
          and np.array_equal(op.row_idx, op.col_idx)
          and angle <= 1e-6 and asym <= 1e-10)
    report(7, ok, f"symmetric stream kept left/right spans aligned (max "
                  f"principal angle {angle:.2e}) and the interpolant "
                  f"symmetric ({asym:.2e}) with shared index sets")


def test_criterion_08_linear_runs_reproduce_semigroup():
    worst = 0.0
    # diffusion pair at the size cap
    n = 256
    L = problems.build_laplacian_1d(n, "dirichlet", 0.0, 2.0 * np.pi, coeff=0.01)
    x = problems.grid_1d(n, "dirichlet", 0.0, 2.0 * np.pi)
    spec = make_spec(L, L.copy(), 0.05 * np.outer(np.sin(x), np.cos(x)),
                     t_final=2.0)
    traj = run_full(spec, fullsolve.TimeGrid(2.0, 16), scheme="etd")
    for node in (8, 16):
        t = traj.times[node]
        E = oracles.pade_expm(t * L)
        want = E @ spec.U0 @ E
        worst = max(worst, np.linalg.norm(traj.states[node] - want)
                    / np.linalg.norm(want))
    # non-symmetric normal pair
    rng = np.random.default_rng(1008)
    Sa = rng.standard_normal((64, 64))
    A = (Sa - Sa.T) - 0.5 * np.eye(64)
    Sb = rng.standard_normal((64, 64))
    B = (Sb - Sb.T) - 0.8 * np.eye(64)
    spec2 = make_spec(A, B, rng.standard_normal((64, 64)), t_final=1.0)
    traj2 = run_full(spec2, fullsolve.TimeGrid(1.0, 10), scheme="etd")
    want = oracles.pade_expm(A) @ spec2.U0 @ oracles.pade_expm(B)
    worst = max(worst, np.linalg.norm(traj2.states[-1] - want)
                / np.linalg.norm(want))
    ok = worst <= 1e-8
    report(8, ok, f"zero-nonlinearity runs matched the exact evolution at "
                  f"n=256 (diffusion) and n=64 (normal pair); worst relative "
                  f"gap {worst:.2e}")


def test_criterion_09_interface_formation_end_to_end(ac1_64):
    spec = ac1_64["spec"]
    model = rom.assemble_rom(spec, ac1_64["ubasis"], ac1_64["factors"])
    grid = fullsolve.TimeGrid(spec.t_final, 300)
    romtraj = rom.run_online(model, grid)
    ref = run_full(spec, grid, scheme="etd")
    err, _ = rom.relative_errors(ref, romtraj, lambda Y: rom.lift(ac1_64["ubasis"], Y))
    ub, urep = ac1_64["ubasis"], ac1_64["urep"]
    ok = err <= 1e-3
    report(9, ok, f"interface benchmark at n=64, 300 steps: mean relative "
                  f"error {err:.3e} with dims ({ub.nu_l},{ub.nu_r}) from "
                  f"n_s={urep.n_s} snapshots in {urep.phases_used} phase(s)")


def test_criterion_10_large_offline_selection_fingerprint():
    if not os.environ.get("MOR2_LONG_TESTS"):
        print("\nACCEPTANCE 10 SKIP - optional n=1000 offline fingerprint "
              "(set MOR2_LONG_TESTS=1 to run, ~minutes)")
        pytest.skip("long test disabled")
    spec = problems.build_problem("ac1", 1000)
    times = pod.candidate_times(spec.t_final, 40)
    state_src, nonl_src, _ = fullsolve.trajectory_source(spec, times, "imex")
    ubasis, urep = pod.dynamic_pod(state_src, 1e-3, 50, 1e-3)
    fbasis, frep = pod.dynamic_pod(nonl_src, 1e-3, 50, 1e-3)
    notes = []
    if urep.phases_used != 1 or frep.phases_used != 1:
        notes.append(f"phases ({urep.phases_used},{frep.phases_used}) != 1")
    if abs(urep.n_s - 8) > 2:
        notes.append(f"state n_s {urep.n_s} outside 8+-2")
    if abs(frep.n_s - 7) > 2:
        notes.append(f"nonlinearity n_s {frep.n_s} outside 7+-2")
    if abs(ubasis.nu_l - 9) > 2 or abs(ubasis.nu_r - 2) > 2:
        notes.append(f"state dims ({ubasis.nu_l},{ubasis.nu_r}) outside (9,2)+-2")
    if abs(fbasis.nu_l - 10) > 2 or abs(fbasis.nu_r - 3) > 2:
        notes.append(f"nonlinearity dims ({fbasis.nu_l},{fbasis.nu_r}) "
                     f"outside (10,3)+-2")
    detail = (f"n=1000 offline selection: state n_s={urep.n_s} dims "
              f"({ubasis.nu_l},{ubasis.nu_r}), nonlinearity n_s={frep.n_s} "
              f"dims ({fbasis.nu_l},{fbasis.nu_r})")
    if notes:
        # indicative windows only: integrator details legitimately shift counts
        print(f"\nACCEPTANCE 10 WARN - {detail}; " + "; ".join(notes))
        warnings.warn("; ".join(notes))
    else:
        print(f"\nACCEPTANCE 10 PASS - {detail}")


def test_criterion_11_reaction_convection_end_to_end(rdc_64):
    spec = rdc_64["spec"]
    model = rom.assemble_rom(spec, rdc_64["ubasis"], rdc_64["factors"])
    grid = fullsolve.TimeGrid(spec.t_final, 300)
    romtraj = rom.run_online(model, grid)
    ref = run_full(spec, grid, scheme="etd")
    err, _ = rom.relative_errors(ref, romtraj, lambda Y: rom.lift(rdc_64["ubasis"], Y))
    urep = rdc_64["urep"]
    ok = err <= 1e-3 and urep.phases_used == 1
    report(11, ok, f"convection benchmark at n=64: mean relative error "
                   f"{err:.3e}, state selection finished in "
                   f"{urep.phases_used} phase(s) with n_s={urep.n_s}")


def test_criterion_12_analytic_reconstruction_and_snapshot_economy():
    fn = problems.analytic_function("phi1", 500)
    cands = pod.candidate_times(fn.t_final, 60)
    source = fullsolve.AnalyticSource(fn, cands)
    basis, rep = pod.dynamic_pod(source, 1e-3, 50, 1e-3)
    processed = 1 + len(rep.evaluated_times)
    errs = [pod.projection_error(problems.sample_analytic(fn, t), basis)
            for t in np.linspace(0.0, fn.t_final, 300)]
    mean_err = float(np.mean(errs))
    ok = mean_err <= 5e-3 and processed < 60
    report(12, ok, f"analytic target at n=500: mean reconstruction error "
                   f"{mean_err:.3e} over 300 test times from n_s={rep.n_s} "
                   f"snapshots; touched {processed} of 60 candidates")


def test_criterion_13_truncation_sweep_trends():
    spec = problems.build_problem("rdc", 64, eps1=0.05)
    times = pod.candidate_times(spec.t_final, 60)
    state_src, _, _ = fullsolve.trajectory_source(spec, times, "imex")
    taus = (1e-2, 1e-3, 1e-4)
    dyn, vec = [], []
    for tau in taus:
        _, rep = pod.dynamic_pod(state_src, tau, 50, tau)
        dyn.append(rep.n_s)
        _, vrep = pod.vector_pod(state_src, tau, tau)
        vec.append(vrep.n_s)
    vec_monotone = all(b >= a for a, b in zip(vec, vec[1:]))
    dyn_range = max(dyn) - min(dyn)
    vec_range = max(vec) - min(vec)
    ok = vec_monotone and dyn_range <= vec_range
    report(13, ok, f"tightening tau over {list(taus)}: vector route counts "
                   f"{vec} grow monotonically; matrix route counts {dyn} "
                   f"stay within a range of {dyn_range} <= {vec_range}")


def test_criterion_14_online_cost_bands_and_storage_scaling():
    rng = np.random.default_rng(1014)
    models = {}
    for n in (128, 512, 1024):
        spec = problems.build_problem("ac1", n)
        models[n] = fixed_rank_model(spec, 8, 50, 1e-3, 6, 8, rng)
    # The sizes are timed in alternation, after every model is built, so a
    # change of machine speed during the test (or the spin of idle BLAS
    # threads after a build) reaches all sizes alike.
    secs = {n: [] for n in models}
    for _ in range(15):
        for n, model in models.items():
            grid = fullsolve.TimeGrid(model.spec.t_final, 600)
            secs[n].append(rom.run_online(model, grid).seconds / grid.n_t)
    per_step = {n: float(np.median(s)) for n, s in secs.items()}
    band = max(per_step.values()) / min(per_step.values())

    spec = problems.build_problem("ac1", 512)
    times = pod.candidate_times(spec.t_final, 8)
    state_src, nonl_src, _ = fullsolve.trajectory_source(spec, times, "imex")
    _, urep = pod.dynamic_pod(state_src, 1e-3, 50, 1e-3)
    _, frep = pod.dynamic_pod(nonl_src, 1e-3, 50, 1e-3)
    _, vurep = pod.vector_pod(state_src, 1e-3, 1e-3)
    _, vfrep = pod.vector_pod(nonl_src, 1e-3, 1e-3)
    dyn_floats = urep.peak_storage_floats + frep.peak_storage_floats
    vec_floats = vurep.peak_storage_floats + vfrep.peak_storage_floats
    ratio = vec_floats / dyn_floats
    floor = 512 / (8 * 50)
    ok = band < 2.0 and ratio > floor
    us = {n: f"{v * 1e6:.1f}" for n, v in per_step.items()}
    report(14, ok, f"fixed (6,8) online step costs {us} microseconds across "
                   f"n=128/512/1024 (band {band:.2f}x < 2x); snapshot "
                   f"storage ratio vector/matrix {ratio:.1f} > {floor:.2f} "
                   f"at n=512")

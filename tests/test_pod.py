import numpy as np
import pytest

import oracles
from mor2 import fullsolve, kernels, pod, problems
from mor2.errors import ConfigError, DimensionError, InputError


def source_from(matrices, t_final=1.0):
    times = np.linspace(0.0, t_final, len(matrices))
    return fullsolve.Trajectory(times, [np.asarray(M, float) for M in matrices])


# ------------------------------------------------------------------- accumulate

def test_accumulate_first_snapshot():
    acc = pod.accumulate(pod.TripletAccumulator.empty(2), np.diag([3.0, 2.0, 1.0, 0.0]))
    assert acc.rank == 2
    assert np.allclose(acc.St, [3.0, 2.0])
    # the third value never fits under the cap, so it is the loss floor
    assert np.isclose(acc.sigma_discard_max, 1.0)
    assert acc.count_processed == 1
    assert np.array_equal(acc.source_ids, [0, 0])
    assert np.allclose(np.abs(acc.Vt), np.eye(4)[:, :2], atol=1e-12)


def test_accumulate_merge_pushes_value_past_cap():
    acc = pod.accumulate(pod.TripletAccumulator.empty(2), np.diag([3.0, 2.0, 1.0, 0.0]))
    acc = pod.accumulate(acc, np.diag([5.0, 0.5, 0.0, 0.0]))
    assert np.allclose(acc.St, [5.0, 3.0])
    assert np.isclose(acc.sigma_discard_max, 2.0)
    assert acc.count_processed == 2
    assert np.array_equal(acc.source_ids, [1, 0])


def test_accumulate_zero_snapshot_is_noop():
    acc = pod.accumulate(pod.TripletAccumulator.empty(3), np.diag([2.0, 1.0]))
    again = pod.accumulate(acc, np.zeros((2, 2)))
    assert again is acc


def test_accumulate_input_errors():
    acc = pod.accumulate(pod.TripletAccumulator.empty(2), np.eye(3))
    with pytest.raises(DimensionError):
        pod.accumulate(acc, np.eye(4))
    bad = np.eye(3)
    bad[0, 0] = np.inf
    with pytest.raises(InputError):
        pod.accumulate(acc, bad)
    with pytest.raises(DimensionError):
        pod.TripletAccumulator.empty(0)


def test_accumulate_storage_floats():
    acc = pod.TripletAccumulator.empty(2)
    assert acc.storage_floats == 0
    acc = pod.accumulate(acc, np.diag([3.0, 2.0, 1.0, 0.0]))
    assert acc.storage_floats == 4 * 2 + 2 + 4 * 2


def test_accumulate_matches_multiset_oracle():
    rng = np.random.default_rng(81)
    snaps = [rng.standard_normal((12, 12)) for _ in range(6)]
    kappa = 8
    acc = pod.TripletAccumulator.empty(kappa)
    for Xi in snaps:
        acc = pod.accumulate(acc, Xi)
    want = oracles.top_kappa_multiset(snaps, kappa)
    assert np.allclose(acc.St, want, rtol=1e-12)

    # the recorded loss is the largest value ever kept out, over both causes
    spectra = [np.linalg.svd(Xi, compute_uv=False) for Xi in snaps]
    pooled = np.sort(np.concatenate([s[:kappa] for s in spectra]))[::-1]
    expect = max(pooled[kappa], max(s[kappa] for s in spectra))
    assert np.isclose(acc.sigma_discard_max, expect, rtol=1e-12)


def test_accumulate_blockwise_reconstruction_bound():
    rng = np.random.default_rng(82)
    kappa = 8
    snaps = [rng.standard_normal((24, 24)) for _ in range(5)]
    acc = pod.TripletAccumulator.empty(kappa)
    for Xi in snaps:
        acc = pod.accumulate(acc, Xi)
    blocks = []
    for i, Xi in enumerate(snaps):
        sel = acc.source_ids == i
        approx = (acc.Vt[:, sel] * acc.St[sel]) @ acc.Wh[:, sel].T
        blocks.append(Xi - approx)
    gap = np.linalg.norm(np.hstack(blocks), 2)
    assert gap <= kappa * acc.sigma_discard_max + 1e-10


def test_accumulate_discard_monotone_in_kappa():
    rng = np.random.default_rng(83)
    snaps = [rng.standard_normal((10, 10)) for _ in range(4)]
    losses = []
    for kappa in (2, 4, 8, 12):
        acc = pod.TripletAccumulator.empty(kappa)
        for Xi in snaps:
            acc = pod.accumulate(acc, Xi)
        losses.append(acc.sigma_discard_max)
    assert all(a >= b - 1e-13 for a, b in zip(losses, losses[1:]))


def test_accumulate_takes_the_certified_tail_as_discard():
    # above DENSE_SVD_MAX a rank-5 snapshot comes back as 32 triplets; the
    # tail the range finder certifies stands in for its sigma_{kappa+1}
    rng = np.random.default_rng(84)
    U = oracles.random_orthonormal(rng, 300, 5)
    V = oracles.random_orthonormal(rng, 270, 5)
    Xi = (U * np.array([5.0, 2.0, 1.0, 0.5, 0.1])) @ V.T
    kappa = 50
    acc = pod.accumulate(pod.TripletAccumulator.empty(kappa), Xi)
    trip = kernels.truncated_svd(Xi, kappa + 1)
    assert len(trip.S) < kappa + 1
    assert acc.rank == 5
    assert acc.sigma_discard_max == trip.tail
    s = np.linalg.svd(Xi, compute_uv=False)
    assert s[kappa] <= acc.sigma_discard_max <= pod.NEGLIGIBLE_REL * s[0]


def test_accumulate_symmetry_flag_latches():
    acc = pod.TripletAccumulator.empty(4)
    acc = pod.accumulate(acc, np.diag([2.0, 1.0]))
    assert acc.symmetric_stream
    acc = pod.accumulate(acc, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not acc.symmetric_stream
    acc = pod.accumulate(acc, np.diag([1.0, 1.0]))
    assert not acc.symmetric_stream


def _factors(X, tail=0.0):
    """X as the kernels.SvdTriplet a factored snapshot run stores."""
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    k = int(np.sum(s > 1e-14 * s[0]))
    return kernels.SvdTriplet(U[:, :k], s[:k], Vh[:k].T, tail)


def test_accumulate_takes_factors_as_they_are():
    rng = np.random.default_rng(88)
    snaps = [oracles.random_orthonormal(rng, 12, 4) @ rng.standard_normal((4, 10))
             for _ in range(3)]
    dense = factored = pod.TripletAccumulator.empty(6)
    for Xi in snaps:
        dense = pod.accumulate(dense, Xi)
        factored = pod.accumulate(factored, _factors(Xi, tail=1e-15))
    assert np.allclose(factored.St, dense.St, rtol=1e-12, atol=0.0)
    assert np.allclose(factored.Vt, dense.Vt, atol=1e-10)
    assert np.allclose(factored.Wh, dense.Wh, atol=1e-10)
    assert np.array_equal(factored.source_ids, dense.source_ids)
    # four triplets each, kappa 6: the cap and the carried tail set the bound
    assert factored.sigma_discard_max == max(dense.sigma_discard_max, 1e-15)
    assert pod.accumulate(factored, _factors(np.zeros((12, 10)))) is factored
    with pytest.raises(DimensionError):
        pod.accumulate(factored, _factors(snaps[0].T))


def test_factored_symmetry_test_matches_the_matrix():
    rng = np.random.default_rng(89)
    G = rng.standard_normal((9, 3))
    for X, want in ((G @ G.T, True), (G @ rng.standard_normal((3, 9)), False),
                    (G @ G.T + 1e-9 * np.outer(G[:, 0], G[:, 1]), False)):
        acc = pod.accumulate(pod.TripletAccumulator.empty(5), _factors(X))
        assert acc.symmetric_stream == want
        assert kernels.is_symmetric(X, pod.STREAM_SYM_TOL) == want


# -------------------------------------------------------------- error measures

def test_inclusion_error_edge_cases():
    acc = pod.accumulate(pod.TripletAccumulator.empty(3), np.diag([1.0, 0.0]))
    basis = pod.prune(acc, 1e-3, 4)
    assert pod.projection_error(np.diag([0.0, 1.0]), basis) == 1.0
    assert pod.projection_error(np.zeros((2, 2)), basis) == 0.0


def test_inclusion_error_in_span():
    rng = np.random.default_rng(84)
    X = oracles.random_orthonormal(rng, 8, 3) @ np.diag([3.0, 2.0, 1.0]) \
        @ oracles.random_orthonormal(rng, 8, 3).T
    basis = pod.prune(pod.accumulate(pod.TripletAccumulator.empty(6), X), 1e-3, 4)
    assert pod.projection_error(X, basis) <= 1e-10
    assert pod.projection_error(0.37 * X, basis) <= 1e-10


def test_projection_error_matches_explicit_projector():
    rng = np.random.default_rng(86)
    acc = pod.TripletAccumulator.empty(6)
    for _ in range(4):
        acc = pod.accumulate(acc, rng.standard_normal((10, 10)))
    basis = pod.prune(acc, 1e-3, 8)
    Xi = rng.standard_normal((10, 10))
    want = oracles.explicit_projection_error(Xi, basis.Vl, basis.Wr)
    assert np.isclose(pod.projection_error(Xi, basis), want, atol=1e-12)
    assert pod.projection_error(np.zeros((10, 10)), basis) == 0.0


def test_projection_error_of_factors_matches_the_oracle():
    rng = np.random.default_rng(90)
    acc = pod.TripletAccumulator.empty(8)
    for _ in range(3):
        acc = pod.accumulate(acc, rng.standard_normal((12, 10)))
    basis = pod.prune(acc, 1e-3, 8)
    Xi = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 10))
    want = oracles.explicit_projection_error(Xi, basis.Vl, basis.Wr)
    assert np.isclose(pod.projection_error(_factors(Xi), basis), want, rtol=1e-12, atol=0.0)
    assert pod.projection_error(_factors(np.zeros((12, 10))), basis) == 0.0
    # a snapshot the bases miss by delta in one direction: the error keeps
    # its digits, where ||X||^2 - ||P X||^2 would leave only ~1e-8
    p = rng.standard_normal(12)
    p -= basis.Vl @ (basis.Vl.T @ p)
    p /= np.linalg.norm(p)
    q = rng.standard_normal(10) / np.sqrt(10)
    core = rng.standard_normal((basis.nu_l, basis.nu_r))
    delta = 1e-10
    Xi = basis.Vl @ core @ basis.Wr.T + delta * np.outer(p, q)
    err = pod.projection_error(_factors(Xi), basis)
    want = delta * np.linalg.norm(q) / np.linalg.norm(Xi)
    assert abs(err - want) <= 1e-4 * want


def test_retained_count_matches_oracle():
    rng = np.random.default_rng(87)
    assert pod.retained_count(np.array([1.0, 0.0, 0.0]), 1e-3, 10) == 1
    assert pod.retained_count(np.zeros(4), 1e-3, 10) == 1
    for _ in range(20):
        s = np.sort(rng.random(12))[::-1] * 10.0 ** -np.arange(12)
        tau = float(rng.choice([1e-1, 1e-2, 1e-3, 1e-4]))
        n_max = int(rng.integers(4, 40))
        assert pod.retained_count(s, tau, n_max) == oracles.tail_retained_count(s, tau, n_max)


# ------------------------------------------------------------------------ prune

def test_prune_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        pod.prune(pod.TripletAccumulator.empty(2), 1e-3, 8)
    acc = pod.accumulate(pod.TripletAccumulator.empty(2), np.eye(3))
    with pytest.raises(DimensionError):
        pod.prune(acc, 0.0, 8)
    with pytest.raises(DimensionError):
        pod.prune(acc, 1.0, 8)


def test_prune_rank_one_stream():
    rng = np.random.default_rng(88)
    u = rng.standard_normal(7)
    w = rng.standard_normal(5)
    acc = pod.TripletAccumulator.empty(4)
    for c in (2.0, -0.7, 0.4):
        acc = pod.accumulate(acc, c * np.outer(u, w))
    basis = pod.prune(acc, 1e-3, 8)
    assert basis.nu_l == 1 and basis.nu_r == 1
    assert pod.projection_error(np.outer(u, w), basis) <= 1e-10


def test_prune_loose_tau_keeps_one_mode():
    rng = np.random.default_rng(89)
    U = oracles.random_orthonormal(rng, 9, 4)
    W = oracles.random_orthonormal(rng, 9, 4)
    X = (U * [1.0, 1e-3, 1e-4, 1e-5]) @ W.T
    acc = pod.accumulate(pod.TripletAccumulator.empty(6), X)
    basis = pod.prune(acc, 0.99, 4)
    assert basis.nu_l == 1 and basis.nu_r == 1


def test_prune_tail_rule_and_orthonormality():
    rng = np.random.default_rng(90)
    kappa, n, tau, n_max = 10, 30, 1e-3, 20
    acc = pod.TripletAccumulator.empty(kappa)
    for _ in range(5):
        X = (oracles.random_orthonormal(rng, n, 6) * 2.0 ** -np.arange(6)) \
            @ oracles.random_orthonormal(rng, n, 6).T
        acc = pod.accumulate(acc, X)
    basis = pod.prune(acc, tau, n_max)
    assert np.allclose(basis.Vl.T @ basis.Vl, np.eye(basis.nu_l), atol=1e-12)
    assert np.allclose(basis.Wr.T @ basis.Wr, np.eye(basis.nu_r), atol=1e-12)
    root = np.sqrt(acc.St)
    sl = np.linalg.svd(acc.Vt * root[None, :], compute_uv=False)
    sr = np.linalg.svd(root[:, None] * acc.Wh.T, compute_uv=False)
    assert basis.nu_l == oracles.tail_retained_count(sl, tau, n_max)
    assert basis.nu_r == oracles.tail_retained_count(sr, tau, n_max)
    assert np.allclose(basis.singvals_l, sl[: basis.nu_l])
    assert np.allclose(basis.singvals_r, sr[: basis.nu_r])


def test_prune_symmetry_detection():
    rng = np.random.default_rng(91)
    S = rng.standard_normal((6, 6))
    S = S + S.T
    acc = pod.accumulate(pod.TripletAccumulator.empty(4), S)
    assert pod.prune(acc, 1e-3, 8).symmetric
    acc = pod.accumulate(acc, np.triu(np.ones((6, 6))))
    assert not pod.prune(acc, 1e-3, 8).symmetric


# ------------------------------------------------------- candidate bookkeeping

def test_effective_n_max_rounds_down_to_quarters():
    assert pod.effective_n_max(40) == 40
    assert pod.effective_n_max(42) == 40
    assert pod.effective_n_max(7) == 4
    with pytest.raises(DimensionError):
        pod.effective_n_max(3)


def test_candidate_times_layout():
    times = pod.candidate_times(5.0, 40)
    assert len(times) == 40
    assert times[0] == 0.0 and times[-1] == 5.0
    assert np.allclose(np.diff(times), times[1] - times[0])


def test_phase_index_sets_cover_all_nodes():
    p0, p1, p2 = pod.phase_index_sets(8)
    assert np.array_equal(p0, [0, 4])
    assert np.array_equal(p1, [2, 6])
    assert np.array_equal(p2, [1, 3, 5, 7])
    union = np.sort(np.concatenate([p0, p1, p2]))
    assert np.array_equal(union, np.arange(8))
    with pytest.raises(DimensionError):
        pod.phase_index_sets(10)


# ------------------------------------------------------------------ dynamic_pod

def test_dynamic_pod_constant_stream():
    rng = np.random.default_rng(92)
    X = np.outer(rng.standard_normal(8), rng.standard_normal(8))
    src = source_from([X] * 8)
    basis, report = pod.dynamic_pod(src, 1e-3, 10, 1e-3)
    assert report.n_s == 1
    assert report.phases_used == 1
    assert basis.nu_l == 1 and basis.nu_r == 1
    assert np.allclose(report.included_times, [0.0])
    assert max(report.per_time_error) <= 1e-12
    assert report.phase_mean_errors[0] <= 1e-12


def test_dynamic_pod_rank_one_modulated_stream():
    rng = np.random.default_rng(93)
    u, w = rng.standard_normal(9), rng.standard_normal(9)
    src = source_from([np.cos(0.3 * i) * np.outer(u, w) for i in range(12)])
    basis, report = pod.dynamic_pod(src, 1e-3, 10, 1e-3)
    assert report.n_s == 1
    assert basis.nu_l == 1 and basis.nu_r == 1


def test_dynamic_pod_stops_once_phase_residuals_vanish():
    # one fresh orthogonal direction per node; with a tight tau each
    # inclusion fully repairs its node, so phase one already averages to
    # zero residual and later phases are never consulted
    rng = np.random.default_rng(94)
    U = oracles.random_orthonormal(rng, 16, 8)
    W = oracles.random_orthonormal(rng, 16, 8)
    mats = [np.outer(U[:, i], W[:, i]) for i in range(8)]
    basis, report = pod.dynamic_pod(source_from(mats), 1e-6, 12, 1e-9)
    assert report.phases_used == 1
    assert report.n_s == 2
    assert np.allclose(sorted(report.included_times), [0.0, 4.0 / 7.0])
    assert report.phase_mean_errors[0] <= 1e-6
    for i in (0, 4):
        assert pod.projection_error(mats[i], basis) <= 1e-8


def test_dynamic_pod_exhausts_phases_when_capped():
    # full-rank snapshots against kappa = 2: inclusions cannot repair the
    # residuals, so every phase runs and every visited node joins
    rng = np.random.default_rng(194)
    mats = [rng.standard_normal((8, 8)) for _ in range(8)]
    basis, report = pod.dynamic_pod(source_from(mats), 1e-3, 2, 1e-3)
    assert report.phases_used == 3
    assert report.n_s == 8
    assert len(report.evaluated_times) == 7
    flagged = set(report.evaluated_times[report.per_time_error > 1e-3])
    assert set(report.included_times[1:]) <= flagged
    assert all(m > 1e-3 for m in report.phase_mean_errors)
    assert report.peak_storage_floats > 0
    assert np.allclose(basis.Vl.T @ basis.Vl, np.eye(basis.nu_l), atol=1e-12)


def test_dynamic_pod_zero_seed_recovers():
    rng = np.random.default_rng(95)
    X = np.outer(rng.standard_normal(6), rng.standard_normal(6))
    mats = [np.zeros((6, 6))] * 2 + [X] * 6
    basis, report = pod.dynamic_pod(source_from(mats), 1e-3, 8, 1e-3)
    assert report.n_s >= 1
    assert pod.projection_error(X, basis) <= 1e-10


@pytest.mark.parametrize("method", ["dynamic", "vector"])
def test_selection_goes_on_past_an_all_zero_first_phase(method):
    # phase 0 scores only node 4, which is zero like the seed: its mean
    # meets tol before anything has joined, and the sweep must not stop there
    rng = np.random.default_rng(105)
    X = np.outer(rng.standard_normal(6), rng.standard_normal(6))
    source = source_from([np.zeros((6, 6))] * 5 + [X] * 3)
    if method == "dynamic":
        basis, report = pod.dynamic_pod(source, 1e-3, 8, 1e-3)
        assert pod.projection_error(X, basis) <= 1e-10
    else:
        basis, report = pod.vector_pod(source, 1e-3, 1e-3)
        x = X.ravel(order="F")
        assert np.linalg.norm(x - basis.V @ (basis.V.T @ x)) <= 1e-10 * np.linalg.norm(x)
    assert len(report.included_times) >= 1
    assert set(report.included_times) <= set(source.times[5:])


def test_dynamic_pod_on_small_diffusion_problem():
    spec = problems.build_problem("ac1", 16)
    times = pod.candidate_times(spec.t_final, 20)
    state, _, _ = fullsolve.trajectory_source(spec, times, "imex")
    basis, report = pod.dynamic_pod(state, 1e-3, 30, 1e-3)
    assert 1 <= report.phases_used <= 3
    assert report.n_s >= 1
    assert basis.nu_l >= 1 and basis.nu_r >= 1
    assert report.seconds >= 0.0
    assert np.allclose(basis.Vl.T @ basis.Vl, np.eye(basis.nu_l), atol=1e-12)


# -------------------------------------------------------------------- vanilla

def test_vanilla_update_no_growth_in_span():
    rng = np.random.default_rng(96)
    X = (oracles.random_orthonormal(rng, 8, 3) * [3.0, 2.0, 1.0]) \
        @ oracles.random_orthonormal(rng, 8, 3).T
    Vl, Wr, sl, sr = pod.vanilla_update(None, None, X, 10)
    assert Vl.shape[1] == 3
    P1 = Vl @ Vl.T
    Vl2, Wr2, _, _ = pod.vanilla_update(Vl, Wr, 0.6 * X, 10)
    assert Vl2.shape[1] == 3
    assert np.linalg.norm(Vl2 @ Vl2.T - P1) <= 1e-10


def test_vanilla_pod_rank_one_stream():
    rng = np.random.default_rng(98)
    u, w = rng.standard_normal(7), rng.standard_normal(7)
    mats = [c * np.outer(u, w) for c in (1.0, 0.5, -0.2, 0.8)]
    basis, report = pod.vanilla_pod(source_from(mats), 10, 1e-3)
    assert basis.nu_l == 1 and basis.nu_r == 1
    assert pod.projection_error(np.outer(u, w), basis) <= 1e-10
    assert report.n_s == 4


def test_vanilla_pod_skips_zero_snapshots():
    rng = np.random.default_rng(99)
    X = rng.standard_normal((5, 5))
    mats = [X, np.zeros((5, 5)), 2.0 * X]
    _, report = pod.vanilla_pod(source_from(mats), 6, 1e-3)
    assert report.n_s == 2
    with pytest.raises(DimensionError):
        pod.vanilla_pod(source_from([np.zeros((3, 3))] * 4), 5, 1e-3)


def test_vanilla_pod_includes_every_candidate():
    rng = np.random.default_rng(100)
    mats = [rng.standard_normal((8, 8)) for _ in range(6)]
    basis, report = pod.vanilla_pod(source_from(mats), 20, 1e-6)
    assert report.n_s == 6
    assert np.allclose(basis.Vl.T @ basis.Vl, np.eye(basis.nu_l), atol=1e-12)
    for M in mats:
        assert pod.projection_error(M, basis) <= 1e-6


# --------------------------------------------------------------------- vector

def test_vector_pod_constant_stream():
    rng = np.random.default_rng(101)
    X = rng.standard_normal((6, 6))
    basis, report = pod.vector_pod(source_from([X] * 8), 1e-3, 1e-3)
    assert basis.k == 1
    x = X.ravel(order="F")
    resid = x - basis.V @ (basis.V.T @ x)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(x)


def test_vector_pod_proportional_stream():
    rng = np.random.default_rng(102)
    X = rng.standard_normal((5, 5))
    mats = [c * X for c in np.linspace(1.0, 2.0, 8)]
    basis, _ = pod.vector_pod(source_from(mats), 1e-3, 1e-3)
    assert basis.k == 1


def test_vector_pod_zero_seed_recovers():
    rng = np.random.default_rng(104)
    X = np.outer(rng.standard_normal(5), rng.standard_normal(5))
    mats = [X] * 12
    mats[0] = mats[4] = np.zeros((5, 5))
    source = source_from(mats)
    basis, report = pod.vector_pod(source, 1e-3, 1e-3)
    # phase 0 scores nodes 4 and 8: the zero one scores 0, the first
    # nonzero one scores 1 against the empty basis and joins
    assert np.array_equal(report.evaluated_times, source.times[[4, 8]])
    assert np.array_equal(report.per_time_error, [0.0, 1.0])
    assert np.array_equal(report.included_times, source.times[[8]])
    assert basis.k == 1
    x = X.ravel(order="F")
    assert np.linalg.norm(x - basis.V @ (basis.V.T @ x)) <= 1e-10 * np.linalg.norm(x)
    # projection_error scores the stacked snapshot; a zero one scores 0
    assert pod.projection_error(X, basis) <= 1e-10
    assert pod.projection_error(np.zeros((5, 5)), basis) == 0.0


@pytest.mark.parametrize("adaptive", [True, False])
def test_vector_pod_refuses_an_all_zero_stream(adaptive):
    with pytest.raises(DimensionError, match="never saw a nonzero snapshot"):
        pod.vector_pod(source_from([np.zeros((4, 4))] * 8), 1e-3, 1e-3,
                       n_max=None if adaptive else 8)


def test_vector_pod_memory_guard():
    X = np.ones((520, 3))
    with pytest.raises(ConfigError):
        pod.vector_pod(source_from([X] * 8), 1e-3, 1e-3)
    basis, _ = pod.vector_pod(source_from([X] * 8), 1e-3, 1e-3, override_guard=True)
    assert basis.k == 1
    with pytest.raises(ConfigError):
        pod.vector_pod(source_from([np.zeros((513, 513))] * 8), 1e-3, 1e-3)


def test_vector_pod_non_adaptive_takes_all():
    rng = np.random.default_rng(103)
    mats = [rng.standard_normal((4, 4)) for _ in range(5)]
    basis, report = pod.vector_pod(source_from(mats), 1e-3, 1e-8, n_max=len(mats))
    assert report.n_s == 5
    assert report.phases_used == 0
    stack = np.column_stack([M.ravel(order="F") for M in mats])
    s = np.linalg.svd(stack, compute_uv=False)
    assert basis.k == oracles.tail_retained_count(s, 1e-8, 5)
    assert np.allclose(basis.V.T @ basis.V, np.eye(basis.k), atol=1e-12)


def test_vector_pod_non_adaptive_takes_one_svd(monkeypatch):
    rng = np.random.default_rng(103)
    mats = [rng.standard_normal((4, 4)) for _ in range(5)]
    svd, calls = np.linalg.svd, []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    basis, report = pod.vector_pod(source_from(mats), 1e-3, 1e-8, n_max=len(mats))
    assert calls == [(16, 5)]
    assert report.peak_storage_floats == 16 * 5 + basis.V.size


def test_dynamic_pod_prunes_once_per_inclusion(ac1_64, monkeypatch):
    # the bases pruned at the last inclusion are the ones returned
    prune, calls = pod.prune, []

    def counting(*args):
        calls.append(args)
        return prune(*args)

    monkeypatch.setattr(pod, "prune", counting)
    for src in (ac1_64["state_src"], ac1_64["nonl_src"]):
        calls.clear()
        basis, report = pod.dynamic_pod(src, 1e-3, 50, 1e-3)
        assert len(calls) == report.n_s
        acc = pod.TripletAccumulator.empty(50)
        for i in np.searchsorted(src.times, report.included_times):
            acc = pod.accumulate(acc, src.snapshot(i))
        want = prune(acc, 1e-3, pod.effective_n_max(len(src.times)))
        for field in ("Vl", "Wr", "singvals_l", "singvals_r"):
            assert np.array_equal(getattr(basis, field), getattr(want, field))
        assert basis.symmetric == want.symmetric


def test_dynamic_bases_have_their_largest_entries_positive(ac1_64):
    # DEIM points and ROM errors do not see column signs; the stored bases do
    for basis in (ac1_64["ubasis"], ac1_64["fbasis"]):
        for V in (basis.Vl, basis.Wr):
            assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])] > 0)

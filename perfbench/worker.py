"""One workload of the mor2 benchmark, run by run.py in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

The worker drives the reduce -> solve chain of the README quick start
through the public functions of mor2, in the order the `reduce` and `solve`
commands call them, checks the outputs independently (checks.py) and prints
one JSON object as its last line of standard output.  Progress goes to
standard error.
"""

import time

_IMPORT_START = time.perf_counter()

import argparse
import functools
import json
import os
import shutil
import statistics
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np

from mor2 import deim, fullsolve, kernels, persist, pod, problems, rom
from mor2.errors import IntegrityError, Mor2Error

import checks
import spans

IMPORT_S = time.perf_counter() - _IMPORT_START

# Offline parameters of the README quick start and the command defaults.
N_MAX = 40
KAPPA = 50
TAU = 1e-3
TOL = 1e-3
N_T = 300

SETUP_REPEATS = 9
# On a shared virtual machine the host slows the guest in bursts of up to
# about a second.  A timing sample is the fastest of BEST_OF back-to-back
# repetitions of the same work (a reduced solve, a full step), and a metric
# is the median of the samples.
BEST_OF = 3
# The host also changes the guest's speed for minutes at a time.  A reduced
# step (a few dozen small numpy calls) swings most: 1.5x between such phases
# on the reference machine, more than any bound allows, against 1.2x for a
# full step or a reduction, which stay unscaled.  Each burst of reduced
# solves is therefore paired with a burst of a fixed calibration of the same
# kind of work that does not use mor2, and the reduced step time is scaled to
# a calibration time of CALIBRATION_REF_S (about the calibration's time on the
# reference machine when run back to back).
CALIBRATION_REF_S = 2.5e-3
_CAL_A, _CAL_B, _CAL_Y0 = np.random.default_rng(20200623).standard_normal((3, 8, 8))
WARM_N = 64
TRACED_ROUNDS_KEPT = 3

# Per-layer metrics: busy time and calls per round of every traced function,
# self time where a traced function calls other traced ones.
LAYERS = (
    "problems.eval_nonlinear", "problems.eval_nonlinear_at",
    "kernels.eig_pair", "kernels.truncated_svd",
    "kernels.etd_euler_update.full", "kernels.etd_euler_update.reduced",
    "kernels.pivoted_qr_indices",
    "fullsolve.trajectory_source", "fullsolve.iter_full",
    "pod.dynamic_pod", "pod.accumulate", "pod.projection_error", "pod.prune",
    "deim.build_deim", "deim.precompute_rom_factors", "deim.reduced_nonlinear",
    "rom.assemble_rom", "rom.run_online", "rom.etd_step", "rom.lift",
    "persist.write_basis", "persist.read_basis",
)
SELF_TIMED = (
    "fullsolve.trajectory_source", "fullsolve.iter_full", "pod.dynamic_pod",
    "pod.accumulate", "deim.build_deim", "deim.reduced_nonlinear",
    "rom.assemble_rom", "rom.run_online", "rom.etd_step",
)
COUNTS = {
    "pod.included": "count", "pod.evaluated": "count",
    "pod.peak_storage_floats": "floats", "persist.bytes_written": "bytes",
}
# Set-up layers: where the set-up time of a workload goes.
SETUP_LAYERS = (
    "fullsolve.trajectory_source", "pod.dynamic_pod", "deim.build_deim",
    "deim.precompute_rom_factors", "rom.assemble_rom", "fullsolve.iter_full",
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# The reduce -> solve chain, through mor2's public functions.

def reduce(spec, out_dir, tracer):
    """The work of `mor2 reduce`: snapshots, both bases, DEIM, factors,
    assembly, and the two basis files written."""
    times = pod.candidate_times(spec.t_final, N_MAX)
    state_src, nonl_src, _ = fullsolve.trajectory_source(spec, times, "imex")
    ubasis, urep = pod.dynamic_pod(state_src, TOL, KAPPA, TAU)
    fbasis, frep = pod.dynamic_pod(nonl_src, TOL, KAPPA, TAU)
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    rom.assemble_rom(spec, ubasis, factors)
    paths = (os.path.join(out_dir, "u_basis.mor2bas"), os.path.join(out_dir, "f_basis.mor2bas"))
    persist.write_basis(paths[0], ubasis)
    persist.write_basis(paths[1], fbasis, op)
    sizes = tuple(os.path.getsize(p) for p in paths)
    tracer.count("persist.bytes_written", sum(sizes))
    tracer.count("pod.included", urep.n_s + frep.n_s)
    # The seed snapshot is looked at too; it is included without a score.
    tracer.count("pod.evaluated", len(urep.evaluated_times) + len(frep.evaluated_times) + 2)
    tracer.count("pod.peak_storage_floats", urep.peak_storage_floats + frep.peak_storage_floats)
    return SimpleNamespace(
        times=times, state_src=state_src, nonl_src=nonl_src, ubasis=ubasis, urep=urep,
        fbasis=fbasis, frep=frep, op=op, paths=paths, sizes=sizes,
        storage=urep.peak_storage_floats + frep.peak_storage_floats,
    )


def load(spec, paths):
    """The loading half of `mor2 solve`: both basis files, factors, assembly."""
    ubasis, _ = persist.read_basis(paths[0])
    fbasis, op = persist.read_basis(paths[1])
    if op is None:
        raise IntegrityError("nonlinearity basis lacks its interpolation trailer")
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    model = rom.assemble_rom(spec, ubasis, factors)
    return SimpleNamespace(ubasis=ubasis, fbasis=fbasis, op=op, model=model)


def reference(spec, grid, visit):
    """Full exponential Euler reference through iter_full, as `mor2 solve` runs it.

    visit(i, U) sees every node.  Returns the seconds of each step, timed
    over consumption; the first node (stepper set-up) is not a step.
    """
    steps = []
    it = fullsolve.iter_full(spec, grid, "etd")
    i, _, U = next(it)
    visit(i, U)
    while True:
        tic = time.perf_counter()
        try:
            i, _, U = next(it)
        except StopIteration:
            break
        steps.append(time.perf_counter() - tic)
        visit(i, U)
    return steps


class ErrorSum:
    """Mean relative Frobenius error of a lifted reduced trajectory, node by node."""

    def __init__(self, ubasis, states):
        self.ubasis, self.states = ubasis, states
        self.total, self.count = 0.0, 0
        self.first_step = None

    def __call__(self, i, U):
        if i == 1:
            self.first_step = U.copy()
        nrm = np.linalg.norm(U)
        if i == 0 or nrm == 0.0:
            return
        self.total += np.linalg.norm(U - rom.lift(self.ubasis, self.states[i])) / nrm
        self.count += 1

    @property
    def mean(self):
        if self.count == 0:
            raise IntegrityError("reference run produced no comparable nodes")
        return self.total / self.count


def warm_up(name, out_dir, tracer):
    """The whole chain once at a small size, so lazy set-up is done before timing."""
    out_dir = os.path.join(out_dir, "warm-up")
    os.makedirs(out_dir, exist_ok=True)
    spec = problems.build_problem(name, WARM_N)
    red = reduce(spec, out_dir, tracer)
    loaded = load(spec, red.paths)
    grid = fullsolve.TimeGrid(spec.t_final, 10)
    traj = rom.run_online(loaded.model, grid)
    reference(spec, grid, ErrorSum(loaded.ubasis, traj.states))


def full_step_flops(spec):
    """Flops of one full ETD update: six n x n products of 2n^3 flops, four
    times that when an eigenbasis is complex (a complex product is four real
    ones).  Whether it is complex is read off eig_pair, as the solver calls
    it: rdc's non-symmetric operator has real eigenvalues and a real basis."""
    n = spec.A.shape[0]
    complex_basis = any(np.iscomplexobj(kernels.eig_pair(M).vectors) for M in (spec.A, spec.B))
    return 6 * 2 * n**3 * (4 if complex_basis else 1)


# ---------------------------------------------------------------------------
# Workloads.  Each has a set-up (timed; repeated, spread over the run), a
# round (repeated while the run lasts) and a final part run once, which
# completes the metrics and checks the outputs.  Library operations go
# through ctx.call, which counts them.  Timed samples of a metric are spread
# over the run where the work allows, because on a shared machine the speed
# drifts over seconds and one short window would carry that drift whole.

class ReduceAC1:
    """ac1 at n = 1024: offline work (IMEX snapshots, Lanczos SVD, selection)."""

    n = 1024
    bursts = 10
    reference_steps = 20       # coarse grid: the n = 1024 reference costs ~0.4 s a step

    def setup(self, ctx):
        self.spec = problems.build_problem("ac1", self.n)
        warm_up("ac1", ctx.scratch, ctx.tracer)

    def round(self, ctx):
        tic = time.perf_counter()
        red = ctx.call(reduce, self.spec, ctx.scratch, ctx.tracer)
        ctx.reduce_s.append(time.perf_counter() - tic)
        loaded = ctx.call(load, self.spec, red.paths)
        grid = fullsolve.TimeGrid(self.spec.t_final, N_T)
        for _ in range(self.bursts):
            traj = ctx.burst(loaded.model, grid)
        ctx.keep(red, loaded, traj)

    def final(self, ctx):
        last = ctx.last
        grid = fullsolve.TimeGrid(self.spec.t_final, self.reference_steps)
        traj = ctx.call(rom.run_online, last.loaded.model, grid)
        errors = ErrorSum(last.loaded.ubasis, traj.states)
        online_grid = fullsolve.TimeGrid(self.spec.t_final, N_T)

        def visit(i, U):
            errors(i, U)
            ctx.burst(last.loaded.model, online_grid)

        ctx.full_steps(ctx.call(reference, self.spec, grid, visit))
        ctx.rom_errors.append(errors.mean)
        common_checks(ctx, self.spec, last.red, last.loaded, last.traj)


class SolveRDC:
    """rdc at n = 512: non-symmetric A with B = A^T, general (non-orthogonal)
    eigenbases, a 300-step full reference solve each round."""

    n = 512
    burst_every = 10           # reference nodes between two bursts of reduced solves

    def setup(self, ctx):
        self.spec = problems.build_problem("rdc", self.n)
        warm_up("rdc", ctx.scratch, ctx.tracer)

    def round(self, ctx):
        tic = time.perf_counter()
        red = ctx.call(reduce, self.spec, ctx.scratch, ctx.tracer)
        ctx.reduce_s.append(time.perf_counter() - tic)
        loaded = ctx.call(load, self.spec, red.paths)
        grid = fullsolve.TimeGrid(self.spec.t_final, N_T)
        traj = ctx.burst(loaded.model, grid)
        errors = ErrorSum(loaded.ubasis, traj.states)

        def visit(i, U):
            errors(i, U)
            if i % self.burst_every == 0:
                ctx.burst(loaded.model, grid)

        ctx.full_steps(ctx.call(reference, self.spec, grid, visit))
        ctx.rom_errors.append(errors.mean)
        ctx.keep(red, loaded, traj, first_step=errors.first_step)

    def final(self, ctx):
        last = ctx.last
        common_checks(ctx, self.spec, last.red, last.loaded, last.traj)
        checks.full_etd_first_step(self.spec, self.spec.t_final / N_T, last.first_step)


class OnlineAC2:
    """ac2 at n = 128: the largest reduced dimensions; many reduced solves."""

    n = 128
    bursts = 4

    def setup(self, ctx):
        self.spec = problems.build_problem("ac2", self.n)
        self.red = ctx.call(reduce, self.spec, ctx.scratch, ctx.tracer)
        self.loaded = ctx.call(load, self.spec, self.red.paths)
        self.grid = fullsolve.TimeGrid(self.spec.t_final, N_T)
        rom.run_online(self.loaded.model, self.grid)

    def between(self, ctx):
        """Reduction samples, taken where the set-ups are (the reduction is set-up work here)."""
        best = np.inf
        for _ in range(BEST_OF):
            tic = time.perf_counter()
            ctx.call(reduce, self.spec, ctx.scratch, ctx.tracer)
            best = min(best, time.perf_counter() - tic)
        ctx.reduce_s.append(best)

    def before_rounds(self, ctx):
        states = []
        ctx.full_steps(ctx.call(reference, self.spec, self.grid,
                                lambda i, U: states.append(U.copy())))
        self.reference = states

    def round(self, ctx):
        for _ in range(self.bursts):
            traj = ctx.burst(self.loaded.model, self.grid)
        errors = ErrorSum(self.loaded.ubasis, traj.states)
        for i, U in enumerate(self.reference):
            errors(i, U)
        ctx.rom_errors.append(errors.mean)
        ctx.keep(self.red, self.loaded, traj, first_step=errors.first_step)

    def final(self, ctx):
        # A second reference solve, after the rounds, for a second window of step times.
        ctx.full_steps(ctx.call(reference, self.spec, self.grid, lambda i, U: None))
        common_checks(ctx, self.spec, self.red, self.loaded, ctx.last.traj)
        checks.full_etd_first_step(self.spec, self.grid.h, ctx.last.first_step)


WORKLOADS = {"reduce-ac1": ReduceAC1, "solve-rdc": SolveRDC, "online-ac2": OnlineAC2}


def common_checks(ctx, spec, red, loaded, traj):
    """Checks every workload runs on its last reduction and reduced solve."""
    for what, V in (("state Vl", red.ubasis.Vl), ("state Wr", red.ubasis.Wr),
                    ("nonlinearity Vl", red.fbasis.Vl), ("nonlinearity Wr", red.fbasis.Wr)):
        checks.orthonormal(what, V)
    checks.deim_operator(red.fbasis, red.op, ctx.rng, deim.deim_approximate)
    n_rows, n_cols = spec.U0.shape
    checks.storage_bound("state stream", red.urep.peak_storage_floats, n_rows, n_cols, KAPPA)
    checks.storage_bound("nonlinearity stream", red.frep.peak_storage_floats, n_rows, n_cols, KAPPA)
    checks.imex_first_step(spec, red.times, red.state_src, red.nonl_src)
    checks.basis_roundtrip("state basis file", (red.ubasis, None),
                           (loaded.ubasis, None), red.sizes[0])
    checks.basis_roundtrip("nonlinearity basis file", (red.fbasis, red.op),
                           (loaded.fbasis, loaded.op), red.sizes[1])
    grid_h = spec.t_final / N_T
    checks.reduced_first_steps(spec, loaded.ubasis, loaded.fbasis, loaded.op, traj.states, grid_h)
    checks.lift_matches(loaded.ubasis, traj.states[-1], rom.lift(loaded.ubasis, traj.states[-1]))
    for error in ctx.rom_errors:
        checks.accuracy("reduced trajectory", error)
    checks.same("mean relative error", ctx.rom_errors)
    for column in zip(*ctx.repeats):
        checks.same("repeated round output", list(column))


# ---------------------------------------------------------------------------
# The run: set-up, rounds for the given seconds, final part, metrics.

def _calibration():
    """Fixed work shaped like a reduced step (small products, entrywise
    functions, a norm), independent of mor2."""
    Y = _CAL_Y0
    for _ in range(N_T):
        Z = (_CAL_A @ Y @ _CAL_B) / 64.0
        Y = np.exp(-np.abs(Z)) * Y + 0.5 * Z
        Y = Y / np.linalg.norm(Y)
    return Y


def _timed(fn):
    tic = time.perf_counter()
    fn()
    return time.perf_counter() - tic


class Context:
    def __init__(self, tracer, scratch, seed):
        self.tracer = tracer
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)
        self.reduce_s, self.online_s, self.full_step_s = [], [], []
        self.online_raw_s, self.calibration_s = [], []
        self.rom_errors, self.repeats = [], []
        self.last = None
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        """One library operation, counted as attempted and, on Mor2Error, failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Mor2Error:
            self.failed += 1
            raise

    def burst(self, model, grid):
        """BEST_OF back-to-back reduced solves and as many calibrations, kept
        as one sample: the fastest solve's seconds per step, scaled by
        CALIBRATION_REF_S over the fastest calibration.  Returns the last
        trajectory."""
        calibration = min(_timed(_calibration) for _ in range(BEST_OF))
        best = np.inf
        for _ in range(BEST_OF):
            tic = time.perf_counter()
            traj = self.call(rom.run_online, model, grid)
            best = min(best, (time.perf_counter() - tic) / grid.n_t)
        self.online_raw_s.append(best)
        self.calibration_s.append(calibration)
        self.online_s.append(best * CALIBRATION_REF_S / calibration)
        return traj

    def full_steps(self, seconds):
        """Full step times, kept as samples of the fastest of BEST_OF consecutive steps."""
        self.full_step_s.extend(min(seconds[i:i + BEST_OF])
                                for i in range(0, len(seconds) - BEST_OF + 1, BEST_OF))

    def keep(self, red, loaded, traj, **extra):
        """Remember a round's outputs for the checks; repeats must agree."""
        self.last = SimpleNamespace(red=red, loaded=loaded, traj=traj, **extra)
        self.repeats.append((red.storage, red.urep.n_s, red.frep.n_s,
                             float(np.linalg.norm(traj.states[-1]))))


def layer_metrics(tracer, run_id, step_flops):
    totals = tracer.layer_totals(run_id)
    counts = tracer.counts[run_id]
    out = {}
    for name in LAYERS:
        entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.s"] = (entry["s"], "s")
        out[f"{name}.calls"] = (entry["calls"], "count")
        if name in SELF_TIMED:
            out[f"{name}.self_s"] = (entry["self_s"], "s")
    for name, unit in COUNTS.items():
        out[name] = (counts.get(name, 0), unit)
    full = totals.get("kernels.etd_euler_update.full")
    gflop = full["calls"] * step_flops() / full["s"] / 1e9 if full else 0.0
    out["fullsolve.step_gflop_s"] = (gflop, "GFLOP/s")
    return out, totals


def median_metrics(samples):
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def run(workload_name, seed, seconds, trace, out_dir):
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return _run(workload_name, seed, seconds, trace, out_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload_name, seed, seconds, trace, out_dir, scratch):
    tracer = spans.Tracer()
    if trace:
        tracer.install({"problems": problems, "kernels": kernels, "fullsolve": fullsolve,
                        "pod": pod, "deim": deim, "rom": rom, "persist": persist})
    ctx = Context(tracer, scratch, seed)
    workload = WORKLOADS[workload_name]()
    step_flops = functools.cache(lambda: full_step_flops(workload.spec))
    setup_s, setup_layers = [], []

    def set_up():
        k = len(setup_s)
        tracer.run_id = f"setup{k}" if trace else None
        tic = time.perf_counter()
        workload.setup(ctx)
        setup_s.append(time.perf_counter() - tic)
        tracer.run_id = None
        if trace:
            totals = tracer.layer_totals(f"setup{k}")
            setup_layers.append({f"setup.{name}.s": (totals.get(name, {"s": 0.0})["s"], "s")
                                 for name in SETUP_LAYERS})
        if hasattr(workload, "between"):
            workload.between(ctx)

    set_up()
    if hasattr(workload, "before_rounds"):
        workload.before_rounds(ctx)

    walls, traced_walls, round_layers, round_totals = [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        run_id = f"round{k}"
        tracer.run_id = run_id if traced else None
        ctx.last = None   # the previous round's snapshots are not held during this one
        tic = time.perf_counter()
        try:
            workload.round(ctx)
        except Mor2Error as exc:
            log(f"round {k} failed: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - tic
        tracer.run_id = None
        (traced_walls if traced else walls).append(wall)
        if traced:
            metrics, totals = layer_metrics(tracer, run_id, step_flops)
            round_layers.append(metrics)
            round_totals.append({"run": run_id, "wall_s": wall, "layers": totals})
            if len(round_layers) > TRACED_ROUNDS_KEPT:
                tracer.drop_last_run(run_id)
        k += 1
        elapsed = time.perf_counter() - start
        # The remaining set-ups are spread over the run.
        while len(setup_s) < SETUP_REPEATS and elapsed >= seconds * len(setup_s) / SETUP_REPEATS:
            set_up()
            elapsed = time.perf_counter() - start
        typical = statistics.median(walls + traced_walls)
        if k >= (2 if trace else 1) and elapsed + typical / 2 >= seconds:
            break
    while len(setup_s) < SETUP_REPEATS:
        set_up()
    log(f"{workload_name}: {k} rounds in {elapsed:.2f} s; imports {IMPORT_S:.3f} s, set-ups "
        + ", ".join(f"{s:.3f}" for s in setup_s) + " s")

    correct = True
    try:
        workload.final(ctx)
    except checks.CheckFailed as exc:
        correct = False
        log(f"{workload_name}: CHECK FAILED: {exc}")

    if trace:
        metrics = median_metrics(round_layers)
        metrics.update(median_metrics(setup_layers))
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / statistics.median(walls), "1")
        path = os.path.join(out_dir, f"{workload_name}-seed{seed}-trace.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload_name, "seed": seed, "untraced_round_s": walls,
                       "traced_rounds": round_totals,
                       "setups": [{"run": f"setup{i}", "layers": tracer.layer_totals(f"setup{i}")}
                                  for i in range(SETUP_REPEATS)],
                       "spans": tracer.dump()}, fh)
        log_self_times(workload_name, round_totals, metrics, path)
    else:
        metrics = {
            "setup_s": (IMPORT_S + statistics.median(setup_s), "s"),
            "reduce_s": (statistics.median(ctx.reduce_s), "s"),
            "online_steps_per_s": (1.0 / statistics.median(ctx.online_s), "1/s"),
            "full_steps_per_s": (1.0 / statistics.median(ctx.full_step_s), "1/s"),
            "rom_rel_error": (statistics.median(ctx.rom_errors), "1"),
            "offline_storage_floats": (ctx.last.red.storage, "floats"),
        }
        log(f"{workload_name}: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()))
        log(f"{workload_name}: unscaled reduced steps per second "
            f"{1.0 / statistics.median(ctx.online_raw_s):.6g}, calibration "
            f"{statistics.median(ctx.calibration_s) * 1e3:.4f} ms")
    return {
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def log_self_times(workload_name, round_totals, metrics, path):
    """Self time per layer of the first traced round, largest first."""
    layers = round_totals[0]["layers"]
    log(f"{workload_name}: traced round self times (first traced round):")
    for name, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"  {name:36s} calls {entry['calls']:6d}  busy {entry['s']:9.4f} s"
            f"  self {entry['self_s']:9.4f} s")
    log(f"{workload_name}: tracing overhead {metrics['trace.overhead_s'][0]:+.4f} s per round"
        f" ({metrics['trace.overhead_share'][0]:+.2%}); spans in {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

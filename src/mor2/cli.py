"""Command-line harness: offline reduction, online solves, reports.

Subcommands
    funcapprox  approximate an analytic matrix function from snapshots
    reduce      build bases + interpolation artifacts for a PDE benchmark
    solve       integrate the reduced model from stored artifacts
    sweep-tau   selection counts as the tolerance varies

Configuration is a flat key=value file; any key can be overridden on the
command line with --set key=value.  --out DIR (default "out") names the
output directory; it is not a configuration key and no report echoes it.
Every command is an entry of _COMMANDS: main checks the problem family,
creates the output directory, runs the command and writes the one run
record, run_info.json, from the timings or counts the command returns.
Numeric report CSVs are byte-identical for identical configurations;
wall-clock measurements go to run_info.json because they can never be.

Exit codes: 0 ok, 2 configuration, 3 numeric failure, 4 artifact integrity.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import deim, fullsolve, persist, pod, problems, rom
from .errors import ConfigError, IntegrityError, Mor2Error

PDE_PROBLEMS = ("ac1", "ac2", "rdc")
ANALYTIC_PROBLEMS = ("phi1", "phi2", "phi3")
METHODS = ("dynamic", "vanilla", "vector")
ONLINE_REPEATS = 3      # reduced solves timed by solve; their median is reported


@dataclasses.dataclass
class RunConfig:
    """Resolved run configuration with defaults."""

    problem: str = "ac1"
    n: int = 64
    n_max: int = 40
    kappa: int = 50
    tau: float = 1e-3
    tol: float = None          # inclusion tolerance; defaults to tau
    n_t: int = 300
    reference: bool = True
    methods: tuple = ("dynamic",)
    override_memory_guard: bool = False
    eps1: float = None
    eps2: float = None
    test_times: int = 300
    taus: tuple = (1e-2, 1e-3, 1e-4)

    def __post_init__(self):
        if self.tol is None:
            self.tol = self.tau

    def validate(self):
        if self.problem not in PDE_PROBLEMS + ANALYTIC_PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.n < 8:
            raise ConfigError("n must be at least 8")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must lie strictly between 0 and 1")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie strictly between 0 and 1")
        for name, value in (("eps1", self.eps1), ("eps2", self.eps2)):
            if value is not None and not 0.0 < value < np.inf:
                raise ConfigError(f"{name} must be finite and positive")
        if self.n_max < 4:
            raise ConfigError("n_max must be at least 4")
        if self.n_t < 1:
            raise ConfigError("n_t must be positive")
        if self.kappa < 1:
            raise ConfigError("kappa must be positive")
        if not self.methods:
            raise ConfigError(f"methods must name at least one of {METHODS}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; choose from {METHODS}")
        if self.test_times < 1:
            raise ConfigError("test_times must be positive")
        if not self.taus or not all(0.0 < t < 1.0 for t in self.taus):
            raise ConfigError("taus must be values strictly between 0 and 1")
        return self


def _coerce(name, kind, raw):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if name == "taus":
                return tuple(float(p) for p in parts)
            return tuple(parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}={raw!r}") from exc


def load_config(path=None, sets=()):
    """Build a RunConfig from an optional file plus key=value overrides."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}

    def apply(key, raw, where):
        key = key.strip()
        if key not in fields:
            raise ConfigError(f"unknown configuration key {key!r} ({where})")
        values[key] = _coerce(key, fields[key].type, raw)

    if path is not None:
        text = Path(path)
        if not text.is_file():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(text.read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, raw = line.split("=", 1)
            apply(key, raw, f"{path}:{lineno}")
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        apply(key, raw, "--set")
    return RunConfig(**values).validate()


def _config_echo(cfg):
    lines = []
    for f in sorted(dataclasses.fields(cfg), key=lambda f: f.name):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"# {f.name}={v}")
    return lines


def _write_csv(path, cfg, header, rows):
    """Deterministic CSV: config echo comments, then fixed-format rows."""
    with open(path, "w", newline="") as fh:
        for line in _config_echo(cfg):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            out = []
            for v in row:
                if isinstance(v, float):
                    out.append(f"{v:.12e}")
                else:
                    out.append(str(v))
            fh.write(",".join(out) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _problem_params(cfg):
    """eps1 and eps2 where set; a problem refuses the ones it does not read."""
    return {k: getattr(cfg, k) for k in ("eps1", "eps2") if getattr(cfg, k) is not None}


def _build_spec(cfg):
    return problems.build_problem(cfg.problem, cfg.n, **_problem_params(cfg))


def _config_fingerprint(cfg):
    keys = ("problem", "n", "n_max", "kappa", "tau", "tol", "eps1", "eps2")
    blob = json.dumps({k: getattr(cfg, k) for k in keys}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _snapshots(cfg, spec):
    """IMEX state and nonlinearity sources on the candidate times, and their seconds."""
    times = pod.candidate_times(spec.t_final, cfg.n_max)
    return fullsolve.trajectory_source(spec, times, "imex")


def _widths(basis):
    """Left and right basis widths; a vectorized basis counts k on both sides."""
    if isinstance(basis, pod.VectorBasis):
        return basis.k, basis.k
    return basis.nu_l, basis.nu_r


# ---------------------------------------------------------------------------
# funcapprox

def cmd_funcapprox(cfg, out):
    fn = problems.analytic_function(cfg.problem, cfg.n, **_problem_params(cfg))
    times = pod.candidate_times(fn.t_final, cfg.n_max)
    source = fullsolve.AnalyticSource(fn, times)
    test_ts = np.linspace(0.0, fn.t_final, cfg.test_times)

    rows, timings = [], {}
    for method in cfg.methods:
        tic = time.perf_counter()
        if method == "dynamic":
            basis, rep = pod.dynamic_pod(source, cfg.tol, cfg.kappa, cfg.tau)
        elif method == "vanilla":
            basis, rep = pod.vanilla_pod(source, cfg.kappa, cfg.tau)
        else:
            vtimes = np.linspace(0.0, fn.t_final, cfg.kappa)
            vsource = fullsolve.AnalyticSource(fn, vtimes)
            basis, rep = pod.vector_pod(vsource, cfg.tol, cfg.tau,
                                        n_max=cfg.n_max, adaptive=False,
                                        override_guard=cfg.override_memory_guard)
        seconds = time.perf_counter() - tic

        errs = []
        for t in test_ts:
            B = problems.sample_analytic(fn, t)
            if method == "vector":
                b = B.ravel(order="F")
                e = np.linalg.norm(b - basis.V @ (basis.V.T @ b)) / np.linalg.norm(b)
                errs.append(float(e))
            else:
                errs.append(pod.projection_error(B, basis))
        rows.append([method, rep.phases_used, rep.n_s, *_widths(basis),
                     float(np.mean(errs))])
        timings[method] = {"basis_seconds": seconds}

    _write_csv(out / "funcapprox_report.csv", cfg,
               ["method", "phases", "n_s", "nu_l", "nu_r", "mean_error"], rows)
    for row in rows:
        print("funcapprox:", row[0], "phases", row[1], "n_s", row[2],
              "dims", (row[3], row[4]), "mean_error", f"{row[5]:.3e}")
    return {"timings": timings}


# ---------------------------------------------------------------------------
# reduce

def cmd_reduce(cfg, out):
    spec = _build_spec(cfg)
    state_src, nonl_src, snap_seconds = _snapshots(cfg, spec)
    ubasis, urep = pod.dynamic_pod(state_src, cfg.tol, cfg.kappa, cfg.tau)
    fbasis, frep = pod.dynamic_pod(nonl_src, cfg.tol, cfg.kappa, cfg.tau)
    tic = time.perf_counter()
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    deim_seconds = time.perf_counter() - tic

    # Validate assembly before persisting anything.
    rom.assemble_rom(spec, ubasis, factors)

    persist.write_basis(out / "u_basis.mor2bas", ubasis)
    persist.write_basis(out / "f_basis.mor2bas", fbasis, op)

    def row(name, basis, rep):
        return [name, rep.phases_used, rep.n_s, *_widths(basis), rep.peak_storage_floats]

    header = ["stream", "phases", "n_s", "nu_l", "nu_r", "storage_floats"]
    rows = [row("state", ubasis, urep), row("nonlinearity", fbasis, frep)]
    selection = {r[0]: dict(zip(header[1:], r[1:])) for r in rows}
    for method in ("vanilla", "vector"):
        if method not in cfg.methods:
            continue
        for stream, src in (("state", state_src), ("nonlinearity", nonl_src)):
            if method == "vanilla":
                basis, rep = pod.vanilla_pod(src, cfg.kappa, cfg.tau)
            else:
                basis, rep = pod.vector_pod(src, cfg.tol, cfg.tau,
                                            override_guard=cfg.override_memory_guard)
            rows.append(row(f"{method}-{stream}", basis, rep))
    _write_csv(out / "offline_report.csv", cfg, header, rows)

    decay_rows = []
    sv = [ubasis.singvals_l, ubasis.singvals_r, fbasis.singvals_l, fbasis.singvals_r]
    for i in range(max(len(s) for s in sv)):
        decay_rows.append([i] + [float(s[i]) if i < len(s) else "" for s in sv])
    _write_csv(out / "singular_decay.csv", cfg,
               ["index", "sigma_l_state", "sigma_r_state",
                "sigma_l_nonlinearity", "sigma_r_nonlinearity"], decay_rows)

    timings = {
        "snapshot_seconds": snap_seconds,
        "state_basis_seconds": urep.seconds,
        "nonlinearity_basis_seconds": frep.seconds,
        "deim_seconds": deim_seconds,
    }
    _write_json(out / "manifest.json", {
        "fingerprint": _config_fingerprint(cfg),
        "problem": cfg.problem, "n": cfg.n, "n_max": cfg.n_max,
        "kappa": cfg.kappa, "tau": cfg.tau, "tol": cfg.tol,
        "selection": selection,
        "timings": timings,
    })
    print(f"reduce: state phases {urep.phases_used} n_s {urep.n_s} "
          f"dims ({ubasis.nu_l},{ubasis.nu_r}); nonlinearity phases "
          f"{frep.phases_used} n_s {frep.n_s} dims ({fbasis.nu_l},{fbasis.nu_r})")
    return {"timings": timings}


# ---------------------------------------------------------------------------
# solve

def _load_artifacts(cfg, out):
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise IntegrityError(f"missing manifest: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("fingerprint") != _config_fingerprint(cfg):
        raise IntegrityError(
            "artifact manifest does not match the current configuration"
        )
    for name in ("u_basis.mor2bas", "f_basis.mor2bas"):
        if not (out / name).is_file():
            raise IntegrityError(f"missing artifact: {out / name}")
    ubasis, _ = persist.read_basis(out / "u_basis.mor2bas")
    fbasis, op = persist.read_basis(out / "f_basis.mor2bas")
    if op is None:
        raise IntegrityError("nonlinearity basis lacks its interpolation trailer")
    return manifest, ubasis, fbasis, op


def cmd_solve(cfg, out):
    spec = _build_spec(cfg)
    manifest, ubasis, fbasis, op = _load_artifacts(cfg, out)
    sel = manifest["selection"]
    # the manifest fingerprint does not cover the basis files; check each against it
    params = (cfg.tau, cfg.kappa, pod.effective_n_max(cfg.n_max))
    for what, basis in (("state", ubasis), ("nonlinearity", fbasis)):
        if (len(basis.Vl), len(basis.Wr)) != (len(spec.A), len(spec.B)):
            raise IntegrityError(f"{what} basis is for a {len(basis.Vl)} x {len(basis.Wr)} "
                                 f"grid, not {len(spec.A)} x {len(spec.B)}")
        if (basis.tau, basis.kappa, basis.n_max) != params:
            raise IntegrityError(f"{what} basis has (tau, kappa, n_max) = "
                                 f"{(basis.tau, basis.kappa, basis.n_max)}, not {params}")
        if (basis.nu_l, basis.nu_r) != (sel[what]["nu_l"], sel[what]["nu_r"]):
            raise IntegrityError(f"{what} basis has widths {(basis.nu_l, basis.nu_r)}, not "
                                 f"the manifest's {(sel[what]['nu_l'], sel[what]['nu_r'])}")
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    model = rom.assemble_rom(spec, ubasis, factors)
    grid = fullsolve.TimeGrid(spec.t_final, cfg.n_t)

    runs = [rom.run_online(model, grid) for _ in range(ONLINE_REPEATS)]
    online_seconds = float(np.median([r.seconds for r in runs]))
    traj = runs[-1]

    mean_err = None
    per_node = []
    if cfg.reference:
        reference = ((t, U) for _, t, U in
                     fullsolve.iter_full(spec, grid, "etd"))
        mean_err, per_node = rom.relative_errors(reference, traj,
                                                 lambda Y: rom.lift(ubasis, Y))

    rows = [[
        "dynamic",
        sel["state"]["phases"], sel["state"]["n_s"],
        sel["state"]["nu_l"], sel["state"]["nu_r"],
        sel["nonlinearity"]["phases"], sel["nonlinearity"]["n_s"],
        op.p1, op.p2,
        sel["state"]["storage_floats"] + sel["nonlinearity"]["storage_floats"],
        model.Ak.size + model.Bk.size + model.Y0.size + factors.Ml.size
        + factors.Mr.size + factors.Sl.size + factors.Sr.size,
        "" if mean_err is None else mean_err,
    ]]
    _write_csv(out / "solve_report.csv", cfg,
               ["method", "phases_state", "n_s_state", "k1", "k2",
                "phases_nonl", "n_s_nonl", "p1", "p2",
                "offline_storage_floats", "online_storage_floats", "mean_error"],
               rows)
    if per_node:
        _write_csv(out / "error_vs_time.csv", cfg, ["time", "rel_error"],
                   [[t, e] for t, e in per_node])
    _write_csv(out / "reduced_trajectory.csv", cfg, ["time", "frobenius_norm"],
               [[t, np.linalg.norm(Y)] for t, Y in traj])
    msg = f"solve: {grid.n_t} steps in {online_seconds:.4f}s"
    if mean_err is not None:
        msg += f", mean relative error {mean_err:.3e}"
    print(msg)
    return {"timings": {
        "online_seconds_median": online_seconds,
        "online_seconds_all": [r.seconds for r in runs],
        "per_step_seconds": online_seconds / max(grid.n_t, 1),
        "offline": manifest["timings"],
    }}


# ---------------------------------------------------------------------------
# sweep-tau

def cmd_sweep_tau(cfg, out):
    state_src, _, _ = _snapshots(cfg, _build_spec(cfg))

    rows = []
    counts = {"dynamic": [], "vector": []}
    for tau in cfg.taus:
        _, rep = pod.dynamic_pod(state_src, tau, cfg.kappa, tau)
        rows.append([tau, "dynamic", rep.n_s])
        counts["dynamic"].append(rep.n_s)
        _, vrep = pod.vector_pod(state_src, tau, tau,
                                 override_guard=cfg.override_memory_guard)
        rows.append([tau, "vector", vrep.n_s])
        counts["vector"].append(vrep.n_s)

    _write_csv(out / "sweep_tau.csv", cfg, ["tau", "method", "n_s"], rows)
    for method, ns in counts.items():
        print(f"sweep-tau: {method} n_s over taus {list(cfg.taus)} -> {ns} "
              f"(range {max(ns) - min(ns)})")
    return {"counts": counts}


# ---------------------------------------------------------------------------

# name -> (command, problems it accepts).  A command takes the validated
# configuration and the existing output directory and returns the
# {"timings": ...} or {"counts": ...} part of its run record.
_COMMANDS = {
    "funcapprox": (cmd_funcapprox, ANALYTIC_PROBLEMS),
    "reduce": (cmd_reduce, PDE_PROBLEMS),
    "solve": (cmd_solve, PDE_PROBLEMS),
    "sweep-tau": (cmd_sweep_tau, PDE_PROBLEMS),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mor2",
        description="Two-sided reduction of semilinear matrix differential equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    cmd, accepted = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, args.set)
        if cfg.problem not in accepted:
            raise ConfigError(f"{args.command} expects problem in " + "/".join(accepted))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = cmd(cfg, out)
        _write_json(out / "run_info.json", {
            "command": args.command, "config": dataclasses.asdict(cfg), **record,
        })
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 4
    except Mor2Error as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

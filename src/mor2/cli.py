"""Command-line harness: offline reduction, online solves, reports.

Subcommands
    funcapprox  approximate an analytic matrix function from snapshots
    reduce      build bases + interpolation artifacts for a PDE benchmark
    solve       integrate the reduced model from stored artifacts
    full        integrate the full model and persist snapshot streams
    sweep-tau   selection counts as the tolerance varies

Configuration is a flat key=value file; any key can be overridden on the
command line with --set key=value.  Numeric report CSVs are byte-identical
for identical config and seed; wall-clock measurements go to a JSON
sidecar (run_info.json) because they can never be.

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
from .errors import (
    ConfigError,
    IntegrityError,
    MemoryGuardError,
    Mor2Error,
)

PDE_PROBLEMS = ("ac1", "ac2", "rdc")
ANALYTIC_PROBLEMS = ("phi1", "phi2", "phi3")
METHODS = ("dynamic", "vanilla", "vector")


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
    snapshot_scheme: str = "imex"
    reference_scheme: str = "etd"
    reference: bool = True
    methods: tuple = ("dynamic",)
    seed: int = 0
    out: str = "out"
    override_memory_guard: bool = False
    norm: str = "fro"
    detect_symmetry: bool = False
    eps1: float = None
    eps2: float = None
    test_times: int = 300
    taus: tuple = (1e-2, 1e-3, 1e-4)
    online_repeats: int = 3

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
        if self.n_max < 4:
            raise ConfigError("n_max must be at least 4")
        if self.n_t < 1:
            raise ConfigError("n_t must be positive")
        if self.kappa < 1:
            raise ConfigError("kappa must be positive")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; choose from {METHODS}")
        if self.norm not in ("fro", "2"):
            raise ConfigError("norm must be 'fro' or '2'")
        if self.snapshot_scheme not in ("imex", "etd"):
            raise ConfigError("snapshot_scheme must be 'imex' or 'etd'")
        if self.reference_scheme not in ("imex", "etd"):
            raise ConfigError("reference_scheme must be 'imex' or 'etd'")
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
        f = fields[key]
        kind = f.type if isinstance(f.type, type) else {
            "str": str, "int": int, "float": float, "bool": bool, "tuple": tuple,
        }.get(f.type, str)
        values[key] = _coerce(key, kind, raw)

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


def _out_dir(cfg):
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_spec(cfg):
    params = {}
    if cfg.eps1 is not None:
        params["eps1"] = cfg.eps1
    if cfg.eps2 is not None:
        params["eps2"] = cfg.eps2
    return problems.build_problem(cfg.problem, cfg.n, **params)


def _config_fingerprint(cfg):
    keys = ("problem", "n", "n_max", "kappa", "tau", "tol", "snapshot_scheme",
            "norm", "detect_symmetry", "eps1", "eps2")
    blob = json.dumps({k: getattr(cfg, k) for k in keys}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# funcapprox

def cmd_funcapprox(cfg):
    if cfg.problem not in ANALYTIC_PROBLEMS:
        raise ConfigError("funcapprox expects problem in " + "/".join(ANALYTIC_PROBLEMS))
    fn = problems.analytic_function(cfg.problem, cfg.n)
    times = pod.candidate_times(fn.t_final, cfg.n_max)
    source = fullsolve.AnalyticSource(fn, times)
    test_ts = np.linspace(0.0, fn.t_final, cfg.test_times)

    rows, timings = [], {}
    for method in cfg.methods:
        tic = time.perf_counter()
        if method == "dynamic":
            basis, rep = pod.dynamic_pod(source, cfg.tol, cfg.kappa, cfg.tau,
                                         norm=cfg.norm,
                                         detect_symmetry=cfg.detect_symmetry)
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
                errs.append(pod.projection_error(B, basis, cfg.norm))
        mean_err = float(np.mean(errs))
        if method == "vector":
            nu_l = nu_r = basis.k
        else:
            nu_l, nu_r = basis.nu_l, basis.nu_r
        rows.append([method, rep.phases_used, rep.n_s, nu_l, nu_r, mean_err])
        timings[method] = {"basis_seconds": seconds}

    out = _out_dir(cfg)
    _write_csv(out / "funcapprox_report.csv", cfg,
               ["method", "phases", "n_s", "nu_l", "nu_r", "mean_error"], rows)
    _write_json(out / "run_info.json", {
        "command": "funcapprox", "config": dataclasses.asdict(cfg),
        "timings": timings,
    })
    for row in rows:
        print("funcapprox:", row[0], "phases", row[1], "n_s", row[2],
              "dims", (row[3], row[4]), "mean_error", f"{row[5]:.3e}")
    return 0


# ---------------------------------------------------------------------------
# reduce

def _offline_pipeline(cfg, spec):
    """Snapshot generation plus dynamic two-sided reduction of both streams."""
    times = pod.candidate_times(spec.t_final, cfg.n_max)
    state_src, nonl_src, snap_seconds = fullsolve.trajectory_source(
        spec, times, cfg.snapshot_scheme
    )
    ubasis, urep = pod.dynamic_pod(state_src, cfg.tol, cfg.kappa, cfg.tau,
                                   norm=cfg.norm, detect_symmetry=cfg.detect_symmetry)
    fbasis, frep = pod.dynamic_pod(nonl_src, cfg.tol, cfg.kappa, cfg.tau,
                                   norm=cfg.norm, detect_symmetry=cfg.detect_symmetry)
    tic = time.perf_counter()
    op = deim.build_deim(fbasis)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    deim_seconds = time.perf_counter() - tic
    return {
        "sources": (state_src, nonl_src),
        "snap_seconds": snap_seconds,
        "ubasis": ubasis, "urep": urep,
        "fbasis": fbasis, "frep": frep,
        "op": op, "factors": factors,
        "deim_seconds": deim_seconds,
    }


def cmd_reduce(cfg):
    if cfg.problem not in PDE_PROBLEMS:
        raise ConfigError("reduce expects problem in " + "/".join(PDE_PROBLEMS))
    spec = _build_spec(cfg)
    pipe = _offline_pipeline(cfg, spec)
    ubasis, fbasis = pipe["ubasis"], pipe["fbasis"]
    urep, frep = pipe["urep"], pipe["frep"]

    # Validate assembly before persisting anything.
    rom.assemble_rom(spec, ubasis, pipe["factors"])

    out = _out_dir(cfg)
    persist.write_basis(out / "u_basis.mor2bas", ubasis)
    persist.write_basis(out / "f_basis.mor2bas", fbasis, pipe["op"])

    rows = [
        ["state", urep.phases_used, urep.n_s, ubasis.nu_l, ubasis.nu_r,
         urep.peak_storage_floats],
        ["nonlinearity", frep.phases_used, frep.n_s, fbasis.nu_l, fbasis.nu_r,
         frep.peak_storage_floats],
    ]
    extra_rows = []
    if "vanilla" in cfg.methods or "vector" in cfg.methods:
        state_src, nonl_src = pipe["sources"]
        if "vanilla" in cfg.methods:
            vb, vrep = pod.vanilla_pod(state_src, cfg.kappa, cfg.tau)
            fb, frep2 = pod.vanilla_pod(nonl_src, cfg.kappa, cfg.tau)
            extra_rows.append(["vanilla-state", 0, vrep.n_s, vb.nu_l, vb.nu_r,
                               vrep.peak_storage_floats])
            extra_rows.append(["vanilla-nonlinearity", 0, frep2.n_s, fb.nu_l,
                               fb.nu_r, frep2.peak_storage_floats])
        if "vector" in cfg.methods:
            vsb, vsrep = pod.vector_pod(state_src, cfg.tol, cfg.tau,
                                        override_guard=cfg.override_memory_guard)
            vfb, vfrep = pod.vector_pod(nonl_src, cfg.tol, cfg.tau,
                                        override_guard=cfg.override_memory_guard)
            extra_rows.append(["vector-state", vsrep.phases_used, vsrep.n_s,
                               vsb.k, vsb.k, vsrep.peak_storage_floats])
            extra_rows.append(["vector-nonlinearity", vfrep.phases_used,
                               vfrep.n_s, vfb.k, vfb.k,
                               vfrep.peak_storage_floats])

    _write_csv(out / "offline_report.csv", cfg,
               ["stream", "phases", "n_s", "nu_l", "nu_r", "storage_floats"],
               rows + extra_rows)

    decay_rows = []
    sv = [ubasis.singvals_l, ubasis.singvals_r, fbasis.singvals_l, fbasis.singvals_r]
    for i in range(max(len(s) for s in sv)):
        decay_rows.append([i] + [float(s[i]) if i < len(s) else "" for s in sv])
    _write_csv(out / "singular_decay.csv", cfg,
               ["index", "sigma_l_state", "sigma_r_state",
                "sigma_l_nonlinearity", "sigma_r_nonlinearity"], decay_rows)

    manifest = {
        "fingerprint": _config_fingerprint(cfg),
        "problem": cfg.problem, "n": cfg.n, "n_max": cfg.n_max,
        "kappa": cfg.kappa, "tau": cfg.tau, "tol": cfg.tol,
        "artifacts": ["u_basis.mor2bas", "f_basis.mor2bas"],
        "selection": {
            "state": {"phases": urep.phases_used, "n_s": urep.n_s,
                      "nu_l": ubasis.nu_l, "nu_r": ubasis.nu_r,
                      "storage_floats": urep.peak_storage_floats},
            "nonlinearity": {"phases": frep.phases_used, "n_s": frep.n_s,
                             "nu_l": fbasis.nu_l, "nu_r": fbasis.nu_r,
                             "storage_floats": frep.peak_storage_floats},
        },
        "timings": {
            "snapshot_seconds": pipe["snap_seconds"],
            "state_basis_seconds": urep.seconds,
            "nonlinearity_basis_seconds": frep.seconds,
            "deim_seconds": pipe["deim_seconds"],
        },
    }
    _write_json(out / "manifest.json", manifest)
    _write_json(out / "run_info.json", {
        "command": "reduce", "config": dataclasses.asdict(cfg),
        "timings": manifest["timings"],
    })
    print(f"reduce: state phases {urep.phases_used} n_s {urep.n_s} "
          f"dims ({ubasis.nu_l},{ubasis.nu_r}); nonlinearity phases "
          f"{frep.phases_used} n_s {frep.n_s} dims ({fbasis.nu_l},{fbasis.nu_r})")
    return 0


# ---------------------------------------------------------------------------
# solve

def _load_artifacts(cfg):
    out = Path(cfg.out)
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise IntegrityError(f"missing manifest: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("fingerprint") != _config_fingerprint(cfg):
        raise IntegrityError(
            "artifact manifest does not match the current configuration"
        )
    for name in manifest["artifacts"]:
        if not (out / name).is_file():
            raise IntegrityError(f"missing artifact: {out / name}")
    ubasis, _ = persist.read_basis(out / "u_basis.mor2bas")
    fbasis, op = persist.read_basis(out / "f_basis.mor2bas")
    if op is None:
        raise IntegrityError("nonlinearity basis lacks its interpolation trailer")
    return manifest, ubasis, fbasis, op


def cmd_solve(cfg):
    if cfg.problem not in PDE_PROBLEMS:
        raise ConfigError("solve expects problem in " + "/".join(PDE_PROBLEMS))
    spec = _build_spec(cfg)
    manifest, ubasis, fbasis, op = _load_artifacts(cfg)
    factors = deim.precompute_rom_factors(ubasis, fbasis, op)
    model = rom.assemble_rom(spec, ubasis, factors)
    grid = fullsolve.TimeGrid(spec.t_final, cfg.n_t)

    runs = [rom.run_online(model, grid) for _ in range(max(1, cfg.online_repeats))]
    online_seconds = float(np.median([r.seconds for r in runs]))
    traj = runs[-1]

    mean_err = None
    per_node = []
    if cfg.reference:
        reference = ((t, U) for _, t, U in
                     fullsolve.iter_full(spec, grid, cfg.reference_scheme))
        mean_err, per_node = rom.relative_errors(reference, traj,
                                                 lambda Y: rom.lift(ubasis, Y))

    out = _out_dir(cfg)
    sel = manifest["selection"]
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
    rom.export_trajectory_csv(out / "reduced_trajectory.csv", traj)
    persist.write_snapshots(out / "reduced_states.mor2snap", traj)
    _write_json(out / "run_info.json", {
        "command": "solve", "config": dataclasses.asdict(cfg),
        "timings": {
            "online_seconds_median": online_seconds,
            "online_seconds_all": [r.seconds for r in runs],
            "per_step_seconds": online_seconds / max(grid.n_t, 1),
            "offline": manifest["timings"],
        },
    })
    msg = f"solve: {grid.n_t} steps in {online_seconds:.4f}s"
    if mean_err is not None:
        msg += f", mean relative error {mean_err:.3e}"
    print(msg)
    return 0


# ---------------------------------------------------------------------------
# full

def cmd_full(cfg):
    if cfg.problem not in PDE_PROBLEMS:
        raise ConfigError("full expects problem in " + "/".join(PDE_PROBLEMS))
    spec = _build_spec(cfg)
    times = pod.candidate_times(spec.t_final, cfg.n_max)
    tic = time.perf_counter()
    state_src, nonl_src, snap_seconds = fullsolve.trajectory_source(
        spec, times, cfg.snapshot_scheme
    )
    out = _out_dir(cfg)
    persist.write_snapshots(out / "state.mor2snap", state_src)
    persist.write_snapshots(out / "nonlinearity.mor2snap", nonl_src)
    _write_json(out / "run_info.json", {
        "command": "full", "config": dataclasses.asdict(cfg),
        "timings": {"snapshot_seconds": snap_seconds,
                    "total_seconds": time.perf_counter() - tic},
    })
    print(f"full: stored {len(state_src.times)} snapshots of size {cfg.n}")
    return 0


# ---------------------------------------------------------------------------
# sweep-tau

def cmd_sweep_tau(cfg):
    if cfg.problem not in PDE_PROBLEMS:
        raise ConfigError("sweep-tau expects problem in " + "/".join(PDE_PROBLEMS))
    spec = _build_spec(cfg)
    times = pod.candidate_times(spec.t_final, cfg.n_max)
    state_src, _, _ = fullsolve.trajectory_source(spec, times, cfg.snapshot_scheme)

    rows = []
    counts = {"dynamic": [], "vector": []}
    for tau in cfg.taus:
        _, rep = pod.dynamic_pod(state_src, tau, cfg.kappa, tau, norm=cfg.norm)
        rows.append([tau, "dynamic", rep.n_s])
        counts["dynamic"].append(rep.n_s)
        _, vrep = pod.vector_pod(state_src, tau, tau,
                                 override_guard=cfg.override_memory_guard)
        rows.append([tau, "vector", vrep.n_s])
        counts["vector"].append(vrep.n_s)

    out = _out_dir(cfg)
    _write_csv(out / "sweep_tau.csv", cfg, ["tau", "method", "n_s"], rows)
    _write_json(out / "run_info.json", {
        "command": "sweep-tau", "config": dataclasses.asdict(cfg),
        "counts": counts,
    })
    for method, ns in counts.items():
        print(f"sweep-tau: {method} n_s over taus {list(cfg.taus)} -> {ns} "
              f"(range {max(ns) - min(ns)})")
    return 0


# ---------------------------------------------------------------------------

_COMMANDS = {
    "funcapprox": cmd_funcapprox,
    "reduce": cmd_reduce,
    "solve": cmd_solve,
    "full": cmd_full,
    "sweep-tau": cmd_sweep_tau,
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
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--override-memory-guard", action="store_true",
                       help="allow vectorized baselines beyond the size guard")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    sets = list(args.set)
    if args.out is not None:
        sets.append(f"out={args.out}")
    if args.seed is not None:
        sets.append(f"seed={args.seed}")
    if args.override_memory_guard:
        sets.append("override_memory_guard=true")
    try:
        cfg = load_config(args.config, sets)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, MemoryGuardError) as exc:
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

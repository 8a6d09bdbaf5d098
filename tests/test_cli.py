import dataclasses
import json
import shutil

import numpy as np
import pytest

from mor2 import cli, fullsolve, persist
from mor2.errors import ConfigError

AC1_SETS = ["problem=ac1", "n=16", "n_max=8", "kappa=12", "tau=1e-3"]


def argv(cmd, sets, out):
    args = [cmd]
    for s in sets:
        args += ["--set", s]
    return args + ["--out", str(out)]


def read_report(path):
    """Split a report CSV into config-echo lines, header, and data rows."""
    echo, rows = [], []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            echo.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return echo, header, rows


# ------------------------------------------------------------------- config

def test_default_tol_tracks_tau():
    cfg = cli.load_config(None, ["tau=1e-4"])
    assert cfg.tol == 1e-4
    cfg = cli.load_config(None, ["tau=1e-4", "tol=1e-2"])
    assert cfg.tol == 1e-2


def test_load_config_file_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "problem=rdc\n"
        "n=32\n"
        "\n"
        "taus=1e-2,1e-3\n"
        "methods=dynamic,vector\n"
        "reference=no\n"
    )
    cfg = cli.load_config(path, ["n=48"])
    assert cfg.problem == "rdc"
    assert cfg.n == 48  # command line wins over the file
    assert cfg.taus == (1e-2, 1e-3)
    assert cfg.methods == ("dynamic", "vector")
    assert cfg.reference is False


@pytest.mark.parametrize("sets", [
    ["nonsense=1"],
    ["n=abc"],
    ["problem=banana"],
    ["n=4"],
    ["tau=0"],
    ["tau=2.0"],
    ["n_max=2"],
    ["kappa=0"],
    ["n_t=0"],
    ["methods=banana"],
    ["norm=spectral"],
    ["snapshot_scheme=rk4"],
    ["badpair"],
    ["reference_scheme=rk4"],
    ["reference=maybe"],
    ["test_times=0"],
    ["taus=0,1e-3"],
    ["taus="],
    ["tau=abc"],
    ["taus=1e-2,abc"],
    ["taus=1e-2,1.0"],
    ["bench_k=6"],          # not a configuration key: old config files are refused
    ["online_repeats=0"],   # removed: solve always times 3 runs
    ["methods="],
    ["seed=5"],             # removed: it reached no computation
    ["out=run"],            # the output directory is --out only
    ["eps2=0"],             # degenerate problem settings: exit 2, not a traceback
    ["eps1=nan"],
    ["tol=-1"],
    ["detect_symmetry=true"],   # removed: the symmetric mark comes from the snapshots
    ["norm=fro"],               # removed: projection errors are Frobenius
])
def test_load_config_rejects(sets):
    with pytest.raises(ConfigError):
        cli.load_config(None, sets)


def test_load_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        cli.load_config(tmp_path / "nope.cfg", [])


def test_load_config_rejects_malformed_file_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("problem ac1\n")
    with pytest.raises(ConfigError):
        cli.load_config(path, [])


def test_main_maps_config_error_to_exit_2(tmp_path, capsys):
    rc = cli.main(argv("reduce", ["problem=banana"], tmp_path))
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_seed_is_refused_in_files_and_as_a_flag(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("problem=ac1\nseed=0\n")
    assert cli.main(["reduce", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce", "--seed", "5"])
    assert exc.value.code == 2


# ------------------------------------------------------------ reduce + solve

@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    rc = cli.main(argv("reduce", AC1_SETS, out))
    assert rc == 0
    return out


def test_reduce_writes_artifacts(artifacts):
    for name in ("u_basis.mor2bas", "f_basis.mor2bas", "offline_report.csv",
                 "singular_decay.csv", "manifest.json", "run_info.json"):
        assert (artifacts / name).is_file()
    manifest = json.loads((artifacts / "manifest.json").read_text())
    cfg = cli.load_config(None, AC1_SETS)
    assert manifest["fingerprint"] == cli._config_fingerprint(cfg)
    _, uop = persist.read_basis(artifacts / "u_basis.mor2bas")
    fbasis, fop = persist.read_basis(artifacts / "f_basis.mor2bas")
    assert uop is None and fop is not None
    assert fop.p1 == fbasis.nu_l and fop.p2 == fbasis.nu_r
    assert manifest["selection"]["state"]["n_s"] >= 1
    echo, header, rows = read_report(artifacts / "offline_report.csv")
    assert header[0] == "stream" and len(rows) == 2
    assert {r[0] for r in rows} == {"state", "nonlinearity"}
    assert all(line.startswith("# ") and "=" in line for line in echo)
    assert "# problem=ac1" in echo


def test_reduce_report_is_deterministic(artifacts):
    first = (artifacts / "offline_report.csv").read_bytes()
    decay = (artifacts / "singular_decay.csv").read_bytes()
    rc = cli.main(argv("reduce", AC1_SETS, artifacts))
    assert rc == 0
    assert (artifacts / "offline_report.csv").read_bytes() == first
    assert (artifacts / "singular_decay.csv").read_bytes() == decay


def test_reduce_reports_do_not_depend_on_the_output_directory(artifacts, tmp_path):
    other = tmp_path / "elsewhere"
    assert cli.main(argv("reduce", AC1_SETS, other)) == 0
    for name in ("offline_report.csv", "singular_decay.csv"):
        assert (other / name).read_bytes() == (artifacts / name).read_bytes()


def test_solve_runs_from_artifacts(artifacts):
    rc = cli.main(argv("solve", AC1_SETS + ["n_t=40"], artifacts))
    assert rc == 0
    echo, header, rows = read_report(artifacts / "solve_report.csv")
    assert header[-1] == "mean_error" and len(rows) == 1
    assert float(rows[0][-1]) <= 1e-2
    # the per-node output is reduced_trajectory.csv; no snapshot stream is written
    assert sorted(p.name for p in artifacts.iterdir()) == [
        "error_vs_time.csv", "f_basis.mor2bas", "manifest.json", "offline_report.csv",
        "reduced_trajectory.csv", "run_info.json", "singular_decay.csv",
        "solve_report.csv", "u_basis.mor2bas"]
    _, _, err_rows = read_report(artifacts / "error_vs_time.csv")
    assert len(err_rows) == 40  # initial node carries no error
    traj_echo, traj_header, traj_rows = read_report(artifacts / "reduced_trajectory.csv")
    assert traj_echo == echo and traj_header == ["time", "frobenius_norm"]
    assert len(traj_rows) == 41 and all(len(r) == 2 for r in traj_rows)
    assert float(traj_rows[0][0]) == 0.0
    info = json.loads((artifacts / "run_info.json").read_text())
    assert info["command"] == "solve"
    assert info["timings"]["per_step_seconds"] >= 0.0


def test_solve_without_reference_leaves_error_blank(artifacts, tmp_path):
    work = tmp_path / "noref"
    shutil.copytree(artifacts, work)
    (work / "error_vs_time.csv").unlink()
    rc = cli.main(argv("solve", AC1_SETS + ["n_t=20", "reference=false"], work))
    assert rc == 0
    _, _, rows = read_report(work / "solve_report.csv")
    assert rows[0][-1] == ""
    assert not (work / "error_vs_time.csv").is_file()


def test_solve_reference_without_comparable_nodes_exits_3(artifacts, tmp_path,
                                                          monkeypatch, capsys):
    work = tmp_path / "zero"
    shutil.copytree(artifacts, work)

    def zero_reference(spec, grid, scheme):
        for i, t in enumerate(grid.nodes):
            yield i, t, np.zeros_like(spec.U0)

    monkeypatch.setattr(fullsolve, "iter_full", zero_reference)
    rc = cli.main(argv("solve", AC1_SETS + ["n_t=20"], work))
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_solve_rejects_fingerprint_mismatch(artifacts, tmp_path, capsys):
    work = tmp_path / "stale"
    shutil.copytree(artifacts, work)
    sets = [s for s in AC1_SETS if not s.startswith("tau=")] + ["tau=1e-2"]
    rc = cli.main(argv("solve", sets, work))
    assert rc == 4
    assert "artifact error" in capsys.readouterr().err


def test_solve_rejects_missing_artifact(artifacts, tmp_path, capsys):
    work = tmp_path / "partial"
    shutil.copytree(artifacts, work)
    (work / "f_basis.mor2bas").unlink()
    assert cli.main(argv("solve", AC1_SETS, work)) == 4
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(argv("solve", AC1_SETS, empty)) == 4
    assert "artifact error" in capsys.readouterr().err


def test_solve_checks_the_basis_files_it_reads(artifacts, tmp_path, capsys):
    work = tmp_path / "nostate"
    shutil.copytree(artifacts, work)
    manifest = json.loads((work / "manifest.json").read_text())
    assert "artifacts" not in manifest
    manifest["artifacts"] = []      # as an older manifest could carry it
    (work / "manifest.json").write_text(json.dumps(manifest))
    (work / "u_basis.mor2bas").unlink()
    assert cli.main(argv("solve", AC1_SETS, work)) == 4
    assert "artifact error" in capsys.readouterr().err


def test_solve_rejects_out_of_range_interpolation_index(artifacts, tmp_path, capsys):
    work = tmp_path / "badindex"
    shutil.copytree(artifacts, work)
    path = work / "f_basis.mor2bas"
    fbasis, op = persist.read_basis(path)
    (n, k1), (m, k2) = fbasis.Vl.shape, fbasis.Wr.shape
    first_row = 9 + 8 + 8 * n * k1 + 8 + 8 * m * k2 + 8 * (k1 + k2) + 16 + 8
    raw = bytearray(path.read_bytes())
    assert int.from_bytes(raw[first_row:first_row + 4], "little") == op.row_idx[0]
    raw[first_row:first_row + 4] = (10**6).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    assert cli.main(argv("solve", AC1_SETS + ["n_t=20"], work)) == 4
    assert "artifact error" in capsys.readouterr().err


def test_solve_rejects_altered_interpolation_matrix(artifacts, tmp_path, capsys):
    work = tmp_path / "badfactor"
    shutil.copytree(artifacts, work)
    path = work / "f_basis.mor2bas"
    fbasis, op = persist.read_basis(path)
    (n, k1), (m, k2) = fbasis.Vl.shape, fbasis.Wr.shape
    first_row = 9 + 8 + 8 * n * k1 + 8 + 8 * m * k2 + 8 * (k1 + k2) + 16 + 8
    left = first_row + 4 * (op.p1 + op.p2)     # Pl^T Vl, column-major
    raw = bytearray(path.read_bytes())
    entry = np.frombuffer(raw[left:left + 8], dtype="<f8")[0]
    assert entry == op.left_factor[0, 0]
    raw[left:left + 8] = np.array([1.5 * entry], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    assert cli.main(argv("solve", AC1_SETS + ["n_t=20"], work)) == 4
    assert "artifact error" in capsys.readouterr().err


def test_solve_rejects_a_nonlinearity_basis_without_its_trailer(artifacts, tmp_path,
                                                                capsys):
    work = tmp_path / "notrailer"
    shutil.copytree(artifacts, work)
    path = work / "f_basis.mor2bas"
    fbasis, _ = persist.read_basis(path)
    persist.write_basis(path, fbasis)
    assert cli.main(argv("solve", AC1_SETS + ["n_t=20"], work)) == 4
    assert "lacks its interpolation trailer" in capsys.readouterr().err


def test_solve_rejects_oversized_basis_header(artifacts, tmp_path, capsys):
    work = tmp_path / "oversized"
    shutil.copytree(artifacts, work)
    path = work / "u_basis.mor2bas"
    raw = bytearray(path.read_bytes())
    raw[9:17] = (2**32 - 1).to_bytes(4, "little") * 2    # Vl rows and cols
    path.write_bytes(bytes(raw))
    assert cli.main(argv("solve", AC1_SETS + ["n_t=20"], work)) == 4
    assert "artifact error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def artifacts_n12(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts_n12")
    sets = [s for s in AC1_SETS if not s.startswith("n=")] + ["n=12"]
    assert cli.main(argv("reduce", sets, out)) == 0
    return out


@pytest.mark.parametrize("name, what", [("u_basis.mor2bas", "state"),
                                        ("f_basis.mor2bas", "nonlinearity")])
def test_solve_rejects_a_basis_file_from_another_grid(artifacts, artifacts_n12, tmp_path,
                                                      capsys, name, what):
    # the manifest fingerprint does not cover a swapped file
    work = tmp_path / "swapped"
    shutil.copytree(artifacts, work)
    shutil.copyfile(artifacts_n12 / name, work / name)
    assert cli.main(argv("solve", AC1_SETS + ["n_t=20"], work)) == 4
    err = capsys.readouterr().err
    assert f"artifact error: {what} basis is for a 12 x 12 grid, not 16 x 16" in err


@pytest.fixture(scope="module")
def artifacts_tau2(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts_tau2")
    sets = [s for s in AC1_SETS if not s.startswith("tau=")] + ["tau=1e-2"]
    assert cli.main(argv("reduce", sets, out)) == 0
    return out


@pytest.mark.parametrize("name, what", [("u_basis.mor2bas", "state"),
                                        ("f_basis.mor2bas", "nonlinearity")])
def test_solve_rejects_a_basis_file_from_another_tau(artifacts, artifacts_tau2, tmp_path,
                                                     capsys, name, what):
    work = tmp_path / "swapped"
    shutil.copytree(artifacts, work)
    shutil.copyfile(artifacts_tau2 / name, work / name)
    assert cli.main(argv("solve", AC1_SETS + ["n_t=20"], work)) == 4
    err = capsys.readouterr().err
    assert (f"artifact error: {what} basis has (tau, kappa, n_max) = (0.01, 12, 8), "
            f"not (0.001, 12, 8)") in err


def test_solve_rejects_a_state_basis_narrower_than_the_manifest(artifacts, tmp_path, capsys):
    work = tmp_path / "narrowed"
    shutil.copytree(artifacts, work)
    path = work / "u_basis.mor2bas"
    basis, _ = persist.read_basis(path)
    persist.write_basis(path, dataclasses.replace(
        basis, Vl=basis.Vl[:, :-1], singvals_l=basis.singvals_l[:-1]))
    assert cli.main(argv("solve", AC1_SETS + ["n_t=20"], work)) == 4
    want = (f"state basis has widths {(basis.nu_l - 1, basis.nu_r)}, not the manifest's "
            f"{(basis.nu_l, basis.nu_r)}")
    assert want in capsys.readouterr().err


def test_solve_accepts_an_n_max_that_is_not_a_multiple_of_4(tmp_path):
    sets = [s for s in AC1_SETS if not s.startswith("n_max=")] + ["n_max=10", "n_t=20"]
    assert cli.main(argv("reduce", sets, tmp_path)) == 0
    assert persist.read_basis(tmp_path / "u_basis.mor2bas")[0].n_max == 8
    assert cli.main(argv("solve", sets, tmp_path)) == 0


def test_solve_rejects_an_empty_state_basis(artifacts, tmp_path, capsys):
    work = tmp_path / "emptybasis"
    shutil.copytree(artifacts, work)
    path = work / "u_basis.mor2bas"
    basis, _ = persist.read_basis(path)
    persist.write_basis(path, dataclasses.replace(
        basis, Vl=basis.Vl[:, :0], Wr=basis.Wr[:, :0],
        singvals_l=basis.singvals_l[:0], singvals_r=basis.singvals_r[:0]))
    assert cli.main(argv("solve", AC1_SETS + ["n_t=20"], work)) == 4
    assert "artifact error: empty Vl" in capsys.readouterr().err


def test_reduce_maps_divergence_to_exit_3(tmp_path, capsys):
    # a stiff reaction on the coarse snapshot grid overflows the explicit part
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(argv("reduce", ["problem=ac1", "n=16", "n_max=8",
                                      "eps2=1e-3"], tmp_path))
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


# -------------------------------------------------------------- funcapprox

def test_funcapprox_all_methods(tmp_path):
    sets = ["problem=phi1", "n=16", "n_max=8", "kappa=10", "tau=1e-4",
            "methods=dynamic,vanilla,vector", "test_times=60"]
    rc = cli.main(argv("funcapprox", sets, tmp_path))
    assert rc == 0
    _, header, rows = read_report(tmp_path / "funcapprox_report.csv")
    assert header == ["method", "phases", "n_s", "nu_l", "nu_r", "mean_error"]
    assert [r[0] for r in rows] == ["dynamic", "vanilla", "vector"]
    for r in rows:
        assert float(r[-1]) < 0.05
        assert int(r[2]) >= 1
    info = json.loads((tmp_path / "run_info.json").read_text())
    assert set(info["timings"]) == {"dynamic", "vanilla", "vector"}


def test_funcapprox_rejects_pde_problem(tmp_path):
    assert cli.main(argv("funcapprox", ["problem=ac1"], tmp_path)) == 2


@pytest.mark.parametrize("extra", [["eps2=5"], ["eps1=0.1"]])
def test_funcapprox_refuses_unused_problem_parameters(extra, tmp_path, capsys):
    # the analytic functions read neither eps1 nor eps2; reduce refuses the
    # eps2 that rdc does not read in the same words
    rc = cli.main(argv("funcapprox", ["problem=phi1", "n=16"] + extra, tmp_path))
    assert rc == 2
    assert "unused problem parameters" in capsys.readouterr().err
    assert not (tmp_path / "funcapprox_report.csv").exists()
    rc = cli.main(argv("reduce", ["problem=rdc", "n=16", "eps2=5"], tmp_path / "rdc"))
    assert rc == 2
    assert "unused problem parameters" in capsys.readouterr().err


def test_funcapprox_vector_respects_memory_guard(tmp_path, capsys):
    sets = ["problem=phi1", "n=520", "n_max=8", "kappa=6", "tau=1e-3",
            "methods=vector", "test_times=10"]
    assert cli.main(argv("funcapprox", sets, tmp_path)) == 2
    assert "configuration error" in capsys.readouterr().err
    rc = cli.main(argv("funcapprox", sets + ["override_memory_guard=true"], tmp_path))
    assert rc == 0


# ------------------------------------------------------- full and sweep-tau

def test_full_command_is_removed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv("full", AC1_SETS, tmp_path / "out"))
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_tau_reports_counts(tmp_path):
    sets = AC1_SETS + ["taus=1e-2,1e-3"]
    rc = cli.main(argv("sweep-tau", sets, tmp_path))
    assert rc == 0
    _, header, rows = read_report(tmp_path / "sweep_tau.csv")
    assert header == ["tau", "method", "n_s"]
    assert len(rows) == 4
    info = json.loads((tmp_path / "run_info.json").read_text())
    vec = info["counts"]["vector"]
    assert len(vec) == 2 and vec[1] >= vec[0]  # tighter tau keeps more
    assert all(n >= 1 for n in info["counts"]["dynamic"])


"""Statement-deletion mutation sweep over the modules of src/mor2.

Each mutant replaces one statement inside a function body with `pass` and
runs the tests that cover the module; a mutant under which they all pass
survives, and shows either a statement no test checks or one that no output
needs.  Statements left alone: raise, return, pass, assert, docstrings,
nonlocal and global declarations, nested defs (the statements inside them
are mutated) and `if ...: raise` guards.  The mutants run in copies of src/
and tests/ under a temporary directory, never in the working tree, with one
BLAS thread and `-x -k "not paper_size"`.  A mutant that outlives its
timeout, 5 times the unmutated run plus 30 s (deleting a loop's step can
loop forever), counts as killed.

    python tests/tools/mutate.py --list            # enumerate and compile every mutant
    python tests/tools/mutate.py                   # the whole sweep, 2 workers
    python tests/tools/mutate.py pod rom:56        # one module, one line

The sweep prints each survivor as module:line and the statement, then a
count per module.  Before a module's mutants run, its tests run once on the
unmutated (re-generated) source; a failure there stops the sweep.
"""

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "mor2"
MODULES = ("cli", "deim", "fullsolve", "kernels", "persist", "pod", "problems", "rom")
COMMON_TESTS = ("test_golden", "test_acceptance")
EXTRA_TESTS = {    # deim's complex branch is pinned by the rom bit-identity tests
    "deim": ("test_rom",),
    "kernels": ("test_fullsolve", "test_rom", "test_properties"),
    "persist": ("test_cli",),
}
PYTEST_ARGS = ("-x", "-q", "-p", "no:cacheprovider", "-k", "not paper_size")
WORKERS = 2                # parallel test runs, each in its own copy


def _kept(stmt):
    """True for the statements that are never deleted."""
    if isinstance(stmt, (ast.Raise, ast.Return, ast.Pass, ast.Assert, ast.Nonlocal, ast.Global,
                         ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and isinstance(stmt.value.value, str):
        return True
    return isinstance(stmt, ast.If) and all(isinstance(s, ast.Raise) for s in stmt.body)


def _sites(tree):
    """(statement list, index) of every deletable statement, in source order."""
    sites = []

    def visit(body, in_function):
        for i, stmt in enumerate(body):
            if in_function and not _kept(stmt):
                sites.append((body, i))
            inner = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []), inner)
            for handler in getattr(stmt, "handlers", []):
                visit(handler.body, inner)

    visit(tree.body, False)
    return sorted(sites, key=lambda s: (s[0][s[1]].lineno, s[0][s[1]].col_offset))


def mutants(module):
    """[(line, statement text, mutant source)] of one module, and the lines of
    the deletions that do not compile (a nonlocal left without its binding),
    which the compiler kills and which are not counted as mutants."""
    source = (PACKAGE / f"{module}.py").read_text()
    lines = source.splitlines()
    out, rejected = [], []
    for k in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)
        body, i = _sites(tree)[k]
        stmt = body[i]
        body[i] = ast.copy_location(ast.Pass(), stmt)
        text = ast.unparse(tree) + "\n"
        try:
            compile(text, f"{module}.py", "exec")
        except SyntaxError:
            rejected.append(stmt.lineno)
            continue
        out.append((stmt.lineno, lines[stmt.lineno - 1].strip(), text))
    return out, rejected


def _plain(module):
    """The module's source as the mutants are written, without a mutation."""
    return ast.unparse(ast.parse((PACKAGE / f"{module}.py").read_text())) + "\n"


def _tests(module):
    names = (f"test_{module}",) + EXTRA_TESTS.get(module, ()) + COMMON_TESTS
    return [f"tests/{name}.py" for name in dict.fromkeys(names)]


def _run(work, module, text, timeout):
    """Tests of module with text as its source in the copy work: "killed",
    "survived" or "timeout", and the seconds taken."""
    (work / "src" / "mor2" / f"{module}.py").write_text(text)
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "MOR2_LONG_TESTS"}
    env.update(PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    tic = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", *PYTEST_ARGS, *_tests(module)],
                              cwd=work, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - tic
    finally:
        shutil.copyfile(PACKAGE / f"{module}.py", work / "src" / "mor2" / f"{module}.py")
    seconds = time.perf_counter() - tic
    if proc.returncode == 0:
        return "survived", seconds
    if proc.returncode in (1, 2):    # a test failed, or the mutant broke collection
        return "killed", seconds
    raise RuntimeError(f"pytest exited {proc.returncode} on {module}:\n{proc.stdout[-2000:]}")


def _select(specs):
    """{module: set of lines, or None for every line} from MODULE[:LINE] arguments."""
    chosen = {}
    for spec in specs or MODULES:
        module, _, line = spec.partition(":")
        if module not in MODULES:
            raise SystemExit(f"unknown module {module!r}; choose from {', '.join(MODULES)}")
        if not line:
            chosen[module] = None
        elif chosen.get(module, set()) is not None:
            chosen.setdefault(module, set()).add(int(line))
    return chosen


def _found(module, lines):
    """mutants(module), restricted to the chosen lines (None for all)."""
    found, rejected = mutants(module)
    return [m for m in found if lines is None or m[0] in lines], rejected


def list_mutants(chosen):
    total = 0
    for module, lines in chosen.items():
        compile(_plain(module), f"{module}.py", "exec")
        found, rejected = _found(module, lines)
        for line, text, _ in found:
            print(f"{module}:{line}  {text}")
        print(f"# {module}: {len(found)} mutants; lines whose deletion does not compile: "
              f"{rejected}")
        total += len(found)
    print(f"# total: {total} mutants")
    return total


def sweep(chosen):
    tmp = Path(tempfile.mkdtemp(prefix="mor2-mutate-"))
    copies = queue.Queue()
    try:
        for w in range(WORKERS):
            work = tmp / str(w)
            shutil.copytree(ROOT / "src", work / "src")
            shutil.copytree(ROOT / "tests", work / "tests")
            shutil.copyfile(ROOT / "pyproject.toml", work / "pyproject.toml")
            copies.put(work)

        def job(module, text, limit):
            work = copies.get()
            try:
                return _run(work, module, text, limit)
            finally:
                copies.put(work)

        counts = {}
        with ThreadPoolExecutor(WORKERS) as pool:
            for module, lines in chosen.items():
                found, _ = _found(module, lines)
                verdict, seconds = job(module, _plain(module), None)
                if verdict != "survived":
                    raise SystemExit(f"{module}: the tests fail on the unmutated source")
                limit = 5 * seconds + 30
                results = pool.map(lambda m: job(module, m[2], limit), found)
                verdicts = []
                for (line, text, _), (verdict, _) in zip(found, results):
                    verdicts.append(verdict)
                    if verdict == "survived":
                        print(f"{module}:{line}  {text}", flush=True)
                survivors = verdicts.count("survived")
                counts[module] = (len(found), survivors)
                print(f"# {module}: {survivors} of {len(found)} survived, "
                      f"{verdicts.count('timeout')} killed by the timeout "
                      f"(tests {seconds:.1f} s, timeout {limit:.0f} s)", flush=True)
        print(f"# total: {sum(s for _, s in counts.values())} of "
              f"{sum(n for n, _ in counts.values())} survived")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", metavar="MODULE[:LINE]",
                        help=f"modules or lines to mutate (default: {' '.join(MODULES)})")
    parser.add_argument("--list", action="store_true",
                        help="enumerate and compile the mutants without running tests")
    args = parser.parse_args(argv)
    chosen = _select(args.targets)
    if args.list:
        return 0 if list_mutants(chosen) > 0 else 1
    sweep(chosen)
    return 0


if __name__ == "__main__":
    sys.exit(main())

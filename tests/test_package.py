"""The benchmark reaches mor2 by name; a name that is gone crashes it."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, names in spans.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"mor2.{module}"), name, None))]
    assert missing == []


def _mor2_names(path):
    """(module, name) of every mor2 attribute a script reads: `from mor2.m import
    name`, and `m.name` where m came from `from mor2 import m`."""
    tree = ast.parse(path.read_text())
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mor2":
            for a in node.names:
                if node.module == "mor2":
                    aliases[a.asname or a.name] = a.name
                else:
                    names.add((node.module.removeprefix("mor2."), a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            names.add((aliases[node.value.id], node.attr))
    return names


def test_benchmark_reads_only_names_that_exist():
    used = set().union(*(_mor2_names(PERFBENCH / f) for f in ("worker.py", "checks.py", "run.py")))
    assert ("deim", "deim_approximate") in used and ("pod", "candidate_times") in used
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(importlib.import_module(f"mor2.{module}"), name)]
    assert missing == []

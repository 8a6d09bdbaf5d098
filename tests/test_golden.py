"""The n = 64 report CSVs against committed golden copies.

Each case reruns, through cli.main, the commands that wrote the files in
tests/golden/<problem>/:

    mor2 reduce --set problem=P --set n=64 --set methods=dynamic,vanilla,vector
    mor2 solve --set problem=P --set n=64              (P = ac1, ac2, rdc)
    mor2 sweep-tau --set problem=rdc --set n=64
    mor2 funcapprox --set problem=P --set methods=dynamic,vanilla,vector
                                                       (P = phi1, phi2, phi3)

Comment and header lines and integer and text fields must match exactly;
floating-point fields match to a relative tolerance of RTOL, which leaves
room for other BLAS kernels to move the last digits.  A change that moves
a report on purpose regenerates its golden file with the commands above.
"""

import math
import re
from pathlib import Path

import pytest

from mor2 import cli

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-6
INTEGER = re.compile(r"-?\d+")

ALL_METHODS = ["methods=dynamic,vanilla,vector"]
RUNS = {
    "ac1": [("reduce", ALL_METHODS), ("solve", [])],
    "ac2": [("reduce", ALL_METHODS), ("solve", [])],
    "rdc": [("reduce", ALL_METHODS), ("solve", []), ("sweep-tau", [])],
    "phi1": [("funcapprox", ALL_METHODS)],
    "phi2": [("funcapprox", ALL_METHODS)],
    "phi3": [("funcapprox", ALL_METHODS)],
}


def _field_matches(got, want):
    if INTEGER.fullmatch(want):
        return got == want
    try:
        w = float(want)
    except ValueError:
        return got == want
    return INTEGER.fullmatch(got) is None and math.isclose(float(got), w, rel_tol=RTOL)


def _compare(got_path, want_path):
    got, want = got_path.read_text().splitlines(), want_path.read_text().splitlines()
    name = want_path.relative_to(GOLDEN)
    assert len(got) == len(want), f"{name}: {len(got)} lines, golden has {len(want)}"
    header = next(i for i, line in enumerate(want) if not line.startswith("#"))
    assert got[:header + 1] == want[:header + 1], f"{name}: comment or header lines differ"
    for i in range(header + 1, len(want)):
        gf, wf = got[i].split(","), want[i].split(",")
        assert len(gf) == len(wf) and all(map(_field_matches, gf, wf)), \
            f"{name}:{i + 1}: got {got[i]!r}, golden {want[i]!r}"


@pytest.mark.parametrize("problem", list(RUNS))
def test_reports_match_the_golden_files(problem, tmp_path):
    for command, sets in RUNS[problem]:
        argv = [command, "--set", f"problem={problem}"]
        if problem in cli.PDE_PROBLEMS:
            argv += ["--set", "n=64"]
        for s in sets:
            argv += ["--set", s]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    golden = sorted((GOLDEN / problem).glob("*.csv"))
    assert golden
    for want in golden:
        _compare(tmp_path / want.name, want)

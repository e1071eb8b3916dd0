"""Byte-exact CLI outputs for a fixed command list.

``tests/golden/<case>/`` holds every file one command wrote.  The test
reruns each command in process and compares the files byte for byte, so a
refactor that is meant to keep behaviour shows any drift at once.  The
eigensolve (``oracle --k``) stays out: its last bits depend on BLAS
threading.  Regenerate the fixture only for a deliberate output change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

import polydot
from polydot import cli
from polydot.catastrophe import DEFAULT_WIDTH_TOL

GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(polydot.__file__).parent / "corpus"

# case -> (argv without --out, expected exit status)
COMMANDS = {
    "analyze_cusp3d": (
        ["analyze", "--family", "cusp3d", "--alpha", "1.4", "--beta", "1.2",
         "--gamma", "1"], 0),
    "analyze_butterfly3d_ordered": (
        ["analyze", "--spec", str(CORPUS / "butterfly3d_ordered.json")], 0),
    "analyze_fig2_butterfly2d": (
        ["analyze", "--spec", str(CORPUS / "fig2_butterfly2d.json")], 0),
    "spectrum_butterfly1d": (
        ["spectrum", "--family", "butterfly1d", "--alpha", "1.9", "--beta", "2",
         "--e-max", "40"], 0),
    "scan_line_butterfly1d": (
        ["scan", "--family", "butterfly1d", "--alpha", "1.5", "--beta", "2",
         "--vary", "alpha:1.5:2.2", "--steps", "71"], 0),
    "scan_raster_butterfly1d": (
        ["scan", "--family", "butterfly1d", "--alpha", "1", "--beta", "1",
         "--vary", "alpha:0.5:2.5", "--vary", "beta:0.5:2.5",
         "--resolution", "41"], 0),
    "scan_line_fig2_butterfly2d": (
        ["scan", "--spec", str(CORPUS / "fig2_butterfly2d.json"),
         "--vary", "u:-6:4.5", "--steps", "41"], 0),
    "scan_line_butterfly3d_ordered": (
        ["scan", "--spec", str(CORPUS / "butterfly3d_ordered.json"),
         "--vary", "w:-2:3", "--steps", "31"], 0),
    "scan_raster_butterfly3d_ordered": (
        ["scan", "--spec", str(CORPUS / "butterfly3d_ordered.json"),
         "--vary", "gamma_x:1.8:2.5", "--vary", "gamma_y:1.7:2.3",
         "--resolution", "11"], 0),
    "grid_butterfly2d": (
        ["grid", "--family", "butterfly2d", "--alpha", "1", "--gamma", "1.9",
         "--u", "-5.3333333", "--grid-L", "3", "--grid-n", "121",
         "--clip", "7.5"], 0),
    "oracle_cusp2d": (
        ["oracle", "--family", "cusp2d", "--alpha", "2", "--beta", "1"], 0),
    "verify_seed7": (["verify", "--seed", "7"], 0),
}


def _run(case, out):
    argv, _status = COMMANDS[case]
    return cli.main(argv + ["--out", str(out)])


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_golden_outputs(case, tmp_path, capsys):
    assert _run(case, tmp_path) == COMMANDS[case][1]
    capsys.readouterr()
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), \
            f"{case}/{name} differs from the golden file"


def test_scan_line_boundaries_moved_within_refinement_tolerance():
    # scan_line_butterfly1d was regenerated once, when false position
    # replaced bisection; these are the bisection values it held before
    bisection = {"quantum": (1.9786032632729622, 549.7820710708414),
                 "classical": (2.0000000000002913, 576.0000006090366)}
    span = 2.2 - 1.5
    doc = json.loads((GOLDEN / "scan_line_butterfly1d" / "boundaries.json").read_text())
    assert sorted(b["kind"] for b in doc["boundaries"]) == sorted(bisection)
    for b in doc["boundaries"]:
        location, slope = bisection[b["kind"]]
        assert b["pair"] == ["axis_x_outer", "origin"]
        assert abs(b["location"] - location) <= DEFAULT_WIDTH_TOL * span
        assert b["gap_slope"] == pytest.approx(slope, rel=1e-6)


if __name__ == "__main__":
    for case in sorted(COMMANDS):
        out = GOLDEN / case
        out.mkdir(parents=True, exist_ok=True)
        for old in out.iterdir():
            old.unlink()
        status = _run(case, out)
        if status != COMMANDS[case][1]:
            sys.exit(f"{case}: exit status {status}, expected {COMMANDS[case][1]}")

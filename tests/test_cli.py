import csv
import json

import pytest

from polydot import cli, oracle, stationary, verify
from polydot.potentials import characteristic_radius, make_spec, spec_from_dict
from polydot.reports import write_csv

from helpers import count_calls, grid_rows_reference


def run(argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_analyze_inline_cusp3d(tmp_path, capsys):
    code = run(["analyze", "--family", "cusp3d", "--alpha", 1.4, "--beta", 1.2,
                "--gamma", 1, "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "stationary.json").read_text())
    assert data["n_points"] == 7
    assert data["n_orbits"] == 4
    rows = read_csv(tmp_path / "stationary.csv")
    assert rows[0][:4] == ["x0", "x1", "x2", "value"]
    assert len(rows) == 5
    out = capsys.readouterr().out
    assert "7 stationary points" in out


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["analyze", "--family", "cusp3d", "--alpha", 1.4, "--beta", 1.2,
                "--gamma", 1, "--json", "--out", first]) == 0
    assert run(["analyze", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1.2,
                "--out", second]) == 0
    assert sorted(p.name for p in first.iterdir()) == ["stationary.json"]
    assert sorted(p.name for p in second.iterdir()) == ["stationary.csv", "stationary.json"]
    assert json.loads((second / "stationary.json").read_text())["spec"]["family"] == "cusp2d"


def test_analyze_spec_file_round_trip(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "family": "butterfly2d",
        "shape": {"alpha_x_sq": 1.0, "gamma_x_sq": 3.61, "beta_x_sq": 1.305,
                  "alpha_y_sq": 1.0, "gamma_y_sq": 3.61, "beta_y_sq": 1.305,
                  "u": -16.0 / 3.0},
    }))
    code = run(["analyze", "--spec", spec_file, "--out", tmp_path])
    assert code == 0
    written = json.loads((tmp_path / "stationary.json").read_text())
    assert written["n_points"] == 9
    assert written["n_minima"] == 5
    # the embedded spec re-parses to an equal spec
    again = spec_from_dict(written["spec"])
    assert again == spec_from_dict(json.loads(spec_file.read_text()))


def test_analyze_exit_2_on_omitted_axis(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "family": "butterfly2d",
        "raw": {"a": 1.0, "b": 2.0, "c": 1.5, "d": 0.5, "u": 0.0},
    }))
    code = run(["analyze", "--spec", spec_file, "--out", tmp_path])
    assert code == 2
    data = json.loads((tmp_path / "stationary.json").read_text())
    assert data["warnings"]


def test_analyze_malformed_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "cusp2d", "raw": {"alpha_sq": }}')
    code = run(["analyze", "--spec", bad, "--out", tmp_path])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_analyze_spec_file_with_an_unknown_key_exit_1(tmp_path, capsys):
    # a misspelt coupling used to build u = 0 and exit 0
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "family": "butterfly2d",
        "shape": {"alpha_x_sq": 1.0, "gamma_x_sq": 3.61, "beta_x_sq": 1.305,
                  "alpha_y_sq": 1.0, "gamma_y_sq": 3.61, "beta_y_sq": 1.305, "U": -5.33},
    }))
    assert run(["analyze", "--spec", spec_file, "--out", tmp_path / "out"]) == 1
    assert "do not include ['U']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape, unknown", [
    ({"alpha_sq": 2.0, "beta_sq": 1.0, "gamma_sq": 1.0}, "gamma_sq"),
    ({"alpha_sq": 2.0, "beta_sq": 1.0, "typo": 1.0}, "typo"),
])
def test_analyze_cusp_spec_file_with_an_unknown_shape_key_exit_1(tmp_path, capsys, shape,
                                                                 unknown):
    # a cusp shape key was passed through unchecked, or named as a raw key
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"family": "cusp2d", "shape": shape}))
    assert run(["analyze", "--spec", spec_file, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == (f"error: invalid spec in {spec_file}: "
                                       f"cusp2d shape parameters do not include ['{unknown}']\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--spec", "missing.json"], "error: cannot read spec file"),
    (["analyze"], "error: a spec is required"),
    (["analyze", "--family", "cusp2d", "--alpha", 1.4],
     "error: invalid parameters: cusp2d needs beta"),
    (["scan", "--family", "cusp2d", "--alpha", 1.1, "--beta", 1, "--vary", "alpha:a:2"],
     "error: --vary bounds must be numbers, got 'alpha:a:2'"),
    (["scan", "--family", "butterfly1d", "--alpha", 1, "--beta", 1, "--vary", "alpha:1:2",
      "--vary", "beta:1:2", "--vary", "gamma:1:2"],
     "error: scan supports one --vary (line) or two (raster)"),
    # grid and oracle share GridSpec's message for a grid that is too small
    (["grid", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1, "--grid-n", 1],
     "error: grid needs at least 2 points per axis, got 1"),
    (["grid", "--family", "cusp3d", "--alpha", 1.4, "--beta", 1.2, "--gamma", 1,
      "--slice", "w=0"], "error: --slice wants AXIS=VALUE"),
    # NoMinimum reaches main's handler of the library's own errors
    (["spectrum", "--family", "cusp2d", "--alpha", 1, "--beta", 1],
     "error: NoMinimum: cusp2d spec has no confining minimum"),
    # 0 used to fall back to the default n = 201 and exit 0
    (["oracle", "--family", "cusp2d", "--alpha", 2, "--beta", 1, "--k", 1, "--grid-n", 0],
     "error: grid needs at least 2 points per axis, got 0"),
    # each number below used to hang or to write NaN, Infinity or a CSV of nan
    (["spectrum", "--family", "butterfly1d", "--alpha", 1.9, "--beta", 2, "--e-max", "inf"],
     "error: e_max must be finite, got inf"),
    (["spectrum", "--family", "butterfly1d", "--alpha", 1.9, "--beta", 2, "--e-max", "nan"],
     "error: e_max must be finite, got nan"),
    (["spectrum", "--family", "butterfly1d", "--alpha", 1.9, "--beta", 2, "--e-max", "1e12"],
     "error: well axis_x_outer has more than 100000 levels up to e_max = 1e+12; lower e_max"),
    (["scan", "--family", "butterfly1d", "--alpha", 1.5, "--beta", 2,
      "--vary", "alpha:nan:2.2", "--steps", 5],
     "error: parameter alpha needs a finite start and end, got nan and 2.2"),
    (["scan", "--family", "butterfly1d", "--alpha", 1.5, "--beta", 2,
      "--vary", "alpha:1.5:inf", "--steps", 5],
     "error: parameter alpha needs a finite start and end, got 1.5 and inf"),
    (["scan", "--family", "butterfly1d", "--alpha", 1.5, "--beta", 2,
      "--vary", "alpha:1.5:2.2", "--vary", "beta:-inf:2", "--resolution", 3],
     "error: parameter beta needs a finite start and end, got -inf and 2.0"),
    (["grid", "--family", "cusp3d", "--alpha", 1.4, "--beta", 1.2, "--gamma", 1,
      "--slice", "z=nan"], "error: --slice value must be finite, got 'nan'"),
    (["verify", "--seed", -1], "error: --seed must be >= 0"),
    # each ValueError of the library reaches main's one handler
    (["scan", "--family", "butterfly1d", "--alpha", 1.5, "--beta", 2,
      "--vary", "alpha:1.5:2.2", "--steps", 1], "error: a path needs at least 2 steps"),
    (["scan", "--family", "butterfly1d", "--alpha", 1.5, "--beta", 2,
      "--vary", "alpha:1.5:2.2", "--vary", "beta:1:2", "--resolution", 1],
     "error: resolution must be >= 2"),
    (["oracle", "--family", "cusp2d", "--alpha", 2, "--beta", 1, "--k", 400, "--grid-n", 20],
     "error: k = 400 exceeds the 396 pairs a 2D solve on 400 unknowns returns"),
    # 2/h^2 overflows: this used to end in SuperLU's "Factor is exactly singular"
    (["oracle", "--family", "cusp2d", "--alpha", 2, "--beta", 1, "--k", 1, "--grid-L", 1e-160,
      "--grid-n", 33], "error: grid spacing 6.25e-162 is too fine: 2/h^2 overflows a float"),
    # each flag below used to be ignored, with exit 0
    (["grid", "--family", "cusp2d", "--alpha", 2, "--beta", 1, "--slice", "z=0.3"],
     "error: --slice needs a 3D spec, got a 2D one"),
    (["grid", "--family", "butterfly1d", "--alpha", 1.5, "--beta", 2, "--slice", "z=0"],
     "error: --slice needs a 3D spec, got a 1D one"),
    (["oracle", "--family", "cusp2d", "--alpha", 2, "--beta", 1, "--grid-n", 40],
     "error: --grid-n sizes the eigensolver grid; pass --k too"),
])
def test_usage_and_library_errors_exit_1(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out", tmp_path / "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")  # no traceback
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ('3', "a spec must be a JSON object, not int"),
    ('{"family": "butterfly2d", "shape": [1, 2]}',
     "spec field 'shape' must be an object, not list"),
    ('{"family": "cusp2d", "raw": {"alpha_sq": 1, "beta_sq": 1}, "shape": 5}',
     "spec field 'shape' must be an object, not int"),
    ('{"family": "butterfly1d", "raw": {"a": null, "c": 1}}',
     "raw value 'a' must be a real number, got None"),
    ('{"family": "butterfly1d", "shape": {"alpha_sq": "1", "beta_sq": 1}}',
     "shape value 'alpha_sq' must be a real number, got '1'"),
])
def test_spec_file_of_the_wrong_json_type_exit_1(tmp_path, capsys, text, message):
    # each of these used to end in a traceback
    spec_file = tmp_path / "f.json"
    spec_file.write_text(text)
    assert run(["analyze", "--spec", spec_file, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: invalid spec in {spec_file}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_keyboard_interrupt_exit_130(tmp_path, capsys, monkeypatch):
    def interrupt(_spec):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "enumerate_stationary", interrupt)
    assert run(["analyze", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1,
                "--out", tmp_path]) == 130
    assert "interrupted; any written report is partial" in capsys.readouterr().err


def test_analyze_rejects_two_sources(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"family": "cusp2d", "raw": {"alpha_sq": 2, "beta_sq": 1}}')
    code = run(["analyze", "--spec", spec_file, "--family", "cusp2d",
                "--alpha", 1.4, "--beta", 1, "--out", tmp_path])
    assert code == 1


def test_spectrum_outputs(tmp_path):
    code = run(["spectrum", "--family", "butterfly1d", "--alpha", 1.9,
                "--beta", 2, "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["dominant"]["label"] == "axis_x_outer"
    labels = {w["label"] for w in data["wells"]}
    assert labels == {"origin", "axis_x_outer"}
    rows = read_csv(tmp_path / "spectrum.csv")
    assert rows[0] == ["label", "energy", "quantum_numbers"]
    energies = [float(r[1]) for r in rows[1:]]
    assert energies == sorted(energies)


def test_spectrum_enumerates_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, stationary.enumerate_stationary)
    assert run(["spectrum", "--family", "butterfly1d", "--alpha", 1.9,
                "--beta", 2, "--out", tmp_path]) == 0
    assert len(calls) == 1


def test_spectrum_warns_on_thin_margin(tmp_path, capsys):
    # near the flat-direction limit the barrier above the minimum is small
    # compared to the zero-point energy
    code = run(["spectrum", "--family", "cusp2d", "--alpha", 1.05,
                "--beta", 1, "--out", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "barely confines" in out


def test_spectrum_writes_an_unbounded_margin_as_inf(tmp_path):
    # a^2 < c: the origin is the only well, with no saddle above it
    assert run(["spectrum", "--family", "butterfly1d", "--a", -1, "--c", 100,
                "--out", tmp_path]) == 0
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert [(w["label"], w["confinement_margin"]) for w in data["wells"]] == [("origin", "inf")]


def test_spectrum_prints_an_exact_tie(tmp_path, capsys):
    assert run(["spectrum", "--family", "butterfly2d", "--alpha", 1.2, "--beta", 1.5,
                "--out", tmp_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["dominant well: axis_x_outer (E0 ~ -4.447742734)",
                       "  tie between: axis_x_outer, axis_y_outer"]


def test_scan_existence_threshold_isotropic_3d(tmp_path):
    # sweeping the isotropic shape scale across the bulk-orbit existence
    # threshold: the orbit-disappearance event lands on the known constant
    code = run(["scan", "--family", "butterfly3d", "--alpha", 0.2, "--beta", 1,
                "--vary", "alpha:0.2:0.3", "--steps", 26, "--out", tmp_path])
    assert code == 0
    bounds = json.loads((tmp_path / "boundaries.json").read_text())
    gone = {e["label"]: e["location"] for e in bounds["events"]
            if e["change"] == "disappears"}
    assert {"bulk_minus", "bulk_plus"} <= set(gone)
    assert gone["bulk_minus"] == pytest.approx(0.2462928572, abs=1e-9)
    assert gone["bulk_plus"] == pytest.approx(0.2462928572, abs=1e-9)


def test_scan_line_outputs(tmp_path, capsys):
    code = run(["scan", "--family", "butterfly1d", "--alpha", 1.5, "--beta", 2,
                "--vary", "alpha:1.5:2.2", "--steps", 41, "--out", tmp_path])
    assert code == 0
    bounds = json.loads((tmp_path / "boundaries.json").read_text())
    by_kind = {b["kind"]: b for b in bounds["boundaries"]}
    assert by_kind["classical"]["location"] == pytest.approx(2.0, abs=1e-9)
    assert by_kind["quantum"]["location"] == pytest.approx(1.979, abs=1e-3)
    rows = read_csv(tmp_path / "scan.csv")
    assert rows[0][0] == "alpha"
    assert len(rows) == 42


def test_scan_empty_boundaries_is_success(tmp_path):
    code = run(["scan", "--family", "cusp2d", "--alpha", 1.1, "--beta", 1,
                "--vary", "alpha:1.1:2.0", "--steps", 11, "--out", tmp_path])
    assert code == 0
    bounds = json.loads((tmp_path / "boundaries.json").read_text())
    assert bounds["boundaries"] == []


def test_scan_invalid_path_exit_1(tmp_path):
    code = run(["scan", "--family", "cusp2d", "--alpha", 1.1, "--beta", 1,
                "--vary", "alpha:1.1", "--out", tmp_path])
    assert code == 1
    code = run(["scan", "--family", "cusp2d", "--alpha", 1.1, "--beta", 1,
                "--out", tmp_path])
    assert code == 1
    code = run(["scan", "--family", "cusp2d", "--alpha", 1.1, "--beta", 1,
                "--vary", "bogus:0:1", "--out", tmp_path])
    assert code == 1


def test_scan_endpoint_outside_the_domain_is_per_sample(tmp_path):
    # either direction records the c <= 0 samples as errors and succeeds
    base = ["scan", "--family", "butterfly2d", "--a", 1, "--b", 1.2, "--c", 0.5,
            "--d", 0.6, "--u", 0.1, "--steps", 5, "--out", tmp_path]
    for vary in ("c:-1:1", "c:1:-1"):
        assert run(base + ["--vary", vary]) == 0
        samples = json.loads((tmp_path / "scan.json").read_text())["samples"]
        assert sum("needs c > 0" in (s["error"] or "") for s in samples) == 3


def test_scan_raster_outputs(tmp_path):
    code = run(["scan", "--family", "butterfly1d", "--alpha", 1, "--beta", 1,
                "--vary", "alpha:0.6:2.4", "--vary", "beta:0.6:2.4",
                "--resolution", 9, "--out", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "raster_quantum.csv")
    assert len(rows) == 10 and len(rows[0]) == 10
    polys = json.loads((tmp_path / "raster_polylines.json").read_text())
    assert {b["kind"] for b in polys["boundaries"]} <= {"quantum", "classical"}


def test_scan_raster_usage_errors_exit_1(tmp_path, capsys):
    base = ["scan", "--family", "butterfly1d", "--alpha", 1, "--beta", 1, "--out", tmp_path]
    assert run(base + ["--vary", "alpha:0.5:2.5", "--vary", "beta:0.5:2.5",
                       "--resolution", 1]) == 1
    assert run(base + ["--vary", "foo:0.5:2.5", "--vary", "beta:0.5:2.5",
                       "--resolution", 3]) == 1
    assert run(base + ["--vary", "alpha:1.5:2.2", "--vary", "alpha_x:2.2:1.5",
                       "--resolution", 3]) == 1
    err = capsys.readouterr().err
    assert "error: resolution must be >= 2" in err
    assert "error: unknown parameter 'foo' for butterfly1d" in err
    assert "error: parameters alpha and alpha_x set the same coefficient; vary it once" in err
    assert not list(tmp_path.glob("raster_*"))


def test_grid_zero_size_window_rejected(tmp_path):
    code = run(["grid", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1,
                "--grid-L", 0, "--out", tmp_path])
    assert code == 1


def test_grid_fig1_extrema(tmp_path):
    code = run(["grid", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1,
                "--grid-L", 2.8, "--grid-n", 57, "--clip", 0, "--out", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "grid.csv")
    xs = [float(v) for v in rows[0][1:]]
    table = {}
    for row in rows[1:]:
        y = float(row[0])
        for x, cell in zip(xs, row[1:]):
            if cell:
                table[(x, y)] = float(cell)
    def at(px, py):
        key = min(table, key=lambda k: (k[0] - px)**2 + (k[1] - py)**2)
        assert abs(key[0] - px) < 1e-9 and abs(key[1] - py) < 1e-9
        return table[key]

    assert min(table.values()) == pytest.approx(-(1.4**4), abs=1e-10)
    assert at(1.4, 0.0) == pytest.approx(-(1.4**4), abs=1e-10)
    assert at(0.0, 1.0) == pytest.approx(-1.0, abs=1e-10)
    assert all(v <= 0.0 for v in table.values())


def test_grid_1d_line(tmp_path):
    code = run(["grid", "--family", "butterfly1d", "--alpha", 1.9, "--beta", 2,
                "--grid-n", 5, "--clip", 3, "--out", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "grid.csv")
    assert rows[0] == ["x", "V"]
    xs = [float(x) for x, _v in rows[1:]]
    assert len(xs) == 5 and xs[2] == 0.0 and xs == sorted(xs)
    assert xs[0] == -xs[-1] == pytest.approx(-1.6 * characteristic_radius(
        make_spec("butterfly1d", alpha=1.9, beta=2)), rel=1e-15)
    # V(0) = 0 is kept; every other node lies above the clip and is left empty
    assert [v for _x, v in rows[1:]] == ["", "", "0.0", "", ""]


def test_grid_3d_slice(tmp_path):
    code = run(["grid", "--family", "cusp3d", "--alpha", 1.4, "--beta", 1.2,
                "--gamma", 1, "--grid-L", 2, "--grid-n", 21,
                "--slice", "z=0", "--out", tmp_path])
    assert code == 0
    rows = read_csv(tmp_path / "grid.csv")
    assert len(rows) == 22


CUSP3D_FLAGS = ["--family", "cusp3d", "--alpha", 1.4, "--beta", 1.2, "--gamma", 1]


@pytest.mark.parametrize("flags, plane", [
    (["--family", "butterfly1d", "--alpha", 1.9, "--beta", 2, "--clip", 3], None),
    (CUSP3D_FLAGS + ["--slice", "y=0.3"], (1, 0.3)),
    (CUSP3D_FLAGS + ["--grid-L", 2, "--grid-n", 21, "--slice", "x=-0.7", "--clip", 0], (0, -0.7)),
])
def test_grid_bytes_match_a_hand_built_window(tmp_path, flags, plane):
    # the goldens cover only 2D windows; a 1D line and 3D slices are built
    # by hand here, by default on 1.6 characteristic radii and 201 points
    assert run(["grid", *flags, "--out", tmp_path]) == 0
    args = cli.build_parser().parse_args(["grid", *map(str, flags)])
    spec = cli._load_spec(args)
    L = 1.6 * characteristic_radius(spec) if args.grid_L is None else args.grid_L
    rows = grid_rows_reference(spec, L, args.grid_n or 201, clip=args.clip, plane=plane)
    write_csv(tmp_path / "want.csv", rows)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_grid_slice_value_not_a_number_exit_1(tmp_path, capsys):
    code = run(["grid", "--family", "cusp3d", "--alpha", 1.4, "--beta", 1.2,
                "--gamma", 1, "--slice", "z=abc", "--out", tmp_path])
    assert code == 1
    assert "error: --slice value must be a number, got 'abc'" in capsys.readouterr().err


def test_oracle_eigensolver_usage_errors_exit_1(tmp_path, capsys, monkeypatch):
    # the eigensolver rejects --k and --grid-n before any Newton work
    calls = count_calls(monkeypatch, oracle.newton_stationary)
    base = ["oracle", "--family", "cusp2d", "--alpha", 2, "--beta", 1, "--out", tmp_path]
    assert run(base + ["--k", 2, "--grid-n", 8]) == 1
    assert run(base + ["--k", 400, "--grid-n", 20]) == 1
    assert calls == []
    captured = capsys.readouterr()
    assert "newton search" not in captured.out
    assert "error: eigensolver grids need at least 16 points per axis, got 8" in captured.err
    assert "error: k = 400 exceeds the 396 pairs a 2D solve on 400 unknowns returns" in captured.err


@pytest.mark.parametrize("half_width", [0, -3, "nan", "inf"])
def test_grid_L_must_be_positive_and_finite_exit_1(tmp_path, capsys, monkeypatch, half_width):
    # oracle: 0 used to fall back to the default box, and -3, nan and inf to
    # report "0 orbits" and exit 0; grid wrote a window of nan for nan and inf
    calls = count_calls(monkeypatch, oracle.newton_stationary)
    flags = ["--family", "cusp2d", "--alpha", 2, "--beta", 1, "--grid-L", half_width,
             "--out", tmp_path]
    assert run(["oracle", *flags]) == 1
    assert run(["oracle", *flags, "--k", 2, "--grid-n", 41]) == 1
    assert run(["grid", *flags]) == 1
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: --grid-L must be positive and finite") == 3
    assert not list(tmp_path.iterdir())


def test_oracle_command(tmp_path):
    code = run(["oracle", "--family", "cusp2d", "--alpha", 2, "--beta", 1,
                "--k", 2, "--grid-n", 101, "--grid-L", 5, "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "oracle.json").read_text())
    assert data["newton"]["missing_vs_closed_form"] == []
    assert data["newton"]["spurious_vs_closed_form"] == []
    assert len(data["eigensolve"]["energies"]) == 2
    rows = read_csv(tmp_path / "eigen.csv")
    assert rows[0] == ["x0", "x1", "V", "psi0", "psi1"]
    assert len(rows) == 1 + 101 * 101


FORMAT_CASES = {
    "analyze": (["analyze", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1],
                {"stationary.json", "stationary.csv"}),
    "spectrum": (["spectrum", "--family", "butterfly1d", "--alpha", 1.9, "--beta", 2],
                 {"spectrum.json", "spectrum.csv"}),
    "scan_line": (["scan", "--family", "butterfly1d", "--alpha", 1.5, "--beta", 2,
                   "--vary", "alpha:1.5:2.2", "--steps", 11],
                  {"scan.csv", "scan.json", "boundaries.json"}),
    "scan_raster": (["scan", "--family", "butterfly1d", "--alpha", 1, "--beta", 1,
                     "--vary", "alpha:0.5:2.5", "--vary", "beta:0.5:2.5", "--resolution", 5],
                    {"raster_quantum.csv", "raster_classical.csv", "raster_polylines.json"}),
    "oracle": (["oracle", "--family", "cusp2d", "--alpha", 2, "--beta", 1,
                "--k", 1, "--grid-n", 31], {"oracle.json", "eigen.csv"}),
    "oracle_newton": (["oracle", "--family", "cusp2d", "--alpha", 2, "--beta", 1],
                      {"oracle.json"}),
    "grid": (["grid", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1, "--grid-n", 11],
             {"grid.csv"}),
    "verify": (["verify", "--seed", 0], {"verify.json"}),
}


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_format_flags_select_outputs(tmp_path, case):
    # --json or --csv alone keeps that format when a command writes both;
    # both flags or neither write everything, and a one-format command
    # (grid, verify, oracle without --k) writes its file whatever the flags say
    argv, files = FORMAT_CASES[case]
    for flags, suffix in (([], None), (["--json", "--csv"], None),
                          (["--json"], ".json"), (["--csv"], ".csv")):
        out = tmp_path / "-".join(flags or ["none"])
        assert run(argv + flags + ["--out", out]) == 0
        kept = {f for f in files if suffix and f.endswith(suffix)}
        assert {p.name for p in out.iterdir()} == (kept or files)


def test_analyze_notes_a_degenerate_orbit(tmp_path, capsys):
    assert run(["analyze", "--family", "cusp2d", "--alpha", 1, "--beta", 1,
                "--out", tmp_path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  note: degenerate orbit(s) present (flat direction); "
        "harmonic estimates are unreliable there")


def test_spectrum_warns_on_degenerate_orbits_beside_a_minimum(tmp_path, capsys):
    assert run(["spectrum", "--family", "cusp3d", "--alpha", 1.4, "--beta", 1, "--gamma", 1,
                "--out", tmp_path]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"  warning: degenerate stationary orbit {label} (flat direction); "
        "no harmonic candidate attached" for label in ("axis_y", "axis_z")]


def test_oracle_prints_the_solver_warning(tmp_path, capsys):
    assert run(["oracle", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1, "--k", 3,
                "--out", tmp_path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  warning: boundary potential 5.50732 is within 10 of the top computed "
        "energy 1.98805; enlarge the box")


def test_verify_command_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["verify", "--seed", 7, "--out", out_a]) == 0
    assert run(["verify", "--seed", 7, "--out", out_b]) == 0
    assert (out_a / "verify.json").read_bytes() == (out_b / "verify.json").read_bytes()


def test_verify_exit_3_names_the_failing_suite(tmp_path, capsys, monkeypatch):
    verdict = {"passed": False, "suites": [
        {"name": "good", "passed": True, "details": {"failures": []}},
        {"name": "bad", "passed": False, "details": {"failures": ["case 1 off by 2"]}},
    ]}
    monkeypatch.setattr(verify, "run_verify", lambda seed: verdict)
    assert run(["verify", "--out", tmp_path]) == 3
    out = capsys.readouterr().out
    assert out.splitlines() == ["PASS good", "FAIL bad", "     case 1 off by 2",
                                "verification failed: bad"]
    assert json.loads((tmp_path / "verify.json").read_text()) == verdict


def test_verify_names_corrupted_routine(monkeypatch):
    # flip the sign of the constant term of the quadratic that closes every
    # off-axis linear form: the reconstructed points stop satisfying the
    # stationarity equations and the verdict must name the broken routine
    original = stationary._positive_quadratic_roots
    monkeypatch.setattr(stationary, "_positive_quadratic_roots",
                        lambda q2, q1, q0: original(q2, q1, -q0))
    verdict = verify.run_verify(seed=3)
    assert not verdict["passed"]
    failing = [s for s in verdict["suites"] if not s["passed"]]
    assert any(
        "off_axis_roots_2d" in f
        for s in failing for f in s["details"]["failures"]
    )


def test_outputs_do_not_depend_on_cwd(tmp_path, monkeypatch):
    out = tmp_path / "results"
    monkeypatch.setenv("POLYDOT_OUT", str(out))
    code = run(["analyze", "--family", "cusp2d", "--alpha", 1.4, "--beta", 1])
    assert code == 0
    assert (out / "stationary.json").exists()

"""Command-line front end.

Commands
--------
analyze   closed-form stationary points -> stationary.json/.csv
spectrum  harmonic wells, candidates, levels -> spectrum.json/.csv
scan      1-parameter line or 2-parameter raster of dominant wells
grid      potential values on a window -> grid.csv (plot-ready)
oracle    Newton stationary search + finite-difference eigensolve
verify    run the verification suites -> verify.json (exit 3 on failure)

Specs come either from inline flags (--family plus parameters) or from a
JSON file (--spec).  Outputs land in --out (or $POLYDOT_OUT, default
./polydot_out).  A command that writes JSON and CSV writes only one of
them under --json or --csv alone; grid, verify and oracle without --k
always write their one file.  All outputs are deterministic for a fixed
configuration and seed.

Exit codes: 0 on success; 1 for any invalid input, whether a flag check
here or a ValueError or PolydotError from the library; 2 when analyze
skips an axis; 3 when verify fails; 130 on Ctrl-C.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import reports, spectra, verify
from .catastrophe import CLASSICAL, QUANTUM, ParamPath, scan_grid, scan_line
from .errors import PolydotError
from .oracle import GridSpec, fd_eigensolve
from .potentials import (
    FAMILIES,
    characteristic_radius,
    evaluate,
    make_spec,
    spec_from_dict,
)
from .stationary import enumerate_stationary

_SPEC_FLAGS = (
    "alpha", "beta", "gamma", "a", "b", "c", "d", "u", "v", "w", "p", "q", "s",
)


def _write(args, files):
    """Write each output file, {name: make}, with make() building its
    content.  --json or --csv alone keeps only that format when the command
    writes both; a command with one format always writes it."""
    suffixes = {Path(name).suffix for name in files}
    if len(suffixes) > 1 and args.json != args.csv:
        suffixes = {".json" if args.json else ".csv"}
    out = Path(args.out or os.environ.get("POLYDOT_OUT") or "polydot_out")
    out.mkdir(parents=True, exist_ok=True)
    for name, make in files.items():
        suffix = Path(name).suffix
        if suffix in suffixes:
            write = reports.write_json if suffix == ".json" else reports.write_csv
            write(out / name, make())


def _load_spec(args):
    inline = {k: getattr(args, k) for k in _SPEC_FLAGS if getattr(args, k) is not None}
    if args.spec and (args.family or inline):
        raise ValueError("give exactly one spec source: --spec FILE or inline flags")
    if args.spec:
        try:
            text = Path(args.spec).read_text()
        except OSError as err:
            raise ValueError(f"cannot read spec file: {err}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(
                f"malformed spec file {args.spec}: line {err.lineno}, column {err.colno}: {err.msg}"
            )
        try:
            return spec_from_dict(data)
        except (PolydotError, ValueError) as err:
            raise ValueError(f"invalid spec in {args.spec}: {err}")
    if not args.family:
        raise ValueError("a spec is required: --spec FILE or --family plus parameters")
    try:
        return make_spec(args.family, **inline)
    except (PolydotError, ValueError) as err:
        raise ValueError(f"invalid parameters: {err}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    spec = _load_spec(args)
    report = enumerate_stationary(spec)
    _write(args, {
        "stationary.json": lambda: reports.stationary_report_dict(spec, report),
        "stationary.csv": lambda: reports.stationary_csv_rows(report),
    })
    print(f"{spec.family}: {len(report.points)} orbit entries, "
          f"{sum(p.multiplicity for p in report.points)} stationary points")
    for p in report.points:
        loc = ", ".join(f"{c:+.6g}" for c in p.location)
        print(f"  ({loc})  V={p.value:.10g}  {p.kind}  x{p.multiplicity}  [{p.label}]")
    for w in report.warnings:
        print(f"  warning: {w}")
    if any(p.kind == "degenerate" for p in report.points):
        print("  note: degenerate orbit(s) present (flat direction); "
              "harmonic estimates are unreliable there")
    return 2 if report.warnings else 0


def cmd_spectrum(args) -> int:
    spec = _load_spec(args)
    cands = spectra.ground_candidates(spec)
    dominant = spectra._lowest(cands.energies)
    classical = spectra._lowest(cands.depths)
    if args.e_max is not None:
        e_max = args.e_max
    else:
        well = cands.wells[dominant.label]
        e_max = dominant.energy + 2.0 * sum(well.frequencies)
    levels_by_label = {label: spectra.levels(well, e_max) for label, well in cands.wells.items()}
    _write(args, {
        "spectrum.json": lambda: reports.spectrum_report_dict(
            spec, cands, dominant, classical, levels_by_label, e_max),
        "spectrum.csv": lambda: reports.spectrum_csv_rows(levels_by_label),
    })
    print(f"dominant well: {dominant.label} (E0 ~ {dominant.energy:.10g})")
    if len(dominant.tied) > 1:
        print(f"  tie between: {', '.join(dominant.tied)}")
    for label, well in sorted(cands.wells.items()):
        omegas = ", ".join(f"{w:.6g}" for w in well.frequencies)
        print(f"  {label}: v0={well.v0:.10g}, omegas=({omegas}), "
              f"candidate={well.ground_estimate:.10g}")
        if well.confinement_margin < 2.0 * sum(well.frequencies):
            print(f"  warning: well {label} barely confines its zero-point "
                  f"energy (margin {well.confinement_margin:.4g} < "
                  f"2*sum omega = {2.0 * sum(well.frequencies):.4g}); "
                  "the harmonic estimate is unreliable")
    for w in cands.warnings:
        print(f"  warning: {w}")
    return 0


def _parse_vary(values):
    out = []
    for item in values or []:
        parts = item.split(":")
        if len(parts) != 3:
            raise ValueError(f"--vary wants NAME:START:END, got {item!r}")
        try:
            out.append((parts[0], float(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"--vary bounds must be numbers, got {item!r}")
    return out


def cmd_scan(args) -> int:
    spec = _load_spec(args)
    varied = _parse_vary(args.vary)
    if not varied:
        raise ValueError("scan needs at least one --vary NAME:START:END")
    if len(varied) == 1:
        report = scan_line(ParamPath(spec=spec, varied=tuple(varied), steps=args.steps))
        d = reports.scan_report_dict(report)
        _write(args, {
            "scan.csv": lambda: reports.scan_csv_rows(report),
            "scan.json": lambda: d,
            "boundaries.json": lambda: {k: d[k] for k in ("header", "boundaries", "events")},
        })
        print(f"scan over {varied[0][0]}: {len(report.samples)} samples, "
              f"{len(report.boundaries)} boundaries, {len(report.events)} orbit events")
        for b in report.boundaries:
            print(f"  {b.kind}: {b.pair[0]} <-> {b.pair[1]} at "
                  f"{varied[0][0]} = {b.location:.10g}")
        for e in report.events:
            print(f"  orbit {e.label} {e.change} at {varied[0][0]} = {e.location:.10g}")
        return 0
    if len(varied) != 2:
        raise ValueError("scan supports one --vary (line) or two (raster)")
    dmap = scan_grid(spec, varied[0], varied[1], resolution=args.resolution)
    _write(args, {
        "raster_quantum.csv": lambda: reports.raster_csv_rows(dmap, QUANTUM),
        "raster_classical.csv": lambda: reports.raster_csv_rows(dmap, CLASSICAL),
        "raster_polylines.json": lambda: reports.raster_polylines_dict(dmap),
    })
    labels = sorted(set(map(str, dmap.labels_quantum.ravel())))
    print(f"raster {args.resolution}x{args.resolution}: quantum labels {labels}")
    return 0


def cmd_grid(args) -> int:
    spec = _load_spec(args)
    if args.slice is not None and spec.dimension != 3:
        raise ValueError(f"--slice needs a 3D spec, got a {spec.dimension}D one")
    L = args.grid_L if args.grid_L is not None else 1.6 * characteristic_radius(spec)
    grid = GridSpec(extent=L, n=201 if args.grid_n is None else args.grid_n)
    (xs,) = grid.axes(1)
    if spec.dimension == 1:
        values = evaluate(spec, xs)
        _write(args, {"grid.csv": lambda: reports.potential_line_rows(xs, values, clip=args.clip)})
        print(f"wrote grid.csv ({grid.n} points, window [{-L:g}, {L:g}])")
        return 0
    mesh = grid.mesh(2)
    if spec.dimension == 3:
        axis, _, value = (args.slice or "z=0").partition("=")
        axis = axis.strip()
        if axis not in spec.axis_names() or not value:
            raise ValueError("--slice wants AXIS=VALUE, e.g. z=0")
        try:
            fixed = float(value)
        except ValueError:
            raise ValueError(f"--slice value must be a number, got {value!r}")
        if not np.isfinite(fixed):
            raise ValueError(f"--slice value must be finite, got {value!r}")
        mesh = np.insert(mesh, spec.axis_names().index(axis), fixed, axis=-1)
    values = evaluate(spec, mesh)
    _write(args, {"grid.csv": lambda: reports.potential_grid_rows(xs, xs, values, clip=args.clip)})
    print(f"wrote grid.csv ({grid.n}x{grid.n} window [{-L:g}, {L:g}]"
          + (f", clip V <= {args.clip:g}" if args.clip is not None else "") + ")")
    return 0


def cmd_oracle(args) -> int:
    spec = _load_spec(args)
    if args.grid_n is not None and not args.k:
        raise ValueError("--grid-n sizes the eigensolver grid; pass --k too")
    sol = None
    if args.k:
        n = {1: 2001, 2: 201, 3: 33}[spec.dimension] if args.grid_n is None else args.grid_n
        sol = fd_eigensolve(spec, replace(verify._oracle_grid(spec, args.grid_L), n=n), k=args.k)
    found, missing, spurious = verify.oracle_agreement(spec, args.grid_L)
    print(f"newton search: {len(found)} orbits "
          f"({len(missing)} missing, {len(spurious)} spurious vs closed form)")
    result = {
        "spec": spec.to_dict(),
        "newton": {
            "orbits": [reports.record_dict(p) for p in found],
            "missing_vs_closed_form": [reports.record_dict(p) for p in missing],
            "spurious_vs_closed_form": [reports.record_dict(p) for p in spurious],
        },
    }
    files = {"oracle.json": lambda: result}
    if sol is not None:
        result["eigensolve"] = reports.eigensolution_dict(sol)
        files["eigen.csv"] = lambda: reports.eigensolution_csv_rows(
            sol, evaluate(spec, sol.grid.mesh(sol.dim)))
        print("energies:", ", ".join(f"{e:.8g}" for e in sol.energies))
        for w in sol.warnings:
            print(f"  warning: {w}")
    _write(args, files)
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    verdict = verify.run_verify(seed=args.seed)
    _write(args, {"verify.json": lambda: verdict})
    for suite in verdict["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"{status} {suite['name']}")
        if not suite["passed"]:
            for failure in suite["details"]["failures"][:10]:
                print(f"     {failure}")
    if not verdict["passed"]:
        failing = [s["name"] for s in verdict["suites"] if not s["passed"]]
        print(f"verification failed: {', '.join(failing)}")
        return 3
    print("verification passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: callers
    parse with it and must not add to it."""
    spec_flags = argparse.ArgumentParser(add_help=False)
    group = spec_flags.add_argument_group("potential spec")
    group.add_argument("--family", choices=FAMILIES, help="potential family")
    for flag in _SPEC_FLAGS:
        group.add_argument(f"--{flag}", type=float, default=None)
    group.add_argument("--spec", metavar="FILE", help="JSON spec file")

    output_flags = argparse.ArgumentParser(add_help=False)
    group = output_flags.add_argument_group("output")
    group.add_argument("--out", default=None,
                       help="output directory (default $POLYDOT_OUT or ./polydot_out)")
    group.add_argument("--json", action="store_true", help="write JSON outputs only")
    group.add_argument("--csv", action="store_true", help="write CSV outputs only")

    parser = argparse.ArgumentParser(
        prog="polydot",
        description="Stationary points, harmonic spectra, and relocalization "
                    "boundaries of quartic/sextic quantum-dot potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    both = [spec_flags, output_flags]

    p = sub.add_parser("analyze", help="enumerate and classify stationary points",
                       parents=both)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("spectrum", help="harmonic wells, candidates, and levels",
                       parents=both)
    p.add_argument("--e-max", type=float, default=None,
                   help="enumerate levels up to this energy")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scan", help="scan parameters for relocalization boundaries",
                       parents=both)
    p.add_argument("--vary", action="append", metavar="NAME:START:END",
                   help="parameter to vary (repeat for a 2-parameter raster)")
    p.add_argument("--steps", type=int, default=51, help="samples along a line")
    p.add_argument("--resolution", type=int, default=33, help="raster resolution")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("grid", help="dump potential values for plotting", parents=both)
    p.add_argument("--grid-n", type=int, default=None, help="points per axis")
    p.add_argument("--grid-L", type=float, default=None, help="window half-width")
    p.add_argument("--clip", type=float, default=None,
                   help="omit values above this level")
    p.add_argument("--slice", default=None, metavar="AXIS=VALUE",
                   help="slicing plane for 3D specs (default z=0)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("oracle", help="run the numerical oracle on a spec", parents=both)
    p.add_argument("--grid-n", type=int, default=None, help="eigensolver points per axis")
    p.add_argument("--grid-L", type=float, default=None,
                   help="half-width of the Newton seed box and the eigensolver grid")
    p.add_argument("--k", type=int, default=0,
                   help="also compute the k lowest eigenpairs")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run the verification suites", parents=[output_flags])
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "grid_L", None) is not None and not 0 < args.grid_L < np.inf:
            raise ValueError("--grid-L must be positive and finite")  # grid and oracle
        return args.func(args)
    except ValueError as err:  # a flag check here, or the library's invalid-input error
        print(f"error: {err}", file=sys.stderr)
        return 1
    except PolydotError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted; any written report is partial", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

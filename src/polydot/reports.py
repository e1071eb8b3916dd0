"""Machine-readable report writers (JSON + CSV).

A result record's JSON object is its dataclass fields (:func:`record_dict`).
All writers are deterministic: keys are sorted, floats use their shortest
round-trip repr, and no timestamps are embedded, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .catastrophe import QUANTUM, ScanReport, SubdomainMap
from .oracle import EigenSolution
from .potentials import PotentialSpec
from .spectra import GroundCandidates, HarmonicWell
from .stationary import StationaryReport

_CSV_BLOCK = 4096  # grid nodes per block of eigensolution rows


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path, rows) -> None:
    """Rows to CSV; csv writes None as an empty cell."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _num(x):
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def record_dict(record, *omit) -> dict:
    """A result record's fields by name, less the names in omit: no file
    carries a scan sample's t, or an eigensolution's states and grid,
    whose extent and n are written instead."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in omit}


# ---------------------------------------------------------------------------
# stationary points
# ---------------------------------------------------------------------------

def stationary_report_dict(spec: PotentialSpec, report: StationaryReport) -> dict:
    return {
        "spec": spec.to_dict(),
        "points": [record_dict(p) for p in report.points],
        "warnings": list(report.warnings),
        "n_orbits": len(report.points),
        "n_points": sum(p.multiplicity for p in report.points),
        "n_minima": sum(p.multiplicity for p in report.points if p.kind == "minimum"),
    }


def stationary_csv_rows(report: StationaryReport):
    dim = len(report.points[0].location) if report.points else 0
    header = (
        [f"x{i}" for i in range(dim)]
        + ["value", "kind", "multiplicity", "label", "subfamily"]
        + [f"hess_eig{i}" for i in range(dim)]
    )
    yield header
    for p in report.points:
        yield list(p.location) + [p.value, p.kind, p.multiplicity, p.label,
                                  p.subfamily] + list(p.hessian_eigs)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def well_dict(well: HarmonicWell, level_list) -> dict:
    return {
        "label": well.label,
        "v0": well.v0,
        "stiffnesses": list(well.stiffnesses),
        "omegas": list(well.frequencies),
        "ground_candidate": well.ground_estimate,
        "confinement_margin": _num(well.confinement_margin),
        "levels": [{"n": list(lv.quantum_numbers), "energy": lv.energy} for lv in level_list],
    }


def spectrum_report_dict(spec, candidates: GroundCandidates, dominant, classical,
                         levels_by_label, e_max) -> dict:
    return {
        "spec": spec.to_dict(),
        "e_max": e_max,
        "wells": [
            well_dict(w, levels_by_label[label])
            for label, w in sorted(candidates.wells.items())
        ],
        "dominant": {"label": dominant.label, "energy": dominant.energy,
                     "tied": list(dominant.tied)},
        "classical_argmin": {"label": classical.label, "value": classical.energy,
                             "tied": list(classical.tied)},
        "warnings": list(candidates.warnings),
    }


def spectrum_csv_rows(levels_by_label):
    yield ["label", "energy", "quantum_numbers"]
    rows = []
    for label, level_list in sorted(levels_by_label.items()):
        for lv in level_list:
            rows.append([label, lv.energy, " ".join(map(str, lv.quantum_numbers))])
    rows.sort(key=lambda r: (r[1], r[0]))
    yield from rows


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def scan_report_dict(report: ScanReport) -> dict:
    return {
        "header": report.header,
        "base_spec": report.path.spec.to_dict(),
        "samples": [record_dict(s, "t") for s in report.samples],
        "boundaries": [record_dict(b) for b in report.boundaries],
        "events": [record_dict(e) for e in report.events],
    }


def scan_csv_rows(report: ScanReport):
    param_names = [v[0] for v in report.path.varied]
    labels = sorted({lab for s in report.samples for lab in s.candidates})
    header = (
        param_names
        + ["ok", "quantum_label", "classical_label"]
        + [f"candidate:{lab}" for lab in labels]
        + [f"depth:{lab}" for lab in labels]
    )
    yield header
    for s in report.samples:
        yield (
            [s.params[n] for n in param_names]
            + [int(s.ok), s.quantum_label or "", s.classical_label or ""]
            + [s.candidates.get(lab) for lab in labels]
            + [s.depths.get(lab) for lab in labels]
        )


# ---------------------------------------------------------------------------
# subdomain rasters
# ---------------------------------------------------------------------------

def raster_csv_rows(dmap: SubdomainMap, kind: str = QUANTUM):
    labels = dmap.labels(kind)
    yield [f"{dmap.param_y}\\{dmap.param_x}"] + [float(x) for x in dmap.xs]
    for j in range(len(dmap.ys)):
        yield [float(dmap.ys[j])] + [labels[i, j] for i in range(len(dmap.xs))]


def raster_polylines_dict(dmap: SubdomainMap) -> dict:
    return {
        "param_x": dmap.param_x,
        "param_y": dmap.param_y,
        "boundaries": [
            {
                "kind": b.kind,
                "label": b.pair[0],
                "polylines": [[list(pt) for pt in chain] for chain in b.location],
            }
            for b in dmap.boundaries
        ],
    }


# ---------------------------------------------------------------------------
# potential grid dumps and eigensolutions
# ---------------------------------------------------------------------------

def potential_grid_rows(xs, ys, values, clip=None):
    """Matrix CSV of V over a window; header row/column carry coordinates.
    Cells above the clip level are left empty (plot-ready masking)."""
    yield ["y\\x"] + [float(x) for x in xs]
    values = np.asarray(values, dtype=float)
    for j in range(len(ys)):
        row = values[:, j].tolist()
        if clip is not None:
            row = [None if v > clip else v for v in row]
        yield [float(ys[j])] + row


def potential_line_rows(xs, values, clip=None):
    yield ["x", "V"]
    for x, v in zip(xs, values):
        v = float(v)
        yield [float(x), None if (clip is not None and v > clip) else v]


def eigensolution_dict(sol: EigenSolution) -> dict:
    return {**record_dict(sol, "grid", "states"), **record_dict(sol.grid)}


def eigensolution_csv_rows(sol: EigenSolution, potential_values=None):
    """One row per grid node: its coordinates, V if given, and every state.
    Rows are read off whole-array blocks of _CSV_BLOCK nodes, so no column
    is ever held as a Python list."""
    k = sol.states.shape[0]
    header = [f"x{i}" for i in range(sol.dim)]
    columns = [sol.grid.mesh(sol.dim).reshape(-1, sol.dim)]
    if potential_values is not None:
        header.append("V")
        columns.append(np.asarray(potential_values).reshape(-1, 1))
    header += [f"psi{i}" for i in range(k)]
    yield header
    columns.append(sol.states.reshape(k, -1).T)
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        yield from np.hstack([c[lo:lo + _CSV_BLOCK] for c in columns]).tolist()

"""The public names of polydot, and every module attribute the benchmark
tracer wraps: a simplification that deletes one of them must say so here."""

import importlib
import types

import polydot

PUBLIC_NAMES = [
    "BudgetExceeded", "CatastropheBoundary", "DegenerateCoupling", "DegenerateWell",
    "DominantMinimum", "EigenSolution", "FAMILIES", "GridSpec", "GroundCandidates",
    "HarmonicWell", "LevelEstimate", "LocalizationWeights", "NoMinimum", "NoRealShape",
    "OrbitEvent", "ParamPath", "PolydotError", "PotentialSpec", "QuadraticAux",
    "SMALL_COUPLING_THRESHOLD", "ScanReport", "SplitBracket", "StationaryPoint",
    "StationaryReport", "SubdomainMap", "bulk_reality_large_couplings",
    "bulk_reality_small_couplings", "bulk_roots_3d", "classical_argmin",
    "dominant_minimum", "enumerate_stationary", "evaluate", "fd_eigensolve", "gradient",
    "ground_candidates", "harmonic_expand", "hessian", "levels", "localization",
    "locate_boundary", "make_spec", "match_stationary", "newton_stationary",
    "off_axis_roots_2d", "off_axis_roots_3d", "on_axis_roots", "quadratic_aux",
    "raw_to_shape", "reparametrize", "richardson_ground_energies", "scan_grid",
    "scan_line", "shape_to_raw", "spec_from_dict", "spec_from_json", "spec_from_raw",
    "spec_from_shape", "stationary_points", "with_param",
]

# bench/tracing.py TARGETS, plus the other module bindings it replaces
TRACED = [
    ("catastrophe", "scan_line"), ("catastrophe", "scan_grid"),
    ("catastrophe", "locate_boundary"), ("spectra", "ground_candidates"),
    ("stationary", "stationary_points"), ("stationary", "enumerate_stationary"),
    ("spectra", "enumerate_stationary"), ("potentials", "spec_from_raw"),
    ("potentials", "evaluate"), ("potentials", "gradient"), ("potentials", "hessian"),
    ("oracle", "newton_stationary"), ("oracle", "fd_eigensolve"), ("oracle", "hamiltonian"),
    ("oracle", "localization"), ("oracle", "match_stationary"), ("reports", "write_json"),
    ("reports", "write_csv"), ("cli", "main"),
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(polydot).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_traced_attributes_exist():
    missing = [f"{module}.{attr}" for module, attr in TRACED
               if not callable(getattr(importlib.import_module(f"polydot.{module}"), attr, None))]
    assert missing == []

"""The public names of polydot, every module attribute the benchmark tracer
wraps, and the options of every CLI subcommand: a simplification that
deletes one of them, or a change that adds one, must say so here."""

import argparse
import importlib
import types

import polydot
from polydot import cli

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

# option strings of each subcommand of cli.build_parser(), in parser order
_HELP = ["-h", "--help"]
_SPEC = ["--family", "--alpha", "--beta", "--gamma", "--a", "--b", "--c", "--d", "--u",
         "--v", "--w", "--p", "--q", "--s", "--spec"]
_OUTPUT = ["--out", "--json", "--csv"]
SUBCOMMAND_OPTIONS = {
    "analyze": _HELP + _SPEC + _OUTPUT,
    "spectrum": _HELP + _SPEC + _OUTPUT + ["--e-max"],
    "scan": _HELP + _SPEC + _OUTPUT + ["--vary", "--steps", "--resolution"],
    "grid": _HELP + _SPEC + _OUTPUT + ["--grid-n", "--grid-L", "--clip", "--slice"],
    "oracle": _HELP + _SPEC + _OUTPUT + ["--grid-n", "--grid-L", "--k"],
    "verify": _HELP + _OUTPUT + ["--seed"],
}


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(polydot).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_traced_attributes_exist():
    missing = [f"{module}.{attr}" for module, attr in TRACED
               if not callable(getattr(importlib.import_module(f"polydot.{module}"), attr, None))]
    assert missing == []


def test_subcommand_options_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [flag for action in p._actions for flag in action.option_strings]
               for name, p in sub.choices.items()}
    assert options == SUBCOMMAND_OPTIONS

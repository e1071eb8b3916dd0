"""Spans around polydot's public functions, recorded from outside.

A Tracer replaces each traced function by a wrapper in every polydot module
that holds it, so a caller that imported the name (``from .stationary import
enumerate_stationary``) sees the wrapper too.  A span is [name, start_ns,
end_ns, parent index, attributes]; spans stay in memory and are written out
when the run ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

import numpy as np

from polydot import catastrophe, cli, oracle, potentials, reports, spectra, stationary, verify


def _points_attr(args, kwargs, result):
    spec, pts = args[0], args[1] if len(args) > 1 else kwargs["pts"]
    return {"points": max(1, np.size(pts) // spec.dimension)}


def _newton_attr(args, kwargs, result):
    spec, grid = args[0], args[1] if len(args) > 1 else kwargs["grid"]
    return {"seeds": grid.size(spec.dimension), "orbits": len(result)}


def _eigen_attr(args, kwargs, result):
    return {"unknowns": result.grid.size(result.dim)}


def _scan_line_attr(args, kwargs, result):
    return {
        "samples": len(result.samples),
        # samples whose evaluation reached ground_candidates
        "sample_evals": sum(1 for s in result.samples
                            if s.ok or (s.error or "").startswith("NoMinimum")),
        "boundaries": len(result.boundaries),
        "unrefined": sum(1 for b in result.boundaries if b.params and "unrefined" in b.params),
        "events": len(result.events),
    }


def _scan_grid_attr(args, kwargs, result):
    return {"samples": len(result.xs) * len(result.ys)}


def _write_attr(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _cli_attr(args, kwargs, result):
    """The command of a cli.main call; scans split into line and raster."""
    argv = args[0] if args else kwargs["argv"]
    if argv[0] == "scan":
        return {"kind": "scan_raster" if argv.count("--vary") == 2 else "scan_line"}
    return {"kind": argv[0]}


# (module, attribute, span name, attribute recorder)
TARGETS = (
    (catastrophe, "scan_line", "catastrophe.scan_line", _scan_line_attr),
    (catastrophe, "scan_grid", "catastrophe.scan_grid", _scan_grid_attr),
    (catastrophe, "locate_boundary", "catastrophe.locate_boundary", None),
    (spectra, "ground_candidates", "spectra.ground_candidates", None),
    (stationary, "stationary_points", "stationary.stationary_points", None),
    (stationary, "enumerate_stationary", "stationary.enumerate_stationary", None),
    (potentials, "spec_from_raw", "potentials.spec_from_raw", None),
    (potentials, "evaluate", "potentials.evaluate", _points_attr),
    (potentials, "gradient", "potentials.gradient", _points_attr),
    (potentials, "hessian", "potentials.hessian", _points_attr),
    (oracle, "newton_stationary", "oracle.newton_stationary", _newton_attr),
    (oracle, "fd_eigensolve", "oracle.fd_eigensolve", _eigen_attr),
    (oracle, "hamiltonian", "oracle.hamiltonian", None),
    (oracle, "localization", "oracle.localization", None),
    (oracle, "match_stationary", "oracle.match_stationary", None),
    (reports, "write_json", "reports.write_json", _write_attr),
    (reports, "write_csv", "reports.write_csv", _write_attr),
    (cli, "main", "cli.main", _cli_attr),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.enabled = False  # spans are recorded only while set
        self._restore: list = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _replace_everywhere(self, original, wrapper):
        for mod in [m for n, m in sys.modules.items() if n == "polydot" or n.startswith("polydot.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for module, attr, name, attrs in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
                continue
            self._replace_everywhere(original, self.wrap(name, original, attrs))
        # run_verify looks the suites up in verify.SUITES at call time
        self._restore.append((verify, "SUITES", verify.SUITES))
        verify.SUITES = tuple(
            self.wrap("verify." + s.__name__.removeprefix("suite_"), s) for s in verify.SUITES)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def write(self, path, passes, meta):
        """passes: [start, end) span index ranges, one per traced pass."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta, names=names, passes=passes,
                   fields=["name", "start_ns", "end_ns", "parent", "attrs"],
                   spans=[[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

SUITE_NAMES = ("stationary_oracle_agreement", "offaxis_backsubstitution",
               "reality_thresholds", "fd_calibration")
CLI_KINDS = ("analyze", "spectrum", "grid", "scan_line", "scan_raster", "oracle", "verify")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "stationary.enumerations": "count",
    "stationary.enumerate_us": "us",
    "spectra.candidate_calls": "count",
    "spectra.ground_candidates_us": "us",
    "potentials.spec_builds": "count",
    "catastrophe.samples": "count",
    "catastrophe.boundaries": "count",
    "catastrophe.unrefined": "count",
    "catastrophe.evals_per_boundary": "count",
    "catastrophe.evals_per_event": "count",
    "catastrophe.self_ms": "ms",
    "stationary.self_ms": "ms",
    "spectra.self_ms": "ms",
    "oracle.newton_ms": "ms",
    "oracle.newton_seeds": "count",
    "oracle.newton_orbits": "count",
    "oracle.newton_yield": "ratio",
    "oracle.assembly_ms": "ms",
    "oracle.solve_ms": "ms",
    "oracle.unknowns": "count",
    "oracle.localization_ms": "ms",
    "oracle.match_ms": "ms",
    "potentials.eval_calls": "count",
    "potentials.eval_points": "count",
    "potentials.hessian_ns_per_point": "ns",
    "potentials.self_ms": "ms",
    "reports.write_ms": "ms",
    "reports.bytes": "bytes",
    **{f"cli.{k}_ms": "ms" for k in CLI_KINDS},
    **{f"verify.{s}_ms": "ms" for s in SUITE_NAMES},
}


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(spans, lo, hi) -> dict:
    """Per-layer metrics of spans[lo:hi], one whole pass."""
    count: dict = {}
    total: dict = {}
    attr_sum: dict = {}
    child = [0] * (hi - lo)
    for i in range(lo, hi):
        name, t0, t1, parent, attrs = spans[i]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0) + (t1 - t0)
        if parent >= lo:
            child[parent - lo] += t1 - t0
        for key, value in (attrs or {}).items():
            if key == "kind":
                total[f"cli:{value}"] = total.get(f"cli:{value}", 0) + (t1 - t0)
            else:
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
    self_ns: dict = {}
    for i in range(lo, hi):
        layer = spans[i][0].split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + (spans[i][2] - spans[i][1]) - child[i - lo]

    # ground_candidates calls per catastrophe caller: each is one evaluation
    evals = {"catastrophe.locate_boundary": 0, "catastrophe.scan_line": 0}
    for i in range(lo, hi):
        if spans[i][0] != "spectra.ground_candidates":
            continue
        p = spans[i][3]
        while p >= lo and not spans[p][0].startswith("catastrophe."):
            p = spans[p][3]
        if p >= lo and spans[p][0] in evals:
            evals[spans[p][0]] += 1

    def n(name):
        return count.get(name, 0)

    def ms(name):
        return total.get(name, 0) / 1e6

    def a(name, key):
        return attr_sum.get((name, key), 0)

    lines = "catastrophe.scan_line"
    event_evals = max(0, evals[lines] - a(lines, "sample_evals"))
    seeds, orbits = a("oracle.newton_stationary", "seeds"), a("oracle.newton_stationary", "orbits")
    eval_names = ("potentials.evaluate", "potentials.gradient", "potentials.hessian")
    out = {
        "stationary.enumerations": n("stationary.enumerate_stationary"),
        "stationary.enumerate_us": _ratio(ms("stationary.enumerate_stationary") * 1e3,
                                          n("stationary.enumerate_stationary")),
        "spectra.candidate_calls": n("spectra.ground_candidates"),
        "spectra.ground_candidates_us": _ratio(ms("spectra.ground_candidates") * 1e3,
                                               n("spectra.ground_candidates")),
        "potentials.spec_builds": n("potentials.spec_from_raw"),
        "catastrophe.samples": a(lines, "samples") + a("catastrophe.scan_grid", "samples"),
        "catastrophe.boundaries": a(lines, "boundaries"),
        "catastrophe.unrefined": a(lines, "unrefined"),
        "catastrophe.evals_per_boundary": _ratio(evals["catastrophe.locate_boundary"],
                                                 n("catastrophe.locate_boundary")),
        "catastrophe.evals_per_event": _ratio(event_evals, a(lines, "events")),
        "catastrophe.self_ms": self_ns.get("catastrophe", 0) / 1e6,
        "stationary.self_ms": self_ns.get("stationary", 0) / 1e6,
        "spectra.self_ms": self_ns.get("spectra", 0) / 1e6,
        "oracle.newton_ms": ms("oracle.newton_stationary"),
        "oracle.newton_seeds": seeds,
        "oracle.newton_orbits": orbits,
        "oracle.newton_yield": _ratio(orbits, seeds),
        "oracle.assembly_ms": ms("oracle.hamiltonian"),
        "oracle.solve_ms": ms("oracle.fd_eigensolve") - ms("oracle.hamiltonian"),
        "oracle.unknowns": a("oracle.fd_eigensolve", "unknowns"),
        "oracle.localization_ms": ms("oracle.localization"),
        "oracle.match_ms": ms("oracle.match_stationary"),
        "potentials.eval_calls": sum(n(e) for e in eval_names),
        "potentials.eval_points": sum(a(e, "points") for e in eval_names),
        "potentials.hessian_ns_per_point": _ratio(total.get("potentials.hessian", 0),
                                                  a("potentials.hessian", "points")),
        "potentials.self_ms": self_ns.get("potentials", 0) / 1e6,
        "reports.write_ms": ms("reports.write_json") + ms("reports.write_csv"),
        "reports.bytes": a("reports.write_json", "bytes") + a("reports.write_csv", "bytes"),
    }
    for kind in CLI_KINDS:
        out[f"cli.{kind}_ms"] = total.get(f"cli:{kind}", 0) / 1e6
    for suite in SUITE_NAMES:
        out[f"verify.{suite}_ms"] = ms(f"verify.{suite}")
    return out


def median_metrics(per_pass: list) -> dict:
    return {k: float(statistics.median(m[k] for m in per_pass)) for k in per_pass[0]}


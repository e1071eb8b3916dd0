"""The three workloads: inputs made from the seed, the jobs, their checks.

scan      closed-form line scans and rasters (catastrophe -> spectra ->
          stationary -> potentials), one small spec at a time
oracle    Newton search and finite-difference eigensolves: large vectorised
          potential batches and scipy sparse solves
commands  polydot.cli.main in process on a fixed command list, outputs
          written under bench/_out/commands

Every check recomputes what it verifies with the benchmark's own arithmetic
(independent.py) or tests a property the method must have; none compares
against saved program output.  Three checks of the exact scaling symmetry of
the families and one check that a cusp minimum exchange is refined fail
today; they carry the fault they expose and are counted as failed
operations.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.resources
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polydot import catastrophe, cli, oracle, potentials, stationary
from polydot.potentials import characteristic_radius, make_spec, spec_from_raw, with_param

import independent as ind
from harness import Check, Job, Workload
from independent import require

OUT_DIR = Path(__file__).resolve().parent / "_out"

FAULT_POSITIVITY = ("absolute _POSITIVITY_ATOL in stationary.py drops the axis orbits "
                    "of a small-scale spec")
FAULT_EXACT_TIE = ("catastrophe.locate_boundary rejects a bracket whose end gap is exactly 0; "
                   "on the shrunk path a sample is an exact tie, so the classical boundary "
                   "is left unrefined at the bracket midpoint")
FAULT_EXCHANGE = ("catastrophe.locate_boundary cannot refine a cusp minimum exchange: "
                  "the gap is undefined on both sides of the bracket (no common wells), "
                  "so the boundary is left unrefined at the bracket midpoint")
FAULT_NEWTON = ("absolute dedup_tol, snapping and gradient tolerance in "
                "oracle.newton_stationary break a small-scale Newton search")

# step in path coordinates t in [0, 1] used to look either side of a
# refined boundary or event
SIDE_STEP = 1e-5
COVARIANCE_RTOL = 1e-6


def corpus() -> dict:
    """name -> (spec, path of the shipped JSON file)."""
    root = importlib.resources.files("polydot") / "corpus"
    out = {}
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            out[item.name[:-5]] = (potentials.spec_from_json(item.read_text()), str(item))
    return out


_QUADRATIC_KEYS = {"butterfly1d": {"c"}, "butterfly2d": {"c", "d"},
                   "butterfly3d": {"p", "q", "s"}}


def shrink(spec, lam):
    """The spec whose stationary points sit at lam times those of spec: the
    families are exactly covariant under x -> lam x when quartic and cross
    coefficients scale by lam^2 and sextic quadratic ones by lam^4."""
    quad = _QUADRATIC_KEYS.get(spec.family, set())
    raw = {k: v * (lam ** 4 if k in quad else lam ** 2) for k, v in spec.raw.items()}
    return spec_from_raw(spec.family, raw)


def _points(spec):
    return [(p.label, p.location) for p in stationary.stationary_points(spec)]


def own_dominant(spec, kind):
    return ind.dominant(ind.candidates(spec.family, spec.raw, _points(spec)), kind)


def _require_in_ranking(cands, labels, what):
    """(quantum, classical) labels must be among the recomputed lowest."""
    got = (ind.dominant(cands, "quantum"), ind.dominant(cands, "classical"))
    require(labels[0] in got[0] and labels[1] in got[1],
            f"{what}: labels {labels}, recomputed lowest {got}")


def _require_labels(spec, labels, what):
    _require_in_ranking(ind.candidates(spec.family, spec.raw, _points(spec)), labels, what)


def _covariant(scaled, unit, lam, what):
    """Scaled orbit list (label, location) must be the unit list times lam."""
    require(len(scaled) == len(unit),
            f"{what}: {len(scaled)} orbits at scale {lam:g}, {len(unit)} at unit scale")
    tol = COVARIANCE_RTOL * max(1.0, max((max(map(abs, loc)) for _l, loc in unit), default=1.0))
    missing, spurious = ind.orbit_diff([loc for _l, loc in unit],
                                       [tuple(c / lam for c in loc) for _l, loc in scaled], tol)
    require(not missing and not spurious,
            f"{what}: {len(missing)} missing, {len(spurious)} spurious after rescaling")


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    name: str
    spec: object
    varied: tuple
    steps: int
    boundaries: dict  # kind -> count the path is built to cross
    events: int
    fault: str | None = None  # the defect that leaves its boundaries unrefined


def _line_inputs(rng, c):
    readme = make_spec("butterfly1d", alpha=1.5, beta=2.0)
    lines = [
        Line("readme", readme, (("alpha", 1.5, 2.2),), 71, {"quantum": 1, "classical": 1}, 0),
        Line("butterfly1d_center", c["butterfly1d_center"][0], (("alpha", 1.7, 2.3),), 41,
             {"quantum": 1, "classical": 1}, 0),
        Line("butterfly1d_outer", c["butterfly1d_outer"][0], (("beta", 1.6, 2.3),), 41,
             {"quantum": 1, "classical": 1}, 0),
        Line("fig2_butterfly2d", c["fig2_butterfly2d"][0], (("u", -6.0, 4.5),), 41,
             {"quantum": 1}, 2),
        Line("butterfly3d_gamma_x", c["butterfly3d_ordered"][0], (("gamma_x", 1.8, 2.5),), 31,
             {"quantum": 1, "classical": 1}, 0),
        Line("butterfly3d_w", c["butterfly3d_ordered"][0], (("w", -2.0, 3.0),), 31, {}, 2),
        Line("fig1_cusp2d", c["fig1_cusp2d"][0], (("alpha", 1.2, 2.0),), 31, {}, 0),
        # the dominant well moves from the y axis to the x axis at alpha = beta
        Line("fig1_cusp2d_exchange", c["fig1_cusp2d"][0], (("alpha", 0.8, 1.6),), 31,
             {"quantum": 1, "classical": 1}, 0, FAULT_EXCHANGE),
        Line("cusp3d_ordered", c["cusp3d_ordered"][0], (("gamma", 0.5, 1.1),), 31, {}, 0),
    ]
    # seeded paths, one per family, drawn so that each crosses the same
    # boundaries and events whatever the seed
    u = rng.uniform
    beta = u(1.7, 2.3)
    lines.append(Line("random_butterfly1d", make_spec("butterfly1d", alpha=1.5, beta=beta),
                      (("alpha", beta - u(0.4, 0.5), beta + u(0.15, 0.25)),), 51,
                      {"quantum": 1, "classical": 1}, 0))
    b2 = u(0.5, 1.2)
    a2 = b2 * u(1.25, 1.45)
    lines.append(Line("random_cusp2d",
                      spec_from_raw("cusp2d", {"alpha_sq": a2, "beta_sq": b2}),
                      (("alpha", math.sqrt(b2) * u(1.1, 1.2), math.sqrt(b2) * u(1.8, 2.0)),),
                      31, {}, 0))
    g2 = u(0.4, 0.8)
    b2 = g2 + u(0.3, 0.6)
    a2 = b2 + u(0.3, 0.6)
    lines.append(Line("random_cusp3d",
                      spec_from_raw("cusp3d", {"alpha_sq": a2, "beta_sq": b2, "gamma_sq": g2}),
                      (("gamma", 0.5 * math.sqrt(g2), 0.95 * math.sqrt(b2)),), 31, {}, 0))
    # the quantum boundary moves fast with the shape (about 22 per unit alpha)
    alpha, gamma = u(0.99, 1.01), u(1.89, 1.91)
    a = 0.5 * (alpha ** 2 + gamma ** 2)
    lines.append(Line("random_butterfly2d",
                      make_spec("butterfly2d", alpha=alpha, gamma=gamma, u=-6.0),
                      (("u", u(-6.5, -5.5), 2.0 * a - u(0.15, 0.25)),), 41, {"quantum": 1}, 2))
    lines.append(Line("random_butterfly3d", c["butterfly3d_ordered"][0],
                      (("w", u(-2.2, -1.8), u(2.8, 3.2)),), 31, {}, 2))
    return lines


def _t_at(line, location):
    _name, start, end = line.varied[0]
    return (location - start) / (end - start)


def _line_checks(line, path, picks, job_name):
    def structure(results):
        rep = results[job_name]
        require(all(s.ok for s in rep.samples), "invalid samples on the path")
        found = {}
        for b in rep.boundaries:
            found[b.kind] = found.get(b.kind, 0) + 1
        require(found == line.boundaries, f"boundaries {found}, path crosses {line.boundaries}")
        require(len(rep.events) == line.events,
                f"{len(rep.events)} orbit events, path crosses {line.events}")

    def refined(results):
        for b in results[job_name].boundaries:
            require(not (b.params and "unrefined" in b.params), f"unrefined boundary {b.params}")

    def flip(results):
        for b in results[job_name].boundaries:
            t = _t_at(line, b.location)
            below = own_dominant(path.spec_at(t - SIDE_STEP), b.kind)
            above = own_dominant(path.spec_at(t + SIDE_STEP), b.kind)
            l0, l1 = b.pair
            require(l0 in below and l1 not in below and l1 in above and l0 not in above,
                    f"{b.kind} boundary at {b.location!r}: dominant {below} -> {above}, "
                    f"reported {b.pair}")

    def events(results):
        for e in results[job_name].events:
            t = _t_at(line, e.location)
            sides = []
            for tt in (t - SIDE_STEP, t + SIDE_STEP):
                spec = path.spec_at(tt)
                pts = dict(_points(spec))
                if e.label in pts:
                    res = ind.gradient_residual(spec.family, spec.raw, pts[e.label])
                    require(res < 1e-9, f"event orbit {e.label} not stationary ({res:.2e})")
                sides.append(e.label in pts)
            want = [False, True] if e.change == "appears" else [True, False]
            require(sides == want, f"orbit {e.label} {e.change} at {e.location!r}: "
                                   f"present below/above = {sides}")

    def samples(results):
        rep = results[job_name]
        for i in picks:
            s = rep.samples[i]
            spec = path.spec_at(s.t)
            _require_labels(spec, (s.quantum_label, s.classical_label), f"sample {i}")

    return [Check("structure", structure), Check("refined", refined, line.fault),
            Check("flip", flip), Check("events", events), Check("samples", samples)]


def _raster_job(name, spec, vx, vy, resolution, rng):
    picks = [tuple(ij) for ij in rng.integers(0, resolution, size=(12, 2)).tolist()]

    def run(_results):
        return catastrophe.scan_grid(spec, vx, vy, resolution=resolution, workers=1)

    def structure(results):
        m = results[name]
        require(not any(m.errors.ravel()), "invalid raster cells")
        for kind in ("quantum", "classical"):
            require(len(set(m.labels(kind).ravel())) >= 2, f"{kind} raster has one label")
        require(m.boundaries, "no boundary polylines")

    def relabel(results):
        m = results[name]
        for i, j in picks:
            s = with_param(with_param(spec, vx[0], m.xs[i]), vy[0], m.ys[j])
            _require_labels(s, (m.labels_quantum[i, j], m.labels_classical[i, j]),
                            f"cell {(i, j)}")

    desc = {"spec": spec.to_dict(), "x": list(vx), "y": list(vy),
            "resolution": resolution, "relabel": picks}
    return Job(name, run, desc, [Check("structure", structure), Check("relabel", relabel)])


def scan_workload(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    c = corpus()
    jobs = []
    for line in _line_inputs(rng, c):
        path = catastrophe.ParamPath(spec=line.spec, varied=line.varied, steps=line.steps)
        name = f"line_{line.name}"
        picks = sorted(rng.choice(line.steps, size=6, replace=False).tolist())
        desc = {"spec": line.spec.to_dict(), "varied": [list(v) for v in line.varied],
                "steps": line.steps, "relabel": picks}
        jobs.append(Job(name, lambda _r, p=path: catastrophe.scan_line(p, workers=1), desc,
                        _line_checks(line, path, picks, name)))

    lam = 0.01
    shrunk = catastrophe.ParamPath(spec=make_spec("butterfly1d", alpha=1.5 * lam, beta=2.0 * lam),
                                   varied=(("alpha", 1.5 * lam, 2.2 * lam),), steps=71)

    def shrunk_covariance(results):
        # only the classical boundary: zero-point energy is not scale covariant
        unit = [("classical", (b.location,)) for b in results["line_readme"].boundaries
                if b.kind == "classical"]
        scaled = [("classical", (b.location,)) for b in results["line_readme_shrunk"].boundaries
                  if b.kind == "classical"]
        _covariant(scaled, unit, lam, "classical boundary")

    jobs.append(Job("line_readme_shrunk", lambda _r: catastrophe.scan_line(shrunk, workers=1),
                    {"lambda": lam, "of": "line_readme"},
                    [Check("scale_covariance", shrunk_covariance, FAULT_EXACT_TIE)]))

    tiny = make_spec("butterfly1d", alpha=1.3e-7, beta=0.9e-7)
    unit = make_spec("butterfly1d", alpha=1.3, beta=0.9)

    def tiny_covariance(results):
        small, big = results["enumerate_tiny"]
        _covariant(small, big, 1e-7, "stationary orbits")
        require([p[0] for p in small] == [p[0] for p in big], "labels differ")

    jobs.append(Job("enumerate_tiny", lambda _r: (_points(tiny), _points(unit)),
                    {"tiny": tiny.to_dict(), "unit": unit.to_dict(), "lambda": 1e-7},
                    [Check("scale_covariance", tiny_covariance, FAULT_POSITIVITY)]))

    jobs.append(_raster_job("raster_readme", make_spec("butterfly1d", alpha=1.0, beta=1.0),
                            ("alpha", 0.5, 2.5), ("beta", 0.5, 2.5), 21, rng))
    jobs.append(_raster_job("raster_butterfly3d", c["butterfly3d_ordered"][0],
                            ("gamma_x", 1.8, 2.5), ("gamma_y", 1.7, 2.3), 11, rng))
    return Workload("scan", jobs)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def seed_grid(spec):
    """The seed grid the oracle command uses."""
    return oracle.GridSpec(extent=1.6 * characteristic_radius(spec),
                           n={1: 64, 2: 21, 3: 17}[spec.dimension])


def _newton_checks(name, spec, closed):
    radius = 10.0 * characteristic_radius(spec)

    def stationary_check(results):
        for p in results[name]:
            res = ind.gradient_residual(spec.family, spec.raw, p.location)
            require(res < 1e-9, f"orbit {p.location} residual {res:.2e}")

    def closed_form(results):
        found = [p.location for p in results[name] if max(map(abs, p.location)) <= radius]
        missing, spurious = ind.orbit_diff(closed, found, 1e-8)
        require(not missing and not spurious,
                f"{len(missing)} missing, {len(spurious)} spurious vs closed form")

    return [Check("stationary", stationary_check), Check("closed_form", closed_form)]


def _eigen_grid(grid, dim):
    """Spacings and (..., dim) node mesh rebuilt from the grid's extent and n."""
    axes = [ind.axis_grid(grid.axis_extent(i), grid.axis_n(i)) for i in range(dim)]
    mesh = np.stack(np.meshgrid(*(xs for xs, _dx in axes), indexing="ij"), axis=-1)
    return [dx for _xs, dx in axes], mesh


def _residual_check(name, potential_fn, grid, dim):
    def residual(results):
        sol = results[name]
        spacings, mesh = _eigen_grid(grid, dim)
        v = potential_fn(mesh)
        require(list(sol.energies) == sorted(sol.energies), "energies not ascending")
        for e, psi in zip(sol.energies, sol.states):
            r = ind.pair_residual(psi, e, v, spacings)
            require(r < 1e-6 * max(1.0, abs(e)), f"pair at E={e!r}: residual {r:.2e}")
    return Check("residual", residual)


def _levels_check(name, per_axis_fns, grid, k, check_name, rtol):
    def levels(results):
        sol = results[name]
        per_axis = []
        for i, fn in enumerate(per_axis_fns):
            xs, dx = ind.axis_grid(grid.axis_extent(i), grid.axis_n(i))
            per_axis.append(ind.tridiagonal_levels(fn(xs), dx, k))
        want = ind.separable_levels(per_axis, k)
        got = np.asarray(sol.energies)
        require(len(got) == k and np.allclose(got, want, rtol=rtol, atol=0.0),
                f"energies {got.tolist()} vs stencil levels {want.tolist()}")
    return Check(check_name, levels)


def _localization_job(name, sol_name, wells, n_states):
    def run(results):
        sol = results[sol_name]
        return [oracle.localization(sol, wells, state=i) for i in range(n_states)]

    def weights(results):
        labels = {w.label for w in wells}
        for lw in results[name]:
            require(set(lw.weights) == labels, f"weights for {sorted(lw.weights)}")
            w = np.array(list(lw.weights.values()))
            require(np.all((w >= 0.0) & (w <= 1.0)), f"weights {w.tolist()} outside [0, 1]")
            require(w.sum() <= 1.0 + 1e-9, f"weights sum to {w.sum()!r} > 1")
            require(abs(lw.leftover - (1.0 - w.sum())) < 1e-9, "leftover inconsistent")

    return Job(name, run, {"eigensolve": sol_name, "states": n_states,
                           "wells": [w.label for w in wells]}, [Check("weights", weights)])


def oracle_workload(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    c = corpus()
    specs = {name: spec for name, (spec, _path) in c.items()}
    u = rng.uniform
    b2 = u(0.2, 1.5)
    specs["random_cusp2d"] = spec_from_raw("cusp2d", {"alpha_sq": b2 + u(0.2, 1.5),
                                                      "beta_sq": b2})
    shape = {}
    for ax in ("x", "y"):
        al, be = u(0.5, 2.0), u(0.3, 1.5)
        shape.update({f"alpha_{ax}_sq": al, f"beta_{ax}_sq": be, f"gamma_{ax}_sq": al + 2 * be})
    raw = potentials.shape_to_raw("butterfly2d", shape)
    raw["u"] = u(-3.0, 2.0 * min(raw["a"], raw["b"]) - 0.1)
    specs["random_butterfly2d"] = spec_from_raw("butterfly2d", raw)

    jobs = []
    closed_all = {}
    for name, spec in specs.items():
        closed_all[name] = (spec, stationary.stationary_points(spec))
        grid = seed_grid(spec)
        jname = f"newton_{name}"
        jobs.append(Job(jname, lambda _r, s=spec, g=grid: oracle.newton_stationary(s, g),
                        {"spec": spec.to_dict(), "seeds": grid.size(spec.dimension)},
                        _newton_checks(jname, spec, [p.location for p in closed_all[name][1]])))

    lam = 1e-5
    shrunk = shrink(specs["fig2_butterfly2d"], lam)
    shrunk_grid = seed_grid(shrunk)

    def newton_covariance(results):
        scaled = [("", p.location) for p in results["newton_fig2_butterfly2d_shrunk"]]
        unit = [("", p.location) for p in results["newton_fig2_butterfly2d"]]
        _covariant(scaled, unit, lam, "Newton orbits")

    jobs.append(Job("newton_fig2_butterfly2d_shrunk",
                    lambda _r: oracle.newton_stationary(shrunk, shrunk_grid),
                    {"spec": shrunk.to_dict(), "lambda": lam},
                    [Check("scale_covariance", newton_covariance, FAULT_NEWTON)]))

    def match_all(results):
        out = {}
        for name, (spec, closed) in closed_all.items():
            out[name] = oracle.match_stationary(closed, results[f"newton_{name}"], 1e-8,
                                                10.0 * characteristic_radius(spec))
        return out

    def match_agrees(results):
        for name, (missing, spurious) in results["match_closed_form"].items():
            require(not missing and not spurious,
                    f"{name}: match_stationary reports {len(missing)} missing, "
                    f"{len(spurious)} spurious; the benchmark's diff finds none")

    jobs.append(Job("match_closed_form", match_all, {"specs": sorted(closed_all)},
                    [Check("agrees", match_agrees)]))

    # finite-difference eigensolves
    b1 = specs["butterfly1d_center"]
    g1 = oracle.GridSpec(extent=1.6 * characteristic_radius(b1), n=3001)
    jobs.append(Job("fd1d_butterfly1d", lambda _r: oracle.fd_eigensolve(b1, g1, k=3),
                    {"spec": b1.to_dict(), "n": 3001, "k": 3},
                    [_levels_check("fd1d_butterfly1d",
                                   [lambda x: ind.potential(b1.family, b1.raw, x[:, None])],
                                   g1, 3, "tridiagonal", 1e-8)]))

    def quartic_1d(x):
        return x ** 2 + 0.1 * x ** 4

    gq = oracle.GridSpec(extent=8.0, n=2001)
    jobs.append(Job("fd1d_callable", lambda _r: oracle.fd_eigensolve(quartic_1d, gq, k=3, dim=1),
                    {"potential": "x^2 + 0.1 x^4", "n": 2001, "k": 3},
                    [_levels_check("fd1d_callable", [quartic_1d], gq, 3, "tridiagonal", 1e-8)]))

    eigen_2d = {}
    for name, extent in (("fig1_cusp2d", 2.6), ("fig2_butterfly2d", 2.6)):
        spec = specs[name]
        grid = oracle.GridSpec(extent=extent, n=91)
        jname = f"fd2d_{name}"
        eigen_2d[name] = jname
        jobs.append(Job(jname, lambda _r, s=spec, g=grid: oracle.fd_eigensolve(s, g, k=4),
                        {"spec": spec.to_dict(), "n": 91, "k": 4},
                        [_residual_check(jname, lambda m, s=spec: ind.potential(s.family, s.raw, m),
                                         grid, 2)]))

    axis_fns = (lambda x: x ** 2, lambda x: 1.7 * x ** 2 + 0.2 * x ** 4, lambda x: 2.3 * x ** 2)

    def separable(dim):
        return lambda mesh: sum(axis_fns[i](mesh[..., i]) for i in range(dim))

    gs2 = oracle.GridSpec(extent=(6.0, 5.0), n=(81, 71))
    jobs.append(Job("fd2d_separable", lambda _r: oracle.fd_eigensolve(separable(2), gs2, k=4, dim=2),
                    {"potential": "x^2 + 1.7 y^2 + 0.2 y^4", "n": [81, 71], "k": 4},
                    [_levels_check("fd2d_separable", axis_fns[:2], gs2, 4, "separable", 1e-8)]))

    c3 = specs["cusp3d_ordered"]
    g3 = oracle.GridSpec(extent=2.4, n=19)
    jobs.append(Job("fd3d_cusp3d", lambda _r: oracle.fd_eigensolve(c3, g3, k=2),
                    {"spec": c3.to_dict(), "n": 19, "k": 2},
                    [_residual_check("fd3d_cusp3d", lambda m: ind.potential(c3.family, c3.raw, m),
                                     g3, 3)]))
    gs3 = oracle.GridSpec(extent=(5.0, 4.5, 4.0), n=17)
    jobs.append(Job("fd3d_separable", lambda _r: oracle.fd_eigensolve(separable(3), gs3, k=2, dim=3),
                    {"potential": "x^2 + 1.7 y^2 + 0.2 y^4 + 2.3 z^2", "n": 17, "k": 2},
                    [_levels_check("fd3d_separable", axis_fns, gs3, 2, "separable", 1e-7)]))

    for name, jname in eigen_2d.items():
        wells = [p for p in closed_all[name][1] if p.kind == "minimum"]
        jobs.append(_localization_job(f"localization_{name}", jname, wells, 4))
    return Workload("oracle", jobs)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    exit_code: int  # as documented in the CLI help and README
    files: tuple


def _command_inputs(seed, rng, c):
    cmds = []
    for name, (_spec, path) in c.items():
        cmds.append(Command(f"analyze_{name}", ("analyze", "--spec", path), 0,
                            ("stationary.csv", "stationary.json")))
        cmds.append(Command(f"spectrum_{name}", ("spectrum", "--spec", path), 0,
                            ("spectrum.csv", "spectrum.json")))
    alpha, beta = rng.uniform(1.6, 2.4, size=2)
    inline = ("--family", "butterfly1d", "--alpha", repr(float(alpha)), "--beta", repr(float(beta)))
    cmds += [
        Command("analyze_random", ("analyze",) + inline, 0, ("stationary.csv", "stationary.json")),
        Command("spectrum_random", ("spectrum",) + inline, 0, ("spectrum.csv", "spectrum.json")),
        # x axis has a^2 < c: skipped with a warning, exit 2
        Command("analyze_skipped_axis",
                ("analyze", "--family", "butterfly2d", "--a", "1", "--b", "2.305",
                 "--c", "3.61", "--d", "3.61", "--u", "0"),
                2, ("stationary.csv", "stationary.json")),
        # usage error: a scan without --vary, exit 1 and no output
        Command("scan_without_vary", ("scan", "--family", "butterfly1d", "--alpha", "1.5",
                                      "--beta", "2"), 1, ()),
        Command("grid_readme", ("grid", "--family", "butterfly2d", "--alpha", "1", "--gamma", "1.9",
                                "--u", "-5.3333333", "--grid-L", "3", "--grid-n", "121",
                                "--clip", "7.5"), 0, ("grid.csv",)),
        Command("scan_line_readme", ("scan", "--family", "butterfly1d", "--alpha", "1.5",
                                     "--beta", "2", "--vary", "alpha:1.5:2.2", "--steps", "31"),
                0, ("boundaries.json", "scan.csv", "scan.json")),
        Command("scan_raster_readme", ("scan", "--family", "butterfly1d", "--alpha", "1",
                                       "--beta", "1", "--vary", "alpha:0.5:2.5",
                                       "--vary", "beta:0.5:2.5", "--resolution", "15"),
                0, ("raster_classical.csv", "raster_polylines.json", "raster_quantum.csv")),
        Command("oracle_cusp2d", ("oracle", "--family", "cusp2d", "--alpha", "2", "--beta", "1",
                                  "--k", "3", "--grid-n", "61", "--grid-L", "5"),
                0, ("eigen.csv", "oracle.json")),
        Command("verify", ("verify", "--seed", str(seed)), 0, ("verify.json",)),
    ]
    return cmds


def _run_cli(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(list(argv))
        except SystemExit as err:  # argparse usage errors
            return err.code


def _read_outputs(out_dir):
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _command_job(cmd, first_digests):
    out_dir = OUT_DIR / "commands" / cmd.name
    argv = cmd.argv + ("--out", str(out_dir))

    def exit_code(results):
        got = results[cmd.name]
        require(got == cmd.exit_code, f"exit code {got}, documented {cmd.exit_code}")

    def outputs(results):
        files = _read_outputs(out_dir)
        require(tuple(files) == cmd.files, f"outputs {sorted(files)}, expected {list(cmd.files)}")
        for fname, data in files.items():
            text = data.decode()
            if fname.endswith(".json"):
                json.loads(text)
            else:
                rows = list(csv.reader(io.StringIO(text)))
                require(rows and all(rows), f"{fname}: empty CSV or blank rows")
        digest = hashlib.sha256(b"".join(files.values())).hexdigest()
        first = first_digests.setdefault(cmd.name, digest)
        require(digest == first, "output bytes differ from the first pass")

    checks = [Check("exit_code", exit_code), Check("outputs", outputs)]
    if cmd.argv[0] == "analyze":
        def stationary_json(results):
            data = json.loads((out_dir / "stationary.json").read_text())
            for p in data["points"]:
                res = ind.gradient_residual(data["spec"]["family"], data["spec"]["raw"],
                                            p["location"])
                require(res < 1e-9, f"{p['label']} residual {res:.2e}")
        checks.append(Check("stationary", stationary_json))
    elif cmd.argv[0] == "spectrum":
        analyze_dir = OUT_DIR / "commands" / cmd.name.replace("spectrum_", "analyze_", 1)

        def dominant(results):
            data = json.loads((out_dir / "spectrum.json").read_text())
            points = json.loads((analyze_dir / "stationary.json").read_text())["points"]
            spec = data["spec"]
            cands = ind.candidates(spec["family"], spec["raw"],
                                   [(p["label"], p["location"]) for p in points])
            _require_in_ranking(cands, (data["dominant"]["label"],
                                        data["classical_argmin"]["label"]), "spectrum.json")
        checks.append(Check("dominant", dominant))
    elif cmd.argv[0] == "verify":
        def passed(results):
            verdict = json.loads((out_dir / "verify.json").read_text())
            require(verdict["passed"] is True, "verify.json does not report passed")
        checks.append(Check("passed", passed))
    return Job(cmd.name, lambda _r: _run_cli(argv), {"argv": list(cmd.argv)}, checks)


def commands_workload(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cmds = _command_inputs(seed, rng, corpus())
    first_digests: dict = {}

    def prepare():
        shutil.rmtree(OUT_DIR / "commands", ignore_errors=True)

    return Workload("commands", [_command_job(cmd, first_digests) for cmd in cmds], prepare)


WORKLOADS = {"scan": scan_workload, "oracle": oracle_workload, "commands": commands_workload}


def describe(workload: Workload) -> str:
    """Canonical JSON of every job's inputs (equal seeds give equal text)."""
    return json.dumps([[j.name, j.desc] for j in workload.jobs], sort_keys=True)

"""Self-contained verification suites behind the ``verify`` CLI command.

Four suites cross-check the closed forms against independent numerics:

1. stationary_oracle_agreement - closed-form enumeration vs the grid-seeded
   Newton search on the shipped corpus specs (diff tolerance 1e-8).
2. offaxis_backsubstitution - randomized in-plane/bulk roots plugged back
   into the stationarity equations (gradient residual 1e-9, radius identity
   1e-10); failures name the responsible routine.
3. reality_thresholds - bisection on the bulk-existence predicates against
   their closed-form constants and randomized criterion checks.
4. fd_calibration - harmonic levels {1, 3, 5} and the O(dx^2) convergence
   slope of the finite-difference eigensolver.

A suite takes the seeded generator and returns its details, which hold a
``failures`` list; run_verify adds the name and ``passed``.  A fixed seed
gives a byte-identical verdict file.
"""

from __future__ import annotations

import importlib.resources
import json
import math

import numpy as np

from . import potentials, stationary
from .oracle import GridSpec, fd_eigensolve, match_stationary, newton_stationary
from .potentials import spec_from_dict
from .stationary import (
    SMALL_COUPLING_THRESHOLD,
    bulk_reality_large_couplings,
    bulk_reality_small_couplings,
)

ORACLE_DIFF_TOL = 1e-8
RESIDUAL_TOL = 1e-9
RADIUS_IDENTITY_TOL = 1e-10
_OFFAXIS_DRAWS = 60  # per dimension
_REALITY_DRAWS = 40


def corpus_specs() -> dict:
    """The shipped spec corpus, name -> PotentialSpec."""
    out = {}
    root = importlib.resources.files("polydot") / "corpus"
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            out[item.name[:-5]] = spec_from_dict(json.loads(item.read_text()))
    return out


def _oracle_grid(spec, extent=None) -> GridSpec:
    """The Newton seed grid, of half-width extent (by default 1.6
    characteristic radii)."""
    L = 1.6 * potentials.characteristic_radius(spec) if extent is None else extent
    n = {1: 64, 2: 21, 3: 17}[spec.dimension]
    return GridSpec(extent=L, n=n)


def oracle_agreement(spec, extent=None) -> tuple[list, list, list]:
    """(found, missing, spurious) of the Newton search from the seed grid
    against the closed form, matched within ten characteristic radii."""
    found = newton_stationary(spec, _oracle_grid(spec, extent))
    radius = 10.0 * potentials.characteristic_radius(spec)
    missing, spurious = match_stationary(stationary.stationary_points(spec), found,
                                         ORACLE_DIFF_TOL, radius)
    return found, missing, spurious


def _culprit(spec, point) -> str:
    if point.subfamily in ("origin",) or point.subfamily.startswith("axis"):
        return "on_axis_roots"
    if spec.family == "butterfly2d":
        return "off_axis_roots_2d"
    return "off_axis_roots_3d"


def suite_stationary_oracle_agreement(rng) -> dict:
    failures = []
    specs = corpus_specs()
    for name, spec in specs.items():
        _found, missing, spurious = oracle_agreement(spec)
        for p in missing:
            failures.append(
                f"{name}: {_culprit(spec, p)} orbit at {p.location} not found by the oracle"
            )
        for p in spurious:
            failures.append(
                f"{name}: oracle found an orbit at {p.location} missing from the closed form"
            )
    return {"specs_checked": len(specs), "failures": failures}


def _draw_shape(rng, axes, alpha_range, beta_range):
    """Shape view with per-axis alpha^2 and beta^2 drawn uniformly."""
    shape = {}
    for ax in axes:
        shape[f"alpha_{ax}_sq"] = rng.uniform(*alpha_range)
        shape[f"beta_{ax}_sq"] = rng.uniform(*beta_range)
    return shape


def _draw_butterfly2d(rng, want_roots=False):
    raw = potentials.shape_to_raw("butterfly2d", _draw_shape(rng, "xy", (0.5, 2.0), (0.3, 1.5)))
    hi = 2.0 * min(raw["a"], raw["b"]) - 0.05
    if want_roots:
        # sweep the coupling for a value with live in-plane roots
        candidates = []
        for u in np.linspace(-3.0, hi, 48):
            raw["u"] = float(u)
            spec = potentials.spec_from_raw("butterfly2d", raw)
            if stationary.off_axis_roots_2d(spec):
                candidates.append(spec)
        if candidates:
            return candidates[int(rng.integers(len(candidates)))]
    raw["u"] = rng.uniform(-3.0, hi)
    return potentials.spec_from_raw("butterfly2d", raw)


def _draw_butterfly3d(rng, strong_coupling=False):
    if strong_coupling:
        # cross couplings dominate the quartic diagonals: bulk roots live here
        p, q, s = rng.uniform(1.0, 3.0, size=3)
        u = math.sqrt(3.0 * (p + q + s)) * rng.uniform(1.05, 1.3)
        raw = dict(
            a=rng.uniform(0.0, 0.3), b=rng.uniform(0.0, 0.3), c=rng.uniform(0.0, 0.3),
            u=u, v=u, w=u, p=p, q=q, s=s,
        )
        return potentials.spec_from_raw("butterfly3d", raw)
    raw = potentials.shape_to_raw("butterfly3d", _draw_shape(rng, "xyz", (0.4, 1.8), (0.3, 1.4)))
    for key in ("u", "v", "w"):
        raw[key] = rng.uniform(-0.8, 0.8)
    return potentials.spec_from_raw("butterfly3d", raw)


def _residual_scale(location):
    return 1.0 + max(abs(c) for c in location) ** 5


def suite_offaxis_backsubstitution(rng) -> dict:
    failures = []
    details = {}
    for dim, draw, roots in ((2, _draw_butterfly2d, stationary.off_axis_roots_2d),
                             (3, _draw_butterfly3d, stationary.off_axis_roots_3d)):
        routine = f"off_axis_roots_{dim}d"
        details[f"roots_{dim}d"] = 0
        for i in range(_OFFAXIS_DRAWS):
            spec = draw(rng, i % 2 == 0)
            for root in roots(spec):
                details[f"roots_{dim}d"] += 1
                squares, r2 = root[:dim], root[dim]
                where = f"at {spec.raw}" if dim == 2 else f"({root[-1]})"
                if abs(sum(squares) - r2) > RADIUS_IDENTITY_TOL * max(1.0, r2):
                    failures.append(f"{routine}: radius identity broken {where}")
                    continue
                loc = tuple(math.sqrt(sq) for sq in squares)
                res = float(np.max(np.abs(potentials.gradient(spec, loc))))
                if res > RESIDUAL_TOL * _residual_scale(loc):
                    failures.append(f"{routine}: gradient residual {res:.2e} {where}")
    return {**details, "failures": failures}


def bisect_small_coupling_threshold() -> float:
    """80 bisection steps on the bulk-existence predicate over [0.2, 0.3],
    independent of the closed-form constant."""
    lo, hi = 0.2, 0.3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bulk_reality_small_couplings(mid)[0]:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def suite_reality_thresholds(rng) -> dict:
    failures = []
    xi_star = bisect_small_coupling_threshold()
    if abs(xi_star - SMALL_COUPLING_THRESHOLD) > 1e-9:
        failures.append(
            f"small-coupling threshold bisection {xi_star!r} vs closed form "
            f"{SMALL_COUPLING_THRESHOLD!r}"
        )
    for _ in range(_REALITY_DRAWS):
        p, q, s = rng.uniform(1.0, 3.0, size=3)
        bound = math.sqrt(3.0 * (p + q + s))
        u = bound * rng.uniform(0.7, 1.4)
        predicted, _b = bulk_reality_large_couplings(u, p, q, s)
        disc = 4.0 * u * u - 12.0 * (p + q + s)
        actually_real = disc >= 0.0 and u > 0.0
        if predicted != actually_real:
            failures.append(
                f"large-coupling criterion mismatch at u={u:g}, p+q+s={p + q + s:g}"
            )
            continue
        if predicted:
            # corrected isotropic quadratic: both roots positive and the
            # reconstructed squares satisfy the reduced equations
            root = math.sqrt(disc) / 6.0
            for r2 in ((u / 3.0) - root, (u / 3.0) + root):
                if r2 <= 0.0:
                    failures.append(f"nonpositive root {r2:g} at u={u:g}")
                    continue
                r4 = r2 * r2
                sq = np.array([
                    (r4 + q + s - p), (r4 + p + s - q), (r4 + p + q - s)
                ]) / (2.0 * u)
                eqs = np.array([
                    r4 - u * (sq[1] + sq[2]) + p,
                    r4 - u * (sq[0] + sq[2]) + q,
                    r4 - u * (sq[0] + sq[1]) + s,
                ])
                closure = sq.sum() - r2
                if np.max(np.abs(eqs)) > RESIDUAL_TOL * max(1.0, r4) or \
                        abs(closure) > RESIDUAL_TOL * max(1.0, r2):
                    failures.append(
                        f"corrected-quadratic back-substitution failed at u={u:g}"
                    )
    return {"xi_star": xi_star, "draws": _REALITY_DRAWS, "failures": failures}


def suite_fd_calibration(rng) -> dict:
    failures = []
    sol = fd_eigensolve(lambda x: x ** 2, GridSpec(extent=10.0, n=2001), k=3, dim=1)
    for i, target in enumerate((1.0, 3.0, 5.0)):
        if abs(sol.energies[i] - target) > 1e-3:
            failures.append(
                f"harmonic level {i}: {sol.energies[i]!r} vs {target}"
            )
    errs = []
    for n in (250, 500, 1000):
        s = fd_eigensolve(lambda x: x ** 2, GridSpec(extent=10.0, n=n), k=1, dim=1)
        errs.append(abs(s.energies[0] - 1.0))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    for r in ratios:
        if not (0.8 * 4.0 <= r <= 1.2 * 4.0):
            failures.append(f"convergence ratio {r:g} outside 4 +- 20%")
    return {"levels": list(sol.energies), "errors": errs, "ratios": ratios, "failures": failures}


SUITES = (
    suite_stationary_oracle_agreement,
    suite_offaxis_backsubstitution,
    suite_reality_thresholds,
    suite_fd_calibration,
)


def run_verify(seed: int = 0) -> dict:
    """Run every suite; deterministic verdict for a fixed seed."""
    rng = np.random.default_rng(seed)
    suites = []
    for suite in SUITES:
        details = suite(rng)
        suites.append({"name": suite.__name__.removeprefix("suite_"),
                       "passed": not details["failures"], "details": details})
    return {
        "seed": seed,
        "passed": all(s["passed"] for s in suites),
        "suites": suites,
    }

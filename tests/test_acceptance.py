"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its runtime against the stated limit.  Tolerances are pinned
here, not configurable."""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from polydot import cli, potentials
from polydot.catastrophe import CLASSICAL, QUANTUM, ParamPath, locate_boundary
from polydot.oracle import (
    GridSpec,
    fd_eigensolve,
    localization,
    match_stationary,
    newton_stationary,
    richardson_ground_energies,
)
from polydot.potentials import make_spec, spec_from_raw
from polydot.spectra import dominant_minimum
from polydot.stationary import (
    SMALL_COUPLING_THRESHOLD,
    bulk_reality_large_couplings,
    bulk_roots_3d,
    off_axis_roots_2d,
    off_axis_roots_3d,
    quadratic_aux,
    stationary_points,
)
from polydot.verify import bisect_small_coupling_threshold

from helpers import draw_butterfly2d_with_roots, draw_butterfly3d_ordered

SQRT3 = math.sqrt(3.0)


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < limit_s else "FAIL (runtime)"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({dt:.1f}s, limit {limit_s:g}s)")
    assert dt < limit_s


def residual(spec, coords):
    scale = 1.0 + max(abs(c) for c in coords) ** 5
    return float(np.max(np.abs(potentials.gradient(spec, coords)))) / scale


def test_01_quartic_3d_stationary_table():
    with criterion(1, "quartic 3D stationary table", 5.0):
        rng = np.random.default_rng(1001)
        for _ in range(50):
            g2 = rng.uniform(0.4, 1.2)
            b2 = g2 + rng.uniform(0.3, 1.0)
            a2 = b2 + rng.uniform(0.3, 1.0)
            spec = spec_from_raw("cusp3d",
                                 dict(alpha_sq=a2, beta_sq=b2, gamma_sq=g2))
            pts = stationary_points(spec)
            assert len(pts) == 4
            assert sum(p.multiplicity for p in pts) == 7
            got = {p.label: p for p in pts}
            expect = [
                ("origin", 0.0, "maximum"),
                ("axis_z", -g2 * g2, "saddle"),
                ("axis_y", -b2 * b2, "saddle"),
                ("axis_x", -a2 * a2, "minimum"),
            ]
            for label, value, kind in expect:
                assert got[label].kind == kind
                assert got[label].value == pytest.approx(value, rel=1e-12, abs=1e-12)
            found = newton_stationary(spec, GridSpec(extent=1.3 * math.sqrt(a2), n=7),
                                      max_iter=30)
            missing, spurious = match_stationary(pts, found, 1e-8,
                                                 10.0 * math.sqrt(a2))
            assert not missing and not spurious


def test_02_sextic_3d_on_axis_table():
    with criterion(2, "sextic 3D on-axis table", 5.0):
        rng = np.random.default_rng(1002)
        for _ in range(50):
            spec, shape = draw_butterfly3d_ordered(rng)
            got = {p.label: p for p in stationary_points(spec)}
            assert got["origin"].kind == "minimum"
            assert got["origin"].value == 0.0
            for ax in "xyz":
                al = shape[f"alpha_{ax}_sq"]
                be = shape[f"beta_{ax}_sq"]
                ga = shape[f"gamma_{ax}_sq"]
                inner = got[f"axis_{ax}_inner"]
                assert inner.value == pytest.approx(al * al * (al + 3 * be),
                                                    rel=1e-10)
                assert inner.kind == "saddle"
                outer = got[f"axis_{ax}_outer"]
                assert outer.value == pytest.approx((al - be) * ga * ga, rel=1e-10)
                # kind left to the numerical Hessian: only sanity-check it
                assert outer.kind in ("saddle", "minimum")


def test_03_in_plane_quadratic_correctness():
    with criterion(3, "in-plane quadratic back-substitution", 2.0):
        rng = np.random.default_rng(1003)
        total = 0
        for _ in range(200):
            spec = draw_butterfly2d_with_roots(rng)
            roots = off_axis_roots_2d(spec)
            assert roots
            for x2, y2, r2 in roots:
                total += 1
                assert abs(x2 + y2 - r2) <= 1e-10 * max(1.0, r2)
                assert residual(spec, (math.sqrt(x2), math.sqrt(y2))) < 1e-9
        assert total >= 200
        fig2 = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-16.0 / 3.0)
        assert quadratic_aux(fig2).disc == pytest.approx(-0.579, abs=1e-3)
        assert off_axis_roots_2d(fig2) == []


def test_04_3d_linear_system_and_planar_reduction():
    with criterion(4, "3D stationarity system closure", 5.0):
        rng = np.random.default_rng(1004)
        total = 0
        for i in range(200):
            if i % 4 == 0:
                spec2 = draw_butterfly2d_with_roots(rng)
                raw2 = spec2.raw
                spec = spec_from_raw("butterfly3d", dict(
                    a=raw2["a"], b=raw2["b"], c=rng.uniform(0.5, 2.0),
                    u=raw2["u"], v=rng.uniform(-0.4, 0.4),
                    w=rng.uniform(-0.4, 0.4),
                    p=raw2["c"], q=raw2["d"], s=rng.uniform(0.5, 3.0)))
            elif i % 4 == 1:
                p_, q_, s_ = rng.uniform(1.0, 3.0, size=3)
                u_ = math.sqrt(3 * (p_ + q_ + s_)) * rng.uniform(1.05, 1.3)
                spec = spec_from_raw("butterfly3d", dict(
                    a=rng.uniform(0.0, 0.3), b=rng.uniform(0.0, 0.3),
                    c=rng.uniform(0.0, 0.3), u=u_, v=u_, w=u_,
                    p=p_, q=q_, s=s_))
            else:
                from helpers import draw_butterfly3d
                spec = draw_butterfly3d(rng)
            entries = off_axis_roots_3d(spec)
            for x2, y2, z2, r2, subfamily in entries:
                total += 1
                assert abs(x2 + y2 + z2 - r2) <= 1e-10 * max(1.0, r2)
                loc = tuple(math.sqrt(v) for v in (x2, y2, z2))
                assert residual(spec, loc) < 1e-9, (spec.raw, subfamily)
            # the z = 0 planar entries coincide with the 2D formula bitwise
            raw = spec.raw
            flat = off_axis_roots_2d(spec_from_raw("butterfly2d", dict(
                a=raw["a"], b=raw["b"], c=raw["p"], d=raw["q"], u=raw["u"])))
            planar = sorted((x2, y2, r2) for x2, y2, z2, r2, sub in entries
                            if sub == "plane_xy")
            assert len(planar) == len(flat)
            for got, ref in zip(planar, sorted(flat)):
                assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12
        assert total >= 100


def test_05_weak_coupling_existence_threshold():
    with criterion(5, "weak-coupling existence threshold", 10.0):
        xi_star = bisect_small_coupling_threshold()
        assert xi_star == pytest.approx(0.2462928572, abs=1e-9)
        assert xi_star == pytest.approx(SMALL_COUPLING_THRESHOLD, abs=1e-12)
        # the Newton oracle finds/loses the bulk orbit across the threshold
        beta = 1.0
        for dxi in (-0.03, -0.015, -0.005, 0.01, 0.02):
            xi = SMALL_COUPLING_THRESHOLD + dxi
            alpha = xi * beta
            a = alpha**2 + beta**2
            p = alpha**2 * (alpha**2 + 2 * beta**2)
            spec = spec_from_raw("butterfly3d", dict(
                a=a, b=a, c=a, u=0.0, v=0.0, w=0.0, p=p, q=p, s=p))
            gamma = math.sqrt(alpha**2 + 2 * beta**2)
            found = newton_stationary(spec, GridSpec(extent=1.5 * gamma, n=17))
            bulk = [pt for pt in found if min(abs(c) for c in pt.location) > 1e-6]
            closed = bulk_roots_3d(spec)
            assert (len(bulk) > 0) == (dxi < 0), dxi
            assert (len(closed) == 2) == (dxi < 0), dxi
            got = sorted(pt.location[0] for pt in bulk)
            ref = sorted(math.sqrt(r[0]) for r in closed)
            assert got == pytest.approx(ref, abs=1e-8)


def test_06_strong_coupling_corrected_quadratic():
    with criterion(6, "strong-coupling corrected quadratic", 2.0):
        rng = np.random.default_rng(1006)
        reals = fakes = 0
        for _ in range(100):
            p, q, s = rng.uniform(1.0, 3.0, size=3)
            total = p + q + s
            bound = math.sqrt(3.0 * total)
            f = rng.uniform(0.85, 1.35)
            u = bound * f
            predicted, got_bound = bulk_reality_large_couplings(u, p, q, s)
            assert got_bound == pytest.approx(bound, rel=1e-15)
            disc_q = u * u - 3.0 * total
            assert predicted == (disc_q >= 0.0)
            spec = spec_from_raw("butterfly3d", dict(
                a=0.0, b=0.0, c=0.0, u=u, v=u, w=u, p=p, q=q, s=s))
            roots = bulk_roots_3d(spec)
            if not predicted:
                assert roots == []
                continue
            reals += 1
            # both quadratic roots are real and positive exactly when the
            # criterion holds; the solver keeps the subset whose squared
            # coordinates are all positive
            ref = [(u - math.sqrt(disc_q)) / 3.0, (u + math.sqrt(disc_q)) / 3.0]
            assert all(r > 0.0 for r in ref)
            assert roots, "criterion promised at least the outer bulk orbit"
            for x2, y2, z2, r2 in roots:
                assert min(abs(r2 - r) for r in ref) <= 1e-10 * max(1.0, r2)
                loc = tuple(math.sqrt(v) for v in (x2, y2, z2))
                assert residual(spec, loc) < 1e-9
            # regression guard: the same construction with the radical NOT
            # divided by 3 violates the stationarity equations
            if f > 1.05:
                for sign in (-1.0, 1.0):
                    r2_bad = u / 3.0 + sign * math.sqrt(disc_q)
                    if r2_bad <= 0.0:
                        continue
                    r4 = r2_bad * r2_bad
                    sq = np.array([r4 + q + s - p, r4 + p + s - q,
                                   r4 + p + q - s]) / (2.0 * u)
                    if np.any(sq <= 0.0):
                        continue
                    fakes += 1
                    loc = tuple(math.sqrt(v) for v in sq)
                    assert residual(spec, loc) > 1e-3
        assert reals >= 30 and fakes >= 20


def test_07_fd_solver_calibration():
    with criterion(7, "finite-difference calibration", 30.0):
        sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=10.0, n=2001),
                            k=3, dim=1)
        assert sol.energies == pytest.approx([1.0, 3.0, 5.0], abs=1e-3)
        errs = []
        for n in (250, 500, 1000):
            s = fd_eigensolve(lambda x: x**2, GridSpec(extent=10.0, n=n),
                              k=1, dim=1)
            errs.append(abs(s.energies[0] - 1.0))
        for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
            assert 4.0 * 0.8 < ratio < 4.0 * 1.2
        extrapolated, coarse, fine = richardson_ground_energies(
            lambda x: x**4, GridSpec(extent=8.0, n=2001), k=1, dim=1)
        assert abs(fine.energies[0] - coarse.energies[0]) < 1e-3
        assert extrapolated[0] == pytest.approx(1.0604, abs=1e-3)


def test_08_harmonic_vs_fd_2d_double_well():
    with criterion(8, "2D harmonic estimate vs eigensolver", 180.0):
        spec = make_spec("cusp2d", alpha=2.0, beta=1.0)
        harmonic = -16.0 + 4.0 + math.sqrt(6.0)
        sol = fd_eigensolve(spec, GridSpec(extent=5.0, n=301), k=3)
        assert sol.converged
        assert abs(sol.energies[0] - harmonic) / abs(harmonic) < 0.05
        doublet = sol.energies[1] - sol.energies[0]
        gap = sol.energies[2] - sol.energies[1]
        assert doublet < 0.1 * gap


def test_09_relocalization_boundary():
    with criterion(9, "relocalization boundary", 60.0):
        base = make_spec("butterfly1d", alpha=1.5, beta=2.0)
        path = ParamPath(spec=base, varied=(("alpha", 1.5, 2.2),), steps=2)
        classical = locate_boundary(path, (0.0, 1.0), CLASSICAL)
        assert classical.location == pytest.approx(2.0, abs=1e-9)
        quantum = locate_boundary(path, (0.0, 1.0), QUANTUM)
        assert quantum.location == pytest.approx(1.979, abs=1e-3)
        # the eigensolver's localization weight crosses 1/2 inside +-0.02
        weights = {}
        for offset in (-0.02, 0.02):
            alpha = quantum.location + offset
            spec = make_spec("butterfly1d", alpha=alpha, beta=2.0)
            pts = stationary_points(spec)
            wells = [p for p in pts if p.kind == "minimum"]
            sol = fd_eigensolve(spec, GridSpec(extent=6.0, n=4001), k=1)
            weights[offset] = localization(sol, wells).weights["axis_x_outer"]
        assert weights[-0.02] > 0.5
        assert weights[0.02] < 0.5
        # below the boundary the outer orbit also dominates the estimate
        assert dominant_minimum(
            make_spec("butterfly1d", alpha=quantum.location - 0.02, beta=2.0)
        ).label == "axis_x_outer"


def _read_grid_table(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    xs = [float(v) for v in rows[0][1:]]
    table = {}
    for row in rows[1:]:
        y = float(row[0])
        for x, cell in zip(xs, row[1:]):
            if cell:
                table[(x, y)] = float(cell)
    return table


def _nearest(table, px, py):
    key = min(table, key=lambda k: (k[0] - px)**2 + (k[1] - py)**2)
    assert abs(key[0] - px) < 1e-9 and abs(key[1] - py) < 1e-9
    return table[key]


def test_10_figure_data_reproduction(tmp_path):
    with criterion(10, "figure-data reproduction", 5.0):
        out1 = tmp_path / "fig1"
        assert cli.main(["grid", "--family", "cusp2d", "--alpha", "1.4",
                         "--beta", "1", "--grid-L", "2.8", "--grid-n", "57",
                         "--clip", "0", "--out", str(out1)]) == 0
        t1 = _read_grid_table(out1 / "grid.csv")
        assert min(t1.values()) == pytest.approx(-3.8416, abs=1e-10)
        assert _nearest(t1, 1.4, 0.0) == pytest.approx(-3.8416, abs=1e-10)
        assert _nearest(t1, -1.4, 0.0) == pytest.approx(-3.8416, abs=1e-10)
        assert _nearest(t1, 0.0, 1.0) == pytest.approx(-1.0, abs=1e-10)
        assert _nearest(t1, 0.0, -1.0) == pytest.approx(-1.0, abs=1e-10)
        assert all(v <= 0.0 for v in t1.values())

        out2 = tmp_path / "fig2"
        assert cli.main(["grid", "--family", "butterfly2d", "--alpha", "1",
                         "--gamma", "1.9", "--u", str(-16.0 / 3.0),
                         "--grid-L", "3", "--grid-n", "121",
                         "--clip", "7.5", "--out", str(out2)]) == 0
        t2 = _read_grid_table(out2 / "grid.csv")
        outer = (1.0 - 1.305) * 1.9**4
        assert min(t2.values()) == pytest.approx(outer, abs=1e-10)
        for px, py in ((1.9, 0.0), (-1.9, 0.0), (0.0, 1.9), (0.0, -1.9)):
            assert _nearest(t2, px, py) == pytest.approx(outer, abs=1e-10)
        assert _nearest(t2, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert all(v < 7.5 for v in t2.values())
        assert (3.0, 3.0) not in t2  # clipped corner

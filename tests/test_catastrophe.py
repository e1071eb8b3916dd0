import math

import numpy as np
import pytest

from polydot import catastrophe, stationary
from polydot.catastrophe import (
    CLASSICAL,
    QUANTUM,
    ParamPath,
    ScanSample,
    locate_boundary,
    scan_grid,
    scan_line,
)
from polydot.errors import SplitBracket
from polydot.potentials import make_spec
from polydot.verify import bisect_small_coupling_threshold

from helpers import count_calls


def butterfly_path(beta=2.0, lo=1.5, hi=2.2, steps=71):
    base = make_spec("butterfly1d", alpha=lo, beta=beta)
    return ParamPath(spec=base, varied=(("alpha", lo, hi),), steps=steps)


def closed_form_gap(alpha, beta):
    """outer-minus-center ground candidate of the triple well."""
    g2 = alpha**2 + 2 * beta**2
    g = math.sqrt(g2)
    return (alpha**2 - beta**2) * g2**2 + 2 * math.sqrt(3) * beta * g \
        - math.sqrt(3) * alpha * g


# ---------------------------------------------------------------------------
# line scans
# ---------------------------------------------------------------------------

def test_butterfly1d_sweep_finds_both_boundaries():
    rep = scan_line(butterfly_path())
    kinds = {b.kind: b for b in rep.boundaries}
    assert set(kinds) == {QUANTUM, CLASSICAL}
    assert kinds[CLASSICAL].location == pytest.approx(2.0, abs=1e-9)
    assert kinds[QUANTUM].location == pytest.approx(1.979, abs=1e-3)
    assert set(kinds[QUANTUM].pair) == {"axis_x_outer", "origin"}
    # consecutive samples with different labels bracket exactly one boundary
    flips = sum(
        1 for s0, s1 in zip(rep.samples, rep.samples[1:])
        if s0.quantum_label != s1.quantum_label
    )
    assert flips == 1


def test_cusp_sweep_has_no_boundary():
    base = make_spec("cusp2d", alpha=1.1, beta=1.0)
    rep = scan_line(ParamPath(spec=base, varied=(("alpha", 1.1, 2.0),), steps=31))
    assert rep.boundaries == ()
    assert {s.quantum_label for s in rep.samples} == {"axis_x"}


def test_scan_records_invalid_samples_not_fatal():
    # gamma dips below alpha along the path: NoRealShape samples recorded
    base = make_spec("butterfly1d", alpha=1.5, beta=1.0)
    rep = scan_line(ParamPath(spec=base, varied=(("gamma", 2.5, 1.2),), steps=21),
                    refine_events=False)
    bad = [s for s in rep.samples if not s.ok]
    assert bad and all("NoRealShape" in s.error for s in bad)
    good = [s for s in rep.samples if s.ok]
    assert good


def test_butterfly2d_coupling_sweep_orbit_appearance():
    # in-plane orbits appear where the quadratic discriminant crosses zero:
    # for this symmetric shape at u = 4 sqrt(c) - 2a = 2.99 exactly
    base = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-6.0)
    rep = scan_line(ParamPath(spec=base, varied=(("u", -6.0, 4.5),), steps=71))
    appear = {e.label: e for e in rep.events if e.change == "appears"}
    assert {"plane_xy_minus", "plane_xy_plus"} <= set(appear)
    assert appear["plane_xy_minus"].location == pytest.approx(2.99, abs=1e-8)


def test_scan_line_enumerates_once_per_sample(monkeypatch):
    calls = count_calls(monkeypatch, stationary.enumerate_stationary)
    base = make_spec("cusp2d", alpha=1.1, beta=1.0)
    rep = scan_line(ParamPath(spec=base, varied=(("alpha", 1.1, 2.0),), steps=31))
    assert rep.boundaries == () and rep.events == ()
    assert len(calls) == 31


def test_workers_do_not_change_results():
    rep1 = scan_line(butterfly_path(steps=31), workers=1)
    rep4 = scan_line(butterfly_path(steps=31), workers=4)
    assert [s.quantum_label for s in rep1.samples] == \
        [s.quantum_label for s in rep4.samples]
    assert [b.location for b in rep1.boundaries] == \
        [b.location for b in rep4.boundaries]


# ---------------------------------------------------------------------------
# boundary refinement
# ---------------------------------------------------------------------------

def test_classical_boundary_is_exact_root():
    b = locate_boundary(butterfly_path(lo=1.9, hi=2.1, steps=2), (0.0, 1.0),
                        CLASSICAL)
    assert b.location == pytest.approx(2.0, abs=1e-9)
    assert b.gap_slope == pytest.approx(2 * 2.0 * 12.0**2, rel=1e-3)


def test_quantum_boundary_matches_independent_bisection():
    from scipy.optimize import brentq
    alpha_star = brentq(lambda a: closed_form_gap(a, 2.0), 1.9, 2.1, xtol=1e-13)
    b = locate_boundary(butterfly_path(lo=1.9, hi=2.1, steps=2), (0.0, 1.0),
                        QUANTUM)
    assert b.location == pytest.approx(alpha_star, abs=1e-9)
    assert b.location == pytest.approx(1.979, abs=1e-3)


def test_existence_threshold_by_bisection():
    xi = bisect_small_coupling_threshold()
    assert xi == pytest.approx(0.2462928572, abs=1e-9)


def test_bisection_certificate():
    tol = 1e-10
    b = locate_boundary(butterfly_path(lo=1.9, hi=2.1, steps=2), (0.0, 1.0),
                        QUANTUM, gap_tol=tol)
    lo = closed_form_gap(b.location - 10 * tol / 1e-2, 2.0)
    hi = closed_form_gap(b.location + 10 * tol / 1e-2, 2.0)
    assert lo * hi < 0.0


def test_refinement_convergence_lipschitz():
    rng = np.random.default_rng(101)
    path = butterfly_path(lo=1.5, hi=2.2, steps=2)
    for _ in range(100):
        beta = rng.uniform(1.2, 3.0)
        p = ParamPath(spec=make_spec("butterfly1d", alpha=0.75 * beta, beta=beta),
                      varied=(("alpha", 0.75 * beta, 1.05 * beta),), steps=2)
        tol = 1e-8
        b1 = locate_boundary(p, (0.0, 1.0), QUANTUM, gap_tol=tol)
        b2 = locate_boundary(p, (0.0, 1.0), QUANTUM, gap_tol=tol / 2)
        assert abs(b2.location - b1.location) < tol


def test_split_bracket_detection(monkeypatch):
    path = butterfly_path(steps=2)

    def oscillating_sample(_path, t):
        gap = math.sin(3.5 * math.pi * t + 0.1)  # three sign changes on [0, 1]
        return ScanSample(t=t, params={"alpha": t}, ok=True, error=None,
                          quantum_label="A" if gap < 0 else "B",
                          classical_label="A",
                          candidates={"A": gap, "B": 0.0},
                          depths={"A": gap, "B": 0.0}, orbit_labels=("A", "B"))

    monkeypatch.setattr(catastrophe, "_evaluate_sample", oscillating_sample)
    with pytest.raises(SplitBracket):
        locate_boundary(path, (0.0, 1.0), QUANTUM, pair=("A", "B"))


def test_locate_boundary_needs_label_change():
    with pytest.raises(ValueError):
        locate_boundary(butterfly_path(lo=1.5, hi=1.6, steps=2), (0.0, 1.0),
                        QUANTUM)


def test_quantum_approaches_classical_at_large_scale():
    # deepening wells shrink the zero-point correction: alpha*/beta -> 1
    ratios = []
    for beta in (2.0, 4.0, 8.0):
        p = ParamPath(spec=make_spec("butterfly1d", alpha=0.8 * beta, beta=beta),
                      varied=(("alpha", 0.8 * beta, 1.05 * beta),), steps=2)
        b = locate_boundary(p, (0.0, 1.0), QUANTUM)
        ratios.append(abs(b.location / beta - 1.0))
    assert ratios[0] > ratios[1] > ratios[2]


# ---------------------------------------------------------------------------
# rasters
# ---------------------------------------------------------------------------

def test_raster_quantum_boundary_inside_classical_region():
    # outer wells are classically deeper exactly for alpha < beta; the
    # zero-point energy shrinks the quantum outer region strictly inside it
    base = make_spec("butterfly1d", alpha=1.0, beta=1.0)
    dmap = scan_grid(base, ("alpha", 0.5, 2.5), ("beta", 0.5, 2.5), resolution=21)
    strictly_inside = 0
    for i, alpha in enumerate(dmap.xs):
        for j, beta in enumerate(dmap.ys):
            if dmap.labels_quantum[i, j] == "axis_x_outer":
                assert alpha < beta
            if alpha > beta:
                assert dmap.labels_classical[i, j] == "origin"
            if alpha < beta and dmap.labels_classical[i, j] == "axis_x_outer" \
                    and dmap.labels_quantum[i, j] == "origin":
                strictly_inside += 1
    assert strictly_inside > 0
    labels = {str(v) for v in dmap.labels_quantum.ravel()}
    assert labels == {"origin", "axis_x_outer"}
    assert any(b.kind == QUANTUM for b in dmap.boundaries)


def test_raster_uniform_for_cusp():
    base = make_spec("cusp3d", alpha=1.5, beta=0.8, gamma=0.3)
    dmap = scan_grid(base, ("alpha", 1.2, 2.0), ("beta", 0.4, 1.1), resolution=9)
    assert {str(v) for v in dmap.labels_quantum.ravel()} == {"axis_x"}
    assert {str(v) for v in dmap.labels_classical.ravel()} == {"axis_x"}
    assert not dmap.boundaries  # a uniform field has no 0.5-level contour


def test_raster_line_slice_agreement():
    base = make_spec("butterfly1d", alpha=1.0, beta=1.0)
    res = 13
    dmap = scan_grid(base, ("alpha", 0.6, 2.4), ("beta", 0.6, 2.4), resolution=res)
    j = 7
    line = scan_line(
        ParamPath(spec=make_spec("butterfly1d", alpha=0.6, beta=float(dmap.ys[j])),
                  varied=(("alpha", 0.6, 2.4),), steps=res),
        refine_events=False)
    assert [s.quantum_label for s in line.samples] == \
        [dmap.labels_quantum[i, j] for i in range(res)]


def test_butterfly2d_raster_offaxis_region_boundary():
    # the region of (u, gamma) where in-plane orbits exist is bounded by the
    # zero set of the quadratic discriminant; for the symmetric shape the
    # crossing at fixed gamma sits exactly at u = 4 sqrt(c) - 2a
    from polydot.potentials import with_param
    from polydot.stationary import off_axis_roots_2d, quadratic_aux

    base = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=0.0)
    us = np.linspace(1.0, 4.2, 17)
    gammas = np.linspace(1.5, 2.3, 9)
    for g in gammas:
        spec_g = with_param(base, "gamma", float(g))
        c = spec_g.raw["c"]
        a = spec_g.raw["a"]
        u_star = 4.0 * math.sqrt(c) - 2.0 * a
        crossings = []
        for u0, u1 in zip(us, us[1:]):
            s0 = with_param(spec_g, "u", float(u0))
            s1 = with_param(spec_g, "u", float(u1))
            have0 = bool(off_axis_roots_2d(s0))
            have1 = bool(off_axis_roots_2d(s1))
            # presence always comes with a nonnegative discriminant
            if have0:
                assert quadratic_aux(s0).disc >= 0.0
            if have0 != have1:
                crossings.append((u0, u1))
        if us[0] < u_star < us[-1]:
            assert any(u0 <= u_star <= u1 for u0, u1 in crossings), g


def test_multi_parameter_path_boundary():
    # alpha and beta move together; the classical boundary sits where the
    # linear ramps cross (1.5 + 0.7 t = 2.0 + 0.1 t at t = 5/6); the reported
    # location is the first varied parameter's value there
    base = make_spec("butterfly1d", alpha=1.5, beta=2.0)
    path = ParamPath(spec=base,
                     varied=(("alpha", 1.5, 2.2), ("beta", 2.0, 2.1)),
                     steps=2)
    b = locate_boundary(path, (0.0, 1.0), CLASSICAL)
    t_star = 5.0 / 6.0
    assert b.location == pytest.approx(1.5 + 0.7 * t_star, abs=1e-9)
    assert b.params["beta"] == pytest.approx(2.0 + 0.1 * t_star, abs=1e-9)


def test_marching_squares_closed_loop():
    xs = np.linspace(0, 1, 9)
    ys = np.linspace(0, 1, 9)
    blob = np.zeros((9, 9), dtype=bool)
    blob[3:6, 3:6] = True
    chains = catastrophe._marching_squares(blob, xs, ys)
    assert len(chains) == 1
    assert chains[0][0] == chains[0][-1]  # closed polyline

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polydot import catastrophe, potentials, spectra, stationary
from polydot.catastrophe import (
    CLASSICAL,
    DEFAULT_GAP_TOL,
    DEFAULT_WIDTH_TOL,
    QUANTUM,
    ParamPath,
    ScanSample,
    locate_boundary,
    scan_grid,
    scan_line,
)
from polydot.errors import DegenerateCoupling, SplitBracket
from polydot.potentials import make_spec
from polydot.verify import bisect_small_coupling_threshold, corpus_specs

from helpers import (
    any_family_spec,
    count_calls,
    draw_butterfly2d,
    draw_butterfly3d,
    orbit_event_reference,
    scan_grid_cells_reference,
    scan_line_reference,
    scan_sample_reference,
)


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
    rep = scan_line(ParamPath(spec=base, varied=(("gamma", 2.5, 1.2),), steps=21))
    bad = [s for s in rep.samples if not s.ok]
    assert bad and all("NoRealShape" in s.error for s in bad)
    good = [s for s in rep.samples if s.ok]
    assert good


@pytest.mark.parametrize("varied, steps, message", [
    ((("alpha", 1.5, 2.2),), 1, "a path needs at least 2 steps"),
    ((), 5, "a path needs at least one varied parameter"),
    ((("alpha", math.nan, 2.2),), 5,
     "parameter alpha needs a finite start and end, got nan and 2.2"),
    ((("alpha", 1.5, math.inf),), 5,
     "parameter alpha needs a finite start and end, got 1.5 and inf"),
])
def test_path_rejects_too_few_steps_no_parameter_and_infinite_ends(varied, steps, message):
    spec = make_spec("butterfly1d", alpha=1.5, beta=2.0)
    with pytest.raises(ValueError) as err:
        ParamPath(spec=spec, varied=varied, steps=steps)
    assert str(err.value) == message


def test_scan_grid_rejects_an_end_that_is_not_finite():
    spec = make_spec("butterfly1d", alpha=1.5, beta=2.0)
    with pytest.raises(ValueError) as err:
        scan_grid(spec, ("alpha", 1.5, 2.2), ("beta", -math.inf, 2.0), resolution=3)
    assert str(err.value) == "parameter beta needs a finite start and end, got -inf and 2.0"


def test_path_endpoints_outside_the_domain_are_per_sample():
    # c < 0 is outside the butterfly2d domain at either end of the path
    spec = make_spec("butterfly2d", a=1.0, b=1.2, c=0.5, d=0.6, u=0.1)
    up, down = (scan_line(ParamPath(spec=spec, varied=(("c", start, end),), steps=5))
                for start, end in ((-1.0, 1.0), (1.0, -1.0)))
    assert up.samples[0].error == "ValueError: butterfly2d needs c > 0, got -1"
    assert [s.error for s in up.samples] == [s.error for s in reversed(down.samples)]
    assert [s.ok for s in up.samples] == [False, False, False, True, True]


def test_label_change_across_invalid_samples_is_recorded():
    # axis_y dominates at t = 0, no minimum remains at t = 0.5 (alpha = beta),
    # and axis_x dominates at t = 1: each kind's change is recorded, unrefined,
    # at the midpoint of the valid samples around the invalid run
    path = ParamPath(spec=make_spec("cusp2d", alpha=1.0, beta=1.0),
                     varied=(("alpha", 0.5, 1.5),), steps=3)
    rep = scan_line(path)
    assert [s.ok for s in rep.samples] == [True, False, True]
    assert [(b.kind, b.pair, b.location, b.params, b.gap_slope) for b in rep.boundaries] == [
        (kind, ("axis_y", "axis_x"), 1.0, {"unrefined": "label changes across invalid samples"},
         None) for kind in (QUANTUM, CLASSICAL)]
    assert rep.events == ()


def test_same_label_across_invalid_samples_records_nothing():
    # gamma^2 < alpha^2 only at gamma = 0, mid-line; gamma = -+1 give one spec
    path = ParamPath(spec=make_spec("butterfly1d", alpha=1.0, beta=1.0),
                     varied=(("gamma", -1.0, 1.0),), steps=3)
    rep = scan_line(path)
    assert [s.ok for s in rep.samples] == [True, False, True]
    assert rep.samples[0].quantum_label == rep.samples[2].quantum_label
    assert rep.boundaries == () and rep.events == ()


# alpha = beta = 1 make a = b = 2 and c = d = 3: the plane orbits appear at
# u = 4 (sqrt(3) - 1), and the plane's coupling matrix is singular at u = 2a = 4
PLANE_APPEARS = 4.0 * (math.sqrt(3.0) - 1.0)


def test_event_bisection_meeting_an_undefined_probe_is_unrefined():
    # the bisection's first probe is u = 4, where the spec raises
    # DegenerateCoupling: that probe is undefined, not "orbit absent"
    path = ParamPath(spec=make_spec("butterfly2d", alpha=1, beta=1, u=0.5),
                     varied=(("u", -8.0, 8.0),), steps=3)
    rep = scan_line(path)
    assert all(s.ok for s in rep.samples)
    assert [(e.label, e.change) for e in rep.events] == [
        ("plane_xy_minus", "appears"), ("plane_xy_plus", "appears")]
    for e in rep.events:
        if "unrefined" in e.params:
            assert e.location == 4.0 and "DegenerateCoupling" in e.params["unrefined"]
        else:
            assert abs(e.location - PLANE_APPEARS) <= DEFAULT_WIDTH_TOL * path.primary_span


def test_orbit_change_across_invalid_samples_is_recorded():
    # u = 4 is invalid; the plane orbits exist at u = 6 and not at u = 2
    path = ParamPath(spec=make_spec("butterfly2d", alpha=1, beta=1, u=0.5),
                     varied=(("u", 0.0, 8.0),), steps=5)
    rep = scan_line(path)
    assert [s.ok for s in rep.samples] == [True, True, False, True, True]
    assert [(e.label, e.change, e.location, e.params) for e in rep.events] == [
        (label, "appears", 4.0, {"unrefined": "orbit changes across invalid samples"})
        for label in ("plane_xy_minus", "plane_xy_plus")]


@pytest.mark.parametrize("name, space", [("alpha_sq", "raw"), ("alpha", "shape")])
def test_path_space_is_the_space_with_param_moves_in(name, space):
    # a cusp's alpha_sq is its raw coefficient; alpha sets its square
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    assert ParamPath(spec=spec, varied=((name, 1.0, 2.0),), steps=3).space == space


@pytest.mark.parametrize("family, varied", [
    ("butterfly1d", (("alpha", 1.5, 2.2), ("alpha", 2.2, 1.5))),
    ("butterfly1d", (("alpha", 1.5, 2.2), ("alpha_x", 2.2, 1.5))),
    ("butterfly2d", (("beta_y", 1.0, 1.2), ("beta", 0.5, 0.8))),
    ("butterfly2d", (("a", 1.0, 1.2), ("u", 0.1, 0.2), ("a", 2.0, 2.2))),
    ("cusp2d", (("alpha", 1.4, 2.0), ("alpha_sq", 1.0, 2.0))),
])
def test_path_rejects_two_entries_on_one_coefficient(family, varied):
    # applied one over the other, the second entry would decide where each
    # sample sits while the first decides where its boundaries are reported:
    # along (alpha 1.5 -> 2.2, alpha 2.2 -> 1.5) the classical boundary was
    # reported at alpha = 1.70 with the spec at alpha = 2.0
    spec = {"butterfly1d": make_spec("butterfly1d", alpha=1.5, beta=2.0),
            "butterfly2d": make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-1.0),
            "cusp2d": make_spec("cusp2d", alpha=1.4, beta=1.0)}[family]
    with pytest.raises(ValueError, match="set the same coefficient"):
        ParamPath(spec=spec, varied=varied, steps=3)
    if len(varied) == 2:
        with pytest.raises(ValueError, match="set the same coefficient"):
            scan_grid(spec, *varied, resolution=3)


@pytest.mark.parametrize("varied", [
    (("alpha_x", 1.0, 1.2), ("alpha_y", 1.0, 1.2)),
    (("alpha", 1.0, 1.2), ("beta", 0.5, 0.8)),
    (("alpha", 1.0, 1.2), ("gamma_x", 1.9, 2.0)),
    (("a", 1.0, 1.2), ("u", -1.0, -0.9)),
])
def test_path_takes_entries_on_distinct_coefficients(varied):
    spec = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-1.0)
    assert ParamPath(spec=spec, varied=varied, steps=3).varied == varied


def test_sample_with_overflowing_hessian_is_recorded_not_fatal():
    # near 1e308 the Hessian overflows to nan and eigvalsh raises for the
    # whole stack; each sample is then evaluated alone
    base = make_spec("cusp3d", alpha=1.0, beta=1.2, gamma=0.5)
    path = ParamPath(spec=base, varied=(("alpha_sq", 1.0, 1e308),), steps=3)
    with np.errstate(all="ignore"):
        rep = scan_line(path)
        ref = tuple(scan_sample_reference(lambda t=t: path.spec_at(t), t, path.params_at(t))
                    for t in np.linspace(0.0, 1.0, 3))
    assert repr(rep.samples) == repr(ref)
    assert [s.error for s in rep.samples] == \
        [None] + ["LinAlgError: Eigenvalues did not converge"] * 2


def test_sample_with_huge_coupling_is_recorded_not_fatal():
    # the square of a plane's coupling entry above ~1.3e154 overflows a
    # float, and so does its determinant: that block counts as singular
    spec = corpus_specs()["butterfly3d_ordered"]
    with np.errstate(over="ignore"), pytest.raises(DegenerateCoupling):
        stationary.enumerate_stationary(potentials.with_param(spec, "u", 1e200))
    with np.errstate(over="ignore"):
        rep = scan_line(ParamPath(spec=spec, varied=(("u", 1e100, 1e200),), steps=5))
    assert [s.error and s.error.split(":")[0] for s in rep.samples] == \
        [None] + ["DegenerateCoupling"] * 4
    # at u = 1e100 nothing overflows: the bulk roots r^2 = 0.8 and 3.2 lie on
    # the z axis (X^2 = Y^2 = 0) and the xy-plane root has X^2, Y^2 ~ 4e-100,
    # below the positivity floor, so the origin and the six axis orbits remain
    assert rep.samples[0].orbit_labels == (
        "axis_x_inner", "axis_x_outer", "axis_y_inner", "axis_y_outer",
        "axis_z_inner", "axis_z_outer", "origin")


def test_butterfly2d_coupling_sweep_orbit_appearance():
    # in-plane orbits appear where the quadratic discriminant crosses zero:
    # for this symmetric shape at u = 4 sqrt(c) - 2a = 2.99 exactly
    base = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-6.0)
    rep = scan_line(ParamPath(spec=base, varied=(("u", -6.0, 4.5),), steps=71))
    appear = {e.label: e for e in rep.events if e.change == "appears"}
    assert {"plane_xy_minus", "plane_xy_plus"} <= set(appear)
    assert appear["plane_xy_minus"].location == pytest.approx(2.99, abs=1e-8)


def test_scan_line_enumerates_once_per_sample(monkeypatch):
    # the samples of a line are classified as one stack of 31 coefficient
    # rows, built as arrays: no spec is built
    enumerations = count_calls(monkeypatch, stationary.enumerate_stationary)
    batches = count_calls(monkeypatch, stationary.classify_points)
    base = make_spec("cusp2d", alpha=1.1, beta=1.0)
    builds = count_calls(monkeypatch, potentials.spec_from_raw)
    rep = scan_line(ParamPath(spec=base, varied=(("alpha", 1.1, 2.0),), steps=31))
    assert rep.boundaries == () and rep.events == ()
    assert enumerations == [] and builds == []
    assert [len(coeffs[0]) for _x, _owner, coeffs in batches] == [31]


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
    b = locate_boundary(butterfly_path(lo=1.9, hi=2.1, steps=2), (0.0, 1.0), QUANTUM)
    lo = closed_form_gap(b.location - 10 * tol / 1e-2, 2.0)
    hi = closed_form_gap(b.location + 10 * tol / 1e-2, 2.0)
    assert lo * hi < 0.0


def test_refinement_convergence_lipschitz(monkeypatch):
    rng = np.random.default_rng(101)
    path = butterfly_path(lo=1.5, hi=2.2, steps=2)
    for _ in range(100):
        beta = rng.uniform(1.2, 3.0)
        p = ParamPath(spec=make_spec("butterfly1d", alpha=0.75 * beta, beta=beta),
                      varied=(("alpha", 0.75 * beta, 1.05 * beta),), steps=2)
        tol = 1e-8
        monkeypatch.setattr(catastrophe, "DEFAULT_GAP_TOL", tol)
        b1 = locate_boundary(p, (0.0, 1.0), QUANTUM)
        monkeypatch.setattr(catastrophe, "DEFAULT_GAP_TOL", tol / 2)
        b2 = locate_boundary(p, (0.0, 1.0), QUANTUM)
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
    monkeypatch.setattr(catastrophe, "_evaluate_samples",
                        lambda path, ts: [oscillating_sample(path, t) for t in ts])
    with pytest.raises(SplitBracket):
        locate_boundary(path, (0.0, 1.0), QUANTUM, pair=("A", "B"))


@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_reversed_bracket_refines_to_the_same_root(kind):
    # the README line, bracketed both ways; the pair follows the ends given
    path = butterfly_path()
    forward = locate_boundary(path, (0.0, 1.0), kind)
    backward = locate_boundary(path, (1.0, 0.0), kind)
    assert backward.pair == forward.pair[::-1]
    assert abs(backward.location - forward.location) <= DEFAULT_WIDTH_TOL * path.primary_span
    assert backward.location == pytest.approx(2.0 if kind == CLASSICAL else 1.978603, abs=1e-6)


def test_unknown_kind_raises_before_any_probe(monkeypatch):
    prepared = count_calls(monkeypatch, catastrophe._prepare)
    probes = count_calls(monkeypatch, catastrophe._evaluate_sample)
    with pytest.raises(ValueError, match="'quantum' or 'classical'"):
        locate_boundary(butterfly_path(steps=2), (0.0, 1.0), "Quantum")
    assert prepared == [] and probes == []


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
                  varied=(("alpha", 0.6, 2.4),), steps=res))
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


def _cell_segments(field, xs, ys):
    """The unordered (vertex, vertex) segments of every cell of a boolean
    field, read off the case table one cell at a time."""
    out = []
    for i in range(field.shape[0] - 1):
        for j in range(field.shape[1] - 1):
            corners = (field[i, j], field[i + 1, j], field[i + 1, j + 1], field[i, j + 1])
            idx = sum(int(c) << bit for bit, c in enumerate(corners))
            xm, ym = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])
            mid = {"S": (xm, ys[j]), "N": (xm, ys[j + 1]), "W": (xs[i], ym), "E": (xs[i + 1], ym)}
            out += [frozenset((mid[a], mid[b])) for a, b in catastrophe._SEGMENTS.get(idx, ())]
    return out


@pytest.mark.parametrize("seed, shape", [(0, (6, 6)), (1, (7, 5)), (2, (9, 9)), (3, (12, 8))])
def test_marching_squares_chains_are_the_cell_segments(seed, shape):
    # random fields join segments at a chain's head, at its tail and
    # between two chains; chains must neither drop nor invent a segment
    field = np.random.default_rng(seed).random(shape) < 0.5
    xs = np.linspace(-1.0, 1.0, shape[0])
    ys = np.linspace(0.0, 2.0, shape[1])
    chains = catastrophe._marching_squares(field, xs, ys)
    pairs = [frozenset(pair) for c in chains for pair in zip(c, c[1:])]
    assert Counter(pairs) == Counter(_cell_segments(field, xs, ys))
    border = {xs[0], xs[-1]}, {ys[0], ys[-1]}
    for c in chains:
        # a chain that does not close runs from the field's border to its border
        assert c[0] == c[-1] or all(x in border[0] or y in border[1] for x, y in (c[0], c[-1]))


def test_marching_squares_joins_exact_vertices_in_a_narrow_window():
    # a vertex key rounded to 12 decimals merged vertices 5e-14 apart
    xs = 1.0 + np.linspace(0.0, 4e-13, 9)
    ring = np.hypot(*np.meshgrid(np.arange(9) - 4.0, np.arange(9) - 4.0)) < 2.5
    (chain,) = catastrophe._marching_squares(ring, xs, xs)
    assert chain[0] == chain[-1] and len(set(chain)) == len(chain) - 1
    assert Counter(map(frozenset, zip(chain, chain[1:]))) == Counter(_cell_segments(ring, xs, xs))


# ---------------------------------------------------------------------------
# refinement against the bisection references
# ---------------------------------------------------------------------------

def _corpus_line(name, varied, steps):
    return ParamPath(spec=corpus_specs()[name], varied=(varied,), steps=steps)


REFERENCE_LINES = {
    "readme": lambda: butterfly_path(),
    "butterfly1d_center": lambda: _corpus_line("butterfly1d_center", ("alpha", 1.7, 2.3), 41),
    "butterfly1d_outer": lambda: _corpus_line("butterfly1d_outer", ("beta", 1.6, 2.3), 41),
    "fig2_butterfly2d_u": lambda: _corpus_line("fig2_butterfly2d", ("u", -6.0, 4.5), 41),
    "butterfly3d_gamma_x": lambda: _corpus_line("butterfly3d_ordered", ("gamma_x", 1.8, 2.5), 31),
    "butterfly3d_w": lambda: _corpus_line("butterfly3d_ordered", ("w", -2.0, 3.0), 31),
}


def assert_matches_reference(path):
    """Same boundary kinds and pairs, locations within the stop rules'
    tolerance, gap slopes within 1e-6 relative, and repr-equal events.

    Either method stops once the bracket is narrower than
    DEFAULT_WIDTH_TOL x span or once |gap| < DEFAULT_GAP_TOL, which leaves
    it up to DEFAULT_GAP_TOL / |slope| from the root; two locations can
    therefore differ by the sum of both bounds."""
    rep = scan_line(path)
    boundaries, events = scan_line_reference(path)
    assert [(b.kind, b.pair) for b in rep.boundaries] == \
        [(b.kind, b.pair) for b in boundaries]
    for new, old in zip(rep.boundaries, boundaries):
        if old.params and "unrefined" in old.params:
            assert new == old
            continue
        tol = DEFAULT_WIDTH_TOL * path.primary_span + 2.0 * DEFAULT_GAP_TOL / abs(old.gap_slope)
        assert abs(new.location - old.location) <= tol, (new.location, old.location)
        assert new.gap_slope == pytest.approx(old.gap_slope, rel=1e-6)
    assert repr(rep.events) == repr(tuple(events))
    return rep


@pytest.mark.parametrize("name", sorted(REFERENCE_LINES))
def test_refinement_matches_bisection_reference(name):
    rep = assert_matches_reference(REFERENCE_LINES[name]())
    assert rep.boundaries or rep.events


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.8, 3.0), below=st.floats(0.1, 0.3), above=st.floats(0.05, 0.3),
       steps=st.integers(5, 41))
def test_refinement_matches_bisection_reference_drawn(beta, below, above, steps):
    lo, hi = beta * (1.0 - below), beta * (1.0 + above)
    path = ParamPath(spec=make_spec("butterfly1d", alpha=lo, beta=beta),
                     varied=(("alpha", lo, hi),), steps=steps)
    assert_matches_reference(path)


def test_readme_line_refines_each_boundary_in_few_evaluations(monkeypatch):
    # the 71 samples are evaluated as stacks; each boundary evaluates its 9
    # split-check probes as one stack, and every single-sample evaluation is
    # a sequential refinement probe, which takes one ground_candidates call
    stacks = count_calls(monkeypatch, catastrophe._evaluate_samples)
    probes = count_calls(monkeypatch, catastrophe._evaluate_sample)
    candidates = count_calls(monkeypatch, spectra.ground_candidates)
    rep = scan_line(butterfly_path())
    assert len(rep.boundaries) == 2 and rep.events == ()
    assert [len(ts) for _path, ts in stacks] == [9] * len(rep.boundaries)
    assert len(probes) <= 6 * len(rep.boundaries)
    assert len(candidates) == len(probes)


def test_event_refinement_uses_root_algebra_only(monkeypatch):
    # plane_xy_minus appears at u = 2.99 (see the coupling sweep above)
    path = ParamPath(spec=make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-6.0),
                     varied=(("u", -6.0, 4.5),), steps=71)
    ts = np.linspace(0.0, 1.0, path.steps)
    k = int(np.searchsorted(ts, (2.99 + 6.0) / 10.5)) - 1
    samples = scan_line(path).samples
    candidates = count_calls(monkeypatch, spectra.ground_candidates)
    hessians = count_calls(monkeypatch, potentials.hessian)
    probes = count_calls(monkeypatch, stationary._representatives)
    event = next(catastrophe._orbit_events(path, samples[k], samples[k + 1]))
    assert event.label == "plane_xy_minus" and event.change == "appears"
    assert event.location == pytest.approx(2.99, abs=1e-8)
    assert candidates == [] and hessians == []
    assert len(probes) <= 39


def test_events_of_one_bracket_share_their_probes(monkeypatch):
    # the orbits of the butterfly3d_w line appear and vanish in pairs, whose
    # presence bisections visit the same points; the bracket's samples give
    # the presence at its ends, which the reference probes once more
    path = REFERENCE_LINES["butterfly3d_w"]()
    rep = scan_line(path)
    probes = count_calls(monkeypatch, stationary._representatives)
    events = []
    for s0, s1 in zip(rep.samples, rep.samples[1:]):
        if set(s0.orbit_labels) == set(s1.orbit_labels):
            continue
        before = len(probes)
        bracket = list(catastrophe._orbit_events(path, s0, s1))
        assert len(bracket) >= 2 and len(probes) - before == 38
        for event in bracket:
            before = len(probes)
            assert repr(event) == repr(orbit_event_reference(path, s0.t, s1.t, event.label))
            assert len(probes) - before == 39
        events += bracket
    assert repr(tuple(events)) == repr(rep.events)


EVENT_LINES = {  # (family, varied parameter, range its ends are drawn from)
    ("butterfly2d", "u"): (-4.0, 4.0),
    ("butterfly3d", "u"): (-3.0, 3.0),
    ("butterfly3d", "w"): (-3.0, 3.0),
    ("butterfly3d", "gamma_x"): (0.5, 3.0),
}


@st.composite
def event_lines(draw):
    family, name = draw(st.sampled_from(sorted(EVENT_LINES)))
    lo, hi = EVENT_LINES[family, name]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = draw_butterfly2d(rng) if family == "butterfly2d" else draw_butterfly3d(rng)
    start = draw(st.floats(lo, hi))
    end = draw(st.floats(lo, hi).filter(lambda v: abs(v - start) > 0.1))
    return ParamPath(spec=spec, varied=((name, start, end),), steps=draw(st.integers(5, 21)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(event_lines())
def test_orbit_events_match_presence_bisection_reference(path):
    # a label's probes are those made while the bracket's events yield it
    samples = [catastrophe._evaluate_sample(path, t) for t in np.linspace(0.0, 1.0, path.steps)]
    for s0, s1 in zip(samples, samples[1:]):
        with pytest.MonkeyPatch.context() as mp:
            probes = count_calls(mp, stationary._representatives)
            events = catastrophe._orbit_events(path, s0, s1)
            for label in sorted(set(s0.orbit_labels) ^ set(s1.orbit_labels)):
                del probes[:]
                event = next(events)
                used = len(probes)
                want = orbit_event_reference(path, s0.t, s1.t, label)
                assert event.label == label and repr(event) == repr(want)
                assert used <= len(probes) - used


def test_infinite_end_gap_is_bisected_until_finite(monkeypatch):
    # label A exists only from t = 0.42 on; the gap E_A - E_B = 0.47 - t
    evaluated = []

    def sample(_path, t):
        evaluated.append(t)
        table = {"A": 0.47 - t, "B": 0.0} if t >= 0.42 else {"B": 0.0}
        return ScanSample(t=t, params={"alpha": t}, ok=True, error=None,
                          quantum_label="A", classical_label="A",
                          candidates=table, depths=table, orbit_labels=())

    monkeypatch.setattr(catastrophe, "_evaluate_sample", sample)
    monkeypatch.setattr(catastrophe, "_evaluate_samples",
                        lambda path, ts: [sample(path, t) for t in ts])
    path = butterfly_path(steps=2)
    b = locate_boundary(path, (0.0, 1.0), QUANTUM, pair=("A", "B"))
    # both ends, a stack of 9 probes, then the first refinement step is the
    # midpoint of the probe bracket [0.4, 0.5], whose low end gap is +inf
    assert evaluated[11] == pytest.approx(0.45, abs=1e-15)
    assert b.location == pytest.approx(path.primary_value(0.47), abs=1e-12)
    assert len(evaluated) <= 2 + 9 + 4 + 2


def test_exchange_without_common_wells_stays_unrefined():
    # the dominant cusp well moves between the axes at alpha = beta; the gap
    # is +-inf on both sides and undefined in the degenerate ring
    rep = scan_line(_corpus_line("fig1_cusp2d", ("alpha", 0.8, 1.6), 31))
    assert {b.kind for b in rep.boundaries} == {QUANTUM, CLASSICAL}
    for b in rep.boundaries:
        assert b.params == {"unrefined": "gap undefined inside the bracket (no common wells)"}


RASTERS = {
    "readme": (lambda: make_spec("butterfly1d", alpha=1.0, beta=1.0),
               ("alpha", 0.5, 2.5), ("beta", 0.5, 2.5), 41),
    # gamma < alpha in a corner: NoRealShape cells
    "gamma_below_alpha": (lambda: make_spec("butterfly1d", alpha=1.0, beta=1.0),
                          ("alpha", 0.5, 2.0), ("gamma", 0.8, 2.5), 17),
    # the benchmark's 3D raster
    "butterfly3d": (lambda: corpus_specs()["butterfly3d_ordered"],
                    ("gamma_x", 1.8, 2.5), ("gamma_y", 1.7, 2.3), 11),
    # alpha = beta on the diagonal: a degenerate ring and no minimum
    "cusp2d_exchange": (lambda: make_spec("cusp2d", alpha=1.0, beta=1.0),
                        ("alpha", 0.5, 1.5), ("beta", 0.5, 1.5), 11),
    # u = 2a on the diagonal and u = 2b on one column: the in-plane solve
    # is regular there but for a = b = 1.5, u = 3, where M = 3 * 11^T
    "butterfly2d_u_2a": (lambda: make_spec("butterfly2d", a=1.0, b=1.5, c=0.5, d=1.0, u=0.0),
                         ("a", 1.0, 2.0), ("u", 2.0, 4.0), 11),
}


@pytest.mark.parametrize("name", list(RASTERS))
def test_scan_grid_cells_match_reference(name):
    build, vary_x, vary_y, resolution = RASTERS[name]
    spec = build()
    dmap = scan_grid(spec, vary_x, vary_y, resolution=resolution, workers=1)
    ref = scan_grid_cells_reference(spec, vary_x, vary_y, resolution)
    for got, want in zip((dmap.labels_quantum, dmap.labels_classical, dmap.errors), ref):
        assert got.tolist() == want.tolist()
    errors = [e.split(":")[0] for e in dmap.errors.ravel() if e]
    expected = {"cusp2d_exchange": ["NoMinimum"] * 11,
                "butterfly2d_u_2a": ["DegenerateCoupling"]}
    if name == "gamma_below_alpha":
        assert errors and set(errors) == {"NoRealShape"}
    else:
        assert errors == expected.get(name, [])


# ---------------------------------------------------------------------------
# line samples against single-point references
# ---------------------------------------------------------------------------

_STEMS = {"cusp2d": ("alpha", "beta"), "cusp3d": ("alpha", "beta", "gamma")}


@st.composite
def scan_paths(draw):
    """A line of 2-12 samples through a drawn spec of any family, along a raw
    coefficient or a shape parameter (axis-suffixed or broadcast)."""
    spec = draw(any_family_spec())
    names = list(potentials._RAW_KEYS[spec.family])
    if spec.is_cusp:
        names += _STEMS[spec.family]
    else:
        stems = ("alpha", "beta", "gamma")
        names += list(stems)
        if spec.dimension > 1:
            names += [f"{s}_{ax}" for s in stems for ax in spec.axis_names()]
    name = draw(st.sampled_from(names))
    start = draw(st.floats(-3.0, 6.0))
    end = draw(st.floats(-3.0, 6.0).filter(lambda v: v != start))
    try:
        return ParamPath(spec=spec, varied=((name, start, end),),
                         steps=draw(st.integers(2, 12)))
    except ValueError:  # a negative cusp coefficient at the start
        assume(False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scan_paths(), st.floats(0.0, 1.0))
def test_scan_line_samples_match_single_point_reference(path, t):
    rep = scan_line(path)
    ref = tuple(scan_sample_reference(lambda t=t: path.spec_at(t), t, path.params_at(t))
                for t in np.linspace(0.0, 1.0, path.steps))
    assert repr(rep.samples) == repr(ref)
    # a refinement probe is the one-sample case of the same evaluation
    assert repr(catastrophe._evaluate_sample(path, t)) == \
        repr(scan_sample_reference(lambda: path.spec_at(t), t, path.params_at(t)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scan_paths(), st.lists(st.floats(0.0, 1.0), max_size=9))
# a degenerate ring without a minimum at t = 0.5, and a NoRealShape end
@example(ParamPath(spec=make_spec("cusp2d", alpha=1.0, beta=1.0),
                   varied=(("alpha", 0.5, 1.5),), steps=2), [0.0, 0.5, 1.0])
@example(ParamPath(spec=make_spec("butterfly1d", alpha=1.0, beta=1.0),
                   varied=(("gamma", 0.5, 2.5),), steps=2), [0.0, 0.5, 1.0])
def test_stacked_probes_match_single_probes(path, ts):
    # the drawn lines run into invalid specs too
    assert repr(catastrophe._evaluate_samples(path, ts)) == \
        repr([catastrophe._evaluate_sample(path, t) for t in ts])


def test_scan_line_orders_tied_orbits_by_label():
    # at alpha = beta = 0.75 the outer wells and the origin both sit at
    # V = 0 exactly; the tables list them in (value, label) order
    path = ParamPath(spec=make_spec("butterfly1d", alpha=0.5, beta=0.75),
                     varied=(("alpha", 0.5, 1.0),), steps=3)
    rep = scan_line(path)
    ref = tuple(scan_sample_reference(lambda t=t: path.spec_at(t), t, path.params_at(t))
                for t in np.linspace(0.0, 1.0, 3))
    assert repr(rep.samples) == repr(ref)
    tie = rep.samples[1]
    assert tie.depths == {"axis_x_outer": 0.0, "origin": 0.0}
    assert list(tie.depths) == ["axis_x_outer", "origin"]


@pytest.mark.parametrize("k", [1, 12, 31])
def test_interrupted_scan_keeps_the_samples_before_it(monkeypatch, k):
    # the rows of a stack are built together, in stacks of 8 here: an
    # interrupt while the k-th sample is built keeps the stacks before its own
    path = REFERENCE_LINES["butterfly3d_w"]()
    full = scan_line(path)
    monkeypatch.setattr(catastrophe, "_STACK", 8)
    built = []
    param_rows = potentials._param_rows

    def interrupting(spec, settings):
        built.append(len(settings[0][1]))
        if sum(built) >= k:
            raise KeyboardInterrupt
        return param_rows(spec, settings)

    monkeypatch.setattr(potentials, "_param_rows", interrupting)
    rep = scan_line(path)
    assert rep.header["partial"] is True and full.header["partial"] is False
    assert repr(rep.samples) == repr(full.samples[:(k - 1) // 8 * 8])


@pytest.mark.parametrize("line, owner, names, k, kept", [
    # inside event refinement: samples are built as arrays, so the 9th spec
    # build is an event probe
    ("butterfly3d_w", ParamPath, ("spec_at",), 9, (0, 0)),
    # the first boundary takes one stack of probes and 6 single probes; the
    # 8th call is the second boundary's stack, the 9th its first single probe
    ("readme", catastrophe, ("_evaluate_samples", "_evaluate_sample"), 8, (1, 0)),
    ("readme", catastrophe, ("_evaluate_samples", "_evaluate_sample"), 9, (1, 0)),
    # the second event of the line's one event bracket: the first is kept
    ("butterfly3d_w", catastrophe, ("OrbitEvent",), 2, (0, 1)),
], ids=["event", "boundary", "boundary_step", "second_event"])
def test_interrupted_refinement_keeps_what_came_before(monkeypatch, line, owner, names, k,
                                                       kept):
    path = REFERENCE_LINES[line]()
    full = scan_line(path)
    calls = []

    def interrupting(fn):
        def wrapper(*args):
            calls.append(args)
            if len(calls) == k:
                raise KeyboardInterrupt
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, interrupting(getattr(owner, name)))
    rep = scan_line(path)
    assert rep.header["partial"] is True
    assert repr(rep.samples) == repr(full.samples)
    assert repr(rep.boundaries) == repr(full.boundaries[:len(rep.boundaries)])
    assert repr(rep.events) == repr(full.events[:len(rep.events)])
    lost = len(full.boundaries) - len(rep.boundaries) + len(full.events) - len(rep.events)
    assert lost >= 1
    assert (len(rep.boundaries), len(rep.events)) == kept


@pytest.mark.parametrize("k, kept", [(1, 0), (3, 16)])
def test_interrupted_stack_keeps_the_stacks_before_it(monkeypatch, k, kept):
    # stacks of 8: an interrupt in the k-th evaluation keeps the samples of
    # the k - 1 stacks before it, which equal those of a default-size run
    path = REFERENCE_LINES["butterfly3d_w"]()
    full = scan_line(path)
    monkeypatch.setattr(catastrophe, "_STACK", 8)
    evaluations = []
    classify_points = stationary.classify_points

    def interrupting(x, owner, coeffs):
        evaluations.append(len(coeffs[0]))
        if len(evaluations) == k:
            raise KeyboardInterrupt
        return classify_points(x, owner, coeffs)

    monkeypatch.setattr(stationary, "classify_points", interrupting)
    rep = scan_line(path)
    assert rep.header["partial"] is True
    assert repr(rep.samples) == repr(full.samples[:kept])


def test_raster_rejects_an_axis_a_line_scan_rejects(monkeypatch):
    # an unknown name fails before any cell is sampled, as it does for a line
    spec = make_spec("butterfly1d", alpha=1.0, beta=1.0)
    builds = count_calls(monkeypatch, potentials.with_param)
    for vary_x, vary_y, message in (
            (("foo", 0.5, 2.5), ("beta", 0.5, 2.5), "unknown parameter 'foo'"),
            (("alpha", 0.5, 2.5), ("bar", 0.5, 2.5), "unknown parameter 'bar'"),
            (("alpha", 1.0, 1.0), ("beta", 0.5, 2.5), "does not vary")):
        with pytest.raises(ValueError, match=message):
            ParamPath(spec=spec, varied=(vary_x, vary_y), steps=3)
        with pytest.raises(ValueError, match=message):
            scan_grid(spec, vary_x, vary_y, resolution=3)
    assert builds == []  # a name check builds no spec, and no cell is sampled


def test_raster_is_evaluated_in_bounded_stacks(monkeypatch):
    # 11 x 11 cells take two stacks of at most 64 coefficient rows each
    batches = count_calls(monkeypatch, stationary.classify_points)
    spec = make_spec("butterfly1d", alpha=1.0, beta=1.0)
    scan_grid(spec, ("alpha", 0.5, 2.5), ("beta", 0.5, 2.5), resolution=11)
    assert [len(coeffs[0]) for _x, _owner, coeffs in batches] == [64, 57]

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polydot import potentials, stationary
from polydot.errors import DegenerateCoupling, NoRealShape
from polydot.oracle import GridSpec, match_stationary, newton_stationary
from polydot.potentials import make_spec, spec_from_raw
from polydot.stationary import (
    SMALL_COUPLING_THRESHOLD,
    bulk_reality_large_couplings,
    bulk_reality_small_couplings,
    bulk_roots_3d,
    classify,
    enumerate_stationary,
    off_axis_roots_2d,
    off_axis_roots_3d,
    on_axis_roots,
    orbit_members,
    quadratic_aux,
    stationary_points,
)
from polydot.verify import corpus_specs, oracle_agreement

from helpers import (
    DRAWERS,
    ROOT_ALGEBRA_REFERENCES,
    any_family_spec,
    coefficients_reference,
    draw_butterfly2d_with_roots,
    draw_butterfly3d_ordered,
    orbit_members_reference,
)

FIG2 = dict(alpha=1.0, gamma=1.9, u=-16.0 / 3.0)


def by_label(points):
    return {p.label: p for p in points}


def residual_ok(spec, p, coef=1e-10):
    res = float(np.max(np.abs(potentials.gradient(spec, p.location))))
    scale = 1.0 + max(abs(c) for c in p.location) ** 5
    return res < coef * scale


# ---------------------------------------------------------------------------
# cusp families
# ---------------------------------------------------------------------------

def test_cusp3d_full_table():
    spec = make_spec("cusp3d", alpha=1.4, beta=1.2, gamma=1.0)
    pts = stationary_points(spec)
    assert len(pts) == 4
    assert sum(p.multiplicity for p in pts) == 7
    table = by_label(pts)
    assert table["origin"].kind == "maximum" and table["origin"].value == 0.0
    assert table["axis_z"].kind == "saddle"
    assert table["axis_z"].value == pytest.approx(-1.0, rel=1e-12)
    assert table["axis_y"].kind == "saddle"
    assert table["axis_y"].value == pytest.approx(-1.2**4, rel=1e-12)
    assert table["axis_x"].kind == "minimum"
    assert table["axis_x"].value == pytest.approx(-1.4**4, rel=1e-12)
    assert [p.value for p in pts] == sorted(p.value for p in pts)


def test_cusp2d_saddles_on_y_axis():
    # saddles sit at (0, +-beta) with value -beta^4
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    table = by_label(stationary_points(spec))
    assert table["axis_y"].location == (0.0, 1.0)
    assert table["axis_y"].value == pytest.approx(-1.0, rel=1e-12)
    assert table["axis_y"].kind == "saddle"


def test_cusp_degenerate_ring_flagged():
    spec = make_spec("cusp2d", alpha=1.0, beta=1.0)
    kinds = {p.label: p.kind for p in stationary_points(spec)}
    assert kinds["axis_x"] == "degenerate"
    assert kinds["axis_y"] == "degenerate"


# ---------------------------------------------------------------------------
# on-axis roots
# ---------------------------------------------------------------------------

def test_on_axis_roots_butterfly_pair():
    spec = spec_from_raw("butterfly2d", dict(a=2.305, b=2.305, c=3.61, d=3.61, u=0.0))
    roots = on_axis_roots(spec, "x")
    assert roots["x_minus_sq"] == pytest.approx(1.0, rel=1e-12)
    assert roots["x_plus_sq"] == pytest.approx(3.61, rel=1e-12)


def test_on_axis_roots_double_root_at_zero_beta():
    spec = spec_from_raw("butterfly2d", dict(a=2.0, b=2.0, c=4.0, d=4.0, u=0.0))
    roots = on_axis_roots(spec, "x")
    assert roots["x_minus_sq"] == roots["x_plus_sq"] == pytest.approx(2.0)


def test_on_axis_roots_cusp():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    assert on_axis_roots(spec, "x")["x_sq"] == pytest.approx(1.96, rel=1e-12)


def test_on_axis_roots_no_real_shape():
    spec = spec_from_raw("butterfly2d", dict(a=1.0, b=2.0, c=1.5, d=0.5, u=0.0))
    with pytest.raises(NoRealShape):
        on_axis_roots(spec, "x")
    # enumeration skips the bad axis with a warning, not an error
    report = enumerate_stationary(spec)
    assert report.warnings and "axis x" in report.warnings[0]
    assert all(p.location[0] == 0.0 for p in report.points)


# ---------------------------------------------------------------------------
# 2D off-axis roots
# ---------------------------------------------------------------------------

def test_fig2_has_no_off_axis_roots():
    spec = make_spec("butterfly2d", **FIG2)
    aux = quadratic_aux(spec)
    assert aux.disc == pytest.approx(-0.579, abs=1e-3)
    assert off_axis_roots_2d(spec) == []
    pts = stationary_points(spec)
    assert len(pts) == 5
    assert sum(p.multiplicity for p in pts) == 9
    minima = [p for p in pts if p.kind == "minimum"]
    assert sum(p.multiplicity for p in minima) == 5
    outer = by_label(pts)["axis_x_outer"]
    assert outer.value == pytest.approx((1.0 - 1.305) * 1.9**4, rel=1e-12)


def test_symmetric_off_axis_roots_values():
    spec = spec_from_raw("butterfly2d", dict(a=2.305, b=2.305, c=3.61, d=3.61, u=4.0))
    roots = off_axis_roots_2d(spec)
    assert len(roots) == 2
    x2, y2, r2 = roots[0]
    assert r2 == pytest.approx(1.141, abs=5e-4)
    assert x2 == pytest.approx(0.570, abs=5e-4)
    assert x2 == pytest.approx(y2, rel=1e-12)
    for x2, y2, r2 in roots:
        assert x2 + y2 == pytest.approx(r2, rel=1e-10)


def test_complex_quadrant_gives_empty_list():
    # uz+1 < 0 and disc < 0: no real in-plane radii
    spec = spec_from_raw("butterfly2d", dict(a=2.305, b=2.305, c=3.61, d=3.61, u=-8.0))
    aux = quadratic_aux(spec)
    assert aux.uzp1 < 0.0 and aux.disc < 0.0
    assert off_axis_roots_2d(spec) == []


def test_degenerate_coupling_raises():
    # a = b, c = d, u = 2a: both rows read 2a (X^2 + Y^2) = r^4 + c, so the
    # in-plane points form a continuum along X^2 + Y^2 = r^2
    spec = spec_from_raw("butterfly2d", dict(a=2.0, b=2.0, c=3.0, d=3.0, u=4.0))
    with pytest.raises(DegenerateCoupling, match="singular"):
        off_axis_roots_2d(spec)
    # with c != d the two rows contradict each other: no solve either
    spec = spec_from_raw("butterfly2d", dict(a=2.0, b=2.0, c=3.0, d=1.0, u=4.0))
    with pytest.raises(DegenerateCoupling, match="singular"):
        off_axis_roots_2d(spec)


def test_quadratic_aux_definitions():
    spec = spec_from_raw("butterfly2d", dict(a=2.0, b=1.5, c=3.0, d=2.0, u=-1.0))
    aux = quadratic_aux(spec)
    z = 1.0 / (4.0 + 1.0) + 1.0 / (3.0 + 1.0)
    w = 3.0 / 5.0 + 2.0 / 4.0
    assert aux.z_of_u == pytest.approx(z, rel=1e-15)
    assert aux.w_of_u == pytest.approx(w, rel=1e-15)
    assert aux.uzp1 == pytest.approx(-z + 1.0, rel=1e-15)
    assert aux.disc == pytest.approx(aux.uzp1**2 - 4.0 * z * w, rel=1e-15)


@pytest.mark.parametrize("lam", [1e-7, 1e-3, 1.0, 1e3])
def test_quadratic_aux_is_scale_free(lam):
    # x -> x / lam scales a, b, u by lam^2 and c, d by lam^4, so w scales
    # by lam^2, z by lam^-2, and uz + 1 and the discriminant stay put; the
    # collision test used to floor its scale at 1, so at lam = 1e-7 it
    # raised DegenerateCoupling for every spec
    def scaled(raw):
        return spec_from_raw("butterfly2d", {
            k: v * (lam ** 4 if k in ("c", "d") else lam ** 2) for k, v in raw.items()})

    rng = np.random.default_rng(11)
    for raw in [corpus_specs()["fig2_butterfly2d"].raw,
                *(DRAWERS["butterfly2d"](rng).raw for _ in range(20))]:
        unit = quadratic_aux(spec_from_raw("butterfly2d", raw))
        aux = quadratic_aux(scaled(raw))
        assert aux.w_of_u == pytest.approx(unit.w_of_u * lam ** 2, rel=1e-12)
        assert aux.z_of_u == pytest.approx(unit.z_of_u / lam ** 2, rel=1e-12)
        assert aux.uzp1 == pytest.approx(unit.uzp1, rel=1e-12)
        assert aux.disc == pytest.approx(unit.disc, rel=1e-12)
        with pytest.raises(DegenerateCoupling, match="collides"):
            quadratic_aux(scaled({**raw, "u": 2.0 * raw["a"]}))


def test_quadratic_aux_raises_at_zero_coefficients():
    with pytest.raises(DegenerateCoupling, match="collides"):
        quadratic_aux(spec_from_raw("butterfly2d", dict(a=0.0, b=0.0, c=1.0, d=1.0, u=0.0)))


# ---------------------------------------------------------------------------
# 3D off-axis roots
# ---------------------------------------------------------------------------

def test_bulk_isotropic_zero_coupling_closed_form():
    # xi = 0.2 is below the existence threshold: two bulk orbits
    alpha, beta = 0.2, 1.0
    a = alpha**2 + beta**2
    p = alpha**2 * (alpha**2 + 2 * beta**2)
    spec = spec_from_raw("butterfly3d",
                         dict(a=a, b=a, c=a, u=0.0, v=0.0, w=0.0, p=p, q=p, s=p))
    roots = bulk_roots_3d(spec)
    assert len(roots) == 2
    disc = beta**4 - 8 * alpha**2 * (alpha**2 + 2 * beta**2)
    expected = sorted([(a - math.sqrt(disc)) / 3.0, (a + math.sqrt(disc)) / 3.0])
    got = sorted(r[3] for r in roots)
    assert got[0] == pytest.approx(expected[0], rel=1e-12)
    assert got[1] == pytest.approx(expected[1], rel=1e-12)
    for x2, y2, z2, r2 in roots:
        assert x2 == pytest.approx(y2, rel=1e-10) == pytest.approx(z2, rel=1e-10)


def test_planar_roots_match_2d_formula_exactly():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(40):
        spec3 = helpers_butterfly3d_with_plane_roots(rng)
        if spec3 is None:
            continue
        raw = spec3.raw
        spec2 = spec_from_raw("butterfly2d", dict(
            a=raw["a"], b=raw["b"], c=raw["p"], d=raw["q"], u=raw["u"]))
        planar = [(x2, y2, r2) for x2, y2, z2, r2, sub in off_axis_roots_3d(spec3)
                  if sub == "plane_xy"]
        flat = off_axis_roots_2d(spec2)
        assert len(planar) == len(flat)
        for (x2a, y2a, r2a), (x2b, y2b, r2b) in zip(sorted(planar), sorted(flat)):
            assert abs(x2a - x2b) <= 1e-12
            assert abs(y2a - y2b) <= 1e-12
            assert abs(r2a - r2b) <= 1e-12
        checked += len(planar)
    assert checked > 10


def helpers_butterfly3d_with_plane_roots(rng):
    """3D draw with live xy-plane roots (z block decoupled-ish)."""
    spec2 = draw_butterfly2d_with_roots(rng)
    raw2 = spec2.raw
    return spec_from_raw("butterfly3d", dict(
        a=raw2["a"], b=raw2["b"], c=rng.uniform(0.5, 2.0),
        u=raw2["u"], v=rng.uniform(-0.4, 0.4), w=rng.uniform(-0.4, 0.4),
        p=raw2["c"], q=raw2["d"], s=rng.uniform(0.5, 3.0)))


def test_bulk_strong_coupling_reduced_quadratic():
    # cross couplings dominate (a = b = c = 0): the radius quadratic is
    # 3 r^4 - 2 u r^2 + (p + q + s) = 0
    p, q, s = 2.0, 1.5, 2.5
    u = math.sqrt(3 * (p + q + s)) * 1.2
    spec = spec_from_raw("butterfly3d",
                         dict(a=0.0, b=0.0, c=0.0, u=u, v=u, w=u, p=p, q=q, s=s))
    roots = bulk_roots_3d(spec)
    assert len(roots) == 2
    disc = math.sqrt(u * u - 3 * (p + q + s))
    expected = sorted([(u - disc) / 3.0, (u + disc) / 3.0])
    got = sorted(r[3] for r in roots)
    assert got[0] == pytest.approx(expected[0], rel=1e-12)
    assert got[1] == pytest.approx(expected[1], rel=1e-12)


def test_bulk_roots_need_a_butterfly3d_spec():
    with pytest.raises(ValueError, match="butterfly3d"):
        bulk_roots_3d(make_spec("butterfly2d", **FIG2))


def test_singular_coupling_matrix_raises():
    spec = spec_from_raw("butterfly3d",
                         dict(a=1.0, b=1.0, c=1.0, u=2.0, v=2.0, w=2.0,
                              p=1.0, q=1.0, s=1.0))
    with pytest.raises(DegenerateCoupling, match="singular"):
        bulk_roots_3d(spec)


# ---------------------------------------------------------------------------
# the off-axis linear form on and near the loci of older solves: u = 2a,
# u = 2b, u^2 = 4ab and a singular 3D coupling matrix
# ---------------------------------------------------------------------------

def relative_residual(spec, squares):
    """Largest |dV/dx_i| / (6 |x_i|) over the nonzero coordinates, relative
    to the sum of the magnitudes of its terms r^4, c_i, 2a_i X_i^2 and
    u_ij X_j^2; exact rational arithmetic on the float squares."""
    s = [Fraction(x) for x in squares]
    r4 = sum(s) ** 2
    worst = 0.0
    for i, (a, c) in enumerate(potentials.axis_pairs(spec)):
        if s[i] == 0:
            continue
        terms = [r4, Fraction(c), -2 * Fraction(a) * s[i]]
        terms += [-Fraction(u) * s[j if k == i else k]
                  for k, j, u in potentials.couplings(spec) if i in (k, j)]
        worst = max(worst, float(abs(sum(terms)) / sum(abs(t) for t in terms)))
    return worst


def _offset(draw):
    """+-10^e with e drawn from U(-9, -3)."""
    return draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-9.0, -3.0))


def _designed(draw, M):
    """Squares X > 0 summing to r^2 in [0.05, 0.9], and the quadratic
    coefficients k = M X - r^4 that make X a stationary point, or None
    when some k_i <= 0 (outside the family's domain) or r^2 is within
    1e-3 of a double root.  With lead = 1^T adj M 1 = det(M + 11^T) - det M
    the closing quadratic is (t - r^2) (lead (t + r^2) - det M)."""
    weights = [draw(st.floats(0.05, 1.0)) for _ in M]
    r2 = draw(st.floats(0.05, 0.9))
    X = [w * r2 / sum(weights) for w in weights]
    k = [sum(m * x for m, x in zip(row, X)) - r2 * r2 for row in M]
    det = np.linalg.det(M)
    lead = np.linalg.det(np.add(M, 1.0)) - det
    simple = abs(det - 2.0 * lead * r2) > 1e-3 * (abs(det) + abs(lead) * r2)
    return k if min(k) > 0.0 and simple else None


@st.composite
def butterfly2d_near_a_locus(draw):
    """(spec, designed): u within 1e-9..1e-3 of 2a, 2b, 2 sqrt(ab) or
    -2 sqrt(ab), with a and b apart (a = b, u = 2a is a continuum); c and d
    put a plane point at drawn squares when that keeps them positive
    (designed), and are drawn otherwise."""
    a, b = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    assume(abs(a - b) >= 0.05)
    root = 2.0 * math.sqrt(a * b)
    u = draw(st.sampled_from((2.0 * a, 2.0 * b, root, -root))) + _offset(draw)
    k = _designed(draw, [[2.0 * a, u], [u, 2.0 * b]])
    c, d = k or (draw(st.floats(0.1, 4.0)), draw(st.floats(0.1, 4.0)))
    return spec_from_raw("butterfly2d", dict(a=a, b=b, c=c, d=d, u=u)), k is not None


@st.composite
def butterfly3d_near_singular(draw):
    """(spec, designed): det M within 1e-9..1e-3 (times 2(4ab - u^2)) of
    zero, or exactly zero up to rounding, where
    det M = 2c (4ab - u^2) - 2 (a w^2 + b v^2 - u v w); p, q, s as in
    butterfly2d_near_a_locus."""
    a, b = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))
    u = draw(st.floats(-0.9, 0.9)) * 2.0 * math.sqrt(a * b)
    v, w = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    c = (a * w * w + b * v * v - u * v * w) / (4.0 * a * b - u * u)
    if draw(st.booleans()):
        c += _offset(draw)
    assume(c >= 0.0)
    k = _designed(draw, [[2.0 * a, u, v], [u, 2.0 * b, w], [v, w, 2.0 * c]])
    p, q, s = k or [draw(st.floats(0.1, 4.0)) for _ in range(3)]
    raw = dict(a=a, b=b, c=c, u=u, v=v, w=w, p=p, q=q, s=s)
    return spec_from_raw("butterfly3d", raw), k is not None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(butterfly2d_near_a_locus())
def test_plane_roots_near_the_old_loci_solve_to_rounding(drawn):
    spec, designed = drawn
    roots = off_axis_roots_2d(spec)
    assert roots or not designed
    for x2, y2, _r2 in roots:
        assert relative_residual(spec, (x2, y2)) <= 1e-12, (spec.raw, x2, y2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(butterfly3d_near_singular())
def test_bulk_roots_near_a_singular_coupling_matrix_solve_to_rounding(drawn):
    spec, designed = drawn
    roots = off_axis_roots_3d(spec)
    assert any(sub == "bulk" for *_sq, sub in roots) or not designed
    for x2, y2, z2, _r2, sub in roots:
        assert relative_residual(spec, (x2, y2, z2)) <= 1e-12, (spec.raw, sub)


def test_quadratic_roots_are_scale_free_over_the_float_range():
    # the coefficients of a coupled block scale as max|M|^n: at u = 1e100 the
    # bulk quadratic of butterfly3d_ordered is (-1e200, 4e200, -2.56e200), and
    # q1^2 overflows (2^600) or underflows (2^-600) unless rescaled first
    unit = stationary._real_quadratic_roots(-1.0, 4.0, -2.56)
    assert [tag for _t, tag in unit] == ["minus", "plus"]
    assert [t for t, _tag in unit] == pytest.approx([0.8, 3.2], rel=1e-15)
    for f in (2.0 ** 600, 2.0 ** -600):  # exact rescalings: the same bits
        assert stationary._real_quadratic_roots(-f, 4.0 * f, -2.56 * f) == unit
    roots = stationary._real_quadratic_roots(-1e200, 4e200, -2.56e200)
    assert [t for t, _tag in roots] == pytest.approx([0.8, 3.2], rel=1e-15)


# specs at which an older solve raised DegenerateCoupling though the
# stationary set is finite
OLD_LOCI = {
    "u_2a": ("butterfly2d", dict(a=1.0, b=2.0, c=0.5, d=1.5, u=2.0)),
    "u_2b": ("butterfly2d", dict(a=2.0, b=1.0, c=1.5, d=0.5, u=2.0)),
    # u^2 = 4ab exactly, with a plane point at squares (0.3, 0.2)
    "u_sq_4ab": ("butterfly2d", dict(a=1.0, b=4.0, c=1.15, d=2.55, u=4.0)),
    # det M = 0 at rank 2, without and with a bulk orbit
    "det_0": ("butterfly3d", dict(a=1.0, b=1.0, c=1.0, u=1.0, v=1.0, w=-1.0,
                                  p=0.5, q=0.6, s=0.7)),
    "det_0_bulk": ("butterfly3d", dict(a=1.0, b=1.0, c=1.0, u=1.0, v=1.0, w=-1.0,
                                       p=0.25, q=0.13, s=0.07)),
    "xy_plane_u_2a": ("butterfly3d", dict(a=1.0, b=2.0, c=1.5, u=2.0, v=0.3, w=-0.2,
                                          p=0.5, q=1.5, s=1.0)),
}


@pytest.mark.parametrize("name", list(OLD_LOCI))
def test_linear_form_matches_newton_on_the_old_loci(name):
    family, raw = OLD_LOCI[name]
    spec = spec_from_raw(family, raw)
    _found, missing, spurious = oracle_agreement(spec)
    assert missing == [] and spurious == []
    off_axis = [p for p in stationary_points(spec) if p.subfamily.startswith(("plane", "bulk"))]
    assert off_axis
    if name == "det_0_bulk":
        assert "bulk" in {p.subfamily for p in off_axis}


# ---------------------------------------------------------------------------
# reality criteria
# ---------------------------------------------------------------------------

def test_small_coupling_criterion_rejects_a_ratio_that_is_not_positive():
    with pytest.raises(ValueError) as err:
        bulk_reality_small_couplings(0.0)
    assert str(err.value) == "xi must be positive, got 0"


def test_quadratic_aux_repr():
    aux = stationary.QuadraticAux(w_of_u=1.5, z_of_u=0.25, uzp1=-2.0, disc=1e-20)
    assert repr(aux) == "QuadraticAux(w=1.5, z=0.25, uzp1=-2, disc=1e-20)"


def test_small_coupling_criterion_examples():
    real, threshold = bulk_reality_small_couplings(0.2)
    assert real and 0.04 * 2.04 <= 0.125
    real, _ = bulk_reality_small_couplings(0.25)
    assert not real
    assert threshold == pytest.approx(0.2462928572, abs=1e-9)
    assert threshold == SMALL_COUPLING_THRESHOLD


def test_small_coupling_criterion_matches_bulk_solver():
    beta = 1.0
    for xi in (0.15, 0.2, 0.24, 0.25, 0.3):
        alpha = xi * beta
        a = alpha**2 + beta**2
        p = alpha**2 * (alpha**2 + 2 * beta**2)
        spec = spec_from_raw(
            "butterfly3d",
            dict(a=a, b=a, c=a, u=0.0, v=0.0, w=0.0, p=p, q=p, s=p))
        predicted, _ = bulk_reality_small_couplings(xi)
        assert (len(bulk_roots_3d(spec)) == 2) == predicted, xi


def test_large_coupling_criterion_examples():
    real, bound = bulk_reality_large_couplings(6.0, 3.0, 3.0, 3.0)
    assert real and bound == pytest.approx(math.sqrt(27.0), rel=1e-15)
    real, bound = bulk_reality_large_couplings(bound, 3.0, 3.0, 3.0)
    assert real  # boundary case: double root r^2 = u/3
    real, _ = bulk_reality_large_couplings(5.0, 3.0, 3.0, 3.0)
    assert not real
    with pytest.raises(ValueError):
        bulk_reality_large_couplings(6.0, -1.0, 3.0, 3.0)


def test_large_coupling_double_root_location():
    # u^2 = 3 (p + q + s) exactly representable: 36 = 3 * 12
    p = q = s = 4.0
    u = 6.0
    spec = spec_from_raw("butterfly3d",
                         dict(a=0.0, b=0.0, c=0.0, u=u, v=u, w=u, p=p, q=q, s=s))
    roots = bulk_roots_3d(spec)
    assert len(roots) == 1
    assert roots[0][3] == pytest.approx(u / 3.0, rel=1e-9)


# ---------------------------------------------------------------------------
# invariant suites
# ---------------------------------------------------------------------------

def test_zero_gradient_residual_randomized():
    rng = np.random.default_rng(71)
    for family, draw in DRAWERS.items():
        for _ in range(200):
            spec = draw(rng)
            try:
                pts = stationary_points(spec)
            except DegenerateCoupling:
                continue
            for p in pts:
                assert residual_ok(spec, p), (family, spec.raw, p)


def test_orbit_closure_under_sign_flips():
    rng = np.random.default_rng(73)
    spec = draw_butterfly2d_with_roots(rng)
    pts = stationary_points(spec)
    reps = {tuple(p.location) for p in pts}
    for p in pts:
        for member in p.orbit_members():
            assert tuple(abs(c) for c in member) in reps
        assert p.multiplicity == len(p.orbit_members())


def test_orbit_members_shape():
    members = orbit_members((1.5, 0.0, 2.0))
    assert members.shape == (4, 3)
    assert {tuple(m) for m in members} == {
        (1.5, 0.0, 2.0), (1.5, 0.0, -2.0), (-1.5, 0.0, 2.0), (-1.5, 0.0, -2.0)
    }


def test_orbit_members_match_concatenate_reference():
    # the first coordinate's sign flips fastest, as the row-stacking build gave
    rng = np.random.default_rng(21)
    for dim in (1, 2, 3):
        for _ in range(40):
            loc = tuple(rng.uniform(0.1, 3.0, dim) * (rng.random(dim) < 0.7))
            assert orbit_members(loc).tobytes() == orbit_members_reference(loc).tobytes()
            assert orbit_members(loc).shape == orbit_members_reference(loc).shape


def test_oracle_agreement_randomized_all_families():
    # closed form vs grid-seeded Newton search, one-to-one at 1e-8
    rng = np.random.default_rng(79)
    budget = {"cusp2d": 25, "cusp3d": 25, "butterfly1d": 25,
              "butterfly2d": 15, "butterfly3d": 10}
    for family, draw in DRAWERS.items():
        for _ in range(budget[family]):
            spec = draw(rng)
            radius = potentials.characteristic_radius(spec)
            grid = GridSpec(extent=1.6 * radius,
                            n={1: 64, 2: 21, 3: 17}[spec.dimension])
            closed = stationary_points(spec)
            found = newton_stationary(spec, grid)
            missing, spurious = match_stationary(closed, found, 1e-8,
                                                 10.0 * radius)
            assert not missing, (family, spec.raw, missing)
            assert not spurious, (family, spec.raw, spurious)


def test_2d3d_consistency_decoupled_plane():
    rng = np.random.default_rng(83)
    for _ in range(10):
        spec2 = draw_butterfly2d_with_roots(rng)
        raw2 = spec2.raw
        spec3 = spec_from_raw("butterfly3d", dict(
            a=raw2["a"], b=raw2["b"], c=rng.uniform(0.5, 1.5),
            u=raw2["u"], v=0.0, w=0.0,
            p=raw2["c"], q=raw2["d"], s=rng.uniform(0.5, 2.0)))
        labels3 = {p.label: p for p in stationary_points(spec3)}
        for p2 in stationary_points(spec2):
            if p2.subfamily == "origin":
                continue
            p3 = labels3[p2.label]
            assert p3.location[:2] == pytest.approx(p2.location, abs=1e-12)
            assert p3.location[2] == 0.0
            assert p3.value == pytest.approx(p2.value, rel=1e-12)


def test_table_kinds_under_ordered_draws():
    rng = np.random.default_rng(89)
    for _ in range(25):
        spec, shape = draw_butterfly3d_ordered(rng)
        table = by_label(stationary_points(spec))
        assert table["origin"].kind == "minimum"
        for ax in "xyz":
            inner = table[f"axis_{ax}_inner"]
            expected = shape[f"alpha_{ax}_sq"]**2 * (
                shape[f"alpha_{ax}_sq"] + 3 * shape[f"beta_{ax}_sq"])
            assert inner.value == pytest.approx(expected, rel=1e-10)
            assert inner.kind == "saddle"
            outer = table[f"axis_{ax}_outer"]
            expected = (shape[f"alpha_{ax}_sq"] - shape[f"beta_{ax}_sq"]) * \
                shape[f"gamma_{ax}_sq"]**2
            assert outer.value == pytest.approx(expected, rel=1e-10)
            assert outer.kind in ("saddle", "minimum")


def test_points_sorted_by_value():
    rng = np.random.default_rng(97)
    for family, draw in DRAWERS.items():
        spec = draw(rng)
        pts = stationary_points(spec)
        assert [p.value for p in pts] == sorted(p.value for p in pts)


# ---------------------------------------------------------------------------
# batched enumeration against single-point evaluate/hessian calls
# ---------------------------------------------------------------------------

def assert_matches_single_point_calls(spec, points):
    """Values and Hessian eigenvalues of the batched enumeration equal the
    single-point evaluate and eigvalsh(hessian) at each location to 1e-12
    relative to the spec's value scale and the point's stiffness scale;
    kinds, multiplicities and the (value, label) order are unchanged."""
    dim = spec.dimension
    values = [float(potentials.evaluate(spec, p.location[0] if dim == 1 else p.location))
              for p in points]
    v_scale = max(abs(v) for v in values)
    for p, v in zip(points, values):
        h = potentials.hessian(spec, p.location[0] if dim == 1 else p.location)
        eigs = np.linalg.eigvalsh(np.reshape(h, (dim, dim)))
        assert p.value == pytest.approx(v, rel=1e-12, abs=1e-12 * v_scale), p.label
        np.testing.assert_allclose(p.hessian_eigs, eigs, rtol=1e-12,
                                   atol=1e-12 * float(np.max(np.abs(eigs))))
        assert p.kind == classify(eigs), p.label
        assert p.multiplicity == 2 ** sum(1 for c in p.location if c != 0.0)
    reordered = sorted(zip(values, [p.label for p in points]))
    assert [label for _v, label in reordered] == [p.label for p in points]


@pytest.mark.parametrize("name", sorted(corpus_specs()))
def test_batched_enumeration_matches_single_point_calls_corpus(name):
    spec = corpus_specs()[name]
    assert_matches_single_point_calls(spec, enumerate_stationary(spec).points)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(any_family_spec())
def test_batched_enumeration_matches_single_point_calls_drawn(spec):
    try:
        points = enumerate_stationary(spec).points
    except DegenerateCoupling:
        assume(False)
    assert_matches_single_point_calls(spec, points)


# ---------------------------------------------------------------------------
# the root algebra against its raw-key reference, at any scale
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """repr of fn(*args), every float at full precision, or the type and
    message of what it raises."""
    try:
        out = fn(*args)
    except Exception as err:  # the error is the outcome
        return f"{type(err).__name__}: {err}"
    if isinstance(out, stationary.QuadraticAux):
        return repr((out.w_of_u, out.z_of_u, out.uzp1, out.disc))
    if isinstance(out, tuple) and isinstance(out[0], np.ndarray):
        return repr([c.tolist() for c in out])
    return repr(out)


@st.composite
def scaled_family_spec(draw):
    """A spec of any family with every raw coefficient times 10^e, e drawn
    from U(-8, 8) or 0."""
    spec = draw(any_family_spec())
    scale = 10.0 ** draw(st.one_of(st.just(0.0), st.floats(-8.0, 8.0)))
    return spec_from_raw(spec.family, {k: v * scale for k, v in spec.raw.items()})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(scaled_family_spec())
@example(spec_from_raw("butterfly2d", dict(a=1.0, b=1.5, c=0.5, d=1.0, u=2.0)))
@example(make_spec("butterfly3d", alpha=1.2, beta=0.0, u=0.3, v=-0.2))
@example(spec_from_raw("butterfly3d", dict(a=1.0, b=1.0, c=1.0, u=2.0, v=2.0, w=2.0,
                                           p=1.0, q=1.0, s=1.0)))
@example(spec_from_raw("butterfly3d", dict(a=1e-7, b=2e-7, c=1e-7, u=0.0, v=1e-7, w=0.0,
                                           p=1e-14, q=1e-14, s=1e-14)))
def test_root_algebra_matches_raw_key_reference(spec):
    for name, reference in ROOT_ALGEBRA_REFERENCES.items():
        if name == "bulk_roots_3d" and spec.family != "butterfly3d":
            continue
        axes = potentials.AXES if name == "on_axis_roots" else (None,)
        for axis in axes:
            args = (spec,) if axis is None else (spec, axis)
            assert outcome(getattr(stationary, name), *args) == outcome(reference, *args), name
    stack = [spec, spec_from_raw(spec.family, {k: 2.0 * v for k, v in spec.raw.items()})]
    assert outcome(potentials._coefficients, stack) == outcome(coefficients_reference, stack)

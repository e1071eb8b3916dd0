import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydot import potentials
from polydot.errors import NoRealShape, PolydotError
from polydot.potentials import (
    PotentialSpec,
    evaluate,
    gradient,
    hessian,
    make_spec,
    raw_to_shape,
    reparametrize,
    shape_to_raw,
    spec_from_dict,
    spec_from_raw,
    with_param,
)

from helpers import (
    DRAWERS,
    _butterfly_pairs_reference,
    any_family_spec,
    axis_pair_from_shape_reference,
    characteristic_radius_reference,
    make_spec_reference,
    random_points,
    raw_to_shape_reference,
    shape_to_raw_reference,
    shape_triple_reference,
    with_param_reference,
    with_param_shape_reference,
)


def _ev(spec, x):
    x = np.asarray(x, float)
    return evaluate(spec, x[0] if spec.dimension == 1 else x)


def _gr(spec, x):
    x = np.asarray(x, float)
    return np.atleast_1d(gradient(spec, x[0] if spec.dimension == 1 else x))


def fd_gradient(spec, x, h=1e-5):
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (_ev(spec, x + e) - _ev(spec, x - e)) / (2 * h)
    return out


def fd_hessian(spec, x, h=1e-4):
    x = np.asarray(x, float)
    d = len(x)
    out = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        out[i] = (_gr(spec, x + e) - _gr(spec, x - e)) / (2 * h)
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_cusp2d_minimum_value():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    assert evaluate(spec, (1.4, 0.0)) == pytest.approx(-1.4**4, abs=1e-12)
    assert evaluate(spec, (-1.4, 0.0)) == pytest.approx(-1.4**4, abs=1e-12)


def test_origin_is_zero_for_all_families():
    rng = np.random.default_rng(3)
    for family, draw in DRAWERS.items():
        spec = draw(rng)
        origin = np.zeros(spec.dimension)
        assert evaluate(spec, origin) == 0.0


def test_butterfly1d_outer_value_vanishes_at_equal_shape():
    spec = make_spec("butterfly1d", alpha=1.0, beta=1.0)
    gamma = math.sqrt(spec.shape["gamma_sq"])
    assert spec.shape["gamma_sq"] == pytest.approx(3.0, rel=1e-14)
    assert evaluate(spec, gamma) == pytest.approx(0.0, abs=1e-12)


def test_butterfly1d_outer_value_general():
    spec = make_spec("butterfly1d", alpha=1.3, beta=0.7)
    sh = spec.shape
    gamma = math.sqrt(sh["gamma_sq"])
    expected = (sh["alpha_sq"] - sh["beta_sq"]) * sh["gamma_sq"] ** 2
    assert evaluate(spec, gamma) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient / hessian
# ---------------------------------------------------------------------------

def test_cusp2d_gradient_formula():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    g = gradient(spec, (1.0, 0.0))
    assert g == pytest.approx([4 * (1 - 1.96), 0.0], abs=1e-12)


def test_cusp2d_hessian_at_minimum():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    h = hessian(spec, (1.4, 0.0))
    assert h[0, 0] == pytest.approx(15.68, rel=1e-12)
    assert h[1, 1] == pytest.approx(3.84, rel=1e-12)
    assert h[0, 1] == 0.0


def test_cusp3d_hessian_at_origin():
    spec = make_spec("cusp3d", alpha=1.4, beta=1.2, gamma=1.0)
    h = hessian(spec, (0.0, 0.0, 0.0))
    assert np.allclose(h, np.diag([-4 * 1.96, -4 * 1.44, -4 * 1.0]), atol=1e-14)


def test_gradient_matches_finite_differences_randomized():
    rng = np.random.default_rng(11)
    for family, draw in DRAWERS.items():
        spec = draw(rng)
        for x in random_points(rng, spec.dimension, 100):
            g = _gr(spec, x)
            ref = fd_gradient(spec, x)
            scale = 1.0 + np.max(np.abs(ref))
            assert np.max(np.abs(g - ref)) / scale < 1e-5, (family, x)


def test_butterfly3d_gradient_fd_tight():
    rng = np.random.default_rng(5)
    spec = DRAWERS["butterfly3d"](rng)
    x = rng.uniform(-2, 2, size=3)
    g = gradient(spec, x)
    ref = fd_gradient(spec, x, h=1e-5)
    assert np.max(np.abs(g - ref)) / (1.0 + np.max(np.abs(g))) < 1e-6


def test_hessian_matches_finite_differences_randomized():
    rng = np.random.default_rng(13)
    for family, draw in DRAWERS.items():
        spec = draw(rng)
        for x in random_points(rng, spec.dimension, 25):
            h = np.atleast_2d(hessian(spec, x[0] if spec.dimension == 1 else x))
            ref = fd_hessian(spec, x)
            scale = 1.0 + np.max(np.abs(ref))
            assert np.max(np.abs(h - ref)) / scale < 1e-5, (family, x)


def test_hessian_is_symmetric():
    rng = np.random.default_rng(17)
    spec = DRAWERS["butterfly3d"](rng)
    pts = random_points(rng, 3, 50)
    h = hessian(spec, pts)
    assert np.allclose(h, np.swapaxes(h, -1, -2))


# ---------------------------------------------------------------------------
# symmetry and asymptotics
# ---------------------------------------------------------------------------

def test_parity_invariance_exact():
    rng = np.random.default_rng(23)
    for family, draw in DRAWERS.items():
        spec = draw(rng)
        for x in random_points(rng, spec.dimension, 20):
            v = _ev(spec, x)
            for j in range(spec.dimension):
                flipped = x.copy()
                flipped[j] = -flipped[j]
                assert _ev(spec, flipped) == v


def test_asymptotic_separability_along_rays():
    rng = np.random.default_rng(29)
    for family, draw in DRAWERS.items():
        spec = draw(rng)
        power = spec.radial_power
        direction = rng.standard_normal(spec.dimension)
        direction /= np.linalg.norm(direction)
        for r, tol in ((1e2, 1e-2), (1e3, 1e-4)):
            ratio = _ev(spec, r * direction) / r**power
            assert abs(ratio - 1.0) < tol, (family, r)


def test_batched_evaluation_shapes():
    spec = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-1.0)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(4, 5, 2))
    assert evaluate(spec, pts).shape == (4, 5)
    assert gradient(spec, pts).shape == (4, 5, 2)
    assert hessian(spec, pts).shape == (4, 5, 2, 2)


# form -> batch shape of the results; () is one point, a scalar in 1D, and
# (n, D) is (n, 1) in 1D
_POINT_FORMS = {"single": (), "(n, D)": (5,), "(a, b, D)": (3, 4), "(n,) 1D": (5,)}


def _points_of_form(form, dim, rng):
    if form == "single":
        return float(rng.uniform(-1.5, 1.5)) if dim == 1 else rng.uniform(-1.5, 1.5, dim)
    if form == "(n,) 1D":
        return rng.uniform(-1.5, 1.5, 5)
    return rng.uniform(-1.5, 1.5, _POINT_FORMS[form] + (dim,))


@pytest.mark.parametrize("family", sorted(DRAWERS))
def test_point_contract_table(family):
    """evaluate/gradient/hessian keep the batch shape of a stack and drop
    it for one point; a single point is bitwise row 0 of its (1, D) stack."""
    rng = np.random.default_rng(31)
    spec = DRAWERS[family](rng)
    dim = spec.dimension
    for form, batch in _POINT_FORMS.items():
        if form == "(n,) 1D" and dim != 1:
            continue
        pts = _points_of_form(form, dim, rng)
        v, g, h = (fn(spec, pts) for fn in (evaluate, gradient, hessian))
        if batch == ():
            assert type(v) is float, form
        else:
            assert isinstance(v, np.ndarray) and v.shape == batch, form
        for arr, shape in ((g, batch + (dim,)), (h, batch + (dim, dim))):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64, form
            assert arr.shape == shape, form
        if batch == ():
            stack = np.reshape(pts, (1, dim))
            assert v == evaluate(spec, stack)[0]
            assert np.array_equal(g, gradient(spec, stack)[0])
            assert np.array_equal(h, hessian(spec, stack)[0])


def test_dimension_mismatch_rejected():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    with pytest.raises(ValueError, match="dimension"):
        evaluate(spec, (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="dimension"):
        gradient(spec, (1.0,))


# ---------------------------------------------------------------------------
# reparametrization
# ---------------------------------------------------------------------------

def test_shape_to_raw_fig2_values():
    shape = {"alpha_x_sq": 1.0, "gamma_x_sq": 3.61,
             "alpha_y_sq": 1.0, "gamma_y_sq": 3.61, "u": 0.0}
    # beta derived: (3.61 - 1)/2 = 1.305
    shape["beta_x_sq"] = shape["beta_y_sq"] = 1.305
    raw = shape_to_raw("butterfly2d", shape)
    assert raw["a"] == pytest.approx(2.305, rel=1e-14)
    assert raw["c"] == pytest.approx(3.61, rel=1e-14)


def test_equal_shape_parameters_special_case():
    # alpha = beta: gamma^2 = 3 alpha^2, a = 2 alpha^2, c = 3 alpha^4
    for alpha in (0.7, 1.3):
        spec = make_spec("butterfly2d", alpha=alpha, beta=alpha, u=0.0)
        a2 = alpha**2
        assert spec.shape["gamma_x_sq"] == pytest.approx(3 * a2, rel=1e-14)
        assert spec.raw["a"] == pytest.approx(2 * a2, rel=1e-14)
        assert spec.raw["c"] == pytest.approx(3 * a2 * a2, rel=1e-14)


def test_raw_to_shape_smaller_root():
    shape = raw_to_shape("butterfly2d",
                         dict(a=2.305, b=2.305, c=3.61, d=3.61, u=0.0))
    assert shape["alpha_x_sq"] == pytest.approx(1.0, rel=1e-12)
    assert shape["beta_x_sq"] == pytest.approx(1.305, rel=1e-12)
    assert shape["gamma_x_sq"] == pytest.approx(3.61, rel=1e-12)


def test_reparametrize_round_trip_randomized():
    rng = np.random.default_rng(31)
    for family in ("butterfly1d", "butterfly2d", "butterfly3d"):
        for _ in range(50):
            spec = DRAWERS[family](rng)
            shape = reparametrize("raw_to_shape", family, spec.raw)
            back = reparametrize("shape_to_raw", family, shape)
            for key, v in spec.raw.items():
                assert back[key] == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_shape_identities_hold_exactly():
    rng = np.random.default_rng(37)
    spec = DRAWERS["butterfly3d"](rng)
    sh = spec.shape
    for ax, (qk, ck) in zip("xyz", (("a", "p"), ("b", "q"), ("c", "s"))):
        al, be, ga = (sh[f"alpha_{ax}_sq"], sh[f"beta_{ax}_sq"], sh[f"gamma_{ax}_sq"])
        assert ga == al + 2.0 * be
        assert spec.raw[qk] == pytest.approx(al + be, rel=1e-14)
        assert spec.raw[ck] == pytest.approx(al * ga, rel=1e-14)


def test_no_real_shape_raises():
    with pytest.raises(NoRealShape):
        raw_to_shape("butterfly2d", dict(a=1.0, b=1.0, c=1.5, d=0.5, u=0.0))
    # the potential is still constructible; only the shape view is missing
    spec = spec_from_raw("butterfly2d", dict(a=1.0, b=1.0, c=1.5, d=0.5, u=0.0))
    assert spec.shape is None
    assert spec.to_dict() == {"family": "butterfly2d",
                              "raw": dict(a=1.0, b=1.0, c=1.5, d=0.5, u=0.0)}


@st.composite
def scaled_butterfly_spec(draw):
    """A butterfly spec with every raw coefficient times 10^e, e in [-8, 8]."""
    spec = draw(any_family_spec(("butterfly1d", "butterfly2d", "butterfly3d")))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    return spec_from_raw(spec.family, {k: v * scale for k, v in spec.raw.items()})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scaled_butterfly_spec())
@example(spec_from_raw("butterfly1d", {"a": -6.0, "c": 9.0}))  # double root
@example(spec_from_raw("butterfly1d", {"a": -3e-8, "c": 3e-22}))  # c << a^2
@example(spec_from_raw("butterfly2d", dict(a=1.0, b=1.0, c=1.5, d=0.5, u=0.0)))  # complex x
@example(spec_from_raw("butterfly3d", dict(a=2e8, b=1e-8, c=1.0, u=0.0, v=0.0, w=0.0,
                                           p=1e-6, q=1e-17, s=1.0)))
def test_on_axis_callers_match_raw_key_reference_at_any_scale(spec):
    # both callers of the one on-axis quadratic solve, bit for bit
    def outcome(fn, *args):
        try:
            return repr(fn(*args))
        except NoRealShape as err:
            return f"NoRealShape: {err}"

    assert (outcome(raw_to_shape, spec.family, spec.raw)
            == outcome(raw_to_shape_reference, spec.family, spec.raw))
    assert (outcome(potentials.characteristic_radius, spec)
            == outcome(characteristic_radius_reference, spec))


def test_reparametrize_rejects_unknown_direction():
    with pytest.raises(ValueError):
        reparametrize("sideways", "butterfly1d", {"a": -6.0, "c": 9.0})


# ---------------------------------------------------------------------------
# construction, JSON, overrides
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: spec_from_raw("cusp4d", {}),
     "unknown family 'cusp4d'; expected one of "
     "('cusp2d', 'cusp3d', 'butterfly1d', 'butterfly2d', 'butterfly3d')"),
    (lambda: spec_from_raw("cusp2d", {"alpha_sq": 2.0, "beta_sq": 1.0, "gamma_sq": 1.0}),
     "cusp2d raw parameters do not include ['gamma_sq']"),
    (lambda: spec_from_raw("cusp2d", {"alpha_sq": math.inf, "beta_sq": 1.0}),
     "cusp2d raw parameters must be finite, got {'alpha_sq': inf, 'beta_sq': 1.0}"),
    (lambda: make_spec("cusp2d", alpha=1.0, alpha_sq=1.0, beta=0.5),
     "give alpha or alpha_sq, not both"),
    (lambda: spec_from_dict({"raw": {"alpha_sq": 2.0, "beta_sq": 1.0}}),
     "spec object needs a 'family' field"),
    (lambda: spec_from_dict({"family": "cusp2d"}), "spec object needs 'raw' or 'shape'"),
    # a cusp shape is its raw view: its keys are checked before it passes through
    (lambda: shape_to_raw("cusp2d", {"alpha_sq": 1.0, "typo": 2.0}),
     "cusp2d shape parameters do not include ['typo']"),
    (lambda: spec_from_dict({"family": "cusp2d",
                             "shape": {"alpha_sq": 2.0, "beta_sq": 1.0, "gamma_sq": 1.0}}),
     "cusp2d shape parameters do not include ['gamma_sq']"),
])
def test_construction_errors_name_the_fault(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_spec_from_json_parses_the_object_form():
    spec = potentials.spec_from_json(
        '{"family": "cusp2d", "shape": {"alpha_sq": 2.0, "beta_sq": 1}}')
    assert spec == spec_from_raw("cusp2d", {"alpha_sq": 2.0, "beta_sq": 1.0})
    assert shape_to_raw("cusp3d", {"alpha_sq": 3.0, "beta_sq": 2.0, "gamma_sq": 1.0}) == {
        "alpha_sq": 3.0, "beta_sq": 2.0, "gamma_sq": 1.0}


def test_make_spec_rejects_mixed_sources():
    with pytest.raises(ValueError, match="mixing"):
        make_spec("butterfly2d", a=2.0, alpha=1.0, gamma=1.9)


def test_make_spec_validates_domains():
    with pytest.raises(ValueError):
        make_spec("butterfly1d", a=1.0, c=9.0)  # positive quartic coefficient
    with pytest.raises(ValueError):
        make_spec("butterfly2d", a=1.0, b=1.0, c=-0.5, d=1.0)
    with pytest.raises(ValueError):
        make_spec("cusp2d", alpha_sq=-1.0, beta_sq=0.5)


@pytest.mark.parametrize("family, params, name", [
    ("butterfly2d", dict(alpha=1.0, beta=0.5, gamma_z=7.0), "gamma_z"),
    ("butterfly2d", dict(alpha=1.0, beta=0.5, alpha_q=3.0), "alpha_q"),
    ("butterfly1d", dict(alpha_sq=1.0, beta=0.5), "alpha_sq"),
    ("butterfly2d", dict(alpha_sq=1.0, beta=0.5), "alpha_sq"),
    ("butterfly1d", dict(alpha=1.0, alpha_x_sq=2.0, beta=0.5), "alpha_x_sq"),
    ("butterfly2d", dict(alpha=1.0, alpha_x_sq=2.0, beta=0.5), "alpha_x_sq"),
])
def test_make_spec_rejects_names_the_family_does_not_take(family, params, name):
    # make_spec and with_param take the same names
    message = f"unknown parameter '{name}' for {family}"
    with pytest.raises(ValueError, match=message):
        make_spec(family, **params)
    with pytest.raises(ValueError, match=message):
        with_param(make_spec(family, alpha=1.0, beta=0.5), name, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("cusp2d", "cusp3d")), st.floats(0.1, 3.0))
@example("cusp2d", 1.0678855863011585)  # x ** 2 and x * x differ in the last bit
@example("cusp3d", 1.0678855863011585)
def test_cusp_constant_is_squared_one_way(family, x):
    base = dict(zip(("alpha", "beta", "gamma")[:potentials._DIMENSION[family]], (0.5, 1.0, 1.5)))
    for stem in base:
        assert (repr(make_spec(family, **{**base, stem: x}))
                == repr(with_param(make_spec(family, **base), stem, x))), stem


def test_json_round_trip():
    # a spec stores its raw coefficients only; the shape view is derived
    assert [f.name for f in dataclasses.fields(PotentialSpec)] == ["family", "raw"]
    assert make_spec("cusp2d", alpha=1.5, beta=1.0).to_dict() == {
        "family": "cusp2d", "raw": {"alpha_sq": 2.25, "beta_sq": 1.0},
        "shape": {"alpha_sq": 2.25, "beta_sq": 1.0}}
    rng = np.random.default_rng(41)
    for family, draw in DRAWERS.items():
        spec = draw(rng)
        assert spec.shape == raw_to_shape(family, spec.raw)
        assert spec.to_dict() == {"family": family, "raw": spec.raw, "shape": spec.shape}
        text = spec.to_json()
        again = spec_from_dict(json.loads(text))
        assert again == spec


def test_spec_from_dict_accepts_shape_only():
    data = {"family": "butterfly1d",
            "shape": {"alpha_sq": 1.0, "beta_sq": 1.305}}
    spec = spec_from_dict(data)
    assert spec.raw["a"] == pytest.approx(-3 * 2.305, rel=1e-14)
    assert spec.raw["c"] == pytest.approx(3 * 1.0 * 3.61, rel=1e-14)


def test_spec_from_dict_rejects_inconsistent_pair():
    data = {"family": "butterfly1d",
            "raw": {"a": -6.0, "c": 9.0},
            "shape": {"alpha_sq": 2.0, "beta_sq": 1.0}}
    with pytest.raises(ValueError, match="disagree"):
        spec_from_dict(data)


@pytest.mark.parametrize("data, message", [
    (3, "a spec must be a JSON object, not int"),
    ({"family": "butterfly2d", "shape": [1, 2]}, "spec field 'shape' must be an object"),
    ({"family": "cusp2d", "raw": {"alpha_sq": 1, "beta_sq": 1}, "shape": 5},
     "spec field 'shape' must be an object"),
    ({"family": "cusp2d", "raw": "alpha_sq=1"}, "spec field 'raw' must be an object"),
    ({"family": "butterfly1d", "raw": {"a": None, "c": 1}},
     "raw value 'a' must be a real number, got None"),
    ({"family": "butterfly1d", "shape": {"alpha_sq": "1", "beta_sq": 1}},
     "shape value 'alpha_sq' must be a real number, got '1'"),
    ({"family": "butterfly1d", "shape": {"alpha_sq": 1, "beta_sq": True}},
     "shape value 'beta_sq' must be a real number, got True"),
    ({"family": "cusp2d", "raw": {"alpha_sq": 1, "beta_sq": [1]}},
     "raw value 'beta_sq' must be a real number"),
    # a partial cusp shape beside its raw form used to raise KeyError
    ({"family": "cusp2d", "raw": {"alpha_sq": 1, "beta_sq": 1}, "shape": {"alpha_sq": 1}},
     "cusp2d raw parameters missing ['beta_sq']"),
])
def test_spec_from_dict_rejects_values_of_the_wrong_json_type(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_dict(data)


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e3])
def test_consistency_checks_are_relative_at_every_scale(scale):
    # both checks used to pass anything within 1e-9 absolute at small scales
    sq = scale * scale
    with pytest.raises(ValueError, match="inconsistent shape"):
        make_spec("butterfly1d", alpha=scale, beta=scale, gamma=5.0 * scale)
    consistent = make_spec("butterfly1d", alpha=scale, beta=scale, gamma=math.sqrt(3.0) * scale)
    assert consistent == make_spec("butterfly1d", alpha=scale, beta=scale)
    shape = {"alpha_sq": sq, "beta_sq": sq}
    raw = shape_to_raw("butterfly1d", shape)
    assert spec_from_dict({"family": "butterfly1d", "raw": raw, "shape": shape}).raw == raw
    with pytest.raises(ValueError, match="raw and shape disagree on a"):
        spec_from_dict({"family": "butterfly1d", "raw": {**raw, "a": raw["a"] / 3.0},
                        "shape": shape})


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e3])
@pytest.mark.parametrize("ratio", [1e-14, 1e-8, 0.5])
def test_written_spec_parses_back_at_every_c_over_a_squared(scale, ratio):
    # alpha^2 = a - sqrt(a^2 - c) cancels as c / a^2 -> 0, so the shape a spec
    # writes holds each axis's c only to a few ulp of a^2
    a, c = scale, ratio * scale * scale
    specs = [make_spec("butterfly1d", a=-3.0 * a, c=3.0 * c),
             make_spec("butterfly2d", a=a, b=2.0 * a, c=c, d=a * a, u=0.5 * a),
             make_spec("butterfly3d", a=a, b=a, c=a, p=c, q=0.5 * a * a, s=c,
                       u=0.1 * a, v=0.0, w=-0.1 * a)]
    if scale == 1.0:
        specs.append(make_spec("butterfly1d", alpha=1e-4, beta=1.0))
    for spec in specs:
        assert spec.shape is not None
        assert spec_from_dict(spec.to_dict()) == spec
        assert spec_from_dict(json.loads(spec.to_json())) == spec
        # a quadratic coefficient off by more than the tolerance of a^2 still fails
        qk, ck = potentials._AXIS_PAIR_KEYS[spec.family][0]
        off = {**spec.raw, ck: spec.raw[ck] + 1e-6 * spec.raw[qk] ** 2}
        with pytest.raises(ValueError, match=f"raw and shape disagree on {ck}"):
            spec_from_dict({"family": spec.family, "raw": off, "shape": spec.shape})


FIG2_SQUARES = {"alpha_x_sq": 1.0, "gamma_x_sq": 3.61, "beta_x_sq": 1.305,
                "alpha_y_sq": 1.0, "gamma_y_sq": 3.61, "beta_y_sq": 1.305}


@pytest.mark.parametrize("data, unknown", [
    # a misspelt coupling used to build u = 0 without a word
    ({"family": "butterfly2d", "shape": {**FIG2_SQUARES, "U": -5.33}}, "['U']"),
    ({"family": "butterfly1d", "shape": {"alpha_sq": 1.0, "beta_sq": 1.305,
                                         "alpha_x_sq": 2.0}}, "['alpha_x_sq']"),
    ({"family": "butterfly3d", "shape": {**FIG2_SQUARES, "alpha_z_sq": 1.0, "beta_z_sq": 1.3,
                                         "u": 0.0, "v": 0.0, "w": 0.0, "d": 1.0}}, "['d']"),
    ({"family": "cusp2d", "rwa": {"alpha_sq": 2.0, "beta_sq": 1.0}}, "['rwa']"),
    ({"family": "cusp2d", "raw": {"alpha_sq": 2.0, "beta_sq": 1.0}, "note": ""}, "['note']"),
])
def test_spec_from_dict_rejects_unknown_keys(data, unknown):
    with pytest.raises(ValueError, match=re.escape(unknown)):
        spec_from_dict(data)


def test_shape_to_raw_takes_exactly_the_shape_view_keys():
    for family in ("butterfly1d", "butterfly2d", "butterfly3d"):
        spec = DRAWERS[family](np.random.default_rng(5))
        assert shape_to_raw(family, spec.shape) == pytest.approx(spec.raw, rel=1e-12)
        with pytest.raises(ValueError, match=r"do not include \['u_typo'\]"):
            shape_to_raw(family, {**spec.shape, "u_typo": 1.0})


def test_with_param_raw_and_shape_moves():
    spec = make_spec("butterfly1d", alpha=1.0, beta=2.0)
    bumped = with_param(spec, "alpha", 1.5)
    assert bumped.shape["alpha_sq"] == pytest.approx(2.25, rel=1e-14)
    assert bumped.shape["beta_sq"] == pytest.approx(4.0, rel=1e-12)
    gamma_moved = with_param(spec, "gamma", 3.2)
    assert gamma_moved.shape["gamma_sq"] == pytest.approx(10.24, rel=1e-14)
    assert gamma_moved.shape["alpha_sq"] == pytest.approx(1.0, rel=1e-12)
    raw_moved = with_param(make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=0.0), "u", 4.0)
    assert raw_moved.raw["u"] == 4.0


def test_with_param_gamma_below_alpha_is_no_real_shape():
    spec = make_spec("butterfly1d", alpha=1.5, beta=1.0)
    with pytest.raises(NoRealShape):
        with_param(spec, "gamma", 1.0)


# every name with_param may be given: raw keys of all families, cusp stems,
# butterfly stems bare and axis-suffixed, and names no family accepts
_PARAM_NAMES = (
    "a", "b", "c", "d", "u", "v", "w", "p", "q", "s", "alpha_sq", "beta_sq", "gamma_sq",
    "alpha", "beta", "gamma",
    *(f"{stem}_{axis}" for stem in ("alpha", "beta", "gamma") for axis in "xyz"),
    "delta", "alpha_w", "gamma_x_sq",
)


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except (PolydotError, ValueError) as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(any_family_spec(), st.floats(-3.0, 3.0))
@example(make_spec("butterfly1d", alpha=1.5, beta=1.0), 1.0)  # gamma < alpha
@example(make_spec("butterfly3d", alpha=1.2, beta=0.7), 0.5)
def test_with_param_matches_reference_drawn(spec, value):
    for name in _PARAM_NAMES:
        assert (_outcome(with_param, spec, name, value)
                == _outcome(with_param_reference, spec, name, value)), name


# ---------------------------------------------------------------------------
# one completion and conversion per axis, against the old shape layer
# ---------------------------------------------------------------------------

_BUTTERFLIES = ("butterfly1d", "butterfly2d", "butterfly3d")
_STEMS = ("alpha", "beta", "gamma")


@st.composite
def _axis_values(draw, scale, squared):
    """One axis's given values {stem: value}, alpha and beta, alpha and
    gamma, or all three consistent: ints, or floats times scale; squares
    when squared, else the unsquared lengths."""
    if draw(st.booleans()):
        al, be = draw(st.integers(1, 30)), draw(st.integers(0, 30))
    else:
        al, be = scale * draw(st.floats(0.05, 3.0)), scale * draw(st.floats(0.0, 3.0))
    ga = al + 2 * be if squared else math.sqrt(al * al + 2 * be * be)
    values = dict(zip(_STEMS, (al, be, ga)))
    dropped = draw(st.sampled_from(("beta", "gamma", None)))
    values.pop(dropped, None)
    return values


def _break_axis(draw, values, fault, scale):
    """values with one fault: a missing alpha, no beta or gamma, gamma below
    alpha, alpha zero or negative, or beta negative; gamma, where it stays
    beside beta, is kept consistent (in the squares)."""
    al = values["alpha"]
    if fault == "need alpha":
        del values["alpha"]
    elif fault == "need beta or gamma":
        values = {"alpha": al}
    elif fault == "gamma below alpha":
        values = {"alpha": al, "gamma": al * draw(st.floats(0.0, 0.99))}
    elif fault == "alpha not positive":
        values["alpha"] = -scale * draw(st.floats(0.0, 3.0))
        if "beta" in values and "gamma" in values:
            values["gamma"] = values["alpha"] + 2 * values["beta"]
    elif fault == "beta negative":
        values = {"alpha": al, "beta": -scale * draw(st.floats(0.01, 3.0))}
    return values


_SHAPE_FAULTS = (None, "need alpha", "need beta or gamma", "gamma below alpha",
                 "alpha not positive", "beta negative", "unknown key")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from(_BUTTERFLIES), st.floats(-6.0, 3.0),
       st.sampled_from(_SHAPE_FAULTS))
def test_shape_to_raw_matches_the_old_shape_layer(data, family, log_scale, fault):
    scale = 10.0 ** log_scale
    axes = [data.draw(_axis_values(scale, squared=True)) for _ in potentials._SHAPE_KEYS[family]]
    broken = data.draw(st.integers(0, len(axes) - 1))
    if fault not in (None, "unknown key"):
        axes[broken] = _break_axis(data.draw, axes[broken], fault, scale)
    shape = {keys[_STEMS.index(stem)]: v
             for keys, values in zip(potentials._SHAPE_KEYS[family], axes)
             for stem, v in values.items()}
    shape.update((k, scale * data.draw(st.floats(-3.0, 3.0)))
                 for k in potentials._CROSS_KEYS[family])
    if fault == "unknown key":
        shape[data.draw(st.sampled_from(("u_typo", "alpha_z_sq", "alpha_x_sq", "d")))] = 1.0

    for values in axes:
        squares = {f"{stem}_sq": v for stem, v in values.items()}
        completed = _outcome(shape_triple_reference, **squares)
        expected = (completed if isinstance(completed, tuple) else
                    _outcome(axis_pair_from_shape_reference, *shape_triple_reference(**squares)[:2]))
        assert _outcome(potentials.axis_pair_from_shape, **squares) == expected
    expected = _outcome(shape_to_raw_reference, family, shape)
    assert _outcome(shape_to_raw, family, shape) == expected
    if fault is None:
        spec = potentials.spec_from_shape(family, shape)
        assert repr(spec) == repr(spec_from_raw(family, shape_to_raw_reference(family, shape)))
        assert repr(potentials.axis_pairs(spec)) == repr(_butterfly_pairs_reference(family, spec.raw))


@st.composite
def _shape_names(draw, family, scale, fault):
    """make_spec keywords of a butterfly family: each stem bare where every
    axis takes it, suffixed where an axis differs or at random, with at most
    one axis broken by fault."""
    axes = [draw(_axis_values(scale, squared=False)) for _ in potentials._SHAPE_KEYS[family]]
    if fault in ("need alpha", "need beta or gamma", "gamma below alpha"):
        broken = draw(st.integers(0, len(axes) - 1))
        axes[broken] = _break_axis(draw, axes[broken], fault, scale)
    elif fault == "alpha zero":
        axes[draw(st.integers(0, len(axes) - 1))] = {"alpha": 0.0, "beta": scale}
    params = {}
    for stem in _STEMS:
        values = [axis.get(stem) for axis in axes]
        bare = None not in values and draw(st.booleans())
        if bare:
            params[stem] = values[0]
        for ax, v in zip(potentials.AXES, values):
            if v is not None and (not bare or v != values[0] or draw(st.booleans())):
                params[f"{stem}_{ax}"] = v
    if fault == "unknown key":
        params[draw(st.sampled_from(("delta", "alpha_w", "gamma_z", "alpha_x_sq")))] = 1.0
    return params


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data(), st.sampled_from(_BUTTERFLIES), st.floats(-6.0, 3.0),
       st.sampled_from((None, "need alpha", "need beta or gamma", "gamma below alpha",
                        "alpha zero", "unknown key")))
def test_make_spec_and_with_param_match_the_old_shape_layer(data, family, log_scale, fault):
    scale = 10.0 ** log_scale
    params = data.draw(_shape_names(family, scale, fault))
    params.update((k, scale * data.draw(st.floats(-3.0, 3.0)))
                  for k in potentials._CROSS_KEYS[family] if data.draw(st.booleans()))
    expected = _outcome(make_spec_reference, family, **params)
    assert _outcome(make_spec, family, **params) == expected
    if isinstance(expected, tuple):
        return
    spec = make_spec(family, **params)
    assert repr(potentials.axis_pairs(spec)) == repr(_butterfly_pairs_reference(family, spec.raw))
    value = scale * data.draw(st.floats(-3.0, 3.0))
    for name, (_key, stem, _axes) in potentials._PARAMS[family].items():
        if stem is not None:
            assert (_outcome(with_param, spec, name, value)
                    == _outcome(with_param_shape_reference, spec, name, value)), name

"""Quartic (cusp-type) and sextic (butterfly-type) confining potentials.

Five families on 1-3 coordinates, all even in every coordinate and
asymptotically radial (V ~ r^4 or r^6 along every ray):

    cusp2d        V = r^4 - 2 A x^2 - 2 B y^2
    cusp3d        V = r^4 - 2 A x^2 - 2 B y^2 - 2 C z^2
    butterfly1d   V = x^6 + a x^4 + c x^2                  (a <= 0 < c)
    butterfly2d   V = r^6 - 3a x^4 - 3u x^2 y^2 - 3b y^4 + 3c x^2 + 3d y^2
    butterfly3d   V = r^6 - 3a x^4 - 3b y^4 - 3c z^4 - 3u x^2 y^2
                      - 3v x^2 z^2 - 3w y^2 z^2 + 3p x^2 + 3q y^2 + 3s z^2

Units: hbar^2/(2 mu_j) = 1 on every axis, so the Hamiltonian is
-Laplacian + V and lengths/energies are dimensionless.

Every butterfly axis carries a (quartic, quadratic) coefficient pair that
can be rewritten in "shape" form

    a_j = alpha_j^2 + beta_j^2,   c_j = alpha_j^2 gamma_j^2,
    gamma_j^2 = alpha_j^2 + 2 beta_j^2,

which places the on-axis stationary points at |x_j| = alpha_j and
|x_j| = gamma_j.  A spec stores its raw coefficients only; the shape view
is derived from them on first read (it is only defined while
a_j^2 >= c_j > 0, see :class:`~polydot.errors.NoRealShape`).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NoRealShape

FAMILIES = ("cusp2d", "cusp3d", "butterfly1d", "butterfly2d", "butterfly3d")
AXES = ("x", "y", "z")

_DIMENSION = {
    "cusp2d": 2,
    "cusp3d": 3,
    "butterfly1d": 1,
    "butterfly2d": 2,
    "butterfly3d": 3,
}

# raw coefficient names, in canonical order
_RAW_KEYS = {
    "cusp2d": ("alpha_sq", "beta_sq"),
    "cusp3d": ("alpha_sq", "beta_sq", "gamma_sq"),
    "butterfly1d": ("a", "c"),
    "butterfly2d": ("a", "b", "c", "d", "u"),
    "butterfly3d": ("a", "b", "c", "u", "v", "w", "p", "q", "s"),
}

# per-axis (quartic, quadratic) raw keys for the butterfly families
_AXIS_PAIR_KEYS = {
    "butterfly1d": (("a", "c"),),
    "butterfly2d": (("a", "c"), ("b", "d")),
    "butterfly3d": (("a", "p"), ("b", "q"), ("c", "s")),
}

# raw (quartic, quadratic) coefficients per unit of an axis pair (a, c), where
# not 1: butterfly1d writes its signed form x^6 + a x^4 + c x^2
_PAIR_SCALE = {"butterfly1d": (-3.0, 3.0)}

# per-axis (alpha^2, beta^2, gamma^2) shape keys, in the axis order of
# _AXIS_PAIR_KEYS; the one axis of butterfly1d carries no suffix
_SHAPE_KEYS = {
    "butterfly1d": (("alpha_sq", "beta_sq", "gamma_sq"),),
    "butterfly2d": (("alpha_x_sq", "beta_x_sq", "gamma_x_sq"),
                    ("alpha_y_sq", "beta_y_sq", "gamma_y_sq")),
    "butterfly3d": (("alpha_x_sq", "beta_x_sq", "gamma_x_sq"),
                    ("alpha_y_sq", "beta_y_sq", "gamma_y_sq"),
                    ("alpha_z_sq", "beta_z_sq", "gamma_z_sq")),
}

_SHAPE_STEMS = ("alpha", "beta", "gamma")

_CROSS_KEYS = {"butterfly1d": (), "butterfly2d": ("u",), "butterfly3d": ("u", "v", "w")}

# every key of a shape view; a cusp's shape view is its raw view
_SHAPE_VIEW_KEYS = {
    **{family: frozenset(_RAW_KEYS[family]) for family in ("cusp2d", "cusp3d")},
    **{family: frozenset(itertools.chain(*keys, _CROSS_KEYS[family]))
       for family, keys in _SHAPE_KEYS.items()},
}

# (key, (i, j)) of every cross coupling, in plane order xy, xz, yz
_CROSS_PLANES = {family: tuple(zip(keys, itertools.combinations(range(_DIMENSION[family]), 2)))
                 for family, keys in _CROSS_KEYS.items()}

_CONSISTENCY_TOL = 1e-9


def _param_table(family):
    """name -> (raw key, stem, axes) of every parameter name the family
    takes.  A raw coefficient is (key, None, ()); a cusp stem sets the
    square of its raw key, (key, stem, ()); a butterfly stem sets the
    squared shape value of its axes, (None, stem, axes), on every axis when
    bare and on one when it carries that axis's suffix."""
    table = {key: (key, None, ()) for key in _RAW_KEYS[family]}
    if family.startswith("cusp"):
        table.update((stem, (key, stem, ())) for stem, key in zip(_SHAPE_STEMS, _RAW_KEYS[family]))
        return table
    axes = tuple(range(_DIMENSION[family]))
    for stem in _SHAPE_STEMS:
        table[stem] = (None, stem, axes)
        table.update((f"{stem}_{AXES[i]}", (None, stem, (i,))) for i in axes)
    return table


_PARAMS = {family: _param_table(family) for family in FAMILIES}


def _param(family, name):
    """(raw key, stem, axes) of a parameter name (see :func:`_param_table`)."""
    try:
        return _PARAMS[family][name]
    except KeyError:
        raise ValueError(f"unknown parameter {name!r} for {family}") from None


@dataclass(frozen=True)
class PotentialSpec:
    """One member of the five potential families.

    ``raw`` holds the coefficients exactly as they appear in the polynomial.
    """

    family: str
    raw: dict

    @functools.cached_property
    def shape(self) -> dict | None:
        """The per-axis (alpha^2, beta^2, gamma^2) view plus the cross
        couplings, derived from ``raw`` on first read, or None when some axis
        has no real decomposition.  For the cusp families it mirrors ``raw``."""
        try:
            return raw_to_shape(self.family, self.raw)
        except NoRealShape:
            return None

    @functools.cached_property
    def _shared(self) -> tuple:
        """Coefficient arrays of this spec (see :func:`_coefficients`),
        shared by every point of a stack; built from ``raw`` on first read."""
        return tuple(c[0] for c in _coefficients([self]))

    @property
    def dimension(self) -> int:
        return _DIMENSION[self.family]

    @property
    def is_cusp(self) -> bool:
        return self.family.startswith("cusp")

    @property
    def radial_power(self) -> int:
        """Leading power 2N+2 of the confining radial term."""
        return 4 if self.is_cusp else 6

    def axis_names(self) -> tuple[str, ...]:
        return AXES[: self.dimension]

    def to_dict(self) -> dict:
        out = {"family": self.family, "raw": dict(self.raw)}
        if self.shape is not None:
            out["shape"] = dict(self.shape)
        return out

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)


# ---------------------------------------------------------------------------
# per-axis shape algebra
# ---------------------------------------------------------------------------

def _on_axis_roots(a: float, c: float) -> tuple[float, float, float] | None:
    """The one solve of the on-axis quadratic t^2 - 2 a t + c = 0: its roots
    a -+ s and half gap s = sqrt(a^2 - c) as (a - s, s, a + s); None if a^2 < c."""
    disc = a * a - c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return a - root, root, a + root


def axis_shape_from_pair(a: float, c: float) -> tuple[float, float, float]:
    """Solve a = alpha^2 + beta^2, c = alpha^2 (alpha^2 + 2 beta^2).

    alpha^2 is the smaller root of t^2 - 2 a t + c = 0, so
    alpha^2 = a - sqrt(a^2 - c), beta^2 = sqrt(a^2 - c),
    gamma^2 = a + sqrt(a^2 - c) (see :func:`_on_axis_roots`).
    """
    roots = _on_axis_roots(a, c)
    if roots is None:
        raise NoRealShape(f"a^2 = {a * a:g} < c = {c:g}: on-axis roots are complex")
    if roots[0] <= 0.0:
        raise NoRealShape(f"pair (a={a:g}, c={c:g}) gives alpha^2 = {roots[0]:g} <= 0")
    return roots


def axis_pair_from_shape(alpha_sq=None, beta_sq=None, gamma_sq=None) -> tuple[float, float]:
    """(a, c) = (alpha^2 + beta^2, alpha^2 gamma^2) of an axis given alpha^2 and beta^2,
    gamma^2 or both, completed first: the inverse of :func:`axis_shape_from_pair`."""
    if alpha_sq is None:
        raise ValueError("shape parameters need alpha")
    if beta_sq is None and gamma_sq is None:
        raise ValueError("shape parameters need beta or gamma")
    if beta_sq is None:
        beta_sq = 0.5 * (gamma_sq - alpha_sq)
        if beta_sq < 0.0:
            raise NoRealShape(f"gamma^2 = {gamma_sq:g} < alpha^2 = {alpha_sq:g}")
    elif gamma_sq is not None and (abs(gamma_sq - (alpha_sq + 2.0 * beta_sq))
                                   > _CONSISTENCY_TOL * abs(gamma_sq)):
        raise ValueError("inconsistent shape: gamma^2 != alpha^2 + 2 beta^2")
    alpha_sq, beta_sq = float(alpha_sq), float(beta_sq)
    if alpha_sq <= 0.0 or beta_sq < 0.0:
        raise NoRealShape(
            f"shape requires alpha^2 > 0 and beta^2 >= 0, got ({alpha_sq:g}, {beta_sq:g})"
        )
    return alpha_sq + beta_sq, alpha_sq * (alpha_sq + 2.0 * beta_sq)


# ---------------------------------------------------------------------------
# raw <-> shape for whole parameter sets
# ---------------------------------------------------------------------------

def raw_to_shape(family: str, raw: dict) -> dict:
    """Shape view of a raw coefficient set.

    Raises NoRealShape when some axis pair has a^2 < c (the butterfly
    potential is still perfectly valid there; only this view is undefined).
    """
    _check_family(family)
    if family.startswith("cusp"):
        return dict(raw)
    shape: dict = {}
    for (ka, kb, kg), (a, c) in zip(_SHAPE_KEYS[family], _pairs(family, raw)):
        shape[ka], shape[kb], shape[kg] = axis_shape_from_pair(a, c)
    for k in _CROSS_KEYS[family]:
        shape[k] = float(raw[k])
    return shape


def shape_to_raw(family: str, shape: dict) -> dict:
    """Raw coefficients from a shape view (exact identities); a shape key
    the family does not take is rejected."""
    _check_family(family)
    extra = sorted(shape.keys() - _SHAPE_VIEW_KEYS[family])
    if extra:
        raise ValueError(f"{family} shape parameters do not include {extra}")
    if family.startswith("cusp"):
        return dict(shape)
    scale_a, scale_c = _PAIR_SCALE.get(family, (1.0, 1.0))
    raw: dict = {}
    for (ka, kb, kg), (qk, ck) in zip(_SHAPE_KEYS[family], _AXIS_PAIR_KEYS[family]):
        a, c = axis_pair_from_shape(shape.get(ka), shape.get(kb), shape.get(kg))
        raw[qk], raw[ck] = scale_a * a, scale_c * c
    for k in _CROSS_KEYS[family]:
        raw[k] = float(shape.get(k, 0.0))
    return raw


def reparametrize(direction: str, family: str, params: dict) -> dict:
    """Convert between raw and shape coefficient sets.

    direction is "raw_to_shape" or "shape_to_raw"; round-tripping is the
    identity to better than 1e-12 relative.
    """
    if direction == "raw_to_shape":
        return raw_to_shape(family, params)
    if direction == "shape_to_raw":
        return shape_to_raw(family, params)
    raise ValueError(f"unknown direction {direction!r}")


def _pairs(family, raw):
    """Per-axis (a, c) of the on-axis quartic t^2 - 2 a t + c of a butterfly
    raw coefficient set."""
    scale_a, scale_c = _PAIR_SCALE.get(family, (1.0, 1.0))
    return [(float(raw[qk]) / scale_a, float(raw[ck]) / scale_c)
            for qk, ck in _AXIS_PAIR_KEYS[family]]


def axis_pairs(spec: PotentialSpec) -> list[tuple[float, float]]:
    """Per-axis (a, c) stationarity pairs for butterfly specs."""
    return _pairs(spec.family, spec.raw)


def couplings(spec: PotentialSpec) -> list[tuple[int, int, float]]:
    """(i, j, u_ij) of every cross coupling of a butterfly spec, in plane
    order xy, xz, yz (the coefficient of -3 x_i^2 x_j^2)."""
    return [(i, j, spec.raw[key]) for key, (i, j) in _CROSS_PLANES[spec.family]]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _validate_raw(family: str, raw: dict) -> dict:
    keys = _RAW_KEYS[family]
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ValueError(f"{family} raw parameters missing {missing}")
    extra = [k for k in raw if k not in keys]
    if extra:
        raise ValueError(f"{family} raw parameters do not include {extra}")
    out = {k: float(raw[k]) for k in keys}
    for v in out.values():
        if not math.isfinite(v):
            raise ValueError(f"{family} raw parameters must be finite, got {out}")
    if family.startswith("cusp"):
        for k in keys:
            if out[k] < 0.0:
                raise ValueError(f"cusp coefficient {k} must be >= 0, got {out[k]:g}")
    elif family == "butterfly1d":
        if out["a"] > 0.0:
            raise ValueError(f"butterfly1d needs a <= 0 (triple-well form), got {out['a']:g}")
        if out["c"] <= 0.0:
            raise ValueError(f"butterfly1d needs c > 0, got {out['c']:g}")
    else:
        quartics, quadratics = zip(*_AXIS_PAIR_KEYS[family])
        for k in quartics:
            if out[k] < 0.0:
                raise ValueError(f"{family} needs {k} >= 0, got {out[k]:g}")
        for k in quadratics:
            if out[k] <= 0.0:
                raise ValueError(f"{family} needs {k} > 0, got {out[k]:g}")
    return out


def spec_from_raw(family: str, raw: dict) -> PotentialSpec:
    """Build a spec from raw coefficients, checked against the family's domain."""
    _check_family(family)
    return PotentialSpec(family=family, raw=_validate_raw(family, raw))


def spec_from_shape(family: str, shape: dict) -> PotentialSpec:
    return spec_from_raw(family, shape_to_raw(family, shape))


def make_spec(family: str, **params) -> PotentialSpec:
    """Build a spec from user-facing parameters.

    Cusps take alpha/beta/gamma (axis constants, unsquared) or the *_sq
    variants.  Butterflies take either the raw polynomial coefficients
    (a, b, c, d / a..s, u, v, w) or shape parameters alpha + one of
    beta/gamma, optionally axis-suffixed (alpha_x, gamma_y, ...); bare
    alpha/beta/gamma broadcast to every axis.  Cross couplings default
    to zero.  Mixing raw and shape parameters is rejected, and so is any
    name the family does not take.
    """
    _check_family(family)
    user = {name: (*_param(family, name), float(v))
            for name, v in params.items() if v is not None}

    if family.startswith("cusp"):
        for stem, key in zip(_SHAPE_STEMS, _RAW_KEYS[family]):
            if stem in user and key in user:
                raise ValueError(f"give {stem} or {key}, not both")
            if stem not in user and key not in user:
                raise ValueError(f"{family} needs {stem} (or {key})")
        return spec_from_raw(family, {key: v * v if stem else v
                                      for key, stem, _axes, v in user.values()})

    raw_given = [name for name, (key, *_rest) in user.items()
                 if key is not None and key not in _CROSS_KEYS[family]]
    shape_given = [name for name, (_key, stem, *_rest) in user.items() if stem is not None]
    if shape_given and raw_given:
        raise ValueError(f"mixing raw {raw_given} and shape {shape_given} parameters")

    coeffs = dict.fromkeys(_CROSS_KEYS[family], 0.0)
    coeffs.update((key, v) for key, stem, _axes, v in user.values() if stem is None)
    if raw_given:
        return spec_from_raw(family, coeffs)

    # bare stems first, so an axis-suffixed name wins on its axis
    for name in sorted(shape_given, key=lambda name: name not in _SHAPE_STEMS):
        _key, stem, axes, v = user[name]
        for i in axes:
            coeffs[_SHAPE_KEYS[family][i][_SHAPE_STEMS.index(stem)]] = v * v
    return spec_from_shape(family, coeffs)


def spec_from_dict(data: dict) -> PotentialSpec:
    """Parse the JSON object form {"family", "raw"?, "shape"?}, with raw and
    shape objects of real numbers; any other field or value is rejected.

    Either raw or shape may be omitted; when both are present they must
    agree through the conversion identities.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a spec must be a JSON object, not {type(data).__name__}")
    if "family" not in data:
        raise ValueError("spec object needs a 'family' field")
    extra = sorted(data.keys() - {"family", "raw", "shape"})
    if extra:
        raise ValueError(f"spec object fields are family, raw and shape, not {extra}")
    family = data["family"]
    _check_family(family)
    raw = data.get("raw")
    shape = data.get("shape")
    if raw is None and shape is None:
        raise ValueError("spec object needs 'raw' or 'shape'")
    for field, values in (("raw", raw), ("shape", shape)):
        if values is not None and not isinstance(values, dict):
            raise ValueError(f"spec field {field!r} must be an object, not {type(values).__name__}")
        for k, v in (values or {}).items():
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{field} value {k!r} must be a real number, got {v!r}")
    if raw is None:
        return spec_from_shape(family, shape)
    spec = spec_from_raw(family, raw)
    if shape is not None:
        derived = spec_from_shape(family, shape).raw
        # a shape holds c only to a few ulp of a^2, as alpha^2 = a - sqrt(a^2 - c) cancels
        scale_a, scale_c = _PAIR_SCALE.get(family, (1.0, 1.0))
        a_sq = {ck: abs(scale_c) * (spec.raw[qk] / scale_a) ** 2
                for qk, ck in _AXIS_PAIR_KEYS.get(family, ())}
        for k, v in spec.raw.items():
            if abs(v - derived[k]) > _CONSISTENCY_TOL * max(abs(v), a_sq.get(k, 0.0)):
                raise ValueError(
                    f"raw and shape disagree on {k}: {v:g} vs {derived[k]:g}"
                )
    return spec


def spec_from_json(text: str) -> PotentialSpec:
    return spec_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# parameter overrides (used by scans and the CLI)
# ---------------------------------------------------------------------------

def with_param(spec: PotentialSpec, name: str, value: float) -> PotentialSpec:
    """Copy of spec with one named parameter replaced; the names are those
    :func:`make_spec` takes.

    Raw names (a, b, c, d, u, v, w, p, q, s, alpha_sq, ...) move linearly in
    raw space.  Shape names (alpha, beta, gamma, optionally axis-suffixed)
    move in shape space, holding the other shape values of the axis fixed:
    setting gamma recomputes beta^2 = (gamma^2 - alpha^2)/2, setting alpha or
    beta recomputes gamma^2 = alpha^2 + 2 beta^2.  For cusps, alpha/beta/gamma
    are the unsquared axis constants.
    """
    key, stem, axes = _param(spec.family, name)
    value = float(value)
    if key is not None:
        raw = dict(spec.raw)
        raw[key] = value * value if stem else value
        return spec_from_raw(spec.family, raw)

    if spec.shape is None:
        raise NoRealShape(f"cannot vary shape parameter {name!r}: shape view undefined")
    shape = dict(spec.shape)
    for i in axes:
        keys = _SHAPE_KEYS[spec.family][i]
        shape[keys[_SHAPE_STEMS.index(stem)]] = value * value
        # drop the square that follows from the other two, for shape_to_raw to complete
        del shape[keys[1 if stem == "gamma" else 2]]
    return spec_from_shape(spec.family, shape)


# ---------------------------------------------------------------------------
# evaluation: V, gradient, Hessian (vectorized over trailing point axes)
# ---------------------------------------------------------------------------

def _prep_points(pts, dim):
    """Points as an (..., D) float stack, and whether pts was one point.

    One point (a scalar in 1D, a (D,) vector otherwise) becomes a (1, D)
    stack; the caller computes on it and returns row 0, so evaluate gives
    a float, gradient a (D,) and hessian a (D, D) array.  A 1D stack may
    omit its coordinate axis; every other stack passes through unchanged.
    """
    x = np.asarray(pts, dtype=float)
    if dim == 1 and (x.ndim < 2 or x.shape[-1] != 1):
        x = x[..., None]
    elif x.ndim == 0 or x.shape[-1] != dim:
        raise ValueError(
            f"dimension mismatch: expected points with last axis {dim}, got shape {x.shape}"
        )
    if x.ndim == 1:
        return x[None], True
    return x, False


def _coefficients(specs) -> tuple:
    """Coefficient arrays of specs of one family, one row per spec.

    A cusp gives (k,) with k of shape (S, D), V = r^4 - 2 sum_j k_j x_j^2.
    A butterfly gives (A, U, P) with A, P of shape (S, D) and U of shape
    (S, D, D), V = r^6 - 3 sum_j A_j x_j^4 - 3 sum_{i<j} U_ij x_i^2 x_j^2
    + 3 sum_j P_j x_j^2.
    """
    family = specs[0].family
    if family.startswith("cusp"):
        return (np.array([[s.raw[k] for k in _RAW_KEYS[family]] for s in specs]),)
    pairs = np.array([axis_pairs(s) for s in specs])
    dim = pairs.shape[1]
    U = np.zeros((len(specs), dim, dim))
    for key, (i, j) in _CROSS_PLANES[family]:
        U[:, i, j] = U[:, j, i] = [s.raw[key] for s in specs]
    return pairs[..., 0], U, pairs[..., 1]


def _dot(s, c):
    """s @ c over the coordinate axis.  Shared coefficients ((D,) or
    (D, D)) take one product for the whole stack; per-point coefficients
    ((n, 1, D) or (n, 1, D, D), for an (n, 1, D) stack) take one (1, D)
    product per point, the product of a single-point call."""
    if c.ndim <= 2:
        return s @ c
    if c.ndim == s.ndim:
        return (s[..., None, :] @ c[..., None])[..., 0, 0]
    return (s[..., None, :] @ c)[..., 0, :]


# The evaluation core.  coeffs is the tuple of _coefficients, shared by
# every point ((D,) and (D, D) arrays) or per point, with the leading axes
# of the point stack.  Scalars multiply before a product, as in
# (3.0 * (s2 * s2)) @ A; scaling the product instead rounds differently.

def _value(x, coeffs):
    s2 = x * x
    r2 = s2.sum(axis=-1)
    if len(coeffs) == 1:
        return r2 * r2 - 2.0 * _dot(s2, coeffs[0])
    A, U, P = coeffs
    # sum_ij s_i U_ij s_j in the order einsum("...i,ij,...j") adds, i-major;
    # the zero diagonal adds nothing
    cross = 0.0
    for i, j in itertools.permutations(range(x.shape[-1]), 2):
        cross = cross + (s2[..., i] * U[..., i, j]) * s2[..., j]
    return (r2 ** 3 - _dot(3.0 * (s2 * s2), A) - 3.0 * (0.5 * cross)
            + _dot(3.0 * s2, P))


def _gradient(x, coeffs):
    s2 = x * x
    r2 = s2.sum(axis=-1)[..., None]
    if len(coeffs) == 1:
        return 4.0 * x * (r2 - coeffs[0])
    A, U, P = coeffs
    return 6.0 * x * (r2 * r2 - 2.0 * A * s2 - _dot(s2, U) + P)


def _hessian(x, coeffs):
    s2 = x * x
    r2 = s2.sum(axis=-1)[..., None]
    outer = x[..., :, None] * x[..., None, :]
    eye = np.eye(x.shape[-1])
    if len(coeffs) == 1:
        return 8.0 * outer + eye * (4.0 * (r2 - coeffs[0]))[..., None, :]
    A, U, P = coeffs
    bracket = r2 * r2 - 2.0 * A * s2 - _dot(s2, U) + P
    diag = 6.0 * bracket + 24.0 * s2 * (r2 - A)
    off = 12.0 * outer * (2.0 * r2[..., None] - U)
    return off * (1.0 - eye) + eye * diag[..., None, :]


def evaluate(spec: PotentialSpec, pts) -> np.ndarray | float:
    """V at the given point(s); last axis of pts indexes the coordinates.
    One point gives a float (see :func:`_prep_points`)."""
    x, single = _prep_points(pts, spec.dimension)
    v = _value(x, spec._shared)
    return float(v[0]) if single else v


def gradient(spec: PotentialSpec, pts) -> np.ndarray:
    """Analytic gradient of V; appends a (D,) axis to the point batch."""
    x, single = _prep_points(pts, spec.dimension)
    g = _gradient(x, spec._shared)
    return g[0] if single else g


def hessian(spec: PotentialSpec, pts) -> np.ndarray:
    """Analytic Hessian of V; appends a (D, D) axis to the point batch."""
    x, single = _prep_points(pts, spec.dimension)
    h = _hessian(x, spec._shared)
    return h[0] if single else h


def characteristic_radius(spec: PotentialSpec) -> float:
    """Largest on-axis stationary radius scale; used for default grids."""
    if spec.is_cusp:
        k = max(max(spec.raw.values()), 0.0)
        return math.sqrt(k) if k > 0 else 1.0
    best = 0.0
    for a, c in axis_pairs(spec):
        roots = _on_axis_roots(a, c)
        best = max(best, roots[2] if roots else 0.0, math.sqrt(c) if c > 0 else 0.0)
    return math.sqrt(best) if best > 0 else 1.0

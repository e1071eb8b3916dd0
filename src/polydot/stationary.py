"""Closed-form stationary points and their Hessian classification.

Every gradient component factors as x_j * (polynomial in the squared
coordinates), so the stationary set splits by the pattern of vanishing
coordinates: the origin, on-axis points, in-plane points (two nonzero
coordinates), and, in 3D, bulk points with all coordinates nonzero.

On an axis the stationary condition is a quadratic in the squared
coordinate.  Off the axes, treating r^4 as a parameter makes each coupled
block (a plane, or the 3D bulk) linear in its squared coordinates;
re-imposing r^2 = sum of squares closes it to a quadratic in r^2.  One
plain-float adjugate solve serves every block, and raises only where the
block's roots form a continuum.  All roots are therefore explicit.

Points are stored once per sign orbit (all families are even in each
coordinate): the representative has nonnegative coordinates and carries
the orbit size as ``multiplicity``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import potentials
from .errors import DegenerateCoupling, NoRealShape
from .potentials import AXES, PotentialSpec, axis_pairs, couplings

MINIMUM = "minimum"
MAXIMUM = "maximum"
SADDLE = "saddle"
DEGENERATE = "degenerate"

# strict positivity filter for squared off-axis coordinates; anything at or
# below this belongs to a lower-dimensional subfamily and is enumerated there
_POSITIVITY_ATOL = 1e-12

_CLASSIFY_REL_TOL = 1e-9

#: existence threshold for bulk stationary points of the isotropic
#: zero-cross-coupling sextic model, xi = alpha/beta
SMALL_COUPLING_THRESHOLD = 0.5 * math.sqrt(3.0 * math.sqrt(2.0) - 4.0)


@dataclass(frozen=True)
class StationaryPoint:
    """One sign orbit of stationary points.

    location is the representative with nonnegative coordinates;
    hessian_eigs are sorted ascending; multiplicity is the orbit size
    (2 ** number of nonzero coordinates).
    """

    location: tuple[float, ...]
    subfamily: str
    value: float
    hessian_eigs: tuple[float, ...]
    kind: str
    multiplicity: int
    label: str

    def orbit_members(self) -> np.ndarray:
        """All sign combinations of the representative, shape (m, D)."""
        return orbit_members(self.location)


@dataclass(frozen=True)
class StationaryReport:
    points: tuple[StationaryPoint, ...]
    warnings: tuple[str, ...]


@dataclass(slots=True, eq=False)
class QuadraticAux:
    """Auxiliary quantities of the in-plane quadratic
    z r^4 - (u z + 1) r^2 + w = 0 with
    w = c/(2a-u) + d/(2b-u) and z = 1/(2a-u) + 1/(2b-u)."""

    w_of_u: float
    z_of_u: float
    uzp1: float
    disc: float

    def __repr__(self):
        return (f"QuadraticAux(w={self.w_of_u:g}, z={self.z_of_u:g}, "
                f"uzp1={self.uzp1:g}, disc={self.disc:g})")


def orbit_members(location) -> np.ndarray:
    """Sign orbit of a representative point, shape (2**nnz, D); the first sign flips fastest."""
    signs = [(c, -c) if abs(c) > 0.0 else (0.0,) for c in map(float, reversed(location))]
    return np.array([m[::-1] for m in itertools.product(*signs)])


def classify(eigs) -> str:
    """Hessian signature -> minimum/maximum/saddle/degenerate."""
    return classify_rows(np.reshape(eigs, (1, -1)))[0]


def classify_rows(eigs) -> list[str]:
    """:func:`classify` for every row of an (n, D) eigenvalue array.

    An eigenvalue no larger in magnitude than 1e-9 times the row's largest
    counts as zero and makes the row degenerate.
    """
    eigs = np.asarray(eigs, dtype=float)
    mags = np.abs(eigs)
    scale = mags.max(axis=1, initial=0.0)
    tol = (_CLASSIFY_REL_TOL * scale)[:, None]
    degenerate = ((scale == 0.0) | (mags <= tol).any(axis=1)).tolist()
    minimum = (eigs > tol).all(axis=1).tolist()
    maximum = (eigs < -tol).all(axis=1).tolist()
    return [DEGENERATE if d else MINIMUM if lo else MAXIMUM if hi else SADDLE
            for d, lo, hi in zip(degenerate, minimum, maximum)]


def classify_points(specs, reps) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Values, Hessian eigenvalues and kinds of the orbit representatives
    of many specs of one family.

    reps[i] holds the (location, subfamily, label) triples of specs[i].
    Every representative takes the coefficients of its own spec; values,
    Hessians, their eigenvalues and the classification then come from one
    batched call each over the stack of all of them.  Returns (values,
    eigs, kinds) of shapes (N,), (N, D) and N, in the order of reps.
    """
    owner = np.repeat(np.arange(len(specs)), [len(r) for r in reps])
    # an (N, 1, D) stack with per-point coefficients takes one (1, D)
    # product per point, as a single-point call does, so results are
    # bitwise those of single-point evaluate/hessian calls; an (N, D) stack
    # takes a BLAS gemv that rounds differently
    x = np.array([loc for r in reps for loc, _sub, _label in r])[:, None, :]
    coeffs = tuple(c[owner][:, None] for c in potentials._coefficients(specs))
    values = potentials._value(x, coeffs)[:, 0]
    eigs = np.linalg.eigvalsh(potentials._hessian(x, coeffs))[:, 0]
    return values, eigs, classify_rows(eigs)


def point_list(reps, values, eigs, kinds) -> list[StationaryPoint]:
    """A StationaryPoint for each (location, subfamily, label) triple of
    one spec, from its :func:`classify_points` output."""
    return [
        StationaryPoint(
            location=loc,
            subfamily=subfamily,
            value=value,
            hessian_eigs=tuple(row),
            kind=kind,
            multiplicity=2 ** sum(1 for c in loc if c > 0.0),
            label=label,
        )
        for (loc, subfamily, label), value, row, kind
        in zip(reps, values.tolist(), eigs.tolist(), kinds)
    ]


# ---------------------------------------------------------------------------
# on-axis roots
# ---------------------------------------------------------------------------

def on_axis_roots(spec: PotentialSpec, axis: str) -> dict:
    """Squared on-axis stationary radii for one axis.

    Cusps have the single root X^2 = alpha_j^2; butterflies have the two
    roots X-^2 = a - sqrt(a^2 - c) and X+^2 = a + sqrt(a^2 - c) of
    t^2 - 2 a t + c = 0 (equal when beta_j = 0).  Raises NoRealShape when
    a^2 < c.
    """
    names = spec.axis_names()
    if axis not in names:
        raise ValueError(f"{spec.family} has axes {names}, not {axis!r}")
    keys, pairs = ((("x_sq",), None) if spec.is_cusp
                   else (("x_minus_sq", "x_plus_sq"), axis_pairs(spec)))
    return dict(zip(keys, (t for _suffix, t in _axis_roots(spec, names.index(axis), pairs))))


def _axis_roots(spec, idx, pairs):
    """(label suffix, squared radius) of every on-axis root of axis number
    idx, ascending: ("", alpha_j^2) for a cusp (pairs None), ("_inner", a - s)
    and ("_outer", a + s) with (a, c) = pairs[idx] and s = sqrt(a^2 - c) for
    a butterfly (:func:`potentials._on_axis_roots`), both tagged "_double"
    when s <= 1e-12 max(1, |a|).  Raises NoRealShape when a^2 < c."""
    if pairs is None:
        return [("", float(spec.raw[potentials._RAW_KEYS[spec.family][idx]]))]
    a, c = pairs[idx]
    roots = potentials._on_axis_roots(a, c)
    if roots is None:
        raise NoRealShape(
            f"axis {spec.axis_names()[idx]}: a^2 = {a * a:g} < c = {c:g}, "
            "on-axis points complex"
        )
    inner, root, outer = roots
    if root <= _POSITIVITY_ATOL * max(1.0, abs(a)):
        return [("_double", inner), ("_double", outer)]
    return [("_inner", inner), ("_outer", outer)]


# ---------------------------------------------------------------------------
# off-axis roots: one linear form per coupled coordinate block
# ---------------------------------------------------------------------------

def _real_quadratic_roots(q2, q1, q0):
    """Real roots of q2 t^2 + q1 t + q0 = 0 with stable branch tags.

    Returns (root, tag) pairs, tag in {"minus", "plus", "single"}; the tags
    follow the quadratic-formula branches ordered by ascending root, so they
    stay attached to the same root as parameters move.  A (numerically)
    vanishing leading coefficient degenerates to the linear equation.
    """
    scale = max(abs(q2), abs(q1), abs(q0), 1e-300)
    if not 1e-100 < scale < 1e100:
        # an exact power-of-two rescaling, so that q1^2 cannot overflow
        f = math.ldexp(1.0, -math.frexp(scale)[1])
        q2, q1, q0, scale = q2 * f, q1 * f, q0 * f, scale * f
    if abs(q2) <= 1e-14 * scale:
        if abs(q1) <= 1e-14 * scale:
            return []
        return [(-q0 / q1, "single")]
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    # cancellation-free branch first, companion via the product of roots
    qq = -0.5 * (q1 + math.copysign(root, q1))
    if qq == 0.0:
        return [(0.0, "single")]
    t1 = qq / q2
    t2 = q0 / qq
    if abs(t1 - t2) <= 1e-12 * max(1.0, abs(t1), abs(t2)):
        return [(0.5 * (t1 + t2), "single")]
    lo, hi = (t1, t2) if t1 < t2 else (t2, t1)
    return [(lo, "minus"), (hi, "plus")]


def _positive_quadratic_roots(q2, q1, q0):
    """Tagged real roots t > 0, ascending."""
    return [
        (t, tag) for t, tag in _real_quadratic_roots(q2, q1, q0)
        if t > _POSITIVITY_ATOL
    ]


def _adjugate(m, e, nu):
    """Adjugate and determinant of M - nu e e^T, for the symmetric 3x3
    matrix M with entries m; both as (00, 11, 22, 01, 02, 12, det)."""
    e0, e1, e2 = e
    A, B, C = m[0] - nu * e0, m[1] - nu * e1, m[2] - nu * e2
    D, E, F = m[3] - nu * e0 * e1, m[4] - nu * e0 * e2, m[5] - nu * e1 * e2
    a00, a01, a02 = B * C - F * F, E * F - D * C, D * F - B * E
    return a00, A * C - E * E, A * B - D * D, a01, a02, D * E - A * F, A * a00 + D * a01 + E * a02


def _linear_form(pairs, cross, idx):
    """([squared coordinates], R^2, branch) of every root whose nonzero
    coordinates are exactly the coupled block idx: a plane (i, j), or the
    3D bulk (0, 1, 2).

    With r^4 as a parameter the block is linear, M X = r^4 1 + k: M holds
    2a_i on its diagonal and u_ij off it, k the quadratic coefficients c_i.
    r^2 = 1^T X closes it to the quadratic
    (1^T adj M 1) r^4 - (det M) r^2 + 1^T adj M k = 0, free of division.
    The block sits in a 3x3 identity, so one adjugate serves every block.
    Because 1^T X = r^2, X also solves (M - mu 11^T) X = (r^4 - mu r^2) 1 + k,
    whose determinant is det M - mu 1^T adj M 1: mu = 0 unless
    |det M| < |1^T adj M 1| max|M|, else mu = -+max|M| with the sign that
    makes both terms add.  So only a continuum (both terms near zero), or
    an overflow, raises DegenerateCoupling.  Near a continuum the quadratic's
    coefficients cancel, so each root then takes two Newton steps on the
    stationarity equations M X - (1^T X)^2 1 - k = 0, whose Jacobian
    M - 2 (1^T X) 11^T is one more shift of M.
    """
    m = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]  # entries 00, 11, 22, 01, 02, 12
    k, e = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]  # e: the block's indicator vector
    for i in idx:
        a, k[i] = pairs[i]
        m[i], e[i] = 2.0 * a, 1.0
    for i, j, u in cross:
        if i in idx and j in idx:
            m[i + j + 2] = u
    (A, B, C, D, E, F), (k0, k1, k2), (e0, e1, e2) = m, k, e
    scale = max(abs(D), abs(E), abs(F), e0 * abs(A), e1 * abs(B), e2 * abs(C))
    s00, s11, s22, s01, s02, s12, det = _adjugate(m, e, 0.0)
    ae0, ae1, ae2 = s00 * e0 + s01 * e1 + s02 * e2, s01 * e0 + s11 * e1 + s12 * e2, \
        s02 * e0 + s12 * e1 + s22 * e2
    lead, const = ae0 * e0 + ae1 * e1 + ae2 * e2, ae0 * k0 + ae1 * k1 + ae2 * k2
    mu, shifted = 0.0, det
    if abs(det) < abs(lead) * scale:
        mu = -scale if det * lead >= 0.0 else scale
        s00, s11, s22, s01, s02, s12, shifted = _adjugate(m, e, mu)
    # scale^n by products: an overflow gives inf, and so a raise, not an OverflowError
    bound = 1e-12 * scale * scale * (scale if len(idx) == 3 else 1.0)
    if not bound < abs(shifted) < math.inf:
        raise DegenerateCoupling(
            f"coupling matrix of {''.join(AXES[i] for i in idx)} is singular "
            f"(shifted det = {shifted:g}); its linear solve is undefined"
        )
    out = []
    for r2, tag in _positive_quadratic_roots(lead, -det, const):
        w = r2 * r2 - mu * r2
        y0, y1, y2 = w * e0 + k0, w * e1 + k1, w * e2 + k2
        x0 = (s00 * y0 + s01 * y1 + s02 * y2) / shifted
        x1 = (s01 * y0 + s11 * y1 + s12 * y2) / shifted
        x2 = (s02 * y0 + s12 * y1 + s22 * y2) / shifted
        for _step in range(2):
            rad = x0 * e0 + x1 * e1 + x2 * e2  # 1^T X
            j00, j11, j22, j01, j02, j12, jdet = _adjugate(m, e, 2.0 * rad)
            if 0.0 < abs(jdet) < math.inf:  # zero at an exact double root
                g0 = (A * x0 + D * x1 + E * x2 - rad * rad - k0) * e0
                g1 = (D * x0 + B * x1 + F * x2 - rad * rad - k1) * e1
                g2 = (E * x0 + F * x1 + C * x2 - rad * rad - k2) * e2
                x0 -= (j00 * g0 + j01 * g1 + j02 * g2) / jdet
                x1 -= (j01 * g0 + j11 * g1 + j12 * g2) / jdet
                x2 -= (j02 * g0 + j12 * g1 + j22 * g2) / jdet
        X, sq = (x0, x1, x2), [0.0] * len(pairs)
        for i in idx:
            sq[i] = X[i]
            if not X[i] > _POSITIVITY_ATOL:
                break
        else:  # R^2 is the sum of the squares, after the steps
            out.append((sq, x0 * e0 + x1 * e1 + x2 * e2, tag))
    return out


def _off_axis(spec, pairs):
    """Every off-axis root of a butterfly spec with axis pairs ``pairs``:
    ([squared coordinates], R^2, subfamily, branch) tuples, from
    :func:`_linear_form` on each coupled plane (i, j) and, in 3D, on the
    bulk."""
    cross = couplings(spec)
    blocks = [((i, j), f"plane_{AXES[i]}{AXES[j]}") for i, j, _u in cross]
    if len(pairs) == 3:
        blocks.append(((0, 1, 2), "bulk"))
    return [(sq, r2, subfamily, tag) for idx, subfamily in blocks
            for sq, r2, tag in _linear_form(pairs, cross, idx)]


def quadratic_aux(spec: PotentialSpec) -> QuadraticAux:
    """In-plane auxiliary quantities (w(u), z(u), uz+1, discriminant) of a
    butterfly2d spec.  Raises DegenerateCoupling at u = 2a or u = 2b, where
    w and z are undefined (the roots are not: see :func:`off_axis_roots_2d`),
    tested relative to the largest of |a|, |b| and |u| so that the answer
    does not depend on the spec's scale."""
    if spec.family != "butterfly2d":
        raise ValueError("quadratic_aux applies to butterfly2d specs")
    ((a, c), (b, d)), ((_i, _j, u),) = axis_pairs(spec), couplings(spec)
    scale = max(abs(a), abs(b), abs(u))
    if abs(2.0 * a - u) <= 1e-12 * scale or abs(2.0 * b - u) <= 1e-12 * scale:
        raise DegenerateCoupling(
            f"u = {u:g} collides with a quartic diagonal (2a = {2 * a:g}, 2b = {2 * b:g})"
        )
    z = 1.0 / (2.0 * a - u) + 1.0 / (2.0 * b - u)
    w = c / (2.0 * a - u) + d / (2.0 * b - u)
    uzp1 = u * z + 1.0
    return QuadraticAux(w, z, uzp1, uzp1 * uzp1 - 4.0 * z * w)


def off_axis_roots_2d(spec: PotentialSpec) -> list[tuple[float, float, float]]:
    """Stationary points of a butterfly2d spec with X != 0 != Y.

    Returns (X^2, Y^2, R^2) tuples with strictly positive squared
    coordinates, R^2 ascending; empty when the in-plane quadratic has no
    admissible real root.  Raises DegenerateCoupling only where the roots
    are not isolated (a = b and u = 2a) or the coefficients overflow (see
    :func:`_linear_form`).
    """
    if spec.family != "butterfly2d":
        raise ValueError("off_axis_roots_2d applies to butterfly2d specs")
    return [(x2, y2, r2) for (x2, y2), r2, _sub, _tag in _off_axis(spec, axis_pairs(spec))]


def bulk_roots_3d(spec: PotentialSpec) -> list[tuple[float, float, float, float]]:
    """Bulk stationary points (all coordinates nonzero) of a butterfly3d spec.

    Treating r^4 as a parameter, the stationarity system is
    M (X^2, Y^2, Z^2)^T = r^4 + (p, q, s)^T with the symmetric coupling
    matrix M = [[2a, u, v], [u, 2b, w], [v, w, 2c]]; re-imposing
    r^2 = X^2 + Y^2 + Z^2 closes the quadratic
    (1^T adj M 1) r^4 - (det M) r^2 + 1^T adj M (p, q, s)^T = 0
    (see :func:`_linear_form`).  Returns (X^2, Y^2, Z^2, R^2) for every
    admissible root, R^2 ascending.
    """
    if spec.family != "butterfly3d":
        raise ValueError("bulk_roots_3d applies to butterfly3d specs")
    return [(*sq, r2) for sq, r2, _tag
            in _linear_form(axis_pairs(spec), couplings(spec), (0, 1, 2))]


def off_axis_roots_3d(spec: PotentialSpec) -> list[tuple]:
    """All off-axis stationary points of a butterfly3d spec.

    Planar subfamilies (one coordinate zero) are the 2D in-plane solve on
    the corresponding coefficient block; the bulk subfamily comes from
    :func:`bulk_roots_3d`.  Returns tuples (X^2, Y^2, Z^2, R^2, subfamily).
    """
    if spec.family != "butterfly3d":
        raise ValueError("off_axis_roots_3d applies to butterfly3d specs")
    return [(*sq, r2, sub) for sq, r2, sub, _tag in _off_axis(spec, axis_pairs(spec))]


# ---------------------------------------------------------------------------
# full enumeration
# ---------------------------------------------------------------------------

def _representatives(spec: PotentialSpec) -> tuple[list, list]:
    """One representative per stationary orbit, from the root formulas alone.

    Returns ([(location, subfamily, label), ...], warnings), origin first;
    no value, Hessian or classification is computed.  Axes whose on-axis
    roots are complex are skipped with a warning record.
    """
    dim = spec.dimension
    reps = [((0.0,) * dim, "origin", "origin")]
    warnings = []
    pairs = None if spec.is_cusp else axis_pairs(spec)
    for idx, axis in enumerate(AXES[:dim]):
        try:
            roots = _axis_roots(spec, idx, pairs)
        except NoRealShape:
            a, c = pairs[idx]
            warnings.append(
                f"axis {axis}: no real on-axis points (a^2 = {a * a:g} < c = {c:g})"
            )
            continue
        subfamily, before, after = f"axis_{axis}", (0.0,) * idx, (0.0,) * (dim - idx - 1)
        # a double pair is one orbit, kept as its outer root
        for suffix, t in roots[1:] if roots[0][0] == "_double" else roots:
            if t > _POSITIVITY_ATOL:
                reps.append((before + (math.sqrt(t),) + after, subfamily, subfamily + suffix))

    if dim > 1 and pairs:
        for sq, _r2, subfamily, tag in _off_axis(spec, pairs):
            reps.append((tuple(map(math.sqrt, sq)), subfamily, f"{subfamily}_{tag}"))
    return reps, warnings


def enumerate_stationary(spec: PotentialSpec) -> StationaryReport:
    """Complete closed-form stationary set, classified and sorted by value.

    The root formulas give one representative per orbit, classified by
    :func:`classify_points` as a stack of one spec.  Axes whose on-axis
    roots are complex are skipped with a warning record rather than an
    error.
    """
    reps, warnings = _representatives(spec)
    points = point_list(reps, *classify_points([spec], [reps]))
    points.sort(key=lambda p: (p.value, p.label))
    return StationaryReport(points=tuple(points), warnings=tuple(warnings))


def stationary_points(spec: PotentialSpec) -> list[StationaryPoint]:
    """The classified stationary list (see :func:`enumerate_stationary`)."""
    return list(enumerate_stationary(spec).points)


# ---------------------------------------------------------------------------
# existence criteria for bulk points in the two reduced regimes
# ---------------------------------------------------------------------------

def bulk_reality_small_couplings(xi: float) -> tuple[bool, float]:
    """Reality of the bulk points when all cross couplings vanish and the
    shape is isotropic (alpha_j = alpha, beta_j = beta, u = v = w = 0).

    The bulk squared radii are (alpha^2 + beta^2 +- sqrt(beta^4 -
    8 alpha^2 (alpha^2 + 2 beta^2)))/3; both are real and positive exactly
    when xi = alpha/beta satisfies xi^2 (2 + xi^2) <= 1/8.  Returns
    (real_roots, threshold) with the closed-form threshold
    0.5 sqrt(3 sqrt(2) - 4).
    """
    if xi <= 0.0:
        raise ValueError(f"xi must be positive, got {xi:g}")
    return (xi * xi * (2.0 + xi * xi) <= 0.125, SMALL_COUPLING_THRESHOLD)


def bulk_reality_large_couplings(u: float, p: float, q: float, s: float) -> tuple[bool, float]:
    """Reality of the bulk points when the cross couplings dominate the
    quartic diagonals (a = b = c = 0) and are isotropic (u = v = w).

    The constraint r^2 = X^2 + Y^2 + Z^2 closes to
    3 r^4 - 2 u r^2 + (p + q + s) = 0, whose roots are real and positive
    exactly when u >= sqrt(3 (p + q + s)) (root product (p+q+s)/3 > 0 and
    root sum 2u/3 > 0 make realness equivalent to positivity).  Returns
    (real_roots, bound).
    """
    if min(p, q, s) <= 0.0:
        raise ValueError("p, q, s must be positive")
    bound = math.sqrt(3.0 * (p + q + s))
    return (u >= bound, bound)

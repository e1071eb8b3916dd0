"""Closed-form stationary points and their Hessian classification.

Every gradient component factors as x_j * (polynomial in the squared
coordinates), so the stationary set splits by the pattern of vanishing
coordinates: the origin, on-axis points, in-plane points (two nonzero
coordinates), and, in 3D, bulk points with all coordinates nonzero.

On an axis the stationary condition is a quadratic in the squared
coordinate.  Off the axes, treating r^4 as a parameter makes each coupled
block (a plane, or the 3D bulk) linear in its squared coordinates;
re-imposing r^2 = sum of squares closes it to a quadratic in r^2.  One
adjugate solve serves every block, and fails only where the block's roots
form a continuum.  All roots are therefore explicit, each formula written
once: over potentials.FLOATS for one spec, over numpy for a stack of specs.

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
from .potentials import AXES, FLOATS, PotentialSpec, axis_pairs, couplings

MINIMUM = "minimum"
MAXIMUM = "maximum"
SADDLE = "saddle"
DEGENERATE = "degenerate"

# strict positivity filter for squared off-axis coordinates; anything at or
# below this belongs to a lower-dimensional subfamily and is enumerated there
_POSITIVITY_ATOL = 1e-12

_CLASSIFY_REL_TOL = 1e-9

# (indices, subfamily) of each coupled block by dimension: planes xy, xz, yz, then the 3D bulk
_BLOCKS = {dim: [((i, j), f"plane_{AXES[i]}{AXES[j]}")
                 for i, j in itertools.combinations(range(dim), 2)]
           + ([((0, 1, 2), "bulk")] if dim == 3 else []) for dim in (1, 2, 3)}

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


def classify_points(x, owner, coeffs) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Values, Hessian eigenvalues and kinds of the orbit representatives
    of many specs of one family.

    x (N, D) stacks the representatives, coeffs holds the coefficient rows
    of the specs (see :func:`potentials._coefficient_rows`), and point i
    takes row owner[i].  Values, Hessians, their eigenvalues and the
    classification then come from one batched call each over the stack.
    Returns (values, eigs, kinds) of shapes (N,), (N, D) and N.
    """
    # an (N, 1, D) stack with per-point coefficients takes one (1, D)
    # product per point, as a single-point call does, so results are
    # bitwise those of single-point evaluate/hessian calls; an (N, D) stack
    # takes a BLAS gemv that rounds differently
    x = np.asarray(x, dtype=float)[:, None, :]
    coeffs = tuple(c[owner][:, None] for c in coeffs)
    values = potentials._value(x, coeffs)[:, 0]
    eigs = np.linalg.eigvalsh(potentials._hessian(x, coeffs))[:, 0]
    return values, eigs, classify_rows(eigs)


def point_list(spec, reps) -> list[StationaryPoint]:
    """A StationaryPoint for each (location, subfamily, label) triple of
    one spec, classified by :func:`classify_points` as a stack of one spec."""
    values, eigs, kinds = classify_points([loc for loc, _sub, _label in reps],
                                          np.zeros(len(reps), dtype=int),
                                          potentials._coefficients([spec]))
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
# the root formulas, each over a namespace ns: potentials.FLOATS or numpy
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
    if spec.is_cusp:
        return {"x_sq": float(spec.raw[potentials._RAW_KEYS[spec.family][names.index(axis)]])}
    a, c = axis_pairs(spec)[names.index(axis)]
    (inner, _present, _suffix), (outer, real, _suffix) = _axis_roots(FLOATS, a, c)
    if not real:
        raise NoRealShape(f"axis {axis}: a^2 = {a * a:g} < c = {c:g}, on-axis points complex")
    return {"x_minus_sq": inner, "x_plus_sq": outer}


def _axis_roots(ns, a, c=None):
    """[(squared radius, present, label suffix)] of the on-axis roots of one
    axis: a cusp's alpha_j^2 = a (c None), or the inner and the outer root
    of a butterfly's axis pair (a, c) (:func:`potentials._on_axis_roots`),
    present where real.  A double pair (half gap s <= 1e-12 max(1, |a|)) is
    one orbit, kept as its outer root with suffix "_double"."""
    if c is None:
        return [(a, True, "")]
    inner, root, outer = potentials._on_axis_roots(ns, a, c)
    distinct = root > _POSITIVITY_ATOL * ns.maximum(1.0, abs(a))
    return [(inner, (root >= 0.0) & distinct, "_inner"),
            (outer, root >= 0.0, ns.where(distinct, "_outer", "_double"))]


def _real_quadratic_roots(ns, q2, q1, q0):
    """Real roots of q2 t^2 + q1 t + q0 = 0 with stable branch tags: (lower,
    upper, real, single).  Where real, lower is tagged "single" where single,
    else "minus", and upper "plus": the branches by ascending root, stable as
    parameters move.  A (numerically) vanishing q2 leaves a linear equation."""
    scale = ns.maximum(ns.maximum(abs(q2), abs(q1)), ns.maximum(abs(q0), 1e-300))
    inside = (1e-100 < scale) & (scale < 1e100)
    if not ns.all(inside):  # an exact power-of-two rescaling, so that q1^2 cannot overflow
        f = ns.where(inside, 1.0, ns.ldexp(1.0, -ns.frexp(scale)[1]))  # 1.0 keeps every bit
        q2, q1, q0, scale = q2 * f, q1 * f, q0 * f, scale * f
    linear = abs(q2) <= 1e-14 * scale
    disc = q1 * q1 - 4.0 * q2 * q0
    # cancellation-free branch first, companion via the product of roots
    qq = -0.5 * (q1 + ns.copysign(ns.sqrt(disc), q1))
    t1, t2 = ns.divide(qq, q2), ns.divide(q0, qq)
    close = abs(t1 - t2) <= 1e-12 * ns.maximum(ns.maximum(1.0, abs(t1)), abs(t2))
    low, zero = t1 < t2, qq == 0.0
    lower = ns.where(linear, ns.divide(-q0, q1), ns.where(
        zero, 0.0, ns.where(close, 0.5 * (t1 + t2), ns.where(low, t1, t2))))
    real = ns.where(linear, abs(q1) > 1e-14 * scale, disc >= 0.0)
    return lower, ns.where(low, t2, t1), real, linear | zero | close


def _adjugate(m, e, nu):
    """Adjugate and determinant of M - nu e e^T, for the symmetric 3x3
    matrix M with entries m; both as (00, 11, 22, 01, 02, 12, det)."""
    e0, e1, e2 = e
    A, B, C = m[0] - nu * e0, m[1] - nu * e1, m[2] - nu * e2
    D, E, F = m[3] - nu * e0 * e1, m[4] - nu * e0 * e2, m[5] - nu * e1 * e2
    a00, a01, a02 = B * C - F * F, E * F - D * C, D * F - B * E
    return a00, A * C - E * E, A * B - D * D, a01, a02, D * E - A * F, A * a00 + D * a01 + E * a02


def _linear_form(ns, m, k, e, bulk):
    """(roots, mu, adj, solvable) of a coupled block: a plane (i, j), or the
    3D bulk (0, 1, 2), which bulk says.  The block sits in a 3x3 identity, so
    one adjugate serves every block: m holds its entries 00, 11, 22, 01, 02,
    12, k and e its right-hand side and indicator, both 0.0 off the block.

    With r^4 as a parameter the block is linear, M X = r^4 1 + k: M holds
    2a_i on its diagonal and u_ij off it, k the quadratic coefficients c_i.
    r^2 = 1^T X closes it to a quadratic free of division, solved into
    roots by :func:`_real_quadratic_roots`:
    (1^T adj M 1) r^4 - (det M) r^2 + 1^T adj M k = 0.
    Because 1^T X = r^2, X also solves (M - mu 11^T) X = (r^4 - mu r^2) 1 + k,
    whose determinant is det M - mu 1^T adj M 1: mu = 0 unless
    |det M| < |1^T adj M 1| max|M|, else mu = -+max|M| with the sign that
    makes both terms add.  adj is the adjugate and determinant of
    M - mu 11^T.  Only a continuum (both terms near zero), or an overflow,
    leaves that determinant outside (1e-12 max|M|^n, inf), n the block's
    size: the block is then not solvable, a DegenerateCoupling.
    """
    (A, B, C, D, E, F), (k0, k1, k2), (e0, e1, e2) = m, k, e
    scale = ns.maximum(ns.maximum(ns.maximum(abs(D), abs(E)), ns.maximum(abs(F), e0 * abs(A))),
                       ns.maximum(e1 * abs(B), e2 * abs(C)))
    s00, s11, s22, s01, s02, s12, det = _adjugate(m, e, 0.0)
    ae0, ae1, ae2 = s00 * e0 + s01 * e1 + s02 * e2, s01 * e0 + s11 * e1 + s12 * e2, \
        s02 * e0 + s12 * e1 + s22 * e2
    lead, const = ae0 * e0 + ae1 * e1 + ae2 * e2, ae0 * k0 + ae1 * k1 + ae2 * k2
    # mu = 0 leaves M as it is, and its adjugate the one above, bit for bit
    mu = ns.where(abs(det) < abs(lead) * scale, ns.where(det * lead >= 0.0, -scale, scale), 0.0)
    adj = _adjugate(m, e, mu)
    # scale^n by products: an overflow gives inf, and so no solve, not an OverflowError
    bound = 1e-12 * scale * scale * ns.where(bulk, scale, 1.0)
    solvable = (bound < abs(adj[6])) & (abs(adj[6]) < math.inf)
    return _real_quadratic_roots(ns, lead, -det, const), mu, adj, solvable


def _block_point(ns, m, k, e, mu, adj, r2):
    """Squared coordinates (x0, x1, x2) of a block's root at R^2 = r2 (see
    :func:`_linear_form`), and whether the block's are positive, after two
    Newton steps on M X - (1^T X)^2 1 - k = 0 (the quadratic cancels near a
    continuum), whose Jacobian M - 2 (1^T X) 11^T is one more shift of M."""
    (A, B, C, D, E, F), (k0, k1, k2), (e0, e1, e2) = m, k, e
    s00, s11, s22, s01, s02, s12, shifted = adj
    w = r2 * r2 - mu * r2
    y0, y1, y2 = w * e0 + k0, w * e1 + k1, w * e2 + k2
    x0 = (s00 * y0 + s01 * y1 + s02 * y2) / shifted
    x1 = (s01 * y0 + s11 * y1 + s12 * y2) / shifted
    x2 = (s02 * y0 + s12 * y1 + s22 * y2) / shifted
    for _step in range(2):
        rad = x0 * e0 + x1 * e1 + x2 * e2  # 1^T X
        j00, j11, j22, j01, j02, j12, jdet = _adjugate(m, e, 2.0 * rad)
        step = (0.0 < abs(jdet)) & (abs(jdet) < math.inf)  # zero at an exact double root
        g0 = (A * x0 + D * x1 + E * x2 - rad * rad - k0) * e0
        g1 = (D * x0 + B * x1 + F * x2 - rad * rad - k1) * e1
        g2 = (E * x0 + F * x1 + C * x2 - rad * rad - k2) * e2
        x0 = ns.where(step, x0 - ns.divide(j00 * g0 + j01 * g1 + j02 * g2, jdet), x0)
        x1 = ns.where(step, x1 - ns.divide(j01 * g0 + j11 * g1 + j12 * g2, jdet), x1)
        x2 = ns.where(step, x2 - ns.divide(j02 * g0 + j12 * g1 + j22 * g2, jdet), x2)
    positive = ((x0 > _POSITIVITY_ATOL) | (e0 == 0.0)) & ((x1 > _POSITIVITY_ATOL) | (e1 == 0.0))
    return (x0, x1, x2), positive & ((x2 > _POSITIVITY_ATOL) | (e2 == 0.0))


def _singular(idx, shifted) -> DegenerateCoupling:
    """The error of coupled block idx, not solvable at shifted determinant shifted."""
    return DegenerateCoupling(f"coupling matrix of {''.join(AXES[i] for i in idx)} is singular "
                              f"(shifted det = {shifted:g}); its linear solve is undefined")


def _off_axis(pairs, cross, blocks):
    """([squared coordinates], R^2, subfamily, branch) of each root of one
    spec, from its axis pairs and couplings cross, (i, j, u_ij) each, whose
    nonzero coordinates are one of blocks (see _BLOCKS); only real roots
    take the Newton steps.  Raises DegenerateCoupling at a singular block."""
    out = []
    for idx, subfamily in blocks:
        m, k, e = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        for i in idx:
            a, k[i] = pairs[i]
            m[i], e[i] = 2.0 * a, 1.0
        for i, j, u in cross:
            if i in idx and j in idx:
                m[i + j + 2] = u
        roots, mu, adj, solvable = _linear_form(FLOATS, m, k, e, len(idx) == 3)
        if not solvable:
            raise _singular(idx, adj[6])
        lower, upper, real, single = roots
        for r2, tag in ((lower, "single"),) if single else ((lower, "minus"), (upper, "plus")):
            if real and r2 > _POSITIVITY_ATOL:
                X, positive = _block_point(FLOATS, m, k, e, mu, adj, r2)
                if positive:  # R^2 is the sum of the squares, after the steps
                    out.append(([X[i] if i in idx else 0.0 for i in range(len(pairs))],
                                X[0] * e[0] + X[1] * e[1] + X[2] * e[2], subfamily, tag))
    return out


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
    return [(x2, y2, r2) for (x2, y2), r2, _sub, _tag
            in _off_axis(axis_pairs(spec), couplings(spec), _BLOCKS[2])]


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
    return [(*sq, r2) for sq, r2, _sub, _tag
            in _off_axis(axis_pairs(spec), couplings(spec), _BLOCKS[3][-1:])]


def off_axis_roots_3d(spec: PotentialSpec) -> list[tuple]:
    """All off-axis stationary points of a butterfly3d spec.

    Planar subfamilies (one coordinate zero) are the 2D in-plane solve on
    the corresponding coefficient block; the bulk subfamily comes from
    :func:`bulk_roots_3d`.  Returns tuples (X^2, Y^2, Z^2, R^2, subfamily).
    """
    if spec.family != "butterfly3d":
        raise ValueError("off_axis_roots_3d applies to butterfly3d specs")
    return [(*sq, r2, sub) for sq, r2, sub, _tag
            in _off_axis(axis_pairs(spec), couplings(spec), _BLOCKS[3])]


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
    pairs = ([(float(spec.raw[key]),) for key in potentials._RAW_KEYS[spec.family]]
             if spec.is_cusp else axis_pairs(spec))
    for idx, axis in enumerate(AXES[:dim]):
        roots = _axis_roots(FLOATS, *pairs[idx])
        if not roots[-1][1]:
            a, c = pairs[idx]
            warnings.append(f"axis {axis}: no real on-axis points (a^2 = {a * a:g} < c = {c:g})")
            continue
        subfamily, before, after = f"axis_{axis}", (0.0,) * idx, (0.0,) * (dim - idx - 1)
        for t, present, suffix in roots:
            if present and t > _POSITIVITY_ATOL:
                reps.append((before + (math.sqrt(t),) + after, subfamily, subfamily + suffix))

    if dim > 1 and not spec.is_cusp:
        for sq, _r2, subfamily, tag in _off_axis(pairs, couplings(spec), _BLOCKS[dim]):
            reps.append((tuple(map(math.sqrt, sq)), subfamily, f"{subfamily}_{tag}"))
    return reps, warnings


def _representative_rows(coeffs):
    """:func:`_representatives` of a stack of specs of one family, one row
    of the coefficient arrays coeffs each (see
    :func:`potentials._coefficient_rows`), without warnings: (x, owner,
    labels, errors), the (N, D) locations, the row that owns each and its
    label, row by row in the order of _representatives, and per row None or
    the DegenerateCoupling that _representatives raises, for a row with no
    location."""
    n, dim = coeffs[0].shape[:2]
    blocks = _BLOCKS[dim] if len(coeffs) == 3 else []
    slots = 1 + (dim if len(coeffs) == 1 else 2 * dim) + 2 * len(blocks)
    squares, present = np.zeros((n, slots, dim)), np.zeros((n, slots), dtype=bool)
    labels = np.empty((n, slots), dtype=object)
    present[:, 0], labels[:, 0] = True, "origin"
    errors, s = [None] * n, 1
    with np.errstate(all="ignore"):  # the rows that _representatives skips or raises for
        for idx, axis in enumerate(AXES[:dim]):
            # a cusp's k, or a butterfly's quartic and quadratic coefficients
            for t, mask, suffix in _axis_roots(np, *(c[:, idx] for c in coeffs[::2])):
                squares[:, s, idx], present[:, s] = t, mask & (t > _POSITIVITY_ATOL)
                labels[:, s] = f"axis_{axis}" + np.asarray(suffix, dtype=object)
                s += 1
        if blocks:
            # blocks stacked: entries (B, n) and indicators (B, 1), as one spec's
            A, U, P = coeffs
            e = [np.array([[1.0 if i in idx else 0.0] for idx, _sub in blocks]) for i in range(3)]
            m = [np.where(e[i] == 1.0, 2.0 * A[:, i], 1.0) if i < dim else 1.0 for i in range(3)]
            k = [np.where(e[i] == 1.0, P[:, i], 0.0) if i < dim else 0.0 for i in range(3)]
            m += [np.where(e[i] * e[j] == 1.0, U[:, i, j], 0.0) if j < dim else 0.0
                  for i, j in itertools.combinations(range(3), 2)]
            bulk = np.array([[len(idx) == 3] for idx, _sub in blocks])
            (lower, upper, real, single), mu, adj, solvable = _linear_form(np, m, k, e, bulk)
            r2 = np.stack([lower, upper])  # both roots of every block in one (2, B, n) pass
            X, positive = _block_point(np, m, k, e, mu, adj, r2)
            found = np.stack([real, real & ~single]) & (r2 > _POSITIVITY_ATOL) & positive
            for b, (idx, subfamily) in enumerate(blocks):
                tags = (np.where(single[b], "single", "minus").astype(object), "plus")
                for r, tag in enumerate(tags):
                    for i in idx:
                        squares[:, s, i] = X[i][r, b]
                    present[:, s], labels[:, s] = found[r, b], f"{subfamily}_" + tag
                    s += 1
            for i in np.flatnonzero(~solvable.all(axis=0)).tolist():
                b = int(np.argmin(solvable[:, i]))  # the first, as _representatives raises
                errors[i], present[i] = _singular(blocks[b][0], float(adj[6][b, i])), False
    return np.sqrt(squares[present]), np.nonzero(present)[0], labels[present].tolist(), errors


def enumerate_stationary(spec: PotentialSpec) -> StationaryReport:
    """Complete closed-form stationary set, classified and sorted by value.

    The root formulas give one representative per orbit, classified by
    :func:`classify_points` as a stack of one spec.  Axes whose on-axis
    roots are complex are skipped with a warning record rather than an
    error.
    """
    reps, warnings = _representatives(spec)
    points = point_list(spec, reps)
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

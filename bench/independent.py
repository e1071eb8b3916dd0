"""The benchmark's own arithmetic, written from the family formulas alone.

Correctness checks recompute what they verify with this module rather than
with polydot: the polynomial and its analytic gradient from the raw
coefficients, a finite-difference Hessian of that gradient, harmonic ground
candidates, and the finite-difference Schroedinger stencil.  It uses only
numpy and scipy.

Every family is written as a polynomial in the squared coordinates s_i:

    V = R^k + sum_i L_i s_i + sum_i Q_i s_i^2 + sum_{i<j} C_ij s_i s_j,
    R = sum_i s_i,  k = 2 (cusp) or 3 (butterfly),

so dV/dx_i = 2 x_i (k R^(k-1) + L_i + 2 Q_i s_i + sum_{j!=i} C_ij s_j).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's recomputation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def coefficients(family: str, raw: dict):
    """(k, L, Q, C) of the squared-coordinate form above."""
    if family == "cusp2d":
        L = [-2.0 * raw["alpha_sq"], -2.0 * raw["beta_sq"]]
        return 2, np.array(L), np.zeros(2), np.zeros((2, 2))
    if family == "cusp3d":
        L = [-2.0 * raw["alpha_sq"], -2.0 * raw["beta_sq"], -2.0 * raw["gamma_sq"]]
        return 2, np.array(L), np.zeros(3), np.zeros((3, 3))
    if family == "butterfly1d":
        return 3, np.array([raw["c"]]), np.array([raw["a"]]), np.zeros((1, 1))
    if family == "butterfly2d":
        C = np.zeros((2, 2))
        C[0, 1] = C[1, 0] = -3.0 * raw["u"]
        return (3, 3.0 * np.array([raw["c"], raw["d"]]),
                -3.0 * np.array([raw["a"], raw["b"]]), C)
    if family == "butterfly3d":
        C = np.zeros((3, 3))
        C[0, 1] = C[1, 0] = -3.0 * raw["u"]
        C[0, 2] = C[2, 0] = -3.0 * raw["v"]
        C[1, 2] = C[2, 1] = -3.0 * raw["w"]
        return (3, 3.0 * np.array([raw["p"], raw["q"], raw["s"]]),
                -3.0 * np.array([raw["a"], raw["b"], raw["c"]]), C)
    raise ValueError(f"unknown family {family!r}")


def potential(family, raw, x):
    """V at points x of shape (..., D)."""
    k, L, Q, C = coefficients(family, raw)
    s = np.asarray(x, dtype=float) ** 2
    R = s.sum(axis=-1)
    cross = 0.5 * np.einsum("...i,ij,...j->...", s, C, s)
    return R ** k + s @ L + (s * s) @ Q + cross


def grad(family, raw, x):
    """Analytic gradient at points x of shape (..., D)."""
    k, L, Q, C = coefficients(family, raw)
    x = np.asarray(x, dtype=float)
    s = x * x
    R = s.sum(axis=-1, keepdims=True)
    return 2.0 * x * (k * R ** (k - 1) + L + 2.0 * Q * s + s @ C)


def fd_hessian(family, raw, x, rel_step=1e-5):
    """Central differences of the analytic gradient at one point."""
    x = np.asarray(x, dtype=float)
    h = rel_step * max(1.0, float(np.max(np.abs(x))))
    dim = len(x)
    H = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        H[:, j] = (grad(family, raw, x + e) - grad(family, raw, x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


def gradient_residual(family, raw, x):
    """Largest gradient component over the scale 1 + |x|^(2k-1) that the
    stationarity tolerances of the oracle use."""
    x = np.asarray(x, dtype=float)
    k = coefficients(family, raw)[0]
    scale = 1.0 + float(np.max(np.abs(x))) ** (2 * k - 1)
    return float(np.max(np.abs(grad(family, raw, x)))) / scale


def candidates(family, raw, points, stationary_tol=1e-9):
    """{label: (classical depth, harmonic ground candidate)} of the minima
    among points [(label, location)], every location checked stationary."""
    out = {}
    for label, loc in points:
        res = gradient_residual(family, raw, loc)
        require(res < stationary_tol, f"{label} at {loc} is not stationary (residual {res:.2e})")
        eigs = np.linalg.eigvalsh(fd_hessian(family, raw, loc))
        if np.all(eigs > 1e-7 * max(1.0, float(np.max(np.abs(eigs))))):
            v0 = float(potential(family, raw, np.asarray(loc, float)))
            out[label] = (v0, v0 + float(np.sum(np.sqrt(eigs / 2.0))))
    return out


# ties: classical depths are exact polynomial values; ground candidates carry
# the error of the finite-difference Hessian
TIE_RTOL = {"classical": 1e-10, "quantum": 1e-7}


def dominant(cands, kind):
    """Labels of the lowest candidate and of any tied with it, sorted; kind
    'classical' ranks by depth, 'quantum' by ground candidate."""
    require(cands, "no minimum to rank")
    idx = 0 if kind == "classical" else 1
    values = {label: c[idx] for label, c in cands.items()}
    best = min(values.values())
    tol = TIE_RTOL[kind] * max(1.0, max(abs(v) for v in values.values()))
    return tuple(sorted(label for label, v in values.items() if v <= best + tol))


# ---------------------------------------------------------------------------
# finite-difference stencil of -Laplacian + V
# ---------------------------------------------------------------------------

def tridiagonal_levels(values, dx, k):
    """Lowest k eigenvalues of the 1D stencil with on-site potential values."""
    d = 2.0 / dx ** 2 + np.asarray(values, dtype=float)
    e = np.full(len(d) - 1, -1.0 / dx ** 2)
    return sla.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                select_range=(0, k - 1))


def separable_levels(per_axis, k):
    """Lowest k sums of per-axis level lists (separable potentials)."""
    sums = np.zeros(1)
    for levels in per_axis:
        sums = (sums[:, None] + np.asarray(levels)[None, :]).ravel()
    return np.sort(sums)[:k]


def stencil_apply(psi, v, spacings):
    """(-Laplacian + V) psi with Dirichlet zeros just outside the box."""
    out = v * psi
    for ax, dx in enumerate(spacings):
        padded = np.pad(psi, [(1, 1) if i == ax else (0, 0) for i in range(psi.ndim)])
        lo = np.take(padded, range(0, psi.shape[ax]), axis=ax)
        hi = np.take(padded, range(2, psi.shape[ax] + 2), axis=ax)
        out = out + (2.0 * psi - lo - hi) / dx ** 2
    return out


def pair_residual(psi, energy, v, spacings):
    """||H psi - E psi|| / ||psi|| under the benchmark's own stencil."""
    r = stencil_apply(psi, v, spacings) - energy * psi
    return float(np.linalg.norm(r) / np.linalg.norm(psi))


def axis_grid(extent, n):
    xs = np.linspace(-extent, extent, n)
    return xs, 2.0 * extent / (n - 1)


def sup_distance(a, b):
    return max(abs(p - q) for p, q in zip(a, b))


def orbit_diff(closed, found, tol):
    """(missing, spurious) between two lists of representative locations."""
    def nearest(p, pool):
        return min((sup_distance(p, q) for q in pool), default=math.inf)
    missing = [p for p in closed if nearest(p, found) > tol]
    spurious = [q for q in found if nearest(q, closed) > tol]
    return missing, spurious

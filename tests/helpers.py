"""Shared helpers for the test suite: parameter draws, a hypothesis
strategy over all families, a call counter, the loop references of the
Newton oracle and of its orbit matching, the bisection references of
scan refinement, the flat-stiffness reference of the harmonic candidate,
the whole-grid references of the 1D, 2D and 3D eigensolves, the Kronecker
references of the eigensolver's operator, mirror bases and parity sectors,
the face-list references of its stencil, half axes and unfold,
the norm-stack references of localization and of the least orbit distance,
the hand-written reference of an eigensolution's report, the row-by-row
references of the array CSV writers, the hand-built window of the grid
command, the per-axis references of parameter overrides and raster
cells, the references of
the shape layer's completion and conversion, the single-point
reference of one scan sample, and the raw-key references of the root
algebra, of orbit members, of the shape view and of the characteristic
radius."""

import csv
import itertools
import math
import sys
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import strategies as st

from polydot import catastrophe, oracle, potentials, reports, spectra, stationary
from polydot.errors import NoRealShape, PolydotError, SplitBracket
from polydot.stationary import MINIMUM, StationaryPoint, classify


def draw_cusp2d(rng):
    b = rng.uniform(0.2, 1.5)
    a = b + rng.uniform(0.2, 1.5)
    return potentials.spec_from_raw("cusp2d", dict(alpha_sq=a, beta_sq=b))


def draw_cusp3d(rng):
    g = rng.uniform(0.4, 1.2)
    b = g + rng.uniform(0.3, 1.0)
    a = b + rng.uniform(0.3, 1.0)
    return potentials.spec_from_raw(
        "cusp3d", dict(alpha_sq=a, beta_sq=b, gamma_sq=g)
    )


def draw_butterfly1d(rng):
    return potentials.make_spec(
        "butterfly1d", alpha=rng.uniform(0.6, 1.8), beta=rng.uniform(0.5, 1.6)
    )


def draw_butterfly2d(rng, u_range=(-3.0, None)):
    shape = {}
    for ax in ("x", "y"):
        al = rng.uniform(0.5, 2.0)
        be = rng.uniform(0.3, 1.5)
        shape[f"alpha_{ax}_sq"] = al
        shape[f"beta_{ax}_sq"] = be
        shape[f"gamma_{ax}_sq"] = al + 2.0 * be
    raw = potentials.shape_to_raw("butterfly2d", shape)
    lo, hi = u_range
    if hi is None:
        hi = 2.0 * min(raw["a"], raw["b"]) - 0.1
    raw["u"] = rng.uniform(lo, hi)
    return potentials.spec_from_raw("butterfly2d", raw)


def draw_butterfly2d_with_roots(rng, max_attempts=20):
    """A draw whose in-plane quadratic has admissible real roots (found by
    sweeping the cross coupling below its degeneracy)."""
    from polydot import stationary

    for _ in range(max_attempts):
        spec = draw_butterfly2d(rng)
        raw = dict(spec.raw)
        hi = 2.0 * min(raw["a"], raw["b"]) - 0.05
        live = []
        for u in np.linspace(-3.0, hi, 32):
            raw["u"] = float(u)
            candidate = potentials.spec_from_raw("butterfly2d", raw)
            if stationary.off_axis_roots_2d(candidate):
                live.append(candidate)
        if live:
            return live[int(rng.integers(len(live)))]
    raise AssertionError("no butterfly2d draw with off-axis roots found")


def draw_butterfly3d(rng, cross=0.8):
    shape = {}
    for ax in ("x", "y", "z"):
        al = rng.uniform(0.4, 1.8)
        be = rng.uniform(0.3, 1.4)
        shape[f"alpha_{ax}_sq"] = al
        shape[f"beta_{ax}_sq"] = be
        shape[f"gamma_{ax}_sq"] = al + 2.0 * be
    raw = potentials.shape_to_raw("butterfly3d", shape)
    for key in ("u", "v", "w"):
        raw[key] = rng.uniform(-cross, cross)
    return potentials.spec_from_raw("butterfly3d", raw)


def draw_butterfly3d_ordered(rng):
    """Axis parameters respecting gamma_x^2 > gamma_y^2 > gamma_z^2 and
    alpha_x^2-beta_x^2 < alpha_y^2-beta_y^2 < alpha_z^2-beta_z^2 < 0,
    with small cross couplings."""
    gammas = np.sort(rng.uniform(3.0, 6.0, size=3))[::-1]
    diffs = np.sort(rng.uniform(-1.0, -0.1, size=3))
    shape = {}
    for ax, g2, d in zip(("x", "y", "z"), gammas, diffs):
        al = (g2 + 2.0 * d) / 3.0
        be = (g2 - d) / 3.0
        shape[f"alpha_{ax}_sq"] = al
        shape[f"beta_{ax}_sq"] = be
        shape[f"gamma_{ax}_sq"] = g2
    raw = potentials.shape_to_raw("butterfly3d", shape)
    for key in ("u", "v", "w"):
        raw[key] = rng.uniform(-0.3, 0.3)
    return potentials.spec_from_raw("butterfly3d", raw), shape


DRAWERS = {
    "cusp2d": draw_cusp2d,
    "cusp3d": draw_cusp3d,
    "butterfly1d": draw_butterfly1d,
    "butterfly2d": draw_butterfly2d,
    "butterfly3d": draw_butterfly3d,
}


def _axis_shapes(draw, axes):
    shape = {}
    for ax in axes:
        al = draw(st.floats(0.05, 3.0))
        be = draw(st.floats(0.0, 3.0))
        shape.update({f"alpha_{ax}_sq": al, f"beta_{ax}_sq": be,
                      f"gamma_{ax}_sq": al + 2.0 * be})
    return shape


@st.composite
def any_family_spec(draw, families=potentials.FAMILIES):
    family = draw(st.sampled_from(families))
    coef = st.floats(0.0, 4.0)
    cross = st.floats(-6.0, 6.0)
    if family == "cusp2d":
        return potentials.spec_from_raw(
            family, {"alpha_sq": draw(coef), "beta_sq": draw(coef)})
    if family == "cusp3d":
        return potentials.spec_from_raw(
            family, {"alpha_sq": draw(coef), "beta_sq": draw(coef), "gamma_sq": draw(coef)})
    if family == "butterfly1d":
        # raw route: a^2 < c draws exercise the skipped-axis warning
        return potentials.spec_from_raw(family, {"a": -draw(st.floats(0.0, 9.0)),
                                                 "c": draw(st.floats(0.01, 20.0))})
    if family == "butterfly2d":
        return potentials.spec_from_shape(
            family, {**_axis_shapes(draw, "xy"), "u": draw(cross)})
    return potentials.spec_from_shape(
        family, {**_axis_shapes(draw, "xyz"), **{k: draw(cross) for k in "uvw"}})


def newton_stationary_reference(spec, grid, max_iter=50, dedup_tol=1e-6, orthant=False,
                                retire=True):
    """The Newton oracle as a plain loop: every found representative is
    compared with every kept one, and each kept orbit is classified by
    single-point calls.  Seeds are every grid node, or with orthant=True
    the nodes from index (n - 1) // 2 on along each axis of n nodes;
    oracle.newton_stationary must return exactly the orthant-seeded list.
    With retire=True a seed stops after its first step of at most
    eps * max|x| per coordinate, as in the oracle; with retire=False every
    live seed runs the whole iteration budget (the loop before that rule)."""
    gradient, hessian = potentials.gradient, potentials.hessian
    dim = spec.dimension
    if orthant:
        halves = [axis[(len(axis) - 1) // 2:] for axis in grid.axes(dim)]
        pts = np.stack(np.meshgrid(*halves, indexing="ij"), axis=-1).reshape(-1, dim)
    else:
        pts = grid.mesh(dim).reshape(-1, dim).copy()
    box = max(grid.axis_extent(i) for i in range(dim))
    alive = np.ones(len(pts), dtype=bool)
    moving = np.ones(len(pts), dtype=bool)
    for _ in range(max_iter):
        if not (alive & moving).any():
            break
        idx = np.flatnonzero(alive & moving)
        x = pts[idx]
        g = np.atleast_2d(gradient(spec, x))
        H = hessian(spec, x).reshape(len(x), dim, dim)
        dets = np.abs(np.linalg.det(H))
        hscale = np.maximum(np.abs(H).max(axis=(1, 2)), 1.0)
        bad = dets < 1e-12 * hscale ** dim
        if bad.any():
            H[bad] += 1e-8 * hscale[bad][:, None, None] * np.eye(dim)
        try:
            step = np.linalg.solve(H, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, g[..., None], rcond=None)[0][..., 0]
        new = x - step
        for i, before, after in zip(idx, x, new):
            if retire and max(abs(after - before)) <= np.finfo(float).eps * max(abs(before)):
                moving[i] = False
        x = new
        pts[idx] = x
        escaped = np.linalg.norm(x, axis=1) > 50.0 * box
        alive[idx[escaped]] = False

    g = np.atleast_2d(gradient(spec, pts))
    tol = 1e-12 * (1.0 + np.linalg.norm(pts, axis=1) ** 5)
    converged = alive & (np.linalg.norm(g, axis=1) < tol)
    found = pts[converged]
    if len(found) == 0:
        return []
    reps = np.abs(found)
    reps[reps < 10.0 * dedup_tol] = 0.0

    out = []
    taken = []
    order = np.lexsort(reps.T[::-1])
    for rep in reps[order]:
        if any(np.max(np.abs(rep - t)) < dedup_tol for t in taken):
            continue
        taken.append(rep)
        coords = tuple(float(c) for c in rep)
        h = np.reshape(hessian(spec, coords if dim > 1 else coords[0]), (dim, dim))
        eigs = np.linalg.eigvalsh(h)
        v = potentials.evaluate(spec, coords if dim > 1 else coords[0])
        out.append(
            StationaryPoint(
                location=coords,
                subfamily="oracle",
                value=float(v),
                hessian_eigs=tuple(float(e) for e in eigs),
                kind=classify(eigs),
                multiplicity=2 ** sum(1 for c in coords if c > 0.0),
                label="oracle",
            )
        )
    out.sort(key=lambda p: (p.value, p.location))
    return out


def match_stationary_reference(closed, oracle, tol=1e-8, max_radius=None):
    """oracle.match_stationary as nested loops: each orbit's nearest
    max-norm distance to the orbits of the other list whose kind is its
    own (any kind when either is degenerate), orbits beyond max_radius
    dropped from both lists first."""
    def keep(p):
        if max_radius is None:
            return True
        return max(abs(c) for c in p.location) <= max_radius

    closed = [p for p in closed if keep(p)]
    oracle = [p for p in oracle if keep(p)]

    def nearest(p, pool):
        best = math.inf
        for q in pool:
            if p.kind != q.kind and "degenerate" not in (p.kind, q.kind):
                continue
            d = max(abs(a - b) for a, b in zip(p.location, q.location))
            best = min(best, d)
        return best

    missing = [p for p in closed if nearest(p, oracle) > tol]
    spurious = [p for p in oracle if nearest(p, closed) > tol]
    return missing, spurious


def random_points(rng, dim, n, radius=2.0):
    return rng.uniform(-radius, radius, size=(n, dim))


def count_calls(monkeypatch, fn):
    """Replace fn by a counting wrapper in every polydot module that binds
    it (callers that imported the name see the wrapper too); returns the
    list that grows by one entry per call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "polydot" or name.startswith("polydot."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def flat_stiffness_reference(h) -> bool:
    """The stiffness test the candidate step once ran on its own: some
    h_i at or below 1e-9 times the row's largest magnitude."""
    h = np.asarray(h, dtype=float)
    return bool((h <= 1e-9 * np.abs(h).max(initial=0.0)).any())


def locate_boundary_reference(path, bracket, kind, pair,
                              gap_tol=1e-10, width_tol=1e-12):
    """catastrophe.locate_boundary as a plain bisection on the signed gap:
    both ends and 9 interior probes are evaluated, then the midpoint of the
    whole bracket is bisected until |gap| < gap_tol or the bracket is
    narrower than width_tol.  Split brackets and undefined gaps raise as in
    the library."""
    def gap(t):
        s = catastrophe._evaluate_sample(path, t)
        table = s.candidates if kind == catastrophe.QUANTUM else s.depths
        ea, eb = table.get(pair[0]), table.get(pair[1])
        if ea is None and eb is None:
            return math.nan
        if ea is None:
            return math.inf
        if eb is None:
            return -math.inf
        return ea - eb

    t_lo, t_hi = bracket
    g_lo, g_hi = gap(t_lo), gap(t_hi)
    if not (g_lo < 0.0 <= g_hi or g_hi < 0.0 <= g_lo):
        raise ValueError(f"gap does not change sign over the bracket ({g_lo:g} .. {g_hi:g})")
    probes = [g_lo] + [gap(t) for t in np.linspace(t_lo, t_hi, 11)[1:-1]] + [g_hi]
    signs = [1 if g >= 0 else -1 for g in probes if not math.isnan(g)]
    changes = sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)
    if changes > 1:
        raise SplitBracket(f"{changes} sign changes inside the bracket; rescan with more steps")
    span = path.primary_span
    for _ in range(200):
        t_mid = 0.5 * (t_lo + t_hi)
        g_mid = gap(t_mid)
        if math.isnan(g_mid):
            raise ValueError("gap undefined inside the bracket (no common wells)")
        if abs(g_mid) < gap_tol or (t_hi - t_lo) * span < width_tol:
            t_lo = t_hi = t_mid
            break
        if (g_mid < 0.0) == (g_lo < 0.0):
            t_lo, g_lo = t_mid, g_mid
        else:
            t_hi, g_hi = t_mid, g_mid
    t_star = 0.5 * (t_lo + t_hi)
    dt = max(1e-7, 10.0 * width_tol / max(span, 1e-300))
    t_plus, t_minus = min(t_star + dt, 1.0), max(t_star - dt, 0.0)
    g_plus, g_minus = gap(t_plus), gap(t_minus)
    slope = None
    if all(map(math.isfinite, (g_plus, g_minus))):
        dparam = path.primary_value(t_plus) - path.primary_value(t_minus)
        if dparam != 0.0:
            slope = (g_plus - g_minus) / dparam
    return catastrophe.CatastropheBoundary(
        kind=kind, pair=pair, location=path.primary_value(t_star),
        params=path.params_at(t_star), gap_slope=slope)


def orbit_event_reference(path, t_lo, t_hi, label, width_tol=1e-12):
    """One event of catastrophe._orbit_events as bisection on the orbit
    labels of full sample evaluations."""
    def present(t):
        return label in catastrophe._evaluate_sample(path, t).orbit_labels

    p_lo = present(t_lo)
    span = path.primary_span
    for _ in range(200):
        if (t_hi - t_lo) * span < width_tol:
            break
        t_mid = 0.5 * (t_lo + t_hi)
        if present(t_mid) == p_lo:
            t_lo = t_mid
        else:
            t_hi = t_mid
    t_star = 0.5 * (t_lo + t_hi)
    return catastrophe.OrbitEvent(
        label=label, change="appears" if not p_lo else "disappears",
        location=path.primary_value(t_star), params=path.params_at(t_star))


def scan_line_reference(path, gap_tol=1e-10, width_tol=1e-12):
    """(boundaries, events) of catastrophe.scan_line, refined by the two
    bisection references above; unrefined boundaries carry the error."""
    samples = [catastrophe._evaluate_sample(path, t)
               for t in np.linspace(0.0, 1.0, path.steps)]
    boundaries, events = [], []
    for s0, s1 in zip(samples, samples[1:]):
        if not (s0.ok and s1.ok):
            continue
        for kind, l0, l1 in ((catastrophe.QUANTUM, s0.quantum_label, s1.quantum_label),
                             (catastrophe.CLASSICAL, s0.classical_label, s1.classical_label)):
            if l0 != l1:
                try:
                    boundaries.append(locate_boundary_reference(
                        path, (s0.t, s1.t), kind, (l0, l1), gap_tol, width_tol))
                except (SplitBracket, ValueError) as err:
                    boundaries.append(catastrophe.CatastropheBoundary(
                        kind=kind, pair=(l0, l1),
                        location=path.primary_value(0.5 * (s0.t + s1.t)),
                        params={"unrefined": str(err)}))
        changed = set(s0.orbit_labels) ^ set(s1.orbit_labels)
        for label in sorted(changed):
            events.append(orbit_event_reference(path, s0.t, s1.t, label, width_tol))
    return boundaries, events


def eigensolution_dict_reference(sol):
    """reports.eigensolution_dict with every field written out by hand:
    the grid's extent and n, lists for tuples, and no states."""
    return {
        "dim": sol.dim,
        "extent": sol.grid.extent if not isinstance(sol.grid.extent, (tuple, list))
        else list(sol.grid.extent),
        "n": sol.grid.n if not isinstance(sol.grid.n, (tuple, list)) else list(sol.grid.n),
        "energies": list(sol.energies),
        "residuals": list(sol.residuals),
        "converged": sol.converged,
        "warnings": list(sol.warnings),
    }


def write_csv_reference(path, rows):
    """reports.write_csv one row at a time, with None made empty by hand."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def eigensolution_csv_rows_reference(sol, potential_values=None):
    """reports.eigensolution_csv_rows one node at a time, each cell a
    float() of one array entry."""
    k = sol.states.shape[0]
    mesh = sol.grid.mesh(sol.dim).reshape(-1, sol.dim)
    header = [f"x{i}" for i in range(sol.dim)]
    if potential_values is not None:
        header.append("V")
        vflat = np.asarray(potential_values).reshape(-1)
    header += [f"psi{i}" for i in range(k)]
    yield header
    states = [sol.states[i].reshape(-1) for i in range(k)]
    for idx in range(mesh.shape[0]):
        row = [float(c) for c in mesh[idx]]
        if potential_values is not None:
            row.append(float(vflat[idx]))
        row.extend(float(s[idx]) for s in states)
        yield row


def potential_grid_rows_reference(xs, ys, values, clip=None):
    """reports.potential_grid_rows one cell at a time."""
    yield ["y\\x"] + [float(x) for x in xs]
    for j in range(len(ys)):
        row = [float(ys[j])]
        for i in range(len(xs)):
            v = float(values[i, j])
            row.append(None if (clip is not None and v > clip) else v)
        yield row


def grid_rows_reference(spec, L, n, clip=None, plane=None):
    """The rows of the grid command, on a window built by hand: a linspace
    axis, an ij meshgrid of two of them, and for a 3D spec the slice plane
    plane = (axis index, value) inserted as a full (n, n) coordinate."""
    xs = np.linspace(-L, L, n)
    if spec.dimension == 1:
        return reports.potential_line_rows(xs, potentials.evaluate(spec, xs), clip=clip)
    planes = list(np.meshgrid(xs, xs, indexing="ij"))
    if spec.dimension == 3:
        planes.insert(plane[0], np.full((n, n), plane[1]))
    values = potentials.evaluate(spec, np.stack(planes, axis=-1))
    return reports.potential_grid_rows(xs, xs, values, clip=clip)


def fd_eigensolve_lobpcg_reference(spec_or_callable, grid, k, dim=3, maxiter=2000):
    """The 3D eigensolve on the whole grid: LOBPCG from k+3 random columns
    with the diagonal preconditioner 1/(diag H - min V + 1), tol 1e-9, and
    the residual gate of oracle.fd_eigensolve.  Returns (energies,
    residuals, converged) of the lowest k pairs."""
    H, v = oracle.hamiltonian(spec_or_callable, grid, dim)
    vmin = float(v.min())
    rng = np.random.default_rng(12345)
    X = rng.standard_normal((H.shape[0], k + 3))
    M = sp.diags(1.0 / np.maximum(H.diagonal() - vmin + 1.0, 1e-8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals, vecs = spla.lobpcg(H, X, M=M, tol=1e-9, maxiter=maxiter, largest=False)
    order = np.argsort(vals[:k])
    vals, vecs = vals[:k][order], vecs[:, :k][:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
    converged = bool(np.all(residuals <= 1e-8 * np.abs(vals) + 1e-10))
    return vals, residuals, converged


def fd_eigensolve_wholegrid_reference(spec_or_callable, grid, k, dim=2):
    """The 2D eigensolve on the whole grid: one shift-invert ARPACK call
    for k pairs with the shift 1 below min V, v0 from seed 12345, and the
    residual gate of oracle.fd_eigensolve.  Returns (energies, residuals,
    converged) of the lowest k pairs."""
    H, v = oracle.hamiltonian(spec_or_callable, grid, dim)
    rng = np.random.default_rng(12345)
    converged = True
    try:
        vals, vecs = spla.eigsh(H, k=k, sigma=float(v.min()) - 1.0, which="LM",
                                v0=rng.standard_normal(H.shape[0]), maxiter=10_000)
    except spla.ArpackNoConvergence as err:
        vals, vecs = err.eigenvalues, err.eigenvectors
        converged = False
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
    converged = converged and bool(np.all(residuals <= 1e-8 * np.abs(vals) + 1e-10))
    return vals, residuals, converged


def hamiltonian_reference(spec_or_callable, grid, dim):
    """oracle.hamiltonian as a sum of Kronecker products: per axis, the
    tridiagonal second difference between identities on the other axes,
    summed in axis order, plus diag(V)."""
    axes, dxs = grid.axes(dim), grid.spacings(dim)
    mesh = grid.mesh(dim)
    points = mesh if dim > 1 else mesh[..., 0]
    if isinstance(spec_or_callable, potentials.PotentialSpec):
        v = np.asarray(potentials.evaluate(spec_or_callable, points), dtype=float)
    else:
        v = np.asarray(spec_or_callable(points), dtype=float)
    kin = None
    for i in range(dim):
        n, dx = len(axes[i]), dxs[i]
        off = np.full(n - 1, -1.0 / dx**2)
        t = sp.diags([off, np.full(n, 2.0 / dx**2), off], [-1, 0, 1], format="csr")
        left = sp.identity(int(np.prod([len(a) for a in axes[:i]])), format="csr")
        right = sp.identity(int(np.prod([len(a) for a in axes[i + 1:]])), format="csr")
        term = sp.kron(sp.kron(left, t), right, format="csr")
        kin = term if kin is None else kin + term
    return (kin + sp.diags(v.ravel(order="C"))).tocsr(), v


def mirror_bases_reference(n):
    """Orthonormal even and odd bases, shape (n, m), of one symmetric axis
    under x -> -x, from hand-written COO index lists: the (x, -x) node
    pairs over sqrt(2), summed or differenced, and for odd n the centre
    node as a last even column."""
    h, c = n // 2, n % 2
    pairs = np.arange(h)
    rows = np.concatenate([pairs, n - 1 - pairs, np.full(c, h)])
    cols = np.concatenate([pairs, pairs, np.full(c, h)])
    r = math.sqrt(0.5)
    even = sp.csr_matrix((np.concatenate([np.full(2 * h, r), np.ones(c)]), (rows, cols)),
                         shape=(n, h + c))
    odd = sp.csr_matrix((np.concatenate([np.full(h, r), np.full(h, -r)]),
                         (rows[:2 * h], cols[:2 * h])), shape=(n, h))
    return even, odd


def mirror_projection_reference(shape, odd):
    """P of one parity sector: the Kronecker product over the axes of the
    even (odd[i] = 0) or odd (odd[i] = 1) basis of each axis."""
    P = None
    for n, o in zip(shape, odd):
        basis = mirror_bases_reference(n)[o]
        P = basis if P is None else sp.kron(P, basis, format="csr")
    return P


# the box wall as a face: nothing added to the last node's diagonal, and
# -1/h^2 from it to the node before it
FACE_WALL_REFERENCE = (0.0, -1.0)


def half_axis_reference(n, odd):
    """Nodes 0 ... m - 1 of one axis of n nodes that carry its even (odd=0)
    or odd (odd=1) mirror parity, and the face past the last of them, as
    (diagonal term, coupling to the node before) in units of 1/h^2: -1 or
    +1 on the diagonal for even n, -sqrt(2) as the coupling of the even
    parity for odd n, and the wall for the odd parity of odd n."""
    if n % 2 == 0:
        return n // 2, (1.0 if odd else -1.0, -1.0)
    return (n // 2, FACE_WALL_REFERENCE) if odd else (n // 2 + 1, (0.0, -math.sqrt(2.0)))


def stencil_reference(v, spacings, faces, fmt, shift=0.0):
    """-Laplacian + diag(v) - shift I on the node box of v from per-axis
    spacings and faces: 2/h^2 per axis on the diagonal and -1/h^2 to each
    neighbour, with the last node of axis i taking the terms of faces[i]."""
    shape = v.shape
    size = stride = v.size
    main, bands, offsets = np.zeros(shape), [], []
    for i, (m, h, (face, join)) in enumerate(zip(shape, spacings, faces)):
        stride //= m
        along = (m,) + (1,) * (len(shape) - 1 - i)
        diag = np.full(m, 2.0 / h**2)
        diag[-1] += face / h**2
        main += diag.reshape(along)
        link = np.full(m, -1.0 / h**2)
        link[-2:] = join / h**2, 0.0
        band = np.broadcast_to(link.reshape(along), shape).ravel()[:size - stride]
        bands += [band, band]
        offsets += [-stride, stride]
    return sp.diags([(main + v - shift).ravel(), *bands], [0, *offsets], format=fmt)


def unfold_reference(y, shape, odd):
    """Whole-grid columns of the half-box columns y of one parity sector
    (every axis split): per axis, the kept pairs times sqrt(1/2), the
    centre node for odd n (zero in the odd parity), then the pairs
    mirrored and times +-sqrt(1/2)."""
    y = y.reshape(*(half_axis_reference(n, o)[0] for n, o in zip(shape, odd)), -1)
    for axis, (n, o) in enumerate(zip(shape, odd)):
        y = np.moveaxis(y, axis, 0)
        pairs = math.sqrt(0.5) * y[:n // 2]
        centre = np.zeros((n % 2,) + y.shape[1:]) if o else y[n // 2:]
        y = np.moveaxis(np.concatenate([pairs, centre, (-pairs if o else pairs)[::-1]]), 0, axis)
    return y.reshape(math.prod(shape), -1)


def fd_eigensolve_arpack1d_reference(spec_or_callable, grid, k):
    """The 1D eigensolve with ARPACK's own factor: one shift-invert eigsh
    call on the whole-grid H for at most k pairs, shift 1 below min V, v0
    from seed 12345 and no OPinv; then, pair by pair, the unit
    normalization, residual gate and sign rule of oracle.fd_eigensolve.
    Returns (energies, states, residuals, converged)."""
    H, v = oracle.hamiltonian(spec_or_callable, grid, 1)
    n = H.shape[0]
    rng = np.random.default_rng(12345)
    converged = True
    try:
        vals, vecs = spla.eigsh(H, k=min(k, n - 1), sigma=float(v.min()) - 1.0, which="LM",
                                v0=rng.standard_normal(n), maxiter=10_000)
    except spla.ArpackNoConvergence as err:
        vals, vecs = err.eigenvalues, err.eigenvectors
        converged = False
    keep = np.argsort(vals)[:k]
    vals, vecs = vals[keep], vecs[:, keep]
    states, residuals = np.empty((len(vals), n)), []
    for i, e in enumerate(vals):
        vec = vecs[:, i] / np.linalg.norm(vecs[:, i])
        residuals.append(float(np.linalg.norm(H @ vec - e * vec)))
        converged = converged and residuals[-1] <= 1e-8 * abs(e) + 1e-10
        psi = vec / math.sqrt(grid.spacings(1)[0])
        states[i] = -psi if psi[np.argmax(np.abs(psi))] < 0 else psi
    return tuple(float(e) for e in vals), states, tuple(residuals), converged


def fd_eigensolve_projection_reference(spec_or_callable, grid, k, dim):
    """The 2D or 3D eigensolve of a mirror-even V on its parity sectors
    P^T H P: per sector, one shift-invert ARPACK call for at most k // 2^j
    pairs (j odd axes) with the shift 1 below min V and v0 drawn in sector
    order from seed 12345.  Returns the lowest k energies."""
    H, v = oracle.hamiltonian(spec_or_callable, grid, dim)
    shape = tuple(grid.axis_n(i) for i in range(dim))
    rng = np.random.default_rng(12345)
    found = []
    for odd in sorted(itertools.product((0, 1), repeat=dim), key=sum):
        want = k >> sum(odd)
        if want == 0:
            continue
        P = mirror_projection_reference(shape, odd)
        sector = (P.T @ H @ P).tocsc()
        m = sector.shape[0]
        vals = spla.eigsh(sector, k=min(want, m - 1), sigma=float(v.min()) - 1.0,
                          which="LM", v0=rng.standard_normal(m), maxiter=10_000,
                          return_eigenvectors=False)
        found.extend(vals.tolist())
    return np.sort(found)[:k]


def localization_distances_reference(mesh, orbits):
    """Each grid point's distance to the nearest member of each orbit, as
    oracle.localization took it from np.linalg.norm over the (N, M, D)
    stack of point-member differences."""
    return np.stack([
        np.linalg.norm(mesh[:, None, :] - members[None, :, :], axis=-1).min(axis=1)
        for _label, members in orbits
    ])


def min_orbit_distance_reference(wells):
    """oracle.min_orbit_distance as it was taken from np.linalg.norm over
    the (M_i, M_j, D) stack of member differences of each pair of orbits."""
    orbits = oracle._orbit_arrays(wells)
    best = math.inf
    for (_la, a), (_lb, b) in itertools.combinations(orbits, 2):
        best = min(best, float(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1).min()))
    return best


def with_param_reference(spec, name, value):
    """potentials.with_param with the shape algebra written out per axis:
    raw names move in raw space, cusp stems set the squared axis constant,
    and a butterfly stem sets its squared value on one axis (suffixed name)
    or on every axis, recomputing gamma^2 = alpha^2 + 2 beta^2 or, when
    gamma is set, beta^2 = (gamma^2 - alpha^2)/2."""
    value = float(value)
    if name in potentials._RAW_KEYS[spec.family]:
        raw = dict(spec.raw)
        raw[name] = value
        return potentials.spec_from_raw(spec.family, raw)

    if spec.is_cusp:
        stem_to_key = dict(zip(("alpha", "beta", "gamma"), potentials._RAW_KEYS[spec.family]))
        if name in stem_to_key:
            raw = dict(spec.raw)
            raw[stem_to_key[name]] = value * value
            return potentials.spec_from_raw(spec.family, raw)
        raise ValueError(f"unknown parameter {name!r} for {spec.family}")

    stem, _, axis = name.partition("_")
    axes = potentials.AXES[: spec.dimension]
    if stem not in ("alpha", "beta", "gamma") or axis not in ("", *axes):
        raise ValueError(f"unknown parameter {name!r} for {spec.family}")
    if spec.shape is None:
        raise NoRealShape(f"cannot vary shape parameter {name!r}: shape view undefined")
    if spec.family == "butterfly1d":
        prefixes = ("",)
    else:
        prefixes = (f"{axis}_",) if axis else tuple(f"{ax}_" for ax in axes)
    shape = dict(spec.shape)
    for prefix in prefixes:
        al_key, be_key, ga_key = (
            f"alpha_{prefix}sq", f"beta_{prefix}sq", f"gamma_{prefix}sq")
        if stem == "alpha":
            shape[al_key] = value * value
            shape[ga_key] = value * value + 2.0 * shape[be_key]
        elif stem == "beta":
            shape[be_key] = value * value
            shape[ga_key] = shape[al_key] + 2.0 * value * value
        else:
            be = 0.5 * (value * value - shape[al_key])
            if be < 0.0:
                raise NoRealShape(
                    f"gamma^2 = {value * value:g} < alpha^2 = {shape[al_key]:g}"
                )
            shape[ga_key] = value * value
            shape[be_key] = be
    return potentials.spec_from_shape(spec.family, shape)


# The shape layer as it was while make_spec and with_param completed each
# axis's (alpha^2, beta^2, gamma^2) themselves and shape_to_raw completed
# and checked it again, with an absolute floor under the consistency
# tolerance; _butterfly_pairs_reference below is the matching reference of
# potentials._pairs.

def shape_triple_reference(alpha_sq=None, beta_sq=None, gamma_sq=None):
    """Complete (alpha^2, beta^2, gamma^2) from any sufficient subset."""
    if alpha_sq is None:
        raise ValueError("shape parameters need alpha")
    if beta_sq is None and gamma_sq is None:
        raise ValueError("shape parameters need beta or gamma")
    if beta_sq is None:
        beta_sq = 0.5 * (gamma_sq - alpha_sq)
        if beta_sq < 0.0:
            raise NoRealShape(f"gamma^2 = {gamma_sq:g} < alpha^2 = {alpha_sq:g}")
    if gamma_sq is None:
        gamma_sq = alpha_sq + 2.0 * beta_sq
    elif abs(gamma_sq - (alpha_sq + 2.0 * beta_sq)) > 1e-9 * max(1.0, gamma_sq):
        raise ValueError("inconsistent shape: gamma^2 != alpha^2 + 2 beta^2")
    return float(alpha_sq), float(beta_sq), float(gamma_sq)


def axis_pair_from_shape_reference(alpha_sq, beta_sq):
    """(a, c) of a completed axis shape (exact polynomial identities)."""
    if alpha_sq <= 0.0 or beta_sq < 0.0:
        raise NoRealShape(
            f"shape requires alpha^2 > 0 and beta^2 >= 0, got ({alpha_sq:g}, {beta_sq:g})"
        )
    gamma_sq = alpha_sq + 2.0 * beta_sq
    return alpha_sq + beta_sq, alpha_sq * gamma_sq


def shape_to_raw_reference(family, shape):
    """potentials.shape_to_raw, completing each axis with
    shape_triple_reference and writing butterfly1d's signed form inline."""
    extra = sorted(shape.keys() - potentials._SHAPE_VIEW_KEYS[family])
    if extra:
        raise ValueError(f"{family} shape parameters do not include {extra}")
    if family.startswith("cusp"):
        return dict(shape)
    raw = {}
    for (ka, kb, kg), (qk, ck) in zip(potentials._SHAPE_KEYS[family],
                                      potentials._AXIS_PAIR_KEYS[family]):
        al, be, _ga = shape_triple_reference(shape.get(ka), shape.get(kb), shape.get(kg))
        a, c = axis_pair_from_shape_reference(al, be)
        if family == "butterfly1d":
            raw["a"] = -3.0 * a
            raw["c"] = 3.0 * c
        else:
            raw[qk] = a
            raw[ck] = c
    for k in potentials._CROSS_KEYS[family]:
        raw[k] = float(shape.get(k, 0.0))
    return raw


def make_spec_reference(family, **params):
    """potentials.make_spec with the shape branch completing every axis
    before shape_to_raw_reference completes it again."""
    user = {name: (*potentials._param(family, name), float(v))
            for name, v in params.items() if v is not None}
    if family.startswith("cusp"):
        return potentials.make_spec(family, **params)
    cross_keys = potentials._CROSS_KEYS[family]
    raw_given = [name for name, (key, *_rest) in user.items()
                 if key is not None and key not in cross_keys]
    shape_given = [name for name, (_key, stem, *_rest) in user.items() if stem is not None]
    if raw_given:
        return potentials.make_spec(family, **params)
    coeffs = dict.fromkeys(cross_keys, 0.0)
    coeffs.update((key, v) for key, stem, _axes, v in user.values() if stem is None)
    squares = [{} for _ in potentials._SHAPE_KEYS[family]]
    for name in sorted(shape_given, key=lambda name: name not in ("alpha", "beta", "gamma")):
        _key, stem, axes, v = user[name]
        for i in axes:
            squares[i][f"{stem}_sq"] = v * v
    for keys, given in zip(potentials._SHAPE_KEYS[family], squares):
        coeffs.update(zip(keys, shape_triple_reference(**given)))
    return potentials.spec_from_raw(family, shape_to_raw_reference(family, coeffs))


def with_param_shape_reference(spec, name, value):
    """The shape branch of potentials.with_param, completing each moved
    axis with shape_triple_reference before shape_to_raw_reference."""
    _key, stem, axes = potentials._param(spec.family, name)
    value = float(value)
    if spec.shape is None:
        raise NoRealShape(f"cannot vary shape parameter {name!r}: shape view undefined")
    v2 = value * value
    shape = dict(spec.shape)
    for i in axes:
        ka, kb, kg = potentials._SHAPE_KEYS[spec.family][i]
        al, be = shape[ka], shape[kb]
        shape[ka], shape[kb], shape[kg] = (
            shape_triple_reference(v2, be) if stem == "alpha"
            else shape_triple_reference(al, v2) if stem == "beta"
            else shape_triple_reference(al, gamma_sq=v2))
    return potentials.spec_from_raw(spec.family, shape_to_raw_reference(spec.family, shape))


def scan_grid_cells_reference(spec, vary_x, vary_y, resolution):
    """(labels_quantum, labels_classical, errors) of catastrophe.scan_grid,
    one cell at a time: the dominant quantum and classical labels of the
    spec at (x, y), or "<invalid>" twice and the error text when building
    or analysing that spec fails."""
    name_x, x_lo, x_hi = vary_x
    name_y, y_lo, y_hi = vary_y
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)
    out = [np.empty((resolution, resolution), dtype=object) for _ in range(3)]
    for i in range(resolution):
        for j in range(resolution):
            try:
                s = potentials.with_param(
                    potentials.with_param(spec, name_x, xs[i]), name_y, ys[j])
                cands = spectra.ground_candidates(s)
                cell = (spectra._lowest(cands.energies).label,
                        spectra._lowest(cands.depths).label, "")
            except (PolydotError, ValueError) as err:
                cell = (catastrophe.INVALID, catastrophe.INVALID,
                        f"{type(err).__name__}: {err}")
            for grid, entry in zip(out, cell):
                grid[i, j] = entry
    return tuple(out)


def scan_sample_reference(build, t, params):
    """One catastrophe.ScanSample from single-point calls: each orbit
    representative of the spec that build() returns gets its own evaluate,
    hessian and eigvalsh call and classify; each minimum without a
    vanishing stiffness (|h| <= 1e-9 max |h|) gets the candidate
    v0 + sum(sqrt(h_i / 2)), in (value, label) order.  A spec that cannot be
    built or analysed gives ok False and the error text, a spec without a
    candidate the NoMinimum text."""
    def failed(error, orbit_labels):
        return catastrophe.ScanSample(t, params, False, error, None, None, {}, {}, orbit_labels)

    try:
        spec = build()
        dim = spec.dimension
        points = []
        for loc, _subfamily, label in stationary._representatives(spec)[0]:
            x = loc if dim > 1 else loc[0]
            eigs = np.linalg.eigvalsh(np.reshape(potentials.hessian(spec, x), (dim, dim)))
            points.append((float(potentials.evaluate(spec, x)), label,
                           [float(e) for e in eigs], classify(eigs)))
    except (PolydotError, ValueError) as err:
        return failed(f"{type(err).__name__}: {err}", ())
    points.sort(key=lambda p: (p[0], p[1]))
    orbit_labels = tuple(sorted(label for _v, label, _e, _k in points))
    energies, depths = {}, {}
    for value, label, eigs, kind in points:
        if kind != MINIMUM or any(e <= 1e-9 * max(abs(h) for h in eigs) for e in eigs):
            continue
        energies[label] = value + sum(math.sqrt(e / 2.0) for e in eigs)
        depths[label] = value
    if not energies:
        return failed(f"NoMinimum: {spec.family} spec has no confining minimum", orbit_labels)
    return catastrophe.ScanSample(t, params, True, None, spectra._lowest(energies).label,
                                  spectra._lowest(depths).label, energies, depths,
                                  orbit_labels)


# ---------------------------------------------------------------------------
# the closed-form root algebra read from raw coefficient keys
# ---------------------------------------------------------------------------

# per family: the (quartic, quadratic) keys of each axis, and (cross key,
# i, j) of each coupled plane
_AXIS_KEYS = {"butterfly2d": (("a", "c"), ("b", "d")),
              "butterfly3d": (("a", "p"), ("b", "q"), ("c", "s"))}
_CROSS_KEYS = {"butterfly2d": (("u", 0, 1),),
               "butterfly3d": (("u", 0, 1), ("v", 0, 2), ("w", 1, 2))}
_BULK = ((0, 1, 2), "bulk")


def _off_axis_tagged_reference(family, raw, blocks=None):
    """(squares, R^2, subfamily, tag) of every root of the coupled blocks,
    by default every plane and then the 3D bulk: each block goes through
    the library's one-spec _off_axis with its axis pairs and couplings
    read key by key."""
    pairs = [(raw[quartic], raw[quad]) for quartic, quad in _AXIS_KEYS[family]]
    cross = [(i, j, raw[key]) for key, i, j in _CROSS_KEYS[family]]
    if blocks is None:
        blocks = [((i, j), f"plane_{'xyz'[i]}{'xyz'[j]}") for _key, i, j in _CROSS_KEYS[family]]
        blocks += [_BULK] if family == "butterfly3d" else []
    return stationary._off_axis(pairs, cross, blocks)


def _axis_roots_reference(spec, idx):
    if spec.is_cusp:
        return [("", float(spec.raw[potentials._RAW_KEYS[spec.family][idx]]))]
    a, c = potentials.axis_pairs(spec)[idx]
    disc = a * a - c
    if disc < 0.0:
        raise NoRealShape(
            f"axis {spec.axis_names()[idx]}: a^2 = {a * a:g} < c = {c:g}, "
            "on-axis points complex"
        )
    root = math.sqrt(disc)
    if root <= 1e-12 * max(1.0, abs(a)):
        return [("_double", a - root), ("_double", a + root)]
    return [("_inner", a - root), ("_outer", a + root)]


def orbit_members_reference(location):
    """stationary.orbit_members built one coordinate at a time: a nonzero
    coordinate stacks the rows so far with +x on top of the same rows
    with -x, a zero one appends a zero column."""
    out = np.zeros((1, 0))
    for coord in np.asarray(location, dtype=float):
        if abs(coord) > 0.0:
            out = np.concatenate([np.column_stack([out, np.full(len(out), coord)]),
                                  np.column_stack([out, np.full(len(out), -coord)])])
        else:
            out = np.column_stack([out, np.zeros(len(out))])
    return out


def _butterfly_pairs_reference(family, raw):
    """(a, c) of the on-axis quadratic t^2 - 2 a t + c of each axis, read
    by raw key; butterfly1d stores -3a and 3c."""
    if family == "butterfly1d":
        return [(-raw["a"] / 3.0, raw["c"] / 3.0)]
    return [(raw[quartic], raw[quad]) for quartic, quad in _AXIS_KEYS[family]]


def raw_to_shape_reference(family, raw):
    """potentials.raw_to_shape of a butterfly raw set with each axis solved
    inline: alpha^2 = a - s, beta^2 = s and gamma^2 = a + s with
    s = sqrt(a^2 - c), then the cross couplings by key."""
    pairs = _butterfly_pairs_reference(family, raw)
    prefixes = ("",) if family == "butterfly1d" else tuple(f"{ax}_" for ax in "xyz"[:len(pairs)])
    shape = {}
    for prefix, (a, c) in zip(prefixes, pairs):
        if a * a - c < 0.0:
            raise NoRealShape(f"a^2 = {a * a:g} < c = {c:g}: on-axis roots are complex")
        s = math.sqrt(a * a - c)
        if a - s <= 0.0:
            raise NoRealShape(f"pair (a={a:g}, c={c:g}) gives alpha^2 = {a - s:g} <= 0")
        shape.update({f"alpha_{prefix}sq": a - s, f"beta_{prefix}sq": s,
                      f"gamma_{prefix}sq": a + s})
    for key, _i, _j in _CROSS_KEYS.get(family, ()):
        shape[key] = raw[key]
    return shape


def characteristic_radius_reference(spec):
    """potentials.characteristic_radius of a butterfly spec from its raw
    keys: the root of the largest outer on-axis root a + sqrt(a^2 - c),
    where it is real, and sqrt(c) over the axes, or 1 when none is
    positive."""
    best = 0.0
    for a, c in _butterfly_pairs_reference(spec.family, spec.raw):
        if a * a - c >= 0.0:
            best = max(best, a + math.sqrt(a * a - c))
        if c > 0.0:
            best = max(best, math.sqrt(c))
    return math.sqrt(best) if best > 0.0 else 1.0


def representatives_reference(spec):
    """stationary._representatives with every coefficient read by its raw
    key: each axis re-reads the axis pairs, and every coupled block is
    built from per-axis and per-plane key tables.  The library's own
    _off_axis solves the blocks."""
    dim = spec.dimension
    reps = [((0.0,) * dim, "origin", "origin")]
    warnings = []
    for idx, axis in enumerate(spec.axis_names()):
        try:
            roots = _axis_roots_reference(spec, idx)
        except NoRealShape:
            a, c = potentials.axis_pairs(spec)[idx]
            warnings.append(
                f"axis {axis}: no real on-axis points (a^2 = {a * a:g} < c = {c:g})"
            )
            continue
        for suffix, t in dict(roots).items():
            if t <= 1e-12:
                continue
            coords = [0.0] * dim
            coords[idx] = math.sqrt(t)
            reps.append((tuple(coords), f"axis_{axis}", f"axis_{axis}{suffix}"))
    if spec.family in _AXIS_KEYS:
        for sq, _r2, subfamily, tag in _off_axis_tagged_reference(spec.family, spec.raw):
            reps.append((tuple(math.sqrt(x) for x in sq), subfamily, f"{subfamily}_{tag}"))
    return reps, warnings


def on_axis_roots_reference(spec, axis):
    names = spec.axis_names()
    if axis not in names:
        raise ValueError(f"{spec.family} has axes {names}, not {axis!r}")
    keys = ("x_sq",) if spec.is_cusp else ("x_minus_sq", "x_plus_sq")
    return dict(zip(keys, (t for _suffix, t in _axis_roots_reference(spec, names.index(axis)))))


def quadratic_aux_reference(spec):
    if spec.family != "butterfly2d":
        raise ValueError("quadratic_aux applies to butterfly2d specs")
    r = spec.raw
    a, b, c, d, u = r["a"], r["b"], r["c"], r["d"], r["u"]
    if min(abs(2.0 * a - u), abs(2.0 * b - u)) <= 1e-12 * max(abs(a), abs(b), abs(u)):
        raise stationary.DegenerateCoupling(
            f"u = {u:g} collides with a quartic diagonal (2a = {2 * a:g}, 2b = {2 * b:g})"
        )
    z = 1.0 / (2.0 * a - u) + 1.0 / (2.0 * b - u)
    w = c / (2.0 * a - u) + d / (2.0 * b - u)
    return stationary.QuadraticAux(w, z, u * z + 1.0, (u * z + 1.0) ** 2 - 4.0 * z * w)


def off_axis_roots_2d_reference(spec):
    if spec.family != "butterfly2d":
        raise ValueError("off_axis_roots_2d applies to butterfly2d specs")
    return [(*sq, r2) for sq, r2, _sub, _tag in _off_axis_tagged_reference(spec.family, spec.raw)]


def off_axis_roots_3d_reference(spec):
    if spec.family != "butterfly3d":
        raise ValueError("off_axis_roots_3d applies to butterfly3d specs")
    return [(*sq, r2, sub) for sq, r2, sub, _tag
            in _off_axis_tagged_reference(spec.family, spec.raw)]


def bulk_roots_3d_reference(spec):
    return [(*sq, r2) for sq, r2, _sub, _tag
            in _off_axis_tagged_reference("butterfly3d", spec.raw, [_BULK])]


def coefficients_reference(specs):
    """potentials._coefficients with each cross coupling placed by its raw
    key: u at (0, 1), v at (0, 2), w at (1, 2)."""
    family = specs[0].family
    if family.startswith("cusp"):
        return (np.array([[s.raw[k] for k in potentials._RAW_KEYS[family]] for s in specs]),)
    pairs = np.array([potentials.axis_pairs(s) for s in specs])
    dim = pairs.shape[1]
    U = np.zeros((len(specs), dim, dim))
    for key, (i, j) in zip(("u", "v", "w"), ((0, 1), (0, 2), (1, 2))):
        if key in specs[0].raw:
            U[:, i, j] = U[:, j, i] = [s.raw[key] for s in specs]
    return pairs[..., 0], U, pairs[..., 1]


#: the raw-key reference of each root-algebra function, by library name
ROOT_ALGEBRA_REFERENCES = {
    "_representatives": representatives_reference,
    "on_axis_roots": on_axis_roots_reference,
    "quadratic_aux": quadratic_aux_reference,
    "off_axis_roots_2d": off_axis_roots_2d_reference,
    "off_axis_roots_3d": off_axis_roots_3d_reference,
    "bulk_roots_3d": bulk_roots_3d_reference,
}

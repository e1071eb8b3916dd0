"""Independent numerical verification tools.

Three instruments, deliberately decoupled from the closed forms they check:

* :func:`newton_stationary` - damped-free Newton iteration on the gradient
  from the nodes of a coarse grid in one orthant (every family is even in
  each coordinate, so the other orthants hold only mirror copies),
  deduplicated and classified; used to diff against the closed-form
  stationary enumeration.  A seed stops after its first rounding-level
  step; the iteration budget caps only seeds that never take one.
* :func:`fd_eigensolve` - second-order central finite differences for
  -Laplacian + V with Dirichlet boundaries just outside the grid box,
  lowest-k eigenpairs via shift-invert Lanczos: on the whole grid in 1D,
  where V may be any potential, and on the 2^D mirror-parity sectors in 2D
  and 3D, where V must be even in each coordinate (every family is).  A 2D
  or 3D sector is the stencil on its own half of the box.  Every sector,
  the 1D whole grid included, is built with the shift on its diagonal and
  factored once by SuperLU as the symmetric positive definite matrix it
  is.  A 2D or 3D potential that is not mirror-even raises ValueError.
  Energies converge at O(dx^2) only while the states are negligible at the
  wall, which moves with n (see :func:`fd_eigensolve`).
* :func:`localization` - probability mass of an eigenstate inside capture
  balls around well orbits; the operational notion of "localized near".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BudgetExceeded
from .potentials import PotentialSpec, evaluate, gradient, hessian
from .stationary import DEGENERATE, StationaryPoint, classify_points, point_list

DEFAULT_BUDGET = 300_000  # grid unknowns (n^D); 64^3 fits
_ARPACK_MAXITER = 10_000
# the lowest wall potential should lie this far above the top level found
_WALL_MARGIN = 10.0
# Newton orbits closer than this (max-norm) are one orbit; an absolute length
_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on [-L, L]^D with n points per axis.

    extent and n may be scalars (shared by all axes) or per-axis tuples;
    spacing is 2L/(n-1).  The methods taking dim raise ValueError for a
    per-axis tuple of another length; n must be a whole number.
    """

    extent: float | tuple = 8.0
    n: int | tuple = 201

    def axis_extent(self, i: int) -> float:
        L = float(self.extent[i] if isinstance(self.extent, (tuple, list)) else self.extent)
        if not 0.0 < L < math.inf:
            raise ValueError(f"grid half-width must be positive and finite, got {L:g}")
        return L

    def axis_n(self, i: int) -> int:
        n = self.n[i] if isinstance(self.n, (tuple, list)) else self.n
        if not float(n).is_integer():
            raise ValueError(f"grid n must be a whole number of points, got {n!r}")
        if n < 2:
            raise ValueError(f"grid needs at least 2 points per axis, got {int(n)}")
        return int(n)

    def _axis_indices(self, dim: int) -> range:
        for name, value in (("extent", self.extent), ("n", self.n)):
            if isinstance(value, (tuple, list)) and len(value) != dim:
                raise ValueError(f"grid {name} has {len(value)} entries for {dim} axes")
        return range(dim)

    def axes(self, dim: int) -> list[np.ndarray]:
        return [
            np.linspace(-self.axis_extent(i), self.axis_extent(i), self.axis_n(i))
            for i in self._axis_indices(dim)
        ]

    def spacings(self, dim: int) -> list[float]:
        return [2.0 * self.axis_extent(i) / (self.axis_n(i) - 1) for i in self._axis_indices(dim)]

    def size(self, dim: int) -> int:
        return math.prod(self.axis_n(i) for i in self._axis_indices(dim))

    def mesh(self, dim: int) -> np.ndarray:
        """Stacked coordinates, shape (*n_per_axis, dim)."""
        grids = np.meshgrid(*self.axes(dim), indexing="ij")
        return np.stack(grids, axis=-1)


@dataclass(frozen=True)
class EigenSolution:
    grid: GridSpec
    dim: int
    energies: tuple[float, ...]
    states: np.ndarray  # (k, *n_per_axis), normalized so sum |psi|^2 dx^D = 1
    residuals: tuple[float, ...]
    converged: bool
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class LocalizationWeights:
    weights: dict
    leftover: float
    radius: float


# ---------------------------------------------------------------------------
# Newton search
# ---------------------------------------------------------------------------

def newton_stationary(
    spec: PotentialSpec,
    grid: GridSpec,
    max_iter: int = 50,
) -> list[StationaryPoint]:
    """Stationary points found by Newton iteration seeded at the grid nodes
    of one orthant.

    Each axis of n nodes is seeded from node index (n - 1) // 2 on: the
    middle node for odd n, the node at about -h/2 for even n.  Every family
    is even in each coordinate, so the gradient is odd and the Hessian even
    under each axis flip, and a seed outside that orthant follows the
    mirror path of a seed inside it; the mirror copies would only find the
    sign-orbit partners that the fold below merges anyway.  Nodes are picked
    by index, not by sign, because linspace may put the middle node a
    rounding error below zero.

    A seed stops iterating after its first rounding-level step: one that
    moves no coordinate by more than eps * max|x|, with eps the float64
    machine epsilon and x the seed before the step (at the origin, only an
    exact no-op).  max_iter caps only seeds that never take such a step.
    Seeds that fail to converge (scaled gradient norm 1e-12 * (1 + |x|^5)
    after their last step, or that wander far outside the box) are dropped;
    survivors are folded onto sign-orbit representatives, deduplicated
    greedily in lexicographic order within _DEDUP_TOL (max-norm), and
    classified by the Hessian.  The output mirrors the closed-form
    enumeration so the two lists can be diffed directly.
    """
    dim = spec.dimension
    mesh = grid.mesh(dim)
    orthant = tuple(slice((n - 1) // 2, None) for n in mesh.shape[:-1])
    pts = mesh[orthant].reshape(-1, dim).copy()
    box = max(grid.axis_extent(i) for i in range(dim))
    alive = np.ones(len(pts), dtype=bool)
    moving = np.ones(len(pts), dtype=bool)
    eps = np.finfo(float).eps

    # a seed retires after a step no larger than eps times its own largest
    # coordinate: it sits on a root to rounding, and every later step would
    # be a no-op or an ulp-sized hop in a rounding-level cycle.  The step is
    # still applied.  The rule is relative to the seed, so it has no unit.
    # Seeds that converge only linearly (degenerate roots) keep moving
    # until their steps shrink to that size or the budget runs out.
    for _ in range(max_iter):
        idx = np.flatnonzero(alive & moving)
        if len(idx) == 0:
            break
        x = pts[idx]
        g = np.atleast_2d(gradient(spec, x))
        H = hessian(spec, x).reshape(len(x), dim, dim)
        # regularize (near-)singular Hessians instead of dropping the seed
        dets = np.abs(np.linalg.det(H))
        hscale = np.maximum(np.abs(H).max(axis=(1, 2)), 1.0)
        bad = dets < 1e-12 * hscale ** dim
        if bad.any():
            H[bad] += 1e-8 * hscale[bad][:, None, None] * np.eye(dim)
        try:
            step = np.linalg.solve(H, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(H) @ g[..., None])[..., 0]
        new = x - step
        settled = np.abs(new - x).max(axis=1) <= eps * np.abs(x).max(axis=1)
        moving[idx[settled]] = False
        pts[idx] = new
        escaped = np.linalg.norm(new, axis=1) > 50.0 * box
        alive[idx[escaped]] = False

    g = np.atleast_2d(gradient(spec, pts))
    tol = 1e-12 * (1.0 + np.linalg.norm(pts, axis=1) ** 5)
    converged = alive & (np.linalg.norm(g, axis=1) < tol)
    found = pts[converged]
    if len(found) == 0:
        return []
    reps = np.abs(found)
    reps[reps < 10.0 * _DEDUP_TOL] = 0.0  # snap near-axis coordinates

    # greedy dedup in lexicographic order: the first fresh representative
    # is kept and retires every one within _DEDUP_TOL of it
    reps = reps[np.lexsort(reps.T[::-1])]
    fresh = np.ones(len(reps), dtype=bool)
    kept = []
    while fresh.any():
        i = int(np.argmax(fresh))
        kept.append(i)
        fresh[i] = False
        fresh[np.max(np.abs(reps - reps[i]), axis=1) < _DEDUP_TOL] = False

    reps = [(tuple(rep.tolist()), "oracle", "oracle") for rep in reps[kept]]
    out = point_list(reps, *classify_points([spec], [reps]))
    out.sort(key=lambda p: (p.value, p.location))
    return out


def match_stationary(
    closed: list[StationaryPoint],
    oracle: list[StationaryPoint],
    tol: float = 1e-8,
    max_radius: float | None = None,
) -> tuple[list, list]:
    """Diff two orbit lists by representative location and kind.

    Two orbits are partners when their locations lie within tol (max-norm)
    and their kinds agree, or one of them is degenerate: a degenerate
    Hessian leaves the kind to rounding noise.  Returns (missing,
    spurious): closed-form orbits with no oracle partner, and oracle orbits
    with no closed-form partner.  Orbits beyond max_radius are ignored on
    both sides.
    """

    def kept(points):
        # an empty list stands as a (0, 1) stack, which broadcasts to no distances
        locs = np.array([p.location for p in points] or np.empty((0, 1)), dtype=float)
        if max_radius is None:
            return points, locs
        inside = np.abs(locs).max(-1) <= max_radius
        return [p for p, k in zip(points, inside) if k], locs[inside]

    closed, A = kept(closed)
    oracle, B = kept(oracle)
    dist = np.abs(A[:, None] - B[None]).max(-1)
    kinds = np.array([[DEGENERATE in (p.kind, q.kind) or p.kind == q.kind for q in oracle]
                      for p in closed], dtype=bool).reshape(dist.shape)
    dist[~kinds] = np.inf
    missing = [p for p, d in zip(closed, dist.min(-1, initial=np.inf)) if d > tol]
    spurious = [p for p, d in zip(oracle, dist.min(0, initial=np.inf)) if d > tol]
    return missing, spurious


# ---------------------------------------------------------------------------
# finite-difference eigensolver
# ---------------------------------------------------------------------------

def _axis_bands(n: int, h: float, odd: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The 3-point -d^2/dx^2 bands of one axis of n nodes and spacing h:
    diag, 2/h^2 per node, and link, -1/h^2 from node j to node j + 1 and 0
    past the last.  odd=None keeps the whole axis, with nothing past its
    ends (Dirichlet just outside the box); odd=0 or 1 folds it onto its even
    or odd mirror parity, nodes 0 ... m - 1, with a face past the last.
    For even n the last node's mirror image is its neighbour, plus or minus
    the node itself: -1/h^2 or +1/h^2 on its diagonal.  For odd n the even
    parity keeps the centre node, which the node before it reaches by both
    members of its mirror pair: -sqrt(2)/h^2.  The odd parity vanishes on
    the centre, which then acts as a wall.
    """
    m, face, join = n, 0.0, -1.0
    if odd is not None and n % 2 == 0:
        m, face = n // 2, (1.0 if odd else -1.0)
    elif odd is not None:
        m, join = n // 2 + 1 - odd, (-1.0 if odd else -math.sqrt(2.0))
    diag = np.full(m, 2.0 / h**2)
    diag[-1] += face / h**2
    link = np.full(m, -1.0 / h**2)
    link[-2:] = join / h**2, 0.0
    return diag, link


def _stencil(v: np.ndarray, bands, fmt: str, shift: float = 0.0) -> sp.spmatrix:
    """-Laplacian + diag(v) - shift I as the (2D+1)-point stencil of the
    bands of :func:`_axis_bands`, on the first len(diag) nodes of each axis."""
    v = v[tuple(slice(len(diag)) for diag, _link in bands)]
    shape = v.shape
    size = stride = v.size
    main, offdiag, offsets = np.zeros(shape), [], []
    for i, (diag, link) in enumerate(bands):
        stride //= len(diag)
        along = (len(diag),) + (1,) * (len(shape) - 1 - i)  # broadcasts along axis i
        main += diag.reshape(along)
        band = np.broadcast_to(link.reshape(along), shape).ravel()[:size - stride]
        offdiag += [band, band]
        offsets += [-stride, stride]
    return sp.diags([(main + v - shift).ravel(), *offdiag], [0, *offsets], format=fmt)


def _unfold(y: np.ndarray, shape, odd) -> np.ndarray:
    """Whole-grid columns of the half-box columns y of one parity sector:
    along each axis of n nodes, the kept pairs times sqrt(1/2), then the
    centre node for odd n (zero in the odd parity), then the pairs mirrored
    and times +-sqrt(1/2).  An axis of parity None is whole already."""
    y = y.reshape(*(n if o is None else (n + 1 - o) // 2 for n, o in zip(shape, odd)), -1)
    for axis, (n, o) in enumerate(zip(shape, odd)):
        if o is None:
            continue
        y = np.moveaxis(y, axis, 0)
        pairs = math.sqrt(0.5) * y[:n // 2]
        centre = np.zeros((n % 2,) + y.shape[1:]) if o else y[n // 2:]
        y = np.moveaxis(np.concatenate([pairs, centre, (-pairs if o else pairs)[::-1]]), 0, axis)
    return y.reshape(math.prod(shape), -1)


def hamiltonian(spec_or_callable, grid: GridSpec, dim: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sparse -Laplacian + V on the grid, as the (2D+1)-point stencil:
    2/h^2 per axis on the diagonal and -1/h^2 to each neighbour along an
    axis of spacing h, with nothing across the box wall (Dirichlet just
    outside the box).  ValueError if 2/h^2 overflows a float on any axis."""
    for h in grid.spacings(dim):
        if not (h > 0.0 and 2.0 / h / h < math.inf):
            raise ValueError(f"grid spacing {h:g} is too fine: 2/h^2 overflows a float")
    mesh = grid.mesh(dim)
    points = mesh if dim > 1 else mesh[..., 0]
    v = np.asarray(spec_or_callable(points) if callable(spec_or_callable)
                   else evaluate(spec_or_callable, points), dtype=float)
    return _stencil(v, [_axis_bands(n, h) for n, h in zip(v.shape, grid.spacings(dim))], "csr"), v


def fd_eigensolve(
    spec_or_callable,
    grid: GridSpec,
    k: int = 1,
    dim: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> EigenSolution:
    """Lowest k eigenpairs of -Laplacian + V on the grid.

    Each parity sector of the operator gets one ARPACK call in
    shift-invert mode, with the shift just below min V (the operator
    spectrum is bounded below by min V, so this targets the bottom).
    Which sectors there are:

    * 1D, any V: one sector, the whole grid.
    * 2D and 3D: V must be mirror-even on every axis, as every
      PotentialSpec is (max |V - flip(V)| <= 1e-12 max |V| per axis), or
      ValueError is raised before any solve.  The operator splits into
      2^D sectors of about n^D / 2^D unknowns each.  Each is the stencil
      on its half of the box, with the mirror faces of
      :func:`_axis_bands`, and its states unfold to the whole grid by
      mirror flips.  A sector with j odd axes asks for at most k // 2^j
      pairs and is skipped when that is 0, so k = 1 solves only the
      all-even sector.

    Every shifted sector, the 1D whole grid included, H - sigma I >= I with
    sigma built into its diagonal, is factored once by SuperLU with no
    pivoting: by the minimum-degree ordering of its symmetric pattern in 2D
    and 3D, and by COLAMD, as ARPACK's own factor, for the 1D tridiagonal.

    The k limit is unknowns - 2^D pairs in 2D and 3D, and unknowns - 1 in
    1D.  A larger k raises ValueError before any solve.  Residuals are
    always taken against the whole-grid operator.  ARPACK stops after
    10000 iterations; non-converged solves are returned flagged, not
    raised.  A warning notes a wall potential less than 10 above the top
    level found.  The wall sits at +-(L + h), so it moves with n: the
    error falls as dx^2 only where the states are negligible there, and
    about linearly in dx on a tight box (fig1_cusp2d at 1.6
    characteristic radii).

    Memory: the (2D+1)-point stencil holds n^D unknowns, and each solve
    adds the LU factors of one sector at a time, whose fill grows faster
    than n^D.  With one BLAS thread and one process per solve, a k=3
    solve on cusp3d_ordered peaks at 86 MB RSS at 33^3, 179 MB at 49^3
    and 512 MB at 64^3 (within the default budget).  A k=3 solve on
    fig1_cusp2d peaks at 83 MB at 201^2, 154 MB at 401^2 and 414 MB at
    801^2 (beyond the default budget), against 123, 344 and 1336 MB for
    one whole-grid factor.  Those peaks are set in the sector stage, not
    by the 39 MB operator at 801^2 (160 MB RSS after its assembly), and
    move with glibc's adaptive mmap threshold: with
    MALLOC_MMAP_THRESHOLD_=131072 the 801^2 solve peaks at 396 MB.
    Solves beyond the budget of grid unknowns raise BudgetExceeded.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if dim is None:
        if not isinstance(spec_or_callable, PotentialSpec):
            raise ValueError("dim is required when passing a bare callable")
        dim = spec_or_callable.dimension
    size = grid.size(dim)
    for i in range(dim):
        if grid.axis_n(i) < 16:
            raise ValueError(
                f"eigensolver grids need at least 16 points per axis, got {grid.axis_n(i)}"
            )
    # ARPACK returns at most unknowns - 1 pairs of each of the 2^D sectors
    # that a 2D or 3D solve splits into; 1D has one sector
    pairs = size - (2**dim if dim > 1 else 1)
    if k > pairs:
        raise ValueError(
            f"k = {k} exceeds the {pairs} pairs a {dim}D solve on {size} unknowns returns"
        )
    if size > budget:
        raise BudgetExceeded(
            f"grid has {size} unknowns > budget {budget}; "
            f"pass budget={size} to override"
        )
    H, v = hamiltonian(spec_or_callable, grid, dim)
    if dim > 1 and not all(
            np.abs(v - np.flip(v, axis=ax)).max() <= 1e-12 * np.abs(v).max() for ax in range(dim)):
        raise ValueError(f"a {dim}D potential must be mirror-even on every axis, "
                         "V unchanged when one coordinate flips sign")
    notes = []

    # Dirichlet-wall adequacy: the boundary potential should dominate the
    # energies of interest
    boundary_min = min(
        float(np.min(np.take(v, idx, axis=ax)))
        for ax in range(dim) for idx in (0, -1)
    )
    vmin = float(v.min())

    rng = np.random.default_rng(12345)
    shape = tuple(grid.axis_n(i) for i in range(dim))
    converged = True
    found_vals, found_vecs = [], []
    # A 2D or 3D V mirror-even on every axis (to rounding) makes H block
    # diagonal in the 2^D parity sectors of the split axes; any coupling
    # left over shows in the residuals below.  Making one more axis odd
    # adds a positive semidefinite term (even n) or deletes the centre
    # line or plane (odd n), so the l-th level of a sector is at least
    # the l-th level of each sector whose odd axes are a subset of its
    # own.  With j odd axes there are 2^j such sectors, itself included,
    # so its l-th level is among the lowest k only if l <= k // 2^j.
    # 1D splits no axis: parity None.
    shift = vmin - 1.0
    parities = (0, 1) if dim > 1 else (None,)
    for odd in sorted(itertools.product(parities, repeat=dim), key=lambda o: o.count(1)):
        want = k >> odd.count(1)
        if want == 0:
            continue
        # the sector less the shift, >= I: symmetric positive definite.
        # With OPinv given, eigsh reads only its shape.
        bands = [_axis_bands(n, h, o) for n, h, o in zip(shape, grid.spacings(dim), odd)]
        sector = _stencil(v, bands, "csc", shift)
        lu = spla.splu(sector, permc_spec="MMD_AT_PLUS_A" if dim > 1 else "COLAMD",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        m = sector.shape[0]
        want = min(want, m - 1)
        try:
            vals, vecs = spla.eigsh(
                sector, k=want, sigma=shift, which="LM",
                OPinv=spla.LinearOperator(sector.shape, matvec=lu.solve, dtype=float),
                v0=rng.standard_normal(m), maxiter=_ARPACK_MAXITER,
            )
        except spla.ArpackNoConvergence as err:
            vals, vecs = err.eigenvalues, err.eigenvectors
            converged = False
            where = f" in parity sector {odd} (1 = odd axis)" if dim > 1 else ""
            notes.append(f"ARPACK stopped early{where} with {len(vals)} of {want} pairs")
        found_vals.append(vals)
        found_vecs.append(_unfold(vecs, shape, odd))
    vals = np.concatenate(found_vals)
    keep = np.argsort(vals)[:k]
    vals, vecs = vals[keep], np.hstack(found_vecs)[:, keep]

    # normalize each state to unit probability, gate its residual, and fix
    # its overall sign
    cell = float(np.prod(grid.spacings(dim)))
    residuals = []
    states = np.empty((vecs.shape[1],) + shape)
    for i, e in enumerate(vals):
        vec = vecs[:, i] / np.linalg.norm(vecs[:, i])
        r = float(np.linalg.norm(H @ vec - e * vec))
        residuals.append(r)
        if r > 1e-8 * abs(e) + 1e-10:
            converged = False
            notes.append(f"pair {i} residual {r:.2e} above tolerance")
        psi = vec.reshape(shape) / math.sqrt(cell)
        peak = np.unravel_index(np.argmax(np.abs(psi)), shape)
        states[i] = -psi if psi[peak] < 0 else psi

    e_top = float(vals.max()) if len(vals) else vmin
    if boundary_min < e_top + _WALL_MARGIN:
        notes.append(
            f"boundary potential {boundary_min:g} is within {_WALL_MARGIN:g} "
            f"of the top computed energy {e_top:g}; enlarge the box"
        )

    return EigenSolution(
        grid=grid,
        dim=dim,
        energies=tuple(float(e) for e in vals),
        states=states,
        residuals=tuple(residuals),
        converged=converged,
        warnings=tuple(notes),
    )


def richardson_ground_energies(spec_or_callable, grid: GridSpec, k: int = 1,
                               dim: int | None = None, budget: int = DEFAULT_BUDGET):
    """O(dx^2)-extrapolated energies from the grid and its refinement.

    Both solves share the box [-(L + h), L + h] of each axis, the walls of
    the coarse grid: the fine grid has 2n + 1 points on [-(L + h/2),
    L + h/2], so spacing h/2.  Combines (4 E_fine - E_coarse) / 3, which
    assumes an O(dx^2) error; also returns both raw solves.  The fine
    solve's budget, budget * 3^D, admits the fine grid of any coarse grid
    within budget.
    """
    coarse = fd_eigensolve(spec_or_callable, grid, k=k, dim=dim, budget=budget)
    axes, h = range(coarse.dim), grid.spacings(coarse.dim)
    fine_grid = GridSpec(extent=tuple(grid.axis_extent(i) + h[i] / 2.0 for i in axes),
                         n=tuple(2 * grid.axis_n(i) + 1 for i in axes))
    fine = fd_eigensolve(spec_or_callable, fine_grid, k=k, dim=coarse.dim,
                         budget=budget * 3 ** coarse.dim)
    extrapolated = tuple(
        (4.0 * ef - ec) / 3.0 for ef, ec in zip(fine.energies, coarse.energies)
    )
    return extrapolated, coarse, fine


# ---------------------------------------------------------------------------
# localization weights
# ---------------------------------------------------------------------------

def _orbit_arrays(wells):
    """(label, members) per entry.  StationaryPoint orbits expand over sign
    flips; bare coordinate tuples are taken literally as single capture
    centers (so a symmetric pair can be split into two wells)."""
    return [(w.label, w.orbit_members()) if isinstance(w, StationaryPoint)
            else (f"well{i}", np.asarray(w, float).reshape(1, -1)) for i, w in enumerate(wells)]


def min_orbit_distance(wells) -> float:
    """Smallest distance between members of distinct orbits (:func:`_orbit_distances`)."""
    orbits = _orbit_arrays(wells)
    return min((float(_orbit_distances(members, orbits[i + 1:]).min())
                for i, (_label, members) in enumerate(orbits[:-1])), default=math.inf)


def _orbit_distances(mesh: np.ndarray, orbits) -> np.ndarray:
    """(orbits, points) distances from each of the (N, D) mesh points to
    the nearest member of each orbit, one member at a time.  sqrt is
    monotone, so the root of the least squared distance is the least
    distance, bit for bit."""
    out = np.empty((len(orbits), len(mesh)))
    for row, (_label, members) in zip(out, orbits):
        row.fill(np.inf)
        for member in members:
            d = mesh - member
            np.minimum(row, (d * d).sum(-1), out=row)
    return np.sqrt(out, out=out)


def localization(
    sol: EigenSolution,
    wells,
    radius: float | None = None,
    state: int = 0,
) -> LocalizationWeights:
    """Probability weight of one eigenstate inside capture balls.

    wells may be StationaryPoint orbits or bare representative coordinates;
    the default radius is half the minimal inter-orbit distance.  Distinct
    orbits closer than 2*radius would overlap and are a usage error, and so
    is a state outside 0 .. k - 1.
    """
    if not 0 <= state < len(sol.states):
        raise ValueError(f"state must be in 0 .. {len(sol.states) - 1}, got {state}")
    if not wells:
        raise ValueError("localization needs at least one well")
    orbits = _orbit_arrays(wells)
    d = min_orbit_distance(wells)
    if radius is None:
        radius = 0.5 * (d if math.isfinite(d)
                        else 2.0 * max(sol.grid.axis_extent(i) for i in range(sol.dim)))
    if len(orbits) > 1 and d < 2.0 * radius * (1.0 - 1e-12):
        raise ValueError(
            f"capture balls of radius {radius:g} overlap between orbits; "
            "pass a smaller radius"
        )
    mesh = sol.grid.mesh(sol.dim).reshape(-1, sol.dim)
    cell = float(np.prod(sol.grid.spacings(sol.dim)))
    density = (sol.states[state].reshape(-1) ** 2) * cell
    # each grid point is counted for its nearest orbit only, so the balls
    # partition the captured mass even if they touch
    dists = _orbit_distances(mesh, orbits)
    nearest = np.argmin(dists, axis=0)
    captured = dists.min(axis=0) < radius
    weights = {label: float(density[captured & (nearest == i)].sum())
               for i, (label, _members) in enumerate(orbits)}
    return LocalizationWeights(
        weights=weights,
        leftover=float(1.0 - sum(weights.values())),
        radius=float(radius),
    )

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from polydot import oracle, potentials, reports
from polydot.errors import BudgetExceeded
from polydot.oracle import (
    GridSpec,
    fd_eigensolve,
    hamiltonian,
    localization,
    match_stationary,
    min_orbit_distance,
    newton_stationary,
    richardson_ground_energies,
)
from polydot.potentials import characteristic_radius, make_spec, spec_from_raw
from polydot.stationary import StationaryPoint, stationary_points
from polydot.verify import _oracle_grid, corpus_specs, oracle_agreement

from helpers import (
    FACE_WALL_REFERENCE,
    any_family_spec,
    count_calls,
    draw_butterfly1d,
    eigensolution_csv_rows_reference,
    eigensolution_dict_reference,
    fd_eigensolve_arpack1d_reference,
    fd_eigensolve_lobpcg_reference,
    fd_eigensolve_projection_reference,
    fd_eigensolve_wholegrid_reference,
    half_axis_reference,
    hamiltonian_reference,
    localization_distances_reference,
    match_stationary_reference,
    min_orbit_distance_reference,
    mirror_projection_reference,
    newton_stationary_reference,
    potential_grid_rows_reference,
    stencil_reference,
    unfold_reference,
    write_csv_reference,
)


# ---------------------------------------------------------------------------
# Newton search
# ---------------------------------------------------------------------------

def test_newton_recovers_cusp3d_table():
    spec = make_spec("cusp3d", alpha=1.4, beta=1.2, gamma=1.0)
    found = newton_stationary(spec, GridSpec(extent=2.1, n=13))
    assert len(found) == 4
    values = sorted(p.value for p in found)
    assert values == pytest.approx([-1.4**4, -1.2**4, -1.0, 0.0], rel=1e-10)
    kinds = {round(p.value, 6): p.kind for p in found}
    assert kinds[0.0] == "maximum"
    assert kinds[round(-1.4**4, 6)] == "minimum"
    missing, spurious = match_stationary(stationary_points(spec), found)
    assert not missing and not spurious


def test_newton_pure_quartic_bowl_single_orbit():
    spec = spec_from_raw("cusp2d", dict(alpha_sq=0.0, beta_sq=0.0))
    found = newton_stationary(spec, GridSpec(extent=1.5, n=9))
    assert len(found) == 1
    assert found[0].location == (0.0, 0.0)


def test_newton_matches_fig2_enumeration():
    spec = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-16.0 / 3.0)
    found = newton_stationary(spec, GridSpec(extent=2.9, n=21))
    closed = stationary_points(spec)
    missing, spurious = match_stationary(closed, found, 1e-8, max_radius=19.0)
    assert not missing and not spurious
    assert len(found) == len(closed) == 5
    assert sum(p.multiplicity for p in found) == 9


def shrunk_fig2(lam=1e-5):
    """fig2_butterfly2d with every stationary point moved to lam times its
    location: quartic/cross coefficients times lam^2, quadratic ones times
    lam^4."""
    raw = corpus_specs()["fig2_butterfly2d"].raw
    return spec_from_raw("butterfly2d", {
        k: v * (lam ** 4 if k in ("c", "d") else lam ** 2) for k, v in raw.items()})


def assert_matches_reference(spec):
    grid = _oracle_grid(spec)
    assert repr(newton_stationary(spec, grid)) == \
        repr(newton_stationary_reference(spec, grid, orthant=True))


def assert_agrees_with_full_grid(spec, grid=None):
    """The orthant-seeded search finds the orbits of the search seeded at
    every node.  Each orbit pairs one to one with its nearest full-grid
    orbit, of the same kind, label and multiplicity, within 1e-12
    characteristic radii.  Newton converges only linearly onto a root
    with a singular Hessian (a double root), so such an orbit ends where
    the seed's path stops it and need only agree within _DEDUP_TOL, the
    search's own resolution.  Orbits of equal value may sort either way."""
    grid = grid or _oracle_grid(spec)
    found = newton_stationary(spec, grid)
    full = newton_stationary_reference(spec, grid)
    assert len(found) == len(full)
    if not found:
        return
    dist = np.abs(np.array([p.location for p in found])[:, None]
                  - np.array([q.location for q in full])[None]).max(-1)
    nearest = dist.argmin(axis=1)
    assert sorted(nearest) == list(range(len(full)))
    tol = 1e-12 * max(1.0, characteristic_radius(spec))
    for i, p in enumerate(found):
        q = full[nearest[i]]
        assert (p.kind, p.label, p.multiplicity) == (q.kind, q.label, q.multiplicity)
        eigs = np.abs(p.hessian_eigs)
        singular = eigs.min() <= 1e-6 * eigs.max()
        assert dist[i, nearest[i]] <= (1e-6 if singular else tol)


@pytest.mark.parametrize("name", sorted(corpus_specs()))
def test_newton_matches_loop_reference_corpus(name):
    assert_matches_reference(corpus_specs()[name])


def test_newton_matches_loop_reference_small_scale():
    # the absolute tolerances break this search (64 orbits for 5); the
    # result must still be the reference's, bit for bit
    spec = shrunk_fig2()
    assert len(newton_stationary(spec, _oracle_grid(spec))) == 64
    assert_matches_reference(spec)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(any_family_spec())
def test_newton_matches_loop_reference_drawn(spec):
    assert_matches_reference(spec)


def assert_agrees_with_full_budget(spec):
    """Retiring a seed at its first rounding-level step changes no orbit
    of the loop that runs every seed the whole budget: the same count,
    and each orbit pairs one to one with its nearest full-budget orbit, of
    the same kind, label and multiplicity, within 4 eps of its largest
    coordinate."""
    grid = _oracle_grid(spec)
    found = newton_stationary(spec, grid)
    full = newton_stationary_reference(spec, grid, orthant=True, retire=False)
    assert len(found) == len(full)
    if not found:
        return
    locs = np.array([p.location for p in found])
    dist = np.abs(locs[:, None] - np.array([q.location for q in full])[None]).max(-1)
    nearest = dist.argmin(axis=1)
    assert sorted(nearest) == list(range(len(full)))
    for i, p in enumerate(found):
        q = full[nearest[i]]
        assert (p.kind, p.label, p.multiplicity) == (q.kind, q.label, q.multiplicity)
        assert dist[i, nearest[i]] <= 4 * np.finfo(float).eps * np.abs(locs[i]).max()


@pytest.mark.parametrize("name", sorted(corpus_specs()))
def test_newton_agrees_with_full_budget_corpus(name):
    assert_agrees_with_full_budget(corpus_specs()[name])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(any_family_spec())
def test_newton_agrees_with_full_budget_drawn(spec):
    assert_agrees_with_full_budget(spec)


@pytest.mark.parametrize("name", sorted(corpus_specs()))
def test_newton_orthant_agrees_with_full_grid_corpus(name):
    assert_agrees_with_full_grid(corpus_specs()[name])


def test_newton_orthant_agrees_with_full_grid_small_scale():
    assert_agrees_with_full_grid(shrunk_fig2())


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(any_family_spec())
def test_newton_orthant_agrees_with_full_grid_drawn(spec):
    assert_agrees_with_full_grid(spec)


def test_newton_even_grid_finds_the_origin_between_nodes():
    # 64 nodes: the seeds start at the node -h/2, and no node sits at 0
    spec = make_spec("butterfly1d", alpha=1.5, beta=2.0)
    grid = _oracle_grid(spec)
    assert grid.n == 64 and not np.any(grid.axes(1)[0] == 0.0)
    assert (0.0,) in [p.location for p in newton_stationary(spec, grid)]
    assert_agrees_with_full_grid(spec, grid)


def test_newton_seeds_keep_a_middle_row_just_below_zero(monkeypatch):
    # linspace puts the middle node of this grid at -1.8e-15.  Seeding by
    # the sign of a node's coordinates would drop that row and column, and
    # with them the only seeds that reach the maximum at the origin.
    grid = GridSpec(extent=12.775537577696939, n=21)
    axis = grid.axes(2)[0]
    assert -1e-14 < axis[10] < 0.0
    spec = spec_from_raw("cusp2d", dict(alpha_sq=63.75561, beta_sq=9.060552))
    calls = count_calls(monkeypatch, potentials.gradient)
    found = newton_stationary(spec, grid)
    seeds = calls[0][1]
    assert len(seeds) == 11 * 11
    for i in range(2):
        assert np.array_equal(np.unique(seeds[:, i]), axis[10:])
    assert [p.kind for p in found if p.location == (0.0, 0.0)] == ["maximum"]
    assert_agrees_with_full_grid(spec, grid)


@pytest.mark.parametrize("name, limit", [
    ("cusp3d_ordered", 30), ("fig1_cusp2d", 50), ("butterfly1d_outer", 40),
    ("butterfly2d_offaxis", 40), ("butterfly3d_ordered", 40)])
def test_newton_stops_when_no_seed_moves(monkeypatch, name, limit):
    # the full budget is 50 Newton steps plus the final residual check; the
    # butterfly grids hold seeds that end in rounding-level cycles, which
    # never reach a bitwise fixed point
    spec = corpus_specs()[name]
    calls = count_calls(monkeypatch, potentials.gradient)
    newton_stationary(spec, _oracle_grid(spec))
    assert len(calls) <= limit


def test_newton_builds_the_coefficient_arrays_once(monkeypatch):
    # every gradient and Hessian call of the search reads the arrays the
    # spec built on its first evaluation; the only other build is the one
    # batch of classify_points, which classifies the orbits found
    spec = corpus_specs()["butterfly2d_offaxis"]
    builds = count_calls(monkeypatch, potentials._coefficients)
    steps = count_calls(monkeypatch, potentials.gradient)
    hessians = count_calls(monkeypatch, potentials.hessian)
    newton_stationary(spec, _oracle_grid(spec))
    assert len(steps) > 10 and len(hessians) == len(steps) - 1
    assert [args[0] for args in builds] == [[spec], [spec]]
    newton_stationary(spec, _oracle_grid(spec))
    assert len(builds) == 3


def test_newton_step_falls_back_when_the_stacked_solve_fails(monkeypatch):
    # np.linalg.solve raises for a whole stack when one Hessian in it is
    # singular; the fallback step must take stacked Hessians as well
    spec = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-16 / 3)
    grid = GridSpec(extent=3.0, n=21)
    expected = newton_stationary(spec, grid)
    solve, raised = np.linalg.solve, []

    def solve_failing_once(*args, **kwargs):
        if not raised:
            raised.append(True)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", solve_failing_once)
    found = newton_stationary(spec, grid)
    assert raised
    assert match_stationary(expected, found) == ([], [])
    assert [p.kind for p in found] == [p.kind for p in expected]


def _orbit(location, kind="minimum"):
    return StationaryPoint(location=tuple(float(c) for c in location), subfamily="drawn",
                           value=0.0, hessian_eigs=(), kind=kind, multiplicity=1,
                           label="drawn")


def test_match_stationary_reports_a_kind_mismatch():
    minimum, saddle = _orbit((1.0, 0.5)), _orbit((1.0, 0.5), "saddle")
    assert match_stationary([minimum], [saddle]) == ([minimum], [saddle])
    degenerate = _orbit((1.0, 0.5), "degenerate")
    assert match_stationary([minimum], [degenerate]) == ([], [])
    assert match_stationary([degenerate], [saddle]) == ([], [])
    # a partner of the right kind anywhere within tol still matches
    near = _orbit((1.0, 0.5 + 1e-9))
    assert match_stationary([minimum], [saddle, near]) == ([], [saddle])


def test_match_stationary_accepts_a_degenerate_double_root():
    # the closed form calls this double root degenerate; Newton converges
    # only linearly there and classifies it by a Hessian eigenvalue of
    # rounding size (a saddle)
    a = 0.05
    spec = spec_from_raw("butterfly3d", dict(a=a, b=a, c=a, u=0.0, v=0.0, w=0.0,
                                             p=a * a, q=a * a, s=a * a))
    closed = stationary_points(spec)
    found = newton_stationary(spec, _oracle_grid(spec))
    double = [p for p in closed if p.label == "axis_x_double"]
    assert [p.kind for p in double] == ["degenerate"]
    assert match_stationary(closed, found, 1e-8) == ([], [])


@pytest.mark.parametrize("seed", range(40))
def test_match_stationary_matches_loop_reference(seed):
    # drawn orbit lists: shared locations nudged to either side of tol and
    # of drawn kinds, strays on both sides, empty pools, and a radius cut
    # through the lists.
    # Shared locations and nudges are dyadic, so a distance equal to tol and
    # an orbit on the radius occur exactly.
    rng = np.random.default_rng(seed)
    dim, tol = int(rng.integers(1, 4)), 2.0**-20
    shared = rng.integers(0, 3 * 2**10, size=(int(rng.integers(0, 6)), dim)) * 2.0**-10
    nudge = (rng.choice([0.0, 0.5, 1.0, 1.5, 3.0], size=shared.shape)
             * rng.choice([-tol, tol], size=shared.shape))

    def strays():
        return [_orbit(x) for x in rng.uniform(0.0, 3.0, size=(int(rng.integers(0, 3)), dim))]

    kinds = ("minimum", "saddle", "degenerate")

    def drawn(x):
        return _orbit(x, kinds[int(rng.integers(3))])

    closed = [drawn(x) for x in shared] + strays()
    found = [drawn(x) for x in shared + nudge] + strays()
    found = [found[i] for i in rng.permutation(len(found))]
    radius = [None, float(rng.uniform(0.5, 3.0))][int(rng.integers(2))]
    if closed and rng.random() < 0.5:
        radius = max(closed[int(rng.integers(len(closed)))].location)
    for pair in ((closed, found), (closed, []), ([], found), ([], [])):
        got = match_stationary(*pair, tol, radius)
        want = match_stationary_reference(*pair, tol, radius)
        assert [[id(p) for p in side] for side in got] == \
            [[id(p) for p in side] for side in want]


# ---------------------------------------------------------------------------
# finite-difference eigensolver
# ---------------------------------------------------------------------------

def test_fd_harmonic_levels():
    sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=10.0, n=2001), k=3, dim=1)
    assert sol.converged
    assert sol.energies == pytest.approx([1.0, 3.0, 5.0], abs=1e-3)
    for e, r in zip(sol.energies, sol.residuals):
        assert r < 1e-8 * abs(e) + 1e-10


def test_fd_quartic_ground_energy():
    extrapolated, coarse, fine = richardson_ground_energies(
        lambda x: x**4, GridSpec(extent=8.0, n=2001), k=1, dim=1)
    assert abs(fine.energies[0] - coarse.energies[0]) < 1e-3
    assert extrapolated[0] == pytest.approx(1.0604, abs=1e-3)


def test_richardson_keeps_the_dirichlet_wall_on_a_tight_box():
    # fig1_cusp2d on the 1.6R box: solves with the wall held at +-(L + h)
    # on 247 and 495 points per axis extrapolate to -0.456681.  A fine grid
    # of 2n - 1 points on the same extent moved the wall to +-(L + h/2) and
    # gave -0.437854.
    spec = corpus_specs()["fig1_cusp2d"]
    grid = replace(_oracle_grid(spec), n=61)
    extrapolated, coarse, fine = richardson_ground_energies(spec, grid, k=1)
    h = grid.spacings(2)[0]
    assert fine.grid.n == (123, 123)
    assert fine.grid.axis_extent(0) + fine.grid.spacings(2)[0] == pytest.approx(
        grid.extent + h, rel=1e-15)
    assert extrapolated[0] == pytest.approx(-0.456681, abs=1e-4)


def test_richardson_fine_solve_fits_any_coarse_grid_within_budget():
    # 16^3 coarse points at a budget of exactly 16^3: the fine grid has
    # 33^3 = 35937 > 8 * 16^3 points
    spec = make_spec("cusp3d", alpha=1.4, beta=1.2, gamma=1.0)
    _e, _coarse, fine = richardson_ground_energies(spec, GridSpec(extent=3.0, n=16), k=1,
                                                   budget=16 ** 3)
    assert fine.grid.n == (33, 33, 33)
    assert fine.converged


def test_fd_convergence_is_second_order():
    errs = []
    for n in (250, 500, 1000):
        sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=10.0, n=n), k=1, dim=1)
        errs.append(abs(sol.energies[0] - 1.0))
    for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
        assert 4.0 * 0.8 < ratio < 4.0 * 1.2


def test_fd_states_normalized_and_even():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    sol = fd_eigensolve(spec, GridSpec(extent=4.0, n=121), k=2)
    cell = np.prod(sol.grid.spacings(2))
    for i in range(2):
        psi = sol.states[i]
        assert np.sum(psi**2) * cell == pytest.approx(1.0, rel=1e-10)
        for axis in (0, 1):
            assert np.max(np.abs(np.abs(psi) - np.abs(np.flip(psi, axis=axis)))) < 1e-8


def test_fd_energies_ascending_with_degeneracy_tolerance():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    sol = fd_eigensolve(spec, GridSpec(extent=4.0, n=121), k=4)
    for e0, e1 in zip(sol.energies, sol.energies[1:]):
        assert e1 >= e0 - 1e-9


def test_fd_budget_refusal():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    with pytest.raises(BudgetExceeded, match="budget"):
        fd_eigensolve(spec, GridSpec(extent=5.0, n=701), k=1, budget=100_000)


def test_fd_boundary_adequacy_warning():
    sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=2.0, n=64), k=3, dim=1)
    assert any("boundary" in w for w in sol.warnings)


def test_fd_dirichlet_variational_bound_above_quadratic_model():
    # V = x^2 + x^4/2 dominates its local quadratic model x^2 everywhere,
    # so the computed ground energy must sit above the model's exact 1.0
    vals = fd_eigensolve(lambda x: x**2 + 0.5 * x**4,
                         GridSpec(extent=8.0, n=1501), k=1, dim=1)
    assert vals.energies[0] > 1.0


def test_fd_3d_small_grid():
    sol = fd_eigensolve(lambda m: (m**2).sum(axis=-1),
                        GridSpec(extent=6.0, n=33), k=1, dim=3)
    assert sol.energies[0] == pytest.approx(3.0, abs=0.05)


# ---------------------------------------------------------------------------
# 3D eigensolve: parity sectors against the whole-grid LOBPCG reference
# ---------------------------------------------------------------------------

SEPARABLE_AXES = (lambda x: x**2, lambda x: 1.7 * x**2 + 0.2 * x**4, lambda x: 2.3 * x**2)


def separable(axis_fns):
    return lambda mesh: sum(fn(mesh[..., i]) for i, fn in enumerate(axis_fns))


def stencil_levels(axis_fns, grid, k):
    """Lowest k sums of the per-axis tridiagonal stencil levels."""
    sums = np.zeros(1)
    for i, fn in enumerate(axis_fns):
        x, dx = grid.axes(len(axis_fns))[i], grid.spacings(len(axis_fns))[i]
        levels = eigh_tridiagonal(2.0 / dx**2 + fn(x), np.full(len(x) - 1, -1.0 / dx**2),
                                  eigvals_only=True, select="i", select_range=(0, k - 1))
        sums = (sums[:, None] + levels[None, :]).ravel()
    return np.sort(sums)[:k]


def count_solver_calls(monkeypatch):
    calls = {"eigsh": 0, "lobpcg": 0}
    for name in calls:
        def wrapper(*args, _name=name, _fn=getattr(spla, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(spla, name, wrapper)
    return calls


def within_gate(energies, residuals):
    return all(r <= 1e-8 * abs(e) + 1e-10 for e, r in zip(energies, residuals))


def assert_matches_lobpcg_reference(spec_or_callable, grid, k, dim=None):
    sol = fd_eigensolve(spec_or_callable, grid, k=k, dim=dim)
    energies, residuals, converged = fd_eigensolve_lobpcg_reference(spec_or_callable, grid, k)
    assert sol.energies == pytest.approx(energies, rel=1e-10, abs=0.0)
    assert sol.converged == converged
    assert within_gate(sol.energies, sol.residuals)
    assert within_gate(energies, residuals)


def test_fd3d_matches_lobpcg_reference_cusp3d_ordered():
    assert_matches_lobpcg_reference(corpus_specs()["cusp3d_ordered"],
                                    GridSpec(extent=2.4, n=19), 2)


def test_fd3d_matches_lobpcg_reference_separable():
    assert_matches_lobpcg_reference(separable(SEPARABLE_AXES),
                                    GridSpec(extent=(5.0, 4.5, 4.0), n=17), 2, dim=3)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(any_family_spec(families=("cusp3d", "butterfly3d")))
def test_fd3d_matches_lobpcg_reference_drawn(spec):
    grid = GridSpec(extent=1.6 * characteristic_radius(spec), n=17)
    assert_matches_lobpcg_reference(spec, grid, 2)


@pytest.mark.parametrize("k", [4, 7])
def test_fd3d_isotropic_harmonic_keeps_degenerate_copies(k):
    # levels 1 + 3 + 3: the last three are one axis excited twice, all
    # three in the all-even sector
    grid = GridSpec(extent=6.0, n=21)
    sol = fd_eigensolve(lambda m: (m**2).sum(axis=-1), grid, k=k, dim=3)
    assert sol.converged
    assert sol.energies == pytest.approx(
        stencil_levels([lambda x: x**2] * 3, grid, k), rel=1e-10, abs=0.0)


def test_fd3d_ground_state_solves_only_the_all_even_sector(monkeypatch):
    grid = GridSpec(extent=6.0, n=21)
    calls = count_solver_calls(monkeypatch)
    sol = fd_eigensolve(lambda m: (m**2).sum(axis=-1), grid, k=1, dim=3)
    assert calls == {"eigsh": 1, "lobpcg": 0}
    assert sol.energies == pytest.approx(
        stencil_levels([lambda x: x**2] * 3, grid, 1), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("dim, grid", [
    (2, GridSpec(extent=(5.0, 4.5), n=33)),
    (3, GridSpec(extent=(5.0, 4.5, 4.0), n=17)),
], ids=["2d", "3d"])
def test_fd_non_even_callable_is_refused_before_any_factor(monkeypatch, dim, grid):
    # x^2 + 0.5 x is not even in x: a 2D or 3D potential must be
    # mirror-even on every axis, so it is refused before any splu or eigsh
    axis_fns = (lambda x: x**2 + 0.5 * x, lambda x: 1.7 * x**2, lambda x: 2.3 * x**2)[:dim]
    calls = []
    for name in ("splu", "eigsh"):
        monkeypatch.setattr(spla, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    with pytest.raises(ValueError, match="mirror-even"):
        fd_eigensolve(separable(axis_fns), grid, k=2, dim=dim)
    assert calls == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(any_family_spec(families=("cusp2d", "cusp3d", "butterfly2d", "butterfly3d")),
       st.floats(1.6, 2.4), st.integers(-13, 13), st.data())
def test_spec_potentials_pass_the_mirror_check_on_any_box(spec, box, scale, data):
    # the 1.6R to 2.4R box scaled by 2^scale, with odd and even n: a spec
    # stays mirror-even to rounding, ten times inside the eigensolver's
    # 1e-12 limit, so no spec reaches its ValueError.  V is taken as
    # hamiltonian takes it, without the stencil: 2/h^2 overflows on the
    # box of a spec with a subnormal coefficient
    dim = spec.dimension
    n = data.draw(st.tuples(*[st.integers(16, 41 if dim == 2 else 21)] * dim))
    grid = GridSpec(extent=box * characteristic_radius(spec) * 2.0**scale, n=n)
    v = potentials.evaluate(spec, grid.mesh(dim))
    for axis in range(dim):
        assert np.abs(v - np.flip(v, axis=axis)).max() <= 1e-13 * np.abs(v).max()


# ---------------------------------------------------------------------------
# 2D eigensolve: parity sectors against the whole-grid eigsh reference
# ---------------------------------------------------------------------------

def assert_matches_wholegrid_reference(spec_or_callable, grid, k, dim=None):
    sol = fd_eigensolve(spec_or_callable, grid, k=k, dim=dim)
    energies, residuals, converged = fd_eigensolve_wholegrid_reference(spec_or_callable, grid, k)
    assert sol.energies == pytest.approx(energies, rel=1e-10, abs=0.0)
    assert sol.converged == converged
    assert within_gate(sol.energies, sol.residuals)


@pytest.mark.parametrize("name", ["fig1_cusp2d", "fig2_butterfly2d"])
def test_fd2d_matches_wholegrid_reference_corpus(name):
    spec = corpus_specs()[name]
    assert_matches_wholegrid_reference(
        spec, GridSpec(extent=1.6 * characteristic_radius(spec), n=61), 4)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(any_family_spec(families=("cusp2d", "butterfly2d")))
def test_fd2d_matches_wholegrid_reference_drawn(spec):
    grid = GridSpec(extent=1.6 * characteristic_radius(spec), n=40)
    assert_matches_wholegrid_reference(spec, grid, 3)


@pytest.mark.parametrize("k", [3, 6])
def test_fd2d_isotropic_harmonic_keeps_degenerate_copies(k):
    # levels 1 + 2 + 3: the second and third lie in the two sectors with
    # one odd axis, the last three in the all-even and all-odd sectors
    grid = GridSpec(extent=6.0, n=41)
    sol = fd_eigensolve(lambda m: (m**2).sum(axis=-1), grid, k=k, dim=2)
    assert sol.converged
    assert sol.energies == pytest.approx(
        stencil_levels([lambda x: x**2] * 2, grid, k), rel=1e-10, abs=0.0)


def test_fd2d_ground_state_solves_only_the_all_even_sector(monkeypatch):
    # 41 nodes per axis: 20 mirror pairs and the centre node are even
    grid = GridSpec(extent=6.0, n=41)
    calls = count_solver_calls(monkeypatch)
    shapes, eigsh = [], spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda A, **kw: shapes.append(A.shape) or eigsh(A, **kw))
    sol = fd_eigensolve(lambda m: (m**2).sum(axis=-1), grid, k=1, dim=2)
    assert calls == {"eigsh": 1, "lobpcg": 0}
    assert shapes == [(21 * 21, 21 * 21)]
    assert sol.energies == pytest.approx(
        stencil_levels([lambda x: x**2] * 2, grid, 1), rel=1e-10, abs=0.0)


def test_fd3d_states_normalized_and_even(monkeypatch):
    spec = corpus_specs()["cusp3d_ordered"]
    calls = count_solver_calls(monkeypatch)
    sol = fd_eigensolve(spec, GridSpec(extent=2.4, n=19), k=2)
    # the all-even sector and the three with one odd axis; the other four
    # lie above the second level
    assert calls == {"eigsh": 4, "lobpcg": 0}
    cell = np.prod(sol.grid.spacings(3))
    for psi in sol.states:
        assert np.sum(psi**2) * cell == pytest.approx(1.0, rel=1e-10)
        for axis in (0, 1, 2):
            assert np.max(np.abs(np.abs(psi) - np.abs(np.flip(psi, axis=axis)))) < 1e-8


# ---------------------------------------------------------------------------
# failure reports: a solver that stops early or returns loose pairs
# ---------------------------------------------------------------------------

def test_fd_reports_arpack_stopping_early(monkeypatch):
    # ARPACK gives up with all but the last of the pairs it was asked for
    eigsh = spla.eigsh

    def stopped(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        raise spla.ArpackNoConvergence("no convergence", vals[:-1], vecs[:, :-1])

    monkeypatch.setattr(spla, "eigsh", stopped)
    sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=10.0, n=401), k=3, dim=1)
    assert not sol.converged
    assert sol.warnings == ("ARPACK stopped early with 2 of 3 pairs",)
    assert sol.energies == pytest.approx([1.0, 3.0], abs=1e-3)
    # in 2D the two sectors with one odd axis, asked for one pair each,
    # return none at all
    sol = fd_eigensolve(make_spec("cusp2d", alpha=1.4, beta=1.0),
                        GridSpec(extent=4.0, n=41), k=2)
    assert not sol.converged
    assert sol.warnings[:3] == tuple(
        f"ARPACK stopped early in parity sector {odd} (1 = odd axis) with {got} of {want} pairs"
        for odd, got, want in (((0, 0), 1, 2), ((0, 1), 0, 1), ((1, 0), 0, 1)))
    assert len(sol.energies) == 1 and sol.states.shape == (1, 41, 41)


def test_fd_reports_a_pair_above_the_residual_gate(monkeypatch):
    # every returned eigenvalue is off by 1e-3: each pair's residual is 1e-3
    eigsh = spla.eigsh

    def loose(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals + 1e-3, vecs

    monkeypatch.setattr(spla, "eigsh", loose)
    sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=10.0, n=401), k=2, dim=1)
    assert not sol.converged
    assert sol.warnings == ("pair 0 residual 1.00e-03 above tolerance",
                            "pair 1 residual 1.00e-03 above tolerance")
    assert sol.residuals == pytest.approx([1e-3, 1e-3], rel=1e-6)


# ---------------------------------------------------------------------------
# parity sectors: pairs asked of each sector, and the SPD sector factor
# ---------------------------------------------------------------------------

def named_spec(name):
    """A corpus spec, or "x_y_symmetric": a butterfly2d whose x and y axes
    are alike, so that its two sectors with one odd axis tie."""
    if name == "x_y_symmetric":
        return make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-1.0)
    return corpus_specs()[name]


@pytest.mark.parametrize("name, n, k, asked", [
    ("fig1_cusp2d", 41, 4, [4, 2, 2, 1]),
    ("fig2_butterfly2d", 41, 4, [4, 2, 2, 1]),
    ("x_y_symmetric", 41, 4, [4, 2, 2, 1]),
    ("cusp3d_ordered", 19, 2, [2, 1, 1, 1]),
])
def test_fd_sector_with_j_odd_axes_is_asked_k_over_2_to_the_j_pairs(monkeypatch, name, n, k,
                                                                    asked):
    spec = named_spec(name)
    asks, eigsh = [], spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda A, **kw: asks.append(kw["k"]) or eigsh(A, **kw))
    fd_eigensolve(spec, GridSpec(extent=1.6 * characteristic_radius(spec), n=n), k=k)
    assert asks == asked


def assert_every_k_keeps_the_reference_levels(spec, grid, reference, top=6):
    """fd_eigensolve for k = 1 .. top returns the lowest k of the top
    levels of one reference solve, converged and within the gate."""
    energies, residuals, converged = reference(spec, grid, top)
    assert converged
    for k in range(1, top + 1):
        sol = fd_eigensolve(spec, grid, k=k)
        assert sol.energies == pytest.approx(energies[:k], rel=1e-10, abs=0.0)
        assert sol.converged
        assert within_gate(sol.energies, sol.residuals)


@pytest.mark.parametrize("name", ["fig1_cusp2d", "fig2_butterfly2d", "x_y_symmetric"])
def test_fd2d_pair_bound_keeps_the_wholegrid_levels(name):
    spec = named_spec(name)
    assert_every_k_keeps_the_reference_levels(
        spec, GridSpec(extent=1.6 * characteristic_radius(spec), n=41),
        fd_eigensolve_wholegrid_reference)


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(any_family_spec(families=("cusp2d", "butterfly2d")))
def test_fd2d_pair_bound_keeps_the_wholegrid_levels_drawn(spec):
    assert_every_k_keeps_the_reference_levels(
        spec, GridSpec(extent=1.6 * characteristic_radius(spec), n=33),
        fd_eigensolve_wholegrid_reference)


def test_fd3d_pair_bound_keeps_the_lobpcg_levels():
    assert_every_k_keeps_the_reference_levels(
        corpus_specs()["cusp3d_ordered"], GridSpec(extent=2.4, n=17),
        fd_eigensolve_lobpcg_reference)


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(any_family_spec(families=("cusp3d", "butterfly3d")))
def test_fd3d_pair_bound_keeps_the_wholegrid_levels_drawn(spec):
    # whole-grid shift-invert, not LOBPCG: the LOBPCG call can miss its own
    # residual gate on drawn specs
    assert_every_k_keeps_the_reference_levels(
        spec, GridSpec(extent=1.6 * characteristic_radius(spec), n=16),
        lambda s, g, k: fd_eigensolve_wholegrid_reference(s, g, k, dim=3))


@pytest.mark.parametrize("dim, grid, k", [
    (2, GridSpec(extent=(6.0, 5.0), n=(81, 71)), 4),
    (3, GridSpec(extent=(5.0, 4.5, 4.0), n=17), 2),
])
def test_fd_sector_factor_matches_separable_stencil_levels(dim, grid, k):
    axis_fns = SEPARABLE_AXES[:dim]
    sol = fd_eigensolve(separable(axis_fns), grid, k=k, dim=dim)
    assert sol.converged
    assert sol.energies == pytest.approx(stencil_levels(axis_fns, grid, k), rel=1e-13, abs=0.0)


def test_fd_rejects_more_pairs_than_the_solver_returns(monkeypatch):
    # one sector returns at most unknowns - 1 pairs, the 2^D parity
    # sectors of a 2D or 3D solve at most unknowns - 2^D; more is refused
    # up front
    calls = count_solver_calls(monkeypatch)
    spec = make_spec("butterfly1d", alpha=1.0, beta=1.0)
    grid = GridSpec(extent=3.0, n=16)
    with pytest.raises(ValueError, match="k = 16 .* 15"):
        fd_eigensolve(spec, grid, k=16)
    assert calls == {"eigsh": 0, "lobpcg": 0}
    assert len(fd_eigensolve(spec, grid, k=15).energies) == 15
    for k in (16**2 - 3, 16**2):
        with pytest.raises(ValueError, match=f"k = {k} .* {16**2 - 4}"):
            fd_eigensolve(corpus_specs()["fig1_cusp2d"], grid, k=k)
    for k in (16**3 - 7, 16**3):
        with pytest.raises(ValueError, match=f"k = {k} .* {16**3 - 8}"):
            fd_eigensolve(corpus_specs()["cusp3d_ordered"], grid, k=k)
    assert calls == {"eigsh": 1, "lobpcg": 0}


# ---------------------------------------------------------------------------
# operators: the stencil and the mirror bases against Kronecker references
# ---------------------------------------------------------------------------

def assert_same_sparse(got, want, fmt="csr"):
    """Bitwise equal sparse arrays of format fmt: shape, and the dtype and
    bytes of indptr, indices and data."""
    assert got.format == want.format == fmt
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("name, grid", [
    ("butterfly1d_outer", GridSpec(extent=3.0, n=2001)),
    ("butterfly1d_outer", GridSpec(extent=(3.0,), n=(16,))),
    ("fig1_cusp2d", GridSpec(extent=2.6, n=91)),
    ("fig1_cusp2d", GridSpec(extent=2.6, n=40)),
    ("fig2_butterfly2d", GridSpec(extent=(2.5, 3.0), n=(81, 71))),
    ("cusp3d_ordered", GridSpec(extent=2.4, n=19)),
    ("cusp3d_ordered", GridSpec(extent=(2.4, 2.0, 1.8), n=(19, 21, 17))),
    ("butterfly3d_ordered", GridSpec(extent=2.0, n=(16, 18, 17))),
], ids=lambda x: x if isinstance(x, str) else None)
def test_hamiltonian_matches_kronecker_reference_spec(name, grid):
    spec = corpus_specs()[name]
    H, v = hamiltonian(spec, grid, spec.dimension)
    H_ref, v_ref = hamiltonian_reference(spec, grid, spec.dimension)
    assert_same_sparse(H, H_ref)
    assert v.tobytes() == v_ref.tobytes()


def tilted_bowl(mesh):
    """Not mirror-even on the first axis."""
    return (mesh**2).sum(axis=-1) + 0.5 * mesh[..., 0]


@pytest.mark.parametrize("fn, dim, grid", [
    (lambda x: x**2 + 0.5 * x, 1, GridSpec(extent=4.0, n=33)),
    # V = -2/h^2 at x = 1 cancels the diagonal there: both drop the zero
    (lambda x: np.where(x == 1.0, -2.0, x**2), 1, GridSpec(extent=4.0, n=9)),
    (tilted_bowl, 2, GridSpec(extent=(5.0, 4.5), n=(16, 17))),
    (tilted_bowl, 2, GridSpec(extent=3.0, n=24)),
    (tilted_bowl, 3, GridSpec(extent=(5.0, 4.5, 4.0), n=(17, 16, 18))),
    (tilted_bowl, 3, GridSpec(extent=4.0, n=21)),
])
def test_hamiltonian_matches_kronecker_reference_callable(fn, dim, grid):
    H, v = hamiltonian(fn, grid, dim)
    H_ref, v_ref = hamiltonian_reference(fn, grid, dim)
    assert_same_sparse(H, H_ref)
    assert v.tobytes() == v_ref.tobytes()


def mirror_even_potential(rng, shape):
    """Random values on a node box, exactly even under every axis flip."""
    v = rng.uniform(-2.0, 2.0, shape)
    for axis in range(len(shape)):
        v = v + np.flip(v, axis)
    return v


PROJECTION_GRIDS = [
    (GridSpec(extent=2.0, n=16), 2),
    (GridSpec(extent=2.0, n=17), 2),
    (GridSpec(extent=(2.5, 3.0), n=(16, 19)), 2),
    (GridSpec(extent=(2.5, 3.0), n=(21, 18)), 2),
    (GridSpec(extent=1.5, n=10), 3),
    (GridSpec(extent=1.5, n=9), 3),
    (GridSpec(extent=(2.4, 2.0, 1.8), n=(9, 12, 11)), 3),
]


@pytest.mark.parametrize("grid, dim", PROJECTION_GRIDS,
                         ids=lambda x: str(x.n) if isinstance(x, GridSpec) else None)
def test_half_box_sectors_match_projection_reference(grid, dim):
    # each parity sector is the stencil on its half box: P^T H P to
    # rounding, entry for entry, and its vectors unfold to P y
    rng = np.random.default_rng(dim)
    shape = tuple(grid.axis_n(i) for i in range(dim))
    v = mirror_even_potential(rng, shape)
    H = hamiltonian(lambda _mesh: v, grid, dim)[0]
    tol = 4.0 * np.finfo(float).eps
    for odd in itertools.product((0, 1), repeat=dim):
        P = mirror_projection_reference(shape, odd)
        bands = [oracle._axis_bands(n, h, o) for n, h, o in zip(shape, grid.spacings(dim), odd)]
        sector = oracle._stencil(v, bands, "csc")
        got, want = sector.toarray(), (P.T @ H @ P).toarray()
        assert np.all(np.abs(got - want) <= tol * np.abs(want)), odd
        y = rng.standard_normal((sector.shape[0], 3))
        unfolded, want = oracle._unfold(y, shape, odd), P @ y
        assert np.all(np.abs(unfolded - want) <= tol * np.abs(want)), odd


@pytest.mark.parametrize("grid, dim, parities", [
    *((grid, dim, (0, 1)) for grid, dim in PROJECTION_GRIDS),
    # whole grids, even and odd n: no axis is split
    (GridSpec(extent=3.0, n=40), 1, (None,)),
    (GridSpec(extent=3.0, n=41), 1, (None,)),
    (GridSpec(extent=(2.5, 3.0), n=(16, 18)), 2, (None,)),
    (GridSpec(extent=(2.5, 3.0), n=(17, 19)), 2, (None,)),
], ids=lambda x: str(x.n) if isinstance(x, GridSpec) else None)
def test_axis_bands_sectors_match_face_references(grid, dim, parities):
    # every sector and its unfold, bit for bit, as built from a face per
    # axis: the mirror face of a split axis, the box wall on a whole one,
    # whose unfold is the identity
    rng = np.random.default_rng(dim)
    shape = tuple(grid.axis_n(i) for i in range(dim))
    v = mirror_even_potential(rng, shape) if 0 in parities else rng.uniform(-2.0, 2.0, shape)
    spacings = grid.spacings(dim)
    for odd in itertools.product(parities, repeat=dim):
        bands = [oracle._axis_bands(n, h, o) for n, h, o in zip(shape, spacings, odd)]
        halves = [(n, FACE_WALL_REFERENCE) if o is None else half_axis_reference(n, o)
                  for n, o in zip(shape, odd)]
        box = tuple(slice(m) for m, _face in halves)
        faces = [face for _m, face in halves]
        for fmt, shift in (("csr", 0.0), ("csc", float(v.min()) - 1.0)):
            assert_same_sparse(oracle._stencil(v, bands, fmt, shift),
                               stencil_reference(v[box], spacings, faces, fmt, shift), fmt)
        y = rng.standard_normal((v[box].size, 3))
        got = oracle._unfold(y, shape, odd)
        want = y if None in odd else unfold_reference(y, shape, odd)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), odd


def arpack1d_problems():
    """(potential, grid, k) of the verify suite's four 1D solves, then 44
    drawn ones: polynomial callables and butterfly1d specs in turn, n from
    16 to 4001 with even and odd n in turn, and k from 1 to 5."""
    problems = [(lambda x: x ** 2, GridSpec(extent=10.0, n=2001), 3)]
    problems += [(lambda x: x ** 2, GridSpec(extent=10.0, n=n), 1) for n in (250, 500, 1000)]
    rng = np.random.default_rng(24)
    for i in range(44):
        n = (16, 4001)[i] if i < 2 else 2 * int(rng.integers(8, 2001)) + i // 2 % 2
        k = int(rng.integers(1, 6))
        if i % 2:
            spec = draw_butterfly1d(rng)
            problems.append((spec, GridSpec(extent=1.6 * characteristic_radius(spec), n=n), k))
        else:
            c = rng.uniform((0.0, 0.0, -3.0, -1.0), (1.0, 1.0, 3.0, 1.0))
            problems.append((lambda x, c=c: c[0] * x**4 + c[1] * np.abs(x)**3 + c[2] * x**2
                             + c[3] * x, GridSpec(extent=rng.uniform(2.0, 6.0), n=n), k))
    return problems


ARPACK1D_PROBLEMS = arpack1d_problems()


@pytest.mark.parametrize("index", range(len(ARPACK1D_PROBLEMS)))
def test_fd1d_superlu_factor_matches_arpack_factor(index):
    # the 1D whole grid factored by SuperLU gives the energies, states and
    # residuals of the factor ARPACK builds itself, bit for bit
    potential, grid, k = ARPACK1D_PROBLEMS[index]
    sol = fd_eigensolve(potential, grid, k=k, dim=1)
    energies, states, residuals, converged = fd_eigensolve_arpack1d_reference(potential, grid, k)
    assert sol.energies == energies
    assert sol.states.tobytes() == states.tobytes()
    assert sol.residuals == residuals
    assert sol.converged == converged


SECTOR_PROBLEMS = {
    # the 2D and 3D eigensolves of the oracle benchmark workload
    "fig1_cusp2d_91": lambda: (corpus_specs()["fig1_cusp2d"], GridSpec(extent=2.6, n=91), 4, 2),
    "fig2_butterfly2d_91": lambda: (corpus_specs()["fig2_butterfly2d"],
                                    GridSpec(extent=2.6, n=91), 4, 2),
    "separable_2d": lambda: (separable(SEPARABLE_AXES[:2]),
                             GridSpec(extent=(6.0, 5.0), n=(81, 71)), 4, 2),
    "cusp3d_ordered_19": lambda: (corpus_specs()["cusp3d_ordered"],
                                  GridSpec(extent=2.4, n=19), 2, 3),
    "separable_3d": lambda: (separable(SEPARABLE_AXES), GridSpec(extent=(5.0, 4.5, 4.0), n=17),
                             2, 3),
    # even n on every axis, where the mirror face sits on the diagonal
    "fig1_cusp2d_90": lambda: (corpus_specs()["fig1_cusp2d"], GridSpec(extent=2.6, n=90), 6, 2),
    "separable_2d_even": lambda: (separable(SEPARABLE_AXES[:2]),
                                  GridSpec(extent=(6.0, 5.0), n=(80, 70)), 5, 2),
    "butterfly3d_ordered_18": lambda: (corpus_specs()["butterfly3d_ordered"],
                                       GridSpec(extent=2.0, n=(16, 18, 20)), 8, 3),
}


@pytest.mark.parametrize("name", list(SECTOR_PROBLEMS))
def test_fd_half_box_sectors_match_projection_levels(name):
    potential, grid, k, dim = SECTOR_PROBLEMS[name]()
    sol = fd_eigensolve(potential, grid, k=k, dim=dim)
    assert sol.converged
    want = fd_eigensolve_projection_reference(potential, grid, k, dim)
    assert sol.energies == pytest.approx(want, rel=1e-12, abs=0.0)


def test_grid_mesh_shapes():
    g = GridSpec(extent=2.0, n=16)
    assert g.mesh(2).shape == (16, 16, 2)
    assert g.spacings(2) == [4.0 / 15, 4.0 / 15]
    g2 = GridSpec(extent=(1.0, 2.0), n=(16, 32))
    assert g2.mesh(2).shape == (16, 32, 2)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_fd_rejects_no_pairs_and_a_callable_without_dim():
    grid = GridSpec(extent=3.0, n=16)
    with pytest.raises(ValueError) as err:
        fd_eigensolve(make_spec("cusp2d", alpha=1.4, beta=1.0), grid, k=0)
    assert str(err.value) == "k must be >= 1"
    with pytest.raises(ValueError) as err:
        fd_eigensolve(lambda x: x**2, grid, k=1)
    assert str(err.value) == "dim is required when passing a bare callable"


def test_newton_without_iterations_keeps_no_seed_on_an_even_grid():
    # no even-n node is a root, and max_iter=0 takes no step
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    assert newton_stationary(spec, GridSpec(extent=3.0, n=16), max_iter=0) == []


def test_localization_needs_a_well():
    sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=5.0, n=201), k=1, dim=1)
    with pytest.raises(ValueError) as err:
        localization(sol, [])
    assert str(err.value) == "localization needs at least one well"


def test_localization_default_radius_of_one_well_is_the_box_half_width():
    sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=(5.0,), n=201), k=1, dim=1)
    w = localization(sol, [(0.0,)])
    assert w.radius == 5.0
    assert w.weights["well0"] + w.leftover == pytest.approx(1.0, abs=1e-12)


def test_localization_symmetric_double_well():
    sol = fd_eigensolve(lambda x: (x**2 - 6.25)**2,
                        GridSpec(extent=7.0, n=1401), k=1, dim=1)
    w = localization(sol, [(2.5,), (-2.5,)])
    assert w.weights["well0"] == pytest.approx(0.5, abs=1e-6)
    assert w.weights["well1"] == pytest.approx(0.5, abs=1e-6)
    assert 0.0 <= w.leftover < 1e-5
    assert w.radius == pytest.approx(2.5)


def test_localization_weights_sum_to_one():
    sol = fd_eigensolve(lambda x: (x**2 - 6.25)**2,
                        GridSpec(extent=7.0, n=801), k=1, dim=1)
    w = localization(sol, [(2.5,), (-2.5,)])
    assert sum(w.weights.values()) + w.leftover == pytest.approx(1.0, abs=1e-12)


def test_localization_overlapping_balls_rejected():
    sol = fd_eigensolve(lambda x: (x**2 - 6.25)**2,
                        GridSpec(extent=7.0, n=201), k=1, dim=1)
    with pytest.raises(ValueError, match="overlap"):
        localization(sol, [(2.5,), (-2.5,)], radius=3.0)


@pytest.mark.parametrize("name, grid", [
    ("fig1_cusp2d", GridSpec(extent=2.6, n=91)),
    ("fig2_butterfly2d", GridSpec(extent=(2.6, 2.4), n=(40, 45))),
    ("cusp3d_ordered", GridSpec(extent=2.4, n=16)),
    ("butterfly3d_ordered", GridSpec(extent=2.0, n=17)),
])
def test_localization_distances_match_norm_reference(name, grid):
    spec = corpus_specs()[name]
    sol = fd_eigensolve(spec, grid, k=2)
    wells = [p for p in stationary_points(spec) if p.kind == "minimum"]
    wells += [(0.3,) * spec.dimension]
    mesh = grid.mesh(spec.dimension).reshape(-1, spec.dimension)
    orbits = oracle._orbit_arrays(wells)
    got = oracle._orbit_distances(mesh, orbits)
    assert got.tobytes() == localization_distances_reference(mesh, orbits).tobytes()
    w = localization(sol, wells, state=1)
    assert sum(w.weights.values()) + w.leftover == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["fig1_cusp2d", "cusp3d_ordered", "butterfly3d_ordered"])
def test_min_orbit_distance_matches_norm_reference(name):
    # every orbit of every kind, a bare centre, and a single orbit (inf)
    spec = corpus_specs()[name]
    points = stationary_points(spec)
    for wells in (points, points + [(0.3,) * spec.dimension], points[:1]):
        got = min_orbit_distance(wells)
        assert repr(got) == repr(min_orbit_distance_reference(wells))


def test_grid_half_width_must_be_positive_and_finite():
    spec = make_spec("cusp2d", alpha=2.0, beta=1.0)
    for extent in (0.0, -3.0, (2.0, 0.0), math.nan, math.inf):
        with pytest.raises(ValueError, match="grid half-width must be positive and finite"):
            GridSpec(extent=extent, n=21).axes(2)
    # the Newton seed box: 0 used to fall back to the default half-width,
    # and -3 used to retire every seed as escaped
    assert _oracle_grid(spec).extent == 1.6 * characteristic_radius(spec)
    for extent in (0.0, -3.0):
        assert _oracle_grid(spec, extent).extent == extent
        with pytest.raises(ValueError, match="grid half-width must be positive and finite"):
            oracle_agreement(spec, extent)


def test_grid_spacing_whose_stencil_overflows_is_refused():
    # these used to raise ZeroDivisionError and SuperLU's "Factor is exactly singular"
    tiny = spec_from_raw("cusp2d", {"alpha_sq": 0.0, "beta_sq": 5e-324})
    cusp = make_spec("cusp2d", alpha=2.0, beta=1.0)
    for spec, extent in ((tiny, 1.6 * characteristic_radius(tiny)), (cusp, 1e-160), (cusp, 5e-324)):
        with pytest.raises(ValueError, match=r"grid spacing \S+ is too fine: 2/h\^2 overflows"):
            fd_eigensolve(spec, GridSpec(extent=extent, n=33))


def test_grid_tuple_shorter_than_the_dimension_is_refused():
    # this used to raise IndexError
    spec = make_spec("cusp3d", alpha=1.2, beta=1.0, gamma=0.8)
    for grid, message in ((GridSpec(extent=(2.0, 2.0), n=17), "grid extent has 2 entries"),
                          (GridSpec(extent=2.0, n=(17, 17)), "grid n has 2 entries")):
        with pytest.raises(ValueError, match=f"^{message} for 3 axes$"):
            fd_eigensolve(spec, grid)
        with pytest.raises(ValueError, match=f"^{message} for 3 axes$"):
            newton_stationary(spec, grid)


def test_grid_tuple_longer_than_the_dimension_is_refused():
    # the fourth entry used to be dropped and the 3D spec solved
    spec = make_spec("cusp3d", alpha=1.2, beta=1.0, gamma=0.8)
    grid = GridSpec(extent=(2.0, 2.0, 2.0, 2.0), n=17)
    for run in (lambda: fd_eigensolve(spec, grid), lambda: newton_stationary(spec, grid)):
        with pytest.raises(ValueError, match="^grid extent has 4 entries for 3 axes$"):
            run()


def test_grid_n_must_be_a_whole_number():
    # 20.9 used to be truncated to 20 nodes; integral floats and numpy
    # integers still count
    for n in (20.9, (20, 20.5), math.nan, math.inf):
        with pytest.raises(ValueError, match="^grid n must be a whole number of points"):
            GridSpec(extent=3.0, n=n).axes(2)
    for n in (20.0, np.int64(20), (20, np.float64(20.0))):
        assert [len(axis) for axis in GridSpec(extent=3.0, n=n).axes(2)] == [20, 20]


def test_localization_state_outside_the_solution_is_refused():
    # -1 used to read the top state, and 5 raised IndexError
    sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=5.0, n=201), k=2, dim=1)
    for state in (-1, 2, 5):
        with pytest.raises(ValueError, match=f"^state must be in 0 .. 1, got {state}$"):
            localization(sol, [(0.0,)], state=state)
    assert localization(sol, [(0.0,)], state=np.int64(1)).weights["well0"] > 0.9


def test_localization_orbit_input_deep_outer_regime():
    spec = make_spec("butterfly1d", alpha=1.7, beta=2.0)
    pts = stationary_points(spec)
    wells = [p for p in pts if p.kind == "minimum"]
    sol = fd_eigensolve(spec, GridSpec(extent=6.0, n=2001), k=1)
    w = localization(sol, wells)
    assert w.weights["axis_x_outer"] > 0.9
    assert min_orbit_distance(wells) == pytest.approx(
        math.sqrt(spec.shape["gamma_sq"]), rel=1e-12)


# ---------------------------------------------------------------------------
# eigensolution and potential grid reports against their references
# ---------------------------------------------------------------------------

EIGEN_REPORTS = {
    "spec_1d": lambda: fd_eigensolve(make_spec("butterfly1d", alpha=1.9, beta=2.0),
                                     GridSpec(extent=4.0, n=401), k=2),
    "callable_2d_tuple_grid": lambda: fd_eigensolve(
        separable(SEPARABLE_AXES[:2]), GridSpec(extent=(6.0, 5.0), n=(41, 37)), k=3, dim=2),
    "spec_3d": lambda: fd_eigensolve(corpus_specs()["cusp3d_ordered"],
                                     GridSpec(extent=2.4, n=16), k=2),
}


@pytest.mark.parametrize("name", list(EIGEN_REPORTS))
def test_eigensolution_dict_matches_reference(name):
    sol = EIGEN_REPORTS[name]()

    def text(d):  # as reports.write_json writes it
        return json.dumps(d, sort_keys=True, indent=2)

    assert text(reports.eigensolution_dict(sol)) == text(eigensolution_dict_reference(sol))


def assert_same_csv(tmp_path, rows, reference_rows):
    reports.write_csv(tmp_path / "rows.csv", rows)
    write_csv_reference(tmp_path / "reference.csv", reference_rows)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("name", list(EIGEN_REPORTS))
def test_eigensolution_csv_matches_reference(tmp_path, monkeypatch, name, block):
    # block=7 splits every solution over many row blocks, with a short last one
    if block:
        monkeypatch.setattr(reports, "_CSV_BLOCK", block)
    sol = EIGEN_REPORTS[name]()
    v = (sol.grid.mesh(sol.dim) ** 2).sum(-1)
    for values in (None, v):
        assert_same_csv(tmp_path, reports.eigensolution_csv_rows(sol, values),
                        eigensolution_csv_rows_reference(sol, values))


@pytest.mark.parametrize("clip", [None, 0.0])
def test_potential_grid_csv_matches_reference(tmp_path, clip):
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    xs = np.linspace(-2.8, 2.8, 57)
    values = potentials.evaluate(spec, np.stack(np.meshgrid(xs, xs, indexing="ij"), -1))
    assert (values > 0.0).any() and (values <= 0.0).any()
    assert_same_csv(tmp_path, reports.potential_grid_rows(xs, xs, values, clip=clip),
                    potential_grid_rows_reference(xs, xs, values, clip=clip))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydot import potentials, spectra, stationary
from polydot.errors import DegenerateWell, NoMinimum
from polydot.oracle import GridSpec, fd_eigensolve, localization
from polydot.potentials import make_spec
from polydot.spectra import (
    HarmonicWell,
    classical_argmin,
    dominant_minimum,
    ground_candidates,
    harmonic_expand,
    levels,
)
from polydot.stationary import MINIMUM, StationaryPoint, classify, stationary_points

from helpers import count_calls, flat_stiffness_reference

SQRT3 = math.sqrt(3.0)


def minimum_by_label(spec, label):
    return [p for p in stationary_points(spec) if p.label == label][0]


def test_cusp2d_well_frequencies_and_ground():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    well = harmonic_expand(spec, minimum_by_label(spec, "axis_x"))
    assert well.stiffnesses == pytest.approx((3.84, 15.68), rel=1e-12)
    assert well.frequencies == pytest.approx((math.sqrt(1.92), 2.8), rel=1e-12)
    assert well.ground_estimate == pytest.approx(-3.8416 + 2.8 + math.sqrt(1.92),
                                                 rel=1e-12)
    assert well.confinement_margin == pytest.approx(1.4**4 - 1.0, rel=1e-12)


def test_given_enumeration_is_reused(monkeypatch):
    spec = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-16.0 / 3.0)
    points = stationary_points(spec)
    origin = [p for p in points if p.label == "origin"][0]
    expected = ground_candidates(spec)
    enumerations = count_calls(monkeypatch, stationary.enumerate_stationary)
    hessians = count_calls(monkeypatch, potentials.hessian)
    assert ground_candidates(spec, stationary=points) == expected
    assert harmonic_expand(spec, origin, points) == expected.wells["origin"]
    assert enumerations == [] and hessians == []


def test_harmonic_expand_rejects_non_minimum():
    spec = make_spec("cusp2d", alpha=1.4, beta=1.0)
    saddle = minimum_by_label(spec, "axis_y")
    with pytest.raises(ValueError, match="minimum"):
        harmonic_expand(spec, saddle)


def test_harmonic_expand_flags_flat_direction():
    # hand-built "minimum" on the Mexican-hat ring: one stiffness vanishes
    spec = make_spec("cusp2d", alpha=1.0, beta=1.0)
    fake = StationaryPoint(location=(1.0, 0.0), subfamily="axis_x",
                           value=-1.0, hessian_eigs=(0.0, 8.0),
                           kind=MINIMUM, multiplicity=2, label="axis_x")
    with pytest.raises(DegenerateWell,
                       match=r"^well axis_x has a vanishing stiffness \(eigs \[0\.0, 8\.0\]\)$"):
        harmonic_expand(spec, fake)


@st.composite
def stiffness_rows(draw):
    """Finite rows of 1-3 stiffnesses: +-0 and +-1e-300..1e300, and some
    with an entry on or one ulp either side of 1e-9 times the largest."""
    entry = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1.0, -1.0)),
                      st.one_of(st.just(0.0), st.floats(1e-300, 1e300)))
    row = draw(st.lists(entry, min_size=1, max_size=3))
    if len(row) < 3 and draw(st.booleans()):
        tol = 1e-9 * max(abs(v) for v in row)
        row.append(draw(st.sampled_from((1.0, -1.0)))
                   * np.nextafter(tol, draw(st.sampled_from((0.0, tol, np.inf)))))
    return draw(st.permutations(row))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(stiffness_rows())
def test_classification_flags_exactly_the_flat_stiffnesses(h):
    # a minimum's classification holds every stiffness above the zero
    # tolerance, so no minimum reaches the candidate step with a flat one
    assert flat_stiffness_reference(h) == (classify(h) != MINIMUM)


def test_butterfly1d_outer_well_closed_form():
    spec = make_spec("butterfly1d", alpha=1.3, beta=0.9)
    sh = spec.shape
    gamma = math.sqrt(sh["gamma_sq"])
    well = harmonic_expand(spec, minimum_by_label(spec, "axis_x_outer"))
    assert well.stiffnesses[0] == pytest.approx(24 * sh["beta_sq"] * sh["gamma_sq"],
                                                rel=1e-12)
    assert well.frequencies[0] == pytest.approx(2 * SQRT3 * 0.9 * gamma, rel=1e-12)
    expected = (sh["alpha_sq"] - sh["beta_sq"]) * sh["gamma_sq"]**2 \
        + 2 * SQRT3 * 0.9 * gamma
    assert well.ground_estimate == pytest.approx(expected, rel=1e-12)


def test_butterfly1d_center_well_closed_form():
    spec = make_spec("butterfly1d", alpha=1.3, beta=0.9)
    sh = spec.shape
    well = harmonic_expand(spec, minimum_by_label(spec, "origin"))
    assert well.frequencies[0] == pytest.approx(
        SQRT3 * 1.3 * math.sqrt(sh["gamma_sq"]), rel=1e-12)


# ---------------------------------------------------------------------------
# level enumeration
# ---------------------------------------------------------------------------

def synthetic_well(v0, omegas):
    dummy = StationaryPoint(location=(0.0,) * len(omegas), subfamily="origin",
                            value=v0, hessian_eigs=tuple(2 * w * w for w in omegas),
                            kind=MINIMUM, multiplicity=1, label="origin")
    return HarmonicWell(minimum=dummy, v0=v0,
                        stiffnesses=tuple(2 * w * w for w in omegas),
                        frequencies=tuple(omegas),
                        confinement_margin=math.inf)


@pytest.mark.parametrize("e_max", [math.inf, -math.inf, math.nan])
def test_levels_rejects_an_e_max_that_is_not_finite(e_max):
    with pytest.raises(ValueError, match=f"^e_max must be finite, got {e_max!r}$"):
        levels(synthetic_well(0.0, (1.0,)), e_max)


def test_levels_stop_past_the_level_cap():
    # levels (2n + 1) * 0.5 for n = 0 ... 99999 fill the cap; one more is refused
    well = synthetic_well(0.0, (0.5,))
    assert len(levels(well, 0.5 * (2 * 99_999 + 1.5))) == spectra._MAX_LEVELS == 100_000
    with pytest.raises(ValueError) as err:
        levels(well, 0.5 * (2 * 100_000 + 1.5))
    assert str(err.value) == ("well origin has more than 100000 levels up to "
                              "e_max = 100001; lower e_max")


def test_levels_isotropic_2d():
    well = synthetic_well(0.0, (1.0, 1.0))
    got = levels(well, 4.5)
    assert [(lv.quantum_numbers, lv.energy) for lv in got] == [
        ((0, 0), 2.0), ((0, 1), 4.0), ((1, 0), 4.0)]


def test_levels_empty_below_ground():
    well = synthetic_well(0.0, (1.0, 1.0))
    assert levels(well, 1.99) == []


def test_levels_center_well_two_levels():
    spec = make_spec("butterfly1d", alpha=1.1, beta=0.8)
    well = harmonic_expand(spec, minimum_by_label(spec, "origin"))
    omega = well.frequencies[0]
    got = levels(well, 3 * omega)
    assert [lv.energy for lv in got] == pytest.approx([omega, 3 * omega], rel=1e-12)


def test_levels_degenerate_multiplicities():
    # isotropic 2D well: k+1 levels at v0 + 2(k+1) omega
    well = synthetic_well(0.5, (0.7, 0.7))
    got = levels(well, 0.5 + 2 * 0.7 * 4 + 1e-9)
    by_energy = {}
    for lv in got:
        by_energy.setdefault(round(lv.energy, 9), []).append(lv.quantum_numbers)
    counts = [len(v) for _k, v in sorted(by_energy.items())]
    assert counts == [1, 2, 3, 4]
    energies = [lv.energy for lv in got]
    assert energies == sorted(energies)


def test_levels_monotone_in_quantum_numbers():
    well = synthetic_well(-2.0, (0.9, 1.7))
    table = {lv.quantum_numbers: lv.energy for lv in levels(well, 15.0)}
    for (n1, n2), e in table.items():
        for bump in ((n1 + 1, n2), (n1, n2 + 1)):
            if bump in table:
                assert table[bump] > e


# ---------------------------------------------------------------------------
# candidates and dominance
# ---------------------------------------------------------------------------

def test_cusp3d_single_candidate():
    spec = make_spec("cusp3d", alpha=1.4, beta=1.2, gamma=1.0)
    cands = ground_candidates(spec)
    assert set(cands.energies) == {"axis_x"}
    well = cands.wells["axis_x"]
    assert cands.energies["axis_x"] == pytest.approx(
        -1.4**4 + sum(well.frequencies), rel=1e-12)
    assert cands.depths["axis_x"] == pytest.approx(-1.4**4, rel=1e-12)


def test_butterfly1d_equal_shape_classical_tie_quantum_split():
    spec = make_spec("butterfly1d", alpha=1.0, beta=1.0)
    cands = ground_candidates(spec)
    gamma = math.sqrt(3.0)
    assert cands.depths["axis_x_outer"] == pytest.approx(0.0, abs=1e-12)
    assert cands.depths["origin"] == 0.0
    # zero-point splits the tie: outer exceeds center by sqrt(3)*alpha*gamma
    outer, center = cands.energies["axis_x_outer"], cands.energies["origin"]
    assert outer - center == pytest.approx(SQRT3 * gamma, rel=1e-10)
    assert dominant_minimum(spec).label == "origin"
    assert set(classical_argmin(spec).tied) == {"axis_x_outer", "origin"}


def test_fig2_two_candidate_values_with_tie():
    # five wells, two distinct candidate values: the x/y outer orbits are
    # exactly degenerate by the x<->y symmetry of this spec
    spec = make_spec("butterfly2d", alpha=1.0, gamma=1.9, u=-16.0 / 3.0)
    cands = ground_candidates(spec)
    assert set(cands.energies) == {"origin", "axis_x_outer", "axis_y_outer"}
    assert cands.energies["axis_x_outer"] == pytest.approx(
        cands.energies["axis_y_outer"], rel=1e-12)
    assert len(set(round(v, 9) for v in cands.energies.values())) == 2
    # classically the outer pair is the (tied) deepest; their stiff
    # transverse confinement pushes the quantum candidate above the origin
    assert set(classical_argmin(spec).tied) == {"axis_x_outer", "axis_y_outer"}
    assert dominant_minimum(spec).label == "origin"


def test_dominant_minimum_butterfly1d_examples():
    outer = make_spec("butterfly1d", alpha=1.9, beta=2.0)
    center = make_spec("butterfly1d", alpha=2.0, beta=2.0)
    assert dominant_minimum(outer).label == "axis_x_outer"
    cands = ground_candidates(outer)
    assert cands.energies["axis_x_outer"] - cands.energies["origin"] == \
        pytest.approx(-40.175, abs=0.01)
    assert dominant_minimum(center).label == "origin"
    c2 = ground_candidates(center)
    gamma = math.sqrt(12.0)
    assert c2.energies["axis_x_outer"] - c2.energies["origin"] == \
        pytest.approx(SQRT3 * 2.0 * gamma, rel=1e-10)


def test_no_minimum_raises():
    spec = make_spec("cusp2d", alpha=1.0, beta=1.0)  # degenerate ring only
    with pytest.raises(NoMinimum):
        ground_candidates(spec)


def test_constant_shift_invariance_of_dominance():
    spec = make_spec("butterfly1d", alpha=1.9, beta=2.0)
    cands = ground_candidates(spec)

    def shifted(well, c):
        return HarmonicWell(minimum=well.minimum, v0=well.v0 + c,
                            stiffnesses=well.stiffnesses,
                            frequencies=well.frequencies,
                            confinement_margin=well.confinement_margin)

    for c in (-5.0, 0.0, 17.5):
        moved = {lab: shifted(w, c) for lab, w in cands.wells.items()}
        for lab, w in cands.wells.items():
            assert moved[lab].ground_estimate == pytest.approx(
                w.ground_estimate + c, rel=1e-12)
        argmin = min(moved, key=lambda lab: moved[lab].ground_estimate)
        assert argmin == dominant_minimum(spec).label


def test_semiclassical_ordering_consistency():
    # one orbit classically deeper than everything by more than any
    # zero-point sum: quantum and classical argmin agree
    spec = make_spec("butterfly1d", alpha=3.0, beta=4.0)
    cands = ground_candidates(spec)
    depths = cands.depths
    deepest = min(depths, key=depths.get)
    zero_points = [sum(w.frequencies) for w in cands.wells.values()]
    others = [v for lab, v in depths.items() if lab != deepest]
    assert min(others) - depths[deepest] > max(zero_points)
    assert dominant_minimum(spec).label == deepest
    assert classical_argmin(spec).label == deepest


def test_confinement_margin_warns_threshold():
    # margin attached so the CLI can flag unreliable harmonic estimates
    spec = make_spec("cusp2d", alpha=1.05, beta=1.0)
    well = ground_candidates(spec).wells["axis_x"]
    assert well.confinement_margin < 2.0 * sum(well.frequencies)


# ---------------------------------------------------------------------------
# oracle-facing properties
# ---------------------------------------------------------------------------

def test_level_formula_exact_for_quadratic_potential():
    well = synthetic_well(0.0, (1.0,))
    predicted = [lv.energy for lv in levels(well, 5.5)]
    sol = fd_eigensolve(lambda x: x**2, GridSpec(extent=10.0, n=2001), k=3, dim=1)
    assert predicted == pytest.approx(list(sol.energies), abs=2e-3)


def test_fd_ground_tracks_dominant_candidate_deep_wells():
    spec = make_spec("butterfly1d", alpha=1.7, beta=2.0)
    dom = dominant_minimum(spec)
    sol = fd_eigensolve(spec, GridSpec(extent=6.0, n=2001), k=1)
    assert abs(sol.energies[0] - dom.energy) / abs(dom.energy) < 0.10
    pts = stationary_points(spec)
    wells = [p for p in pts if p.kind == MINIMUM]
    weights = localization(sol, wells)
    assert weights.weights[dom.label] > 0.9

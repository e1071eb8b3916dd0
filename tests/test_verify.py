"""Each verify suite fails, naming what broke, when the routine it checks
gives wrong answers."""

import dataclasses
import re

import numpy as np

from polydot import stationary, verify


def _failures(suite, seed=0):
    failures = suite(np.random.default_rng(seed))["failures"]
    assert failures
    return failures


def test_stationary_oracle_agreement_names_a_dropped_axis_orbit(monkeypatch):
    original = verify.newton_stationary

    def drop_x_axis(spec, grid):
        return [p for p in original(spec, grid)
                if not (abs(p.location[0]) > 1e-6 and all(abs(c) < 1e-6 for c in p.location[1:]))]

    monkeypatch.setattr(verify, "newton_stationary", drop_x_axis)
    failures = _failures(verify.suite_stationary_oracle_agreement)
    assert any(f.startswith("fig1_cusp2d: on_axis_roots orbit at (1.4") for f in failures)
    assert all(re.fullmatch(r"\w+: on_axis_roots orbit at \(.*\) not found by the oracle", f)
               for f in failures)


def test_offaxis_backsubstitution_names_a_broken_radius_identity(monkeypatch):
    original = stationary.off_axis_roots_2d
    monkeypatch.setattr(stationary, "off_axis_roots_2d",
                        lambda spec: [(x2, y2, 1.01 * r2) for x2, y2, r2 in original(spec)])
    failures = _failures(verify.suite_offaxis_backsubstitution)
    assert failures
    assert all(f.startswith("off_axis_roots_2d: radius identity broken at {") for f in failures)


def test_reality_thresholds_names_both_mismatches(monkeypatch):
    small, large = verify.bulk_reality_small_couplings, verify.bulk_reality_large_couplings
    monkeypatch.setattr(verify, "bulk_reality_small_couplings", lambda xi: small(xi - 0.01))
    monkeypatch.setattr(verify, "bulk_reality_large_couplings",
                        lambda u, p, q, s: (not large(u, p, q, s)[0], None))
    failures = _failures(verify.suite_reality_thresholds)
    assert failures[0].startswith("small-coupling threshold bisection ")
    assert f"vs closed form {verify.SMALL_COUPLING_THRESHOLD!r}" in failures[0]
    assert len(failures) == 41
    assert all(f.startswith("large-coupling criterion mismatch at u=") for f in failures[1:])


def test_fd_calibration_names_shifted_levels_and_the_lost_slope(monkeypatch):
    original = verify.fd_eigensolve

    def shifted(*args, **kwargs):
        sol = original(*args, **kwargs)
        return dataclasses.replace(sol, energies=tuple(e + 0.01 for e in sol.energies))

    monkeypatch.setattr(verify, "fd_eigensolve", shifted)
    failures = _failures(verify.suite_fd_calibration)
    assert [f.split(":")[0] for f in failures[:3]] == [f"harmonic level {i}" for i in range(3)]
    assert len(failures) == 5
    assert all(re.fullmatch(r"convergence ratio \S+ outside 4 \+- 20%", f) for f in failures[3:])


def test_run_verify_names_and_grades_each_suite(monkeypatch):
    good, bad = {"draws": 2, "failures": []}, {"failures": ["case 1 off by 2"]}

    def suite_good(rng):
        return good

    def suite_bad(rng):
        return bad

    monkeypatch.setattr(verify, "SUITES", (suite_good, suite_bad))
    verdict = verify.run_verify(seed=5)
    assert verdict == {"seed": 5, "passed": False, "suites": [
        {"name": "good", "passed": True, "details": {"draws": 2, "failures": []}},
        {"name": "bad", "passed": False, "details": {"failures": ["case 1 off by 2"]}},
    ]}
    assert all(s["details"] is d for s, d in zip(verdict["suites"], (good, bad)))

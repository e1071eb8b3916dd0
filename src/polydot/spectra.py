"""Harmonic wells around minima and leading-order bound-state estimates.

With the convention -Laplacian psi + V psi = E psi, a separated mode with
local form v0 + (1/2) h xi^2 has levels v0 + (2n + 1) sqrt(h / 2), so each
principal stiffness h_i (Hessian eigenvalue at the minimum) contributes a
mode frequency omega_i = sqrt(h_i / 2) and

    E(n_1, ..., n_D) = v0 + sum_i (2 n_i + 1) omega_i.

The ground-state candidate of a well orbit is E(0, ..., 0); symmetry-related
wells share one label and one candidate (tunneling splitting within an orbit
is not estimated here; the finite-difference oracle observes it instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWell, NoMinimum
from .potentials import PotentialSpec
from .stationary import MINIMUM, StationaryPoint, enumerate_stationary

_DEGENERATE_REL_TOL = 1e-9
_TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class HarmonicWell:
    """Local quadratic model of one minimum orbit."""

    minimum: StationaryPoint
    v0: float
    stiffnesses: tuple[float, ...]
    frequencies: tuple[float, ...]
    confinement_margin: float

    @property
    def label(self) -> str:
        return self.minimum.label

    @property
    def ground_estimate(self) -> float:
        return self.v0 + sum(self.frequencies)


@dataclass(frozen=True)
class LevelEstimate:
    quantum_numbers: tuple[int, ...]
    energy: float
    well_label: str


@dataclass(frozen=True)
class GroundCandidates:
    """Per-orbit ground candidates plus the classical depths."""

    wells: dict
    warnings: tuple[str, ...]

    @property
    def energies(self) -> dict:
        return {label: well.ground_estimate for label, well in self.wells.items()}

    @property
    def depths(self) -> dict:
        return {label: well.v0 for label, well in self.wells.items()}


@dataclass(frozen=True)
class DominantMinimum:
    label: str
    energy: float
    tied: tuple[str, ...]


def harmonic_expand(
    spec: PotentialSpec,
    minimum: StationaryPoint,
    stationary: list[StationaryPoint] | None = None,
) -> HarmonicWell:
    """Quadratic model around one minimum.

    The stiffnesses are the minimum's Hessian eigenvalues.  The confinement
    margin is the lowest saddle/maximum value above v0 in the stationary
    list (inf when the well has no enumerated escape point); the harmonic
    picture degrades once the margin is comparable to the zero-point
    energy.
    """
    if minimum.kind != MINIMUM:
        raise ValueError(f"harmonic_expand needs a minimum, got {minimum.kind}")
    h = np.asarray(minimum.hessian_eigs, dtype=float)
    tol = _DEGENERATE_REL_TOL * float(np.max(np.abs(h))) if h.size else 0.0
    if np.any(h <= tol):
        raise DegenerateWell(
            f"well {minimum.label} has a vanishing stiffness (eigs {h.tolist()})"
        )
    if stationary is None:
        stationary = list(enumerate_stationary(spec).points)
    barriers = [
        p.value for p in stationary
        if p.kind != MINIMUM and p.value > minimum.value
    ]
    margin = min(barriers) - minimum.value if barriers else math.inf
    return HarmonicWell(
        minimum=minimum,
        v0=minimum.value,
        stiffnesses=tuple(float(e) for e in h),
        frequencies=tuple(math.sqrt(float(e) / 2.0) for e in h),
        confinement_margin=margin,
    )


def levels(well: HarmonicWell, e_max: float) -> list[LevelEstimate]:
    """All level estimates with energy <= e_max, ascending (complete)."""
    omegas = well.frequencies
    dim = len(omegas)
    out: list[LevelEstimate] = []

    def recurse(prefix):
        i = len(prefix)
        base = well.v0 + sum((2 * n + 1) * w for n, w in zip(prefix, omegas))
        if i == dim:
            out.append(LevelEstimate(tuple(prefix), base, well.label))
            return
        floor = sum(omegas[i:])  # zero-point of the remaining modes
        n = 0
        while base + floor + 2 * n * omegas[i] <= e_max:
            recurse(prefix + [n])
            n += 1

    recurse([])
    out.sort(key=lambda lv: (lv.energy, lv.quantum_numbers))
    return out


def ground_candidates(
    spec: PotentialSpec,
    stationary: list[StationaryPoint] | None = None,
) -> GroundCandidates:
    """One harmonic ground candidate per minimum orbit.

    stationary is the spec's enumeration when the caller already has it.
    Degenerate (flat-direction) minima are skipped with a warning record;
    raises NoMinimum when nothing remains.
    """
    if stationary is None:
        stationary = list(enumerate_stationary(spec).points)
    minima = [p for p in stationary if p.kind == MINIMUM]
    wells = {}
    warnings = []
    for p in minima:
        try:
            wells[p.label] = harmonic_expand(spec, p, stationary)
        except DegenerateWell as err:
            warnings.append(str(err))
    degenerate = [p for p in stationary if p.kind == "degenerate"]
    for p in degenerate:
        warnings.append(
            f"degenerate stationary orbit {p.label} (flat direction); "
            "no harmonic candidate attached"
        )
    if not wells:
        raise NoMinimum(f"{spec.family} spec has no confining minimum")
    return GroundCandidates(wells=wells, warnings=tuple(warnings))


def _lowest(table: dict) -> DominantMinimum:
    """Entry of a label -> value table that is lowest by (value, label);
    near-ties are reported, not silently broken."""
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    best_label, best = ordered[0]
    scale = max(1.0, abs(best))
    tied = tuple(
        label for label, v in ordered if abs(v - best) <= _TIE_REL_TOL * scale
    )
    return DominantMinimum(label=best_label, energy=best, tied=tied)


def dominant_minimum(spec: PotentialSpec) -> DominantMinimum:
    """Label of the lowest ground candidate; near-ties are reported, not
    silently broken."""
    return _lowest(ground_candidates(spec).energies)


def classical_argmin(spec: PotentialSpec) -> DominantMinimum:
    """Deepest minimum orbit by classical value (no zero-point energy)."""
    return _lowest(ground_candidates(spec).depths)

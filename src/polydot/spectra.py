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
from .stationary import DEGENERATE, MINIMUM, StationaryPoint, classify, enumerate_stationary

_TIE_REL_TOL = 1e-12
# levels() refuses a well with more levels than this below e_max
_MAX_LEVELS = 100_000


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
        return self.v0 + float(_zero_point(self.frequencies))


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


def _frequencies(h) -> np.ndarray:
    """Mode frequencies omega_i = sqrt(h_i / 2) of stiffnesses h."""
    return np.sqrt(np.asarray(h, dtype=float) / 2.0)


def _zero_point(omegas) -> np.ndarray:
    """Zero-point energy sum_i omega_i over the last axis, added left to
    right from 0.0 as the built-in sum() does."""
    omegas = np.asarray(omegas, dtype=float)
    total = np.zeros(omegas.shape[:-1])
    for i in range(omegas.shape[-1]):
        total = total + omegas[..., i]
    return total


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
    h = minimum.hessian_eigs
    if classify(h) != MINIMUM:
        raise DegenerateWell(f"well {minimum.label} has a vanishing stiffness (eigs {list(h)})")
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
        frequencies=tuple(_frequencies(h).tolist()),
        confinement_margin=margin,
    )


def levels(well: HarmonicWell, e_max: float) -> list[LevelEstimate]:
    """All level estimates with energy <= e_max, ascending (complete).

    Raises ValueError for an e_max that is not finite, and once the well
    has more than _MAX_LEVELS levels up to e_max.
    """
    if not math.isfinite(e_max):
        raise ValueError(f"e_max must be finite, got {e_max!r}")
    omegas = well.frequencies
    dim = len(omegas)
    out: list[LevelEstimate] = []

    def recurse(prefix):
        i = len(prefix)
        base = well.v0 + sum((2 * n + 1) * w for n, w in zip(prefix, omegas))
        if i == dim:
            if len(out) == _MAX_LEVELS:
                raise ValueError(f"well {well.label} has more than {_MAX_LEVELS} levels "
                                 f"up to e_max = {e_max:g}; lower e_max")
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


def _candidate_tables(family, labels, values, eigs, kinds, counts) -> list:
    """The candidate step over many enumerations of one family.

    The enumerations are stacked: counts[i] consecutive entries of labels,
    values (N,), eigs (N, D) and kinds belong to enumeration i.  Each orbit
    of kind minimum gets the ground candidate v0 + sum_i sqrt(h_i / 2); a
    degenerate (flat-direction) orbit gets no candidate and a warning record.
    Returns per enumeration (kept, energies, depths, warnings): the stack
    indices of the minima kept, and the label -> candidate and label -> v0
    tables in stack order.  An enumeration without a candidate gives the
    NoMinimum error instead.
    """
    with np.errstate(invalid="ignore"):  # saddles and maxima: no frequencies
        energies = (values + _zero_point(_frequencies(eigs))).tolist()
    depths = values.tolist()
    out = []
    stop = 0
    for count in counts:
        start, stop = stop, stop + count
        kept, table_e, table_v = [], {}, {}
        for i in range(start, stop):
            if kinds[i] == MINIMUM:
                kept.append(i)
                table_e[labels[i]] = energies[i]
                table_v[labels[i]] = depths[i]
        warnings = [
            f"degenerate stationary orbit {labels[i]} (flat direction); "
            "no harmonic candidate attached"
            for i in range(start, stop) if kinds[i] == DEGENERATE
        ]
        out.append((kept, table_e, table_v, warnings) if kept
                   else NoMinimum(f"{family} spec has no confining minimum"))
    return out


def ground_candidates(
    spec: PotentialSpec,
    stationary: list[StationaryPoint] | None = None,
) -> GroundCandidates:
    """One harmonic ground candidate per minimum orbit.

    stationary is the spec's enumeration when the caller already has it.
    A degenerate (flat-direction) orbit gets no candidate and a warning
    record; raises NoMinimum when no minimum remains.
    """
    if stationary is None:
        stationary = list(enumerate_stationary(spec).points)
    (table,) = _candidate_tables(
        spec.family, [p.label for p in stationary], np.array([p.value for p in stationary]),
        np.reshape([p.hessian_eigs for p in stationary], (len(stationary), spec.dimension)),
        [p.kind for p in stationary], [len(stationary)])
    if isinstance(table, NoMinimum):
        raise table
    kept, _energies, _depths, warnings = table
    wells = {stationary[i].label: harmonic_expand(spec, stationary[i], stationary)
             for i in kept}
    return GroundCandidates(wells=wells, warnings=tuple(warnings))


def _lowest_label(table: dict) -> str:
    """Label of the entry of a label -> value table that is lowest by
    (value, label)."""
    return min(table, key=lambda label: (table[label], label))


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

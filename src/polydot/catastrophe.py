"""Parameter scans, dominant-well maps, and relocalization boundaries.

A relocalization boundary is a parameter value where the identity of the
dominant well changes.  Two kinds are tracked side by side:

* classical - the deepest minimum (well value only) changes;
* quantum   - the lowest harmonic ground candidate (value plus zero-point
  energy) changes.

Scans sample a line or raster in parameter space and label every sample by
its dominant well under both definitions.  The samples of a line, or the
cells of a raster, go in stacks of up to 64: each stack's raw coefficients
are built as arrays with the arithmetic of with_param, its orbit
representatives come from the root formulas on those arrays, and values,
Hessians, eigenvalues, ground candidates and labels are then computed for
the whole stack.  The root formulas take every branch row by row; only a
sample whose spec is invalid is built by its with_param chain, for that
chain's own error text.
Each label change is refined by Illinois false position on the signed
candidate gap from the probe interval where it changes sign, bisecting
while an end gap is +-inf.  The nine probes that check for one sign
change are evaluated as one stack, as scan samples are; each sequential
step is one spec's enumeration and ground candidates, the same arithmetic
on a stack of one.  Orbits appearing or vanishing along a line are
reported as events, refined by the same loop on orbit presence from the
bracket's samples on, reading each probe from the root formulas as a gap
of -inf or +inf; an event across invalid samples or probes stays unrefined.
Refinement always stops at DEFAULT_GAP_TOL and DEFAULT_WIDTH_TOL, the
tolerances a line scan's header reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import potentials, spectra
from . import stationary as stat
from .errors import NoMinimum, PolydotError, SplitBracket
from .potentials import PotentialSpec, _param, with_param

QUANTUM = "quantum"
CLASSICAL = "classical"

DEFAULT_GAP_TOL = 1e-10
DEFAULT_WIDTH_TOL = 1e-12
# samples built and evaluated as one stack: bounds a raster's working memory
# at any resolution, and what an interrupt during sampling loses
_STACK = 64


@dataclass(frozen=True)
class ParamPath:
    """A straight segment in parameter space.

    Each varied entry is (name, start, end); shape names move linearly in
    shape space, raw names in raw space (see
    :func:`polydot.potentials.with_param`).  steps is the number of samples
    placed uniformly on [0, 1]; a scan builds them as rows of arrays, a
    stack at a time (:meth:`values_at`), and a refinement probe one spec at
    a time (:meth:`spec_at`).  Construction checks the names and that
    every start and end is finite, and builds no spec: a finite endpoint
    outside the valid region fails per sample.  Two
    entries may not set one coefficient: the same raw key (cusp ``alpha``
    and ``alpha_sq``), or the same shape stem on a shared axis (``alpha``
    and ``alpha_x``), since each sample would apply them one over the other.
    """

    spec: PotentialSpec
    varied: tuple
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("a path needs at least 2 steps")
        if not self.varied:
            raise ValueError("a path needs at least one varied parameter")
        owner = {}  # raw key, or (shape stem, axis) -> the name that sets it
        for name, start, end in self.varied:
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError(f"parameter {name} needs a finite start and end, "
                                 f"got {start!r} and {end!r}")
            if start == end:
                raise ValueError(f"parameter {name} does not vary (start == end)")
            key, stem, axes = _param(self.spec.family, name)
            for target in (key,) if key else [(stem, i) for i in axes]:
                if target in owner:
                    raise ValueError(f"parameters {owner[target]} and {name} set the same "
                                     "coefficient; vary it once")
                owner[target] = name

    @property
    def space(self) -> str:
        stems = [_param(self.spec.family, name)[1] for name, _s, _e in self.varied]
        return "shape" if any(stems) else "raw"

    def params_at(self, t: float) -> dict:
        return {
            name: start + t * (end - start) for name, start, end in self.varied
        }

    def values_at(self, ts) -> list:
        """(name, values) of every varied entry, values[r] its value at ts[r]
        as :meth:`params_at` gives it: one with_param chain per t (see
        :func:`polydot.potentials._param_rows`)."""
        ts = np.asarray(ts, dtype=float)
        return [(name, start + ts * (end - start)) for name, start, end in self.varied]

    def spec_at(self, t: float) -> PotentialSpec:
        out = self.spec
        for name, value in self.params_at(t).items():
            out = with_param(out, name, value)
        return out

    def primary_value(self, t: float) -> float:
        return self.params_at(t)[self.varied[0][0]]

    @property
    def primary_span(self) -> float:
        _name, start, end = self.varied[0]
        return abs(end - start)


@dataclass(frozen=True)
class ScanSample:
    t: float
    params: dict
    ok: bool
    error: str | None
    quantum_label: str | None
    classical_label: str | None
    candidates: dict
    depths: dict
    orbit_labels: tuple


@dataclass(frozen=True)
class CatastropheBoundary:
    """A refined label change.

    location is the first varied parameter's value on a line, or polyline
    vertices on a raster; gap_slope is the finite-difference derivative of
    the signed candidate gap with respect to that parameter.
    """

    kind: str
    pair: tuple
    location: object
    params: dict | None = None
    gap_slope: float | None = None


@dataclass(frozen=True)
class OrbitEvent:
    """A stationary orbit appearing or vanishing along the path."""

    label: str
    change: str  # "appears" | "disappears"
    location: float
    params: dict


@dataclass(frozen=True)
class ScanReport:
    path: ParamPath
    samples: tuple
    boundaries: tuple
    events: tuple
    header: dict


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _prepare(build):
    """(orbit representatives, None) of the spec that build() returns, or
    (None, error text) when it cannot be built or enumerated."""
    try:
        return stat._representatives(build())[0], None
    except (PolydotError, ValueError) as err:
        return None, f"{type(err).__name__}: {err}"


class _Stack(NamedTuple):
    """Samples of one family prepared as one stack: their coefficient rows
    (see :func:`potentials._coefficient_rows`), the (N, D) locations of
    their orbit representatives with the row that owns each and its label,
    and per row its error text or None."""

    family: str
    coeffs: tuple
    x: np.ndarray
    owner: np.ndarray
    labels: list
    errors: list

    def row(self, i: int) -> _Stack:
        """The stack of sample i alone."""
        mine = self.owner == i
        return _Stack(self.family, tuple(c[i:i + 1] for c in self.coeffs), self.x[mine],
                      np.zeros(mine.sum(), int),
                      [label for label, m in zip(self.labels, mine.tolist()) if m],
                      self.errors[i:i + 1])


def _prepare_rows(spec, settings) -> _Stack:
    """The samples of the with_param chains of settings on spec (see
    :func:`potentials._param_rows`), built and rooted as arrays by
    :func:`stationary._representative_rows`, with the error text of a row
    that :func:`_prepare` would give.  Only a row that _param_rows marks
    invalid is built by its with_param chain, for the chain's own error."""

    def chain(i):
        out = spec
        for name, values in settings:
            out = with_param(out, name, values[i])
        return out

    raw, invalid = potentials._param_rows(spec, settings)
    coeffs = potentials._coefficient_rows(spec.family, raw)
    x, owner, labels, errors = stat._representative_rows(coeffs)
    errors = [None if err is None else f"{type(err).__name__}: {err}" for err in errors]
    for i in np.flatnonzero(invalid).tolist():
        errors[i] = _prepare(lambda: chain(i))[1]
    if invalid.any():
        keep = ~invalid[owner]
        x, owner, labels = x[keep], owner[keep], [la for la, k in zip(labels, keep.tolist()) if k]
    return _Stack(spec.family, coeffs, x, owner, labels, errors)


def _sample(stack: _Stack) -> list[tuple]:
    """Dominant labels of the samples of a prepared stack (see
    :func:`_prepare_rows`), all evaluated as one stack.

    Values, Hessians, eigenvalues and kinds of every representative of
    every sample come from one :func:`stationary.classify_points` call, and
    ground candidates and depths from one candidate step.  Returns per
    sample the ScanSample fields after t and params: (ok, error,
    quantum_label, classical_label, candidates, depths, orbit_labels).
    """
    counts = np.bincount(stack.owner, minlength=len(stack.errors)).tolist()
    tables = iter(())
    labels = []
    if len(stack.x):
        try:
            values, eigs, kinds = stat.classify_points(stack.x, stack.owner, stack.coeffs)
        except np.linalg.LinAlgError as err:
            if len(stack.errors) > 1:  # find the sample at fault
                return [_sample(stack.row(i))[0] for i in range(len(stack.errors))]
            return [_failed(f"{type(err).__name__}: {err}")]
        # each sample's points in (value, label) order, as enumerate_stationary sorts
        order = np.lexsort((stack.labels, values, stack.owner))
        labels = [stack.labels[i] for i in order]
        tables = iter(spectra._candidate_tables(
            stack.family, labels, values[order], eigs[order], [kinds[i] for i in order],
            [count for count, error in zip(counts, stack.errors) if error is None]))
    out = []
    stop = 0
    for count, error in zip(counts, stack.errors):
        if error is not None:
            out.append(_failed(error))
            continue
        start, stop = stop, stop + count
        orbit_labels = tuple(sorted(labels[start:stop]))
        table = next(tables)
        if isinstance(table, NoMinimum):
            out.append(_failed(f"NoMinimum: {table}", orbit_labels))
            continue
        _kept, energies, depths, _warnings = table
        out.append((True, None, spectra._lowest_label(energies),
                    spectra._lowest_label(depths), energies, depths, orbit_labels))
    return out


def _failed(error: str, orbit_labels: tuple = ()) -> tuple:
    return (False, error, None, None, {}, {}, orbit_labels)


def _sample_stacks(spec, settings):
    """Rows of :func:`_sample` for every row of the with_param chains of
    settings on spec, prepared (see :func:`_prepare_rows`) and evaluated in
    stacks of at most _STACK samples.  An interrupt keeps the stacks yielded
    before it."""
    for lo in range(0, len(settings[0][1]), _STACK):
        yield from _sample(_prepare_rows(
            spec, [(name, values[lo:lo + _STACK]) for name, values in settings]))


def _evaluate_sample(path: ParamPath, t: float) -> ScanSample:
    """One sample of the path, as a refinement probe takes it: from the
    one-spec functions stationary_points and ground_candidates, which run
    the arithmetic of :func:`_sample` on a stack of one spec, so a probe
    agrees bitwise with a scan sample at the same t."""
    params = path.params_at(t)
    try:
        spec = path.spec_at(t)
        points = stat.stationary_points(spec)
    except (PolydotError, ValueError) as err:
        return ScanSample(t, params, *_failed(f"{type(err).__name__}: {err}"))
    orbit_labels = tuple(sorted(p.label for p in points))
    try:
        cands = spectra.ground_candidates(spec, stationary=points)
    except NoMinimum as err:
        return ScanSample(t, params, *_failed(f"NoMinimum: {err}", orbit_labels))
    energies, depths = cands.energies, cands.depths
    return ScanSample(t, params, True, None, spectra._lowest_label(energies),
                      spectra._lowest_label(depths), energies, depths, orbit_labels)


def _evaluate_samples(path: ParamPath, ts) -> list[ScanSample]:
    """Samples of the path at each t of ts, evaluated as one stack by
    :func:`_sample`; each agrees bitwise with :func:`_evaluate_sample` at
    the same t."""
    rows = _sample(_prepare_rows(path.spec, path.values_at(ts)))
    return [ScanSample(t, path.params_at(t), *row) for t, row in zip(ts, rows)]


def _gap(sample: ScanSample, kind: str, pair) -> float:
    """Signed gap E_A - E_B of one sample; +-inf when a label is missing
    (the surviving label dominates), nan when both are."""
    table = sample.candidates if kind == QUANTUM else sample.depths
    ea = table.get(pair[0])
    eb = table.get(pair[1])
    if ea is None and eb is None:
        return math.nan
    if ea is None:
        return math.inf
    if eb is None:
        return -math.inf
    return ea - eb


def _refine(f, t_lo, g_lo, t_hi, g_hi, span, gap_tol) -> float:
    """Root of f in a bracket where it changes sign: Illinois false position,
    bisecting while an end value is +-inf, until |f| < gap_tol or the next
    point's bracket is narrower than DEFAULT_WIDTH_TOL in the first varied
    parameter (span is its range), for at most 200 steps; nan raises."""
    kept = 0  # Illinois: +1/-1 when the last step kept the low/high end
    for _ in range(200):
        if math.isinf(g_lo) or math.isinf(g_hi):
            t_mid = 0.5 * (t_lo + t_hi)
        else:
            t_mid = t_lo - g_lo * (t_hi - t_lo) / (g_hi - g_lo)
        if (t_hi - t_lo) * span < DEFAULT_WIDTH_TOL:
            return t_mid
        g_mid = f(t_mid)
        if math.isnan(g_mid):
            raise ValueError("gap undefined inside the bracket (no common wells)")
        if abs(g_mid) < gap_tol:
            return t_mid
        # halving the value at an end kept twice in a row stops false
        # position from creeping towards the root from one side only
        if (g_mid < 0.0) == (g_lo < 0.0):
            t_lo, g_lo = t_mid, g_mid
            if kept < 0:
                g_hi *= 0.5
            kept = -1
        else:
            t_hi, g_hi = t_mid, g_mid
            if kept > 0:
                g_lo *= 0.5
            kept = 1
    return 0.5 * (t_lo + t_hi)


def locate_boundary(
    path: ParamPath,
    bracket: tuple[float, float],
    kind: str,
    pair: tuple[str, str] | None = None,
    ends: tuple[ScanSample, ScanSample] | None = None,
) -> CatastropheBoundary:
    """Refine one label change inside a bracket of path coordinates.

    The bracket endpoints, in either order, must carry different dominant
    labels (pair is inferred from them when omitted); ends may pass the
    samples already evaluated there.  Nine interior probes of the signed
    gap E_A - E_B, evaluated as one stack, check that it changes sign once
    (more raise SplitBracket) and narrow the bracket to the probe interval
    where it does.  Illinois false position then runs from there, one
    single probe per step, bisecting while an end gap is +-inf, until
    |gap| < DEFAULT_GAP_TOL or the bracket is narrower than
    DEFAULT_WIDTH_TOL in the first varied parameter, the tolerances a line
    scan's header reports.  A kind other than QUANTUM or CLASSICAL raises
    ValueError before any probe.
    """
    if kind not in (QUANTUM, CLASSICAL):
        raise ValueError(f"kind must be {QUANTUM!r} or {CLASSICAL!r}, got {kind!r}")
    t_lo, t_hi = bracket
    if ends is None:
        ends = (_evaluate_sample(path, t_lo), _evaluate_sample(path, t_hi))
    if pair is None:
        a, b = (s.quantum_label if kind == QUANTUM else s.classical_label for s in ends)
        if a is None or b is None or a == b:
            raise ValueError(
                f"bracket endpoints must carry different dominant labels, got {a!r}/{b!r}"
            )
        pair = (a, b)
    if t_hi < t_lo:
        t_lo, t_hi, ends = t_hi, t_lo, ends[::-1]

    def gap(t: float) -> float:
        return _gap(_evaluate_sample(path, t), kind, pair)

    g_lo, g_hi = (_gap(s, kind, pair) for s in ends)
    if not (g_lo < 0.0 <= g_hi or g_hi < 0.0 <= g_lo):
        raise ValueError(
            f"gap does not change sign over the bracket ({g_lo:g} .. {g_hi:g})"
        )

    # probe the interior for extra sign changes before trusting one root
    ts = np.linspace(t_lo, t_hi, 11)
    probes = [g_lo] + [_gap(s, kind, pair) for s in _evaluate_samples(path, ts[1:-1])] + [g_hi]
    defined = [(t, g) for t, g in zip(ts, probes) if not math.isnan(g)]
    flips = [(p0, p1) for p0, p1 in zip(defined, defined[1:])
             if (p0[1] < 0.0) != (p1[1] < 0.0)]
    if len(flips) > 1:
        raise SplitBracket(
            f"{len(flips)} sign changes inside the bracket; rescan with more steps"
        )
    (t_lo, g_lo), (t_hi, g_hi) = flips[0]

    span = path.primary_span
    t_star = _refine(gap, t_lo, g_lo, t_hi, g_hi, span, DEFAULT_GAP_TOL)
    dt = max(1e-7, 10.0 * DEFAULT_WIDTH_TOL / max(span, 1e-300))
    t_plus, t_minus = min(t_star + dt, 1.0), max(t_star - dt, 0.0)
    g_plus, g_minus = gap(t_plus), gap(t_minus)
    slope = None
    if all(map(math.isfinite, (g_plus, g_minus))):
        dparam = path.primary_value(t_plus) - path.primary_value(t_minus)
        if dparam != 0.0:
            slope = (g_plus - g_minus) / dparam
    return CatastropheBoundary(
        kind=kind,
        pair=pair,
        location=path.primary_value(t_star),
        params=path.params_at(t_star),
        gap_slope=slope,
    )


def _orbit_events(path, s0, s1, reason=None):
    """OrbitEvent of each orbit label that one of the valid scan samples s0
    and s1 (s0.t < s1.t) has and the other lacks, in label order: bisection
    on its presence, read from the root formulas, where presence as at s0
    counts as gap -inf and any other as +inf; the events share their probes.
    A reason, or a probe that cannot be built or rooted, leaves the event
    unrefined: at the samples' midpoint, with params {"unrefined": reason}."""
    labels_at = {}

    def labels(t):
        if t not in labels_at:
            reps, error = _prepare(lambda: path.spec_at(t))
            labels_at[t] = error or {la for _loc, _sub, la in reps}
        if isinstance(labels_at[t], str):
            raise ValueError(f"orbit presence undefined inside the bracket ({labels_at[t]})")
        return labels_at[t]

    for label in sorted(set(s0.orbit_labels) ^ set(s1.orbit_labels)):
        p_lo = label in s0.orbit_labels
        t_star, params = 0.5 * (s0.t + s1.t), {"unrefined": reason}
        if reason is None:
            try:
                t_star = _refine(lambda t: -math.inf if (label in labels(t)) == p_lo else math.inf,
                                 s0.t, -math.inf, s1.t, math.inf, path.primary_span, 0.0)
                params = path.params_at(t_star)
            except ValueError as err:
                params = {"unrefined": str(err)}
        yield OrbitEvent(label, "disappears" if p_lo else "appears",
                         path.primary_value(t_star), params)


def scan_line(path: ParamPath, workers: int = 1) -> ScanReport:
    """Sample the path, label every sample, refine every label change to
    DEFAULT_GAP_TOL and DEFAULT_WIDTH_TOL (see :func:`locate_boundary`).

    Invalid samples (shape constraint violations, no minimum, degenerate
    couplings) are recorded per sample, excluded from bracketing, and never
    fatal.  A label that differs between the valid samples on either side
    of a run of invalid ones is recorded as an unrefined boundary at their
    midpoint, and so is an orbit event there or across an invalid probe.
    The samples are built, rooted and evaluated as arrays, in stacks of up
    to 64 (see :func:`_prepare_rows`); workers is accepted for compatibility
    and does not change the result.  An interrupt (Ctrl-C) yields a partial
    report, marked in the header, instead of an exception.  During sampling
    it keeps the samples of the stacks before the one it falls in, and
    refines nothing.  During refinement it keeps every sample, and the
    boundaries and events refined before it."""
    ts = np.linspace(0.0, 1.0, path.steps)
    samples = []
    boundaries = []
    events = []
    partial = False
    try:
        for t, row in zip(ts, _sample_stacks(path.spec, path.values_at(ts))):
            samples.append(ScanSample(t, path.params_at(t), *row))
        valid = [i for i, s in enumerate(samples) if s.ok]
        for i0, i1 in zip(valid, valid[1:]):
            s0, s1 = samples[i0], samples[i1]
            for kind, l0, l1 in (
                (QUANTUM, s0.quantum_label, s1.quantum_label),
                (CLASSICAL, s0.classical_label, s1.classical_label),
            ):
                if l0 == l1:
                    continue
                reason = "label changes across invalid samples"
                if i1 == i0 + 1:
                    try:
                        boundaries.append(
                            locate_boundary(path, (s0.t, s1.t), kind, (l0, l1),
                                            ends=(s0, s1))
                        )
                        continue
                    except (SplitBracket, ValueError) as err:
                        reason = str(err)
                boundaries.append(
                    CatastropheBoundary(
                        kind=kind, pair=(l0, l1),
                        location=path.primary_value(0.5 * (s0.t + s1.t)),
                        params={"unrefined": reason},
                    )
                )
            events.extend(_orbit_events(
                path, s0, s1, None if i1 == i0 + 1 else "orbit changes across invalid samples"))
    except KeyboardInterrupt:
        partial = True

    header = {
        "space": path.space,
        "varied": [list(v) for v in path.varied],
        "steps": path.steps,
        "gap_tol": DEFAULT_GAP_TOL,
        "width_tol": DEFAULT_WIDTH_TOL,
        "partial": partial,
    }
    return ScanReport(
        path=path,
        samples=tuple(samples),
        boundaries=tuple(boundaries),
        events=tuple(events),
        header=header,
    )


# ---------------------------------------------------------------------------
# 2-parameter raster with marching-squares boundary polylines
# ---------------------------------------------------------------------------

INVALID = "<invalid>"

_SEGMENTS = {
    # case index: bit0 = (i, j), bit1 = (i+1, j), bit2 = (i+1, j+1), bit3 = (i, j+1)
    1: (("W", "S"),),
    2: (("S", "E"),),
    3: (("W", "E"),),
    4: (("E", "N"),),
    5: (("W", "N"), ("S", "E")),
    6: (("S", "N"),),
    7: (("W", "N"),),
    8: (("W", "N"),),
    9: (("S", "N"),),
    10: (("W", "S"), ("E", "N")),
    11: (("E", "N"),),
    12: (("W", "E"),),
    13: (("S", "E"),),
    14: (("W", "S"),),
}


@dataclass(frozen=True)
class SubdomainMap:
    """Raster of dominant-well labels over two parameters."""

    param_x: str
    param_y: str
    xs: np.ndarray
    ys: np.ndarray
    labels_quantum: np.ndarray
    labels_classical: np.ndarray
    boundaries: tuple
    errors: np.ndarray

    def labels(self, kind: str) -> np.ndarray:
        return self.labels_quantum if kind == QUANTUM else self.labels_classical


def _marching_squares(indicator: np.ndarray, xs, ys) -> list[list[tuple[float, float]]]:
    """0.5-level polylines of a boolean node field (vertices at edge
    midpoints), joined greedily into chains on equal vertices."""
    indicator = np.asarray(indicator, dtype=bool)
    segments = []
    nx, ny = indicator.shape
    for i in range(nx - 1):
        for j in range(ny - 1):
            idx = (
                int(indicator[i, j])
                | int(indicator[i + 1, j]) << 1
                | int(indicator[i + 1, j + 1]) << 2
                | int(indicator[i, j + 1]) << 3
            )
            if idx in (0, 15):
                continue
            xm = 0.5 * (xs[i] + xs[i + 1])
            ym = 0.5 * (ys[j] + ys[j + 1])
            mid = {
                "S": (xm, ys[j]),
                "N": (xm, ys[j + 1]),
                "W": (xs[i], ym),
                "E": (xs[i + 1], ym),
            }
            for e0, e1 in _SEGMENTS[idx]:
                segments.append((mid[e0], mid[e1]))

    open_ends: dict = {}
    chains: list[list] = []
    for p0, p1 in segments:
        c0 = open_ends.pop(p0, None)
        c1 = open_ends.pop(p1, None)
        if c0 is not None and c1 is not None and c0 is not c1:
            if c0[-1] != p0:
                c0.reverse()
            if c1[0] != p1:
                c1.reverse()
            c0.extend(c1)
            chains[:] = [c for c in chains if c is not c1]
            chain = c0
        elif c0 is not None:
            if c0[-1] != p0:
                c0.reverse()
            c0.append(p1)
            chain = c0
        elif c1 is not None:
            if c1[0] != p1:
                c1.reverse()
            c1.insert(0, p0)
            chain = c1
        else:
            chain = [p0, p1]
            chains.append(chain)
        for end in (chain[0], chain[-1]):
            open_ends[end] = chain
    return [[(float(x), float(y)) for x, y in c] for c in chains]


def scan_grid(
    spec: PotentialSpec,
    vary_x: tuple[str, float, float],
    vary_y: tuple[str, float, float],
    resolution: int = 33,
    workers: int = 1,
) -> SubdomainMap:
    """Raster of quantum and classical dominant labels over two parameters,
    with marching-squares polylines along every label's region boundary.
    Per-cell failures are recorded as the distinguished label "<invalid>".
    Each cell applies x, then y, to spec as with_param does; the cells are
    built as rows of arrays and evaluated in stacks of up to 64, so working
    memory beyond the label arrays does not grow with the resolution;
    workers is accepted for compatibility and does not change the result.
    An interrupt during the raster propagates.  Raises ValueError, before
    any sampling, for a resolution below 2 or axes a line scan along both
    would reject (see :class:`ParamPath`)."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    ParamPath(spec=spec, varied=(vary_x, vary_y), steps=2)
    name_x, x_lo, x_hi = vary_x
    name_y, y_lo, y_hi = vary_y
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)

    rows = _sample_stacks(
        spec, [(name_x, np.repeat(xs, resolution)), (name_y, np.tile(ys, resolution))])
    labels_q, labels_c, errors = (np.empty((resolution, resolution), dtype=object)
                                  for _ in range(3))
    for cell, (ok, error, quantum, classical, *_tables) in enumerate(rows):
        i, j = divmod(cell, resolution)
        labels_q[i, j] = quantum if ok else INVALID
        labels_c[i, j] = classical if ok else INVALID
        errors[i, j] = error or ""

    boundaries = []
    for kind, grid in ((QUANTUM, labels_q), (CLASSICAL, labels_c)):
        for label in sorted({str(v) for v in grid.ravel()} - {INVALID}):
            chains = _marching_squares(grid == label, xs, ys)
            if chains:
                boundaries.append(
                    CatastropheBoundary(
                        kind=kind, pair=(label, "rest"), location=chains
                    )
                )
    return SubdomainMap(
        param_x=name_x,
        param_y=name_y,
        xs=xs,
        ys=ys,
        labels_quantum=labels_q,
        labels_classical=labels_c,
        boundaries=tuple(boundaries),
        errors=errors,
    )

"""Jobs, the reference kernel, and the bracketed pass loop.

A workload is a fixed list of jobs.  One pass runs every job once, each
timed on its own and bracketed by runs of a fixed reference kernel:

    ref, job 1, ref, job 2, ref, ..., job n, ref

A job's normalised time is its wall time over the mean of the two reference
times around it, so a machine that runs slower for a minute slows both and
the ratio stays put.  ``pass_ref`` sums, over jobs, the median of that ratio
over the timed passes.

After the timed section of a pass, every job's output goes through its
correctness checks.  Jobs and checks are the operations the run counts: each
pass attempts the same ones, so the share that fails is the same in every
run.  A check marked with a known program fault counts as failed without
making the run incorrect.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from independent import CheckFailed


@dataclass
class Check:
    """One correctness check; fn(results) raises CheckFailed on a bad output.

    fault names the program defect that makes the check fail today; such a
    failure is counted but keeps the run correct.
    """

    name: str
    fn: Callable[[dict], None]
    fault: str | None = None


@dataclass
class Job:
    """One timed call.  fn(results) receives the outputs of the jobs before
    it in the same pass; desc describes the inputs as plain data."""

    name: str
    fn: Callable[[dict], object]
    desc: dict
    checks: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    jobs: list
    prepare: Callable[[], None] = lambda: None  # untimed, before each pass

    def operations(self) -> int:
        return len(self.jobs) + sum(len(j.checks) for j in self.jobs)


class JobError:
    """Stands in for the output of a job that raised."""

    def __init__(self, err: BaseException):
        self.err = err

    def __repr__(self):
        return f"JobError({type(self.err).__name__}: {self.err})"


class Reference:
    """Fixed numpy/scipy kernel (6-10 ms, with machine load) used as the unit of time.

    It mixes many small interpreter-bound numpy calls with one sparse LU
    factorisation and solve, as the workloads do.  Nothing in it depends on
    polydot, so no change to the program can change it.
    """

    def __init__(self, small_calls: int = 300, grid: int = 40):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 3, 3))
        self.mats = a + a.transpose(0, 2, 1)
        self.vecs = rng.standard_normal((16, 3))
        self.small_calls = small_calls
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid, grid))
        eye = sp.identity(grid)
        self.lap = (sp.kron(t, eye) + sp.kron(eye, t) + sp.identity(grid * grid)).tocsc()
        self.rhs = rng.standard_normal(grid * grid)
        self.sink = 0.0

    def __call__(self) -> int:
        """Run the kernel once; returns its wall time in ns."""
        t0 = time.perf_counter_ns()
        acc = 0.0
        for i in range(self.small_calls):
            m = self.mats[i % 16]
            w = np.linalg.eigvalsh(m)
            acc += float(w[0]) + float(np.dot(m @ self.vecs[i % 16], self.vecs[i % 16]))
        x = spla.splu(self.lap).solve(self.rhs)
        t1 = time.perf_counter_ns()
        self.sink = acc + float(x[0])
        return t1 - t0


@dataclass
class PassResult:
    durations_ns: list      # per job
    ratios: list            # per job: duration over bracketing reference mean
    refs_ns: list           # len(jobs) + 1 reference times
    results: dict


def run_pass(workload: Workload, ref: Reference) -> PassResult:
    """One bracketed pass."""
    workload.prepare()
    results: dict = {}
    durations, refs = [], [ref()]
    for job in workload.jobs:
        t0 = time.perf_counter_ns()
        try:
            out = job.fn(results)
        except Exception as err:  # a failing job is counted, the run goes on
            out = JobError(err)
        t1 = time.perf_counter_ns()
        refs.append(ref())
        results[job.name] = out
        durations.append(t1 - t0)
    ratios = [d / (0.5 * (refs[i] + refs[i + 1])) for i, d in enumerate(durations)]
    return PassResult(durations, ratios, refs, results)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    reported: set = field(default_factory=set)

    def _report(self, key, message):
        if key not in self.reported:
            self.reported.add(key)
            print(message, file=sys.stderr)

    def check_pass(self, workload: Workload, results: dict) -> None:
        self.attempted += workload.operations()
        for job in workload.jobs:
            out = results.get(job.name)
            if isinstance(out, JobError):
                self.failed += 1 + len(job.checks)
                self.correct = False
                self._report(job.name, f"job {job.name} raised: {out!r}")
                continue
            for check in job.checks:
                try:
                    check.fn(results)
                except CheckFailed as err:
                    self._fail(job, check, str(err))
                except Exception:  # a crashing check is a failed check
                    self._fail(job, check, traceback.format_exc())

    def _fail(self, job, check, message):
        self.failed += 1
        key = f"{job.name}/{check.name}"
        if check.fault:
            self._report(key, f"known fault, {key}: {message} [{check.fault}]")
        else:
            self.correct = False
            self._report(key, f"check failed, {key}: {message}")


def measure(workload: Workload, ref: Reference, seconds: float, tally: Tally,
            warm_up: bool = True, around=contextlib.nullcontext, between=None) -> list:
    """Optional warm-up pass, then whole timed passes until seconds elapse.

    around() is entered for the timed section of every timed pass;
    between(share) runs after each pass with the share of seconds elapsed
    since the warm-up, and its time counts against seconds.
    """
    if warm_up:
        tally.check_pass(workload, run_pass(workload, ref).results)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() < start + seconds:
        with around():
            p = run_pass(workload, ref)
        tally.check_pass(workload, p.results)
        p.results = None  # keep timings only
        passes.append(p)
        if between is not None:
            between((time.perf_counter() - start) / seconds)
    return passes


def pass_ref(passes: list) -> float:
    """Sum over jobs of the median normalised job time."""
    return sum(statistics.median(col) for col in zip(*(p.ratios for p in passes)))


def raw_pass_s(passes: list) -> float:
    return statistics.median(sum(p.durations_ns) for p in passes) / 1e9


def ref_ms(passes: list) -> float:
    return statistics.median(r for p in passes for r in p.refs_ns) / 1e6

"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Every correctness check must reject a deliberately perturbed output, the
normalised time of a job must scale with the work inside its bracket, and
equal seeds must give equal inputs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from polydot.catastrophe import CatastropheBoundary, OrbitEvent  # noqa: E402
from polydot.oracle import LocalizationWeights  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from independent import CheckFailed  # noqa: E402

SEED = 3


def _unit_ref():
    return 1


@pytest.fixture(scope="module")
def passes():
    """One checked pass of every workload: name -> (workload, results)."""
    out = {}
    for name, build in workloads.WORKLOADS.items():
        wl = build(SEED)
        tally = harness.Tally()
        results = harness.run_pass(wl, _unit_ref).results
        tally.check_pass(wl, results)
        assert tally.correct, f"{name}: a check fails on the unperturbed pass"
        assert tally.failed == sum(1 for j in wl.jobs for c in j.checks if c.fault)
        out[name] = (wl, results)
    return out


# ---------------------------------------------------------------------------
# perturbations, one per check name
# ---------------------------------------------------------------------------

def _mid_params(rep):
    s = rep.samples[len(rep.samples) // 2]
    return s, rep.path.primary_value(s.t)


def _line_structure(rep):
    extra = CatastropheBoundary("quantum", ("axis_bogus", "origin"), 0.0)
    return dataclasses.replace(rep, boundaries=rep.boundaries + (extra,))


def _line_refined(rep):
    s, loc = _mid_params(rep)
    fake = CatastropheBoundary("quantum", (s.quantum_label, "axis_bogus"), loc,
                               params={"unrefined": "perturbed"})
    return dataclasses.replace(rep, boundaries=rep.boundaries + (fake,))


def _line_flip(rep):
    s, loc = _mid_params(rep)
    fake = CatastropheBoundary("quantum", (s.quantum_label, "axis_bogus"), loc,
                               params=dict(s.params))
    return dataclasses.replace(rep, boundaries=rep.boundaries + (fake,))


def _line_events(rep):
    s, loc = _mid_params(rep)
    fake = OrbitEvent("plane_bogus", "appears", loc, dict(s.params))
    return dataclasses.replace(rep, events=rep.events + (fake,))


def _line_samples(rep):
    return dataclasses.replace(rep, samples=tuple(
        dataclasses.replace(s, quantum_label="axis_bogus") for s in rep.samples))


def _raster_structure(m):
    errors = m.errors.copy()
    errors[0, 0] = "ValueError: perturbed"
    return dataclasses.replace(m, errors=errors)


def _raster_relabel(m):
    labels = m.labels_quantum.copy()
    labels[:, :] = "axis_bogus"
    return dataclasses.replace(m, labels_quantum=labels)


def _newton_stationary(points):
    p = points[0]
    return [dataclasses.replace(p, location=tuple(c + 1e-3 for c in p.location))] + points[1:]


def _newton_closed_form(points):
    return points[:-1]


def _match_agrees(diffs):
    name, (missing, spurious) = next(iter(diffs.items()))
    return dict(diffs, **{name: (["perturbed"], spurious)})


def _energies(sol):
    return dataclasses.replace(sol, energies=tuple(e * (1 + 1e-4) + 1e-4 for e in sol.energies))


def _weights(lws):
    lw = lws[0]
    return [LocalizationWeights({k: 1.5 for k in lw.weights}, -0.5, lw.radius)] + lws[1:]


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _cmd_dir(job):
    return workloads.OUT_DIR / "commands" / job


def _cmd_outputs(job, results):
    d = _cmd_dir(job)
    files = sorted(d.iterdir()) if d.is_dir() else []
    if files:
        files[0].write_bytes(files[0].read_bytes() + b" ")
    else:
        d.mkdir(parents=True)
        (d / "stray.txt").write_text("x")


def _cmd_stationary(job, results):
    def edit(data):
        data["points"][-1]["location"] = [c + 0.01 for c in data["points"][-1]["location"]]
    _edit_json(_cmd_dir(job) / "stationary.json", edit)


def _cmd_dominant(job, results):
    _edit_json(_cmd_dir(job) / "spectrum.json",
               lambda data: data["dominant"].update(label="axis_bogus"))


def _cmd_passed(job, results):
    _edit_json(_cmd_dir(job) / "verify.json", lambda data: data.update(passed=False))


# check name -> perturbation of the job's result (in memory) or of its files
RESULT_PERTURBATIONS = {
    ("scan", "line", "structure"): _line_structure,
    ("scan", "line", "refined"): _line_refined,
    ("scan", "line", "flip"): _line_flip,
    ("scan", "line", "events"): _line_events,
    ("scan", "line", "samples"): _line_samples,
    ("scan", "raster", "structure"): _raster_structure,
    ("scan", "raster", "relabel"): _raster_relabel,
    ("oracle", "newton", "stationary"): _newton_stationary,
    ("oracle", "newton", "closed_form"): _newton_closed_form,
    ("oracle", "match", "agrees"): _match_agrees,
    ("oracle", "fd1d", "tridiagonal"): _energies,
    ("oracle", "fd2d", "residual"): _energies,
    ("oracle", "fd3d", "residual"): _energies,
    ("oracle", "fd2d", "separable"): _energies,
    ("oracle", "fd3d", "separable"): _energies,
    ("oracle", "localization", "weights"): _weights,
    ("commands", "", "exit_code"): lambda code: code + 1,
}
FILE_PERTURBATIONS = {
    "outputs": _cmd_outputs,
    "stationary": _cmd_stationary,
    "dominant": _cmd_dominant,
    "passed": _cmd_passed,
}


def _result_perturbation(workload, job, check):
    for (wl, prefix, name), fn in RESULT_PERTURBATIONS.items():
        if wl == workload and job.startswith(prefix) and name == check:
            return fn
    return None


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_check_rejects_a_perturbed_result(passes, workload):
    wl, results = passes[workload]
    for job in wl.jobs:
        for check in job.checks:
            if check.fault:
                continue
            check.fn(results)  # accepts the unperturbed output
            perturb = _result_perturbation(workload, job.name, check.name)
            if perturb is not None:
                bad = dict(results, **{job.name: perturb(results[job.name])})
                with pytest.raises(CheckFailed):
                    check.fn(bad)
                continue
            assert workload == "commands" and check.name in FILE_PERTURBATIONS, \
                f"no perturbation for {job.name}/{check.name}"
            saved = BENCH / "_out" / "saved_commands"
            shutil.rmtree(saved, ignore_errors=True)
            shutil.copytree(workloads.OUT_DIR / "commands", saved)
            try:
                FILE_PERTURBATIONS[check.name](job.name, results)
                with pytest.raises(CheckFailed):
                    check.fn(results)
            finally:
                shutil.rmtree(workloads.OUT_DIR / "commands")
                saved.rename(workloads.OUT_DIR / "commands")


def _scaled_points(points, lam):
    return [(label, tuple(c * lam for c in loc)) for label, loc in points]


def test_scale_checks_accept_covariant_results_and_reject_todays(passes):
    """The known-fault scale checks fail on today's output and pass on an
    output that has the exact scaling symmetry."""
    wl, results = passes["scan"]
    checks = {j.name: j.checks[0] for j in wl.jobs if j.checks and j.checks[0].fault}
    _small, unit = results["enumerate_tiny"]
    with pytest.raises(CheckFailed):
        checks["enumerate_tiny"].fn(results)
    checks["enumerate_tiny"].fn(dict(results, enumerate_tiny=(_scaled_points(unit, 1e-7), unit)))

    readme = results["line_readme"]
    scaled = dataclasses.replace(readme, boundaries=tuple(
        dataclasses.replace(b, location=b.location * 0.01) for b in readme.boundaries))
    with pytest.raises(CheckFailed):
        checks["line_readme_shrunk"].fn(results)
    checks["line_readme_shrunk"].fn(dict(results, line_readme_shrunk=scaled))

    wl, results = passes["oracle"]
    check = next(c for j in wl.jobs for c in j.checks if c.fault)
    unit = results["newton_fig2_butterfly2d"]
    good = [dataclasses.replace(p, location=tuple(c * 1e-5 for c in p.location)) for p in unit]
    with pytest.raises(CheckFailed):
        check.fn(results)
    check.fn(dict(results, newton_fig2_butterfly2d_shrunk=good))


def test_exchange_check_rejects_todays_result_and_accepts_a_refined_one(passes):
    wl, results = passes["scan"]
    job = next(j for j in wl.jobs if j.name == "line_fig1_cusp2d_exchange")
    check = next(c for c in job.checks if c.fault)
    assert check.name == "refined"
    with pytest.raises(CheckFailed):
        check.fn(results)
    rep = results[job.name]
    refined = dataclasses.replace(rep, boundaries=tuple(
        dataclasses.replace(b, params={"alpha": b.location}) for b in rep.boundaries))
    check.fn(dict(results, line_fig1_cusp2d_exchange=refined))


# ---------------------------------------------------------------------------
# the measurement
# ---------------------------------------------------------------------------

def test_repeating_a_job_doubles_its_normalised_time():
    wl = workloads.scan_workload(SEED)
    wl.jobs = [j for j in wl.jobs if j.name in ("line_readme", "line_fig1_cusp2d", "raster_readme")]
    ref = harness.Reference()
    harness.run_pass(wl, ref)  # warm-up

    j = wl.jobs[0]
    doubled = harness.Workload(wl.name, [harness.Job(j.name, lambda r, f=j.fn: (f(r), f(r))[1],
                                                     j.desc, j.checks)] + wl.jobs[1:])
    runs = {"once": [], "twice": []}
    for _ in range(7):  # alternate, so that a change in machine load hits both alike
        runs["once"].append(harness.run_pass(wl, ref).ratios)
        runs["twice"].append(harness.run_pass(doubled, ref).ratios)
    once, twice = ([statistics.median(col) for col in zip(*r)] for r in runs.values())
    assert 1.6 < twice[0] / once[0] < 2.4
    assert 0.7 < twice[2] / once[2] < 1.4  # the others stay put


def test_pass_ref_sums_per_job_medians():
    p1 = harness.PassResult([2, 4], [1.0, 3.0], [1, 1, 1], None)
    p2 = harness.PassResult([2, 4], [2.0, 5.0], [1, 1, 1], None)
    p3 = harness.PassResult([2, 4], [9.0, 4.0], [1, 1, 1], None)
    assert harness.pass_ref([p1, p2, p3]) == 2.0 + 4.0


def test_failed_share_is_fixed_per_pass(passes):
    wl, results = passes["scan"]
    tallies = []
    for n in (1, 3):
        t = harness.Tally()
        for _ in range(n):
            t.check_pass(wl, results)
        tallies.append(t)
    assert tallies[0].failed * 3 == tallies[1].failed
    assert tallies[0].attempted * 3 == tallies[1].attempted


# ---------------------------------------------------------------------------
# inputs and tracing
# ---------------------------------------------------------------------------

_DIGEST = ("import sys, hashlib; sys.path[:0] = [{bench!r}, {src!r}]; import workloads; "
           "print(hashlib.sha256(workloads.describe(workloads.WORKLOADS[{wl!r}]({seed}))"
           ".encode()).hexdigest())")


def _input_digest(workload, seed, hashseed):
    code = _DIGEST.format(bench=str(BENCH), src=str(BENCH.parent / "src"), wl=workload, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout.strip()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = _input_digest(workload, 11, hashseed=1)
    assert first == _input_digest(workload, 11, hashseed=2)
    assert first != _input_digest(workload, 12, hashseed=1)


def test_traced_pass_reports_every_layer_metric():
    wl = workloads.commands_workload(SEED)
    wl.jobs = [j for j in wl.jobs if j.name in ("analyze_fig1_cusp2d", "scan_line_readme")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        harness.run_pass(wl, _unit_ref)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    metrics = tracing.pass_metrics(tracer.spans, 0, len(tracer.spans))
    assert set(metrics) == set(tracing.LAYER_UNITS)
    assert metrics["cli.analyze_ms"] > 0 and metrics["cli.scan_line_ms"] > 0
    assert metrics["catastrophe.boundaries"] == 2
    assert metrics["catastrophe.evals_per_boundary"] > 5
    assert metrics["reports.bytes"] > 0
    # every wrapper was removed again
    from polydot import cli, spectra, verify
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(spectra.enumerate_stationary, "__wrapped__")
    assert not any(hasattr(s, "__wrapped__") for s in verify.SUITES)


def test_benchmark_refuses_a_tree_without_the_program():
    bare = BENCH / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

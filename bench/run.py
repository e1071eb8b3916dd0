"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 31 --trace 0

Run from the root of a polydot source tree; the program is imported from
its src/ directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics (pass_ref, setup_s, peak_rss_mb); --trace 1 reports the
per-layer metrics of a traced run and writes its spans to
bench/_out/trace_<workload>.json.
"""

import os

# single-threaded BLAS, set before numpy loads: one process, one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DEFAULT_SEED = 1
SETUP_PROBES = 15
# setup_s is quoted at this reference-kernel time, the kernel's time on a
# quiet core of the measurement host; raw set-up time there moves by half
# between quiet and busy minutes, more than any bound could allow
NOMINAL_REF_S = 0.006


def import_program():
    """Put the tree's src/ first on the path and import polydot from it."""
    sys.path.insert(0, str(SRC))
    try:
        import polydot
    except ImportError as err:
        sys.exit(f"cannot import polydot from {SRC}: {err}")
    if Path(polydot.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"polydot imported from {polydot.__file__}, not from {SRC}")


def build_workload(name, seed):
    import_program()
    import workloads
    return workloads.WORKLOADS[name](seed)


def setup_probe(args, ref) -> tuple:
    """(seconds, reference units) from the start of a fresh process until its
    inputs are ready (imports, corpus load, input generation), bracketed by
    reference runs like a job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    before = ref()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            sys.exit("set-up probe failed")
    after = ref()
    return t1 - t0, (t1 - t0) * 1e9 / (0.5 * (before + after))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(args, workload, ref, tally):
    """setup_s is the median over SETUP_PROBES fresh processes of the set-up
    time in reference units, quoted in seconds at NOMINAL_REF_S.  The probes
    run between timed passes, spread evenly over --seconds, and their time
    counts against it.  Raw times are returned for display only."""
    from harness import measure, pass_ref, raw_pass_s, ref_ms
    probes = []

    def probe(share):
        while len(probes) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * share)):
            probes.append(setup_probe(args, ref))

    passes = measure(workload, ref, args.seconds, tally, between=probe)
    probe(1.0)  # probes still due when --seconds ran out
    return {
        "pass_ref": (pass_ref(passes), "ref"),
        "setup_s": (statistics.median(r for _s, r in probes) * NOMINAL_REF_S, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {
        "raw setup_s": (statistics.median(s for s, _r in probes), "s"),
        "raw pass_s": (raw_pass_s(passes), "s"),
        "raw ref_ms": (ref_ms(passes), "ms"),
        "timed passes": (len(passes), "count"),
    }


def per_layer(args, workload, ref, tally):
    """Half the time untraced, half traced; per-layer values are medians over
    the traced passes."""
    from harness import measure, pass_ref, raw_pass_s, ref_ms
    from tracing import LAYER_UNITS, Tracer, median_metrics, pass_metrics

    base = measure(workload, ref, args.seconds / 2, tally)
    tracer = Tracer()
    ranges = []

    @contextlib.contextmanager
    def traced_pass():
        lo = len(tracer.spans)
        tracer.enabled = True
        try:
            yield
        finally:
            tracer.enabled = False
            ranges.append([lo, len(tracer.spans)])

    tracer.install()
    try:
        traced = measure(workload, ref, args.seconds / 2, tally, warm_up=False, around=traced_pass)
    finally:
        tracer.uninstall()
    layers = median_metrics([pass_metrics(tracer.spans, lo, hi) for lo, hi in ranges])
    out = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
    out["bench.ref_ms"] = (ref_ms(base), "ms")
    out["bench.pass_s"] = (raw_pass_s(base), "s")
    out["bench.trace_overhead_ref"] = (pass_ref(traced) - pass_ref(base), "ref")
    tracer.write(BENCH / "_out" / f"trace_{args.workload}.json", ranges,
                 {"workload": args.workload, "seed": args.seed})
    return out, {"traced passes": (len(traced), "count")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "oracle", "commands"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=31.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print 'ready' and exit (times set-up)")
    args = parser.parse_args(argv)

    workload = build_workload(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    from harness import Reference, Tally
    ref, tally = Reference(), Tally()
    metrics, info = (per_layer if args.trace else end_to_end)(args, workload, ref, tally)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{args.workload:9s} {name:42s} {value:14.6g} {unit}")
    print(f"{args.workload:9s} {'operations attempted / failed':42s} "
          f"{tally.attempted:14d} / {tally.failed}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

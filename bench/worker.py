"""One workload in its own process: set up, run timed units, check every output.

Started by run.py; prints one JSON record as its last line of output:
``ready`` (time.monotonic() just before the first timed unit), the unit
durations, attempted and failed operations, the problems found by the
checks, peak RSS and, when traced, the per-layer metrics.

  python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
  python3 bench/worker.py --workload NAME --seed N --scratch DIR --setup-only
"""

import os
import sys

# BLAS threads are fixed before numpy loads, so that each process runs the
# census's own worker threads and nothing else.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

# Fewest units a run times, however short --seconds is.
MIN_UNITS = 3


def run_units(wl, seconds: float, tracer=None) -> dict:
    """Repeat whole units until `seconds` of timed work; check each after it."""
    plain, traced = [], []
    attempted = failed = 0
    problems = []
    while sum(plain) + sum(traced) < seconds or len(plain) < MIN_UNITS:
        for trace_it in (False, True) if tracer else (False,):
            if trace_it:
                tracer.install()
            t0 = time.perf_counter()
            out = wl.run_unit()
            dt = time.perf_counter() - t0
            if trace_it:
                tracer.uninstall()
                tracer.totals.add_unit(tracer.take())
                traced.append(dt)
            else:
                plain.append(dt)
            f, p = wl.check(out)
            attempted += wl.ops_per_unit
            failed += f
            problems += p
    return {"durations": plain, "traced_durations": traced, "attempted": attempted,
            "failed": failed, "problems": sorted(set(problems))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        tracer = spans.Tracer("landscape_lab")
        rec = run_units(wl, args.seconds, tracer)
        overhead = 100.0 * (statistics.median(rec["traced_durations"])
                            / statistics.median(rec["durations"]) - 1.0)
        rec["per_layer"] = tracer.totals.metrics(overhead)
        rec["skipped"] = tracer.skipped
    else:
        rec = run_units(wl, args.seconds)
    rec["ready"] = ready
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of landscape-lab: three workloads, timed end to end or traced per layer.

  python3 bench/run.py --workload basin-census --seed 1 --seconds 20 --trace 0

Each workload runs in fresh Python processes started from here (see
README.md). The last line of output is one JSON object with the keys
correct, attempted, failed and metrics; without --workload every workload
runs in turn and each prints its own line. A detailed record of each run,
with every unit's duration, is written under bench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("basin-census", "landscape-sweep", "paper-certify")

# Set-up is measured in this many processes that stop before the first
# unit, plus the timed process itself; the median is reported.
SETUP_PROBES = 6
# Every worker of one workload must end within this many seconds in all.
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def _spawn(args: list, env: dict, deadline: float) -> tuple:
    """Run the worker to completion; return (start time, its JSON record)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the {DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return started, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed), "--scratch", scratch]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            started, rec = _spawn(base + ["--setup-only"], env, deadline)
            setups.append(rec["ready"] - started)
        started, rec = _spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
        setups.append(rec["ready"] - started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        metrics = {key: {"value": rec["per_layer"][key], "unit": unit}
                   for key, unit in spans.per_layer_metrics()}
    else:
        d = rec["durations"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "units_per_s": {"value": len(d) / sum(d), "unit": "1/s"},
            "unit_p50_ms": {"value": 1e3 * statistics.median(d), "unit": "ms"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not rec["problems"], "attempted": rec["attempted"],
              "failed": rec["failed"], "metrics": metrics}
    record = dict(rec, workload=name, seed=seed, seconds=seconds, trace=trace,
                  setups=setups, result=result)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for p in rec["problems"]:
        print(f"{name}: check failed: {p}", file=sys.stderr)
    for s in rec.get("skipped", ()):
        print(f"{name}: traced name not in the program, skipped: {s}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "landscape_lab", "__init__.py")):
        print(f"error: no landscape_lab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for key, m in result["metrics"].items():
            print(f"{name:16s} {key:48s} {m['value']:.6g} {m['unit']}")
        line = result if args.workload else dict(result, workload=name)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

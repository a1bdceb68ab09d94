#!/usr/bin/env python3
"""The repository benchmark: build the simulator and time one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds perfbench/ (and with it
the simulator libraries in src/) into .bench_build/perfbench, runs one
discarded warm-up iteration, then starts fresh perfbench processes until
--seconds have passed.  Each process is one iteration of the workload and
reports its own wall time, set-up time, CPU time and peak RSS, so those
belong to that iteration alone.  The metrics are medians over the measured
iterations; every iteration's outputs are checked.

The simulated world (catalog, population, sessions) is drawn from the seed,
and the catalog alone moves a run's cost by about 10% from seed to seed.
A run therefore cycles over WORLDS fixed worlds, iteration k simulating
world seed + (k % WORLDS) * WORLD_STRIDE, and each metric is the median
over the worlds of each world's median.  A faster program runs more
iterations but samples the same worlds with the same weight.  World 0 is
the world of the seed itself; the simulated component counts and digests
reported are those of world 0, so they repeat exactly for a given seed.
The workload fixes sessions per world and the thread count (perfbench.cpp).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced iterations on the same worlds, prints the per-layer metrics of the
traced ones, checks that both produce the same record digest, and reports
the median over worlds of traced minus untraced wall time as
trace.overhead_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics, named as in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
BINARY = os.path.join(BUILD_DIR, "perfbench")

NPROC = len(os.sched_getaffinity(0))
WORKLOADS = ("paper_serial", "paper_parallel", "overload_spill")
WORLDS = 5
WORLD_STRIDE = 1_000_003
ITERATION_TIMEOUT_S = 120

# The child never sees a VSTREAM_* variable: the measured code would read it.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("VSTREAM_")}


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found: expected src/ beside perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(NPROC)],
                   check=True, stdout=sys.stderr)


def iterate(workload, world_seed, trace, index):
    """Run one iteration in a fresh process and return its report."""
    scratch = os.path.join(SCRATCH_DIR, f"{os.getpid()}-{index}")
    cmd = [BINARY, "--workload", workload, "--seed", str(world_seed),
           "--scratch", scratch]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["sessions_per_s"] = report["sessions"] / (report["wall_s"] - report["setup_s"])
    return report


def same_outputs(a, b):
    return a["digest"] == b["digest"] and a["counts"] == b["counts"]


def world_median(reports, value):
    """Median over the worlds of each world's median of value(report)."""
    by_world = {}
    for r in reports:
        by_world.setdefault(r["seed"], []).append(value(r))
    return statistics.median(statistics.median(v) for v in by_world.values())


def describe(name, unit, median, values):
    """One human-readable line: median, highest value and sample count."""
    return (f"  {name:32s} median {median:.6g} {unit}"
            f"  max {max(values):.6g}  n={len(values)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    build()
    os.makedirs(SCRATCH_DIR, exist_ok=True)

    def world(k):
        return args.seed + (k % WORLDS) * WORLD_STRIDE

    warmup = iterate(args.workload, world(0), False, "warmup")
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(plain) < WORLDS:
        k = len(plain)
        plain.append(iterate(args.workload, world(k), False, k))
        if args.trace:
            traced.append(iterate(args.workload, world(k), True, f"{k}t"))

    reports = [warmup] + plain + traced
    attempted = sum(r["checks_attempted"] for r in reports)
    failed = sum(r["checks_failed"] for r in reports)
    failures = [f"world seed {r['seed']}: {msg}" for r in reports for msg in r["failures"]]
    notes = [f"world seed {r['seed']}: {msg}" for r in reports for msg in r["notes"]]
    # The same world gives the same records, in a fresh process and traced.
    pairs = [(warmup, plain[0], "warm-up and first iteration")]
    pairs += [(plain[k % WORLDS], plain[k], f"iterations {k % WORLDS} and {k}")
              for k in range(WORLDS, len(plain))]
    pairs += [(p, t, f"untraced and traced iteration {k}")
              for k, (p, t) in enumerate(zip(plain, traced))]
    for a, b, what in pairs:
        attempted += 1
        if not same_outputs(a, b):
            failed += 1
            failures.append(f"{what} differ in digest or component counts")

    first = plain[0]
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{first['sessions']} sessions per world, threads {first['threads']}, "
          f"shards {first['shards']}, host cores {NPROC}, "
          f"{len(plain)} iterations over {WORLDS} worlds")
    print(f"  digest of world 0: {json.dumps(plain[0]['digest'])}")
    metrics = {}
    if args.trace == 0:
        for m in declared["end_to_end"]:
            name, unit = m["name"], m["unit"]
            value = world_median(plain, lambda r: r[name])
            print(describe(name, unit, value, [r[name] for r in plain]))
            metrics[name] = {"value": value, "unit": unit}
    else:
        for m in declared["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_s":
                # Paired on the same world, so world-to-world cost drops out.
                values = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
                value = statistics.median(values)
                print(describe(name, unit, value, values))
            elif name in plain[0]["counts"]:
                value = plain[0]["counts"][name]
                print(f"  {name:32s} {value:.6g} {unit} (world 0)")
            elif name in traced[0]["layers"]:
                value = world_median(traced, lambda r: r["layers"][name])
                print(describe(name, unit, value, [r["layers"][name] for r in traced]))
            else:
                value = 0
                print(f"  {name:32s} n/a on this workload, reported as 0")
            metrics[name] = {"value": value, "unit": unit}
    print(f"  {'failed_share':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    for msg in failures[:10]:
        print(f"  check failed: {msg}")
    for msg in notes[:10]:
        print(f"  note: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        sys.exit(1)

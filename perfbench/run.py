#!/usr/bin/env python3
"""End-to-end benchmark of the SerDes link simulator.

Builds the library, serdes_cli and the harness from this checkout's
sources (Release, under .bench_build/), runs one seeded workload through
the harness, checks that every generated request spec passes
`serdes_cli validate`, and prints one JSON result as the last stdout line.

    python3 perfbench/run.py --workload link_mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --baseline     # informational CLI timing table

See perfbench/README.md for the workloads, metrics and checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "serdes_perfbench")
CLI = os.path.join(BUILD, "tools", "serdes_cli")
WORKLOADS = ("link_mc", "link_stat", "sweep_store")
DEADLINE_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no repository sources next to {HERE}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "serdes_perfbench", "serdes_cli"],
                   stdout=sys.stderr, check=True)


def bench_env():
    env = dict(os.environ)
    env.pop("SERDES_FAULT", None)  # the store's fault-injection hook
    return env


def run_workload(args, t0):
    spec_dir = os.path.join(ROOT, ".bench_build", "specs",
                            f"{args.workload}-seed{args.seed}")
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ROOT,
           "--work-dir", os.path.join(ROOT, ".bench_build", "work"),
           "--dump-specs", spec_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=bench_env(),
                          timeout=max(1.0, DEADLINE_S - (time.monotonic() - t0)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])

    # Reproducibility: every generated request replays through the CLI.
    specs = sorted(os.path.join(spec_dir, f) for f in os.listdir(spec_dir)
                   if f.endswith(".json"))
    check = subprocess.run([CLI, "validate", *specs], stdout=subprocess.PIPE,
                           text=True, env=bench_env(), timeout=60)
    invalid = [l for l in check.stdout.splitlines() if ": INVALID" in l]
    for line in invalid:
        log(f"FAILED validate: {line}")
    result["attempted"] += len(specs)
    result["failed"] += len(invalid)
    if check.returncode != 0:
        result["correct"] = False
    return result


def baseline():
    """Times the six serdes_cli commands of the ROADMAP baseline table."""
    cases = [("run", "paper_default"), ("run", "stat_ci"),
             ("run", "trained_ci"), ("run", "bus_ci"),
             ("sweep", "ci_matrix"), ("optimize", "paper_default")]
    print("| Command | Median of 5 (ms) |")
    print("|---|---|")
    for command, name in cases:
        path = os.path.join(ROOT, "examples", "specs", f"{name}.json")
        times = []
        for _ in range(5):
            t = time.perf_counter()
            subprocess.run([CLI, command, path], stdout=subprocess.DEVNULL,
                           env=bench_env(), check=True)
            times.append((time.perf_counter() - t) * 1e3)
        print(f"| `{command} {name}` | {statistics.median(times):.0f} |")


def main():
    t0 = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the serdes_cli baseline table and exit")
    args = parser.parse_args()
    if not args.baseline and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.baseline:
            baseline()
            return 0
        result = run_workload(args, t0)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare a fresh BENCH_perf.json against checked-in throughput floors.

Fails (exit 1) when any kernel present in the floors file runs below its
floor.  The floors encode "no more than a 25% regression from the recorded
reference run", derated for machine variance between the reference box and
CI runners — regenerate them from a representative run with --write, which
stores items_per_s * WRITE_FACTOR per kernel.

Usage:
  check_perf_floors.py FRESH.json FLOORS.json           # check (CI gate)
  check_perf_floors.py FRESH.json FLOORS.json --write   # regenerate floors

One-command local repro of the CI gate:
  cmake --build build --target bench_perf_kernels && \
      ./build/bench/bench_perf_kernels BENCH_perf.json --deep-bits=262144 && \
      python3 bench/check_perf_floors.py BENCH_perf.json bench/BENCH_perf_floors.json
"""

import json
import sys

# reference * (1 - 0.25 regression budget) * 1/3 machine-variance derate:
# GitHub-hosted runners span CPU generations and are oversubscribed, so the
# derate is generous — the gate exists to catch order-of-magnitude kernel
# regressions, not single-digit drift (the uploaded artifact tracks that).
WRITE_FACTOR = 0.75 / 3.0

# Kernels excluded from the gate: single-shot timings (iterations == 1 at
# small --deep-bits) are too noisy for a hard floor; the deep kernel's
# trajectory is tracked through the uploaded artifact instead.
EXCLUDE = ("deep_ber_streaming_bit",)

# Kernels that MUST have a floor: if one goes missing from the floors file
# (e.g. a careless --write on a build without the bench), the gate fails
# instead of silently ungating the kernel.  The stat-engine kernel backs
# the `serdes_cli stat` path and the "stat"/"both" sweep scenarios; the
# one-lane AWGN and restore kernels (a single link is the one-lane tile)
# run on every sample of both streaming MC passes; the lanes8 kernels pin
# the SoA lane-tiling speedup (the batch8 floor is
# deliberately >= 3x the batch4 floor, so losing the tiling win is a
# gate failure, not drift).
REQUIRED = (
    "stat_engine_paper_default",
    "stat_engine_bus4_pam4",
    "stat_engine_dfe_sample",
    "optimize_paper_default",
    "stage_pam4_slicer_sample",
    "full_link_run_bit",
    "stage_awgn_sample",
    "stage_restore_sample",
    "simulator_run_batch8_lanes_bit",
    "stage_awgn_lanes8_sample",
    "stage_channel_fir64_lanes8_sample",
    "stage_ctle_lanes8_sample",
    "stage_restore_lanes8_sample",
    "stage_rfi_lanes8_sample",
    "stage_sampler_cdr_lanes8_sample",
)


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b["items_per_s"] for b in data["benchmarks"]}


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    fresh_path, floors_path = args
    fresh = load(fresh_path)

    if "--write" in sys.argv:
        floors = {
            name: round(rate * WRITE_FACTOR, 1)
            for name, rate in sorted(fresh.items())
            if name not in EXCLUDE
        }
        with open(floors_path, "w") as f:
            json.dump({"floors": floors}, f, indent=2)
            f.write("\n")
        print(f"wrote {floors_path} ({len(floors)} floors, "
              f"factor {WRITE_FACTOR})")
        return 0

    with open(floors_path) as f:
        floors = json.load(f)["floors"]
    failures = []
    for name in REQUIRED:
        if name not in floors:
            failures.append(f"{name}: required kernel has no floor in "
                            f"{floors_path}")
    for name, floor in sorted(floors.items()):
        rate = fresh.get(name)
        if rate is None:
            failures.append(f"{name}: missing from {fresh_path}")
            continue
        verdict = "ok" if rate >= floor else "REGRESSION"
        print(f"{name:40s} {rate:16.1f} items/s  floor {floor:16.1f}  "
              f"{verdict}")
        if rate < floor:
            failures.append(
                f"{name}: {rate:.1f} items/s is below the floor {floor:.1f}")
    if failures:
        print("\nperf floor check FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nperf floor check passed ({len(floors)} kernels)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the DIFT pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <monitor|debug|provenance|epoch2> \
        --seed <n> --seconds <s> --trace <0|1> [--tiny]

Builds the `perfbench` package (its own workspace, compiling the
repository's crates from source) with cargo in release mode, offline,
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with a
private scratch directory under `.bench_work/`. The scratch directory
holds the `debug` pipeline's durable segment stores while the run lasts
and is removed afterwards; the traced run's spans (Chrome trace-event
JSON) are kept as `.bench_work/spans-<workload>-seed<n>.json`.

The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it
carries the run's stamps (seed, host cores, workers, failed_frac) and the
calibration / reconciliation tables. On a build or run failure the
script exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("monitor", "debug", "provenance", "epoch2")
# The benchmark process itself must end well within the per-run limit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    binary = os.path.join(target, "release", "perfbench")

    work_root = ".bench_work"
    work = os.path.join(work_root, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ]
    if args.tiny:
        cmd.append("--tiny")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    spans = os.path.join(work, "spans.json")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.json"))
    shutil.rmtree(work, ignore_errors=True)
    if run.returncode != 0:
        fail(f"benchmark exited {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        fail("benchmark printed no result")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

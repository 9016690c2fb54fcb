#!/usr/bin/env python3
"""TCQ benchmark: builds the program from source, then runs one workload in
one JVM with one closed-loop client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--data-seed <n>]
    python3 perfbench/run.py --self-test        # the benchmark's own tests
    python3 perfbench/run.py --record           # re-record perfbench/digests.tsv

Run from the repository root. Build output and trace files go to
$CARGO_TARGET_DIR (default .bench_build)/perfbench. The last line of standard
output is the JSON result; see perfbench/README.md for the metrics.
"""
import argparse
import os
import subprocess
import sys

import build

# Pinned heap: the youtube-scan answer alone holds about 1 GB of edges.
JVM_OPTIONS = ["-Xms4g", "-Xmx4g", "-Xmn2g", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy"]
TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["selected", "youtube-scan", "sparse-ts", "stream"])
    ap.add_argument("--seed", type=int, default=0, help="edge-tie and query order")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--data-seed", type=int, default=0, help="re-seeds the stand-ins; 0 keeps Table 2/3")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    if not (a.workload or a.self_test or a.record):
        ap.error("--workload is required")

    out = os.path.join(build.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        classpath = build.build(out)
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    digests = os.path.join(build.HERE, "digests.tsv")
    if a.self_test:
        args = ["--self-test", "1", "--digests", digests]
    elif a.record:
        args = ["--record", digests]
    else:
        args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--data-seed", str(a.data_seed),
                "--digests", digests, "--trace-dir", os.path.join(out, "traces")]
    cmd = ["java"] + JVM_OPTIONS + ["-cp", classpath, "repro.perfbench.Main"] + args
    try:
        return subprocess.run(cmd, cwd=build.ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"timed out after {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

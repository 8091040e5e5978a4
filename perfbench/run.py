#!/usr/bin/env python3
"""Builds and runs the kacc host-time benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload native-latency --seed 1 \
        --seconds 10 --trace 0 [--smoke]

Run from the repository root. The benchmark is compiled from the
repository's src/ tree into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The last stdout line is the JSON result; lines
before it start with '#' and carry provenance. The exit code is the
benchmark's: 0 ok, 1 a call failed or mis-verified, 2 bad arguments or no
sources to build, 3 the workload cannot run on this host, 124 timeout.
"""
import argparse
import glob
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: kacc sources (src/) not found next to perfbench/; "
                 "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "kacc_perf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="fewer cells and smaller simulated teams (tests)")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(out, "trace", args.workload)
        os.makedirs(trace_dir, exist_ok=True)
        for old in glob.glob(os.path.join(trace_dir, "spans-*.csv")):
            os.remove(old)
        cmd += ["--trace-dir", trace_dir]
    if args.smoke:
        cmd.append("--smoke")

    # Own process group, so a timeout also reaps the forked ranks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(124)
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(proc.returncode or 1)
    # Library warnings (drift alarms among them) are counted, not failures.
    warns = sum(1 for line in stderr.splitlines() if " WARN " in line)
    for line in lines[:-1]:
        print(line)
    print("# library WARN lines: %d" % warns)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

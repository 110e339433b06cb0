#!/usr/bin/env python3
"""Builds the CLEAR benchmark harness from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign_ino --seed 1 --seconds 10 --trace 0

The harness and libclear are built with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the current directory; a rebuild of an
up-to-date tree is a no-op.  Build output goes to standard error.  The
harness prints its metrics to standard output, the last line being one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 only when every output matched its reference.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign_ino", "campaign_ooo", "explore_warm", "fleet_shards")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary dir."""
    root = os.path.dirname(HERE)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("perfbench: no clear sources beside perfbench/", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir


def wait_group_gone(pgid, limit_s=10.0):
    """Waits until no process of the group is left."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--input-seed", type=int, default=0,
                    help="benchmark input data set (0: canonical)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        bin_dir = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if bin_dir is None:
        return 2

    work = os.path.join(".bench_run", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(bin_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--input-seed", str(args.input_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--clear-bin", os.path.join(bin_dir, "clear", "clear"),
           "--pins", os.path.join(HERE, "pins.txt")]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the `clear serve` workers.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        rc = 3
    finally:
        # The harness stops its workers; this only catches a crashed one's.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        wait_group_gone(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())

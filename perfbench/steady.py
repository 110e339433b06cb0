#!/usr/bin/env python3
"""Steadiness mode: runs workloads repeatedly and checks their spread.

Run from the repository root:

    # two interleaved sets of ten runs per workload, on the same seeds
    # 1..10; writes every run's metrics
    python3 perfbench/steady.py --runs 10 --out sets.json
    python3 perfbench/steady.py --runs 5 --workload fleet_shards
    # the same, with the first set run from another checkout (the parent
    # commit) and the second from this one
    python3 perfbench/steady.py --against ../parent --out pair.json

Each set runs the same seeds.  For every seed, the two sets run back to
back, alternating which goes first, so a slow phase of a shared host falls
on both sets alike.  It prints, per set, workload and end-to-end metric,
the median, the first and third quartiles (statistics.quantiles(values,
n=4)), the spread (Q3 - Q1) / median and the sample count; then the second
set's median against the first's.  It fails when a spread exceeds the
metric's bound in BENCHMARK.json, or when the second median is worse than
the first by more than the bound.  Each checkout builds into its own
.bench_build directory.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def one_run(checkout, workload, seed, seconds):
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: incorrect output" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def print_spreads(label, runs):
    """Prints each metric's spread; returns False when one exceeds its bound."""
    ok = True
    for w, rs in runs.items():
        print("%s %s (%d runs)" % (label, w, len(rs)))
        for name, spec in BOUNDS.items():
            med, q1, q3, spread = summary([r[name] for r in rs])
            steady = spread <= spec["bound"]
            ok &= steady
            note = "" if steady else "  UNSTEADY"
            if steady and spread > spec["bound"] / 3:
                note = "  (over a third of the bound)"
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f, n=%d)%s" % (name, med, q1, q3, spread,
                                            spec["bound"], len(rs), note))
    return ok


def compare(a, b):
    """Prints b's medians against a's; returns False on a regression."""
    ok = True
    for w in sorted(set(a) & set(b)):
        for name, spec in BOUNDS.items():
            ma = statistics.median(r[name] for r in a[w])
            mb = statistics.median(r[name] for r in b[w])
            worse = (mb - ma) / ma if spec["better"] == "lower" else \
                (ma - mb) / ma
            fine = worse <= spec["bound"]
            ok &= fine
            print("%-13s %-14s %-12.6g -> %-12.6g worse by %+.4f (bound %.2f)"
                  "%s" % (w, name, ma, mb, worse, spec["bound"],
                          "" if fine else "  REGRESSED"))
    return ok


def run(args):
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    here = os.path.dirname(HERE)
    checkouts = [args.against or here, here]
    sets = [{w: [] for w in workloads}, {w: [] for w in workloads}]
    for i in range(args.runs):
        seed = args.seed0 + i
        for j, w in enumerate(workloads):
            order = (0, 1) if (i + j) % 2 == 0 else (1, 0)
            for s in order:
                sets[s][w].append(one_run(checkouts[s], w, seed,
                                          args.seconds))
                print("set %d %s seed %d: %s" % (
                    s + 1, w, seed, " ".join(
                        "%s=%.6g" % kv for kv in sets[s][w][-1].items())),
                      file=sys.stderr, flush=True)
    ok = print_spreads("set 1", sets[0])
    ok &= print_spreads("set 2", sets[1])
    print("set 2 against set 1")
    ok &= compare(sets[0], sets[1])
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"set1": sets[0], "set2": sets[1]}, f, indent=1)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default every BENCHMARK.json workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--against", help="checkout that runs the first set")
    ap.add_argument("--out")
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())

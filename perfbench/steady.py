#!/usr/bin/env python3
"""Steadiness check: runs one workload several times and reports spreads.

    python3 perfbench/steady.py --workload adequacy [--runs 10]
        [--first-seed 1] [--seconds <s>] [--trace 0|1]

Each run uses the next seed. For every metric it prints the median, the
first and third quartile (Python's statistics.quantiles, n=4), the
spread (q3 - q1) / median, and, for end-to-end metrics, the bound from
BENCHMARK.json with the spread as a share of it. The host probe of every
run (a fixed integer kernel, printed by the benchmark) is listed too, so
a slow host phase can be told apart from a slow program. Exit code 1
when a run fails, when the share of failed operations differs between
runs, or when the spread of any end-to-end metric exceeds its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise RuntimeError("run failed: seed %d, exit %d" % (seed,
                                                              p.returncode))
    probe = None
    for line in lines:
        m = re.match(r"# host probe ([0-9.]+) ms", line)
        if m:
            probe = float(m.group(1))
    return json.loads(lines[-1]), probe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, probes, shares = {}, [], set()
    ok = True
    for k in range(a.runs):
        seed = a.first_seed + k
        res, probe = run_once(a.workload, seed, seconds, a.trace)
        probes.append(probe)
        shares.add(res["failed"] / res["attempted"])
        ok &= bool(res["correct"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: correct=%s attempted=%d failed=%d probe=%s ms %s" %
              (seed, res["correct"], res["attempted"], res["failed"], probe,
               " ".join("%s=%.4g" % (n, m["value"])
                        for n, m in res["metrics"].items()
                        if n in bounds)))
        sys.stdout.flush()

    print("\n%-34s %12s %12s %12s %8s %7s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "/bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name) if a.trace == 0 else None
        rel = spread / bound if bound else None
        print("%-34s %12.6g %12.6g %12.6g %7.2f%% %7s %7s" %
              (name, med, q1, q3, 100 * spread,
               "" if bound is None else "%.0f%%" % (100 * bound),
               "" if rel is None else "%.2f" % rel))
        if bound is not None and spread > bound:
            ok = False
    print("\nhost probe ms: " + ", ".join("%.3f" % p for p in probes
                                          if p is not None))
    print("failed shares: %s" % sorted(shares))
    ok &= len(shares) == 1
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

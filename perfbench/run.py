#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); spans and
the trace files a run records go to perfbench/out, and the recorded
trace files are removed when the run ends. The last line of standard
output is the result object printed by the benchmark binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "adequacy",
                                       "pipeline.h")):
        sys.stderr.write("perfbench: library sources not found under "
                         + os.path.join(ROOT, "src") + "\n")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    args = [binary] + sys.argv[1:] + ["--out-dir",
                                      os.path.join(HERE, "out")]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

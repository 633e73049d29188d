#!/usr/bin/env python3
"""Build the repo benchmark from source and run one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipe|fleet|replay --seed N --seconds S --trace 0|1

The arguments go unchanged to perfbench/bin/main.exe, which prints a
human-readable report and, as its last line, one JSON result object.  The
build's own output goes to stderr so stdout carries only the report.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "main.exe")


def main():
    # The benchmark measures the simulator in this checkout; without its
    # sources there is nothing to build, and that is an error.
    missing = [p for p in ("dune-project", "lib") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write("perfbench: not a checkout of the simulator (missing %s)\n"
                         % ", ".join(missing))
        return 2
    # Keep the build inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bin/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    # One CPU for the measurement.  The simulator runs on one domain, and
    # replay's threads take turns under the runtime lock; pinned, each
    # hand-off between them is a same-CPU switch instead of a cross-CPU
    # wake-up, whose cost swings with whatever else the host is running.
    # The build above still uses every CPU.  The highest-numbered CPU is
    # taken: CPU 0 is where Linux keeps most of its own housekeeping.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

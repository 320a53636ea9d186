#!/usr/bin/env python3
"""Entry point named by BENCHMARK.json: build perf.exe from source, run one
workload, and pass its output through.

    python3 bench/perf/run.py [--jobs N] --workload NAME --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to dune's _build
directory; a traced run writes its Chrome trace under bench/perf/out/.
The last line of standard output is perf.exe's JSON result; build output
goes to standard error. The exit code is perf.exe's, or 1 when the build
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

PERF = os.path.join("_build", "default", "bench", "perf", "perf.exe")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=2)
    a = p.parse_args()

    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "./bench/perf/perf.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(PERF):
        print("run.py: building bench/perf/perf.exe failed", file=sys.stderr)
        return 1

    cmd = [PERF, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--jobs", str(a.jobs)]
    if a.trace:
        out = os.path.join("bench", "perf", "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--trace", os.path.join(out, f"trace-{a.workload}-{a.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

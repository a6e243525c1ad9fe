#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 20 --trace 0

Builds the Go program in this directory against the simulator sources
one directory up, then runs it with the given arguments; its last line
of standard output is the result as JSON (see main.go). The binary, the
Go build cache, the CPU profile of a traced run and any Go tool state
live in .bench_build at the repository root, so a run writes nothing
outside the checkout.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(os.path.dirname(here), ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        PPROF_TMPDIR=out,
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    profile = os.path.join(out, "cpu.pprof")
    return subprocess.run(
        [binary] + sys.argv[1:] + ["--profile", profile], env=env
    ).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig23-sim --seed 42 --seconds 30 --trace 0

Every argument is passed to the benchmark. The Go build cache, module
cache and the binary are kept under .bench_build/ in the checkout, so the
benchmark reads and writes nothing outside it.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload hot-run --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary. The Go build cache, the
module cache and the binary live under .bench_build/ at the repository
root, so a run reads and writes only inside the checkout. The binary runs
from the repository root; the last line of its standard output is the JSON
result. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomod"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOENV": "off",
    })
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

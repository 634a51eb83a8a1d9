#!/usr/bin/env python3
"""Build and run the ReSim performance ledger (the Go command in this directory).

Usage, from the root of a checkout:

    python3 bench/run.py --workload replay --seed 1 --seconds 28 --trace 0

Every argument is passed through to the Go command (see README.md). The Go
build cache, the binary and the traced run's outputs all live under
.bench_build/ in the checkout, so nothing is read or written elsewhere apart
from the installed Go toolchain. The benchmark's last line of standard output
is one JSON object; a failed build exits non-zero without printing one.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",  # never download a toolchain
        GOPROXY="off",  # the module has no third-party dependencies
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",  # ignore the user's go env file
    )
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "resim-bench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    args = [
        binary,
        "-golden", os.path.join(HERE, "testdata", "golden.json"),
        "-out", BUILD,
    ] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=HERE, env=env)

    def forward(signum, _frame):
        proc.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())

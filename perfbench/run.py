#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot-get --seed 1 --seconds 30 --trace 0

Every file the build and the run write lands under .bench_build/ in the
repository root: the Go build cache, the binary, the database (removed
when the run ends) and the traced run's span file. The last line of
standard output is the run's JSON result.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    run = subprocess.run(
        [binary, "-dir", out] + sys.argv[1:],
        cwd=root, env=env, timeout=RUN_TIMEOUT_S,
    )
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

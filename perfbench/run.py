#!/usr/bin/env python3
"""Build the perfbench driver from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build cache, module cache and binary all live under .bench_build/
in the repository root, so a run reads and writes nothing outside it.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOENV="off",
    )
    binary = os.path.join(build, "perfbench")
    try:
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    except OSError as err:
        print("perfbench: cannot run the go toolchain: %s" % err, file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # exec keeps the driver's process id, so a signal to this wrapper
    # reaches the benchmark itself.
    os.execve(binary, [binary, "-root", ROOT] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())

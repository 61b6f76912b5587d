#!/usr/bin/env python3
"""Build and run cellport's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

Builds the perfbench Go module (perfbench/go.mod, which points at the
repository root) into .bench_build/, keeping the Go build cache, module
cache, temporary files and Go's own configuration there too, so nothing
outside the checkout is read or written. Then runs the binary with the
given arguments and exits with its status. The binary prints the result
as the last line of standard output.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench", "perfbench")
RUN_TIMEOUT = 170  # seconds; one run must end within 180


def go_env():
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["TMPDIR"] = env["GOTMPDIR"]
    return env


def main():
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BIN, "--out", os.path.join(BUILD, "perfbench", "out")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

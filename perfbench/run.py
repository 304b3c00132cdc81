#!/usr/bin/env python3
"""Build pebblyn and its benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-repeat --seed 1 --seconds 10 --trace 0

Workloads: serve-repeat, serve-cold, offline-batch.  `--trace 1` runs the
traced per-layer variant.  Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); the last line of standard output is the run's
JSON result.  See perfbench/README.md for what is measured.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no pebblyn workspace at %s to build" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "pebblyn-cli", "--bin", "pebblyn"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:], "--daemon", os.path.join(release, "pebblyn")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

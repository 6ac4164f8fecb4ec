#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload dblp_warm --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to stderr, and the last
line of standard output is the run's JSON result. Run-time files (the
server's WAL and segments, span logs) live under `perfbench/work/`.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(ROOT, "perfbench", "work")
    os.makedirs(work, exist_ok=True)
    return subprocess.run([exe, "run", *sys.argv[1:], "--dir", work], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

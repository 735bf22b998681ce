#!/usr/bin/env python3
"""Builds the benchmark harness and the server from source, then runs one
workload of the repository benchmark.

    python3 perfbench/run.py --workload paper|sessions|wire --seed N \
        --seconds S --trace 0|1

Run it from the repository root. Build output goes to stderr; the harness
prints its report to stdout, ending with one JSON result line. The exit
code is the harness's: 0 only for a complete, correct run.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The harness itself finishes well inside this; the limit only guards
# against a hang.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds `webrobot-server` from the repository's own manifest and the
    harness from its package; returns False if either build fails."""
    manifests = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "webrobot_server", "--bin", "webrobot-server"],
        ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for args in manifests:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--server-bin", os.path.join(release, "webrobot-server")]
    # A session of its own, so a hung run can be stopped with everything
    # it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

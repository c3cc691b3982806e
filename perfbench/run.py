#!/usr/bin/env python3
"""Build and run the lv-consensus benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper-search|large-n-protocols|serve> \
        --seed N --seconds S --trace <0|1>

Builds the benchmark crate in this directory and the repository's `lv-serve`
binary (release profile, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark. Build output goes to standard
error; the benchmark's last standard-output line is its JSON result. Exits
non-zero without a result when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "lv-server", "--bin", "lv-serve"],
    ]
    for command in builds:
        built = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"build failed: {' '.join(command)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "lv-perfbench"), *sys.argv[1:],
               "--lv-serve", os.path.join(release, "lv-serve")]
    # A session of its own, so a timeout also stops the server it spawned.
    run = subprocess.Popen(command, cwd=root, env=env, start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-n --seed 1 --seconds 24 --trace 0

Every file the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, the module cache, temporary files and the
binary itself. The binary runs as a child of this script rather than
replacing it, so its getrusage peak-RSS figures never include the compiler.
Exits non-zero, without printing a result, when the build fails (for
example in a directory that lacks the rest of the repository).
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # Telemetry and go env files live under the user config directory.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=src, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    # A terminated runner still stops and reaps the benchmark (whose shard
    # workers die with it through their parent-death signal).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

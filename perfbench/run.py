#!/usr/bin/env python3
"""Build the PiP-MColl repository benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

Every build product and Go cache lives under .bench_build/ in the current
directory, so the benchmark reads and writes nothing outside the checkout.
The benchmark's own output (human-readable lines, then one JSON result line)
is passed through on stdout; build output goes to stderr.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
# A run measures for --seconds and then does a bounded amount of further
# work: the iteration in progress, and with --trace 1 the traced
# iterations, probes and replicas (under a minute on the largest sweep).
RUN_MARGIN_S = 145
DEFAULT_SECONDS = 20  # main.go's default for -seconds


def run_timeout(args):
    """Return the time the run may take, from its --seconds argument."""
    seconds = DEFAULT_SECONDS
    for i, arg in enumerate(args):
        value = None
        if arg.lstrip("-") == "seconds" and i + 1 < len(args):
            value = args[i + 1]
        elif arg.lstrip("-").startswith("seconds="):
            value = arg.split("=", 1)[1]
        if value is not None:
            try:
                seconds = max(int(value), 1)
            except ValueError:
                pass  # the benchmark itself rejects it
    return seconds + RUN_MARGIN_S


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    timeout = run_timeout(sys.argv[1:])
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {timeout}s", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())

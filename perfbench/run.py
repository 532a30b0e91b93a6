#!/usr/bin/env python3
"""Build and run the wire-to-engine benchmark (see README.md).

    python3 perfbench/run.py --workload frames-sw --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree: it configures this directory as its
own CMake project, which compiles the library from ../src into
.bench_build/perfbench, then execs the benchmark binary with the same
arguments.  The binary's last line of standard output is the JSON result;
its exit code is passed through.  Without the library sources next to this
directory the build fails and the script exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "wirebench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return os.path.join(out, "wirebench")


def git_rev():
    """The source revision when the tree is a git checkout, else ''."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return r.stdout.strip() if r.returncode == 0 else ""


def main():
    binary = build()
    cmd = [binary] + sys.argv[1:]
    if "--dump-inputs" not in cmd:
        cmd += ["--git-rev", git_rev() or "unknown"]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the rtcad benchmark.

    python3 perfbench/run.py --workload corpus|bigstate|serve --seed N \\
        --seconds S --trace 0|1 [--golden FILE]

Run it from the repository root. Each call configures (once) and builds
perfbench/ -- the rtcad sources of this checkout plus the driver -- as a
Release build in .bench_build/perfbench, with build output on stderr, and
then replaces itself with the driver, so each workload runs in a process of
its own. The last line of stdout is the result JSON; see README.md.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure and build rtbench; exits 3 when that fails."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: building the benchmark failed: " + " ".join(cmd))
    return os.path.join(BUILD, "rtbench")


def commit():
    """The checkout's git commit, when it is a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """SHA-256 over the benchmarked sources: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no src/ next to perfbench/; nothing to benchmark")
    binary = build()
    os.chdir(ROOT)
    args = [binary] + sys.argv[1:] + ["--commit", commit(),
                                      "--source-digest", source_digest()]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()

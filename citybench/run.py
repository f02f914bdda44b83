#!/usr/bin/env python3
"""Build the city benchmark from source, then run one workload.

    python3 citybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a df3sim checkout. The first run configures and
builds `citybench` (and the df3sim modules it links) in Release mode under
`.bench_build/citybench`; later runs only rebuild what changed. Build output
goes to stderr, so stdout is exactly the benchmark's own output, whose last
line is the JSON result. Extra arguments (`--tiny`, `--break ...`) are passed
through to the binary; see citybench.cpp.

Each run's output digest is kept under `.bench_build/citybench/digests`,
keyed by the binary's hash, workload, seed and window, and every later run of
the same key must reproduce it. The spans of the latest `--trace 1` run of
each workload are written to `.bench_build/citybench/spans/<workload>.csv`.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "citybench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; return the binary path or None."""
    if shutil.which("cmake") is None:
        print("citybench: cmake not found", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", BUILD, "--target", "citybench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(BUILD, "citybench")
    return binary if os.path.isfile(binary) else None


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    binary = build()
    if binary is None:
        print("citybench: build failed", file=sys.stderr)
        return 2

    # The digest key leaves out --break, so a planted fault is compared with
    # the digest of the same run without it.
    tag = "-".join([args.workload, "s%d" % args.seed, "t%d" % args.seconds]
                   + (["tiny"] if "--tiny" in extra else []))
    digests = os.path.join(BUILD, "digests", file_hash(binary))
    os.makedirs(digests, exist_ok=True)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--digest-ref", os.path.join(digests, tag + ".txt"),
    ]
    if args.trace == 1:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, args.workload + ".csv")]
    cmd += extra
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("citybench: run exceeded %d s, killed" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())

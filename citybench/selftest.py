#!/usr/bin/env python3
"""Self-test of the city benchmark at tiny city sizes (about a minute).

    python3 citybench/selftest.py

Run from the root of a df3sim checkout. For every workload in BENCHMARK.json
it runs `run.py --tiny` with --trace 0 and 1 and checks that:

  * the run exits 0 and its last stdout line is a JSON object with exactly
    the keys correct, attempted, failed and metrics;
  * every metric BENCHMARK.json names for that trace mode is printed exactly
    once, with its declared unit, as a finite number, and nothing else is;
  * correct is true, failed is 0 and attempted is at least 1;
  * every output check ran (the outputs line reports the digest and counts)
    and the digest is the same with and without tracing and on a rerun.

Then it plants faults and expects each to fail loudly (exit code != 0, a
CHECK FAILED line naming the check, correct false): a wrong digest, and a
request that never reaches a terminal. Finally it copies only BENCHMARK.json
and the benchmark directory into a scratch tree and expects the benchmark
to exit non-zero there without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 11


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "citybench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError("duplicate keys: %s" % sorted(dup))
    return dict(pairs)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output")
    return json.loads(lines[-1], object_pairs_hook=no_duplicate_keys)


def digest_of(proc):
    m = re.search(r"^citybench outputs: digest ([0-9a-f]{16})", proc.stdout, re.M)
    if m is None:
        raise AssertionError("no outputs line")
    return m.group(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print("FAIL:", what, flush=True)

    for w in (x["name"] for x in spec["workloads"]):
        digests = []
        for trace in (0, 1, 0):
            proc = run(w, trace)
            tag = "%s --trace %d" % (w, trace)
            expect(proc.returncode == 0, "%s exited %d: %s" % (tag, proc.returncode, proc.stdout[-400:] + proc.stderr[-400:]))
            try:
                res = result_of(proc)
                digests.append(digest_of(proc))
            except (AssertionError, ValueError) as e:
                expect(False, "%s: %s" % (tag, e))
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, "%s: result keys %s" % (tag, sorted(res)))
            expect(res.get("correct") is True, "%s: correct is not true" % tag)
            expect(res.get("failed") == 0, "%s: failed = %r" % (tag, res.get("failed")))
            expect(isinstance(res.get("attempted"), int) and res["attempted"] >= 1, "%s: attempted = %r" % (tag, res.get("attempted")))
            metrics = res.get("metrics", {})
            expect(set(metrics) == set(declared[trace]), "%s: metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                tag, sorted(set(declared[trace]) - set(metrics)), sorted(set(metrics) - set(declared[trace]))))
            for name, m in metrics.items():
                expect(set(m) == {"value", "unit"}, "%s: %s keys %s" % (tag, name, sorted(m)))
                expect(m.get("unit") == declared[trace].get(name), "%s: %s unit %r" % (tag, name, m.get("unit")))
                v = m.get("value")
                expect(isinstance(v, (int, float)) and math.isfinite(v), "%s: %s value %r" % (tag, name, v))
            if trace == 0:
                for name, m in metrics.items():
                    expect(m["value"] > 0, "%s: end-to-end metric %s is %r" % (tag, name, m["value"]))
        expect(len(set(digests)) == 1, "%s: digests differ across runs: %s" % (w, digests))
        print("ok   %-16s digest %s" % (w, digests[0] if digests else "?"), flush=True)

    w = spec["workloads"][0]["name"]
    for fault, trace, check in (("digest", 1, "digest:"), ("digest", 0, "digest:"),
                                ("conservation", 0, "conservation:")):
        proc = run(w, trace, "--break", fault)
        tag = "--break %s --trace %d" % (fault, trace)
        expect(proc.returncode != 0, "%s: exited 0" % tag)
        expect(("CHECK FAILED: " + check) in proc.stdout, "%s: no 'CHECK FAILED: %s' line" % (tag, check))
        try:
            expect(result_of(proc).get("correct") is False, "%s: correct is not false" % tag)
        except (AssertionError, ValueError) as e:
            expect(False, "%s: %s" % (tag, e))
        if fault == "conservation":
            expect(result_of(proc).get("failed", 0) >= 1, "%s: failed not counted" % tag)
        print("ok   fault %-24s fails loudly" % tag, flush=True)

    # Only BENCHMARK.json and the benchmark directory: no sources to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "citybench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(w, 0, cwd=bare)
    expect(proc.returncode != 0, "bare tree: exited 0")
    expect('"correct"' not in proc.stdout, "bare tree: printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare tree exits %d without a result" % proc.returncode, flush=True)

    if failures:
        print("selftest: %d failure(s)" % len(failures))
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

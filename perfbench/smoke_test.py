#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of rtcad):

    python3 perfbench/smoke_test.py

Run it from the repository root; it takes about a minute. It checks that

  * every workload, run briefly, exits 0 and prints as its last line a
    result with exactly the keys correct/attempted/failed/metrics, correct,
    and every end-to-end metric of BENCHMARK.json with its unit, nonzero;
  * a traced run prints every per-layer metric and writes a Chrome trace;
  * a corrupted reference record is caught: one RT record of a copy of
    specs/golden_backend.json gets one more transistor, and the corpus run
    against that copy reports correct false;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark fails without printing a result.

Scratch files go to .bench_build/smoke/. Exits 1 on the first failure.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_build", "smoke")


def run(workload, trace=0, seconds=1, cwd=ROOT, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p, lines


def fail(msg, p=None):
    print("FAIL:", msg)
    if p is not None:
        print(p.stderr[-2000:])
    sys.exit(1)


def result_of(lines, p):
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("last stdout line is not JSON", p)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(res), p)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("attempted must be a whole number >= 1", p)
    return res


def check_metrics(res, declared, p, nonzero):
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: extra %s, missing %s" % (
            sorted(set(got) - set(want)), sorted(set(want) - set(got))), p)
    for name, m in got.items():
        if m["unit"] != want[name] or not math.isfinite(m["value"]):
            fail("metric %s: %s" % (name, m), p)
        if nonzero and m["value"] == 0:
            fail("end-to-end metric %s is 0" % name, p)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)

    # serve is runnable though BENCHMARK.json does not gate on it.
    for name in [w["name"] for w in spec["workloads"]] + ["serve"]:
        p, lines = run(name)
        res = result_of(lines, p)
        if p.returncode != 0 or not res["correct"] or res["failed"]:
            fail("%s: exit %d, result %s" % (name, p.returncode, res), p)
        check_metrics(res, spec["end_to_end"], p, nonzero=True)
        print("ok  %-9s end-to-end metrics, %d checks" % (name,
                                                          res["attempted"]))

    trace_file = os.path.join(ROOT, ".bench_build", "traces",
                              "corpus-seed7.json")
    if os.path.exists(trace_file):
        os.remove(trace_file)
    p, lines = run("corpus", trace=1)
    res = result_of(lines, p)
    if p.returncode != 0 or not res["correct"]:
        fail("traced corpus run failed", p)
    check_metrics(res, spec["per_layer"], p, nonzero=False)
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    if not any(e["name"].startswith("flow.stage.") for e in events):
        fail("trace has no stage spans", p)
    if "tracing overhead" not in p.stderr:
        fail("traced run did not print its tracing overhead", p)
    print("ok  traced run: %d per-layer metrics, %d spans" % (
        len(res["metrics"]), len(events)))

    golden = os.path.join(ROOT, "specs", "golden_backend.json")
    with open(golden) as f:
        text = f.read()
    m = re.search(r'"transistors": (\d+)', text)
    corrupt = os.path.join(SCRATCH, "golden_corrupt.json")
    with open(corrupt, "w") as f:
        f.write(text[:m.start(1)] + str(int(m.group(1)) + 1) + text[m.end(1):])
    p, lines = run("corpus", extra=("--golden", corrupt))
    res = result_of(lines, p)
    if res["correct"] or res["failed"] == 0 or p.returncode == 0:
        fail("a corrupted golden record was not caught", p)
    print("ok  corrupted reference record caught (%d of %d checks failed)" % (
        res["failed"], res["attempted"]))

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    p, lines = run("corpus", cwd=bare)
    if p.returncode == 0 or any(l.startswith("{") for l in lines):
        fail("without the sources the benchmark must fail without a result", p)
    shutil.rmtree(bare)
    print("ok  fails without a result when only the benchmark is present")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent checkout and a change.

    python3 perfbench/compare.py PARENT [CHANGE] [--runs 10]
        [--workloads corpus,bigstate,serve] [--save FILE]
    python3 perfbench/compare.py --load FILE

PARENT and CHANGE are repository checkouts that both hold perfbench/.
For every workload the tool makes --runs pairs of untraced runs, one per
side with the same seed (seeds 1, 2, ...), alternating which side runs
first, then one traced run per side with seed 1. It prints, per workload
and end-to-end metric, both medians and quartiles, the share of pairs the
change won, and a verdict against the metric's bound in the parent's
BENCHMARK.json:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's quartile distance, or every change
              run beat every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound;
  unchanged   otherwise.

Then one summary row per workload and the per-layer deltas of the traced
runs. With PARENT alone it runs one set and prints each metric's spread
against its bound: the steadiness check. --save writes every run's output
to FILE; --load prints a saved comparison again.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN_TIMEOUT_S = 900  # the first run in a checkout builds


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    rec = {"checkout": checkout, "workload": workload, "seed": seed,
           "trace": trace, "exit": p.returncode, "provenance": None,
           "result": None, "elapsed_s": time.monotonic() - start,
           "stderr_tail": p.stderr[-3000:]}
    for line in lines:
        if line.startswith("provenance "):
            rec["provenance"] = json.loads(line[len("provenance "):])
    if lines:
        try:
            rec["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    ok = rec["result"] is not None and rec["result"].get("correct")
    print("  %-8s %-9s seed %-4d trace %d exit %d %5.1fs%s" % (
        os.path.basename(os.path.abspath(checkout)), workload, seed, trace,
        p.returncode, rec["elapsed_s"],
        "" if ok else "  FAILED: " + p.stderr[-400:]),
        file=sys.stderr, flush=True)
    return rec


def collect(args, spec):
    sides = [("parent", args.parent)] + (
        [("change", args.change)] if args.change else [])
    runs = []
    for workload in args.workloads:
        for i in range(args.runs):
            seed = 1 + i
            order = sides if i % 2 == 0 else list(reversed(sides))
            for side, checkout in order:
                rec = run_once(checkout, workload, seed, spec["run_seconds"], 0)
                rec["side"], rec["pair"] = side, i
                runs.append(rec)
        for side, checkout in sides:
            rec = run_once(checkout, workload, 1, spec["run_seconds"], 1)
            rec["side"], rec["pair"] = side, 0
            runs.append(rec)
    return {"benchmark": spec, "workloads": args.workloads,
            "sides": [s for s, _ in sides], "runs": runs}


def values(runs, side, workload, trace, metric):
    """Metric values of one side's runs, in pair order."""
    out = {}
    for r in runs:
        if (r["side"], r["workload"], r["trace"]) != (side, workload, trace):
            continue
        m = (r["result"] or {}).get("metrics", {}).get(metric)
        if m is not None:
            out[r["pair"]] = m["value"]
    return out


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(p, c, bound, lower):
    """Verdict and share of pairs won for one metric (dicts pair -> value)."""
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = sorted(set(p) & set(c))
    won = sum(1 for i in pairs if better(c[i], p[i]))
    share = won / len(pairs) if pairs else float("nan")
    pq1, pmed, pq3 = quartiles(list(p.values()))
    _, cmed, _ = quartiles(list(c.values()))
    worse_share = ((cmed - pmed) if lower else (pmed - cmed)) / pmed if pmed else 0
    all_better = p and c and all(better(cv, pv) for cv in c.values()
                                 for pv in p.values())
    if all_better or (share >= 0.9 and abs(cmed - pmed) > pq3 - pq1
                      and better(cmed, pmed)):
        return "improved", share
    if worse_share > bound:
        return "worse", share
    if pmed and (pq3 - pq1) / abs(pmed) > bound:
        return "unresolved", share
    return "unchanged", share


def report(data):
    spec = data["benchmark"]
    runs = data["runs"]
    bad = [r for r in runs if not (r["result"] or {}).get("correct")]
    for r in bad:
        print("run failed: %s %s seed %d trace %d exit %d" % (
            r["side"], r["workload"], r["seed"], r["trace"], r["exit"]))
    prov = next((r["provenance"] for r in runs if r["provenance"]), None)
    if prov:
        print("provenance: nproc %s, %s, %s" % (
            prov["nproc"], prov["build_type"], prov["compiler"]))
    paired = "change" in data["sides"]
    for workload in data["workloads"]:
        print("\n== %s ==" % workload)
        if paired:
            print("%-18s %-38s %-38s %7s %5s %s" % (
                "metric", "parent med [q1, q3] spread",
                "change med [q1, q3] spread", "delta", "won", "verdict"))
        else:
            print("%-18s %-30s %8s %7s %s" % (
                "metric", "median [q1, q3]", "spread", "bound", "steady"))
        verdicts = []
        for m in spec["end_to_end"]:
            lower = m["better"] == "lower"
            p = values(runs, "parent", workload, 0, m["name"])
            q1, med, q3 = quartiles(list(p.values()))
            ptxt = "%.4g [%.4g, %.4g]" % (med, q1, q3)
            spread = (q3 - q1) / med if med else 0
            if not paired:
                steady = ("ok" if spread <= m["bound"] / 3 else
                          "within bound" if spread <= m["bound"] else "TOO WIDE")
                print("%-18s %-30s %7.2f%% %6.1f%% %s" % (
                    m["name"], ptxt, 100 * spread, 100 * m["bound"], steady))
                continue
            c = values(runs, "change", workload, 0, m["name"])
            cq1, cmed, cq3 = quartiles(list(c.values()))
            v, share = verdict(p, c, m["bound"], lower)
            verdicts.append(v)
            cspread = (cq3 - cq1) / cmed if cmed else 0
            print("%-18s %-38s %-38s %+6.1f%% %4.0f%% %s" % (
                m["name"], "%s %.1f%%" % (ptxt, 100 * spread),
                "%.4g [%.4g, %.4g] %.1f%%" % (cmed, cq1, cq3, 100 * cspread),
                100 * (cmed - med) / med if med else 0, 100 * share, v))
        if paired:
            overall = ("worse" if "worse" in verdicts else
                       "unresolved" if "unresolved" in verdicts else
                       "improved" if "improved" in verdicts else "unchanged")
            print("%-18s improved %d, worse %d, unresolved %d -> %s" % (
                workload, verdicts.count("improved"), verdicts.count("worse"),
                verdicts.count("unresolved"), overall))
    print("\n== per-layer (traced runs, median over workloads) ==")
    for m in spec["per_layer"]:
        meds = []
        for side in data["sides"]:
            vals = []
            for workload in data["workloads"]:
                vals += list(values(runs, side, workload, 1, m["name"]).values())
            meds.append(statistics.median(vals) if vals else float("nan"))
        if paired:
            delta = (meds[1] - meds[0]) / meds[0] if meds[0] else 0
            print("%-32s %12.4g %12.4g %+7.1f%% (%s better)" % (
                m["name"], meds[0], meds[1], 100 * delta, m["better"]))
        else:
            print("%-32s %12.4g %s" % (m["name"], meds[0], m["unit"]))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--save")
    ap.add_argument("--load")
    args = ap.parse_args()
    if args.load:
        with open(args.load) as f:
            sys.exit(report(json.load(f)))
    if not args.parent:
        ap.error("give a PARENT checkout, or --load FILE")
    for checkout in filter(None, (args.parent, args.change)):
        if not os.path.exists(os.path.join(checkout, "perfbench", "run.py")):
            ap.error(checkout + " has no perfbench/run.py")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    args.workloads = args.workloads.split(",") if args.workloads else names
    data = collect(args, spec)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(data, f, indent=1)
    sys.exit(report(data))


if __name__ == "__main__":
    main()

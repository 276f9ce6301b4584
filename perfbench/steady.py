#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/steady.py [--traced] [--out perfbench/STEADINESS.json]

Runs the benchmark command once as a discarded warm-up, then two separate
sets of ten untraced runs per workload (seeds 1-10 and 11-20), interleaving
the workloads. For each set, workload and end-to-end metric it records the
median and quartiles (`statistics.quantiles(n=4)`) and the spread
(interquartile distance over the median), and between the sets the drift:
how far the second median moved from the first, either way, as a share of
the first. Every spread and every drift must stay within the metric's bound.

With `--out` the report is appended to the reports already in that file,
each tagged with a digest of the code it measured (benchmark and library
sources). The drift check then also runs across every set median of every
report of the same code, and the benchmark counts as accepted only once at
least two such reports agree within the bounds. With `--traced` it also
makes one traced run per workload and records the per-layer metrics.
Exits 0 only when accepted.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS, RUNS, SEED_BASE = 2, 10, 1
# What a report measured: the benchmark and every library it builds.
SOURCES = ["BENCHMARK.json", "perfbench/run.py", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src", "crates"]


def code_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"  {workload:<12} seed {seed:<6} {elapsed:6.1f}s correct={result['correct']}", flush=True)
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def drift(first, later):
    """How far `later` moved from `first`, either way, as a share of `first`."""
    return abs(later - first) / first if first else 0.0


def worst_drift(medians):
    return max((drift(a, b) for i, a in enumerate(medians) for b in medians[i + 1:]), default=0.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    code = code_digest()
    out = os.path.join(ROOT, args.out) if args.out else ""
    earlier = []
    if out and os.path.exists(out):
        with open(out) as f:
            earlier = json.load(f)["reports"]
    same_code = [r for r in earlier if r.get("code") == code]

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(f"code {code}; {len(same_code)} earlier report(s) of it")
    print("warm-up (discarded)")
    run(bench, workloads[0], SEED_BASE + 999_999, 0)
    sets = []
    for s in range(SETS):
        print(f"set {s + 1}")
        raw = {w: [] for w in workloads}
        for r in range(RUNS):
            seed = SEED_BASE + s * RUNS + r
            for w in workloads:
                raw[w].append(run(bench, w, seed, 0))
        sets.append(raw)

    report = {"code": code, "started": started, "command": bench["command"],
              "run_seconds": bench["run_seconds"], "sets": SETS, "runs_per_set": RUNS,
              "workloads": {}}
    ok = True
    cross_ok = True
    for w in workloads:
        per_set = []
        for raw in sets:
            runs = raw[w]
            per_set.append({
                "all_correct": all(r["correct"] for r in runs),
                "metrics": {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in metrics},
            })
            ok &= per_set[-1]["all_correct"]
        verdicts = {}
        for m, spec in metrics.items():
            spreads = [p["metrics"][m]["spread"] for p in per_set]
            medians = [p["metrics"][m]["median"] for p in per_set]
            own = worst_drift(medians)
            across = worst_drift([p["metrics"][m]["median"] for r in same_code
                                  for p in r["workloads"][w]["sets"]] + medians)
            spread_ok = max(spreads) <= spec["bound"]
            verdicts[m] = {"bound": spec["bound"], "max_spread": max(spreads),
                           "worst_median_drift": own, "worst_drift_across_reports": across,
                           "spread_ok": spread_ok, "drift_ok": own <= spec["bound"],
                           "spread_below_third": max(spreads) < spec["bound"] / 3}
            ok &= spread_ok and own <= spec["bound"]
            cross_ok &= across <= spec["bound"]
            print(f"{w:<12} {m:<13} medians {' '.join(f'{x:.6g}' for x in medians):<28} "
                  f"spread {max(spreads):.4f} drift {own:.4f} across {across:.4f} "
                  f"bound {spec['bound']}")
        report["workloads"][w] = {"sets": per_set, "verdicts": verdicts}
        if args.traced:
            report["workloads"][w]["traced"] = run(bench, w, SEED_BASE, 1)
    report["own_sets_agree"] = ok
    report["reports_of_this_code"] = len(same_code) + 1
    report["accepted"] = ok and cross_ok and len(same_code) >= 1
    if report["accepted"]:
        print("ACCEPTED")
    elif ok and cross_ok:
        print("NOT YET ACCEPTED: the first report of this code; run again to compare reports")
    else:
        print("REJECTED")
    if out:
        with open(out, "w") as f:
            json.dump({"reports": earlier + [report]}, f, indent=1)
            f.write("\n")
    return 0 if report["accepted"] else 1


if __name__ == "__main__":
    sys.exit(main())

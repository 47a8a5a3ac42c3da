#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs the benchmark command repeatedly on the same build, interleaving the
workloads between runs (run r uses seed base+r, and the workload order
rotates each round), then prints each end-to-end metric's median,
quartiles and spread (interquartile distance / median) per workload,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads study --bin path/to/og-perfbench

Run from the repository root. Exits non-zero if a run fails or reports
incorrect output, or if a spread (other than setup_s's) exceeds its bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    """Problems with BENCHMARK.json's shape, as a list of strings."""
    bad = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        bad.append(f"keys {sorted(spec)}")
    names = []
    for key, lo, hi, fields in [("workloads", 2, 8, {"name", "why"}),
                                ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
                                ("per_layer", 1, 128, {"name", "unit", "better"})]:
        items = spec.get(key, [])
        if not lo <= len(items) <= hi:
            bad.append(f"{key}: {len(items)} entries")
        for item in items:
            names.append(item.get("name", ""))
            if set(item) != fields:
                bad.append(f"{key} {item.get('name')}: fields {sorted(item)}")
            if not NAME.match(item.get("name", "")):
                bad.append(f"{key}: bad name {item.get('name')!r}")
            if "unit" in fields and not UNIT.match(item.get("unit", "")):
                bad.append(f"{key} {item['name']}: bad unit")
            if "why" in fields and (len(item["why"]) > 200 or "\n" in item["why"]):
                bad.append(f"workload {item['name']}: why too long")
            if "bound" in fields and not 0 < item["bound"] <= 0.25:
                bad.append(f"{item['name']}: bound {item['bound']}")
    if len(names) != len(set(names)):
        bad.append("duplicate names")
    setup = [m for m in spec.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        bad.append("setup_s does not have the largest bound")
    if not isinstance(spec.get("run_seconds"), int) or not 1 <= spec["run_seconds"] <= 60:
        bad.append("run_seconds")
    return bad


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=None)
    ap.add_argument("--bin", default=None,
                    help="a prebuilt benchmark binary to run instead of the command")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = check_spec(spec)
    if problems:
        raise SystemExit("BENCHMARK.json: " + "; ".join(problems))
    cmd = [args.bin] if args.bin else spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    bad = 0
    for r in range(args.runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            result, wall = run_once(cmd, w, args.seed_base + r, seconds)
            walls[w].append(wall)
            if not result["correct"] or result["failed"]:
                bad += 1
                print(f"INCORRECT: {w} seed {args.seed_base + r}: "
                      f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"run {r} {w}: {wall:.1f} s", file=sys.stderr)

    over = 0
    print(f"{'workload':<12} {'metric':<12} {'unit':<5} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for m, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m != "setup_s" and spread > bounds[m]:
                flag = "  OVER BOUND"
                over += 1
            elif spread > bounds[m] / 3:
                flag = "  over bound/3"
            print(f"{w:<12} {m:<12} {units[m]:<5} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>7.3f} {bounds[m]:>6.2f}{flag}")
            print(f"{'':<12} {'':<12} runs: " + " ".join(f"{v:.4g}" for v in vals))
        print(f"{w:<12} {'wall':<12} {'s':<5} {statistics.median(walls[w]):>14.1f} "
              f"(max {max(walls[w]):.1f})")
    return 1 if bad or over else 0


if __name__ == "__main__":
    sys.exit(main())

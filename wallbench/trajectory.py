#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and summarises it.

For each workload it makes --runs untraced runs (seeds 1..N, or from
--first-seed), then --trace-runs traced runs, and prints, per end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1) / median, which
is what the benchmark's bounds are checked against. With --record it
appends the summary as one point of wallbench/results/trajectory.jsonl.
With --busy it keeps one CPU 30% busy (3 ms spinning, 7 ms asleep) for
the whole set, to show how the figures follow other load on the host.

Run from the root of a checkout:
    python3 wallbench/trajectory.py --runs 10 --trace-runs 1 --record "label"
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ["interactive", "saturate", "reintegrate"]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", str(BENCH / "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    started = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - started
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: gate failed: {report['gate_failures']}")
    return result, report, took


# A background load for --busy: spins 3 ms, sleeps 7 ms, until killed.
BUSY_LOOP = """
import time
while True:
    t = time.perf_counter()
    while time.perf_counter() - t < 0.003:
        pass
    time.sleep(0.007)
"""


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--record", metavar="LABEL", default=None)
    ap.add_argument("--busy", action="store_true")
    a = ap.parse_args()
    load = subprocess.Popen([sys.executable, "-c", BUSY_LOOP]) if a.busy else None
    try:
        run_set(a)
    finally:
        if load:
            load.kill()
            load.wait()


def run_set(a):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"label": a.record, "seconds": seconds, "runs": a.runs, "busy": a.busy,
             "workloads": {}}
    for w in a.workloads.split(","):
        vals, wall, host = {}, [], None
        for seed in range(a.first_seed, a.first_seed + a.runs):
            result, report, took = run_once(w, seed, seconds, False)
            host = report["host"]
            wall.append(took)
            for name, m in result["metrics"].items():
                vals.setdefault(name, []).append(m["value"])
        entry = {"host": host, "run_wall_s": max(wall) if wall else None,
                 "end_to_end": {}, "per_layer": []}
        print(f"== {w}: {a.runs} runs of {seconds} s (slowest {entry['run_wall_s']:.1f} s)")
        for name, v in vals.items():
            s = summarise(v) if len(v) >= 2 else {"median": v[0], "spread": 0.0}
            entry["end_to_end"][name] = dict(s, values=v)
            b = bounds.get(name)
            flag = "" if b is None or s["spread"] < b / 3 else "  <-- spread >= bound/3"
            print(f"  {name:22s} median {s['median']:12.4f}  spread {s['spread']:.4f}"
                  f"  bound {b}{flag}")
            print("      " + " ".join(f"{x:.4g}" for x in v))
        for seed in range(1000, 1000 + a.trace_runs):
            result, report, _ = run_once(w, seed, seconds, True)
            layer = {k: m["value"] for k, m in result["metrics"].items()}
            entry["per_layer"].append({"seed": seed, "metrics": layer,
                                       "trace_overhead_pct": report["trace_overhead_pct"]})
            print(f"  traced seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in layer.items()))
        point["workloads"][w] = entry
        sys.stdout.flush()
    if a.record:
        out = BENCH / "results" / "trajectory.jsonl"
        out.parent.mkdir(exist_ok=True)
        with out.open("a") as f:
            f.write(json.dumps(point) + "\n")
        print(f"recorded in {out}")


if __name__ == "__main__":
    main()

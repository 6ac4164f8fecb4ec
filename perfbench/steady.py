#!/usr/bin/env python3
"""Steadiness check: runs workloads N times with distinct seeds and
prints, per end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workload dblp_paged --first-seed 100

Each run's host steal ticks and server context switches are printed too,
so an outlier run can be explained rather than dropped. Raw results are
appended as JSON lines to perfbench/work/steady.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next((json.loads(l)["detail"] for l in lines[:-1] if l.startswith('{"detail"')), {})
    return result, detail


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    log = open(os.path.join(ROOT, "perfbench", "work", "steady.jsonl"), "a")
    worst = 0.0
    for w in workloads:
        values, shares = {}, set()
        print(f"== {w}")
        for i in range(a.runs):
            seed = a.first_seed + i
            result, detail = run_once(w, seed, a.seconds)
            log.write(json.dumps({"workload": w, "seed": seed, "result": result,
                                  "detail": detail}) + "\n")
            log.flush()
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  seed {seed}: steal_ticks={detail.get('host_steal_ticks')} "
                  f"ctx_switches={detail.get('server_ctx_switches')} "
                  f"failed={result['failed']}/{result['attempted']}")
        print(f"  failed share per run: {sorted(shares)}")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound", float("nan"))
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{bound:>8.2f}{flag}")
    print(f"largest spread/bound (setup_s excepted): {worst:.3f}")


if __name__ == "__main__":
    main()

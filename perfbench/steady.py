"""Steadiness check: repeat each workload and compare spreads with the bounds.

    python3 perfbench/steady.py [--runs 10]

Runs `BENCHMARK.json`'s command for every workload on seeds 0 .. runs-1,
run_seconds each, alternating the order of the workloads between seeds,
with tracing off. For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the interquartile spread as a
share of the median, next to the metric's bound, and for each workload the
share of failed ops. Raw results go to perfbench/out/steady-<time>.json.
Exits 0 when every spread is within its bound, every run is correct and
every run of a workload fails the same share of ops.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(bench, workloads, seeds, seconds):
    results = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            res = run_once(bench["command"], w, seed, seconds)
            results[w].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"  {w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)
    return results


def summarize(bench, results):
    ok = True
    print(f"{'workload':14s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>8s} {'bound':>6s}")
    for w, runs in results.items():
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = (f"{w:14s} {m['name']:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                    f"{spread:8.4f} {m['bound']:6.2f}")
            if spread > m["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            print(line)
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        fractions = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        print(f"{w:14s} failed share {sorted(fractions)} from {shares}; correct={correct}")
        ok = ok and correct and len(fractions) == 1
    return ok


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.runs))
    seconds = bench["run_seconds"]

    print(f"{len(seeds)} seeds x {workloads}, {seconds} s per run", flush=True)
    results = run_set(bench, workloads, seeds, seconds)
    print()
    ok = summarize(bench, results)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump({"seeds": seeds, "seconds": seconds, "results": results}, fh)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}; steady: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

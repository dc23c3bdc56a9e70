"""Smoke test of the benchmark: every workload, both modes, one short run.

    python3 perfbench/smoke.py

For each workload and --trace 0/1 it runs `BENCHMARK.json`'s command for
one second and checks that it exits 0 and that its last line is a JSON
object with exactly the keys correct, attempted, failed and metrics, with
correct true and the metric names and units that BENCHMARK.json lists for
that mode. Then it copies BENCHMARK.json and the benchmark's files, without
the program, into perfbench/out/stripped and checks that the command exits
non-zero there without printing a result. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(command, cwd, workload, trace):
    cmd = list(command) + ["--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(bench, workload, trace, proc):
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != KEYS:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not an integer")
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        problems.append(f"metrics {got}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def check_stripped(bench):
    """The command must fail, and print no result, without the program."""
    stripped = os.path.join(HERE, "out", "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(stripped, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bench["command"], stripped, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"without the program: exit {proc.returncode}, last line {last[0]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_result(bench, w["name"], trace,
                                    run(bench["command"], ROOT, w["name"], trace))
            print(f"{w['name']} trace={trace}: {'ok' if not problems else problems}")
            failures += bool(problems)
    problems = check_stripped(bench)
    print(f"stripped checkout: {'ok' if not problems else problems}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

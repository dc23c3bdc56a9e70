"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload {se_tune,amp_solve,kinked_oracle} \
        --seed N --seconds S --trace {0,1}

With --trace 0 it starts the workload process SETUP_SAMPLES times for
set-up only and once more for the measured run, and reports the median
set-up time, scaled to the host's usual speed by speed.setup_kernel timed
before each set-up process starts and after it ends, next to the measured
run's wall_s, op_p50_s and peak_rss_mb.
With --trace 1 it starts one traced process and reports the per-layer
metrics. The last line of standard output is the result object; a
missing program, a crash or a timeout exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import NOMINAL_SETUP_S, setup_kernel

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("se_tune", "amp_solve", "kinked_oracle")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0

# one BLAS thread: no thread pool in the timings, and the same bits every round
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


class WorkerError(RuntimeError):
    pass


def start_worker(args, extra):
    """Start the workload process; return (process, seconds until READY)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=ENV)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise WorkerError(f"{args.workload} did not set up (got {line.strip()!r})")
    return proc, setup_s


def finish_worker(proc, timeout, expect_result=True):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    if not expect_result:
        return None
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def setup_probe(args):
    """One set-up sample: (seconds until READY, the same at the usual host speed).

    The kernel runs only while no workload process does: on this host a
    process running beside it slows it by more than half.
    """
    kernel_before = setup_kernel()
    proc, setup_s = start_worker(args, ["--setup-only"])
    finish_worker(proc, SETUP_TIMEOUT_S, expect_result=False)
    kernel = 0.5 * (kernel_before + setup_kernel())
    return setup_s, setup_s * NOMINAL_SETUP_S / kernel


def measure(args):
    """Run the workload; with tracing off, sample set-up before and after it.

    Machine speed drifts in bursts of a few seconds, so the set-up samples
    are spread around the measured run instead of taken back to back.
    """
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups = []
    probes = 0 if args.trace else SETUP_SAMPLES
    for _ in range(probes // 2):
        setups.append(setup_probe(args))
    proc, _ = start_worker(args, [])
    report = finish_worker(proc, max(deadline - time.perf_counter(), 1.0))
    for _ in range(probes - probes // 2):
        setups.append(setup_probe(args))
    metrics = report["metrics"]
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "wall_s": report["metrics"]["wall_s"],
            "op_p50_s": report["metrics"]["op_p50_s"],
            "peak_rss_mb": report["metrics"]["peak_rss_mb"],
        }
    return report, metrics, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description="ramp benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, metrics, setups = measure(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {report['rounds']} rounds of "
          f"{report['ops_per_round']} ops, {report['failed']}/{report['attempted']} failed")
    for line in report["failures"]:
        print(f"  failed op  {line}")
    for line in report["problems"]:
        print(f"  CHECK FAILED  {line}")
    if setups and not args.trace:
        print(f"  set-up samples, raw and scaled (s): "
              f"{', '.join(f'{r:.3f}/{s:.3f}' for r, s in setups)}")
    if "op_samples" in report:
        print(f"  op_p50_s over {report['op_samples']} op timings")
    print(f"  raw round walls (s): "
          f"{', '.join(f'{w:.3f}' for w in report['round_walls'])}; reference kernel "
          f"median {report['kernel_median_s'] * 1e3:.2f} ms")
    if "trace_file" in report:
        print(f"  {report['spans']} spans written to {report['trace_file']}; "
              f"{report['span_cost_s'] * 1e6:.2f} us per wrapped call; "
              f"self time per traced round:")
        for name, secs in sorted(report["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:42s} {secs:.4f} s")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

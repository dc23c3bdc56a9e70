"""One workload in one process: set up, run whole rounds, check, report.

Started by run.py, never by hand. It prints `READY` once its inputs are
built and warmed up (run.py times set-up up to that line), then, unless
--setup-only, runs rounds of the workload's ops until --seconds have
passed, checks the outputs and prints one JSON object as its last line.
With --trace 1 every round is traced and it reports the per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_program():
    """Import ramp from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import ramp
    from ramp import calibration, experiments, gauss, losses, oracle, solver, state_evolution

    if os.path.dirname(os.path.dirname(os.path.abspath(ramp.__file__))) != SRC:
        raise SystemExit(f"imported ramp from {ramp.__file__}, not from {SRC}")
    return {"ramp": ramp, "calibration": calibration, "experiments": experiments,
            "gauss": gauss, "losses": losses, "oracle": oracle, "solver": solver,
            "state_evolution": state_evolution}


def run_round(ops, key, tracer, first_id, probe):
    """Run every op once, timing the probe's kernel between ops.

    Returns (wall seconds, per-op seconds, kernel samples), the samples as
    speed.scaled_times takes them.
    """
    times, samples = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + i
        if i == 0 or probe.due():
            samples.append((i, probe.sample()))
        t0 = time.perf_counter()
        try:
            out = (op.call(), None)
        except Exception as exc:      # a failing op is counted, not fatal
            out = (None, exc)
        times.append(time.perf_counter() - t0)
        op.record(out, key)
    samples.append((len(ops), probe.sample()))
    return time.perf_counter() - start, times, samples


def failure_summary(ops, outcomes):
    """One line per (group, reason) of the ops that failed, with their labels."""
    by_reason = {}
    for op, outcome in zip(ops, outcomes):
        if outcome.failed:
            by_reason.setdefault((op.group, outcome.reason), []).append(op.label)
    sizes = {}
    for op in ops:
        sizes[op.group] = sizes.get(op.group, 0) + 1
    return [f"{group}: {len(labels)} of {sizes[group]} ops ({labels[0]}"
            f"{' ... ' + labels[-1] if len(labels) > 1 else ''}): {reason}"
            for (group, reason), labels in by_reason.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    t0 = time.perf_counter()
    modules = import_program()
    import_s = time.perf_counter() - t0

    sys.path.insert(0, HERE)
    from speed import SpeedProbe, scaled_times
    from tracer import SETUP_OP, Tracer, per_layer_metrics, self_times, span_cost
    from workloads import WORKLOADS

    tracer = Tracer(modules) if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](types.SimpleNamespace(**modules), args.seed)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops = workload.ops
    probe = SpeedProbe(workload.kernel)
    op_times, round_walls, kernel = [], [], []
    start = time.perf_counter()
    n_rounds = 0
    while True:
        wall, times, samples = run_round(ops, workload.round_key, tracer, n_rounds * len(ops),
                                         probe)
        n_rounds += 1
        round_walls.append(wall)
        op_times.append(scaled_times(times, samples, probe.nominal_s))
        kernel.extend(k for _, k in samples)
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.op = SETUP_OP
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    outcomes = workload.finish(problems)
    failed_per_round = sum(o.failed for o in outcomes)
    report = {
        "correct": not problems,
        "attempted": n_rounds * len(ops),
        "failed": n_rounds * failed_per_round,
        "problems": problems,
        "failures": failure_summary(ops, outcomes),
        "rounds": n_rounds,
        "ops_per_round": len(ops),
        "round_walls": round_walls,
        "kernel_median_s": statistics.median(kernel),
    }
    if tracer is None:
        # each op's time at the host's usual speed, median over rounds
        per_op = [statistics.median(col) for col in zip(*op_times)]
        report["metrics"] = {
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report["op_samples"] = len(op_times) * len(ops)
    else:
        traced_rounds = [range(r * len(ops), (r + 1) * len(ops)) for r in range(n_rounds)]
        # a few rounds cannot resolve a fraction of a second on a host whose
        # speed drifts by tens of percent, so the overhead is counted, not timed
        spans_per_round = sum(s[4] != SETUP_OP for s in tracer.spans) / n_rounds
        wrapper_s = span_cost()
        overhead = spans_per_round * wrapper_s
        report["metrics"] = per_layer_metrics(tracer, traced_rounds, [o.attrs for o in outcomes],
                                              import_s, overhead)
        per_round = [self_times(tracer.spans, ids) for ids in traced_rounds]
        report["self_s"] = {name: statistics.median(r.get(name, 0.0) for r in per_round)
                            for name in per_round[0]}
        os.makedirs(OUT, exist_ok=True)
        # one file per workload, overwritten by its next traced run: an
        # amp_solve run writes about 80 MB
        path = os.path.join(OUT, f"trace-{args.workload}.jsonl")
        tracer.write_jsonl(path)
        report["trace_file"] = os.path.relpath(path, ROOT)
        report["spans"] = len(tracer.spans)
        report["span_cost_s"] = wrapper_s
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the calls into each layer of `ramp`, recorded from outside.

Each public function is replaced, at the module attribute its caller
looks up, by a wrapper that records (name, start, end, parent, op id,
error, attrs). Spans stay in memory and are written as JSONL when the
run ends. Nothing in `ramp` itself changes; `uninstall` puts every
original function back.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time

# (module, attribute looked up there, span name: the layer that defines it)
WRAPPED = (
    ("state_evolution", "tune_alpha", "state_evolution.tune_alpha"),
    ("state_evolution", "se_fixed_point", "state_evolution.se_fixed_point"),
    ("state_evolution", "se_tau_update", "state_evolution.se_tau_update"),
    ("state_evolution", "se_sigma_update", "state_evolution.se_sigma_update"),
    ("state_evolution", "score_moments", "state_evolution.score_moments"),
    ("state_evolution", "truncated_moments", "gauss.truncated_moments"),
    ("state_evolution", "soft_threshold_risk", "gauss.soft_threshold_risk"),
    ("solver", "run_ramp", "solver.run_ramp"),
    ("solver", "initial_state", "solver.initial_state"),
    ("solver", "ramp_step", "solver.ramp_step"),
    ("solver", "calibrate", "calibration.calibrate"),
    ("solver", "effective_score", "losses.effective_score"),
    ("solver", "soft_threshold", "losses.soft_threshold"),
    ("calibration", "calibrate_smooth", "calibration.calibrate_smooth"),
    ("calibration", "calibrate_nonsmooth", "calibration.calibrate_nonsmooth"),
    ("calibration", "kde", "calibration.kde"),
    ("calibration", "plugin_slope_curve", "calibration.plugin_slope_curve"),
    ("calibration", "effective_score_deriv", "losses.effective_score_deriv"),
    ("oracle", "solve_penalized", "oracle.solve_penalized"),
    ("oracle", "loss_value", "losses.loss_value"),
    ("oracle", "soft_threshold", "losses.soft_threshold"),
    ("experiments", "generate_instance", "experiments.generate_instance"),
)

SETUP_OP = -1


def _points(args, kwargs):
    """Number of b values one plugin_slope_curve call evaluates."""
    grid = kwargs.get("b_grid", args[1] if len(args) > 1 else None)
    size = getattr(grid, "size", None)
    return {"points": int(size) if size is not None else 1}


class Tracer:
    """In-memory span sink plus the wrappers that feed it."""

    def __init__(self, modules):
        self._modules = modules          # short name -> module object
        self._originals = {}
        # (name, start, end, parent, op, error, attrs), indexed by opening
        # order; a tuple of plain values leaves the garbage collector's
        # tracked set, so hundreds of thousands of spans do not slow it down
        self.spans = []
        self._stack = []                 # (index, name, start, parent, op, attrs)
        self.op = SETUP_OP

    # -- recording -------------------------------------------------------

    def open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((idx, name, time.perf_counter(), parent, self.op, attrs))

    def close(self, error=None):
        end = time.perf_counter()
        idx, name, start, parent, op, attrs = self._stack.pop()
        self.spans[idx] = (name, start, end, parent, op, error, attrs)

    def _wrap(self, fn, name):
        tracer = self
        counts_points = name == "calibration.plugin_slope_curve"
        wraps_kde = name == "calibration.kde"

        def traced(*args, **kwargs):
            tracer.open(name, _points(args, kwargs) if counts_points else None)
            error = None
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(error)
            if wraps_kde:
                # the estimate is evaluated later, inside the slope curve
                out = dataclasses.replace(out, eval=tracer._wrap(out.eval, "calibration.kde_eval"))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod_name, attr, name in WRAPPED:
            mod = self._modules[mod_name]
            fn = getattr(mod, attr)
            self._originals[(mod_name, attr)] = fn
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        for (mod_name, attr), fn in self._originals.items():
            setattr(self._modules[mod_name], attr, fn)
        self._originals.clear()

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "op", "error", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")))
                fh.write("\n")


def span_cost():
    """Seconds one wrapper adds to a call: a wrapped no-op against a bare one.

    100k calls on a scratch tracer, median over 5 repeats. It counts the
    wrapper's own work, not its effect on the caches of the code it wraps.
    """
    def noop():
        return None

    scratch = Tracer({})
    wrapped = scratch._wrap(noop, "noop")
    calls, costs = 100_000, []
    for _ in range(5):
        scratch.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((t1 - t0) - (time.perf_counter() - t1))
    return max(statistics.median(costs) / calls, 0.0)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("setup.import_s", "s"),
    ("experiments.generate_instance_s", "s"),
    ("state_evolution.se_fixed_point_s", "s"),
    ("state_evolution.se_tau_update_s", "s"),
    ("state_evolution.se_sigma_update_s", "s"),
    ("state_evolution.fixed_point_iterations", "count"),
    ("state_evolution.score_moments_calls", "count"),
    ("state_evolution.evals_per_tau_update", "count"),
    ("gauss.truncated_moments_calls", "count"),
    ("gauss.truncated_moments_s", "s"),
    ("calibration.calibrate_s", "s"),
    ("calibration.slope_evals", "count"),
    ("calibration.slope_evals_per_call", "count"),
    ("calibration.kde_s", "s"),
    ("calibration.errors", "count"),
    ("losses.effective_score_deriv_s", "s"),
    ("solver.run_ramp_s", "s"),
    ("solver.self_s", "s"),
    ("solver.iterations", "count"),
    ("solver.not_converged", "count"),
    ("solver.tau_gap_rel", "ratio"),
    ("oracle.solve_penalized_s", "s"),
    ("oracle.iterations", "count"),
    ("oracle.objective_excess_rel", "ratio"),
    ("losses.loss_value_calls", "count"),
    ("trace.overhead_s", "s"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def round_metrics(spans, op_ids):
    """Per-layer totals over the spans of one round (the ops in op_ids)."""
    ops = set(op_ids)
    mine = [s for s in spans if s[4] in ops]
    by_name = {}
    for s in mine:
        by_name.setdefault(s[0], []).append(s)

    def total(name):
        return sum(s[2] - s[1] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    # a slope evaluation is one b value at which the fitted slope is computed
    evals_by_calibrate = {}
    for name in ("losses.effective_score_deriv", "calibration.plugin_slope_curve"):
        for s in by_name.get(name, ()):
            anc = s[3]
            while anc >= 0 and spans[anc][0] != "calibration.calibrate":
                anc = spans[anc][3]
            if anc < 0:
                continue
            pts = s[6]["points"] if s[6] else 1
            evals_by_calibrate[anc] = evals_by_calibrate.get(anc, 0) + pts
    slope_evals = sum(evals_by_calibrate.values())

    ramp_spans = by_name.get("solver.run_ramp", ())
    calib_in_ramp = 0.0
    for s in by_name.get("calibration.calibrate", ()):
        anc = s[3]
        while anc >= 0 and spans[anc][0] != "solver.run_ramp":
            anc = spans[anc][3]
        if anc >= 0:
            calib_in_ramp += s[2] - s[1]
    run_ramp_s = sum(s[2] - s[1] for s in ramp_spans)

    tau_updates = count("state_evolution.se_tau_update")
    return {
        "state_evolution.se_fixed_point_s": total("state_evolution.se_fixed_point"),
        "state_evolution.se_tau_update_s": total("state_evolution.se_tau_update"),
        "state_evolution.se_sigma_update_s": total("state_evolution.se_sigma_update"),
        "state_evolution.fixed_point_iterations": count("state_evolution.se_sigma_update"),
        "state_evolution.score_moments_calls": count("state_evolution.score_moments"),
        "state_evolution.evals_per_tau_update":
            _ratio(count("state_evolution.score_moments"), tau_updates),
        "gauss.truncated_moments_calls": count("gauss.truncated_moments"),
        "gauss.truncated_moments_s": total("gauss.truncated_moments"),
        "calibration.calibrate_s": total("calibration.calibrate"),
        "calibration.slope_evals": slope_evals,
        "calibration.slope_evals_per_call": _ratio(slope_evals, len(evals_by_calibrate)),
        "calibration.kde_s": total("calibration.kde") + total("calibration.kde_eval"),
        "calibration.errors": sum(1 for s in by_name.get("calibration.calibrate", ())
                                  if s[5] == "CalibrationError"),
        "losses.effective_score_deriv_s": total("losses.effective_score_deriv"),
        "solver.run_ramp_s": run_ramp_s,
        "solver.self_s": run_ramp_s - calib_in_ramp,
        "solver.iterations": count("solver.ramp_step"),
        "oracle.solve_penalized_s": total("oracle.solve_penalized"),
        "losses.loss_value_calls": count("losses.loss_value"),
    }


def self_times(spans, op_ids):
    """Seconds per span name, less the time its child spans cover."""
    ops = set(op_ids)
    child = {}
    for s in spans:
        if s[4] in ops and s[3] >= 0:
            child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
    out = {}
    for i, s in enumerate(spans):
        if s[4] in ops:
            out[s[0]] = out.get(s[0], 0.0) + s[2] - s[1] - child.get(i, 0.0)
    return out


def per_layer_metrics(tracer, traced_rounds, op_attrs, import_s, overhead_s):
    """Median over traced rounds of each per-layer metric, with units.

    traced_rounds lists the op ids of each traced round; op_attrs lists, for
    each op of a round, what the checks learned about its outcome
    (not_converged, tau_gap_rel, oracle_iterations, excess_rel), which is
    the same in every round.
    """
    rows = [round_metrics(tracer.spans, ids) for ids in traced_rounds]
    values = {k: _median([r[k] for r in rows]) for k in rows[0]}
    values["setup.import_s"] = import_s
    values["experiments.generate_instance_s"] = sum(
        s[2] - s[1] for s in tracer.spans
        if s[4] == SETUP_OP and s[0] == "experiments.generate_instance")

    def collect(key):
        return [a[key] for a in op_attrs if key in a]

    values["solver.not_converged"] = sum(collect("not_converged"))
    values["solver.tau_gap_rel"] = _median(collect("tau_gap_rel"))
    values["oracle.iterations"] = sum(collect("oracle_iterations"))
    values["oracle.objective_excess_rel"] = _median(collect("excess_rel"))
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}

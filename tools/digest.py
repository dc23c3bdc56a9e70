"""SHA-256 digests of ramp's outputs on fixed cases, and a bounded comparison.

Usage: PYTHONPATH=src python3 tools/digest.py {se,reports,oracle}
           [--save PATH] [--against PATH]

Each kind runs a fixed list of cases and turns their outputs into one or
more streams of cases (name, parts). A part is (kind, value): "text" (a
label, an exception name, an exit code or a line's text, hashed as
UTF-8), or "exact" or "close" (a float array, hashed as its bytes). The
tool prints one SHA-256 over the parts of each stream, so two trees that
print the same digests returned bit-identical values on every case. Every
kind runs with one BLAS thread. The kinds:

- `se` (streams `se` and `fixed-point`). The sweep: `tune_alpha` on every
  cell of {Normal(0.2), Laplace(1), t(4), Cauchy(1), t(8), two normal
  mixtures} x {least squares, Huber(1), Huber(0.5), absolute,
  quantile(0.7), quantile(0.3)} at delta = 0.64 and the +-1 prior with
  omega = 0.128, on the alpha grid of the benchmark's `se_tune` workload:
  alpha*, lambda*, every SE row and the AMSE of every grid point, or the
  name of the exception a cell raises (least squares under Cauchy noise).
  Then `score_moments` of each pair at 25 values of b from 1e-3 to 1e3 and
  sigma in {0, 1e-3, 0.5, 30} (0 reaches the heavy-tailed laws'
  point-mass branch), as two parts per point: the slope, E Phi^2 and the
  first and second derivatives of E Phi^2 in b, then, on a finite score
  window, the slope and its first and second derivatives in b. So every
  value that steers the tau update's steps is digested; a save made by
  an earlier version of this tool, which digested fewer, does not
  compare. Then
  `soft_threshold_risk` at m = 0, at m = +-1e3 and on 401 means in
  [-40, 40] for alpha in {0.05, 0.5, 1, 2, 3, 10}. The fixed-point stream
  holds `se_fixed_point` runs the sweep never reaches: least squares under
  Cauchy noise (flagged diverged without iterating), least squares at
  delta = 0.3, omega = 0.25, alpha = 0.1 (diverges), a run stopped by
  max_iter, a start from init_tau_sq and an unpenalized fit. Each adds its
  rows, its starred values and its flags.
- `reports` (streams `reports` and `stderr`). 18 commands run in-process
  through `ramp.cli.main`, each into its own temporary directory: the five
  default `ramp bench` studies, seeded and unseeded reruns of the
  convergence and design studies, four `ramp solve` runs that together
  reach every noise law, three `ramp se` runs (one flagged diverged, exit
  3) and two runs that fail before writing (exit 1). A command gives its
  exit code and file list, then each file its lines: the text with each
  numeric cell (a field between commas or white space that parses as a
  float) replaced by '#', then the numeric cells. The `stderr` stream holds
  what each command wrote to standard error, line by line in the same
  form, so that a changed error message shows. It also prints each exit
  code, each command's standard error and one SHA-256 of each file's
  bytes.
- `oracle` (streams `x_hat` and `objective`). The kinked oracle's fits on
  80 Gaussian-design draws (seeds 8000..8079) and 120 +-1-design draws
  (seeds 9000..9119, response rounded to 0.1 so that residuals tie at
  zero), each of n = integers(20, 150) by p = integers(10, 200) with x = 1
  on the first 3 columns and N(0, 0.25) noise, for the absolute,
  quantile(0.2) and quantile(0.7) losses at 0.3 and 0.05 of the zero-fit
  edge max |A' rho'(y)|; then the four fits of the benchmark's
  `kinked_oracle` workload. The `x_hat` stream holds each fit, the
  `objective` stream its objective: on a degenerate LP several fits are
  optimal, so a fit can move to another optimal vertex while its objective
  stays within the bound. It also prints how many fits are uncertified
  (kkt_residual above 1e-4 lam sqrt(n)) and the label of each.

The tests reuse the `oracle` kind's fixtures: `sweep_instance` (one draw
of the sweep), `zero_fit_edge` (the penalty where the zero fit becomes
optimal) and `benchmark_fits` (the four `kinked_oracle` fits), and
tests/test_digest.py pins `DRAW` and the copied workload constants to the
benchmark's own statement of them.

`--save PATH` writes every stream as JSON. `--against PATH` compares a run
with such a file: it prints the largest relative difference of the close
parts per stream, then each case beyond RTOL = 1e-12 (every case, for
`reports`) beside its difference in the other streams that hold it, so
that an `oracle` fit whose `x_hat` moved reads with its objective's
difference. It exits 1 when a difference exceeds RTOL, or when a case
name, a part count or layout, a text part, an exact part or a nan or inf
differs.
"""

from __future__ import annotations

import os

# set before numpy loads, so that BLAS reads it
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import time

import numpy as np

from ramp import cli
from ramp.experiments import convergence_study_spec, generate_instance
from ramp.gauss import soft_threshold_risk
from ramp.losses import (absolute, huber, least_squares, loss_grad, loss_label,
                         quantile, score_shape)
from ramp.oracle import solve_penalized
from ramp.solver import ProblemInstance
from ramp.state_evolution import (Cauchy, DistributionModel, Laplace, Normal,
                                  NormalMixture, SeConfig, StudentT, pm_one_prior,
                                  score_moments, se_fixed_point, tune_alpha)

# the largest relative difference of a close part that --against accepts
RTOL = 1e-12


def floats(*values):
    return np.asarray(values, dtype=float).ravel()


# ---------------------------------------------------------------------------
# se

# the benchmark draw (geometry, design and noise), stated once by ramp
DRAW = convergence_study_spec()
DELTA = DRAW.n / DRAW.p
PRIOR = pm_one_prior(DRAW.s / DRAW.p)
# copies of perfbench/workloads.py's constants; tests/test_digest.py pins them
SE_BASE_GRID = (1.0, 1.4, 1.8, 2.2, 2.6, 3.0)
NOISES = (Normal(0.2), Laplace(1.0), StudentT(4.0), Cauchy(1.0), StudentT(8.0),
          NormalMixture(((0.9, 0.1), (0.1, 5.0))),
          NormalMixture(((0.5, 0.3), (0.5, 1.0))))
LOSSES = (least_squares(), huber(1.0), huber(0.5), absolute(), quantile(0.7), quantile(0.3))
B_GRID = np.geomspace(1e-3, 1e3, 25)
SIGMAS = (0.0, 1e-3, 0.5, 30.0)
RISK_MEANS = (0.0, -1e3, 1e3, np.linspace(-40.0, 40.0, 401))
RISK_ALPHAS = (0.05, 0.5, 1.0, 2.0, 3.0, 10.0)
# (noise, loss, prior, delta, alpha, keyword arguments of se_fixed_point)
FIXED_POINT_RUNS = (
    (Cauchy(1.0), least_squares(), PRIOR, DELTA, 2.0, {}),
    (Normal(0.2), least_squares(), pm_one_prior(0.25), 0.3, 0.1, {}),
    (StudentT(4.0), quantile(0.7), PRIOR, DELTA, 2.0, {"config": SeConfig(max_iter=3)}),
    (Laplace(1.0), huber(1.0), PRIOR, DELTA, 2.0, {"init_tau_sq": 0.1}),
    (Laplace(1.0), absolute(), pm_one_prior(1.0), 1.6, 0.0, {}),
)


def row_parts(res):
    return ("close", floats(*(v for row in res.rows for v in row)))


def tuned_parts(noise, loss):
    try:
        tuned = tune_alpha(DistributionModel(PRIOR, noise), loss, DELTA,
                           alpha_grid=SE_BASE_GRID)
    except (RuntimeError, ValueError) as exc:
        return [("text", type(exc).__name__)]
    res = tuned.result
    return [("exact", floats(tuned.alpha_star)),
            ("close", floats(tuned.lambda_star, *tuned.amse_values)), row_parts(res),
            ("close", floats(res.tau_star_sq, res.sigma_star_sq, res.b_star))]


def curve_parts(noise, loss):
    finite = math.isfinite(score_shape(loss).e_hi)
    out = []
    for sigma in SIGMAS:
        for b in B_GRID:
            try:
                slope, deriv, sq, dsq, d2slope, d2sq = score_moments(loss, b, noise, sigma)
            except ValueError as exc:
                out.append(("text", type(exc).__name__))
                continue
            out.append(("close", floats(slope, sq, dsq, d2sq)))
            if finite:
                out.append(("close", floats(slope, deriv, d2slope)))
    return out


def se_streams():
    sweep = []
    for noise in NOISES:
        for loss in LOSSES:
            label = f"{noise} {loss_label(loss)}"
            sweep.append((label, [("text", label)] + tuned_parts(noise, loss)
                          + curve_parts(noise, loss)))
    for m in RISK_MEANS:
        for alpha in RISK_ALPHAS:
            sweep.append((f"soft_threshold_risk alpha={alpha}", [("close", floats(
                *(soft_threshold_risk(float(x), alpha) for x in np.ravel(m))))]))
    fixed = []
    for noise, loss, prior, delta, alpha, kwargs in FIXED_POINT_RUNS:
        res = se_fixed_point(DistributionModel(prior, noise), loss, delta, alpha, **kwargs)
        fixed.append((f"se_fixed_point {noise} {loss_label(loss)} alpha={alpha}",
                      [row_parts(res),
                       ("close", floats(res.sigma_star_sq, res.tau_star_sq,
                                        res.b_star, res.theta_star)),
                       ("exact", floats(res.converged, res.diverged, res.monotone))]))
    print(f"cells: {len(NOISES) * len(LOSSES)}")
    return {"se": sweep, "fixed-point": fixed}


# ---------------------------------------------------------------------------
# reports

COMMANDS = (
    ("bench_convergence", "bench --study convergence"),
    ("bench_dense", "bench --study dense"),
    ("bench_sparse", "bench --study sparse"),
    ("bench_noise", "bench --study noise"),
    ("bench_design", "bench --study design"),
    ("bench_convergence_r3_s7", "bench --study convergence --replications 3 --seed 7"),
    ("bench_design_r2_s0", "bench --study design --replications 2 --seed 0"),
    ("bench_convergence_r2", "bench --study convergence --replications 2"),
    ("bench_design_r1", "bench --study design --replications 1"),
    ("solve_huber", "solve --loss huber"),
    ("solve_lad_laplace", "solve --loss lad --noise laplace --noise-param 1 --max-iter 30"),
    ("solve_lad_t4", "solve --loss lad --noise student_t --noise-param 4 --max-iter 20"),
    ("solve_lad_cauchy", "solve --loss lad --noise cauchy --noise-param 1 --max-iter 20"),
    ("se_four_losses", "se --losses ls,huber,lad,quantile"),
    ("se_lad_cauchy", "se --losses lad --noise cauchy --noise-param 1"),
    ("se_ls_t1.5", "se --losses ls --noise student_t --noise-param 1.5"),
    ("se_huber_calibration_error", "se --losses huber --noise normal --noise-param 1e28"),
    ("solve_negative_alpha", "solve --alpha -1"),
)


def line_parts(text):
    """Per line, its text with each numeric cell replaced by '#', then its
    numeric cells."""
    parts = []
    for line in text.splitlines(keepends=True):
        fields = re.split(r"([,\s]+)", line)
        numbers = []
        for i in range(0, len(fields), 2):
            try:
                numbers.append(float(fields[i]))
            except ValueError:
                continue
            fields[i] = "#"
        parts += [("text", "".join(fields)), ("close", floats(*numbers))]
    return parts


def report_streams():
    cases, errors = [], []
    with tempfile.TemporaryDirectory() as root:
        for name, command in COMMANDS:
            out = os.path.join(root, name)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(command.split() + ["--out", out])
            print(f"{err.getvalue()}exit {code}  {name}")
            errors.append((name, line_parts(err.getvalue())))
            files = sorted(os.listdir(out)) if os.path.isdir(out) else []
            cases.append((name, [("text", f"exit {code}"), ("text", " ".join(files))]))
            for file in files:
                with open(os.path.join(out, file), "rb") as fh:
                    data = fh.read()
                print(f"{hashlib.sha256(data).hexdigest()}  {name}/{file}")
                cases.append((f"{name}/{file}", line_parts(data.decode())))
    return {"reports": cases, "stderr": errors}


# ---------------------------------------------------------------------------
# oracle

GAUSSIAN_SEEDS = range(8000, 8080)
PM_ONE_SEEDS = range(9000, 9120)
ORACLE_SWEEP_LOSSES = (absolute(), quantile(0.2), quantile(0.7))
EDGE_FRACTIONS = (0.3, 0.05)
# copies of perfbench/workloads.py's constants; tests/test_digest.py pins them
ORACLE_DRAWS = (20000, 20001)
ORACLE_LAMBDAS = {"absolute": 1.8612876045191418, "quantile": 0.9807552458290909}
ORACLE_LOSSES = (absolute(), quantile(0.7))


def sweep_instance(seed, pm_one):
    """A draw of the sweep: n and p drawn from the seed, x = 1 on the first
    3 columns, N(0, 0.25) noise; a +-1 design has its response rounded to
    0.1, so that residuals tie at zero."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(20, 150)), int(rng.integers(10, 200))
    A = (rng.choice([-1.0, 1.0], size=(n, p)) / math.sqrt(n) if pm_one
         else rng.normal(0.0, 1.0 / math.sqrt(n), (n, p)))
    x = np.zeros(p)
    x[:3] = 1.0
    y = A @ x + rng.normal(0.0, 0.5, n)
    return ProblemInstance(A=A, y=np.round(y, 1) if pm_one else y, s=3, x_true=x)


def zero_fit_edge(inst, loss):
    """max |A' rho'(y)|: the smallest penalty at which the zero fit is optimal."""
    return float(np.max(np.abs(inst.A.T @ loss_grad(loss, inst.y))))


def benchmark_fits():
    """(label, instance, loss, lam) of the `kinked_oracle` workload's four fits."""
    for draw in ORACLE_DRAWS:
        inst = generate_instance(DRAW, draw)
        for loss, lam in zip(ORACLE_LOSSES, ORACLE_LAMBDAS.values()):
            yield f"{draw} {loss_label(loss)}", inst, loss, lam


def oracle_fits():
    """(label, instance, loss, lam) of every fit, in digest order."""
    for pm_one, seeds in ((False, GAUSSIAN_SEEDS), (True, PM_ONE_SEEDS)):
        for seed in seeds:
            inst = sweep_instance(seed, pm_one)
            for loss in ORACLE_SWEEP_LOSSES:
                edge = zero_fit_edge(inst, loss)
                for frac in EDGE_FRACTIONS:
                    yield (f"{'pm1' if pm_one else 'gauss'} {seed} "
                           f"{loss_label(loss)} {frac}"), inst, loss, frac * edge
    for label, inst, loss, lam in benchmark_fits():
        yield f"bench {label}", inst, loss, lam


def oracle_streams():
    cases, objectives, uncertified = [], [], []
    for label, inst, loss, lam in oracle_fits():
        res = solve_penalized(inst, loss, lam)
        cases.append((label, [("close", res.x_hat)]))
        objectives.append((label, [("close", floats(res.objective))]))
        if res.kkt_residual > 1e-4 * lam * math.sqrt(inst.n):
            uncertified.append(label)
    print(f"fits: {len(cases)}\nuncertified: {len(uncertified)}"
          + "".join(f"\n  {label}" for label in uncertified))
    return {"x_hat": cases, "objective": objectives}


# ---------------------------------------------------------------------------
# the driver

KINDS = {"se": se_streams, "reports": report_streams, "oracle": oracle_streams}


def sha256(cases):
    """One SHA-256 over the parts of a stream: text as UTF-8, floats as bytes."""
    return hashlib.sha256(b"".join(value.encode() if kind == "text" else value.tobytes()
                                   for _, parts in cases for kind, value in parts)).hexdigest()


def rel_diff(a, b):
    """Largest |a - b| / max(|a|, |b|) over finite pairs, and whether the
    nonfinite entries (nan, inf) sit at the same places with the same values."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fin = np.isfinite(a) & np.isfinite(b)
    same = bool(np.all(fin | (a == b) | (np.isnan(a) & np.isnan(b))))
    scale = np.maximum(np.abs(a[fin]), np.abs(b[fin]))
    diff = np.abs(a[fin] - b[fin])
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return (float(rel.max()) if rel.size else 0.0), same


def compare(new, old):
    """({case name: largest relative difference of its float parts},
    mismatches) of two streams; the caller bounds the differences."""
    worst, mismatches = {}, []
    if len(new) != len(old):
        mismatches.append(f"{len(new)} cases against {len(old)}")
    for (name, parts), (old_name, old_parts) in zip(new, old):
        layout, old_layout = [k for k, _ in parts], [k for k, _ in old_parts]
        if (name, layout) != (old_name, old_layout):
            mismatches.append(f"case {name!r} {layout} against {old_name!r} {old_layout}")
            continue
        for i, ((kind, value), (_, old_value)) in enumerate(zip(parts, old_parts)):
            if kind == "text" or len(value) != len(old_value):
                rel, same = 0.0, kind == "text" and value == old_value
            else:
                rel, same = rel_diff(value, old_value)
            if not same or (kind == "exact" and rel > 0.0):
                mismatches.append(f"{name}, part {i}: {value} against {old_value}")
            elif kind != "text":
                worst[name] = max(worst.get(name, 0.0), rel)
    return worst, mismatches


def against(streams, old, per_case):
    """Print the largest difference of each stream against a saved run,
    each case beyond RTOL (every case when per_case) beside its difference
    in the other streams that hold it, and every mismatch; whether all
    agree."""
    ok = list(streams) == list(old)
    if not ok:
        print(f"MISMATCH streams {list(streams)} against {list(old)}")
    found = {key: compare(cases, old.get(key, [])) for key, cases in streams.items()}
    for key, (worst, mismatches) in found.items():
        top = max(worst, key=worst.get, default=None)
        print(f"{key}: largest relative difference {worst.get(top, 0.0):.3g}"
              + (f" ({top})" if worst.get(top) else ""))
        for name, rel in worst.items():
            if per_case or rel > RTOL:
                print(f"{rel:.3g}  {name}" + "".join(
                    f"  ({other} {found[other][0][name]:.3g})" for other in found
                    if other != key and name in found[other][0]))
        for line in mismatches[:20]:
            print(f"  MISMATCH {line[:200]}")
        ok &= not mismatches and worst.get(top, 0.0) <= RTOL
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--save", metavar="PATH", help="write every stream as JSON")
    parser.add_argument("--against", metavar="PATH",
                        help="compare with a file written by --save")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    streams = KINDS[args.kind]()
    for key, cases in streams.items():
        print(f"{key} sha256: {sha256(cases)}")
    print(f"seconds: {time.perf_counter() - start:.1f}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({key: [[name, [[kind, value if kind == "text" else value.tolist()]
                                     for kind, value in parts]] for name, parts in cases]
                       for key, cases in streams.items()}, fh)
    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)
        return 0 if against(streams, old, per_case=args.kind == "reports") else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

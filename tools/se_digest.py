"""SHA-256 digests over state evolution's outputs on fixed cases.

Two trees that print the same digests returned bit-identical numbers on
every case, so a change to `ramp.state_evolution` or `ramp.gauss` that
claims unchanged output can be checked by running this script on both.
The sweep (`se sha256`), in digest order:

- `tune_alpha` on every cell of {Normal(0.2), Laplace(1), t(4), Cauchy(1),
  t(8), two normal mixtures} x {least squares, Huber(1), Huber(0.5),
  absolute, quantile(0.7), quantile(0.3)} at delta = 0.64 and the +-1
  prior with omega = 0.128, on the alpha grid (1.0, 1.4, ..., 3.0) of the
  benchmark's `se_tune` workload: alpha*, lambda*, every SE row and the
  AMSE of every grid point. A cell that raises (least squares under
  Cauchy noise, where every alpha diverges) adds its exception's name;
- `score_moments` and `slope_curve` of every (noise, loss) pair at 25
  values of b from 1e-3 to 1e3 and sigma in {1e-3, 0.5, 30}, the
  infinite score window of least squares giving `score_moments` alone;
- `soft_threshold_risk` at m = 0, at m = +-1e3 and on 401 means in
  [-40, 40], for alpha in {0.05, 0.5, 1, 2, 3, 10}.

The fixed-point runs (`fixed-point sha256`) are `se_fixed_point` calls
that the sweep never reaches: least squares under Cauchy noise (flagged
diverged without iterating), least squares at delta = 0.3, omega = 0.25,
alpha = 0.1 (diverges after 31 iterations), a run stopped by max_iter, a
start from init_tau_sq and an unpenalized fit at alpha = 0. Each adds its
rows, its starred values and its converged, diverged and monotone flags;
not its iteration count, which is read from the rows.

A change that moves the last bits on purpose (a different Newton path to
the same roots, say) cannot keep the digests; `--save PATH` writes every
case's numbers as JSON, and `--against PATH` compares a run with such a
file. It prints the largest relative difference of the floats and exits 1
when it exceeds 1e-12 or when any label, exception name, row count,
alpha*, nan pattern or converged, diverged or monotone flag differs.

Usage: PYTHONPATH=src python3 tools/se_digest.py [--save PATH] [--against PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from ramp.gauss import soft_threshold_risk
from ramp.losses import absolute, huber, least_squares, loss_label, quantile, score_shape
from ramp.state_evolution import (
    Cauchy,
    DistributionModel,
    Laplace,
    Normal,
    NormalMixture,
    SeConfig,
    StudentT,
    pm_one_prior,
    score_moments,
    se_fixed_point,
    slope_curve,
    tune_alpha,
)

DELTA = 0.64
PRIOR = pm_one_prior(0.128)
# the base alpha grid of perfbench's se_tune workload (SE_BASE_GRID)
ALPHA_GRID = (1.0, 1.4, 1.8, 2.2, 2.6, 3.0)
NOISES = (Normal(0.2), Laplace(1.0), StudentT(4.0), Cauchy(1.0), StudentT(8.0),
          NormalMixture(((0.9, 0.1), (0.1, 5.0))),
          NormalMixture(((0.5, 0.3), (0.5, 1.0))))
LOSSES = (least_squares(), huber(1.0), huber(0.5), absolute(), quantile(0.7),
          quantile(0.3))
# the largest relative difference of a float that --against accepts
RTOL = 1e-12
B_GRID = np.geomspace(1e-3, 1e3, 25)
SIGMAS = (1e-3, 0.5, 30.0)
RISK_MEANS = (0.0, -1e3, 1e3, np.linspace(-40.0, 40.0, 401))
RISK_ALPHAS = (0.05, 0.5, 1.0, 2.0, 3.0, 10.0)


def floats(*values):
    return np.asarray(values, dtype=float).ravel()


# A case is (name, parts). A part is (kind, value): "text" (a label or an
# exception name, hashed as UTF-8), "exact" or "close" (float arrays,
# hashed as their bytes). --against compares text and exact parts for
# equality and close parts within a relative bound; the name only reports.


def tuned_parts(noise, loss):
    """alpha*, lambda*, the AMSE values, the SE rows and the starred values."""
    try:
        tuned = tune_alpha(DistributionModel(PRIOR, noise), loss, DELTA,
                           alpha_grid=ALPHA_GRID)
    except (RuntimeError, ValueError) as exc:
        return [("text", type(exc).__name__)]
    res = tuned.result
    return [("exact", floats(tuned.alpha_star)),
            ("close", floats(tuned.lambda_star, *tuned.amse_values)),
            ("close", floats(*(v for row in res.rows for v in row))),
            ("close", floats(res.tau_star_sq, res.sigma_star_sq, res.b_star))]


# (noise, loss, prior, delta, alpha, keyword arguments of se_fixed_point)
FIXED_POINT_RUNS = (
    (Cauchy(1.0), least_squares(), PRIOR, DELTA, 2.0, {}),
    (Normal(0.2), least_squares(), pm_one_prior(0.25), 0.3, 0.1, {}),
    (StudentT(4.0), quantile(0.7), PRIOR, DELTA, 2.0, {"config": SeConfig(max_iter=3)}),
    (Laplace(1.0), huber(1.0), PRIOR, DELTA, 2.0, {"init_tau_sq": 0.1}),
    (Laplace(1.0), absolute(), pm_one_prior(1.0), 1.6, 0.0, {}),
)


def fixed_point_parts(noise, loss, prior, delta, alpha, kwargs):
    """The rows, starred values and flags of one se_fixed_point run."""
    res = se_fixed_point(DistributionModel(prior, noise), loss, delta, alpha, **kwargs)
    return [("close", floats(*(v for row in res.rows for v in row))),
            ("close", floats(res.sigma_star_sq, res.tau_star_sq, res.b_star,
                             res.theta_star)),
            ("exact", floats(res.converged, res.diverged, res.monotone))]


def curve_parts(noise, loss):
    """score_moments, and slope_curve on a finite window, over b and sigma."""
    finite = math.isfinite(score_shape(loss).e_hi)
    out = []
    for sigma in SIGMAS:
        for b in B_GRID:
            try:
                out.append(("close", floats(*score_moments(loss, b, noise, sigma))))
            except ValueError as exc:
                out.append(("text", type(exc).__name__))
            if finite:
                out.append(("close", floats(*slope_curve(loss, b, noise, sigma))))
    return out


def sweep_cases():
    for noise in NOISES:
        for loss in LOSSES:
            label = f"{noise} {loss_label(loss)}"
            yield label, [("text", label)] + tuned_parts(noise, loss) + curve_parts(noise, loss)
    for m in RISK_MEANS:
        for alpha in RISK_ALPHAS:
            yield (f"soft_threshold_risk alpha={alpha}",
                   [("close", floats(soft_threshold_risk(m, alpha)))])


def fixed_point_cases():
    for noise, loss, prior, delta, alpha, kwargs in FIXED_POINT_RUNS:
        yield (f"se_fixed_point {noise} {loss_label(loss)} alpha={alpha}",
               fixed_point_parts(noise, loss, prior, delta, alpha, kwargs))


def sha256(cases):
    digest = hashlib.sha256()
    for _, parts in cases:
        for kind, value in parts:
            digest.update(value.encode() if kind == "text" else value.tobytes())
    return digest.hexdigest()


def to_json(cases):
    return [[name, [[kind, value if kind == "text" else value.tolist()]
                    for kind, value in parts]] for name, parts in cases]


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
    """(largest relative difference, its case, mismatches) of two streams."""
    worst, where, mismatches = 0.0, None, []
    if len(new) != len(old):
        mismatches.append(f"{len(new)} cases against {len(old)}")
    for (name, parts), (old_name, old_parts) in zip(new, old):
        if name != old_name:
            mismatches.append(f"case {name!r} against {old_name!r}")
            continue
        if [k for k, _ in parts] != [k for k, _ in old_parts]:
            mismatches.append(f"{name}: parts {[k for k, _ in parts]} "
                              f"against {[k for k, _ in old_parts]}")
            continue
        for i, ((kind, value), (_, old_value)) in enumerate(zip(parts, old_parts)):
            if kind == "text":
                if value != old_value:
                    mismatches.append(f"{name}, part {i}: {value} against {old_value}")
                continue
            if len(value) != len(old_value):
                mismatches.append(f"{name}, part {i}: {len(value)} values "
                                  f"against {len(old_value)}")
                continue
            rel, same = rel_diff(value, old_value)
            if not same or (kind == "exact" and rel > 0.0):
                mismatches.append(f"{name}, part {i}: {value} against {old_value}")
            elif rel > worst:
                worst, where = rel, f"{name}, part {i}"
    return worst, where, mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", metavar="PATH",
                        help="write the float stream of the sweep and the runs as JSON")
    parser.add_argument("--against", metavar="PATH",
                        help="compare with a stream written by --save")
    args = parser.parse_args()
    start = time.perf_counter()
    sweep = list(sweep_cases())
    fixed = list(fixed_point_cases())
    print(f"cells: {len(NOISES) * len(LOSSES)}")
    print(f"se sha256: {sha256(sweep)}")
    print(f"fixed-point sha256: {sha256(fixed)}")
    print(f"seconds: {time.perf_counter() - start:.1f}")
    stream = {"sweep": to_json(sweep), "fixed_point": to_json(fixed)}
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(stream, fh)
    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)
        failed = False
        for key in ("sweep", "fixed_point"):
            worst, where, mismatches = compare(stream[key], old[key])
            print(f"{key}: largest relative difference {worst:.3g}"
                  + (f" ({where})" if where else ""))
            for line in mismatches[:20]:
                print(f"  MISMATCH {line}")
            failed |= bool(mismatches) or worst > RTOL
        if failed:
            sys.exit(1)


if __name__ == "__main__":
    main()

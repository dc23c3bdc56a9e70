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

Usage: PYTHONPATH=src python3 tools/se_digest.py
"""

from __future__ import annotations

import hashlib
import math
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
B_GRID = np.geomspace(1e-3, 1e3, 25)
SIGMAS = (1e-3, 0.5, 30.0)
RISK_MEANS = (0.0, -1e3, 1e3, np.linspace(-40.0, 40.0, 401))
RISK_ALPHAS = (0.05, 0.5, 1.0, 2.0, 3.0, 10.0)


def floats(*values):
    return np.asarray(values, dtype=float).tobytes()


def tuned_bytes(noise, loss):
    """alpha*, lambda*, the SE rows and the AMSE values of one cell."""
    try:
        tuned = tune_alpha(DistributionModel(PRIOR, noise), loss, DELTA,
                           alpha_grid=ALPHA_GRID)
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__.encode()
    res = tuned.result
    return (floats(tuned.alpha_star, tuned.lambda_star, *tuned.amse_values)
            + floats(*(v for row in res.rows for v in row))
            + floats(res.tau_star_sq, res.sigma_star_sq, res.b_star))


# (noise, loss, prior, delta, alpha, keyword arguments of se_fixed_point)
FIXED_POINT_RUNS = (
    (Cauchy(1.0), least_squares(), PRIOR, DELTA, 2.0, {}),
    (Normal(0.2), least_squares(), pm_one_prior(0.25), 0.3, 0.1, {}),
    (StudentT(4.0), quantile(0.7), PRIOR, DELTA, 2.0, {"config": SeConfig(max_iter=3)}),
    (Laplace(1.0), huber(1.0), PRIOR, DELTA, 2.0, {"init_tau_sq": 0.1}),
    (Laplace(1.0), absolute(), pm_one_prior(1.0), 1.6, 0.0, {}),
)


def fixed_point_bytes(noise, loss, prior, delta, alpha, kwargs):
    """The rows, starred values and flags of one se_fixed_point run."""
    res = se_fixed_point(DistributionModel(prior, noise), loss, delta, alpha, **kwargs)
    return (floats(*(v for row in res.rows for v in row))
            + floats(res.sigma_star_sq, res.tau_star_sq, res.b_star, res.theta_star)
            + floats(res.converged, res.diverged, res.monotone))


def curve_bytes(noise, loss):
    """score_moments, and slope_curve on a finite window, over b and sigma."""
    finite = math.isfinite(score_shape(loss).e_hi)
    out = []
    for sigma in SIGMAS:
        for b in B_GRID:
            try:
                out.append(floats(*score_moments(loss, b, noise, sigma)))
            except ValueError as exc:
                out.append(type(exc).__name__.encode())
            if finite:
                out.append(floats(*slope_curve(loss, b, noise, sigma)))
    return b"".join(out)


def main():
    digest = hashlib.sha256()
    start = time.perf_counter()
    cells = 0
    for noise in NOISES:
        for loss in LOSSES:
            digest.update(f"{noise} {loss_label(loss)}".encode())
            digest.update(tuned_bytes(noise, loss))
            digest.update(curve_bytes(noise, loss))
            cells += 1
    for m in RISK_MEANS:
        for alpha in RISK_ALPHAS:
            digest.update(floats(soft_threshold_risk(m, alpha)))
    fixed = hashlib.sha256()
    for run in FIXED_POINT_RUNS:
        fixed.update(fixed_point_bytes(*run))
    print(f"cells: {cells}")
    print(f"se sha256: {digest.hexdigest()}")
    print(f"fixed-point sha256: {fixed.hexdigest()}")
    print(f"seconds: {time.perf_counter() - start:.1f}")


if __name__ == "__main__":
    main()

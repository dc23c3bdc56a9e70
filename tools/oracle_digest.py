"""One SHA-256 digest over the kinked oracle's fits on a fixed sweep.

Two trees that print the same digest returned bit-identical `x_hat` on
every case, so a change to `ramp.oracle` that claims unchanged fits can be
checked by running this script on both. The sweep:

- 80 Gaussian-design draws (seeds 8000..8079, A ~ N(0, 1/n)) and 120
  +-1-design draws (seeds 9000..9119, A = +-1/sqrt(n), response rounded to
  0.1 so that residuals tie at zero); each draws n = integers(20, 150) and
  p = integers(10, 200), puts x = 1 on the first 3 columns and adds
  N(0, 0.25) noise;
- the absolute, quantile(0.2) and quantile(0.7) losses;
- lambda at 0.3 and 0.05 of the zero-fit edge max |A' rho'(y)|.

That is 1200 cases, then the benchmark's four `kinked_oracle` fits (draws 20000
and 20001 of the convergence study, absolute and quantile(0.7) at the
SE-implied lambda at alpha = 2). Besides the digest it prints how many
fits came back uncertified, with kkt_residual above the default
tolerance 1e-4 lam sqrt(n), and the label of each.

Usage: PYTHONPATH=src python3 tools/oracle_digest.py
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from ramp.experiments import convergence_study_spec, generate_instance
from ramp.losses import absolute, loss_grad, loss_label, quantile
from ramp.oracle import solve_penalized
from ramp.solver import ProblemInstance

GAUSSIAN_SEEDS = range(8000, 8080)
PM_ONE_SEEDS = range(9000, 9120)
LOSSES = (absolute(), quantile(0.2), quantile(0.7))
EDGE_FRACTIONS = (0.3, 0.05)
# the ops of perfbench's kinked_oracle workload: its ORACLE_DRAWS and
# ORACLE_LAMBDAS
BENCH_DRAWS = (20000, 20001)
BENCH_LAMBDAS = ((absolute(), 1.8612876045191418),
                 (quantile(0.7), 0.9807552458290909))


def sweep_instance(seed, pm_one):
    """One draw of the sweep: Gaussian or rounded +-1 design."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 150))
    p = int(rng.integers(10, 200))
    if pm_one:
        A = rng.choice([-1.0, 1.0], size=(n, p)) / math.sqrt(n)
    else:
        A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, p))
    x = np.zeros(p)
    x[:3] = 1.0
    y = A @ x + rng.normal(0.0, 0.5, n)
    if pm_one:
        y = np.round(y, 1)
    return ProblemInstance(A=A, y=y, s=3, x_true=x)


def cases():
    """(label, instance, loss, lam) of every fit, in digest order."""
    for pm_one, seeds in ((False, GAUSSIAN_SEEDS), (True, PM_ONE_SEEDS)):
        for seed in seeds:
            inst = sweep_instance(seed, pm_one)
            for loss in LOSSES:
                edge = float(np.max(np.abs(inst.A.T @ loss_grad(loss, inst.y))))
                for frac in EDGE_FRACTIONS:
                    yield (f"{'pm1' if pm_one else 'gauss'} {seed} "
                           f"{loss_label(loss)} {frac}"), inst, loss, frac * edge
    spec = convergence_study_spec(replications=1)
    for draw in BENCH_DRAWS:
        inst = generate_instance(spec, draw)
        for loss, lam in BENCH_LAMBDAS:
            yield f"bench {draw} {loss_label(loss)}", inst, loss, lam


def main():
    digest = hashlib.sha256()
    uncertified = []
    count = 0
    start = time.perf_counter()
    for label, inst, loss, lam in cases():
        res = solve_penalized(inst, loss, lam)
        digest.update(res.x_hat.tobytes())
        if res.kkt_residual > 1e-4 * lam * math.sqrt(inst.n):
            uncertified.append(label)
        count += 1
    print(f"fits: {count}")
    print(f"x_hat sha256: {digest.hexdigest()}")
    print(f"uncertified: {len(uncertified)}"
          + "".join(f"\n  {label}" for label in uncertified))
    print(f"seconds: {time.perf_counter() - start:.1f}")


if __name__ == "__main__":
    main()

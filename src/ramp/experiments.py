"""Instance generators and the scripted benchmark studies.

Each study returns a Report: a named table plus a metadata dict that pins
everything needed to reproduce it (seeds, versions, conventions). Reports
serialize to a CSV and a JSON sidecar; identical inputs produce identical
bytes, so written reports double as regression fixtures.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

from .calibration import CalibrationError
from .losses import (
    ABSOLUTE,
    HUBER,
    LEAST_SQUARES,
    absolute,
    huber,
    least_squares,
    quantile,
)
from .solver import DivergenceError, ProblemInstance, SolverConfig, run_ramp
from .state_evolution import (
    Cauchy,
    DistributionModel,
    Laplace,
    Normal,
    NormalMixture,
    SeConfig,
    StudentT,
    lambda_from_fixed_point,
    pm_one_prior,
    se_fixed_point,
    tune_alpha,
)

DESIGNS = ("gaussian", "rademacher")
MODES = ("penalized", "no_penalty")

LAPLACE_CONVENTION = "scale 1 means density exp(-|x|)/2, variance 2"

# noises used by the error-distribution study: two light tails, four heavy
NOISE_STUDY_LAWS = (
    Normal(0.2),
    NormalMixture(((0.5, 0.3), (0.5, 1.0))),
    StudentT(8),
    StudentT(4),
    NormalMixture(((0.7, 1.0), (0.3, 3.0))),
    Cauchy(1.0),
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One study configuration: geometry, data laws, losses, seeds."""

    n: int
    p: int
    s: int
    noise: object
    losses: tuple = (least_squares(),)
    design: str = "gaussian"
    mode: str = "penalized"
    alphas: Optional[tuple] = None
    replications: int = 100
    seeds: Optional[tuple] = None

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        object.__setattr__(self, "losses", tuple(self.losses))
        if self.alphas is not None:
            object.__setattr__(self, "alphas",
                               tuple(float(a) for a in self.alphas))
        if self.seeds is None:
            seeds = tuple(20_000 + i for i in range(self.replications))
        else:
            seeds = tuple(int(v) for v in self.seeds)
            if len(seeds) < self.replications:
                raise ValueError("fewer seeds than replications")
        object.__setattr__(self, "seeds", seeds)


def convergence_study_spec(replications=100):
    """The benchmark geometry: n=320, p=500, s=64, N(0, 0.2) noise."""
    return ExperimentSpec(
        n=320, p=500, s=64, noise=Normal(0.2),
        losses=(least_squares(), huber(1.0), absolute(), quantile(0.7)),
        replications=replications,
    )


def generate_instance(spec, seed):
    """Build one problem draw; identical seed gives identical bits."""
    rng = np.random.default_rng(seed)
    if spec.design == "gaussian":
        A = rng.normal(0.0, 1.0 / math.sqrt(spec.n), (spec.n, spec.p))
    else:
        A = (2.0 * rng.integers(0, 2, size=(spec.n, spec.p)) - 1.0) \
            / math.sqrt(spec.n)
    if spec.s > spec.p:
        raise ValueError("sparsity cannot exceed the number of columns")
    x = np.zeros(spec.p)
    support = rng.choice(spec.p, size=spec.s, replace=False)
    x[support] = rng.choice([-1.0, 1.0], size=spec.s)
    w = spec.noise.sample(rng, spec.n)
    y = A @ x + w
    return ProblemInstance(A=A, y=y, s=spec.s, x_true=x)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class Report:
    name: str
    columns: tuple
    rows: tuple
    metadata: dict = field(default_factory=dict)


def _format_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        # plain-float repr: numpy scalars would stringify as np.float64(...)
        return repr(float(v))
    return str(v)


def _versions():
    try:
        from importlib.metadata import version
        own = version("ramp")
    except Exception:
        own = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "ramp": own}


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(report, directory=None):
    """Serialize to <name>.csv plus <name>_meta.json, atomically."""
    directory = directory or os.environ.get("RAMP_OUTPUT_DIR") or "."
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, f"{report.name}.csv")
    meta_path = os.path.join(directory, f"{report.name}_meta.json")

    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([_format_cell(v) for v in row])
    _atomic_write(csv_path, buf.getvalue())

    meta = dict(report.metadata)
    meta["versions"] = _versions()
    _atomic_write(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return csv_path, meta_path


def loss_label(loss):
    if loss.family == HUBER:
        return f"huber_{loss.gamma:g}"
    if loss.family == LEAST_SQUARES:
        return "least_squares"
    if loss.family == ABSOLUTE:
        return "absolute"
    return f"quantile_{loss.tau_q:g}"


def noise_label(noise):
    if isinstance(noise, Normal):
        return f"normal_{noise.sigma_sq:g}"
    if isinstance(noise, Laplace):
        return f"laplace_{noise.scale:g}"
    if isinstance(noise, StudentT):
        return f"student_t_{noise.df:g}"
    if isinstance(noise, Cauchy):
        return f"cauchy_{noise.scale:g}"
    parts = "+".join(f"{w:g}xN(0,{v:g})" for w, v in noise.components)
    return f"mixnormal_{parts}"


# ---------------------------------------------------------------------------
# studies


def _replicate(spec, loss, alpha):
    """Run the solver at threshold multiplier alpha on every draw of spec.

    Returns the (result, mse) pairs of the runs that finished, in seed
    order, and the number of runs that failed with a runaway scale or a
    calibration breakdown.
    """
    runs = []
    failures = 0
    for seed in spec.seeds[:spec.replications]:
        inst = generate_instance(spec, seed)
        try:
            res = run_ramp(inst, loss, SolverConfig(alpha=alpha))
        except (CalibrationError, DivergenceError):
            failures += 1
            continue
        err = res.state.x - inst.x_true
        runs.append((res, float(np.mean(err * err))))
    return runs, failures


def _mean_and_se(values):
    """Sample mean and its standard error; nan where too few values."""
    m = len(values)
    mean = float(np.mean(values)) if m else math.nan
    se = float(np.std(values, ddof=1) / math.sqrt(m)) if m > 1 else math.nan
    return mean, se


def run_convergence_study(spec=None, se_config=None):
    """Empirical runs at the theoretically tuned threshold, one row per loss.

    The threshold multiplier comes from minimizing the predicted error over
    a grid, then every replication runs the solver at that multiplier.
    Failed replications (runaway scale, calibration breakdown) are counted
    per row rather than aborting the study.
    """
    spec = spec or convergence_study_spec()
    se_config = se_config or SeConfig()
    delta = spec.n / spec.p
    omega = spec.s / spec.p
    dist = DistributionModel(pm_one_prior(omega), spec.noise)

    rows = []
    for loss in spec.losses:
        tuned = tune_alpha(dist, loss, delta, alpha_grid=spec.alphas,
                           config=se_config)
        alpha = float(tuned.alpha_star)
        runs, failures = _replicate(spec, loss, alpha)
        amse, amse_se = _mean_and_se([mse for _, mse in runs])

        def mean_of(field):
            return float(np.mean([field(res) for res, _ in runs])) if runs else math.nan

        rows.append((
            loss_label(loss), alpha, tuned.lambda_star,
            mean_of(lambda res: res.state.b),
            mean_of(lambda res: res.iterations),
            mean_of(lambda res: res.state.tau_hat_sq),
            amse, amse_se, sum(res.converged for res, _ in runs), failures,
            spec.replications,
        ))

    meta = {
        "study": "convergence",
        "n": spec.n, "p": spec.p, "s": spec.s,
        "design": spec.design, "noise": noise_label(spec.noise),
        "losses": [loss_label(l) for l in spec.losses],
        "replications": spec.replications,
        "seeds": list(spec.seeds[:spec.replications]),
        "solver": {"tol": 1e-6, "max_iter": 200},
        "se_tol": se_config.tol,
    }
    return Report(
        name="convergence_study",
        columns=("loss", "alpha_star", "lambda_star", "b_mean",
                 "iterations_mean", "tau_hat_sq_mean", "amse_mean", "amse_se",
                 "converged", "failed", "replications"),
        rows=tuple(rows), metadata=meta)


def _with_relative_efficiency(cells, reference_label):
    """Attach amse(reference)/amse(row) within each (noise, group) block."""
    out = []
    for key, loss_lab, payload in cells:
        ref = next(c[2]["amse"] for c in cells
                   if c[0] == key and c[1] == reference_label)
        amse = payload["amse"]
        rel = ref / amse if (amse and math.isfinite(amse)) else math.nan
        out.append((key, loss_lab, payload, rel))
    return out


def run_dense_efficiency(deltas=(10.0, 8.0, 3.0, 1.6, 1.4, 1.2),
                         noises=(Normal(0.2), Laplace(1.0)),
                         losses=(least_squares(), absolute()),
                         se_config=None):
    """Error of the unpenalized fits across aspect ratios, predicted exactly.

    No-penalty mode drops the shrinkage step, so the asymptotic error is the
    residual-scale fixed point itself and carries no sampling error.
    """
    se_config = se_config or SeConfig()
    prior = pm_one_prior(0.5)  # unused in no-penalty mode, any valid prior
    cells = []
    for noise in noises:
        dist = DistributionModel(prior, noise)
        for delta in deltas:
            for loss in losses:
                res = se_fixed_point(dist, loss, delta, mode="no_penalty",
                                     config=se_config)
                cells.append(((noise_label(noise), delta), loss_label(loss),
                              {"amse": res.amse, "converged": res.converged}))

    rows = tuple(
        (key[0], key[1], 1.0, loss_lab, payload["amse"], 0.0, rel,
         payload["converged"])
        for key, loss_lab, payload, rel
        in _with_relative_efficiency(cells, "least_squares"))
    meta = {
        "study": "dense_efficiency", "mode": "no_penalty",
        "deltas": list(deltas), "noises": [noise_label(nz) for nz in noises],
        "losses": [loss_label(l) for l in losses],
        "laplace_convention": LAPLACE_CONVENTION,
        "amse_se": "0 by construction: deterministic quadrature, no sampling",
        "se_tol": se_config.tol,
    }
    return Report(
        name="dense_efficiency",
        columns=("noise", "delta", "omega", "loss", "amse", "amse_se",
                 "relative_efficiency", "converged"),
        rows=rows, metadata=meta)


DEFAULT_SPARSE_ALPHAS = tuple(
    float(a) for a in np.round(np.arange(0.5, 5.0 + 1e-9, 0.05), 2))


def run_sparse_efficiency(omegas=(0.05, 0.1, 0.2, 0.5, 0.55, 0.6),
                          noises=(Normal(0.2), Laplace(1.0)),
                          losses=(least_squares(), absolute()),
                          delta=0.64, alpha_grid=DEFAULT_SPARSE_ALPHAS,
                          se_config=None):
    """Tuned penalized error across sparsity levels, one row per cell."""
    se_config = se_config or SeConfig()
    cells = []
    extras = {}
    for noise in noises:
        for omega in omegas:
            dist = DistributionModel(pm_one_prior(omega), noise)
            for loss in losses:
                key = (noise_label(noise), omega)
                try:
                    tuned = tune_alpha(dist, loss, delta,
                                       alpha_grid=alpha_grid,
                                       config=se_config)
                except RuntimeError:
                    cells.append((key, loss_label(loss),
                                  {"amse": math.nan, "converged": False}))
                    extras[(key, loss_label(loss))] = (math.nan, math.nan)
                    continue
                cells.append((key, loss_label(loss),
                              {"amse": tuned.result.amse, "converged": True}))
                extras[(key, loss_label(loss))] = (float(tuned.alpha_star),
                                                   float(tuned.lambda_star))

    rows = tuple(
        (key[0], delta, key[1], loss_lab, extras[(key, loss_lab)][0],
         extras[(key, loss_lab)][1], payload["amse"], 0.0, rel,
         payload["converged"])
        for key, loss_lab, payload, rel
        in _with_relative_efficiency(cells, "least_squares"))
    meta = {
        "study": "sparse_efficiency", "delta": delta,
        "omegas": list(omegas), "noises": [noise_label(nz) for nz in noises],
        "losses": [loss_label(l) for l in losses],
        "alpha_grid": [float(a) for a in alpha_grid],
        "laplace_convention": LAPLACE_CONVENTION,
        "amse_se": "0 by construction: deterministic quadrature, no sampling",
        "se_tol": se_config.tol,
    }
    return Report(
        name="sparse_efficiency",
        columns=("noise", "delta", "omega", "loss", "alpha_star",
                 "lambda_star", "amse", "amse_se", "relative_efficiency",
                 "converged"),
        rows=rows, metadata=meta)


def run_noise_study(losses=(least_squares(), huber(1.0), absolute()),
                    noises=NOISE_STUDY_LAWS, delta=0.64, omega=0.128,
                    alpha_grid=None, se_config=None):
    """Tuned predicted error per (noise, loss) pair; divergence recorded."""
    se_config = se_config or SeConfig()
    rows = []
    for noise in noises:
        dist = DistributionModel(pm_one_prior(omega), noise)
        for loss in losses:
            try:
                tuned = tune_alpha(dist, loss, delta, alpha_grid=alpha_grid,
                                   config=se_config)
            except RuntimeError:
                # unbounded score on a tail too heavy for it: every grid
                # point diverges and the pair is reported as such
                rows.append((noise_label(noise), loss_label(loss),
                             math.nan, math.nan, math.nan, True))
                continue
            rows.append((noise_label(noise), loss_label(loss),
                         float(tuned.alpha_star), float(tuned.lambda_star),
                         tuned.result.amse, False))
    meta = {
        "study": "noise_study", "delta": delta, "omega": omega,
        "noises": [noise_label(nz) for nz in noises],
        "losses": [loss_label(l) for l in losses],
        "laplace_convention": LAPLACE_CONVENTION,
        "se_tol": se_config.tol,
    }
    return Report(
        name="noise_study",
        columns=("noise", "loss", "alpha_star", "lambda_star", "amse",
                 "diverged"),
        rows=tuple(rows), metadata=meta)


def run_design_study(loss=least_squares(),
                     alphas=(1.1, 1.4, 1.7, 2.0, 2.4, 2.8),
                     n=320, p=500, s=64, noise=Normal(0.2),
                     replications=30, base_seed=31_000, se_config=None):
    """Gaussian vs sign designs on the same error-vs-penalty grid.

    The penalty labels come from the predicted fixed point at each threshold
    multiplier, so both designs are measured at identical grid points.
    """
    se_config = se_config or SeConfig()
    delta, omega = n / p, s / p
    dist = DistributionModel(pm_one_prior(omega), noise)
    lambda_labels = {}
    for alpha in alphas:
        res = se_fixed_point(dist, loss, delta, alpha=alpha, config=se_config)
        lambda_labels[alpha] = lambda_from_fixed_point(alpha, res, omega)

    rows = []
    for design in DESIGNS:
        for alpha in alphas:
            spec = ExperimentSpec(
                n=n, p=p, s=s, noise=noise, losses=(loss,), design=design,
                replications=replications,
                seeds=tuple(base_seed + i for i in range(replications)))
            runs, failures = _replicate(spec, loss, alpha)
            amse, se = _mean_and_se([mse for _, mse in runs])
            rows.append((design, alpha, lambda_labels[alpha], amse, se,
                         len(runs), failures))
    meta = {
        "study": "design_robustness", "loss": loss_label(loss),
        "n": n, "p": p, "s": s, "noise": noise_label(noise),
        "alphas": [float(a) for a in alphas],
        "replications": replications, "base_seed": base_seed,
        "solver": {"tol": 1e-6, "max_iter": 200},
    }
    return Report(
        name="design_robustness",
        columns=("design", "alpha", "lambda_star", "amse_mean", "amse_se",
                 "successes", "failed"),
        rows=tuple(rows), metadata=meta)

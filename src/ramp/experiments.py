"""Instance generators and the scripted benchmark studies.

Each study returns a Report: a named table plus a metadata dict that pins
everything needed to reproduce it (seeds, versions, conventions). Reports
serialize to a CSV and a JSON sidecar; identical inputs produce identical
bytes, so written reports double as regression fixtures.

An ExperimentSpec fixes one set of AMP draws: the geometry, the noise
law, the design and the seeds base_seed, base_seed + 1, ..., one per
replication. convergence_study_spec and design_study_spec hold the two
sampling studies' defaults. Both studies read one replicated AMP cell:
the solver at one alpha on every draw of a spec, reduced to means, a
standard error and run counts; the design study runs its spec under
both designs. The dense, sparse and noise studies are one
state-evolution table each: one loop over (noise, (delta, omega), loss)
tunes every cell on an alpha grid (the dense study's grid is alpha = 0 at
omega = 1, the unpenalized fit) and reports alpha*, lambda*, the AMSE and
its ratio to least squares in the same (noise, delta, omega) block. A
cell where no grid point converges reads nan. Every row is a dict, and
one projector reads it at the study's own columns; the design study's
penalty labels come from the same tuned cell at one alpha.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import tempfile
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np
import scipy

from .calibration import CalibrationError
from .losses import absolute, huber, least_squares, loss_label, quantile
from .solver import DivergenceError, ProblemInstance, SolverConfig, run_ramp
from .state_evolution import (
    DEFAULT_ALPHA_GRID,
    Cauchy,
    DistributionModel,
    Laplace,
    Normal,
    NormalMixture,
    SeConfig,
    StudentT,
    pm_one_prior,
    tune_alpha,
)

DESIGNS = ("gaussian", "rademacher")

# the named noise laws: `--noise` takes a name and `--noise-param` the law's
# first field, and a label begins with both
NOISE_LAWS = {"normal": Normal, "laplace": Laplace, "student_t": StudentT,
              "cauchy": Cauchy}

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
    """One study configuration: geometry, data laws, losses, draws.

    The draws are seeded base_seed, base_seed + 1, ..., one per replication.
    """

    n: int
    p: int
    s: int
    noise: object
    losses: tuple = (least_squares(),)
    design: str = "gaussian"
    alphas: Optional[tuple] = None
    replications: int = 100
    base_seed: int = 20_000

    def __post_init__(self):
        if not 0 < self.s < self.n:
            raise ValueError(
                f"sparsity must satisfy 0 < s < n, got s={self.s} n={self.n}")
        if self.s > self.p:
            raise ValueError(
                f"sparsity cannot exceed p, got s={self.s} p={self.p}")
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.base_seed < 0:
            raise ValueError(
                f"base_seed must be a nonnegative integer, got {self.base_seed}")
        object.__setattr__(self, "losses", tuple(self.losses))
        if self.alphas is not None:
            object.__setattr__(self, "alphas",
                               tuple(float(a) for a in self.alphas))
            if not self.alphas:
                raise ValueError("alphas is empty; pass None for the default grid")

    @property
    def seeds(self):
        return tuple(range(self.base_seed, self.base_seed + self.replications))


def convergence_study_spec(replications=100):
    """The benchmark geometry: n=320, p=500, s=64, N(0, 0.2) noise."""
    return ExperimentSpec(
        n=320, p=500, s=64, noise=Normal(0.2),
        losses=(least_squares(), huber(1.0), absolute(), quantile(0.7)),
        replications=replications,
    )


def design_study_spec():
    """The benchmark draw, least squares on six alphas, and 30 draws seeded
    from 31000."""
    return replace(convergence_study_spec(), losses=(least_squares(),),
                   alphas=(1.1, 1.4, 1.7, 2.0, 2.4, 2.8), replications=30,
                   base_seed=31_000)


def generate_instance(spec, seed):
    """Build one problem draw; identical seed gives identical bits."""
    rng = np.random.default_rng(seed)
    if spec.design == "gaussian":
        A = rng.normal(0.0, 1.0 / math.sqrt(spec.n), (spec.n, spec.p))
    else:
        A = (2.0 * rng.integers(0, 2, size=(spec.n, spec.p)) - 1.0) \
            / math.sqrt(spec.n)
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


def _report(name, columns, rows, metadata):
    """A report whose rows read each dict row at the study's columns."""
    return Report(name=name, columns=columns, metadata=metadata,
                  rows=tuple(tuple(row[c] for c in columns) for row in rows))


def _format_cell(v):
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


def output_dir(directory=None):
    """Make and return directory, else $RAMP_OUTPUT_DIR, else the working one."""
    directory = directory or os.environ.get("RAMP_OUTPUT_DIR") or "."
    os.makedirs(directory, exist_ok=True)
    return directory


def write_report(report, directory=None):
    """Serialize to <name>.csv plus <name>_meta.json, atomically."""
    directory = output_dir(directory)
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


def noise_label(noise):
    """The law's name, its first field, then each later field off its default."""
    for name, law in NOISE_LAWS.items():
        if isinstance(noise, law):
            first, *rest = fields(noise)
            values = [getattr(noise, first.name)] + [
                v for f in rest if (v := getattr(noise, f.name)) != f.default]
            return "_".join([name] + [f"{v:g}" for v in values])
    parts = "+".join(f"{w:g}xN(0,{v:g})" for w, v in noise.components)
    return f"mixnormal_{parts}"


# ---------------------------------------------------------------------------
# studies


def _draws_metadata(spec):
    """What both AMP studies record of spec's draws: the geometry, the noise,
    the replications and the tolerance and iteration cap of every solver run."""
    return {
        "n": spec.n, "p": spec.p, "s": spec.s, "noise": noise_label(spec.noise),
        "replications": spec.replications,
        "solver": {"tol": SolverConfig.tol, "max_iter": SolverConfig.max_iter},
    }


def _amp_cell(spec, loss, alpha):
    """The solver at threshold multiplier alpha on every draw of spec.

    Maps each AMP column of the convergence and design studies to its
    value: the means of b, the iteration count, tau_hat^2 and the final
    MSE over the runs that finished, the MSE mean's standard error, and
    the counts of converged, finished (successes) and failed runs out of
    the replications. A run fails with a runaway scale or a calibration
    breakdown. A mean is nan where no run finished and the standard error
    where fewer than two did; a nan alpha runs no solver.
    """
    runs, failed = [], 0
    for seed in spec.seeds if math.isfinite(alpha) else ():
        try:
            runs.append(run_ramp(generate_instance(spec, seed), loss,
                                 SolverConfig(alpha=alpha)))
        except (CalibrationError, DivergenceError):
            failed += 1
    m, mses = len(runs), [res.trace[-1][4] for res in runs]

    def mean(values):
        return float(np.mean(values)) if m else math.nan

    se = float(np.std(mses, ddof=1) / math.sqrt(m)) if m > 1 else math.nan
    return {"b_mean": mean([res.state.b for res in runs]),
            "iterations_mean": mean([res.iterations for res in runs]),
            "tau_hat_sq_mean": mean([res.state.tau_hat_sq for res in runs]),
            "amse_mean": mean(mses), "amse_se": se,
            "converged": sum(res.converged for res in runs),
            "successes": m, "failed": failed, "replications": spec.replications}


def run_convergence_study(spec=None):
    """Empirical runs at the theoretically tuned threshold, one row per loss.

    The threshold multiplier comes from minimizing the predicted error over
    a grid, then every replication runs the solver at that multiplier.
    Failed replications (runaway scale, calibration breakdown) are counted
    per row rather than aborting the study. A loss where no grid point
    converges runs no solver and reads nan, with 0 converged and 0 failed.
    Each row ends with the prediction beside its runs: se_amse, the tuned
    fixed point's AMSE, and alpha_at_grid_edge, set when alpha* is the
    smallest or largest grid point, where the minimizer may lie off the grid.
    """
    spec = spec or convergence_study_spec()
    delta = spec.n / spec.p
    dist = DistributionModel(pm_one_prior(spec.s / spec.p), spec.noise)
    rows = []
    for loss in spec.losses:
        alpha, lam, se_amse, at_edge = _tuned_cell(dist, loss, delta, spec.alphas)
        rows.append({"loss": loss_label(loss), "alpha_star": alpha,
                     "lambda_star": lam, **_amp_cell(spec, loss, alpha),
                     "se_amse": se_amse, "alpha_at_grid_edge": at_edge})

    meta = {
        "study": "convergence", **_draws_metadata(spec),
        "design": spec.design,
        "losses": [loss_label(l) for l in spec.losses],
        "seeds": list(spec.seeds),
        "se_tol": SeConfig().tol,
    }
    return _report(
        "convergence_study",
        ("loss", "alpha_star", "lambda_star", "b_mean", "iterations_mean",
         "tau_hat_sq_mean", "amse_mean", "amse_se", "converged", "failed",
         "replications", "se_amse", "alpha_at_grid_edge"),
        rows, meta)


def _tuned_cell(dist, loss, delta, alpha_grid):
    """(alpha*, lambda*, AMSE, at_grid_edge) of the grid-tuned fixed point.

    The three numbers are nan, and at_grid_edge False, when no grid point
    converges; an empty grid raises ValueError.
    """
    try:
        tuned = tune_alpha(dist, loss, delta, alpha_grid=alpha_grid)
    except RuntimeError:
        return math.nan, math.nan, math.nan, False
    return (float(tuned.alpha_star), float(tuned.lambda_star), tuned.result.amse,
            tuned.at_grid_edge)


def _se_table(noises, geometries, losses, alpha_grid):
    """Tuned cells over (noise, (delta, omega), loss), in that order.

    Each row maps a report column name to its value. relative_efficiency
    is amse(least squares)/amse(row) within the row's (noise, delta, omega)
    block, nan where either is missing; amse_se is 0, since the cells are
    deterministic.
    """
    rows = []
    for noise in noises:
        for delta, omega in geometries:
            dist = DistributionModel(pm_one_prior(omega), noise)
            block = [(loss_label(loss), *_tuned_cell(dist, loss, delta, alpha_grid))
                     for loss in losses]
            ref = next((amse for label, _, _, amse, _ in block
                        if label == "least_squares"), math.nan)
            for label, alpha, lam, amse, _ in block:
                ok = math.isfinite(amse)
                rel = ref / amse if (ok and amse) else math.nan
                rows.append({
                    "noise": noise_label(noise), "delta": delta,
                    "omega": omega, "loss": label, "alpha_star": alpha,
                    "lambda_star": lam, "amse": amse, "amse_se": 0.0,
                    "relative_efficiency": rel, "converged": ok,
                    "diverged": not ok})
    return rows


_NO_SAMPLING = "0 by construction: deterministic quadrature, no sampling"


def _se_report(name, columns, noises, geometries, losses, alpha_grid, /,
               **fields):
    """The table's columns as a report named after its study.

    The metadata holds what every state-evolution table shares plus the
    study's own fields.
    """
    meta = {"study": name, "noises": [noise_label(nz) for nz in noises],
            "losses": [loss_label(l) for l in losses],
            "laplace_convention": LAPLACE_CONVENTION,
            "se_tol": SeConfig().tol, **fields}
    return _report(name, columns,
                   _se_table(noises, geometries, losses, alpha_grid), meta)


def run_dense_efficiency(deltas=(10.0, 8.0, 3.0, 1.6, 1.4, 1.2),
                         noises=(Normal(0.2), Laplace(1.0)),
                         losses=(least_squares(), absolute())):
    """Error of the unpenalized fits across aspect ratios, predicted exactly.

    The unpenalized fit is state evolution at omega = 1 (s = p) and alpha = 0,
    where the denoiser is the identity; its AMSE is a deterministic fixed
    point and carries no sampling error.
    """
    return _se_report(
        "dense_efficiency",
        ("noise", "delta", "omega", "loss", "amse", "amse_se",
         "relative_efficiency", "converged"),
        noises, [(d, 1.0) for d in deltas], losses, (0.0,),
        alpha=0.0, deltas=list(deltas), amse_se=_NO_SAMPLING)


DEFAULT_SPARSE_ALPHAS = tuple(
    float(a) for a in np.round(np.arange(0.5, 5.0 + 1e-9, 0.05), 2))


def run_sparse_efficiency(omegas=(0.05, 0.1, 0.2, 0.5, 0.55, 0.6),
                          noises=(Normal(0.2), Laplace(1.0)),
                          losses=(least_squares(), absolute()),
                          delta=0.64, alpha_grid=DEFAULT_SPARSE_ALPHAS):
    """Tuned penalized error across sparsity levels, one row per cell."""
    return _se_report(
        "sparse_efficiency",
        ("noise", "delta", "omega", "loss", "alpha_star", "lambda_star",
         "amse", "amse_se", "relative_efficiency", "converged"),
        noises, [(delta, w) for w in omegas], losses, alpha_grid,
        delta=delta, omegas=list(omegas), amse_se=_NO_SAMPLING,
        alpha_grid=[float(a) for a in alpha_grid])


def run_noise_study(losses=(least_squares(), huber(1.0), absolute()),
                    noises=NOISE_STUDY_LAWS, delta=0.64, omega=0.128,
                    alpha_grid=None):
    """Tuned predicted error per (noise, loss) pair; divergence recorded.

    An unbounded score on a tail too heavy for it diverges at every grid
    point, and the pair reads nan with diverged set.
    """
    return _se_report(
        "noise_study",
        ("noise", "loss", "alpha_star", "lambda_star", "amse", "diverged"),
        noises, [(delta, omega)], losses, alpha_grid,
        delta=delta, omega=omega)


def run_design_study(spec=None):
    """Gaussian vs sign designs on the same error-vs-penalty grid.

    Both designs run the one loss of spec (by default design_study_spec())
    on its draws at each of its alphas (None: the default grid); its own
    design is not read. The penalty labels come from the predicted fixed
    point at each threshold multiplier, so both designs are measured at
    identical grid points; a label is nan where that fixed point does not
    converge.
    """
    spec = spec or design_study_spec()
    if len(spec.losses) != 1:
        raise ValueError(
            f"the design study runs one loss, got {len(spec.losses)}")
    (loss,) = spec.losses
    alphas = spec.alphas or DEFAULT_ALPHA_GRID
    dist = DistributionModel(pm_one_prior(spec.s / spec.p), spec.noise)
    lambda_labels = {alpha: _tuned_cell(dist, loss, spec.n / spec.p, (alpha,))[1]
                     for alpha in alphas}
    rows = [{"design": design, "alpha": alpha,
             "lambda_star": lambda_labels[alpha],
             **_amp_cell(replace(spec, design=design), loss, alpha)}
            for design in DESIGNS for alpha in alphas]
    meta = {
        "study": "design_robustness", "loss": loss_label(loss),
        **_draws_metadata(spec),
        "alphas": [float(a) for a in alphas],
        "base_seed": spec.base_seed,
    }
    return _report(
        "design_robustness",
        ("design", "alpha", "lambda_star", "amse_mean", "amse_se",
         "successes", "failed"),
        rows, meta)

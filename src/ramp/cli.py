"""Command-line front end over the solver, predictor, and benchmark suites.

Four subcommands: `prox` echoes loss-kernel values for quick checks, `solve`
runs the iteration on a synthetic instance and writes its trace, `se` runs
the scale recursion to a fixed point, and `bench` drives the scripted
studies. Options resolve in three layers: built-in defaults, then a flat
key=value config file, then command-line flags.

Exit codes: 0 success, 1 validation or calibration failure, 2 usage error
or an iteration cap hit, 3 a diverging recursion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import os

from .calibration import CalibrationError
from .experiments import (
    DESIGNS,
    ExperimentSpec,
    _atomic_write,
    convergence_study_spec,
    generate_instance,
    loss_label,
    run_convergence_study,
    run_dense_efficiency,
    run_design_study,
    run_noise_study,
    run_sparse_efficiency,
    write_report,
)
from .losses import absolute, effective_score, effective_score_deriv, huber, \
    least_squares, prox, quantile
from .solver import DivergenceError, SolverConfig, run_ramp
from .state_evolution import (
    Cauchy,
    DistributionModel,
    Laplace,
    Normal,
    SeConfig,
    StudentT,
    info_lower_bound,
    pm_one_prior,
    se_fixed_point,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MAX_ITER = 2
EXIT_DIVERGED = 3

LOSS_NAMES = ("ls", "huber", "lad", "quantile")
NOISE_NAMES = ("normal", "laplace", "student_t", "cauchy", "mixnormal")

_INT_KEYS = frozenset(
    {"n", "p", "s", "seed", "max_iter", "replications", "mc_samples"})
_FLOAT_KEYS = frozenset(
    {"gamma", "tau_q", "alpha", "noise_param", "tol", "delta", "omega",
     "init_tau_sq"})
_STR_KEYS = frozenset(
    {"loss", "losses", "noise", "design", "mode", "engine", "study", "out"})


def _fmt(v):
    """Decimal text with 12 significant digits."""
    return f"{float(v):.12g}"


def _round12(v):
    v = float(v)
    if not math.isfinite(v):
        return None
    return float(_fmt(v))


def build_loss(name, gamma, tau_q):
    if name in ("ls", "least_squares"):
        return least_squares()
    if name == "huber":
        return huber(gamma)
    if name in ("lad", "absolute"):
        return absolute()
    if name in ("quantile", "q"):
        return quantile(tau_q)
    raise ValueError(f"unknown loss {name!r}; choose from {LOSS_NAMES}")


def build_noise(name, param):
    if name == "normal":
        return Normal(param)
    if name == "laplace":
        return Laplace(param)
    if name == "student_t":
        return StudentT(param)
    if name == "cauchy":
        return Cauchy(param)
    if name == "mixnormal":
        raise ValueError("mixnormal needs the library API, not the CLI")
    raise ValueError(f"unknown noise {name!r}; choose from {NOISE_NAMES}")


def read_config_file(path):
    """Flat key=value lines; blank lines and # comments ignored."""
    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            options[key.strip()] = value.strip()
    return options


def _convert(key, value):
    if not isinstance(value, str):
        return value
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


def resolve_options(args, parser, defaults):
    """Defaults, then the config file, then flags; flags win."""
    options = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_options = read_config_file(config_path)
        except OSError as exc:
            parser.error(str(exc))
        for key, value in file_options.items():
            if key not in defaults:
                parser.error(f"unknown config key {key!r}")
            try:
                options[key] = _convert(key, value)
            except ValueError:
                parser.error(f"bad value for config key {key!r}: {value!r}")
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            options[key] = flag_value
    return options


def _config_header(options):
    # the output directory is plumbing, not part of the run definition
    items = {k: v for k, v in options.items() if k != "out" and v is not None}
    lines = [f"# {k}={items[k]}" for k in sorted(items)]
    return "\n".join(lines) + "\n"


def _echo(options):
    out = {}
    for k, v in sorted(options.items()):
        if k == "out" or v is None:
            continue
        out[k] = v if not isinstance(v, float) else _round12(v)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_prox(args, parser):
    loss = build_loss(args.loss, args.gamma, args.tau_q)
    print(f"prox {_fmt(prox(loss, args.z, args.b))}")
    print(f"score {_fmt(effective_score(loss, args.z, args.b))}")
    print(f"deriv {_fmt(effective_score_deriv(loss, args.z, args.b))}")
    return EXIT_OK


SOLVE_DEFAULTS = {
    "n": 320, "p": 500, "s": 64, "loss": "ls", "gamma": 1.0, "tau_q": 0.7,
    "alpha": 2.0, "noise": "normal", "noise_param": 0.2, "design": "gaussian",
    "seed": 1, "tol": 1e-6, "max_iter": 200, "out": None,
}


def cmd_solve(args, parser):
    options = resolve_options(args, parser, SOLVE_DEFAULTS)
    n, p, s = options["n"], options["p"], options["s"]
    if not 0 < s < n:
        raise ValueError(f"sparsity must satisfy 0 < s < n, got s={s} n={n}")
    if s > p:
        raise ValueError(f"sparsity cannot exceed p, got s={s} p={p}")

    loss = build_loss(options["loss"], options["gamma"], options["tau_q"])
    noise = build_noise(options["noise"], options["noise_param"])
    spec = ExperimentSpec(n=n, p=p, s=s, noise=noise, losses=(loss,),
                          design=options["design"], replications=1,
                          seeds=(options["seed"],))
    inst = generate_instance(spec, options["seed"])
    config = SolverConfig(alpha=options["alpha"], tol=options["tol"],
                          max_iter=options["max_iter"])
    result = run_ramp(inst, loss, config)

    out_dir = options["out"] or os.environ.get("RAMP_OUTPUT_DIR") or "."
    os.makedirs(out_dir, exist_ok=True)
    header = _config_header(options)

    lines = [header.rstrip("\n"), "t,b,theta,tau_sq,mse"]
    for row in result.trace:
        t, b, theta, tau_sq, mse = row
        lines.append(",".join(
            [str(t), _fmt(b), _fmt(theta), _fmt(tau_sq), _fmt(mse)]))
    _atomic_write(os.path.join(out_dir, "solve_trace.csv"),
                  "\n".join(lines) + "\n")

    coords = "\n".join(_fmt(v) for v in result.x)
    _atomic_write(os.path.join(out_dir, "solve_estimate.txt"),
                  header + coords + "\n")

    if args.verbose:
        final = result.trace[-1]
        print(f"iterations {final[0]} converged {result.converged} "
              f"mse {_fmt(final[4])}", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_MAX_ITER


SE_DEFAULTS = {
    "delta": 0.64, "omega": 0.128, "losses": "ls", "gamma": 1.0,
    "tau_q": 0.7, "alpha": 2.0, "mode": "penalized", "noise": "normal",
    "noise_param": 0.2, "init_tau_sq": None, "tol": 1e-6, "max_iter": 500,
    "engine": "auto", "mc_samples": 10 ** 6, "seed": 0, "out": None,
}


def cmd_se(args, parser):
    options = resolve_options(args, parser, SE_DEFAULTS)
    loss_names = [x for x in options["losses"].split(",") if x.strip()]
    if not loss_names:
        parser.error("at least one loss is required")
    losses = [build_loss(x.strip(), options["gamma"], options["tau_q"])
              for x in loss_names]
    noise = build_noise(options["noise"], options["noise_param"])
    dist = DistributionModel(pm_one_prior(options["omega"]), noise)
    se_config = SeConfig(tol=options["tol"], max_iter=options["max_iter"],
                         engine=options["engine"],
                         mc_samples=options["mc_samples"],
                         seed=options["seed"])
    alpha = None if options["mode"] == "no_penalty" else options["alpha"]

    if dist.fisher_info:
        bound = info_lower_bound(options["delta"], options["omega"],
                                 dist.fisher_info)
    else:
        bound = None

    out_dir = options["out"] or os.environ.get("RAMP_OUTPUT_DIR") or "."
    os.makedirs(out_dir, exist_ok=True)
    header = _config_header(options)

    summary = {"config": _echo(options), "seed": options["seed"],
               "info_lower_bound": _round12(bound) if bound else None,
               "results": {}}
    status = EXIT_OK
    for loss in losses:
        res = se_fixed_point(dist, loss, options["delta"], alpha=alpha,
                             init_tau_sq=options["init_tau_sq"],
                             mode=options["mode"], config=se_config)
        label = loss_label(loss)
        lines = [header.rstrip("\n"), "t,sigma_sq,tau_sq,b,theta"]
        for row in res.rows:
            lines.append(",".join([str(row[0])] + [_fmt(v) for v in row[1:]]))
        _atomic_write(os.path.join(out_dir, f"se_trace_{label}.csv"),
                      "\n".join(lines) + "\n")

        if res.diverged or bound is None:
            bound_pass = None
        else:
            bound_pass = bool(res.tau_star_sq >= bound * (1.0 - 1e-12))
        summary["results"][label] = {
            "tau_star_sq": _round12(res.tau_star_sq),
            "sigma_star_sq": _round12(res.sigma_star_sq),
            "b_star": _round12(res.b_star),
            "theta_star": _round12(res.theta_star),
            "amse": _round12(res.amse),
            "iterations": res.iterations,
            "converged": res.converged,
            "diverged": res.diverged,
            "info_bound_pass": bound_pass,
        }
        if res.diverged:
            status = max(status, EXIT_DIVERGED)
        elif not res.converged:
            status = max(status, EXIT_MAX_ITER)

    _atomic_write(os.path.join(out_dir, "se_summary.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.verbose:
        for label, cell in summary["results"].items():
            print(f"{label}: tau*^2 {cell['tau_star_sq']}", file=sys.stderr)
    return status


BENCH_DEFAULTS = {
    "study": None, "replications": None, "seed": None, "out": None,
}

STUDIES = ("convergence", "dense", "sparse", "noise", "design")


def cmd_bench(args, parser):
    options = resolve_options(args, parser, BENCH_DEFAULTS)
    study = options["study"]
    if study not in STUDIES:
        parser.error(f"--study must be one of {STUDIES}")
    reps = options["replications"]
    seed = options["seed"]

    if study == "convergence":
        spec = convergence_study_spec(
            replications=100 if reps is None else reps)
        if seed is not None:
            spec = dataclasses.replace(
                spec, seeds=tuple(seed + i for i in range(spec.replications)))
        report = run_convergence_study(spec)
    elif study == "dense":
        report = run_dense_efficiency()
    elif study == "sparse":
        report = run_sparse_efficiency()
    elif study == "noise":
        report = run_noise_study()
    else:
        report = run_design_study(
            replications=30 if reps is None else reps,
            base_seed=31_000 if seed is None else seed)

    csv_path, meta_path = write_report(report, options["out"])
    if args.verbose:
        print(f"wrote {csv_path} and {meta_path}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("-v", "--verbose", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ramp", description="robust sparse regression via "
        "approximate message passing")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("prox", help="print loss-kernel values at one point")
    p.add_argument("--loss", required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--tau-q", dest="tau_q", type=float, default=0.7)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_prox)

    p = subs.add_parser("solve", help="run the solver on a synthetic draw")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--loss")
    p.add_argument("--gamma", type=float)
    p.add_argument("--tau-q", dest="tau_q", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--noise", choices=NOISE_NAMES)
    p.add_argument("--noise-param", dest="noise_param", type=float)
    p.add_argument("--design", choices=DESIGNS)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("se", help="iterate the scale recursion to its "
                        "fixed point")
    _add_common(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--losses", help="comma-separated loss names")
    p.add_argument("--gamma", type=float)
    p.add_argument("--tau-q", dest="tau_q", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mode", choices=("penalized", "no_penalty"))
    p.add_argument("--noise", choices=NOISE_NAMES)
    p.add_argument("--noise-param", dest="noise_param", type=float)
    p.add_argument("--init-tau-sq", dest="init_tau_sq", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--engine", choices=("auto", "quadrature", "mc"))
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_se)

    p = subs.add_parser("bench", help="run a scripted benchmark study")
    _add_common(p)
    p.add_argument("--study", choices=STUDIES)
    p.add_argument("--replications", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())

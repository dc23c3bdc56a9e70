"""Command-line front end over the solver, predictor, and benchmark suites.

Three subcommands: `solve` runs the iteration on a synthetic instance and
writes its trace, `se` runs the scale recursion to a fixed point, and
`bench` drives the scripted studies. Options resolve in three layers:
built-in defaults, then a flat key=value config file, then command-line
flags.

Exit codes: 0 success, 1 validation or calibration failure, 2 usage error
or an iteration cap hit, 3 a diverging recursion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .calibration import CalibrationError
from .experiments import (
    DESIGNS,
    NOISE_LAWS,
    ExperimentSpec,
    _atomic_write,
    convergence_study_spec,
    design_study_spec,
    generate_instance,
    output_dir,
    run_convergence_study,
    run_dense_efficiency,
    run_design_study,
    run_noise_study,
    run_sparse_efficiency,
    write_report,
)
from .losses import absolute, huber, least_squares, loss_label, quantile
from .solver import TRACE_COLUMNS, DivergenceError, SolverConfig, run_ramp
from .state_evolution import (
    ROW_COLUMNS,
    DistributionModel,
    SeConfig,
    info_lower_bound,
    pm_one_prior,
    se_fixed_point,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MAX_ITER = 2
EXIT_DIVERGED = 3

LOSS_NAMES = ("ls", "huber", "lad", "quantile")


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


def _convert(kind, value):
    """Parse a config-file value as its flag would: a type or a choice."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(value)
        return value
    return kind(value)


def resolve_options(args, parser, table):
    """Defaults, then the config file, then flags; flags win.

    table maps each option key to (type or tuple of choices, default).
    """
    options = {key: default for key, (_, default) in table.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_options = read_config_file(config_path)
        except OSError as exc:
            parser.error(str(exc))
        for key, value in file_options.items():
            if key not in table:
                parser.error(f"unknown config key {key!r}")
            try:
                options[key] = _convert(table[key][0], value)
            except ValueError:
                parser.error(f"bad value for config key {key!r}: {value!r}")
    for key in table:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            options[key] = flag_value
    return options


def _run_definition(options):
    """The set options in key order; the output directory is plumbing, not
    part of the run definition."""
    return {k: v for k, v in sorted(options.items()) if k != "out" and v is not None}


def _config_header(options):
    lines = [f"# {k}={v}" for k, v in _run_definition(options).items()]
    return "\n".join(lines) + "\n"


def _write_trace(path, header, columns, rows):
    """The config header, the columns, then one CSV line per row.

    A row's first entry is the iteration count, written as is; the rest
    are written by _fmt.
    """
    lines = [",".join(columns)]
    lines += [",".join([str(row[0])] + [_fmt(v) for v in row[1:]]) for row in rows]
    _atomic_write(path, header + "\n".join(lines) + "\n")


def _echo(options):
    return {k: _round12(v) if isinstance(v, float) else v
            for k, v in _run_definition(options).items()}


# ---------------------------------------------------------------------------
# subcommands


# the default draw of `solve` and `se`: the benchmark geometry and noise
DRAW = convergence_study_spec()

SOLVE_OPTIONS = {
    "n": (int, DRAW.n), "p": (int, DRAW.p), "s": (int, DRAW.s), "loss": (str, "ls"),
    "gamma": (float, 1.0), "tau_q": (float, 0.7), "alpha": (float, 2.0),
    "noise": (tuple(NOISE_LAWS), "normal"), "noise_param": (float, DRAW.noise.sigma_sq),
    "design": (DESIGNS, DRAW.design), "seed": (int, 1),
    "tol": (float, SolverConfig.tol), "max_iter": (int, SolverConfig.max_iter),
    "out": (str, None),
}


def cmd_solve(args, parser):
    options = resolve_options(args, parser, SOLVE_OPTIONS)
    loss = build_loss(options["loss"], options["gamma"], options["tau_q"])
    noise = NOISE_LAWS[options["noise"]](options["noise_param"])
    spec = ExperimentSpec(n=options["n"], p=options["p"], s=options["s"],
                          noise=noise, design=options["design"],
                          base_seed=options["seed"])
    config = SolverConfig(alpha=options["alpha"], tol=options["tol"],
                          max_iter=options["max_iter"])
    inst = generate_instance(spec, spec.base_seed)
    result = run_ramp(inst, loss, config)

    out_dir = output_dir(options["out"])
    header = _config_header(options)

    _write_trace(os.path.join(out_dir, "solve_trace.csv"), header,
                 TRACE_COLUMNS, result.trace)

    coords = "\n".join(_fmt(v) for v in result.x)
    _atomic_write(os.path.join(out_dir, "solve_estimate.txt"),
                  header + coords + "\n")

    if args.verbose:
        print(f"iterations {result.iterations} converged {result.converged} "
              f"mse {_fmt(result.trace[-1][4])}", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_MAX_ITER


SE_OPTIONS = {
    "delta": (float, DRAW.n / DRAW.p), "omega": (float, DRAW.s / DRAW.p),
    "losses": (str, "ls"), "gamma": (float, 1.0), "tau_q": (float, 0.7),
    "alpha": (float, 2.0), "noise": (tuple(NOISE_LAWS), "normal"),
    "noise_param": (float, DRAW.noise.sigma_sq), "init_tau_sq": (float, None),
    "tol": (float, SeConfig.tol), "max_iter": (int, SeConfig.max_iter),
    "out": (str, None),
}


def cmd_se(args, parser):
    options = resolve_options(args, parser, SE_OPTIONS)
    loss_names = [x for x in options["losses"].split(",") if x.strip()]
    if not loss_names:
        parser.error("at least one loss is required")
    losses = [build_loss(x.strip(), options["gamma"], options["tau_q"])
              for x in loss_names]
    noise = NOISE_LAWS[options["noise"]](options["noise_param"])
    dist = DistributionModel(pm_one_prior(options["omega"]), noise)
    se_config = SeConfig(tol=options["tol"], max_iter=options["max_iter"])

    if noise.fisher_info:
        bound = info_lower_bound(options["delta"], options["omega"],
                                 noise.fisher_info)
    else:
        bound = None

    # every fixed point is computed before the first write, so a rejected
    # run leaves no output behind
    results = [se_fixed_point(dist, loss, options["delta"], options["alpha"],
                              init_tau_sq=options["init_tau_sq"],
                              config=se_config) for loss in losses]

    out_dir = output_dir(options["out"])
    header = _config_header(options)

    summary = {"config": _echo(options),
               "info_lower_bound": _round12(bound) if bound else None,
               "results": {}}
    status = EXIT_OK
    for loss, res in zip(losses, results):
        label = loss_label(loss)
        _write_trace(os.path.join(out_dir, f"se_trace_{label}.csv"), header,
                     ROW_COLUMNS, res.rows)

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


# each study's runner and, for the two that draw samples, its default spec
BENCH_STUDIES = {
    "convergence": (run_convergence_study, convergence_study_spec),
    "dense": (run_dense_efficiency, None),
    "sparse": (run_sparse_efficiency, None),
    "noise": (run_noise_study, None),
    "design": (run_design_study, design_study_spec),
}
STUDIES = tuple(BENCH_STUDIES)

BENCH_OPTIONS = {
    "study": (STUDIES, None), "replications": (int, None), "seed": (int, None),
    "out": (str, None),
}


def cmd_bench(args, parser):
    options = resolve_options(args, parser, BENCH_OPTIONS)
    study = options["study"]
    if study is None:
        parser.error(f"--study must be one of {STUDIES}")
    run, default_spec = BENCH_STUDIES[study]
    if default_spec is None:
        for key in ("seed", "replications"):
            if options[key] is not None:
                parser.error(f"--{key} applies to the convergence and design "
                             f"studies only; the {study} study draws no samples")
        report = run()
    else:
        # a given flag overrides its field of the study's default spec
        draws = {"base_seed": options["seed"],
                 "replications": options["replications"]}
        report = run(dataclasses.replace(
            default_spec(), **{k: v for k, v in draws.items() if v is not None}))

    csv_path, meta_path = write_report(report, options["out"])
    if args.verbose:
        print(f"wrote {csv_path} and {meta_path}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _add_options(sub, table, func):
    """One flag per table key, --key-with-dashes; unset flags stay None."""
    sub.add_argument("--config", help="flat key=value config file")
    for key, (kind, _) in table.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(kind, tuple):
            sub.add_argument(flag, dest=key, choices=kind)
        else:
            sub.add_argument(flag, dest=key, type=kind)
    sub.add_argument("-v", "--verbose", action="store_true")
    sub.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ramp", description="robust sparse regression via "
        "approximate message passing")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_options(subs.add_parser("solve", help="run the solver on a "
                                 "synthetic draw"), SOLVE_OPTIONS, cmd_solve)
    _add_options(subs.add_parser("se", help="iterate the scale recursion to "
                                 "its fixed point"), SE_OPTIONS, cmd_se)
    _add_options(subs.add_parser("bench", help="run a scripted benchmark "
                                 "study"), BENCH_OPTIONS, cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (CalibrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())

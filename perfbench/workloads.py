"""The three workloads: their inputs, their operations and their checks.

Every workload builds its inputs before timing starts, from the seed
where that cannot change which ops fail, and returns a fixed list of
operations ("ops"); one round runs each op once, in order. Each op is one
call into a public function of `ramp`, made through the module
attribute, so the tracer's wrappers see it. After the
timed phase, `finish` classifies every op as done or failed and checks
the outputs against `reference`, which does not use `ramp`.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

import reference

DELTA = 0.64            # n/p of the benchmark geometry (320/500)
OMEGA = 0.128           # s/p (64/500)
NOISE_VAR = 0.2         # N(0, 0.2) noise of the solver workloads
SOLVER_ALPHA = 2.0      # threshold multiplier of every solver and oracle op
FIXED_DRAWS = 20        # draws 20000..20019 of the convergence study
# a draw on which least squares stops on the tau change alone, 1.85e-3 of
# lambda off the lasso conditions (README.md, "Ops counted as failed")
LS_EARLY_STOP_DRAW = 20043
ORACLE_DRAWS = (20000, 20001)
# SE-implied lambda of the oracle ops at SOLVER_ALPHA, as
# reference.normal_fixed_point gives it; finish() recomputes it untimed
ORACLE_LAMBDAS = {"absolute": 1.8612876045191418, "quantile": 0.9807552458290909}

# relative tolerances of the checks; see README.md for where each comes from
SE_EQUATION_TOL = 1e-10
LASSO_KKT_TOL = 1e-4
LAMBDA_TOL = 1e-9
AMSE_MARGIN = 0.02
LP_EXCESS_FAIL = 1e-6
LP_FEAS_TOL = 1e-7
OBJECTIVE_TOL = 1e-9


@dataclass
class Op:
    label: str          # unique within the workload
    group: str          # the loss family the op runs
    call: object        # zero-argument callable into ramp
    loss: object = None
    draw: int = None    # seed of the problem draw, for the solver workloads
    output: tuple = None                          # (result, exception) of round 0
    digests: list = field(default_factory=list)   # fingerprint of each round's output

    def record(self, out, key):
        """Keep round 0's output and a fingerprint of key(*out) for every round.

        Only fingerprints of later rounds are kept, so memory does not grow
        with the number of rounds, which depends on the host's speed.
        """
        if self.output is None:
            self.output = out
        self.digests.append(_digest(key(*out)))


@dataclass
class Outcome:
    failed: bool
    reason: str = ""
    attrs: dict = field(default_factory=dict)


def _loss_spec(loss):
    spec = {"family": loss.family}
    if loss.gamma is not None:
        spec["gamma"] = loss.gamma
    if loss.tau_q is not None:
        spec["tau_q"] = loss.tau_q
    return spec


def _digest(value):
    """A hash that changes with any bit of value: an array's bytes, else its repr."""
    if isinstance(value, np.ndarray):
        data = f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).digest()


def _check_rounds(op, problems):
    for i, digest in enumerate(op.digests[1:], start=1):
        if digest != op.digests[0]:
            problems.append(f"{op.label}: round {i} output differs from round 0")
            return


# ---------------------------------------------------------------------------
# se_tune: tune_alpha over a grid, per (noise, loss) cell
# ---------------------------------------------------------------------------

SE_NOISES = (
    {"kind": "normal", "sigma_sq": 0.2},
    {"kind": "laplace", "scale": 1.0},
    {"kind": "student_t", "df": 4.0},
    {"kind": "cauchy", "scale": 1.0},
)
SE_BASE_GRID = (1.0, 1.4, 1.8, 2.2, 2.6, 3.0)
SE_GRID_SHIFT = 0.02


def se_grid(seed):
    """The alpha grid of a run: the base grid shifted by a seeded amount."""
    shift = float(np.random.default_rng(seed).uniform(0.0, SE_GRID_SHIFT))
    return tuple(a + shift for a in SE_BASE_GRID)


class SeTune:
    name = "se_tune"
    kernel = "se"

    def __init__(self, ramp, seed):
        se, losses = ramp.state_evolution, ramp.losses
        self.se = se
        self.grid = se_grid(seed)
        prior = se.pm_one_prior(OMEGA)
        laws = {
            "normal": lambda s: se.Normal(s["sigma_sq"]),
            "laplace": lambda s: se.Laplace(s["scale"]),
            "student_t": lambda s: se.StudentT(s["df"]),
            "cauchy": lambda s: se.Cauchy(s["scale"]),
        }
        self.cells = []
        for noise_spec in SE_NOISES:
            dist = se.DistributionModel(prior, laws[noise_spec["kind"]](noise_spec))
            for loss in (losses.huber(1.0), losses.absolute(), losses.quantile(0.7)):
                self.cells.append((noise_spec, loss, dist))
        self.ops = [Op(f"{spec['kind']}/{loss.family}", loss.family,
                       self._tune_call(dist, loss), loss)
                    for spec, loss, dist in self.cells]

    def _tune_call(self, dist, loss):
        grid = self.grid
        se = self.se
        return lambda: se.tune_alpha(dist, loss, DELTA, alpha_grid=grid)

    @staticmethod
    def round_key(tuned, exc):
        return None if exc else (tuned.alpha_star, tuned.result.tau_star_sq, tuned.result.b_star)

    def warm_up(self):
        # fills the per-noise quadrature node cache and loads scipy.stats
        for _, loss, dist in self.cells:
            self.se.score_moments(loss, 1.0, dist.noise, 0.5)

    def finish(self, problems):
        outcomes = []
        for op, (noise_spec, loss, _) in zip(self.ops, self.cells):
            tuned, exc = op.output
            if exc is not None:
                outcomes.append(Outcome(True, f"{type(exc).__name__}: {exc}"))
                continue
            outcomes.append(Outcome(False))
            _check_rounds(op, problems)
            self._check_cell(op.label, noise_spec, loss, tuned, problems)
        return outcomes

    def _check_cell(self, label, noise_spec, loss, tuned, problems):
        res = tuned.result
        if not res.converged or len(res.rows) < 2:
            problems.append(f"{label}: tuned fixed point did not converge")
            return
        if tuned.alpha_star not in self.grid:
            problems.append(f"{label}: alpha* {tuned.alpha_star} is not on the grid")
        finite = [v for v in tuned.amse_values if math.isfinite(v)]
        if res.amse != min(finite):
            problems.append(f"{label}: alpha* does not minimize the reported AMSE")
        errors = reference.se_equation_errors(
            noise_spec, _loss_spec(loss), DELTA, OMEGA, tuned.alpha_star,
            res.tau_star_sq, res.sigma_star_sq, res.b_star, res.rows[-2][2])
        for eq, err in errors.items():
            if not err <= SE_EQUATION_TOL:
                problems.append(f"{label}: SE {eq} equation off by {err:.2e} (relative)")
        floor = reference.info_floor(noise_spec, DELTA, OMEGA)
        if not res.tau_star_sq >= floor:
            problems.append(f"{label}: tau*^2 {res.tau_star_sq:.6g} below the "
                            f"information floor {floor:.6g}")


# ---------------------------------------------------------------------------
# amp_solve: run_ramp on draws of the benchmark geometry
# ---------------------------------------------------------------------------


class AmpSolve:
    name = "amp_solve"
    kernel = "solver"

    def __init__(self, ramp, seed):
        # every loss fails on some share of random draws (README.md), so
        # the draws are fixed and the failed share is the same for every seed
        del seed
        ex, losses, solver = ramp.experiments, ramp.losses, ramp.solver
        self.solver = solver
        self.spec = ex.convergence_study_spec(replications=FIXED_DRAWS)
        self.config = solver.SolverConfig(alpha=SOLVER_ALPHA)
        fixed = [20000 + j for j in range(FIXED_DRAWS)]
        self.instances = {d: ex.generate_instance(self.spec, d)
                          for d in fixed + [LS_EARLY_STOP_DRAW]}
        self.plan = [(losses.least_squares(), fixed + [LS_EARLY_STOP_DRAW]),
                     (losses.huber(1.0), fixed), (losses.absolute(), fixed),
                     (losses.quantile(0.7), fixed)]
        self.ops = [Op(f"{loss.family}/{d}", loss.family, self._run_call(d, loss), loss, d)
                    for loss, draws in self.plan for d in draws]

    def _run_call(self, draw, loss):
        inst, config, solver = self.instances[draw], self.config, self.solver
        return lambda: solver.run_ramp(inst, loss, config)

    @staticmethod
    def round_key(res, exc):
        return type(exc).__name__ if exc else res.x

    def warm_up(self):
        first = self.instances[min(self.instances)]
        self.solver.run_ramp(first, self.plan[0][0], self.config)

    def finish(self, problems):
        refs = {loss.family: reference.normal_fixed_point(
            _loss_spec(loss), NOISE_VAR, DELTA, OMEGA, SOLVER_ALPHA) for loss, _ in self.plan}
        outcomes = []
        mses = {}
        for op in self.ops:
            res, exc = op.output
            _check_rounds(op, problems)
            inst = self.instances[op.draw]
            if exc is not None:
                outcomes.append(Outcome(True, f"{type(exc).__name__}: {exc}"))
                continue
            if not res.converged:
                outcomes.append(Outcome(True, f"not converged after {res.iterations} passes",
                                        {"not_converged": 1}))
                continue
            st = res.state
            if op.group == "least_squares":
                lam = st.theta * (1.0 - np.count_nonzero(st.x) / inst.n)
                viol = reference.lasso_kkt_violation(inst.A, inst.y, st.x, lam)
                if not viol <= LASSO_KKT_TOL:
                    outcomes.append(Outcome(True, f"converged after {res.iterations} passes "
                                                  f"but {viol:.2e} of lambda off the lasso "
                                                  f"conditions", {"not_converged": 0}))
                    continue
            tau_ref = refs[op.group]["tau_sq"]
            outcomes.append(Outcome(False, attrs={
                "not_converged": 0, "tau_gap_rel": abs(st.tau_hat_sq - tau_ref) / tau_ref}))
            err = st.x - inst.x_true
            mses.setdefault(op.group, []).append(float(np.mean(err * err)))
        for group, values in mses.items():
            if len(values) < 2:
                continue
            mean = statistics.fmean(values)
            se = statistics.stdev(values) / math.sqrt(len(values))
            amse = refs[group]["amse"]
            if not abs(mean - amse) <= 3.0 * se + AMSE_MARGIN * amse:
                problems.append(f"{group}: mean MSE {mean:.5f} +- {se:.5f} over "
                                f"{len(values)} draws, SE AMSE {amse:.5f}")
        return outcomes


# ---------------------------------------------------------------------------
# kinked_oracle: solve_penalized for the absolute and quantile losses
# ---------------------------------------------------------------------------


class KinkedOracle:
    name = "kinked_oracle"
    kernel = "oracle"

    def __init__(self, ramp, seed):
        # every op of this workload fails today (see README.md), so the
        # draws do not depend on the seed
        del seed
        ex, losses = ramp.experiments, ramp.losses
        self.oracle = ramp.oracle
        spec = ex.convergence_study_spec(replications=1)
        self.instances = {d: ex.generate_instance(spec, d) for d in ORACLE_DRAWS}
        self.losses = (losses.absolute(), losses.quantile(0.7))
        self.lams = ORACLE_LAMBDAS
        self.ops = [Op(f"{loss.family}/{d}", loss.family, self._solve_call(d, loss), loss, d)
                    for loss in self.losses for d in ORACLE_DRAWS]

    def _solve_call(self, draw, loss):
        inst, lam, oracle = self.instances[draw], self.lams[loss.family], self.oracle
        return lambda: oracle.solve_penalized(inst, loss, lam)

    @staticmethod
    def round_key(res, exc):
        return type(exc).__name__ if exc else res.x_hat

    def warm_up(self):
        for loss in self.losses:
            for inst in self.instances.values():
                self.oracle.penalized_objective(inst, loss, self.lams[loss.family],
                                                np.zeros(inst.p))

    def finish(self, problems):
        for loss in self.losses:
            lam = reference.normal_fixed_point(_loss_spec(loss), NOISE_VAR, DELTA, OMEGA,
                                               SOLVER_ALPHA)["lambda"]
            if not abs(lam - self.lams[loss.family]) <= LAMBDA_TOL * lam:
                problems.append(f"{loss.family}: SE-implied lambda is {lam!r}, the ops "
                                f"used {self.lams[loss.family]!r}")
        outcomes = []
        for op in self.ops:
            res, exc = op.output
            _check_rounds(op, problems)
            if exc is not None:
                outcomes.append(Outcome(True, f"{type(exc).__name__}: {exc}"))
                continue
            inst, lam = self.instances[op.draw], self.lams[op.group]
            spec = _loss_spec(op.loss)
            lp, x_lp = reference.kinked_lp(spec, inst.A, inst.y, lam)
            lp_check = reference.kinked_objective(spec, inst.A, inst.y, lam, x_lp)
            if not abs(lp_check - lp) <= LP_FEAS_TOL * abs(lp):
                problems.append(f"{op.label}: reference LP objective {lp} does not "
                                f"match its own solution ({lp_check})")
            mine = reference.kinked_objective(spec, inst.A, inst.y, lam, res.x_hat)
            if not abs(mine - res.objective) <= OBJECTIVE_TOL * abs(mine):
                problems.append(f"{op.label}: reported objective {res.objective} but "
                                f"x_hat gives {mine}")
            excess = (mine - lp) / abs(lp)
            if excess < -LP_FEAS_TOL:
                problems.append(f"{op.label}: objective {mine} below the LP optimum {lp}")
            attrs = {"oracle_iterations": res.iterations, "excess_rel": excess}
            if excess > LP_EXCESS_FAIL:
                outcomes.append(Outcome(True, f"stops {excess:.2e} above the LP optimum "
                                              f"with kkt_residual={res.kkt_residual:g}", attrs))
            else:
                outcomes.append(Outcome(False, attrs=attrs))
        return outcomes


WORKLOADS = {w.name: w for w in (SeTune, AmpSolve, KinkedOracle)}

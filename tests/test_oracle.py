"""Tests for the direct penalized-objective solver.

A hand-rolled coordinate-descent lasso serves as the independent reference
for the least-squares path. The kinked paths are checked against scipy's
HiGHS `linprog` on the primal LP, through exact scaling and reflection
identities, and against the state-evolution AMSE at the SE-implied penalty.
"""

import math
import statistics
from functools import lru_cache

import numpy as np
import numpy.testing as npt
import pytest
from scipy import optimize

from ramp import oracle
from ramp.experiments import convergence_study_spec, generate_instance
from ramp.losses import (
    absolute,
    huber,
    least_squares,
    loss_grad,
    loss_label,
    loss_value,
    quantile,
    score_shape,
)
from ramp.oracle import (
    OracleResult,
    check_oracle_distance,
    penalized_objective,
    solve_penalized,
)
from ramp.solver import ProblemInstance, SolverConfig, run_ramp
from ramp.state_evolution import (
    DistributionModel,
    pm_one_prior,
    tune_alpha,
)


def make_instance(rng, n, p, s, noise_sd=math.sqrt(0.2)):
    A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, p))
    x = np.zeros(p)
    support = rng.choice(p, size=s, replace=False)
    x[support] = rng.choice([-1.0, 1.0], size=s)
    y = A @ x + rng.normal(0.0, noise_sd, n)
    return ProblemInstance(A=A, y=y, s=s, x_true=x)


def cd_lasso(A, y, lam, sweeps=4000):
    """Cyclic coordinate descent for 0.5*||y - Ax||^2 + lam*||x||_1."""
    p = A.shape[1]
    x = np.zeros(p)
    col_sq = np.sum(A * A, axis=0)
    r = y.copy()
    for _ in range(sweeps):
        largest = 0.0
        for j in range(p):
            old = x[j]
            rho = A[:, j] @ r + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != old:
                r += A[:, j] * (old - new)
                x[j] = new
                largest = max(largest, abs(new - old))
        if largest < 1e-13:
            break
    return x


def primal_lp_objective(inst, loss, lam):
    """Exact kinked optimum from linprog on x = x+ - x-, r = r+ - r-."""
    n, p = inst.A.shape
    w, t = (2.0, 0.5) if loss == absolute() else (1.0, loss.tau_q)
    c = np.concatenate([np.full(2 * p, lam), np.full(n, w * t),
                        np.full(n, w * (1.0 - t))])
    eye = np.eye(n)
    res = optimize.linprog(c, A_eq=np.hstack([inst.A, -inst.A, eye, -eye]),
                           b_eq=inst.y, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def pm_one_instance(seed):
    """A +-1 design with a 0.1-rounded response, whose residuals tie at zero.

    n and p are drawn from the seed; x = 1 on the first 3 columns, plus
    N(0, 0.25) noise. Seed 9016 (n = 22, p = 157) lands quantile(0.2), and
    seed 9082 (n = 42, p = 27) quantile(0.2) and quantile(0.7), at 0.3 of
    the zero-fit edge on a degenerate dual vertex.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 150))
    p = int(rng.integers(10, 200))
    A = rng.choice([-1.0, 1.0], size=(n, p)) / math.sqrt(n)
    x = np.zeros(p)
    x[:3] = 1.0
    y = np.round(A @ x + rng.normal(0.0, 0.5, n), 1)
    return ProblemInstance(A=A, y=y, s=3, x_true=x)


def fraction_of_zero_edge(inst, loss, frac):
    """The penalty frac of the way up to where the zero fit certifies itself."""
    return frac * float(np.max(np.abs(inst.A.T @ loss_grad(loss, inst.y))))


def assert_matches_linprog(inst, loss, lam):
    res = solve_penalized(inst, loss, lam)
    exact = primal_lp_objective(inst, loss, lam)
    assert abs(res.objective - exact) <= 1e-9 * exact
    assert res.kkt_residual <= 1e-4 * lam * math.sqrt(inst.n)
    assert res.objective == penalized_objective(inst, loss, lam, res.x_hat)


@lru_cache(maxsize=None)
def se_tuned(loss):
    """(lambda*, AMSE) of state evolution at the benchmark geometry's alpha*."""
    spec = convergence_study_spec(replications=1)
    dist = DistributionModel(pm_one_prior(spec.s / spec.p), spec.noise)
    tuned = tune_alpha(dist, loss, spec.n / spec.p)
    return tuned.lambda_star, tuned.result.amse


def corrected_penalty(inst, state):
    """Penalty level whose direct fit the AMP fixed point solves exactly."""
    kappa = state.onsager_frac
    return state.theta * (inst.omega * (1.0 + state.b) - kappa * state.b) \
        / (inst.delta * state.b)


GRAD_LOSSES = [least_squares(), huber(1.0), huber(0.5), absolute(),
               quantile(0.7), quantile(0.3)]


class TestLossGrad:
    @pytest.mark.parametrize("loss", GRAD_LOSSES, ids=loss_label)
    def test_central_difference_away_from_kinks(self, loss):
        x = np.random.default_rng(4).uniform(-4.0, 4.0, 2000)
        # the kinks sit at 0 and, for Huber, at +-gamma
        x = x[np.min(np.abs(np.abs(x)[:, None] - np.array([0.0, 0.5, 1.0])),
                     axis=1) > 1e-3]
        h = 1e-6
        diff = (loss_value(loss, x + h) - loss_value(loss, x - h)) / (2.0 * h)
        npt.assert_allclose(loss_grad(loss, x), diff, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("loss", GRAD_LOSSES, ids=loss_label)
    def test_lies_in_score_bounds(self, loss):
        _, e_lo, e_hi = score_shape(loss)
        x = np.concatenate([np.linspace(-50.0, 50.0, 1001), [-1e300, 1e300]])
        g = loss_grad(loss, x)
        assert np.all((g >= e_lo) & (g <= e_hi))

    @pytest.mark.parametrize("loss", GRAD_LOSSES[3:], ids=loss_label)
    def test_zero_at_the_kink(self, loss):
        assert loss_grad(loss, 0.0) == 0.0
        assert loss_grad(loss, np.array([-0.0, 0.0])).tolist() == [0.0, 0.0]


class TestSolvePenalized:
    def test_matches_coordinate_descent_objective(self):
        rng = np.random.default_rng(0)
        inst = make_instance(rng, 100, 150, 15)
        lam = 0.6
        res = solve_penalized(inst, least_squares(), lam, tol=1e-8)
        x_cd = cd_lasso(inst.A, inst.y, lam)
        obj_cd = penalized_objective(inst, least_squares(), lam, x_cd)
        assert abs(res.objective - obj_cd) <= 1e-6

    def test_zero_certificate(self):
        rng = np.random.default_rng(1)
        inst = make_instance(rng, 60, 90, 9)
        edge = float(np.max(np.abs(inst.A.T @ inst.y)))
        res = solve_penalized(inst, least_squares(), edge * (1.0 + 1e-12))
        assert not res.x_hat.any()
        assert res.iterations == 0
        assert res.kkt_residual == 0.0
        below = solve_penalized(inst, least_squares(), edge * 0.98)
        assert np.count_nonzero(below.x_hat) > 0

    def test_quantile_half_matches_absolute(self):
        # the symmetric pinball loss is half the absolute loss, so halving
        # the penalty too must reproduce the same minimizers
        rng = np.random.default_rng(5)
        inst = make_instance(rng, 40, 60, 6)
        lam = 0.8
        r_abs = solve_penalized(inst, absolute(), lam)
        r_q = solve_penalized(inst, quantile(0.5), lam / 2.0)
        npt.assert_allclose(2.0 * r_q.objective, r_abs.objective, rtol=1e-9)
        cross = penalized_objective(inst, absolute(), lam, r_q.x_hat)
        assert cross - r_abs.objective <= 1e-9 * max(1.0, r_abs.objective)

    def test_rejects_nonpositive_penalty(self):
        rng = np.random.default_rng(2)
        inst = make_instance(rng, 30, 45, 4)
        with pytest.raises(ValueError):
            solve_penalized(inst, least_squares(), 0.0)

    def test_budget_exhaustion_returns_best_iterate(self):
        rng = np.random.default_rng(3)
        inst = make_instance(rng, 60, 90, 9)
        res = solve_penalized(inst, least_squares(), 0.3, tol=1e-13, max_iter=2)
        assert isinstance(res, OracleResult)
        assert res.kkt_residual > 1e-13
        assert math.isfinite(res.objective)
        assert res.x_hat.shape == (inst.p,)

    def test_smooth_certificate_matches_recomputation(self):
        rng = np.random.default_rng(4)
        inst = make_instance(rng, 60, 90, 9)
        lam = 0.4
        res = solve_penalized(inst, huber(1.0), lam)
        assert res.kkt_residual <= 1e-4 * lam * math.sqrt(inst.n)
        g = inst.A.T @ loss_grad(huber(1.0), inst.y - inst.A @ res.x_hat)
        on = np.abs(res.x_hat) > 0
        ext = max(float(np.max(np.abs(g[on] - lam * np.sign(res.x_hat[on])))),
                  max(0.0, float(np.max(np.abs(g[~on]))) - lam))
        assert abs(ext - res.kkt_residual) <= 1e-12

    def test_kinked_path_certifies_within_default_tolerance(self):
        rng = np.random.default_rng(5)
        inst = make_instance(rng, 40, 60, 6)
        lam = 0.8
        res = solve_penalized(inst, absolute(), lam)
        assert res.kkt_residual <= 1e-4 * lam * math.sqrt(inst.n)
        assert np.count_nonzero(res.x_hat) > 0


class TestObjectiveGeometry:
    def test_proximal_iterates_decrease_objective(self):
        # truncated runs replay the same deterministic prefix, so objectives
        # across increasing budgets trace the per-iteration path
        rng = np.random.default_rng(6)
        inst = make_instance(rng, 60, 90, 9)
        objs = [solve_penalized(inst, huber(1.0), 0.4, tol=1e-300,
                                max_iter=k).objective
                for k in range(1, 9)]
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-12 * max(1.0, objs[0]))

    @pytest.mark.parametrize("loss,lam", [(least_squares(), 0.5),
                                          (absolute(), 0.8)])
    def test_midpoint_convexity_certificate(self, loss, lam):
        rng = np.random.default_rng(7)
        inst = make_instance(rng, 40, 60, 6)
        a = solve_penalized(inst, loss, lam, tol=1e-300, max_iter=3).x_hat
        b = solve_penalized(inst, loss, lam, tol=1e-300, max_iter=9).x_hat
        mid = penalized_objective(inst, loss, lam, 0.5 * (a + b))
        avg = 0.5 * (penalized_objective(inst, loss, lam, a)
                     + penalized_objective(inst, loss, lam, b))
        assert mid <= avg + 1e-10


class TestOracleDistance:
    def test_identical_inputs_give_zero(self):
        rng = np.random.default_rng(8)
        inst = make_instance(rng, 60, 90, 9)
        ref = solve_penalized(inst, least_squares(), 0.5)
        assert check_oracle_distance(inst, least_squares(), 0.5, ref.x_hat) == 0.0

    def test_unit_perturbation(self):
        rng = np.random.default_rng(8)
        inst = make_instance(rng, 60, 90, 9)
        ref = solve_penalized(inst, least_squares(), 0.5)
        bumped = ref.x_hat.copy()
        bumped[0] += 1.0
        d = check_oracle_distance(inst, least_squares(), 0.5, bumped)
        assert d == pytest.approx(1.0 / inst.p, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        inst = make_instance(rng, 60, 90, 9)
        with pytest.raises(ValueError):
            check_oracle_distance(inst, least_squares(), 0.5, np.zeros(11))

    @pytest.mark.parametrize("loss", [least_squares(), huber(1.0)])
    def test_round_trip_with_amp_run(self, loss):
        rng = np.random.default_rng(0)
        inst = make_instance(rng, 100, 150, 15)
        rr = run_ramp(inst, loss, SolverConfig(alpha=2.0, tol=1e-12,
                                               max_iter=3000))
        assert rr.converged
        lam = corrected_penalty(inst, rr.state)
        assert check_oracle_distance(inst, loss, lam, rr) < 1e-3


class TestKinkedLinearProgram:
    @pytest.mark.parametrize("loss", [absolute(), quantile(0.2), quantile(0.7)],
                             ids=["absolute", "quantile_0.2", "quantile_0.7"])
    @pytest.mark.parametrize("noise", ["gaussian", "t2"])
    @pytest.mark.parametrize("rounded", [False, True],
                             ids=["continuous", "rounded"])
    def test_matches_primal_linprog(self, loss, noise, rounded):
        # p above the first working set, so the column generation runs;
        # a response rounded to 0.1 makes residuals tie at zero
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            inst = make_instance(rng, 50, 120, 8)
            if noise == "t2":
                y = inst.A @ inst.x_true + 0.5 * rng.standard_t(2, inst.n)
                inst = ProblemInstance(A=inst.A, y=y, s=inst.s,
                                       x_true=inst.x_true)
            if rounded:
                inst = ProblemInstance(A=inst.A, y=np.round(inst.y, 1),
                                       s=inst.s, x_true=inst.x_true)
            assert_matches_linprog(inst, loss,
                                   fraction_of_zero_edge(inst, loss, 0.3))

    @pytest.mark.parametrize("loss", [absolute(), quantile(0.2), quantile(0.7)],
                             ids=["absolute", "quantile_0.2", "quantile_0.7"])
    def test_small_penalty_with_more_rows_than_columns(self, loss):
        # nearly every column is active, and HiGHS leaves active rows up to
        # ~1e-9 relative off their bound, which a fixed activity tolerance
        # misreads on these seeds
        for seed in (203, 204, 205):
            inst = make_instance(np.random.default_rng(seed), 160, 80, 8)
            assert_matches_linprog(inst, loss,
                                   fraction_of_zero_edge(inst, loss, 0.005))

    @pytest.mark.parametrize("tau", [0.2, 0.7])
    def test_reflection_symmetry(self, tau):
        # (y, x, tau) -> (-y, -x, 1 - tau) maps each fit onto the other
        rng = np.random.default_rng(11)
        inst = make_instance(rng, 60, 140, 8)
        flipped = ProblemInstance(A=inst.A, y=-inst.y, s=inst.s,
                                  x_true=-inst.x_true)
        lam = fraction_of_zero_edge(inst, quantile(tau), 0.3)
        a = solve_penalized(inst, quantile(tau), lam)
        b = solve_penalized(flipped, quantile(1.0 - tau), lam)
        assert np.count_nonzero(a.x_hat) > 0
        npt.assert_allclose(b.x_hat, -a.x_hat, rtol=0.0, atol=1e-12)
        assert abs(a.objective - b.objective) <= 1e-12 * a.objective

    @pytest.mark.parametrize("loss", [absolute(), quantile(0.7)],
                             ids=["absolute", "quantile_0.7"])
    def test_working_set_never_holds_every_column(self, loss, monkeypatch):
        # the full n x p LP is what overran the memory budget
        widths = []
        real_milp = oracle.optimize.milp

        def spy(c, **kwargs):
            widths.append(kwargs["constraints"].A.shape[0])
            return real_milp(c, **kwargs)

        monkeypatch.setattr(oracle.optimize, "milp", spy)
        spec = convergence_study_spec(replications=1)
        lam = se_tuned(loss)[0]
        for draw in (20000, 20001):
            inst = generate_instance(spec, draw)
            res = solve_penalized(inst, loss, lam)
            assert res.kkt_residual <= 1e-4 * lam * math.sqrt(inst.n)
        assert widths and max(widths) < spec.p

    def test_budget_exhaustion_returns_restricted_fit(self):
        spec = convergence_study_spec(replications=1)
        inst = generate_instance(spec, 20000)
        lam = se_tuned(absolute())[0]
        res = solve_penalized(inst, absolute(), lam, max_iter=1)
        assert res.iterations == 1
        # the first round's fit is optimal over the columns that LP saw, so
        # it beats the zero fit
        assert np.count_nonzero(res.x_hat) <= 64
        zero = penalized_objective(inst, absolute(), lam, np.zeros(inst.p))
        assert res.objective < zero
        assert res.kkt_residual > 1e-4 * lam * math.sqrt(inst.n)
        full = solve_penalized(inst, absolute(), lam)
        assert res.objective >= full.objective

    def test_unclosed_gap_is_reported(self, monkeypatch):
        # a fit that misses the dual vertex, and a primal LP that misses it
        # too, must come back with the duality gap as its residual
        monkeypatch.setattr(oracle, "_primal_from_dual",
                            lambda A, *rest: np.zeros(A.shape[1]))
        monkeypatch.setattr(oracle, "_restricted_primal",
                            lambda A_work, *rest: np.zeros(A_work.shape[1]))
        rng = np.random.default_rng(5)
        inst = make_instance(rng, 40, 60, 6)
        lam = 0.8
        res = solve_penalized(inst, absolute(), lam)
        exact = primal_lp_objective(inst, absolute(), lam)
        assert not res.x_hat.any()
        assert res.kkt_residual == pytest.approx(res.objective - exact,
                                                 rel=1e-9)
        assert res.kkt_residual > 1e-4 * lam * math.sqrt(inst.n)

    def test_missed_vertex_falls_back_to_the_primal_lp(self, monkeypatch):
        # with the fit of the dual vertex lost, the working set's primal LP
        # alone must reach the optimum
        monkeypatch.setattr(oracle, "_primal_from_dual",
                            lambda A, *rest: np.zeros(A.shape[1]))
        rng = np.random.default_rng(5)
        inst = make_instance(rng, 40, 60, 6)
        for loss in (absolute(), quantile(0.7)):
            assert_matches_linprog(inst, loss, 0.8)

    @pytest.mark.parametrize("seed,q,shape", [(9016, 0.2, (22, 157)),
                                              (9082, 0.2, (42, 27)),
                                              (9082, 0.7, (42, 27))],
                             ids=["9016-quantile_0.2", "9082-quantile_0.2",
                                  "9082-quantile_0.7"])
    def test_degenerate_vertex_reaches_the_lp_optimum(self, seed, q, shape):
        # at 9016 quantile(0.2), 15 columns are active at the vertex against
        # 14 free v_i, so the square system of _primal_from_dual drops one
        # and leaves a gap of 0.49; these are the three degenerate vertices
        # on the sweep of tools/oracle_digest.py, and the primal LP on the
        # working set must take each to the LP optimum
        inst = pm_one_instance(seed)
        assert inst.A.shape == shape
        loss = quantile(q)
        assert_matches_linprog(inst, loss, fraction_of_zero_edge(inst, loss, 0.3))

    def test_non_optimal_status_raises(self, monkeypatch):
        def stalled(c, **kwargs):
            return optimize.OptimizeResult(status=1, x=None,
                                           message="Time limit reached.")

        monkeypatch.setattr(oracle.optimize, "milp", stalled)
        rng = np.random.default_rng(5)
        inst = make_instance(rng, 40, 60, 6)
        with pytest.raises(RuntimeError, match="status 1"):
            solve_penalized(inst, absolute(), 0.8)

    @pytest.mark.parametrize("loss", [absolute(), quantile(0.7)],
                             ids=["absolute", "quantile_0.7"])
    def test_mse_at_se_penalty_matches_amse(self, loss):
        # exact fits at the SE-implied penalty must reproduce the SE AMSE
        # within three standard errors plus 2%
        spec = convergence_study_spec(replications=1)
        lam, amse = se_tuned(loss)
        mses = []
        for draw in range(20000, 20010):
            inst = generate_instance(spec, draw)
            res = solve_penalized(inst, loss, lam)
            assert res.kkt_residual <= 1e-4 * lam * math.sqrt(inst.n)
            mses.append(float(np.mean((res.x_hat - inst.x_true) ** 2)))
        mean = statistics.fmean(mses)
        se = statistics.stdev(mses) / math.sqrt(len(mses))
        print(f"{loss.family}: LP MSE {mean:.4f} +- {se:.4f} at lambda* "
              f"{lam:.5f}, SE AMSE {amse:.4f}")
        assert abs(mean - amse) <= 3.0 * se + 0.02 * amse


class TestPresolveOff:
    """HiGHS runs the dual LP, and the primal LP of a degenerate vertex,
    without presolve; with its default presolve it must return the same
    fits, bit for bit."""

    @staticmethod
    def assert_same_fit(monkeypatch, inst, loss, lam):
        off = solve_penalized(inst, loss, lam)
        seen = []
        real_milp = oracle.optimize.milp

        def default_presolve(c, **kwargs):
            seen.append(kwargs.pop("options"))
            return real_milp(c, **kwargs)

        monkeypatch.setattr(oracle.optimize, "milp", default_presolve)
        on = solve_penalized(inst, loss, lam)
        assert seen and all(opt == {"presolve": False} for opt in seen)
        assert off.x_hat.tobytes() == on.x_hat.tobytes()
        assert off.objective == on.objective
        assert off.iterations == on.iterations

    @pytest.mark.parametrize("loss", [absolute(), quantile(0.7)],
                             ids=["absolute", "quantile_0.7"])
    @pytest.mark.parametrize("draw", [20000, 20001])
    def test_benchmark_draws(self, monkeypatch, loss, draw):
        spec = convergence_study_spec(replications=1)
        inst = generate_instance(spec, draw)
        self.assert_same_fit(monkeypatch, inst, loss, se_tuned(loss)[0])

    @pytest.mark.parametrize("loss", [absolute(), quantile(0.2), quantile(0.7)],
                             ids=["absolute", "quantile_0.2", "quantile_0.7"])
    @pytest.mark.parametrize("seed", [9000, 9016, 9082])
    def test_rounded_pm_one_designs(self, monkeypatch, loss, seed):
        # 9016 and 9082 hold degenerate vertices that send some of the
        # quantile fits to the primal LP
        inst = pm_one_instance(seed)
        self.assert_same_fit(monkeypatch, inst, loss,
                             fraction_of_zero_edge(inst, loss, 0.3))

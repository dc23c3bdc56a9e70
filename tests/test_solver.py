"""Tests for the robust AMP iteration.

The least-squares runs double as ground truth: with b = s/(n-s) the rescaled
score is the identity, so the whole solver must collapse to the plain
AMP-for-lasso loop, which we code independently here and compare against
coordinatewise.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from ramp.calibration import CalibrationError
from ramp.losses import absolute, huber, least_squares, quantile, soft_threshold
from ramp.solver import (
    DivergenceError,
    ProblemInstance,
    RampResult,
    SolverConfig,
    TRACE_FIELDS,
    initial_state,
    lambda_of_theta,
    ramp_step,
    rescaled_score,
    run_ramp,
    theta_of_lambda,
)


def make_instance(rng, n, p, s, noise_sd=math.sqrt(0.2)):
    """Gaussian design with unit-norm columns in expectation, +-1 signal."""
    A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, p))
    x = np.zeros(p)
    support = rng.choice(p, size=s, replace=False)
    x[support] = rng.choice([-1.0, 1.0], size=s)
    y = A @ x + rng.normal(0.0, noise_sd, n)
    return ProblemInstance(A=A, y=y, s=s, x_true=x)


def subgradient_residual(inst, x, lam, grad):
    """Worst-case distance of A^T grad(residual) from lam * subdifferential."""
    g = inst.A.T @ grad(inst.y - inst.A @ x)
    on = np.abs(x) > 0
    m_on = np.max(np.abs(g[on] - lam * np.sign(x[on]))) if on.any() else 0.0
    m_off = max(0.0, float(np.max(np.abs(g[~on]))) - lam)
    return max(float(m_on), m_off)


class TestProblemInstance:
    def test_dimension_ratios(self):
        rng = np.random.default_rng(0)
        inst = make_instance(rng, 320, 500, 64)
        assert inst.n == 320 and inst.p == 500
        assert inst.delta == 0.64
        assert inst.omega == 0.128
        assert inst.slope == 0.2

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(20, 30))
        with pytest.raises(ValueError):
            ProblemInstance(A=A[0], y=np.zeros(20), s=3)
        with pytest.raises(ValueError):
            ProblemInstance(A=A, y=np.zeros(21), s=3)
        with pytest.raises(ValueError):
            ProblemInstance(A=A, y=np.zeros(20), s=3, x_true=np.zeros(29))

    def test_rejects_bad_sparsity(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(20, 30))
        y = np.zeros(20)
        for s in (0, 20, -1):
            with pytest.raises(ValueError):
                ProblemInstance(A=A, y=y, s=s)
        with pytest.raises(ValueError):
            ProblemInstance(A=rng.normal(size=(20, 4)), y=y, s=5)


class TestSolverConfig:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)


class TestScoreAndPenaltyMaps:
    def test_ls_identity_at_matched_scale(self):
        # b = s/(n-s) makes the least-squares score rescale to the identity
        rng = np.random.default_rng(1)
        z = rng.normal(size=200)
        out = rescaled_score(least_squares(), z, 64.0 / 256.0, 0.2)
        npt.assert_allclose(out, z, rtol=1e-14)

    def test_clipped_score_example(self):
        out = rescaled_score(absolute(), np.array([2.0]), 1.0, 0.5)
        npt.assert_allclose(out, [2.0], rtol=1e-15)

    def test_zero_residuals_give_zero_score(self):
        z = np.zeros(50)
        for loss in (least_squares(), huber(1.0), absolute(), quantile(0.3)):
            assert not rescaled_score(loss, z, 0.7, 0.2).any()

    def test_penalty_of_threshold_value(self):
        assert lambda_of_theta(1.0, 1.0, 0.64, 0.128) == pytest.approx(0.2)
        assert lambda_of_theta(0.0, 1.0, 0.64, 0.128) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta, b = rng.uniform(0.1, 5.0, 2)
            lam = lambda_of_theta(theta, b, 0.64, 0.128)
            npt.assert_allclose(theta_of_lambda(lam, b, 0.64, 0.128), theta,
                                rtol=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            lambda_of_theta(1.0, 0.0, 0.64, 0.128)
        with pytest.raises(ValueError):
            theta_of_lambda(1.0, -0.5, 0.64, 0.128)


class TestBootstrap:
    def test_first_pass_uses_raw_response(self):
        rng = np.random.default_rng(3)
        inst = make_instance(rng, 80, 125, 16)
        state = initial_state(inst, least_squares(), SolverConfig(alpha=2.0))
        assert state.t == 0
        npt.assert_array_equal(state.z, inst.y)
        assert state.z is not inst.y

    def test_first_estimate_formula(self):
        rng = np.random.default_rng(4)
        inst = make_instance(rng, 80, 125, 16)
        state = initial_state(inst, huber(1.0), SolverConfig(alpha=2.0))
        expect = soft_threshold(inst.A.T @ state.score, state.theta)
        npt.assert_array_equal(state.x, expect)
        assert state.theta == 2.0 * math.sqrt(state.tau_hat_sq)


class TestOnsagerBookkeeping:
    @pytest.mark.parametrize("loss", [least_squares(), huber(1.0)])
    def test_fraction_matches_nonzero_count_exactly(self, loss):
        rng = np.random.default_rng(5)
        inst = make_instance(rng, 160, 250, 32)
        state = initial_state(inst, loss, SolverConfig(alpha=2.0))
        for _ in range(15):
            assert state.onsager_frac * inst.p == np.count_nonzero(state.x)
            state = ramp_step(inst, loss, SolverConfig(alpha=2.0), state)

    def test_residual_recursion_is_literal(self):
        """z gets rebuilt as response minus fit plus the scaled old score."""
        rng = np.random.default_rng(6)
        inst = make_instance(rng, 160, 250, 32)
        cfg = SolverConfig(alpha=2.0)
        state = initial_state(inst, least_squares(), cfg)
        for _ in range(5):
            nxt = ramp_step(inst, least_squares(), cfg, state)
            expect = (inst.y - inst.A @ state.x
                      + (state.onsager_frac / inst.delta) * state.score)
            npt.assert_array_equal(nxt.z, expect)
            state = nxt


class TestLeastSquaresSpecialization:
    def test_matches_plain_amp_loop(self):
        rng = np.random.default_rng(7)
        inst = make_instance(rng, 320, 500, 64)
        alpha = 2.0

        # independent lasso-AMP: identity score, residual memory correction
        x = np.zeros(inst.p)
        z = inst.y.copy()
        xs, zs = [], []
        for _ in range(21):
            theta = alpha * math.sqrt(np.mean(z * z))
            x = soft_threshold(x + inst.A.T @ z, theta)
            xs.append(x.copy())
            zs.append(z.copy())
            z = inst.y - inst.A @ x + (np.count_nonzero(x) / inst.n) * z

        cfg = SolverConfig(alpha=alpha)
        state = initial_state(inst, least_squares(), cfg)
        for t in range(21):
            npt.assert_allclose(state.x, xs[t], atol=1e-10)
            npt.assert_allclose(state.z, zs[t], atol=1e-10)
            state = ramp_step(inst, least_squares(), cfg, state)


class TestPermutationEquivariance:
    def test_column_permutation_permutes_estimate(self):
        rng = np.random.default_rng(11)
        inst = make_instance(rng, 320, 500, 64)
        perm = np.random.default_rng(1).permutation(inst.p)
        permuted = ProblemInstance(A=inst.A[:, perm], y=inst.y, s=inst.s,
                                   x_true=inst.x_true[perm])
        cfg = SolverConfig(alpha=2.0)
        a = initial_state(inst, least_squares(), cfg)
        b = initial_state(permuted, least_squares(), cfg)
        # the residual side is untouched, so the scale estimate is identical
        assert a.tau_hat_sq == b.tau_hat_sq
        for _ in range(20):
            npt.assert_allclose(b.x, a.x[perm], atol=1e-12)
            a = ramp_step(inst, least_squares(), cfg, a)
            b = ramp_step(permuted, least_squares(), cfg, b)
        npt.assert_allclose(b.x, a.x[perm], atol=1e-12)


class TestFixedPointStructure:
    def test_matched_filter_subgradient_at_convergence(self):
        rng = np.random.default_rng(2)
        inst = make_instance(rng, 320, 500, 64)
        res = run_ramp(inst, least_squares(),
                       SolverConfig(alpha=2.0, tol=1e-12, max_iter=3000))
        assert res.converged
        st = res.state
        v = inst.A.T @ st.score
        on = np.abs(st.x) > 0
        assert np.max(np.abs(v[on] - st.theta * np.sign(st.x[on]))) < 1e-6
        assert np.max(np.abs(v[~on])) < st.theta

    def test_ls_solves_penalized_problem_at_corrected_penalty(self):
        """The stationary point is the l1-penalized fit once the penalty
        accounts for the gap between the fitted and the nominal sparsity."""
        rng = np.random.default_rng(0)
        inst = make_instance(rng, 100, 150, 15)
        res = run_ramp(inst, least_squares(),
                       SolverConfig(alpha=2.0, tol=1e-12, max_iter=3000))
        assert res.converged
        st = res.state
        kappa = st.onsager_frac
        lam = st.theta * (inst.omega * (1.0 + st.b) - kappa * st.b) \
            / (inst.delta * st.b)
        resid = subgradient_residual(inst, st.x, lam, lambda r: r)
        assert resid <= 1e-4 * lam

    def test_huber_solves_penalized_problem_with_matched_support(self):
        # bisect the threshold multiplier until the fit has exactly s
        # nonzeros; there the nominal penalty map is exact
        rng = np.random.default_rng(0)
        inst = make_instance(rng, 100, 150, 15)
        loss = huber(1.0)

        def fit(alpha):
            return run_ramp(inst, loss,
                            SolverConfig(alpha=alpha, tol=1e-12, max_iter=3000))

        lo, hi = 1.2, 3.5
        matched = None
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            res = fit(mid)
            nnz = np.count_nonzero(res.state.x)
            if nnz == inst.s:
                matched = res
                break
            if nnz > inst.s:
                lo = mid
            else:
                hi = mid
        assert matched is not None and matched.converged
        st = matched.state
        lam = lambda_of_theta(st.theta, st.b, inst.delta, inst.omega)
        resid = subgradient_residual(inst, st.x, lam,
                                     lambda r: np.clip(r, -1.0, 1.0))
        assert resid <= 1e-4 * lam


class TestDivergenceAndFailure:
    def test_huge_response_diverges_at_start(self):
        rng = np.random.default_rng(0)
        A = rng.normal(0.0, 1.0 / math.sqrt(40), (40, 60))
        inst = ProblemInstance(A=A, y=np.full(40, 1e200), s=5)
        with pytest.raises(DivergenceError) as err:
            run_ramp(inst, least_squares(), SolverConfig(alpha=2.0))
        assert err.value.iteration == 0

    def test_nonfinite_response_diverges_at_start(self):
        rng = np.random.default_rng(0)
        A = rng.normal(0.0, 1.0 / math.sqrt(40), (40, 60))
        y = np.zeros(40)
        y[7] = np.inf
        inst = ProblemInstance(A=A, y=y, s=5)
        with pytest.raises(DivergenceError):
            initial_state(inst, least_squares(), SolverConfig(alpha=2.0))

    def test_runaway_scale_ends_in_calibration_failure(self):
        # an all-zero residual leaves the kinked root at b = 0, which
        # surfaces as CalibrationError out of run_ramp, not as a non-finite
        # value; huber's exact calibration has no bracket, so a response of
        # scale 1e14 runs with finite b and x (tol is absolute, so the run
        # does not settle)
        rng = np.random.default_rng(3)
        inst = make_instance(rng, 80, 125, 16)
        huge = ProblemInstance(A=inst.A, y=1e14 * inst.y, s=inst.s)
        res = run_ramp(huge, huber(1.0), SolverConfig(alpha=2.0))
        assert 1e12 < res.state.b < np.inf
        assert np.all(np.isfinite(res.x))
        flat = ProblemInstance(A=inst.A, y=np.zeros(inst.n), s=inst.s)
        for loss in (absolute(), quantile(0.7)):
            with pytest.raises(CalibrationError, match="exactly zero"):
                run_ramp(flat, loss, SolverConfig(alpha=2.0))

    def test_max_iter_returns_flagged_status(self):
        rng = np.random.default_rng(8)
        inst = make_instance(rng, 80, 125, 16)
        res = run_ramp(inst, least_squares(),
                       SolverConfig(alpha=2.0, max_iter=1))
        assert isinstance(res, RampResult)
        assert not res.converged
        assert res.iterations == 2


class TestTraceAndResult:
    def test_trace_matches_replayed_states(self):
        rng = np.random.default_rng(10)
        inst = make_instance(rng, 160, 250, 32)
        cfg = SolverConfig(alpha=2.0, max_iter=12)
        res = run_ramp(inst, least_squares(), cfg)

        assert len(TRACE_FIELDS) == 5
        state = initial_state(inst, least_squares(), cfg)
        for row in res.trace:
            t, b, theta, tau_sq, mse = row
            assert t == state.t
            assert b == state.b and theta == state.theta
            assert tau_sq == state.tau_hat_sq
            err = state.x - inst.x_true
            assert mse == float(np.mean(err * err))
            if t < len(res.trace) - 1:
                state = ramp_step(inst, least_squares(), cfg, state)

    def test_mse_is_nan_without_ground_truth(self):
        rng = np.random.default_rng(12)
        ref = make_instance(rng, 80, 125, 16)
        inst = ProblemInstance(A=ref.A, y=ref.y, s=ref.s)
        res = run_ramp(inst, least_squares(), SolverConfig(alpha=2.0, max_iter=3))
        assert all(math.isnan(row[4]) for row in res.trace)

    def test_result_accessors(self):
        rng = np.random.default_rng(13)
        inst = make_instance(rng, 80, 125, 16)
        res = run_ramp(inst, least_squares(), SolverConfig(alpha=2.0))
        assert res.x is res.state.x
        assert res.iterations == len(res.trace)
        assert res.converged
        assert res.iterations < 200

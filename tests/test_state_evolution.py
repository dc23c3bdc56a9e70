import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.optimize import brentq

from ramp import state_evolution
from ramp.calibration import CalibrationTarget, calibrate
from ramp.losses import absolute, effective_score, effective_score_deriv, huber, least_squares, quantile, soft_threshold
from ramp.state_evolution import (
    Cauchy,
    DistributionModel,
    Laplace,
    Normal,
    NormalMixture,
    SeConfig,
    SignalPrior,
    StudentT,
    amse_closed_form,
    amse_monte_carlo,
    efficiency_limits,
    info_lower_bound,
    lambda_from_fixed_point,
    minimax_risk,
    pm_one_prior,
    score_moments,
    se_fixed_point,
    slope_curve,
    se_sigma_update,
    se_tau_update,
    tune_alpha,
    worst_case_risk,
)


def gaussian_window_moments(s, lo, hi):
    """(P(lo<v<hi), E[v^2 1{lo<v<hi}]) for v ~ N(0, s^2), by scipy."""
    a, b = lo / s, hi / s
    p = stats.norm.cdf(b) - stats.norm.cdf(a)
    m2 = s * s * (p - (b * stats.norm.pdf(b) - a * stats.norm.pdf(a)))
    return p, m2


class TestSignalPrior:
    def test_pm_one_moments(self):
        prior = pm_one_prior(0.128)
        assert prior.second_moment == pytest.approx(0.128)
        masses = [p for p, _ in prior.full_atoms]
        assert sum(masses) == pytest.approx(1.0)
        assert masses[0] == pytest.approx(1.0 - 0.128)

    def test_sample_frequencies(self):
        rng = np.random.default_rng(42)
        prior = pm_one_prior(0.2)
        x = prior.sample(rng, 100_000)
        frac_nonzero = np.mean(x != 0)
        assert abs(frac_nonzero - 0.2) < 4 * math.sqrt(0.2 * 0.8 / 100_000)
        assert set(np.unique(x)) == {-1.0, 0.0, 1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            SignalPrior(0.0, ((1.0, 1.0),))
        with pytest.raises(ValueError):
            SignalPrior(0.5, ((0.4, 1.0), (0.4, -1.0)))
        with pytest.raises(ValueError):
            SignalPrior(0.5, ((1.0, 0.0),))
        with pytest.raises(ValueError):
            SignalPrior(0.5, ())


class TestNoiseLaws:
    def test_pinned_variance_and_information(self):
        assert Normal(0.2).variance == pytest.approx(0.2)
        assert Normal(0.2).fisher_info == pytest.approx(5.0)
        assert Laplace(1.0).variance == pytest.approx(2.0)
        assert Laplace(1.0).fisher_info == pytest.approx(1.0)
        assert StudentT(4.0).variance == pytest.approx(2.0)
        assert StudentT(4.0).fisher_info == pytest.approx(5.0 / 7.0)
        assert StudentT(8.0).variance == pytest.approx(4.0 / 3.0)
        assert math.isinf(Cauchy(1.0).variance)
        assert Cauchy(1.0).fisher_info == pytest.approx(0.5)
        mix = NormalMixture(((0.5, 0.3), (0.5, 1.0)))
        assert mix.variance == pytest.approx(0.65)
        assert mix.fisher_info is None
        assert NormalMixture(((0.7, 1.0), (0.3, 3.0))).variance == pytest.approx(1.6)

    def test_cdf_ppf_round_trip(self):
        u = np.linspace(0.01, 0.99, 25)
        for noise in (Normal(0.2), Laplace(1.3), StudentT(4.0), Cauchy(0.7)):
            assert_allclose(noise.cdf(noise.ppf(u)), u, atol=1e-9)

    def test_pdf_integrates_to_one(self):
        grid = np.linspace(-60, 60, 240_001)
        for noise in (Normal(0.5), Laplace(1.0), StudentT(4.0),
                      NormalMixture(((0.7, 1.0), (0.3, 3.0)))):
            mass = np.trapezoid(noise.pdf(grid), grid)
            assert abs(mass - 1.0) < 1e-3

    def test_sample_moments(self):
        rng = np.random.default_rng(42)
        for noise in (Normal(0.2), Laplace(1.0), NormalMixture(((0.5, 0.3), (0.5, 1.0)))):
            x = noise.sample(rng, 200_000)
            assert abs(np.var(x) - noise.variance) < 0.05 * noise.variance

    def test_validation(self):
        with pytest.raises(ValueError):
            Normal(0.0)
        with pytest.raises(ValueError):
            Laplace(-1.0)
        with pytest.raises(ValueError):
            NormalMixture(((0.5, 1.0), (0.6, 1.0)))


class TestScoreMoments:
    def test_least_squares_exact_for_any_noise(self):
        b, sigma = 0.4, 0.7
        c = b / (1 + b)
        for noise in (Normal(0.2), Laplace(1.0), StudentT(4.0),
                      NormalMixture(((0.5, 0.3), (0.5, 1.0)))):
            d, q = score_moments(least_squares(), b, noise, sigma)
            assert d == pytest.approx(c, rel=1e-12)
            assert q == pytest.approx(c * c * (noise.variance + sigma ** 2), rel=1e-10)

    def test_absolute_gaussian_closed_form(self):
        b, sigma = 0.8, 0.5
        s = math.sqrt(0.2 + sigma ** 2)
        p, m2 = gaussian_window_moments(s, -b, b)
        d, q = score_moments(absolute(), b, Normal(0.2), sigma)
        assert d == pytest.approx(p, rel=1e-10)
        assert q == pytest.approx(m2 + b * b * (1 - p), rel=1e-10)

    def test_huber_gaussian_closed_form(self):
        b, gamma, sigma = 0.3, 1.0, 0.6
        s = math.sqrt(0.2 + sigma ** 2)
        k = (1 + b) * gamma
        c = b / (1 + b)
        p, m2 = gaussian_window_moments(s, -k, k)
        d, q = score_moments(huber(gamma), b, Normal(0.2), sigma)
        assert d == pytest.approx(c * p, rel=1e-10)
        assert q == pytest.approx(c * c * m2 + (b * gamma) ** 2 * (1 - p), rel=1e-10)

    def test_quantile_gaussian_closed_form(self):
        b, tq, sigma = 1.1, 0.7, 0.4
        s = math.sqrt(1.0 + sigma ** 2)
        lo, hi = b * (tq - 1), b * tq
        p, m2 = gaussian_window_moments(s, lo, hi)
        p_above = stats.norm.sf(hi / s)
        p_below = stats.norm.cdf(lo / s)
        d, q = score_moments(quantile(tq), b, Normal(1.0), sigma)
        assert d == pytest.approx(p, rel=1e-10)
        assert q == pytest.approx(m2 + hi * hi * p_above + lo * lo * p_below, rel=1e-10)

    @pytest.mark.parametrize("noise,loss,b,window,consts", [
        (Laplace(1.0), absolute(), 0.9, (-0.9, 0.9), (1.0, 0.9 ** 2, 0.9 ** 2)),
        (StudentT(4.0), huber(1.0), 0.35, (-1.35, 1.35),
         ((0.35 / 1.35) ** 2, 0.35 ** 2, 0.35 ** 2)),
        (Cauchy(1.0), quantile(0.7), 1.2, (-0.36, 0.84),
         (1.0, 0.36 ** 2, 0.84 ** 2)),
    ])
    def test_quadrature_matches_adaptive_integration(self, noise, loss, b, window, consts):
        # independent reference: scipy truncated-normal moments conditional
        # on w, integrated adaptively against the noise density
        from scipy.integrate import quad

        sigma = 0.6
        lo, hi = window
        sq_scale, below_sq, above_sq = consts
        deriv_scale = b / (1 + b) if loss.gamma is not None else 1.0

        def window_moments(w):
            a, c = (lo - w) / sigma, (hi - w) / sigma
            p = stats.norm.cdf(c) - stats.norm.cdf(a)
            m2 = ((w * w + sigma * sigma) * p
                  + 2 * w * sigma * (stats.norm.pdf(a) - stats.norm.pdf(c))
                  + sigma * sigma * (a * stats.norm.pdf(a) - c * stats.norm.pdf(c)))
            return p, m2, stats.norm.cdf(a), stats.norm.sf(c)

        def deriv_at(w):
            return deriv_scale * window_moments(w)[0] * float(noise.pdf(w))

        def sq_at(w):
            p, m2, p_below, p_above = window_moments(w)
            return (sq_scale * m2 + below_sq * p_below + above_sq * p_above) * float(noise.pdf(w))

        d_ref = quad(deriv_at, -np.inf, np.inf, limit=400)[0]
        q_ref = quad(sq_at, -np.inf, np.inf, limit=400)[0]
        d, q = score_moments(loss, b, noise, sigma)
        assert d == pytest.approx(d_ref, abs=1e-8)
        assert q == pytest.approx(q_ref, abs=1e-8)

    @pytest.mark.parametrize("noise,loss,b", [
        (Laplace(1.0), absolute(), 0.9),
        (StudentT(4.0), huber(1.0), 0.35),
        (Cauchy(1.0), quantile(0.7), 1.2),
    ])
    def test_quadrature_matches_sampling(self, noise, loss, b):
        # hand-rolled sampler, independent of the mc engine; 4 standard
        # errors because the seed is fixed across six comparisons
        sigma = 0.6
        rng = np.random.default_rng(42)
        n = 400_000
        v = noise.sample(rng, n) + sigma * rng.standard_normal(n)
        d_samples = effective_score_deriv(loss, v, b)
        q_samples = effective_score(loss, v, b) ** 2
        d, q = score_moments(loss, b, noise, sigma)
        assert abs(d - d_samples.mean()) < 4 * d_samples.std(ddof=1) / math.sqrt(n)
        assert abs(q - q_samples.mean()) < 4 * q_samples.std(ddof=1) / math.sqrt(n)

    def test_mc_engine_agrees_with_quadrature(self):
        d_q, q_q = score_moments(absolute(), 0.9, Laplace(1.0), 0.6)
        d_mc, q_mc = score_moments(absolute(), 0.9, Laplace(1.0), 0.6,
                                   engine="mc", mc_samples=400_000, seed=3)
        assert abs(d_q - d_mc) < 4e-3
        assert abs(q_q - q_mc) < 4e-3

    def test_mc_engine_is_seed_deterministic(self):
        a = score_moments(absolute(), 0.9, Laplace(1.0), 0.6, engine="mc",
                          mc_samples=100_000, seed=11)
        b = score_moments(absolute(), 0.9, Laplace(1.0), 0.6, engine="mc",
                          mc_samples=100_000, seed=11)
        assert a == b

    def test_mc_engine_matches_fresh_draws(self):
        # the engine reuses one drawn sample across b values; a fresh seeded
        # draw per call, chunk by chunk, must give the same bits
        def fresh(loss, b, noise, sigma, n, seed):
            rng = np.random.default_rng(seed)
            d_sum = q_sum = 0.0
            done = 0
            while done < n:
                m = min(state_evolution._MC_CHUNK, n - done)
                v = noise.sample(rng, m) + sigma * rng.standard_normal(m)
                d_sum += float(np.sum(effective_score_deriv(loss, v, b)))
                q_sum += float(np.sum(effective_score(loss, v, b) ** 2))
                done += m
            return d_sum / n, q_sum / n

        n = 2 * state_evolution._MC_CHUNK + 1000
        for b in (0.9, 1.3, 0.9):
            got = score_moments(absolute(), b, Laplace(1.0), 0.6, engine="mc",
                                mc_samples=n, seed=5)
            assert got == fresh(absolute(), b, Laplace(1.0), 0.6, n, 5)

    def test_conditional_moments_match_truncated_route(self):
        # p_below by norm_cdf gives the same bits as a truncated_moments
        # call over (-inf, lo]; at s = 0 the point mass gives E Phi^2 =
        # Phi(mu)^2
        mu = state_evolution._noise_nodes(Laplace(1.0))[0]
        for loss, b in ((absolute(), 0.7), (quantile(0.3), 1.9), (huber(1.0), 0.4)):
            for s in (0.6, 0.0):
                deriv, sq = state_evolution._conditional_moments(loss, b, mu, s)
                lo, hi = state_evolution._score_window(loss, b)
                p_in, _, m2_in = state_evolution.truncated_moments(mu, s, lo, hi)
                p_below, _, _ = state_evolution.truncated_moments(mu, s, -np.inf, lo)
                p_above = np.maximum(1.0 - p_in - p_below, 0.0)
                if loss.gamma is None:
                    ref = m2_in + hi * hi * p_above + lo * lo * p_below
                else:
                    c = b / (1.0 + b)
                    ref = c * c * m2_in + (b * loss.gamma) ** 2 * (p_below + p_above)
                np.testing.assert_array_equal(sq, ref)
                if s == 0.0:
                    phi = effective_score(loss, mu, b)
                    assert_allclose(sq, phi * phi, rtol=1e-15)

    def test_least_squares_infinite_variance_rejected(self):
        with pytest.raises(ValueError):
            score_moments(least_squares(), 0.3, Cauchy(1.0), 0.5)

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            score_moments(absolute(), 0.5, Normal(1.0), 0.5, engine="exact")


SLOPE_NOISES = (Normal(0.2), NormalMixture(((0.7, 1.0), (0.3, 3.0))), Laplace(1.0),
                StudentT(4.0), Cauchy(1.0))
SLOPE_LOSSES = (huber(1.0), absolute(), quantile(0.7))


class TestSlopeCurve:
    @pytest.mark.parametrize("noise", SLOPE_NOISES)
    @pytest.mark.parametrize("loss", SLOPE_LOSSES)
    def test_derivative_matches_central_difference(self, noise, loss):
        sigma = 0.6
        for b in (0.05, 0.4, 1.5, 6.0):
            d, deriv = slope_curve(loss, b, noise, sigma)
            assert d == score_moments(loss, b, noise, sigma)[0]
            h = 1e-5 * b
            fd = (slope_curve(loss, b + h, noise, sigma)[0]
                  - slope_curve(loss, b - h, noise, sigma)[0]) / (2.0 * h)
            assert deriv > 0
            assert deriv == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("noise", SLOPE_NOISES)
    @pytest.mark.parametrize("loss", SLOPE_LOSSES)
    @pytest.mark.filterwarnings("error")
    def test_newton_matches_bracketed_brent(self, noise, loss):
        # Brent's method on log10 b, on the slope of score_moments, is the
        # reference; at sigma = 0 that slope is a step map on the noise
        # nodes, whose jump Newton's bisection fallback finds, and the
        # point mass has no edge density (no 0/0 from dividing by s)
        dist = DistributionModel(pm_one_prior(0.128), noise)
        for sigma_sq, slope, start in ((0.5, 0.2, None), (0.05, 0.2, 3.0), (2.0, 0.6, 0.01),
                                       (0.0, 0.2, None), (0.0, 0.6, 3.0)):
            sigma = math.sqrt(sigma_sq)
            ref = 10.0 ** brentq(lambda e: score_moments(loss, 10.0 ** e, noise, sigma)[0] - slope,
                                 -12.0, 12.0, xtol=1e-14)
            _, b = se_tau_update(sigma_sq, dist, loss, slope, b_start=start)
            assert b == pytest.approx(ref, rel=1e-12)

    def test_warm_started_fixed_point_evaluations(self, monkeypatch):
        calls = {"tau": 0, "curve": 0}

        def count(name, key):
            original = getattr(state_evolution, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(state_evolution, name, wrapper)

        count("se_tau_update", "tau")
        count("slope_curve", "curve")
        count("score_moments", "curve")
        dist = DistributionModel(pm_one_prior(0.128), Laplace(1.0))
        res = se_fixed_point(dist, absolute(), 0.64, alpha=2.0)
        assert res.converged
        assert calls["tau"] == res.iterations + 1
        assert calls["curve"] / calls["tau"] <= 8


class TestTauUpdate:
    def test_least_squares_identities(self):
        slope = 0.2
        for noise in (Normal(0.2), Laplace(1.0), StudentT(8.0)):
            dist = DistributionModel(pm_one_prior(0.128), noise)
            for sigma_sq in (0.0, 0.3, 2.0):
                tau_sq, b = se_tau_update(sigma_sq, dist, least_squares(), slope)
                assert b == pytest.approx(slope / (1 - slope), rel=1e-14)
                assert tau_sq == pytest.approx(noise.variance + sigma_sq, rel=1e-12)

    def test_absolute_gaussian_oracle(self):
        # for N(0, s^2) residuals the calibrated b solves 2 Phi(b/s) - 1 = slope
        slope, sigma_sq = 0.2, 0.3
        s = math.sqrt(0.2 + sigma_sq)
        b_star = brentq(lambda b: 2 * stats.norm.cdf(b / s) - 1 - slope, 1e-8, 50)
        p, m2 = gaussian_window_moments(s, -b_star, b_star)
        tau_expect = (m2 + b_star ** 2 * (1 - p)) / slope ** 2
        dist = DistributionModel(pm_one_prior(0.128), Normal(0.2))
        tau_sq, b = se_tau_update(sigma_sq, dist, absolute(), slope)
        assert b == pytest.approx(b_star, rel=1e-9)
        assert tau_sq == pytest.approx(tau_expect, rel=1e-8)

    @pytest.mark.parametrize("loss", (absolute(), quantile(0.7), huber(1.0)))
    def test_mc_engine_calibrates_on_its_sample(self, loss):
        # the Monte Carlo b is the solver's exact calibration on the drawn
        # sample, and lies within four standard errors of the quadrature b:
        # the sd of the sample slope at b over the slope's derivative in b
        noise, sigma_sq, slope, n = Laplace(1.0), 0.5, 0.2, 200_000
        dist = DistributionModel(pm_one_prior(0.128), noise)
        sigma = math.sqrt(sigma_sq)
        tau_sq, b = se_tau_update(sigma_sq, dist, loss, slope, engine="mc",
                                  mc_samples=n, seed=3)
        sample = state_evolution._mc_residuals(noise, sigma, n, 3)
        assert b == calibrate(CalibrationTarget(slope, loss, sample))
        _, sq = score_moments(loss, b, noise, sigma, engine="mc", mc_samples=n, seed=3)
        assert tau_sq == sq / slope ** 2
        _, b_quad = se_tau_update(sigma_sq, dist, loss, slope)
        _, deriv = slope_curve(loss, b_quad, noise, sigma)
        scale = b_quad / (1.0 + b_quad) if loss.gamma is not None else 1.0
        p_in = slope / scale
        se = scale * math.sqrt(p_in * (1.0 - p_in) / n) / deriv
        assert abs(b - b_quad) <= 4.0 * se

    def test_slope_validation(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(1.0))
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                se_tau_update(0.5, dist, absolute(), bad)


class TestSigmaUpdate:
    def test_no_penalty_is_scaled_identity(self):
        dist = DistributionModel(None, Normal(1.0))
        assert se_sigma_update(0.7, None, dist, 4.0, mode="no_penalty") == pytest.approx(0.175)

    def test_zero_tau(self):
        dist = DistributionModel(pm_one_prior(0.2), Normal(1.0))
        assert se_sigma_update(0.0, 1.5, dist, 2.0) == 0.0

    def test_matches_sampling(self):
        tau_sq, alpha, delta = 0.4, 1.5, 0.64
        prior = pm_one_prior(0.128)
        dist = DistributionModel(prior, Normal(0.2))
        got = se_sigma_update(tau_sq, alpha, dist, delta)
        rng = np.random.default_rng(42)
        n = 500_000
        tau = math.sqrt(tau_sq)
        x0 = prior.sample(rng, n)
        err = (soft_threshold(x0 + tau * rng.standard_normal(n), alpha * tau) - x0) ** 2
        se = err.std(ddof=1) / math.sqrt(n)
        assert abs(got - err.mean() / delta) < 3 * se / delta

    def test_consistent_with_closed_form_amse(self):
        # same quantity through two different closed forms
        prior = pm_one_prior(0.2)
        dist = DistributionModel(prior, Normal(1.0))
        for tau_sq, alpha in ((0.1, 0.8), (0.5, 1.5), (2.0, 2.5)):
            delta = 0.64
            via_update = delta * se_sigma_update(tau_sq, alpha, dist, delta)
            via_amse = amse_closed_form(prior, math.sqrt(tau_sq), alpha).value
            assert via_update == pytest.approx(via_amse, rel=1e-12)


class TestFixedPoint:
    def test_no_penalty_least_squares_closed_form(self):
        for delta, sigma_w_sq in ((10.0, 0.2), (3.0, 2.0), (1.2, 0.2)):
            noise = Normal(sigma_w_sq) if sigma_w_sq != 2.0 else Laplace(1.0)
            res = se_fixed_point(DistributionModel(None, noise), least_squares(),
                                 delta, mode="no_penalty")
            assert res.converged and not res.diverged
            assert res.amse == pytest.approx(sigma_w_sq * delta / (delta - 1), rel=1e-4)

    def test_no_penalty_needs_oversampling(self):
        with pytest.raises(ValueError):
            se_fixed_point(DistributionModel(None, Normal(1.0)), absolute(),
                           0.9, mode="no_penalty")

    def test_least_squares_rows_satisfy_variance_split(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(0.2))
        res = se_fixed_point(dist, least_squares(), 0.64, alpha=2.0, init_tau_sq=0.1)
        assert res.converged
        for t, sigma_sq, tau_sq, b, theta in res.rows[1:]:
            assert tau_sq == pytest.approx(0.2 + sigma_sq, rel=1e-12)
            assert b == pytest.approx(0.25, rel=1e-14)

    def test_tau_initialized_first_row(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(0.2))
        res = se_fixed_point(dist, absolute(), 0.64, alpha=2.0, init_tau_sq=0.1)
        t, sigma_sq, tau_sq, b, theta = res.rows[0]
        assert t == 0 and tau_sq == 0.1
        assert math.isnan(sigma_sq) and math.isnan(b)
        assert theta == pytest.approx(2.0 * math.sqrt(0.1))

    def test_information_floor_along_trajectory(self):
        # tau_t^2 >= (omega/delta) (1 + sigma_t^2 I) / I at every recorded step
        prior = pm_one_prior(0.128)
        delta = 0.64
        noise = Normal(0.2)
        info = noise.fisher_info
        slope = prior.omega / delta
        for loss in (absolute(), huber(1.0), least_squares()):
            res = se_fixed_point(DistributionModel(prior, noise), loss, delta,
                                 alpha=2.0, init_tau_sq=0.1)
            assert res.converged
            for _, sigma_sq, tau_sq, _, _ in res.rows[1:]:
                floor = slope * (1.0 + sigma_sq * info) / info
                assert tau_sq >= floor - 1e-9

    def test_fixed_point_solves_both_updates(self):
        prior = pm_one_prior(0.128)
        dist = DistributionModel(prior, Laplace(1.0))
        res = se_fixed_point(dist, absolute(), 0.64, alpha=2.0)
        assert res.converged and res.monotone
        sigma_again = se_sigma_update(res.tau_star_sq, 2.0, dist, 0.64)
        tau_again, b_again = se_tau_update(sigma_again, dist, absolute(), 0.2)
        assert abs(tau_again - res.tau_star_sq) < 5e-6
        assert b_again == pytest.approx(res.b_star, rel=1e-4)

    def test_divergence_gate_for_unbounded_score(self):
        dist = DistributionModel(pm_one_prior(0.128), Cauchy(1.0))
        res = se_fixed_point(dist, least_squares(), 0.64, alpha=2.0)
        assert res.diverged and not res.converged
        assert math.isinf(res.amse)
        assert math.isnan(res.tau_star_sq)

    def test_bounded_scores_survive_cauchy(self):
        dist = DistributionModel(pm_one_prior(0.128), Cauchy(1.0))
        res = se_fixed_point(dist, absolute(), 0.64, alpha=2.0)
        assert res.converged and not res.diverged
        assert math.isfinite(res.amse)

    def test_student_t_least_squares_converges(self):
        dist = DistributionModel(pm_one_prior(0.128), StudentT(4.0))
        res = se_fixed_point(dist, least_squares(), 0.64, alpha=2.0)
        assert res.converged
        assert res.tau_star_sq == pytest.approx(2.0 + res.sigma_star_sq, rel=1e-10)

    def test_mode_and_alpha_validation(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(1.0))
        with pytest.raises(ValueError):
            se_fixed_point(dist, absolute(), 0.64, alpha=2.0, mode="ridge")
        with pytest.raises(ValueError):
            se_fixed_point(dist, absolute(), 0.64, alpha=None)
        with pytest.raises(ValueError):
            se_fixed_point(DistributionModel(None, Normal(1.0)), absolute(), 0.64, alpha=2.0)


class TestAmse:
    def test_closed_form_matches_sampling(self):
        prior = pm_one_prior(0.128)
        for tau, alpha, seed in ((0.5, 1.5, 0), (1.2, 2.0, 1)):
            exact = amse_closed_form(prior, tau, alpha).value
            est = amse_monte_carlo(prior, tau, alpha * tau, samples=400_000, seed=seed)
            assert abs(exact - est.value) < 3 * est.stderr

    def test_large_threshold_kills_everything(self):
        prior = pm_one_prior(0.128)
        parts = amse_closed_form(prior, 0.5, 60.0)
        assert parts.value == pytest.approx(prior.second_moment, rel=1e-10)
        assert parts.nu2 == pytest.approx(prior.second_moment, rel=1e-10)

    def test_small_tau_recovers_signal(self):
        prior = pm_one_prior(0.128)
        assert amse_closed_form(prior, 1e-4, 2.0).value < 1e-6

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            amse_closed_form(pm_one_prior(0.2), 0.0, 1.0)

    def test_monte_carlo_stderr_scales(self):
        prior = pm_one_prior(0.2)
        small = amse_monte_carlo(prior, 0.5, 0.75, samples=50_000, seed=0)
        large = amse_monte_carlo(prior, 0.5, 0.75, samples=800_000, seed=0)
        assert large.stderr < small.stderr
        assert small.samples == 50_000


class TestTuneAlpha:
    def test_picks_grid_minimum(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(0.2))
        grid = tuple(np.round(np.arange(1.0, 2.01, 0.1), 10))
        out = tune_alpha(dist, least_squares(), 0.64, alpha_grid=grid)
        assert out.alpha_star in grid
        values = np.array(out.amse_values)
        assert np.nanargmin(values) == grid.index(out.alpha_star)
        assert out.lambda_star > 0
        assert out.result.amse == pytest.approx(np.nanmin(values))

    def test_lambda_matches_fixed_point_map(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(0.2))
        out = tune_alpha(dist, least_squares(), 0.64,
                         alpha_grid=(1.2, 1.4, 1.6))
        lam = lambda_from_fixed_point(out.alpha_star, out.result, 0.128)
        assert out.lambda_star == pytest.approx(lam)

    def test_grid_edge_flag(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(0.2))
        inner = tune_alpha(dist, least_squares(), 0.64,
                           alpha_grid=tuple(np.round(np.arange(1.0, 2.01, 0.1), 10)))
        assert inner.alpha_star == 1.4 and not inner.at_grid_edge
        for grid in ((0.5, 0.6), (2.5, 2.6, 2.7)):
            out = tune_alpha(dist, least_squares(), 0.64, alpha_grid=grid)
            assert out.alpha_star in (grid[0], grid[-1]) and out.at_grid_edge

    def test_all_diverged_raises(self):
        dist = DistributionModel(pm_one_prior(0.128), Cauchy(1.0))
        with pytest.raises(RuntimeError):
            tune_alpha(dist, least_squares(), 0.64, alpha_grid=(1.0, 2.0))


class TestLimitsAndBounds:
    def test_gamma_cap_against_direct_formula(self):
        for a in (0.5, 1.0, 1.5, 2.0):
            direct = 2 * ((1 + a * a) * stats.norm.sf(a) - a * stats.norm.pdf(a))
            assert efficiency_limits(0.64, 0.128, a).gamma_cap == pytest.approx(direct, rel=1e-12)

    def test_worst_case_risk_is_the_large_mean_limit(self):
        for a in (0.5, 1.0, 2.0):
            assert worst_case_risk(a) == pytest.approx(1 + a * a, rel=1e-9)

    def test_minimax_risk_values(self):
        assert minimax_risk(0.128) == pytest.approx(0.3866, abs=5e-4)
        assert minimax_risk(1e-4) < 0.01
        assert minimax_risk(0.05) < minimax_risk(0.128) < minimax_risk(0.3)

    def test_light_tail_limit(self):
        lim = efficiency_limits(0.64, 0.128, 2.0)
        m = minimax_risk(0.128)
        assert lim.ls_light_limit == pytest.approx(1.0 / (1.0 - m / 0.64), rel=1e-9)
        assert math.isinf(efficiency_limits(0.3, 0.128, 2.0).ls_light_limit)
        assert lim.lad_heavy_ratio == pytest.approx(lim.gamma_cap / 0.64, rel=1e-12)

    def test_information_floor(self):
        assert info_lower_bound(0.64, 0.128, 5.0) == pytest.approx(0.05)
        assert math.isinf(info_lower_bound(0.5, 0.6, 1.0))
        with pytest.raises(ValueError):
            info_lower_bound(0.64, 0.128, 0.0)

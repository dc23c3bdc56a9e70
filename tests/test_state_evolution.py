import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats
from scipy.optimize import brentq

from prior_sampling import amse_monte_carlo, sample_prior
from ramp import state_evolution
from ramp.calibration import CalibrationTarget, calibrate
from ramp.gauss import soft_threshold_risk
from ramp.losses import absolute, effective_score, effective_score_deriv, huber, least_squares, quantile, \
    score_shape, soft_threshold
from ramp.solver import lambda_of_theta
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
    efficiency_limits,
    info_lower_bound,
    pm_one_prior,
    score_moments,
    se_fixed_point,
    slope_curve,
    se_sigma_update,
    se_tau_update,
    tune_alpha,
)


def scipy_law(noise):
    """The scipy.stats law matching one of the quadrature noise laws."""
    if isinstance(noise, Laplace):
        return stats.laplace(scale=noise.scale)
    if isinstance(noise, StudentT):
        return stats.t(noise.df, scale=noise.scale)
    return stats.cauchy(scale=noise.scale)


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
        x = sample_prior(prior, rng, 100_000)
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
        # ppf feeds the quadrature nodes; the reference is the scipy law
        u = np.linspace(0.01, 0.99, 25)
        for noise in (Laplace(1.3), StudentT(4.0), Cauchy(0.7)):
            ref = scipy_law(noise)
            assert_allclose(noise.ppf(u), ref.ppf(u), rtol=1e-9, atol=1e-9)
            assert_allclose(ref.cdf(noise.ppf(u)), u, atol=1e-9)

    def test_student_t_ppf_is_scipy_bit_for_bit(self):
        # the quadrature nodes and random u give the bits of scipy.stats
        x, _ = state_evolution.legendre_nodes_01(220)
        u = np.concatenate([0.5 * x, 0.5 + 0.5 * x,
                            np.random.default_rng(5).uniform(size=20_000)])
        for df in (1.5, 3.0, 4.0, 8.0, 30.0):
            for scale in (1.0, 0.7):
                got = StudentT(df, scale).ppf(u)
                assert same_bits(got, stats.t.ppf(u, df, scale=scale))

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
        # on w, integrated adaptively against the scipy noise density
        from scipy.integrate import quad

        pdf = scipy_law(noise).pdf
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
            return deriv_scale * window_moments(w)[0] * float(pdf(w))

        def sq_at(w):
            p, m2, p_below, p_above = window_moments(w)
            return (sq_scale * m2 + below_sq * p_below + above_sq * p_above) * float(pdf(w))

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
        # hand-rolled sampler, independent of the quadrature; 4 standard
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

    def test_conditional_moments_match_truncated_route(self):
        # p_below by norm_cdf gives the same bits as a truncated_moments
        # call over (-inf, lo]; at s = 0 the point mass gives
        # c^2 clip(mu, lo, hi)^2 = Phi(mu)^2. The window
        # (lo, hi] = (kappa + b)(e_lo, e_hi] comes from losses.
        mu = state_evolution._noise_nodes(Laplace(1.0))[0]
        for loss, b in ((absolute(), 0.7), (quantile(0.3), 1.9), (huber(1.0), 0.4)):
            kappa, e_lo, e_hi = score_shape(loss)
            lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
            c = b / (kappa + b)
            for s in (0.6, 0.0):
                p, clip_sq = state_evolution._conditional_moments(lo, hi, mu, s)
                p_in, _, m2_in = state_evolution.truncated_moments(mu, s, lo, hi)
                p_below, _, _ = state_evolution.truncated_moments(mu, s, -np.inf, lo)
                p_above = np.maximum(1.0 - p_in - p_below, 0.0)
                np.testing.assert_array_equal(p, p_in)
                np.testing.assert_array_equal(
                    clip_sq, m2_in + hi * hi * p_above + lo * lo * p_below)
                if s == 0.0:
                    phi = effective_score(loss, mu, b)
                    assert_allclose(c * c * clip_sq, phi * phi, rtol=1e-15)

    def test_least_squares_infinite_variance_rejected(self):
        with pytest.raises(ValueError):
            score_moments(least_squares(), 0.3, Cauchy(1.0), 0.5)


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
        # the far-off starts stand for an extrapolated b that lands badly
        for sigma_sq, slope, start in ((0.5, 0.2, None), (0.05, 0.2, 3.0), (2.0, 0.6, 0.01),
                                       (0.0, 0.2, None), (0.0, 0.6, 3.0),
                                       (0.5, 0.2, 1e-9), (0.5, 0.2, 1e9),
                                       (2.0, 0.6, 1e-9), (2.0, 0.6, 1e9)):
            sigma = math.sqrt(sigma_sq)
            ref = 10.0 ** brentq(lambda e: score_moments(loss, 10.0 ** e, noise, sigma)[0] - slope,
                                 -12.0, 12.0, xtol=1e-14)
            _, b = se_tau_update(sigma_sq, dist, loss, slope, b_start=start)
            assert b == pytest.approx(ref, rel=1e-12)

    def test_warm_started_fixed_point_evaluations(self, monkeypatch):
        calls = count_calls(monkeypatch)
        dist = DistributionModel(pm_one_prior(0.128), Laplace(1.0))
        res = se_fixed_point(dist, absolute(), 0.64, alpha=2.0)
        assert res.converged
        assert calls["se_tau_update"] == res.iterations + 1
        # 23 evaluations over 6 updates, the first from b = 1
        evals = calls["slope_curve"] + calls["score_moments"]
        assert evals / calls["se_tau_update"] <= 4

    def test_se_tune_cells_evaluation_count(self, monkeypatch):
        # the 12 cells of the benchmark's se_tune workload on its base grid
        # take 1147 slope evaluations over 520 tau updates
        calls = count_calls(monkeypatch)
        prior = pm_one_prior(0.128)
        for noise in (Normal(0.2), Laplace(1.0), StudentT(4.0), Cauchy(1.0)):
            for loss in (huber(1.0), absolute(), quantile(0.7)):
                tune_alpha(DistributionModel(prior, noise), loss, 0.64,
                           alpha_grid=(1.0, 1.4, 1.8, 2.2, 2.6, 3.0))
        assert calls["slope_curve"] <= 1250
        assert calls["score_moments"] == calls["se_tau_update"]


def count_calls(monkeypatch):
    """Count the calls of se_tau_update, slope_curve and score_moments made
    through the state_evolution module."""
    calls = {}
    for name in ("se_tau_update", "slope_curve", "score_moments"):
        original = getattr(state_evolution, name)
        calls[name] = 0

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(state_evolution, name, wrapper)
    return calls


class TestPredictedB:
    """Newton's start for the next tau update, extrapolated through the rows."""

    @staticmethod
    def rows(*points):
        return [(t, x, 0.5, b, 1.0) for t, (x, b) in enumerate(points)]

    def test_quadratic_through_three_rows_is_exact(self):
        def quad(x):
            return 0.3 + 2.0 * x - 1.5 * x * x

        rows = self.rows((0.9, 7.0), *((x, quad(x)) for x in (0.4, 0.3, 0.25)))
        b = state_evolution._predicted_b(rows, 0.22)
        assert b == pytest.approx(quad(0.22), rel=1e-14)

    def test_line_through_two_rows(self):
        rows = self.rows((0.4, 1.0), (0.3, 0.8))
        assert state_evolution._predicted_b(rows, 0.25) == pytest.approx(0.7, rel=1e-14)

    def test_one_row_gives_its_b(self):
        assert state_evolution._predicted_b(self.rows((0.4, 1.3)), 0.25) == 1.3

    def test_repeated_sigma_sq_gives_last_b(self):
        rows = self.rows((0.4, 1.0), (0.3, 0.9), (0.3, 0.8))
        assert state_evolution._predicted_b(rows, 0.25) == 0.8

    def test_nonpositive_extrapolation_gives_last_b(self):
        # the line through these rows reads -0.1 at sigma_sq = 0.1
        rows = self.rows((0.4, 1.0), (0.3, 0.55))
        assert state_evolution._predicted_b(rows, 0.1) == 0.55

    def test_nonfinite_extrapolation_gives_last_b(self):
        rows = self.rows((0.4, 1.0), (0.3, 0.8))
        assert state_evolution._predicted_b(rows, math.inf) == 0.8

    def test_init_tau_sq_start_gives_none(self):
        rows = [(0, math.nan, 0.1, math.nan, 0.2)]
        assert state_evolution._predicted_b(rows, 0.3) is None

    def test_init_tau_sq_start_skips_its_row(self):
        rows = [(0, math.nan, 0.1, math.nan, 0.2)] + self.rows((0.4, 1.0), (0.3, 0.8))[:1]
        assert state_evolution._predicted_b(rows, 0.3) == 1.0


class TestNormalIsOneComponentMixture:
    """Normal noise runs the mixture's exact path, so it must give the bits
    of its one-component twin; a separate normal branch could drift."""

    @pytest.mark.parametrize("v", [0.2, 1.0])
    def test_moments_and_slope_equal_bit_for_bit(self, v):
        normal, twin = Normal(v), NormalMixture(((1.0, v),))
        for loss in (least_squares(), huber(1.0), absolute(), quantile(0.7)):
            finite_window = math.isfinite(score_shape(loss).e_hi)
            for b in (0.1, 0.7, 3.0):
                for sigma in (0.0, 0.3, 1.2):
                    assert (score_moments(loss, b, normal, sigma)
                            == score_moments(loss, b, twin, sigma))
                    if finite_window:
                        assert (slope_curve(loss, b, normal, sigma)
                                == slope_curve(loss, b, twin, sigma))

    def test_tuned_rows_equal(self):
        prior = pm_one_prior(0.128)
        normal = tune_alpha(DistributionModel(prior, Normal(0.2)), absolute(), 0.64)
        twin = tune_alpha(DistributionModel(prior, NormalMixture(((1.0, 0.2),))),
                          absolute(), 0.64)
        assert normal.result.rows == twin.result.rows


# The edge terms written as plain expressions, one edge and one call at a
# time: the formulas the stacked, in-place pass must reproduce bit for bit.
SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def plain_cdf(x):
    return 0.5 * special.erfc(-x / SQRT2)


def plain_pdf(x):
    return INV_SQRT_2PI * np.exp(-0.5 * x * x)


def plain_moments(lo, hi, mu, s):
    a, c = (lo - mu) / s, (hi - mu) / s
    cdf_a, cdf_c, pdf_a, pdf_c = plain_cdf(a), plain_cdf(c), plain_pdf(a), plain_pdf(c)
    p_in = cdf_c - cdf_a
    m2_in = ((mu * mu + s * s) * p_in + 2.0 * mu * s * (pdf_a - pdf_c)
             + s * s * (a * pdf_a - c * pdf_c))
    p_above = np.maximum(1.0 - p_in - cdf_a, 0.0)
    return p_in, m2_in + hi * hi * p_above + lo * lo * cdf_a


def plain_slope(lo, hi, rate_lo, rate_hi, mu, s):
    a, c = (lo - mu) / s, (hi - mu) / s
    return (plain_cdf(c) - plain_cdf(a),
            (rate_hi / s) * plain_pdf(c) - (rate_lo / s) * plain_pdf(a))


def plain_risk(m, alpha):
    a, b = alpha - m, -alpha - m
    cdf_a, cdf_b = plain_cdf(a), plain_cdf(b)
    return ((1.0 + alpha * alpha) * ((1.0 - cdf_a) + cdf_b)
            + m * m * (cdf_a - cdf_b)
            - (alpha + m) * plain_pdf(a)
            - (alpha - m) * plain_pdf(b))


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


BIT_NOISES = (Normal(0.2), NormalMixture(((0.9, 0.1), (0.1, 5.0))), Laplace(1.0),
              StudentT(4.0), Cauchy(1.0))
BIT_LOSSES = (huber(1.0), huber(0.5), absolute(), quantile(0.7), quantile(0.3))


class TestEdgeTermsBitIdentity:
    """The stacked, in-place edge pass gives the bits of the plain formulas."""

    def test_window_edges_on_nodes_and_random_edges(self):
        rng = np.random.default_rng(7)
        cases = [(mu, lo, hi, s)
                 for mu in [state_evolution._noise_nodes(noise)[0]
                            for noise in (Laplace(1.0), StudentT(4.0), Cauchy(1.0))] + [0.0]
                 for lo, hi in ((-1.4, 1.4), (-0.3, 0.7), (-5.0, 2.5))
                 for s in (1e-3, 0.3, 1.0, 20.0)]
        cases += [(rng.normal(0.0, 3.0, 440), -abs(rng.normal(0.0, 2.0)),
                   abs(rng.normal(0.0, 2.0)), rng.uniform(0.05, 2.0)) for _ in range(20)]
        for mu, lo, hi, s in cases:
            e, cdf, pdf = state_evolution._window_edges(lo, hi, mu, s)
            for row, edge in enumerate((lo, hi)):
                x = (edge - mu) / s
                assert same_bits(e[row], x)
                assert same_bits(cdf[row], plain_cdf(x))
                assert same_bits(pdf[row], plain_pdf(x))

    @pytest.mark.parametrize("noise", BIT_NOISES)
    @pytest.mark.parametrize("loss", BIT_LOSSES)
    def test_score_moments_and_slope_curve(self, noise, loss):
        kappa, e_lo, e_hi = score_shape(loss)
        for b in (0.01, 0.3, 1.0, 4.0, 200.0):
            lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
            c = b / (kappa + b)
            for sigma in (1e-3, 0.3, 1.0, 30.0):
                p_in, clip_sq = state_evolution._noise_average(
                    lambda mu, s: plain_moments(lo, hi, mu, s), noise, sigma)
                assert same_bits(score_moments(loss, b, noise, sigma),
                                 (c * p_in, c * c * clip_sq))
                p_in, dp_in = state_evolution._noise_average(
                    lambda mu, s: plain_slope(lo, hi, e_lo, e_hi, mu, s), noise, sigma)
                assert same_bits(slope_curve(loss, b, noise, sigma),
                                 (c * p_in, kappa / (kappa + b) ** 2 * p_in + c * dp_in))

    def test_soft_threshold_risk(self):
        ms = (0.0, -3.0, 40.0, np.linspace(-60.0, 60.0, 481),
              np.random.default_rng(3).normal(0.0, 5.0, 200))
        for m in ms:
            for alpha in (0.0, 0.05, 0.7, 1.0, 2.0, 3.5, 12.0):
                assert same_bits(soft_threshold_risk(m, alpha),
                                 plain_risk(np.asarray(m, dtype=float), alpha))


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
        # the solver's finite-sample equation and SE's population equation
        # are one equation: the solver's exact calibration on a Monte Carlo
        # sample of W + sigma Z lies within four standard errors of SE's b,
        # the sd of the sample slope at b over the slope's derivative in b
        noise, sigma_sq, slope, n = Laplace(1.0), 0.5, 0.2, 200_000
        dist = DistributionModel(pm_one_prior(0.128), noise)
        sigma = math.sqrt(sigma_sq)
        rng = np.random.default_rng(3)
        sample = noise.sample(rng, n) + sigma * rng.standard_normal(n)
        b = calibrate(CalibrationTarget(slope, loss, sample))
        _, b_pop = se_tau_update(sigma_sq, dist, loss, slope)
        _, deriv = slope_curve(loss, b_pop, noise, sigma)
        scale = b_pop / (1.0 + b_pop) if loss.gamma is not None else 1.0
        p_in = slope / scale
        se = scale * math.sqrt(p_in * (1.0 - p_in) / n) / deriv
        assert abs(b - b_pop) <= 4.0 * se

    def test_slope_validation(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(1.0))
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                se_tau_update(0.5, dist, absolute(), bad)


class TestSigmaUpdate:
    def test_no_penalty_is_scaled_identity(self):
        # alpha = 0: the identity denoiser's risk is tau^2 under any prior
        dist = DistributionModel(pm_one_prior(1.0), Normal(1.0))
        assert se_sigma_update(0.7, 0.0, dist, 4.0) == pytest.approx(0.175)

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
        x0 = sample_prior(prior, rng, n)
        err = (soft_threshold(x0 + tau * rng.standard_normal(n), alpha * tau) - x0) ** 2
        se = err.std(ddof=1) / math.sqrt(n)
        assert abs(got - err.mean() / delta) < 3 * se / delta

    @pytest.mark.parametrize("prior", [
        pm_one_prior(0.128),
        SignalPrior(0.3, ((0.1, -2.0), (0.15, -0.4), (0.2, 0.5), (0.25, 1.0), (0.3, 3.0))),
    ])
    def test_prior_risk_is_the_atom_sum(self, prior):
        # one vectorized risk call gives the scalar per-atom sum bit for bit
        for tau in (1e-3, 0.05, 0.3, 1.0, 4.0, 50.0):
            for alpha in (0.0, 0.4, 1.2, 2.0, 3.5):
                total = 0.0
                for p, x0 in prior.full_atoms:
                    total += p * float(soft_threshold_risk(x0 / tau, alpha))
                assert state_evolution._prior_risk(prior, tau, alpha) == total

    def test_consistent_with_closed_form_amse(self):
        # same quantity through two different closed forms
        prior = pm_one_prior(0.2)
        dist = DistributionModel(prior, Normal(1.0))
        for tau_sq, alpha in ((0.1, 0.8), (0.5, 1.5), (2.0, 2.5)):
            delta = 0.64
            via_update = delta * se_sigma_update(tau_sq, alpha, dist, delta)
            via_amse = amse_closed_form(prior, math.sqrt(tau_sq), alpha)
            assert via_update == pytest.approx(via_amse, rel=1e-12)


def fixed_point_runs():
    """A converged run, one stopped by max_iter, one from init_tau_sq, one
    that diverges after 31 iterations and the least-squares-under-Cauchy
    gate, which diverges without iterating."""
    normal = DistributionModel(pm_one_prior(0.128), Normal(0.2))
    return {
        "converged": se_fixed_point(normal, absolute(), 0.64, 2.0),
        "max_iter": se_fixed_point(normal, absolute(), 0.64, 2.0,
                                   config=SeConfig(max_iter=3)),
        "init_tau_sq": se_fixed_point(normal, huber(1.0), 0.64, 2.0, init_tau_sq=0.1),
        "diverging": se_fixed_point(DistributionModel(pm_one_prior(0.25), Normal(0.2)),
                                    least_squares(), 0.3, 0.1),
        "gated": se_fixed_point(DistributionModel(pm_one_prior(0.128), Cauchy(1.0)),
                                least_squares(), 0.64, 2.0),
    }


class TestFixedPoint:
    def test_iterations_is_the_last_row_index(self):
        runs = fixed_point_runs()
        assert runs["converged"].converged and runs["init_tau_sq"].converged
        assert not runs["max_iter"].converged and not runs["max_iter"].diverged
        assert runs["diverging"].diverged
        for name in ("converged", "max_iter", "init_tau_sq", "diverging"):
            res = runs[name]
            assert res.iterations == res.rows[-1][0], name
        assert runs["max_iter"].iterations == 3
        assert runs["diverging"].iterations == 31
        gated = runs["gated"]
        assert gated.diverged and gated.rows == () and gated.iterations == 0

    def test_starred_values_are_the_last_row(self):
        for name, res in fixed_point_runs().items():
            starred = (res.sigma_star_sq, res.tau_star_sq, res.b_star, res.theta_star)
            if res.diverged:
                assert all(math.isnan(v) for v in starred), name
            else:
                assert starred == res.rows[-1][1:], name

    def test_no_penalty_least_squares_closed_form(self):
        for delta, sigma_w_sq in ((10.0, 0.2), (3.0, 2.0), (1.2, 0.2)):
            noise = Normal(sigma_w_sq) if sigma_w_sq != 2.0 else Laplace(1.0)
            res = se_fixed_point(DistributionModel(pm_one_prior(1.0), noise),
                                 least_squares(), delta, 0.0)
            assert res.converged and not res.diverged
            assert res.theta_star == 0.0
            assert res.amse == pytest.approx(sigma_w_sq * delta / (delta - 1), rel=1e-4)

    def test_no_penalty_needs_oversampling(self):
        # omega = 1 makes the slope 1/delta, which must lie below 1
        with pytest.raises(ValueError, match="slope"):
            se_fixed_point(DistributionModel(pm_one_prior(1.0), Normal(1.0)),
                           absolute(), 0.9, 0.0)

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

    def test_prior_and_alpha_validation(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(1.0))
        for bad in (-0.5, None, math.nan):
            with pytest.raises(ValueError, match="alpha must be nonnegative"):
                se_fixed_point(dist, absolute(), 0.64, alpha=bad)
        # no threshold fits every coordinate, so the slope is s/n only at s = p
        with pytest.raises(ValueError, match="needs omega = 1"):
            se_fixed_point(dist, absolute(), 0.64, alpha=0.0)
        with pytest.raises(ValueError):
            se_fixed_point(DistributionModel(None, Normal(1.0)), absolute(), 0.64, alpha=2.0)

    @pytest.mark.parametrize("init_tau_sq", (-1.0, math.inf, math.nan))
    def test_init_tau_sq_validation(self, init_tau_sq):
        # also before the least-squares divergence gate returns early
        for noise in (Normal(1.0), Cauchy(1.0)):
            dist = DistributionModel(pm_one_prior(0.128), noise)
            with pytest.raises(ValueError, match=f"got {init_tau_sq}"):
                se_fixed_point(dist, least_squares(), 0.64, alpha=2.0,
                               init_tau_sq=init_tau_sq)

    @pytest.mark.parametrize("tol", (0.0, -1e-6, math.nan))
    def test_config_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match=f"tol must be positive, got {tol}"):
            SeConfig(tol=tol)

    @pytest.mark.parametrize("max_iter", (0, -1))
    def test_config_max_iter_must_be_at_least_one(self, max_iter):
        with pytest.raises(ValueError, match=f"got {max_iter}"):
            SeConfig(max_iter=max_iter)


class TestAmse:
    def test_closed_form_matches_sampling(self):
        prior = pm_one_prior(0.128)
        for tau, alpha, seed in ((0.5, 1.5, 0), (1.2, 2.0, 1)):
            exact = amse_closed_form(prior, tau, alpha)
            est = amse_monte_carlo(prior, tau, alpha * tau, samples=400_000, seed=seed)
            assert abs(exact - est.value) < 3 * est.stderr

    def test_large_threshold_kills_everything(self):
        prior = pm_one_prior(0.128)
        value = amse_closed_form(prior, 0.5, 60.0)
        assert value == pytest.approx(prior.second_moment, rel=1e-10)

    def test_small_tau_recovers_signal(self):
        prior = pm_one_prior(0.128)
        assert amse_closed_form(prior, 1e-4, 2.0) < 1e-6

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
        theta = out.alpha_star * math.sqrt(out.result.tau_star_sq)
        lam = lambda_of_theta(theta, out.result.b_star, 0.64, 0.128)
        assert out.lambda_star == lam

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

    @pytest.mark.parametrize("noise,loss", [(Normal(0.2), huber(1.0)),
                                            (Cauchy(1.0), absolute())])
    def test_one_zero_start_per_grid(self, noise, loss, monkeypatch):
        # the zero start is the only tau update without a warm b_start;
        # tune_alpha makes it once, and every alpha's fixed point is the
        # one se_fixed_point reaches from its own zero start, bit for bit
        dist = DistributionModel(pm_one_prior(0.128), noise)
        grid = (1.0, 1.4, 1.8, 2.2, 2.6, 3.0)
        update = state_evolution.se_tau_update
        cold = []

        def counting(sigma_sq, dist, loss, slope, b_start=None):
            if b_start is None:
                cold.append(sigma_sq)
            return update(sigma_sq, dist, loss, slope, b_start=b_start)

        monkeypatch.setattr(state_evolution, "se_tau_update", counting)
        out = tune_alpha(dist, loss, 0.64, alpha_grid=grid)
        assert len(cold) == 1
        runs = [se_fixed_point(dist, loss, 0.64, a) for a in grid]
        assert len(cold) == 1 + len(grid)
        assert all(r.converged for r in runs)
        assert out.amse_values == tuple(r.amse for r in runs)
        best = runs[grid.index(out.alpha_star)]
        assert out.result.rows == best.rows
        assert out.result.b_star == best.b_star

    @pytest.mark.parametrize("noise,loss", [(Normal(0.2), absolute()),
                                            (Cauchy(1.0), least_squares())])
    def test_every_alpha_still_checked(self, noise, loss):
        # also where least squares is flagged diverged without a start
        dist = DistributionModel(pm_one_prior(0.128), noise)
        for grid in ((1.0, -0.5), (1.0, 0.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="alpha"):
                tune_alpha(dist, loss, 0.64, alpha_grid=grid)

    def test_empty_grid_raises(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(0.2))
        with pytest.raises(ValueError, match="empty"):
            tune_alpha(dist, absolute(), 0.64, alpha_grid=())


class TestLimitsAndBounds:
    def test_gamma_cap_against_direct_formula(self):
        for a in (0.5, 1.0, 1.5, 2.0):
            direct = 2 * ((1 + a * a) * stats.norm.sf(a) - a * stats.norm.pdf(a))
            assert efficiency_limits(0.64, a).gamma_cap == pytest.approx(direct, rel=1e-12)

    def test_worst_case_risk_is_the_large_mean_limit(self):
        # reference: a scan of the risk over signal means, which increases
        # with the mean and stays at or below 1 + alpha^2 up to rounding
        mu = np.linspace(0.0, 40.0, 2001)
        for a in (0.5, 1.0, 2.0):
            scan = soft_threshold_risk(mu, a)
            assert np.all(np.diff(scan) >= -1e-15)
            assert np.max(scan) == pytest.approx(1 + a * a, rel=1e-15)

    def test_light_tail_limit(self):
        lim = efficiency_limits(0.64, 2.0)
        assert lim.lad_heavy_ratio == pytest.approx(lim.gamma_cap / 0.64, rel=1e-12)

    def test_information_floor(self):
        assert info_lower_bound(0.64, 0.128, 5.0) == pytest.approx(0.05)
        assert math.isinf(info_lower_bound(0.5, 0.6, 1.0))
        with pytest.raises(ValueError):
            info_lower_bound(0.64, 0.128, 0.0)

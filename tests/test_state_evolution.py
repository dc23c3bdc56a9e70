import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats
from scipy.optimize import brentq

from helpers import count_calls
from prior_sampling import amse_monte_carlo, sample_prior
from ramp import state_evolution
from ramp.calibration import CalibrationTarget, calibrate
from ramp.gauss import norm_pdf, soft_threshold_risk
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


def law_density(noise):
    """The density of a quadrature noise law in closed form, on Python floats."""
    scale = noise.scale
    if isinstance(noise, Laplace):
        return lambda w: math.exp(-abs(w) / scale) / (2.0 * scale)
    if isinstance(noise, StudentT):
        nu = noise.df
        k = math.exp(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2))
        k /= math.sqrt(nu * math.pi) * scale
        return lambda w: k * (1.0 + (w / scale) ** 2 / nu) ** (-(nu + 1) / 2)
    return lambda w: 1.0 / (math.pi * scale * (1.0 + (w / scale) ** 2))


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
        x, _ = np.polynomial.legendre.leggauss(220)
        x = 0.5 * (x + 1.0)
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

    @pytest.mark.parametrize("make", [
        lambda x: Normal(x), lambda x: StudentT(x), lambda x: StudentT(4.0, x),
        lambda x: Laplace(x), lambda x: Cauchy(x),
        lambda x: NormalMixture(((0.5, x), (0.5, 1.0))),
        lambda x: NormalMixture(((x, 1.0),)),
    ], ids=["normal", "t_df", "t_scale", "laplace", "cauchy", "mixture_variance",
            "mixture_weight"])
    def test_nonfinite_parameters_rejected(self, make):
        # t(inf) is the standard normal, but a law built from an infinite
        # parameter would reach SE as a different one (variance inf)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                make(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            Normal(0.0)
        with pytest.raises(ValueError):
            Laplace(-1.0)
        with pytest.raises(ValueError):
            NormalMixture(((0.5, 1.0), (0.6, 1.0)))


class TestScoreMoments:
    def test_least_squares_reads_the_variance(self):
        # the infinite window needs no average over the law: a normal
        # mixture gives c^2 (variance + sigma^2) as a quadrature law does,
        # its derivative in b is 2 c dc/db (variance + sigma^2), and the
        # second derivatives are d2c/db2 and 2 (dc^2 + c d2c) (variance +
        # sigma^2)
        b, sigma = 0.4, 0.7
        c, dc, d2c = b / (1 + b), 1.0 / (1 + b) ** 2, -2.0 / (1 + b) ** 3
        for noise in (NormalMixture(((0.5, 0.3), (0.5, 1.0))),
                      NormalMixture(((0.9, 0.1), (0.1, 5.0))), Normal(0.2), Laplace(1.0)):
            m = noise.variance + sigma * sigma
            assert score_moments(least_squares(), b, noise, sigma) == (
                c, dc, c * c * m, 2.0 * c * dc * m, d2c, 2.0 * (dc * dc + c * d2c) * m)

    def test_least_squares_exact_for_any_noise(self):
        b, sigma = 0.4, 0.7
        c = b / (1 + b)
        for noise in (Normal(0.2), Laplace(1.0), StudentT(4.0),
                      NormalMixture(((0.5, 0.3), (0.5, 1.0)))):
            d, _, q = score_moments(least_squares(), b, noise, sigma)[:3]
            assert d == pytest.approx(c, rel=1e-12)
            assert q == pytest.approx(c * c * (noise.variance + sigma ** 2), rel=1e-10)

    def test_absolute_gaussian_closed_form(self):
        b, sigma = 0.8, 0.5
        s = math.sqrt(0.2 + sigma ** 2)
        p, m2 = gaussian_window_moments(s, -b, b)
        d, _, q = score_moments(absolute(), b, Normal(0.2), sigma)[:3]
        assert d == pytest.approx(p, rel=1e-10)
        assert q == pytest.approx(m2 + b * b * (1 - p), rel=1e-10)

    def test_huber_gaussian_closed_form(self):
        b, gamma, sigma = 0.3, 1.0, 0.6
        s = math.sqrt(0.2 + sigma ** 2)
        k = (1 + b) * gamma
        c = b / (1 + b)
        p, m2 = gaussian_window_moments(s, -k, k)
        d, _, q = score_moments(huber(gamma), b, Normal(0.2), sigma)[:3]
        assert d == pytest.approx(c * p, rel=1e-10)
        assert q == pytest.approx(c * c * m2 + (b * gamma) ** 2 * (1 - p), rel=1e-10)

    def test_quantile_gaussian_closed_form(self):
        b, tq, sigma = 1.1, 0.7, 0.4
        s = math.sqrt(1.0 + sigma ** 2)
        lo, hi = b * (tq - 1), b * tq
        p, m2 = gaussian_window_moments(s, lo, hi)
        p_above = stats.norm.sf(hi / s)
        p_below = stats.norm.cdf(lo / s)
        d, _, q = score_moments(quantile(tq), b, Normal(1.0), sigma)[:3]
        assert d == pytest.approx(p, rel=1e-10)
        assert q == pytest.approx(m2 + hi * hi * p_above + lo * lo * p_below, rel=1e-10)

    @pytest.mark.parametrize("loss", (huber(1.0), absolute(), quantile(0.7)))
    @pytest.mark.parametrize("noise", (Laplace(1.0), StudentT(4.0), Cauchy(1.0)))
    def test_quadrature_matches_adaptive_integration(self, noise, loss):
        # independent reference: the window pieces conditional on w, by
        # scipy's ndtr, integrated adaptively against the noise density on
        # each side of 0 (the nodes' panel edge and the Laplace kink); the
        # slope, E Phi^2 and their first and second derivatives in b from
        # one integrand. The slope's derivative is the weakest of the first
        # four on 440 nodes (8.5e-12 at Laplace, Huber, b = 3, sigma = 1);
        # the second derivatives, of sharper integrands, are within 1.5e-10
        # (E Phi^2's at Laplace, absolute, b = 1, sigma = 0.3).
        from scipy.integrate import quad

        density = law_density(noise)
        ws = (-40.0, -1.0, 0.0, 0.3, 7.5)
        assert_allclose([density(w) for w in ws], scipy_law(noise).pdf(ws), rtol=1e-13)
        kappa, e_lo, e_hi = score_shape(loss)
        for b in (0.3, 1.0, 3.0):
            lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
            c, dc = b / (kappa + b), kappa / (kappa + b) ** 2
            d2c = -2.0 * kappa / (kappa + b) ** 3
            for sigma in (0.3, 1.0):
                def pieces(w):
                    a, z = (lo - w) / sigma, (hi - w) / sigma
                    pdf_a, pdf_z = math_pdf(a), math_pdf(z)
                    below, above = special.ndtr(a), special.ndtr(-z)
                    p = special.ndtr(z) - below
                    m2 = ((w * w + sigma * sigma) * p + 2 * w * sigma * (pdf_a - pdf_z)
                          + sigma * sigma * (a * pdf_a - z * pdf_z))
                    return (p, (e_hi * pdf_z - e_lo * pdf_a) / sigma,
                            m2 + hi * hi * above + lo * lo * below,
                            2.0 * (hi * e_hi * above + lo * e_lo * below),
                            a * pdf_a, z * pdf_z, below, above, pdf_a / sigma, pdf_z / sigma)

                def integral(i):
                    return sum(quad(lambda w: pieces(w)[i] * density(w), x, y,
                                    epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                               for x, y in ((-np.inf, 0.0), (0.0, np.inf)))

                p, dp, sq, dsq, xf_lo, xf_hi, below, above, f_lo, f_hi = (
                    integral(i) for i in range(10))
                # the second derivatives from their terms' integrals: quad
                # warns of roundoff on the combined integrand of E Phi^2's,
                # a difference of nearly equal tail and edge terms
                d2p = (e_lo * e_lo * xf_lo - e_hi * e_hi * xf_hi) / sigma ** 2
                d2sq = 2.0 * (e_hi * e_hi * (above - hi * f_hi) + e_lo * e_lo * (below + lo * f_lo))
                got = score_moments(loss, b, noise, sigma)
                assert_allclose(got[:4], (c * p, dc * p + c * dp, c * c * sq,
                                          2.0 * c * dc * sq + c * c * dsq), rtol=1e-11, atol=0)
                assert_allclose(got[4:], (d2c * p + 2.0 * dc * dp + c * d2p,
                                          2.0 * (dc * dc + c * d2c) * sq + 4.0 * c * dc * dsq
                                          + c * c * d2sq), rtol=5e-10, atol=0)

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
        d, _, q = score_moments(loss, b, noise, sigma)[:3]
        assert abs(d - d_samples.mean()) < 4 * d_samples.std(ddof=1) / math.sqrt(n)
        assert abs(q - q_samples.mean()) < 4 * q_samples.std(ddof=1) / math.sqrt(n)

    def test_conditional_moments_match_truncated_route(self):
        # the window sums' masses and second moment give the bits of
        # truncated_moments calls over the window, (-inf, lo] and (hi, inf]:
        # for one normal component, on the windows the Laplace nodes shift
        # to mean 0, and summed over the nodes. The window
        # (lo, hi] = (kappa + b)(e_lo, e_hi] comes from losses.
        noise, s = Laplace(1.0), 0.6
        nodes, weights = state_evolution._noise_nodes(noise)[:2]
        for loss, b in ((absolute(), 0.7), (quantile(0.3), 1.9), (huber(1.0), 0.4)):
            kappa, e_lo, e_hi = score_shape(loss)
            lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
            p_in, _, m2_in = state_evolution.truncated_moments(nodes, s, lo, hi)
            below = state_evolution.truncated_moments(nodes, s, -np.inf, lo)[0]
            above = state_evolution.truncated_moments(nodes, s, hi, np.inf)[0]
            sums = state_evolution._node_sums(lo, hi, noise, s)
            a, c = (lo - nodes) / s, (hi - nodes) / s
            ref = np.array([p_in, m2_in, below, above, norm_pdf(a), norm_pdf(c),
                            a * norm_pdf(a), c * norm_pdf(c)])
            assert same_bits(sums, ref @ weights)
            for w in nodes.tolist():  # one float component at a time
                got = state_evolution._normal_sums(lo - w, hi - w, s)
                p0, _, m2 = state_evolution.truncated_moments(0.0, s, lo - w, hi - w)
                p_below = state_evolution.truncated_moments(0.0, s, -np.inf, lo - w)[0]
                assert same_bits(got[:3], (p0, m2, p_below))
                assert got[3] == float(special.erfc((hi - w) / s / SQRT2)) * 0.5

    @pytest.mark.parametrize("c", (6.5, 9.0, 12.0))
    def test_normal_upper_tail_keeps_relative_accuracy(self, c):
        # 1 - P - Phi(a) is 2.4e-7 relative off at c = 6.5 and reads 0 past
        # c = 8.7; the tail taken as erfc keeps every digit
        s = 0.7
        above = state_evolution._normal_sums(-2.0 * s, c * s, s)[3]
        assert above == pytest.approx(0.5 * special.erfc(c / SQRT2), rel=1e-15)

    def test_least_squares_infinite_variance_rejected(self):
        with pytest.raises(ValueError):
            score_moments(least_squares(), 0.3, Cauchy(1.0), 0.5)


SLOPE_NOISES = (Normal(0.2), NormalMixture(((0.7, 1.0), (0.3, 3.0))), Laplace(1.0),
                StudentT(4.0), Cauchy(1.0))
SLOPE_LOSSES = (huber(1.0), absolute(), quantile(0.7))


class TestSlopeCurve:
    """The slope of score_moments as a curve in b: its derivative, and the
    Newton root that the tau update finds on it."""

    @pytest.mark.parametrize("noise", SLOPE_NOISES)
    @pytest.mark.parametrize("loss", SLOPE_LOSSES)
    def test_derivative_matches_central_difference(self, noise, loss):
        sigma = 0.6
        for b in (0.05, 0.4, 1.5, 6.0):
            deriv = score_moments(loss, b, noise, sigma)[1]
            h = 1e-5 * b
            fd = (score_moments(loss, b + h, noise, sigma)[0]
                  - score_moments(loss, b - h, noise, sigma)[0]) / (2.0 * h)
            assert deriv > 0
            assert deriv == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("noise", SLOPE_NOISES)
    @pytest.mark.parametrize("loss", SLOPE_LOSSES)
    def test_second_moment_derivative_matches_central_difference(self, noise, loss):
        # the fourth value, d E Phi^2/db, against a central difference of
        # the third. The absolute term allows the difference quotient's
        # rounding, a few ulps of E Phi^2 over h: it matters only where the
        # window holds nearly all the mass and the derivative is near 0
        # (Normal(0.2), absolute, b = 6).
        sigma = 0.6
        for b in (0.05, 0.4, 1.5, 6.0):
            sq, deriv = score_moments(loss, b, noise, sigma)[2:4]
            h = 1e-5 * b
            fd = (score_moments(loss, b + h, noise, sigma)[2]
                  - score_moments(loss, b - h, noise, sigma)[2]) / (2.0 * h)
            assert deriv >= 0
            assert deriv == pytest.approx(fd, rel=1e-7, abs=100 * np.finfo(float).eps * sq / h)

    @pytest.mark.parametrize("noise", SLOPE_NOISES)
    @pytest.mark.parametrize("loss", SLOPE_LOSSES)
    def test_second_derivatives_match_central_difference(self, noise, loss):
        # the fifth and sixth values, d2 slope/db2 and d2 E Phi^2/db2,
        # against central differences of the second and fourth. h scales
        # with sigma too, so that the difference resolves the edge terms'
        # width. The absolute term allows the difference quotient's
        # rounding: a few ulps of the first derivative over h, which for
        # E Phi^2 reads its tail masses (Normal(0.2), absolute, b = 5,
        # where the window holds nearly all the mass).
        kappa, e_lo, e_hi = score_shape(loss)
        eps = np.finfo(float).eps
        for sigma in (0.05, 0.5, 3.6):
            for b in (0.05, 0.4, 1.5, 5.0):
                got = score_moments(loss, b, noise, sigma)
                h = 1e-4 * min(b, sigma)
                up = score_moments(loss, b + h, noise, sigma)
                down = score_moments(loss, b - h, noise, sigma)
                c, hi, lo = b / (kappa + b), (kappa + b) * e_hi, (kappa + b) * e_lo
                tails = 2.0 * c * c * (hi * e_hi + lo * e_lo)
                assert got[4] == pytest.approx((up[1] - down[1]) / (2.0 * h), rel=1e-6,
                                               abs=10 * eps * abs(got[1]) / h)
                assert got[5] == pytest.approx((up[3] - down[3]) / (2.0 * h), rel=1e-6,
                                               abs=10 * eps * tails / h)

    @pytest.mark.parametrize("noise", SLOPE_NOISES[2:])
    @pytest.mark.parametrize("loss", SLOPE_LOSSES)
    def test_small_sigma_meets_the_point_mass_limit(self, noise, loss):
        # as sigma -> 0 a quadrature law's v = W + sigma Z tends to point
        # masses at its nodes: P and M = E clip(v, lo, hi)^2 become sums
        # over the nodes, the edge densities vanish, and so the slope's
        # derivatives are c' P and c'' P (0 for the kinked losses, c = 1).
        # The density path must reach that limit down to the smallest
        # sigma that SE meets, sqrt(5e-324) from init_tau_sq = 5e-324, with
        # no 0/0 from dividing by s. At that sigma every node more than
        # about 3e-8 from an edge overflows the square in
        # gauss.norm_cdf_pdf, whose exp then reads 0, as it should.
        # E Phi^2's derivatives against central differences, where no edge
        # comes within h of a node.
        kappa, e_lo, e_hi = score_shape(loss)
        nodes, weights = state_evolution._noise_nodes(noise)[:2]
        for b in (0.05, 0.4, 1.5, 5.0):
            lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
            h = 1e-5 * b
            clearance = min(np.min(np.abs(nodes - lo)), np.min(np.abs(nodes - hi)))
            c, dc, d2c = b / (kappa + b), kappa / (kappa + b) ** 2, -2.0 * kappa / (kappa + b) ** 3
            p = weights[(nodes > lo) & (nodes <= hi)].sum()
            m = weights @ np.clip(nodes, lo, hi) ** 2
            for sigma in (1e-8, math.sqrt(5e-324)):
                assert clearance > h * max(abs(e_lo), e_hi) + 40.0 * sigma
                got = score_moments(loss, b, noise, sigma)
                up = score_moments(loss, b + h, noise, sigma)
                down = score_moments(loss, b - h, noise, sigma)
                assert all(math.isfinite(x) for x in got)
                assert got[0] == pytest.approx(c * p, rel=1e-14, abs=0)
                assert got[2] == pytest.approx(c * c * m, rel=1e-13, abs=0)
                assert got[1] == pytest.approx(dc * p, rel=1e-14, abs=0)
                assert got[4] == pytest.approx(d2c * p, rel=1e-14, abs=0)
                if kappa == 0.0:
                    assert got[1] == 0.0 and got[4] == 0.0
                assert got[3] == pytest.approx((up[2] - down[2]) / (2.0 * h), rel=1e-7)
                assert got[5] == pytest.approx((up[3] - down[3]) / (2.0 * h), rel=1e-6)

    def test_least_squares_second_moment_derivative(self):
        # the closed forms 2 c dc/db (variance + sigma^2), d2c/db2 and
        # 2 (dc^2 + c d2c) (variance + sigma^2) against central
        # differences, for every law with a finite variance
        for noise in SLOPE_NOISES[:4]:
            for sigma in (0.6, 0.0):
                for b in (0.05, 0.4, 1.5, 6.0):
                    got = score_moments(least_squares(), b, noise, sigma)
                    h = 1e-5 * b
                    up = score_moments(least_squares(), b + h, noise, sigma)
                    down = score_moments(least_squares(), b - h, noise, sigma)
                    assert got[3] == pytest.approx((up[2] - down[2]) / (2.0 * h), rel=1e-7)
                    assert got[4] == pytest.approx((up[1] - down[1]) / (2.0 * h), rel=1e-7)
                    assert got[5] == pytest.approx((up[3] - down[3]) / (2.0 * h), rel=1e-7)

    @pytest.mark.parametrize("noise", SLOPE_NOISES)
    @pytest.mark.parametrize("loss", SLOPE_LOSSES)
    @pytest.mark.filterwarnings("error")
    def test_newton_matches_bracketed_brent(self, noise, loss):
        # Brent's method on log10 b, on the slope of score_moments, is the
        # reference
        dist = DistributionModel(pm_one_prior(0.128), noise)
        # the far-off starts stand for an extrapolated b that lands badly
        for sigma_sq, slope, start in ((0.5, 0.2, None), (0.05, 0.2, 3.0), (2.0, 0.6, 0.01),
                                       (0.5, 0.2, 1e-9), (0.5, 0.2, 1e9),
                                       (2.0, 0.6, 1e-9), (2.0, 0.6, 1e9)):
            sigma = math.sqrt(sigma_sq)
            ref = 10.0 ** brentq(lambda e: score_moments(loss, 10.0 ** e, noise, sigma)[0] - slope,
                                 -12.0, 12.0, xtol=1e-14)
            tau_sq, b = se_tau_update(sigma_sq, dist, loss, slope, b_start=start)
            assert b == pytest.approx(ref, rel=1e-12)
            fresh_slope, fresh_deriv, fresh_sq = score_moments(loss, b, noise, sigma)[:3]
            # the last Halley step may skip the window pass and carry E Phi^2
            # to b to second order: the tau equation holds within 1e-13
            # relative against a fresh pass at b, and the slope equation
            # within the stop's 1e-13 on log10 b (the Newton step a fresh
            # pass at b would take)
            assert tau_sq == pytest.approx(fresh_sq / (slope * slope), rel=1e-13, abs=0)
            assert abs(fresh_slope - slope) <= 1e-13 * math.log(10.0) * b * fresh_deriv

    def test_warm_started_fixed_point_evaluations(self, monkeypatch):
        calls = count_calls(monkeypatch, state_evolution, "se_tau_update",
                            "score_moments")
        dist = DistributionModel(pm_one_prior(0.128), Laplace(1.0))
        res = se_fixed_point(dist, absolute(), 0.64, alpha=2.0)
        assert res.converged
        assert calls["se_tau_update"] == res.iterations + 1
        # 10 window passes over 6 updates, the first from b = 1 (13 when
        # Newton's last step went unevaluated only below 6.9e-8 on log10 b,
        # 17 when Newton evaluated its last step)
        assert calls["score_moments"] / calls["se_tau_update"] <= 4

    def test_se_tune_cells_evaluation_count(self, monkeypatch):
        # the 12 cells of the benchmark's se_tune workload on its base grid
        # take 601 window passes over 438 tau updates, every pass counted
        # (686 over 520 when the fixed point was iterated plainly to an
        # absolute 1e-6, 840 with Newton's steps and its last one
        # unevaluated only below 6.9e-8 on log10 b, 1157 when Newton
        # evaluated its last step)
        calls = count_calls(monkeypatch, state_evolution, "se_tau_update",
                            "score_moments")
        prior = pm_one_prior(0.128)
        for noise in (Normal(0.2), Laplace(1.0), StudentT(4.0), Cauchy(1.0)):
            for loss in (huber(1.0), absolute(), quantile(0.7)):
                tune_alpha(DistributionModel(prior, noise), loss, 0.64,
                           alpha_grid=(1.0, 1.4, 1.8, 2.2, 2.6, 3.0))
        assert calls["score_moments"] <= 615


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
            for b in (0.1, 0.7, 3.0):
                for sigma in (0.0, 0.3, 1.2):
                    assert (score_moments(loss, b, normal, sigma)
                            == score_moments(loss, b, twin, sigma))

    def test_tuned_rows_equal(self):
        prior = pm_one_prior(0.128)
        normal = tune_alpha(DistributionModel(prior, Normal(0.2)), absolute(), 0.64)
        twin = tune_alpha(DistributionModel(prior, NormalMixture(((1.0, 0.2),))),
                          absolute(), 0.64)
        assert normal.result.rows == twin.result.rows


# The window written as plain expressions, one edge and one call at a time:
# the formulas the kernel must reproduce bit for bit. plain_terms gives the
# eight window terms at each mean; summed by the quadrature weights, or by
# the mixture weights at mean 0, they are the window sums, and
# plain_moments turns sums (or each node's terms) into the six values.
SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def plain_cdf(x):
    return 0.5 * special.erfc(-x / SQRT2)


def plain_pdf(x):
    return INV_SQRT_2PI * np.exp(-0.5 * x * x)


def plain_terms(lo, hi, mu, s):
    """P, M_in, Phi(a), 1 - Phi(c), phi(a), phi(c), a phi(a), c phi(c) at mu."""
    a, c = (lo - mu) / s, (hi - mu) / s
    cdf_a, cdf_c, pdf_a, pdf_c = plain_cdf(a), plain_cdf(c), plain_pdf(a), plain_pdf(c)
    p_in = cdf_c - cdf_a
    m2_in = ((mu * mu + s * s) * p_in + 2.0 * mu * s * (pdf_a - pdf_c)
             + s * s * (a * pdf_a - c * pdf_c))
    return np.array([p_in, m2_in, cdf_a, 1.0 - cdf_c, pdf_a, pdf_c, a * pdf_a, c * pdf_c])


def plain_component(lo, hi, s):
    """The terms of one normal component at mean 0, as floats: the mass above
    is erfc(c/sqrt 2)/2, and the density terms are divided by s and s^2."""
    p_in, m2_in, cdf_a, _, pdf_a, pdf_c, xf_a, xf_c = plain_terms(lo, hi, np.float64(0.0), s)
    return [float(x) for x in (p_in, m2_in, cdf_a, 0.5 * special.erfc(hi / s / SQRT2),
                               pdf_a / s, pdf_c / s, xf_a / (s * s), xf_c / (s * s))]


def plain_moments(sums, s, lo, hi, rate_lo, rate_hi):
    """(P, P', M, M', P'', M'') from the eight sums, density terms over s."""
    p_in, m2_in, below, above, f_lo, f_hi, xf_lo, xf_hi = sums
    return (p_in, (rate_hi * f_hi - rate_lo * f_lo) / s, m2_in + hi * hi * above + lo * lo * below,
            2.0 * (hi * rate_hi * above + lo * rate_lo * below),
            (rate_lo * rate_lo * xf_lo - rate_hi * rate_hi * xf_hi) / (s * s),
            2.0 * (rate_hi * rate_hi * (above - hi * f_hi / s)
                   + rate_lo * rate_lo * (below + lo * f_lo / s)))


def plain_risk(m, alpha, cdf=plain_cdf, pdf=plain_pdf):
    a, b = alpha - m, -alpha - m
    cdf_a, cdf_b = cdf(a), cdf(b)
    return ((1.0 + alpha * alpha) * ((1.0 - cdf_a) + cdf_b)
            + m * m * (cdf_a - cdf_b)
            - (alpha + m) * pdf(a)
            - (alpha - m) * pdf(b))


def math_cdf(x):
    return 0.5 * math.erfc(-x / SQRT2)


def math_pdf(x):
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# the last mixture's wide component has a variance far above sigma^2: a
# window sits near its center while its edges lie far in the narrow one's tails
BIT_NOISES = (Normal(0.2), NormalMixture(((0.9, 0.1), (0.1, 5.0))), Laplace(1.0),
              StudentT(4.0), Cauchy(1.0), NormalMixture(((0.95, 1e-4), (0.05, 400.0))))
BIT_LOSSES = (huber(1.0), huber(0.5), absolute(), quantile(0.7), quantile(0.3))


@dataclass(frozen=True)
class NodeTable:
    """A law whose 440 quadrature nodes are given, in order."""

    nodes: tuple

    def ppf(self, u):
        return np.array(self.nodes)


class TestEdgeTermsBitIdentity:
    """The stacked, in-place window pass gives the bits of the plain formulas."""

    def test_window_edges_on_nodes_and_random_edges(self):
        # the node sums, on the heavy-tailed laws' nodes and on random nodes,
        # and one normal component's sums, against the plain terms
        rng = np.random.default_rng(7)
        laws = [Laplace(1.0), StudentT(4.0), Cauchy(1.0)]
        cases = [(noise, lo, hi, s) for noise in laws + [None]
                 for lo, hi in ((-1.4, 1.4), (-0.3, 0.7), (-5.0, 2.5))
                 for s in (1e-3, 0.3, 1.0, 20.0)]
        cases += [(NodeTable(tuple(rng.normal(0.0, 3.0, 440).tolist())),
                   -abs(rng.normal(0.0, 2.0)), abs(rng.normal(0.0, 2.0)),
                   rng.uniform(0.05, 2.0)) for _ in range(20)]
        for noise, lo, hi, s in cases:
            if noise is None:
                assert same_bits(state_evolution._normal_sums(lo, hi, s),
                                 plain_component(lo, hi, s))
                continue
            nodes, weights = state_evolution._noise_nodes(noise)[:2]
            assert same_bits(state_evolution._node_sums(lo, hi, noise, s),
                             plain_terms(lo, hi, nodes, s) @ weights)

    @pytest.mark.parametrize("noise", BIT_NOISES)
    @pytest.mark.parametrize("loss", BIT_LOSSES)
    def test_score_moments_and_slope_curve(self, noise, loss):
        # all six outputs of the one window pass: the slope, E Phi^2 and
        # their first and second derivatives in b. A normal mixture gives
        # the bits of its components' plain terms summed by weight. A
        # quadrature law gives the bits of the plain terms summed by the
        # node weights, and agrees with each node's six values averaged
        # entry by entry within 1e-14 relative; the derivative of E Phi^2
        # within that or a few roundings of its tail masses, which is larger
        # where the window holds nearly all the mass.
        kappa, e_lo, e_hi = score_shape(loss)
        quadrature = not hasattr(noise, "components")
        for b in (0.01, 0.3, 1.0, 4.0, 200.0):
            lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
            c, dc = b / (kappa + b), kappa / (kappa + b) ** 2
            d2c = -2.0 * kappa / (kappa + b) ** 3

            def moments(p_in, dp_in, clip_sq, dclip_sq, d2p_in, d2clip_sq):
                return (c * p_in, dc * p_in + c * dp_in, c * c * clip_sq,
                        2.0 * c * dc * clip_sq + c * c * dclip_sq,
                        d2c * p_in + 2.0 * dc * dp_in + c * d2p_in,
                        2.0 * (dc * dc + c * d2c) * clip_sq + 4.0 * c * dc * dclip_sq
                        + c * c * d2clip_sq)

            for sigma in (1e-3, 0.3, 1.0, 30.0):
                got = score_moments(loss, b, noise, sigma)
                if not quadrature:
                    sums = [0.0] * 8
                    for w, v in noise.components:
                        sums = [t + w * x for t, x in
                                zip(sums, plain_component(lo, hi, math.sqrt(v + sigma * sigma)))]
                    assert same_bits(got, moments(*plain_moments(sums, 1.0, lo, hi, e_lo, e_hi)))
                    continue
                nodes, weights = state_evolution._noise_nodes(noise)[:2]
                terms = plain_terms(lo, hi, nodes, sigma)
                assert same_bits(got, moments(*plain_moments(
                    (terms @ weights).tolist(), sigma, lo, hi, e_lo, e_hi)))
                per_node = moments(*(float(weights @ x) for x in plain_moments(
                    terms, sigma, lo, hi, e_lo, e_hi)))
                assert_allclose(got[:3], per_node[:3], rtol=1e-14, atol=0)
                tails = 2.0 * c * c * (hi * e_hi + lo * e_lo)
                assert_allclose(got[3], per_node[3], rtol=1e-14,
                                atol=tails * np.finfo(float).eps)
                # the second derivatives add terms that nearly cancel on a
                # wide normal part (c''P + 2c'P' + cP'' on Huber at
                # sigma = 30, 4.2e-12 apart), and that of E Phi^2 reads the
                # same tail masses as the first
                assert_allclose(got[4], per_node[4], rtol=1e-11, atol=0)
                tails = 2.0 * c * c * (e_hi * e_hi + e_lo * e_lo)
                assert_allclose(got[5], per_node[5], rtol=1e-11,
                                atol=tails * np.finfo(float).eps)

    def test_float_window_on_random_windows(self):
        # one normal component's sums are Python floats with the bits of the
        # plain formulas on numpy scalars. The standardized edges reach past
        # 8.3, where Phi rounds to exactly 1, and past 38.6, where phi
        # underflows to 0 (and Phi below -38.5); s runs from 1e-3 to 30, and
        # mu shifts the window off center
        rng = np.random.default_rng(29)
        zs = (0.0, 0.4, 2.0, 8.4, 12.0, 38.7, 45.0, 1e3)
        cases = [(a, c, s, mu) for a in zs for c in zs
                 for s in (1e-3, 0.3, 30.0) for mu in (0.0, -0.7 * s)]
        cases += [(float(rng.choice(zs) * rng.uniform(0.9, 1.1)),
                   float(rng.choice(zs) * rng.uniform(0.9, 1.1)),
                   float(10.0 ** rng.uniform(-3.0, 1.5)), float(rng.normal(0.0, 2.0)))
                  for _ in range(2000)]
        for a, c, s, mu in cases:
            lo, hi = mu - a * s, mu + c * s
            if not lo < hi:
                continue
            got = state_evolution._normal_sums(lo, hi, s)
            assert all(type(x) is float for x in got)
            assert same_bits(got, plain_component(lo, hi, s))

    def test_cached_nodes_are_read_only(self):
        # every caller shares the cached node arrays, so a write raises and
        # leaves the moments' bits as they were
        noise = StudentT(4.0)
        before = score_moments(absolute(), 0.7, noise, 0.5)
        for arr in state_evolution._noise_nodes(noise):
            with pytest.raises(ValueError):
                arr *= 2.0
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert same_bits(score_moments(absolute(), 0.7, noise, 0.5), before)

    def test_soft_threshold_risk_far_means(self):
        # past |m| of about 1.34e154 m^2 overflows, but both cdfs are equal
        # there and the m^2 term is 0: the risk is its limit 1 + alpha^2
        for m in (1.4e154, -1.4e154, 1e300, -1e300):
            for alpha in (0.0, 0.5, 2.0, 12.0):
                assert soft_threshold_risk(m, alpha) == 1.0 + alpha * alpha

    def test_soft_threshold_risk(self):
        # the plain formula in math's erfc and exp gives the bits; numpy's
        # exp and scipy's erfc round differently, so the numpy form agrees
        # within a relative bound
        ms = (0.0, -3.0, 40.0, np.linspace(-60.0, 60.0, 481),
              np.random.default_rng(3).normal(0.0, 5.0, 200))
        for m in np.concatenate([np.ravel(x) for x in ms]).tolist():
            for alpha in (0.0, 0.05, 0.7, 1.0, 2.0, 3.5, 12.0):
                got = soft_threshold_risk(m, alpha)
                assert same_bits(got, plain_risk(m, alpha, math_cdf, math_pdf))
                ref = plain_risk(np.float64(m), alpha)
                assert abs(got - ref) <= 1e-14 * abs(ref)


class TestTauUpdate:
    def test_least_squares_identities(self):
        slope = 0.2
        for noise in (Normal(0.2), Laplace(1.0), StudentT(8.0)):
            dist = DistributionModel(pm_one_prior(0.128), noise)
            for sigma_sq in (0.3, 2.0):
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
        deriv = score_moments(loss, b_pop, noise, sigma)[1]
        scale = b_pop / (1.0 + b_pop) if loss.gamma is not None else 1.0
        p_in = slope / scale
        se = scale * math.sqrt(p_in * (1.0 - p_in) / n) / deriv
        assert abs(b - b_pop) <= 4.0 * se

    def test_slope_validation(self):
        dist = DistributionModel(pm_one_prior(0.128), Normal(1.0))
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                se_tau_update(0.5, dist, absolute(), bad)

    @pytest.mark.parametrize("sigma_sq", (-1e-3, 0.0, math.inf, math.nan))
    def test_sigma_sq_validation(self, sigma_sq):
        for noise in (Normal(1.0), Laplace(1.0)):
            dist = DistributionModel(pm_one_prior(0.128), noise)
            for loss in (absolute(), least_squares()):
                with pytest.raises(ValueError, match=f"sigma_sq must be finite and "
                                                     f"positive, got {sigma_sq}"):
                    se_tau_update(sigma_sq, dist, loss, 0.2)


class TestSigmaUpdate:
    def test_no_penalty_is_scaled_identity(self):
        # alpha = 0: the identity denoiser's risk is tau^2 under any prior
        dist = DistributionModel(pm_one_prior(1.0), Normal(1.0))
        assert se_sigma_update(0.7, 0.0, dist, 4.0) == pytest.approx(0.175)

    def test_zero_tau(self):
        dist = DistributionModel(pm_one_prior(0.2), Normal(1.0))
        assert se_sigma_update(0.0, 1.5, dist, 2.0) == 0.0

    @pytest.mark.parametrize("prior", [
        pm_one_prior(0.128),
        pm_one_prior(1.0),
        SignalPrior(0.3, ((0.1, -2.0), (0.15, -0.4), (0.2, 0.5), (0.25, 1.0), (0.3, 3.0))),
    ])
    def test_one_risk_call_per_atom(self, prior, monkeypatch):
        calls = count_calls(monkeypatch, state_evolution, "soft_threshold_risk")
        se_sigma_update(0.4, 1.5, DistributionModel(prior, Normal(0.2)), 0.64)
        assert calls["soft_threshold_risk"] == len(prior.full_atoms)

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
        # the p-weighted scalar risks of the atoms, summed in the prior's order
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
        for delta, sigma_w_sq in ((10.0, 0.2), (3.0, 2.0), (1.2, 0.2), (1.4, 0.2)):
            noise = Normal(sigma_w_sq) if sigma_w_sq != 2.0 else Laplace(1.0)
            res = se_fixed_point(DistributionModel(pm_one_prior(1.0), noise),
                                 least_squares(), delta, 0.0)
            assert res.converged and not res.diverged
            assert res.theta_star == 0.0
            assert res.amse == pytest.approx(sigma_w_sq * delta / (delta - 1), rel=1e-12)
            assert res.tau_star_sq == pytest.approx(sigma_w_sq / (1 - 1 / delta), rel=1e-12)

    @pytest.mark.parametrize("noise,prior,delta,alpha", [
        (Laplace(1.0), pm_one_prior(1.0), 1.2, 0.0),
        (StudentT(3.0, 0.1), pm_one_prior(0.128), 0.64, 0.5),
    ])
    def test_root_matches_brent(self, noise, prior, delta, alpha):
        # the secant root against Brent's method on T(tau_sq) - tau_sq, T
        # the sigma update followed by the tau update
        dist = DistributionModel(prior, noise)
        slope = prior.omega / delta

        def excess(tau_sq):
            sigma_sq = se_sigma_update(tau_sq, alpha, dist, delta)
            return se_tau_update(sigma_sq, dist, absolute(), slope)[0] - tau_sq

        res = se_fixed_point(dist, absolute(), delta, alpha)
        assert res.converged and not res.diverged
        ref = brentq(excess, 0.5 * res.tau_star_sq, 2.0 * res.tau_star_sq, xtol=1e-15)
        assert res.tau_star_sq == pytest.approx(ref, rel=1e-12)

    def test_final_plain_step_is_within_tol(self):
        # a converged run ends with one plain step from the accepted root,
        # which moves tau_sq by at most tol of its value, and the last
        # row's sigma_sq is the sigma update of the row before
        prior = pm_one_prior(0.128)
        tol = SeConfig().tol
        for noise in (Normal(0.2), Laplace(1.0), StudentT(4.0), Cauchy(1.0)):
            losses = (huber(1.0), absolute(), quantile(0.7))
            if noise.variance < math.inf:
                losses += (least_squares(),)
            dist = DistributionModel(prior, noise)
            for loss in losses:
                for alpha in (1.0, 2.0, 3.0):
                    res = se_fixed_point(dist, loss, 0.64, alpha)
                    assert res.converged, (noise, loss, alpha)
                    last, prev = res.rows[-1][2], res.rows[-2][2]
                    assert abs(last - prev) <= tol * prev, (noise, loss, alpha)
                    assert res.sigma_star_sq == se_sigma_update(prev, alpha, dist, 0.64)

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
        assert res.converged
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
        for bad in (-0.5, None, math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha must be nonnegative"):
                se_fixed_point(dist, absolute(), 0.64, alpha=bad)
        # no threshold fits every coordinate, so the slope is s/n only at s = p
        with pytest.raises(ValueError, match="needs omega = 1"):
            se_fixed_point(dist, absolute(), 0.64, alpha=0.0)
        with pytest.raises(ValueError):
            se_fixed_point(DistributionModel(None, Normal(1.0)), absolute(), 0.64, alpha=2.0)

    @pytest.mark.parametrize("noise", (Normal(0.2), Laplace(1.0)))
    @pytest.mark.parametrize("loss", (least_squares(), huber(1.0), absolute()))
    @pytest.mark.filterwarnings("error")
    def test_smallest_init_tau_sq_reaches_the_default_fixed_point(self, noise, loss):
        # from tau_sq = 5e-324 the prior atoms sit near 1e162 sds out, where
        # the soft-threshold risk is 1 + alpha^2, and the first window's
        # edges lie past 1.3e154 residual sds, where phi is 0
        dist = DistributionModel(pm_one_prior(0.128), noise)
        tiny = se_fixed_point(dist, loss, 0.64, alpha=2.0, init_tau_sq=5e-324)
        default = se_fixed_point(dist, loss, 0.64, alpha=2.0)
        assert tiny.converged and not tiny.diverged
        assert abs(tiny.tau_star_sq - default.tau_star_sq) <= 1e-12 * default.tau_star_sq

    @pytest.mark.parametrize("noise", (Normal(0.2), Laplace(1.0)))
    @pytest.mark.parametrize("loss", (least_squares(), huber(1.0), absolute()))
    @pytest.mark.filterwarnings("error")
    def test_start_whose_sigma_update_underflows_is_rejected(self, noise, loss):
        # unpenalized at delta = 10 the sigma update is tau_sq/10, which
        # rounds 5e-324 to 0: the tau update rejects sigma_sq = 0 rather
        # than divide by it
        dist = DistributionModel(pm_one_prior(1.0), noise)
        with pytest.raises(ValueError, match="sigma_sq must be finite and positive, got 0.0"):
            se_fixed_point(dist, loss, 10.0, alpha=0.0, init_tau_sq=5e-324)

    @pytest.mark.parametrize("init_tau_sq", (-1.0, 0.0, math.inf, math.nan))
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

    def test_config_tol_must_be_finite(self):
        # an infinite tol would stop after one iteration as converged
        with pytest.raises(ValueError, match="tol must be finite, got inf"):
            SeConfig(tol=math.inf)


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
            scan = np.array([soft_threshold_risk(m, a) for m in mu.tolist()])
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

import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from helpers import count_calls
from ramp import calibration, state_evolution
from ramp.calibration import (
    CalibrationError,
    CalibrationTarget,
    calibrate,
    calibrate_nonsmooth,
    calibrate_smooth,
    kde,
    plugin_slope_curve,
    solve_increasing,
)
from ramp.experiments import convergence_study_spec, generate_instance
from ramp.losses import absolute, effective_score, effective_score_deriv, huber, least_squares, quantile, \
    score_shape, window_u
from ramp.state_evolution import DistributionModel, Laplace, pm_one_prior, se_tau_update


def bare(f, df):
    """A point of solve_increasing's (f, f', g, g', f'', g'') curve with no g
    riding along and f'' = 0."""
    return f, df, 0.0, 0.0, 0.0, 0.0


def smooth(b):
    """f = b/(1 + b) and g = b^2, with their true first and second derivatives."""
    return b / (1.0 + b), 1.0 / (1.0 + b) ** 2, b * b, 2.0 * b, -2.0 / (1.0 + b) ** 3, 2.0


# the longest step solve_increasing takes without evaluating, on log10 b
LAST_STEP = 0.5 * 1e-13 ** (1.0 / 3.0) / math.log(10.0)


def exact_lad_root(slope):
    """Root of Phi(b) - Phi(-b) - 2 b phi(b) = slope for N(0,1) residuals."""
    f = lambda b: stats.norm.cdf(b) - stats.norm.cdf(-b) - 2 * b * stats.norm.pdf(b) - slope
    return brentq(f, 1e-6, 50.0, xtol=1e-12)


def kinked_root(loss, slope):
    """Population root of P(z inside the score window) = slope for N(0,1)
    residuals, and the density of u (as in calibrate_nonsmooth) there."""
    if loss.family == "absolute":
        b = stats.norm.ppf(0.5 * (1.0 + slope))
        return b, 2.0 * stats.norm.pdf(b)
    t = loss.tau_q
    mass = lambda b: stats.norm.cdf(b * t) - stats.norm.cdf(b * (t - 1.0))
    b = brentq(lambda bb: mass(bb) - slope, 1e-9, 50.0, xtol=1e-14)
    return b, t * stats.norm.pdf(b * t) + (1.0 - t) * stats.norm.pdf(b * (t - 1.0))


class TestKde:
    def test_normal_density_at_zero(self):
        rng = np.random.default_rng(42)
        est = kde(rng.standard_normal(100_000))
        assert abs(est.eval(0.0) - 0.3989) < 0.02

    def test_uniform_density(self):
        rng = np.random.default_rng(42)
        est = kde(rng.uniform(0.0, 1.0, 100_000))
        assert abs(est.eval(0.5) - 1.0) < 0.05

    def test_two_point_symmetry(self):
        est = kde(np.array([-1.0, 1.0]), bandwidth_h=0.7)
        for a in (0.3, 0.9, 2.0):
            assert est.eval(a) == pytest.approx(est.eval(-a), rel=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal(5000)
        for method in ("kernel", "window"):
            est = kde(z, method=method)
            grid = np.linspace(-12.0, 12.0, 4001)
            mass = np.trapezoid(est.eval(grid), grid)
            assert abs(mass - 1.0) < 1e-2

    def test_silverman_regime_flags(self):
        rng = np.random.default_rng(42)
        est = kde(rng.standard_normal(1000))
        assert est.h_shrinks and est.nh_grows
        assert not est.degenerate

    def test_degenerate_sample_flagged(self):
        est = kde(np.zeros(50))
        assert est.degenerate

    def test_window_and_kernel_agree_on_gaussian(self):
        # both estimate phi(x); compare within 3 combined standard errors
        rng = np.random.default_rng(42)
        n = 100_000
        z = rng.standard_normal(n)
        kern = kde(z, method="kernel")
        wind = kde(z, method="window")
        h = kern.bandwidth_h
        eps = h / np.sqrt(n)
        for x in (0.0, 0.5, -0.5, 1.0):
            f = stats.norm.pdf(x)
            se_kernel = np.sqrt(f / (2 * np.sqrt(np.pi) * n * h))
            se_window = np.sqrt(f / (2 * n * eps))
            band = 3.0 * np.hypot(se_kernel, se_window)
            assert abs(kern.eval(x) - wind.eval(x)) < band

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            kde(np.array([1.0]))
        with pytest.raises(ValueError):
            kde(np.array([1.0, 2.0]), bandwidth_h=0.0)
        with pytest.raises(ValueError):
            kde(np.array([1.0, 2.0]), method="epanechnikov")


class TestSolveIncreasing:
    def test_step_map_returns_jump(self):
        # b/(1+b) times a step: Newton moves along the pieces, and the
        # bisection fallback finds the jump across the target, the shape
        # of the Huber slope at sigma = 0
        for jump in (2.5, 3e-7, 4e8):
            def curve(b):
                step = 0.3 if b < jump else 0.9
                return bare(step * b / (1.0 + b), step / (1.0 + b) ** 2)

            # at the jump the map steps from 0.3 c to 0.9 c, c = b/(1+b)
            b, _ = solve_increasing(curve, 0.6 * jump / (1.0 + jump))
            assert b == pytest.approx(jump, rel=1e-12)
            # 0.9 b/(1+b) = 0.6 at b = 2: the upper piece's root, or the
            # jump when the map has already stepped past 0.6 there
            b, _ = solve_increasing(curve, 0.6, start=jump)
            assert b == pytest.approx(max(2.0, jump), rel=1e-12)

    def test_newton_root(self):
        def curve(b):
            return bare(b / (1.0 + b), 1.0 / (1.0 + b) ** 2)

        for start in (None, 1e-9, 0.4, 1e9):
            b, _ = solve_increasing(curve, 0.3, start=start)
            assert b == pytest.approx(3.0 / 7.0, rel=1e-13)
        sqrt = lambda b: bare(np.sqrt(b), 0.5 / np.sqrt(b))
        assert solve_increasing(sqrt, 1e3)[0] == pytest.approx(1e6, rel=1e-13)
        assert solve_increasing(sqrt, 1e-4)[0] == pytest.approx(1e-8, rel=1e-13)

    def test_newton_step_map_falls_back_to_bisection(self):
        # a zero derivative gives no Newton step: widen, then bisect
        for jump in (2.5, 3e-7, 4e8):
            b, _ = solve_increasing(lambda bb: bare(0.0 if bb < jump else 1.0, 0.0), 0.5)
            assert b == pytest.approx(jump, rel=1e-12)

    def test_returns_the_curve_at_its_root(self):
        # g at the b returned. A last Halley step of at most 1.0e-5 on
        # log10 b may go unevaluated, with g carried there to second order:
        # g then holds within 1e-13 relative of a fresh evaluation at b,
        # and f = target within the stop's 1e-13 on log10 b (the Newton
        # step a fresh evaluation would take). The bisection fallback on a
        # step map returns a point it evaluated, with g there
        def step(b):
            return (0.0 if b < 2.5 else 1.0), 0.0, -b, -1.0, 0.0, 0.0

        b, g = solve_increasing(step, 0.5)
        assert g == step(b)[2]
        score = lambda bb: state_evolution.score_moments(absolute(), bb, Laplace(1.0), 0.6)
        for curve, target, start in ((smooth, 0.3, None), (smooth, 0.3, 1e9),
                                     (smooth, 0.5, None), (score, 0.2, None)):
            b, g = solve_increasing(curve, target, start=start)
            f, df, g_fresh = curve(b)[:3]
            assert g == pytest.approx(g_fresh, rel=1e-13, abs=0)
            assert abs(f - target) <= 1e-13 * math.log(10.0) * b * df

    def test_last_halley_step_is_not_evaluated(self):
        # the search takes its last Halley step without evaluating and
        # carries g from the last evaluated point b0 to second order;
        # g = b^2 has g'' = 2, so the carry is b^2 to rounding, where a
        # first-order carry would read b^2 - (b - b0)^2
        points = []

        def curve(b):
            points.append(b)
            return smooth(b)

        b, g = solve_increasing(curve, 0.3, start=1e-3)
        b0 = points[-1]
        assert b not in points
        assert 1e-13 < abs(math.log10(b / b0)) <= LAST_STEP
        assert b == pytest.approx(3.0 / 7.0, rel=1e-13)
        assert g == pytest.approx(b * b, rel=4e-16, abs=0)

    def test_refused_halley_correction_takes_newton_step(self):
        # from b = 0.05 the Newton step towards b/(1 + b) = 0.3 on log10 b
        # is n = 2.42 inside the open bracket, and Halley's correction
        # n F''/F' = 5.0 is above 1/2: the plain Newton step is taken and
        # evaluated. From b = 0.3 the correction is 0.21 and Halley's
        # shorter step n/(1 + correction/2) is taken
        ln10 = math.log(10.0)
        for start, halley in ((0.05, False), (0.3, True)):
            points = []

            def curve(b):
                points.append(b)
                return smooth(b)

            b, _ = solve_increasing(curve, 0.3, start=start)
            b0 = points[0]
            f, df, _, _, d2f, _ = smooth(b0)
            newton = -(f - 0.3) / (df * b0 * ln10)
            correction = newton * ln10 * (1.0 + b0 * d2f / df)
            assert (abs(correction) <= 0.5) == halley
            step = newton / (1.0 + 0.5 * correction) if halley else newton
            assert points[1] == 10.0 ** (math.log10(start) + step)
            assert b == pytest.approx(3.0 / 7.0, rel=1e-13)

    def test_newton_stops_on_an_evaluated_point(self):
        # f = log10 b is linear in Newton's variable, so Halley's correction
        # is 0, one step lands on the root to rounding, and the search
        # stops there (an exact hit, or a next step below 1e-13): it
        # returns the point it evaluated last, with g there
        points = []
        ln10 = math.log(10.0)

        def curve(b):
            points.append(b)
            return math.log10(b), 1.0 / (b * ln10), -b, -1.0, -1.0 / (b * b * ln10), 0.0

        for target in (0.3, 0.7, 2.5, -4.2):
            points.clear()
            b, g = solve_increasing(curve, target, start=1e-3)
            assert len(points) == 2
            assert b == points[-1]
            assert g == -b
            assert b == pytest.approx(10.0 ** target, rel=1e-14)

    def test_newton_unreachable_target_carries_bracket(self):
        with pytest.raises(CalibrationError) as err:
            solve_increasing(lambda b: bare(b / (1.0 + b), 1.0 / (1.0 + b) ** 2), 1.0,
                             start=0.5)
        assert err.value.grid_hi == 1e12
        assert err.value.value_hi < 1.0
        with pytest.raises(CalibrationError) as err:
            solve_increasing(lambda b: bare(0.5 + b / (1.0 + b), 1.0 / (1.0 + b) ** 2), 0.2,
                             start=0.5)
        assert err.value.grid_lo == 1e-12
        assert err.value.value_lo > 0.2

    def test_huber_slope_evaluations(self, monkeypatch):
        # raw residuals of the benchmark draw, as in the solver's first pass:
        # the exact walk over the sorted residuals evaluates no slope
        spec = convergence_study_spec(replications=1)
        inst = generate_instance(spec, 20_000)
        calls = count_calls(monkeypatch, calibration, "effective_score_deriv")
        b = calibrate_smooth(CalibrationTarget(inst.slope, huber(1.0), inst.y))
        assert calls["effective_score_deriv"] == 0
        assert np.mean(effective_score_deriv(huber(1.0), inst.y, b)) == pytest.approx(inst.slope, rel=1e-8)

    def test_se_tau_update_curve_evaluations(self, monkeypatch):
        # Newton runs on score_moments, E Phi^2 riding along, and no b is
        # passed twice
        dist = DistributionModel(pm_one_prior(0.128), Laplace(1.0))
        points = []
        original = state_evolution.score_moments

        def recording(loss, b, noise, sigma):
            points.append(b)
            return original(loss, b, noise, sigma)

        monkeypatch.setattr(state_evolution, "score_moments", recording)
        tau_sq, b = se_tau_update(0.5, dist, absolute(), 0.2)
        assert 1 <= len(points) <= 25
        # b is the last point evaluated or one Halley step of at most
        # 1.0e-5 on log10 b past it; either way the tau equation holds at b
        # within 1e-13 relative against a fresh pass, and the slope
        # equation within the stop's 1e-13 on log10 b
        assert abs(math.log10(b / points[-1])) <= LAST_STEP
        slope_b, deriv_b, sq_b = original(absolute(), b, Laplace(1.0), np.sqrt(0.5))[:3]
        assert abs(slope_b - 0.2) <= 1e-13 * math.log(10.0) * b * deriv_b
        assert tau_sq == pytest.approx(sq_b / 0.2 ** 2, rel=1e-13, abs=0)
        assert len(set(points)) == len(points)
        deriv = original(absolute(), b, Laplace(1.0), np.sqrt(0.5))[0]
        assert deriv == pytest.approx(0.2, rel=1e-10)


class TestTargetValidation:
    def test_slope_range(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                CalibrationTarget(bad, least_squares(), np.ones(4))

    def test_residual_shape(self):
        with pytest.raises(ValueError):
            CalibrationTarget(0.2, least_squares(), np.ones((2, 2)))
        with pytest.raises(ValueError):
            CalibrationTarget(0.2, least_squares(), np.array([]))


class TestCalibrateSmooth:
    def test_ls_closed_form_any_residuals(self):
        rng = np.random.default_rng(42)
        for slope in (0.05, 0.2, 0.5, 0.9):
            for scale in (0.1, 1.0, 25.0):
                z = scale * rng.standard_normal(300)
                b = calibrate_smooth(CalibrationTarget(slope, least_squares(), z))
                assert abs(b - slope / (1.0 - slope)) < 1e-8

    def test_ls_table_slope(self):
        z = np.random.default_rng(42).standard_normal(320)
        b = calibrate_smooth(CalibrationTarget(64 / 320, least_squares(), z))
        assert b == 0.25

    def test_huber_against_quadrature_oracle(self):
        # population root of (b/(1+b)) P(|v| <= (1+b)gamma) = slope, v ~ N(0,1)
        slope, gamma = 0.2, 1.0
        pop = lambda b: (b / (1 + b)) * (2 * stats.norm.cdf((1 + b) * gamma) - 1) - slope
        b_star = brentq(pop, 1e-6, 50.0, xtol=1e-12)
        rng = np.random.default_rng(42)
        z = rng.standard_normal(200_000)
        b_hat = calibrate_smooth(CalibrationTarget(slope, huber(gamma), z))
        assert abs(b_hat - b_star) < 0.02

    def test_plug_back_within_1e8(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal(5000)
        for loss in (least_squares(), huber(0.7)):
            target = CalibrationTarget(0.3, loss, z)
            b = calibrate_smooth(target)
            refit = np.mean(effective_score_deriv(loss, z, b))
            assert abs(refit - 0.3) < 1e-8

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            calibrate_smooth(CalibrationTarget(0.2, absolute(), np.ones(5)))

    def test_failure_carries_interval(self):
        # no bracket limits the exact walk: residuals of scale 1e14 put the
        # root past b = 1e12, and the root returned straddles the slope
        z = 1e14 * np.random.default_rng(42).standard_normal(100)
        b = calibrate_smooth(CalibrationTarget(0.2, huber(1.0), z))
        assert 1e12 < b < np.inf
        assert np.mean(effective_score_deriv(huber(1.0), z, b * (1 - 1e-12))) < 0.2
        assert np.mean(effective_score_deriv(huber(1.0), z, b * (1 + 1e-12))) > 0.2

    def test_huber_pieces_and_jumps(self):
        # u = |z| - 1 = -0.5, 0.5, 1.5, 3, 5, ...: at slope 0.2 the piece with
        # three residuals inside holds the root b = 0.2/(0.3 - 0.2) = 2; at
        # 0.25 its root 5 lies past u_(4) = 3 and the next piece's root
        # 0.25/(0.4 - 0.25) lies before it, so the map jumps across at b = 3
        z = np.array([0.5, -1.5, 2.5, -4.0, 6.0, 9.0, -13.0, 20.0, 30.0, -50.0])
        assert calibrate_smooth(CalibrationTarget(0.2, huber(1.0), z)) == pytest.approx(2.0, rel=1e-15)
        assert calibrate_smooth(CalibrationTarget(0.25, huber(1.0), z)) == 3.0
        # three residuals tie at |z| = 2 (u = 1): the jump there crosses
        # both an integer and a non-integer target
        z = np.array([0.5, 1.0, 2.0, -2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        for slope in (0.2, 0.25):
            assert calibrate_smooth(CalibrationTarget(slope, huber(1.0), z)) == 1.0


class TestCalibrateNonsmooth:
    def test_exact_plugin_matches_analytic_root(self):
        # the plug-in curve, no longer on the calibration path, with the
        # true normal cdf/pdf is increasing, with derivative 2 b^2 phi(b),
        # and its root is the analytic one
        slope = 0.2
        b, _ = solve_increasing(
            lambda bb: bare(float(plugin_slope_curve(absolute(), bb, stats.norm.cdf, stats.norm.pdf)),
                            2.0 * bb * bb * stats.norm.pdf(bb)),
            slope)
        assert b == pytest.approx(exact_lad_root(slope), rel=1e-10)

    def test_empirical_lands_near_analytic_root(self):
        # b is the sample quantile of u at level s/n, which tends to the
        # population root with standard error sqrt(p(1-p)/n) / g(b*)
        slope, n = 0.2, 40_000
        z = np.random.default_rng(42).standard_normal(n)
        assert kinked_root(absolute(), slope)[0] == pytest.approx(stats.norm.ppf(0.6), rel=1e-14)
        for loss in (absolute(), quantile(0.7), quantile(0.3)):
            b_star, dens = kinked_root(loss, slope)
            se = np.sqrt(slope * (1.0 - slope) / n) / dens
            b_hat = calibrate_nonsmooth(CalibrationTarget(slope, loss, z))
            assert abs(b_hat - b_star) <= 3.0 * se

    @pytest.mark.filterwarnings("error")
    def test_plug_back_is_exact(self):
        # with distinct residuals exactly s of n fall inside the kinked
        # window; huber's average derivative equals s/n inside a piece and
        # steps across it at a jump point u_(j) = |z_(j)|/gamma - 1, and the
        # walk skips the piece j = s, whose root would divide by zero
        rng = np.random.default_rng(42)
        pieces = jumps = 0
        # (25, 7): 7/25 * 25 rounds above 7, so ceil(slope * n) overshoots
        for n, s in ((320, 64), (5000, 1000), (1001, 7), (10, 9), (25, 7)):
            z = rng.standard_normal(n)
            for loss in (absolute(), quantile(0.3), quantile(0.7)):
                b = calibrate(CalibrationTarget(s / n, loss, z))
                assert np.mean(effective_score_deriv(loss, z, b)) == s / n
            for gamma, scale, slope in ((1.0, 1.0, s / n), (0.3, 1.0, (s + 0.5) / n),
                                        (1.0, 10.0, s / n), (1.0, 0.1, (s - 0.5) / n)):
                zz = scale * z
                b = calibrate(CalibrationTarget(slope, huber(gamma), zz))
                if np.any(np.abs(zz) / gamma - 1.0 == b):
                    jumps += 1
                    below = np.mean(effective_score_deriv(huber(gamma), zz, b * (1 - 1e-12)))
                    above = np.mean(effective_score_deriv(huber(gamma), zz, b * (1 + 1e-12)))
                    assert below < slope < above
                else:
                    pieces += 1
                    refit = np.mean(effective_score_deriv(huber(gamma), zz, b))
                    assert abs(refit - slope) <= 1e-15
        assert pieces > 0 and jumps > 0

    def test_quantile_half_matches_absolute(self):
        # at tau_q = 0.5 the window is the absolute one at b/2, so the
        # fitted b doubles exactly and the calibrated scores coincide
        z = np.random.default_rng(42).standard_normal(20_000)
        for slope in (0.2, 0.20001):
            b_lad = calibrate_nonsmooth(CalibrationTarget(slope, absolute(), z))
            b_q = calibrate_nonsmooth(CalibrationTarget(slope, quantile(0.5), z))
            assert b_q == 2.0 * b_lad
            zz = np.linspace(-3, 3, 101)
            np.testing.assert_array_equal(effective_score(quantile(0.5), zz, b_q),
                                          effective_score(absolute(), zz, b_lad))

    def test_fitted_b_increases_with_slope(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal(20_000)
        bs = [calibrate_nonsmooth(CalibrationTarget(s, absolute(), z))
              for s in (0.1, 0.2, 0.4, 0.6)]
        assert all(b1 < b2 for b1, b2 in zip(bs, bs[1:]))

    def test_neighbors_straddle_target(self):
        # the empirical slope is below the target between the two order
        # statistics under b and above it between the two over b
        rng = np.random.default_rng(42)
        z = rng.standard_normal(10_000)
        for loss in (absolute(), quantile(0.7)):
            u = np.sort(np.where(z > 0, z / 0.7, z / -0.3) if loss.tau_q else np.abs(z))
            for slope in (0.3, 0.30005):
                b = calibrate_nonsmooth(CalibrationTarget(slope, loss, z))
                below = 0.5 * (u[u < b][-2] + u[u < b][-1])
                above = 0.5 * (u[u > b][0] + u[u > b][1])
                assert np.mean(effective_score_deriv(loss, z, below)) < slope
                assert np.mean(effective_score_deriv(loss, z, above)) > slope

    def test_non_integer_target_returns_jump(self):
        # no count hits 0.25 of 10: the smallest count above it is 3, so b
        # is the third order statistic, where the slope jumps over 0.25
        z = np.array([-5.0, 4.0, -1.0, 3.0, 2.0, -7.0, 6.0, 10.0, -9.0, 8.0])
        assert calibrate_nonsmooth(CalibrationTarget(0.25, absolute(), z)) == 3.0
        # quantile(0.5): u = 2|z|
        assert calibrate_nonsmooth(CalibrationTarget(0.25, quantile(0.5), z)) == 6.0
        rng = np.random.default_rng(7)
        z = rng.standard_normal(999)
        for s in (1, 100, 998):
            slope = (s + 0.5) / 999
            b = calibrate_nonsmooth(CalibrationTarget(slope, absolute(), z))
            assert b == np.sort(np.abs(z))[s]

    def test_ties_return_jump(self):
        # three residuals share |z| = 2 at counts 2..4: the tie rule gives
        # the shared value whether or not the target count lands inside it
        z = np.array([1.0, 2.0, -2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        for slope in (0.2, 0.25, 0.3, 0.35):
            assert calibrate_nonsmooth(CalibrationTarget(slope, absolute(), z)) == 2.0
        assert calibrate_nonsmooth(CalibrationTarget(0.4, absolute(), z)) == 2.5

    def test_scale_equivariant(self):
        # no bracket limits the kinked root: b follows the residual scale
        z = np.random.default_rng(42).standard_normal(200)
        b = calibrate_nonsmooth(CalibrationTarget(0.2, absolute(), z))
        for k in (-40, 40, 1000):
            assert calibrate_nonsmooth(CalibrationTarget(0.2, absolute(), z * 2.0 ** k)) == b * 2.0 ** k

    def test_failure_when_zeros_fill_the_window(self):
        # exact zeros lie inside every window; more than s of them leave
        # the root at b = 0
        z = np.array([0.0, -0.0, 0.0, 1.0, -2.0, 3.0, 4.0, -5.0, 6.0, 7.0])
        for loss in (absolute(), quantile(0.7)):
            with pytest.raises(CalibrationError) as err:
                calibrate_nonsmooth(CalibrationTarget(0.2, loss, z))
            assert "3 of 10" in str(err.value)
            assert err.value.grid_lo == 0.0 and err.value.value_lo == 0.3
            # exactly s zeros still leave a positive root
            assert calibrate_nonsmooth(CalibrationTarget(0.3, loss, z)) > 0.0

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            calibrate_nonsmooth(CalibrationTarget(0.2, least_squares(), np.ones(5)))


class TestDispatch:
    def test_routes_by_family(self):
        rng = np.random.default_rng(42)
        n, slope = 5000, 0.2
        z = rng.standard_normal(n)
        assert calibrate(CalibrationTarget(slope, least_squares(), z)) == pytest.approx(0.25, abs=1e-8)
        # the kinked route: the sample quantile of |z| at level 0.2, near
        # Phi^-1(0.6) within three standard errors of a sample quantile
        b_star = stats.norm.ppf(0.6)
        se = np.sqrt(slope * (1.0 - slope) / n) / (2.0 * stats.norm.pdf(b_star))
        b_lad = calibrate(CalibrationTarget(slope, absolute(), z))
        assert abs(b_lad - b_star) <= 3.0 * se


class TestScoreWindow:
    @pytest.mark.parametrize("loss", [least_squares(), huber(1.0), absolute(), quantile(0.7)],
                             ids=lambda loss: loss.family)
    def test_window_u_matches_the_score(self, loss):
        # calibration's u_i < b, the score derivative equal to c and the
        # unclipped score all mark the same residuals. Random (z, b) land
        # off the edges; at b = 1 the edges (kappa + 1) e, their u and
        # c (kappa + 1) e = e are exact for every loss, so u = b there and
        # the derivative takes its tie value c/2
        kappa, e_lo, e_hi = score_shape(loss)
        rng = np.random.default_rng(42)
        z = 3.0 * rng.standard_normal(4000)
        b = 10.0 ** rng.uniform(-2.0, 1.0, 4000)
        on_edge = np.zeros(z.size, dtype=bool)
        if np.isfinite(e_hi):
            edges = np.array([(kappa + 1.0) * e_lo, (kappa + 1.0) * e_hi])
            z = np.concatenate([z, edges])
            b = np.concatenate([b, np.ones(2)])
            on_edge = np.concatenate([on_edge, np.ones(2, dtype=bool)])
        c = b / (kappa + b)
        u = window_u(loss, z)
        inside = u < b
        deriv = effective_score_deriv(loss, z, b)
        phi = effective_score(loss, z, b)
        np.testing.assert_array_equal(inside, deriv == c)
        np.testing.assert_array_equal(inside, (phi > b * e_lo) & (phi < b * e_hi))
        np.testing.assert_array_equal(u[on_edge], b[on_edge])
        np.testing.assert_array_equal(deriv[on_edge], c[on_edge] / 2)
        # a finite window leaves residuals on both sides
        assert inside.any() and inside.all() == np.isinf(e_hi)

    @pytest.mark.parametrize("loss", [absolute(), quantile(0.7), quantile(0.3)],
                             ids=["absolute", "quantile_0.7", "quantile_0.3"])
    def test_mean_deriv_hits_the_slope_at_jump_roots(self, loss):
        # no count of 320 hits 64.5/320, so every root is the jump point
        # u_(65): 64 residuals inside and one on the edge at half weight.
        # Phi' reads the edge from the same u as calibration, so the mean is
        # the slope exactly; an edge test on z == b e instead rounds the
        # product and missed it on up to 68 of these 400 draws
        n, slope = 320, 64.5 / 320
        for seed in range(400):
            z = np.random.default_rng(seed).standard_normal(n)
            b = calibrate(CalibrationTarget(slope, loss, z))
            assert np.mean(effective_score_deriv(loss, z, b)) == slope, seed

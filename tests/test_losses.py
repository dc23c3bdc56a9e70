import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ramp import losses
from ramp.losses import (
    LossSpec,
    absolute,
    effective_score,
    effective_score_deriv,
    huber,
    least_squares,
    loss_value,
    prox,
    quantile,
    soft_threshold,
)

ALL_LOSSES = [least_squares(), huber(1.0), absolute(), quantile(0.7), quantile(0.3)]


def sample_zb(rng, size):
    z = 3.0 * rng.standard_normal(size)
    b = 10.0 ** rng.uniform(-2.0, 1.0, size)
    return z, b


def subgrad_interval(spec, u):
    """rho'(u) as an [lo, hi] interval (equal endpoints off the kinks)."""
    if spec.family == losses.LEAST_SQUARES:
        return u, u
    if spec.family == losses.HUBER:
        g = spec.gamma
        v = np.clip(u, -g, g)
        return v, v
    if spec.family == losses.ABSOLUTE:
        if u == 0.0:
            return -1.0, 1.0
        return np.sign(u), np.sign(u)
    t = spec.tau_q
    if u == 0.0:
        return t - 1.0, t
    return (t, t) if u > 0 else (t - 1.0, t - 1.0)


class TestLossValue:
    def test_pinned_values(self):
        assert loss_value(least_squares(), 2.0) == 2.0
        assert loss_value(huber(1.0), 3.0) == 2.5
        assert_allclose(loss_value(quantile(0.7), -1.0), 0.3)
        assert_allclose(loss_value(quantile(0.7), 1.0), 0.7)
        assert loss_value(absolute(), -4.0) == 4.0

    def test_zero_at_origin(self):
        for spec in ALL_LOSSES:
            assert loss_value(spec, 0.0) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(42)
        x = 10.0 * rng.standard_normal(1000)
        for spec in ALL_LOSSES:
            assert np.all(loss_value(spec, x) >= 0.0)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(42)
        for spec in ALL_LOSSES:
            a = 10.0 * rng.standard_normal(2000)
            c = 10.0 * rng.standard_normal(2000)
            mid = loss_value(spec, 0.5 * (a + c))
            avg = 0.5 * (loss_value(spec, a) + loss_value(spec, c))
            assert np.all(mid <= avg + 1e-12)

    def test_matches_family_formulas(self):
        # loss_value reaches rho through g x - kappa g^2/2 alone; it must give
        # the bits of each family's textbook formula
        def huber_rho(g):
            return lambda x: np.where(np.abs(x) <= g, 0.5 * x ** 2,
                                      g * np.abs(x) - 0.5 * g ** 2)

        def pinball(t):
            return lambda x: np.where(x >= 0.0, t * x, (t - 1.0) * x)

        cases = [(least_squares(), lambda x: 0.5 * x ** 2),
                 (huber(1.0), huber_rho(1.0)), (huber(0.3), huber_rho(0.3)),
                 (absolute(), np.abs), (quantile(0.7), pinball(0.7)),
                 (quantile(0.2), pinball(0.2))]
        # zero (the kink of the absolute and quantile losses), the Huber
        # knees, two huge residuals and normal draws
        x = np.concatenate([[0.0, 1.0, -1.0, 0.3, -0.3, 1e150, -1e150],
                            np.random.default_rng(7).standard_normal(300_000)])
        for spec, rho in cases:
            assert np.array_equal(loss_value(spec, x), rho(x)), spec
        # where 0.5 x^2 is subnormal, least squares and the two Hubers round
        # x^2 - 0.5 x^2 twice and may land one subnormal step away
        tiny = np.random.default_rng(7).standard_normal(10_000) * 1e-156
        for spec, rho in cases[:3]:
            assert np.max(np.abs(loss_value(spec, tiny) - rho(tiny))) <= 2.0 ** -1074


class TestProx:
    def test_pinned_values(self):
        assert prox(least_squares(), 2.0, 1.0) == 1.0
        assert prox(absolute(), 0.5, 1.0) == 0.0
        assert prox(huber(1.0), 3.0, 1.0) == 2.0
        assert_allclose(prox(quantile(0.7), 2.0, 1.0), 1.3)

    def test_origin_fixed(self):
        for spec in ALL_LOSSES:
            assert prox(spec, 0.0, 1.0) == 0.0

    def test_rejects_nonpositive_b(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                prox(absolute(), 1.0, bad)

    def test_firm_nonexpansive(self):
        rng = np.random.default_rng(42)
        for spec in ALL_LOSSES:
            z1, b = sample_zb(rng, 10_000)
            z2, _ = sample_zb(rng, 10_000)
            d = np.abs(prox(spec, z1, b) - prox(spec, z2, b))
            assert np.all(d <= np.abs(z1 - z2) + 1e-12)

    def test_subgradient_characterization(self):
        # (z - u)/b must land inside rho'(u); checked pointwise because the
        # interval endpoints depend on where u falls
        rng = np.random.default_rng(42)
        for spec in ALL_LOSSES:
            z, b = sample_zb(rng, 10_000)
            u = prox(spec, z, b)
            g = (z - u) / b
            for ui, gi in zip(u[:2000], g[:2000]):
                lo, hi = subgrad_interval(spec, ui)
                assert lo - 1e-10 <= gi <= hi + 1e-10

    def test_beats_random_competitors(self):
        # the prox output should minimize the envelope objective
        rng = np.random.default_rng(42)
        for spec in ALL_LOSSES:
            z, b = sample_zb(rng, 500)
            u = prox(spec, z, b)
            obj_u = b * loss_value(spec, u) + 0.5 * (u - z) ** 2
            for _ in range(20):
                w = u + 0.5 * rng.standard_normal(500)
                obj_w = b * loss_value(spec, w) + 0.5 * (w - z) ** 2
                assert np.all(obj_u <= obj_w + 1e-12)


class TestEffectiveScore:
    def test_pinned_values(self):
        assert effective_score(least_squares(), 2.0, 1.0) == 1.0
        assert effective_score(absolute(), 2.0, 1.0) == 1.0
        assert effective_score(huber(1.0), 1.0, 1.0) == 0.5
        assert_allclose(effective_score(quantile(0.3), -2.0, 1.0), -0.7)

    def test_identity_with_prox(self):
        rng = np.random.default_rng(42)
        for spec in ALL_LOSSES:
            z, b = sample_zb(rng, 10_000)
            assert_allclose(effective_score(spec, z, b), z - prox(spec, z, b),
                            rtol=0, atol=1e-12)

    def test_bounded_by_score_bound(self):
        # sup |Phi(z; b)| is b gamma for Huber, b for the absolute loss and
        # b max(tau, 1 - tau) for quantile(tau)
        rng = np.random.default_rng(42)
        for spec, bound in ((huber(1.0), 1.0), (absolute(), 1.0),
                            (quantile(0.7), 0.7), (quantile(0.3), 0.7)):
            z = 100.0 * rng.standard_normal(5000)
            for b in (0.1, 1.0, 7.3):
                assert np.max(np.abs(effective_score(spec, z, b))) <= b * bound

    def test_monotone_in_z(self):
        rng = np.random.default_rng(42)
        z = np.sort(10.0 * rng.standard_normal(5000))
        for spec in ALL_LOSSES:
            phi = effective_score(spec, z, 0.8)
            assert np.all(np.diff(phi) >= -1e-14)


class TestEffectiveScoreDeriv:
    def test_pinned_values(self):
        assert_allclose(effective_score_deriv(least_squares(), 5.0, 0.25), 0.2)
        assert effective_score_deriv(absolute(), 0.1, 1.0) == 1.0
        assert effective_score_deriv(huber(1.0), 10.0, 1.0) == 0.0

    def test_kink_midpoints(self):
        # exact kink evaluation returns the mean of the one-sided slopes
        assert effective_score_deriv(absolute(), 1.0, 1.0) == 0.5
        assert effective_score_deriv(absolute(), -1.0, 1.0) == 0.5
        b = 0.8
        assert effective_score_deriv(huber(2.0), (1 + b) * 2.0, b) == 0.5 * b / (1 + b)
        assert effective_score_deriv(quantile(0.7), 1.0 * 0.7, 1.0) == 0.5
        assert effective_score_deriv(quantile(0.7), 1.0 * (0.7 - 1.0), 1.0) == 0.5

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for spec in ALL_LOSSES:
            z, b = sample_zb(rng, 10_000)
            # stay away from the kinks of Phi, where the two-sided difference
            # averages the branches instead of reproducing either one
            if spec.family == losses.HUBER:
                kink = (1 + b) * spec.gamma
                keep = np.abs(np.abs(z) - kink) > 1e-3
            elif spec.family == losses.ABSOLUTE:
                keep = np.abs(np.abs(z) - b) > 1e-3
            elif spec.family == losses.QUANTILE:
                keep = (np.abs(z - b * spec.tau_q) > 1e-3) & \
                       (np.abs(z - b * (spec.tau_q - 1)) > 1e-3)
            else:
                keep = np.ones_like(z, dtype=bool)
            z, b = z[keep], b[keep]
            fd = (effective_score(spec, z + h, b) - effective_score(spec, z - h, b)) / (2 * h)
            assert_allclose(effective_score_deriv(spec, z, b), fd, rtol=0, atol=1e-4)


class TestSoftThreshold:
    def test_pinned_values(self):
        assert soft_threshold(2.0, 0.5) == 1.5
        assert soft_threshold(-0.3, 0.5) == 0.0
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert_allclose(soft_threshold(x, 0.0), x)

    def test_closed_dead_zone(self):
        assert soft_threshold(0.5, 0.5) == 0.0
        assert soft_threshold(-0.5, 0.5) == 0.0

    def test_vector_form(self):
        x = np.array([3.0, -3.0, 0.2])
        assert_allclose(soft_threshold(x, 1.0), [2.0, -2.0, 0.0])

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestSpecValidation:
    def test_family_gate(self):
        with pytest.raises(ValueError):
            LossSpec("cauchy_loss")

    def test_parameter_gates(self):
        with pytest.raises(ValueError):
            LossSpec(losses.HUBER)
        with pytest.raises(ValueError):
            LossSpec(losses.HUBER, gamma=-1.0)
        # an infinite knee would run least squares under a Huber label
        for gamma in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite gamma"):
                huber(gamma)
        with pytest.raises(ValueError):
            LossSpec(losses.QUANTILE, tau_q=1.0)
        with pytest.raises(ValueError):
            LossSpec(losses.LEAST_SQUARES, gamma=1.0)
        with pytest.raises(ValueError):
            LossSpec(losses.ABSOLUTE, tau_q=0.5)

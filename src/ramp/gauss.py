"""Standard-normal analytics shared by calibration and state evolution.

Everything is vectorized numpy working in float64. The scipy.special
erfc/ndtri routines carry the tail accuracy; nothing here samples.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_cdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * special.erfc(-x / _SQRT2)


def norm_ppf(q):
    return special.ndtri(q)


def _xphi(x):
    """x * pdf(x) with the 0-at-infinity convention."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.isfinite(x), x * norm_pdf(np.where(np.isfinite(x), x, 0.0)), 0.0)
    return out


def truncated_moments(mu, s, lo, hi):
    """First three truncated moments of a normal over the window (lo, hi].

    Inputs
    ------
    mu, s : mean and standard deviation of v ~ N(mu, s^2); s >= 0, and s = 0
            degenerates to a point mass handled exactly
    lo, hi : window endpoints, -inf/inf allowed

    Outputs
    -------
    (p0, m1, m2): P(lo < v <= hi), E[v 1{lo < v <= hi}], E[v^2 1{lo < v <= hi}].
    All broadcast elementwise.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    if np.all(s == 0.0):
        inside = (mu > lo) & (mu <= hi)
        p0 = inside.astype(float)
        return p0, mu * p0, mu * mu * p0

    a = (lo - mu) / s
    b = (hi - mu) / s
    p0 = norm_cdf(b) - norm_cdf(a)
    pa = np.where(np.isfinite(a), norm_pdf(np.where(np.isfinite(a), a, 0.0)), 0.0)
    pb = np.where(np.isfinite(b), norm_pdf(np.where(np.isfinite(b), b, 0.0)), 0.0)
    m1 = mu * p0 + s * (pa - pb)
    m2 = (mu * mu + s * s) * p0 + 2.0 * mu * s * (pa - pb) + s * s * (_xphi(a) - _xphi(b))
    return p0, m1, m2


def soft_threshold_risk(m, alpha):
    """E[(eta(m + Z; alpha) - m)^2] for standard normal Z, elementwise.

    The closed form follows from splitting on the dead zone: with
    a = alpha - m and b = -alpha - m,

        r = (1 + alpha^2) (1 - Phi(a) + Phi(b)) + m^2 (Phi(a) - Phi(b))
            - (alpha + m) phi(a) - (alpha - m) phi(b).

    Limits that pin it down: r(0) = 2[(1+alpha^2)(1-Phi(alpha)) - alpha phi(alpha)],
    r(m) -> 1 + alpha^2 as |m| -> inf, and r -> m^2 as alpha -> inf.
    """
    m = np.asarray(m, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    a = alpha - m
    b = -alpha - m
    cdf_a = norm_cdf(a)
    cdf_b = norm_cdf(b)
    tail = (1.0 - cdf_a) + cdf_b
    r = ((1.0 + alpha * alpha) * tail
         + m * m * (cdf_a - cdf_b)
         - (alpha + m) * norm_pdf(a)
         - (alpha - m) * norm_pdf(b))
    return r


def gamma_cap(alpha):
    """E[eta(Z; alpha)^2]: soft-threshold risk of the zero signal."""
    return soft_threshold_risk(0.0, alpha)


@lru_cache(maxsize=8)
def legendre_nodes_01(n: int = 200):
    """Gauss-Legendre nodes/weights moved to the unit interval."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w

"""Standard-normal analytics shared by calibration and state evolution.

The moments are vectorized numpy working in float64, with the
scipy.special erfc routine carrying the tail accuracy; nothing here
samples.

`norm_cdf_pdf` gives Phi and phi of a whole array, in two new arrays or
two given ones, with one erfc and one exp call and the rest in place, bit
for bit `norm_cdf` and `norm_pdf`. State evolution stacks both edges of a
window into one (2, ...) array and evaluates them in this one pass.

`soft_threshold_risk` is this module's scalar routine: it takes one mean
in Python floats, with `math.erfc` and `math.exp`, since state evolution
calls it once per prior atom, and its bits are those of math's routines.
State evolution's window for a normal noise component
(`state_evolution._conditional`) is scalar too, but calls scipy's erfc
and numpy's exp on its floats, the routines of `norm_cdf_pdf`: math's
round differently in the last bit, and the window's normal path keeps
the bits of the plain array formulas that its quadrature path also
reproduces.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_cdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * special.erfc(-x / _SQRT2)


def norm_cdf_pdf(x, out=None):
    """(Phi(x), phi(x)) of a float array x with ndim >= 1.

    The same operations as `norm_cdf` and `norm_pdf`, so the same bits:
    x / -sqrt 2 is -x / sqrt 2 exactly, and (-0.5 x) x is the product
    `norm_pdf` takes; the scaling is done in place. Written into the two
    arrays of out, shaped like x, when given, else into two new arrays.
    """
    cdf, pdf = (None, None) if out is None else out
    cdf = np.divide(x, -_SQRT2, out=cdf)
    special.erfc(cdf, out=cdf)
    cdf *= 0.5
    pdf = np.multiply(x, -0.5, out=pdf)
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT_2PI
    return cdf, pdf


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
    """E[(eta(m + Z; alpha) - m)^2] for standard normal Z, at one float m.

    alpha is one threshold. The closed form follows from splitting on the
    dead zone: with a = alpha - m and b = -alpha - m,

        r = (1 + alpha^2) (1 - Phi(a) + Phi(b)) + m^2 (Phi(a) - Phi(b))
            - (alpha + m) phi(a) - (alpha - m) phi(b).

    Limits that pin it down: r(0) = 2[(1+alpha^2)(1-Phi(alpha)) - alpha phi(alpha)],
    r(m) -> 1 + alpha^2 as |m| -> inf, and r -> m^2 as alpha -> inf.

    State evolution calls it once per prior atom, so it works on Python
    floats with `math.erfc` and `math.exp`: on a handful of atoms numpy's
    per-call overhead, not the arithmetic, would set its cost. Phi and phi
    take the operations of `norm_cdf_pdf`, and the sum is taken in the
    order written: alpha + m is -b and alpha - m is a exactly, so the last
    two terms add b phi(a) and subtract a phi(b).
    """
    a = alpha - m
    b = -alpha - m
    cdf_a = 0.5 * math.erfc(a / -_SQRT2)
    cdf_b = 0.5 * math.erfc(b / -_SQRT2)
    pdf_a = math.exp((-0.5 * a) * a) * _INV_SQRT_2PI
    pdf_b = math.exp((-0.5 * b) * b) * _INV_SQRT_2PI
    r = (1.0 - cdf_a + cdf_b) * (1.0 + alpha * alpha)
    r += (cdf_a - cdf_b) * (m * m)
    r += b * pdf_a
    r -= a * pdf_b
    return r


def gamma_cap(alpha):
    """E[eta(Z; alpha)^2]: soft-threshold risk of the zero signal."""
    return soft_threshold_risk(0.0, alpha)


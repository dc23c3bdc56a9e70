"""Loss kernels: proximal maps and effective scores for the four robust losses.

Every function here is a pure elementwise map: scalars in, scalar out;
arrays in, arrays of the same shape out. The families share one interface,

    loss_value(spec, x)               rho(x)
    loss_grad(spec, x)                a subgradient of rho at x
    prox(spec, z, b)                  argmin_u  b*rho(u) + 0.5*(u - z)**2
    effective_score(spec, z, b)       Phi(z; b) = b * rho'(prox(spec, z, b))
    effective_score_deriv(spec, z, b) d/dz Phi(z; b)
    window_u(spec, z)                 u with z inside the score window iff u < b

with b > 0 the proximal regularization scale. Every loss is fixed by three
constants (kappa, e_lo, e_hi) from `score_shape`: rho' lies in [e_lo, e_hi]
and has slope 1/kappa in between (kappa = 0 at a kink). With
g = rho'(x) = clip(x/kappa, e_lo, e_hi) and the scale c(b) = b/(kappa + b),
so that dc/db = kappa/(kappa + b)**2,

    rho(x)    = g x - kappa g^2/2
    Phi(z; b) = clip(c z, b e_lo, b e_hi)
    Phi'      = c inside the score window (kappa + b)(e_lo, e_hi), c/2 on
                its edges and 0 outside
    prox      = z - Phi

so every proximal map has a closed form and nothing here runs an inner
optimization. Calibration, state evolution, the exact oracle and the report
labels read the loss only through these constants and the spec's fields;
this is the one module that names a family, and only in the spec's
validation, its constants and its label.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

LEAST_SQUARES = "least_squares"
HUBER = "huber"
ABSOLUTE = "absolute"
QUANTILE = "quantile"

FAMILIES = (LEAST_SQUARES, HUBER, ABSOLUTE, QUANTILE)

ScoreShape = namedtuple("ScoreShape", ["kappa", "e_lo", "e_hi"])


@dataclass(frozen=True)
class LossSpec:
    """One loss family plus its parameters.

    gamma is the Huber knee, positive and finite (required exactly when
    family == HUBER), and tau_q the quantile level in (0, 1) (required
    exactly when family == QUANTILE). The other two families take no
    parameters. shape holds the family's (kappa, e_lo, e_hi), computed once
    here and read through `score_shape`; it is not an argument and takes no
    part in equality, hashing or repr.
    """

    family: str
    gamma: Optional[float] = None
    tau_q: Optional[float] = None
    shape: ScoreShape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.family == HUBER:
            if self.gamma is None or not 0 < self.gamma < math.inf:
                raise ValueError("huber loss needs a finite gamma > 0")
        elif self.gamma is not None:
            raise ValueError("gamma only applies to the huber loss")
        if self.family == QUANTILE:
            if self.tau_q is None or not 0.0 < self.tau_q < 1.0:
                raise ValueError("quantile loss needs tau_q strictly inside (0, 1)")
        elif self.tau_q is not None:
            raise ValueError("tau_q only applies to the quantile loss")
        object.__setattr__(self, "shape", _shape_of(self))


def least_squares() -> LossSpec:
    return LossSpec(LEAST_SQUARES)


def huber(gamma: float = 1.0) -> LossSpec:
    return LossSpec(HUBER, gamma=gamma)


def absolute() -> LossSpec:
    return LossSpec(ABSOLUTE)


def quantile(tau_q: float) -> LossSpec:
    return LossSpec(QUANTILE, tau_q=tau_q)


def _check_b(b) -> None:
    if not (b > 0 if isinstance(b, float) else np.all(np.asarray(b) > 0)):
        raise ValueError("proximal scale b must be positive")


def _maybe_scalar(out: np.ndarray):
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------

def loss_value(spec: LossSpec, x):
    """Evaluate rho(x) = g x - kappa g^2/2 with g = loss_grad(spec, x).

    This is the Fenchel-Young equality: the conjugate of rho is kappa g^2/2
    on [e_lo, e_hi], and g is a subgradient of rho at x. Nonnegative,
    convex, zero at the origin. Least squares at |x| > 1.3e154 gives nan,
    inf - inf, where 0.5 x^2 would overflow to inf; where 0.5 x^2 is
    subnormal (|x| < 2.2e-154) it can be one subnormal step (2^-1074) off
    it, since it rounds twice.
    """
    kappa = score_shape(spec).kappa
    x = np.asarray(x, dtype=float)
    g = loss_grad(spec, x)
    # at a kink (kappa = 0) rho is g x
    return _maybe_scalar(g * x - 0.5 * kappa * g * g if kappa else g * x)


def loss_grad(spec: LossSpec, x):
    """A subgradient of rho at x: clip(x/kappa, e_lo, e_hi).

    At a kink (kappa = 0) it is e_hi above zero, e_lo below and 0 at zero.
    """
    kappa, e_lo, e_hi = score_shape(spec)
    x = np.asarray(x, dtype=float)
    if kappa > 0.0:
        out = np.clip(x / kappa, e_lo, e_hi)
    else:
        out = np.where(x > 0.0, e_hi, np.where(x < 0.0, e_lo, 0.0))
    return _maybe_scalar(out)


def loss_label(spec: LossSpec) -> str:
    """Report label: the family, then each parameter the spec sets."""
    params = (spec.gamma, spec.tau_q)
    return "_".join([spec.family] + [f"{v:g}" for v in params if v is not None])


def score_shape(spec: LossSpec) -> ScoreShape:
    """The constants (kappa, e_lo, e_hi) that fix the effective score of spec.

    rho' takes values in [e_lo, e_hi], and kappa is the reciprocal of the
    curvature of rho where rho' lies strictly between them: 1 for least
    squares and Huber, 0 for the kinked losses. The spec computed them
    when it was built.
    """
    return spec.shape


def _shape_of(spec: LossSpec) -> ScoreShape:
    if spec.family == LEAST_SQUARES:
        return ScoreShape(1.0, -math.inf, math.inf)
    if spec.family == HUBER:
        return ScoreShape(1.0, -spec.gamma, spec.gamma)
    if spec.family == ABSOLUTE:
        return ScoreShape(0.0, -1.0, 1.0)
    return ScoreShape(0.0, spec.tau_q - 1.0, spec.tau_q)


def prox(spec: LossSpec, z, b):
    """Closed-form minimizer of b*rho(u) + 0.5*(u - z)^2 over u.

    Inputs
    ------
    z : point(s) at which the map is evaluated
    b : positive proximal scale

    The minimizer is unique because rho is convex and the quadratic is
    strict. It satisfies z - u in b*rho'(u) (subgradient sense at kinks),
    so it is z - Phi(z; b).
    """
    z = np.asarray(z, dtype=float)
    return _maybe_scalar(z - effective_score(spec, z, b))


def effective_score(spec: LossSpec, z, b):
    """Phi(z; b) = b * rho'(prox(z, b)) = clip(c z, b e_lo, b e_hi), c = b/(kappa + b)."""
    _check_b(b)
    kappa, e_lo, e_hi = score_shape(spec)
    z = np.asarray(z, dtype=float)
    # at a kink c = b/b = 1 exactly, so c z is z
    cz = b / (kappa + b) * z if kappa else z
    # np.minimum(np.maximum(...)) is np.clip without its Python-level checks
    return _maybe_scalar(np.minimum(np.maximum(cz, b * e_lo), b * e_hi))


def window_u(spec: LossSpec, z):
    """u = z/e - kappa, with e = e_hi where z > 0 and e_lo elsewhere.

    z lies inside the score window (kappa + b)(e_lo, e_hi) exactly when
    u < b, and on one of its edges exactly when u == b. This is the one
    definition of window membership: calibration counts residuals by it and
    `effective_score_deriv` classifies them by it.
    """
    kappa, e_lo, e_hi = score_shape(spec)
    z = np.asarray(z, dtype=float)
    # e_lo < 0 < e_hi, so the larger quotient is the one that divides by e
    u = np.maximum(z / e_hi, z / e_lo)
    if kappa:
        u -= kappa
    return _maybe_scalar(u)


def effective_score_deriv(spec: LossSpec, z, b):
    """d/dz of the effective score: c on the score window, 0 outside it.

    On the window edges (kappa + b) e_lo and (kappa + b) e_hi, the kinks of
    Phi, the average c/2 of the left and right derivatives is returned,
    the same symmetric tie treatment the calibration step uses for its
    bracketing rule. Inside, edge and outside are read from `window_u`
    (u < b, u == b, u > b), so at a calibrated b the mean derivative is
    the slope calibration solved for.
    """
    _check_b(b)
    kappa = score_shape(spec).kappa
    u = window_u(spec, z)
    c = b / (kappa + b)
    out = np.where(u < b, c, np.where(u == b, 0.5 * c, 0.0))
    return _maybe_scalar(out)


def soft_threshold(x, theta):
    """eta(x; theta): shrink x toward zero by theta with a closed dead zone.

    Returns x - theta for x > theta, x + theta for x < -theta, else a
    zero: max(|x| - theta, 0) times sign(x), so -0.0 for a negative x in
    the dead zone (soft_threshold(-0.3, 0.5) has its sign bit set) and
    0.0 for x >= 0 or x = -0.0. Points with |x| exactly equal to theta
    land in the dead zone.
    Elementwise in both arguments; theta must be nonnegative.
    """
    if theta < 0 if isinstance(theta, float) else np.any(np.asarray(theta) < 0):
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.maximum(np.abs(x) - theta, 0.0)
    # in place on the array made above; a 0-d result is a scalar and rebinds
    out *= np.sign(x)
    return _maybe_scalar(out)

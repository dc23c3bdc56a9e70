"""Loss kernels: proximal maps and effective scores for the four robust losses.

Every function here is a pure elementwise map: scalars in, scalar out;
arrays in, arrays of the same shape out. The families share one interface,

    loss_value(spec, x)               rho(x)
    prox(spec, z, b)                  argmin_u  b*rho(u) + 0.5*(u - z)**2
    effective_score(spec, z, b)       Phi(z; b) = b * rho'(prox(spec, z, b))
    effective_score_deriv(spec, z, b) d/dz Phi(z; b)

with b > 0 the proximal regularization scale. All four proximal maps have
closed forms, so nothing here runs an inner optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

LEAST_SQUARES = "least_squares"
HUBER = "huber"
ABSOLUTE = "absolute"
QUANTILE = "quantile"

FAMILIES = (LEAST_SQUARES, HUBER, ABSOLUTE, QUANTILE)


@dataclass(frozen=True)
class LossSpec:
    """One loss family plus its parameters.

    gamma is the Huber knee (required exactly when family == HUBER) and
    tau_q the quantile level in (0, 1) (required exactly when
    family == QUANTILE). The other two families take no parameters.
    """

    family: str
    gamma: Optional[float] = None
    tau_q: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.family == HUBER:
            if self.gamma is None or not self.gamma > 0:
                raise ValueError("huber loss needs gamma > 0")
        elif self.gamma is not None:
            raise ValueError("gamma only applies to the huber loss")
        if self.family == QUANTILE:
            if self.tau_q is None or not 0.0 < self.tau_q < 1.0:
                raise ValueError("quantile loss needs tau_q strictly inside (0, 1)")
        elif self.tau_q is not None:
            raise ValueError("tau_q only applies to the quantile loss")

    @property
    def bounded_score(self) -> bool:
        """Whether |rho'| stays below a finite constant (false only for least squares).

        Downstream code uses this to warn before pairing the unbounded
        square-loss score with noise that has no second moment.
        """
        return self.family != LEAST_SQUARES

    def score_bound(self, b: float) -> float:
        """sup over z of |effective_score(z; b)|; infinite for least squares."""
        if self.family == LEAST_SQUARES:
            return np.inf
        if self.family == HUBER:
            return b * self.gamma
        if self.family == ABSOLUTE:
            return b
        return b * max(self.tau_q, 1.0 - self.tau_q)


def least_squares() -> LossSpec:
    return LossSpec(LEAST_SQUARES)


def huber(gamma: float = 1.0) -> LossSpec:
    return LossSpec(HUBER, gamma=gamma)


def absolute() -> LossSpec:
    return LossSpec(ABSOLUTE)


def quantile(tau_q: float) -> LossSpec:
    return LossSpec(QUANTILE, tau_q=tau_q)


def _check_b(b) -> None:
    if not np.all(np.asarray(b) > 0):
        raise ValueError("proximal scale b must be positive")


def _maybe_scalar(out: np.ndarray):
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the four kernels
# ---------------------------------------------------------------------------

def loss_value(spec: LossSpec, x):
    """Evaluate rho(x). Nonnegative, convex, zero at the origin."""
    x = np.asarray(x, dtype=float)
    if spec.family == LEAST_SQUARES:
        out = 0.5 * x ** 2
    elif spec.family == HUBER:
        g = spec.gamma
        out = np.where(np.abs(x) <= g, 0.5 * x ** 2, g * np.abs(x) - 0.5 * g ** 2)
    elif spec.family == ABSOLUTE:
        out = np.abs(x)
    else:
        t = spec.tau_q
        # t*max(x,0) + (1-t)*max(-x,0), the usual pinball loss
        out = np.where(x >= 0.0, t * x, (t - 1.0) * x)
    return _maybe_scalar(out)


def prox(spec: LossSpec, z, b):
    """Closed-form minimizer of b*rho(u) + 0.5*(u - z)^2 over u.

    Inputs
    ------
    z : point(s) at which the map is evaluated
    b : positive proximal scale

    The minimizer is unique because rho is convex and the quadratic is
    strict. It satisfies z - u in b*rho'(u) (subgradient sense at kinks).
    """
    _check_b(b)
    z = np.asarray(z, dtype=float)
    if spec.family == LEAST_SQUARES:
        out = z / (1.0 + b)
    elif spec.family == HUBER:
        k = (1.0 + b) * spec.gamma
        out = np.where(np.abs(z) <= k, z / (1.0 + b), z - b * spec.gamma * np.sign(z))
    elif spec.family == ABSOLUTE:
        out = np.asarray(soft_threshold(z, b))
    else:
        t = spec.tau_q
        hi = b * t
        lo = b * (t - 1.0)
        out = np.where(z > hi, z - hi, np.where(z < lo, z - lo, 0.0))
    return _maybe_scalar(out)


def effective_score(spec: LossSpec, z, b):
    """Phi(z; b) = b * rho'(prox(z, b)), written out piecewise per family.

    Coincides with z - prox(spec, z, b); the tests check that identity.
    """
    _check_b(b)
    z = np.asarray(z, dtype=float)
    if spec.family == LEAST_SQUARES:
        out = (b / (1.0 + b)) * z
    elif spec.family == HUBER:
        g = spec.gamma
        k = (1.0 + b) * g
        out = np.where(np.abs(z) <= k, (b / (1.0 + b)) * z, b * g * np.sign(z))
    elif spec.family == ABSOLUTE:
        out = np.clip(z, -b, b)
    else:
        t = spec.tau_q
        out = np.clip(z, b * (t - 1.0), b * t)
    return _maybe_scalar(out)


def effective_score_deriv(spec: LossSpec, z, b):
    """d/dz of the effective score.

    Piecewise constant for every family. At a kink of Phi (for example
    |z| = b under the absolute loss) the average of the left and right
    derivatives is returned, the same symmetric tie treatment the
    calibration step uses for its bracketing rule.
    """
    _check_b(b)
    z = np.asarray(z, dtype=float)
    if spec.family == LEAST_SQUARES:
        out = np.full_like(z, b / (1.0 + b))
    elif spec.family == HUBER:
        k = (1.0 + b) * spec.gamma
        c = b / (1.0 + b)
        a = np.abs(z)
        out = np.where(a < k, c, np.where(a > k, 0.0, 0.5 * c))
    elif spec.family == ABSOLUTE:
        a = np.abs(z)
        out = np.where(a < b, 1.0, np.where(a > b, 0.0, 0.5))
    else:
        t = spec.tau_q
        hi = b * t
        lo = b * (t - 1.0)
        inside = (z > lo) & (z < hi)
        at_kink = (z == lo) | (z == hi)
        out = np.where(inside, 1.0, np.where(at_kink, 0.5, 0.0))
    return _maybe_scalar(out)


def soft_threshold(x, theta):
    """eta(x; theta): shrink x toward zero by theta with a closed dead zone.

    Returns x - theta for x > theta, x + theta for x < -theta, else 0.
    Points with |x| exactly equal to theta land in the dead zone.
    Elementwise in both arguments; theta must be nonnegative.
    """
    if np.any(np.asarray(theta) < 0):
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)
    return _maybe_scalar(out)

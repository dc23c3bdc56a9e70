"""Per-iteration calibration of the proximal scale b.

Each pass of the solver re-fits b on the current adjusted residuals z so
that the average derivative of the effective score matches the target
slope s/n, the empirical form of the equation state evolution solves for
the population. `calibrate` solves it exactly for every loss: least
squares in closed form, the others through u_i (`_window_u`), with z_i
inside the score window exactly when u_i < b. The root is then an order
statistic of u for the kinked-score losses (absolute, quantile;
`calibrate_nonsmooth`), and is found by one walk over the sorted u for
Huber (`calibrate_smooth`). `solve_increasing`, safeguarded Newton on
log b, solves the population equation for state evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import losses
from .gauss import norm_pdf
from .losses import LossSpec
# unused here, but the benchmark tracer in perfbench/ wraps it by this name
from .losses import effective_score_deriv

SMOOTH_FAMILIES = (losses.LEAST_SQUARES, losses.HUBER)
KINKED_FAMILIES = (losses.ABSOLUTE, losses.QUANTILE)


class CalibrationError(RuntimeError):
    """Raised when the slope equation has no root on the search range.

    Carries the outermost points searched and the slope values there, so
    callers can see on which side the target was missed.
    """

    def __init__(self, message, grid_lo=None, grid_hi=None, value_lo=None, value_hi=None):
        super().__init__(message)
        self.grid_lo = grid_lo
        self.grid_hi = grid_hi
        self.value_lo = value_lo
        self.value_hi = value_hi


@dataclass(frozen=True, eq=False)
class CalibrationTarget:
    """Target slope s/n together with the loss and the residuals to fit on."""

    slope: float
    loss: LossSpec
    residuals: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.slope < 1.0:
            raise ValueError("slope must lie strictly inside (0, 1); requires 0 < s < n")
        z = np.atleast_1d(np.asarray(self.residuals, dtype=float))
        if z.ndim != 1 or z.size == 0:
            raise ValueError("residuals must be a nonempty vector")
        object.__setattr__(self, "residuals", z)


# The density estimate below and `plugin_slope_curve` are no longer on any
# calibration path. The benchmark tracer in perfbench/ wraps them by name,
# so they stay until it stops doing so.

@dataclass(frozen=True)
class DensityEstimate:
    """A pointwise-evaluable density estimate fitted on one residual vector.

    eval maps points to density values (vectorized). The two regime flags
    record whether the bandwidth is within an order of magnitude of the
    n^(-1/5) reference rate, i.e. small enough to shrink and large enough
    that n*h still grows.
    """

    eval: Callable
    bandwidth_h: float
    sample_size: int
    degenerate: bool = False
    h_shrinks: bool = True
    nh_grows: bool = True


def _silverman_h(z: np.ndarray) -> float:
    sigma = float(np.std(z, ddof=1)) if z.size > 1 else 0.0
    return 1.06 * sigma * z.size ** (-0.2)


def kde(residuals, bandwidth_h: Optional[float] = None, method: str = "kernel") -> DensityEstimate:
    """Fit a density estimate on the residuals.

    Inputs
    ------
    residuals   : sample of size >= 2
    bandwidth_h : positive bandwidth; Silverman's 1.06*sigma*n^(-1/5) when None
    method      : "kernel" for the Gaussian smoother (default; evaluable
                  anywhere), or
                  "window" for the symmetric ECDF difference quotient with
                  half-width h/sqrt(n)

    A degenerate sample (zero spread) yields a spike estimate and sets the
    degenerate flag instead of failing.
    """
    z = np.atleast_1d(np.asarray(residuals, dtype=float))
    if z.size < 2:
        raise ValueError("need at least two residuals for a density estimate")
    n = z.size
    h_ref = _silverman_h(z)
    degenerate = h_ref == 0.0
    if bandwidth_h is None:
        h = h_ref if not degenerate else 1e-6
    else:
        if bandwidth_h <= 0:
            raise ValueError("bandwidth must be positive")
        h = float(bandwidth_h)

    if method == "kernel":
        def evaluate(x, _z=z, _h=h):
            x = np.asarray(x, dtype=float)
            flat = np.atleast_1d(x)
            out = np.empty_like(flat)
            # chunk the evaluation grid so the pairwise matrix stays small
            for start in range(0, flat.size, 64):
                block = flat[start:start + 64]
                out[start:start + 64] = norm_pdf(
                    (block[:, None] - _z[None, :]) / _h).mean(axis=1) / _h
            return out.reshape(x.shape) if x.ndim else float(out[0])
    elif method == "window":
        zs = np.sort(z)
        eps = h / np.sqrt(n)

        def evaluate(x, _zs=zs, _eps=eps, _n=n):
            x = np.asarray(x, dtype=float)
            hi = np.searchsorted(_zs, x + _eps, side="right")
            lo = np.searchsorted(_zs, x - _eps, side="right")
            out = (hi - lo) / (2.0 * _eps * _n)
            return out if x.ndim else float(out)
    else:
        raise ValueError(f"unknown density method {method!r}")

    if degenerate:
        h_shrinks, nh_grows = False, False
    else:
        h_shrinks = h <= 10.0 * h_ref
        nh_grows = h >= 0.1 * h_ref
    return DensityEstimate(eval=evaluate, bandwidth_h=h, sample_size=n,
                           degenerate=degenerate, h_shrinks=h_shrinks, nh_grows=nh_grows)


# ---------------------------------------------------------------------------
# population root finder
# ---------------------------------------------------------------------------

_LOG10_LIMIT = 12
_LOG10_XTOL = 1e-13
_MAX_NEWTON_EVALS = 200


def solve_increasing(curve: Callable, target: float, start: Optional[float] = None) -> float:
    """Root b of the nondecreasing map b -> curve(b) = target.

    curve(b) returns (value, d value / d b). The root is found by
    safeguarded Newton steps on log10 b, starting from `start` (b = 1 when
    None), the natural choice when a nearby root is known from a previous
    solve. Every evaluated point narrows a bracket around the root. A
    Newton step that leaves the bracket, or (once both ends are known) is
    longer than half the step before last, is replaced by bisection on
    log10 b; while one side of the bracket is still unknown, the
    replacement moves a decade outward from the known side instead, up to
    the limits [1e-12, 1e12]. Newton stops once a step is below 1e-13 on
    log10 b. Where the map steps across the target without touching it
    (a zero derivative gives no Newton step), bisection returns the jump
    point.

    An unreachable target raises CalibrationError carrying the outermost
    points evaluated and the curve values there.
    """
    limit, ln10 = _LOG10_LIMIT, math.log(10.0)
    u = 0.0 if start is None else min(max(math.log10(start), -limit), limit)
    lo = hi = None                 # (u, value) of the bracket ends so far
    outer_lo = outer_hi = None     # (u, value) of the outermost points
    step = step_old = 2.0 * limit
    for _ in range(_MAX_NEWTON_EVALS):
        b = 10.0 ** u
        f, df = curve(b)
        g = f - target
        if g == 0.0:
            return b
        if g < 0.0:
            lo = (u, f)
        else:
            hi = (u, f)
        if outer_lo is None or u < outer_lo[0]:
            outer_lo = (u, f)
        if outer_hi is None or u > outer_hi[0]:
            outer_hi = (u, f)
        a = -limit if lo is None else lo[0]
        c = limit if hi is None else hi[0]
        newton = u - g / (df * b * ln10) if df > 0.0 else math.nan
        step_older, step_old = step_old, step
        if a < newton < c and (lo is None or hi is None
                               or abs(newton - u) <= 0.5 * abs(step_older)):
            u_next = newton
        elif lo is not None and hi is not None:
            u_next = 0.5 * (a + c)
        elif lo is not None and a < limit:
            u_next = min(a + 1, limit)
        elif hi is not None and c > -limit:
            u_next = max(c - 1, -limit)
        else:
            break
        step = u_next - u
        if abs(step) <= _LOG10_XTOL:
            return 10.0 ** u_next
        u = u_next
    lo_b, hi_b = 10.0 ** outer_lo[0], 10.0 ** outer_hi[0]
    missed = "not bracketed" if lo is None or hi is None else "not settled"
    raise CalibrationError(
        f"slope {target} {missed} on [{lo_b:g}, {hi_b:g}]",
        grid_lo=lo_b, grid_hi=hi_b, value_lo=outer_lo[1], value_hi=outer_hi[1])


# ---------------------------------------------------------------------------
# empirical calibration: exact roots on a finite sample
# ---------------------------------------------------------------------------

def _window_u(loss: LossSpec, z: np.ndarray) -> np.ndarray:
    """u_i such that z_i lies inside the score window exactly when u_i < b.

    |z_i|/gamma - 1 for Huber, whose window is |z| < (1 + b) gamma; |z_i|
    for the absolute loss; z_i/tau when z_i > 0 and z_i/(tau - 1)
    otherwise for quantile(tau).
    """
    if loss.family == losses.HUBER:
        return np.abs(z) / loss.gamma - 1.0
    if loss.family == losses.ABSOLUTE:
        return np.abs(z)
    t = loss.tau_q
    return np.where(z > 0.0, z / t, z / (t - 1.0))


def calibrate_smooth(target: CalibrationTarget) -> float:
    """Solve mean_i d1Phi(z_i; b) = slope exactly for the smooth-score losses.

    Least squares has the closed form slope/(1 - slope). For Huber, with
    u = `_window_u` sorted, j residuals are inside the window for b between
    u_(j) and u_(j+1), where the average derivative is b/(1+b) j/n and
    crosses the slope at b_j = slope/(j/n - slope) (for j/n > slope). The
    first j whose b_j is at or below u_(j+1) holds the root: b_j when
    b_j > u_(j), and otherwise the jump point u_(j), where the map steps
    across the slope. That is the tie rule b = (b_minus + b_plus)/2 with
    both sides meeting at the step. The map reaches every slope below 1,
    so there is always a root.
    """
    if target.loss.family not in SMOOTH_FAMILIES:
        raise ValueError("calibrate_smooth handles least-squares and huber losses only")
    z, slope = target.residuals, target.slope

    if target.loss.family == losses.LEAST_SQUARES:
        # the derivative b/(1+b) does not depend on z, so the root is exact
        return slope / (1.0 - slope)
    n = z.size
    frac = np.arange(1, n + 1) / n
    first = int(np.searchsorted(frac, slope, side="right"))  # frac[first:] > slope
    u = np.sort(_window_u(target.loss, z))
    roots = slope / (frac[first:] - slope)        # b_j for j = first + 1 .. n
    upper = np.append(u[first + 1:], np.inf)      # u_(j + 1)
    k = int(np.argmax(roots <= upper))            # j = n always qualifies
    return float(max(roots[k], u[first + k]))


# ---------------------------------------------------------------------------
# kinked-score calibration: exact order statistic
# ---------------------------------------------------------------------------

def plugin_slope_curve(loss: LossSpec, b_grid, cdf: Callable, pdf: Callable):
    """Plug-in estimate of E[d1Phi(z; b)] as a curve over b.

    For the absolute loss the estimate is F(b) - F(-b) - b(f(b) + f(-b));
    the quantile version evaluates the window [b(tau-1), b*tau] instead.
    cdf/pdf may be empirical (ECDF + density estimate) or exact functions,
    which is how the tests pin the equations against analytic roots.
    """
    b = np.asarray(b_grid, dtype=float)
    if loss.family == losses.ABSOLUTE:
        return cdf(b) - cdf(-b) - b * (pdf(b) + pdf(-b))
    if loss.family == losses.QUANTILE:
        t = loss.tau_q
        hi = b * t
        lo = b * (t - 1.0)
        return cdf(hi) - cdf(lo) - hi * pdf(hi) + lo * pdf(lo)
    raise ValueError("plug-in calibration applies to absolute and quantile losses only")


def calibrate_nonsmooth(target: CalibrationTarget) -> float:
    """Solve mean_i d1Phi(z_i; b) = slope exactly for kinked-score losses.

    Each residual maps to u_i >= 0 with z_i inside the score window exactly
    when u_i < b (`_window_u`). The average derivative is then #{u_i < b}/n (edges count 1/2), a step map in b.
    With j the smallest count with j/n >= slope, the root follows the tie
    rule b = (b_minus + b_plus)/2 of `calibrate_smooth`: the midpoint
    (u_(j) + u_(j+1))/2 of the flat step when j/n equals the slope, which
    puts exactly j residuals inside, and the jump point u_(j) otherwise.

    Residuals that are exactly zero lie inside every window. When they
    alone make up more than the slope (more than s of n for slope s/n),
    the root is b = 0 and CalibrationError is raised, with grid_lo = 0 and
    value_lo the share of zeros, the least slope any b > 0 gives.
    """
    if target.loss.family not in KINKED_FAMILIES:
        raise ValueError("calibrate_nonsmooth handles absolute and quantile losses only")
    z, slope = target.residuals, target.slope
    n = z.size
    u = _window_u(target.loss, z)
    # smallest j with j/n >= slope, compared in floats: slope = s/n gives j = s
    j = math.ceil(slope * n)
    while j / n < slope:
        j += 1
    while (j - 1) / n >= slope:
        j -= 1
    if j / n == slope:
        part = np.partition(u, (j - 1, j))
        b = 0.5 * (part[j - 1] + part[j])
    else:
        b = np.partition(u, j - 1)[j - 1]
    if not b > 0.0:
        zeros = int(np.count_nonzero(u == 0.0))
        raise CalibrationError(
            f"slope {slope} not reached for any b > 0: {zeros} of {n} residuals "
            f"are exactly zero and lie inside every window",
            grid_lo=0.0, value_lo=zeros / n)
    return float(b)


def calibrate(target: CalibrationTarget) -> float:
    """Exact root of mean_i d1Phi(z_i; b) = slope, by score smoothness."""
    if target.loss.family in SMOOTH_FAMILIES:
        return calibrate_smooth(target)
    return calibrate_nonsmooth(target)

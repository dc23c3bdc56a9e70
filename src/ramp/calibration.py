"""Per-iteration calibration of the proximal scale b.

Each pass of the solver re-fits b on the current adjusted residuals z so
that the average derivative of the effective score matches the target
slope s/n, the empirical form of the equation state evolution solves for
the population. With the loss constants (kappa, e_lo, e_hi) of
`losses.score_shape`, that average is c(b) = b/(kappa + b) times the share
of residuals inside the score window, and z_i is inside exactly when
u_i = z_i/e - kappa < b, with e = e_hi for z_i > 0 and e_lo otherwise
(`losses.window_u`). `calibrate` solves the equation exactly for every
loss: in closed form for least squares, whose window is the whole line; by
one walk over the sorted u when kappa > 0 (Huber, `calibrate_smooth`); and
as an order statistic of u when kappa = 0, where c = 1 (the kinked
absolute and quantile losses, `calibrate_nonsmooth`). `solve_increasing`,
safeguarded Newton on log b, solves the population equation for state
evolution; it returns the root together with a second curve at it,
E Phi^2 for state evolution. Its steps are Halley's wherever Halley's
correction to Newton's step is small. It stops on the point it evaluated
last, or, when its next Halley step moves b by a relative cbrt(1e-13)/2
or less, takes that step unevaluated and carries the second curve there
to second order, within the order of the step's cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import losses
from .gauss import norm_pdf
from .losses import LossSpec, window_u
# unused here, but the benchmark tracer in perfbench/ wraps it by this name
from .losses import effective_score_deriv


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
        z = np.asarray(self.residuals, dtype=float)
        if z.ndim == 0:
            z = z.reshape(1)
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
# a Halley step this short moves b by a relative cbrt(_LOG10_XTOL)/2, so the
# error it leaves, of order its cube, is within the stop above
_LOG10_LAST_STEP = 0.5 * _LOG10_XTOL ** (1.0 / 3.0) / math.log(10.0)
_MAX_NEWTON_EVALS = 200


def solve_increasing(curve: Callable, target: float, start: Optional[float] = None):
    """Root b of the nondecreasing map b -> f(b) = target, and g at b.

    curve(b) returns (f, df/db, g, dg/db, d2f/db2, d2g/db2): the map f, and
    a second curve g that rides along, so a caller that needs g at the
    root reads it from the result instead of evaluating again. Returns
    (b, g(b)). The root is found by safeguarded Newton steps on log10 b,
    starting from `start` (b = 1 when None), the natural choice when a
    nearby root is known from a previous solve. Every evaluated point
    narrows a bracket around the root. A step that leaves the bracket, or
    (once both ends are known) is longer than half the step before last,
    is replaced by bisection on log10 b; while one side of the bracket is
    still unknown, the replacement moves a decade outward from the known
    side instead, up to the limits [1e-12, 1e12].

    The step is Halley's, Newton's step n = -F/F' on F(u) = f(10^u) - target
    shortened to n/(1 + n F''/(2 F')), whenever its correction is small,
    |n F''/F'| <= 1/2; otherwise it is Newton's. Halley's error after a
    step is of the order of the step's cube, Newton's of its square.

    Two rules stop the search. When the next step would be below 1e-13 on
    log10 b, it returns the point it evaluated last, with g there. When the
    next step is a Halley step inside the bracket that moves b by a
    relative cbrt(1e-13)/2 or less (about 1.0e-5 on log10 b), it takes that
    step without evaluating the curve: the error left is of the order of
    the step's cube, within the first stop. It returns the stepped b and g
    carried there to second order, g + dg/db db + d2g/db2 db^2/2, whose own
    error is of the same order, |d3g/db3| |db|^3/6: at most 2.1e-15
    relative when b^3 |d3g/db3|/g is at most 1. Where the map steps
    across the target without touching it (a zero derivative gives no
    Newton step), bisection returns the jump point.

    An unreachable target raises CalibrationError carrying the outermost
    points evaluated and the curve values there.
    """
    limit, ln10 = _LOG10_LIMIT, math.log(10.0)
    u = 0.0 if start is None else min(max(math.log10(start), -limit), limit)
    lo = hi = None                 # (u, f) of the bracket ends so far
    outer_lo = outer_hi = None     # (u, f) of the outermost points
    step = step_old = 2.0 * limit
    for _ in range(_MAX_NEWTON_EVALS):
        b = 10.0 ** u
        f, df, g, dg, d2f, d2g = curve(b)
        gap = f - target
        if gap == 0.0:
            return b, g
        if gap < 0.0:
            lo = (u, f)
        else:
            hi = (u, f)
        if outer_lo is None or u < outer_lo[0]:
            outer_lo = (u, f)
        if outer_hi is None or u > outer_hi[0]:
            outer_hi = (u, f)
        a = -limit if lo is None else lo[0]
        c = limit if hi is None else hi[0]
        halley = False
        if df > 0.0:
            newton = -gap / (df * b * ln10)
            # n F''/F', with F''/F' = ln10 (1 + b f''/f') on u = log10 b
            correction = newton * ln10 * (1.0 + b * d2f / df)
            halley = abs(correction) <= 0.5
            if halley:
                newton /= 1.0 + 0.5 * correction
            newton += u
        else:
            newton = math.nan
        step_older, step_old = step_old, step
        take_newton = a < newton < c and (lo is None or hi is None
                                          or abs(newton - u) <= 0.5 * abs(step_older))
        if take_newton:
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
            return b, g
        if halley and take_newton and abs(step) <= _LOG10_LAST_STEP:
            b_next = 10.0 ** u_next
            db = b_next - b
            return b_next, g + db * (dg + 0.5 * db * d2g)
        u = u_next
    lo_b, hi_b = 10.0 ** outer_lo[0], 10.0 ** outer_hi[0]
    missed = "not bracketed" if lo is None or hi is None else "not settled"
    raise CalibrationError(
        f"slope {target} {missed} on [{lo_b:g}, {hi_b:g}]",
        grid_lo=lo_b, grid_hi=hi_b, value_lo=outer_lo[1], value_hi=outer_hi[1])


# ---------------------------------------------------------------------------
# empirical calibration: exact roots on a finite sample
# ---------------------------------------------------------------------------

def _step_count(slope: float, n: int) -> int:
    """Smallest j with j/n >= slope, compared in floats: slope = s/n gives j = s."""
    j = math.ceil(slope * n)
    while j / n < slope:
        j += 1
    while (j - 1) / n >= slope:
        j -= 1
    return j


def calibrate_smooth(target: CalibrationTarget) -> float:
    """Solve mean_i d1Phi(z_i; b) = slope exactly for the losses with kappa > 0.

    Least squares, whose window is the whole line, has the closed form
    b = kappa slope/(1 - slope). Otherwise, with u = `window_u` sorted, j
    residuals are inside the window for b between u_(j) and u_(j+1), where
    the average derivative is b/(kappa + b) j/n and crosses the slope at
    b_j = kappa slope/(j/n - slope) (for j/n > slope). The first j whose
    b_j is at or below u_(j+1) holds the root: b_j when b_j > u_(j), and
    otherwise the jump point u_(j), where the map steps across the slope.
    That is the tie rule b = (b_minus + b_plus)/2 with both sides meeting
    at the step. The map reaches every slope below 1, so there is always a
    root.
    """
    kappa, _, e_hi = losses.score_shape(target.loss)
    if kappa == 0.0:
        raise ValueError("calibrate_smooth handles least-squares and huber losses only")
    z, slope = target.residuals, target.slope

    if math.isinf(e_hi):
        # the derivative b/(kappa + b) does not depend on z, so the root is exact
        return kappa * slope / (1.0 - slope)
    n = z.size
    j = _step_count(slope, n)
    first = j if j / n == slope else j - 1        # (first + 1)/n > slope
    u = window_u(target.loss, z)
    u.sort()
    roots = kappa * slope / (np.arange(first + 1, n + 1) / n - slope)   # b_j, j > first
    upper = np.concatenate((u[first + 1:], (np.inf,)))   # u_(j + 1)
    k = int((roots <= upper).argmax())            # j = n always qualifies
    return float(max(roots[k], u[first + k]))


# ---------------------------------------------------------------------------
# kinked-score calibration: exact order statistic
# ---------------------------------------------------------------------------

def plugin_slope_curve(loss: LossSpec, b_grid, cdf: Callable, pdf: Callable):
    """Plug-in estimate of E[d1Phi(z; b)] as a curve over b, for kappa = 0.

    With the window edges lo = b e_lo and hi = b e_hi the estimate is
    F(hi) - F(lo) - hi f(hi) + lo f(lo); for the absolute loss that is
    F(b) - F(-b) - b(f(b) + f(-b)). cdf/pdf may be empirical (ECDF +
    density estimate) or exact functions, which is how the tests pin the
    equations against analytic roots.
    """
    kappa, e_lo, e_hi = losses.score_shape(loss)
    if kappa != 0.0:
        raise ValueError("plug-in calibration applies to absolute and quantile losses only")
    b = np.asarray(b_grid, dtype=float)
    lo, hi = b * e_lo, b * e_hi
    return cdf(hi) - cdf(lo) - hi * pdf(hi) + lo * pdf(lo)


def calibrate_nonsmooth(target: CalibrationTarget) -> float:
    """Solve mean_i d1Phi(z_i; b) = slope exactly for the losses with kappa = 0.

    Each residual maps to u_i >= 0 with z_i inside the score window exactly
    when u_i < b (`window_u`). With c = 1 the average derivative is
    #{u_i < b}/n (edges count 1/2), a step map in b.
    With j the smallest count with j/n >= slope, the root follows the tie
    rule b = (b_minus + b_plus)/2 of `calibrate_smooth`: the midpoint
    (u_(j) + u_(j+1))/2 of the flat step when j/n equals the slope, which
    puts exactly j residuals inside, and the jump point u_(j) otherwise.

    Residuals that are exactly zero lie inside every window. When they
    alone make up more than the slope (more than s of n for slope s/n),
    the root is b = 0 and CalibrationError is raised, with grid_lo = 0 and
    value_lo the share of zeros, the least slope any b > 0 gives.
    """
    if losses.score_shape(target.loss).kappa != 0.0:
        raise ValueError("calibrate_nonsmooth handles absolute and quantile losses only")
    z, slope = target.residuals, target.slope
    n = z.size
    u = window_u(target.loss, z)
    j = _step_count(slope, n)
    # u is this call's own array, so it is partitioned in place
    if j / n == slope:
        u.partition((j - 1, j))
        b = 0.5 * (u[j - 1] + u[j])
    else:
        u.partition(j - 1)
        b = u[j - 1]
    if not b > 0.0:
        zeros = int(np.count_nonzero(u == 0.0))
        raise CalibrationError(
            f"slope {slope} not reached for any b > 0: {zeros} of {n} residuals "
            f"are exactly zero and lie inside every window",
            grid_lo=0.0, value_lo=zeros / n)
    return float(b)


def calibrate(target: CalibrationTarget) -> float:
    """Exact root of mean_i d1Phi(z_i; b) = slope, by whether kappa > 0."""
    if losses.score_shape(target.loss).kappa > 0.0:
        return calibrate_smooth(target)
    return calibrate_nonsmooth(target)

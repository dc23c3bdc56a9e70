"""Robust AMP iteration for l1-penalized M-estimation.

Each pass rebuilds the adjusted residual with its memory correction,
recalibrates the score scale b on those residuals, rescales the score by
n/s, estimates the effective noise level from its empirical second moment,
and soft-thresholds the matched-filter update. The threshold is alpha times
the estimated level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import CalibrationTarget, calibrate
from .losses import effective_score, soft_threshold

class DivergenceError(RuntimeError):
    """Raised when an iterate or the estimated residual scale stops being finite."""

    def __init__(self, iteration, message=None):
        super().__init__(message or f"iterate diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class ProblemInstance:
    """Design matrix, response, and the sparsity budget driving calibration."""

    A: np.ndarray
    y: np.ndarray
    s: int
    x_true: Optional[np.ndarray] = None

    def __post_init__(self):
        # C order for both, so the products of a pass, and so every result,
        # do not depend on how the caller laid out A
        A = np.ascontiguousarray(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        n, p = A.shape
        y = np.ascontiguousarray(self.y, dtype=float)
        if y.shape != (n,):
            raise ValueError(f"y must have shape ({n},), got {y.shape}")
        if not 0 < self.s < n:
            raise ValueError("need 0 < s < n")
        if self.s > p:
            raise ValueError("sparsity cannot exceed the number of columns")
        if self.x_true is not None:
            x = np.asarray(self.x_true, dtype=float)
            if x.shape != (p,):
                raise ValueError(f"x_true must have shape ({p},)")
            object.__setattr__(self, "x_true", x)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.A.shape[1]

    @property
    def delta(self):
        return self.n / self.p

    @property
    def omega(self):
        return self.s / self.p

    @property
    def slope(self):
        return self.s / self.n


def check_budget(tol, max_iter):
    """Reject a stopping tolerance that is not positive and finite, or an
    iteration cap below 1; SolverConfig and SeConfig both check here."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be {'finite' if tol > 0 else 'positive'}, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    tol: float = 1e-6
    max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        check_budget(self.tol, self.max_iter)


@dataclass(frozen=True)
class RampState:
    """Everything iteration t leaves behind.

    x is the estimate produced at this pass, z the adjusted residual it was
    built from, score the rescaled effective score of z, and onsager_frac
    the exact nonzero fraction of x that the next residual correction uses.
    """

    t: int
    x: np.ndarray
    z: np.ndarray
    b: float
    theta: float
    tau_hat_sq: float
    score: np.ndarray
    onsager_frac: float


@dataclass(frozen=True)
class RampResult:
    state: RampState
    trace: tuple
    converged: bool

    @property
    def x(self):
        return self.state.x

    @property
    def iterations(self):
        """The number of passes, counting the bootstrap pass: the number of
        trace rows, one more than the last row's t. `state_evolution.SeResult`
        counts the other way: its iterations is the t of its last row and
        leaves out the start row, so for the same number of rows it reads
        one less."""
        return len(self.trace)


def rescaled_score(loss, z, b, slope):
    """Effective score scaled by n/s so its derivative averages to one."""
    score = effective_score(loss, z, b)
    # in place on the new array; a scalar score rebinds
    score /= slope
    return score


def lambda_of_theta(theta, b, delta, omega):
    """Penalty level the threshold theta corresponds to at score scale b."""
    if not b > 0:
        raise ValueError("b must be positive")
    return theta * omega / (b * delta)


def _mean_square(v):
    """np.mean(v * v) without numpy's Python wrapper: the same pairwise sum."""
    sq = v * v
    return float(np.add.reduce(sq) / sq.size)


def _advance(inst, loss, config, t, x_prev, z):
    """Calibrate on z, threshold the matched-filter update, package the state."""
    if not np.isfinite(z).all():
        raise DivergenceError(t)
    b = calibrate(CalibrationTarget(inst.slope, loss, z))
    score = rescaled_score(loss, z, b, inst.slope)
    # overflow to inf is how runaway scales get detected, so keep it quiet
    with np.errstate(over="ignore"):
        tau_hat_sq = _mean_square(score)
    if not math.isfinite(tau_hat_sq):
        raise DivergenceError(t)
    theta = config.alpha * math.sqrt(tau_hat_sq)
    update = inst.A.T @ score
    update += x_prev
    x = soft_threshold(update, theta)
    if not np.isfinite(x).all():
        raise DivergenceError(t)
    frac = np.count_nonzero(x) / inst.p
    return RampState(t=t, x=x, z=z, b=b, theta=theta,
                     tau_hat_sq=tau_hat_sq, score=score, onsager_frac=frac)


def initial_state(inst, loss, config):
    """Bootstrap pass: zero estimate, raw residual, no memory correction."""
    return _advance(inst, loss, config, 0, np.zeros(inst.p), inst.y.copy())


def ramp_step(inst, loss, config, state):
    """One full pass from the state of iteration t to that of t + 1."""
    # y - A x + (frac/delta) score, built in one new array
    z = inst.A @ state.x
    np.subtract(inst.y, z, out=z)
    z += (state.onsager_frac / inst.delta) * state.score
    return _advance(inst, loss, config, state.t + 1, state.x, z)


# the entries of a trace row, in order
TRACE_COLUMNS = ("t", "b", "theta", "tau_sq", "mse")


def _trace_row(state, inst):
    if inst.x_true is None:
        mse = math.nan
    else:
        mse = _mean_square(state.x - inst.x_true)
    return (state.t, state.b, state.theta, state.tau_hat_sq, mse)


def run_ramp(inst, loss, config):
    """Iterate to convergence of the estimated residual scale."""
    state = initial_state(inst, loss, config)
    rows = [_trace_row(state, inst)]
    converged = False
    prev_tau = math.sqrt(state.tau_hat_sq)
    for _ in range(config.max_iter):
        state = ramp_step(inst, loss, config, state)
        rows.append(_trace_row(state, inst))
        tau = math.sqrt(state.tau_hat_sq)
        if abs(tau - prev_tau) < config.tol:
            converged = True
            break
        prev_tau = tau
    return RampResult(state=state, trace=tuple(rows), converged=converged)

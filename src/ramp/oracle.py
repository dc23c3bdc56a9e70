"""Direct minimization of the penalized objective on small instances.

This is a test oracle, not a production solver: it trades speed for
simplicity and a checkable certificate. Smooth data terms (least squares,
Huber) run proximal gradient with backtracking, which is monotone in the
objective and certifies optimality through the analytic subgradient.
The kinked data terms run a proximal-subgradient loop with Polyak-style
steps and certify stationarity by probing the objective along every
coordinate direction instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import (
    ABSOLUTE,
    HUBER,
    LEAST_SQUARES,
    LossSpec,
    loss_value,
    soft_threshold,
)

_SMOOTH = (LEAST_SQUARES, HUBER)


@dataclass(frozen=True)
class OracleResult:
    x_hat: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int


def loss_grad(spec: LossSpec, r):
    """A subgradient of rho at r, elementwise (0 picked at kinks)."""
    r = np.asarray(r, dtype=float)
    if spec.family == LEAST_SQUARES:
        return r
    if spec.family == HUBER:
        return np.clip(r, -spec.gamma, spec.gamma)
    if spec.family == ABSOLUTE:
        return np.sign(r)
    t = spec.tau_q
    return np.where(r > 0.0, t, np.where(r < 0.0, t - 1.0, 0.0))


def penalized_objective(inst, loss, lam, x):
    r = inst.y - inst.A @ x
    return float(np.sum(loss_value(loss, r)) + lam * np.sum(np.abs(x)))


def _directional_residual(inst, loss, lam, x, h):
    """Largest per-coordinate descent rate found by probing x +- h e_j.

    On the piecewise-linear objectives this finite difference is exact as
    long as h stays below the distance to the nearest kink, which makes it
    an honest stationarity certificate for the kinked data terms.
    """
    r = inst.y - inst.A @ x
    base_fit = float(np.sum(loss_value(loss, r)))
    fit_plus = np.sum(loss_value(loss, r[:, None] - h * inst.A), axis=0)
    fit_minus = np.sum(loss_value(loss, r[:, None] + h * inst.A), axis=0)
    pen = np.abs(x)
    d_plus = (fit_plus - base_fit) / h + lam * (np.abs(x + h) - pen) / h
    d_minus = (fit_minus - base_fit) / h + lam * (np.abs(x - h) - pen) / h
    return max(0.0, float(-np.minimum(d_plus, d_minus).min()))


def _solve_smooth(inst, loss, lam, tol, max_iter):
    A, y = inst.A, inst.y
    x = np.zeros(inst.p)
    # rho'' <= 1 for both smooth families, so the spectral norm squared
    # bounds the gradient Lipschitz constant; backtracking only shrinks it
    step = 1.0 / max(np.linalg.norm(A, 2) ** 2, 1e-12)
    for it in range(max_iter):
        r = y - A @ x
        fit = float(np.sum(loss_value(loss, r)))
        grad = -(A.T @ loss_grad(loss, r))
        resid = _kkt_from_grad(grad, lam, x)
        if resid <= tol:
            return OracleResult(x, fit + lam * float(np.sum(np.abs(x))),
                                resid, it)
        while True:
            cand = soft_threshold(x - step * grad, step * lam)
            d = cand - x
            quad = fit + float(grad @ d) + float(d @ d) / (2.0 * step)
            if float(np.sum(loss_value(loss, y - A @ cand))) <= quad + 1e-12:
                break
            step *= 0.5
        x = cand
    resid = _kkt_from_grad(-(A.T @ loss_grad(loss, y - A @ x)), lam, x)
    return OracleResult(x, penalized_objective(inst, loss, lam, x),
                        resid, max_iter)


def _kkt_from_grad(grad, lam, x):
    on = np.abs(x) > 0
    m_on = np.max(np.abs(-grad[on] - lam * np.sign(x[on]))) if on.any() else 0.0
    m_off = max(0.0, float(np.max(np.abs(grad[~on]))) - lam) if (~on).any() else 0.0
    return max(float(m_on), m_off)


def _solve_kinked(inst, loss, lam, tol, max_iter):
    A, y = inst.A, inst.y
    x = np.zeros(inst.p)
    best_x = x
    best_obj = penalized_objective(inst, loss, lam, x)
    # Polyak steps against a moving target: the objective is nonnegative,
    # so best-minus-margin is always a legal guess and the margin shrinks
    # whenever it proves too optimistic for a while
    margin = 0.05 * max(best_obj, 1.0)
    since_improved = 0
    check_every = 100
    resid = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        r = y - A @ x
        obj = float(np.sum(loss_value(loss, r))) + lam * float(np.sum(np.abs(x)))
        if obj < best_obj - 1e-14 * max(1.0, best_obj):
            best_obj, best_x = obj, x
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= 200:
                margin *= 0.5
                since_improved = 0
        g = -(A.T @ loss_grad(loss, r))
        gnorm_sq = float(g @ g) + inst.p * lam * lam
        target = max(best_obj - margin, 0.0)
        step = max(obj - target, 0.0) / gnorm_sq
        # keep single steps from teleporting once the gradient flattens out
        cap = 5.0 * (1.0 + float(np.linalg.norm(x))) / math.sqrt(gnorm_sq)
        step = min(step, cap)
        x = soft_threshold(x - step * g, step * lam)
        if it % check_every == 0:
            h = 1e-7 * (1.0 + float(np.max(np.abs(best_x))))
            resid = _directional_residual(inst, loss, lam, best_x, h)
            if resid <= tol:
                return OracleResult(best_x, best_obj, resid, it)
    h = 1e-7 * (1.0 + float(np.max(np.abs(best_x))))
    resid = _directional_residual(inst, loss, lam, best_x, h)
    return OracleResult(best_x, best_obj, resid, it)


def solve_penalized(inst, loss, lam, tol=None, max_iter=100_000):
    """Minimize sum of rho(y - Ax) plus lam * l1, certifying the result.

    tol defaults to 1e-4 * lam * sqrt(n). The returned kkt_residual is the
    certificate value actually achieved; when the iteration budget runs out
    first, the best iterate comes back with its residual above tol rather
    than an exception.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if tol is None:
        tol = 1e-4 * lam * math.sqrt(inst.n)

    # a zero fit certifies itself directly from the response
    g0 = inst.A.T @ loss_grad(loss, inst.y)
    if np.max(np.abs(g0)) <= lam:
        zero = np.zeros(inst.p)
        return OracleResult(zero, penalized_objective(inst, loss, lam, zero),
                            0.0, 0)

    if loss.family in _SMOOTH:
        return _solve_smooth(inst, loss, lam, tol, max_iter)
    return _solve_kinked(inst, loss, lam, tol, max_iter)


def check_oracle_distance(inst, loss, lam, ramp_result, tol=None):
    """Per-coordinate squared distance between an AMP run and the direct fit."""
    x_t = np.asarray(getattr(ramp_result, "x", ramp_result), dtype=float)
    if x_t.shape != (inst.p,):
        raise ValueError(f"estimate must have shape ({inst.p},), got {x_t.shape}")
    ref = solve_penalized(inst, loss, lam, tol=tol)
    diff = x_t - ref.x_hat
    return float(np.mean(diff * diff))

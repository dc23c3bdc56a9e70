"""Direct minimization of the penalized objective on small instances.

This is a test oracle, not a production solver: it trades speed for
simplicity and a checkable certificate. Smooth data terms (least squares,
Huber) run proximal gradient with backtracking, which is monotone in the
objective and certifies optimality through the analytic subgradient.
The kinked data terms (absolute, quantile) are a linear program
(Koenker & Bassett 1978): its dual is solved exactly by HiGHS on a
working set of columns, the fit comes back by complementary slackness,
and the certificate is the larger of the dual infeasibility and the
duality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .losses import (
    ABSOLUTE,
    HUBER,
    LEAST_SQUARES,
    LossSpec,
    loss_value,
    soft_threshold,
)

_SMOOTH = (LEAST_SQUARES, HUBER)
# working-set sizes of the kinked dual LP: the first round's columns, and
# the most any later round adds
_FIRST_COLUMNS = 64
_ADDED_COLUMNS = 32


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


def _restricted_dual(A_work, y, bound, tau):
    """Maximize y'u over u in [tau - 1, tau]^n with |A_work' u| <= bound."""
    res = optimize.milp(
        -y, bounds=optimize.Bounds(tau - 1.0, tau),
        constraints=optimize.LinearConstraint(A_work.T, -bound, bound))
    if res.status != 0:
        raise RuntimeError(f"HiGHS stopped with status {res.status} on the "
                           f"kinked dual LP: {res.message}")
    return res.x


def _primal_from_dual(A, y, u, excess, work, tau):
    """The fit that complementary slackness pairs with the dual vertex u.

    excess is |A'u| - bound per column, and work marks the columns the LP
    saw. A vertex of that LP has n active constraints, box faces and
    column rows; they are taken as the n nearest to u, in distance from u
    to each face, which stays right when HiGHS leaves active rows off by
    its feasibility tolerance. Off the active columns S the fit is zero,
    and every u_i off its box faces forces a zero residual, so x_S solves
    the square system A[Z, S] x_S = y_Z. At a nondegenerate vertex its
    solution is the primal optimum; otherwise the duality gap exposes the
    miss.
    """
    n = u.size
    to_box = np.minimum(u - (tau - 1.0), tau - u)
    to_row = np.where(work, -excess / np.linalg.norm(A, axis=0), np.inf)
    nearest = np.argsort(np.concatenate([to_box, to_row]))[:n]
    inside = np.ones(n, dtype=bool)
    inside[nearest[nearest < n]] = False
    active = nearest[nearest >= n] - n
    x = np.zeros(A.shape[1])
    if active.size:
        x[active] = np.linalg.lstsq(A[np.ix_(inside, active)], y[inside],
                                    rcond=None)[0]
    return x


def _solve_kinked(inst, loss, lam, g0, max_iter):
    """Column generation on the dual LP of the pinball fit (Koenker-Bassett).

    The dual is max w y'u over u in [tau - 1, tau]^n with |A'u| <= lam/w.
    Each round hands HiGHS only the working set of columns, then adds the
    columns whose dual constraint u breaks, most violated first; the loop
    ends when none is broken, and every round adds at least one column.
    The certificate is the larger of the dual infeasibility over all
    columns, in units of lam, and the duality gap.
    """
    A, y = inst.A, inst.y
    # rho = w * pinball_tau: LAD is twice the median's pinball loss
    w, tau = (2.0, 0.5) if loss.family == ABSOLUTE else (1.0, loss.tau_q)
    bound = lam / w
    work = np.zeros(inst.p, dtype=bool)
    work[np.argsort(-np.abs(g0))[:_FIRST_COLUMNS]] = True
    # a dual point needs one round even on a zero budget
    for it in range(1, max(max_iter, 1) + 1):
        u = _restricted_dual(A[:, work], y, bound, tau)
        excess = np.abs(A.T @ u) - bound
        broken = np.flatnonzero((excess > 0.0) & ~work)
        # work must stay the columns this u was solved on
        if broken.size == 0 or it >= max_iter:
            break
        work[broken[np.argsort(-excess[broken])[:_ADDED_COLUMNS]]] = True
    x = _primal_from_dual(A, y, u, excess, work, tau)
    objective = penalized_objective(inst, loss, lam, x)
    gap = abs(objective - w * float(y @ u))
    infeasible = w * max(0.0, float(np.max(excess)))
    return OracleResult(x, objective, max(infeasible, gap), it)


def solve_penalized(inst, loss, lam, tol=None, max_iter=100_000):
    """Minimize sum of rho(y - Ax) plus lam * l1, certifying the result.

    tol defaults to 1e-4 * lam * sqrt(n). The returned kkt_residual is the
    certificate value actually achieved; when the iteration budget runs out
    first, the best iterate comes back with its residual above tol rather
    than an exception. On the smooth path max_iter caps proximal-gradient
    steps and tol bounds the subgradient residual. On the kinked path
    max_iter caps working-set rounds of the dual LP, which HiGHS solves
    exactly, and tol bounds its certificate: the dual infeasibility and
    the duality gap. A degenerate vertex whose recovered fit does not close
    the gap also comes back with its residual above tol, and a HiGHS
    status other than optimal raises RuntimeError.
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
    return _solve_kinked(inst, loss, lam, g0, max_iter)


def check_oracle_distance(inst, loss, lam, ramp_result, tol=None):
    """Per-coordinate squared distance between an AMP run and the direct fit."""
    x_t = np.asarray(getattr(ramp_result, "x", ramp_result), dtype=float)
    if x_t.shape != (inst.p,):
        raise ValueError(f"estimate must have shape ({inst.p},), got {x_t.shape}")
    ref = solve_penalized(inst, loss, lam, tol=tol)
    diff = x_t - ref.x_hat
    return float(np.mean(diff * diff))

"""Direct minimization of the penalized objective on small instances.

This is a test oracle, not a production solver: it trades speed for
simplicity and a checkable certificate. It reads the loss only through
`losses.score_shape`'s (kappa, e_lo, e_hi). Smooth data terms (kappa > 0:
least squares, Huber) run proximal gradient with backtracking, which is
monotone in the objective and certifies optimality through the analytic
subgradient. Kinked data terms (kappa = 0: absolute, quantile) are a
linear program (Koenker & Bassett 1978) whose dual is max y'v over
v in [e_lo, e_hi]^n with |A'v| <= lam: it is solved exactly by HiGHS on a
working set of columns, the fit comes back by complementary slackness,
and the certificate is the larger of the dual infeasibility and the
duality gap. At a degenerate dual vertex, where that fit leaves the gap
open, the primal LP on the working set gives the fit instead. HiGHS runs
with presolve off: the restricted dual LP is small and dense, always
feasible (v = 0) and bounded (the box), so presolve removes nothing, and
it took more than a third of each solve. On the sweep of
`tools/oracle_digest.py` the fits are the same bits with it on or off,
for the primal LP too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse

from .losses import loss_grad, loss_value, score_shape, soft_threshold

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


def penalized_objective(inst, loss, lam, x):
    r = inst.y - inst.A @ x
    return float(np.sum(loss_value(loss, r)) + lam * np.sum(np.abs(x)))


def _solve_smooth(inst, loss, lam, kappa, tol, max_iter):
    A, y = inst.A, inst.y
    x = np.zeros(inst.p)
    # rho'' <= 1/kappa, so the spectral norm squared over kappa bounds the
    # gradient Lipschitz constant; backtracking only shrinks the step
    step = kappa / max(np.linalg.norm(A, 2) ** 2, 1e-12)
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


def _restricted_dual(A_work, y, lam, e_lo, e_hi):
    """Maximize y'v over v in [e_lo, e_hi]^n with |A_work' v| <= lam."""
    res = optimize.milp(
        -y, bounds=optimize.Bounds(e_lo, e_hi),
        constraints=optimize.LinearConstraint(A_work.T, -lam, lam),
        options={"presolve": False})
    if res.status != 0:
        raise RuntimeError(f"HiGHS stopped with status {res.status} on the "
                           f"kinked dual LP: {res.message}")
    return res.x


def _primal_from_dual(A, y, v, excess, work, e_lo, e_hi):
    """The fit that complementary slackness pairs with the dual vertex v.

    excess is |A'v| - lam per column, and work marks the columns the LP
    saw. A vertex of that LP has n active constraints, box faces and
    column rows; they are taken as the n nearest to v, in distance from v
    to each face, which stays right when HiGHS leaves active rows off by
    its feasibility tolerance. Off the active columns S the fit is zero,
    and every v_i off its box faces forces a zero residual, so x_S solves
    the square system A[Z, S] x_S = y_Z. At a nondegenerate vertex its
    solution is the primal optimum; otherwise the duality gap exposes the
    miss.
    """
    n = v.size
    to_box = np.minimum(v - e_lo, e_hi - v)
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


def _restricted_primal(A_work, y, lam, e_lo, e_hi):
    """Minimize sum rho(y - A_work x) + lam |x|_1 as an LP; returns x.

    With x = x+ - x- and r = r+ - r-, the LP is min lam 1'(x+ + x-) +
    e_hi 1'r+ - e_lo 1'r- subject to A_work (x+ - x-) + r+ - r- = y over
    nonnegative variables, on the sparse matrix [A_work, -A_work, I, -I].
    """
    n, k = A_work.shape
    eye = sparse.identity(n, format="csc")
    cost = np.concatenate([np.full(2 * k, lam), np.full(n, e_hi), np.full(n, -e_lo)])
    res = optimize.milp(
        cost, bounds=optimize.Bounds(0.0, np.inf),
        constraints=optimize.LinearConstraint(
            sparse.hstack([A_work, -A_work, eye, -eye], format="csc"), y, y),
        options={"presolve": False})
    if res.status != 0:
        raise RuntimeError(f"HiGHS stopped with status {res.status} on the "
                           f"kinked primal LP: {res.message}")
    return res.x[:k] - res.x[k:2 * k]


def _solve_kinked(inst, loss, lam, e_lo, e_hi, g0, tol, max_iter):
    """Column generation on the dual LP of the kinked fit (Koenker-Bassett).

    rho(r) is e_hi r for r > 0 and e_lo r for r < 0, so the dual is
    max y'v over v in [e_lo, e_hi]^n with |A'v| <= lam. Each round hands
    HiGHS only the working set of columns, then adds the columns whose dual
    constraint v breaks, most violated first; the loop ends when none is
    broken, and every round adds at least one column. When the fit paired
    with the final v leaves the duality gap above tol with no column
    broken, `_restricted_primal` supplies the fit. The certificate is
    the larger of the dual infeasibility max(0, max_j |A_j'v| - lam) over
    all columns and the duality gap |objective - y'v|.
    """
    A, y = inst.A, inst.y
    work = np.zeros(inst.p, dtype=bool)
    work[np.argsort(-np.abs(g0))[:_FIRST_COLUMNS]] = True
    # a dual point needs one round even on a zero budget
    for it in range(1, max(max_iter, 1) + 1):
        v = _restricted_dual(A[:, work], y, lam, e_lo, e_hi)
        excess = np.abs(A.T @ v) - lam
        broken = np.flatnonzero((excess > 0.0) & ~work)
        # work must stay the columns this v was solved on
        if broken.size == 0 or it >= max_iter:
            break
        work[broken[np.argsort(-excess[broken])[:_ADDED_COLUMNS]]] = True
    x = _primal_from_dual(A, y, v, excess, work, e_lo, e_hi)
    objective = penalized_objective(inst, loss, lam, x)
    gap = abs(objective - float(y @ v))
    if broken.size == 0 and gap > tol:
        # a degenerate vertex: the square system missed the fit. No column
        # is broken, so v is dual feasible and the working set's primal LP
        # has the global optimum
        x = np.zeros(inst.p)
        x[work] = _restricted_primal(A[:, work], y, lam, e_lo, e_hi)
        objective = penalized_objective(inst, loss, lam, x)
        gap = abs(objective - float(y @ v))
    infeasible = max(0.0, float(np.max(excess)))
    return OracleResult(x, objective, max(infeasible, gap), it)


def solve_penalized(inst, loss, lam, tol=None, max_iter=100_000):
    """Minimize sum of rho(y - Ax) plus lam * l1, certifying the result.

    tol defaults to 1e-4 * lam * sqrt(n). The returned kkt_residual is the
    certificate value actually achieved; when the iteration budget runs out
    first, the best iterate comes back with its residual above tol rather
    than an exception. On the smooth path max_iter caps proximal-gradient
    steps and tol bounds the subgradient residual. On the kinked path
    max_iter caps working-set rounds of the dual LP, which HiGHS solves
    exactly with presolve off (on this small, dense, always feasible LP
    presolve removes nothing and only costs time), and tol bounds its
    certificate: the dual infeasibility and the duality gap. When the
    rounds end with every column feasible but the fit recovered from a
    degenerate vertex leaves the gap above tol, the primal LP restricted to
    the working set is solved for the fit. A HiGHS status other than
    optimal raises RuntimeError.
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

    kappa, e_lo, e_hi = score_shape(loss)
    if kappa > 0.0:
        return _solve_smooth(inst, loss, lam, kappa, tol, max_iter)
    return _solve_kinked(inst, loss, lam, e_lo, e_hi, g0, tol, max_iter)


def check_oracle_distance(inst, loss, lam, ramp_result):
    """Per-coordinate squared distance between an AMP run and the direct fit.

    The direct fit is `solve_penalized` at its default certificate tolerance.
    """
    x_t = np.asarray(getattr(ramp_result, "x", ramp_result), dtype=float)
    if x_t.shape != (inst.p,):
        raise ValueError(f"estimate must have shape ({inst.p},), got {x_t.shape}")
    ref = solve_penalized(inst, loss, lam)
    diff = x_t - ref.x_hat
    return float(np.mean(diff * diff))

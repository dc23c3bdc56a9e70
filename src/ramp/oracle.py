"""Direct minimization of the penalized objective on small instances.

This is a test oracle, not a production solver: it trades speed for
simplicity and a checkable certificate. It reads the loss only through
`losses.score_shape`'s (kappa, e_lo, e_hi). Smooth data terms (kappa > 0:
least squares, Huber) run proximal gradient at the fixed step 1/L, where L
bounds the gradient's Lipschitz constant; it is monotone in the objective
and certifies optimality through the analytic subgradient. Kinked data
terms (kappa = 0: absolute, quantile) are a linear program (Koenker &
Bassett 1978) whose dual is max y'v over v in [e_lo, e_hi]^n with
|A'v| <= lam: it is solved exactly by HiGHS on a working set of columns
that column generation grows round by round. Every round, the first
from the zero fit's dual point v = rho'(y), adds the outside columns of
largest excess |A_j'v| - lam: all that v breaks, padded by those nearest
to breaking to a fixed count when fewer are broken. The fit comes
back by complementary slackness, and the certificate is the larger of
the dual infeasibility and the duality gap. At a degenerate dual vertex,
where that fit leaves the gap open, the primal LP on the working set
gives the fit instead. HiGHS runs with presolve off: the restricted
dual LP is small and dense, always feasible (v = 0) and bounded (the box),
so presolve removes nothing, and it took more than a third of each solve.
On the sweep of `tools/digest.py oracle` the fits are the same bits with
it on or off, for the primal LP too. Each LP goes to scipy's own HiGHS
binding (`scipy.optimize._highspy._core`, the module `milp` drives) as
compressed-column numpy arrays: `milp` copied them element by element
into HiGHS's vectors and looped over the basis in Python, which cost
more than half as much as the simplex on the benchmark's dual LPs. The
solutions are the same bits as `milp`'s with presolve off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import (
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
)

from .losses import loss_grad, loss_value, score_shape, soft_threshold

# the fewest columns a round of the kinked dual LP adds: every broken one,
# then those nearest to breaking. Each round is a HiGHS solve from scratch,
# and padding a round with columns that v nearly breaks, which the next v
# tends to break, saves whole rounds for a few more rows
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
    # gradient Lipschitz constant L and the step is 1/L: by the descent
    # lemma every proximal step decreases the objective
    step = kappa / max(np.linalg.norm(A, 2) ** 2, 1e-12)
    for it in range(max_iter + 1):
        grad = -(A.T @ loss_grad(loss, y - A @ x))
        resid = _kkt_from_grad(grad, lam, x)
        if resid <= tol or it == max_iter:
            return OracleResult(x, penalized_objective(inst, loss, lam, x),
                                resid, it)
        x = soft_threshold(x - step * grad, step * lam)


def _kkt_from_grad(grad, lam, x):
    on = np.abs(x) > 0
    m_on = np.max(np.abs(-grad[on] - lam * np.sign(x[on]))) if on.any() else 0.0
    m_off = max(0.0, float(np.max(np.abs(grad[~on]))) - lam) if (~on).any() else 0.0
    return max(float(m_on), m_off)


def _highs(cost, col_lower, col_upper, row_lower, row_upper, start, index,
           value, which):
    """Minimize cost'z over col_lower <= z <= col_upper and row_lower <=
    Mz <= row_upper with HiGHS, presolve off, and return z.

    M comes in compressed-column form: column j holds value[start[j]:
    start[j+1]] in rows index[start[j]:start[j+1]], with int32 start and
    index. The arrays go to scipy's HiGHS binding as they are. which names
    the LP in the RuntimeError that an error status from loading or
    solving it, or a model status other than optimal, raises.
    """
    lp = _Highs()
    lp.setOptionValue("log_to_console", False)
    lp.setOptionValue("presolve", "off")
    num_col = cost.size
    status = lp.passModel(num_col, row_lower.size, value.size,
                          MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
                          cost, col_lower, col_upper, row_lower, row_upper,
                          start, index, value, np.zeros(num_col, dtype=np.int32))
    if status != HighsStatus.kError:
        status = lp.run()
    model = lp.getModelStatus()
    if status == HighsStatus.kError or model != HighsModelStatus.kOptimal:
        raise RuntimeError(f"HiGHS returned {status.name} with model status "
                           f"'{lp.modelStatusToString(model)}' on the kinked "
                           f"{which} LP")
    return np.array(lp.getSolution().col_value)


def _restricted_dual(A_work, y, lam, e_lo, e_hi):
    """Maximize y'v over v in [e_lo, e_hi]^n with |A_work' v| <= lam.

    The rows A_work' go to HiGHS as arrays, read off A_work's rows with no
    sparse matrix built: column i of A_work' is row i of A_work, so the
    values are A_work in C order, each column holds rows 0..k-1, and
    column i starts at i k.
    """
    n, k = A_work.shape
    return _highs(-y, np.full(n, e_lo), np.full(n, e_hi), np.full(k, -lam),
                  np.full(k, lam), np.arange(0, n * k + 1, k, dtype=np.int32),
                  np.tile(np.arange(k, dtype=np.int32), n), A_work.ravel(),
                  "dual")


def _primal_from_dual(A, y, v, excess, work, A_work, e_lo, e_hi):
    """The fit that complementary slackness pairs with the dual vertex v.

    excess is |A'v| - lam per column, work marks the columns the LP saw,
    and A_work holds them. A vertex of that LP has n active constraints,
    box faces and column rows; they are taken as the n nearest to v, in
    distance from v to each face, which stays right when HiGHS leaves
    active rows off by its feasibility tolerance. Off the active columns S
    the fit is zero, and every v_i off its box faces forces a zero
    residual, so x_S solves the square system A[Z, S] x_S = y_Z. At a
    nondegenerate vertex its solution is the primal optimum; otherwise the
    duality gap exposes the miss.
    """
    n = v.size
    to_box = np.minimum(v - e_lo, e_hi - v)
    to_row = np.full(A.shape[1], np.inf)
    # A_work is A.compress(work, axis=1), rows in A's C order, so each norm
    # sums in the same order, and to the same bits, as over all of A
    to_row[work] = -excess[work] / np.linalg.norm(A_work, axis=0)
    nearest = np.argsort(np.concatenate([to_box, to_row]))[:n]
    inside = np.ones(n, dtype=bool)
    inside[nearest[nearest < n]] = False
    # in column order, so that the fit depends on the active set alone
    active = np.sort(nearest[nearest >= n] - n)
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
    rows = sparse.hstack([A_work, -A_work, eye, -eye], format="csc")
    x = _highs(cost, np.zeros(cost.size), np.full(cost.size, np.inf), y, y,
               rows.indptr, rows.indices, rows.data, "primal")
    return x[:k] - x[k:2 * k]


def _solve_kinked(inst, loss, lam, e_lo, e_hi, excess, tol, max_iter):
    """Column generation on the dual LP of the kinked fit (Koenker-Bassett).

    rho(r) is e_hi r for r > 0 and e_lo r for r < 0, so the dual is
    max y'v over v in [e_lo, e_hi]^n with |A'v| <= lam. Each round hands
    HiGHS only the working set of columns, which starts empty. A round
    adds the outside columns of largest excess |A_j'v| - lam at the last
    dual point v, max(_ADDED_COLUMNS, number broken) of them: every column
    v breaks, most violated first, then, when fewer than _ADDED_COLUMNS
    are broken, those v nearly breaks. The first round's v is the zero
    fit's rho'(y), whose excess comes in as excess. The loop ends when no
    column is broken. When the fit paired with the final v leaves the
    duality gap above tol with no column broken, `_restricted_primal`
    supplies the fit. The certificate is the larger of the dual
    infeasibility max(0, max_j |A_j'v| - lam) over all columns and the
    duality gap |objective - y'v|.
    """
    A, y = inst.A, inst.y
    work = np.zeros(inst.p, dtype=bool)
    broken = np.flatnonzero(excess > 0.0)
    # a dual point needs one round even on a zero budget
    for it in range(1, max(max_iter, 1) + 1):
        outside = np.flatnonzero(~work)
        added = max(_ADDED_COLUMNS, broken.size)
        work[outside[np.argsort(-excess[outside])[:added]]] = True
        A_work = A.compress(work, axis=1)
        v = _restricted_dual(A_work, y, lam, e_lo, e_hi)
        excess = np.abs(A.T @ v) - lam
        broken = np.flatnonzero((excess > 0.0) & ~work)
        # work must stay the columns this v was solved on
        if broken.size == 0 or it >= max_iter:
            break
    x = _primal_from_dual(A, y, v, excess, work, A_work, e_lo, e_hi)
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
    max_iter caps working-set rounds of the dual LP (each adds every
    column the last dual point breaks, padded to a fixed count with those
    nearest to breaking; the first round's point is the zero fit's
    rho'(y)), which HiGHS solves exactly with presolve off (on this small,
    dense, always feasible LP presolve removes nothing and only costs
    time), handed to scipy's HiGHS binding as arrays (through `milp`, their
    per-element copy into HiGHS cost more than half the simplex's time),
    and tol bounds its certificate: the dual infeasibility and the
    duality gap. When the rounds end with every column feasible
    but the fit recovered from a degenerate vertex leaves the gap above
    tol, the primal LP restricted to the working set is solved for the fit.
    Where the LP has several optimal fits, x_hat is the one that the path
    of working sets reaches; the objective and the certificate do not
    depend on that path. A HiGHS status other than optimal raises
    RuntimeError.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    if tol is None:
        tol = 1e-4 * lam * math.sqrt(inst.n)

    # a zero fit certifies itself directly from the response: the excess
    # |A_j' rho'(y)| - lam of its dual point rho'(y) is nowhere positive
    excess = np.abs(inst.A.T @ loss_grad(loss, inst.y)) - lam
    if np.max(excess) <= 0.0:
        zero = np.zeros(inst.p)
        return OracleResult(zero, penalized_objective(inst, loss, lam, zero),
                            0.0, 0)

    kappa, e_lo, e_hi = score_shape(loss)
    if kappa > 0.0:
        return _solve_smooth(inst, loss, lam, kappa, tol, max_iter)
    return _solve_kinked(inst, loss, lam, e_lo, e_hi, excess, tol, max_iter)


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

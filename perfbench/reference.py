"""Reference computations made apart from the program under test.

Nothing here imports `ramp`. The state-evolution (SE) quantities are
rebuilt from scipy.stats distributions and scipy.integrate.quad, the
kinked penalized problems are solved as linear programs with HiGHS, and
the lasso optimality conditions are checked directly on the design.
None of this runs inside a timed phase.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_QUAD = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 400}


# ---------------------------------------------------------------------------
# losses, described by their effective-score window
# ---------------------------------------------------------------------------


def score_window(family, b, gamma=None, tau_q=None):
    """(lo, hi, c, cap_lo, cap_hi): Phi(v) = c v inside (lo, hi), capped outside.

    The effective score Phi(v; b) = v - prox(v; b) of each loss is linear
    with slope c on a window and constant outside it.
    """
    if family == "least_squares":
        c = b / (1.0 + b)
        return -math.inf, math.inf, c, 0.0, 0.0
    if family == "huber":
        k = (1.0 + b) * gamma
        return -k, k, b / (1.0 + b), -b * gamma, b * gamma
    if family == "absolute":
        return -b, b, 1.0, -b, b
    if family == "quantile":
        return b * (tau_q - 1.0), b * tau_q, 1.0, b * (tau_q - 1.0), b * tau_q
    raise ValueError(f"unknown loss family {family!r}")


def _cdf(x):
    return float(special.ndtr(x))


def _pdf(x):
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _gauss_window(mu, s, lo, hi):
    """P and E[v^2 1] over lo < v < hi for v ~ N(mu, s^2)."""
    a = -math.inf if lo == -math.inf else (lo - mu) / s
    b = math.inf if hi == math.inf else (hi - mu) / s
    p = _cdf(b) - _cdf(a)
    pa = 0.0 if math.isinf(a) else _pdf(a)
    pb = 0.0 if math.isinf(b) else _pdf(b)
    apa = 0.0 if math.isinf(a) else a * pa
    bpb = 0.0 if math.isinf(b) else b * pb
    ez = pa - pb                    # E[Z 1{a<Z<b}]
    ez2 = p + apa - bpb             # E[Z^2 1{a<Z<b}]
    return p, mu * mu * p + 2.0 * mu * s * ez + s * s * ez2


def conditional_score_moments(w, sigma, window):
    """(E Phi'(v), E Phi(v)^2) for v = w + sigma Z, Z standard normal."""
    lo, hi, c, cap_lo, cap_hi = window
    p_in, m2_in = _gauss_window(w, sigma, lo, hi)
    p_lo = 0.0 if lo == -math.inf else _cdf((lo - w) / sigma)
    p_hi = 0.0 if hi == math.inf else _cdf((w - hi) / sigma)
    return c * p_in, c * c * m2_in + cap_lo ** 2 * p_lo + cap_hi ** 2 * p_hi


def _expect_over_noise(noise, g):
    """E g(W) for W drawn from a scipy.stats frozen law, by adaptive quad.

    The range is split at the median so a kink of the density there
    (Laplace) sits on a panel edge.
    """
    def integrand(w):
        return noise.pdf(w) * g(w)

    left, _ = integrate.quad(integrand, -math.inf, 0.0, **_QUAD)
    right, _ = integrate.quad(integrand, 0.0, math.inf, **_QUAD)
    return left + right


def noise_score_moments(noise, sigma, window, which):
    """E over W of conditional_score_moments, component `which` (0 or 1)."""
    return _expect_over_noise(
        noise, lambda w: conditional_score_moments(w, sigma, window)[which])


# ---------------------------------------------------------------------------
# soft-threshold risk and the estimation-channel update
# ---------------------------------------------------------------------------


def soft_threshold_mse(x0, tau, theta):
    """E[(eta(x0 + tau Z; theta) - x0)^2] by quad on the three pieces of eta."""
    lo = (-theta - x0) / tau        # below: eta = x0 + tau z + theta
    hi = (theta - x0) / tau         # above: eta = x0 + tau z - theta
    dead = x0 * x0 * (_cdf(hi) - _cdf(lo))

    def above(z):
        return (tau * z - theta) ** 2 * _pdf(z)

    def below(z):
        return (tau * z + theta) ** 2 * _pdf(z)

    up, _ = integrate.quad(above, hi, math.inf, **_QUAD)
    down, _ = integrate.quad(below, -math.inf, lo, **_QUAD)
    return dead + up + down


def prior_mse(omega, tau, theta):
    """Soft-threshold risk averaged over the +-1 prior of sparsity omega."""
    return ((1.0 - omega) * soft_threshold_mse(0.0, tau, theta)
            + omega * soft_threshold_mse(1.0, tau, theta))


# ---------------------------------------------------------------------------
# checks of a fixed point returned by the program
# ---------------------------------------------------------------------------


def fisher_info(noise_spec):
    """Closed-form Fisher information of a location family, by name."""
    kind = noise_spec["kind"]
    if kind == "normal":
        return 1.0 / noise_spec["sigma_sq"]
    if kind == "laplace":
        return 1.0 / noise_spec["scale"] ** 2
    if kind == "student_t":
        df = noise_spec["df"]
        return (df + 1.0) / (df + 3.0)
    if kind == "cauchy":
        return 0.5 / noise_spec["scale"] ** 2
    raise ValueError(f"unknown noise {kind!r}")


def frozen_noise(noise_spec):
    kind = noise_spec["kind"]
    if kind == "normal":
        return stats.norm(scale=math.sqrt(noise_spec["sigma_sq"]))
    if kind == "laplace":
        return stats.laplace(scale=noise_spec["scale"])
    if kind == "student_t":
        return stats.t(noise_spec["df"])
    if kind == "cauchy":
        return stats.cauchy(scale=noise_spec["scale"])
    raise ValueError(f"unknown noise {kind!r}")


def se_equation_errors(noise_spec, loss_spec, delta, omega, alpha,
                       tau_sq, sigma_sq, b, tau_prev_sq):
    """Relative errors of the three SE equations at a returned fixed point.

    slope: E Phi'(W + sigma Z; b) = omega/delta
    tau:   tau^2 = E Phi^2 / (omega/delta)^2
    sigma: delta sigma^2 = E (eta(X0 + t Z; alpha t) - X0)^2, with t the
           tau of the previous SE iteration that sigma was computed from
    """
    noise = frozen_noise(noise_spec)
    window = score_window(loss_spec["family"], b, loss_spec.get("gamma"),
                          loss_spec.get("tau_q"))
    sigma = math.sqrt(sigma_sq)
    slope = omega / delta
    d = noise_score_moments(noise, sigma, window, 0)
    q = noise_score_moments(noise, sigma, window, 1)
    t = math.sqrt(tau_prev_sq)
    mse = prior_mse(omega, t, alpha * t)
    return {
        "slope": abs(d - slope) / slope,
        "tau": abs(tau_sq - q / (slope * slope)) / tau_sq,
        "sigma": abs(delta * sigma_sq - mse) / mse,
    }


def info_floor(noise_spec, delta, omega):
    """Lower bound (omega/delta)/(1 - omega/delta)/I(F) on the fixed-point tau^2."""
    eps = omega / delta
    return eps / (1.0 - eps) / fisher_info(noise_spec)


# ---------------------------------------------------------------------------
# SE fixed point under normal noise, for the solver workloads
# ---------------------------------------------------------------------------


def _normal_tau_update(loss_spec, noise_var, sigma_sq, slope):
    s = math.sqrt(noise_var + sigma_sq)
    family = loss_spec["family"]

    def window(bb):
        return score_window(family, bb, loss_spec.get("gamma"), loss_spec.get("tau_q"))

    if family == "least_squares":
        b = slope / (1.0 - slope)
    else:
        def excess(log_b):
            return conditional_score_moments(0.0, s, window(math.exp(log_b)))[0] - slope
        log_b = optimize.brentq(excess, math.log(1e-8), math.log(1e8),
                                xtol=1e-15, rtol=1e-15, maxiter=500)
        b = math.exp(log_b)
    _, q = conditional_score_moments(0.0, s, window(b))
    return q / (slope * slope), b


def normal_fixed_point(loss_spec, noise_var, delta, omega, alpha, tol=1e-12):
    """Penalized SE fixed point under N(0, noise_var) noise and the +-1 prior.

    Returns (tau_sq, sigma_sq, b, amse, lambda) with lambda the penalty
    level alpha tau omega / (b delta) the fixed point corresponds to.
    """
    slope = omega / delta
    sigma_sq = omega / delta            # the zero estimate: E X0^2 / delta
    tau_sq, b = _normal_tau_update(loss_spec, noise_var, sigma_sq, slope)
    for _ in range(1000):
        prev = tau_sq
        tau = math.sqrt(prev)
        sigma_sq = prior_mse(omega, tau, alpha * tau) / delta
        tau_sq, b = _normal_tau_update(loss_spec, noise_var, sigma_sq, slope)
        if abs(tau_sq - prev) < tol:
            break
    else:
        raise RuntimeError("reference SE did not converge")
    lam = alpha * math.sqrt(tau_sq) * omega / (b * delta)
    return {"tau_sq": tau_sq, "sigma_sq": sigma_sq, "b": b,
            "amse": delta * sigma_sq, "lambda": lam}


# ---------------------------------------------------------------------------
# exact solutions and optimality conditions
# ---------------------------------------------------------------------------


def pinball_weights(loss_spec):
    """Per-unit cost of positive and negative residuals."""
    if loss_spec["family"] == "absolute":
        return 1.0, 1.0
    if loss_spec["family"] == "quantile":
        t = loss_spec["tau_q"]
        return t, 1.0 - t
    raise ValueError("LP reference covers the absolute and quantile losses")


def kinked_objective(loss_spec, A, y, lam, x):
    w_pos, w_neg = pinball_weights(loss_spec)
    r = y - A @ x
    fit = w_pos * np.sum(np.maximum(r, 0.0)) + w_neg * np.sum(np.maximum(-r, 0.0))
    return float(fit + lam * np.sum(np.abs(x)))


def kinked_lp(loss_spec, A, y, lam):
    """Exact minimum of sum rho(y - Ax) + lam |x|_1 as a HiGHS linear program.

    Variables are x = xp - xm and y - Ax = up - um, all nonnegative.
    Returns (objective, x).
    """
    n, p = A.shape
    w_pos, w_neg = pinball_weights(loss_spec)
    c = np.concatenate([np.full(2 * p, lam), np.full(n, w_pos), np.full(n, w_neg)])
    eye = np.eye(n)
    a_eq = np.hstack([A, -A, eye, -eye])
    res = optimize.linprog(c, A_eq=a_eq, b_eq=y, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    x = res.x[:p] - res.x[p:2 * p]
    return float(res.fun), x


def lasso_kkt_violation(A, y, x, lam):
    """Largest violation of the lasso conditions A^T(y - Ax) in lam d|x|_1, over lam."""
    g = A.T @ (y - A @ x)
    on = x != 0
    on_err = np.max(np.abs(g[on] - lam * np.sign(x[on]))) if on.any() else 0.0
    off_err = max(float(np.max(np.abs(g[~on]))) - lam, 0.0) if (~on).any() else 0.0
    return max(float(on_err), off_err) / lam

"""State evolution for the robust AMP iteration.

Tracks the scalar channel pair (sigma_sq, tau_sq) across iterations for a
given signal prior, noise law, loss, and threshold policy. The tau update
calibrates the score parameter b so that the population slope
E d1Phi(W + sigma Z; b) equals s/n, the equation the solver solves on its
empirical residuals. Fixed points feed the benchmark tables and the
tuning of the threshold multiplier alpha.

Expectations over the effective residual W + sigma Z are computed from
truncated-normal closed forms conditional on W. Normal noise (and normal
mixtures) therefore collapse exactly; heavy-tailed laws are integrated
over W with Gauss-Legendre nodes on the inverse cdf, split at the median
so the Laplace kink sits on a panel edge.

On this quadrature engine the slope E d1Phi is the mass of the score
window, so its derivative in b is the density of W + sigma Z at the
window edges, from the same normal pieces. The tau update therefore finds
b by safeguarded Newton steps on log b (`calibration.solve_increasing`
on `slope_curve`), starting from the previous SE iteration's b, and takes
E Phi^2 once at the root; a few slope evaluations per update suffice. At
sigma = 0 the slope is a step map and Newton's bisection fallback finds
its jump. A seeded Monte Carlo engine is kept alongside for cross-checks;
it calibrates on its drawn sample with the solver's exact
`calibration.calibrate`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize, stats

from .calibration import CalibrationTarget, calibrate, solve_increasing
from .gauss import (
    gamma_cap,
    legendre_nodes_01,
    norm_cdf,
    norm_pdf,
    norm_ppf,
    soft_threshold_risk,
    truncated_moments,
)
from .losses import (
    LEAST_SQUARES,
    effective_score,
    effective_score_deriv,
    soft_threshold,
)

# ---------------------------------------------------------------------------
# signal prior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignalPrior:
    """Sparse atomic prior: mass 1 - omega at zero, the rest on given atoms.

    atoms lists (prob, value) pairs for the conditional nonzero part; probs
    must sum to one and values must be nonzero.
    """

    omega: float
    atoms: tuple

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must be in (0, 1], got {self.omega}")
        atoms = tuple((float(p), float(a)) for p, a in self.atoms)
        if not atoms:
            raise ValueError("need at least one nonzero atom")
        total = sum(p for p, _ in atoms)
        if any(p <= 0 for p, _ in atoms) or abs(total - 1.0) > 1e-12:
            raise ValueError("atom probabilities must be positive and sum to 1")
        if any(a == 0.0 or not math.isfinite(a) for _, a in atoms):
            raise ValueError("atom values must be nonzero and finite")
        object.__setattr__(self, "atoms", atoms)

    @property
    def full_atoms(self):
        """All atoms including the point mass at zero."""
        zero = ((1.0 - self.omega, 0.0),) if self.omega < 1.0 else ()
        return zero + tuple((self.omega * p, a) for p, a in self.atoms)

    @property
    def second_moment(self):
        return self.omega * sum(p * a * a for p, a in self.atoms)

    def sample(self, rng, n):
        probs = np.array([p for p, _ in self.full_atoms])
        vals = np.array([a for _, a in self.full_atoms])
        return rng.choice(vals, size=n, p=probs)


def pm_one_prior(omega):
    """Prior with nonzeros split evenly between +1 and -1."""
    return SignalPrior(omega, ((0.5, 1.0), (0.5, -1.0)))


# ---------------------------------------------------------------------------
# noise laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normal:
    sigma_sq: float = 1.0

    def __post_init__(self):
        if not self.sigma_sq > 0:
            raise ValueError("sigma_sq must be positive")

    @property
    def variance(self):
        return self.sigma_sq

    @property
    def fisher_info(self):
        return 1.0 / self.sigma_sq

    def sample(self, rng, n):
        return math.sqrt(self.sigma_sq) * rng.standard_normal(n)

    def pdf(self, x):
        s = math.sqrt(self.sigma_sq)
        return norm_pdf(np.asarray(x) / s) / s

    def cdf(self, x):
        return norm_cdf(np.asarray(x) / math.sqrt(self.sigma_sq))

    def ppf(self, u):
        return math.sqrt(self.sigma_sq) * norm_ppf(u)


@dataclass(frozen=True)
class NormalMixture:
    """Zero-mean scale mixture of normals, components = ((weight, sigma_sq), ...)."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), float(v)) for w, v in self.components)
        if not comps:
            raise ValueError("need at least one component")
        if any(w <= 0 or v <= 0 for w, v in comps):
            raise ValueError("weights and variances must be positive")
        if abs(sum(w for w, _ in comps) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "components", comps)

    @property
    def variance(self):
        return sum(w * v for w, v in self.components)

    @property
    def fisher_info(self):
        return None

    def sample(self, rng, n):
        weights = np.array([w for w, _ in self.components])
        sds = np.sqrt([v for _, v in self.components])
        idx = rng.choice(len(self.components), size=n, p=weights)
        return sds[idx] * rng.standard_normal(n)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(w * norm_pdf(x / math.sqrt(v)) / math.sqrt(v)
                   for w, v in self.components)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(w * norm_cdf(x / math.sqrt(v)) for w, v in self.components)


@dataclass(frozen=True)
class StudentT:
    df: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.df > 0 or not self.scale > 0:
            raise ValueError("df and scale must be positive")

    @property
    def variance(self):
        if self.df <= 2:
            return math.inf
        return self.df / (self.df - 2.0) * self.scale ** 2

    @property
    def fisher_info(self):
        return (self.df + 1.0) / ((self.df + 3.0) * self.scale ** 2)

    def sample(self, rng, n):
        return self.scale * rng.standard_t(self.df, size=n)

    def pdf(self, x):
        return stats.t.pdf(x, self.df, scale=self.scale)

    def cdf(self, x):
        return stats.t.cdf(x, self.df, scale=self.scale)

    def ppf(self, u):
        return stats.t.ppf(u, self.df, scale=self.scale)


@dataclass(frozen=True)
class Laplace:
    """Double exponential with density exp(-|x|/scale) / (2 scale)."""

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def variance(self):
        return 2.0 * self.scale ** 2

    @property
    def fisher_info(self):
        return 1.0 / self.scale ** 2

    def sample(self, rng, n):
        return rng.laplace(0.0, self.scale, size=n)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0,
                        0.5 * np.exp(x / self.scale),
                        1.0 - 0.5 * np.exp(-x / self.scale))

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        lower = self.scale * np.log(np.maximum(2.0 * u, 1e-300))
        upper = -self.scale * np.log(np.maximum(2.0 * (1.0 - u), 1e-300))
        return np.where(u < 0.5, lower, upper)


@dataclass(frozen=True)
class Cauchy:
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def variance(self):
        return math.inf

    @property
    def fisher_info(self):
        return 1.0 / (2.0 * self.scale ** 2)

    def sample(self, rng, n):
        return self.scale * rng.standard_cauchy(size=n)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale / (np.pi * (self.scale ** 2 + x * x))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 + np.arctan(x / self.scale) / np.pi

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * np.tan(np.pi * (u - 0.5))


@dataclass(frozen=True)
class DistributionModel:
    """Signal prior plus noise law; fisher_info can override the noise value."""

    signal_prior: object
    noise: object
    fisher_info: float = None

    def __post_init__(self):
        if self.fisher_info is None:
            object.__setattr__(self, "fisher_info",
                               getattr(self.noise, "fisher_info", None))


# ---------------------------------------------------------------------------
# population score moments
# ---------------------------------------------------------------------------

_NODES_PER_HALF = 220
_MC_CHUNK = 250_000


def _score_window(loss, b):
    """Window outside which the score derivative vanishes, or None for least squares."""
    if loss.family == LEAST_SQUARES:
        return None
    if loss.gamma is not None:
        k = (1.0 + b) * loss.gamma
        return -k, k
    if loss.tau_q is not None:
        return b * (loss.tau_q - 1.0), b * loss.tau_q
    return -b, b


def _conditional_moments(loss, b, mu, s):
    """(E d1Phi, E Phi^2) of the effective score for v ~ N(mu, s^2).

    Vectorized over mu; uses the piecewise structure of each score so no
    quadrature over v is needed.
    """
    mu = np.asarray(mu, dtype=float)
    if loss.family == LEAST_SQUARES:
        c = b / (1.0 + b)
        return np.full(mu.shape, c), c * c * (mu * mu + s * s)
    lo, hi = _score_window(loss, b)
    p_in, _, m2_in = truncated_moments(mu, s, lo, hi)
    if s == 0.0:
        # point mass at mu, as in truncated_moments
        p_below = (mu <= lo).astype(float)
    else:
        p_below = norm_cdf((lo - mu) / s)
    p_above = np.maximum(1.0 - p_in - p_below, 0.0)
    if loss.gamma is not None:
        c = b / (1.0 + b)
        deriv = c * p_in
        sq = c * c * m2_in + (b * loss.gamma) ** 2 * (p_below + p_above)
    else:
        deriv = p_in
        sq = m2_in + hi * hi * p_above + lo * lo * p_below
    return deriv, sq


def _conditional_slope(loss, b, mu, s):
    """(E d1Phi, d/db E d1Phi) of the effective score for v ~ N(mu, s^2).

    The slope is the mass of the score window (scaled by b/(1+b) for
    Huber), computed as in `_conditional_moments`; its derivative in b is
    the density of v at the window edges times the rate at which each edge
    moves. At s = 0, v is a point mass at mu, inside when lo < mu <= hi as
    in `truncated_moments`, with no density at the edges. Vectorized over
    mu.
    """
    lo, hi = _score_window(loss, b)
    if s == 0.0:
        p_in = ((mu > lo) & (mu <= hi)).astype(float)
        f_lo = f_hi = np.zeros_like(p_in)
    else:
        a = (lo - mu) / s
        c = (hi - mu) / s
        p_in = norm_cdf(c) - norm_cdf(a)
        f_lo = norm_pdf(a) / s
        f_hi = norm_pdf(c) / s
    if loss.gamma is not None:
        # window (-k, k] with k = (1 + b) gamma
        cb = b / (1.0 + b)
        return cb * p_in, p_in / (1.0 + b) ** 2 + cb * loss.gamma * (f_lo + f_hi)
    if loss.tau_q is not None:
        # window (b (tau - 1), b tau]
        return p_in, loss.tau_q * f_hi + (1.0 - loss.tau_q) * f_lo
    return p_in, f_lo + f_hi


@lru_cache(maxsize=32)
def _noise_nodes(noise):
    """Inverse-cdf Gauss-Legendre nodes for E over the noise law."""
    u, w = legendre_nodes_01(_NODES_PER_HALF)
    uu = np.concatenate([0.5 * u, 0.5 + 0.5 * u])
    ww = np.concatenate([0.5 * w, 0.5 * w])
    return np.asarray(noise.ppf(uu), dtype=float), ww


def _noise_average(conditional, noise, sigma):
    """Average over W of a pair conditional(mu, s) of moments of v ~ N(mu, s^2).

    Exact for normal noise and normal mixtures, whose v is normal given
    the component; Gauss-Legendre nodes on the inverse cdf otherwise.
    """
    if isinstance(noise, Normal):
        x, y = conditional(0.0, math.sqrt(noise.sigma_sq + sigma * sigma))
        return float(x), float(y)
    if isinstance(noise, NormalMixture):
        x_tot = y_tot = 0.0
        for w, v in noise.components:
            x, y = conditional(0.0, math.sqrt(v + sigma * sigma))
            x_tot += w * float(x)
            y_tot += w * float(y)
        return x_tot, y_tot
    nodes, weights = _noise_nodes(noise)
    x, y = conditional(nodes, sigma)
    return float(weights @ x), float(weights @ y)


def _score_moments_quad(loss, b, noise, sigma):
    if loss.family == LEAST_SQUARES and not isinstance(noise, (Normal, NormalMixture)):
        var = noise.variance
        if not math.isfinite(var):
            raise ValueError(
                "least-squares score moments diverge under infinite-variance noise")
        c = b / (1.0 + b)
        return c, c * c * (var + sigma * sigma)
    return _noise_average(lambda mu, s: _conditional_moments(loss, b, mu, s),
                          noise, sigma)


@lru_cache(maxsize=1)
def _mc_residuals(noise, sigma, n_samples, seed):
    """Seeded draws of v = W + sigma Z, drawn in chunks of at most _MC_CHUNK.

    Cached because the calibration and E Phi^2 of one tau update use the
    same sample; the array is read-only so no caller can alter it.
    """
    rng = np.random.default_rng(seed)
    chunks = []
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        chunks.append(noise.sample(rng, m) + sigma * rng.standard_normal(m))
        done += m
    v = np.concatenate(chunks)
    v.flags.writeable = False
    return v


def _score_moments_mc(loss, b, noise, sigma, n_samples, seed):
    d_sum = 0.0
    q_sum = 0.0
    sample = _mc_residuals(noise, sigma, n_samples, seed)
    for start in range(0, n_samples, _MC_CHUNK):
        v = sample[start:start + _MC_CHUNK]
        d_sum += float(np.sum(effective_score_deriv(loss, v, b)))
        phi = effective_score(loss, v, b)
        q_sum += float(np.sum(phi * phi))
    return d_sum / n_samples, q_sum / n_samples


def score_moments(loss, b, noise, sigma, engine="auto", mc_samples=10 ** 6, seed=0):
    """Population (E d1Phi(v; b), E Phi(v; b)^2) for v = W + sigma Z."""
    if engine not in ("auto", "quadrature", "mc"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "mc":
        return _score_moments_mc(loss, b, noise, sigma, mc_samples, seed)
    return _score_moments_quad(loss, b, noise, sigma)


def slope_curve(loss, b, noise, sigma):
    """Population (E d1Phi(v; b), d/db E d1Phi(v; b)) for v = W + sigma Z.

    The quadrature engine's slope, which is the first value of
    `score_moments`, together with its derivative in b. With f the density
    of v (averaged over the noise nodes, or exact for Normal and
    NormalMixture noise), the derivative is f(b) + f(-b) for the absolute
    loss, tau f(b tau) + (1 - tau) f(b (tau - 1)) for quantile(tau), and
    P(|v| <= k)/(1+b)^2 + gamma b/(1+b) (f(k) + f(-k)) with k = (1+b) gamma
    for Huber. Least squares has no window and is not handled here.
    """
    return _noise_average(lambda mu, s: _conditional_slope(loss, b, mu, s),
                          noise, sigma)


# ---------------------------------------------------------------------------
# channel updates
# ---------------------------------------------------------------------------


def se_tau_update(sigma_sq, dist, loss, slope, engine="auto",
                  mc_samples=10 ** 6, seed=0, b_start=None):
    """Calibrate b on the current residual law and advance tau_sq.

    Returns (tau_sq, b) where b solves E d1Phi(W + sigma Z; b) = slope and
    tau_sq = E Phi(W + sigma Z; b)^2 / slope^2. The Monte Carlo engine
    finds b with `calibrate` on its drawn sample of W + sigma Z, the
    solver's exact equation and tie rule; least squares has the closed form
    b = slope/(1 - slope). Otherwise `solve_increasing` takes safeguarded
    Newton steps on `slope_curve`, the slope and its analytic derivative in
    b, from b_start (b = 1 when None; SE passes the previous iteration's
    b), and raises CalibrationError when the slope is not bracketed on
    [1e-12, 1e12]. `score_moments` is then called once at the root for
    E Phi^2.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"slope must be in (0, 1), got {slope}")
    sigma = math.sqrt(sigma_sq)
    noise = dist.noise

    if engine == "mc":
        sample = _mc_residuals(noise, sigma, mc_samples, seed)
        b = calibrate(CalibrationTarget(slope, loss, sample))
    elif loss.family == LEAST_SQUARES:
        b = slope / (1.0 - slope)
    else:
        b = solve_increasing(lambda bb: slope_curve(loss, bb, noise, sigma),
                             slope, start=b_start)
    _, sq = score_moments(loss, b, noise, sigma, engine=engine,
                          mc_samples=mc_samples, seed=seed)
    return sq / (slope * slope), b


def se_sigma_update(tau_sq, alpha, dist, delta, mode="penalized"):
    """Estimation-channel update: mean squared denoiser error over delta."""
    if mode == "no_penalty":
        return tau_sq / delta
    tau = math.sqrt(tau_sq)
    if tau == 0.0:
        return 0.0
    total = 0.0
    for p, a in dist.signal_prior.full_atoms:
        total += p * float(soft_threshold_risk(a / tau, alpha))
    return tau_sq * total / delta


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeConfig:
    tol: float = 1e-6
    max_iter: int = 500
    engine: str = "auto"
    mc_samples: int = 10 ** 6
    seed: int = 0


_TAU_SQ_CAP = 1e14


@dataclass(frozen=True)
class SeResult:
    rows: tuple
    tau_star_sq: float
    sigma_star_sq: float
    b_star: float
    theta_star: float
    delta: float
    mode: str
    converged: bool
    diverged: bool
    monotone: bool
    iterations: int

    @property
    def amse(self):
        if self.diverged:
            return math.inf
        if self.mode == "no_penalty":
            return self.tau_star_sq
        return self.delta * self.sigma_star_sq


def _diverged_result(delta, mode, rows=()):
    nan = math.nan
    return SeResult(rows=tuple(rows), tau_star_sq=nan, sigma_star_sq=nan,
                    b_star=nan, theta_star=nan, delta=delta, mode=mode,
                    converged=False, diverged=True, monotone=False,
                    iterations=len(rows))


def se_fixed_point(dist, loss, delta, alpha=None, init_tau_sq=None,
                   mode="penalized", config=SeConfig()):
    """Iterate the two channel updates until tau_sq settles.

    In penalized mode the threshold is theta_t = alpha * tau_t and the slope
    is omega / delta; in no_penalty mode the denoiser is the identity and
    the slope is 1 / delta (requires delta > 1). A least-squares loss under
    infinite-variance noise is flagged diverged without iterating.
    """
    if mode not in ("penalized", "no_penalty"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "penalized":
        if dist.signal_prior is None:
            raise ValueError("penalized mode needs a signal prior")
        if alpha is None or alpha <= 0:
            raise ValueError("penalized mode needs a positive alpha")
        slope = dist.signal_prior.omega / delta
    else:
        if delta <= 1.0:
            raise ValueError("no_penalty mode needs delta > 1")
        slope = 1.0 / delta
    if not 0.0 < slope < 1.0:
        raise ValueError(f"slope omega/delta = {slope} must be in (0, 1)")

    if loss.family == LEAST_SQUARES and not math.isfinite(dist.noise.variance):
        return _diverged_result(delta, mode)

    def theta_of(tau_sq):
        return alpha * math.sqrt(tau_sq) if mode == "penalized" else math.nan

    rows = []
    if init_tau_sq is None and mode == "no_penalty":
        var = dist.noise.variance
        init_tau_sq = var if math.isfinite(var) else 1.0

    if init_tau_sq is not None:
        tau_sq = float(init_tau_sq)
        sigma_sq = b = math.nan
        rows.append((0, math.nan, tau_sq, math.nan, theta_of(tau_sq)))
    else:
        # start from the zero estimate: all signal energy is in the residual
        sigma_sq = dist.signal_prior.second_moment / delta
        tau_sq, b = se_tau_update(sigma_sq, dist, loss, slope,
                                  engine=config.engine,
                                  mc_samples=config.mc_samples,
                                  seed=config.seed)
        rows.append((0, sigma_sq, tau_sq, b, theta_of(tau_sq)))

    converged = False
    diverged = False
    for t in range(1, config.max_iter + 1):
        prev = tau_sq
        sigma_sq = se_sigma_update(prev, alpha, dist, delta, mode=mode)
        # warm start from the previous b, which moves little between steps
        tau_sq, b = se_tau_update(sigma_sq, dist, loss, slope,
                                  engine=config.engine,
                                  mc_samples=config.mc_samples,
                                  seed=config.seed,
                                  b_start=b if math.isfinite(b) else None)
        rows.append((t, sigma_sq, tau_sq, b, theta_of(tau_sq)))
        if not math.isfinite(tau_sq) or tau_sq > _TAU_SQ_CAP:
            diverged = True
            break
        if abs(tau_sq - prev) < config.tol:
            converged = True
            break

    if diverged:
        return _diverged_result(delta, mode, rows)

    taus = [r[2] for r in rows]
    diffs = np.diff(taus)
    monotone = bool(np.all(diffs <= config.tol) or np.all(diffs >= -config.tol))
    return SeResult(rows=tuple(rows), tau_star_sq=tau_sq, sigma_star_sq=sigma_sq,
                    b_star=b, theta_star=theta_of(tau_sq), delta=delta, mode=mode,
                    converged=converged, diverged=False, monotone=monotone,
                    iterations=len(rows) - 1)


# ---------------------------------------------------------------------------
# asymptotic mean squared error
# ---------------------------------------------------------------------------

AmseEstimate = namedtuple("AmseEstimate", ["value", "stderr", "samples"])
AmseParts = namedtuple("AmseParts", ["value", "nu1", "nu2"])


def amse_monte_carlo(prior, tau, theta, samples=10 ** 6, seed=0):
    """Sampled E[(eta(X0 + tau Z; theta) - X0)^2] with its standard error."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        x0 = prior.sample(rng, m)
        err = soft_threshold(x0 + tau * rng.standard_normal(m), theta) - x0
        sq = err * err
        total += float(np.sum(sq))
        total_sq += float(np.sum(sq * sq))
        done += m
    value = total / samples
    var = max(total_sq / samples - value * value, 0.0)
    return AmseEstimate(value, math.sqrt(var / samples), samples)


def amse_closed_form(prior, tau, alpha):
    """Exact E[(eta(X0 + tau Z; alpha tau) - X0)^2] split as nu1 tau^2 + nu2.

    The value is tau^2 times the prior average of
    soft_threshold_risk(x0/tau, alpha). nu2 is the squared-bias part, from
    the atoms the threshold kills: sum p x0^2 (Phi(alpha - m) - Phi(-alpha - m))
    with m = x0/tau. nu1 is the rest divided by tau^2; the zero atom
    contributes gamma_cap(alpha) to it.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    risk = 0.0
    nu2 = 0.0
    for p, x0 in prior.full_atoms:
        m = x0 / tau
        risk += p * float(soft_threshold_risk(m, alpha))
        nu2 += p * x0 * x0 * float(norm_cdf(alpha - m) - norm_cdf(-alpha - m))
    value = tau * tau * risk
    return AmseParts(value, (value - nu2) / (tau * tau), nu2)


# ---------------------------------------------------------------------------
# threshold tuning
# ---------------------------------------------------------------------------

DEFAULT_ALPHA_GRID = tuple(np.round(np.arange(0.5, 3.0 + 1e-9, 0.05), 10))


@dataclass(frozen=True)
class TuneResult:
    """Grid-tuned alpha; at_grid_edge is set when alpha_star is the smallest
    or largest grid point, where the true minimizer may lie off the grid."""

    alpha_star: float
    lambda_star: float
    result: SeResult
    alphas: tuple
    amse_values: tuple
    at_grid_edge: bool = False


def lambda_from_fixed_point(alpha, result, omega):
    """Penalty level matching the fixed point: alpha tau* omega / (b* delta)."""
    return alpha * math.sqrt(result.tau_star_sq) * omega / (result.b_star * result.delta)


def tune_alpha(dist, loss, delta, alpha_grid=None, config=SeConfig()):
    """Minimize the fixed-point AMSE over a grid of threshold multipliers."""
    grid = DEFAULT_ALPHA_GRID if alpha_grid is None else tuple(alpha_grid)
    values = []
    best = None
    best_alpha = math.nan
    for a in grid:
        res = se_fixed_point(dist, loss, delta, alpha=a, config=config)
        ok = res.converged and not res.diverged
        values.append(res.amse if ok else math.nan)
        if ok and (best is None or res.amse < best.amse):
            best = res
            best_alpha = a
    if best is None:
        raise RuntimeError(
            "state evolution did not converge for any alpha in the grid")
    lam = lambda_from_fixed_point(best_alpha, best, dist.signal_prior.omega)
    return TuneResult(alpha_star=best_alpha, lambda_star=lam, result=best,
                      alphas=grid, amse_values=tuple(values),
                      at_grid_edge=best_alpha in (min(grid), max(grid)))


# ---------------------------------------------------------------------------
# limits and lower bounds
# ---------------------------------------------------------------------------

EfficiencyLimits = namedtuple(
    "EfficiencyLimits", ["gamma_cap", "ls_light_limit", "lad_heavy_ratio"])


def info_lower_bound(delta, omega, fisher_info):
    """Floor on the fixed-point tau^2 from the noise information."""
    if fisher_info is None or fisher_info <= 0:
        raise ValueError("need a positive fisher_info")
    eps = omega / delta
    if eps >= 1.0:
        return math.inf
    return eps / (1.0 - eps) / fisher_info


def worst_case_risk(alpha, mu_max=40.0, n_grid=2001):
    """sup over signal means of the soft-threshold risk at threshold alpha.

    The supremum is the large-mean limit 1 + alpha^2; a grid scan guards the
    formula against ever being wrong on the interior.
    """
    mu = np.linspace(0.0, mu_max, n_grid)
    return float(max(np.max(soft_threshold_risk(mu, alpha)), 1.0 + alpha * alpha))


def minimax_risk(omega):
    """Best sparse soft-threshold risk against the worst signal of sparsity omega."""
    def objective(t):
        return (1.0 - omega) * float(gamma_cap(t)) + omega * worst_case_risk(t)

    res = optimize.minimize_scalar(objective, bounds=(1e-3, 10.0),
                                   method="bounded",
                                   options={"xatol": 1e-9})
    return float(res.fun)


def efficiency_limits(delta, omega, alpha):
    """Caps governing when robust losses beat least squares asymptotically.

    gamma_cap is the zero-signal soft-threshold risk at alpha; ls_light_limit
    is the light-tail ceiling 1 / (1 - M(omega)/delta) on the LS-to-robust
    AMSE ratio (infinite when M(omega) >= delta); lad_heavy_ratio is the
    heavy-tail ratio floor gamma_cap / delta.
    """
    g = float(gamma_cap(alpha))
    m = minimax_risk(omega)
    light = math.inf if m >= delta else 1.0 / (1.0 - m / delta)
    return EfficiencyLimits(g, light, g / delta)

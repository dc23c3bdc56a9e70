"""State evolution for the robust AMP iteration.

Tracks the scalar channel pair (sigma_sq, tau_sq) across iterations for a
given signal prior, noise law, loss, and threshold policy. The tau update
calibrates the score parameter b so that the population slope
E d1Phi(W + sigma Z; b) equals s/n, the equation the solver solves on its
empirical residuals. Fixed points feed the benchmark tables and the
tuning of the threshold multiplier alpha.

Expectations over the effective residual W + sigma Z are computed from
truncated-normal closed forms conditional on W, all built from the four
edge terms Phi(a), Phi(c), phi(a), phi(c) at the standardized window edges.
A normal mixture therefore collapses exactly, one closed form per
component; normal noise is the one-component mixture and takes the same
exact path. Heavy-tailed laws are integrated over W with Gauss-Legendre
nodes on the inverse cdf, split at the median so the Laplace kink sits on
a panel edge. `_window_edges` stacks both edges, at every node, in one
(2, ...) array and evaluates them in one pass (`gauss.norm_cdf_pdf`: one
erfc and one exp call), and the moments are summed in place, with the
operations of the plain one-edge formulas and so with their bits.

Every loss enters through its constants (kappa, e_lo, e_hi) from
`losses.score_shape`: Phi(v; b) = c clip(v, lo, hi) with c = b/(kappa + b)
and the score window (lo, hi] = (kappa + b)(e_lo, e_hi]. So the slope
E d1Phi is c times the mass of the window and E Phi^2 is c^2 E clip(v,
lo, hi)^2; c and its derivative kappa/(kappa + b)^2 multiply the noise
averages. The derivative of the slope in b takes, besides dc/db, the
density of W + sigma Z at each window edge times the rate e_lo or e_hi at
which that edge moves, from the same normal pieces. Least squares, whose
window is the whole line, keeps its closed forms. The tau update finds
b by safeguarded Newton steps on log b (`calibration.solve_increasing`
on `slope_curve`) and takes E Phi^2 once at the root. The rows' (sigma_sq,
b) converge geometrically, so a fixed-point run starts each Newton solve
from b extrapolated to the new sigma_sq through its last three rows
(`_predicted_b`): on the twelve cells of the benchmark's se_tune workload
an update takes 2.2 slope evaluations (1147 over 520 updates). Newton's
stopping rule does not depend on the start, so each b is the same root
to solver precision.
At sigma = 0 the slope is a step map and Newton's bisection fallback
finds its jump. The sigma update takes one soft-threshold risk call on
the vector of prior atoms. The zero-estimate start of a fixed point does
not depend on alpha, so `tune_alpha` computes it once per grid.

A fixed point is recorded as its rows (t, sigma_sq, tau_sq, b, theta),
one per iteration: the starred values of `SeResult` are the last row.
`se_fixed_point` and `tune_alpha` share one checked run.

Every expectation here is a deterministic integral, so the recursion has
one path and a fixed point is a deterministic function of its inputs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .calibration import solve_increasing
from .gauss import (
    gamma_cap,
    legendre_nodes_01,
    norm_cdf_pdf,
    soft_threshold_risk,
    truncated_moments,
)
from .losses import score_shape
from .solver import lambda_of_theta

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


def pm_one_prior(omega):
    """Prior with nonzeros split evenly between +1 and -1."""
    return SignalPrior(omega, ((0.5, 1.0), (0.5, -1.0)))


# ---------------------------------------------------------------------------
# noise laws
# ---------------------------------------------------------------------------
# A law gives its variance, fisher_info and sample, plus either normal
# components ((weight, variance), ...), which SE averages exactly, or ppf,
# from which SE builds its quadrature nodes.


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

    @property
    def components(self):
        """The one-component mixture ((1, sigma_sq),), read by the exact SE path."""
        return ((1.0, self.sigma_sq),)

    def sample(self, rng, n):
        return math.sqrt(self.sigma_sq) * rng.standard_normal(n)


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

    def ppf(self, u):
        return self.scale * special.stdtrit(self.df, u)


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

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * np.tan(np.pi * (u - 0.5))


@dataclass(frozen=True)
class DistributionModel:
    """Signal prior plus noise law."""

    signal_prior: object
    noise: object


# ---------------------------------------------------------------------------
# population score moments
# ---------------------------------------------------------------------------

_NODES_PER_HALF = 220


def _window_edges(lo, hi, mu, s):
    """Edge terms of the window (lo, hi] for v ~ N(mu, s^2), s > 0.

    Returns (e, Phi(e), phi(e)), each a (2, ...) array whose rows belong to
    the standardized lower edge a = (lo - mu)/s and upper edge
    c = (hi - mu)/s; both slope and E clip(v, lo, hi)^2 are built from
    them. Both edges go through one `norm_cdf_pdf` pass. The edges of a
    Huber or kinked window are finite, so no infinite-edge guard is needed.
    Vectorized over mu.
    """
    e = np.subtract.outer((lo, hi), mu)
    e /= s
    return (e,) + norm_cdf_pdf(e)


def _conditional_moments(lo, hi, mu, s):
    """(P(v in window), E clip(v, lo, hi)^2) for v ~ N(mu, s^2).

    The window (lo, hi] is the score window, on which Phi(v; b) =
    c clip(v, lo, hi), so these are E d1Phi/c and E Phi^2/c^2. Vectorized
    over mu. The second moment inside the window is the truncated-normal
    closed form

        (mu^2 + s^2) P + 2 mu s (phi(a) - phi(c)) + s^2 (a phi(a) - c phi(c))

    on the edge terms of `_window_edges`, with the same operations as
    `gauss.truncated_moments` and so the same bits, summed in place; the
    mass below the window is Phi(a). At s = 0, v is a point mass at mu,
    inside when lo < mu <= hi. The infinite window of least squares gives
    (1, mu^2 + s^2).
    """
    mu = np.asarray(mu, dtype=float)
    if math.isinf(hi):
        return np.ones(mu.shape), mu * mu + s * s
    if s == 0.0:
        p_in = ((mu > lo) & (mu <= hi)).astype(float)
        m2 = mu * mu * p_in
        p_below = (mu <= lo).astype(float)
    else:
        e, cdf, pdf = _window_edges(lo, hi, mu, s)
        p_below = cdf[0]
        p_in = cdf[1] - p_below
        m2 = mu * mu
        m2 += s * s
        m2 *= p_in
        t = mu * 2.0
        t *= s
        t *= pdf[0] - pdf[1]
        m2 += t
        e *= pdf
        t = e[0] - e[1]
        t *= s * s
        m2 += t
    p_above = 1.0 - p_in
    p_above -= p_below
    m2 += hi * hi * np.maximum(p_above, 0.0)
    m2 += lo * lo * p_below
    return p_in, m2


def _conditional_slope(lo, hi, rate_lo, rate_hi, mu, s):
    """(P(v in window), its derivative in b) for v ~ N(mu, s^2).

    The window (lo, hi] is as in `_conditional_moments`, and its edges move
    with b at rates rate_lo and rate_hi, so the derivative is the density
    of v at each edge times that edge's rate. At s = 0, v is a point mass
    at mu, inside when lo < mu <= hi, with no density at the edges.
    Vectorized over mu.
    """
    if s == 0.0:
        p_in = ((mu > lo) & (mu <= hi)).astype(float)
        return p_in, np.zeros_like(p_in)
    _, cdf, pdf = _window_edges(lo, hi, mu, s)
    dp_in = pdf[1] * (rate_hi / s)
    dp_in -= (rate_lo / s) * pdf[0]
    return cdf[1] - cdf[0], dp_in


@lru_cache(maxsize=32)
def _noise_nodes(noise):
    """Inverse-cdf Gauss-Legendre nodes for E over the noise law."""
    u, w = legendre_nodes_01(_NODES_PER_HALF)
    uu = np.concatenate([0.5 * u, 0.5 + 0.5 * u])
    ww = np.concatenate([0.5 * w, 0.5 * w])
    return np.asarray(noise.ppf(uu), dtype=float), ww


def _noise_average(conditional, noise, sigma):
    """Average over W of a pair conditional(mu, s) of moments of v ~ N(mu, s^2).

    Exact for a law with normal components, whose v is normal given the
    component: a normal mixture, or a normal law as its one component
    (0.0 + 1.0 x is x, and no average here is -0.0, so the bits are those
    of a direct evaluation). Gauss-Legendre nodes on the inverse cdf
    otherwise.
    """
    components = getattr(noise, "components", None)
    if components is not None:
        x_tot = y_tot = 0.0
        for w, v in components:
            x, y = conditional(0.0, math.sqrt(v + sigma * sigma))
            x_tot += w * float(x)
            y_tot += w * float(y)
        return x_tot, y_tot
    nodes, weights = _noise_nodes(noise)
    x, y = conditional(nodes, sigma)
    return float(weights @ x), float(weights @ y)


def score_moments(loss, b, noise, sigma):
    """Population (E d1Phi(v; b), E Phi(v; b)^2) for v = W + sigma Z.

    Exact for Normal and NormalMixture noise, Gauss-Legendre quadrature over
    the noise law otherwise; an infinite score window (least squares) needs
    only the noise variance and raises ValueError when it is infinite. The
    scale c(b) multiplies the noise averages, not the nodes.
    """
    kappa, e_lo, e_hi = score_shape(loss)
    c = b / (kappa + b)
    if math.isinf(e_hi) and not hasattr(noise, "components"):
        var = noise.variance
        if not math.isfinite(var):
            raise ValueError(
                "unbounded-score moments diverge under infinite-variance noise")
        return c, c * c * (var + sigma * sigma)
    lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
    p_in, clip_sq = _noise_average(lambda mu, s: _conditional_moments(lo, hi, mu, s),
                                   noise, sigma)
    return c * p_in, c * c * clip_sq


def slope_curve(loss, b, noise, sigma):
    """Population (E d1Phi(v; b), d/db E d1Phi(v; b)) for v = W + sigma Z.

    The slope is c P, with P the mass of v in the score window
    (lo, hi] = (kappa + b)(e_lo, e_hi], and equals the first value of
    `score_moments` bit for bit. The edges move with b at rates e_lo and
    e_hi, so with f the density of v (averaged over the noise nodes, or
    exact for Normal and NormalMixture noise) the derivative is

        dc/db P + c (e_hi f(hi) - e_lo f(lo)),   dc/db = kappa/(kappa + b)^2.

    The infinite window of least squares is not handled here.
    """
    kappa, e_lo, e_hi = score_shape(loss)
    lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
    p_in, dp_in = _noise_average(
        lambda mu, s: _conditional_slope(lo, hi, e_lo, e_hi, mu, s), noise, sigma)
    c = b / (kappa + b)
    return c * p_in, kappa / (kappa + b) ** 2 * p_in + c * dp_in


# ---------------------------------------------------------------------------
# channel updates
# ---------------------------------------------------------------------------


def se_tau_update(sigma_sq, dist, loss, slope, b_start=None):
    """Calibrate b on the current residual law and advance tau_sq.

    Returns (tau_sq, b) where b solves E d1Phi(W + sigma Z; b) = slope and
    tau_sq = E Phi(W + sigma Z; b)^2 / slope^2. An infinite score window
    (least squares) has the closed form b = kappa slope/(1 - slope), as in
    `calibration.calibrate_smooth`. Otherwise `solve_increasing` takes
    safeguarded Newton steps on `slope_curve`, the slope and its analytic
    derivative in b, from b_start (b = 1 when None; a fixed-point run
    passes `_predicted_b` of its rows), and raises CalibrationError when
    the slope is not bracketed on [1e-12, 1e12]. `score_moments` is then
    called once at the root for E Phi^2.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"slope must be in (0, 1), got {slope}")
    sigma = math.sqrt(sigma_sq)
    noise = dist.noise

    kappa, _, e_hi = score_shape(loss)
    if math.isinf(e_hi):
        b = kappa * slope / (1.0 - slope)
    else:
        b = solve_increasing(lambda bb: slope_curve(loss, bb, noise, sigma),
                             slope, start=b_start)
    _, sq = score_moments(loss, b, noise, sigma)
    return sq / (slope * slope), b


def se_sigma_update(tau_sq, alpha, dist, delta):
    """Estimation-channel update: mean squared denoiser error over delta.

    The denoiser soft-thresholds at alpha * tau. At alpha = 0 it is the
    identity, whose risk is tau_sq under every prior, so the update is
    tau_sq / delta exactly.
    """
    if alpha == 0.0:
        return tau_sq / delta
    tau = math.sqrt(tau_sq)
    if tau == 0.0:
        return 0.0
    return tau_sq * _prior_risk(dist.signal_prior, tau, alpha) / delta


def _prior_risk(prior, tau, alpha):
    """Prior average of soft_threshold_risk(x0/tau, alpha).

    One risk call on the vector of atom means; the weighted terms are
    summed atom by atom, in the prior's order.
    """
    atoms = prior.full_atoms
    risks = soft_threshold_risk(np.array([x0 for _, x0 in atoms]) / tau, alpha)
    total = 0.0
    for (p, _), r in zip(atoms, risks.tolist()):
        total += p * r
    return total


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeConfig:
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


_TAU_SQ_CAP = 1e14


@dataclass(frozen=True)
class SeResult:
    """A fixed-point run: its rows (t, sigma_sq, tau_sq, b, theta) and flags.

    Row 0 is the start and row t the state after t iterations. The starred
    values are the entries of the last row, nan when the run diverged, and
    iterations is the t of the last row, 0 when there are no rows (a run
    flagged diverged without iterating).
    """

    rows: tuple
    delta: float
    converged: bool
    diverged: bool
    monotone: bool

    def _last(self, i):
        return math.nan if self.diverged else self.rows[-1][i]

    @property
    def sigma_star_sq(self):
        return self._last(1)

    @property
    def tau_star_sq(self):
        return self._last(2)

    @property
    def b_star(self):
        return self._last(3)

    @property
    def theta_star(self):
        return self._last(4)

    @property
    def iterations(self):
        return max(len(self.rows) - 1, 0)

    @property
    def amse(self):
        """delta sigma*^2, the mean squared error of the estimate per coordinate."""
        if self.diverged:
            return math.inf
        return self.delta * self.sigma_star_sq


def se_fixed_point(dist, loss, delta, alpha, init_tau_sq=None,
                   config=SeConfig()):
    """Iterate the two channel updates until tau_sq settles.

    The threshold is theta_t = alpha * tau_t and the slope is omega / delta.
    alpha = 0 is the unpenalized M-estimator: the denoiser is the identity,
    every coordinate is fitted, so omega must be 1 and the slope is p/n,
    which needs delta > 1. The run starts from the zero estimate unless
    init_tau_sq is given. An unbounded score (least squares) under
    infinite-variance noise is flagged diverged without iterating.
    """
    return _run(dist, loss, delta, alpha, config, init_tau_sq=init_tau_sq)[0]


def _predicted_b(rows, sigma_sq):
    """Newton's start for the tau update at sigma_sq, from the rows so far.

    The polynomial in sigma_sq through the (sigma_sq, b) of the last rows
    with a finite b, evaluated at sigma_sq: the quadratic through three,
    the line through two, the last b alone. None when no row has a finite
    b (an init_tau_sq start), which starts Newton at b = 1. The last b
    when two of the sigma_sq are equal or the value is not finite and
    positive.
    """
    pts = [(r[1], r[3]) for r in rows[-3:] if math.isfinite(r[3])]
    if not pts:
        return None
    xs = [x for x, _ in pts]
    b = 0.0  # stays 0, and so gives the last b, when two sigma_sq are equal
    if len(set(xs)) == len(xs):
        for i, (xi, bi) in enumerate(pts):
            for xj in xs[:i] + xs[i + 1:]:
                bi *= (sigma_sq - xj) / (xi - xj)
            b += bi
    return b if math.isfinite(b) and b > 0.0 else pts[-1][1]


def _run(dist, loss, delta, alpha, config, init_tau_sq=None, start=None):
    """The checked fixed-point run of `se_fixed_point`, and its start.

    Validates the prior, alpha, the geometry and init_tau_sq; flags an
    infinite score window under infinite-variance noise (E Phi^2 = inf)
    diverged without a start; else iterates from row 0 = start =
    (sigma_sq, tau_sq, b). Without init_tau_sq or a start, the start is
    the zero estimate: all signal energy is in the residual,
    sigma_sq = E X^2 / delta, and tau_sq, b are its first tau update. It
    does not depend on alpha, so `tune_alpha` passes it to the next alpha.
    Returns (result, start), start None when the run was flagged.
    """
    if dist.signal_prior is None:
        raise ValueError("state evolution needs a signal prior")
    if alpha is None or not alpha >= 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    omega = dist.signal_prior.omega
    if alpha == 0.0 and omega < 1.0:
        raise ValueError(
            f"alpha = 0 fits every coordinate, so it needs omega = 1, got {omega}")
    slope = omega / delta
    if not 0.0 < slope < 1.0:
        raise ValueError(f"slope omega/delta = {slope} must be in (0, 1)")
    if init_tau_sq is not None:
        if not 0.0 <= init_tau_sq < math.inf:
            raise ValueError(
                f"init_tau_sq must be finite and nonnegative, got {init_tau_sq}")
        start = (math.nan, float(init_tau_sq), math.nan)
    if math.isinf(score_shape(loss).e_hi) and not math.isfinite(dist.noise.variance):
        return SeResult((), delta, converged=False, diverged=True, monotone=False), None
    if start is None:
        sigma_sq = dist.signal_prior.second_moment / delta
        start = (sigma_sq, *se_tau_update(sigma_sq, dist, loss, slope))

    sigma_sq, tau_sq, b = start
    rows = [(0, sigma_sq, tau_sq, b, alpha * math.sqrt(tau_sq))]
    converged = diverged = False
    for t in range(1, config.max_iter + 1):
        prev = tau_sq
        sigma_sq = se_sigma_update(prev, alpha, dist, delta)
        # the rows converge geometrically, so b extrapolated through the
        # last rows to the new sigma_sq starts Newton next to its root
        tau_sq, b = se_tau_update(sigma_sq, dist, loss, slope,
                                  b_start=_predicted_b(rows, sigma_sq))
        rows.append((t, sigma_sq, tau_sq, b, alpha * math.sqrt(tau_sq)))
        if not math.isfinite(tau_sq) or tau_sq > _TAU_SQ_CAP:
            diverged = True
            break
        if abs(tau_sq - prev) < config.tol:
            converged = True
            break

    diffs = np.diff([r[2] for r in rows])
    monotone = not diverged and bool(np.all(diffs <= config.tol)
                                     or np.all(diffs >= -config.tol))
    return SeResult(tuple(rows), delta, converged, diverged, monotone), start


# ---------------------------------------------------------------------------
# asymptotic mean squared error
# ---------------------------------------------------------------------------


def amse_closed_form(prior, tau, alpha):
    """Exact E[(eta(X0 + tau Z; alpha tau) - X0)^2] for X0 from prior.

    tau^2 times the prior average of soft_threshold_risk(x0/tau, alpha).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    return tau * tau * _prior_risk(prior, tau, alpha)


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
    amse_values: tuple
    at_grid_edge: bool = False


def tune_alpha(dist, loss, delta, alpha_grid=None, config=SeConfig()):
    """Minimize the fixed-point AMSE over a grid of threshold multipliers.

    Each grid point gives the same result as `se_fixed_point` from the zero
    estimate, with every one of its checks. The zero start does not depend
    on alpha, so it is computed once, at the first grid point that needs
    it, and every alpha iterates from it. An empty grid raises ValueError;
    a grid where no alpha converges raises RuntimeError.
    """
    grid = DEFAULT_ALPHA_GRID if alpha_grid is None else tuple(alpha_grid)
    if not grid:
        raise ValueError("alpha_grid is empty")
    values = []
    best = None
    best_alpha = math.nan
    start = None
    for a in grid:
        res, start = _run(dist, loss, delta, a, config, start=start)
        ok = res.converged and not res.diverged
        values.append(res.amse if ok else math.nan)
        if ok and (best is None or res.amse < best.amse):
            best = res
            best_alpha = a
    if best is None:
        raise RuntimeError(
            "state evolution did not converge for any alpha in the grid")
    lam = lambda_of_theta(best.theta_star, best.b_star, delta,
                          dist.signal_prior.omega)
    return TuneResult(alpha_star=best_alpha, lambda_star=lam, result=best,
                      amse_values=tuple(values),
                      at_grid_edge=best_alpha in (min(grid), max(grid)))


# ---------------------------------------------------------------------------
# limits and lower bounds
# ---------------------------------------------------------------------------

EfficiencyLimits = namedtuple("EfficiencyLimits", ["gamma_cap", "lad_heavy_ratio"])


def info_lower_bound(delta, omega, fisher_info):
    """Floor on the fixed-point tau^2 from the noise information."""
    if fisher_info is None or fisher_info <= 0:
        raise ValueError("need a positive fisher_info")
    eps = omega / delta
    if eps >= 1.0:
        return math.inf
    return eps / (1.0 - eps) / fisher_info


def efficiency_limits(delta, alpha):
    """Zero-signal limits of the fixed point at threshold multiplier alpha.

    gamma_cap is the zero-signal soft-threshold risk at alpha, and
    lad_heavy_ratio is the heavy-tail ratio floor gamma_cap / delta.
    """
    g = float(gamma_cap(alpha))
    return EfficiencyLimits(g, g / delta)
